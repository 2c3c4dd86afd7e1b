#!/usr/bin/env bash
# Write every seeded output artifact of this checkout under OUT_DIR, so two
# checkouts can be compared with `diff -r OUT_A OUT_B`.
#
#   tools/artifacts.sh OUT_DIR
#
# OUT_DIR/shipped/{frame,frame-seed3,reels,step}/ hold the shipped
# scenario's frame, frame at --seed 3, reels and step outputs,
# validate.txt what validate prints, and scenario.json the scenario as
# serialize_scenario writes it back after parse_scenario.
# OUT_DIR/filtering/ holds scenario.json, the shipped scenario at p_neg
# 0.1, and {frame,reels}-seed{7,8}/ its outputs at seeds 7 and 8, where
# a nonzero guarantee drops some lines (seed 7) or all of them (seed 8).
# OUT_DIR/sampler/ holds two variants of the shipped scenario, one per
# sampler branch the shipped local_mix 0.9 rarely reaches:
# self-harm.json (allow_negative_diagonal true, local_mix 0.5) and
# fresh.json (local_mix 0.0, every draw fresh), with the {frame,reels}
# outputs of each at seed 7 in {frame,reels}-VARIANT/.
# OUT_DIR/screen/ holds subsampled stage games. Four have no screened
# equilibrium, so the guarantee is the screen's security level, not zero:
# the shipped scenario at max_profiles 60 (shipped.json, outputs at seed
# 12), the same at p_neg 0.1 (filtering.json, seed 8), a 13-agent
# scenario whose 30**13 profiles exceed an int64 (wide.json, seed 0), and
# bench/workloads.py's sampled_document of the shipped scenario at seed 0
# with five agents, at p_neg 0.1 on 2,000 lines (sampled.json, seed 2),
# whose screen draws hundreds of profiles, so each agent's swept grid is
# merged with the rows it sweeps after the first.
# One has a screened equilibrium with a nonzero guarantee: four agents,
# the third dead, at max_profiles 5,000 (dead.json, seed 2). Each has
# {frame,reels}-VARIANT/.
# OUT_DIR/nine/ holds scenario.json, sampled_document at seed 0 with nine
# agents, run on 2,000 lines, and its {frame,reels}/ outputs at seed 7:
# lines at n >= 8, where adding in index order differs from numpy's
# pairwise sums.
# OUT_DIR/help/ holds what `reelsim --help` prints (reelsim.txt) and
# what `reelsim COMMAND --help` prints for each command (COMMAND.txt),
# at COLUMNS=80 so the text does not depend on the terminal; each must
# exit with status 0.
# OUT_DIR/bench/W-S/ holds the inputs and outputs of every command that
# bench/workloads.py's write_inputs gives workload W at seed S, for all
# four workloads at seeds 1 and 2. The script only reads bench/; it runs
# the engine from this checkout's src/.
#
# One interpreter writes every scenario file and runs every command
# through reelsim.cli.main, each argv kept a list, so no path is split on
# a space. The first command that fails ends the script with its status.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$1"
# -B writes no bytecode, so bench/ is left as it is.
COLUMNS=80 PYTHONPATH="$root/src" python3 -B - "$root" "$(cd "$1" && pwd)" > /dev/null <<'EOF'
import contextlib
import copy
import json
import sys
from pathlib import Path

import reelsim as rs
from reelsim.cli import main

root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "bench"))
from workloads import WORKLOADS, sampled_document, write_inputs

shipped_file = root / "scenarios" / "three_agents.json"
shipped = json.loads(shipped_file.read_text())


def variant(doc, sim=None, sampler=None):
    # a copy of doc with the given sim and sampler settings replaced
    doc = copy.deepcopy(doc)
    doc["sim"].update(sim or {})
    doc["sim"]["sampler"].update(sampler or {})
    return doc


n = 13
wide = {
    "schema": 1,
    "agents": [f"a{agent}" for agent in range(n)],
    "sizes": [1.0] * n,
    "tactics": [[float(row == column) for column in range(n)] for row in range(n)],
    "params": {"alpha": 2.5, "beta": 1.2, "mu": 3.0, "delta": 0.9, "sigma": 0.5},
    "sim": {
        "lines": 20, "horizon": 2, "depth_max": 1, "branch_k": 3, "p_min": 0.0,
        "seed": 0, "candidates": 30, "max_profiles": 400,
        "sampler": {**shipped["sim"]["sampler"], "local_mix": 0.5},
    },
}
dead = {
    "schema": 1,
    "agents": [f"a{agent}" for agent in range(4)],
    "sizes": [1.0, 0.5, 0.0, 0.8],
    # 0.7 kept, 0.1 given where row + column is odd and taken where even
    "tactics": [
        [0.7 if row == column else 0.1 if (row + column) % 2 else -0.1 for column in range(4)]
        for row in range(4)
    ],
    "params": shipped["params"],
    "sim": {**shipped["sim"], "max_profiles": 5000},
}
documents = {
    "filtering/scenario.json": variant(shipped, sampler={"p_neg": 0.1}),
    "sampler/self-harm.json": variant(
        shipped, sampler={"allow_negative_diagonal": True, "local_mix": 0.5}
    ),
    "sampler/fresh.json": variant(shipped, sampler={"local_mix": 0.0}),
    "screen/shipped.json": variant(shipped, sim={"max_profiles": 60}),
    "screen/filtering.json": variant(shipped, sim={"max_profiles": 60}, sampler={"p_neg": 0.1}),
    "screen/wide.json": wide,
    "screen/dead.json": dead,
    "screen/sampled.json": variant(
        sampled_document(shipped, 0, 5), sim={"lines": 2000}, sampler={"p_neg": 0.1}
    ),
    "nine/scenario.json": variant(sampled_document(shipped, 0, 9), sim={"lines": 2000}),
}
texts = {name: json.dumps(doc, indent=2) + "\n" for name, doc in documents.items()}
texts["shipped/scenario.json"] = rs.serialize_scenario(rs.parse_scenario(shipped_file.read_bytes()))
for name, text in texts.items():
    (out / name).parent.mkdir(parents=True, exist_ok=True)
    (out / name).write_text(text, encoding="utf-8")
with open(out / "shipped" / "validate.txt", "w", encoding="utf-8") as handle:
    with contextlib.redirect_stdout(handle):
        if status := main(["validate", str(shipped_file)]):
            sys.exit(status)

# (scenario file, output directory, seed, commands): each command runs
# once, into the directory with {} filled by its name; seed None keeps
# the scenario's own seed.
both = ("frame", "reels")
table = [
    (shipped_file, "shipped/{}", None, ("frame", "reels", "step")),
    (shipped_file, "shipped/frame-seed3", 3, ("frame",)),
    (out / "filtering/scenario.json", "filtering/{}-seed7", 7, both),
    (out / "filtering/scenario.json", "filtering/{}-seed8", 8, both),
    (out / "sampler/self-harm.json", "sampler/{}-self-harm", 7, both),
    (out / "sampler/fresh.json", "sampler/{}-fresh", 7, both),
    (out / "screen/shipped.json", "screen/{}-shipped", 12, both),
    (out / "screen/filtering.json", "screen/{}-filtering", 8, both),
    (out / "screen/wide.json", "screen/{}-wide", 0, both),
    (out / "screen/dead.json", "screen/{}-dead", 2, both),
    (out / "screen/sampled.json", "screen/{}-sampled", 2, both),
    (out / "nine/scenario.json", "nine/{}", 7, both),
]
argvs = [
    ["--out-dir", str(out / target.format(command))]
    + (["--seed", str(seed)] if seed is not None else [])
    + [command, str(scenario)]
    for scenario, target, seed, commands in table
    for command in commands
]
argvs += [
    list(command.argv)
    for workload in WORKLOADS
    for seed in (1, 2)
    for command in write_inputs(workload, seed, root, out / "bench" / f"{workload}-{seed}")
]
for argv in argvs:
    if status := main(argv):
        sys.exit(status)

(out / "help").mkdir(exist_ok=True)
# the commands are listed here, not read from reelsim.cli, so that a
# checkout whose parser lacks one fails here
commands = ("validate", "step", "frame", "reels")
for name, argv in [("reelsim", []), *((command, [command]) for command in commands)]:
    with open(out / "help" / f"{name}.txt", "w", encoding="utf-8") as handle:
        with contextlib.redirect_stdout(handle):
            try:
                main([*argv, "--help"])
            except SystemExit as done:
                if done.code:
                    sys.exit(done.code)
EOF
