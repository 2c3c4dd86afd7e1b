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
# OUT_DIR/screen/ holds subsampled stage games. Three have no screened
# equilibrium, so the guarantee is the screen's security level, not zero:
# the shipped scenario at max_profiles 60 (shipped.json, outputs at seed
# 12), the same at p_neg 0.1 (filtering.json, seed 8), and a 13-agent
# scenario whose 30**13 profiles exceed an int64 (wide.json, seed 0).
# One has a screened equilibrium with a nonzero guarantee: four agents,
# the third dead, at max_profiles 5,000 (dead.json, seed 2). Each has
# {frame,reels}-VARIANT/.
# OUT_DIR/nine/ holds scenario.json, bench/workloads.py's
# sampled_document of the shipped scenario at seed 0 with nine agents,
# run on 2,000 lines, and its {frame,reels}/ outputs at seed 7: lines
# at n >= 8, where adding in index order differs from numpy's pairwise
# sums.
# OUT_DIR/bench/W-S/ holds the inputs and outputs of every command that
# bench/workloads.py's write_inputs gives workload W at seed S, for all
# four workloads at seeds 1 and 2. The script only reads bench/; it runs
# the engine from this checkout's src/.
set -euo pipefail

if [ "$#" -ne 1 ]; then
    echo "usage: $0 OUT_DIR" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
mkdir -p "$1"
out="$(cd "$1" && pwd)"
shipped="$root/scenarios/three_agents.json"

reelsim() {
    PYTHONPATH="$root/src" python3 -m reelsim.cli "$@" > /dev/null
}

reelsim --out-dir "$out/shipped/frame" frame "$shipped"
reelsim --out-dir "$out/shipped/frame-seed3" --seed 3 frame "$shipped"
reelsim --out-dir "$out/shipped/reels" reels "$shipped"
reelsim --out-dir "$out/shipped/step" step "$shipped"
PYTHONPATH="$root/src" python3 -m reelsim.cli validate "$shipped" > "$out/shipped/validate.txt"
PYTHONPATH="$root/src" python3 -c '
import sys
from pathlib import Path
from reelsim.scenario import parse_scenario, serialize_scenario
sys.stdout.write(serialize_scenario(parse_scenario(Path(sys.argv[1]).read_bytes())))
' "$shipped" > "$out/shipped/scenario.json"

mkdir -p "$out/filtering"
python3 -c '
import json, sys
doc = json.load(open(sys.argv[1]))
doc["sim"]["sampler"]["p_neg"] = 0.1
sys.stdout.write(json.dumps(doc, indent=2) + "\n")
' "$shipped" > "$out/filtering/scenario.json"
for seed in 7 8; do
    for command in frame reels; do
        reelsim --out-dir "$out/filtering/$command-seed$seed" --seed "$seed" "$command" \
            "$out/filtering/scenario.json"
    done
done

mkdir -p "$out/sampler"
python3 -c '
import copy, json, sys
shipped = json.load(open(sys.argv[1]))
for name, changes in (
    ("self-harm", {"allow_negative_diagonal": True, "local_mix": 0.5}),
    ("fresh", {"local_mix": 0.0}),
):
    doc = copy.deepcopy(shipped)
    doc["sim"]["sampler"].update(changes)
    with open(f"{sys.argv[2]}/{name}.json", "w") as handle:
        handle.write(json.dumps(doc, indent=2) + "\n")
' "$shipped" "$out/sampler"
for variant in self-harm fresh; do
    for command in frame reels; do
        reelsim --out-dir "$out/sampler/$command-$variant" --seed 7 "$command" \
            "$out/sampler/$variant.json"
    done
done

mkdir -p "$out/screen"
python3 -c '
import copy, json, sys
shipped = json.load(open(sys.argv[1]))
shipped["sim"]["max_profiles"] = 60
filtering = copy.deepcopy(shipped)
filtering["sim"]["sampler"]["p_neg"] = 0.1
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
        "sampler": {
            "p_neg": 0.5, "allow_negative_diagonal": False, "local_mix": 0.5, "rounding": 0.25
        },
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
for name, doc in (("shipped", shipped), ("filtering", filtering), ("wide", wide), ("dead", dead)):
    with open(f"{sys.argv[2]}/{name}.json", "w") as handle:
        handle.write(json.dumps(doc, indent=2) + "\n")
' "$shipped" "$out/screen"
for variant in shipped:12 filtering:8 wide:0 dead:2; do
    for command in frame reels; do
        reelsim --out-dir "$out/screen/$command-${variant%:*}" --seed "${variant#*:}" "$command" \
            "$out/screen/${variant%:*}.json"
    done
done

mkdir -p "$out/nine"
python3 -c '
import json, sys
from pathlib import Path
sys.path.insert(0, str(Path(sys.argv[1]) / "bench"))
sys.dont_write_bytecode = True  # leave bench/ as it is
from workloads import sampled_document
doc = sampled_document(json.loads(Path(sys.argv[2]).read_text()), 0, 9)
doc["sim"]["lines"] = 2000
sys.stdout.write(json.dumps(doc, indent=2) + "\n")
' "$root" "$shipped" > "$out/nine/scenario.json"
for command in frame reels; do
    reelsim --out-dir "$out/nine/$command" --seed 7 "$command" "$out/nine/scenario.json"
done

# One interpreter writes each workload's inputs and runs its commands,
# each argv kept a list, so no path is split on a space.
PYTHONPATH="$root/src" python3 -c '
import sys
from pathlib import Path
from reelsim.cli import main
root, out = Path(sys.argv[1]), Path(sys.argv[2])
sys.path.insert(0, str(root / "bench"))
sys.dont_write_bytecode = True  # leave bench/ as it is
from workloads import write_inputs
for workload in ("frame-lines", "frame-game", "frame-sampled", "reels-tree"):
    for seed in (1, 2):
        for command in write_inputs(workload, seed, root, out / "bench" / f"{workload}-{seed}"):
            status = main(list(command.argv))
            if status:
                sys.exit(status)
' "$root" "$out" > /dev/null
