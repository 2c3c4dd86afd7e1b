"""The benchmark's workloads and the inputs each one is run on.

Every input is a scenario file written from the workload seed alone, so
one seed always gives byte-identical inputs (frame-sampled's are the
same for every seed; see SAMPLED_SIM_TAG). A workload is a list of
``reelsim`` commands; one pass runs them all, in order.

Regenerate the inputs of a workload without running it:

    python3 bench/workloads.py --workload frame-sampled --seed 1 --out-dir .bench_out/inputs
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SHIPPED = Path("scenarios") / "three_agents.json"

WORKLOADS = ("frame-lines", "frame-game", "frame-sampled", "reels-tree")

# frame-sampled runs ten fixed generated n=5 states (state seeds 0 to 9)
# at max_profiles 20,000 instead of the library default of 200,000, so a
# command takes about 0.5 s. Its sim seeds are fixed too: about one
# screen in forty finds no equilibrium and then also runs
# _sampled_security_levels, which makes that command four times as
# costly (1.4 s against 0.35 s). With sim seeds drawn from the workload
# seed, a quarter of the seeds had such a command, so a pass's work
# moved by 25 % with the seed. The sim seeds of workload seed 1 hold
# exactly one such command (state 2), so every pass runs both the
# screen-only path and the security-level path, in the same mix.
SAMPLED_AGENTS = 5
SAMPLED_STATES = 10
SAMPLED_MAX_PROFILES = 20_000
SAMPLED_SIM_TAG = "frame-sampled/1/sim"


@dataclass(frozen=True)
class Command:
    """One ``reelsim`` invocation: its argument list and where it writes."""

    argv: tuple[str, ...]
    scenario: Path
    out_dir: Path

    @property
    def kind(self) -> str:
        return self.argv[-2]


def derived_seeds(tag: str, count: int) -> list[int]:
    """Seeds drawn from a string tag; string seeding is stable across runs."""
    rng = random.Random(tag)
    return [rng.randrange(2**31) for _ in range(count)]


def shipped_document(root: Path) -> dict:
    return json.loads((root / SHIPPED).read_text())


def sampled_document(base: dict, seed: int, n: int = SAMPLED_AGENTS) -> dict:
    """An n-agent scenario: random sizes with a largest agent of exactly 1,
    self-heavy tactic columns with some hostile allocations, and the
    shipped model parameters and sampler."""
    rng = np.random.default_rng(seed)
    sizes = rng.uniform(0.2, 1.0, n)
    sizes[rng.integers(n)] = 1.0
    rows = []
    for agent in range(n):
        magnitudes = rng.exponential(1.0, n)
        magnitudes[agent] += n
        magnitudes /= magnitudes.sum()
        signs = np.where(rng.random(n) < 0.3, -1.0, 1.0)
        signs[agent] = 1.0
        rows.append([float(value) for value in magnitudes * signs])
    doc = json.loads(json.dumps(base))
    doc["agents"] = [f"a{index + 1}" for index in range(n)]
    doc["sizes"] = [float(value) for value in sizes]
    doc["tactics"] = rows
    doc["sim"]["lines"] = 100
    doc["sim"]["max_profiles"] = SAMPLED_MAX_PROFILES
    return doc


def documents(workload: str, seed: int, root: Path) -> list[tuple[str, dict]]:
    """(command, scenario document) for every command of one pass."""
    base = shipped_document(root)
    if workload == "frame-lines":
        docs = [("frame", base) for _ in range(3)]
    elif workload == "frame-game":
        game = json.loads(json.dumps(base))
        game["sim"]["candidates"] = 30
        game["sim"]["lines"] = 100
        docs = [("frame", game)]
    elif workload == "frame-sampled":
        docs = [("frame", sampled_document(base, state)) for state in range(SAMPLED_STATES)]
    elif workload == "reels-tree":
        docs = [("reels", base)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    tag = SAMPLED_SIM_TAG if workload == "frame-sampled" else f"{workload}/{seed}/sim"
    out = []
    for (command, doc), sim_seed in zip(docs, derived_seeds(tag, len(docs))):
        doc = json.loads(json.dumps(doc))
        doc["sim"]["seed"] = sim_seed
        out.append((command, doc))
    return out


def write_inputs(workload: str, seed: int, root: Path, out_dir: Path) -> list[Command]:
    """Write a pass's scenario files under out_dir and return its commands."""
    commands = []
    for index, (command, doc) in enumerate(documents(workload, seed, root)):
        scenario = out_dir / "inputs" / f"{index}.json"
        scenario.parent.mkdir(parents=True, exist_ok=True)
        scenario.write_text(json.dumps(doc, indent=2) + "\n")
        target = out_dir / f"out{index}"
        argv = ("--out-dir", str(target), command, str(scenario))
        commands.append(Command(argv=argv, scenario=scenario, out_dir=target))
    return commands


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()
    root = Path(__file__).resolve().parent.parent
    for command in write_inputs(args.workload, args.seed, root, Path(args.out_dir)):
        print(" ".join(("reelsim", *command.argv)))


if __name__ == "__main__":
    main()
