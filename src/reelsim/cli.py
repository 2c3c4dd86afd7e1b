"""Command-line front end.

Subcommands: validate (check a scenario file), step (play the scenario's
own tactics forward, CSV out), frame (one transition distribution at the
root, JSON + DOT out), reels (full tree of futures, JSON + DOT + CSV
out). Exit codes: 0 success, 1 scenario validation failure, 2 runtime
failure or bad usage.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .core import evolve
from .exports import (
    export_frames_json,
    export_reel_table_csv,
    export_reels_json,
    export_sizes_csv,
    export_state_dot,
    export_tree_dot,
)
from .frames import transition_distribution
from .reels import build_reel_tree, enumerate_reels
from .scenario import Scenario, ScenarioError, parse_scenario, with_seed

OUT_DIR_ENV = "REELSIM_OUT_DIR"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        scenario = _load_scenario(args.file)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    if args.seed is not None:
        scenario = with_seed(scenario, args.seed)
    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    command = {
        "validate": _cmd_validate,
        "step": _cmd_step,
        "frame": _cmd_frame,
        "reels": _cmd_reels,
    }[args.command]
    try:
        return command(scenario, args, out_dir)
    except Exception as err:  # engine failures are runtime failures: exit 2
        print(f"error: {err}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="reelsim",
        description=(
            "Simulate power struggles: play tactic matrices forward, estimate "
            "transition probabilities for the next move, and grow trees of "
            "probable futures."
        ),
    )
    parser.add_argument("--seed", type=int, default=None, help="override the scenario seed")
    parser.add_argument(
        "--out-dir",
        default=None,
        help=f"directory for output files (default: ${OUT_DIR_ENV} or .)",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        help="accepted for compatibility and ignored: lines run on one thread",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    validate = commands.add_parser("validate", help="check a scenario file")
    validate.add_argument("file", help="scenario JSON file")

    step = commands.add_parser(
        "step", help="play the scenario's own tactics forward, sizes to CSV"
    )
    step.add_argument("file", help="scenario JSON file")
    step.add_argument("--t", type=int, default=10, help="number of steps (default 10)")

    frame = commands.add_parser(
        "frame", help="estimate the next-move distribution at the root"
    )
    frame.add_argument("file", help="scenario JSON file")

    reels = commands.add_parser(
        "reels", help="grow the tree of futures and rank the reels"
    )
    reels.add_argument("file", help="scenario JSON file")
    return parser


def _load_scenario(path_text: str) -> Scenario:
    path = Path(path_text)
    try:
        text = path.read_text()
    except OSError as err:
        raise ScenarioError(f"cannot read {path}: {err}") from None
    return parse_scenario(text)


def _write(out_dir: Path, name: str, content: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    target.write_text(content)
    print(f"wrote {target}")
    return target


def _cmd_validate(scenario: Scenario, args, out_dir: Path) -> int:
    sizes = ", ".join(f"{value:g}" for value in scenario.state.sizes)
    print(
        f"scenario OK: {len(scenario.agents)} agents ({', '.join(scenario.agents)}), "
        f"sizes [{sizes}], seed {scenario.sim.seed}"
    )
    return 0


def _cmd_step(scenario: Scenario, args, out_dir: Path) -> int:
    if args.t < 0:
        raise ValueError(f"--t must be nonnegative (got {args.t})")
    trajectory = evolve(scenario.state, scenario.params, args.t)
    rows = [scenario.state.sizes, *trajectory]
    _write(out_dir, "sizes.csv", export_sizes_csv(rows, list(scenario.agents)))
    print(f"played {args.t} steps under fixed tactics")
    return 0


def _cmd_frame(scenario: Scenario, args, out_dir: Path) -> int:
    distribution = transition_distribution(
        scenario.state,
        scenario.params,
        scenario.sampler,
        scenario.sim.lines,
        scenario.sim.horizon,
        k_candidates=scenario.sim.candidates,
        max_profiles=scenario.sim.max_profiles,
    )
    names = list(scenario.agents)
    _write(out_dir, "frames.json", export_frames_json(distribution, names))
    _write(out_dir, "state.dot", export_state_dot(scenario.state, names))
    diagnostics = distribution.diagnostics
    print(
        f"{diagnostics.lines_retained}/{diagnostics.lines_generated} lines retained, "
        f"{diagnostics.clusters} next frames"
    )
    if distribution.is_empty:
        print("no rational lines of play survived the filter")
    return 0


def _cmd_reels(scenario: Scenario, args, out_dir: Path) -> int:
    tree = build_reel_tree(
        scenario.state,
        scenario.sim.depth_max,
        scenario.sim.branch_k,
        scenario.sim.p_min,
        scenario.params,
        scenario.sampler,
        scenario.sim.lines,
        scenario.sim.horizon,
        k_candidates=scenario.sim.candidates,
        max_profiles=scenario.sim.max_profiles,
    )
    reels = enumerate_reels(tree)
    names = list(scenario.agents)
    _write(out_dir, "tree.json", export_reels_json(tree, reels, names))
    _write(out_dir, "tree.dot", export_tree_dot(tree))
    _write(out_dir, "reels.csv", export_reel_table_csv(reels, names))
    top = reels[0]
    print(f"{len(reels)} reels; most probable has probability {top.probability:.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
