"""Command-line front end.

Subcommands validate, step, frame and reels, each named once in
COMMANDS with its function and --help summary. Exit codes: 0 success, 1
scenario validation failure, 2 runtime failure (a floating-point
overflow, invalid value or division by zero included) or bad usage.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import warnings
from pathlib import Path

import numpy as np

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
from .reels import LEAF_EMPTY, LEAF_MAX_DEPTH, LEAF_PRUNED, build_reel_tree, enumerate_reels
from .reels import _usable_cpus
from .scenario import Scenario, ScenarioError, parse_scenario, with_seed

OUT_DIR_ENV = "REELSIM_OUT_DIR"


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads is not None and args.threads < 1:
        parser.error("--threads must be at least 1")
    if args.seed is not None and args.seed < 0:
        parser.error("--seed must be nonnegative")
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            scenario = _load_scenario(args.file)
    except ScenarioError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    # A loading warning (sizes rescaled) is one line, without the source
    # line the default format appends.
    for warning in caught:
        print(f"warning: {warning.message}", file=sys.stderr)
    if args.seed is not None:
        scenario = with_seed(scenario, args.seed)
    out_dir = Path(args.out_dir or os.environ.get(OUT_DIR_ENV, "."))
    command, _ = COMMANDS[args.command]
    try:
        # A float overflow or invalid value is a runtime failure, never
        # garbage in the output files.
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return command(scenario, args, out_dir)
    except Exception as err:  # engine failures are runtime failures: exit 2
        print(f"error: {err}", file=sys.stderr)
        return 2


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process; each parse_args call starts from its
    defaults, so a cached parser carries nothing between calls."""
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
        default=None,
        help=(
            "worker processes that expand the reel tree's levels for reels (default: "
            "the CPUs this process may run on, or 1 where the platform does not say)"
        ),
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name, (_, summary) in COMMANDS.items():
        commands.add_parser(name, help=summary).add_argument("file", help="scenario JSON file")
    step = commands.choices["step"]
    step.add_argument("--t", type=int, default=10, help="number of steps (default 10)")
    return parser


def _load_scenario(path_text: str) -> Scenario:
    path = Path(path_text)
    try:
        data = path.read_bytes()
    except OSError as err:
        raise ScenarioError(f"cannot read {path}: {err}") from None
    return parse_scenario(data)


def _write(out_dir: Path, name: str, content: str) -> Path:
    out_dir.mkdir(parents=True, exist_ok=True)
    target = out_dir / name
    target.write_text(content, encoding="utf-8", newline="\n")
    print(f"wrote {target}")
    return target


def _cmd_validate(scenario: Scenario, args, out_dir: Path) -> int:
    sizes = ", ".join(f"{value:g}" for value in scenario.state.sizes)
    line = (
        f"scenario OK: {len(scenario.agents)} agents ({', '.join(scenario.agents)}), "
        f"sizes [{sizes}], seed {scenario.sampler.rng_seed}"
    )
    # Agent names may hold characters stdout cannot encode (an ASCII
    # locale); those are printed as backslash escapes.
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(line.encode(encoding, "backslashreplace").decode(encoding))
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
        scenario.state, scenario.params, scenario.sampler, scenario.sim
    )
    names = list(scenario.agents)
    _write(out_dir, "frames.json", export_frames_json(distribution, names))
    _write(out_dir, "state.dot", export_state_dot(scenario.state, names))
    diagnostics = distribution.diagnostics
    print(
        f"{diagnostics.lines_retained}/{diagnostics.lines_generated} lines retained, "
        f"{diagnostics.clusters} next frames"
    )
    if not diagnostics.lines_retained:
        print("no rational lines of play survived the filter")
    elif distribution.is_empty:
        # inertia weights underflow to 0 on moves far beyond sigma
        print("every surviving line of play has zero weight")
    return 0


def _cmd_reels(scenario: Scenario, args, out_dir: Path) -> int:
    workers = args.threads or _usable_cpus()
    tree = build_reel_tree(
        scenario.state, scenario.params, scenario.sampler, scenario.sim, workers
    )
    reels = enumerate_reels(tree)
    names = list(scenario.agents)
    _write(out_dir, "tree.json", export_reels_json(tree, reels, names))
    _write(out_dir, "tree.dot", export_tree_dot(tree))
    _write(out_dir, "reels.csv", export_reel_table_csv(reels, names))
    if tree.leaf_reason == LEAF_PRUNED:
        print(f"no next frame reached p_min {scenario.sim.p_min!r}; the tree is its root alone")
    elif tree.leaf_reason == LEAF_EMPTY:
        print("the root has no next frame; the tree is its root alone")
    elif tree.leaf_reason == LEAF_MAX_DEPTH:
        print("depth_max is 0; the tree is its root alone")
    else:
        print(f"{len(reels)} reels; most probable has probability {reels[0].probability:.4f}")
    return 0


# name: (function, --help summary), in the order --help lists them
COMMANDS = {
    "validate": (_cmd_validate, "check a scenario file"),
    "step": (_cmd_step, "play the scenario's own tactics forward, sizes to CSV"),
    "frame": (_cmd_frame, "estimate the next-move distribution at the root"),
    "reels": (_cmd_reels, "grow the tree of futures and rank the reels"),
}


if __name__ == "__main__":
    sys.exit(main())
