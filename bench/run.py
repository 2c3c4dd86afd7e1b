"""End-to-end and per-layer benchmark of the reelsim command line.

Run from the root of a checkout:

    python3 bench/run.py --workload frame-lines --seed 1 --seconds 15 --trace 0

One process, one thread. The benchmark writes the workload's scenario
files from --seed (see workloads.py), then:

1. times SETUP_RUNS fresh interpreters that import ``reelsim.cli`` and
   parse the first scenario (setup_s is their mean);
2. imports ``reelsim.cli`` here and runs one untimed warm-up pass of the
   workload's commands through ``reelsim.cli.main``;
3. repeats timed passes for --seconds (wall_s is the mean pass);
4. checks the warm-up outputs against independent computations
   (checks.py) and every later pass's files against the warm-up bytes.

Both timed end-to-end metrics are at reference speed, because the host's
speed drifts by more than the bounds (see calibrate.py). The calibration
loop samples the machine's speed at a fixed period while the passes run
(its own time is kept out of theirs), and the mean pass is scaled by the
reference loop time over the mean loop time of the same run. Each set-up
interpreter is followed by one that imports numpy and scipy.special, and
the mean set-up is scaled by the reference time of that import over its
mean time.

Every command run is one attempted operation; it fails when it exits
non-zero, writes files that differ from the warm-up pass, or its outputs
fail a check. With --trace 1 the passes alternate untraced and traced
(tracing.py), the per-layer metrics are printed instead of the end-to-end
ones, and all spans go to .bench_trace/. The last line of standard
output is the result as one JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import importlib
import io
import json
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import IMPORT_CODE, IMPORT_REFERENCE_S, SpeedSampler, loop_s, to_reference
from checks import (
    brute_force_guarantee,
    check_frames,
    check_root_edges,
    check_tree,
    deviation_problems,
    guarantee_problems,
    plain_payoffs,
)
from tracing import Tracer
from workloads import SHIPPED, WORKLOADS, write_inputs

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
TRACES = ROOT / ".bench_trace"
SETUP_RUNS = 5
SETUP_TIMEOUT_S = 60

# Runs in a fresh interpreter: time to import the CLI and parse the first
# scenario, the work every command does before it can start.
SETUP_CODE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import reelsim.cli
imported = time.perf_counter()
with open(sys.argv[2]) as handle:
    reelsim.cli.parse_scenario(handle.read())
parsed = time.perf_counter()
print(imported - start, parsed - imported)
"""


def fresh_interpreter(code: str, *args: str) -> list[float]:
    """The numbers one fresh interpreter running code prints."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return [float(value) for value in done.stdout.split()]


def measure_setup(scenario: Path) -> tuple[float, float, float]:
    """(import seconds, parse seconds) of one set-up interpreter, and the
    seconds of the calibration import run right after it."""
    import_s, parse_s = fresh_interpreter(SETUP_CODE, str(SRC), str(scenario))
    (library_s,) = fresh_interpreter(IMPORT_CODE)
    return import_s, parse_s, library_s


def load_cli():
    """Import reelsim.cli from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    cli = importlib.import_module("reelsim.cli")
    if Path(cli.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"reelsim.cli was imported from {cli.__file__}, not {SRC}")
    return cli


def read_outputs(out_dir: Path) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out_dir.iterdir())}


def run_pass(cli, commands, clock=time.perf_counter) -> tuple[float, list[bool]]:
    """Run every command once; time only the calls into reelsim.cli.main."""
    elapsed = 0.0
    exited_ok = []
    for command in commands:
        with contextlib.redirect_stdout(io.StringIO()):
            start = clock()
            code = cli.main(list(command.argv))
            elapsed += clock() - start
        exited_ok.append(code == 0)
    return elapsed, exited_ok


def scenario_spec(scenario: Path):
    """The parsed scenario and the plain-dict view the checks read."""
    import reelsim

    parsed = reelsim.parse_scenario(scenario.read_text())
    spec = {
        "sizes": [float(value) for value in parsed.state.sizes],
        "params": dataclasses.asdict(parsed.params),
        "sim": dataclasses.asdict(parsed.sim),
    }
    return parsed, spec


def game_problems(parsed, spec: dict, frames_doc: dict) -> list[str]:
    """Re-solve the stage game through the library and verify it apart from it."""
    import reelsim

    sim = parsed.sim
    game = reelsim.stage_game(
        parsed.state,
        parsed.params,
        parsed.sampler,
        k_candidates=sim.candidates,
        max_profiles=sim.max_profiles,
    )
    diagnostics = frames_doc["diagnostics"]
    if (
        game.exhaustive != diagnostics["exhaustive_game"]
        or len(game.equilibria) != diagnostics["equilibria"]
        or [float(value) for value in game.minimax] != diagnostics["minimax"]
    ):
        return ["frames.json stage-game diagnostics differ from reelsim.stage_game"]
    candidates = [pool.tolist() for pool in game.candidates]
    previous = parsed.state.tactics.T.tolist()
    if game.exhaustive:
        expected = brute_force_guarantee(candidates, previous, spec["sizes"], spec["params"])
        return guarantee_problems(diagnostics["minimax"], expected, "brute-force tabulation")
    equilibria = [matrix.T.tolist() for matrix in game.equilibria]
    problems = deviation_problems(candidates, equilibria, previous, spec["sizes"], spec["params"])
    if equilibria and not problems:
        payoffs = [plain_payoffs(rows, previous, spec["sizes"], spec["params"]) for rows in equilibria]
        expected = [min(column) for column in zip(*payoffs)]
        problems += guarantee_problems(diagnostics["minimax"], expected, "worst equilibrium payoff")
    return problems


def output_problems(cli, command, files: dict[str, bytes]) -> list[str]:
    """Every check that applies to one command's warm-up outputs."""
    parsed, spec = scenario_spec(command.scenario)
    try:
        if command.kind == "frame":
            frames_doc = json.loads(files["frames.json"])
            return check_frames(frames_doc, spec) + game_problems(parsed, spec, frames_doc)
        tree_doc = json.loads(files["tree.json"])
        problems = check_tree(tree_doc, files["reels.csv"].decode(), spec)
        direct = command.out_dir.parent / (command.out_dir.name + "-direct")
        argv = ["--out-dir", str(direct), "frame", str(command.scenario)]
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                return problems + ["a direct frame at the root failed"]
        frames_doc = json.loads((direct / "frames.json").read_bytes())
        problems += check_frames(frames_doc, spec)
        problems += game_problems(parsed, spec, frames_doc)
        return problems + check_root_edges(tree_doc, frames_doc, spec)
    except (KeyError, IndexError, TypeError, ValueError) as err:
        return [f"malformed output: {err!r}"]


def median(values) -> float:
    return float(statistics.median(values))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="reelsim benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "reelsim" / "cli.py").is_file() or not (ROOT / SHIPPED).is_file():
        print(f"error: {ROOT} is not a reelsim checkout (no src/reelsim or {SHIPPED})", file=sys.stderr)
        return 2

    out_dir = OUT / args.workload
    shutil.rmtree(out_dir, ignore_errors=True)
    commands = write_inputs(args.workload, args.seed, ROOT, out_dir)
    cli = load_cli()
    setups = [measure_setup(commands[0].scenario) for _ in range(SETUP_RUNS)]

    # Warm-up pass: fills caches and lazy imports, and gives the reference bytes.
    operations = []  # (command index, exited ok, identical to warm-up)
    _, exited_ok = run_pass(cli, commands)
    reference = [read_outputs(command.out_dir) for command in commands]
    operations += [(index, ok, True) for index, ok in enumerate(exited_ok)]

    sampler = SpeedSampler()
    tracer = Tracer(sampler.clock) if args.trace else None
    plain_times, traced_times = [], []
    with sampler:
        start = time.perf_counter()
        while time.perf_counter() - start < args.seconds or (tracer is not None and not traced_times):
            traced = tracer is not None and len(plain_times) > len(traced_times)
            if traced:
                tracer.begin_pass()
                tracer.install()
            try:
                elapsed, exited_ok = run_pass(cli, commands, sampler.clock)
            finally:
                if traced:
                    tracer.uninstall()
            (traced_times if traced else plain_times).append(elapsed)
            for index, (command, ok) in enumerate(zip(commands, exited_ok)):
                operations.append((index, ok, read_outputs(command.out_dir) == reference[index]))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if not sampler.loops:  # a run shorter than half a sampling period
        sampler.loops.append(loop_s())
    mean_loop_s = statistics.mean(sampler.loops)
    print(f"pass seconds: untraced {plain_times} traced {traced_times}", file=sys.stderr)
    print(f"calibration: {len(sampler.loops)} loops, mean {mean_loop_s * 1e3:.3f} ms", file=sys.stderr)

    problems = [output_problems(cli, command, files) for command, files in zip(commands, reference)]
    for command, found in zip(commands, problems):
        for problem in found[:10]:
            print(f"check failed ({' '.join(command.argv)}): {problem}", file=sys.stderr)
    failed = sum(1 for index, ok, same in operations if not (ok and same) or problems[index])
    correct = True

    wall_s = to_reference(statistics.mean(plain_times), mean_loop_s)
    if tracer is None:
        values = {
            "wall_s": wall_s,
            "setup_s": to_reference(
                statistics.mean(import_s + parse_s for import_s, parse_s, _ in setups),
                statistics.mean(library_s for _, _, library_s in setups),
                IMPORT_REFERENCE_S,
            ),
            "peak_rss_mb": peak_rss_mb,
        }
    else:
        per_pass = [tracer.pass_metrics(index) for index in range(len(traced_times))]
        values = {name: median(p[name] for p in per_pass) for name in per_pass[0]}
        counted = [name for name in values if not name.endswith("_s")]
        if any(p[name] != per_pass[0][name] for p in per_pass for name in counted):
            print("error: counts differ between traced passes", file=sys.stderr)
            correct = False
        values["cli.import_s"] = median(setup[0] for setup in setups)
        values["scenario.parse_s"] = median(setup[1] for setup in setups)
        for name in ("core.update_sizes", "utility.expected_utility", "sampling.sample_tactic_matrix"):
            values[f"{name}_us"] = tracer.per_call_us(name)
        values["trace.overhead_s"] = to_reference(statistics.mean(traced_times), mean_loop_s) - wall_s
        values["calibrate.raw_wall_s"] = statistics.mean(plain_times)
        values["calibrate.loop_ms"] = mean_loop_s * 1e3
        values["calibrate.import_s"] = statistics.mean(setup[2] for setup in setups)
        header = {
            "workload": args.workload,
            "seed": args.seed,
            "untraced_pass_s": plain_times,
            "traced_pass_s": traced_times,
            "calibration_loop_s": sampler.loops,
        }
        tracer.write(TRACES / f"{args.workload}-seed{args.seed}.json", header, values)
        if tracer.missing:
            print(f"note: hooks not found: {', '.join(sorted(tracer.missing))}", file=sys.stderr)
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in declared["end_to_end" if tracer is None else "per_layer"]
    }

    result = {
        "correct": correct,
        "attempted": len(operations),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
