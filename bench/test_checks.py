"""Self-tests of the benchmark: every check passes on real output of a
small scenario and fails once that output is corrupted.

    PYTHONPATH=src python3 -m pytest -q bench/test_checks.py
"""

import contextlib
import copy
import io
import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reelsim  # noqa: E402
import reelsim.cli  # noqa: E402
from calibrate import SpeedSampler, loop_s, to_reference  # noqa: E402
from checks import (  # noqa: E402
    brute_force_guarantee,
    check_frames,
    check_root_edges,
    check_tree,
    deviation_problems,
    guarantee_problems,
)
from run import game_problems, read_outputs, scenario_spec  # noqa: E402
from tracing import Tracer  # noqa: E402

SMALL = {
    "schema": 1,
    "agents": ["a", "b", "c"],
    "sizes": [0.3, 1.0, 0.6],
    "tactics": [[0.7, -0.1, 0.2], [0.1, 0.8, 0.1], [0.0, 0.0, 1.0]],
    "params": {"alpha": 2.5, "beta": 1.2, "mu": 3.0, "delta": 0.9, "sigma": 0.5},
    "sim": {
        "lines": 80,
        "horizon": 2,
        "depth_max": 2,
        "branch_k": 2,
        "p_min": 0.0,
        "seed": 11,
        "candidates": 4,
        "sampler": {"p_neg": 0.5, "local_mix": 0.5, "rounding": 0.25},
    },
}


def run_cli(tmp_path, command, doc, name):
    scenario = tmp_path / f"{name}.json"
    scenario.write_text(json.dumps(doc))
    out = tmp_path / name
    with contextlib.redirect_stdout(io.StringIO()):
        assert reelsim.cli.main(["--out-dir", str(out), command, str(scenario)]) == 0
    return scenario, out


@pytest.fixture(scope="module")
def small(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("small")
    scenario, frame_out = run_cli(tmp_path, "frame", SMALL, "frame")
    _, reels_out = run_cli(tmp_path, "reels", SMALL, "reels")
    parsed, spec = scenario_spec(scenario)
    return {
        "parsed": parsed,
        "spec": spec,
        "frames": json.loads((frame_out / "frames.json").read_text()),
        "tree": json.loads((reels_out / "tree.json").read_text()),
        "csv": (reels_out / "reels.csv").read_text(),
    }


def corrupted(doc, edit):
    doc = copy.deepcopy(doc)
    edit(doc)
    return doc


def test_frame_checks(small):
    frames, spec = small["frames"], small["spec"]
    assert len(frames["frames"]) > 2
    assert check_frames(frames, spec) == []

    def perturb_probability(doc):
        doc["frames"][1]["probability"] += 1e-6

    def unsort(doc):
        doc["frames"][0], doc["frames"][-1] = doc["frames"][-1], doc["frames"][0]

    def break_tactics(doc):
        doc["frames"][0]["tactics"][0] = [2 * value for value in doc["frames"][0]["tactics"][0]]

    def perturb_sizes(doc):
        doc["frames"][0]["sizes"][1] *= 1.0 + 1e-9

    def add_support(doc):
        doc["frames"][0]["support"] += 1

    for edit in (perturb_probability, unsort, break_tactics, perturb_sizes, add_support):
        assert check_frames(corrupted(frames, edit), spec), edit.__name__


def test_exhaustive_guarantee(small):
    parsed, spec, frames = small["parsed"], small["spec"], small["frames"]
    assert frames["diagnostics"]["exhaustive_game"]
    assert game_problems(parsed, spec, frames) == []
    game = reelsim.stage_game(parsed.state, parsed.params, parsed.sampler, k_candidates=4)
    expected = brute_force_guarantee(
        [pool.tolist() for pool in game.candidates],
        parsed.state.tactics.T.tolist(),
        spec["sizes"],
        spec["params"],
    )
    assert guarantee_problems(list(game.minimax), expected, "tabulation") == []
    wrong = [value + 1e-6 for value in expected]
    assert guarantee_problems(list(game.minimax), wrong, "tabulation")

    def perturb_guarantee(doc):
        doc["diagnostics"]["minimax"][0] += 1e-6

    assert game_problems(parsed, spec, corrupted(frames, perturb_guarantee))


def test_deviation_scan(small):
    parsed, spec = small["parsed"], small["spec"]
    state, params = parsed.state, parsed.params
    game = reelsim.stage_game(state, params, parsed.sampler, k_candidates=4)
    candidates = [pool.tolist() for pool in game.candidates]
    previous = state.tactics.T.tolist()
    equilibria = [matrix.T.tolist() for matrix in game.equilibria]
    assert equilibria
    assert deviation_problems(candidates, equilibria, previous, spec["sizes"], spec["params"]) == []
    # A profile where some agent can improve, and a matrix not made of candidates.
    tensor = reelsim.payoff_tensor(game.candidates, state.tactics, state.sizes, params)
    profile = tuple(int(index) for index in non_equilibrium_profiles(tensor)[0])
    improvable = [reelsim.profile_matrix(game.candidates, profile).T.tolist()]
    assert deviation_problems(candidates, improvable, previous, spec["sizes"], spec["params"])
    foreign = copy.deepcopy(equilibria[:1])
    foreign[0][0] = foreign[0][0][::-1]
    assert deviation_problems(candidates, foreign, previous, spec["sizes"], spec["params"])


def non_equilibrium_profiles(tensor):
    """Profiles that are not equilibria of an exhaustive payoff tensor."""
    mask = np.ones(tensor.shape[:-1], dtype=bool)
    for agent in range(tensor.shape[-1]):
        payoffs = tensor[..., agent]
        mask &= payoffs == payoffs.max(axis=agent, keepdims=True)
    return np.argwhere(~mask)


def test_sampled_game_path(tmp_path):
    doc = copy.deepcopy(SMALL)
    doc["sim"].update(candidates=6, max_profiles=150, lines=20)
    scenario, out = run_cli(tmp_path, "frame", doc, "sampled")
    frames = json.loads((out / "frames.json").read_text())
    assert not frames["diagnostics"]["exhaustive_game"]
    parsed, spec = scenario_spec(scenario)
    assert game_problems(parsed, spec, frames) == []


def test_tree_checks(small):
    tree, spec, text = small["tree"], small["spec"], small["csv"]
    assert any(edge["node"]["children"] for edge in tree["tree"]["children"])
    assert check_tree(tree, text, spec) == []
    assert check_root_edges(tree, small["frames"], spec) == []

    def perturb_dropped(doc):
        doc["tree"]["dropped_mass"] += 1e-6

    def perturb_reel(doc):
        doc["reels"][0]["probability"] *= 1.0 + 1e-12

    def perturb_child_sizes(doc):
        doc["tree"]["children"][0]["node"]["sizes"][0] += 1e-6

    for edit in (perturb_dropped, perturb_reel, perturb_child_sizes):
        assert check_tree(corrupted(tree, edit), text, spec), edit.__name__
    lines = text.splitlines()
    fields = lines[1].split(",")
    fields[1] = repr(float(fields[1]) * 0.5)
    assert check_tree(tree, "\n".join([lines[0], ",".join(fields), *lines[2:]]), spec)

    def perturb_root_edge(doc):
        doc["tree"]["children"][0]["probability"] += 1e-9

    assert check_root_edges(corrupted(tree, perturb_root_edge), small["frames"], spec)


def test_repeated_runs_write_identical_bytes(tmp_path):
    _, first = run_cli(tmp_path, "reels", SMALL, "first")
    _, second = run_cli(tmp_path, "reels", SMALL, "second")
    assert read_outputs(first) == read_outputs(second)
    target = second / "tree.dot"
    target.write_bytes(target.read_bytes().replace(b"0.", b"1.", 1))
    assert read_outputs(first) != read_outputs(second)


def test_traced_counts_repeat(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SMALL))
    tracer = Tracer()
    for _ in range(2):
        tracer.begin_pass()
        tracer.install()
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                reelsim.cli.main(["--out-dir", str(tmp_path / "out"), "reels", str(scenario)])
        finally:
            tracer.uninstall()
    assert not tracer.missing
    first, second = tracer.pass_metrics(0), tracer.pass_metrics(1)
    counts = [name for name in first if not name.endswith("_s")]
    assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
    assert first["reels.expansions"] == 3 and first["reels.nodes"] == 7
    assert first["frames.lines"] == 3 * SMALL["sim"]["lines"]
    assert reelsim.cli.transition_distribution is reelsim.frames.transition_distribution


def test_speed_sampler_keeps_its_time_out():
    sampler = SpeedSampler(period_s=0.05)
    with sampler:
        start, clock_start = time.perf_counter(), sampler.clock()
        while time.perf_counter() - start < 0.5:
            loop_s()
        wall, clocked = time.perf_counter() - start, sampler.clock() - clock_start
    assert len(sampler.loops) >= 2
    assert clocked == pytest.approx(wall - sampler.spent, abs=1e-3)
    assert sampler.spent >= sum(sampler.loops)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is not sampler._tick


def test_reference_speed_cancels_a_uniform_slowdown():
    assert to_reference(3.0, 0.05) == pytest.approx(to_reference(4.5, 0.075))
    assert to_reference(3.0, 0.05) != pytest.approx(to_reference(4.5, 0.05))


@pytest.mark.parametrize("trace", [0, 1])
def test_benchmark_prints_declared_metrics(trace):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "frame-game", "--seed", "3",
         "--seconds", "0.1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 2
    wanted = declared["per_layer"] if trace else declared["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: value["unit"] for name, value in result["metrics"].items()
    }
