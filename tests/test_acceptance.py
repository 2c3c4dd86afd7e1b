"""Acceptance gate: ten criteria, one test and one printed verdict each.

Run `pytest tests/test_acceptance.py -v -s` to see every verdict line
even when all of them pass.
"""

import math
import time

import numpy as np
import pytest

import oracles
import reelsim as rs
from reelsim.cli import main


def _report(index, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    line = f"[criterion {index:02d}] {verdict} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def worked_state():
    columns = [(0.7, -0.1, 0.2), (0.1, 0.8, 0.1), (0.0, 0.0, 1.0)]
    tactics = np.array(columns, dtype=float).T
    return rs.State(tactics=tactics, sizes=np.array([0.3, 1.0, 0.6]))


def test_criterion_01_worked_example_update():
    state = worked_state()
    updated = rs.step_update(state, rs.ModelParams(beta=1.2, mu=3.0))
    err = float(np.max(np.abs(updated - np.array([0.33, 0.71, 0.792]))))
    _report(
        1,
        "one update step reproduces the worked three-agent example",
        err <= 1e-12,
        f"max error {err:.2e}",
    )


def test_criterion_02_reel_probability_is_exact_product():
    state = worked_state()
    tip = rs.ReelNode(state, 2, (), rs.LEAF_MAX_DEPTH, 0.0)
    mid = rs.ReelNode(state, 1, (rs.ReelEdge(0.5, tip),), None, 0.5)
    root = rs.ReelNode(state, 0, (rs.ReelEdge(0.1, mid),), None, 0.9)
    reels = rs.enumerate_reels(root)
    ok = (
        len(reels) == 1
        and reels[0].probability == 0.05
        and math.prod(reels[0].edge_probabilities) == 0.05
    )
    _report(
        2,
        "a reel over edges (0.1, 0.5) has probability exactly 0.05",
        ok,
        f"got {reels[0].probability!r}",
    )


def test_criterion_03_positional_utility_properties():
    equal = rs.positional_utility(np.full(5, 0.8), 2.5)
    ok_equal = float(np.max(np.abs(equal - equal[0]))) <= 1e-12
    dead = rs.positional_utility(np.array([0.0, 1.0, 0.4]), 2.5)
    ok_dead = dead[0] == 0.0 and np.all(dead[1:] > 0.0)
    base = rs.positional_utility(np.array([0.3, 1.0, 0.6]), 2.5)
    padded = rs.positional_utility(np.array([0.3, 1.0, 0.6, 0.0, 0.0, 0.0]), 2.5)
    pad_err = float(np.max(np.abs(padded[:3] - base)))
    ok_pad = pad_err <= 1e-12 and np.all(padded[3:] == 0.0)
    small = rs.positional_utility(np.array([1.0, 2.0]), 2.5)
    large = rs.positional_utility(np.array([100.0, 101.0]), 2.5)
    ok_gap = (large[1] - large[0]) < (small[1] - small[0])
    _report(
        3,
        "positional utility: ties, dead zeros, zero-size padding, gap shrinkage",
        ok_equal and ok_dead and ok_pad and ok_gap,
        f"padding error {pad_err:.2e}, gaps {small[1] - small[0]:.4f} -> {large[1] - large[0]:.6f}",
    )


def test_criterion_04_nonempty_distributions_normalize():
    params = rs.ModelParams()
    sim = rs.SimSettings(lines=30, horizon=2, candidates=4)
    start = time.perf_counter()
    checked = empty = 0
    worst = 0.0
    for case in range(1000):
        n = 2 + case % 3
        rng = np.random.default_rng(10_000 + case)
        magnitudes = rng.dirichlet(np.ones(n), size=n).T
        signs = np.where(rng.random((n, n)) < 0.35, -1.0, 1.0)
        np.fill_diagonal(signs, 1.0)
        state = rs.State(tactics=magnitudes * signs, sizes=rng.uniform(0.05, 1.0, n))
        cfg = rs.SamplerConfig(rng_seed=40_000 + case, rounding=0.25, local_mix=0.7)
        dist = rs.transition_distribution(state, params, cfg, sim)
        if dist.is_empty:
            empty += 1
            continue
        checked += 1
        probabilities = np.array([frame.probability for frame in dist.frames])
        worst = max(worst, abs(float(probabilities.sum()) - 1.0))
        if np.any(probabilities <= 0.0):
            worst = np.inf
    elapsed = time.perf_counter() - start
    _report(
        4,
        "1000 random roots: every nonempty distribution sums to 1 within 1e-9",
        checked > 0 and worst <= 1e-9 and elapsed < 60.0,
        f"{checked} nonempty, {empty} empty, worst |sum-1| {worst:.1e}, {elapsed:.1f}s",
    )


def test_criterion_05_folk_filter_soundness():
    state = worked_state()
    params = rs.ModelParams()
    cfg = rs.SamplerConfig(rng_seed=500, rounding=0.25, local_mix=0.6)
    game = rs.stage_game(state, params, cfg, k_candidates=8)
    key = rs.stream_key(cfg.rng_seed, rs.LINE_STREAM)
    lines = rs.generate_lines(state, 3, cfg, params, key, np.arange(10_000))
    retained = rs.folk_filter(lines, game.minimax)
    kept = set(retained.tolist())
    ok_kept = all(bool(np.all(lines.intertemporal[index] > game.minimax)) for index in kept)
    ok_dropped = all(
        bool(np.any(lines.intertemporal[index] <= game.minimax))
        for index in range(len(lines))
        if index not in kept
    )
    # the stored scores themselves must be re-derivable from the matrices
    worst = 0.0
    for index in range(500):
        redone = oracles.intertemporal(lines.payoffs[index].tolist(), params.delta)
        worst = max(worst, float(np.max(np.abs(lines.intertemporal[index] - redone))))
    _report(
        5,
        "10,000 lines: retained iff strictly above the guarantee",
        ok_kept and ok_dropped and worst <= 1e-12,
        f"{len(retained)} retained, recomputation error {worst:.1e}",
    )


def quarter_grid_candidates(self_index):
    """Every valid 2-agent tactic column with entries on the 0.25 grid."""
    columns = []
    for quarters in range(5):
        own = quarters * 0.25
        other = 1.0 - own
        for sign in (1.0, -1.0):
            if sign < 0.0 and other == 0.0:
                continue
            column = np.zeros(2)
            column[self_index] = own
            column[1 - self_index] = sign * other
            columns.append(column)
    return np.stack(columns)


def test_criterion_06_stage_game_matches_brute_force():
    start = time.perf_counter()
    candidates = (quarter_grid_candidates(0), quarter_grid_candidates(1))
    previous = np.array([[0.75, 0.25], [-0.25, 0.75]])
    sizes = np.array([1.0, 0.6])
    params = rs.ModelParams(sigma=0.8)
    game = rs.solve_stage_game(candidates, previous, sizes, params, key=0)
    fast, fast_minimax = game.equilibria, game.minimax
    _, slow_profiles, slow_minimax = oracles.stage_tabulation(
        [pool.tolist() for pool in candidates], previous, sizes, params
    )
    slow_matrices = [rs.profile_matrix(candidates, profile) for profile in slow_profiles]
    ok_count = len(fast) == len(slow_matrices)
    ok_matrices = ok_count and all(
        np.array_equal(a, b) for a, b in zip(fast, slow_matrices)
    )
    ok_minimax = fast_minimax.tolist() == slow_minimax
    elapsed = time.perf_counter() - start
    _report(
        6,
        "exhaustive 0.25-grid stage game matches brute force exactly",
        game.exhaustive and ok_matrices and ok_minimax and elapsed < 60.0,
        f"{len(fast)} equilibria, minimax {np.round(fast_minimax, 6).tolist()}, {elapsed:.1f}s",
    )


def test_criterion_07_inertia_kernel():
    ok_zero = rs.inertia_probability(0.0, 0.7) == 1.0
    ok_value = all(
        abs(rs.inertia_probability(sigma, sigma) - 0.31731) <= 1e-4
        for sigma in (0.15, 0.5, 1.3)
    )
    rng = np.random.default_rng(7)
    monotone = True
    for _ in range(10_000):
        sigma = float(rng.uniform(0.2, 2.0))
        d = float(rng.uniform(0.0, 3.0 * sigma))
        gap = float(rng.uniform(1e-9, sigma))
        if not rs.inertia_probability(d + gap, sigma) < rs.inertia_probability(d, sigma):
            monotone = False
            break
    _report(
        7,
        "inertia kernel: q(0)=1 exactly, q(sigma, sigma)=0.31731, strictly decreasing",
        ok_zero and ok_value and monotone,
        f"q(sigma, sigma)={rs.inertia_probability(1.0, 1.0):.6f}",
    )


def test_criterion_08_intertemporal_closed_form():
    rng = np.random.default_rng(88)
    worst = 0.0
    for _ in range(300):
        c = float(rng.uniform(0.0, 2.0))
        delta = float(rng.uniform(0.05, 0.95))
        horizon = int(rng.integers(1, 21))
        out = rs.intertemporal_utility(np.full((horizon, 3), c), delta)
        target = c * delta * (1.0 - delta**horizon)
        worst = max(worst, float(np.max(np.abs(out - target))))
    _report(
        8,
        "constant payoff stream collapses to c*delta*(1-delta^H)",
        worst <= 1e-12,
        f"max deviation {worst:.2e}",
    )


def test_criterion_09_thread_count_never_changes_results(
    tmp_path, scenario_payload, write_scenario
):
    path = write_scenario(scenario_payload, "determinism.json")
    blobs = []
    codes = []
    for threads, sub in (("1", "serial"), ("3", "threaded")):
        out_dir = tmp_path / sub
        codes.append(
            main(["--seed", "5", "--threads", threads, "--out-dir", str(out_dir), "reels", str(path)])
        )
        blobs.append((out_dir / "tree.json").read_bytes())
    ok = codes == [0, 0] and blobs[0] == blobs[1]
    _report(
        9,
        "reels runs with --threads 1 and 3 emit byte-identical JSON",
        ok,
        f"{len(blobs[0])} bytes",
    )


def test_criterion_10_frame_distribution_converges():
    state = rs.State(
        tactics=rs.round_tactic_matrix(worked_state().tactics, 0.25),
        sizes=np.array([0.3, 1.0, 0.6]),
    )
    params = rs.ModelParams(delta=0.5, sigma=0.15)
    sim = rs.SimSettings(lines=10_000, horizon=3, candidates=8)
    start = time.perf_counter()
    runs = []
    for seed in (101, 202):
        cfg = rs.SamplerConfig(rng_seed=seed, rounding=0.25, local_mix=0.9, p_neg=0.3)
        runs.append(rs.transition_distribution(state, params, cfg, sim))
    maps = [
        {frame.tactics.tobytes(): frame.probability for frame in run.frames} for run in runs
    ]
    tv = oracles.tv_distance(maps[0], maps[1])
    elapsed = time.perf_counter() - start
    ok = not runs[0].is_empty and not runs[1].is_empty and tv < 0.05 and elapsed < 300.0
    _report(
        10,
        "two independent 10,000-line estimates agree (total variation < 0.05)",
        ok,
        f"TV {tv:.4f}, {len(maps[0])}/{len(maps[1])} frames, {elapsed:.1f}s",
    )
