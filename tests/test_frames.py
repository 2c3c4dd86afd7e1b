"""Line generation, the rationality filter, clustering, and transitions."""

import math

import numpy as np
import pytest

import oracles
import reelsim as rs


def make_line(root_tactics, matrices, weight, intertemporal=None):
    """Hand-built line; scoring fields default to zeros."""
    matrices = np.asarray(matrices, dtype=float)
    horizon, n, _ = matrices.shape
    if intertemporal is None:
        intertemporal = np.zeros(n)
    return rs.LineOfPlay(
        root_tactics=np.asarray(root_tactics, dtype=float),
        matrices=matrices,
        sizes=np.zeros((horizon, n)),
        payoffs=np.zeros((horizon, n)),
        intertemporal=np.asarray(intertemporal, dtype=float),
        weight=weight,
    )


# ------------------------------------------------------------------- lines


def test_generate_line_shapes(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=1)
    line = rs.generate_line(three_agent_state, 4, cfg, params, rs.substream(1, 0, 0))
    assert line.matrices.shape == (4, 3, 3)
    assert line.sizes.shape == (4, 3)
    assert line.payoffs.shape == (4, 3)
    assert line.intertemporal.shape == (3,)
    assert 0.0 <= line.weight <= 1.0


def test_generate_line_rejects_zero_horizon(three_agent_state, params):
    with pytest.raises(ValueError, match="horizon must be at least 1"):
        rs.generate_line(three_agent_state, 0, rs.SamplerConfig(), params, rs.substream(0, 0))


def test_generate_line_replays_against_slow_reference(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=6, local_mix=0.4)
    line = rs.generate_line(three_agent_state, 3, cfg, params, rs.substream(6, 0, 5))
    sizes = three_agent_state.sizes.tolist()
    previous = three_agent_state.tactics.tolist()
    for step in range(3):
        tactics = line.matrices[step].tolist()
        sizes = oracles.update(tactics, sizes, params.beta, params.mu)
        assert np.allclose(line.sizes[step], sizes, atol=1e-12)
        q = oracles.inertia(oracles.distance(tactics, previous), params.sigma)
        utilities = oracles.positional(sizes, params.alpha)
        assert np.allclose(line.payoffs[step], np.array(utilities) * q, atol=1e-12)
        previous = tactics
    assert np.allclose(
        line.intertemporal,
        oracles.intertemporal(line.payoffs.tolist(), params.delta),
        atol=1e-12,
    )
    assert line.weight == pytest.approx(
        oracles.line_weight(
            three_agent_state.tactics.tolist(),
            [m.tolist() for m in line.matrices],
            params.delta,
            params.sigma,
        ),
        abs=1e-12,
    )


@pytest.mark.parametrize("n", range(1, 10))
def test_generate_line_scores_match_per_step_calls_bitwise(n):
    rng = np.random.default_rng(40 + n)
    for index in range(6):
        tactics = rng.uniform(-1.0, 1.0, (n, n))
        tactics /= np.abs(tactics).sum(axis=0)
        sizes = rng.uniform(0.0, 1.0, n)
        sizes[rng.random(n) < 0.2] = 0.0
        root = rs.State(tactics=tactics, sizes=sizes)
        params = rs.ModelParams(
            alpha=rng.uniform(2.0, 3.0), delta=rng.uniform(0.05, 0.95), sigma=rng.uniform(0.1, 2.0)
        )
        cfg = rs.SamplerConfig(rng_seed=n, local_mix=index / 5)
        line = rs.generate_line(root, 1 + index, cfg, params, rs.substream(n, 0, index))
        previous, current, payoffs = root.tactics, root.sizes, []
        for matrix, step_sizes in zip(line.matrices, line.sizes):
            current = rs.update_sizes(matrix, current, params)
            assert np.array_equal(step_sizes, current)
            utilities = rs.positional_utility(current, params.alpha)
            payoffs.append(rs.expected_utility(utilities, matrix, previous, params.sigma))
            previous = matrix
        assert np.array_equal(line.payoffs, np.array(payoffs))
        assert np.array_equal(
            line.intertemporal, rs.intertemporal_utility(np.array(payoffs), params.delta)
        )
        assert line.weight == oracles.scalar_line_weight(root.tactics, line.matrices, params)
        assert rs.frame_weight(line, params) == line.weight


def test_generate_line_validates_every_matrix(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=2, local_mix=0.7)
    line = rs.generate_line(three_agent_state, 5, cfg, params, rs.substream(2, 0, 0))
    for matrix in line.matrices:
        rs.validate_tactic_matrix(matrix)


# ------------------------------------------------------------------ weights


def test_weight_of_standing_still_is_one(three_agent_tactics, params):
    line = make_line(three_agent_tactics, [three_agent_tactics] * 3, weight=0.0)
    assert rs.frame_weight(line, params) == 1.0


def test_weight_hand_value():
    # single-entry nudges give distances 0.2, 0.1, 0.4 at steps 1..3
    params = rs.ModelParams(delta=0.9, sigma=0.5)
    t0 = np.eye(3)
    t1 = t0.copy()
    t1[0, 1] += 0.2
    t2 = t1.copy()
    t2[1, 0] += 0.1
    t3 = t2.copy()
    t3[2, 0] += 0.4
    line = make_line(t0, [t1, t2, t3], weight=0.0)
    moved = 0.9 * 0.2 + 0.9**2 * 0.1 + 0.9**3 * 0.4
    expected = math.erfc(0.1 * moved / (0.5 * math.sqrt(2.0)))
    assert rs.frame_weight(line, params) == pytest.approx(expected, abs=1e-12)


def test_weight_decreases_with_extra_movement(three_agent_tactics, params):
    quiet = make_line(three_agent_tactics, [three_agent_tactics, np.eye(3)], weight=0.0)
    busy = make_line(three_agent_tactics, [np.eye(3), three_agent_tactics], weight=0.0)
    # moving away and back accumulates twice the discounted distance of
    # one late move
    assert rs.frame_weight(busy, params) < rs.frame_weight(quiet, params)


# ------------------------------------------------------------------- filter


def test_folk_filter_strictness(three_agent_tactics):
    above = make_line(three_agent_tactics, [three_agent_tactics], 1.0, [0.2, 0.3, 0.4])
    below = make_line(three_agent_tactics, [three_agent_tactics], 1.0, [0.2, 0.1, 0.4])
    boundary = make_line(three_agent_tactics, [three_agent_tactics], 1.0, [0.2, 0.2, 0.4])
    minimax = np.array([0.1, 0.2, 0.3])
    kept = rs.folk_filter([above, below, boundary], minimax)
    # one agent merely matching its guarantee already disqualifies a line
    assert kept == [above]


def test_folk_filter_zero_guarantee_keeps_positive_lines(three_agent_tactics):
    positive = make_line(three_agent_tactics, [three_agent_tactics], 1.0, [0.1, 0.2, 0.3])
    zero = make_line(three_agent_tactics, [three_agent_tactics], 1.0, [0.1, 0.0, 0.3])
    kept = rs.folk_filter([positive, zero], np.zeros(3))
    assert kept == [positive]


# --------------------------------------------------------------- clustering


def test_cluster_shares_weight_by_grid_cell(three_agent_state, params):
    cfg = rs.SamplerConfig(rounding=0.25)
    a = rs.round_tactic_matrix(three_agent_state.tactics, 0.25)
    b = rs.matrix_from_grid(np.array([[4, 0, 0], [0, 4, 0], [0, 0, 4]]), 0.25)
    lines = [
        make_line(three_agent_state.tactics, [a], 0.5),
        make_line(three_agent_state.tactics, [a], 0.3),
        make_line(three_agent_state.tactics, [b], 0.2),
    ]
    frames = rs.cluster_first_moves(lines, three_agent_state, params, cfg)
    assert len(frames) == 2
    assert [frame.probability for frame in frames] == [0.8, 0.2]
    assert [frame.support for frame in frames] == [2, 1]
    assert frames[0].weight == pytest.approx(0.8, abs=1e-15)


def test_cluster_representative_is_valid_state(three_agent_state, params):
    cfg = rs.SamplerConfig(rounding=0.25)
    first = rs.round_tactic_matrix(three_agent_state.tactics, 0.25)
    lines = [make_line(three_agent_state.tactics, [first], 1.0)]
    frames = rs.cluster_first_moves(lines, three_agent_state, params, cfg)
    frame = frames[0]
    rs.validate_tactic_matrix(frame.tactics)
    assert np.array_equal(frame.key, rs.round_to_grid(first, 0.25))
    assert np.array_equal(
        frame.sizes, rs.update_sizes(frame.tactics, three_agent_state.sizes, params)
    )
    rs.State(tactics=frame.tactics, sizes=frame.sizes)


def test_cluster_zero_weight_lines_produce_nothing(three_agent_state, params):
    cfg = rs.SamplerConfig(rounding=0.25)
    lines = [make_line(three_agent_state.tactics, [np.eye(3)], 0.0)]
    assert rs.cluster_first_moves(lines, three_agent_state, params, cfg) == ()


def test_cluster_matches_slow_reference(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=4, rounding=0.25)
    rng = rs.substream(4, rs.LINE_STREAM, 0)
    lines = [
        rs.generate_line(three_agent_state, 2, cfg, params, rng) for _ in range(60)
    ]
    frames = rs.cluster_first_moves(lines, three_agent_state, params, cfg)
    slow = oracles.cluster(
        [line.matrices[0].tolist() for line in lines],
        [line.weight for line in lines],
        0.25,
    )
    assert len(frames) == len(slow)
    total = sum(weight for _, weight in slow.values())
    for frame in frames:
        key = tuple(map(tuple, frame.key.tolist()))
        support, weight = slow[key]
        assert frame.support == support
        assert frame.weight == pytest.approx(weight, abs=1e-12)
        assert frame.probability == pytest.approx(weight / total, abs=1e-12)


def test_cluster_sorts_by_probability(three_agent_state, params):
    cfg = rs.SamplerConfig(rounding=0.25)
    a = rs.matrix_from_grid(np.eye(3, dtype=int) * 4, 0.25)
    b = rs.round_tactic_matrix(three_agent_state.tactics, 0.25)
    c = rs.matrix_from_grid(np.array([[0, 0, 4], [4, 0, 0], [0, 4, 0]]), 0.25)
    lines = [
        make_line(three_agent_state.tactics, [m], w)
        for m, w in [(a, 0.1), (b, 0.5), (c, 0.4)]
    ]
    frames = rs.cluster_first_moves(lines, three_agent_state, params, cfg)
    assert [frame.probability for frame in frames] == [0.5, 0.4, 0.1]


# ------------------------------------------------------------- distribution


def small_distribution(state, params, seed=11, lines=80):
    cfg = rs.SamplerConfig(rng_seed=seed, rounding=0.25, local_mix=0.8)
    return rs.transition_distribution(state, params, cfg, lines, 2, k_candidates=4)


def test_distribution_probabilities_sum_to_one(three_agent_state, params):
    dist = small_distribution(three_agent_state, params)
    assert not dist.is_empty
    assert abs(dist.probabilities().sum() - 1.0) <= 1e-9
    assert all(frame.probability > 0.0 for frame in dist.frames)


def test_distribution_diagnostics_are_consistent(three_agent_state, params):
    dist = small_distribution(three_agent_state, params)
    diag = dist.diagnostics
    assert diag.lines_generated == 80
    assert 0 <= diag.lines_retained <= diag.lines_generated
    assert diag.clusters == len(dist.frames)
    assert sum(frame.support for frame in dist.frames) == diag.lines_retained
    assert diag.total_weight == pytest.approx(
        sum(frame.weight for frame in dist.frames), abs=1e-12
    )
    assert diag.minimax.shape == (3,)
    assert diag.exhaustive_game


def test_distribution_is_deterministic(three_agent_state, params):
    first = small_distribution(three_agent_state, params)
    second = small_distribution(three_agent_state, params)
    assert len(first.frames) == len(second.frames)
    for a, b in zip(first.frames, second.frames):
        assert np.array_equal(a.key, b.key)
        assert a.probability == b.probability
        assert a.weight == b.weight
        assert a.support == b.support


def test_distribution_all_dead_root_is_empty(params):
    state = rs.State(tactics=np.eye(3), sizes=np.zeros(3))
    dist = small_distribution(state, params, lines=30)
    # nothing can beat a zero guarantee when every payoff is zero
    assert dist.is_empty
    assert dist.diagnostics.lines_retained == 0
    assert dist.probabilities().size == 0


def test_distribution_rejects_bad_counts(three_agent_state, params):
    cfg = rs.SamplerConfig()
    with pytest.raises(ValueError, match="at least one line"):
        rs.transition_distribution(three_agent_state, params, cfg, 0, 2)
