"""Lines in blocks: every member equals the per-step reference line and
its one-member block bit for bit, and no output depends on the block size."""

import itertools

import numpy as np
import pytest

import oracles
import reelsim as rs
from reelsim import frames, sampling

# (allow_negative_diagonal, local_mix, p_neg)
CORNERS = list(itertools.product((False, True), (0.0, 0.5, 0.7, 1.0), (0.0, 1.0)))


def random_root(rng, n):
    tactics = rng.uniform(-1.0, 1.0, (n, n))
    tactics /= np.abs(tactics).sum(axis=0)
    sizes = rng.uniform(0.0, 1.0, n)
    sizes[rng.random(n) < 0.2] = 0.0
    return rs.State(tactics=tactics, sizes=sizes)


def engine_draws(key, line, n):
    """draws(step) for the per-step reference: line's own draws from the
    engine, computed as a one-line stack."""
    return lambda step: [draw[0] for draw in sampling.line_draws(key, [line], step, n)]


def assert_line_equals(block, index, expected):
    """Member index of block equals the one-member block expected."""
    assert np.array_equal(block.matrices[index], expected.matrices[0])
    assert np.array_equal(block.sizes[index], expected.sizes[0])
    assert np.array_equal(block.payoffs[index], expected.payoffs[0])
    assert np.array_equal(block.intertemporal[index], expected.intertemporal[0])
    assert block.weights[index] == expected.weights[0]


@pytest.mark.parametrize("n", range(1, 11))
def test_block_equals_per_step_lines_bitwise(n):
    rng = np.random.default_rng(70 + n)
    for (negative_diagonal, local_mix, p_neg), horizon in itertools.product(CORNERS, range(1, 7)):
        root = random_root(rng, n)
        params = rs.ModelParams(
            alpha=rng.uniform(2.0, 3.0), delta=rng.uniform(0.05, 0.95), sigma=rng.uniform(0.1, 2.0)
        )
        cfg = rs.SamplerConfig(
            p_neg=p_neg,
            allow_negative_diagonal=negative_diagonal,
            local_mix=local_mix,
            rng_seed=horizon,
        )
        key = int(rng.integers(2**64, dtype=np.uint64))
        # n lines, a block as long as a side of its matrices, in no order
        lines = [int(line) for line in rng.permutation(4 * n)[:n]]
        block = rs.generate_lines(root, horizon, cfg, params, key, lines)
        assert len(block) == n
        for index, line in enumerate(lines):
            expected = oracles.per_step_line(root, horizon, cfg, params, engine_draws(key, line, n))
            assert_line_equals(block, index, expected)
            alone = rs.generate_lines(root, horizon, cfg, params, key, [line])
            assert_line_equals(alone, 0, expected)
        # generate_line is line 0 of the stream keyed by one draw from rng
        single = rs.generate_line(root, horizon, cfg, params, rs.substream(n, horizon))
        key = int(rs.substream(n, horizon).integers(2**64, dtype=np.uint64))
        expected = oracles.per_step_line(root, horizon, cfg, params, engine_draws(key, 0, n))
        assert len(single) == 1
        assert_line_equals(single, 0, expected)


@pytest.mark.parametrize("n", range(1, 11))
def test_stacked_sampler_equals_frozen_sampler(n):
    rng = np.random.default_rng(90 + n)
    for negative_diagonal, local_mix, p_neg in CORNERS:
        cfg = rs.SamplerConfig(
            p_neg=p_neg, allow_negative_diagonal=negative_diagonal, local_mix=local_mix
        )
        previous = np.stack([random_root(rng, n).tactics for _ in range(5)])
        sigma = rng.uniform(0.1, 2.0)
        key, step = int(rng.integers(2**64, dtype=np.uint64)), int(rng.integers(10))
        lines = [int(line) for line in rng.integers(0, 2**62, 5)]
        stacked = rs.sample_tactic_matrices(previous, cfg, key, lines, step, sigma)
        for index, line in enumerate(lines):
            expected = oracles.tactic_matrix(
                previous[index], cfg, engine_draws(key, line, n)(step), sigma
            )
            assert np.array_equal(stacked[index], expected)
            alone = rs.sample_tactic_matrices(
                previous[index : index + 1], cfg, key, [line], step, sigma
            )
            assert np.array_equal(alone[0], expected)
            # the same matrix, up to rounding, from the math-module draws
            reference = oracles.tactic_matrix(
                previous[index], cfg, oracles.line_draws(key, line, step, n), sigma
            )
            assert np.allclose(stacked[index], reference, rtol=0.0, atol=1e-13)
        pools = rs.sample_candidates(n, 1, cfg, key)
        for self_index, pool in enumerate(pools):
            expected = oracles.candidate_vector(key, self_index, n, self_index, cfg)
            assert np.array_equal(pool[0], expected)


# ------------------------------------------------------------- distribution


def reference_distribution(root, params, cfg, n_lines, horizon, k_candidates):
    """Per-step reference lines, a per-line filter and the plain-loop cluster."""
    game = rs.stage_game(root, params, cfg, k_candidates=k_candidates)
    key = oracles.stream_key(cfg.rng_seed, rs.LINE_STREAM)
    retained = []
    for index in range(n_lines):
        line = oracles.per_step_line(
            root, horizon, cfg, params, engine_draws(key, index, root.n)
        )
        if np.all(line.intertemporal[0] > game.minimax):
            retained.append(line)
    clusters = oracles.cluster(
        [line.matrices[0, 0].tolist() for line in retained],
        [line.weights[0] for line in retained],
        cfg.rounding,
    )
    return retained, clusters


def assert_matches_reference(dist, retained, clusters):
    assert dist.diagnostics.lines_retained == len(retained)
    assert dist.diagnostics.total_weight == float(sum(line.weights[0] for line in retained))
    total = sum(weight for _, weight in clusters.values())
    # sorted by probability, ties in first-seen order
    order = sorted(clusters, key=lambda key: -clusters[key][1] / total)
    assert [tuple(map(tuple, frame.key.tolist())) for frame in dist.frames] == order
    for frame, key in zip(dist.frames, order):
        support, weight = clusters[key]
        assert frame.support == support
        assert frame.weight == weight
        assert frame.probability == weight / total


def shipped_like(seed):
    state = rs.State(
        tactics=np.array([[0.7, -0.1, 0.2], [0.1, 0.8, 0.1], [0.0, 0.0, 1.0]]),
        sizes=np.array([0.3, 1.0, 0.6]),
    )
    params = rs.ModelParams(sigma=0.25)
    cfg = rs.SamplerConfig(rng_seed=seed, rounding=0.25, local_mix=0.9)
    return state, params, cfg


@pytest.mark.parametrize(
    "n_lines",
    [1, rs.LINE_BLOCK - 1, rs.LINE_BLOCK, rs.LINE_BLOCK + 1],
)
def test_distribution_matches_per_step_reference(n_lines):
    state, params, cfg = shipped_like(31)
    dist = rs.transition_distribution(state, params, cfg, n_lines, 3, k_candidates=4)
    assert_matches_reference(dist, *reference_distribution(state, params, cfg, n_lines, 3, 4))


def test_block_as_long_as_a_side_matches_reference(monkeypatch):
    # LINE_BLOCK == n: a (B,n,n) @ (B,n) matmul would silently mix lines
    state, params, cfg = shipped_like(32)
    monkeypatch.setattr(frames, "LINE_BLOCK", state.n)
    dist = rs.transition_distribution(state, params, cfg, 40, 4, k_candidates=4)
    assert_matches_reference(dist, *reference_distribution(state, params, cfg, 40, 4, 4))


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_block_size_changes_nothing(monkeypatch, block):
    state, params, cfg = shipped_like(33)
    default = rs.transition_distribution(state, params, cfg, 300, 3, k_candidates=4)
    monkeypatch.setattr(frames, "LINE_BLOCK", block)
    other = rs.transition_distribution(state, params, cfg, 300, 3, k_candidates=4)
    assert len(other.frames) == len(default.frames) > 1
    for a, b in zip(other.frames, default.frames):
        assert np.array_equal(a.key, b.key)
        assert np.array_equal(a.tactics, b.tactics)
        assert np.array_equal(a.sizes, b.sizes)
        assert (a.probability, a.support, a.weight) == (b.probability, b.support, b.weight)
    a, b = other.diagnostics, default.diagnostics
    assert np.array_equal(a.minimax, b.minimax)
    assert (a.lines_generated, a.lines_retained, a.clusters, a.total_weight) == (
        b.lines_generated,
        b.lines_retained,
        b.clusters,
        b.total_weight,
    )
    assert (a.equilibria, a.exhaustive_game) == (b.equilibria, b.exhaustive_game)
