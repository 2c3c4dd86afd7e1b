"""Lines in blocks: every member equals the per-step reference line and
its one-member block bit for bit, and no output depends on the block size
or on the memory layout of a stack."""

import itertools

import numpy as np
import pytest

import oracles
import reelsim as rs
from reelsim import equilibrium, frames, sampling

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
    total = dist.diagnostics.total_weight
    assert total == float(sum(line.weights[0] for line in retained))
    # sorted by probability, ties in first-seen order
    order = sorted(clusters, key=lambda key: -clusters[key][1] / total)
    assert [frame.tactics.tobytes() for frame in dist.frames] == order
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


def words_for(lines, n):
    """The BLOCK_WORDS that makes a block of n agents hold exactly lines lines."""
    return lines * (1 + 2 * n * n)


@pytest.mark.parametrize(
    "n_lines",
    # in blocks of 512 lines, 255-257 straddle a boundary inside one block;
    # the last three straddle the first block boundary
    [1, 255, 256, 257, 511, 512, 513],
)
def test_distribution_matches_per_step_reference(monkeypatch, n_lines):
    state, params, cfg = shipped_like(31)
    monkeypatch.setattr(frames, "BLOCK_WORDS", words_for(512, state.n))
    sim = rs.SimSettings(lines=n_lines, horizon=3, candidates=4)
    dist = rs.transition_distribution(state, params, cfg, sim)
    assert_matches_reference(dist, *reference_distribution(state, params, cfg, n_lines, 3, 4))


def test_block_as_long_as_a_side_matches_reference(monkeypatch):
    # n lines a block: a (B,n,n) @ (B,n) matmul would silently mix lines
    state, params, cfg = shipped_like(32)
    monkeypatch.setattr(frames, "BLOCK_WORDS", words_for(state.n, state.n))
    sim = rs.SimSettings(lines=40, horizon=4, candidates=4)
    assert frames.block_lines(state.n, sim.horizon) == state.n
    dist = rs.transition_distribution(state, params, cfg, sim)
    assert_matches_reference(dist, *reference_distribution(state, params, cfg, 40, 4, 4))


def assert_same_distribution(other, default):
    assert len(other.frames) == len(default.frames) > 1
    for a, b in zip(other.frames, default.frames):
        assert a.tactics.tobytes() == b.tactics.tobytes()
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


@pytest.mark.parametrize("block", [1, 7, 4096])
def test_block_size_changes_nothing(monkeypatch, block):
    state, params, cfg = shipped_like(33)
    sim = rs.SimSettings(lines=300, horizon=3, candidates=4)
    default = rs.transition_distribution(state, params, cfg, sim)
    monkeypatch.setattr(frames, "BLOCK_WORDS", words_for(block, state.n))
    assert frames.block_lines(state.n, sim.horizon) == block
    assert_same_distribution(rs.transition_distribution(state, params, cfg, sim), default)


@pytest.mark.parametrize("n", range(1, 14))
def test_block_is_the_most_lines_the_word_budget_holds(n):
    words = 1 + 2 * n * n
    lines = frames.block_lines(n, 5)
    assert lines >= 1
    assert lines * words <= rs.BLOCK_WORDS < (lines + 1) * words


def test_block_holds_a_line_whatever_the_budget(monkeypatch):
    monkeypatch.setattr(frames, "BLOCK_WORDS", 1)
    assert [frames.block_lines(n, 5) for n in (1, 3, 13)] == [1, 1, 1]


@pytest.mark.parametrize("n", [1, 3, 8, 13])
def test_block_fits_its_tactic_matrices_in_the_array_bound(n):
    # 2**27 8-byte items, 1 GiB, for one block's horizon tactic matrices;
    # every horizon check_sizes accepts gets a block of at least one line
    items = 2**27
    longest = items // (n * n)
    rs.SimSettings(horizon=longest).check_sizes(n)
    with pytest.raises(ValueError, match="horizon must be at most"):
        rs.SimSettings(horizon=longest + 1).check_sizes(n)
    for horizon in (1, 5, 1000, 10**5, longest):
        lines = frames.block_lines(n, horizon)
        assert 1 <= lines <= frames.block_lines(n, 1)
        assert lines * horizon * n * n <= items
        # the most lines that fit, unless the word budget holds fewer
        assert lines == frames.block_lines(n, 1) or (lines + 1) * horizon * n * n > items


def test_long_horizon_shrinks_the_block():
    # 3 agents: 3,449 lines a block at the shipped horizon 5; at 10,000
    # steps 2**27 // 90,000 = 1,491 lines fit; at the longest, one
    assert [frames.block_lines(3, h) for h in (5, 10**4, 2**27 // 9)] == [3449, 1491, 1]


def test_array_bound_splits_the_block_and_changes_nothing(monkeypatch):
    # a bound of 50 lines of 3 steps of 3 x 3 matrices cuts 300 lines into
    # six blocks of 50, whatever BLOCK_WORDS allows
    state, params, cfg = shipped_like(34)
    sim = rs.SimSettings(lines=300, horizon=3, candidates=4)
    default = rs.transition_distribution(state, params, cfg, sim)
    calls = []
    generate_lines = frames.generate_lines

    def counting(root, horizon, cfg, params, key, lines):
        calls.append((lines[0], len(lines)))
        return generate_lines(root, horizon, cfg, params, key, lines)

    monkeypatch.setattr(frames, "generate_lines", counting)
    monkeypatch.setattr(equilibrium, "_ARRAY_BYTES", 8 * 50 * 3 * 9)
    assert frames.block_lines(state.n, sim.horizon) == 50
    other = rs.transition_distribution(state, params, cfg, sim)
    assert calls == [(start, 50) for start in range(0, 300, 50)]
    assert_same_distribution(other, default)


def test_shipped_frame_is_one_block(shipped, monkeypatch):
    # the shipped 2,000 lines of 3 agents hash 38,000 words a step
    calls = []
    generate_lines = frames.generate_lines

    def counting(root, horizon, cfg, params, key, lines):
        calls.append((lines[0], len(lines)))
        return generate_lines(root, horizon, cfg, params, key, lines)

    monkeypatch.setattr(frames, "generate_lines", counting)
    rs.transition_distribution(shipped.state, shipped.params, shipped.sampler, shipped.sim)
    assert calls == [(0, shipped.sim.lines)] == [(0, 2000)]


@pytest.mark.parametrize("n", range(1, 14))
def test_no_bit_depends_on_layout(n):
    # one stack in two layouts: C-contiguous, and a lines-last array seen
    # through a transpose; sums over agents or rows run in index order
    rng = np.random.default_rng(200 + n)
    sizes = rng.uniform(0.0, 2.0, (32, 4, n))
    sizes[rng.random(sizes.shape) < 0.2] = 0.0
    lines_last = np.ascontiguousarray(sizes.transpose(2, 0, 1)).transpose(1, 2, 0)
    expected = rs.positional_utility(sizes, 2.5)
    assert rs.positional_utility(lines_last, 2.5).tobytes() == expected.tobytes()
    for member in np.ndindex(sizes.shape[:-1]):
        assert rs.positional_utility(sizes[member], 2.5).tobytes() == expected[member].tobytes()
    cfg = rs.SamplerConfig(p_neg=0.3, local_mix=0.5)
    previous = np.stack([random_root(rng, n).tactics for _ in range(32)])
    agent_major = np.ascontiguousarray(previous.transpose(1, 2, 0)).transpose(2, 0, 1)
    key, lines = rs.stream_key(n, rs.LINE_STREAM), np.arange(32)
    expected = rs.sample_tactic_matrices(previous, cfg, key, lines, 1, 0.5)
    assert rs.sample_tactic_matrices(agent_major, cfg, key, lines, 1, 0.5).tobytes() == (
        expected.tobytes()
    )
    for member in range(32):
        alone = rs.sample_tactic_matrices(
            previous[member : member + 1], cfg, key, lines[member : member + 1], 1, 0.5
        )
        assert alone.tobytes() == expected[member : member + 1].tobytes()
