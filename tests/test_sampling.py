"""Tactic sampling, stream keys, and grid rounding."""

import dataclasses

import numpy as np
import pytest

import oracles
import reelsim as rs


@pytest.fixture
def cfg():
    return rs.SamplerConfig(rng_seed=42)


# -------------------------------------------------------------------- config


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"p_neg": -0.1}, r"p_neg must lie in \[0, 1\]"),
        ({"p_neg": 1.5}, r"p_neg must lie in \[0, 1\]"),
        ({"local_mix": 2.0}, r"local_mix must lie in \[0, 1\]"),
        ({"rng_seed": -1}, "rng_seed must be nonnegative"),
        ({"rounding": 0.0}, r"rounding must lie in \(0, 1\]"),
        ({"rounding": 1.5}, r"rounding must lie in \(0, 1\]"),
        ({"rounding": 0.3}, "1/rounding must be an integer"),
        ({"rounding": 1e-19}, r"1/rounding must be at most 2\*\*53"),
        ({"rounding": 1e-300}, r"1/rounding must be at most 2\*\*53"),
        ({"rounding": float(np.nextafter(2.0**-53, 0.0))}, r"1/rounding must be at most 2\*\*53"),
    ],
)
def test_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        rs.SamplerConfig(**kwargs)


def test_config_accepts_common_grids():
    for rounding in (1.0, 0.5, 0.25, 0.2, 0.1, 0.05):
        rs.SamplerConfig(rounding=rounding)


def test_finest_accepted_grid_keys_are_exact():
    # 2**-53 is the smallest rounding accepted: 2**53 steps per unit
    rounding = 2.0**-53
    rs.SamplerConfig(rounding=rounding)
    tactics = np.array([[1.0, -0.25], [0.0, 0.75]])
    coordinates = oracles.grid_coordinates(tactics.tolist(), rounding)
    assert coordinates == ((2**53, -(2**51)), (0, 3 * 2**51))
    assert rs.round_tactic_matrix(tactics, rounding).tobytes() == tactics.tobytes()


# ---------------------------------------------------------------- substreams


def test_substream_is_reproducible():
    a = rs.substream(7, rs.LINE_STREAM, 3).random(8)
    b = rs.substream(7, rs.LINE_STREAM, 3).random(8)
    assert np.array_equal(a, b)


def test_substreams_differ_by_key_and_seed():
    base = rs.substream(7, rs.LINE_STREAM, 3).random(8)
    assert not np.array_equal(base, rs.substream(7, rs.LINE_STREAM, 4).random(8))
    assert not np.array_equal(base, rs.substream(8, rs.LINE_STREAM, 3).random(8))
    assert not np.array_equal(base, rs.substream(7, rs.CANDIDATE_STREAM, 3).random(8))


# --------------------------------------------------------------- stream keys


def test_node_seed_properties():
    paths = [(0,), (1,), (0, 0), (0, 1), (1, 0)]
    seeds = {rs.stream_key(5, rs.NODE_STREAM, *path) for path in paths}
    assert len(seeds) == 5
    for seed in seeds:
        assert 0 <= seed < 2**64
    assert rs.stream_key(5, rs.NODE_STREAM, 0, 1) == rs.stream_key(5, rs.NODE_STREAM, 0, 1)
    assert rs.stream_key(6, rs.NODE_STREAM, 0, 1) != rs.stream_key(5, rs.NODE_STREAM, 0, 1)


WIDE_SEEDS = [0, 1, 2**63, 2**64 - 1, 2**64, 2**80, 2**80 + 2**64, 3**100]


@pytest.mark.parametrize("seed", WIDE_SEEDS)
def test_stream_key_matches_integer_reference(seed):
    cases = ((rs.LINE_STREAM, ()), (rs.PROFILE_STREAM, ()), (rs.NODE_STREAM, (3, 0, 2)))
    for domain, path in cases:
        assert rs.stream_key(seed, domain, *path) == oracles.stream_key(seed, domain, *path)


def test_stream_keys_of_wide_seeds_are_distinct():
    # the limb count keeps 2**64 apart from 0 and 2**80 from 2**16
    seeds = [0, 2**64 - 1, 2**64, 2**80, 2**80 + 2**64, 2**16]
    keys = {rs.stream_key(seed, domain) for seed in seeds for domain in range(4)}
    assert len(keys) == 4 * len(seeds)


@pytest.mark.parametrize("seed", [-1, -5, -(2**64)])
def test_stream_key_rejects_negative_seeds(seed):
    # masked into limbs, -1 would alias 2**64 - 1 and -5 alias 2**64 - 5
    with pytest.raises(ValueError, match=f"seed must be nonnegative \\(got {seed}\\)"):
        rs.stream_key(seed, rs.PROFILE_STREAM)


def test_numpy_integer_seed_matches_python_int(three_agent_state):
    params = rs.ModelParams()
    names = ["minor", "major", "middle"]
    runs = []
    for seed in (7, np.int64(7)):
        cfg = rs.SamplerConfig(rng_seed=seed, rounding=0.25)
        distribution = rs.transition_distribution(
            three_agent_state, params, cfg, rs.SimSettings(lines=60, horizon=2)
        )
        sim = rs.SimSettings(lines=30, horizon=2, depth_max=2, branch_k=2, p_min=0.0, candidates=4)
        tree = rs.build_reel_tree(three_agent_state, params, cfg, sim)
        reels = rs.enumerate_reels(tree)
        runs.append(
            (rs.export_frames_json(distribution, names), rs.export_reels_json(tree, reels, names))
        )
    assert runs[0] == runs[1]
    with pytest.raises(TypeError):
        rs.SamplerConfig(rng_seed=7.5)


# ------------------------------------------------------------------- vectors
# Candidate pools hold the tactic vectors: pool j is a (k, n) stack of
# vectors whose own entry is j.


def test_single_agent_vector_is_degenerate(cfg):
    (pool,) = rs.sample_candidates(1, 5, cfg, 0)
    assert pool.tolist() == [[1.0]] * 5


def test_vector_satisfies_allocation_constraint(cfg):
    for agent, pool in enumerate(rs.sample_candidates(4, 1000, cfg, 1)):
        assert np.all(np.abs(np.sum(np.abs(pool), axis=1) - 1.0) <= 1e-9)
        assert np.all(np.abs(pool) <= 1.0)
        assert np.all(pool[:, agent] >= 0.0)


def test_vector_sign_controls(cfg):
    all_pos = rs.SamplerConfig(p_neg=0.0)
    all_neg = rs.SamplerConfig(p_neg=1.0)
    for pool in rs.sample_candidates(3, 50, all_pos, 2):
        assert np.all(pool >= 0.0)
    for agent, pool in enumerate(rs.sample_candidates(3, 50, all_neg, 2)):
        others = np.arange(3) != agent
        assert np.all(pool[:, others] <= 0.0) and np.all(pool[:, agent] >= 0.0)


def test_vector_self_harm_needs_opt_in():
    permissive = rs.SamplerConfig(p_neg=0.9, allow_negative_diagonal=True)
    pools = rs.sample_candidates(3, 200, permissive, 3)
    assert all(np.any(pool[:, agent] < 0.0) for agent, pool in enumerate(pools))


def test_vector_mean_magnitude_is_uniform_on_simplex(cfg):
    # uniform simplex sampling puts expected magnitude 1/n on every slot
    draws = np.abs(rs.sample_candidates(3, 10_000, cfg, 4))
    assert np.max(np.abs(draws.mean(axis=1) - 1.0 / 3.0)) < 0.02


# ------------------------------------------------------------------ matrices


def draw(previous, cfg, key, noise_sigma, count):
    """Next tactic matrices (count, n, n) for lines 0..count-1 of the
    stream keyed by key, each drawn from previous."""
    stack = np.broadcast_to(previous, (count, *np.shape(previous)))
    return rs.sample_tactic_matrices(stack, cfg, key, np.arange(count), 0, noise_sigma)


def test_matrix_draws_are_always_valid(three_agent_tactics):
    cfg = rs.SamplerConfig(local_mix=0.5, p_neg=0.4)
    for matrix in draw(three_agent_tactics, cfg, 6, 0.5, 500):
        rs.validate_tactic_matrix(matrix)
        assert np.all(np.diag(matrix) >= 0.0)


def test_global_draws_ignore_previous(three_agent_tactics):
    cfg = rs.SamplerConfig(local_mix=0.0)
    a = draw(three_agent_tactics, cfg, 7, 0.5, 20)
    b = draw(np.eye(3), cfg, 7, 0.5, 20)
    assert np.array_equal(a, b)


def test_local_draws_with_tiny_noise_stay_put(three_agent_tactics):
    cfg = rs.SamplerConfig(local_mix=1.0)
    matrices = draw(three_agent_tactics, cfg, 8, 1e-12, 20)
    assert np.allclose(matrices, three_agent_tactics, atol=1e-9)


def test_local_draws_follow_noise_scale(three_agent_tactics):
    cfg = rs.SamplerConfig(local_mix=1.0)
    narrow = rs.tactical_distance(draw(three_agent_tactics, cfg, 9, 0.1, 200), three_agent_tactics)
    wide = rs.tactical_distance(draw(three_agent_tactics, cfg, 10, 1.0, 200), three_agent_tactics)
    assert np.mean(narrow) < np.mean(wide)


def test_fresh_draws_never_scale_noise(three_agent_tactics):
    # A fresh member's noise is unused, so sigma near the largest float
    # must not overflow there: the CLI raises on any overflow.
    cfg = rs.SamplerConfig(local_mix=0.0)
    with np.errstate(over="raise", invalid="raise"):
        huge = draw(three_agent_tactics, cfg, 11, np.finfo(float).max, 500)
    assert np.array_equal(huge, draw(three_agent_tactics, cfg, 11, 0.5, 500))


@pytest.mark.parametrize("allow_negative_diagonal", [False, True])
def test_all_zero_draws_become_self_allocation(monkeypatch, allow_negative_diagonal):
    # A uniform of exactly 1 gives the exponential -log(1) = -0.0; with
    # every uniform 1, every fresh column and candidate vector is all
    # zeros, and the one column rule makes each pure self-allocation.
    monkeypatch.setattr(rs.sampling, "_uniforms", lambda words: np.ones(words.shape))
    cfg = rs.SamplerConfig(local_mix=0.0, allow_negative_diagonal=allow_negative_diagonal)
    eye = np.eye(3)
    for matrix in draw(eye[::-1], cfg, 12, 0.5, 4):
        assert matrix.tobytes() == eye.tobytes()
    for agent, pool in enumerate(rs.sample_candidates(3, 4, cfg, 13)):
        assert pool.tolist() == [eye[agent].tolist()] * 4
        zeros = oracles.tactic_vector_from(np.full(3, -0.0), np.zeros(3), agent, cfg)
        assert zeros.tolist() == eye[agent].tolist()
    # Local draws with zero noise keep each previous matrix; in a stack
    # where only some members have an all-zero column, those columns
    # become self-allocation and every other entry keeps its one-member bits.
    local = dataclasses.replace(cfg, local_mix=1.0)
    rng = np.random.default_rng(14)
    previous = rng.uniform(0.0, 1.0, (6, 3, 3))
    previous[1, :, 2] = 0.0
    previous[4, :, [0, 1]] = 0.0
    stacked = rs.sample_tactic_matrices(previous, local, 15, np.arange(6), 0, 0.5)
    for member, matrix in enumerate(stacked):
        alone = rs.sample_tactic_matrices(
            previous[member : member + 1], local, 15, [member], 0, 0.5
        )
        assert matrix.tobytes() == alone[0].tobytes()
        zero = ~previous[member].any(axis=0)
        kept = previous[member][:, ~zero]
        assert np.array_equal(matrix[:, zero], eye[:, zero])
        assert np.array_equal(matrix[:, ~zero], kept / kept.sum(axis=0))


def test_sampler_reads_previous_and_writes_nothing_into_it():
    # 64 members at local_mix 0.5: both branches occur, and the fresh
    # members, whose signed exponentials are scattered in among the local
    # ones, are not one run.
    n, key, step, sigma = 3, 23, 2, 0.5
    cfg = rs.SamplerConfig(local_mix=0.5, p_neg=0.4)
    rng = np.random.default_rng(24)
    previous = rng.uniform(-1.0, 1.0, (64, n, n))
    previous /= np.abs(previous).sum(axis=1, keepdims=True)
    before = previous.tobytes()
    lines = rng.permutation(200)[:64]
    coins = rs.sampling.line_draws(key, lines, step, n)[0]
    fresh = np.flatnonzero(coins >= cfg.local_mix)
    assert 0 < len(fresh) < 64
    assert np.diff(fresh).max() > 1
    stacked = rs.sample_tactic_matrices(previous, cfg, key, lines, step, sigma)
    assert previous.tobytes() == before
    for member, line in enumerate(lines):
        member_previous = previous[member : member + 1]
        alone = rs.sample_tactic_matrices(member_previous, cfg, key, [line], step, sigma)
        assert stacked[member].tobytes() == alone[0].tobytes()
    # generate_lines passes the root's matrix at step one as a read-only
    # broadcast, one matrix for every member
    root = previous[0].copy()
    shared = np.broadcast_to(root, (64, n, n))
    assert not shared.flags.writeable
    from_root = rs.sample_tactic_matrices(shared, cfg, key, lines, 0, sigma)
    assert root.tobytes() == previous[0].tobytes()
    for member, line in enumerate(lines):
        alone = rs.sample_tactic_matrices(root[np.newaxis], cfg, key, [line], 0, sigma)
        assert from_root[member].tobytes() == alone[0].tobytes()


def test_uniforms_of_the_extreme_words():
    # A word's top bits reach the int64 view the cast reads: 2**63 and
    # 2**64 - 1 must not read as negative integers.
    words = np.array([0, 2**11 - 1, 2**63, 2**64 - 1], dtype=np.uint64)
    uniforms = rs.sampling._uniforms(words)
    assert uniforms.tolist() == [2.0**-53, 2.0**-53, 0.5 + 2.0**-53, 1.0]


# ------------------------------------------------------------------ rounding


def test_round_to_grid_hand_values():
    tactics = np.array([[0.7, -0.1], [-0.26, 0.9]])
    rounded = rs.round_tactic_matrix(tactics, 0.1)
    # grid coordinates [[7, -1], [-3, 9]], scaled back and renormalized
    expected = np.array([[7, -1], [-3, 9]]) * 0.1
    expected /= np.abs(expected).sum(axis=0)
    assert rounded.tobytes() == expected.tobytes()
    assert np.allclose(rounded, [[0.7, -0.1], [-0.3, 0.9]], atol=1e-15)


def test_round_to_grid_ties_go_away_from_zero():
    # 0.125 and 0.375 sit exactly between two points of a dyadic grid; the
    # other entries round down, so every column keeps abs-sum 1
    tactics = np.array([[0.125, -0.125, -0.375], [0.3, 0.575, 0.1], [0.575, -0.3, 0.525]])
    rounded = rs.round_tactic_matrix(tactics, 0.25)
    assert rounded.tolist() == [[0.25, -0.25, -0.5], [0.25, 0.5, 0.0], [0.5, -0.25, 0.5]]


def test_round_to_grid_zero_stays_zero():
    # -0.0 and the small negative -0.01 both round to +0.0, so equal
    # states have equal bytes
    tactics = np.array([[1.0, 0.0, -0.01], [0.0, -0.0, 0.0], [0.0, 1.0, 0.99]])
    rounded = rs.round_tactic_matrix(tactics, 0.1)
    assert rounded.tolist() == [[1.0, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 1.0, 1.0]]
    assert not np.signbit(rounded).any()


def test_round_to_grid_matches_slow_reference():
    rng = np.random.default_rng(10)
    for rounding in (0.25, 0.1):
        for _ in range(100):
            tactics = rng.uniform(-1.0, 1.0, (3, 3))
            assert (
                rs.round_tactic_matrix(tactics, rounding).tobytes()
                == oracles.representative(tactics.tolist(), rounding).tobytes()
            )


def test_round_to_grid_rejects_bad_rounding():
    for rounding, message in [
        (0.4, "1/rounding must be an integer"),
        (0.0, r"rounding must lie in \(0, 1\]"),
        (1.5, r"rounding must lie in \(0, 1\]"),
        (1e-19, r"1/rounding must be at most 2\*\*53"),
    ]:
        with pytest.raises(ValueError, match=message):
            rs.round_tactic_matrix(np.eye(2), rounding)


def test_matrix_from_grid_renormalizes():
    # ties away from zero give grid coordinates [[3, 0], [-2, 4]]: the
    # first column's abs-sum 1.25 is scaled back to 1
    matrix = rs.round_tactic_matrix(np.array([[0.625, 0.0], [-0.375, 1.0]]), 0.25)
    assert np.array_equal(matrix, np.array([[0.75, 0.0], [-0.5, 1.0]]) / [1.25, 1.0])
    rs.validate_tactic_matrix(matrix)


def test_matrix_from_grid_zero_column_falls_back_to_self():
    matrix = rs.round_tactic_matrix(np.array([[0.1, 0.0], [-0.1, 0.5]]), 0.25)
    assert matrix.tolist() == [[1.0, 0.0], [0.0, 1.0]]


def test_round_tactic_matrix_dyadic_grid_is_exact():
    tactics = np.array([[0.8, 0.1], [-0.2, 0.9]])
    rounded = rs.round_tactic_matrix(tactics, 0.25)
    assert rounded.tolist() == [[0.75, 0.0], [-0.25, 1.0]]


def test_round_tactic_matrix_keeps_grid_points(three_agent_tactics):
    rounded = rs.round_tactic_matrix(three_agent_tactics, 0.1)
    assert np.allclose(rounded, three_agent_tactics, atol=1e-12)


def test_round_tactic_matrix_output_is_valid():
    cfg = rs.SamplerConfig()
    for key in range(100):
        columns = [oracles.candidate_vector(key, j, 3, j, cfg) for j in range(3)]
        rounded = rs.round_tactic_matrix(np.column_stack(columns), 0.25)
        rs.validate_tactic_matrix(rounded)


def test_round_tactic_matrix_fixed_point_on_unit_sum_grid():
    # column magnitudes already summing to 1/rounding renormalize by 1,
    # so the representative is a fixed point of another rounding pass
    matrix = np.array([[0.75, -0.25], [-0.25, 0.75]])
    assert np.array_equal(rs.round_tactic_matrix(matrix, 0.25), matrix)


def test_round_tactic_matrix_rejects_non_square():
    with pytest.raises(rs.TacticMatrixError, match="square"):
        rs.round_tactic_matrix(np.ones((2, 3)), 0.25)


@pytest.mark.parametrize("shape", [(4, 2, 3), (3,)])
def test_round_tactic_matrix_checks_the_last_two_axes(shape):
    with pytest.raises(rs.TacticMatrixError, match="square"):
        rs.round_tactic_matrix(np.ones(shape), 0.25)


@pytest.mark.parametrize("n", range(1, 14))
def test_renormalize_matches_per_column_loop_bitwise(n):
    # Each column is added down its rows in order, as the loop adds it;
    # from n = 8 numpy's pairwise .sum would differ, so this is exact.
    rng = np.random.default_rng(100 + n)
    for rounding in (0.1, 0.25, 0.05, 0.01):
        stack = []
        for _ in range(25):
            tactics = rng.uniform(-1.0, 1.0, (n, n))
            tactics /= np.abs(tactics).sum(axis=0)
            stack.append(tactics)
            # columns whose entries all round to zero fall back to self
            small = tactics.copy()
            small[:, rng.random(n) < 0.2] *= 0.49 * rounding
            assert (
                rs.round_tactic_matrix(small, rounding).tobytes()
                == oracles.representative(small.tolist(), rounding).tobytes()
            )
        # a stack rounds member by member, as a frame's lines do
        assert np.array_equal(
            rs.round_tactic_matrix(np.array(stack), rounding),
            [oracles.representative(member.tolist(), rounding) for member in stack],
        )
    zero = rs.round_tactic_matrix(np.zeros((n, n)), 0.1)
    assert np.array_equal(zero, oracles.renormalize_columns(np.zeros((n, n))))
    assert np.array_equal(zero, np.eye(n))
