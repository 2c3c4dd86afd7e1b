"""Tactic sampling, stream keys, and grid rounding."""

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
    grid = rs.round_to_grid(tactics, rounding)
    assert grid.tolist() == [[2**53, -(2**51)], [0, 3 * 2**51]]
    assert np.array_equal(rs.matrix_from_grid(grid, rounding), tactics)


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


# ------------------------------------------------------------------ rounding


def test_round_to_grid_hand_values():
    tactics = np.array([[0.7, -0.1], [-0.26, 0.9]])
    grid = rs.round_to_grid(tactics, 0.1)
    assert grid.tolist() == [[7, -1], [-3, 9]]
    assert grid.dtype == np.int64


def test_round_to_grid_ties_go_away_from_zero():
    # 0.125 sits exactly between 0 and 0.25 on a dyadic grid
    tactics = np.array([[0.125, -0.125], [0.375, -0.375]])
    assert rs.round_to_grid(tactics, 0.25).tolist() == [[1, -1], [2, -2]]


def test_round_to_grid_zero_stays_zero():
    assert rs.round_to_grid(np.array([[0.0, -0.0]]), 0.1).tolist() == [[0, 0]]


def test_round_to_grid_matches_slow_reference():
    rng = np.random.default_rng(10)
    for rounding in (0.25, 0.1):
        for _ in range(100):
            tactics = rng.uniform(-1.0, 1.0, (3, 3))
            assert (
                tuple(map(tuple, rs.round_to_grid(tactics, rounding).tolist()))
                == oracles.grid_key(tactics.tolist(), rounding)
            )


def test_round_to_grid_rejects_bad_rounding():
    with pytest.raises(ValueError, match="1/rounding"):
        rs.round_to_grid(np.eye(2), 0.4)


def test_matrix_from_grid_renormalizes():
    grid = np.array([[3, 0], [-1, 4]])
    matrix = rs.matrix_from_grid(grid, 0.25)
    assert np.array_equal(matrix, np.array([[0.75, 0.0], [-0.25, 1.0]]))
    rs.validate_tactic_matrix(matrix)


def test_matrix_from_grid_zero_column_falls_back_to_self():
    matrix = rs.matrix_from_grid(np.array([[0, 0], [0, 2]]), 0.25)
    assert matrix[:, 0].tolist() == [1.0, 0.0]


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
    matrix = rs.matrix_from_grid(np.array([[3, -1], [-1, 3]]), 0.25)
    assert np.array_equal(rs.round_tactic_matrix(matrix, 0.25), matrix)


def test_round_tactic_matrix_rejects_non_square():
    with pytest.raises(rs.TacticMatrixError, match="square"):
        rs.round_tactic_matrix(np.ones((2, 3)), 0.25)


@pytest.mark.parametrize("n", range(1, 11))
def test_renormalize_matches_per_column_loop_bitwise(n):
    # From n = 8 a row-by-row (axis=0) column sum rounds differently from
    # summing each column alone, so this comparison must be exact.
    rng = np.random.default_rng(100 + n)
    for rounding in (0.1, 0.25, 0.05, 0.01):
        for _ in range(25):
            tactics = rng.uniform(-1.0, 1.0, (n, n))
            tactics /= np.abs(tactics).sum(axis=0)
            grid = rs.round_to_grid(tactics, rounding)
            grid[:, rng.random(n) < 0.2] = 0
            expected = oracles.renormalize_columns(grid * rounding)
            assert np.array_equal(rs.matrix_from_grid(grid, rounding), expected)
            assert np.array_equal(
                rs.round_tactic_matrix(tactics, rounding),
                oracles.renormalize_columns(rs.round_to_grid(tactics, rounding) * rounding),
            )
    zero = rs.matrix_from_grid(np.zeros((n, n), dtype=np.int64), 0.1)
    assert np.array_equal(zero, oracles.renormalize_columns(np.zeros((n, n))))
    assert np.array_equal(zero, np.eye(n))
