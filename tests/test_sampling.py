"""Tactic sampling, substream derivation, and grid rounding."""

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
    ],
)
def test_config_rejects_bad_values(kwargs, message):
    with pytest.raises(ValueError, match=message):
        rs.SamplerConfig(**kwargs)


def test_config_accepts_common_grids():
    for rounding in (1.0, 0.5, 0.25, 0.2, 0.1, 0.05):
        rs.SamplerConfig(rounding=rounding)


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


def test_node_seed_root_is_master():
    assert rs.derive_node_seed(123, ()) == 123


def test_node_seed_properties():
    seeds = {rs.derive_node_seed(5, path) for path in [(0,), (1,), (0, 0), (0, 1), (1, 0)]}
    assert len(seeds) == 5
    for seed in seeds:
        assert 0 <= seed < 2**64
    assert rs.derive_node_seed(5, (0, 1)) == rs.derive_node_seed(5, (0, 1))
    assert rs.derive_node_seed(6, (0, 1)) != rs.derive_node_seed(5, (0, 1))


# ------------------------------------------------------------------- vectors


def test_single_agent_vector_is_degenerate(cfg):
    rng = rs.substream(0, rs.CANDIDATE_STREAM)
    for _ in range(5):
        assert rs.sample_tactic_vector(1, 0, cfg, rng).tolist() == [1.0]


def test_vector_satisfies_allocation_constraint(cfg):
    rng = rs.substream(1, rs.CANDIDATE_STREAM)
    for _ in range(1000):
        vector = rs.sample_tactic_vector(4, 2, cfg, rng)
        assert abs(np.sum(np.abs(vector)) - 1.0) <= 1e-9
        assert np.all(np.abs(vector) <= 1.0)
        assert vector[2] >= 0.0


def test_vector_sign_controls(cfg):
    rng = rs.substream(2, rs.CANDIDATE_STREAM)
    all_pos = rs.SamplerConfig(p_neg=0.0)
    all_neg = rs.SamplerConfig(p_neg=1.0)
    for _ in range(50):
        assert np.all(rs.sample_tactic_vector(3, 0, all_pos, rng) >= 0.0)
        vector = rs.sample_tactic_vector(3, 1, all_neg, rng)
        assert vector[0] <= 0.0 and vector[2] <= 0.0 and vector[1] >= 0.0


def test_vector_self_harm_needs_opt_in():
    rng = rs.substream(3, rs.CANDIDATE_STREAM)
    permissive = rs.SamplerConfig(p_neg=0.9, allow_negative_diagonal=True)
    draws = np.array([rs.sample_tactic_vector(3, 0, permissive, rng)[0] for _ in range(200)])
    assert np.any(draws < 0.0)


def test_vector_mean_magnitude_is_uniform_on_simplex(cfg):
    # uniform simplex sampling puts expected magnitude 1/n on every slot
    rng = rs.substream(4, rs.CANDIDATE_STREAM)
    draws = np.abs([rs.sample_tactic_vector(3, 0, cfg, rng) for _ in range(10_000)])
    assert np.max(np.abs(draws.mean(axis=0) - 1.0 / 3.0)) < 0.02


def test_vector_rejects_bad_arguments(cfg):
    rng = rs.substream(5, rs.CANDIDATE_STREAM)
    with pytest.raises(ValueError, match="at least one agent"):
        rs.sample_tactic_vector(0, 0, cfg, rng)
    with pytest.raises(ValueError, match="out of range"):
        rs.sample_tactic_vector(3, 3, cfg, rng)


# ------------------------------------------------------------------ matrices


def test_matrix_draws_are_always_valid(three_agent_tactics):
    cfg = rs.SamplerConfig(local_mix=0.5, p_neg=0.4)
    rng = rs.substream(6, rs.LINE_STREAM, 0)
    for _ in range(500):
        matrix = rs.sample_tactic_matrix(three_agent_tactics, cfg, rng, noise_sigma=0.5)
        rs.validate_tactic_matrix(matrix)
        assert np.all(np.diag(matrix) >= 0.0)


def test_global_draws_ignore_previous(three_agent_tactics):
    cfg = rs.SamplerConfig(local_mix=0.0)
    a = rs.sample_tactic_matrix(three_agent_tactics, cfg, rs.substream(7, 0), 0.5)
    b = rs.sample_tactic_matrix(np.eye(3), cfg, rs.substream(7, 0), 0.5)
    assert np.array_equal(a, b)


def test_local_draws_with_tiny_noise_stay_put(three_agent_tactics):
    cfg = rs.SamplerConfig(local_mix=1.0)
    matrix = rs.sample_tactic_matrix(three_agent_tactics, cfg, rs.substream(8, 0), 1e-12)
    assert np.allclose(matrix, three_agent_tactics, atol=1e-9)


def test_local_draws_follow_noise_scale(three_agent_tactics):
    cfg = rs.SamplerConfig(local_mix=1.0)
    rng = rs.substream(9, 0)
    narrow = [
        rs.tactical_distance(
            rs.sample_tactic_matrix(three_agent_tactics, cfg, rng, 0.1), three_agent_tactics
        )
        for _ in range(200)
    ]
    wide = [
        rs.tactical_distance(
            rs.sample_tactic_matrix(three_agent_tactics, cfg, rng, 1.0), three_agent_tactics
        )
        for _ in range(200)
    ]
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
    rng = np.random.default_rng(11)
    cfg = rs.SamplerConfig()
    for _ in range(100):
        columns = [rs.sample_tactic_vector(3, j, cfg, rng) for j in range(3)]
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
