"""Stage games on sampled candidate pools: equilibria and guarantees."""

import numpy as np
import pytest

import oracles
import reelsim as rs


def pools(n, k, seed, p_neg=0.5):
    cfg = rs.SamplerConfig(p_neg=p_neg)
    rng = rs.substream(seed, rs.CANDIDATE_STREAM)
    return rs.sample_candidates(n, k, cfg, rng)


def as_profiles(matrices, candidates):
    """Recover profile tuples from equilibrium matrices for set comparison."""
    out = []
    for matrix in matrices:
        profile = []
        for agent, pool in enumerate(candidates):
            hits = [i for i, column in enumerate(pool) if np.array_equal(matrix[:, agent], column)]
            assert hits, "equilibrium column not drawn from the pool"
            profile.append(hits[0])
        out.append(tuple(profile))
    return out


# ---------------------------------------------------------------- candidates


def test_sample_candidates_shapes_and_validity():
    candidates = pools(3, 5, seed=1)
    assert len(candidates) == 3
    for agent, pool in enumerate(candidates):
        assert pool.shape == (5, 3)
        for column in pool:
            assert abs(np.sum(np.abs(column)) - 1.0) <= 1e-9
            assert column[agent] >= 0.0


def test_sample_candidates_rejects_empty_pool():
    with pytest.raises(ValueError, match="at least one candidate"):
        rs.sample_candidates(2, 0, rs.SamplerConfig(), rs.substream(0, 1))


def test_profile_matrix_assembles_columns():
    candidates = pools(2, 3, seed=2)
    matrix = rs.profile_matrix(candidates, (1, 2))
    assert np.array_equal(matrix[:, 0], candidates[0][1])
    assert np.array_equal(matrix[:, 1], candidates[1][2])


# ------------------------------------------------------------- best response


def attack_game():
    """Two equally sized agents; pools allow holding or attacking."""
    candidates = (
        np.array([[1.0, 0.0], [0.5, -0.5]]),
        np.array([[0.0, 1.0], [-0.5, 0.5]]),
    )
    previous = np.eye(2)
    sizes = np.array([1.0, 1.0])
    params = rs.ModelParams(sigma=100.0)
    return candidates, previous, sizes, params


# ---------------------------------------------------------------- equilibria


def test_attack_game_equilibria_pinned():
    candidates, previous, sizes, params = attack_game()
    equilibria = rs.stage_nash_equilibria(candidates, previous, sizes, params)
    profiles = as_profiles(equilibria, candidates)
    # mutual peace is not stable, every war configuration is
    assert profiles == [(0, 1), (1, 0), (1, 1)]
    minimax = rs.minimax_vector(equilibria, candidates, previous, sizes, params)
    assert minimax.tolist() == [0.0, 0.0]


def test_equilibria_match_brute_force_tabulation(params):
    rng = np.random.default_rng(14)
    for seed in range(40):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        candidates = pools(n, k, seed=seed)
        previous = rs.profile_matrix(candidates, tuple(0 for _ in range(n)))
        sizes = rng.uniform(0.1, 1.0, n)
        fast = rs.stage_nash_equilibria(candidates, previous, sizes, params)
        _, slow_profiles, slow_minimax = oracles.stage_tabulation(
            [pool.tolist() for pool in candidates], previous, sizes, params
        )
        assert as_profiles(fast, candidates) == slow_profiles
        minimax = rs.minimax_vector(fast, candidates, previous, sizes, params)
        assert minimax.tolist() == slow_minimax


def test_equilibria_are_valid_matrices(params, three_agent_state):
    cfg = rs.SamplerConfig(rng_seed=3)
    game = rs.stage_game(three_agent_state, params, cfg, k_candidates=4)
    assert game.exhaustive
    for matrix in game.equilibria:
        rs.validate_tactic_matrix(matrix)


def test_single_agent_game_is_trivial(params):
    candidates = (np.ones((3, 1)),)
    equilibria = rs.stage_nash_equilibria(candidates, np.eye(1), np.array([0.8]), params)
    assert len(equilibria) == 3
    minimax = rs.minimax_vector(equilibria, candidates, np.eye(1), np.array([0.8]), params)
    assert minimax[0] == pytest.approx(0.8**0.5, rel=1e-12)


def test_security_fallback_matches_tabulation(params):
    # passing no equilibria forces the max-min fallback
    candidates = pools(2, 3, seed=77)
    previous = np.eye(2)
    sizes = np.array([0.5, 1.0])
    security = rs.minimax_vector([], candidates, previous, sizes, params)
    payoffs, _, _ = oracles.stage_tabulation(
        [pool.tolist() for pool in candidates], previous, sizes, params
    )
    for agent in range(2):
        best = max(
            min(
                payoffs[(own, other) if agent == 0 else (other, own)][agent]
                for other in range(3)
            )
            for own in range(3)
        )
        assert security[agent] == best


# ----------------------------------------------------------------- sampling


def test_subsampled_scan_finds_only_true_equilibria(params):
    candidates = pools(3, 6, seed=9)
    previous = rs.profile_matrix(candidates, (0, 0, 0))
    sizes = np.array([0.4, 1.0, 0.7])
    full = as_profiles(
        rs.stage_nash_equilibria(candidates, previous, sizes, params), candidates
    )
    sampled = as_profiles(
        rs.stage_nash_equilibria(
            candidates, previous, sizes, params,
            max_profiles=100, rng=np.random.default_rng(5),
        ),
        candidates,
    )
    assert set(sampled) <= set(full)


def test_subsampled_scan_is_deterministic(params):
    candidates = pools(3, 6, seed=9)
    previous = rs.profile_matrix(candidates, (0, 0, 0))
    sizes = np.array([0.4, 1.0, 0.7])
    runs = [
        rs.stage_nash_equilibria(
            candidates, previous, sizes, params,
            max_profiles=100, rng=np.random.default_rng(5),
        )
        for _ in range(2)
    ]
    assert len(runs[0]) == len(runs[1])
    for a, b in zip(*runs):
        assert np.array_equal(a, b)


# --------------------------------------------------------------- stage_game


def test_stage_game_is_reproducible(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=21)
    first = rs.stage_game(three_agent_state, params, cfg, k_candidates=4)
    second = rs.stage_game(three_agent_state, params, cfg, k_candidates=4)
    assert len(first.equilibria) == len(second.equilibria)
    for a, b in zip(first.equilibria, second.equilibria):
        assert np.array_equal(a, b)
    assert np.array_equal(first.minimax, second.minimax)


def test_stage_game_subsample_mode_flags_itself(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=21)
    game = rs.stage_game(
        three_agent_state, params, cfg, k_candidates=5, max_profiles=60
    )
    assert not game.exhaustive
    full = rs.stage_game(three_agent_state, params, cfg, k_candidates=5)
    assert full.exhaustive
    full_keys = {m.tobytes() for m in full.equilibria}
    assert {m.tobytes() for m in game.equilibria} <= full_keys


def test_stage_game_minimax_bounded_by_best_payoff(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=2)
    game = rs.stage_game(three_agent_state, params, cfg, k_candidates=3)
    tensor = rs.payoff_tensor(
        game.candidates, three_agent_state.tactics, three_agent_state.sizes, params
    )
    assert np.all(game.minimax >= 0.0)
    for agent in range(3):
        assert game.minimax[agent] <= tensor[..., agent].max()
