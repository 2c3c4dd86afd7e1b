"""Stage games on sampled candidate pools: equilibria and guarantees."""

import tracemalloc

import numpy as np
import pytest

import oracles
import reelsim as rs
from reelsim import equilibrium


def pools(n, k, seed, p_neg=0.5):
    cfg = rs.SamplerConfig(p_neg=p_neg)
    return rs.sample_candidates(n, k, cfg, rs.stream_key(seed, rs.CANDIDATE_STREAM))


def exhaustive(candidates, previous, sizes, params):
    """solve_stage_game on a profile space that fits the budget, so the
    profile stream is never drawn from."""
    game = rs.solve_stage_game(candidates, previous, sizes, params, key=0)
    assert game.exhaustive
    return game


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
        rs.sample_candidates(2, 0, rs.SamplerConfig(), 0)


@pytest.mark.parametrize(
    "cfg",
    [
        rs.SamplerConfig(),
        rs.SamplerConfig(p_neg=0.0),
        rs.SamplerConfig(p_neg=0.9, allow_negative_diagonal=True),
    ],
)
# from n = 8 numpy's pairwise .sum differs from the in-order sum both sides use
@pytest.mark.parametrize("n, k", [(1, 1), (3, 12), (5, 12), (8, 30), (9, 4)])
def test_pools_equal_the_frozen_vector_loop(n, k, cfg):
    # the reference builds each vector alone from Python-integer words
    key = rs.stream_key(n, rs.CANDIDATE_STREAM)
    assert key == oracles.stream_key(n, rs.CANDIDATE_STREAM)
    candidates = rs.sample_candidates(n, k, cfg, key)
    assert len(candidates) == n
    for agent, pool in enumerate(candidates):
        expected = [
            oracles.candidate_vector(key, agent * k + candidate, n, agent, cfg)
            for candidate in range(k)
        ]
        assert np.array_equal(pool, np.stack(expected))


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
    game = exhaustive(candidates, previous, sizes, params)
    profiles = as_profiles(game.equilibria, candidates)
    # mutual peace is not stable, every war configuration is
    assert profiles == [(0, 1), (1, 0), (1, 1)]
    assert game.minimax.tolist() == [0.0, 0.0]


def test_equilibria_match_brute_force_tabulation(params):
    rng = np.random.default_rng(14)
    for seed in range(40):
        n = int(rng.integers(2, 4))
        k = int(rng.integers(2, 4))
        candidates = pools(n, k, seed=seed)
        previous = rs.profile_matrix(candidates, tuple(0 for _ in range(n)))
        sizes = rng.uniform(0.1, 1.0, n)
        fast = exhaustive(candidates, previous, sizes, params)
        _, slow_profiles, slow_minimax = oracles.stage_tabulation(
            [pool.tolist() for pool in candidates], previous, sizes, params
        )
        assert as_profiles(fast.equilibria, candidates) == slow_profiles
        assert fast.minimax.tolist() == slow_minimax


def test_equilibria_are_valid_matrices(params, three_agent_state):
    cfg = rs.SamplerConfig(rng_seed=3)
    game = rs.stage_game(three_agent_state, params, cfg, k_candidates=4)
    assert game.exhaustive
    for matrix in game.equilibria:
        rs.validate_tactic_matrix(matrix)


def test_single_agent_game_is_trivial(params):
    candidates = (np.ones((3, 1)),)
    game = exhaustive(candidates, np.eye(1), np.array([0.8]), params)
    assert len(game.equilibria) == 3
    assert game.minimax[0] == pytest.approx(0.8**0.5, rel=1e-12)


def test_security_fallback_matches_tabulation(params):
    # a game without a pure equilibrium falls back to the max-min value
    candidates = pools(2, 3, seed=222)
    previous = rs.profile_matrix(candidates, (0, 0))
    sizes = np.array([1.0, 0.5])
    game = exhaustive(candidates, previous, sizes, params)
    assert game.equilibria == ()
    security = game.minimax
    payoffs, slow_profiles, _ = oracles.stage_tabulation(
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
    assert slow_profiles == []


def test_solved_tensor_has_no_security_levels_when_a_profile_is_stable(params):
    candidates = pools(3, 4, seed=5)
    previous = rs.profile_matrix(candidates, (0, 0, 0))
    sizes = np.array([0.4, 1.0, 0.7])
    _, slow_profiles, _ = oracles.stage_tabulation(
        [pool.tolist() for pool in candidates], previous, sizes, params
    )
    assert slow_profiles
    rows, _, security = equilibrium._solve_tensor(
        rs.payoff_tensor(candidates, previous, sizes, params)
    )
    assert [tuple(row) for row in rows.tolist()] == slow_profiles
    assert security is None


def test_solved_tensor_without_equilibria_has_the_tabulated_security_levels():
    # agent 0 wants to match agent 1's choice, agent 1 to differ: every
    # profile has a deviation, so no profile is stable
    tensor = np.array([[[3.0, 0.0], [1.0, 2.0]], [[0.0, 4.0], [2.0, 1.0]]])
    rows, payoffs, security = equilibrium._solve_tensor(tensor)
    assert rows.shape == (0, 2) and payoffs.shape == (0, 2)
    tabulated = {profile: tensor[profile].tolist() for profile in np.ndindex(2, 2)}
    assert security.tolist() == oracles.security_levels(tabulated, (2, 2)) == [1.0, 1.0]


def test_empty_pool_is_rejected(params):
    candidates = (np.eye(2)[:1], np.empty((0, 2)))
    with pytest.raises(ValueError, match=r"pool 1 must be a nonempty \(k, 2\) array"):
        rs.solve_stage_game(
            candidates, np.eye(2), np.ones(2), params, key=0
        )


def test_one_pool_per_agent_is_required(params):
    candidates = pools(2, 3, seed=1)
    with pytest.raises(ValueError, match="one candidate pool per agent: got 2 for 3"):
        rs.solve_stage_game(
            candidates, np.eye(3), np.ones(3), params, key=0
        )


def test_pool_rows_must_have_one_entry_per_agent(params):
    candidates = pools(2, 3, seed=1) + (np.eye(2),)
    with pytest.raises(ValueError, match=r"pool 0 must be a nonempty \(k, 3\) array"):
        rs.solve_stage_game(
            candidates, np.eye(3), np.ones(3), params, key=0
        )


def test_previous_must_be_square_over_the_agents(params):
    candidates = pools(3, 2, seed=1)
    with pytest.raises(ValueError, match=r"previous must have shape \(3, 3\)"):
        rs.solve_stage_game(
            candidates, np.eye(2), np.ones(3), params, key=0
        )


@pytest.mark.parametrize(
    "case, message",
    [
        ("narrow pool", r"pool 2 must be a nonempty \(k, 3\) array .*\(got shape \(2, 2\)\)"),
        ("two pools", r"need one candidate pool per agent: got 2 for 3"),
        ("small previous", r"previous must have shape \(3, 3\) \(got \(2, 2\)\)"),
        ("empty pool", r"pool 2 must be a nonempty \(k, 3\) array .*\(got shape \(0, 3\)\)"),
    ],
    ids=["narrow pool", "two pools", "small previous", "empty pool"],
)
def test_payoff_tensor_rejects_what_the_solver_rejects(params, case, message):
    # two candidates per agent wherever the case leaves them
    candidates, previous = pools(3, 2, seed=1), np.eye(3)
    if case == "narrow pool":
        candidates = candidates[:2] + (np.eye(2),)
    elif case == "two pools":
        candidates = candidates[:2]
    elif case == "small previous":
        previous = np.eye(2)
    else:
        candidates = candidates[:2] + (np.empty((0, 3)),)
    with pytest.raises(ValueError, match=message) as solved:
        rs.solve_stage_game(candidates, previous, np.ones(3), params, key=0)
    with pytest.raises(ValueError) as tabled:
        rs.payoff_tensor(candidates, previous, np.ones(3), params)
    assert str(tabled.value) == str(solved.value)


# ----------------------------------------------------------------- sampling


def test_subsampled_scan_finds_only_true_equilibria(params):
    candidates = pools(3, 6, seed=9)
    previous = rs.profile_matrix(candidates, (0, 0, 0))
    sizes = np.array([0.4, 1.0, 0.7])
    full = as_profiles(exhaustive(candidates, previous, sizes, params).equilibria, candidates)
    sampled = rs.solve_stage_game(
        candidates, previous, sizes, params, max_profiles=100, key=5
    )
    assert not sampled.exhaustive
    sampled = as_profiles(sampled.equilibria, candidates)
    assert set(sampled) <= set(full)


def test_subsampled_scan_is_deterministic(params):
    candidates = pools(3, 6, seed=9)
    previous = rs.profile_matrix(candidates, (0, 0, 0))
    sizes = np.array([0.4, 1.0, 0.7])
    runs = [
        rs.solve_stage_game(
            candidates, previous, sizes, params, max_profiles=100, key=5
        ).equilibria
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


def peak_and_error(call):
    """The ValueError call raises and the traced peak it reached."""
    tracemalloc.start()
    try:
        with pytest.raises(ValueError) as raised:
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return str(raised.value), peak


@pytest.mark.parametrize(
    "sizes, message",
    [
        (
            {"k_candidates": 10**12},
            f"candidates must be at most 7456540 for 3 agents (got {10**12})",
        ),
        # 400**3 profiles are past the row bound
        (
            {"k_candidates": 400, "max_profiles": 10**9},
            f"max_profiles must be at most 44739242 for 3 agents (got {10**9})",
        ),
    ],
)
def test_stage_game_refuses_arrays_past_their_bound_before_drawing(shipped, sizes, message):
    # the bounds and messages of SimSettings.check_sizes, before any draw
    state, params, cfg = shipped.state, shipped.params, shipped.sampler
    error, peak = peak_and_error(lambda: rs.stage_game(state, params, cfg, **sizes))
    assert error == message
    assert peak < 2**20


def test_solve_stage_game_refuses_profiles_past_their_bound_before_scoring(shipped):
    # 400**3 profiles would be solved exhaustively, a 1.5 GB payoff tensor
    state = shipped.state
    candidates = pools(3, 400, 0)
    error, peak = peak_and_error(
        lambda: rs.solve_stage_game(
            candidates, state.tactics, state.sizes, shipped.params, max_profiles=10**9, key=0
        )
    )
    assert error == f"max_profiles must be at most 44739242 for 3 agents (got {10**9})"
    assert peak < 2**20
    # a budget every profile fits needs no bound
    small = tuple(pool[:3] for pool in candidates)
    game = rs.solve_stage_game(
        small, state.tactics, state.sizes, shipped.params, max_profiles=10**300, key=0
    )
    assert game.exhaustive
