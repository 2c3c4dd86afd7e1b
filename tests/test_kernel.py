"""The batched payoff kernel: stacks agree with their members bit for bit."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
import reelsim as rs
from reelsim import equilibrium
from reelsim.equilibrium import PAYOFF_BLOCK


@st.composite
def payoff_problems(draw):
    """A stack of tactic matrices with the awkward cases mixed in: dead and
    all-dead agents, a member equal to the previous matrix (zero
    distance), duplicate columns and duplicate members."""
    n = draw(st.integers(1, 5))
    count = draw(st.integers(1, 8))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    tactics = draw(hnp.arrays(float, (count, n, n), elements=entries))
    tactics /= np.maximum(np.abs(tactics).sum(axis=1, keepdims=True), 1e-12)
    if n > 1 and draw(st.booleans()):
        source, target = draw(st.permutations(range(n)))[:2]
        tactics[:, :, target] = tactics[:, :, source]
    if count > 1 and draw(st.booleans()):
        tactics[-1] = tactics[0]
    sizes = draw(hnp.arrays(float, n, elements=st.floats(0.0, 1.0)))
    sizes[draw(hnp.arrays(bool, n))] = 0.0
    if draw(st.booleans()):
        previous = tactics[draw(st.integers(0, count - 1))].copy()
    else:
        previous = np.eye(n)
    params = rs.ModelParams(
        alpha=draw(st.floats(2.0, 3.0)),
        mu=draw(st.sampled_from([1.5, 3.0, 8.0])),
        sigma=draw(st.floats(0.05, 5.0)),
    )
    return tactics, previous, sizes, params


@settings(max_examples=300, deadline=None)
@given(payoff_problems())
def test_stacked_payoffs_equal_per_matrix_calls(problem):
    tactics, previous, sizes, params = problem
    stacked = rs.stage_payoffs(tactics, previous, sizes, params)
    one_by_one = np.stack([rs.stage_payoffs(m, previous, sizes, params) for m in tactics])
    assert stacked.shape == (len(tactics), len(sizes))
    assert np.array_equal(stacked, one_by_one)


@st.composite
def update_problems(draw):
    """A stack of tactic matrices with one size vector per member, some
    agents dead; the stack is sometimes as long as a side (B == n)."""
    n = draw(st.integers(1, 10))
    count = draw(st.one_of(st.just(n), st.integers(1, 12)))
    entries = st.floats(-1.0, 1.0, allow_nan=False)
    tactics = draw(hnp.arrays(float, (count, n, n), elements=entries))
    tactics /= np.maximum(np.abs(tactics).sum(axis=1, keepdims=True), 1e-12)
    sizes = draw(hnp.arrays(float, (count, n), elements=st.floats(0.0, 1.0)))
    sizes[draw(hnp.arrays(bool, (count, n)))] = 0.0
    params = rs.ModelParams(
        beta=draw(st.floats(1.01, 2.0)), mu=draw(st.sampled_from([2.5, 3.0, 8.0]))
    )
    return tactics, sizes, params


@settings(max_examples=300, deadline=None)
@given(update_problems())
def test_stacked_update_equals_per_member_calls(problem):
    tactics, sizes, params = problem
    stacked = rs.update_sizes(tactics, sizes[..., np.newaxis], params)[..., 0]
    assert stacked.shape == sizes.shape
    for member, member_sizes, updated in zip(tactics, sizes, stacked):
        assert np.array_equal(updated, rs.update_sizes(member, member_sizes, params))
        expected = oracles.update(member.tolist(), member_sizes.tolist(), params.beta, params.mu)
        assert np.max(np.abs(updated - expected)) <= 1e-12


def test_all_dead_stack_scores_zero(params):
    tactics = np.stack([np.eye(3), np.full((3, 3), 1.0 / 3.0)])
    payoffs = rs.stage_payoffs(tactics, np.eye(3), np.zeros(3), params)
    assert np.array_equal(payoffs, np.zeros((2, 3)))


def test_payoff_tensor_over_several_blocks_matches_tabulation(params, monkeypatch):
    key = rs.stream_key(5, rs.CANDIDATE_STREAM)
    candidates = rs.sample_candidates(3, 20, rs.SamplerConfig(p_neg=0.3), key)
    assert math.prod(len(pool) for pool in candidates) > 2 * PAYOFF_BLOCK
    previous = rs.profile_matrix(candidates, (0, 0, 0))
    sizes = np.array([0.4, 1.0, 0.7])
    payoffs, _, _ = oracles.stage_tabulation(
        [pool.tolist() for pool in candidates], previous, sizes, params
    )
    # the 8,000 profiles one per call, in blocks that end mid-row of the
    # tensor, in the default blocks and in two uneven ones
    for block in (1, 7, PAYOFF_BLOCK, 4096):
        monkeypatch.setattr(equilibrium, "PAYOFF_BLOCK", block)
        tensor = rs.payoff_tensor(candidates, previous, sizes, params)
        assert tensor.shape == (20, 20, 20, 3)
        for profile, expected in payoffs.items():
            assert tensor[profile].tolist() == expected


@pytest.mark.parametrize(
    "n, k, max_profiles, p_neg, seed, equilibria",
    [
        (4, 6, 600, 0.5, 12, 3),
        (4, 6, 600, 0.0, 0, 0),
        (5, 4, 500, 0.5, 0, 0),
        (5, 4, 500, 0.5, 1, 2),
        # k as a tuple gives each agent its own pool size; a max_profiles
        # of 30 // (1 + 3 + 7 + 2 + 5) screens a single profile
        pytest.param(4, (3, 7, 2, 5), 120, 0.5, 7, 1, id="uneven-120-0.5-7-1"),
        pytest.param(4, (3, 7, 2, 5), 120, 0.0, 0, 0, id="uneven-120-0.0-0-0"),
        pytest.param(4, (3, 7, 2, 5), 30, 0.5, 13, 1, id="uneven-30-0.5-13-1"),
        pytest.param(4, (3, 7, 2, 5), 30, 0.5, 4, 0, id="uneven-30-0.5-4-0"),
        # 30**13 profiles: more than an int64 can index
        pytest.param(13, 30, 1564, 0.5, 28, 1, id="wide-1564-0.5-28-1"),
        # no equilibrium, so the security levels draw from the same space
        pytest.param(13, 30, 400, 0.5, 0, 0, id="wide-400-0.5-0-0"),
    ],
)
def test_sampled_game_matches_scalar_screen(
    params, monkeypatch, n, k, max_profiles, p_neg, seed, equilibria
):
    ks = k if isinstance(k, tuple) else (k,) * n
    cfg = rs.SamplerConfig(rng_seed=seed, p_neg=p_neg)
    sizes = np.random.default_rng(seed + 1000).uniform(0.0, 1.0, n)
    state = rs.State(tactics=np.eye(n), sizes=sizes / sizes.max())
    pools = rs.sample_candidates(n, max(ks), cfg, rs.stream_key(seed, rs.CANDIDATE_STREAM))
    candidates = tuple(pool[:size] for pool, size in zip(pools, ks))
    key = oracles.stream_key(seed, rs.PROFILE_STREAM)
    profiles, minimax = oracles.sampled_stage_game(
        candidates, state.tactics, state.sizes, params, max_profiles, key
    )
    assert len(profiles) == equilibria
    expected = [rs.profile_matrix(candidates, profile) for profile in profiles]
    # 7 rows hold less than one deviation slice, 4,096 rows several
    for block in (1, 7, PAYOFF_BLOCK, 4096):
        monkeypatch.setattr(equilibrium, "PAYOFF_BLOCK", block)
        game = rs.solve_stage_game(
            candidates, state.tactics, state.sizes, params, max_profiles=max_profiles, key=key
        )
        assert not game.exhaustive
        assert len(game.equilibria) == len(expected)
        for matrix, reference in zip(game.equilibria, expected):
            assert np.array_equal(matrix, reference)
        assert np.array_equal(game.minimax, minimax)
    if len(set(ks)) == 1:
        # stage_game draws these very pools and profiles from the same keys
        drawn = rs.stage_game(state, params, cfg, k_candidates=k, max_profiles=max_profiles)
        assert all(np.array_equal(a, b) for a, b in zip(drawn.candidates, candidates))
        assert len(drawn.equilibria) == len(expected)
        for matrix, reference in zip(drawn.equilibria, expected):
            assert np.array_equal(matrix, reference)
        assert np.array_equal(drawn.minimax, minimax)
    if p_neg == 0.0:
        # nobody can be killed, so the security levels are not all zero
        assert np.all(game.minimax > 0.0)
