"""The batched payoff kernel: stacks agree with their members bit for bit,
and the stage game's column tables with the line-of-play primitives."""

import math

import numpy as np
import pytest
from hypothesis import event, given, settings
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
    count, n = len(tactics), len(sizes)
    # pool j holds column j of every member, so member p is the profile
    # (p, ..., p): the diagonal cell of any agent's sweep over the rows (p, ..., p)
    pools = tuple(np.moveaxis(tactics, -1, 0))
    diagonal = np.repeat(np.arange(count)[:, np.newaxis], n, axis=1)
    tables = equilibrium._tables(pools, previous, sizes, params)
    for agent in range(n):
        grid = equilibrium._sweep(tables, diagonal, agent, params)
        assert grid.shape == (count, count, n)
        own = equilibrium._sweep(tables, diagonal, agent, params, own=True)
        assert own.tobytes() == np.ascontiguousarray(grid[..., agent : agent + 1]).tobytes()
        for member, payoffs in zip(tactics, grid[np.arange(count), np.arange(count)]):
            # one candidate per agent: the member's own columns
            alone = rs.payoff_tensor(tuple(member.T[:, np.newaxis]), previous, sizes, params)
            assert alone.shape == (1,) * n + (n,)
            assert alone.reshape(n).tobytes() == payoffs.tobytes()


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
    # bare (B, n) sizes, one row per member, also when B == n
    stacked = rs.update_sizes(tactics, sizes, params)
    assert stacked.shape == sizes.shape
    for member, member_sizes, updated in zip(tactics, sizes, stacked):
        assert np.array_equal(updated, rs.update_sizes(member, member_sizes, params))
        expected = oracles.update(member.tolist(), member_sizes.tolist(), params.beta, params.mu)
        assert updated.tolist() == expected


@settings(max_examples=300, deadline=None)
@given(update_problems(), st.booleans())
def test_stacked_distance_equals_column_then_agent_loop(problem, shared):
    tactics, _, _ = problem
    # against one shared matrix, or member by member against a reversed stack
    other = tactics[0] if shared else tactics[::-1]
    distances = rs.tactical_distance(tactics, other)
    assert distances.shape == (len(tactics),)
    others = [other] * len(tactics) if shared else other
    for distance, member, previous in zip(distances, tactics, others):
        assert distance == oracles.distance(member.tolist(), previous.tolist())


@st.composite
def stage_problems(draw):
    """Candidate pools for 1-10 agents with uneven sizes, drawn with or
    without self-harm; sizes with zeros (sometimes all of them) and agents
    that die; a previous matrix that is one of the profiles (zero
    distance) or a random tactic matrix. The profile space stays within
    2,048 profiles so the whole tensor can be checked."""
    n = draw(st.integers(1, 10))
    cap = min(8, int(2048 ** (1.0 / n)))
    ks = tuple(draw(st.lists(st.integers(1, cap), min_size=n, max_size=n)))
    cfg = rs.SamplerConfig(
        p_neg=draw(st.sampled_from([0.0, 0.3, 0.9])),
        allow_negative_diagonal=draw(st.booleans()),
    )
    key = rs.stream_key(draw(st.integers(0, 2**32)), rs.CANDIDATE_STREAM)
    pools = rs.sample_candidates(n, max(ks), cfg, key)
    candidates = tuple(pool[:k] for pool, k in zip(pools, ks))
    sizes = draw(hnp.arrays(float, n, elements=st.floats(0.0, 1.0)))
    sizes[draw(hnp.arrays(bool, n))] = 0.0
    if draw(st.booleans()):
        previous = rs.profile_matrix(candidates, [draw(st.integers(0, k - 1)) for k in ks])
    else:
        previous = draw(hnp.arrays(float, (n, n), elements=st.floats(-1.0, 1.0)))
        previous /= np.maximum(np.abs(previous).sum(axis=0), 1e-12)
    params = rs.ModelParams(
        alpha=draw(st.floats(2.0, 3.0)),
        beta=draw(st.floats(1.01, 2.0)),
        mu=draw(st.sampled_from([2.5, 3.0, 8.0])),
        sigma=draw(st.floats(0.05, 5.0)),
    )
    screen_key = rs.stream_key(draw(st.integers(0, 2**32)), rs.PROFILE_STREAM)
    return candidates, previous, sizes, params, draw(st.integers(1, 400)), screen_key


def primitive_payoffs(candidates, rows, previous, sizes, params):
    """Payoffs of profile rows (P, n) through the line-of-play primitives
    on assembled profile matrices."""
    tactics = rs.profile_matrix(candidates, rows.T)
    utilities = rs.positional_utility(rs.update_sizes(tactics, sizes, params), params.alpha)
    return rs.expected_utility(utilities, rs.tactical_distance(tactics, previous), params.sigma)


def stable_rows(tensor, rows, agents):
    """Which rows (P, n) of a payoff tensor (k_1..k_n, n) no agent among
    agents can improve on by switching its own candidate."""
    stable = np.ones(len(rows), dtype=bool)
    for agent in agents:
        payoffs = tensor[..., agent]
        best = payoffs.max(axis=agent, keepdims=True)
        stable &= (payoffs >= best)[tuple(rows.T)]
    return stable


@settings(max_examples=100, deadline=None)
@given(stage_problems())
def test_table_kernel_equals_primitives_on_profile_matrices(problem):
    candidates, previous, sizes, params, max_profiles, key = problem
    ks = tuple(len(pool) for pool in candidates)
    n = len(ks)
    profiles = np.indices(ks).reshape(n, -1).T
    expected = primitive_payoffs(candidates, profiles, previous, sizes, params)
    real_sweep = equilibrium._sweep
    for block in (1, 7, 4096):
        swept = []

        def sweep(tables, rows, agent, *args, **kwargs):
            swept.append((rows, agent, real_sweep(tables, rows, agent, *args, **kwargs)))
            return swept[-1][2]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(equilibrium, "PAYOFF_BLOCK", block)
            tensor = rs.payoff_tensor(candidates, previous, sizes, params)
            assert tensor.reshape(-1, n).tobytes() == expected.tobytes()
            patch.setattr(equilibrium, "_sweep", sweep)
            screened, _, security = equilibrium._screen(
                candidates, previous, sizes, params, max_profiles, key
            )
        # agent d first sweeps the drawn rows that every agent before it
        # found stable, in row order, agent 0 all of them; no agent sweeps
        # an empty set of rows
        drawn = swept[0][0]
        turns = [drawn[stable_rows(tensor, drawn, range(agent))] for agent in range(n)]
        turns = [rows for rows in turns if len(rows)]
        assert [agent for _, agent, _ in swept[: len(turns)]] == list(range(len(turns)))
        for (rows, _, _), expected_rows in zip(swept, turns):
            assert np.array_equal(rows, expected_rows)
        assert np.array_equal(screened, drawn[stable_rows(tensor, drawn, range(n))])
        # only with no stable row does an agent sweep again, once, and only
        # the drawn rows it has not scored, so no cell is scored twice
        again = swept[len(turns) :]
        assert (security is None) == (len(screened) > 0)
        assert security is not None or again == []
        assert [agent for _, agent, _ in again] == sorted({agent for _, agent, _ in again})
        assert all(len(rows) for rows, _, _ in again)
        for agent in range(n if security is not None else 0):
            scored = [rows for rows, other, _ in swept if other == agent]
            assert sorted(np.concatenate(scored).tolist()) == drawn.tolist()
        # each cell is its own payoff on the assembled matrix
        for rows, agent, grid in swept:
            cells = np.repeat(rows[:, np.newaxis], ks[agent], axis=1)
            cells[:, :, agent] = np.arange(ks[agent])
            reference = primitive_payoffs(candidates, cells.reshape(-1, n), previous, sizes, params)
            assert grid.shape == (len(rows), ks[agent], 1)
            assert grid.tobytes() == reference[:, agent].tobytes()


def reference_minimax(reference):
    """The guarantee solve_stage_game reads from a screen: the worst
    stable payoff per agent, or the security level with no stable row."""
    rows, payoffs, security = reference
    return payoffs.min(axis=0) if len(rows) else security


@settings(max_examples=150, deadline=None)
@given(stage_problems())
def test_screen_equals_slice_row_reference(problem):
    candidates, previous, sizes, params, max_profiles, key = problem
    expected = oracles.slice_row_screen(
        candidates, previous, sizes, params, max_profiles, key, PAYOFF_BLOCK
    )
    event("no equilibrium" if len(expected[0]) == 0 else "equilibria")
    for block in (1, 7, 4096):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(equilibrium, "PAYOFF_BLOCK", block)
            screened = equilibrium._screen(candidates, previous, sizes, params, max_profiles, key)
            game = rs.solve_stage_game(
                candidates, previous, sizes, params, max_profiles=max_profiles, key=key
            )
        # the security levels are read only when no row is stable
        read = 2 if len(expected[0]) else 3
        for array, reference in zip(screened[:read], expected[:read]):
            assert array.shape == reference.shape
            assert array.dtype == reference.dtype
            assert array.tobytes() == reference.tobytes()
        if not game.exhaustive:
            assert game.minimax.tobytes() == reference_minimax(expected).tobytes()
    event("exhaustive" if game.exhaustive else "subsampled")


def test_all_dead_stack_scores_zero(params):
    # two candidates per agent: its column of the identity and of the uniform matrix
    tactics = np.stack([np.eye(3), np.full((3, 3), 1.0 / 3.0)])
    pools = tuple(np.moveaxis(tactics, -1, 0))
    payoffs = rs.payoff_tensor(pools, np.eye(3), np.zeros(3), params)
    assert np.array_equal(payoffs, np.zeros((2, 2, 2, 3)))


def test_payoff_tensor_over_several_blocks_matches_tabulation(params, monkeypatch):
    key = rs.stream_key(5, rs.CANDIDATE_STREAM)
    candidates = rs.sample_candidates(3, 25, rs.SamplerConfig(p_neg=0.3), key)
    assert math.prod(len(pool) for pool in candidates) > 2 * PAYOFF_BLOCK
    previous = rs.profile_matrix(candidates, (0, 0, 0))
    sizes = np.array([0.4, 1.0, 0.7])
    payoffs, _, _ = oracles.stage_tabulation(
        [pool.tolist() for pool in candidates], previous, sizes, params
    )
    # the 15,625 profiles one per call, in blocks that end mid-row of the
    # tensor, in the default blocks and in two uneven ones
    for block in (1, 7, PAYOFF_BLOCK, 4096):
        monkeypatch.setattr(equilibrium, "PAYOFF_BLOCK", block)
        tensor = rs.payoff_tensor(candidates, previous, sizes, params)
        assert tensor.shape == (25, 25, 25, 3)
        for profile, expected in payoffs.items():
            assert tensor[profile].tolist() == expected


def test_payoff_tensor_at_k_30_takes_one_pass_per_payoff_block(params, monkeypatch):
    # each pass of the kernel scores its cells with one expected_utility
    # call; 900 rows of PAYOFF_BLOCK // 30 = 136 take 7 passes, where 1,024
    # cells a pass took 27
    key = rs.stream_key(1, rs.CANDIDATE_STREAM)
    candidates = rs.sample_candidates(3, 30, rs.SamplerConfig(), key)
    calls = []

    def counted(*args):
        calls.append(len(calls))
        return rs.expected_utility(*args)

    monkeypatch.setattr(equilibrium, "expected_utility", counted)
    tensor = rs.payoff_tensor(candidates, np.eye(3), np.array([0.3, 1.0, 0.6]), params)
    assert tensor.shape == (30, 30, 30, 3)
    assert len(calls) == math.ceil(900 / (PAYOFF_BLOCK // 30)) == 7


def identity_state(n, seed):
    """n agents on identity tactics, sizes drawn from the seed, largest 1."""
    sizes = np.random.default_rng(seed + 1000).uniform(0.0, 1.0, n)
    return rs.State(tactics=np.eye(n), sizes=sizes / sizes.max())


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
        # no equilibrium, so the security levels come from screened
        # profiles in that same space
        pytest.param(13, 30, 400, 0.5, 0, 0, id="wide-400-0.5-0-0"),
    ],
)
def test_sampled_game_matches_scalar_screen(
    params, monkeypatch, n, k, max_profiles, p_neg, seed, equilibria
):
    ks = k if isinstance(k, tuple) else (k,) * n
    cfg = rs.SamplerConfig(rng_seed=seed, p_neg=p_neg)
    state = identity_state(n, seed)
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


def test_fallback_game_draws_once_and_scores_once(params, monkeypatch):
    # 12**5 profiles over a budget of 20,000 and no screened equilibrium:
    # the security levels come from the screen's own deviation slices
    calls, scored = [], [0]
    real_draws, real_sweep = equilibrium.integer_draws, equilibrium._sweep

    def draws(*args):
        calls.append(real_draws(*args))
        return calls[-1]

    def sweep(tables, rows, agent, *args, **kwargs):
        scored[0] += len(rows) * len(tables[agent][1])
        return real_sweep(tables, rows, agent, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "integer_draws", draws)
    monkeypatch.setattr(equilibrium, "_sweep", sweep)
    cfg = rs.SamplerConfig(rng_seed=0, p_neg=0.0)
    game = rs.stage_game(identity_state(5, 0), params, cfg, k_candidates=12, max_profiles=20_000)
    assert not game.exhaustive and game.equilibria == ()
    assert np.all(game.minimax > 0.0)
    assert len(calls) == 1
    # one cell per screened profile and candidate, the profile itself
    # among them, under the budget of 20,000 // (1 + 5 * 12) profiles
    screened = len(set(map(tuple, calls[0].tolist())))
    assert len(calls[0]) == 20_000 // (1 + 5 * 12)
    assert scored[0] == screened * 5 * 12


def counted_sweeps(monkeypatch):
    """Patch _sweep to record each call's agent and rows."""
    swept, real_sweep = [], equilibrium._sweep

    def sweep(tables, rows, agent, *args, **kwargs):
        swept.append((agent, rows))
        return real_sweep(tables, rows, agent, *args, **kwargs)

    monkeypatch.setattr(equilibrium, "_sweep", sweep)
    return swept


def uneven_game(ks, seed):
    """Pools of the given sizes drawn at the seed, on identity tactics."""
    state = identity_state(len(ks), seed)
    cfg = rs.SamplerConfig(rng_seed=seed, p_neg=0.5)
    pools = rs.sample_candidates(len(ks), max(ks), cfg, rs.stream_key(seed, rs.CANDIDATE_STREAM))
    candidates = tuple(pool[:k] for pool, k in zip(pools, ks))
    return candidates, state.tactics, state.sizes


def test_equilibrium_screen_scores_only_surviving_rows(params, monkeypatch):
    # 25,920 profiles over a budget of 5,000: 5,000 // (1 + 41) = 119 draws
    ks = (6, 12, 9, 4, 10)
    candidates, previous, sizes = uneven_game(ks, 2)
    key = rs.stream_key(2, rs.PROFILE_STREAM)
    tables = equilibrium._tables(candidates, previous, sizes, params)
    swept = counted_sweeps(monkeypatch)
    rows, _, security = equilibrium._screen(candidates, previous, sizes, params, 5000, key)
    monkeypatch.undo()
    assert len(rows) == 2 and security is None
    # the rows alive before each agent, from its grid over every drawn row
    drawn = swept[0][1]
    alive, counts = np.ones(len(drawn), dtype=bool), []
    for agent in range(len(ks)):
        counts.append(int(alive.sum()))
        grid = equilibrium._sweep(tables, drawn, agent, params, own=True)[..., 0]
        alive &= grid[np.arange(len(drawn)), drawn[:, agent]] >= grid.max(axis=1)
    assert np.array_equal(rows, drawn[alive])
    assert [(agent, len(rows)) for agent, rows in swept] == list(enumerate(counts))
    # the cells scored, one sweep per agent over the rows alive before it
    cells = sum(len(rows) * ks[agent] for agent, rows in swept)
    assert cells == sum(count * k for count, k in zip(counts, ks)) < len(drawn) * sum(ks)


@pytest.mark.parametrize("seed, max_profiles, equilibria", [(3, 400, 6), (6, 40, 0)])
def test_screen_with_a_dead_first_agent_prunes_nothing(
    params, monkeypatch, seed, max_profiles, equilibria
):
    # agent 0 is dead and every other candidate column takes from it, so
    # its payoff is 0 in every cell and every row is stable for it
    candidates, previous, _ = uneven_game((5, 6, 4, 7), seed)
    sizes = np.array([0.0, 1.0, 0.6, 0.8])
    candidates = (candidates[0],) + tuple(
        np.concatenate([-np.abs(pool[:, :1]), pool[:, 1:]], axis=1) for pool in candidates[1:]
    )
    key = rs.stream_key(seed, rs.PROFILE_STREAM)
    game = (candidates, previous, sizes, params, max_profiles, key)
    expected = oracles.slice_row_screen(*game, PAYOFF_BLOCK)
    assert len(expected[0]) == equilibria
    swept = counted_sweeps(monkeypatch)
    screened = equilibrium._screen(*game)
    # agent 1 sweeps every drawn row; agent 0 is never swept again
    assert [agent for agent, _ in swept[:2]] == [0, 1]
    assert np.array_equal(swept[1][1], swept[0][1])
    assert [agent for agent, _ in swept].count(0) == 1
    read = 2 if len(expected[0]) else 3
    for array, reference in zip(screened[:read], expected[:read]):
        assert array.shape == reference.shape
        assert array.tobytes() == reference.tobytes()


def test_sampled_security_levels_bound_the_exact_ones(params):
    # 6**4 = 1,296 profiles screened under a budget of 600, so the exact
    # max-min can still be read off the whole tensor
    for seed in range(40):
        cfg = rs.SamplerConfig(rng_seed=seed, p_neg=0.0)
        state = identity_state(4, seed)
        candidates = rs.sample_candidates(4, 6, cfg, rs.stream_key(seed, rs.CANDIDATE_STREAM))
        key = rs.stream_key(seed, rs.PROFILE_STREAM)
        game = rs.solve_stage_game(
            candidates, state.tactics, state.sizes, params, max_profiles=600, key=key
        )
        assert game.equilibria == (), seed
        tensor = rs.payoff_tensor(candidates, state.tactics, state.sizes, params)
        exact = [
            tensor[..., agent].min(axis=tuple(a for a in range(4) if a != agent)).max()
            for agent in range(4)
        ]
        assert np.all(game.minimax >= exact), seed


@pytest.mark.parametrize("n, ks", [(1, (4,)), (3, (3, 5, 4)), (4, (2, 3, 2, 3))])
def test_payoff_cells_are_held_agent_major(params, n, ks):
    # each agent's payoffs are one contiguous slab, so every sum over the
    # agents and every per-agent reduction reads memory in order
    candidates = tuple(
        pool[:k]
        for pool, k in zip(rs.sample_candidates(n, max(ks), rs.SamplerConfig(), 3), ks)
    )
    previous, sizes = np.eye(n), np.linspace(1.0, 0.5, n)
    tables = equilibrium._tables(candidates, previous, sizes, params)
    rows = np.indices(ks).reshape(n, -1).T
    for agent in range(n):
        for own in (False, True):
            swept = equilibrium._sweep(tables, rows, agent, params, own=own)
            assert np.moveaxis(swept, -1, 0).flags.c_contiguous
    tensor = rs.payoff_tensor(candidates, previous, sizes, params)
    assert tensor.shape == ks + (n,)
    for agent in range(n):
        assert tensor[..., agent].flags.c_contiguous


@pytest.mark.parametrize(
    "draws",
    [
        np.array([[2, 0, 1], [0, 1, 1], [2, 0, 1], [0, 1, 0], [0, 1, 1], [1, 2, 0]]),
        equilibrium.integer_draws(rs.stream_key(3, rs.PROFILE_STREAM), 500, (3, 4, 2, 3)),
        np.array([[4, 1, 7, 0]]),
        np.array([[5], [2], [5], [0]]),
    ],
    ids=["duplicates", "drawn", "one-row", "one-agent"],
)
def test_distinct_rows_equal_sorted_tuples(draws):
    expected = np.array(sorted(set(map(tuple, draws.tolist()))))
    distinct = equilibrium._distinct_rows(draws)
    assert distinct.shape == expected.shape and distinct.dtype == expected.dtype
    assert distinct.tobytes() == expected.tobytes()
