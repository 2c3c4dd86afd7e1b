"""Sampled stage games: equilibria and guarantees.

Each agent gets a pool of randomly drawn candidate tactic columns. Every
profile (one column per agent) is scored by the expected utility it
yields from the current state, and the profiles where no agent can do
better by switching within its own pool are the stage equilibria. The
per-agent worst case across those equilibria is the guarantee an agent
can insist on when longer lines of play are judged; when the sample has
no equilibrium at all, the security level (best worst case) stands in.

The profile space is enumerated exhaustively while it fits a budget and
Monte Carlo subsampled beyond it. A subsampled screen checks each drawn
profile exactly but can miss equilibria that were never drawn. The
agents check in turn, each over its whole pool but only on the profiles
no earlier agent can leave, so the stable profiles are those that
survive the last agent. Only when none does are the security levels
read, from each agent's deviation payoffs over every drawn profile: per
candidate, the least of the ones it scored in its turn and of the rest,
scored then. One solver, solve_stage_game, does both; stage_game draws
the candidate pools and calls it.

Every payoff comes from one kernel, _sweep: a grid of profile rows
along one axis and one agent's whole candidate pool broadcast along the
other. A profile's payoff is separable by column, so each candidate's
transfer column and squared move are tabled once per game; each cell
adds its columns in agent order, as update_sizes and tactical_distance
add a profile matrix's, and scores the move through expected_utility,
as the lines of play score theirs. A payoff is therefore bit for bit
what the line-of-play primitives give the assembled matrix, however
profiles are grouped, so exact payoff ties and the tests' plain
re-implementations hold. The tensor sweeps the last agent with every
agent's payoff; the screen sweeps each agent in turn with that agent's
payoff alone, the one a deviation test reads, and since a cell's bits
do not depend on which rows share its sweep, the rows that survive and
their payoffs are what one sweep of every agent over every drawn
profile would give. A profile is a row of
candidate indices, never a flat index (a profile space can exceed an
int64).

The kernel scores PAYOFF_BLOCK // k rows, about PAYOFF_BLOCK cells, a
pass. A pass costs about 30 us before it scores a cell, in its 35 or so
numpy calls, and then about 120 ns a cell, most of it math.erfc and **,
whose values the output bits fix. So the fewer passes the better, until
a pass's (n, rows, k) temporaries outgrow the heap the last pass freed
and a command takes a few hundred fresh page faults: at n = 3 from about
6,000 cells up, and at 4,096 in some heap layouts but not others, so
the threshold follows the layout, not the size alone. At 4,096 cells, the 27,000-cell tensor of n = 3 and k = 30 takes
7 passes, where one row a pass took 900.

The cells are held agent-major: the tables hold each candidate's
transfer column recipient-major, (n, k), the kernel builds its sizes
and payoffs as (n, rows, k) and the tensor as (n, k_1..k_n), so each
add over the agents and each agent's slice of the tensor is one pass
over contiguous memory. Callers see the (rows, k, n) and (k_1..k_n, n)
shapes, as views; the layout changes no cell's operations or bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, State, sizes_from_transfers, transfers
from .sampling import CANDIDATE_STREAM, PROFILE_STREAM, SamplerConfig, integer_draws
from .sampling import sample_candidates, stream_key
from .utility import column_moves, distance_from_moves, expected_utility, positional_utility

DEFAULT_CANDIDATES = 30
DEFAULT_MAX_PROFILES = 200_000
# Cells per pass of _sweep's loop, the one constant that sizes a pass. A
# pass costs about 30 us fixed and about 120 ns a cell (n = 3, 2-core
# Xeon): at k = 30, 1,024 cells gave 27 passes and 4.2 ms a tensor,
# 4,096 gives 7 and 3.6 ms, and 3,072 to 6,144 cells read within
# 0.15 ms of each other, so the value rests on the pass count; where
# page faults start depends on the heap's layout (module docstring).
PAYOFF_BLOCK = 4096
# The most bytes one array sized by a count may take; a larger count is
# refused before anything is drawn instead of failing to allocate mid-run.
_ARRAY_BYTES = 2**30


@dataclass(frozen=True)
class StageGame:
    """Solved stage game at one state.

    candidates holds one (k, n) array per agent, rows being that agent's
    candidate columns. equilibria are full tactic matrices assembled from
    candidate columns. minimax is the per-agent guarantee: the worst
    equilibrium payoff, or the security level when equilibria is empty;
    the security levels are computed only then. exhaustive records
    whether every profile was checked.
    """

    candidates: tuple[np.ndarray, ...]
    equilibria: tuple[np.ndarray, ...]
    minimax: np.ndarray
    exhaustive: bool


def profile_matrix(candidates: tuple[np.ndarray, ...], profile) -> np.ndarray:
    """Assemble the full tactic matrix for one choice of candidate per agent.

    profile holds one candidate index per agent; given one index array per
    agent instead, the result is the stack (P, n, n) of those profiles.
    """
    return np.stack([pool[index] for pool, index in zip(candidates, profile)], axis=-1)


def stage_game(
    state: State,
    params: ModelParams,
    cfg: SamplerConfig,
    *,
    k_candidates: int = DEFAULT_CANDIDATES,
    max_profiles: int = DEFAULT_MAX_PROFILES,
) -> StageGame:
    """Draw candidate pools at a state and solve the resulting game.

    The pools read the stream keyed by stream_key(seed, CANDIDATE_STREAM)
    and the profile screen, whose drawn profiles also give the security
    levels, the one keyed by stream_key(seed, PROFILE_STREAM), so the
    same config always reproduces the same game. A k_candidates or
    max_profiles past its array bound (check_size, check_profiles)
    raises ValueError before anything is drawn.
    """
    n = state.n
    # the pools' draws: 2n words for each of n * k_candidates vectors
    check_size("candidates", k_candidates, 2 * n * n, n)
    check_profiles((k_candidates,) * n, max_profiles)
    seed = cfg.rng_seed
    pools = sample_candidates(n, k_candidates, cfg, stream_key(seed, CANDIDATE_STREAM))
    key = stream_key(seed, PROFILE_STREAM)
    return solve_stage_game(
        pools, state.tactics, state.sizes, params, max_profiles=max_profiles, key=key
    )


def solve_stage_game(
    candidates: tuple[np.ndarray, ...],
    previous: np.ndarray,
    sizes: np.ndarray,
    params: ModelParams,
    *,
    max_profiles: int = DEFAULT_MAX_PROFILES,
    key: int,
) -> StageGame:
    """Solve the stage game on given candidate pools.

    Equilibria are the profiles where every agent's column attains its
    axis maximum, found exhaustively while the profile space fits
    max_profiles, else by screening profiles drawn from the stream keyed
    by key, which can miss some. The guarantee is each agent's worst
    equilibrium payoff or, with none found, its security level: its best
    candidate under the worst combination of the others' candidates, or
    of the screened profiles' others when subsampled (an upper bound).
    A max_profiles past check_profiles' bound raises ValueError before
    any profile is scored or drawn.
    """
    candidates, previous, sizes = _checked_game(candidates, previous, sizes)
    check_profiles([len(pool) for pool in candidates], max_profiles)
    game = (candidates, previous, sizes, params)
    exhaustive = math.prod(len(pool) for pool in candidates) <= max_profiles
    if exhaustive:
        profiles, payoffs, security = _solve_tensor(payoff_tensor(*game))
    else:
        profiles, payoffs, security = _screen(*game, max_profiles, key)
    minimax = payoffs.min(axis=0) if len(profiles) else security
    equilibria = tuple(profile_matrix(candidates, profiles.T))
    return StageGame(
        candidates=candidates, equilibria=equilibria, minimax=minimax, exhaustive=exhaustive
    )


def size_bound(unit: int) -> int:
    """The largest count whose array of unit 8-byte items per counted
    thing fits in _ARRAY_BYTES."""
    return _ARRAY_BYTES // 8 // unit


def check_size(name: str, value: int, unit: int, n: int) -> None:
    """Refuse, with a ValueError that names the count and its largest
    accepted value, a count past size_bound(unit) with n agents."""
    bound = size_bound(unit)
    if value > bound:
        raise ValueError(f"{name} must be at most {bound} for {n} agents (got {value})")


def check_profiles(ks, max_profiles: int) -> None:
    """Refuse a max_profiles whose game, on pools of ks candidates,
    could hold more profile rows of len(ks) entries than check_size
    allows. A game holds min(max_profiles, prod(ks)) rows, so when every
    profile fits, any max_profiles is accepted."""
    n = len(ks)
    if math.prod(ks) > size_bound(n):
        check_size("max_profiles", max_profiles, n, n)


def _checked_game(candidates, previous, sizes):
    """The pools, previous tactics and sizes as float arrays; pools and
    matrices that do not fit len(sizes) agents are rejected."""
    candidates = tuple(np.asarray(pool, dtype=float) for pool in candidates)
    previous = np.asarray(previous, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    n = len(sizes)
    if len(candidates) != n:
        raise ValueError(f"need one candidate pool per agent: got {len(candidates)} for {n}")
    for agent, pool in enumerate(candidates):
        if pool.ndim != 2 or pool.shape[1] != n or len(pool) == 0:
            raise ValueError(
                f"pool {agent} must be a nonempty (k, {n}) array of columns "
                f"(got shape {pool.shape})"
            )
    if previous.shape != (n, n):
        raise ValueError(f"previous must have shape ({n}, {n}) (got {previous.shape})")
    return candidates, previous, sizes


def payoff_tensor(
    candidates: tuple[np.ndarray, ...],
    previous: np.ndarray,
    sizes: np.ndarray,
    params: ModelParams,
) -> np.ndarray:
    """Payoff table over the whole profile space, shape (k_1..k_n, n)."""
    candidates, previous, sizes = _checked_game(candidates, previous, sizes)
    ks = tuple(len(pool) for pool in candidates)
    # Index rows of agents 0..n-2 with a last column the sweep ignores.
    rows = np.indices(ks[:-1] + (1,)).reshape(len(ks), -1).T
    tables = _tables(candidates, previous, sizes, params)
    # the sweep's (n, P, k) buffer, reshaped without a copy: agent-major
    swept = np.moveaxis(_sweep(tables, rows, len(ks) - 1, params), -1, 0)
    return np.moveaxis(swept.reshape((len(ks),) + ks), 0, -1)


def _tables(candidates, previous, sizes, params) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each agent's candidates as transfer columns, recipient-major (n,
    k), and squared moves (k,), tabled once per game from the stack whose
    member c holds candidate c of every pool (zeros past a short pool's
    end)."""
    n = len(candidates)
    stack = np.zeros((max(len(pool) for pool in candidates), n, n))
    for agent, pool in enumerate(candidates):
        stack[: len(pool), :, agent] = pool
    gains = transfers(stack, sizes, params)
    moves = column_moves(stack, previous)
    return [
        (np.ascontiguousarray(gain[: len(pool)].T), move[: len(pool)])
        for gain, move, pool in zip(gains, moves, candidates)
    ]


def _sweep(tables, rows, agent: int, params, *, own: bool = False) -> np.ndarray:
    """Payoffs (P, k, n) of profile rows (P, n) with the agent's choice
    swept over its k candidates: cell (p, c) scores row p with candidate
    c in place of rows[p, agent], whose value is ignored. With own, only
    the agent's payoff is computed, (P, k, 1).

    The cells are held agent-major: the others' tabled columns are
    gathered once per row, (n, rows, 1), against the agent's whole
    table, (n, 1, k), PAYOFF_BLOCK // k rows at a time, so each add over
    the agents is one pass over contiguous (rows, k) slabs. The result
    is the (P, k, n) transpose of an (n, P, k) array, a view.
    """
    k = len(tables[agent][1])
    payoffs = np.empty((1 if own else len(tables), len(rows), k))
    step = max(1, PAYOFF_BLOCK // k)
    for start in range(0, len(rows), step):
        block = rows[start : start + step].T
        # take, not fancy indexing: the same columns, about 3x faster on (n, k) tables
        terms = [
            (gains[:, np.newaxis], moves[np.newaxis])
            if other == agent
            else (gains.take(choices, 1)[..., np.newaxis], moves.take(choices)[:, np.newaxis])
            for other, ((gains, moves), choices) in enumerate(zip(tables, block))
        ]
        updated = sizes_from_transfers(gain for gain, _ in terms).transpose(1, 2, 0)
        distance = distance_from_moves(move for _, move in terms)
        utilities = positional_utility(updated, params.alpha, agent if own else None)
        # with one agent the sums are its own tables, (1, 1, k) and (1, k), broadcast over the rows
        scored = expected_utility(utilities, distance, params.sigma)
        payoffs[:, start : start + step] = scored.transpose(2, 0, 1)
    return payoffs.transpose(1, 2, 0)


def _solve_tensor(tensor: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Equilibrium rows (E, n) in index order, where each agent's payoff is
    its axis max, their payoffs (E, n), and each agent's security level,
    its best candidate under the worst combination of the others', or
    None when some row is an equilibrium. The security levels are read
    only when none is, so only then are they computed."""
    n = tensor.shape[-1]
    mask = np.ones(tensor.shape[:-1], dtype=bool)
    for agent in range(n):
        payoffs = tensor[..., agent]
        mask &= payoffs == payoffs.max(axis=agent, keepdims=True)
    rows = np.argwhere(mask)
    security = None
    if not len(rows):
        security = np.array(
            [
                tensor[..., agent].min(axis=tuple(a for a in range(n) if a != agent)).max()
                for agent in range(n)
            ]
        )
    return rows, tensor[tuple(rows.T)], security


def _screen(
    candidates, previous, sizes, params, max_profiles: int, key: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Screen a random subset of profiles; each check itself is exact.

    Checking a profile for one agent takes its payoff over its whole
    pool with the others' choices fixed. The agents check in turn, each
    only the profiles that every earlier agent found stable, since a
    profile that one agent can improve on is no equilibrium, until none
    is left. Returns the rows that survive the last agent (E, n),
    sorted, their payoffs (E, n), the cells at their own choices, and
    each agent's security level, or None when some row survives. The
    security levels are read only when none does: each agent's best
    candidate under the worst screened others, an upper bound on the
    exact max-min. A candidate's worst payoff is the lesser of its
    minimum over the rows the agent swept in its turn, if that came,
    and its minimum over the rest, swept then, so no cell is scored
    twice.

    The number of screened profiles is max_profiles // (1 + sum(ks)),
    for a profile and its unilateral deviations. The 1 + counted a
    profile's own payoff row when that was scored apart; it now counts
    no scored cell and stays only so that the same profiles are drawn.
    """
    ks = tuple(len(pool) for pool in candidates)
    draws = integer_draws(key, max(1, max_profiles // (1 + sum(ks))), ks)
    profiles = _distinct_rows(draws)
    tables = _tables(candidates, previous, sizes, params)
    # alive: the rows every agent so far found stable; payoffs[p, d]: row
    # p's payoff to agent d, filled in for the rows agent d swept
    alive, payoffs, checked = np.arange(len(profiles)), np.empty((len(profiles), len(ks))), []
    for agent in range(len(ks)):
        rows = profiles[alive]
        # grid[p, c]: the agent's payoff when it alone switches rows[p] to candidate c
        grid = _sweep(tables, rows, agent, params, own=True)[..., 0]
        own = grid[np.arange(len(rows)), rows[:, agent]]
        payoffs[alive, agent] = own
        checked.append((alive, grid))
        alive = alive[own >= grid.max(axis=1)]
        if not len(alive):
            break
    security = None
    if not len(alive):
        # an agent whose turn never came swept no row
        checked += [(alive, np.empty((0, k))) for k in ks[len(checked) :]]
        security = np.empty(len(ks))
        for agent, (scored, grid) in enumerate(checked):
            low = grid.min(axis=0, initial=np.inf)
            rest = np.delete(profiles, scored, axis=0)
            if len(rest):
                low = np.minimum(low, _sweep(tables, rest, agent, params, own=True)[..., 0].min(0))
            security[agent] = low.max()
    return profiles[alive], payoffs[alive], security


def _distinct_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-d array in lexicographic order, as
    np.unique(rows, axis=0) gives them without importing numpy.ma."""
    rows = rows[np.lexsort(rows.T[::-1])]
    return rows[np.concatenate(([True], np.diff(rows, axis=0).any(axis=1)))]
