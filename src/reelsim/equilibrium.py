"""Sampled stage games: equilibria and guarantees.

Each agent gets a pool of randomly drawn candidate tactic columns. Every
profile (one column per agent) is scored by the expected utility it
yields from the current state, and the profiles where no agent can do
better by switching within its own pool are the stage equilibria. The
per-agent worst case across those equilibria is the guarantee an agent
can insist on when longer lines of play are judged; when the sample has
no equilibrium at all, the security level (best worst case) stands in.

The profile space is enumerated exhaustively while it fits a budget and
Monte Carlo subsampled beyond it. A subsampled sweep checks each drawn
profile exactly (full deviation scan per agent) but can miss equilibria
that were never drawn. One solver, solve_stage_game, does both;
stage_game draws the candidate pools and calls it.

Every payoff comes from one batched kernel, stage_payoffs, built from the
stack-aware update and utility primitives that line generation also
calls. A stack and its members scored one at a time agree bit for bit,
so exact payoff ties, and the comparison with plain re-implementations
in the tests, do not depend on how profiles are grouped. A profile is a
row of candidate indices, never a flat index (a profile space can exceed
an int64), and one loop scores rows PAYOFF_BLOCK at a time, whether they
enumerate the tensor, stack a screen's deviation slices or are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, State, update_sizes
from .sampling import CANDIDATE_STREAM, PROFILE_STREAM, SamplerConfig, integer_draws
from .sampling import sample_candidates, stream_key
from .utility import expected_utility, positional_utility

DEFAULT_CANDIDATES = 30
DEFAULT_MAX_PROFILES = 200_000
# Profile rows per kernel call in _score, the one scoring loop: large
# enough to amortize the per-call overhead, small enough that the
# (block, n, n) temporaries stay a few hundred kilobytes.
PAYOFF_BLOCK = 1024


@dataclass(frozen=True)
class StageGame:
    """Solved stage game at one state.

    candidates holds one (k, n) array per agent, rows being that agent's
    candidate columns. equilibria are full tactic matrices assembled from
    candidate columns. minimax is the per-agent guarantee: the worst
    equilibrium payoff, or the security level when equilibria is empty.
    exhaustive records whether every profile was checked.
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


def stage_payoffs(
    tactics: np.ndarray, previous: np.ndarray, sizes: np.ndarray, params: ModelParams
) -> np.ndarray:
    """Expected utilities of playing tactics from (previous, sizes).

    tactics is one matrix (n, n), giving shape (n,), or a stack (P, n, n),
    giving (P, n), through the same code.
    """
    updated = update_sizes(tactics, sizes, params)
    utilities = positional_utility(updated, params.alpha)
    return expected_utility(utilities, tactics, previous, params.sigma)


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
    and the profile screen and security levels the one keyed by
    stream_key(seed, PROFILE_STREAM), so the same config always
    reproduces the same game.
    """
    seed = cfg.rng_seed
    pools = sample_candidates(state.n, k_candidates, cfg, stream_key(seed, CANDIDATE_STREAM))
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
    candidate under the worst combination of the others' candidates.
    """
    candidates = tuple(np.asarray(pool, dtype=float) for pool in candidates)
    previous = np.asarray(previous, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    _check_game(candidates, previous, sizes)
    game = (candidates, previous, sizes, params)
    exhaustive = math.prod(len(pool) for pool in candidates) <= max_profiles
    if exhaustive:
        tensor = payoff_tensor(*game)
        profiles = _equilibrium_profiles(tensor)
        payoffs = tensor[tuple(profiles.T)]
    else:
        profiles, payoffs = _sampled_equilibrium_profiles(*game, max_profiles, key)
    if len(profiles):
        minimax = payoffs.min(axis=0)
    elif exhaustive:
        minimax = _security_from_tensor(tensor)
    else:
        minimax = _sampled_security_levels(*game, max_profiles, key)
    equilibria = tuple(profile_matrix(candidates, profiles.T))
    return StageGame(
        candidates=candidates, equilibria=equilibria, minimax=minimax, exhaustive=exhaustive
    )


def _check_game(candidates, previous, sizes) -> None:
    """Reject pools and matrices that do not fit len(sizes) agents."""
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


def payoff_tensor(
    candidates: tuple[np.ndarray, ...],
    previous: np.ndarray,
    sizes: np.ndarray,
    params: ModelParams,
) -> np.ndarray:
    """Payoff table over the whole profile space, shape (k_1..k_n, n)."""
    ks = tuple(len(pool) for pool in candidates)
    profiles = np.indices(ks).reshape(len(ks), -1).T
    return _score(candidates, profiles, previous, sizes, params).reshape(ks + (len(ks),))


def _score(candidates, profiles, previous, sizes, params) -> np.ndarray:
    """Payoffs (P, n) of profiles given as (P, n) candidate-index rows, not
    flat indices, since a profile space can exceed an int64. This is the
    one kernel call site: PAYOFF_BLOCK rows per call."""
    payoffs = np.empty(profiles.shape)
    for start in range(0, len(profiles), PAYOFF_BLOCK):
        block = profiles[start : start + PAYOFF_BLOCK].T
        payoffs[start : start + PAYOFF_BLOCK] = stage_payoffs(
            profile_matrix(candidates, block), previous, sizes, params
        )
    return payoffs


def _equilibrium_profiles(tensor: np.ndarray) -> np.ndarray:
    """Rows (E, n), in index order, of profiles where each agent's payoff is its axis max."""
    n = tensor.shape[-1]
    mask = np.ones(tensor.shape[:-1], dtype=bool)
    for agent in range(n):
        payoffs = tensor[..., agent]
        mask &= payoffs == payoffs.max(axis=agent, keepdims=True)
    return np.argwhere(mask)


def _security_from_tensor(tensor: np.ndarray) -> np.ndarray:
    """Max-min value per agent: best candidate under worst others."""
    n = tensor.shape[-1]
    levels = np.empty(n)
    for agent in range(n):
        payoffs = tensor[..., agent]
        others = tuple(axis for axis in range(n) if axis != agent)
        worst = payoffs.min(axis=others) if others else payoffs
        levels[agent] = worst.max()
    return levels


def _sampled_equilibrium_profiles(
    candidates, previous, sizes, params, max_profiles: int, key: int
) -> tuple[np.ndarray, np.ndarray]:
    """Screen a random subset of profiles; each check itself is exact.

    Checking one profile scores its deviation slice, the profile and its
    sum(ks) unilateral deviations, so the number of screened profiles is
    budgeted accordingly. Returns the stable rows (E, n), sorted, and
    their payoffs (E, n), taken from the slices already scored.
    """
    ks = tuple(len(pool) for pool in candidates)
    n, width = len(ks), 1 + sum(ks)
    draws = integer_draws(key, max(1, max_profiles // width), 0, ks)
    profiles = np.array(sorted(set(map(tuple, draws.tolist()))))
    # Row 1 + d of a slice replaces agent deviators[d]'s choice by alternatives[d].
    deviators = np.repeat(np.arange(n), ks)
    alternatives = np.concatenate([np.arange(k) for k in ks])
    deviations = np.arange(1, width)
    rows = np.repeat(profiles[:, None], width, axis=1)
    rows[:, deviations, deviators] = alternatives
    payoffs = _score(candidates, rows.reshape(-1, n), previous, sizes, params).reshape(rows.shape)
    firsts = np.cumsum((0,) + ks[:-1])
    best = np.maximum.reduceat(payoffs[:, deviations, deviators], firsts, axis=1)
    stable = np.all(payoffs[:, 0] >= best, axis=1)
    return profiles[stable], payoffs[stable, 0]


def _sampled_security_levels(
    candidates, previous, sizes, params, max_profiles: int, key: int
) -> np.ndarray:
    """Monte Carlo max-min: the worst case is taken over sampled others.

    An approximation from above (a wider scan could only lower the inner
    minimum); used only when the profile space exceeds the budget. Row r
    of integer_draws at step 1 is the profile of the r-th (agent, own
    candidate, combo), agent-major, with the agent's column overwritten
    by its own candidate.
    """
    ks = tuple(len(pool) for pool in candidates)
    n = len(ks)
    combos = max(1, max_profiles // max(1, sum(ks)))
    agents = np.repeat(np.arange(n), np.array(ks) * combos)
    rows = np.arange(len(agents))
    drawn = integer_draws(key, len(rows), 1, ks)
    drawn[rows, agents] = np.concatenate([np.repeat(np.arange(k), combos) for k in ks])
    payoffs = _score(candidates, drawn, previous, sizes, params)
    worst = payoffs[rows, agents].reshape(-1, combos).min(axis=1)
    return np.maximum.reduceat(worst, np.cumsum((0,) + ks[:-1]))
