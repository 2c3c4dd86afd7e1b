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
that were never drawn. One solver does both; stage_game,
stage_nash_equilibria and minimax_vector all go through it.

Every payoff comes from one batched kernel, stage_payoffs, built from the
stack-aware update and utility primitives that line generation also
calls. A stack and its members scored one at a time agree bit for bit,
so exact payoff ties, and the comparison with plain re-implementations
in the tests, do not depend on how profiles are grouped. The exhaustive
tensor is scored PAYOFF_BLOCK profiles per call; a subsampled screen
scores each drawn profile's deviation slice in one call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, State, update_sizes
from .sampling import (
    CANDIDATE_STREAM,
    PROFILE_STREAM,
    SamplerConfig,
    sample_tactic_vector,
    substream,
)
from .utility import expected_utility, positional_utility

DEFAULT_CANDIDATES = 30
DEFAULT_MAX_PROFILES = 200_000
# Profiles per kernel call when scoring many: large enough to amortize
# the per-call overhead, small enough that the (block, n, n) temporaries
# stay a few hundred kilobytes.
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


def sample_candidates(
    n: int, k: int, cfg: SamplerConfig, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Draw k candidate tactic columns per agent from a single stream."""
    if k < 1:
        raise ValueError(f"need at least one candidate per agent (got k={k})")
    return tuple(
        np.stack([sample_tactic_vector(n, agent, cfg, rng) for _ in range(k)])
        for agent in range(n)
    )


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


def stage_nash_equilibria(
    candidates: tuple[np.ndarray, ...],
    previous: np.ndarray,
    sizes: np.ndarray,
    params: ModelParams,
    *,
    max_profiles: int = DEFAULT_MAX_PROFILES,
    rng: np.random.Generator | None = None,
) -> list[np.ndarray]:
    """All profiles where every agent's column attains its axis maximum.

    Exhaustive within max_profiles total profiles; beyond that a random
    subset is screened (rng defaults to a fixed stream) and the result may
    be incomplete. The returned list can legitimately be empty.
    """
    return _solve(candidates, previous, sizes, params, max_profiles, rng)[0]


def minimax_vector(
    equilibria: list[np.ndarray],
    candidates: tuple[np.ndarray, ...],
    previous: np.ndarray,
    sizes: np.ndarray,
    params: ModelParams,
    *,
    max_profiles: int = DEFAULT_MAX_PROFILES,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """Per-agent guarantee: worst equilibrium payoff, or security level.

    With equilibria present, element i is the minimum over them of agent
    i's payoff. With none, element i is agent i's security level: its best
    candidate under the worst combination of the others' candidates.
    """
    return _solve(candidates, previous, sizes, params, max_profiles, rng, list(equilibria))[1]


def stage_game(
    state: State,
    params: ModelParams,
    cfg: SamplerConfig,
    *,
    k_candidates: int = DEFAULT_CANDIDATES,
    max_profiles: int = DEFAULT_MAX_PROFILES,
) -> StageGame:
    """Draw candidate pools at a state and solve the resulting game.

    Candidate draws come from one dedicated substream of the config seed
    and profile subsampling from another, so the same config always
    reproduces the same game.
    """
    candidates = sample_candidates(
        state.n, k_candidates, cfg, substream(cfg.rng_seed, CANDIDATE_STREAM)
    )
    equilibria, minimax, exhaustive = _solve(
        candidates,
        state.tactics,
        state.sizes,
        params,
        max_profiles,
        substream(cfg.rng_seed, PROFILE_STREAM),
    )
    return StageGame(
        candidates=candidates,
        equilibria=tuple(equilibria),
        minimax=minimax,
        exhaustive=exhaustive,
    )


def payoff_tensor(
    candidates: tuple[np.ndarray, ...],
    previous: np.ndarray,
    sizes: np.ndarray,
    params: ModelParams,
) -> np.ndarray:
    """Payoff table over the whole profile space, shape (k_1..k_n, n)."""
    ks = tuple(len(pool) for pool in candidates)
    flat = np.arange(math.prod(ks))
    return _score(candidates, flat, previous, sizes, params).reshape(ks + (len(ks),))


def _solve(candidates, previous, sizes, params, max_profiles, rng, equilibria=None):
    """The stage-game solver: (equilibria, guarantee, exhaustive).

    The scan is exhaustive when the profile space fits max_profiles, else
    a screen of rng-drawn profiles (rng defaults to a fixed stream). Given
    equilibria, the scan is skipped and the guarantee taken over them.
    """
    candidates = tuple(np.asarray(pool, dtype=float) for pool in candidates)
    previous = np.asarray(previous, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    if rng is None:
        rng = np.random.default_rng(0)
    exhaustive = math.prod(len(pool) for pool in candidates) <= max_profiles
    tensor = None
    if exhaustive and not equilibria:
        tensor = payoff_tensor(candidates, previous, sizes, params)
    game = (candidates, previous, sizes, params)
    if equilibria is None:
        if exhaustive:
            profiles = _equilibrium_profiles(tensor)
        else:
            profiles = _sampled_equilibrium_profiles(*game, max_profiles, rng)
        equilibria = [profile_matrix(candidates, profile) for profile in profiles]
    if equilibria:
        minimax = stage_payoffs(np.array(equilibria, dtype=float), previous, sizes, params)
        minimax = minimax.min(axis=0)
    elif exhaustive:
        minimax = _security_from_tensor(tensor)
    else:
        minimax = _sampled_security_levels(*game, max_profiles, rng)
    return equilibria, minimax, exhaustive


def _score(candidates, flat, previous, sizes, params) -> np.ndarray:
    """Payoffs (len(flat), n) of flat profile indices, a block per kernel call."""
    ks = tuple(len(pool) for pool in candidates)
    payoffs = np.empty((len(flat), len(ks)))
    for start in range(0, len(flat), PAYOFF_BLOCK):
        block = np.unravel_index(flat[start : start + PAYOFF_BLOCK], ks)
        payoffs[start : start + PAYOFF_BLOCK] = stage_payoffs(
            profile_matrix(candidates, block), previous, sizes, params
        )
    return payoffs


def _equilibrium_profiles(tensor: np.ndarray) -> list[tuple[int, ...]]:
    """Profiles where each agent's payoff equals the maximum along its axis."""
    n = tensor.shape[-1]
    mask = np.ones(tensor.shape[:-1], dtype=bool)
    for agent in range(n):
        payoffs = tensor[..., agent]
        mask &= payoffs == payoffs.max(axis=agent, keepdims=True)
    return [tuple(int(index) for index in profile) for profile in np.argwhere(mask)]


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
    candidates, previous, sizes, params, max_profiles: int, rng: np.random.Generator
) -> list[tuple[int, ...]]:
    """Screen a random subset of profiles; each check itself is exact.

    Checking one profile scores its deviation slice, the profile and its
    sum(ks) unilateral deviations, in one kernel call, so the number of
    screened profiles is budgeted accordingly.
    """
    ks = tuple(len(pool) for pool in candidates)
    budget = max(1, max_profiles // (sum(ks) + 1))
    drawn = {tuple(int(rng.integers(k)) for k in ks) for _ in range(budget)}
    # Row 1 + d of a slice replaces agent deviators[d]'s choice by alternatives[d].
    deviators = np.repeat(np.arange(len(ks)), ks)
    alternatives = np.concatenate([np.arange(k) for k in ks])
    deviations = np.arange(1, len(deviators) + 1)
    firsts = np.cumsum((0,) + ks[:-1])
    found = []
    for profile in sorted(drawn):
        rows = np.tile(profile, (len(deviators) + 1, 1))
        rows[deviations, deviators] = alternatives
        payoffs = stage_payoffs(profile_matrix(candidates, rows.T), previous, sizes, params)
        best = np.maximum.reduceat(payoffs[deviations, deviators], firsts)
        if np.all(payoffs[0] >= best):
            found.append(profile)
    return found


def _sampled_security_levels(
    candidates, previous, sizes, params, max_profiles: int, rng: np.random.Generator
) -> np.ndarray:
    """Monte Carlo max-min: the worst case is taken over sampled others.

    An approximation from above (a wider scan could only lower the inner
    minimum); used only when the profile space exceeds the budget. The
    scalar draws come in a fixed order; the drawn profiles are then
    scored in blocks.
    """
    ks = tuple(len(pool) for pool in candidates)
    n = len(ks)
    combos = max(1, max_profiles // max(1, sum(ks)))
    drawn = [
        tuple(own if axis == agent else int(rng.integers(ks[axis])) for axis in range(n))
        for agent in range(n)
        for own in range(ks[agent])
        for _ in range(combos)
    ]
    flat = np.ravel_multi_index(tuple(np.array(drawn).T), ks)
    payoffs = _score(candidates, flat, previous, sizes, params)
    levels = np.empty(n)
    first = 0
    for agent in range(n):
        block = payoffs[first : first + ks[agent] * combos, agent]
        levels[agent] = block.reshape(ks[agent], combos).min(axis=1).max()
        first += ks[agent] * combos
    return levels
