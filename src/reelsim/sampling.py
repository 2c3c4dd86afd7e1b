"""Random tactic generation and grid-rounding for cluster identity.

All randomness flows through numpy Generators derived from a master seed
via SeedSequence spawn keys, so any unit of work (a candidate pool, one
line of play, one tree node) gets its own substream and results never
depend on the order the units run in.

A tactic vector is drawn as n exponentials (its magnitudes, normalized
onto the simplex) followed by n uniforms (its signs). _vector_draws is
the one routine that draws them; the stage game's candidate pools and
the fresh global draws of the line sampler both take their vectors from
it and build them as one stack.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import TacticMatrixError

# Substream namespace tags; keep disjoint so derived streams never collide.
LINE_STREAM = 0
CANDIDATE_STREAM = 1
NODE_STREAM = 2
PROFILE_STREAM = 3


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the tactic sampler and the first-move clustering grid.

    p_neg: probability that an off-diagonal allocation is malevolent.
    allow_negative_diagonal: permit self-harm in sampled tactics.
    local_mix: fraction of matrix draws taken as perturbations of the
        previous matrix instead of fresh global draws. Pure sampling
        efficiency under strong inertia; it never changes definitions.
    rng_seed: master seed all substreams derive from.
    rounding: cluster granularity; entries are rounded to multiples of
        this, so 1/rounding must be an integer, at most 2**53 so that
        every grid key is exact and fits an int64.
    """

    p_neg: float = 0.5
    allow_negative_diagonal: bool = False
    local_mix: float = 0.5
    rng_seed: int = 0
    rounding: float = 0.1

    def __post_init__(self):
        if not (0.0 <= self.p_neg <= 1.0):
            raise ValueError(f"p_neg must lie in [0, 1] (got {self.p_neg})")
        if not (0.0 <= self.local_mix <= 1.0):
            raise ValueError(f"local_mix must lie in [0, 1] (got {self.local_mix})")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be nonnegative (got {self.rng_seed})")
        _check_rounding(self.rounding)


def _check_rounding(rounding: float) -> None:
    if not (0.0 < rounding <= 1.0):
        raise ValueError(f"rounding must lie in (0, 1] (got {rounding})")
    steps = 1.0 / rounding
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"1/rounding must be an integer (got rounding={rounding})")
    # Up to 2**53 steps per unit, every key is an exact integer.
    if steps > 2**53:
        raise ValueError(
            f"1/rounding must be at most 2**53, so grid keys stay exact (got rounding={rounding})"
        )


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by (seed, key).

    Identical (seed, key) pairs yield byte-identical draw sequences
    wherever they are drawn, which is what makes runs reproducible.
    """
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def derive_node_seed(master_seed: int, path: tuple[int, ...]) -> int:
    """64-bit seed for a tree node addressed by its child-index path."""
    if not path:
        return master_seed
    words = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(NODE_STREAM, *path)
    ).generate_state(2)
    return (int(words[0]) << 32) | int(words[1])


def sample_candidates(
    n: int, k: int, cfg: SamplerConfig, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """Draw k candidate tactic columns per agent from a single stream.

    Agent j's pool is a (k, n) array of tactic vectors whose own entry is
    j: magnitudes uniform on the unit simplex, so the abs-sum constraint
    holds by construction, and off-diagonal signs negative with
    probability p_neg; the own entry stays nonnegative unless the config
    allows self-harm. The n*k vectors are drawn agent by agent and built
    as one stack.
    """
    if k < 1:
        raise ValueError(f"need at least one candidate per agent (got k={k})")
    owners = np.repeat(np.arange(n), k)
    vectors = _tactic_vectors(*_vector_draws(rng, n * k, n), owners, cfg)
    return tuple(vectors.reshape(n, k, n))


def sample_tactic_matrices(
    previous: np.ndarray,
    cfg: SamplerConfig,
    rngs: Sequence[np.random.Generator],
    noise_sigma: float,
) -> np.ndarray:
    """Draw the next tactic matrix for each member of a stack (B, n, n).

    Member b draws from rngs[b] alone. With probability (1 - local_mix)
    every column is a fresh global draw, independent of previous[b];
    otherwise previous[b] is perturbed with additive Gaussian noise of
    scale noise_sigma / n per entry (callers pass the model's inertia
    coefficient, so local proposals stay within reach of the inertia
    kernel) and each column is renormalized by its abs-sum. The draws
    are recorded member by member; the arithmetic on them runs once on
    the whole stack, bit for bit what each member gets alone.
    """
    previous = np.asarray(previous, dtype=float)
    count, n = previous.shape[0], previous.shape[-1]
    scale = noise_sigma / n
    local = np.zeros(count, dtype=bool)
    noise = np.empty((count, n, n))
    # Global draws per member, one vector per column of the matrix.
    draws = np.empty((2, count, n, n))
    for member, rng in enumerate(rngs):
        if rng.random() < cfg.local_mix:
            local[member] = True
            noise[member] = rng.normal(0.0, scale, size=(n, n))
        else:
            draws[:, member] = _vector_draws(rng, n, n)
    matrices = np.empty((count, n, n))
    if local.any():
        perturbed = previous[local] + noise[local]
        if not cfg.allow_negative_diagonal:
            idx = np.arange(n)
            perturbed[:, idx, idx] = np.abs(perturbed[:, idx, idx])
        matrices[local] = _renormalize_columns(perturbed)
    fresh = ~local
    if fresh.any():
        columns = _tactic_vectors(*draws[:, fresh], np.arange(n), cfg)
        matrices[fresh] = columns.swapaxes(-1, -2)
    return matrices


def _vector_draws(rng: np.random.Generator, count: int, n: int) -> np.ndarray:
    """Draws (2, count, n) for count tactic vectors of n entries: each
    vector's n exponentials, then its n uniforms, vector by vector. This
    is the one place that fixes the draw order of a tactic vector."""
    draws = np.empty((2, count, n))
    for vector in range(count):
        draws[0, vector] = rng.exponential(1.0, n)
        draws[1, vector] = rng.random(n)
    return draws


def _tactic_vectors(
    exponentials: np.ndarray,
    uniforms: np.ndarray,
    self_index: int | np.ndarray,
    cfg: SamplerConfig,
) -> np.ndarray:
    """Tactic vectors (..., n) from their exponential and uniform draws;
    self_index (broadcast against the leading axes) marks each vector's
    own entry."""
    n = exponentials.shape[-1]
    total = exponentials.sum(axis=-1, keepdims=True)
    positive = total > 0.0
    magnitudes = np.where(positive, exponentials / np.where(positive, total, 1.0), 1.0 / n)
    signs = np.where(uniforms < cfg.p_neg, -1.0, 1.0)
    if not cfg.allow_negative_diagonal:
        own = np.arange(n) == np.asarray(self_index)[..., np.newaxis]
        signs = np.where(own, 1.0, signs)
    return magnitudes * signs


def _renormalize_columns(matrix: np.ndarray) -> np.ndarray:
    """Rescale each column to abs-sum 1; an all-zero column falls back to
    pure self-allocation. A stack (..., n, n) is rescaled member by member."""
    matrix = np.asarray(matrix, dtype=float)
    # Each column is summed as a contiguous row, the order a lone column
    # is summed in; an axis=-2 sum adds row by row and differs from n = 8.
    scale = np.ascontiguousarray(np.abs(matrix).swapaxes(-1, -2)).sum(axis=-1)
    scale = scale[..., np.newaxis, :]
    zero = scale == 0.0
    return np.where(zero, np.eye(matrix.shape[-1]), matrix / np.where(zero, 1.0, scale))


def round_to_grid(tactics: np.ndarray, rounding: float) -> np.ndarray:
    """Integer grid coordinates of each entry, rounding ties away from zero.

    The result is the cluster key: exact integer equality groups matrices
    that land on the same grid point, with none of the float fuzz that
    comparing renormalized matrices would reintroduce.
    """
    _check_rounding(rounding)
    tactics = np.asarray(tactics, dtype=float)
    steps = np.floor(np.abs(tactics) / rounding + 0.5)
    return (np.sign(tactics) * steps).astype(np.int64)


def matrix_from_grid(grid: np.ndarray, rounding: float) -> np.ndarray:
    """Valid tactic matrix for a grid key: scale back and renormalize."""
    return _renormalize_columns(np.asarray(grid, dtype=float) * rounding)


def round_tactic_matrix(tactics: np.ndarray, rounding: float) -> np.ndarray:
    """Snap entries to the rounding grid, then restore column abs-sums.

    A column that rounds to all zeros becomes pure self-allocation.
    """
    tactics = np.asarray(tactics, dtype=float)
    if tactics.ndim != 2 or tactics.shape[0] != tactics.shape[1]:
        raise TacticMatrixError(f"tactic matrix must be square (got shape {tactics.shape})")
    return matrix_from_grid(round_to_grid(tactics, rounding), rounding)
