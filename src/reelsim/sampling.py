"""Random tactic generation and grid-rounding for cluster identity.

All randomness flows through numpy Generators derived from a master seed
via SeedSequence spawn keys, so any unit of work (a candidate pool, one
line of play, one tree node) gets its own substream and results never
depend on the order the units run in.
"""

from __future__ import annotations

import math
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
        this, so 1/rounding must be an integer.
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


def sample_tactic_vector(
    n: int, self_index: int, cfg: SamplerConfig, rng: np.random.Generator
) -> np.ndarray:
    """Draw one valid tactic vector for the agent at self_index.

    Magnitudes are uniform on the unit simplex (normalized exponential
    draws), so the abs-sum constraint holds by construction. Off-diagonal
    signs flip negative with probability p_neg; the self entry stays
    nonnegative unless the config allows self-harm.
    """
    if n < 1:
        raise ValueError(f"need at least one agent (got n={n})")
    if not (0 <= self_index < n):
        raise ValueError(f"self_index {self_index} out of range for n={n}")
    magnitudes = rng.exponential(1.0, n)
    total = magnitudes.sum()
    magnitudes = magnitudes / total if total > 0.0 else np.full(n, 1.0 / n)
    signs = np.where(rng.random(n) < cfg.p_neg, -1.0, 1.0)
    if not cfg.allow_negative_diagonal:
        signs[self_index] = 1.0
    return magnitudes * signs


def sample_tactic_matrix(
    previous: np.ndarray,
    cfg: SamplerConfig,
    rng: np.random.Generator,
    noise_sigma: float,
) -> np.ndarray:
    """Draw the next tactic matrix, mixing global and local proposals.

    With probability (1 - local_mix) every column is a fresh global draw,
    independent of ``previous``. Otherwise the previous matrix is
    perturbed with additive Gaussian noise of scale noise_sigma / n per
    entry and each column is renormalized by its abs-sum. Callers
    typically pass the model's inertia coefficient as noise_sigma so local
    proposals stay within reach of the inertia kernel.
    """
    previous = np.asarray(previous, dtype=float)
    n = previous.shape[0]
    if rng.random() < cfg.local_mix:
        perturbed = previous + rng.normal(0.0, noise_sigma / n, size=(n, n))
        if not cfg.allow_negative_diagonal:
            idx = np.arange(n)
            perturbed[idx, idx] = np.abs(perturbed[idx, idx])
        return _renormalize_columns(perturbed)
    columns = [sample_tactic_vector(n, j, cfg, rng) for j in range(n)]
    return np.column_stack(columns)


def _renormalize_columns(matrix: np.ndarray) -> np.ndarray:
    """Rescale each column to abs-sum 1; an all-zero column falls back to
    pure self-allocation."""
    matrix = np.asarray(matrix, dtype=float)
    # Each column is summed as a contiguous row, the order a lone column
    # is summed in; an axis=0 sum adds row by row and differs from n = 8.
    scale = np.ascontiguousarray(np.abs(matrix).T).sum(axis=-1)
    zero = scale == 0.0
    return np.where(zero, np.eye(matrix.shape[1]), matrix / np.where(zero, 1.0, scale))


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
