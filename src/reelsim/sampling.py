"""Random tactic generation and grid-rounding for cluster identity.

Every draw is a word of one counter-based stream: word (line, step,
slot) of the stream keyed by key is a SplitMix64 hash of the four,
evaluated in numpy over a whole grid of counters, so no draw depends on
generator state, block size or order. Keys are stream_key(seed, domain,
*path). A line's step owns 1 + 2n**2 slots: a local/global coin, then
uniforms for n**2 Box-Muller normals (local branch) or n**2 exponentials
and n**2 sign uniforms (global branch). Candidate vector agent*k +
candidate reads 2n slots at step 0, n exponentials and n sign uniforms;
pools and the global branch build vectors with one routine,
_tactic_vectors. integer_draws reads the stage game's profile rows, and
a reel-tree node below the root takes a NODE_STREAM key as its seed.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import TacticMatrixError

# Stream domain tags; keep disjoint so derived keys never collide.
LINE_STREAM = 0
CANDIDATE_STREAM = 1
NODE_STREAM = 2
PROFILE_STREAM = 3

_MASK64 = 2**64 - 1


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the tactic sampler and the first-move clustering grid.

    p_neg: probability that an off-diagonal allocation is malevolent.
    allow_negative_diagonal: permit self-harm in sampled tactics.
    local_mix: fraction of matrix draws taken as perturbations of the
        previous matrix instead of fresh global draws. Pure sampling
        efficiency under strong inertia; it never changes definitions.
    rng_seed: master seed; every key is a stream_key of it.
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
    """numpy Generator for (seed, key). The engine never calls it; it
    feeds generate_line, which bench/sweep.py times."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def stream_key(seed: int, domain: int, *path: int) -> int:
    """64-bit key for (seed, domain, path): the count of the seed's
    64-bit limbs, the limbs, the domain and the path, folded one word at
    a time through _splitmix from 0. The count keeps seeds of 2**64 and
    above apart from shorter ones."""
    limbs = [seed >> shift & _MASK64 for shift in range(0, max(seed.bit_length(), 1), 64)]
    key = np.zeros(1, dtype=np.uint64)
    for word in (len(limbs), *limbs, domain, *path):
        key = _splitmix(key, np.array([word], dtype=np.uint64))
    return int(key[0])


def sample_candidates(n: int, k: int, cfg: SamplerConfig, key: int) -> tuple[np.ndarray, ...]:
    """Draw k candidate tactic columns per agent from the stream keyed by key.

    Agent j's pool is a (k, n) array of tactic vectors whose own entry is
    j: magnitudes uniform on the unit simplex, so the abs-sum constraint
    holds by construction, and off-diagonal signs negative with
    probability p_neg; the own entry stays nonnegative unless the config
    allows self-harm. Vector agent*k + candidate turns its line's 2n
    uniforms u at step 0 into n exponentials -log(u) and n signs 1 - u.
    """
    if k < 1:
        raise ValueError(f"need at least one candidate per agent (got k={k})")
    uniforms = _uniforms(line_words(key, np.arange(n * k), 0, 2 * n))
    owners = np.repeat(np.arange(n), k)
    vectors = _tactic_vectors(-np.log(uniforms[:, :n]), 1.0 - uniforms[:, n:], owners, cfg)
    return tuple(vectors.reshape(n, k, n))


def integer_draws(key: int, rows: int, step: int, bounds: Sequence[int]) -> np.ndarray:
    """Integers (rows, len(bounds)), column j uniform on [0, bounds[j]).

    Row r reads line r of the stream keyed by key at this step; word w of
    slot j becomes floor(w * bounds[j] / 2**64) (Lemire's multiply-shift),
    exact on w's 32-bit halves for bounds below 2**32. With no rejection
    step each value takes floor or ceil of 2**64 / bound words, so a
    draw's total bias is below bound * 2**-64.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    words = line_words(key, np.arange(rows), step, len(bounds))
    high = (words >> 32) * bounds
    low = ((words & np.uint64(0xFFFFFFFF)) * bounds) >> 32
    return ((high + low) >> 32).astype(np.int64)


def line_words(key: int, lines: Sequence[int] | np.ndarray, step: int, slots: int) -> np.ndarray:
    """The stream's 64-bit words (B, slots) for the given lines at one step.

    Word (line, step, slot) is output slot of the SplitMix64 stream
    seeded by output step of the stream seeded by output line of the
    stream seeded by key: a pure function of its four arguments. Every
    operation runs on uint64 arrays, whose arithmetic wraps modulo
    2**64; numpy uint64 scalar arithmetic would raise under
    np.errstate(over="raise").
    """
    lines = np.asarray(lines, dtype=np.uint64).reshape(-1, 1)
    base = _splitmix(np.full_like(lines, key), lines)
    base = _splitmix(base, np.full_like(lines, step))
    return _splitmix(base, np.arange(slots, dtype=np.uint64))


def _splitmix(base: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Output counters + 1 of the SplitMix64 streams seeded by base
    (Steele, Lea & Flood, OOPSLA 2014); uint64 arrays, broadcast."""
    z = base + (counters + 1) * np.uint64(0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> 27)) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> 31)


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Each 64-bit word's uniform ((w >> 11) + 1) * 2**-53 in (0, 1]."""
    return ((words >> 11) + 1) * 2.0**-53


def line_draws(
    key: int, lines: Sequence[int] | np.ndarray, step: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One step's draws per line: (coins, exponentials, normals, sign uniforms).

    Each word w becomes the uniform u = ((w >> 11) + 1) * 2**-53 in
    (0, 1]. Slot 0 is the coin; slots 1..n**2 hold uniforms a and the
    next n**2 uniforms b, each read as (B, n, n). exponentials are
    -log(a), normals the Box-Muller sqrt(-2 log a) cos(2 pi b), and the
    sign uniforms 1 - b. The coins are 1 - u too: both lie in [0, 1),
    so comparing them with < p is exact at p = 0 and p = 1.
    """
    uniforms = _uniforms(line_words(key, lines, step, 1 + 2 * n * n))
    count = uniforms.shape[0]
    first = uniforms[:, 1 : 1 + n * n].reshape(count, n, n)
    second = uniforms[:, 1 + n * n :].reshape(count, n, n)
    exponentials = -np.log(first)
    normals = np.sqrt(2.0 * exponentials) * np.cos(2.0 * np.pi * second)
    return 1.0 - uniforms[:, 0], exponentials, normals, 1.0 - second


def sample_tactic_matrices(
    previous: np.ndarray,
    cfg: SamplerConfig,
    key: int,
    lines: Sequence[int] | np.ndarray,
    step: int,
    noise_sigma: float,
) -> np.ndarray:
    """Draw the next tactic matrix for each member of a stack (B, n, n).

    Member b is line lines[b] of the stream keyed by key, at this step;
    its draws are line_draws' and depend on nothing else. When its coin
    is at or above local_mix every column is a fresh global draw,
    independent of previous[b]; otherwise previous[b] is perturbed with
    additive Gaussian noise of scale noise_sigma / n per entry (callers
    pass the model's inertia coefficient, so local proposals stay within
    reach of the inertia kernel) and each column is renormalized by its
    abs-sum. The arithmetic runs once on the whole stack, bit for bit
    what each member gets alone.
    """
    previous = np.asarray(previous, dtype=float)
    count, n = previous.shape[0], previous.shape[-1]
    coins, exponentials, normals, sign_uniforms = line_draws(key, lines, step, n)
    local = coins < cfg.local_mix
    matrices = np.empty((count, n, n))
    if local.any():
        perturbed = previous[local] + normals[local] * (noise_sigma / n)
        if not cfg.allow_negative_diagonal:
            idx = np.arange(n)
            perturbed[:, idx, idx] = np.abs(perturbed[:, idx, idx])
        matrices[local] = _renormalize_columns(perturbed)
    fresh = ~local
    if fresh.any():
        # Row j of a member's draws is the vector of its column j.
        columns = _tactic_vectors(exponentials[fresh], sign_uniforms[fresh], np.arange(n), cfg)
        matrices[fresh] = columns.swapaxes(-1, -2)
    return matrices


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
