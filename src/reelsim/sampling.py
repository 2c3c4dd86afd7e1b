"""Random tactic generation and grid-rounding for cluster identity.

Every draw is a word of one counter-based stream: word (line, step,
slot) of the stream keyed by key is a SplitMix64 hash of the four,
evaluated in numpy over a whole grid of counters, so no draw depends on
generator state, block size or order. Keys are stream_key(seed, domain,
*path). A line's step owns 1 + 2n**2 slots: a local/global coin, then
uniforms for n**2 Box-Muller normals (local branch) or n**2 exponentials
and n**2 sign uniforms (global branch). Candidate vector agent*k +
candidate reads 2n slots at step 0, n exponentials and n sign uniforms.
Every sampled column follows one rule, in one routine, _tactic_columns:
its own entry is made nonnegative unless self-harm is allowed, and it is
scaled to abs-sum 1, an all-zero column becoming pure self-allocation.
integer_draws reads the stage game's profile rows, and a reel-tree node
below the root takes a NODE_STREAM key as its seed.

A block of lines is held lines-last in memory: words (slots, B), draws
and tactics agent-major (n, n, B), so each numpy operation is one pass
over the block rather than B passes over a few values. Callers still
see (B, slots) and (B, n, n) arrays, as views, and every value comes
from the same operations in the same order as member by member. A
column's abs-sum adds its rows in order, so no bit depends on layout.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce

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
        previous matrix instead of fresh global draws. It changes the
        estimate, not only its cost: a line is weighted by its inertia
        score alone, never corrected for how likely this mix was to
        propose it, so more local draws put more probability near the
        root's tactics.
    rng_seed: master seed; every key is a stream_key of it.
    rounding: cluster granularity; entries are rounded to multiples of
        this, so 1/rounding must be an integer, at most 2**53: past
        2**53 steps per unit, grid coordinates are no longer exact
        doubles.
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
        if operator.index(self.rng_seed) < 0:
            raise ValueError(f"rng_seed must be nonnegative (got {self.rng_seed})")
        _check_rounding(self.rounding)


def _check_rounding(rounding: float) -> None:
    if not (0.0 < rounding <= 1.0):
        raise ValueError(f"rounding must lie in (0, 1] (got {rounding})")
    steps = 1.0 / rounding
    if not math.isfinite(steps) or abs(steps - round(steps)) > 1e-9:
        raise ValueError(f"1/rounding must be an integer (got rounding={rounding})")
    # Up to 2**53 steps per unit, every grid coordinate is an exact double.
    if steps > 2**53:
        raise ValueError(
            "1/rounding must be at most 2**53, so grid coordinates stay exact doubles "
            f"(got rounding={rounding})"
        )


def substream(seed: int, *key: int) -> np.random.Generator:
    """numpy Generator for (seed, key). The engine never calls it; it
    feeds generate_line, which bench/sweep.py times."""
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=key))


def stream_key(seed: int, domain: int, *path: int) -> int:
    """64-bit key for (seed, domain, path): the count of the seed's
    64-bit limbs, the limbs, the domain and the path, folded one word at
    a time through _splitmix from 0. The count keeps seeds of 2**64 and
    above apart from shorter ones. A negative seed is rejected, since
    its masked limbs would alias a nonnegative one (-1 with 2**64 - 1)."""
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be nonnegative (got {seed})")
    limbs = [seed >> shift & _MASK64 for shift in range(0, max(seed.bit_length(), 1), 64)]
    key = np.zeros(1, dtype=np.uint64)
    for word in (len(limbs), *limbs, domain, *path):
        key = _splitmix(key, np.array([word], dtype=np.uint64))
    return int(key[0])


def sample_candidates(n: int, k: int, cfg: SamplerConfig, key: int) -> tuple[np.ndarray, ...]:
    """Draw k candidate tactic columns per agent from the stream keyed by key.

    Agent j's pool is a (k, n) array of tactic vectors whose own entry is
    j: magnitudes uniform on the unit simplex, and off-diagonal signs
    negative with probability p_neg; the own entry stays nonnegative
    unless the config allows self-harm. Vector agent*k + candidate turns
    its line's 2n uniforms u at step 0 into n exponentials -log(u) and n
    signs 1 - u; the pools are column views of k matrices built as the
    fresh step draws are.
    """
    if k < 1:
        raise ValueError(f"need at least one candidate per agent (got k={k})")
    uniforms = _uniforms(line_words(key, np.arange(n * k), 0, 2 * n).T)
    vectors = _signed(-np.log(uniforms[:n]), 1.0 - uniforms[n:], cfg)
    # Matrix c holds candidate c of agent j in its column j: entry i of
    # vector j * k + c is raw[i, j, c].
    matrices = _tactic_columns(vectors.reshape(n, n, k), cfg)
    return tuple(np.moveaxis(matrices, 0, -1))


def integer_draws(key: int, rows: int, bounds: Sequence[int]) -> np.ndarray:
    """Integers (rows, len(bounds)), column j uniform on [0, bounds[j]).

    Row r reads line r of the stream keyed by key at step 0; word w of
    slot j becomes floor(w * bounds[j] / 2**64) (Lemire's multiply-shift),
    exact on w's 32-bit halves for bounds below 2**32. With no rejection
    step each value takes floor or ceil of 2**64 / bound words, so a
    draw's total bias is below bound * 2**-64.
    """
    bounds = np.asarray(bounds, dtype=np.uint64)
    words = line_words(key, np.arange(rows), 0, len(bounds))
    high = (words >> 32) * bounds
    low = ((words & np.uint64(0xFFFFFFFF)) * bounds) >> 32
    return ((high + low) >> 32).astype(np.int64)


def line_words(key: int, lines: Sequence[int] | np.ndarray, step: int, slots: int) -> np.ndarray:
    """The stream's 64-bit words (B, slots) for the given lines at one step.

    Word (line, step, slot) is output slot of the SplitMix64 stream
    seeded by output step of the stream seeded by output line of the
    stream seeded by key: a pure function of its four arguments. Every
    draw's words come from _step_words of the lines' _line_seeds, hashed
    lines-last as a (slots, B) array, so each operation is one pass over
    the block; here they come back as its (B, slots) transpose, a view.
    Every operation runs on uint64 arrays, whose arithmetic wraps modulo
    2**64; numpy uint64 scalar arithmetic would raise under
    np.errstate(over="raise").
    """
    return _step_words(_line_seeds(key, lines), step, slots).T


def _line_seeds(key: int, lines: Sequence[int] | np.ndarray) -> np.ndarray:
    """Each line's seed (B,), output line of the stream seeded by key; a
    block hashes it once for all of its steps."""
    lines = np.asarray(lines, dtype=np.uint64).reshape(-1)
    return _splitmix(np.full_like(lines, key), lines)


def _step_words(seeds: np.ndarray, step: int, slots: int) -> np.ndarray:
    """The words (slots, B) of one step from the lines' seeds."""
    base = _splitmix(seeds, np.full_like(seeds, step))
    return _splitmix(base, np.arange(slots, dtype=np.uint64)[:, np.newaxis])


def _splitmix(base: np.ndarray, counters: np.ndarray) -> np.ndarray:
    """Output counters + 1 of the SplitMix64 streams seeded by base
    (Steele, Lea & Flood, OOPSLA 2014); uint64 arrays, broadcast. The
    sum is mixed in place, with one scratch array for the shifts."""
    z = base + (counters + 1) * np.uint64(0x9E3779B97F4A7C15)
    scratch = np.empty_like(z)
    z ^= np.right_shift(z, 30, out=scratch)
    z *= np.uint64(0xBF58476D1CE4E5B9)
    z ^= np.right_shift(z, 27, out=scratch)
    z *= np.uint64(0x94D049BB133111EB)
    z ^= np.right_shift(z, 31, out=scratch)
    return z


def _uniforms(words: np.ndarray) -> np.ndarray:
    """Each 64-bit word's uniform ((w >> 11) + 1) * 2**-53 in (0, 1],
    written over words, a uint64 array the caller gives up. A shifted
    word is below 2**53, so it casts to a double exactly through an
    int64 view, and adding 1.0 and scaling by 2**-53 are exact. The
    shifted words are a separate array: numpy copies a cast's operand
    that overlaps its output."""
    shifted = words >> 11
    uniforms = words.view(np.float64)
    np.add(shifted.view(np.int64), 1.0, out=uniforms)
    uniforms *= 2.0**-53
    return uniforms


def line_draws(
    key: int, lines: Sequence[int] | np.ndarray, step: int, n: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """One step's draws per line: (coins, exponentials, normals, sign uniforms).

    Each word w becomes the uniform u = ((w >> 11) + 1) * 2**-53 in
    (0, 1]. Slot 0 is the coin; slots 1..n**2 hold uniforms a and the
    next n**2 uniforms b, each read as (B, n, n). exponentials are
    -log(a), normals the Box-Muller sqrt(-2 log a) cos(2 pi b), and the
    sign uniforms 1 - b. The coins are 1 - u too: both lie in [0, 1),
    so comparing them with < p is exact at p = 0 and p = 1. _draws
    computes them lines-last, in place over the uniforms where it can;
    the coins (B,) and each (B, n, n) result are views of its arrays.
    """
    coins, *draws = _draws(_line_seeds(key, lines), step, n)
    return (coins, *(draw.transpose(2, 0, 1) for draw in draws))


def _draws(seeds: np.ndarray, step: int, n: int) -> tuple[np.ndarray, ...]:
    """line_draws from the lines' seeds, lines-last: coins (B,) and
    (n, n, B) slices. Beside the (1 + 2n**2, B) uniforms only the
    exponentials and the angles 2 pi b are new arrays; the coins, the
    normals and the sign uniforms are computed in place over the
    uniforms they come from, each value by the same operations in the
    same order."""
    uniforms = _uniforms(_step_words(seeds, step, 1 + 2 * n * n))
    count = uniforms.shape[-1]
    first = uniforms[1 : 1 + n * n].reshape(n, n, count)
    second = uniforms[1 + n * n :].reshape(n, n, count)
    exponentials = np.log(first)
    np.negative(exponentials, out=exponentials)
    normals = np.sqrt(np.multiply(exponentials, 2.0, out=first), out=first)
    angles = np.multiply(second, 2.0 * np.pi)
    normals *= np.cos(angles, out=angles)
    signs = np.subtract(1.0, second, out=second)
    return np.subtract(1.0, uniforms[0], out=uniforms[0]), exponentials, normals, signs


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
    reach of the inertia kernel). Either way _tactic_columns then scales
    each column to abs-sum 1. The arithmetic runs once on the whole
    stack, held agent-major as (n, n, B) so that every operation is one
    pass over the lines, and gives each member the bits it gets alone,
    whatever the layout of previous, which is only read. _next_tactics
    turns the normals into the raw matrices in place and computes the
    fresh branch for the fresh members only. The result is (B, n, n), as
    previous is, a view of that lines-last array.
    """
    seeds = _line_seeds(key, lines)
    return _next_tactics(previous, cfg, seeds, step, noise_sigma).transpose(2, 0, 1)


def _next_tactics(
    previous: np.ndarray, cfg: SamplerConfig, seeds: np.ndarray, step: int, noise_sigma: float
) -> np.ndarray:
    """sample_tactic_matrices from the lines' seeds, lines-last (n, n, B).
    The normals turn into the raw matrices in place: scaled by noise_sigma
    / n, or by 0.0 for fresh members, so a huge sigma cannot overflow
    where it is unused, then previous added. Only the fresh members'
    signed exponentials are computed, and scattered in over them."""
    previous = np.asarray(previous, dtype=float).transpose(1, 2, 0)
    n = previous.shape[0]
    coins, exponentials, raw, sign_uniforms = _draws(seeds, step, n)
    local = coins < cfg.local_mix
    raw *= local * (noise_sigma / n)
    raw += previous
    fresh = np.flatnonzero(~local)
    # Row j of a member's draws is its column j.
    signed = _signed(exponentials[..., fresh], sign_uniforms[..., fresh], cfg)
    raw[..., fresh] = signed.swapaxes(0, 1)
    return _tactic_columns(raw, cfg)


def _signed(exponentials: np.ndarray, uniforms: np.ndarray, cfg: SamplerConfig) -> np.ndarray:
    """The exponentials, each negated when its sign uniform is below p_neg."""
    return np.where(uniforms < cfg.p_neg, -exponentials, exponentials)


def _tactic_columns(raw: np.ndarray, cfg: SamplerConfig) -> np.ndarray:
    """Tactics from raw matrices held agent-major, (n, n, ...) with
    raw[i, j] entry (i, j) of every member: the diagonal made
    nonnegative unless cfg allows self-harm, then every column scaled to
    abs-sum 1 by _renormalize_columns. raw is overwritten and returned."""
    if not cfg.allow_negative_diagonal:
        idx = np.arange(raw.shape[0])
        raw[idx, idx] = np.abs(raw[idx, idx])
    return _renormalize_columns(raw)


def _renormalize_columns(matrix: np.ndarray) -> np.ndarray:
    """Rescale each column of an agent-major stack (n, n, ...) to abs-sum
    1, member by member, the abs-sum added down the rows in order; an
    all-zero column falls back to pure self-allocation. The float array
    matrix is divided in place and returned."""
    scale = reduce(np.add, np.abs(matrix))
    zero = scale == 0.0
    if not zero.any():
        matrix /= scale
        return matrix
    matrix /= np.where(zero, 1.0, scale)
    eye = np.eye(len(matrix)).reshape(matrix.shape[:2] + (1,) * (matrix.ndim - 2))
    np.copyto(matrix, eye, where=zero)
    return matrix


def round_tactic_matrix(tactics: np.ndarray, rounding: float) -> np.ndarray:
    """Snap entries to the rounding grid, then restore column abs-sums.

    tactics is one matrix (n, n) or a stack (..., n, n), rounded member
    by member. Each entry goes to the nearest multiple of rounding, ties
    away from zero, and an entry that snaps to zero is +0.0, never -0.0,
    so equal matrices have equal bytes. A column that rounds to all
    zeros becomes pure self-allocation. A rounding outside (0, 1], or
    one whose 1/rounding is not an integer of at most 2**53, raises
    ValueError. The result is the representative of a line's frame:
    lines whose first moves round to the same bytes share one frame.
    """
    tactics = np.asarray(tactics, dtype=float)
    if tactics.ndim < 2 or tactics.shape[-1] != tactics.shape[-2]:
        raise TacticMatrixError(f"tactic matrix must be square (got shape {tactics.shape})")
    _check_rounding(rounding)
    steps = np.floor(np.abs(tactics) / rounding + 0.5)
    grid = np.moveaxis(np.sign(tactics) * steps * rounding + 0.0, (-2, -1), (0, 1))
    return np.ascontiguousarray(np.moveaxis(_renormalize_columns(grid), (0, 1), (-2, -1)))
