"""Monte Carlo estimation of where a state moves next.

The pipeline: draw many lines of play (random tactic sequences played
out for a fixed horizon), keep only the lines every agent strictly
prefers to its stage-game guarantee, weight the survivors by how little
total tactical movement they demand, then group them by the next state
their first move reaches once rounded to the grid. Each group's share of
the surviving weight is the probability of that next frame, so every
frame is a distinct state and no state's probability is split.

Lines run in blocks of block_lines(n, horizon), as many lines as
BLOCK_WORDS random words per step hold. SimSettings, the run budget this
pipeline and the reel tree read, lives here beside them, since its
horizon bound is sized from that block; every transition_distribution
checks the budget's array sizes before it draws.
"""

from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, State, update_sizes
from .equilibrium import (
    DEFAULT_CANDIDATES,
    DEFAULT_MAX_PROFILES,
    check_profiles,
    check_size,
    size_bound,
    stage_game,
)
from .sampling import (
    LINE_STREAM,
    SamplerConfig,
    _line_seeds,
    _next_tactics,
    round_tactic_matrix,
    stream_key,
)
from .utility import (
    expected_utility,
    inertia_probability,
    intertemporal_utility,
    positional_utility,
    tactical_distance,
)

# The random words per step that one block of lines may hash; a line
# hashes 1 + 2n**2 a step (sampling.line_draws). A budget of words, not
# of lines, keeps each step's arrays near their fastest size at every n
# and the memory a block holds per step fixed, whatever the line count
# or n; it changes no output bit.
BLOCK_WORDS = 2**16
# tree.json nests three encoder frames per level, so a deeper chain would
# exhaust Python's recursion limit after the whole expansion.
MAX_DEPTH = 256


def block_lines(n: int, horizon: int) -> int:
    """Lines generated and scored as one stack with n agents and horizon
    steps: as many as BLOCK_WORDS random words per step hold, but no more
    than keep the block's tactic matrices, horizon * n * n items a line,
    within equilibrium's array bound, and at least one."""
    return max(1, min(BLOCK_WORDS // (1 + 2 * n * n), size_bound(horizon * n * n)))


@dataclass(frozen=True)
class SimSettings:
    """The run budget that transition_distribution and build_reel_tree read.

    lines and horizon size each transition distribution; depth_max,
    branch_k, and p_min shape the reel tree; candidates and max_profiles
    bound the stage games. Every value but p_min is an integer, held as
    a Python int, and every value is checked here, once; check_sizes adds
    the bounds that depend on the agent count. The seed is not a setting:
    it is the sampler's rng_seed.
    """

    lines: int = 2000
    horizon: int = 5
    depth_max: int = 2
    branch_k: int = 4
    p_min: float = 0.02
    candidates: int = DEFAULT_CANDIDATES
    max_profiles: int = DEFAULT_MAX_PROFILES

    def __post_init__(self):
        for name in ("lines", "horizon", "depth_max", "branch_k", "candidates", "max_profiles"):
            value = getattr(self, name)
            try:
                object.__setattr__(self, name, operator.index(value))
            except TypeError:
                raise ValueError(f"{name} must be an integer (got {value!r})") from None
        if self.lines < 1:
            raise ValueError(f"lines must be at least 1 (got {self.lines})")
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1 (got {self.horizon})")
        if not 0 <= self.depth_max <= MAX_DEPTH:
            raise ValueError(f"depth_max must lie in [0, {MAX_DEPTH}] (got {self.depth_max})")
        if self.branch_k < 1:
            raise ValueError(f"branch_k must be at least 1 (got {self.branch_k})")
        if not 0.0 <= self.p_min <= 1.0:
            raise ValueError(f"p_min must lie in [0, 1] (got {self.p_min})")
        if self.candidates < 1:
            raise ValueError(f"candidates must be at least 1 (got {self.candidates})")
        if self.max_profiles < 1:
            raise ValueError(f"max_profiles must be at least 1 (got {self.max_profiles})")

    def check_sizes(self, n: int) -> None:
        """Refuse, with a ValueError, a candidates, horizon or max_profiles
        whose largest array of 8-byte items exceeds equilibrium's 1 GiB
        with n agents, in that order: the candidate draws, 2n words for
        each of n * candidates vectors; one line's horizon tactic
        matrices, since block_lines(n, horizon) holds a block to as many
        lines as fit the same bound, and at least one; the stage game's
        profiles, min(max_profiles, candidates**n) rows of n.
        stage_game applies the same candidates and max_profiles bounds."""
        check_size("candidates", self.candidates, 2 * n * n, n)
        check_size("horizon", self.horizon, n * n, n)
        # candidates is within its bound, so the profile count is cheap
        check_profiles((self.candidates,) * n, self.max_profiles)


@dataclass(frozen=True)
class Frame:
    """One next state and the lines that reach it.

    tactics is the rounded first move its lines share (round_tactic_matrix
    of each line's first move), which is the frame's identity; sizes the
    power vector it produces from the root. weight is the summed weight
    of the contributing lines and probability its share of the total.
    """

    tactics: np.ndarray
    sizes: np.ndarray
    probability: float
    support: int
    weight: float


@dataclass(frozen=True)
class TransitionDiagnostics:
    """Counters describing how a distribution came to be."""

    lines_generated: int
    lines_retained: int
    clusters: int
    total_weight: float
    equilibria: int
    minimax: np.ndarray
    exhaustive_game: bool


@dataclass(frozen=True)
class FrameDistribution:
    """Clustered transition probabilities plus run diagnostics.

    frames is empty when every generated line failed the rationality
    filter or every line that passed has zero weight (its inertia
    probability underflows); either is a legal result, distinguished
    from invalid input (which raises instead).
    """

    frames: tuple[Frame, ...]
    diagnostics: TransitionDiagnostics

    @property
    def is_empty(self) -> bool:
        return not self.frames


@dataclass(frozen=True)
class LineBlock:
    """Lines of play from one root, stacked along a leading axis.

    matrices[b, t] (B, H, n, n) is line b's tactic matrix at step t+1,
    sizes[b, t] (B, H, n) the power vector it produces, payoffs[b, t]
    (B, H, n) the per-agent expected utility of that step. intertemporal
    (B, n) is the discounted sum of the payoffs, and weights (B,) are the
    lines' line_weights. Payoffs and weights come from the same step
    distances: step t+1's is the tactical distance from the matrix before
    it (the root's for step one), and it discounts that step's positional
    utility through its inertia probability.
    """

    matrices: np.ndarray
    sizes: np.ndarray
    payoffs: np.ndarray
    intertemporal: np.ndarray
    weights: np.ndarray

    def __len__(self) -> int:
        return self.weights.shape[0]


def generate_lines(
    root: State,
    horizon: int,
    cfg: SamplerConfig,
    params: ModelParams,
    key: int,
    lines: Sequence[int] | np.ndarray,
) -> LineBlock:
    """Sample the given lines of play of `horizon` steps, as a block.

    Member b is line lines[b] of the counter-based stream keyed by key:
    its draws at step t are a pure function of (key, lines[b], t, slot),
    so it does not depend on the other members. Each line's seed is
    hashed once, for all of its steps. Each step samples and
    rolls the whole block's tactics and sizes as stacks and takes each
    member's move distance from the matrix before it; the finished block
    is then scored as one stack. Every member agrees bit for bit with a
    one-member block of its line, so the block's size changes no bit;
    transition_distribution passes block_lines(n, horizon) lines at a
    time, so a step hashes at most BLOCK_WORDS words. Tactics, sizes and
    distances are held lines-last, (H, n, n, B), (H, n, B) and (H, B), so
    each step's arithmetic is one pass over the block; the block is
    scored on, and the LineBlock holds, (B, H, ...) views of them.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1 (got {horizon})")
    count, n = len(lines), root.n
    matrices = np.empty((horizon, n, n, count))
    sizes = np.empty((horizon, n, count))
    distances = np.empty((horizon, count))
    tactics = np.broadcast_to(root.tactics, (count, n, n))
    current = np.broadcast_to(root.sizes, (count, n))
    seeds = _line_seeds(key, lines)
    for step in range(horizon):
        matrices[step] = _next_tactics(tactics, cfg, seeds, step, params.sigma)
        following = matrices[step].transpose(2, 0, 1)
        distances[step] = tactical_distance(following, tactics)
        sizes[step] = update_sizes(following, current, params).T
        tactics, current = following, sizes[step].T
    sizes = sizes.transpose(2, 0, 1)
    utilities = positional_utility(sizes, params.alpha)
    payoffs = expected_utility(utilities, distances.T, params.sigma)
    return LineBlock(
        matrices=matrices.transpose(3, 0, 1, 2),
        sizes=sizes,
        payoffs=payoffs,
        intertemporal=intertemporal_utility(payoffs, params.delta),
        weights=line_weights(distances.T, params),
    )


def generate_line(
    root: State,
    horizon: int,
    cfg: SamplerConfig,
    params: ModelParams,
    rng: np.random.Generator,
) -> LineBlock:
    """Sample one line of play of `horizon` steps starting at the root, as
    a one-member block: line 0 of the stream keyed by one 64-bit draw
    from rng. The engine never calls it; bench/sweep.py times it."""
    key = int(rng.integers(2**64, dtype=np.uint64))
    return generate_lines(root, horizon, cfg, params, key, [0])


def line_weights(distances: np.ndarray, params: ModelParams) -> np.ndarray:
    """Inertia score of each line: q of its discounted total movement.

    distances holds each step's tactical distance from the matrix before
    it, one line (H,) giving a numpy float, or a block (B, H) giving (B,).
    """
    distances = np.asarray(distances, dtype=float)
    movement = intertemporal_utility(distances[..., np.newaxis], params.delta)[..., 0]
    return inertia_probability(movement, params.sigma)


def folk_filter(block: LineBlock, minimax: np.ndarray) -> np.ndarray:
    """Indices, in line order, of the lines every agent strictly prefers
    to its guarantee.

    The comparison is strict per agent; a line that only matches the
    guarantee somewhere is discarded.
    """
    minimax = np.asarray(minimax, dtype=float)
    return np.flatnonzero(np.all(block.intertemporal > minimax, axis=-1))


def cluster_first_moves(
    first_moves: np.ndarray,
    weights: np.ndarray,
    root: State,
    params: ModelParams,
    cfg: SamplerConfig,
) -> tuple[Frame, ...]:
    """Group lines by the next state their first move rounds to.

    first_moves (L, n, n) and weights (L,) hold one line each, in line
    order. A line's frame is round_tactic_matrix of its first move, and
    lines group by exact equality of its bytes, numbered by one np.unique
    over them and renumbered in first-seen order; grid cells that
    renormalize to one matrix therefore share a frame. A frame's weight
    is summed in line order, and its probability is that weight over the
    line-order sum of all the weights. Its sizes are what the
    representative produces from the root, so each frame is itself a
    valid state. Frames come out sorted by probability, ties keeping
    first-seen order.
    """
    weights = np.asarray(weights, dtype=float)
    total = ordered_sum(weights)
    if total <= 0.0:
        return ()
    representatives = round_tactic_matrix(first_moves, cfg.rounding)
    # np.unique numbers the frames in byte order; ranking each frame's
    # first line renumbers them in first-seen order.
    rows = representatives.reshape(len(representatives), -1)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1]))).ravel()
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    order = np.argsort(first)
    ids = np.argsort(order)[inverse]
    tactics = representatives[first[order]]
    sizes = update_sizes(tactics, root.sizes, params)
    # bincount adds each frame's weights one at a time in line order.
    supports = np.bincount(ids).tolist()
    summed = np.bincount(ids, weights).tolist()
    frames = []
    for state_tactics, state_sizes, support, weight in zip(tactics, sizes, supports, summed):
        frames.append(Frame(state_tactics, state_sizes, weight / total, support, weight))
    frames.sort(key=lambda frame: -frame.probability)
    return tuple(frames)


def ordered_sum(values) -> float:
    """values added one at a time in order, starting from 0.0.

    The built-in sum of floats is compensated from Python 3.12 on and
    np.sum adds pairwise; a running sum gives the same bits everywhere.
    """
    return float(np.cumsum(np.append(0.0, values))[-1])


def transition_distribution(
    root: State, params: ModelParams, cfg: SamplerConfig, sim: SimSettings
) -> FrameDistribution:
    """Run the full pipeline at a root state, on sim.lines lines of
    sim.horizon steps and a stage game bounded by sim.candidates and
    sim.max_profiles. sim.check_sizes(root.n) runs first, so a budget
    whose arrays could not be allocated raises a ValueError before any
    draw.

    Line k is line k of the stream keyed by stream_key(cfg.rng_seed,
    LINE_STREAM), and the stage game reads the seed's CANDIDATE_STREAM
    and PROFILE_STREAM keys, so the result is a pure function of (root,
    params, cfg, sim), drawn with no numpy generator. Lines run
    block_lines(root.n, sim.horizon) at a time, so the shipped 2,000
    lines of 3 agents are one block; the block size changes no output
    bit.
    """
    sim.check_sizes(root.n)
    game = stage_game(
        root, params, cfg, k_candidates=sim.candidates, max_profiles=sim.max_profiles
    )
    key = stream_key(cfg.rng_seed, LINE_STREAM)
    first_moves, weights = [], []
    size = block_lines(root.n, sim.horizon)
    for start in range(0, sim.lines, size):
        lines = np.arange(start, min(start + size, sim.lines))
        block = generate_lines(root, sim.horizon, cfg, params, key, lines)
        kept = folk_filter(block, game.minimax)
        first_moves.append(block.matrices[kept, 0])
        weights.append(block.weights[kept])
    weights = np.concatenate(weights)
    frames = cluster_first_moves(np.concatenate(first_moves), weights, root, params, cfg)
    diagnostics = TransitionDiagnostics(
        lines_generated=sim.lines,
        lines_retained=len(weights),
        clusters=len(frames),
        total_weight=ordered_sum(weights),
        equilibria=len(game.equilibria),
        minimax=game.minimax,
        exhaustive_game=game.exhaustive,
    )
    return FrameDistribution(frames=frames, diagnostics=diagnostics)
