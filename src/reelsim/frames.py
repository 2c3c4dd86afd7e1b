"""Monte Carlo estimation of where a state moves next.

The pipeline: draw many lines of play (random tactic sequences played
out for a fixed horizon), keep only the lines every agent strictly
prefers to its stage-game guarantee, weight the survivors by how little
total tactical movement they demand, then cluster their first moves on
the rounding grid. Each cluster's share of the surviving weight is the
probability of transitioning to that next frame.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, State, update_sizes
from .equilibrium import DEFAULT_CANDIDATES, DEFAULT_MAX_PROFILES, stage_game
from .sampling import (
    LINE_STREAM,
    SamplerConfig,
    matrix_from_grid,
    round_to_grid,
    sample_tactic_matrices,
    stream_key,
)
from .utility import (
    expected_utility,
    inertia_probability,
    intertemporal_utility,
    positional_utility,
    tactical_distance,
)

# Lines generated and scored as one stack. Fixed, so the memory a block
# holds does not grow with the line count; it changes no output bit.
LINE_BLOCK = 256


@dataclass(frozen=True)
class Frame:
    """One clustered next move.

    key is the integer grid cell of the first-move matrices, tactics the
    renormalized representative matrix for that cell, sizes the power
    vector it produces from the root. weight is the summed weight of the
    contributing lines and probability its share of the total.
    """

    key: np.ndarray
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
    filter; that is a legal result, distinguished from invalid input
    (which raises instead).
    """

    frames: tuple[Frame, ...]
    diagnostics: TransitionDiagnostics

    @property
    def is_empty(self) -> bool:
        return not self.frames

    def probabilities(self) -> np.ndarray:
        return np.array([frame.probability for frame in self.frames])


@dataclass(frozen=True)
class LineBlock:
    """Lines of play from one root, stacked along a leading axis.

    matrices[b, t] (B, H, n, n) is line b's tactic matrix at step t+1,
    sizes[b, t] (B, H, n) the power vector it produces, payoffs[b, t]
    (B, H, n) the per-agent expected utility of that step (positional
    utility discounted by the inertia kernel between consecutive
    matrices, root_tactics anchoring step one). intertemporal (B, n)
    aggregates the payoffs with the discount factor; weights (B,) are
    the lines' line_weights.
    """

    root_tactics: np.ndarray
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
    so it does not depend on the other members. Each step samples and
    rolls the whole block's tactics and sizes as stacks; the finished
    block is then scored as one stack. Every member agrees bit for bit
    with a one-member block of its line.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1 (got {horizon})")
    count, n = len(lines), root.n
    matrices = np.empty((count, horizon, n, n))
    sizes = np.empty((count, horizon, n))
    tactics = np.broadcast_to(root.tactics, (count, n, n))
    current = np.broadcast_to(root.sizes, (count, n))
    for step in range(horizon):
        tactics = matrices[:, step] = sample_tactic_matrices(
            tactics, cfg, key, lines, step, params.sigma
        )
        # Sizes as columns: a bare (B,n,n) @ (B,n) is a matrix product.
        current = sizes[:, step] = update_sizes(tactics, current[..., np.newaxis], params)[..., 0]
    previous = _previous_matrices(root.tactics, matrices)
    payoffs = expected_utility(
        positional_utility(sizes, params.alpha), matrices, previous, params.sigma
    )
    return LineBlock(
        root_tactics=np.array(root.tactics),
        matrices=matrices,
        sizes=sizes,
        payoffs=payoffs,
        intertemporal=intertemporal_utility(payoffs, params.delta),
        weights=line_weights(root.tactics, matrices, params),
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


def _previous_matrices(root_tactics: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """The matrix each step moves away from: the root, then steps 1..H-1.

    matrices may be one line (H, n, n) or a block (B, H, n, n)."""
    root = np.broadcast_to(root_tactics, (*matrices.shape[:-3], 1, *matrices.shape[-2:]))
    return np.concatenate((root, matrices[..., :-1, :, :]), axis=-3)


def line_weights(
    root_tactics: np.ndarray, matrices: np.ndarray, params: ModelParams
) -> np.ndarray:
    """Inertia score of each line: q of its discounted total movement.

    matrices is one line (H, n, n), giving a 0-d array, or a block
    (B, H, n, n), giving (B,); step one moves away from root_tactics.
    """
    distances = tactical_distance(matrices, _previous_matrices(root_tactics, matrices))
    # A running discount, not delta**t: the weights keep their exact bits.
    total = np.zeros(distances.shape[:-1])
    discount = 1.0
    for step in range(distances.shape[-1]):
        discount *= params.delta
        total += discount * distances[..., step]
    return inertia_probability((1.0 - params.delta) * total, params.sigma)


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
    """Group lines by the grid cell of their first move and share out weight.

    first_moves (L, n, n) and weights (L,) hold one line each, in line
    order. Cluster identity is exact integer equality of grid keys, and a
    cluster's weight is summed in line order. The emitted frame carries
    the renormalized grid matrix as representative and the sizes that
    matrix produces from the root, so each frame is itself a valid state.
    Frames come out sorted by probability, ties keeping first-seen order.
    """
    grids = round_to_grid(first_moves, cfg.rounding)
    clusters: dict[bytes, int] = {}
    first_lines: list[int] = []
    supports: list[int] = []
    sums: list[float] = []
    for line, (grid, weight) in enumerate(zip(grids, np.asarray(weights).tolist())):
        cluster = clusters.setdefault(grid.tobytes(), len(first_lines))
        if cluster == len(first_lines):
            first_lines.append(line)
            supports.append(0)
            sums.append(0.0)
        supports[cluster] += 1
        sums[cluster] += weight
    total = sum(sums)
    if total <= 0.0:
        return ()
    keys = grids[first_lines]
    tactics = matrix_from_grid(keys, cfg.rounding)
    sizes = update_sizes(tactics, root.sizes, params)
    frames = [
        Frame(
            key=keys[cluster],
            tactics=tactics[cluster],
            sizes=sizes[cluster],
            probability=sums[cluster] / total,
            support=supports[cluster],
            weight=sums[cluster],
        )
        for cluster in range(len(keys))
    ]
    frames.sort(key=lambda frame: -frame.probability)
    return tuple(frames)


def transition_distribution(
    root: State,
    params: ModelParams,
    cfg: SamplerConfig,
    n_lines: int,
    horizon: int,
    *,
    k_candidates: int = DEFAULT_CANDIDATES,
    max_profiles: int = DEFAULT_MAX_PROFILES,
) -> FrameDistribution:
    """Run the full pipeline at a root state.

    Line k is line k of the stream keyed by stream_key(seed,
    LINE_STREAM), and the stage game reads the seed's CANDIDATE_STREAM
    and PROFILE_STREAM keys, so the result is a pure function of (root,
    params, cfg, n_lines, horizon), drawn with no numpy generator. Lines
    run LINE_BLOCK at a time; the block size changes no output bit.
    """
    if n_lines < 1:
        raise ValueError(f"need at least one line (got {n_lines})")
    game = stage_game(
        root, params, cfg, k_candidates=k_candidates, max_profiles=max_profiles
    )
    key = stream_key(cfg.rng_seed, LINE_STREAM)
    first_moves, weights = [], []
    for start in range(0, n_lines, LINE_BLOCK):
        lines = np.arange(start, min(start + LINE_BLOCK, n_lines))
        block = generate_lines(root, horizon, cfg, params, key, lines)
        kept = folk_filter(block, game.minimax)
        first_moves.append(block.matrices[kept, 0])
        weights.append(block.weights[kept])
    weights = np.concatenate(weights)
    frames = cluster_first_moves(np.concatenate(first_moves), weights, root, params, cfg)
    diagnostics = TransitionDiagnostics(
        lines_generated=n_lines,
        lines_retained=len(weights),
        clusters=len(frames),
        total_weight=float(sum(weights.tolist())),
        equilibria=len(game.equilibria),
        minimax=game.minimax,
        exhaustive_game=game.exhaustive,
    )
    return FrameDistribution(frames=frames, diagnostics=diagnostics)
