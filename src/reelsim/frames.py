"""Monte Carlo estimation of where a state moves next.

The pipeline: draw many lines of play (random tactic sequences played
out for a fixed horizon), keep only the lines every agent strictly
prefers to its stage-game guarantee, weight the survivors by how little
total tactical movement they demand, then cluster their first moves on
the rounding grid. Each cluster's share of the surviving weight is the
probability of transitioning to that next frame.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import ModelParams, State, update_sizes
from .equilibrium import DEFAULT_CANDIDATES, DEFAULT_MAX_PROFILES, stage_game
from .sampling import (
    LINE_STREAM,
    SamplerConfig,
    matrix_from_grid,
    round_to_grid,
    sample_tactic_matrix,
    substream,
)
from .utility import (
    expected_utility,
    inertia_probability,
    intertemporal_utility,
    positional_utility,
    tactical_distance,
)


@dataclass(frozen=True)
class LineOfPlay:
    """One simulated future and its scores.

    matrices[t] is the tactic matrix played at step t+1, sizes[t] the
    power vector it produces, payoffs[t] the per-agent expected utility
    of that step (positional utility discounted by the inertia kernel
    between consecutive matrices, the root matrix anchoring step one).
    intertemporal aggregates payoffs with the discount factor; weight is
    the inertia score of the line's total discounted movement.
    """

    root_tactics: np.ndarray
    matrices: np.ndarray
    sizes: np.ndarray
    payoffs: np.ndarray
    intertemporal: np.ndarray
    weight: float


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


def generate_line(
    root: State,
    horizon: int,
    cfg: SamplerConfig,
    params: ModelParams,
    rng: np.random.Generator,
) -> LineOfPlay:
    """Sample one line of play of `horizon` steps starting at the root.

    The steps draw tactics and roll the sizes forward one at a time; the
    finished line is then scored as one stack, which agrees bit for bit
    with scoring its steps one by one.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be at least 1 (got {horizon})")
    n = root.n
    matrices = np.empty((horizon, n, n))
    sizes = np.empty((horizon, n))
    tactics = root.tactics
    current = root.sizes
    for step in range(horizon):
        tactics = matrices[step] = sample_tactic_matrix(tactics, cfg, rng, params.sigma)
        current = sizes[step] = update_sizes(tactics, current, params)
    previous = _previous_matrices(root.tactics, matrices)
    payoffs = expected_utility(
        positional_utility(sizes, params.alpha), matrices, previous, params.sigma
    )
    return LineOfPlay(
        root_tactics=np.array(root.tactics),
        matrices=matrices,
        sizes=sizes,
        payoffs=payoffs,
        intertemporal=intertemporal_utility(payoffs, params.delta),
        weight=_line_weight(tactical_distance(matrices, previous), params),
    )


def frame_weight(line: LineOfPlay, params: ModelParams) -> float:
    """Inertia score of a whole line: q of its discounted total movement."""
    previous = _previous_matrices(line.root_tactics, line.matrices)
    return _line_weight(tactical_distance(line.matrices, previous), params)


def _previous_matrices(root_tactics: np.ndarray, matrices: np.ndarray) -> np.ndarray:
    """The matrix each step moves away from: the root, then steps 1..H-1."""
    return np.concatenate((np.asarray(root_tactics)[np.newaxis], matrices[:-1]))


def _line_weight(distances: np.ndarray, params: ModelParams) -> float:
    # A running discount, not delta**t: the weights keep their exact bits.
    total = 0.0
    discount = 1.0
    for distance in distances.tolist():
        discount *= params.delta
        total += discount * distance
    return inertia_probability((1.0 - params.delta) * total, params.sigma)


def folk_filter(lines: list[LineOfPlay], minimax: np.ndarray) -> list[LineOfPlay]:
    """Keep the lines every agent strictly prefers to its guarantee.

    The comparison is strict per agent; a line that only matches the
    guarantee somewhere is discarded.
    """
    minimax = np.asarray(minimax, dtype=float)
    return [line for line in lines if bool(np.all(line.intertemporal > minimax))]


def cluster_first_moves(
    lines: list[LineOfPlay], root: State, params: ModelParams, cfg: SamplerConfig
) -> tuple[Frame, ...]:
    """Group lines by the grid cell of their first move and share out weight.

    Cluster identity is exact integer equality of grid keys. The emitted
    frame carries the renormalized grid matrix as representative and the
    sizes that matrix produces from the root, so each frame is itself a
    valid state. Frames come out sorted by probability, ties keeping
    first-seen order.
    """
    order: list[bytes] = []
    keys: dict[bytes, np.ndarray] = {}
    supports: dict[bytes, int] = {}
    weights: dict[bytes, float] = {}
    for line in lines:
        grid = round_to_grid(line.matrices[0], cfg.rounding)
        token = grid.tobytes()
        if token not in keys:
            order.append(token)
            keys[token] = grid
            supports[token] = 0
            weights[token] = 0.0
        supports[token] += 1
        weights[token] += line.weight
    total = sum(weights[token] for token in order)
    if total <= 0.0:
        return ()
    frames = []
    for token in order:
        tactics = matrix_from_grid(keys[token], cfg.rounding)
        frames.append(
            Frame(
                key=keys[token],
                tactics=tactics,
                sizes=update_sizes(tactics, root.sizes, params),
                probability=weights[token] / total,
                support=supports[token],
                weight=weights[token],
            )
        )
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

    Line k always draws from the substream keyed by k, so the result is
    a pure function of (root, params, cfg, n_lines, horizon).
    """
    if n_lines < 1:
        raise ValueError(f"need at least one line (got {n_lines})")
    game = stage_game(
        root, params, cfg, k_candidates=k_candidates, max_profiles=max_profiles
    )
    lines = [
        generate_line(root, horizon, cfg, params, substream(cfg.rng_seed, LINE_STREAM, index))
        for index in range(n_lines)
    ]
    retained = folk_filter(lines, game.minimax)
    frames = cluster_first_moves(retained, root, params, cfg)
    diagnostics = TransitionDiagnostics(
        lines_generated=n_lines,
        lines_retained=len(retained),
        clusters=len(frames),
        total_weight=float(sum(line.weight for line in retained)),
        equilibria=len(game.equilibria),
        minimax=game.minimax,
        exhaustive_game=game.exhaustive,
    )
    return FrameDistribution(frames=frames, diagnostics=diagnostics)
