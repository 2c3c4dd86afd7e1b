"""State representation and the deterministic power-update dynamics.

Agents hold a nonnegative scalar amount of power ("size"). Each agent
allocates its power across all agents through a signed tactic vector whose
absolute values sum to one; the tactic vectors sit as columns of a tactic
matrix. A nonnegative (benevolent) allocation from agent j to agent i is
amplified by the benevolence multiplier, a negative (malevolent) one by
the larger malevolence multiplier, and self-allocation on the diagonal
passes through unchanged. One update step transfers power simultaneously
along all allocations; an agent whose size would come out at or below
zero is dead and pinned at exactly zero from that step on.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

# Tolerance for the per-column abs-sum constraint. Tight enough to reject
# materially invalid tactics, loose enough to absorb renormalization noise.
EPS_SUM = 1e-9


class TacticMatrixError(ValueError):
    """A tactic matrix violates the allocation constraints."""

    def __init__(self, message: str, column: int | None = None, deviation: float | None = None):
        super().__init__(message)
        self.column = column
        self.deviation = deviation


@dataclass(frozen=True)
class ModelParams:
    """The five tunable model parameters.

    alpha: utility exponent in [2, 3]; lower values reward relative
        dominance, higher values reward absolute growth.
    beta:  benevolence multiplier applied to received positive power, > 1.
    mu:    malevolence multiplier applied to received negative power, > beta.
    delta: discount factor for future payoffs, in (0, 1).
    sigma: social-inertia coefficient, > 0; small sigma means tactical
        change is strongly resisted.
    """

    alpha: float = 2.5
    beta: float = 1.2
    mu: float = 3.0
    delta: float = 0.9
    sigma: float = 0.5

    def __post_init__(self):
        if not (2.0 <= self.alpha <= 3.0):
            raise ValueError(f"utility exponent must lie in [2, 3] (got {self.alpha})")
        if not self.beta > 1.0:
            raise ValueError(f"benevolence multiplier must exceed 1 (got {self.beta})")
        if not self.mu > self.beta:
            raise ValueError(
                f"malevolence multiplier must exceed the benevolence multiplier "
                f"(got mu={self.mu}, beta={self.beta})"
            )
        if not (0.0 < self.delta < 1.0):
            raise ValueError(f"discount factor must lie strictly inside (0, 1) (got {self.delta})")
        if not self.sigma > 0.0:
            raise ValueError(f"social-inertia coefficient must be positive (got {self.sigma})")


@dataclass(frozen=True, eq=False)
class State:
    """A tactic matrix paired with the size vector it acts on.

    Column j of ``tactics`` is agent j's allocation of its own power;
    entry (i, j) is the signed fraction directed at agent i. Both arrays
    are stored as read-only float copies, so a State is an immutable value.
    """

    tactics: np.ndarray
    sizes: np.ndarray

    def __post_init__(self):
        tactics = np.array(self.tactics, dtype=float)
        sizes = np.array(self.sizes, dtype=float)
        if tactics.ndim != 2 or tactics.shape[0] != tactics.shape[1]:
            raise ValueError(f"tactic matrix must be square (got shape {tactics.shape})")
        if sizes.ndim != 1 or sizes.shape[0] != tactics.shape[0]:
            raise ValueError(
                f"size vector length {sizes.shape} does not match tactic matrix {tactics.shape}"
            )
        if not np.all(np.isfinite(tactics)) or not np.all(np.isfinite(sizes)):
            raise ValueError("state entries must be finite")
        if np.any(sizes < 0):
            raise ValueError("sizes must be nonnegative")
        tactics.setflags(write=False)
        sizes.setflags(write=False)
        object.__setattr__(self, "tactics", tactics)
        object.__setattr__(self, "sizes", sizes)

    @property
    def n(self) -> int:
        """Number of agents."""
        return self.sizes.shape[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return np.array_equal(self.tactics, other.tactics) and np.array_equal(self.sizes, other.sizes)


def validate_tactic_matrix(tactics: np.ndarray) -> None:
    """Check the tactic-matrix constraints, raising TacticMatrixError otherwise.

    Accepts iff every entry lies in [-1, 1] and every column's absolute
    values, added down its rows in order, sum to 1 within EPS_SUM.
    Otherwise the error names the first offending column and keeps it and
    its deviation as ``column`` and ``deviation``. Non-square or
    non-finite input is rejected outright.
    """
    tactics = np.asarray(tactics, dtype=float)
    if tactics.ndim != 2 or tactics.shape[0] != tactics.shape[1]:
        raise TacticMatrixError(f"tactic matrix must be square (got shape {tactics.shape})")
    if not np.all(np.isfinite(tactics)):
        raise TacticMatrixError("tactic matrix entries must be finite")
    for j in range(tactics.shape[1]):
        column = tactics[:, j]
        overshoot = float(np.max(np.abs(column))) - 1.0
        if overshoot > 0.0:
            raise TacticMatrixError(
                f"column {j} has an entry outside [-1, 1] (by {overshoot:.3g})",
                column=j,
                deviation=overshoot,
            )
        total = float(reduce(np.add, np.abs(column)))
        deviation = abs(total - 1.0)
        if deviation > EPS_SUM:
            raise TacticMatrixError(
                f"column {j} absolute values sum to {total:.12g}, "
                f"deviating from 1 by {deviation:.3g}",
                column=j,
                deviation=deviation,
            )


def build_multiplier_matrix(tactics: np.ndarray, params: ModelParams) -> np.ndarray:
    """Benevolence/malevolence multipliers matching the matrix's sign pattern.

    Off-diagonal entries are beta where the tactic entry is >= 0 (zero
    allocations count as benevolent) and mu where it is negative; the
    diagonal is 1 because self-allocation is not amplified. A stack of
    matrices (..., n, n) gets one multiplier matrix per member.
    """
    tactics = np.asarray(tactics, dtype=float)
    multipliers = np.where(tactics >= 0.0, params.beta, params.mu)
    idx = np.arange(tactics.shape[-1])
    multipliers[..., idx, idx] = 1.0
    return multipliers


def transfers(tactics: np.ndarray, sizes: np.ndarray, params: ModelParams) -> list[np.ndarray]:
    """Each agent's transfer column, in agent order: T[..., :, j] * M * s_j.

    Entry i of agent j's column, (T_ij * M_ij) * s_j, is what j sends i.
    tactics (..., n, n) and sizes (..., n) broadcast against each other,
    so a stack can share one size vector (n,) or take one per member
    (B, n); each column is (..., n).
    """
    tactics = np.asarray(tactics, dtype=float)
    sizes = np.asarray(sizes, dtype=float)
    effective = tactics * build_multiplier_matrix(tactics, params)
    return [effective[..., :, j] * sizes[..., j, np.newaxis] for j in range(tactics.shape[-1])]


def sizes_from_transfers(columns) -> np.ndarray:
    """Updated sizes from the agents' transfer columns, added left to right
    in agent order. Dead agents are pinned at exactly 0; no epsilon band,
    tiny positive sizes survive."""
    updated = reduce(np.add, columns)
    return np.where(updated > 0.0, updated, 0.0)


def update_sizes(tactics: np.ndarray, sizes: np.ndarray, params: ModelParams) -> np.ndarray:
    """One power-transfer step on raw arrays, with death clamping.

    The agent-ordered sum T[..., :, 0] * M * s_0 + T[..., :, 1] * M * s_1
    + ..., clamped at zero, (..., n); tactics and sizes broadcast as in
    transfers. There is no matrix product, so a stack, its members one at
    a time and a plain loop over the agents agree bit for bit, whatever
    BLAS numpy links.
    """
    return sizes_from_transfers(transfers(tactics, sizes, params))


def step_update(state: State, params: ModelParams) -> np.ndarray:
    """Advance the size vector one step under the state's tactic matrix."""
    return update_sizes(state.tactics, state.sizes, params)


def evolve(state: State, params: ModelParams, t: int) -> np.ndarray:
    """Iterate step_update t times with fixed tactics.

    Returns a (t, n) array of the successive size vectors. Clamping is
    applied after every step, so this is not a bare matrix power: a
    negative intermediate size is zeroed before it can feed later steps.
    A dead agent can still be revived by positive inflows from others.
    """
    if t < 0:
        raise ValueError(f"step count must be nonnegative (got {t})")
    sizes = state.sizes
    trajectory = np.empty((t, state.n))
    for step in range(t):
        sizes = update_sizes(state.tactics, sizes, params)
        trajectory[step] = sizes
    return trajectory


def normalize_sizes(sizes: np.ndarray) -> np.ndarray:
    """Rescale so the largest agent has size exactly 1."""
    sizes = np.asarray(sizes, dtype=float)
    if np.any(sizes < 0):
        raise ValueError("sizes must be nonnegative")
    largest = np.max(sizes) if sizes.size else 0.0
    if largest <= 0.0:
        raise ValueError("cannot normalize an all-zero size vector")
    return sizes / largest
