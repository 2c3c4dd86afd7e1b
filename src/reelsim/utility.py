"""The three payoff layers agents care about.

Positional utility scores a size vector (dominance plus absolute growth),
expected utility discounts it by the social-inertia probability of the
distance of the tactical move that produced it, and intertemporal
utility folds a sequence of expected payoffs into one discounted number
per agent.

Every function takes stacks: sizes (..., n), tactic matrices (..., n, n),
move distances (...) and payoff sequences (..., H, n), a single vector,
matrix, distance or sequence being a stack with no leading axes. Members
are scored with the same operations through one path, so a batch agrees
with its members bit for bit; a single distance or probability comes
back as a numpy float.
"""

from __future__ import annotations

import math
from functools import reduce

import numpy as np

_SQRT2 = math.sqrt(2.0)


def positional_utility(sizes: np.ndarray, alpha: float, agent: int | None = None) -> np.ndarray:
    """Per-agent payoff u_i = s_i**alpha / sum_j(s_j**2).

    The denominator rewards a small, divided field of competitors; its
    squares are added in agent order, so no bit depends on the layout of
    sizes. The numerator's exponent controls the appetite for absolute
    growth. Dead agents score exactly 0. When every agent is dead the
    quotient is undefined and the all-zero vector is returned. Given an
    agent, only its payoff is computed, (..., 1), with the bits of that
    column of the full result.
    """
    sizes = np.asarray(sizes, dtype=float)
    if (sizes < 0).any():
        raise ValueError("sizes must be nonnegative")
    # The squares, added in agent order, are freed before the numerators exist.
    concentration = reduce(np.add, (sizes**2).transpose(-1, *range(sizes.ndim - 1)))
    scored = sizes if agent is None else sizes[..., agent, np.newaxis]
    utilities = scored**alpha
    # All dead: every numerator is 0, so dividing by 1 gives the zero vector.
    utilities /= np.where(concentration > 0.0, concentration, 1.0)[..., np.newaxis]
    return utilities


def column_moves(tactics_a: np.ndarray, tactics_b: np.ndarray) -> np.ndarray:
    """Squared move of each column, agent-major: (..., n, n) to (n, ...).
    Row j is column j's squared entry differences added down its rows in
    order."""
    squares = tactics_a - tactics_b
    squares *= squares
    return reduce(np.add, squares.transpose(-2, -1, *range(squares.ndim - 2)))


def distance_from_moves(moves) -> np.ndarray:
    """Distance from each column's squared move, given in agent order: the
    square root of their sum, added left to right."""
    return np.sqrt(reduce(np.add, moves))


def tactical_distance(tactics_a: np.ndarray, tactics_b: np.ndarray) -> float | np.ndarray:
    """Entrywise Euclidean (Frobenius) distance between two tactic matrices.

    Each column is summed over its rows in order, then the columns in
    agent order, as a plain column-then-agent loop sums. Either side may
    be a stack (..., n, n); the distances then come back as an array,
    one per member.
    """
    tactics_a = np.asarray(tactics_a, dtype=float)
    tactics_b = np.asarray(tactics_b, dtype=float)
    if tactics_a.shape[-2:] != tactics_b.shape[-2:]:
        raise ValueError(f"shape mismatch: {tactics_a.shape} vs {tactics_b.shape}")
    return distance_from_moves(column_moves(tactics_a, tactics_b))


def inertia_probability(distance: float | np.ndarray, sigma: float) -> float | np.ndarray:
    """Probability that a tactical move of the given distance is realized.

    Half-normal tail: erfc(distance / (sigma * sqrt(2))). Equals 1 at zero
    distance and never increases with distance; it is exactly 0 once
    distance / (sigma * sqrt(2)) passes about 27.23, where math.erfc
    underflows. At any fixed distance it never falls as sigma grows
    (weaker inertia). An array of distances gives an array of
    probabilities, each the scalar math.erfc of its member, so a batch
    agrees with its members bit for bit.
    """
    distance = np.asarray(distance, dtype=float)
    if (distance < 0).any():
        raise ValueError(f"tactical distance cannot be negative (got {distance})")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive (got {sigma})")
    x = distance / (sigma * _SQRT2)
    return np.fromiter(map(math.erfc, x.ravel().tolist()), float, x.size).reshape(x.shape)[()]


def expected_utility(
    utilities: np.ndarray, distance: float | np.ndarray, sigma: float
) -> np.ndarray:
    """Positional utilities scaled by one shared inertia probability.

    distance is that of the move which produced the utilities, from the
    previous tactic matrix to the current one (tactical_distance). The
    move has a single realization probability, the inertia probability
    of its distance, so every agent's payoff is multiplied by the same
    scalar. With utilities (..., n) and distances (...), each member gets
    its own probability.
    """
    q = inertia_probability(distance, sigma)
    return np.asarray(utilities, dtype=float) * q[..., np.newaxis]


def intertemporal_utility(payoffs: np.ndarray, delta: float) -> np.ndarray:
    """Normalized discounted sum (1 - delta) * sum_t delta**t * p(t).

    payoffs (..., H, n) holds one expected-utility vector per future step,
    the first row being one step ahead (the current state's payoff is
    never counted), and gives (..., n). The discount is a running product
    taken step by step, delta**t = delta**(t-1) * delta. The sum is a
    finite-horizon truncation: the kept weight is (1 - delta) *
    sum_{t=1..H} delta**t = delta * (1 - delta**H), the omitted tail's
    weight delta**(H + 1); at delta 0.9 and H 5 that is 0.369 kept
    against 0.531 omitted.
    """
    payoffs = np.asarray(payoffs, dtype=float)
    if payoffs.ndim < 2:
        raise ValueError(f"payoffs must be a (..., H, n) stack (got shape {payoffs.shape})")
    if payoffs.shape[-2] == 0:
        raise ValueError("payoff sequence must contain at least one step")
    total = np.zeros(payoffs.shape[:-2] + payoffs.shape[-1:])
    discount = 1.0
    for step in range(payoffs.shape[-2]):
        discount *= delta
        total += discount * payoffs[..., step, :]
    return (1.0 - delta) * total
