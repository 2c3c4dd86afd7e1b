"""The three payoff layers agents care about.

Positional utility scores a size vector (dominance plus absolute growth),
expected utility discounts it by the social-inertia probability of the
tactical move that produced it, and intertemporal utility folds a sequence
of expected payoffs into one discounted number per agent.

Positional and expected utility, and the distance and inertia kernels
under them, also take stacks: sizes (..., n) and tactic matrices
(..., n, n) are scored member by member with the same operations as a
single vector or matrix, so a batch agrees with its members bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

_SQRT2 = math.sqrt(2.0)
# The scalar math.erfc applied elementwise, so an array of distances gets
# exactly the probabilities its members get one at a time.
_erfc = np.frompyfunc(math.erfc, 1, 1)


def positional_utility(sizes: np.ndarray, alpha: float) -> np.ndarray:
    """Per-agent payoff u_i = s_i**alpha / sum_j(s_j**2).

    The denominator rewards a small, divided field of competitors; the
    numerator's exponent controls the appetite for absolute growth. Dead
    agents score exactly 0. When every agent is dead the quotient is
    undefined and the all-zero vector is returned.
    """
    sizes = np.asarray(sizes, dtype=float)
    if (sizes < 0).any():
        raise ValueError("sizes must be nonnegative")
    concentration = (sizes**2).sum(axis=-1, keepdims=True)
    # All dead: every numerator is 0, so dividing by 1 gives the zero vector.
    return sizes**alpha / np.where(concentration > 0.0, concentration, 1.0)


def tactical_distance(tactics_a: np.ndarray, tactics_b: np.ndarray) -> float | np.ndarray:
    """Entrywise Euclidean (Frobenius) distance between two tactic matrices.

    Either side may be a stack (..., n, n); the distances then come back
    as an array, one per member.
    """
    tactics_a = np.asarray(tactics_a, dtype=float)
    tactics_b = np.asarray(tactics_b, dtype=float)
    if tactics_a.shape[-2:] != tactics_b.shape[-2:]:
        raise ValueError(f"shape mismatch: {tactics_a.shape} vs {tactics_b.shape}")
    distance = np.sqrt(((tactics_a - tactics_b) ** 2).sum(axis=(-2, -1)))
    return float(distance) if distance.ndim == 0 else distance


def inertia_probability(distance: float | np.ndarray, sigma: float) -> float | np.ndarray:
    """Probability that a tactical move of the given distance is realized.

    Half-normal tail: erfc(distance / (sigma * sqrt(2))). Equals 1 at zero
    distance, decreases strictly with distance, and grows with sigma
    (weaker inertia) at any fixed positive distance. An array of
    distances gives an array of probabilities.
    """
    stacked = isinstance(distance, np.ndarray)
    if (distance < 0).any() if stacked else distance < 0:
        raise ValueError(f"tactical distance cannot be negative (got {distance})")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive (got {sigma})")
    scaled = distance / (sigma * _SQRT2)
    return np.asarray(_erfc(scaled), dtype=float) if stacked else math.erfc(scaled)


def expected_utility(
    utilities: np.ndarray,
    tactics_now: np.ndarray,
    tactics_previous: np.ndarray,
    sigma: float,
) -> np.ndarray:
    """Positional utilities scaled by one shared inertia probability.

    The move from the previous tactic matrix to the current one has a
    single realization probability, so every agent's payoff is multiplied
    by the same scalar. With a stack of current matrices (..., n, n) and
    utilities (..., n), each member gets its own probability.
    """
    q = inertia_probability(tactical_distance(tactics_now, tactics_previous), sigma)
    if isinstance(q, np.ndarray):
        q = q[..., np.newaxis]
    return np.asarray(utilities, dtype=float) * q


def intertemporal_utility(payoffs: np.ndarray, delta: float) -> np.ndarray:
    """Normalized discounted sum (1 - delta) * sum_t delta**t * p(t).

    ``payoffs`` holds one expected-utility vector per future step, the
    first row being one step ahead (the current state's payoff is never
    counted). The sum is a finite-horizon truncation: the kept weight is
    (1 - delta) * sum_{t=1..H} delta**t = delta * (1 - delta**H), the
    omitted tail's weight delta**(H + 1); at delta 0.9 and H 5 that is
    0.369 kept against 0.531 omitted. A stack of sequences (..., H, n)
    gives one vector per member.
    """
    payoffs = np.asarray(payoffs, dtype=float)
    if payoffs.ndim == 1:
        payoffs = payoffs[:, np.newaxis] if payoffs.size else payoffs.reshape(0, 1)
    horizon = payoffs.shape[-2]
    if horizon == 0:
        raise ValueError("payoff sequence must contain at least one step")
    discounts = delta ** np.arange(1, horizon + 1)
    return (1.0 - delta) * (discounts @ payoffs)
