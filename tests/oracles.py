"""Independent reference implementations used to cross-check the engine.

Everything here is written the slow, obvious way: plain Python loops and
math-module scalars, so the engine has something genuinely separate to
be compared against. The stage-game tabulation and the sampled stage
game are the deliberate exceptions: they reuse the engine's payoff
primitives on one matrix at a time (pinned down elsewhere by hand
values) but do their own profile enumeration, equilibrium test, and
max-min reduction.
"""

import itertools
import math

import numpy as np

from reelsim import (
    inertia_probability,
    positional_utility,
    profile_matrix,
    stage_payoffs,
    tactical_distance,
    update_sizes,
)


def update(tactics, sizes, beta, mu):
    """One power-transfer step, plain loops, clamp at zero."""
    n = len(sizes)
    out = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            entry = tactics[i][j]
            if i == j:
                multiplier = 1.0
            elif entry >= 0.0:
                multiplier = beta
            else:
                multiplier = mu
            total += multiplier * entry * sizes[j]
        out.append(total if total > 0.0 else 0.0)
    return out


def positional(sizes, alpha):
    concentration = sum(s * s for s in sizes)
    if concentration == 0.0:
        return [0.0 for _ in sizes]
    return [s**alpha / concentration for s in sizes]


def distance(a, b):
    return math.sqrt(
        sum(
            (x - y) ** 2
            for row_a, row_b in zip(a, b)
            for x, y in zip(row_a, row_b)
        )
    )


def inertia(x, sigma):
    return math.erfc(x / (sigma * math.sqrt(2.0)))


def intertemporal(payoffs, delta):
    """payoffs[t][i] with t = 0..H-1 standing for steps 1..H."""
    n = len(payoffs[0])
    out = []
    for i in range(n):
        total = 0.0
        for t, row in enumerate(payoffs, start=1):
            total += delta**t * row[i]
        out.append((1.0 - delta) * total)
    return out


def line_weight(root_tactics, matrices, delta, sigma):
    total = 0.0
    previous = root_tactics
    for t, tactics in enumerate(matrices, start=1):
        total += delta**t * distance(tactics, previous)
        previous = tactics
    return inertia((1.0 - delta) * total, sigma)


def grid_key(matrix, rounding):
    """Nearest-multiple coordinates, ties away from zero."""
    key = []
    for row in matrix:
        key_row = []
        for value in row:
            steps = math.floor(abs(value) / rounding + 0.5)
            sign = 1 if value > 0.0 else (-1 if value < 0.0 else 0)
            key_row.append(sign * steps)
        key.append(tuple(key_row))
    return tuple(key)


def cluster(first_moves, weights, rounding):
    """Map grid key -> (support, total weight) in first-seen order."""
    out = {}
    for matrix, weight in zip(first_moves, weights):
        key = grid_key(matrix, rounding)
        support, total = out.get(key, (0, 0.0))
        out[key] = (support + 1, total + weight)
    return out


def tv_distance(probs_a, probs_b):
    """Total variation between two key->probability maps."""
    keys = set(probs_a) | set(probs_b)
    return 0.5 * sum(abs(probs_a.get(k, 0.0) - probs_b.get(k, 0.0)) for k in keys)


def stage_tabulation(candidates, previous, sizes, params):
    """Brute-force stage game: payoffs, equilibria, and the guarantee.

    Returns (payoffs, equilibria, minimax) where payoffs maps each
    profile tuple to the per-agent payoff list, equilibria is the list of
    profiles with no improving unilateral deviation, and minimax is the
    worst equilibrium payoff per agent (security level when there are no
    equilibria).
    """
    ks = [len(pool) for pool in candidates]
    n = len(ks)

    def payoff(profile):
        tactics = np.column_stack(
            [np.asarray(candidates[agent][index], dtype=float) for agent, index in enumerate(profile)]
        )
        updated = update_sizes(tactics, sizes, params)
        utilities = positional_utility(updated, params.alpha)
        q = inertia_probability(tactical_distance(tactics, previous), params.sigma)
        return [float(utilities[i]) * q for i in range(n)]

    payoffs = {
        profile: payoff(profile)
        for profile in itertools.product(*(range(k) for k in ks))
    }

    equilibria = []
    for profile, own in payoffs.items():
        improves = False
        for agent in range(n):
            for alt in range(ks[agent]):
                deviated = profile[:agent] + (alt,) + profile[agent + 1 :]
                if payoffs[deviated][agent] > own[agent]:
                    improves = True
                    break
            if improves:
                break
        if not improves:
            equilibria.append(profile)

    if equilibria:
        minimax = [
            min(payoffs[profile][agent] for profile in equilibria) for agent in range(n)
        ]
    else:
        minimax = []
        for agent in range(n):
            best = -math.inf
            for own_choice in range(ks[agent]):
                worst = math.inf
                other_ranges = [
                    range(ks[other]) if other != agent else [own_choice]
                    for other in range(n)
                ]
                for profile in itertools.product(*other_ranges):
                    worst = min(worst, payoffs[profile][agent])
                best = max(best, worst)
            minimax.append(best)
    return payoffs, equilibria, minimax


def sampled_stage_game(candidates, previous, sizes, params, max_profiles, rng):
    """Subsampled stage game, one profile and one payoff call at a time.

    A frozen copy of the engine's earlier scalar screen and security
    levels, memoized per profile: returns (equilibrium profiles sorted,
    minimax). The random draws, their order and the budgets are the
    engine's, so the two must agree exactly.
    """
    ks = tuple(len(pool) for pool in candidates)
    n = len(ks)
    cache = {}

    def evaluate(profile):
        if profile not in cache:
            cache[profile] = stage_payoffs(
                profile_matrix(candidates, profile), previous, sizes, params
            )
        return cache[profile]

    budget = max(1, max_profiles // (sum(ks) + 1))
    drawn = {tuple(int(rng.integers(k)) for k in ks) for _ in range(budget)}
    found = []
    for profile in sorted(drawn):
        own = evaluate(profile)
        if all(
            own[agent]
            >= max(
                evaluate(profile[:agent] + (alt,) + profile[agent + 1 :])[agent]
                for alt in range(ks[agent])
            )
            for agent in range(n)
        ):
            found.append(profile)
    if found:
        return found, [min(float(evaluate(p)[agent]) for p in found) for agent in range(n)]

    combos = max(1, max_profiles // max(1, sum(ks)))
    levels = []
    for agent in range(n):
        best = -math.inf
        for own in range(ks[agent]):
            worst = math.inf
            for _ in range(combos):
                profile = tuple(
                    own if axis == agent else int(rng.integers(ks[axis])) for axis in range(n)
                )
                worst = min(worst, float(evaluate(profile)[agent]))
            best = max(best, worst)
        levels.append(best)
    return found, levels


def renormalize_columns(matrix):
    """Column abs-sum renormalization, one np.sum per column.

    The engine's earlier loop, kept as the reference its vectorized form
    must match bit for bit: an all-zero column becomes self-allocation.
    """
    matrix = np.array(matrix, dtype=float)
    for j in range(matrix.shape[1]):
        scale = np.sum(np.abs(matrix[:, j]))
        if scale == 0.0:
            matrix[:, j] = 0.0
            matrix[j, j] = 1.0
        else:
            matrix[:, j] /= scale
    return matrix


def scalar_line_weight(root_tactics, matrices, params):
    """Line weight with one tactical_distance call per step and a running
    discount: the engine's earlier scalar loop, exact to the bit."""
    previous = root_tactics
    total = 0.0
    discount = 1.0
    for tactics in matrices:
        discount *= params.delta
        total += discount * tactical_distance(tactics, previous)
        previous = tactics
    return inertia_probability((1.0 - params.delta) * total, params.sigma)
