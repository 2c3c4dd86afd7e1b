"""Independent reference implementations used to cross-check the engine.

Everything here is written the slow, obvious way: plain Python loops and
math-module scalars, so the engine has something genuinely separate to
be compared against. The stream's hash, its keys and its integers are
written in Python integers and the line variates with math-module
scalars; candidate vectors take np.log of their uniforms, since math.log
can differ from numpy's in the last bit and pools must match bit for
bit. The stage-game
tabulation, the sampled stage game and the per-step line are the
deliberate exceptions: they reuse the engine's primitives on one matrix
at a time (pinned down elsewhere by hand values) but do their own
profile enumeration, equilibrium test, max-min reduction, or tactic
construction and step loop. The slice-row screen is the engine's earlier
batched screen, kept whole as the reference for its grid form.
"""

import itertools
import math

import numpy as np

from reelsim import (
    LineBlock,
    expected_utility,
    inertia_probability,
    intertemporal_utility,
    positional_utility,
    profile_matrix,
    tactical_distance,
    update_sizes,
)
from reelsim.core import sizes_from_transfers, transfers
from reelsim.sampling import integer_draws
from reelsim.utility import column_moves, distance_from_moves


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
    """Frobenius distance, plain loops: each column's squared differences
    added down its rows, then the column sums in agent order."""
    n = len(a)
    total = 0.0
    for j in range(n):
        column = 0.0
        for i in range(n):
            difference = a[i][j] - b[i][j]
            column += difference * difference
        total += column
    return math.sqrt(total)


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


def grid_coordinates(matrix, rounding):
    """Nearest-multiple coordinates as Python integers, ties away from
    zero; exact while 1/rounding is at most 2**53."""
    key = []
    for row in matrix:
        key_row = []
        for value in row:
            steps = math.floor(abs(value) / rounding + 0.5)
            sign = 1 if value > 0.0 else (-1 if value < 0.0 else 0)
            key_row.append(sign * steps)
        key.append(tuple(key_row))
    return tuple(key)


def representative(matrix, rounding):
    """The next state a first move reaches: its grid coordinates scaled
    back and renormalized column by column. A coordinate of 0 scales back
    to +0.0, never -0.0. Past 2**53 steps per unit the coordinates are no
    longer exact doubles, which is why 1/rounding is capped there."""
    return renormalize_columns(np.array(grid_coordinates(matrix, rounding), dtype=float) * rounding)


def cluster(first_moves, weights, rounding):
    """Map representative bytes -> (support, total weight), first-seen
    order, weights added one line at a time."""
    out = {}
    for matrix, weight in zip(first_moves, weights):
        key = representative(matrix, rounding).tobytes()
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


def sampled_stage_game(candidates, previous, sizes, params, max_profiles, key):
    """Subsampled stage game, one profile and one payoff call at a time.

    A scalar copy of the engine's screen, memoized per profile and
    scored through the line-of-play primitives, not the stage game's
    kernel: returns (equilibrium profiles sorted, minimax). The screen's
    profile r is
    line r of the stream keyed by key at step 0, slot j taken below
    agent j's pool size (below); the budget is the engine's, so the two
    must agree exactly. With no equilibrium, agent a's security level is
    the max over its own candidates of the min of its payoff over the
    screened profiles with its choice replaced by that candidate.
    """
    ks = tuple(len(pool) for pool in candidates)
    n = len(ks)
    cache = {}

    def evaluate(profile):
        if profile not in cache:
            tactics = profile_matrix(candidates, profile)
            utilities = positional_utility(update_sizes(tactics, sizes, params), params.alpha)
            move = tactical_distance(tactics, previous)
            cache[profile] = expected_utility(utilities, move, params.sigma)
        return cache[profile]

    def replaced(profile, agent, choice):
        return profile[:agent] + (choice,) + profile[agent + 1 :]

    budget = max(1, max_profiles // (sum(ks) + 1))
    screened = sorted(
        {
            tuple(below(line_word(key, row, 0, axis), ks[axis]) for axis in range(n))
            for row in range(budget)
        }
    )
    found = []
    for profile in screened:
        own = evaluate(profile)
        if all(
            own[agent]
            >= max(evaluate(replaced(profile, agent, alt))[agent] for alt in range(ks[agent]))
            for agent in range(n)
        ):
            found.append(profile)
    if found:
        return found, [min(float(evaluate(p)[agent]) for p in found) for agent in range(n)]

    levels = [
        max(
            min(float(evaluate(replaced(p, agent, choice))[agent]) for p in screened)
            for choice in range(ks[agent])
        )
        for agent in range(n)
    ]
    return found, levels


def slice_row_screen(candidates, previous, sizes, params, max_profiles, key, block):
    """The engine's earlier profile screen, kept as the reference its
    grid form must match bit for bit: (stable rows, their payoffs,
    security levels).

    Each screened profile's deviation slice, the profile and its sum(ks)
    unilateral deviations, is laid out as index rows; every row is
    scored for all n agents, block rows at a time, by gathering each
    agent's tabled transfer column and squared move and adding them in
    agent order; a deviation row's one useful payoff is its deviator's.
    """
    ks = tuple(len(pool) for pool in candidates)
    n, width = len(ks), 1 + sum(ks)
    draws = integer_draws(key, max(1, max_profiles // width), ks)
    profiles = np.array(sorted(set(map(tuple, draws.tolist()))))
    # Row 1 + d of a slice replaces agent deviators[d]'s choice by alternatives[d].
    deviators = np.repeat(np.arange(n), ks)
    alternatives = np.concatenate([np.arange(k) for k in ks])
    deviations = np.arange(1, width)
    rows = np.repeat(profiles[:, None], width, axis=1)
    rows[:, deviations, deviators] = alternatives
    rows = rows.reshape(-1, n)

    stack = np.zeros((max(ks), n, n))
    for agent, pool in enumerate(candidates):
        stack[: len(pool), :, agent] = pool
    gains = transfers(stack, sizes, params)
    moves = column_moves(stack, previous)
    payoffs = np.empty(rows.shape)
    for start in range(0, len(rows), block):
        chosen = rows[start : start + block].T
        updated = sizes_from_transfers(table[choice] for table, choice in zip(gains, chosen))
        distance = distance_from_moves(table[choice] for table, choice in zip(moves, chosen))
        payoffs[start : start + block] = expected_utility(
            positional_utility(updated, params.alpha), distance, params.sigma
        )
    payoffs = payoffs.reshape(len(profiles), width, n)

    firsts = np.cumsum((0,) + ks[:-1])
    deviated = payoffs[:, deviations, deviators]
    best = np.maximum.reduceat(deviated, firsts, axis=1)
    stable = np.all(payoffs[:, 0] >= best, axis=1)
    security = np.maximum.reduceat(deviated.min(axis=0), firsts)
    return profiles[stable], payoffs[stable, 0], security


def renormalize_columns(matrix):
    """Column abs-sum renormalization, one running sum per column.

    The engine's earlier loop, kept as the reference its vectorized form
    must match bit for bit: each column's absolute values are added down
    its rows from 0.0, and an all-zero column becomes self-allocation.
    """
    matrix = np.array(matrix, dtype=float)
    for j in range(matrix.shape[1]):
        scale = 0.0
        for entry in matrix[:, j]:
            scale += abs(entry)
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


MASK64 = 2**64 - 1


def splitmix(base, counter):
    """Output counter + 1 of the SplitMix64 stream seeded by base."""
    z = (base + (counter + 1) * 0x9E3779B97F4A7C15) & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


def line_word(key, line, step, slot):
    """The stream's word for (key, line, step, slot)."""
    return splitmix(splitmix(splitmix(key, line), step), slot)


def stream_key(seed, domain, *path):
    """Key for (seed, domain, path): fold the count of the seed's 64-bit
    limbs (at least one), the limbs low first, the domain and the path
    into splitmix, starting from 0."""
    limbs = []
    while True:
        limbs.append(seed & MASK64)
        seed >>= 64
        if seed == 0:
            break
    key = 0
    for word in [len(limbs), *limbs, domain, *path]:
        key = splitmix(key, word)
    return key


def below(word, bound):
    """A word's integer in [0, bound): floor(word * bound / 2**64)."""
    return (word * bound) >> 64


def uniform(word):
    """A word's uniform in (0, 1]."""
    return ((word >> 11) + 1) * 2.0**-53


def line_draws(key, line, step, n):
    """One line's draws at one step, one scalar at a time: the coin
    1 - u, then n*n exponentials -log(a), Box-Muller normals
    sqrt(-2 log a) cos(2 pi b) and sign uniforms 1 - b as n-by-n nested
    lists, a and b the step's next two runs of n*n uniforms."""
    u = [uniform(line_word(key, line, step, slot)) for slot in range(1 + 2 * n * n)]
    a, b = u[1 : 1 + n * n], u[1 + n * n :]
    exponentials = [-math.log(x) for x in a]
    normals = [math.sqrt(-2.0 * math.log(x)) * math.cos(2.0 * math.pi * y) for x, y in zip(a, b)]
    signs = [1.0 - y for y in b]

    def square(flat):
        return [flat[row * n : (row + 1) * n] for row in range(n)]

    return 1.0 - u[0], square(exponentials), square(normals), square(signs)


def tactic_vector_from(exponentials, uniforms, self_index, cfg):
    """One tactic vector from its n exponentials and n sign uniforms,
    scaled by their running sum from 0.0; all zeros give pure
    self-allocation."""
    exponentials = np.asarray(exponentials, dtype=float)
    total = 0.0
    for value in exponentials:
        total += value
    if total == 0.0:
        return np.eye(len(exponentials))[self_index]
    magnitudes = exponentials / total
    signs = np.where(np.asarray(uniforms) < cfg.p_neg, -1.0, 1.0)
    if not cfg.allow_negative_diagonal:
        signs[self_index] = 1.0
    return magnitudes * signs


def candidate_vector(key, vector, n, self_index, cfg):
    """Candidate tactic vector `vector` of the stream keyed by key: the
    line's 2n words at step 0, n exponentials -log(u) and n sign uniforms
    1 - u."""
    u = [uniform(line_word(key, vector, 0, slot)) for slot in range(2 * n)]
    return tactic_vector_from(-np.log(u[:n]), [1.0 - x for x in u[n:]], self_index, cfg)


def tactic_matrix(previous, cfg, draws, noise_sigma):
    """One next tactic matrix, built on its own from one line's draws
    (coin, exponentials, normals, sign uniforms) as line_draws gives
    them: a local perturbation of previous when the coin is below
    local_mix, else one fresh vector per column (row j of the draws)."""
    previous = np.asarray(previous, dtype=float)
    coin, exponentials, normals, signs = draws
    n = previous.shape[0]
    if coin < cfg.local_mix:
        perturbed = previous + np.asarray(normals, dtype=float) * (noise_sigma / n)
        if not cfg.allow_negative_diagonal:
            idx = np.arange(n)
            perturbed[idx, idx] = np.abs(perturbed[idx, idx])
        return renormalize_columns(perturbed)
    return np.column_stack(
        [tactic_vector_from(exponentials[j], signs[j], j, cfg) for j in range(n)]
    )


def per_step_line(root, horizon, cfg, params, draws):
    """One line of play, built, rolled and scored one step at a time: the
    engine's earlier generate_line, with one update_sizes,
    positional_utility and expected_utility call per step. draws(step)
    gives the line's draws at that step. It comes back as a one-member
    block."""
    previous, current = root.tactics, root.sizes
    matrices, sizes, payoffs = [], [], []
    for step in range(horizon):
        tactics = tactic_matrix(previous, cfg, draws(step), params.sigma)
        current = update_sizes(tactics, current, params)
        utilities = positional_utility(current, params.alpha)
        move = tactical_distance(tactics, previous)
        payoffs.append(expected_utility(utilities, move, params.sigma))
        matrices.append(tactics)
        sizes.append(current)
        previous = tactics
    matrices = np.array(matrices)
    payoffs = np.array(payoffs)
    return LineBlock(
        matrices=matrices[np.newaxis],
        sizes=np.array(sizes)[np.newaxis],
        payoffs=payoffs[np.newaxis],
        intertemporal=intertemporal_utility(payoffs, params.delta)[np.newaxis],
        weights=np.array([scalar_line_weight(root.tactics, matrices, params)]),
    )
