"""Output checks that do not trust the engine.

Each check takes the documents a command wrote (parsed JSON, or CSV
text) plus the scenario it ran on, and returns a list of problems; an
empty list means the output passed. The reference values are computed
here with plain Python loops and ``math`` scalars, or are properties the
method must have, never a stored copy of an earlier output.
"""

from __future__ import annotations

import csv
import io
import itertools
import math

TOL = 1e-9


def close(a: float, b: float, tol: float = TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


def plain_update(rows, sizes, beta: float, mu: float) -> list[float]:
    """One power-transfer step; rows[j][i] is agent j's allocation to agent i."""
    n = len(sizes)
    out = []
    for i in range(n):
        total = 0.0
        for j in range(n):
            entry = rows[j][i]
            multiplier = 1.0 if i == j else (beta if entry >= 0.0 else mu)
            total += multiplier * entry * sizes[j]
        out.append(total if total > 0.0 else 0.0)
    return out


def plain_payoffs(rows, previous_rows, sizes, params: dict) -> list[float]:
    """Expected utility of playing rows (agent-major) from previous_rows."""
    updated = plain_update(rows, sizes, params["beta"], params["mu"])
    concentration = sum(value * value for value in updated)
    if concentration == 0.0:
        utilities = [0.0] * len(updated)
    else:
        utilities = [value ** params["alpha"] / concentration for value in updated]
    distance = math.sqrt(
        sum(
            (a - b) ** 2
            for row, old in zip(rows, previous_rows)
            for a, b in zip(row, old)
        )
    )
    q = math.erfc(distance / (params["sigma"] * math.sqrt(2.0)))
    return [value * q for value in utilities]


def matrix_problems(rows, where: str) -> list[str]:
    """A tactic matrix is square, entries in [-1, 1], each agent's row abs-summing to 1."""
    n = len(rows)
    problems = []
    for agent, row in enumerate(rows):
        if len(row) != n:
            return [f"{where}: row {agent} has {len(row)} entries for {n} agents"]
        if any(abs(value) > 1.0 for value in row):
            problems.append(f"{where}: agent {agent} has an entry outside [-1, 1]")
        if abs(sum(abs(value) for value in row) - 1.0) > TOL:
            problems.append(f"{where}: agent {agent} allocations do not abs-sum to 1")
    return problems


def check_frames(doc: dict, scenario: dict) -> list[str]:
    """frames.json: a distribution over valid next states of the root."""
    problems = []
    frames = doc["frames"]
    diagnostics = doc["diagnostics"]
    probabilities = [frame["probability"] for frame in frames]
    if any(p < 0.0 for p in probabilities):
        problems.append("a frame probability is negative")
    if any(a < b for a, b in zip(probabilities, probabilities[1:])):
        problems.append("frame probabilities are not sorted")
    if frames and not close(sum(probabilities), 1.0):
        problems.append(f"frame probabilities sum to {sum(probabilities)!r}")
    total = diagnostics["total_weight"]
    for index, frame in enumerate(frames):
        if total > 0.0 and not close(frame["probability"], frame["weight"] / total):
            problems.append(f"frame {index}: probability is not its share of the weight")
        problems += matrix_problems(frame["tactics"], f"frame {index} tactics")
        expected = plain_update(
            frame["tactics"], scenario["sizes"], scenario["params"]["beta"], scenario["params"]["mu"]
        )
        if len(expected) != len(frame["sizes"]) or not all(
            close(a, b, 1e-12) for a, b in zip(expected, frame["sizes"])
        ):
            problems.append(f"frame {index}: sizes are not the update of its tactics")
    if sum(frame["support"] for frame in frames) != diagnostics["lines_retained"]:
        problems.append("frame supports do not sum to lines_retained")
    if len(frames) != diagnostics["clusters"]:
        problems.append("frame count differs from the clusters diagnostic")
    return problems


def _profile_payoffs(candidates, profile, previous_rows, sizes, params):
    rows = [candidates[agent][index] for agent, index in enumerate(profile)]
    return plain_payoffs(rows, previous_rows, sizes, params)


def brute_force_guarantee(candidates, previous_rows, sizes, params: dict) -> list[float]:
    """Worst equilibrium payoff per agent over the whole profile space, or
    the security level when no profile is an equilibrium.

    candidates[agent] lists that agent's candidate allocations (rows)."""
    ks = [len(pool) for pool in candidates]
    n = len(ks)
    table = {
        profile: _profile_payoffs(candidates, profile, previous_rows, sizes, params)
        for profile in itertools.product(*(range(k) for k in ks))
    }
    best = [{} for _ in range(n)]
    for profile, payoffs in table.items():
        for agent in range(n):
            others = profile[:agent] + profile[agent + 1 :]
            best[agent][others] = max(best[agent].get(others, -math.inf), payoffs[agent])
    equilibria = [
        payoffs
        for profile, payoffs in table.items()
        if all(
            payoffs[agent] >= best[agent][profile[:agent] + profile[agent + 1 :]]
            for agent in range(n)
        )
    ]
    if equilibria:
        return [min(payoffs[agent] for payoffs in equilibria) for agent in range(n)]
    levels = []
    for agent in range(n):
        worst = [math.inf] * ks[agent]
        for profile, payoffs in table.items():
            worst[profile[agent]] = min(worst[profile[agent]], payoffs[agent])
        levels.append(max(worst))
    return levels


def deviation_problems(candidates, equilibria, previous_rows, sizes, params: dict) -> list[str]:
    """Every equilibrium is a profile of candidates that no agent can improve
    on by switching to another of its own candidates."""
    problems = []
    for number, rows in enumerate(equilibria):
        try:
            profile = tuple(
                [list(candidate) for candidate in pool].index(list(row))
                for pool, row in zip(candidates, rows)
            )
        except ValueError:
            problems.append(f"equilibrium {number} is not a profile of candidates")
            continue
        own = _profile_payoffs(candidates, profile, previous_rows, sizes, params)
        for agent, pool in enumerate(candidates):
            for alt in range(len(pool)):
                deviated = profile[:agent] + (alt,) + profile[agent + 1 :]
                payoff = _profile_payoffs(candidates, deviated, previous_rows, sizes, params)[agent]
                if payoff > own[agent] and not close(payoff, own[agent], 1e-12):
                    problems.append(
                        f"equilibrium {number}: agent {agent} gains by switching to candidate {alt}"
                    )
    return problems


def guarantee_problems(reported, expected, what: str) -> list[str]:
    if len(reported) != len(expected) or not all(
        close(a, b) for a, b in zip(reported, expected)
    ):
        return [f"guarantee {list(reported)} differs from the {what} {list(expected)}"]
    return []


def check_tree(doc: dict, reels_csv: str, scenario: dict) -> list[str]:
    """tree.json and reels.csv: conserved mass, valid children, exact reels."""
    problems = []
    sim = scenario["sim"]
    params = scenario["params"]

    def walk(node, path):
        children = node["children"]
        where = f"node {list(path)}"
        if children:
            mass = sum(edge["probability"] for edge in children) + node["dropped_mass"]
            if not close(mass, 1.0):
                problems.append(f"{where}: child probabilities and dropped mass sum to {mass!r}")
            if len(children) > sim["branch_k"]:
                problems.append(f"{where}: more than branch_k children")
        elif node["leaf_reason"] == "pruned_out" and node["dropped_mass"] != 1.0:
            problems.append(f"{where}: pruned leaf does not drop all mass")
        for index, edge in enumerate(children):
            child = edge["node"]
            if edge["probability"] < sim["p_min"]:
                problems.append(f"{where}: child {index} is below p_min")
            problems.extend(matrix_problems(child["tactics"], f"{where} child {index} tactics"))
            expected = plain_update(child["tactics"], node["sizes"], params["beta"], params["mu"])
            if not all(close(a, b, 1e-12) for a, b in zip(expected, child["sizes"])):
                problems.append(f"{where}: child {index} sizes are not the update of its tactics")
            walk(child, path + (index,))

    walk(doc["tree"], ())

    leaves = []
    for reel in doc["reels"]:
        node = doc["tree"]
        product = 1.0
        try:
            for index in reel["indices"]:
                edge = node["children"][index]
                product *= edge["probability"]
                node = edge["node"]
        except (IndexError, TypeError):
            problems.append(f"reel {reel['indices']} does not follow the tree")
            continue
        if node["children"]:
            problems.append(f"reel {reel['indices']} ends at an expanded node")
        if reel["probability"] != product:
            problems.append(f"reel {reel['indices']}: probability is not the product of its edges")
        if reel["leaf_reason"] != node["leaf_reason"] or reel["final_sizes"] != node["sizes"]:
            problems.append(f"reel {reel['indices']}: leaf does not match the tree")
        leaves.append(tuple(reel["indices"]))
    if len(set(leaves)) != len(leaves):
        problems.append("a reel is listed twice")
    probabilities = [reel["probability"] for reel in doc["reels"]]
    if any(a < b for a, b in zip(probabilities, probabilities[1:])):
        problems.append("reels are not ranked by probability")
    rows = list(csv.reader(io.StringIO(reels_csv)))[1:]
    if [float(row[1]) for row in rows] != probabilities:
        problems.append("reels.csv probabilities differ from tree.json")
    return problems


def check_root_edges(tree_doc: dict, frames_doc: dict, scenario: dict) -> list[str]:
    """The root's children are the kept frames of a direct frame at the root."""
    sim = scenario["sim"]
    kept = [f for f in frames_doc["frames"] if f["probability"] >= sim["p_min"]][: sim["branch_k"]]
    children = tree_doc["tree"]["children"]
    if len(children) != len(kept):
        return [f"root has {len(children)} children, direct frame keeps {len(kept)}"]
    problems = []
    for index, (edge, frame) in enumerate(zip(children, kept)):
        node = edge["node"]
        if (
            edge["probability"] != frame["probability"]
            or node["tactics"] != frame["tactics"]
            or node["sizes"] != frame["sizes"]
        ):
            problems.append(f"root edge {index} differs from frame {index} of a direct frame")
    return problems
