"""Trees of probable futures and the paths running through them.

Each node holds a state; expanding a node runs the transition pipeline
and keeps the most probable next frames as children, recording how much
probability mass pruning discarded. One SimSettings gives every
expansion its budget and the tree its shape (depth_max, branch_k,
p_min). A reel is one root-to-leaf path; its probability is the product
of the edge probabilities along the way.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, State
from .frames import ordered_sum, transition_distribution
from .sampling import NODE_STREAM, SamplerConfig, stream_key
from .scenario import SimSettings

LEAF_MAX_DEPTH = "max_depth"
LEAF_ALL_DEAD = "all_dead"
LEAF_EMPTY = "empty_distribution"
LEAF_PRUNED = "pruned_out"


@dataclass(frozen=True)
class ReelEdge:
    probability: float
    child: "ReelNode"


@dataclass(frozen=True)
class ReelNode:
    """One state in the tree of futures.

    leaf_reason is None on expanded nodes; on leaves it records why
    expansion stopped. dropped_mass is the probability lost to pruning
    at this node (0 when nothing was pruned or nothing was expanded).
    """

    state: State
    depth: int
    children: tuple[ReelEdge, ...]
    leaf_reason: str | None
    dropped_mass: float

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class Reel:
    """One root-to-leaf path.

    path holds the visited states root first; indices the child index
    taken at each branching, which doubles as a stable identifier.
    probability, which reels are ranked by, is the product of
    edge_probabilities, 1 for a bare root.
    """

    path: tuple[State, ...]
    indices: tuple[int, ...]
    edge_probabilities: tuple[float, ...]
    probability: float
    leaf_reason: str | None


def build_reel_tree(
    root: State, params: ModelParams, cfg: SamplerConfig, sim: SimSettings
) -> ReelNode:
    """Expand states recursively until depth, death, or a dead end.

    Every expansion is a transition_distribution under sim, and nodes at
    depth sim.depth_max are leaves. Children are the frames with
    probability >= sim.p_min, best sim.branch_k of them. A node below the
    root, at child-index path p, runs its expansion with
    stream_key(master, NODE_STREAM, *p) as its seed, so a subtree's
    content depends only on where it hangs, not on traversal order; the
    root uses the master seed itself and therefore matches a direct
    transition_distribution call at the root.
    """
    master = cfg.rng_seed

    def expand(state: State, depth: int, path: tuple[int, ...]) -> ReelNode:
        if not np.any(state.sizes > 0.0):
            return ReelNode(state, depth, (), LEAF_ALL_DEAD, 0.0)
        if depth == sim.depth_max:
            return ReelNode(state, depth, (), LEAF_MAX_DEPTH, 0.0)
        seed = stream_key(master, NODE_STREAM, *path) if path else master
        node_cfg = dataclasses.replace(cfg, rng_seed=seed)
        distribution = transition_distribution(state, params, node_cfg, sim)
        if distribution.is_empty:
            return ReelNode(state, depth, (), LEAF_EMPTY, 0.0)
        kept = [
            frame for frame in distribution.frames if frame.probability >= sim.p_min
        ][:sim.branch_k]
        if not kept:
            return ReelNode(state, depth, (), LEAF_PRUNED, 1.0)
        dropped = max(0.0, 1.0 - ordered_sum([frame.probability for frame in kept]))
        edges = tuple(
            ReelEdge(
                frame.probability,
                expand(State(frame.tactics, frame.sizes), depth + 1, path + (index,)),
            )
            for index, frame in enumerate(kept)
        )
        return ReelNode(state, depth, edges, None, dropped)

    return expand(root, 0, ())


def enumerate_reels(tree: ReelNode) -> list[Reel]:
    """Every root-to-leaf path, most probable first.

    Ties order by child indices, so the output is deterministic for a
    deterministic tree.
    """
    reels = [
        Reel(states, path, probabilities, math.prod(probabilities), node.leaf_reason)
        for node, path, states, probabilities in _walk(tree)
        if node.is_leaf
    ]
    reels.sort(key=lambda reel: (-reel.probability, reel.indices))
    return reels


def _walk(node: ReelNode, path=(), states=(), probabilities=()):
    """Every node of the tree in preorder, children in index order, with
    its path of child indices, the states from the root to it and the
    edge probabilities on the way."""
    states = states + (node.state,)
    yield node, path, states, probabilities
    for index, edge in enumerate(node.children):
        yield from _walk(edge.child, path + (index,), states, probabilities + (edge.probability,))
