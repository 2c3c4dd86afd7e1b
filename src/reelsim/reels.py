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
import os
import pickle
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, State
from .frames import Frame, SimSettings, ordered_sum, transition_distribution
from .sampling import NODE_STREAM, SamplerConfig, stream_key

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
    root: State, params: ModelParams, cfg: SamplerConfig, sim: SimSettings, workers: int = 1
) -> ReelNode:
    """Expand states level by level until depth, death, or a dead end.

    Every expansion is a transition_distribution under sim, and nodes at
    depth sim.depth_max are leaves. Children are the frames with
    probability >= sim.p_min, best sim.branch_k of them. A node below the
    root, at child-index path p, runs its expansion with
    stream_key(master, NODE_STREAM, *p) as its seed, so a subtree's
    content depends only on where it hangs, not on traversal order; the
    root uses the master seed itself and therefore matches a direct
    transition_distribution call at the root.

    The walk is breadth-first: each level's live nodes shallower than
    depth_max are expanded in path order, and the tree is put together
    from their results by path. With workers > 1, a level of several
    nodes is split over min(workers, usable CPUs, level width) processes,
    forked from this one; since a node's result depends only on its state
    and path, the tree is the same at every worker count. Where os.fork
    is missing the build is serial. If expansions raise, the error of the
    first failing node in path order is raised, whatever the worker
    count, after every forked process has exited.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1 (got {workers})")
    states = {(): root}
    outcomes = {}  # path -> (leaf reason, kept frames, dropped mass)
    level = [()]

    def expand(path: tuple[int, ...]):
        return _expand(states[path], path, params, cfg, sim)

    for _ in range(sim.depth_max):
        level = [path for path in level if _alive(states[path])]
        for path, outcome in zip(level, _expand_level(expand, level, workers)):
            outcomes[path] = outcome
            for index, frame in enumerate(outcome[1]):
                states[path + (index,)] = State(frame.tactics, frame.sizes)
        level = [path + (index,) for path in level for index in range(len(outcomes[path][1]))]
    return _assemble((), states, outcomes)


def _assemble(path: tuple[int, ...], states: dict, outcomes: dict) -> ReelNode:
    """The subtree at path, from the walk's states and outcomes by path.

    Not a closure: one that calls itself is a reference cycle, which
    would keep every state and frame of the build alive until the cyclic
    garbage collector runs."""
    state = states[path]
    if not _alive(state):
        return ReelNode(state, len(path), (), LEAF_ALL_DEAD, 0.0)
    if path not in outcomes:
        return ReelNode(state, len(path), (), LEAF_MAX_DEPTH, 0.0)
    reason, kept, dropped = outcomes[path]
    edges = tuple(
        ReelEdge(frame.probability, _assemble(path + (index,), states, outcomes))
        for index, frame in enumerate(kept)
    )
    return ReelNode(state, len(path), edges, reason, dropped)


def _alive(state: State) -> bool:
    return bool(np.any(state.sizes > 0.0))


def _expand(
    state: State, path: tuple[int, ...], params: ModelParams, cfg: SamplerConfig, sim: SimSettings
) -> tuple[str | None, tuple[Frame, ...], float]:
    """One node's expansion: its leaf reason (None if it branches), the
    frames kept as its children, and the probability mass pruned away."""
    seed = stream_key(cfg.rng_seed, NODE_STREAM, *path) if path else cfg.rng_seed
    node_cfg = dataclasses.replace(cfg, rng_seed=seed)
    distribution = transition_distribution(state, params, node_cfg, sim)
    if distribution.is_empty:
        return LEAF_EMPTY, (), 0.0
    kept = tuple(
        frame for frame in distribution.frames if frame.probability >= sim.p_min
    )[:sim.branch_k]
    if not kept:
        return LEAF_PRUNED, (), 1.0
    return None, kept, max(0.0, 1.0 - ordered_sum([frame.probability for frame in kept]))


def _expand_level(expand, paths: list, workers: int) -> list:
    """expand(path) for every path, in order, on up to workers processes.

    The paths are cut into contiguous shares, one a process. This process
    forks a child for every share but the first, expands the first
    itself, then reads each child's results from its pipe and waits for
    it, even when something raised. The first error in path order is
    raised after every child has exited.
    """
    count = max(1, min(workers, _usable_cpus(), len(paths))) if hasattr(os, "fork") else 1
    bounds = [len(paths) * share // count for share in range(count + 1)]
    shares = [paths[start:stop] for start, stop in zip(bounds, bounds[1:])]
    children = []  # (pid, read end of its pipe)
    received = []  # (bytes a child sent, its wait status)
    try:
        for share in shares[1:]:
            children.append(_fork(expand, share))
        runs = [_run(expand, shares[0])]
    finally:
        for pid, read_fd in children:
            with open(read_fd, "rb") as pipe:
                data = pipe.read()
            received.append((data, os.waitpid(pid, 0)[1]))
    for data, status in received:
        if status:  # the child failed before it sent everything
            code = os.waitstatus_to_exitcode(status)
            runs.append(([], RuntimeError(f"a reel-tree worker process exited with code {code}")))
        else:
            runs.append(pickle.loads(data))
    results = []
    for outcomes, error in runs:
        if error is not None:
            raise error
        results.extend(outcomes)
    return results


def _run(expand, paths: list) -> tuple[list, Exception | None]:
    """expand over paths in order, stopping at the first error, which is
    returned beside the outcomes before it."""
    outcomes = []
    try:
        for path in paths:
            outcomes.append(expand(path))
    except Exception as error:  # handed to _expand_level, which raises it
        return outcomes, error
    return outcomes, None


def _fork(expand, paths: list) -> tuple[int, int]:
    """Fork a child that pickles _run(expand, paths) into a pipe and exits;
    return its pid and the pipe's read end."""
    read_fd, write_fd = os.pipe()
    try:
        with warnings.catch_warnings():
            # From Python 3.12 fork warns in a process with threads, which
            # numpy's OpenBLAS pool makes this one. The child runs the
            # engine's element-wise numpy code, which calls no BLAS routine
            # (the engine has no matrix product), and leaves by os._exit.
            warnings.filterwarnings(
                "ignore", r"This process .* is multi-threaded", DeprecationWarning
            )
            pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid == 0:
        status = 1
        try:
            os.close(read_fd)
            with open(write_fd, "wb") as pipe:
                pipe.write(pickle.dumps(_run(expand, paths)))
            status = 0
        finally:
            os._exit(status)  # never return into the parent's stack
    os.close(write_fd)
    return pid, read_fd


def _usable_cpus() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
