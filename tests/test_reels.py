"""Trees of futures: expansion, pruning, and path enumeration."""

import dataclasses
import math
import os
import re
import warnings

import numpy as np
import pytest

import reelsim as rs


def leaf(state, depth, reason=rs.LEAF_MAX_DEPTH):
    return rs.ReelNode(state=state, depth=depth, children=(), leaf_reason=reason, dropped_mass=0.0)


def node(state, depth, edges, dropped=0.0):
    return rs.ReelNode(
        state=state, depth=depth, children=tuple(edges), leaf_reason=None, dropped_mass=dropped
    )


@pytest.fixture
def tiny_state(three_agent_tactics):
    return rs.State(tactics=three_agent_tactics, sizes=np.array([0.3, 1.0, 0.6]))


SMALL_SIM = rs.SimSettings(lines=50, horizon=2, depth_max=2, branch_k=2, p_min=0.0, candidates=4)


def small_sim(**changes):
    return dataclasses.replace(SMALL_SIM, **changes)


def small_tree(state, params, seed=11, workers=1, **changes):
    cfg = rs.SamplerConfig(rng_seed=seed, rounding=0.25, local_mix=0.8)
    return rs.build_reel_tree(state, params, cfg, small_sim(**changes), workers)


# ------------------------------------------------------------- hand-built


def test_reel_probability_products(tiny_state):
    bare = rs.ReelNode(tiny_state, 0, (), rs.LEAF_MAX_DEPTH, 0.0)
    [reel] = rs.enumerate_reels(bare)
    assert reel.edge_probabilities == () and reel.probability == 1.0
    tip = rs.ReelNode(tiny_state, 2, (), rs.LEAF_MAX_DEPTH, 0.0)
    mid = rs.ReelNode(tiny_state, 1, (rs.ReelEdge(0.5, tip),), None, 0.5)
    root = rs.ReelNode(tiny_state, 0, (rs.ReelEdge(0.1, mid),), None, 0.9)
    [reel] = rs.enumerate_reels(root)
    assert reel.edge_probabilities == (0.1, 0.5) and reel.probability == 0.05


def test_enumerate_reels_on_hand_built_tree(tiny_state):
    # root -> {0.9 -> leaf, 0.1 -> inner -> {0.5, 0.5}}
    inner = node(
        tiny_state,
        1,
        [rs.ReelEdge(0.5, leaf(tiny_state, 2)), rs.ReelEdge(0.5, leaf(tiny_state, 2))],
    )
    tree = node(tiny_state, 0, [rs.ReelEdge(0.9, leaf(tiny_state, 1)), rs.ReelEdge(0.1, inner)])
    reels = rs.enumerate_reels(tree)
    assert [reel.indices for reel in reels] == [(0,), (1, 0), (1, 1)]
    assert [reel.probability for reel in reels] == [0.9, 0.05, 0.05]
    assert reels[1].edge_probabilities == (0.1, 0.5)
    assert reels[0].leaf_reason == rs.LEAF_MAX_DEPTH
    assert [len(reel.path) for reel in reels] == [2, 3, 3]


def test_enumerate_reels_balanced_tree_is_uniform(tiny_state):
    level2 = [
        node(
            tiny_state,
            1,
            [rs.ReelEdge(0.5, leaf(tiny_state, 2)), rs.ReelEdge(0.5, leaf(tiny_state, 2))],
        )
        for _ in range(2)
    ]
    tree = node(tiny_state, 0, [rs.ReelEdge(0.5, lv) for lv in level2])
    reels = rs.enumerate_reels(tree)
    assert [reel.probability for reel in reels] == [0.25] * 4
    # equal probabilities fall back to index order
    assert [reel.indices for reel in reels] == [(0, 0), (0, 1), (1, 0), (1, 1)]


def test_enumerate_reels_root_only(tiny_state):
    reels = rs.enumerate_reels(leaf(tiny_state, 0, reason=rs.LEAF_ALL_DEAD))
    assert len(reels) == 1
    assert reels[0].probability == 1.0
    assert reels[0].leaf_reason == rs.LEAF_ALL_DEAD
    assert reels[0].indices == ()


# -------------------------------------------------------------- expansion


def test_depth_zero_tree_is_a_leaf(tiny_state, params):
    tree = small_tree(tiny_state, params, depth_max=0)
    assert tree.is_leaf
    assert tree.leaf_reason == rs.LEAF_MAX_DEPTH
    assert tree.state == tiny_state
    assert tree.dropped_mass == 0.0


def test_all_dead_root_is_a_leaf(params, three_agent_tactics):
    state = rs.State(tactics=three_agent_tactics, sizes=np.zeros(3))
    tree = small_tree(state, params, depth_max=3)
    assert tree.is_leaf
    assert tree.leaf_reason == rs.LEAF_ALL_DEAD


def test_tree_depths_and_leaf_reasons(tiny_state, params):
    tree = small_tree(tiny_state, params, depth_max=2)

    def walk(n, depth):
        assert n.depth == depth
        if n.is_leaf:
            assert n.leaf_reason in {
                rs.LEAF_MAX_DEPTH,
                rs.LEAF_ALL_DEAD,
                rs.LEAF_EMPTY,
                rs.LEAF_PRUNED,
            }
        else:
            assert n.leaf_reason is None
            for edge in n.children:
                walk(edge.child, depth + 1)

    walk(tree, 0)
    assert not tree.is_leaf


def test_tree_children_respect_pruning(tiny_state, params):
    tree = small_tree(tiny_state, params, depth_max=1, branch_k=2, p_min=0.05)
    assert len(tree.children) <= 2
    for edge in tree.children:
        assert edge.probability >= 0.05
    kept = sum(edge.probability for edge in tree.children)
    assert tree.dropped_mass == pytest.approx(max(0.0, 1.0 - kept), abs=1e-12)


def test_tree_everything_pruned_leaves_marker(tiny_state, params):
    # an impossible bar prunes every frame away
    tree = small_tree(tiny_state, params, depth_max=1, p_min=0.999)
    assert tree.is_leaf
    assert tree.leaf_reason == rs.LEAF_PRUNED
    assert tree.dropped_mass == 1.0


def test_root_expansion_matches_direct_distribution(tiny_state, params):
    cfg = rs.SamplerConfig(rng_seed=11, rounding=0.25, local_mix=0.8)
    sim = small_sim(depth_max=1, branch_k=3)
    tree = rs.build_reel_tree(tiny_state, params, cfg, sim)
    direct = rs.transition_distribution(tiny_state, params, cfg, sim)
    assert len(tree.children) == min(3, len(direct.frames))
    for edge, frame in zip(tree.children, direct.frames):
        assert edge.probability == frame.probability
        assert np.array_equal(edge.child.state.tactics, frame.tactics)
        assert np.array_equal(edge.child.state.sizes, frame.sizes)


def test_child_expansion_matches_its_node_seed(tiny_state, params):
    cfg = rs.SamplerConfig(rng_seed=11, rounding=0.25, local_mix=0.8)
    tree = rs.build_reel_tree(tiny_state, params, cfg, small_sim())
    child = tree.children[0].child
    assert not child.is_leaf
    node_cfg = dataclasses.replace(cfg, rng_seed=rs.stream_key(11, rs.NODE_STREAM, 0))
    replay = rs.transition_distribution(child.state, params, node_cfg, small_sim())
    for edge, frame in zip(child.children, replay.frames):
        assert edge.probability == frame.probability
        assert np.array_equal(edge.child.state.sizes, frame.sizes)


def test_tree_is_deterministic(tiny_state, params):
    def signature(n):
        return (
            n.depth,
            n.leaf_reason,
            n.dropped_mass,
            n.state.sizes.tobytes(),
            tuple((edge.probability, signature(edge.child)) for edge in n.children),
        )

    assert signature(small_tree(tiny_state, params)) == signature(small_tree(tiny_state, params))


@pytest.mark.parametrize("depth_max", [2, 3])
def test_shipped_siblings_are_distinct_states(shipped, depth_max):
    sim = dataclasses.replace(shipped.sim, depth_max=depth_max)
    tree = rs.build_reel_tree(shipped.state, shipped.params, shipped.sampler, sim)
    expanded = [tree]
    for node in expanded:
        children = [edge.child for edge in node.children]
        states = {(c.state.tactics.tobytes(), c.state.sizes.tobytes()) for c in children}
        assert len(states) == len(children)
        expanded.extend(child for child in children if child.children)
    assert len(expanded) > 1


def test_dropped_mass_adds_kept_probabilities_in_order(tiny_state, params, monkeypatch):
    # added in order each 2**-54 is lost against 0.5, so 0.5 is dropped; a
    # compensated sum would keep 0.5 + 5 * 2**-53 and drop less
    probabilities = [0.5] + [2.0**-54] * 10
    frames = tuple(rs.Frame(tiny_state.tactics, tiny_state.sizes, p, 1, p) for p in probabilities)
    diagnostics = rs.TransitionDiagnostics(11, 11, 11, 1.0, 0, np.zeros(3), True)
    distribution = rs.FrameDistribution(frames, diagnostics)
    monkeypatch.setattr("reelsim.reels.transition_distribution", lambda *a, **k: distribution)
    sim = small_sim(depth_max=1, branch_k=11)
    tree = rs.build_reel_tree(tiny_state, params, rs.SamplerConfig(), sim)
    assert len(tree.children) == 11
    assert tree.dropped_mass == 0.5


# ------------------------------------------------------- worker processes


def tree_bytes(tree, names):
    reels = rs.enumerate_reels(tree)
    return (
        rs.export_reels_json(tree, reels, names),
        rs.export_tree_dot(tree),
        rs.export_reel_table_csv(reels, names),
    )


@pytest.mark.parametrize("depth_max", [2, 3])
def test_worker_count_changes_no_exported_byte(shipped, depth_max, forks, cpus):
    cpus(3)
    sim = dataclasses.replace(shipped.sim, depth_max=depth_max)
    names = list(shipped.agents)
    serial = tree_bytes(rs.build_reel_tree(shipped.state, shipped.params, shipped.sampler, sim), names)
    assert not forks
    for workers in (2, 3):
        tree = rs.build_reel_tree(shipped.state, shipped.params, shipped.sampler, sim, workers)
        assert tree_bytes(tree, names) == serial
    # depth 2 forks on level 1 only (1 child, then 2); depth 3 on levels 1 and 2
    assert len(forks) == (depth_max - 1) * 3


@pytest.mark.parametrize("workers, cpu_count", [(1, 3), (2, 3), (3, 2), (3, 3), (5, 3)])
def test_level_forks_at_most_workers_cpus_and_width(
    tiny_state, params, monkeypatch, forks, cpus, workers, cpu_count
):
    cpus(cpu_count)
    levels = []  # (width, children forked) per level
    expand_level = rs.reels._expand_level

    def counted(expand, paths, workers):
        before = len(forks)
        results = expand_level(expand, paths, workers)
        levels.append((len(paths), len(forks) - before))
        return results

    monkeypatch.setattr(rs.reels, "_expand_level", counted)
    tree = small_tree(tiny_state, params, depth_max=3, branch_k=3, workers=workers)
    assert [width for width, _ in levels] == [1, 3, 9]
    assert levels == [(width, min(workers, cpu_count, width) - 1) for width, _ in levels]
    monkeypatch.undo()
    assert tree_bytes(tree, ["a", "b", "c"]) == tree_bytes(
        small_tree(tiny_state, params, depth_max=3, branch_k=3), ["a", "b", "c"]
    )


@pytest.mark.parametrize("failing", [{(1,), (2,)}, {(0,), (2,)}, {(2,)}])
def test_first_failing_node_in_path_order_raises_at_every_worker_count(
    tiny_state, params, monkeypatch, cpus, failing
):
    cpus(3)
    paths = {rs.stream_key(11, rs.NODE_STREAM, *path): path for path in failing}
    distribution = rs.reels.transition_distribution

    def failing_at_paths(state, params, cfg, sim):
        if cfg.rng_seed in paths:
            raise ValueError(f"node {paths[cfg.rng_seed]} failed")
        return distribution(state, params, cfg, sim)

    monkeypatch.setattr(rs.reels, "transition_distribution", failing_at_paths)
    for workers in (1, 2, 3):
        with pytest.raises(ValueError, match=f"^{re.escape(f'node {min(failing)} failed')}$"):
            small_tree(tiny_state, params, depth_max=2, branch_k=3, workers=workers)
        with pytest.raises(ChildProcessError):  # every child was waited for
            os.waitpid(-1, os.WNOHANG)


def test_failed_fork_leaves_no_child(tiny_state, params, monkeypatch, cpus):
    cpus(3)
    fork = os.fork
    calls = []

    def fork_once():
        calls.append(None)
        if len(calls) > 1:
            raise BlockingIOError("fork refused")
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    with pytest.raises(BlockingIOError, match="^fork refused$"):
        small_tree(tiny_state, params, depth_max=2, branch_k=3, workers=3)
    assert len(calls) == 2  # the level of 3 nodes forked one child, then failed
    with pytest.raises(ChildProcessError):  # and that child was waited for
        os.waitpid(-1, os.WNOHANG)


def test_build_is_serial_where_fork_is_missing(tiny_state, params, monkeypatch, cpus):
    cpus(3)
    serial = tree_bytes(small_tree(tiny_state, params, depth_max=3, branch_k=3), ["a", "b", "c"])
    monkeypatch.delattr(os, "fork")
    tree = small_tree(tiny_state, params, depth_max=3, branch_k=3, workers=3)
    assert tree_bytes(tree, ["a", "b", "c"]) == serial


def test_fork_warning_about_threads_is_not_shown(tiny_state, params, monkeypatch, forks, cpus):
    # From Python 3.12 os.fork warns so in a process with threads, as numpy
    # makes this one; the test suite turns any DeprecationWarning into an error
    cpus(2)
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            message = (
                f"This process (pid={os.getpid()}) is multi-threaded, "
                "use of fork() may lead to deadlocks in the child."
            )
            warnings.warn(message, DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        small_tree(tiny_state, params, depth_max=2, branch_k=3, workers=2)
    assert len(forks) == 1
    assert caught == []


def test_workers_must_be_positive(tiny_state, params):
    with pytest.raises(ValueError, match="workers must be at least 1"):
        small_tree(tiny_state, params, workers=0)


@pytest.mark.parametrize("cpu_count", [2, 3])
def test_workers_must_be_an_integer_on_every_host(
    tiny_state, params, monkeypatch, forks, cpus, cpu_count
):
    cpus(cpu_count)
    expanded = []
    monkeypatch.setattr(rs.reels, "_expand", lambda *args: expanded.append(args))
    with pytest.raises(ValueError, match=r"^workers must be an integer \(got 2\.5\)$"):
        small_tree(tiny_state, params, depth_max=2, branch_k=3, workers=2.5)
    assert expanded == [] and forks == []


def test_build_is_serial_where_the_platform_reports_no_cpus(tiny_state, params, monkeypatch, forks):
    serial = tree_bytes(small_tree(tiny_state, params, depth_max=3, branch_k=3), ["a", "b", "c"])
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    tree = small_tree(tiny_state, params, depth_max=3, branch_k=3, workers=3)
    assert forks == []
    assert tree_bytes(tree, ["a", "b", "c"]) == serial


# ------------------------------------------------------------ enumeration


def test_enumerated_reels_cover_unpruned_mass(tiny_state, params):
    tree = small_tree(tiny_state, params, depth_max=1, branch_k=64, p_min=0.0)
    reels = rs.enumerate_reels(tree)
    assert abs(sum(reel.probability for reel in reels) - 1.0) <= 1e-9
    assert all(reel.leaf_reason is not None for reel in reels)


def test_enumerated_reels_match_tree_paths(tiny_state, params):
    tree = small_tree(tiny_state, params, depth_max=2)
    reels = rs.enumerate_reels(tree)
    probs = [reel.probability for reel in reels]
    assert probs == sorted(probs, reverse=True)
    for reel in reels:
        n = tree
        for step, index in enumerate(reel.indices):
            assert reel.edge_probabilities[step] == n.children[index].probability
            n = n.children[index].child
        assert n.is_leaf
        assert reel.leaf_reason == n.leaf_reason
        assert reel.path[-1] == n.state
        assert reel.probability == math.prod(reel.edge_probabilities)
