"""Trees of futures: expansion, pruning, and path enumeration."""

import dataclasses

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


def small_tree(state, params, depth_max=2, seed=11, p_min=0.0, branch_k=2):
    cfg = rs.SamplerConfig(rng_seed=seed, rounding=0.25, local_mix=0.8)
    return rs.build_reel_tree(
        state, depth_max, branch_k, p_min, params, cfg, 50, 2, k_candidates=4
    )


# ------------------------------------------------------------- hand-built


def test_reel_probability_products(tiny_state):
    bare = rs.Reel(
        path=(tiny_state,), indices=(), edge_probabilities=(), probability=1.0, leaf_reason=None
    )
    assert rs.reel_probability(bare) == 1.0
    chain = rs.Reel(
        path=(tiny_state,) * 3,
        indices=(0, 1),
        edge_probabilities=(0.1, 0.5),
        probability=0.05,
        leaf_reason=rs.LEAF_MAX_DEPTH,
    )
    assert rs.reel_probability(chain) == 0.05


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
    tree = rs.build_reel_tree(
        tiny_state, 1, 3, 0.0, params, cfg, 50, 2, k_candidates=4
    )
    direct = rs.transition_distribution(
        tiny_state, params, cfg, 50, 2, k_candidates=4
    )
    assert len(tree.children) == min(3, len(direct.frames))
    for edge, frame in zip(tree.children, direct.frames):
        assert edge.probability == frame.probability
        assert np.array_equal(edge.child.state.tactics, frame.tactics)
        assert np.array_equal(edge.child.state.sizes, frame.sizes)


def test_child_expansion_matches_its_node_seed(tiny_state, params):
    cfg = rs.SamplerConfig(rng_seed=11, rounding=0.25, local_mix=0.8)
    tree = rs.build_reel_tree(
        tiny_state, 2, 2, 0.0, params, cfg, 50, 2, k_candidates=4
    )
    child = tree.children[0].child
    assert not child.is_leaf
    node_cfg = dataclasses.replace(cfg, rng_seed=rs.stream_key(11, rs.NODE_STREAM, 0))
    replay = rs.transition_distribution(child.state, params, node_cfg, 50, 2, k_candidates=4)
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


def test_build_reel_tree_rejects_bad_arguments(tiny_state, params):
    cfg = rs.SamplerConfig()
    with pytest.raises(ValueError, match="depth_max"):
        rs.build_reel_tree(tiny_state, -1, 2, 0.0, params, cfg, 10, 2)
    with pytest.raises(ValueError, match="branch_k"):
        rs.build_reel_tree(tiny_state, 1, 0, 0.0, params, cfg, 10, 2)
    with pytest.raises(ValueError, match="p_min"):
        rs.build_reel_tree(tiny_state, 1, 2, 1.5, params, cfg, 10, 2)


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
        assert reel.probability == rs.reel_probability(reel)
