"""DOT, CSV, and JSON artifact generation."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

import reelsim as rs


# ----------------------------------------------------------------- state DOT


def test_state_dot_worked_example(three_agent_state):
    dot = rs.export_state_dot(three_agent_state, ["minor", "major", "middle"])
    assert dot.startswith("digraph state {")
    assert dot.endswith("}\n")
    for fragment in ("n0 [", "n1 [", "n2 ["):
        assert fragment in dot
    # four nonzero off-diagonal allocations, exactly one of them hostile
    edges = [line for line in dot.splitlines() if "->" in line]
    assert len(edges) == 4
    assert sum("color=red" in line for line in edges) == 1
    assert sum("color=green" in line for line in edges) == 3
    assert "n0 -> n1 [color=red" in dot
    assert 'label="minor\\ns=0.3\\nself=0.7"' in dot


def test_state_dot_no_self_loops(three_agent_state):
    dot = rs.export_state_dot(three_agent_state)
    for index in range(3):
        assert f"n{index} -> n{index} " not in dot


def test_state_dot_identity_has_no_edges(params):
    state = rs.State(tactics=np.eye(2), sizes=np.array([1.0, 0.5]))
    dot = rs.export_state_dot(state)
    assert "->" not in dot
    assert "self=1" in dot


def test_state_dot_marks_dead_agents(three_agent_tactics):
    state = rs.State(tactics=three_agent_tactics, sizes=np.array([0.0, 1.0, 0.5]))
    dot = rs.export_state_dot(state)
    assert "(dead)" in dot
    assert "width=0.400" in dot


def test_state_dot_default_names(three_agent_state):
    dot = rs.export_state_dot(three_agent_state)
    assert "a1" in dot and "a3" in dot


def test_state_dot_name_count_checked(three_agent_state):
    with pytest.raises(ValueError, match="got 2 names for 3 agents"):
        rs.export_state_dot(three_agent_state, ["a", "b"])


def test_state_dot_escapes_quotes(three_agent_tactics):
    state = rs.State(tactics=three_agent_tactics, sizes=np.array([0.3, 1.0, 0.6]))
    dot = rs.export_state_dot(state, ['say "hi"', "b", "c"])
    assert '\\"hi\\"' in dot


# ------------------------------------------------------------------ tree DOT


def build_chain_tree(state):
    grandchild = rs.ReelNode(
        state=state, depth=2, children=(), leaf_reason=rs.LEAF_MAX_DEPTH, dropped_mass=0.0
    )
    child = rs.ReelNode(
        state=state,
        depth=1,
        children=(rs.ReelEdge(0.5, grandchild),),
        leaf_reason=None,
        dropped_mass=0.25,
    )
    return rs.ReelNode(
        state=state,
        depth=0,
        children=(rs.ReelEdge(0.1, child),),
        leaf_reason=None,
        dropped_mass=0.9,
    )


def test_tree_dot_chain(three_agent_state):
    dot = rs.export_tree_dot(build_chain_tree(three_agent_state))
    assert dot.startswith("digraph reels {")
    assert 'root -> n0 [label="0.100"];' in dot
    assert 'n0 -> n0_0 [label="0.500"];' in dot
    assert "dropped=0.900" in dot
    assert "max_depth" in dot
    assert "[0.300, 1.000, 0.600]" in dot


def test_tree_dot_single_leaf(three_agent_state):
    node = rs.ReelNode(
        state=three_agent_state, depth=0, children=(), leaf_reason=rs.LEAF_ALL_DEAD, dropped_mass=0.0
    )
    dot = rs.export_tree_dot(node)
    assert "->" not in dot
    assert "all_dead" in dot


# ----------------------------------------------------------------- sizes CSV


def test_sizes_csv_header_only():
    text = rs.export_sizes_csv([], ["a", "b"])
    assert text == "a,b\n"


def test_sizes_csv_round_trips_exact_floats(three_agent_state, params):
    rows = rs.evolve(three_agent_state, params, 2)
    text = rs.export_sizes_csv(rows, ["minor", "major", "middle"])
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["minor", "major", "middle"]
    for row_index, row in enumerate(parsed[1:]):
        values = np.array([float(cell) for cell in row])
        assert np.array_equal(values, rows[row_index])


def test_sizes_csv_quotes_awkward_names():
    text = rs.export_sizes_csv([[1.0]], ["name, with comma"])
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["name, with comma"]


def test_sizes_csv_checks_row_width():
    with pytest.raises(ValueError, match="2 values for 3 agents"):
        rs.export_sizes_csv([[1.0, 2.0]], ["a", "b", "c"])


# --------------------------------------------------------------- frames JSON


@pytest.fixture
def small_distribution(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=11, rounding=0.25, local_mix=0.8)
    sim = rs.SimSettings(lines=60, horizon=2, candidates=4)
    return rs.transition_distribution(three_agent_state, params, cfg, sim)


def test_frames_json_document(small_distribution):
    text = rs.export_frames_json(small_distribution, ["minor", "major", "middle"])
    doc = json.loads(text)
    assert doc["agents"] == ["minor", "major", "middle"]
    assert len(doc["frames"]) == len(small_distribution.frames)
    probs = [frame["probability"] for frame in doc["frames"]]
    assert probs == sorted(probs, reverse=True)
    first = doc["frames"][0]
    frame = small_distribution.frames[0]
    assert first["support"] == frame.support
    assert first["probability"] == frame.probability
    # agent-major rows mirror the scenario convention
    assert first["tactics"][0] == [float(v) for v in frame.tactics[:, 0]]
    # one frame per next state: its tactics are its identity, no grid key
    assert list(first) == ["probability", "support", "weight", "tactics", "sizes"]
    diag = doc["diagnostics"]
    # the block is the record itself: every field, in declaration order
    assert list(diag) == [field.name for field in dataclasses.fields(rs.TransitionDiagnostics)]
    assert diag["lines_generated"] == 60
    assert diag["clusters"] == len(small_distribution.frames)
    assert len(diag["minimax"]) == 3
    assert isinstance(diag["exhaustive_game"], bool)


def test_frames_json_is_deterministic(small_distribution):
    names = ["a", "b", "c"]
    assert rs.export_frames_json(small_distribution, names) == rs.export_frames_json(
        small_distribution, names
    )


# ---------------------------------------------------------------- reels JSON


@pytest.fixture
def small_tree(three_agent_state, params):
    cfg = rs.SamplerConfig(rng_seed=11, rounding=0.25, local_mix=0.8)
    sim = rs.SimSettings(lines=60, horizon=2, depth_max=1, branch_k=3, p_min=0.0, candidates=4)
    return rs.build_reel_tree(three_agent_state, params, cfg, sim)


def test_reels_json_document(small_tree):
    reels = rs.enumerate_reels(small_tree)
    text = rs.export_reels_json(small_tree, reels, ["minor", "major", "middle"])
    doc = json.loads(text)
    assert doc["tree"]["depth"] == 0
    assert len(doc["tree"]["children"]) == len(small_tree.children)
    child = doc["tree"]["children"][0]
    assert child["probability"] == small_tree.children[0].probability
    assert child["node"]["leaf_reason"] == "max_depth"
    assert len(doc["reels"]) == len(reels)
    for entry, reel in zip(doc["reels"], reels):
        assert entry["probability"] == reel.probability
        assert entry["steps"] == len(reel.indices)
        assert entry["final_sizes"] == [float(v) for v in reel.path[-1].sizes]


def test_reel_table_csv(small_tree):
    reels = rs.enumerate_reels(small_tree)
    text = rs.export_reel_table_csv(reels, ["minor", "major", "middle"])
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["rank", "probability", "steps", "leaf_reason", "minor", "major", "middle"]
    assert len(parsed) == len(reels) + 1
    ranks = [int(row[0]) for row in parsed[1:]]
    assert ranks == list(range(1, len(reels) + 1))
    probs = [float(row[1]) for row in parsed[1:]]
    assert probs == [reel.probability for reel in reels]
    assert probs == sorted(probs, reverse=True)
    for row, reel in zip(parsed[1:], reels):
        assert int(row[2]) == len(reel.indices)
        assert row[3] == reel.leaf_reason
        assert [float(cell) for cell in row[4:]] == [float(v) for v in reel.path[-1].sizes]
