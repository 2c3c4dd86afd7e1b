"""DOT, CSV, and JSON artifact generation."""

import csv
import dataclasses
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

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


def test_tree_dot_writes_each_edge_before_its_child(three_agent_tactics):
    # two children, the first with one child: every edge comes right
    # before the node it leads to, in preorder
    def node(sizes, depth, children=(), leaf_reason=None, dropped_mass=0.0):
        state = rs.State(three_agent_tactics, np.array(sizes))
        return rs.ReelNode(state, depth, children, leaf_reason, dropped_mass)

    grandchild = node([0.1, 1.0, 0.4], 2, leaf_reason=rs.LEAF_MAX_DEPTH)
    first = node([0.2, 1.0, 0.5], 1, (rs.ReelEdge(0.75, grandchild),), dropped_mass=0.25)
    second = node([0.0, 1.0, 0.7], 1, leaf_reason=rs.LEAF_PRUNED, dropped_mass=1.0)
    tree = node(
        [0.3, 1.0, 0.6], 0, (rs.ReelEdge(0.5, first), rs.ReelEdge(0.3, second)), dropped_mass=0.2
    )
    assert rs.export_tree_dot(tree) == (
        "digraph reels {\n"
        "  node [shape=box];\n"
        '  root [label="[0.300, 1.000, 0.600]\\ndropped=0.200"];\n'
        '  root -> n0 [label="0.500"];\n'
        '  n0 [label="[0.200, 1.000, 0.500]\\ndropped=0.250"];\n'
        '  n0 -> n0_0 [label="0.750"];\n'
        '  n0_0 [label="[0.100, 1.000, 0.400]\\nmax_depth"];\n'
        '  root -> n1 [label="0.300"];\n'
        '  n1 [label="[0.000, 1.000, 0.700]\\npruned_out\\ndropped=1.000"];\n'
        "}\n"
    )


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


# Finite floats with the edge cases json writes oddly mixed in.
finite_floats = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 5e-324, 1e308]),
)


def test_frames_json_name_count_checked(small_distribution):
    with pytest.raises(ValueError, match="got 1 names for 3 agents"):
        rs.export_frames_json(small_distribution, ["solo"])


@st.composite
def distributions(draw):
    """A FrameDistribution of 0 to 20 frames over n agents, 1 to 8, and
    agent names with unicode, quotes, backslashes and control characters."""
    n = draw(st.integers(1, 8))
    count = draw(st.integers(0, 20))
    # One row per frame: probability, weight, tactics, sizes.
    values = draw(hnp.arrays(float, (count, 2 + n * n + n), elements=finite_floats))
    supports = draw(st.lists(st.integers(0, 2**40), min_size=count, max_size=count))
    frames = tuple(
        rs.Frame(
            tactics=row[2 : 2 + n * n].reshape(n, n),
            sizes=row[2 + n * n :],
            probability=float(row[0]),
            support=support,
            weight=float(row[1]),
        )
        for row, support in zip(values, supports)
    )
    diagnostics = rs.TransitionDiagnostics(
        lines_generated=draw(st.integers(0, 10**6)),
        lines_retained=draw(st.integers(0, 10**6)),
        clusters=len(frames),
        total_weight=draw(finite_floats),
        equilibria=draw(st.integers(0, 100)),
        minimax=draw(hnp.arrays(float, n, elements=finite_floats)),
        exhaustive_game=draw(st.booleans()),
    )
    characters = st.one_of(st.characters(), st.sampled_from('"\\\x00\x1f\x7f\u2028\U0001f600'))
    names = draw(st.lists(st.text(characters, max_size=6), min_size=n, max_size=n))
    return rs.FrameDistribution(frames=frames, diagnostics=diagnostics), names


def dumped_frames_json(distribution, names):
    """The document as json.dumps(indent=2) writes it."""
    diagnostics = distribution.diagnostics
    payload = {
        "agents": list(names),
        "frames": [
            {
                "probability": frame.probability,
                "support": frame.support,
                "weight": frame.weight,
                "tactics": frame.tactics.T.tolist(),
                "sizes": frame.sizes.tolist(),
            }
            for frame in distribution.frames
        ],
        "diagnostics": {**vars(diagnostics), "minimax": diagnostics.minimax.tolist()},
    }
    return json.dumps(payload, indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(distributions())
def test_frames_json_equals_json_dumps(case):
    distribution, names = case
    assert rs.export_frames_json(distribution, names) == dumped_frames_json(distribution, names)


def test_frames_json_of_a_run_equals_json_dumps(small_distribution):
    names = ["minor", "major", "middle"]
    text = rs.export_frames_json(small_distribution, names)
    assert text == dumped_frames_json(small_distribution, names)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("field", ["weight", "probability", "tactics", "sizes"])
def test_frames_json_rejects_non_finite_values(small_distribution, field, value):
    frame = small_distribution.frames[0]
    if field in ("tactics", "sizes"):
        array = getattr(frame, field).copy()
        array.flat[-1] = value
        value = array
    broken = dataclasses.replace(frame, **{field: value})
    distribution = dataclasses.replace(
        small_distribution, frames=(broken, *small_distribution.frames[1:])
    )
    with pytest.raises(ValueError, match="finite"):
        rs.export_frames_json(distribution, ["a", "b", "c"])


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


def test_reels_json_name_count_checked(small_tree):
    reels = rs.enumerate_reels(small_tree)
    with pytest.raises(ValueError, match="got 1 names for 3 agents"):
        rs.export_reels_json(small_tree, reels, ["solo"])


def test_reel_table_csv_name_count_checked(small_tree):
    reels = rs.enumerate_reels(small_tree)
    with pytest.raises(ValueError, match="got 1 names for 3 agents"):
        rs.export_reel_table_csv(reels, ["solo"])
