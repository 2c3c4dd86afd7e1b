"""Scenario document parsing, validation, and round-tripping."""

import json
from functools import reduce
from operator import getitem
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reelsim as rs


def parse(payload):
    return rs.parse_scenario(json.dumps(payload))


def test_parse_full_document(scenario_payload):
    scenario = parse(scenario_payload)
    assert scenario.agents == ("minor", "major", "middle")
    assert np.array_equal(scenario.state.sizes, [0.3, 1.0, 0.6])
    # row i of the file is agent i's outgoing column
    assert np.array_equal(scenario.state.tactics[:, 0], [0.7, -0.1, 0.2])
    assert np.array_equal(scenario.state.tactics[:, 2], [0.0, 0.0, 1.0])
    assert scenario.params == rs.ModelParams()
    assert scenario.sim.lines == 60
    assert scenario.sim.seed == 11
    assert scenario.sampler.rounding == 0.25
    assert scenario.sampler.rng_seed == scenario.sim.seed


def test_defaults_fill_missing_blocks(scenario_payload):
    del scenario_payload["params"]
    del scenario_payload["sim"]
    scenario = parse(scenario_payload)
    assert scenario.params == rs.ModelParams()
    assert scenario.sim == rs.SimSettings()
    assert scenario.sampler == rs.SamplerConfig(rng_seed=0)


def test_sizes_are_normalized_with_warning(scenario_payload):
    scenario_payload["sizes"] = [2.0, 4.0, 1.0]
    with pytest.warns(UserWarning, match="rescaled so the largest agent has size 1"):
        scenario = parse(scenario_payload)
    assert scenario.state.sizes.tolist() == [0.5, 1.0, 0.25]


def test_normalized_sizes_pass_silently(scenario_payload, recwarn):
    parse(scenario_payload)
    assert not [w for w in recwarn if issubclass(w.category, UserWarning)]


def test_malformed_json_is_reported():
    with pytest.raises(rs.ScenarioError, match="malformed scenario file"):
        rs.parse_scenario("{not json")
    with pytest.raises(rs.ScenarioError, match="JSON object"):
        rs.parse_scenario("[1, 2]")


def test_schema_is_checked(scenario_payload):
    scenario_payload["schema"] = 99
    with pytest.raises(rs.ScenarioError, match="unsupported schema 99"):
        parse(scenario_payload)
    del scenario_payload["schema"]
    with pytest.raises(rs.ScenarioError, match="unsupported schema"):
        parse(scenario_payload)


def test_unknown_fields_are_rejected(scenario_payload):
    bad = dict(scenario_payload, extra=1)
    with pytest.raises(rs.ScenarioError, match="unknown top-level field 'extra'"):
        parse(bad)
    scenario_payload["params"] = dict(scenario_payload["params"], gamma=2.0)
    with pytest.raises(rs.ScenarioError, match="params: unknown field 'gamma'"):
        parse(scenario_payload)


def test_unknown_sampler_field(scenario_payload):
    scenario_payload["sim"]["sampler"]["noise"] = 0.1
    with pytest.raises(rs.ScenarioError, match="sampler: unknown field 'noise'"):
        parse(scenario_payload)


def test_agent_list_validation(scenario_payload):
    for agents in ([], ["a", 2, "c"], ["a", "", "c"], "abc"):
        payload = dict(scenario_payload, agents=agents)
        with pytest.raises(rs.ScenarioError, match="agents must be a nonempty list"):
            parse(payload)


def test_size_validation(scenario_payload):
    payload = dict(scenario_payload, sizes=[0.3, 1.0])
    with pytest.raises(rs.ScenarioError, match="3 agents but 2 sizes"):
        parse(payload)
    payload = dict(scenario_payload, sizes=[0.3, 1.0, -0.1])
    with pytest.raises(rs.ScenarioError, match="nonnegative"):
        parse(payload)
    payload = dict(scenario_payload, sizes=[0.3, "big", 0.6])
    with pytest.raises(rs.ScenarioError, match="sizes must be a nonempty list of numbers"):
        parse(payload)
    payload = dict(scenario_payload, sizes=[0.0, 0.0, 0.0])
    with pytest.raises(rs.ScenarioError, match="sizes: cannot normalize"):
        parse(payload)


def test_tactics_validation(scenario_payload):
    payload = dict(scenario_payload, tactics=scenario_payload["tactics"][:2])
    with pytest.raises(rs.ScenarioError, match="expected 3 tactic rows"):
        parse(payload)
    rows = [row[:] for row in scenario_payload["tactics"]]
    rows[1] = [0.1, 0.8]
    payload = dict(scenario_payload, tactics=rows)
    with pytest.raises(rs.ScenarioError, match="row 1 has 2 entries"):
        parse(payload)
    rows = [row[:] for row in scenario_payload["tactics"]]
    rows[0] = [0.7, -0.1, 0.3]
    payload = dict(scenario_payload, tactics=rows)
    with pytest.raises(rs.ScenarioError, match="tactics: column 0"):
        parse(payload)


def test_param_validation_names_the_block(scenario_payload):
    scenario_payload["params"]["beta"] = 0.9
    with pytest.raises(rs.ScenarioError, match="params: benevolence multiplier must exceed 1"):
        parse(scenario_payload)


def test_sim_validation_names_the_block(scenario_payload):
    scenario_payload["sim"]["lines"] = 0
    with pytest.raises(rs.ScenarioError, match="sim: lines must be at least 1"):
        parse(scenario_payload)


def test_sampler_validation_names_the_block(scenario_payload):
    scenario_payload["sim"]["sampler"]["p_neg"] = 1.5
    with pytest.raises(rs.ScenarioError, match=r"sampler: p_neg must lie in \[0, 1\]"):
        parse(scenario_payload)


def test_rounding_too_fine_for_a_float_is_rejected(scenario_payload):
    # 1 / 1e-320 overflows to infinity, which has no nearest integer
    scenario_payload["sim"]["sampler"]["rounding"] = 1e-320
    with pytest.raises(rs.ScenarioError, match="sampler: 1/rounding must be an integer"):
        parse(scenario_payload)


def test_booleans_are_not_numbers(scenario_payload):
    scenario_payload["sizes"] = [0.3, True, 0.6]
    with pytest.raises(rs.ScenarioError, match="sizes must be a nonempty list of numbers"):
        parse(scenario_payload)


@pytest.mark.parametrize("sizes", [[float("nan"), 1.0, 0.6], [0.3, float("inf"), 0.6]])
def test_non_finite_numbers_are_rejected(scenario_payload, sizes):
    scenario_payload["sizes"] = sizes
    with pytest.raises(rs.ScenarioError, match="non-finite number"):
        parse(scenario_payload)


@pytest.mark.parametrize(
    "literal, message",
    [("1e999", "1e999 is too large"), ("1" + "0" * 309, "310 digits is too large")],
)
def test_overflowing_literal_is_rejected(scenario_payload, literal, message):
    text = json.dumps(scenario_payload).replace('"mu": 3.0', f'"mu": {literal}')
    with pytest.raises(rs.ScenarioError, match=message):
        rs.parse_scenario(text)
    text = json.dumps(scenario_payload).replace('"sizes": [0.3,', f'"sizes": [{literal},')
    with pytest.raises(rs.ScenarioError, match=message):
        rs.parse_scenario(text)


@pytest.mark.parametrize(
    "field, value",
    [("lines", 20.5), ("lines", True), ("seed", 1.5), ("candidates", 4.0), ("max_profiles", False)],
)
def test_integer_settings_refuse_floats_and_booleans(scenario_payload, field, value):
    scenario_payload["sim"][field] = value
    with pytest.raises(rs.ScenarioError, match=f"sim: {field} must be an integer"):
        parse(scenario_payload)


def test_settings_are_type_checked(scenario_payload):
    bad = json.loads(json.dumps(scenario_payload))
    bad["params"]["beta"] = "1.2"
    with pytest.raises(rs.ScenarioError, match='params: beta must be a number \\(got "1.2"\\)'):
        parse(bad)
    bad = json.loads(json.dumps(scenario_payload))
    bad["sim"]["p_min"] = True
    with pytest.raises(rs.ScenarioError, match="sim: p_min must be a number"):
        parse(bad)
    bad = json.loads(json.dumps(scenario_payload))
    bad["sim"]["sampler"]["allow_negative_diagonal"] = 1
    with pytest.raises(rs.ScenarioError, match="sampler: allow_negative_diagonal must be true or false"):
        parse(bad)


def test_round_trip_is_identity(scenario_payload):
    first = parse(scenario_payload)
    text = rs.serialize_scenario(first)
    second = rs.parse_scenario(text)
    assert second.agents == first.agents
    assert second.state == first.state
    assert second.params == first.params
    assert second.sampler == first.sampler
    assert second.sim == first.sim
    assert rs.serialize_scenario(second) == text


def test_with_seed_repoints_every_seed(scenario_payload):
    scenario = parse(scenario_payload)
    reseeded = rs.with_seed(scenario, 99)
    assert reseeded.sim.seed == 99
    assert reseeded.sampler.rng_seed == 99
    assert reseeded.state == scenario.state
    assert scenario.sim.seed == 11


def test_shipped_scenario_parses():
    path = Path(__file__).resolve().parents[1] / "scenarios" / "three_agents.json"
    scenario = rs.parse_scenario(path.read_text())
    assert scenario.agents == ("minor", "major", "middle")
    assert scenario.state.sizes.max() == 1.0
    rs.validate_tactic_matrix(scenario.state.tactics)


# ------------------------------------------------------ property tests


def _numbers(low, high, **bounds):
    return st.floats(low, high, allow_nan=False, allow_infinity=False, **bounds)


@st.composite
def valid_documents(draw):
    """A complete scenario in the serializer's own layout: every field
    present, sizes already normalized, tactic rows summing to 1."""
    n = draw(st.integers(1, 5))
    sizes = draw(st.lists(_numbers(0.0, 1.0), min_size=n, max_size=n))
    sizes[draw(st.integers(0, n - 1))] = 1.0
    rows = []
    for agent in range(n):
        row = np.array(draw(st.lists(_numbers(-1.0, 1.0), min_size=n, max_size=n)))
        total = np.abs(row).sum()
        rows.append((row / total).tolist() if total > 0.0 else [float(j == agent) for j in range(n)])
    beta = draw(_numbers(1.0, 50.0, exclude_min=True))
    return {
        "schema": 1,
        "agents": draw(st.lists(st.text(min_size=1, max_size=6), min_size=n, max_size=n)),
        "sizes": sizes,
        "tactics": rows,
        "params": {
            "alpha": draw(_numbers(2.0, 3.0)),
            "beta": beta,
            "mu": draw(_numbers(beta, 100.0, exclude_min=True)),
            "delta": draw(_numbers(0.0, 1.0, exclude_min=True, exclude_max=True)),
            "sigma": draw(_numbers(0.0, 10.0, exclude_min=True)),
        },
        "sim": {
            "lines": draw(st.integers(1, 10**6)),
            "horizon": draw(st.integers(1, 50)),
            "depth_max": draw(st.integers(0, 10)),
            "branch_k": draw(st.integers(1, 10)),
            "p_min": draw(_numbers(0.0, 1.0)),
            "seed": draw(st.integers(0, 2**64)),
            "candidates": draw(st.integers(1, 100)),
            "max_profiles": draw(st.integers(1, 10**7)),
            "sampler": {
                "p_neg": draw(_numbers(0.0, 1.0)),
                "allow_negative_diagonal": draw(st.booleans()),
                "local_mix": draw(_numbers(0.0, 1.0)),
                "rounding": 1.0 / draw(st.integers(1, 1000)),
            },
        },
    }


@settings(max_examples=200, deadline=None)
@given(valid_documents())
def test_valid_documents_round_trip_byte_identically(doc):
    text = json.dumps(doc, indent=2) + "\n"
    assert rs.serialize_scenario(rs.parse_scenario(text)) == text


# Values that sit on or just past a boundary, mixed with arbitrary JSON.
_EDGE_VALUES = st.sampled_from(
    [0, 1, -1, 2**63, 0.0, -0.0, 0.5, 1.0, 1.5, 1e-320, 1e308, True, False, None, "", [], {}]
)
_JSON_VALUES = st.one_of(
    _EDGE_VALUES,
    st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
        lambda children: st.lists(children, max_size=3)
        | st.dictionaries(st.text(max_size=4), children, max_size=3),
        max_leaves=6,
    ),
)


def _paths(value, prefix=()):
    """Every position in a JSON value, as the keys and indices leading to it."""
    yield prefix
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def mutated_texts(draw):
    """A valid document with one to three fields replaced, deleted or
    added, sometimes cut short as text."""
    doc = draw(valid_documents())
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if not path:
            doc = draw(_JSON_VALUES)
            continue
        parent = reduce(getitem, path[:-1], doc)
        action = draw(st.sampled_from(["replace", "delete", "add"]))
        if action == "replace":
            parent[path[-1]] = draw(_JSON_VALUES)
        elif action == "delete":
            del parent[path[-1]]
        elif isinstance(parent, dict):
            parent[draw(st.text(max_size=8))] = draw(_JSON_VALUES)
        else:
            parent.append(draw(_JSON_VALUES))
    text = json.dumps(doc, indent=2)
    if draw(st.booleans()):
        text = text[: draw(st.integers(0, len(text)))]
    return text


@pytest.mark.filterwarnings("ignore:sizes rescaled")
@settings(max_examples=500, deadline=None)
@given(mutated_texts())
def test_mutated_documents_parse_or_raise_scenario_error(text):
    try:
        rs.parse_scenario(text)
    except rs.ScenarioError:
        pass
