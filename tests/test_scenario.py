"""Scenario document parsing, validation, and round-tripping."""

import json
from pathlib import Path

import numpy as np
import pytest

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
