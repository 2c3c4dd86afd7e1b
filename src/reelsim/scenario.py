"""Scenario files: the JSON documents the command line reads and writes.

A scenario bundles the cast of agents, their starting state, the model
parameters, and the simulation settings. Tactics are stored agent-major
(row i is agent i's outgoing allocations) because that is the natural
authoring order; internally they become the column-per-agent matrix.
"""

from __future__ import annotations

import dataclasses
import json
import math
import sys
import typing
import warnings
from dataclasses import dataclass

import numpy as np

from .core import ModelParams, State, TacticMatrixError, normalize_sizes, validate_tactic_matrix
from .equilibrium import DEFAULT_CANDIDATES, DEFAULT_MAX_PROFILES
from .sampling import SamplerConfig

SCHEMA_VERSION = 1
# tree.json nests three encoder frames per level, so a deeper chain would
# exhaust Python's recursion limit after the whole expansion.
MAX_DEPTH = 256

class ScenarioError(ValueError):
    """Raised when a scenario document cannot become a runnable setup."""


@dataclass(frozen=True)
class SimSettings:
    """The run budget that transition_distribution and build_reel_tree read.

    lines and horizon size each transition distribution; depth_max,
    branch_k, and p_min shape the reel tree; candidates and max_profiles
    bound the stage games. Every value is checked here, once. The seed is
    not a setting: it is the sampler's rng_seed.
    """

    lines: int = 2000
    horizon: int = 5
    depth_max: int = 2
    branch_k: int = 4
    p_min: float = 0.02
    candidates: int = DEFAULT_CANDIDATES
    max_profiles: int = DEFAULT_MAX_PROFILES

    def __post_init__(self):
        if self.lines < 1:
            raise ValueError(f"lines must be at least 1 (got {self.lines})")
        if self.horizon < 1:
            raise ValueError(f"horizon must be at least 1 (got {self.horizon})")
        if not 0 <= self.depth_max <= MAX_DEPTH:
            raise ValueError(f"depth_max must lie in [0, {MAX_DEPTH}] (got {self.depth_max})")
        if self.branch_k < 1:
            raise ValueError(f"branch_k must be at least 1 (got {self.branch_k})")
        if not 0.0 <= self.p_min <= 1.0:
            raise ValueError(f"p_min must lie in [0, 1] (got {self.p_min})")
        if self.candidates < 1:
            raise ValueError(f"candidates must be at least 1 (got {self.candidates})")
        if self.max_profiles < 1:
            raise ValueError(f"max_profiles must be at least 1 (got {self.max_profiles})")


def _field_names(cls, *skip: str) -> tuple[str, ...]:
    return tuple(field.name for field in dataclasses.fields(cls) if field.name not in skip)


_PARAM_FIELDS = _field_names(ModelParams)
_SIM_FIELDS = _field_names(SimSettings)
# The file stores the sampler's rng_seed as sim.seed.
_SAMPLER_FIELDS = _field_names(SamplerConfig, "rng_seed")
# The JSON type each settings field must have; booleans are not numbers.
_FIELD_TYPES = {
    name: {float: "a number", int: "an integer", bool: "true or false"}[kind]
    for cls in (ModelParams, SimSettings, SamplerConfig)
    for name, kind in typing.get_type_hints(cls).items()
}
_FIELD_TYPES["seed"] = _FIELD_TYPES["rng_seed"]
_JSON_TYPES = {"a number": (int, float), "an integer": (int,), "true or false": (bool,)}


@dataclass(frozen=True)
class Scenario:
    """A parsed scenario: cast, starting state, parameters, settings."""

    agents: tuple[str, ...]
    state: State
    params: ModelParams
    sampler: SamplerConfig
    sim: SimSettings


def with_seed(scenario: Scenario, seed: int) -> Scenario:
    """Copy of the scenario with the sampler's rng_seed replaced."""
    return dataclasses.replace(
        scenario, sampler=dataclasses.replace(scenario.sampler, rng_seed=seed)
    )


def parse_scenario(text: str | bytes) -> Scenario:
    """Parse and fully validate a scenario document.

    Sizes whose maximum is not 1 are normalized with a warning. All
    structural problems raise ScenarioError naming the offending field,
    non-finite numbers (NaN, Infinity, or a literal too large for a
    float) included; so do bytes that are not UTF-8 and nesting too
    deep to decode.
    """
    try:
        raw = json.loads(
            text,
            parse_constant=_reject_constant,
            parse_float=_finite_float,
            parse_int=_finite_int,
        )
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as err:
        raise ScenarioError(f"malformed scenario file: {err}") from None
    if not isinstance(raw, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(raw) - {"schema", "agents", "sizes", "tactics", "params", "sim"}
    if unknown:
        raise ScenarioError(f"unknown top-level field {sorted(unknown)[0]!r}")
    if raw.get("schema") != SCHEMA_VERSION:
        raise ScenarioError(
            f"unsupported schema {raw.get('schema')!r} (expected {SCHEMA_VERSION})"
        )

    agents = raw.get("agents")
    if not isinstance(agents, list) or not agents:
        raise ScenarioError("agents must be a nonempty list of names")
    if not all(isinstance(name, str) and name for name in agents):
        raise ScenarioError("agents must be a nonempty list of names")
    seen = set()
    for name in agents:
        if name in seen:
            raise ScenarioError(f"agents: duplicate name {json.dumps(name)}")
        seen.add(name)
    n = len(agents)

    sizes = _number_list(raw.get("sizes"), "sizes")
    if len(sizes) != n:
        raise ScenarioError(f"dimension mismatch: {n} agents but {len(sizes)} sizes")
    sizes = np.array(sizes, dtype=float)
    if np.any(sizes < 0):
        raise ScenarioError("sizes: every size must be nonnegative")
    if sizes.max() != 1.0:
        try:
            sizes = normalize_sizes(sizes)
        except ValueError as err:
            raise ScenarioError(f"sizes: {err}") from None
        warnings.warn("sizes rescaled so the largest agent has size 1", stacklevel=2)

    rows = raw.get("tactics")
    if not isinstance(rows, list) or len(rows) != n:
        raise ScenarioError(f"dimension mismatch: expected {n} tactic rows")
    matrix_rows = []
    for index, row in enumerate(rows):
        values = _number_list(row, f"tactics row {index}")
        if len(values) != n:
            raise ScenarioError(
                f"dimension mismatch: tactics row {index} has {len(values)} entries, expected {n}"
            )
        matrix_rows.append(values)
    tactics = np.array(matrix_rows, dtype=float).T
    try:
        validate_tactic_matrix(tactics)
    except TacticMatrixError as err:
        raise ScenarioError(f"tactics: {err}") from None

    params_block = _block(raw, "params", _PARAM_FIELDS)
    try:
        params = ModelParams(**params_block)
    except (TypeError, ValueError) as err:
        raise ScenarioError(f"params: {err}") from None

    sim_block = _block(raw, "sim", _SIM_FIELDS + ("seed", "sampler"))
    sampler_block = _block(sim_block, "sampler", _SAMPLER_FIELDS)
    sim_block.pop("sampler", None)
    seed = sim_block.pop("seed", 0)
    try:
        sim = SimSettings(**sim_block)
    except (TypeError, ValueError) as err:
        raise ScenarioError(f"sim: {err}") from None
    if seed < 0:
        raise ScenarioError(f"sim: seed must be nonnegative (got {seed})")
    try:
        sampler = SamplerConfig(rng_seed=seed, **sampler_block)
    except (TypeError, ValueError) as err:
        raise ScenarioError(f"sampler: {err}") from None

    try:
        state = State(tactics=tactics, sizes=sizes)
    except ValueError as err:
        raise ScenarioError(f"state: {err}") from None
    return Scenario(
        agents=tuple(agents), state=state, params=params, sampler=sampler, sim=sim
    )


def agent_rows(tactics: np.ndarray) -> list[list[float]]:
    """A tactic matrix as the agent-major rows that scenario files store."""
    return np.asarray(tactics).T.tolist()


def serialize_scenario(scenario: Scenario) -> str:
    """Write a scenario back out; parsing the result reproduces it exactly."""
    sampler = dataclasses.asdict(scenario.sampler)
    sim = dataclasses.asdict(scenario.sim)
    # The seed sits between p_min and the stage-game budget.
    budget = {name: sim.pop(name) for name in ("candidates", "max_profiles")}
    payload = {
        "schema": SCHEMA_VERSION,
        "agents": list(scenario.agents),
        "sizes": [float(value) for value in scenario.state.sizes],
        "tactics": agent_rows(scenario.state.tactics),
        "params": dataclasses.asdict(scenario.params),
        "sim": {**sim, "seed": sampler.pop("rng_seed"), **budget, "sampler": sampler},
    }
    return json.dumps(payload, indent=2) + "\n"


def _number_list(value, context: str) -> list[float]:
    if not isinstance(value, list) or not value:
        raise ScenarioError(f"{context} must be a nonempty list of numbers")
    for entry in value:
        if isinstance(entry, bool) or not isinstance(entry, (int, float)):
            raise ScenarioError(f"{context} must be a nonempty list of numbers")
    return [float(entry) for entry in value]


def _reject_constant(name: str):
    raise ScenarioError(f"non-finite number {name} is not allowed")


def _finite_float(literal: str) -> float:
    value = float(literal)
    if not math.isfinite(value):
        raise ScenarioError(f"number {literal} is too large for a float")
    return value


def _finite_int(literal: str) -> int:
    # The length test comes first: int() refuses very long literals itself.
    if len(literal) > 400 or abs(int(literal)) > sys.float_info.max:
        raise ScenarioError(f"integer of {len(literal)} digits is too large for a float")
    return int(literal)


def _block(raw: dict, name: str, allowed: tuple[str, ...]) -> dict:
    block = raw.get(name, {})
    if not isinstance(block, dict):
        raise ScenarioError(f"{name} must be a JSON object")
    unknown = set(block) - set(allowed)
    if unknown:
        raise ScenarioError(f"{name}: unknown field {sorted(unknown)[0]!r}")
    for field, value in block.items():
        wanted = _FIELD_TYPES.get(field)
        if wanted and type(value) not in _JSON_TYPES[wanted]:
            raise ScenarioError(f"{name}: {field} must be {wanted} (got {json.dumps(value)})")
    return dict(block)
