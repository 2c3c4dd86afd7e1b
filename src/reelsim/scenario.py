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


# The fields each settings block of the file may hold, with the JSON types
# each field's annotation admits and how a message names them; booleans
# are not numbers. Resolved once: get_type_hints on every parse would more
# than double its time.
_KINDS = {
    float: ((int, float), "a number"), int: ((int,), "an integer"), bool: ((bool,), "true or false")
}
_BLOCKS = {
    cls: {name: _KINDS[hint] for name, hint in typing.get_type_hints(cls).items()}
    for cls in (ModelParams, SimSettings, SamplerConfig)
}
# The file stores the sampler's rng_seed as sim.seed, and nests the sampler
# block, read on its own, in sim.
_BLOCKS[SimSettings].update(seed=_BLOCKS[SamplerConfig].pop("rng_seed"), sampler=None)


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
    float) included; so do bytes that are not plain UTF-8 (UTF-16,
    UTF-32, or UTF-8 behind a byte-order mark) and nesting too deep to
    decode.
    """
    try:
        if not isinstance(text, str):
            text = str(text, "utf-8")
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
    if not isinstance(agents, list) or not agents or not all(
        isinstance(name, str) and name for name in agents
    ):
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

    params = _build(ModelParams, "params", _settings(raw, "params", ModelParams))
    sim_block = _settings(raw, "sim", SimSettings)
    sampler_block = _settings(sim_block, "sampler", SamplerConfig)
    sim_block.pop("sampler", None)
    seed = sim_block.pop("seed", 0)
    sim = _build(SimSettings, "sim", sim_block)
    if seed < 0:
        raise ScenarioError(f"sim: seed must be nonnegative (got {seed})")
    sampler = _build(SamplerConfig, "sampler", {**sampler_block, "rng_seed": seed})
    return Scenario(tuple(agents), State(tactics, sizes), params, sampler, sim)


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


def _settings(raw: dict, name: str, cls: type) -> dict:
    """The block raw[name] of settings class cls, {} when absent: a JSON
    object whose every field is one of cls's, of the JSON type it admits."""
    block = raw.get(name, {})
    if not isinstance(block, dict):
        raise ScenarioError(f"{name} must be a JSON object")
    fields = _BLOCKS[cls]
    unknown = block.keys() - fields
    if unknown:
        raise ScenarioError(f"{name}: unknown field {min(unknown)!r}")
    for field, value in block.items():
        kind = fields[field]
        if kind and type(value) not in kind[0]:
            raise ScenarioError(f"{name}: {field} must be {kind[1]} (got {json.dumps(value)})")
    return dict(block)


def _build(cls: type, name: str, block: dict):
    """cls built from a checked block, its ValueError named after the block."""
    try:
        return cls(**block)
    except ValueError as err:
        raise ScenarioError(f"{name}: {err}") from None
