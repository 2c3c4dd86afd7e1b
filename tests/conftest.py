import json
import os
from pathlib import Path

import numpy as np
import pytest

import reelsim as rs

SHIPPED = Path(__file__).resolve().parent.parent / "scenarios" / "three_agents.json"


@pytest.fixture(scope="session")
def shipped():
    """The shipped scenario, parsed."""
    return rs.parse_scenario(SHIPPED.read_text())


@pytest.fixture
def params():
    return rs.ModelParams()


@pytest.fixture
def three_agent_tactics():
    # columns are per-agent allocations: agent 0 attacks agent 1 a little,
    # agent 1 mostly holds, agent 2 holds everything
    columns = [(0.7, -0.1, 0.2), (0.1, 0.8, 0.1), (0.0, 0.0, 1.0)]
    return np.array(columns, dtype=float).T


@pytest.fixture
def three_agent_sizes():
    return np.array([0.3, 1.0, 0.6])


@pytest.fixture
def three_agent_state(three_agent_tactics, three_agent_sizes):
    return rs.State(tactics=three_agent_tactics, sizes=three_agent_sizes)


@pytest.fixture
def scenario_payload():
    return {
        "schema": 1,
        "agents": ["minor", "major", "middle"],
        "sizes": [0.3, 1.0, 0.6],
        "tactics": [
            [0.7, -0.1, 0.2],
            [0.1, 0.8, 0.1],
            [0.0, 0.0, 1.0],
        ],
        "params": {"alpha": 2.5, "beta": 1.2, "mu": 3.0, "delta": 0.9, "sigma": 0.5},
        "sim": {
            "lines": 60,
            "horizon": 2,
            "depth_max": 1,
            "branch_k": 3,
            "p_min": 0.0,
            "seed": 11,
            "candidates": 5,
            "sampler": {
                "p_neg": 0.5,
                "allow_negative_diagonal": False,
                "local_mix": 0.5,
                "rounding": 0.25,
            },
        },
    }


@pytest.fixture
def write_scenario(tmp_path):
    def _write(payload, name="scenario.json"):
        path = tmp_path / name
        path.write_text(json.dumps(payload, indent=2) + "\n")
        return path

    return _write


@pytest.fixture
def forks(monkeypatch):
    """Every os.fork this process makes appends the fork's return value in
    the parent, a child's pid; the fork itself is real."""
    made = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            made.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return made


@pytest.fixture
def cpus(monkeypatch):
    """Set how many CPUs os.sched_getaffinity reports to this process."""

    def set_cpus(count):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)), raising=False)

    return set_cpus
