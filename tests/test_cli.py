"""Command-line behavior: exit codes, outputs, seed and directory handling."""

import csv
import dataclasses
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import reelsim as rs
from reelsim import equilibrium
from reelsim.cli import main


# A child interpreter imports reelsim from this checkout's src, as pytest does.
SRC = Path(__file__).resolve().parent.parent / "src"
SHIPPED = SRC.parent / "scenarios" / "three_agents.json"
CHILD_ENV = {
    **os.environ,
    "PYTHONPATH": os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])),
}


@pytest.fixture
def scenario_file(scenario_payload, write_scenario):
    return write_scenario(scenario_payload)


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "scenario OK: 3 agents (minor, major, middle)" in out
    assert "seed 11" in out


def test_validate_escapes_names_stdout_cannot_encode(tmp_path):
    # Under the C locale with UTF-8 mode and locale coercion off, stdout is
    # ASCII: a name it cannot encode is escaped, not a runtime failure.
    payload = json.loads(SHIPPED.read_text(encoding="utf-8"))
    payload["agents"][0] = "Ωmega"
    path = tmp_path / "omega.json"
    path.write_bytes(json.dumps(payload, ensure_ascii=False).encode("utf-8"))
    locales = {
        "ascii": ({"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"}, "\\u03a9mega"),
        "utf8": ({"LC_ALL": "C.UTF-8"}, "Ωmega"),
    }
    for overrides, name in locales.values():
        result = subprocess.run(
            [sys.executable, "-m", "reelsim.cli", "validate", str(path)],
            capture_output=True,
            env={**CHILD_ENV, **overrides},
        )
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
        assert result.stderr == b""
        expected = f"scenario OK: 3 agents ({name}, major, middle), sizes [0.3, 1, 0.6], seed 7\n"
        assert result.stdout == expected.encode("utf-8")


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.json")]) == 1
    assert "cannot read" in capsys.readouterr().err


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{oops")
    assert main(["validate", str(path)]) == 1
    assert "malformed scenario file" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [
        (b"\xff", "can't decode byte 0xff"),
        (b'{"schema": "\xff"}', "can't decode byte 0xff"),
        (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth"),
        (SHIPPED.read_text().encode("utf-16"), "can't decode byte 0xff"),
        (SHIPPED.read_text().encode("utf-32"), "can't decode byte 0xff"),
        (SHIPPED.read_text().encode("utf-8-sig"), "Unexpected UTF-8 BOM"),
        # the offset counts the file's own characters, carriage returns too
        (b'{\r\n  "schema": 1,\r\n  oops\r\n}\r\n', "line 3 column 3 (char 21)"),
    ],
    ids=["not-utf8", "not-utf8-string", "nested-too-deep", "utf16", "utf32", "utf8-bom", "crlf"],
)
@pytest.mark.parametrize("command", ["validate", "frame"])
def test_undecodable_file_exits_one_with_one_line(tmp_path, capsys, command, content, message):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    assert main(["--out-dir", str(tmp_path / "out"), command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed scenario file: ") and message in err
    # the file's bytes are decoded exactly as the library decodes them
    with pytest.raises(rs.ScenarioError) as caught:
        rs.parse_scenario(content)
    assert err == f"error: {caught.value}\n"
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not (tmp_path / "out").exists()


def test_validate_duplicate_agent_names(scenario_payload, write_scenario, capsys):
    scenario_payload["agents"] = ["a", "a", "b"]
    path = write_scenario(scenario_payload, "duplicate.json")
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().err == 'error: agents: duplicate name "a"\n'


def test_validate_bad_params(scenario_payload, write_scenario, capsys):
    scenario_payload["params"]["beta"] = 0.9
    path = write_scenario(scenario_payload, "bad.json")
    assert main(["validate", str(path)]) == 1
    assert "params: benevolence multiplier" in capsys.readouterr().err


@pytest.mark.parametrize(
    "block, field, value, message",
    [
        (None, "sizes", [float("nan"), 1.0, 0.6], "non-finite number NaN is not allowed"),
        ("sim", "lines", 20.5, "sim: lines must be an integer (got 20.5)"),
        ("sim", "lines", True, "sim: lines must be an integer (got true)"),
        ("sim", "seed", 1.5, "sim: seed must be an integer (got 1.5)"),
        ("sim", "seed", -1, "sim: seed must be nonnegative (got -1)"),
    ],
)
@pytest.mark.parametrize("command", ["validate", "frame"])
def test_bad_numbers_exit_one_with_one_line(
    scenario_payload, write_scenario, tmp_path, capsys, command, block, field, value, message
):
    (scenario_payload[block] if block else scenario_payload)[field] = value
    path = write_scenario(scenario_payload, "bad.json")
    assert main(["--out-dir", str(tmp_path / "out"), command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err == f"error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("rounding", [1e-19, 1e-300])
def test_rounding_too_fine_for_exact_keys_exits_one(
    scenario_payload, write_scenario, tmp_path, capsys, rounding
):
    scenario_payload["sim"]["sampler"]["rounding"] = rounding
    path = write_scenario(scenario_payload, "fine.json")
    assert main(["--out-dir", str(tmp_path / "out"), "frame", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == (
        "error: sampler: 1/rounding must be at most 2**53, so grid coordinates stay exact doubles "
        f"(got rounding={rounding})\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "field, largest, sim",
    [
        # 2**30-byte arrays of 8-byte items with 3 agents: 2 * 3 draw words
        # for each of 3 candidate vectors, 3 x 3 tactic matrices per horizon
        # step of one line (a block holds no more lines than fit the same
        # bound), 3 entries per profile row
        ("candidates", 2**27 // 18, {}),
        ("horizon", 2**27 // 9, {}),
        ("max_profiles", 2**27 // 3, {"candidates": 1000}),
    ],
)
def test_sizes_past_their_array_bound_exit_one_with_one_line(
    scenario_payload, write_scenario, capsys, field, largest, sim
):
    scenario_payload["sim"].update(sim, **{field: largest})
    assert main(["validate", str(write_scenario(scenario_payload))]) == 0
    assert capsys.readouterr().err == ""
    scenario_payload["sim"][field] = largest + 1
    assert main(["validate", str(write_scenario(scenario_payload))]) == 1
    message = f"sim: {field} must be at most {largest} for 3 agents (got {largest + 1})"
    assert capsys.readouterr().err == f"error: {message}\n"


def test_max_profiles_is_unbounded_when_every_profile_fits(
    scenario_payload, write_scenario, capsys
):
    # 5**3 profiles: the game never holds more rows, whatever max_profiles
    scenario_payload["sim"]["max_profiles"] = 10**300
    assert main(["validate", str(write_scenario(scenario_payload))]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command", ["frame", "reels"])
def test_float_overflow_at_run_time_exits_two(
    scenario_payload, write_scenario, tmp_path, capsys, command
):
    # finite parameters whose sizes overflow a float once play starts
    scenario_payload["params"]["beta"] = 1e308
    scenario_payload["params"]["mu"] = 1.5e308
    path = write_scenario(scenario_payload, "huge.json")
    assert main(["--out-dir", str(tmp_path / "out"), command, str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: overflow encountered in ")
    assert err.count("\n") == 1
    assert not (tmp_path / "out").exists()


def test_huge_sigma_reaches_only_the_local_branch(write_scenario, tmp_path, capsys):
    # sigma scales the local branch's noise; with local_mix 0 no line takes
    # that branch, and the inertia kernel only sees distance / inf = 0
    shipped = Path(__file__).resolve().parent.parent / "scenarios" / "three_agents.json"
    payload = json.loads(shipped.read_text())
    payload["params"]["sigma"] = 1e308
    payload["sim"]["sampler"]["local_mix"] = 0.0
    payload["sim"]["lines"] = 50
    path = write_scenario(payload, "huge_sigma.json")
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "frame", str(path)]) == 0, capsys.readouterr().err
    assert json.loads((out_dir / "frames.json").read_text())["frames"]


def test_step_writes_trajectory(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "step", str(scenario_file), "--t", "1"]) == 0
    assert f"wrote {out_dir / 'sizes.csv'}" in capsys.readouterr().out
    rows = list(csv.reader((out_dir / "sizes.csv").open()))
    assert rows[0] == ["minor", "major", "middle"]
    assert [float(cell) for cell in rows[1]] == [0.3, 1.0, 0.6]
    stepped = np.array([float(cell) for cell in rows[2]])
    assert np.max(np.abs(stepped - np.array([0.33, 0.71, 0.792]))) <= 1e-12


def test_step_zero_steps_keeps_initial_row(scenario_file, tmp_path):
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "step", str(scenario_file), "--t", "0"]) == 0
    rows = list(csv.reader((out_dir / "sizes.csv").open()))
    assert len(rows) == 2


def test_step_negative_steps_is_runtime_failure(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    code = main(["--out-dir", str(out_dir), "step", str(scenario_file), "--t", "-3"])
    assert code == 2
    assert "--t must be nonnegative" in capsys.readouterr().err


def test_frame_writes_distribution(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "frame", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "lines retained" in out
    doc = json.loads((out_dir / "frames.json").read_text())
    assert doc["agents"] == ["minor", "major", "middle"]
    assert doc["diagnostics"]["lines_generated"] == 60
    assert sum(frame["probability"] for frame in doc["frames"]) == pytest.approx(1.0, abs=1e-9)
    assert (out_dir / "state.dot").read_text().startswith("digraph state {")


def test_reels_writes_tree_and_table(scenario_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "reels", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "reels; most probable has probability" in out
    doc = json.loads((out_dir / "tree.json").read_text())
    assert doc["tree"]["depth"] == 0
    assert len(doc["reels"]) >= 1
    assert (out_dir / "tree.dot").read_text().startswith("digraph reels {")
    rows = list(csv.reader((out_dir / "reels.csv").open()))
    assert rows[0][:4] == ["rank", "probability", "steps", "leaf_reason"]
    assert len(rows) == len(doc["reels"]) + 1


def test_frame_and_reels_pass_every_setting_to_the_library(
    scenario_payload, write_scenario, tmp_path
):
    # every SimSettings field off its default; 5**3 profiles exceed
    # max_profiles 60, so the stage game is subsampled
    scenario_payload["sim"].update(
        lines=40, horizon=3, depth_max=3, branch_k=3, p_min=0.04, seed=13,
        candidates=5, max_profiles=60,
    )
    scenario_payload["sim"]["sampler"]["local_mix"] = 0.8
    path = write_scenario(scenario_payload)
    scenario = rs.parse_scenario(path.read_text())
    names = list(scenario.agents)

    def library(sim):
        args = (scenario.state, scenario.params, scenario.sampler, sim)
        distribution = rs.transition_distribution(*args)
        tree = rs.build_reel_tree(*args)
        return (
            rs.export_frames_json(distribution, names),
            rs.export_reels_json(tree, rs.enumerate_reels(tree), names),
        )

    frames_json, reels_json = library(scenario.sim)
    assert not json.loads(frames_json)["diagnostics"]["exhaustive_game"]
    for command, name, expected in (
        ("frame", "frames.json", frames_json),
        ("reels", "tree.json", reels_json),
    ):
        assert main(["--out-dir", str(tmp_path / command), command, str(path)]) == 0
        assert (tmp_path / command / name).read_text() == expected
    # each setting shows in the output, so a command that dropped one would differ
    defaults = rs.SimSettings()
    for field in dataclasses.fields(rs.SimSettings):
        value = getattr(defaults, field.name)
        assert getattr(scenario.sim, field.name) != value
        frames_at_default, reels_at_default = library(
            dataclasses.replace(scenario.sim, **{field.name: value})
        )
        assert reels_at_default != reels_json
        if field.name not in ("depth_max", "branch_k", "p_min"):
            assert frames_at_default != frames_json


def chain_scenario(depth_max):
    """Two agents whose tree is a one-child chain: one candidate each,
    one child per node, every line a tiny perturbation of holding."""
    return {
        "schema": 1,
        "agents": ["a", "b"],
        "sizes": [1.0, 1.0],
        "tactics": [[1.0, 0.0], [0.0, 1.0]],
        "params": {"sigma": 0.01},
        "sim": {
            "lines": 50,
            "horizon": 1,
            "candidates": 1,
            "branch_k": 1,
            "p_min": 0.0,
            "seed": 3,
            "depth_max": depth_max,
            "sampler": {"p_neg": 1.0, "local_mix": 1.0, "rounding": 1.0},
        },
    }


def test_deepest_chain_writes_every_file(write_scenario, tmp_path):
    # tree.json nests three encoder frames per level; 256 levels still fit
    # the recursion limit under pytest's own frames
    path = write_scenario(chain_scenario(256))
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "reels", str(path)]) == 0
    rows = list(csv.reader((out_dir / "reels.csv").open()))
    assert [row[2:4] for row in rows[1:]] == [["256", "max_depth"]]
    assert json.loads((out_dir / "tree.json").read_text())["reels"][0]["steps"] == 256
    assert (out_dir / "tree.dot").read_text().startswith("digraph reels {")


def test_too_deep_chain_exits_one_before_expanding(write_scenario, tmp_path, capsys):
    path = write_scenario(chain_scenario(257))
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "reels", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: sim: depth_max must lie in [0, 256] (got 257)\n"
    assert not out_dir.exists()


def test_reels_runs_are_reproducible(scenario_file, tmp_path):
    dirs = [tmp_path / "a", tmp_path / "b"]
    for out_dir in dirs:
        assert main(["--out-dir", str(out_dir), "reels", str(scenario_file)]) == 0
    for name in ("tree.json", "tree.dot", "reels.csv"):
        assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


def test_seed_flag_overrides_scenario(scenario_file, tmp_path):
    base = tmp_path / "base"
    reseeded = tmp_path / "reseeded"
    assert main(["--out-dir", str(base), "frame", str(scenario_file)]) == 0
    assert main(["--seed", "99", "--out-dir", str(reseeded), "frame", str(scenario_file)]) == 0
    assert (base / "frames.json").read_text() != (reseeded / "frames.json").read_text()
    repeat = tmp_path / "repeat"
    assert main(["--seed", "99", "--out-dir", str(repeat), "frame", str(scenario_file)]) == 0
    assert (repeat / "frames.json").read_text() == (reseeded / "frames.json").read_text()


def test_second_call_drops_the_first_calls_seed(scenario_file, tmp_path):
    # one parser serves every call in a process; --seed must not carry over
    seeded, unseeded = tmp_path / "seeded", tmp_path / "unseeded"
    assert main(["--seed", "5", "--out-dir", str(seeded), "frame", str(scenario_file)]) == 0
    assert main(["--out-dir", str(unseeded), "frame", str(scenario_file)]) == 0
    scenario = rs.parse_scenario(scenario_file.read_text())
    distribution = rs.transition_distribution(
        scenario.state, scenario.params, scenario.sampler, scenario.sim
    )
    expected = rs.export_frames_json(distribution, list(scenario.agents))
    assert (unseeded / "frames.json").read_text() == expected
    assert (seeded / "frames.json").read_text() != expected


@pytest.mark.parametrize("seed", [2**64 - 1, 2**80])
def test_frame_at_wide_seeds(scenario_file, tmp_path, seed):
    # the line stream hashes with uint64 arrays, which wrap; uint64
    # scalars would raise under the CLI's errstate(over="raise")
    out_dir = tmp_path / "out"
    assert main(["--seed", str(seed), "--out-dir", str(out_dir), "frame", str(scenario_file)]) == 0
    doc = json.loads((out_dir / "frames.json").read_text())
    assert doc["diagnostics"]["lines_generated"] == 60
    assert sum(frame["probability"] for frame in doc["frames"]) == pytest.approx(1.0, abs=1e-9)


def test_reels_on_shipped_scenario(tmp_path):
    # every node below the root seeds its expansion with a 64-bit seed
    shipped = Path(__file__).resolve().parent.parent / "scenarios" / "three_agents.json"
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "reels", str(shipped)]) == 0
    doc = json.loads((out_dir / "tree.json").read_text())
    assert doc["tree"]["children"]
    assert sum(reel["probability"] for reel in doc["reels"]) <= 1.0 + 1e-9
    rows = list(csv.reader((out_dir / "reels.csv").open()))
    assert len(rows) == len(doc["reels"]) + 1


@pytest.fixture
def filtering_file(tmp_path):
    """The shipped scenario at p_neg 0.1, where the guarantee is not zero."""
    doc = json.loads(SHIPPED.read_text())
    doc["sim"]["sampler"]["p_neg"] = 0.1
    path = tmp_path / "filtering.json"
    path.write_text(json.dumps(doc))
    return path


def test_nonzero_guarantee_drops_lines(filtering_file, tmp_path):
    out_dir = tmp_path / "out"
    assert main(["--seed", "7", "--out-dir", str(out_dir), "frame", str(filtering_file)]) == 0
    diagnostics = json.loads((out_dir / "frames.json").read_text())["diagnostics"]
    assert max(diagnostics["minimax"]) > 0.0
    assert 0 < diagnostics["lines_retained"] < diagnostics["lines_generated"] == 2000


def test_guarantee_no_line_meets_empties_frame_and_reels(filtering_file, tmp_path, capsys):
    out_dir = tmp_path / "out"
    assert main(["--seed", "8", "--out-dir", str(out_dir), "frame", str(filtering_file)]) == 0
    assert json.loads((out_dir / "frames.json").read_text())["frames"] == []
    assert "no rational lines of play survived the filter" in capsys.readouterr().out
    assert main(["--seed", "8", "--out-dir", str(out_dir), "reels", str(filtering_file)]) == 0
    doc = json.loads((out_dir / "tree.json").read_text())
    assert doc["tree"]["leaf_reason"] == "empty_distribution"
    assert [reel["leaf_reason"] for reel in doc["reels"]] == ["empty_distribution"]
    assert capsys.readouterr().out.endswith(
        "the root has no next frame; the tree is its root alone\n"
    )


def test_root_pruned_out_is_not_called_certain(tmp_path, capsys):
    # no frame of the shipped root reaches p_min 0.9: the tree is a bare
    # root of probability 1, which must not read as a certain future
    doc = json.loads(SHIPPED.read_text())
    doc["sim"]["p_min"] = 0.9
    path = tmp_path / "strict.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "reels", str(path)]) == 0
    rows = list(csv.DictReader(io.StringIO((out_dir / "reels.csv").read_text())))
    assert [(row["probability"], row["leaf_reason"]) for row in rows] == [("1", "pruned_out")]
    out = capsys.readouterr().out
    assert out.endswith("no next frame reached p_min 0.9; the tree is its root alone\n")
    assert "most probable" not in out


def test_depth_zero_root_is_not_called_certain(tmp_path, capsys):
    # at depth_max 0 the root is a max_depth leaf: its one reel has
    # probability 1 without any expansion behind it
    doc = json.loads(SHIPPED.read_text())
    doc["sim"]["depth_max"] = 0
    path = tmp_path / "flat.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "reels", str(path)]) == 0
    rows = list(csv.DictReader(io.StringIO((out_dir / "reels.csv").read_text())))
    assert [(row["probability"], row["leaf_reason"]) for row in rows] == [("1", "max_depth")]
    out = capsys.readouterr().out
    assert out.endswith("depth_max is 0; the tree is its root alone\n")
    assert "most probable" not in out


def test_surviving_lines_of_zero_weight_are_not_called_filtered(tmp_path, capsys):
    # at sigma 0.01 the one line the filter keeps moves so far that its
    # inertia weight underflows to 0: no frame, though a line survived
    doc = json.loads(SHIPPED.read_text())
    doc["params"]["sigma"] = 0.01
    doc["sim"]["sampler"]["local_mix"] = 0.0
    path = tmp_path / "inert.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["--seed", "2", "--out-dir", str(out_dir), "frame", str(path)]) == 0
    written = json.loads((out_dir / "frames.json").read_text())
    assert written["frames"] == []
    assert written["diagnostics"]["lines_retained"] == 1
    assert written["diagnostics"]["total_weight"] == 0.0
    assert capsys.readouterr().out.endswith(
        "1/2000 lines retained, 0 next frames\n"
        "every surviving line of play has zero weight\n"
    )


def test_rescaled_sizes_warn_in_one_line(tmp_path):
    doc = json.loads(SHIPPED.read_text())
    doc["sizes"] = [0.3, 2.0, 0.6]
    path = tmp_path / "rescaled.json"
    path.write_text(json.dumps(doc))
    result = subprocess.run(
        [sys.executable, "-m", "reelsim.cli", "validate", str(path)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert result.stderr == "warning: sizes rescaled so the largest agent has size 1\n"
    assert result.stdout == (
        "scenario OK: 3 agents (minor, major, middle), sizes [0.15, 1, 0.3], seed 7\n"
    )


def test_screened_equilibrium_sets_a_nonzero_guarantee(tmp_path):
    # 12**4 profiles over a budget of 5,000: the screen keeps one of its
    # drawn profiles, whose payoffs are the guarantee; a2 is dead
    doc = json.loads(SHIPPED.read_text())
    doc["agents"] = ["a0", "a1", "a2", "a3"]
    doc["sizes"] = [1.0, 0.5, 0.0, 0.8]
    doc["tactics"] = [
        [0.7 if row == column else 0.1 if (row + column) % 2 else -0.1 for column in range(4)]
        for row in range(4)
    ]
    doc["sim"]["max_profiles"] = 5000
    path = tmp_path / "dead.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["--seed", "2", "--out-dir", str(out_dir), "frame", str(path)]) == 0
    diagnostics = json.loads((out_dir / "frames.json").read_text())["diagnostics"]
    assert diagnostics["exhaustive_game"] is False
    assert diagnostics["equilibria"] == 1
    assert [value.hex() for value in diagnostics["minimax"]] == [
        "0x1.10623d893f15ep-9",
        "0x1.83b1cb130c4e7p-11",
        "0x0.0p+0",
        "0x1.0b57bd1a9d471p-9",
    ]
    assert diagnostics["lines_retained"] == 670


def test_screen_with_no_equilibrium_among_many_profiles_sets_its_security_level(
    tmp_path, monkeypatch
):
    # five agents at p_neg 0.1: the screen draws 20,000 // 61 = 327
    # profiles and none survives, so each agent's security level takes
    # the minima of the grid it swept in its turn and of the rest
    spec = importlib.util.spec_from_file_location(
        "workloads", SRC.parent / "bench" / "workloads.py"
    )
    workloads = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up by name
    monkeypatch.setitem(sys.modules, "workloads", workloads)
    spec.loader.exec_module(workloads)
    doc = workloads.sampled_document(json.loads(SHIPPED.read_text()), 0, 5)
    doc["sim"]["lines"] = 2000
    doc["sim"]["sampler"]["p_neg"] = 0.1
    path = tmp_path / "sampled.json"
    path.write_text(json.dumps(doc))
    out_dir = tmp_path / "out"
    assert main(["--seed", "2", "--out-dir", str(out_dir), "frame", str(path)]) == 0
    diagnostics = json.loads((out_dir / "frames.json").read_text())["diagnostics"]
    assert diagnostics["exhaustive_game"] is False
    assert diagnostics["equilibria"] == 0
    assert [value.hex() for value in diagnostics["minimax"]] == [
        "0x1.64420fe66c66bp-47",
        "0x0.0p+0",
        "0x1.367c2cf6b97afp-41",
        "0x0.0p+0",
        "0x1.bf72bf9b296acp-40",
    ]
    assert diagnostics["lines_retained"] == 1123


def test_out_dir_env_var(scenario_file, tmp_path, monkeypatch):
    target = tmp_path / "from-env"
    monkeypatch.setenv("REELSIM_OUT_DIR", str(target))
    assert main(["step", str(scenario_file), "--t", "1"]) == 0
    assert (target / "sizes.csv").exists()


def test_out_dir_flag_beats_env(scenario_file, tmp_path, monkeypatch):
    monkeypatch.setenv("REELSIM_OUT_DIR", str(tmp_path / "env"))
    flagged = tmp_path / "flag"
    assert main(["--out-dir", str(flagged), "step", str(scenario_file), "--t", "1"]) == 0
    assert (flagged / "sizes.csv").exists()
    assert not (tmp_path / "env").exists()


def test_default_out_dir_is_cwd(scenario_file, tmp_path, monkeypatch):
    monkeypatch.delenv("REELSIM_OUT_DIR", raising=False)
    monkeypatch.chdir(tmp_path)
    assert main(["step", str(scenario_file), "--t", "1"]) == 0
    assert (tmp_path / "sizes.csv").exists()


def test_threads_flag_is_validated(scenario_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["--threads", "0", "frame", str(scenario_file)])
    assert excinfo.value.code == 2


def test_negative_seed_is_usage_error(scenario_file, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["--seed", "-1", "validate", str(scenario_file)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert "--seed must be nonnegative" in err
    assert "Traceback" not in err


def test_threaded_run_matches_serial(scenario_file, tmp_path):
    serial = tmp_path / "serial"
    threaded = tmp_path / "threaded"
    assert main(["--out-dir", str(serial), "frame", str(scenario_file)]) == 0
    assert main(["--threads", "3", "--out-dir", str(threaded), "frame", str(scenario_file)]) == 0
    assert (serial / "frames.json").read_bytes() == (threaded / "frames.json").read_bytes()


@pytest.mark.parametrize("affinity", [True, False])
def test_reels_forks_per_usable_cpu_by_default(
    scenario_payload, write_scenario, tmp_path, monkeypatch, forks, cpus, affinity
):
    scenario_payload["sim"]["depth_max"] = 2
    path = write_scenario(scenario_payload)
    assert main(["--threads", "1", "--out-dir", str(tmp_path / "one"), "reels", str(path)]) == 0
    assert not forks
    cpus(2)
    if not affinity:  # a platform that does not say which CPUs are usable
        monkeypatch.delattr(os, "sched_getaffinity")
    assert main(["--out-dir", str(tmp_path / "default"), "reels", str(path)]) == 0
    assert len(forks) == (1 if affinity else 0)
    for name in ("tree.json", "tree.dot", "reels.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "default" / name).read_bytes()


def test_failing_node_exits_two_alike_at_every_thread_count(
    scenario_payload, write_scenario, tmp_path, monkeypatch, capsys, forks, cpus
):
    cpus(2)
    scenario_payload["sim"]["depth_max"] = 2
    path = write_scenario(scenario_payload)
    # every node of level 1 but the first fails, in the parent's share and the child's
    failing = {rs.stream_key(5, rs.NODE_STREAM, index): index for index in range(1, 10)}
    distribution = rs.reels.transition_distribution

    def failing_at_paths(state, params, cfg, sim):
        if cfg.rng_seed in failing:
            raise FloatingPointError(f"node {failing[cfg.rng_seed]} failed")
        return distribution(state, params, cfg, sim)

    monkeypatch.setattr(rs.reels, "transition_distribution", failing_at_paths)
    for threads in ("1", "2"):
        out_dir = tmp_path / threads
        argv = ["--seed", "5", "--threads", threads, "--out-dir", str(out_dir), "reels", str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: node 1 failed\n"
        assert not out_dir.exists()
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
    assert len(forks) == 1


def test_explicit_threads_fork_nothing_where_the_platform_reports_no_cpus(
    scenario_payload, write_scenario, tmp_path, monkeypatch, forks
):
    scenario_payload["sim"]["depth_max"] = 2
    path = write_scenario(scenario_payload)
    assert main(["--threads", "1", "--out-dir", str(tmp_path / "one"), "reels", str(path)]) == 0
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    assert main(["--threads", "3", "--out-dir", str(tmp_path / "three"), "reels", str(path)]) == 0
    assert forks == []
    for name in ("tree.json", "tree.dot", "reels.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "three" / name).read_bytes()


def test_unknown_subcommand_is_usage_error(scenario_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["explode", str(scenario_file)])
    assert excinfo.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def help_text(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main([*argv, "--help"])
    assert excinfo.value.code == 0
    return capsys.readouterr().out


def test_help_lists_each_command_its_summary_and_file(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    summaries = {
        "validate": "check a scenario file",
        "step": "play the scenario's own tactics forward, sizes to CSV",
        "frame": "estimate the next-move distribution at the root",
        "reels": "grow the tree of futures and rank the reels",
    }
    top = help_text([], capsys)
    assert "  {validate,step,frame,reels}\n" in top
    for command, summary in summaries.items():
        assert f"\n    {command:<20}{summary}\n" in top
        text = help_text([command], capsys)
        options = " [--t T]" if command == "step" else ""
        assert text.startswith(f"usage: reelsim {command} [-h]{options} file\n")
        assert "\n  file        scenario JSON file\n" in text
        assert ("--t T" in text) == (command == "step")
    assert "\n  --t T       number of steps (default 10)\n" in help_text(["step"], capsys)


def test_console_script_entry_point(scenario_file):
    result = subprocess.run(
        [sys.executable, "-m", "reelsim.cli", "validate", str(scenario_file)],
        capture_output=True,
        text=True,
        env=CHILD_ENV,
    )
    assert result.returncode == 0
    assert "scenario OK" in result.stdout


def test_subsampled_frame_loads_no_extra_module(scenario_payload, write_scenario, tmp_path):
    # A lazily imported module costs every run set-up time and memory;
    # every draw comes from the counter stream, so numpy.random is one.
    # 125 profiles over a budget of 60: the screen finds no equilibrium at
    # seed 12, so its slices give the security levels too.
    scenario_payload["sim"].update({"max_profiles": 60, "seed": 12})
    path = write_scenario(scenario_payload)
    out_dir = tmp_path / "out"
    script = (
        "import sys\n"
        "from reelsim.cli import main\n"
        "for command in ('frame', 'reels'):\n"
        f"    assert main(['--out-dir', {str(out_dir)!r}, command, {str(path)!r}]) == 0\n"
        "print(sorted({'numpy.ma', 'numpy.random', 'scipy'} & set(sys.modules)))\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=CHILD_ENV
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    diagnostics = json.loads((out_dir / "frames.json").read_text())["diagnostics"]
    assert diagnostics["exhaustive_game"] is False
    assert diagnostics["equilibria"] == 0


def test_frame_beyond_int64_profile_space(scenario_payload, write_scenario, tmp_path):
    # 30**13 profiles exceed an int64; with no equilibrium in the screen the
    # security levels come from its profiles in that space too.
    n = 13
    scenario_payload["agents"] = [f"a{agent}" for agent in range(n)]
    scenario_payload["sizes"] = [1.0] * n
    scenario_payload["tactics"] = np.eye(n).tolist()
    scenario_payload["sim"].update(
        {"candidates": 30, "max_profiles": 400, "lines": 20, "horizon": 2, "seed": 0}
    )
    path = write_scenario(scenario_payload, "wide.json")
    out_dir = tmp_path / "out"
    assert main(["--out-dir", str(out_dir), "frame", str(path)]) == 0
    diagnostics = json.loads((out_dir / "frames.json").read_text())["diagnostics"]
    assert diagnostics["exhaustive_game"] is False
    assert diagnostics["equilibria"] == 0


@pytest.mark.parametrize("max_profiles, exhaustive", [(None, True), (60, False)])
def test_frame_does_not_depend_on_payoff_block(
    scenario_payload, write_scenario, tmp_path, monkeypatch, max_profiles, exhaustive
):
    if max_profiles is not None:
        scenario_payload["sim"]["max_profiles"] = max_profiles
    path = write_scenario(scenario_payload)
    outputs = []
    for block in (7, equilibrium.PAYOFF_BLOCK):
        monkeypatch.setattr(equilibrium, "PAYOFF_BLOCK", block)
        out_dir = tmp_path / f"block-{block}"
        assert main(["--out-dir", str(out_dir), "frame", str(path)]) == 0
        outputs.append((out_dir / "frames.json").read_bytes())
    assert json.loads(outputs[0])["diagnostics"]["exhaustive_game"] is exhaustive
    assert outputs[0] == outputs[1]


def test_artifacts_are_utf8_whatever_the_locale(tmp_path):
    # Under the C locale with UTF-8 mode and locale coercion off, Python's
    # default file encoding is ASCII; the files must not depend on it.
    payload = json.loads(SHIPPED.read_text(encoding="utf-8"))
    payload["agents"][0] = "Ωmega"
    path = tmp_path / "omega.json"
    path.write_bytes(json.dumps(payload, ensure_ascii=False).encode("utf-8"))
    locales = {
        "ascii": {"LC_ALL": "C", "PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0"},
        "utf8": {"LC_ALL": "C.UTF-8"},
    }
    for command in ("frame", "reels", "step"):
        written = {}
        for name, overrides in locales.items():
            out_dir = tmp_path / name / command
            args = ["--out-dir", str(out_dir), command, str(path)]
            result = subprocess.run(
                [sys.executable, "-m", "reelsim.cli", *args],
                capture_output=True,
                env={**CHILD_ENV, **overrides},
            )
            assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
            written[name] = {file.name: file.read_bytes() for file in sorted(out_dir.iterdir())}
        assert written["ascii"] == written["utf8"]
        assert any("Ωmega".encode("utf-8") in content for content in written["utf8"].values())
        assert not any(b"\r" in content for content in written["utf8"].values())
