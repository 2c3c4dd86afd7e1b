"""Command-line behavior: exit codes, outputs, seed and directory handling."""

import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from reelsim import equilibrium
from reelsim.cli import main


@pytest.fixture
def scenario_file(scenario_payload, write_scenario):
    return write_scenario(scenario_payload)


def test_validate_ok(scenario_file, capsys):
    assert main(["validate", str(scenario_file)]) == 0
    out = capsys.readouterr().out
    assert "scenario OK: 3 agents (minor, major, middle)" in out
    assert "seed 11" in out


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
    ],
    ids=["not-utf8", "not-utf8-string", "nested-too-deep"],
)
@pytest.mark.parametrize("command", ["validate", "frame"])
def test_undecodable_file_exits_one_with_one_line(tmp_path, capsys, command, content, message):
    path = tmp_path / "undecodable.json"
    path.write_bytes(content)
    assert main(["--out-dir", str(tmp_path / "out"), command, str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed scenario file: ") and message in err
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
        "error: sampler: 1/rounding must be at most 2**53, so grid keys stay exact "
        f"(got rounding={rounding})\n"
    )
    assert not (tmp_path / "out").exists()


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


def test_unknown_subcommand_is_usage_error(scenario_file):
    with pytest.raises(SystemExit) as excinfo:
        main(["explode", str(scenario_file)])
    assert excinfo.value.code == 2


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


def test_console_script_entry_point(scenario_file):
    result = subprocess.run(
        [sys.executable, "-m", "reelsim.cli", "validate", str(scenario_file)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert "scenario OK" in result.stdout


def test_subsampled_frame_loads_no_extra_module(scenario_payload, write_scenario, tmp_path):
    # A lazily imported module costs every run set-up time and memory;
    # every draw comes from the counter stream, so numpy.random is one.
    # 125 profiles over a budget of 60: the screen finds no equilibrium at
    # seed 12, so the security levels run too.
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
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"
    diagnostics = json.loads((out_dir / "frames.json").read_text())["diagnostics"]
    assert diagnostics["exhaustive_game"] is False
    assert diagnostics["equilibria"] == 0


def test_frame_beyond_int64_profile_space(scenario_payload, write_scenario, tmp_path):
    # 30**13 profiles exceed an int64; with no equilibrium in the screen the
    # security levels are drawn from that space too.
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
