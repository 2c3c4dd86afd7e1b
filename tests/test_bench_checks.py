"""The benchmark's independent output checks, run on the shipped scenario.

bench/checks.py recomputes what frames.json, tree.json and reels.csv must
satisfy from the scenario alone; running it here makes the plain test
suite reject an artifact the benchmark would reject.
"""

import importlib.util
import json
from pathlib import Path

from reelsim.cli import main

ROOT = Path(__file__).resolve().parent.parent
SHIPPED = ROOT / "scenarios" / "three_agents.json"
CHECKS = ROOT / "bench" / "checks.py"


def load_checks():
    spec = importlib.util.spec_from_file_location("bench_checks", CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(command, out_dir: Path) -> Path:
    assert main(["--out-dir", str(out_dir), command, str(SHIPPED)]) == 0
    return out_dir


def test_shipped_outputs_pass_the_benchmark_checks(tmp_path):
    checks = load_checks()
    scenario = json.loads(SHIPPED.read_text())
    frames = json.loads((run("frame", tmp_path / "frame") / "frames.json").read_text())
    reels_dir = run("reels", tmp_path / "reels")
    tree = json.loads((reels_dir / "tree.json").read_text())
    reels_csv = (reels_dir / "reels.csv").read_text()
    assert checks.check_frames(frames, scenario) == []
    assert checks.check_tree(tree, reels_csv, scenario) == []
    assert checks.check_root_edges(tree, frames, scenario) == []
