"""The shell scripts under tools/."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parent.parent / "tools"
ARTIFACTS = TOOLS / "artifacts.sh"
BYTE_IDENTITY = TOOLS / "byte_identity.sh"
BENCH_PAIRS = TOOLS / "bench_pairs.sh"


def run_byte_identity(tmp_path, *args):
    """Run tools/byte_identity.sh from an empty directory with its own
    TMPDIR; both must stay empty on an early exit."""
    work, scratch = tmp_path / "work", tmp_path / "tmp"
    work.mkdir()
    scratch.mkdir()
    result = subprocess.run(
        ["bash", str(BYTE_IDENTITY), *args],
        capture_output=True,
        text=True,
        cwd=work,
        env={**os.environ, "TMPDIR": str(scratch)},
    )
    assert list(work.iterdir()) == [] and list(scratch.iterdir()) == []
    return result


def test_byte_identity_without_a_ref_prints_usage(tmp_path):
    result = run_byte_identity(tmp_path)
    assert result.returncode == 2
    assert result.stderr == f"usage: {BYTE_IDENTITY} REF\n"
    assert result.stdout == ""


@pytest.mark.parametrize("ref", ["no-such-ref", "0" * 40])
def test_byte_identity_rejects_an_unknown_ref(tmp_path, ref):
    result = run_byte_identity(tmp_path, ref)
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr == f"{BYTE_IDENTITY}: unknown commit {ref}\n"


@pytest.mark.parametrize(
    "script, args",
    [(BYTE_IDENTITY, ["HEAD"]), (BENCH_PAIRS, ["HEAD", "reels-tree"])],
    ids=["byte_identity", "bench_pairs"],
)
def test_unknown_ref_outside_a_work_tree_is_one_line(tmp_path, script, args):
    # a copy of the script outside any git work tree, as in a git archive
    # export: git's own error must not precede the script's
    copy = tmp_path / "tools" / script.name
    copy.parent.mkdir()
    shutil.copy(script, copy)
    result = subprocess.run(
        ["bash", str(copy), *args],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={**os.environ, "GIT_CEILING_DIRECTORIES": str(tmp_path.parent)},
    )
    assert result.returncode == 2
    assert result.stderr == f"{copy}: unknown commit HEAD\n"
    assert result.stdout == ""


def test_artifacts_without_an_out_dir_prints_usage(tmp_path):
    result = subprocess.run(
        ["bash", str(ARTIFACTS)], capture_output=True, text=True, cwd=tmp_path
    )
    assert result.returncode == 2
    assert result.stderr == f"usage: {ARTIFACTS} OUT_DIR\n"
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        (),
        ("HEAD",),
        ("HEAD", "reels-tree", "ten"),
        ("HEAD", "reels-tree", "0"),
        ("HEAD", "reels-tree", "1", "1", "1", "1"),
    ],
)
def test_bench_pairs_with_bad_arguments_prints_usage(tmp_path, args):
    result = subprocess.run(
        ["bash", str(BENCH_PAIRS), *args], capture_output=True, text=True, cwd=tmp_path
    )
    assert result.returncode == 2
    assert result.stderr == f"usage: {BENCH_PAIRS} PARENT WORKLOAD [PAIRS] [SECONDS] [SEED]\n"
    assert result.stdout == ""
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "args",
    [
        ("HEAD", "no-such-workload", "1", "1", "1"),
        ("HEAD", "Frame-Game"),
        ("HEAD", ""),
        ("HEAD", "reels-tree", "1", "0"),
        ("HEAD", "reels-tree", "1", "0.0"),
        ("HEAD", "reels-tree", "1", "-1"),
        ("HEAD", "reels-tree", "1", "fifteen"),
        ("HEAD", "reels-tree", "1", "."),
    ],
)
def test_bench_pairs_rejects_a_bad_workload_or_seconds_before_extracting(tmp_path, args):
    work, scratch = tmp_path / "work", tmp_path / "tmp"
    work.mkdir()
    scratch.mkdir()
    result = subprocess.run(
        ["bash", str(BENCH_PAIRS), *args],
        capture_output=True,
        text=True,
        cwd=work,
        env={**os.environ, "TMPDIR": str(scratch)},
    )
    assert result.returncode == 2
    assert result.stderr == f"usage: {BENCH_PAIRS} PARENT WORKLOAD [PAIRS] [SECONDS] [SEED]\n"
    assert result.stdout == ""
    assert list(work.iterdir()) == [] and list(scratch.iterdir()) == []


def test_bench_pairs_rejects_an_unknown_parent(tmp_path):
    result = subprocess.run(
        ["bash", str(BENCH_PAIRS), "no-such-ref", "reels-tree"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
    )
    assert result.returncode == 2
    assert result.stderr == f"{BENCH_PAIRS}: unknown commit no-such-ref\n"
    assert result.stdout == ""


# A python3 that answers for bench/run.py with a fixed result, logging the
# directory it ran in, and hands every other call to the real interpreter.
PYTHON_SHIM = """#!/bin/sh
if [ "$1" = bench/run.py ]; then
    pwd -P >> "$SHIM_LOG"
    echo '{{"metrics": {{"wall_s": {{"value": 1.0}}, "setup_s": {{"value": 0.2}}, \
"peak_rss_mb": {{"value": 50.0}}}}, "attempted": 3, "failed": 0, "correct": true}}'
    echo 'pass seconds: untraced [1.0] traced []' >&2
    exit 0
fi
exec {python} "$@"
"""


def test_bench_pairs_runs_neither_side_in_the_checkout(tmp_path):
    bin_dir, scratch, log = tmp_path / "bin", tmp_path / "tmp", tmp_path / "cwd.log"
    bin_dir.mkdir()
    scratch.mkdir()
    shim = bin_dir / "python3"
    shim.write_text(PYTHON_SHIM.format(python=sys.executable))
    shim.chmod(0o755)
    result = subprocess.run(
        ["bash", str(BENCH_PAIRS), "HEAD", "frame-game", "2", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={
            **os.environ,
            "PATH": f"{bin_dir}{os.pathsep}{os.environ['PATH']}",
            "TMPDIR": str(scratch),
            "SHIM_LOG": str(log),
        },
    )
    assert result.returncode == 0, result.stderr
    runs = json.loads(result.stdout)["workloads"]["frame-game"]["runs"]
    assert [len(runs["parent"]), len(runs["change"])] == [2, 2]
    # pair 1 runs the parent first, pair 2 the change
    parent, change, *rest = [Path(line) for line in log.read_text().splitlines()]
    assert rest == [change, parent] and parent != change
    checkout = TOOLS.parent.resolve()
    assert checkout not in (parent, *parent.parents, change, *change.parents)
    assert parent.parent == change.parent and parent.parent.parent == scratch.resolve()
    assert list(scratch.iterdir()) == []


@pytest.mark.parametrize("dont_write", [True, False])
def test_bench_pairs_records_whether_python_writes_bytecode(tmp_path, dont_write):
    bin_dir, scratch = tmp_path / "bin", tmp_path / "tmp"
    bin_dir.mkdir()
    scratch.mkdir()
    shim = bin_dir / "python3"
    shim.write_text(PYTHON_SHIM.format(python=sys.executable))
    shim.chmod(0o755)
    env = {key: value for key, value in os.environ.items() if key != "PYTHONDONTWRITEBYTECODE"}
    if dont_write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    result = subprocess.run(
        ["bash", str(BENCH_PAIRS), "HEAD", "frame-game", "1", "1"],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env={
            **env,
            "PATH": f"{bin_dir}{os.pathsep}{env['PATH']}",
            "TMPDIR": str(scratch),
            "SHIM_LOG": str(tmp_path / "cwd.log"),
        },
    )
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout)["host"]["dont_write_bytecode"] is dont_write


def test_artifacts_reproduce_across_processes(tmp_path):
    trees = []
    for name in ("first", "second"):
        out = tmp_path / name
        result = subprocess.run(
            ["bash", str(ARTIFACTS), str(out)], capture_output=True, text=True, cwd=tmp_path
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == ""
        files = sorted(path for path in out.rglob("*") if path.is_file())
        trees.append({str(path.relative_to(out)): path.read_bytes() for path in files})
    assert len(trees[0]) == 166
    assert trees[0] == trees[1]
