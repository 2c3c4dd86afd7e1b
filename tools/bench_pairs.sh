#!/usr/bin/env bash
# Time this checkout against commit PARENT on one benchmark workload, in
# alternating pairs, and print the comparison as one JSON document.
#
#   tools/bench_pairs.sh PARENT WORKLOAD [PAIRS] [SECONDS] [SEED]
#
# PAIRS defaults to 10, SECONDS to 15 (BENCHMARK.json's run_seconds) and
# SEED to 1. Both sides run from copies in one temporary directory, at
# the same depth: PARENT extracted with `git archive`, and this
# checkout's working tree, that is its tracked and untracked files that
# .gitignore does not exclude, uncommitted edits included and deleted
# files left out. The parent copy's bench/ is replaced with the working
# tree's, so both sides run the same benchmark code, each against its
# own src/. Pair p runs
#
#   python3 bench/run.py --workload WORKLOAD --seed SEED --seconds SECONDS --trace 0
#
# once in each copy, the parent first in odd pairs, and reads the JSON
# object on the last line of each run's output. The document on standard
# output has BENCH_24.json's layout: host (cores, usable CPUs or null
# where the platform does not report them, whether Python is set not to
# write bytecode, Python, numpy, CPU model and flags), command, method,
# and under workloads.WORKLOAD each side's median and quartiles (numpy
# percentiles 50, 25 and 75) of every end-to-end metric, the pairs in
# which the change read lower, and every run with its attempted and
# failed commands and its count of timed passes, since peak_rss_mb grows
# with that count. Progress goes to
# standard error. Exits 0 when every run printed a result, 1 when a run
# failed, 2 on bad usage (a WORKLOAD not in bench/workloads.py's
# WORKLOADS, PAIRS not a positive integer, SECONDS not a positive
# number, SEED not a nonnegative integer) or an unknown PARENT, before
# anything is extracted. The temporary directory is removed on exit.
set -euo pipefail

usage="usage: $0 PARENT WORKLOAD [PAIRS] [SECONDS] [SEED]"
if [ "$#" -lt 2 ] || [ "$#" -gt 5 ]; then
    echo "$usage" >&2
    exit 2
fi
parent="$1" workload="$2" pairs="${3:-10}" seconds="${4:-15}" seed="${5:-1}"
# SECONDS: a positive decimal number
if ! [[ "$pairs" =~ ^[1-9][0-9]*$ && "$seed" =~ ^[0-9]+$ ]] \
    || ! [[ "$seconds" =~ ^([0-9]+\.?[0-9]*|\.[0-9]+)$ && "$seconds" =~ [1-9] ]]; then
    echo "$usage" >&2
    exit 2
fi
root="$(cd "$(dirname "$0")/.." && pwd)"
if ! git -C "$root" rev-parse --quiet --verify "$parent^{commit}" > /dev/null 2>&1; then
    echo "$0: unknown commit $parent" >&2
    exit 2
fi
# WORKLOAD: one of the names bench/workloads.py defines
if ! (cd "$root/bench" && python3 -B -c \
    'import sys; from workloads import WORKLOADS; sys.exit(sys.argv[1] not in WORKLOADS)' \
    "$workload") > /dev/null 2>&1; then
    echo "$usage" >&2
    exit 2
fi
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent" "$tmp/change" "$tmp/runs"
git -C "$root" archive "$parent" | tar -x -C "$tmp/parent"
# the working tree: every file git lists that is not ignored, less the deleted ones
git -C "$root" ls-files -z --cached --others --exclude-standard \
    | (cd "$root" && while IFS= read -r -d '' file; do
        if [ -e "$file" ] || [ -L "$file" ]; then printf '%s\0' "$file"; fi
    done) \
    | tar -c -C "$root" --null -T - | tar -x -C "$tmp/change"
rm -rf "$tmp/parent/bench"
cp -R "$tmp/change/bench" "$tmp/parent/bench"

run() {  # run SIDE COPY PAIR: one benchmark run, its output kept
    echo "pair $3: $1" >&2
    if ! (cd "$2" && python3 bench/run.py --workload "$workload" --seed "$seed" \
        --seconds "$seconds" --trace 0) > "$tmp/runs/$1-$3.out" 2> "$tmp/runs/$1-$3.err"; then
        cat "$tmp/runs/$1-$3.err" >&2
        echo "$0: the $1 run of pair $3 failed" >&2
        exit 1
    fi
}
for pair in $(seq 1 "$pairs"); do
    if [ $((pair % 2)) -eq 1 ]; then
        run parent "$tmp/parent" "$pair"
        run change "$tmp/change" "$pair"
    else
        run change "$tmp/change" "$pair"
        run parent "$tmp/parent" "$pair"
    fi
done

python3 - "$tmp/runs" "$parent" "$workload" "$pairs" "$seconds" "$seed" <<'EOF'
import json
import os
import platform
import re
import sys
from pathlib import Path

import numpy as np

runs_dir, parent, workload = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
pairs, seconds, seed = int(sys.argv[4]), float(sys.argv[5]), int(sys.argv[6])
METRICS = ("wall_s", "setup_s", "peak_rss_mb")


def read(side, pair):
    result = json.loads((runs_dir / f"{side}-{pair}.out").read_text().splitlines()[-1])
    # bench/run.py lists each timed pass's seconds on standard error
    log = (runs_dir / f"{side}-{pair}.err").read_text()
    passes = re.search(r"^pass seconds: untraced \[(.*)\] traced", log, re.M)
    run = {"pair": pair}
    run.update((name, round(result["metrics"][name]["value"], 6)) for name in METRICS)
    run.update(attempted=result["attempted"], failed=result["failed"], correct=result["correct"])
    run["passes"] = len(passes.group(1).split(",")) if passes and passes.group(1) else 0
    return run


def cpu():
    model, flags = platform.processor(), ""
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return {"model": model, "flags": flags}
    found = dict(re.findall(r"^(model name|flags)\s*:\s*(.*)$", text, re.M))
    return {"model": found.get("model name", model), "flags": found.get("flags", flags)}


def spread(values):
    median, q1, q3 = np.percentile(values, [50, 25, 75])
    return {"median": round(float(median), 5), "q1": round(float(q1), 5), "q3": round(float(q3), 5)}


runs = {side: [read(side, pair) for pair in range(1, pairs + 1)] for side in ("parent", "change")}
summary = {side: {name: spread([run[name] for run in runs[side]]) for name in METRICS} for side in runs}
lower = {
    name: f"{sum(c[name] < p[name] for p, c in zip(runs['parent'], runs['change']))} of {pairs}"
    for name in METRICS
}
document = {
    "command": (
        f"python3 bench/run.py --workload {workload} --seed {seed} --seconds {seconds:g} --trace 0"
    ),
    "method": (
        f"tools/bench_pairs.sh {parent} {workload} {pairs} {seconds:g} {seed}: the parent "
        "(git archive of that commit, with this checkout's bench/) and this checkout "
        "(a copy of its working tree, files .gitignore excludes left out) run from copies "
        "at the same depth of one temporary directory, one after the other in each pair, "
        "the parent first in odd pairs. Medians and "
        "quartiles are numpy percentiles 50/25/75 over each side's runs; "
        "change_lower_pairs counts the pairs in which the change read lower."
    ),
    "host": {
        "cores": os.cpu_count(),
        # reels forks one process per usable CPU, and under an affinity
        # mask os.cpu_count() counts CPUs this process may not run on
        "usable_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        # true under PYTHONDONTWRITEBYTECODE (or -B): each set-up
        # interpreter of bench/run.py then compiles src/ afresh, so
        # setup_s grows with the size of the source
        "dont_write_bytecode": sys.dont_write_bytecode,
        "cpu": cpu(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    },
    "workloads": {
        workload: {
            "pairs": pairs,
            "seed": seed,
            **summary,
            "change_lower_pairs": lower,
            "runs": runs,
        }
    },
}
print(json.dumps(document, indent=1))
EOF
