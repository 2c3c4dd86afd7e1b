"""Reference sweep: the stage game and line generation as n, k and lines grow.

    python3 bench/sweep.py

Times reelsim.stage_game for n in {3, 4, 5} and k in {8, 12, 30} at the
library default max_profiles, and generating lines (horizon 5) for n in
{3, 4, 5} and lines in {500, 2000}. Each figure is the median of
REPEATS calls in this process. n=3 uses the shipped scenario; n=4 and
n=5 use workloads.sampled_document with seed 0.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import reelsim  # noqa: E402
from workloads import sampled_document, shipped_document  # noqa: E402

REPEATS = 3
HORIZON = 5


def median_time(call) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scenario(n: int):
    base = shipped_document(ROOT)
    doc = base if n == 3 else sampled_document(base, 0, n)
    return reelsim.parse_scenario(json.dumps(doc))


def lines(parsed, count: int) -> None:
    cfg = parsed.sampler
    for index in range(count):
        rng = reelsim.substream(cfg.rng_seed, reelsim.LINE_STREAM, index)
        reelsim.generate_line(parsed.state, HORIZON, cfg, parsed.params, rng)


def main() -> None:
    print(
        f"{os.cpu_count()} cores, Python {platform.python_version()}, numpy {np.__version__}, "
        f"median of {REPEATS}"
    )
    print("\n| n | k | profiles | path | stage_game s |\n|---|---|---|---|---|")
    for n in (3, 4, 5):
        parsed = scenario(n)
        for k in (8, 12, 30):
            profiles = k**n
            path = "exhaustive" if profiles <= reelsim.DEFAULT_MAX_PROFILES else "subsampled"
            seconds = median_time(
                lambda: reelsim.stage_game(parsed.state, parsed.params, parsed.sampler, k_candidates=k)
            )
            print(f"| {n} | {k} | {profiles:,} | {path} | {seconds:.3f} |", flush=True)
    print("\n| n | lines | generate_line s | lines/s |\n|---|---|---|---|")
    for n in (3, 4, 5):
        parsed = scenario(n)
        for count in (500, 2000):
            seconds = median_time(lambda: lines(parsed, count))
            print(f"| {n} | {count} | {seconds:.3f} | {count / seconds:,.0f} |", flush=True)


if __name__ == "__main__":
    main()
