"""Spans and counts around the engine's public functions, kept in memory.

The tracer replaces a function in the namespace of the module that calls
it (``reelsim.frames.stage_game`` is what ``transition_distribution``
looks up), so ``src/`` is never edited. A span wrapper records name,
start, end and the enclosing span; a count wrapper only counts calls and
keeps the first arguments it saw, which are replayed after the run to
time one call on the workload's own states. Both are undone by
``uninstall``.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np

SAMPLES = 1000
REPLAYS = 5


def _game_counts(counts, args, game):
    counts["equilibrium.equilibria"] += len(game.equilibria)
    counts["equilibrium.zero_guarantee_agents"] += int(np.sum(np.asarray(game.minimax) == 0.0))


def _filter_counts(counts, args, retained):
    counts["frames.lines_filtered"] += len(args[0])
    counts["frames.lines_retained"] += len(retained)


def _cluster_counts(counts, args, frames):
    counts["frames.clusters"] += len(frames)
    counts["frames.singleton_clusters"] += sum(frame.support == 1 for frame in frames)
    counts["frames.distinct_states"] += len(
        {(frame.tactics.tobytes(), frame.sizes.tobytes()) for frame in frames}
    )


def _tree_counts(counts, args, tree):
    states = set()
    stack = [tree]
    while stack:
        node = stack.pop()
        counts["reels.nodes"] += 1
        states.add((node.state.tactics.tobytes(), node.state.sizes.tobytes()))
        stack.extend(edge.child for edge in node.children)
    counts["reels.distinct_states"] += len(states)


def _export_bytes(counts, args, text):
    counts["exports.bytes"] += len(text.encode())


EXPORTS = (
    "export_frames_json",
    "export_state_dot",
    "export_reels_json",
    "export_tree_dot",
    "export_reel_table_csv",
)

# (calling module, name it looks up, span name, on_result); on_result adds
# counts from the call's arguments and result.
SPANS = [
    ("reelsim.cli", "transition_distribution", "frames.transition_distribution", None),
    ("reelsim.cli", "build_reel_tree", "reels.build_reel_tree", _tree_counts),
    ("reelsim.cli", "enumerate_reels", "reels.enumerate_reels", None),
    *(("reelsim.cli", name, f"exports.{name}", _export_bytes) for name in EXPORTS),
    ("reelsim.reels", "transition_distribution", "reels.expansion", None),
    ("reelsim.frames", "stage_game", "equilibrium.stage_game", _game_counts),
    ("reelsim.frames", "generate_line", "frames.generate_line", None),
    ("reelsim.frames", "folk_filter", "frames.folk_filter", _filter_counts),
    ("reelsim.frames", "cluster_first_moves", "frames.cluster_first_moves", _cluster_counts),
    ("reelsim.equilibrium", "payoff_tensor", "equilibrium.payoff_tensor", None),
]

# (calling module, name it looks up, counter name): hot per-call functions.
COUNTS = [
    ("reelsim.equilibrium", "stage_payoffs", "equilibrium.stage_payoffs"),
    ("reelsim.frames", "update_sizes", "core.update_sizes"),
    ("reelsim.equilibrium", "update_sizes", "core.update_sizes"),
    ("reelsim.frames", "expected_utility", "utility.expected_utility"),
    ("reelsim.equilibrium", "expected_utility", "utility.expected_utility"),
    ("reelsim.frames", "sample_tactic_matrix", "sampling.sample_tactic_matrix"),
]


class Tracer:
    """Collects spans (name, start, end, parent index, pass) and per-pass counts."""

    def __init__(self, clock=perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counts: list[Counter] = []
        self.samples: dict[str, list] = defaultdict(list)
        self.originals: dict[str, object] = {}
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.missing: set[str] = set()

    def begin_pass(self) -> None:
        self.counts.append(Counter())

    def install(self) -> None:
        for module_name, attribute, name, on_result in SPANS:
            self._patch(module_name, attribute, lambda fn, n=name, f=on_result: self._span(n, fn, f))
        for module_name, attribute, name in COUNTS:
            self._patch(module_name, attribute, lambda fn, n=name: self._count(n, fn))

    def uninstall(self) -> None:
        for module, attribute, original in reversed(self._patched):
            setattr(module, attribute, original)
        self._patched.clear()

    def _patch(self, module_name, attribute, make) -> None:
        module = importlib.import_module(module_name)
        original = getattr(module, attribute, None)
        if original is None:
            self.missing.add(f"{module_name}.{attribute}")
            return
        self._patched.append((module, attribute, original))
        setattr(module, attribute, make(original))

    def _span(self, name, fn, on_result):
        def traced(*args, **kwargs):
            counts = self.counts[-1]
            counts[name + ".calls"] += 1
            record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, len(self.counts) - 1]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            record[1] = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                self._stack.pop()
            if on_result is not None:
                on_result(counts, args, result)
            return result

        return traced

    def _count(self, name, fn):
        self.originals.setdefault(name, fn)
        samples = self.samples[name]

        def counted(*args, **kwargs):
            self.counts[-1][name + ".calls"] += 1
            if len(samples) < SAMPLES:
                samples.append((args, kwargs))
            return fn(*args, **kwargs)

        return counted

    def per_call_us(self, name: str) -> float:
        """Median time of one call, replaying the arguments seen in the run."""
        samples = self.samples.get(name)
        if not samples:
            return 0.0
        fn = self.originals[name]
        times = []
        for _ in range(REPLAYS):
            start = perf_counter()
            for args, kwargs in samples:
                fn(*args, **kwargs)
            times.append(perf_counter() - start)
        return statistics.median(times) / len(samples) * 1e6

    def pass_metrics(self, index: int) -> dict[str, float]:
        """Layer times and counts of one traced pass."""
        durations = defaultdict(float)
        self_times = defaultdict(float)
        child_time = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for number, (name, start, end, parent, pass_index) in enumerate(self.spans):
            if pass_index == index:
                durations[name] += end - start
                self_times[name] += end - start - child_time[number]
        counts = self.counts[index]
        lines = counts["frames.generate_line.calls"]
        filtered = counts["frames.lines_filtered"]
        lines_s = durations["frames.generate_line"]
        return {
            "equilibrium.stage_game_s": durations["equilibrium.stage_game"],
            "equilibrium.payoff_tensor_s": durations["equilibrium.payoff_tensor"],
            "equilibrium.profiles": counts["equilibrium.stage_payoffs.calls"],
            "equilibrium.equilibria": counts["equilibrium.equilibria"],
            "equilibrium.zero_guarantee_agents": counts["equilibrium.zero_guarantee_agents"],
            "frames.lines": lines,
            "frames.lines_s": lines_s,
            "frames.lines_per_s": lines / lines_s if lines_s > 0.0 else 0.0,
            "frames.filter_s": durations["frames.folk_filter"],
            "frames.retained_ratio": counts["frames.lines_retained"] / filtered if filtered else 0.0,
            "frames.cluster_s": durations["frames.cluster_first_moves"],
            "frames.clusters": counts["frames.clusters"],
            "frames.distinct_states": counts["frames.distinct_states"],
            "frames.singleton_clusters": counts["frames.singleton_clusters"],
            "frames.self_s": self_times["frames.transition_distribution"]
            + self_times["reels.expansion"],
            "core.update_sizes_calls": counts["core.update_sizes.calls"],
            "utility.expected_utility_calls": counts["utility.expected_utility.calls"],
            "sampling.sample_tactic_matrix_calls": counts["sampling.sample_tactic_matrix.calls"],
            "reels.expansions": counts["reels.expansion.calls"],
            "reels.nodes": counts["reels.nodes"],
            "reels.distinct_states": counts["reels.distinct_states"],
            "reels.expansion_s": durations["reels.expansion"],
            "reels.self_s": self_times["reels.build_reel_tree"],
            "exports.export_s": sum(durations[f"exports.{name}"] for name in EXPORTS),
            "exports.bytes": counts["exports.bytes"],
        }

    def write(self, path: Path, header: dict, metrics: dict) -> None:
        """All spans, counts and metrics as one JSON document."""
        origin = min((span[1] for span in self.spans), default=0.0)
        payload = {
            **header,
            "span_fields": ["name", "start_s", "end_s", "parent", "pass"],
            "spans": [
                [name, start - origin, end - origin, parent, index]
                for name, start, end, parent, index in self.spans
            ],
            "counts": [dict(sorted(counts.items())) for counts in self.counts],
            "missing_hooks": sorted(self.missing),
            "metrics": metrics,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")
