"""Text artifacts: DOT graphs, CSV tables, and JSON result documents.

Everything here is a pure function of its inputs with fixed key order
and shortest round-trip float formatting, so identical runs produce
byte-identical files.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json

import numpy as np

from .core import State
from .frames import FrameDistribution
from .reels import Reel, ReelNode, _walk
from .scenario import agent_rows


def export_state_dot(state: State, names: list[str] | None = None) -> str:
    """Directed graph of who feeds or fights whom.

    Node width grows with power; dead agents render at minimum width
    with a marker. Edges point from the allocating agent to the target,
    green for support and red for attack, pen width scaling with the
    transferred power. Self-allocations become node annotations instead
    of loops.
    """
    names = _agent_names(state.n, names)
    lines = ["digraph state {", "  rankdir=LR;", "  node [shape=circle];"]
    for index in range(state.n):
        size = float(state.sizes[index])
        label = f"{_esc(names[index])}\\ns={size:g}\\nself={float(state.tactics[index, index]):g}"
        if size == 0.0:
            label += "\\n(dead)"
        width = 0.4 + 1.2 * size
        lines.append(f'  n{index} [label="{label}", width={width:.3f}];')
    for source in range(state.n):
        for target in range(state.n):
            if source == target:
                continue
            allocation = float(state.tactics[target, source])
            if allocation == 0.0:
                continue
            color = "green" if allocation > 0.0 else "red"
            penwidth = max(0.1, 6.0 * abs(allocation) * float(state.sizes[source]))
            lines.append(
                f'  n{source} -> n{target} '
                f'[color={color}, penwidth={penwidth:.3f}, label="{allocation:g}"];'
            )
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_tree_dot(tree: ReelNode) -> str:
    """Tree of future frames, edges labeled with transition probabilities."""
    lines = ["digraph reels {", "  node [shape=box];"]
    # each node's edge from its parent, then its own line
    for node, path, _, probabilities in _walk(tree):
        if path:
            lines.append(
                f'  {_node_id(path[:-1])} -> {_node_id(path)} [label="{probabilities[-1]:.3f}"];'
            )
        sizes_text = ", ".join(f"{value:.3f}" for value in node.state.sizes)
        label = f"[{sizes_text}]"
        if node.leaf_reason is not None:
            label += f"\\n{node.leaf_reason}"
        if node.dropped_mass > 0.0:
            label += f"\\ndropped={node.dropped_mass:.3f}"
        lines.append(f'  {_node_id(path)} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def export_sizes_csv(size_rows, names: list[str]) -> str:
    """Agent-name header, then one full-precision row per time step."""
    names = list(names)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(names)
    for row in size_rows:
        values = [float(value) for value in row]
        if len(values) != len(names):
            raise ValueError(f"row has {len(values)} values for {len(names)} agents")
        writer.writerow([repr(value) for value in values])
    return buffer.getvalue()


def export_frames_json(distribution: FrameDistribution, names: list[str]) -> str:
    """Frame distribution as a stable JSON document.

    The text is json.dumps(payload, indent=2) of the agents, the frames
    and the diagnostics. The frames are filled into a fixed-schema
    template instead, which skips json's pure-Python indenting encoder;
    a non-finite frame value raises ValueError.
    """
    diagnostics = distribution.diagnostics
    payload = {
        "agents": _agent_names(len(diagnostics.minimax), names),
        "frames": [],
        "diagnostics": {**vars(diagnostics), "minimax": diagnostics.minimax.tolist()},
    }
    text = json.dumps(payload, indent=2) + "\n"
    if not distribution.frames:
        return text
    rows = [
        (
            float(frame.probability),
            frame.support,
            float(frame.weight),
            *itertools.chain.from_iterable(agent_rows(frame.tactics)),
            *frame.sizes.tolist(),
        )
        for frame in distribution.frames
    ]
    if not np.isfinite(np.array(rows, dtype=float)).all():
        raise ValueError("frames.json holds finite numbers only")
    template = _frame_template(distribution.frames[0].sizes.shape[0])
    listed = ",\n".join(template % row for row in rows)
    return text.replace('\n  "frames": []', f'\n  "frames": [\n{listed}\n  ]', 1)


@functools.cache
def _frame_template(n: int) -> str:
    """One frames.json entry for n agents as json.dumps(indent=2) lays it
    out at depth 2, with %r for each float and %d for the support."""
    entry = {
        "probability": "%r",
        "support": "%d",
        "weight": "%r",
        "tactics": [["%r"] * n] * n,
        "sizes": ["%r"] * n,
    }
    text = "    " + json.dumps(entry, indent=2).replace("\n", "\n    ")
    return text.replace('"%r"', "%r").replace('"%d"', "%d")


def export_reels_json(tree: ReelNode, reels: list[Reel], names: list[str]) -> str:
    """Full tree plus the ranked reel table as one JSON document."""
    payload = {
        "agents": _agent_names(tree.state.n, names),
        "tree": _node_payload(tree),
        "reels": [
            {
                "indices": list(reel.indices),
                "probability": reel.probability,
                "steps": len(reel.indices),
                "leaf_reason": reel.leaf_reason,
                "final_sizes": [float(value) for value in reel.path[-1].sizes],
            }
            for reel in reels
        ],
    }
    return json.dumps(payload, indent=2) + "\n"


def export_reel_table_csv(reels: list[Reel], names: list[str]) -> str:
    """Ranked reel summary: probability, length, stop reason, final sizes."""
    names = _agent_names(reels[0].path[-1].n if reels else len(names), names)
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["rank", "probability", "steps", "leaf_reason", *names])
    for rank, reel in enumerate(reels, start=1):
        writer.writerow(
            [
                rank,
                repr(reel.probability),
                len(reel.indices),
                reel.leaf_reason or "",
                *[repr(float(value)) for value in reel.path[-1].sizes],
            ]
        )
    return buffer.getvalue()


def _node_payload(node: ReelNode) -> dict:
    return {
        "depth": node.depth,
        "sizes": [float(value) for value in node.state.sizes],
        "tactics": agent_rows(node.state.tactics),
        "leaf_reason": node.leaf_reason,
        "dropped_mass": node.dropped_mass,
        "children": [
            {"probability": edge.probability, "node": _node_payload(edge.child)}
            for edge in node.children
        ],
    }


def _agent_names(n: int, names: list[str] | None) -> list[str]:
    if names is None:
        return [f"a{index + 1}" for index in range(n)]
    names = list(names)
    if len(names) != n:
        raise ValueError(f"got {len(names)} names for {n} agents")
    return names


def _node_id(path: tuple[int, ...]) -> str:
    return "root" if not path else "n" + "_".join(str(index) for index in path)


def _esc(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')
