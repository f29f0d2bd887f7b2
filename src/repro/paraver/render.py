"""ASCII rendering of traces — the repo's stand-in for Paraver screenshots.

:func:`render_state_timeline` draws the state view (Fig. 6/11-13 style):
one row per hardware thread, one character per time bucket, using the
paper's color legend as letters ('.' Idle, '#' Running — green in the
paper, 'C' Critical — blue, 's' Spinning — red).

:func:`render_series` draws an event series (bandwidth, GFLOP/s) as a
fixed-height bar chart, the equivalent of the throughput panes in
Figs. 7-9.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..profiling.config import ThreadState
from ..profiling.recorder import RunTrace

__all__ = ["STATE_GLYPHS", "render_state_timeline", "render_series"]

STATE_GLYPHS = {
    ThreadState.IDLE: ".",
    ThreadState.RUNNING: "#",
    ThreadState.CRITICAL: "C",
    ThreadState.SPINNING: "s",
}


def render_state_timeline(trace: RunTrace, width: int = 100,
                          start: int = 0, end: Optional[int] = None) -> str:
    """Render per-thread states over [start, end) into ``width`` buckets.

    Each bucket shows the state that occupied most of its cycles; zooming
    (the paper zooms into Fig. 6 to show thread 7 spinning on thread 6's
    critical section) is done by narrowing [start, end).
    """

    if end is None:
        end = trace.end_cycle
    if end <= start:
        raise ValueError(f"empty render window [{start}, {end})")
    span = end - start
    # bucket b covers [start + b*span//width, start + (b+1)*span//width)
    edges = start + np.arange(width + 1, dtype=np.int64) * span // width
    glyphs = np.array([STATE_GLYPHS[state] for state in ThreadState])
    lines = []
    for thread in range(trace.num_threads):
        occupancy = trace.states.occupancy(thread, edges)
        # the state occupying most of the bucket; Idle when none does
        dominant = np.where(occupancy.any(axis=1), occupancy.argmax(axis=1),
                            int(ThreadState.IDLE))
        lines.append(f"t{thread}: " + "".join(glyphs[dominant].tolist()))
    legend = "   [" + " ".join(f"{g}={s.name.title()}"
                               for s, g in STATE_GLYPHS.items()) + "]"
    return "\n".join(lines) + "\n" + legend


def render_series(values: Sequence[float], width: int = 100, height: int = 8,
                  label: str = "") -> str:
    """Render a numeric series as an ASCII bar chart."""

    data = np.asarray(values, dtype=float)
    if data.size == 0:
        return f"{label}(empty)"
    if data.size > width:
        # average down to `width` buckets
        edges = np.linspace(0, data.size, width + 1).astype(int)
        data = np.array([data[a:b].mean() if b > a else 0.0
                         for a, b in zip(edges[:-1], edges[1:])])
    peak = data.max()
    if peak <= 0:
        peak = 1.0
    rows = []
    for level in range(height, 0, -1):
        threshold = peak * (level - 0.5) / height
        rows.append("".join("█" if v >= threshold else " " for v in data))
    axis = "─" * len(data)
    head = f"{label} (peak {peak:.3g})" if label else f"peak {peak:.3g}"
    return head + "\n" + "\n".join(rows) + "\n" + axis
