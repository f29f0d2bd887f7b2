"""In-memory spans of the benchmark's calls, merged with the program's own.

The benchmark records one span around each call it makes into the
program (job -> compile / simulate / check / write / reconstruct /
report / why / score).  Spans of one job share its id; the job span is
their parent.  While tracing, each job also runs inside
``Telemetry.capture()``, so the program's existing spans (``frontend``,
``hls``, ``sim``, ``profiling.finalize``, ``paraver``) and counters are
kept, read before the capture ends, and placed on the same clock.

Nothing is written until :meth:`Tracer.dump`.  With tracing off every
call is a no-op context manager.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import time
from dataclasses import asdict, dataclass
from typing import Iterator

from repro import telemetry
from repro.hls.cache import CompileCache

#: layers of the repository, as named by the per-layer metrics
LAYERS = ("bench", "apps", "frontend", "hls", "hls.cache", "sim",
          "profiling", "paraver", "report", "explore")

#: every per-layer metric: name -> (unit, which way is better)
PER_LAYER = {
    "frontend.s": ("s", "lower"),
    "hls.s": ("s", "lower"),
    "explore.score_s": ("s", "lower"),
    "hls.cache.load_s": ("s", "lower"),
    "hls.cache.hit_ratio": ("ratio", "higher"),
    "sim.run_s": ("s", "lower"),
    "sim.mcycles_per_s": ("Mcycles/s", "higher"),
    "profiling.finalize_s": ("s", "lower"),
    "sim.fastpath.nests_flattened": ("count", "higher"),
    "sim.fastpath.nest_fallbacks": ("count", "lower"),
    "sim.fastpath.flatten_ratio": ("ratio", "higher"),
    "sim.fastpath.fallbacks": ("count", "lower"),
    "sim.fastpath.iters_vectorized": ("count", "higher"),
    "sim.fastpath.fallback_ratio": ("ratio", "lower"),
    "sim.events_fired": ("count", "lower"),
    "apps.check_s": ("s", "lower"),
    "paraver.write_s": ("s", "lower"),
    "paraver.bytes": ("B", "lower"),
    "paraver.records": ("count", "lower"),
    "paraver.reconstruct_s": ("s", "lower"),
    "paraver.reconstruct_mb_per_s": ("MB/s", "higher"),
    "report.build_s": ("s", "lower"),
    "report.why_s": ("s", "lower"),
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "tracing.overhead_s": ("s", "lower"),
    "tracing.overhead_pct": ("%", "lower"),
}


@dataclass
class Span:
    id: int
    parent: int           # -1 for a root
    name: str
    layer: str
    job: str
    round: int
    start_ns: int         # time.perf_counter_ns()
    end_ns: int
    source: str = "bench"  # "bench" | "program"

    @property
    def seconds(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


def program_layer(name: str) -> str:
    """The layer of one of the program's own span names."""

    head = name.split(".", 1)[0]
    return head if head in LAYERS else "bench"


class Tracer:
    """Collects spans and program counters for the traced rounds."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.round = 0
        self.spans: list[Span] = []
        #: round -> program counter totals over that round's jobs
        self.counters: dict[int, dict[str, float]] = {}
        self._ids = itertools.count()
        self._stack: list[Span] = []

    @contextlib.contextmanager
    def _open(self, name: str, layer: str, job: str) -> Iterator[Span]:
        parent = self._stack[-1].id if self._stack else -1
        span = Span(next(self._ids), parent, name, layer, job, self.round,
                    time.perf_counter_ns(), 0)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._stack.pop()
            self.spans.append(span)

    def span(self, name: str, layer: str):
        """Time one call into ``layer`` within the current job."""

        if not self.enabled:
            return contextlib.nullcontext()
        return self._open(name, layer, self._stack[-1].job
                          if self._stack else "")

    @contextlib.contextmanager
    def job(self, job_id: str) -> Iterator[None]:
        """One job: a root span plus the program's telemetry inside it."""

        if not self.enabled:
            yield
            return
        session = telemetry.get_telemetry()
        with self._open("job", "bench", job_id) as root, \
                session.capture(enabled=True) as captured:
            try:
                yield
            finally:
                # read the program's spans and counters before the
                # capture ends and throws them away
                self._adopt(captured, root)

    def _adopt(self, captured: telemetry.Telemetry, root: Span) -> None:
        ids = {}
        for record in captured.spans:
            ids[record.id] = next(self._ids)
        for record in captured.spans:
            self.spans.append(Span(
                ids[record.id], ids.get(record.parent, root.id),
                record.name, program_layer(record.name), root.job,
                self.round, captured.origin_ns + record.start_ns,
                captured.origin_ns + record.end_ns, source="program"))
        totals = self.counters.setdefault(self.round, {})
        for name, value in captured.counters.items():
            totals[name] = totals.get(name, 0.0) + value

    def dump(self, path: str, meta: dict) -> None:
        with open(path, "w") as handle:
            json.dump({"schema": "perfbench.trace/1", **meta,
                       "counters": {str(k): v
                                    for k, v in self.counters.items()},
                       "spans": [asdict(s) for s in self.spans]}, handle)
            handle.write("\n")


class TracedCache(CompileCache):
    """A ``CompileCache`` whose lookups are ``hls.cache.load`` spans."""

    def __init__(self, directory: str, tracer: Tracer):
        super().__init__(directory)
        self.tracer = tracer

    def load(self, key: str):
        with self.tracer.span("hls.cache.load", "hls.cache"):
            return super().load(key)


# ----------------------------------------------------------------------
# per-layer metrics of one traced round
# ----------------------------------------------------------------------
def _nesting(spans: list[Span]) -> dict[int, int]:
    """Span id -> id of the innermost span whose interval contains it.

    Bench and program spans record parents in two separate stacks (a
    cache lookup runs inside the program's ``frontend`` span), so
    self time nests them by time instead.
    """

    parent: dict[int, int] = {}
    stack: list[Span] = []
    for span in sorted(spans, key=lambda s: (s.start_ns, -s.end_ns)):
        while stack and stack[-1].end_ns < span.end_ns:
            stack.pop()
        parent[span.id] = stack[-1].id if stack else -1
        stack.append(span)
    return parent


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per layer not covered by a nested span."""

    seconds = {span.id: span.seconds for span in spans}
    children: dict[int, float] = {}
    for span_id, parent in _nesting(spans).items():
        children[parent] = children.get(parent, 0.0) + seconds[span_id]
    totals = dict.fromkeys(LAYERS, 0.0)
    for span in spans:
        totals[span.layer] += span.seconds - children.get(span.id, 0.0)
    return totals


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def round_metrics(spans: list[Span], counters: dict[str, float],
                  cycles: int) -> dict[str, float]:
    """Every per-layer metric of one traced round."""

    def total(name: str, source: str = "bench", root_only: bool = False):
        return sum(s.seconds for s in spans
                   if s.name == name and s.source == source
                   and not (root_only and s.parent in program_ids))

    program_ids = {s.id for s in spans if s.source == "program"}
    count = counters.get
    finalize = total("profiling.finalize", "program")
    sim_run = total("simulate") - finalize
    hits = count("compile_cache.hits", 0.0)
    lookups = hits + count("compile_cache.misses", 0.0)
    flattened = count("sim.fastpath.nests_flattened", 0.0)
    nest_fallbacks = count("sim.fastpath.nest_fallbacks", 0.0)
    fallbacks = count("sim.fastpath.fallbacks", 0.0)
    batches = count("sim.fastpath.batches", 0.0)
    reconstruct = total("reconstruct")
    metrics = {
        "frontend.s": total("frontend", "program", root_only=True),
        "hls.s": total("hls", "program", root_only=True),
        "explore.score_s": total("score"),
        "hls.cache.load_s": total("hls.cache.load"),
        "hls.cache.hit_ratio": _ratio(hits, lookups),
        "sim.run_s": sim_run,
        "sim.mcycles_per_s": _ratio(cycles / 1e6, sim_run),
        "profiling.finalize_s": finalize,
        "sim.fastpath.nests_flattened": flattened,
        "sim.fastpath.nest_fallbacks": nest_fallbacks,
        "sim.fastpath.flatten_ratio": _ratio(flattened,
                                             flattened + nest_fallbacks),
        "sim.fastpath.fallbacks": fallbacks,
        "sim.fastpath.iters_vectorized": count(
            "sim.fastpath.iters_vectorized", 0.0),
        "sim.fastpath.fallback_ratio": _ratio(fallbacks, batches + fallbacks),
        "sim.events_fired": count("sim.events_fired", 0.0),
        "apps.check_s": total("check"),
        "paraver.write_s": total("write"),
        "paraver.bytes": count("paraver.bytes", 0.0),
        "paraver.records": count("paraver.records", 0.0),
        "paraver.reconstruct_s": reconstruct,
        "paraver.reconstruct_mb_per_s": _ratio(
            count("paraver.bytes", 0.0) / 1e6, reconstruct),
        "report.build_s": total("report"),
        "report.why_s": total("why"),
    }
    for layer, seconds in self_times(spans).items():
        metrics[f"{layer}.self_s"] = seconds
    return metrics
