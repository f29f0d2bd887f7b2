"""Reconstruct a full :class:`RunTrace` from a saved Paraver trace.

The inverse of :mod:`repro.paraver.format`: where the writer flattens
the recorder's in-memory :class:`~repro.profiling.recorder.RunTrace`
into ``.prv`` records, this module folds parsed records back into the
same structure — per-thread state intervals covering ``[0, end_cycle]``
and ``[bins, threads]`` event arrays — so *every* metric in
:mod:`repro.paraver.analysis` and the bottleneck classifier in
:mod:`repro.analysis.bottlenecks` runs on a trace file exactly as it
would on a live simulation result.  This is what lets the paper's
workflow — save a trace, study it later, compare five saved versions
side by side (§V-C/§VI) — work without re-running the simulator.

Two things the ``.prv`` body does not carry are recovered separately:

* the **sampling period** comes from the ``.pcf`` metadata our writer
  stashes, or failing that from the cadence of the event records (their
  timestamps are multiples of the period, so the GCD of the unclamped
  flush times recovers it);
* the **accelerator clock** comes from the ``.pcf`` metadata, an
  explicit argument, or the board default (140 MHz).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

import numpy as np

from ..profiling.attribution import AttributionTable, N_SLOTS
from ..profiling.config import EventKind, ProfilingConfig, ThreadState
from ..profiling.recorder import RunTrace, StateLog
from ..sim.executor import SimResult
from .format import (
    ATTR_EVENT_BASE, ATTR_EVENT_LIMIT, ATTR_EVENT_STRIDE, EVENT_TYPE_IDS,
)
from .metadata import PcfInfo, RowInfo, companion_paths, parse_pcf, parse_row
from .parser import ParsedTrace, PrvBlock, PrvReader

__all__ = ["ReconstructedRun", "reconstruct_trace", "reconstruct_run",
           "recover_sampling_period"]

#: inverse of the writer's event-type table
_EVENT_KINDS = {type_id: kind for kind, type_id in EVENT_TYPE_IDS.items()}

_DEFAULT_CLOCK_MHZ = 140.0


@dataclass
class ReconstructedRun:
    """A saved trace rebuilt into simulator-equivalent objects.

    ``result`` is a genuine :class:`~repro.sim.executor.SimResult`
    (buffers empty, DRAM geometry counters zero — the trace does not
    record them), so ``diagnose(run.result)`` and every ``SimResult``
    consumer work unchanged.
    """

    result: SimResult
    source: str
    #: where the clock came from: "explicit" | "pcf" | "default"
    clock_source: str
    #: where the period came from: "explicit" | "pcf" | "cadence" | "default"
    period_source: str
    thread_names: list[str] = field(default_factory=list)
    #: event type ids present in the .prv but unknown to this toolchain,
    #: mapped to their record counts
    unknown_event_types: dict[int, int] = field(default_factory=dict)
    pcf: Optional[PcfInfo] = None
    row: Optional[RowInfo] = None

    @property
    def trace(self) -> RunTrace:
        return self.result.trace


def recover_sampling_period(
        parsed: Union[str, ParsedTrace]) -> Optional[int]:
    """Infer the sampling period from event-record cadence.

    The writer stamps each counter flush at its window's *end*,
    ``(bin + 1) * period`` (clamped to the trace end), so every
    unclamped flush time is a positive multiple of the period and their
    GCD recovers it.  Returns ``None`` when the trace has no usable
    event records (the cadence is then unknowable).

    ``parsed`` may also be a ``.prv`` path, read block by block with
    only the distinct flush times held in memory.
    """

    if isinstance(parsed, str):
        with PrvReader(parsed) as reader:
            times = [np.unique(block.events[:, 2]) for block in reader]
            return _cadence(times, reader.end_time)
    return _cadence([parsed.columns().events[:, 2]], parsed.end_time)


def _cadence(times: list[np.ndarray], end_time: int) -> Optional[int]:
    """GCD of the event times, interior ones preferred (see above)."""

    times = np.unique(np.concatenate(times)) if times else np.zeros(0)
    positive = times[times > 0]
    # an event exactly at end_time is unclamped only if it is also the
    # window boundary; including it can only leave the GCD unchanged or
    # wrong, so prefer interior times and fall back to the end time.
    interior = positive[positive < end_time]
    chosen = interior if interior.size else positive
    if not chosen.size:
        return None
    return int(np.gcd.reduce(chosen))


def reconstruct_trace(parsed: Union[str, ParsedTrace],
                      sampling_period: Optional[int] = None,
                      pcf: Optional[PcfInfo] = None
                      ) -> tuple[RunTrace, str, dict[int, int]]:
    """Rebuild a :class:`RunTrace` from parsed ``.prv`` records.

    ``parsed`` may be an in-memory :class:`ParsedTrace` or a ``.prv``
    path.  A path is read once, block by block (:class:`PrvReader`),
    and each block is folded into the output as it arrives: the event
    records go into the ``[bins, threads]`` arrays, the state records
    are kept as columns.  When the sampling period must be recovered
    from the event cadence, the event columns wait for the end of the
    same pass.

    Returns ``(trace, period_source, unknown_event_types)``; see
    :class:`ReconstructedRun` for the source vocabulary.
    """

    if isinstance(parsed, str):
        with PrvReader(parsed) as reader:
            return _fold(reader, reader.end_time, reader.num_tasks,
                         sampling_period, pcf)
    return _fold([parsed.columns()], parsed.end_time, parsed.num_tasks,
                 sampling_period, pcf)


def _fold(blocks: Iterable[PrvBlock], end_cycle: int, num_threads: int,
          sampling_period: Optional[int], pcf: Optional[PcfInfo]
          ) -> tuple[RunTrace, str, dict[int, int]]:
    if sampling_period is not None:
        period, period_source = sampling_period, "explicit"
    elif pcf is not None and pcf.sampling_period:
        period, period_source = pcf.sampling_period, "pcf"
    else:
        period, period_source = None, "cadence"
    # known-kind event columns (kind index, time, thread, value) that
    # wait for the cadence; binned right away when the period is known
    pending: list[np.ndarray] = []
    times: list[np.ndarray] = []
    series: dict[EventKind, np.ndarray] = {}
    # kinds in order of first appearance (the events dict order)
    kinds: dict[EventKind, None] = {}
    states: list[np.ndarray] = []
    unknown: dict[int, int] = {}
    attribution: Optional[AttributionTable] = None
    for block in blocks:
        # tasks are 1-based in the .prv, threads 0-based here
        thread = block.states[:, 1] - 1
        keep = (thread >= 0) & (thread < num_threads)
        states.append(np.column_stack((thread[keep],
                                       block.states[keep, 2:])))
        events = block.events
        if not len(events):
            continue
        if period is None:
            times.append(np.unique(events[:, 2]))
        type_id = events[:, 3]
        family = (type_id >= ATTR_EVENT_BASE) & (type_id < ATTR_EVENT_LIMIT)
        slot = (type_id - ATTR_EVENT_BASE) % ATTR_EVENT_STRIDE
        # the writer's own counters: index into _KIND_IDS / _KINDS
        kind_index = np.searchsorted(_KIND_IDS, type_id)
        known = _KIND_IDS[np.minimum(kind_index, len(_KIND_IDS) - 1)] \
            == type_id
        _count_first_seen(unknown, type_id[(family & (slot >= N_SLOTS))
                                           | ~(family | known)])
        attribution = _add_attribution(
            attribution, events[family & (slot < N_SLOTS)], num_threads, pcf)
        if not known.any():
            continue
        for index in _kinds_first_seen(kind_index[known]):
            kinds.setdefault(_KINDS[index])
        thread = events[:, 1] - 1
        keep = known & (thread >= 0) & (thread < num_threads)
        columns = np.column_stack((kind_index[keep], events[keep, 2],
                                   thread[keep], events[keep, 4]))
        if period is None:
            pending.append(columns)
        else:
            _bin_events(series, columns, period, end_cycle, num_threads)

    if period is None:
        period = _cadence(times, end_cycle)
        if period is None:
            period, period_source = ProfilingConfig().sampling_period, \
                "default"
        for columns in pending:
            _bin_events(series, columns, period, end_cycle, num_threads)
    # a kind seen only on out-of-range threads still gets its array
    shape = (_n_bins(end_cycle, period), num_threads)
    events = {kind: series[kind] if kind in series else np.zeros(shape)
              for kind in kinds}
    columns = np.concatenate(states) if states else \
        np.zeros((0, 4), dtype=np.int64)
    trace = RunTrace(num_threads, end_cycle, period,
                     _cover(columns, end_cycle, num_threads), events,
                     attribution=attribution)
    return trace, period_source, unknown


#: the writer's event type ids, sorted, and their kinds in that order
_KIND_IDS = np.array(sorted(EVENT_TYPE_IDS.values()), dtype=np.int64)
_KINDS = [_EVENT_KINDS[type_id] for type_id in _KIND_IDS.tolist()]


def _n_bins(end_cycle: int, period: int) -> int:
    return max(1, -(-max(1, end_cycle) // period))


def _kinds_first_seen(kind_index: np.ndarray) -> list[int]:
    """Distinct kind indices in order of first appearance."""

    present = np.flatnonzero(np.bincount(kind_index, minlength=len(_KINDS)))
    first = [int(np.argmax(kind_index == index)) for index in present]
    return present[np.argsort(first)].tolist()


def _count_first_seen(counts: dict[int, int], values: np.ndarray) -> None:
    """Add each value's count to ``counts``, new keys in file order."""

    if values.size:
        distinct, first, n = np.unique(values, return_index=True,
                                       return_counts=True)
        for i in np.argsort(first).tolist():
            key = int(distinct[i])
            counts[key] = counts.get(key, 0) + int(n[i])


def _add_attribution(table: Optional[AttributionTable], rows: np.ndarray,
                     num_threads: int, pcf: Optional[PcfInfo]
                     ) -> Optional[AttributionTable]:
    """Fold cycle-accounting event rows (a few per region and thread)
    into ``table``, created on the first row; rows in file order."""

    for type_id, task, value in rows[:, [3, 1, 4]].tolist():
        index, cause = divmod(type_id - ATTR_EVENT_BASE, ATTR_EVENT_STRIDE)
        if table is None:
            table = AttributionTable(num_threads)
            if pcf is not None:
                table.regions.update(
                    {key: label for key, label in pcf.attr_regions.values()})
        if pcf is not None and index in pcf.attr_regions:
            region = pcf.attr_regions[index][0]
        else:
            # no .pcf map: keep the family index as the region key
            region = index
        if 0 <= task - 1 < num_threads:
            cell = table.cells.get((region, task - 1))
            if cell is None:
                cell = table.cells[(region, task - 1)] = [0] * N_SLOTS
            cell[cause] += value
    return table


def _bin_events(series: dict[EventKind, np.ndarray], columns: np.ndarray,
                period: int, end_cycle: int, num_threads: int) -> None:
    """Add event columns into their kinds' ``[bins, threads]`` arrays.

    Flush times map back to bins; the final window absorbs clamped
    stamps exactly as ProfilingRecorder.finalize did.
    """

    n_bins = _n_bins(end_cycle, period)
    kind_index, time, thread, value = columns.T
    b = np.where((time > 0) & (time % period == 0),
                 time // period - 1, time // period)
    np.clip(b, 0, n_bins - 1, out=b)
    for index in np.flatnonzero(np.bincount(kind_index)).tolist():
        array = series.get(_KINDS[index])
        if array is None:
            array = series[_KINDS[index]] = np.zeros((n_bins, num_threads))
        rows = kind_index == index
        np.add.at(array, (b[rows], thread[rows]),
                  value[rows].astype(np.float64))


def _cover(columns: np.ndarray, end_cycle: int,
           num_threads: int) -> StateLog:
    """Per-thread intervals sorted by (start, end), IDLE-padded to cover
    ``[0, end_cycle]``: a gap before an interval that starts past every
    earlier end, and a tail after the last end."""

    thread, start, end, state = columns.T
    invalid = (state < 0) | (state >= len(ThreadState))
    if invalid.any():
        raise ValueError(f"{state[invalid][0]} is not a valid ThreadState")
    order = np.lexsort((end, start, thread))
    thread, start, end, state = thread[order], start[order], end[order], \
        state[order]
    offsets = np.searchsorted(thread, np.arange(num_threads + 1))
    parts = []
    for t in range(num_threads):
        rows = slice(offsets[t], offsets[t + 1])
        s, e = start[rows], end[rows]
        # the cursor before each interval: the furthest end so far
        reach = np.maximum.accumulate(np.concatenate(([0], e)))
        cursor = reach[:-1]
        gap = s > cursor
        tail = reach[-1] < end_cycle
        slot = np.arange(len(s)) + np.cumsum(gap)
        n = len(s) + int(gap.sum()) + int(tail)
        out = np.zeros((n, 4), dtype=np.int64)   # IDLE unless overwritten
        out[:, 0] = t
        out[slot, 1], out[slot, 2], out[slot, 3] = s, e, state[rows]
        out[slot[gap] - 1, 1], out[slot[gap] - 1, 2] = cursor[gap], s[gap]
        if tail:
            out[-1, 1], out[-1, 2] = reach[-1], end_cycle
        parts.append(out)
    covered = np.concatenate(parts) if parts else np.zeros((0, 4), np.int64)
    return StateLog(covered[:, 0], covered[:, 1], covered[:, 2],
                    covered[:, 3], num_threads)


def reconstruct_run(source: Union[str, ParsedTrace],
                    clock_mhz: Optional[float] = None,
                    sampling_period: Optional[int] = None
                    ) -> ReconstructedRun:
    """Load a ``.prv`` (with its companions, when present) end to end.

    ``source`` is a ``.prv`` path or an already-parsed trace.  Paths
    are read once, block by block (see :func:`reconstruct_trace`), so
    loading never materializes the flat record list.  The per-thread
    stall totals of the returned ``SimResult`` come from the ``STALLS``
    event series; DRAM byte totals from the memory counters.
    """

    pcf = row = None
    if isinstance(source, str):
        path = source
        pcf_path, row_path = companion_paths(path)
        if os.path.exists(pcf_path):
            pcf = parse_pcf(pcf_path)
        if os.path.exists(row_path):
            row = parse_row(row_path)
    else:
        path = "<memory>"

    trace, period_source, unknown = reconstruct_trace(
        source, sampling_period=sampling_period, pcf=pcf)

    if clock_mhz is not None:
        clock, clock_source = clock_mhz, "explicit"
    elif pcf is not None and pcf.clock_mhz:
        clock, clock_source = pcf.clock_mhz, "pcf"
    else:
        clock, clock_source = _DEFAULT_CLOCK_MHZ, "default"

    stall_series = trace.events.get(EventKind.STALLS)
    if stall_series is not None:
        stalls = [int(round(v)) for v in stall_series.sum(axis=0)]
    else:
        stalls = [0] * trace.num_threads

    def _total(kind: EventKind) -> int:
        series = trace.events.get(kind)
        return int(series.sum()) if series is not None else 0

    result = SimResult(
        cycles=trace.end_cycle, clock_mhz=clock, trace=trace, buffers={},
        stalls=stalls,
        dram_bytes_read=_total(EventKind.MEM_READ_BYTES),
        dram_bytes_written=_total(EventKind.MEM_WRITE_BYTES),
        dram_requests=0, dram_row_misses=0, attribution=trace.attribution)

    thread_names = row.thread_names if row is not None else []
    if len(thread_names) != trace.num_threads:
        thread_names = [f"HW thread {t}" for t in range(trace.num_threads)]
    return ReconstructedRun(result, path, clock_source, period_source,
                            thread_names=thread_names,
                            unknown_event_types=unknown, pcf=pcf, row=row)
