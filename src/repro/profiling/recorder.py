"""Runtime side of the profiling unit: state & event collection.

The :class:`ProfilingRecorder` is the simulation counterpart of the
hardware profiling unit in Fig. 1: the executor calls into it when
threads change state (Fig. 2), when pipelines stall, when compute
stages retire work, and when memory traffic passes the Avalon
interface.  Events are aggregated into sampling-period bins exactly as
the hardware's periodically-flushed counters would produce them
(§IV-B.2); states are recorded per change (§IV-B.1).

The recorder also models the *cost* of tracing: it tracks how many
bits of trace data have been produced so the executor's flush process
can book the corresponding external-memory writes — the source of the
(small) runtime perturbation the paper measures.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

import numpy as np

from .. import telemetry
from .attribution import AttributionTable
from .config import (
    ATTRIBUTION_EVENTS, EventKind, ProfilingConfig, ThreadState,
)

__all__ = ["StateInterval", "StateLog", "RunTrace", "ProfilingRecorder"]


@dataclass(frozen=True)
class StateInterval:
    """A maximal interval during which a thread stayed in one state."""

    thread: int
    state: ThreadState
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


#: thread states by their 2-bit encoding (``_STATES[code]``)
_STATES = tuple(ThreadState)


class StateLog:
    """Per-thread state intervals as flat columns, grouped by thread.

    ``thread``/``start``/``end`` are ``int64`` and ``state`` is ``int8``
    (the 2-bit encoding); the rows of thread ``t`` are
    ``offsets[t]:offsets[t + 1]``, in that thread's interval order.
    Indexing (``log[t]``) still gives a list of :class:`StateInterval`,
    built on first use and cached; the writer, the reconstructor and
    the report read the columns instead.
    """

    __slots__ = ("thread", "start", "end", "state", "offsets",
                 "_lists", "_durations")

    def __init__(self, thread, start, end, state, num_threads: int):
        self.thread = np.asarray(thread, dtype=np.int64)
        self.start = np.asarray(start, dtype=np.int64)
        self.end = np.asarray(end, dtype=np.int64)
        self.state = np.asarray(state, dtype=np.int8)
        self.offsets = np.searchsorted(
            self.thread, np.arange(num_threads + 1), side="left")
        self._lists: list[Optional[list[StateInterval]]] = \
            [None] * num_threads
        self._durations: Optional[np.ndarray] = None

    @classmethod
    def from_lists(cls, states: Sequence[Sequence[StateInterval]]
                   ) -> "StateLog":
        """Columns of per-thread interval lists (list ``t`` is thread ``t``)."""

        rows = [(t, int(iv.state), iv.start, iv.end)
                for t, intervals in enumerate(states) for iv in intervals]
        columns = np.array(rows, dtype=np.int64).reshape(-1, 4)
        log = cls(columns[:, 0], columns[:, 2], columns[:, 3],
                  columns[:, 1], len(states))
        log._lists = [list(intervals) for intervals in states]
        return log

    def __len__(self) -> int:
        return len(self._lists)

    def rows(self, thread: int) -> slice:
        """Row range of ``thread`` in the columns."""

        return slice(int(self.offsets[thread]), int(self.offsets[thread + 1]))

    def __getitem__(self, thread: int) -> list[StateInterval]:
        if thread < 0:
            thread += len(self._lists)
        intervals = self._lists[thread]
        if intervals is None:
            rows = self.rows(thread)
            intervals = self._lists[thread] = [
                StateInterval(thread, _STATES[code], start, end)
                for code, start, end in zip(self.state[rows].tolist(),
                                            self.start[rows].tolist(),
                                            self.end[rows].tolist())]
        return intervals

    def __iter__(self) -> Iterator[list[StateInterval]]:
        return (self[t] for t in range(len(self._lists)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, StateLog):
            return NotImplemented
        return (np.array_equal(self.offsets, other.offsets)
                and np.array_equal(self.start, other.start)
                and np.array_equal(self.end, other.end)
                and np.array_equal(self.state, other.state))

    __hash__ = None

    def __repr__(self) -> str:
        return (f"StateLog({len(self.start)} intervals, "
                f"{len(self._lists)} threads)")

    def durations(self) -> np.ndarray:
        """``[threads, states]`` total cycles per thread and state (cached)."""

        if self._durations is None:
            n = len(self._lists) * len(_STATES)
            weights = (self.end - self.start).astype(np.float64)
            totals = np.bincount(self.thread * len(_STATES) + self.state,
                                 weights=weights, minlength=n)
            self._durations = totals.astype(np.int64).reshape(
                len(self._lists), len(_STATES))
        return self._durations

    def occupancy(self, thread: int, edges: np.ndarray) -> np.ndarray:
        """``[len(edges) - 1, states]`` cycles per state between edges.

        Cell ``[b, s]`` is how many cycles of ``[edges[b], edges[b+1])``
        the thread's state-``s`` intervals cover, summed over intervals
        (so overlapping intervals count once each).  It is the
        difference of the cumulative state-``s`` time at the two edges,
        found by ``searchsorted`` over the sorted starts and ends.
        """

        edges = np.asarray(edges, dtype=np.int64)
        rows = self.rows(thread)
        start, end = self.start[rows], self.end[rows]
        state = self.state[rows]
        out = np.zeros((len(edges) - 1, len(_STATES)), dtype=np.int64)
        for code in range(len(_STATES)):
            mask = state == code
            if mask.any():
                out[:, code] = np.diff(_time_before(
                    np.sort(start[mask]), np.sort(end[mask]), edges))
        return out


def _time_before(starts: np.ndarray, ends: np.ndarray,
                 at: np.ndarray) -> np.ndarray:
    """Σ over intervals of their cycles before each ``at`` (sorted inputs).

    An interval ``[s, e)`` has ``min(x, e) - s`` cycles before ``x`` when
    ``s < x``: the ``x - s`` of every start below ``x`` minus the
    ``x - e`` of every end below it.
    """

    below_s = np.searchsorted(starts, at)
    below_e = np.searchsorted(ends, at)
    sum_s = np.concatenate(([0], np.cumsum(starts)))
    sum_e = np.concatenate(([0], np.cumsum(ends)))
    return (below_s * at - sum_s[below_s]) - (below_e * at - sum_e[below_e])


@dataclass
class RunTrace:
    """Everything the profiling unit captured during one run."""

    num_threads: int
    end_cycle: int
    sampling_period: int
    #: per-thread state intervals covering [0, end_cycle]; a list of
    #: per-thread :class:`StateInterval` lists is converted on construction
    states: StateLog
    #: EventKind -> array[bins, threads] of per-window sums
    events: dict[EventKind, np.ndarray]
    #: bits of trace data produced (states + event flushes)
    trace_bits: int = 0
    #: number of buffer flushes to external memory
    flushes: int = 0
    #: per-(region, thread) cycle accounting (SimConfig.attribution)
    attribution: Optional[AttributionTable] = None

    def __post_init__(self) -> None:
        if not isinstance(self.states, StateLog):
            self.states = StateLog.from_lists(self.states)

    def state_durations(self, thread: Optional[int] = None
                        ) -> dict[ThreadState, int]:
        """Total cycles per state, for one thread or all threads."""

        matrix = self.states.durations()
        totals = matrix.sum(axis=0) if thread is None else matrix[thread]
        return dict(zip(_STATES, totals.tolist()))

    def state_fractions(self) -> dict[ThreadState, float]:
        """Fraction of total thread-time spent in each state."""

        totals = self.state_durations()
        denom = max(1, sum(totals.values()))
        return {state: value / denom for state, value in totals.items()}

    def event_series(self, kind: EventKind) -> np.ndarray:
        """[bins, threads] array of per-window event sums.

        Raises a diagnostic :class:`KeyError` when ``kind`` was not in
        the run's profiling configuration (mirroring the graceful
        degradation of :func:`repro.analysis.diagnose`, which reports
        missing counters instead of crashing).
        """

        series = self.events.get(kind)
        if series is None:
            recorded = ", ".join(str(k) for k in self.events) or "none"
            raise KeyError(
                f"counter {kind!s} was not recorded in this trace "
                f"(recorded counters: {recorded}); add EventKind."
                f"{kind.name} to ProfilingConfig.events before the run")
        return series

    def window_starts(self, kind: EventKind) -> np.ndarray:
        """Start cycle of each sampling window of ``kind``'s series."""

        bins = self.event_series(kind).shape[0]
        return np.arange(bins, dtype=np.int64) * self.sampling_period


_FIRST = operator.itemgetter(0)
_SECOND = operator.itemgetter(1)


def _concat(parts: list[np.ndarray]) -> np.ndarray:
    return np.concatenate(parts) if parts else np.zeros(0, dtype=np.int64)


class ProfilingRecorder:
    """Collects states and events during a simulation run."""

    #: initial per-kind bin capacity; grows geometrically as needed
    _INITIAL_BINS = 64

    def __init__(self, config: ProfilingConfig, num_threads: int,
                 attribution: bool = False):
        self.config = config
        self.num_threads = num_threads
        self._state_log: list[list[tuple[int, ThreadState]]] = [
            [(0, ThreadState.IDLE)] for _ in range(num_threads)]
        # one preallocated [capacity, threads] array per counter kind;
        # deposits first accumulate in per-kind dicts ((bin, thread) ->
        # running sum, in deposit order, so the floating-point result
        # is bit-identical to adding into the array cell directly) and
        # are flushed into the arrays once at finalize — a dict upsert
        # is several times cheaper than a numpy scalar indexed add
        kinds = tuple(config.events)
        if attribution:
            # virtual counters: binned for visualization, but never part
            # of config.events, so the flush cost model (and therefore
            # the simulated cycles) is unchanged by attribution
            kinds += ATTRIBUTION_EVENTS
        self._series: dict[EventKind, np.ndarray] = {
            kind: np.zeros((self._INITIAL_BINS, num_threads))
            for kind in kinds}
        self._accum: dict[EventKind, dict] = {kind: {} for kind in kinds}
        self._used_bins: dict[EventKind, int] = {kind: 0 for kind in kinds}
        self._enabled_kinds = set(config.events)
        self.attribution: Optional[AttributionTable] = (
            AttributionTable(num_threads) if attribution else None)
        self.pending_bits = 0  # trace bits not yet flushed
        self.total_bits = 0
        self.flushes = 0

    # ------------------------------------------------------------------
    # states
    # ------------------------------------------------------------------
    def set_state(self, cycle: int, thread: int, state: ThreadState) -> None:
        log = self._state_log[thread]
        if log[-1][1] is state:
            return
        if not self.config.record_states or not self.config.enabled:
            log.append((cycle, state))
            return
        log.append((cycle, state))
        bits = self.config.state_record_bits(self.num_threads)
        self.pending_bits += bits
        self.total_bits += bits

    # ------------------------------------------------------------------
    # events
    # ------------------------------------------------------------------
    def add(self, cycle: int, thread: int, kind: EventKind,
            amount: float) -> None:
        if kind not in self._enabled_kinds or amount == 0:
            return
        index = cycle // self.config.sampling_period
        bucket = self._accum[kind]
        key = (index, thread)
        bucket[key] = bucket.get(key, 0.0) + amount

    def add_range(self, start: int, end: int, thread: int, kind: EventKind,
                  amount: float) -> None:
        """Distribute ``amount`` uniformly over cycles [start, end).

        A zero-length range (``end <= start``) covers no cycles and
        deposits nothing: the executor emits such ranges for zero-trip
        loops, and depositing the full amount would double-count work
        already booked by the surrounding real ranges.
        """

        if kind not in self._enabled_kinds or amount == 0 or end <= start:
            return
        period = self.config.sampling_period
        first_bin = start // period
        last_bin = (end - 1) // period
        bucket = self._accum[kind]
        if first_bin == last_bin:
            key = (first_bin, thread)
            bucket[key] = bucket.get(key, 0.0) + amount
            return
        # per-bin overlap with [start, end) as a weight vector
        edges = np.arange(first_bin, last_bin + 2, dtype=np.int64) * period
        lo = np.maximum(edges[:-1], start)
        hi = np.minimum(edges[1:], end)
        shares = (hi - lo) * (amount / (end - start))
        for index, share in enumerate(shares.tolist(), first_bin):
            key = (index, thread)
            bucket[key] = bucket.get(key, 0.0) + share

    def add_many(self, start: int, end: int, thread: int, pairs) -> None:
        """Deposit several event kinds over one shared [start, end) range.

        Semantically identical to calling :meth:`add_range` once per
        ``(kind, amount)`` pair — including bit-exact floating-point
        results, the per-bin weights are computed with the same
        expressions — but the bin arithmetic is shared across the pairs.
        """

        if end <= start:
            return
        period = self.config.sampling_period
        first_bin = start // period
        last_bin = (end - 1) // period
        enabled = self._enabled_kinds
        accum = self._accum
        if first_bin == last_bin:
            key = None
            for kind, amount in pairs:
                if amount and kind in enabled:
                    if key is None:
                        key = (first_bin, thread)
                    bucket = accum[kind]
                    bucket[key] = bucket.get(key, 0.0) + amount
            return
        edges = np.arange(first_bin, last_bin + 2, dtype=np.int64) * period
        span = np.minimum(edges[1:], end) - np.maximum(edges[:-1], start)
        for kind, amount in pairs:
            if amount and kind in enabled:
                bucket = accum[kind]
                shares = span * (amount / (end - start))
                for index, share in enumerate(shares.tolist(), first_bin):
                    key = (index, thread)
                    bucket[key] = bucket.get(key, 0.0) + share

    def attr_deposit(self, start: int, end: int, thread: int, region: int,
                     amounts) -> None:
        """Account ``amounts`` cycles (slot order) to ``(region, thread)``.

        The table cell takes the integer amounts verbatim; the binned
        counter series spread each amount over the sampling windows
        overlapping ``[start, end)`` with *integer-exact* telescoping
        shares (cumulative ``amount * covered // span`` differences), so
        every binned value is an integer and the per-kind series sum
        equals the table exactly — the ``.prv`` round trip is lossless.
        """

        table = self.attribution
        if table is None:
            return
        cell = table.cells.get((region, thread))
        if cell is None:
            cell = table.cells[(region, thread)] = [0] * len(amounts)
        accum = self._accum
        period = self.config.sampling_period
        if end <= start:
            for slot, amount in enumerate(amounts):
                if amount:
                    cell[slot] += amount
            return
        first_bin = start // period
        last_bin = (end - 1) // period
        if first_bin == last_bin:
            key = (first_bin, thread)
            for slot, amount in enumerate(amounts):
                if amount:
                    cell[slot] += amount
                    bucket = accum[ATTRIBUTION_EVENTS[slot]]
                    bucket[key] = bucket.get(key, 0.0) + amount
            return
        span = end - start
        for slot, amount in enumerate(amounts):
            if not amount:
                continue
            cell[slot] += amount
            bucket = accum[ATTRIBUTION_EVENTS[slot]]
            prev = 0
            for index in range(first_bin, last_bin):
                covered = (index + 1) * period - start
                cum = amount * covered // span
                if cum != prev:
                    key = (index, thread)
                    bucket[key] = bucket.get(key, 0.0) + (cum - prev)
                    prev = cum
            if amount != prev:
                key = (last_bin, thread)
                bucket[key] = bucket.get(key, 0.0) + (amount - prev)

    def _rows(self, kind: EventKind, index: int) -> np.ndarray:
        """The kind's [capacity, threads] array, grown to hold ``index``."""

        series = self._series[kind]
        capacity = series.shape[0]
        if index >= capacity:
            while capacity <= index:
                capacity *= 2
            grown = np.zeros((capacity, self.num_threads))
            grown[:series.shape[0]] = series
            self._series[kind] = series = grown
        if index >= self._used_bins[kind]:
            self._used_bins[kind] = index + 1
        return series

    # ------------------------------------------------------------------
    # trace-buffer cost model
    # ------------------------------------------------------------------
    def sample_flush_bits(self) -> int:
        """Bits one periodic event flush writes (counters for all threads)."""

        if not self.config.enabled or not self.config.events:
            return 0
        bits = self.config.event_record_bits(self.num_threads)
        self.total_bits += bits
        return bits

    def drain_pending_bits(self) -> int:
        """Bits of state records accumulated since the last flush."""

        bits = self.pending_bits
        self.pending_bits = 0
        return bits

    # ------------------------------------------------------------------
    def finalize(self, end_cycle: int) -> RunTrace:
        with telemetry.span("profiling.finalize", category="profiling"):
            trace = self._finalize(end_cycle)
        telemetry.add("profiling.flushes", self.flushes)
        telemetry.add("profiling.trace_bits", self.total_bits)
        telemetry.add("profiling.state_records",
                      sum(len(log) for log in self._state_log))
        return trace

    def _finalize(self, end_cycle: int) -> RunTrace:
        # each record runs until the next record's cycle (the last until
        # end_cycle); empty intervals (same-cycle re-transitions) are
        # dropped
        starts, ends, codes = [], [], []
        for log in self._state_log:
            n = len(log)
            start = np.fromiter(map(_FIRST, log), np.int64, n)
            end = np.append(start[1:], end_cycle)
            keep = end > start
            starts.append(start[keep])
            ends.append(end[keep])
            codes.append(np.fromiter(map(_SECOND, log), np.int8, n)[keep])
        thread = np.repeat(np.arange(self.num_threads),
                           [len(start) for start in starts])
        states = StateLog(thread, _concat(starts), _concat(ends),
                          _concat(codes), self.num_threads)

        # drain the deposit accumulators into the per-kind arrays (each
        # cell receives the sum of its deposits, accumulated in deposit
        # order — bit-identical to per-deposit array adds; cells are
        # unique dict keys, so the scatter-add touches each exactly once)
        for kind, bucket in self._accum.items():
            if not bucket:
                continue
            n = len(bucket)
            idx = np.fromiter((k[0] for k in bucket), dtype=np.intp,
                              count=n)
            thr = np.fromiter((k[1] for k in bucket), dtype=np.intp,
                              count=n)
            vals = np.fromiter(bucket.values(), dtype=np.float64, count=n)
            series = self._rows(kind, int(idx.max()))
            np.add.at(series, (idx, thr), vals)
            bucket.clear()

        period = self.config.sampling_period
        n_bins = max(1, -(-max(1, end_cycle) // period))
        events: dict[EventKind, np.ndarray] = {}
        for kind, series in self._series.items():
            used = self._used_bins[kind]
            arr = np.zeros((n_bins, self.num_threads))
            take = min(used, n_bins)
            arr[:take] = series[:take]
            if used > n_bins:  # clamp stragglers into the final window
                arr[-1] += series[n_bins:used].sum(axis=0)
            events[kind] = arr
        return RunTrace(self.num_threads, end_cycle, period, states, events,
                        trace_bits=self.total_bits, flushes=self.flushes,
                        attribution=self.attribution)
