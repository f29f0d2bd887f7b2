"""The columnar state log, end to end: recorder, writer, reader, report.

* the writer's bytes are pinned for the tiny GEMM journey (attribution
  off and on) and π, as written before states became columns;
* write -> reconstruct gives back the live ``states[t]`` lists, event
  arrays and attribution table, on real runs and random recorder logs;
* the column-based report helpers match the interval loops they
  replace (kept here as the reference);
* no :class:`StateInterval` is built between the end of a run and its
  rendered report.
"""

import hashlib
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.apps import run_gemm, run_pi
from repro.core import SimConfig
from repro.paraver import (
    load_balance, reconstruct_run, render_state_timeline,
    thread_activity_windows, write_trace,
)
from repro.profiling import (
    EventKind, ProfilingConfig, ProfilingRecorder, RunTrace, StateInterval,
    StateLog, ThreadState,
)
from repro.report import build_report, render_report_text
from repro.report.html import _state_runs
from repro.report.model import AttributionSummary
from repro.report.text import render_why_text

#: sha256 of the (.prv, .pcf) files written for each run
_PINNED = {
    "gemm-naive-d16": (
        "2d65436e07ad8ea8af4616c489a8db3291816e832233ea3ac26c3a7c79d642ac",
        "03d3350d1fdc040defbcc4020d36917b1b42d613a867539acc8e1bac1cdac54c"),
    "gemm-no_critical-d16": (
        "73ea1efeac404da4ec5714057daf561eff60d89719cd997495077e9748b277a3",
        "03d3350d1fdc040defbcc4020d36917b1b42d613a867539acc8e1bac1cdac54c"),
    "gemm-vectorized-d16": (
        "c48000aa670cae937eb0b85d5a66dadee0ad1c8cdaabba7c0a3fc1a25f983970",
        "1d5aa7d7aaba050e12f9fc712e6accfa15e75c48ddeed98e31ee66b6d7c8ac99"),
    "gemm-blocked-d16": (
        "130cc7981142cc3106c6d082d7b00ce02c8debf2d5dd5b9e4b43b3272c99abe9",
        "5ac04bef7c148378c30abf761f30d06c7b95d001c28b6abf9264f2206804d701"),
    "gemm-double_buffered-d16": (
        "e45dde201886de14c06b94b9b9d8e974840ca691e7e68b5e21c28314eeba56fc",
        "23a71fc055bd0d85eb319361fea3eb7d9bbf543fbafe6e0e58f248c6e718e171"),
    "gemm-naive-d16-attr": (
        "c3bbd8bb20c788ed87588e350d338659da6b19de4b98eeb057de96fd5a9c0ea3",
        "70573366481053e981619f431cd4f5a7aa50a4cd9ecd1068f4b8906065ab468d"),
    "gemm-no_critical-d16-attr": (
        "bc3660371d1bf01630ebc2aa197fcc9de91c8fe36c2a25725af432ff23978d23",
        "70573366481053e981619f431cd4f5a7aa50a4cd9ecd1068f4b8906065ab468d"),
    "gemm-vectorized-d16-attr": (
        "e04187be01754dbb8c86e8c1f063cb19dc13fc42ce9c10cf0c3b79db817f8dae",
        "08df5e2c22675972a583dc835fd0f7bd093092ebb989e864e87245120e5e7c9a"),
    "gemm-blocked-d16-attr": (
        "a41a564d8527035cff2384943882bbde37db654cfb95ec2793f214f8dccca182",
        "bfe842aeb254ff57f8e36f6a1a7173e3f8338125eb0ffbc6655cfe7e9ae3b4ca"),
    "gemm-double_buffered-d16-attr": (
        "8c8e5e2bfd0ebc479caa7785ed3d536846813690753087603c1d02f277e59248",
        "7fc0e46d15ce3bb16caa5bfde51082755e846d419bd5352445e758c4af6509cc"),
    "pi-2048": (
        "3141b1efb6529f348e502238ecdab471331b1563b35cc7b4210978c98935a4c4",
        "5e535a55c0c6309867ab46be1815004be0fa924f694acdf8b3bf0131cf034e44"),
}
#: every run has 8 threads, hence the same .row
_ROW_8 = "51b9ac74f9ebea8db3deb27389f1b1596ede2d9fad1e655c11ec44eed99f97fd"


def _run(name: str):
    if name.startswith("pi-"):
        return run_pi(2048, sim_config=SimConfig(
            thread_start_interval=12_000)).result
    version = name[len("gemm-"):].split("-d16")[0]
    return run_gemm(version, dim=16, num_threads=8,
                    attribution=name.endswith("-attr")).result


def _sha256(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _assert_round_trip(live: RunTrace, rebuilt: RunTrace) -> None:
    assert rebuilt.num_threads == live.num_threads
    assert rebuilt.end_cycle == live.end_cycle
    for thread in range(live.num_threads):
        assert rebuilt.states[thread] == live.states[thread]
    assert rebuilt.states == live.states
    # the writer truncates each window's count to an integer
    for kind, series in live.events.items():
        expected = np.trunc(series)
        if kind in rebuilt.events or expected.any():
            assert np.array_equal(rebuilt.events[kind], expected), kind
    if live.attribution is not None and live.attribution.cells:
        assert rebuilt.attribution == live.attribution
    else:  # an empty table writes no records
        assert rebuilt.attribution is None


@pytest.mark.parametrize("name", sorted(_PINNED))
def test_written_bytes_are_pinned_and_round_trip(name, tmp_path):
    result = _run(name)
    files = write_trace(result.trace, str(tmp_path / name),
                        clock_mhz=result.clock_mhz)
    assert (_sha256(files.prv), _sha256(files.pcf)) == _PINNED[name]
    assert _sha256(files.row) == _ROW_8
    rec = reconstruct_run(files.prv)
    assert rec.result.cycles == result.cycles
    _assert_round_trip(result.trace, rec.trace)


def test_no_state_interval_between_run_and_report(tmp_path, monkeypatch):
    """finalize -> write -> reconstruct -> report -> text builds none."""

    built = []
    init = StateInterval.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(StateInterval, "__init__", counting_init)
    result = run_gemm("naive", dim=16, num_threads=8,
                      attribution=True).result
    files = write_trace(result.trace, str(tmp_path / "naive"),
                        clock_mhz=result.clock_mhz)
    run = reconstruct_run(files.prv)
    report = build_report(run.result, label="naive", source=files.prv,
                          thread_names=run.thread_names)
    render_report_text(report)
    render_why_text(AttributionSummary.from_table(
        run.result.attribution, run.result.cycles), run.result.cycles)
    thread_activity_windows(run.trace)
    load_balance(run.trace)
    assert built == []
    # the per-thread lists are still there, built on first use
    assert run.trace.states[3] == result.trace.states[3]
    assert len(built) == 2 * len(run.trace.states[3])


# ----------------------------------------------------------------------
# random recorder logs round-trip exactly
# ----------------------------------------------------------------------
@st.composite
def recorded_traces(draw):
    threads = draw(st.integers(1, 4))
    period = draw(st.sampled_from([1, 7, 64, 100]))
    attribution = draw(st.booleans())
    recorder = ProfilingRecorder(ProfilingConfig(sampling_period=period),
                                 threads, attribution=attribution)
    kinds = list(ProfilingConfig().events)
    cycle = 0
    for _ in range(draw(st.integers(0, 40))):
        # a zero step is a same-cycle re-transition (an empty interval)
        cycle += draw(st.sampled_from([0, 0, 1, 3, 50, 400]))
        thread = draw(st.integers(0, threads - 1))
        action = draw(st.integers(0, 2))
        if action == 0:
            recorder.set_state(cycle, thread,
                               draw(st.sampled_from(list(ThreadState))))
        elif action == 1:
            recorder.add(cycle, thread, draw(st.sampled_from(kinds)),
                         draw(st.integers(1, 10**6)))
        elif attribution:
            region = draw(st.sampled_from([0, 2, 5, -4]))
            recorder.attribution.regions.setdefault(region, f"r{region}")
            amounts = draw(st.lists(st.integers(0, 500), min_size=9,
                                    max_size=9).filter(any))
            recorder.attr_deposit(cycle, cycle + draw(st.integers(0, 300)),
                                  thread, region, amounts)
    return recorder.finalize(cycle + draw(st.integers(0, 500)))


@settings(max_examples=80, deadline=None)
@given(recorded_traces())
def test_recorded_trace_round_trips(trace):
    with tempfile.TemporaryDirectory() as tmp:
        files = write_trace(trace, f"{tmp}/t", clock_mhz=100.0)
        rec = reconstruct_run(files.prv)
    assert rec.trace.sampling_period == trace.sampling_period
    _assert_round_trip(trace, rec.trace)


# ----------------------------------------------------------------------
# arbitrary interval lists: gaps, overlaps, any order
# ----------------------------------------------------------------------
def _reference_cover(thread, intervals, end_cycle):
    """The record-by-record fold: sort by (start, end), pad gaps IDLE."""

    covered, cursor = [], 0
    for iv in sorted(intervals, key=lambda iv: (iv.start, iv.end)):
        if iv.start > cursor:
            covered.append(StateInterval(thread, ThreadState.IDLE, cursor,
                                         iv.start))
        covered.append(iv)
        cursor = max(cursor, iv.end)
    if cursor < end_cycle:
        covered.append(StateInterval(thread, ThreadState.IDLE, cursor,
                                     end_cycle))
    return covered


@st.composite
def interval_traces(draw):
    threads = draw(st.integers(1, 3))
    end_cycle = draw(st.integers(0, 600))
    states = []
    for thread in range(threads):
        intervals = []
        for _ in range(draw(st.integers(0, 8))):
            start = draw(st.integers(0, end_cycle + 20))
            length = draw(st.integers(0, 200))
            intervals.append(StateInterval(
                thread, draw(st.sampled_from(list(ThreadState))), start,
                start + length))
        states.append(intervals)
    return RunTrace(threads, end_cycle, 50, states, {})


@settings(max_examples=150, deadline=None)
@given(interval_traces())
def test_any_intervals_reconstruct_like_the_record_fold(trace):
    with tempfile.TemporaryDirectory() as tmp:
        files = write_trace(trace, f"{tmp}/t")
        rec = reconstruct_run(files.prv)
    for thread in range(trace.num_threads):
        assert rec.trace.states[thread] == _reference_cover(
            thread, trace.states[thread], trace.end_cycle)


# ----------------------------------------------------------------------
# report helpers against the interval loops they replace
# ----------------------------------------------------------------------
def _reference_timeline(trace, width, start, end):
    span = end - start
    glyphs = {ThreadState.IDLE: ".", ThreadState.RUNNING: "#",
              ThreadState.CRITICAL: "C", ThreadState.SPINNING: "s"}
    rows = []
    for thread in range(trace.num_threads):
        occupancy = np.zeros((width, len(ThreadState)))
        for iv in trace.states[thread]:
            lo, hi = max(iv.start, start), min(iv.end, end)
            if hi <= lo:
                continue
            first = (lo - start) * width // span
            last = min(width - 1, ((hi - start) * width - 1) // span)
            for bucket in range(first, last + 1):
                b_lo = start + bucket * span // width
                b_hi = start + (bucket + 1) * span // width
                overlap = min(hi, b_hi) - max(lo, b_lo)
                if overlap > 0:
                    occupancy[bucket, int(iv.state)] += overlap
        rows.append(f"t{thread}: " + "".join(
            glyphs[ThreadState(int(occupancy[b].argmax()))]
            if occupancy[b].sum() else "." for b in range(width)))
    return rows


def _reference_runs(trace, thread, buckets):
    span = max(1, trace.end_cycle)
    occupancy = np.zeros((buckets, len(ThreadState)))
    for iv in trace.states[thread]:
        if iv.state is ThreadState.IDLE:
            continue
        lo, hi = iv.start, min(iv.end, span)
        if hi <= lo:
            continue
        first = lo * buckets // span
        last = min(buckets - 1, (hi * buckets - 1) // span)
        for bucket in range(first, last + 1):
            b_lo = bucket * span // buckets
            b_hi = (bucket + 1) * span // buckets
            overlap = min(hi, b_hi) - max(lo, b_lo)
            if overlap > 0:
                occupancy[bucket, int(iv.state)] += overlap
    runs, current, begin = [], None, 0
    for bucket in range(buckets):
        state = None if occupancy[bucket].sum() == 0 else \
            ThreadState(int(occupancy[bucket].argmax()))
        if state is not current:
            if current is not None:
                runs.append((begin, bucket, current))
            current, begin = state, bucket
    if current is not None:
        runs.append((begin, buckets, current))
    return runs


def _reference_windows(trace):
    spans = np.zeros((trace.num_threads, 2), dtype=np.int64)
    for thread in range(trace.num_threads):
        active = [iv for iv in trace.states[thread]
                  if iv.state is not ThreadState.IDLE]
        if active:
            spans[thread] = (active[0].start, active[-1].end)
    return spans


@settings(max_examples=150, deadline=None)
@given(interval_traces(), st.integers(1, 90), st.integers(0, 700),
       st.integers(1, 700), st.integers(1, 60))
def test_report_helpers_match_interval_loops(trace, width, start, length,
                                             buckets):
    end = start + length
    text = render_state_timeline(trace, width=width, start=start, end=end)
    assert text.splitlines()[:-1] == _reference_timeline(trace, width,
                                                         start, end)
    for thread in range(trace.num_threads):
        assert _state_runs(trace, thread, buckets) == \
            _reference_runs(trace, thread, buckets)
    assert np.array_equal(thread_activity_windows(trace),
                          _reference_windows(trace))
    for thread in range(trace.num_threads):
        totals = {state: 0 for state in ThreadState}
        for iv in trace.states[thread]:
            totals[iv.state] += iv.duration
        assert trace.state_durations(thread) == totals


# ----------------------------------------------------------------------
# StateLog
# ----------------------------------------------------------------------
class TestStateLog:
    def test_lists_are_converted_and_kept(self):
        lists = [[StateInterval(0, ThreadState.RUNNING, 0, 5)],
                 [StateInterval(1, ThreadState.IDLE, 0, 2),
                  StateInterval(1, ThreadState.SPINNING, 2, 5)]]
        trace = RunTrace(2, 5, 10, lists, {})
        assert isinstance(trace.states, StateLog)
        assert trace.states[1][1] is lists[1][1]
        assert trace.states[-1] == lists[1]
        assert len(trace.states) == 2 and list(trace.states) == lists
        assert trace.states.thread.tolist() == [0, 1, 1]
        assert trace.states.state.dtype == np.int8
        assert trace.state_durations() == {
            ThreadState.IDLE: 2, ThreadState.RUNNING: 5,
            ThreadState.CRITICAL: 0, ThreadState.SPINNING: 3}

    def test_empty(self):
        trace = RunTrace(num_threads=0, end_cycle=0, sampling_period=100,
                         states=[], events={})
        assert len(trace.states) == 0
        assert trace.state_fractions() == {state: 0.0
                                           for state in ThreadState}

    def test_lists_are_built_once(self):
        recorder = ProfilingRecorder(ProfilingConfig(), 1)
        recorder.set_state(3, 0, ThreadState.RUNNING)
        recorder.set_state(3, 0, ThreadState.CRITICAL)
        recorder.set_state(9, 0, ThreadState.RUNNING)
        trace = recorder.finalize(12)
        assert trace.states[0] is trace.states[0]
        assert [(iv.state, iv.start, iv.end) for iv in trace.states[0]] == [
            (ThreadState.IDLE, 0, 3), (ThreadState.CRITICAL, 3, 9),
            (ThreadState.RUNNING, 9, 12)]
        assert all(type(iv.start) is int for iv in trace.states[0])

    def test_occupancy_counts_overlaps_once_each(self):
        log = StateLog([0, 0], [0, 2], [4, 6], [1, 1], 1)
        assert log.occupancy(0, np.array([0, 3, 6])).tolist() == \
            [[0, 4, 0, 0], [0, 4, 0, 0]]

    def test_unused_kinds_are_not_written(self, tmp_path):
        recorder = ProfilingRecorder(ProfilingConfig(), 1)
        recorder.add(5, 0, EventKind.FLOPS, 3)
        files = write_trace(recorder.finalize(10), str(tmp_path / "t"))
        assert set(reconstruct_run(files.prv).trace.events) == \
            {EventKind.FLOPS}
