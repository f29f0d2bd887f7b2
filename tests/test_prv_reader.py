"""The block-wise ``.prv`` column reader and the fold that reconstructs
a trace from it.

Expected values of the hand-written traces were recorded with the
record-by-record parser and fold this reader replaces; the error tests
put each malformed line behind more than one block of good lines.
"""

import builtins
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.paraver import (
    ParaverParseError, PrvReader, parse_prv, reconstruct_run,
    reconstruct_trace, recover_sampling_period, write_trace,
)
from repro.paraver import parser as prv_parser
from repro.profiling import EventKind

from .test_paraver import make_trace

_HEADER = "#Paraver (01/01/2020 at 00:00):1000:1(2):1:2(1:1,1:1)\n"

#: overlapping and out-of-order state records; task 3 is out of range
_OVERLAP = _HEADER + (
    "c:hand\n"
    "1:1:1:1:1:300:500:1\n"
    "1:1:1:1:1:100:400:3\n"
    "1:1:1:1:1:100:200:2\n"
    "1:2:1:2:1:600:700:1\n"
    "1:2:1:2:1:50:650:2\n"
    "1:1:1:1:1:450:460:0\n"
    "1:1:1:1:1:100:200:1\n"
    "1:3:1:3:1:10:20:1\n"
    "1:2:1:2:1:800:800:3\n")

#: multi-pair event lines, foreign types, an out-of-range task
_EVENTS = _HEADER + (
    "2:1:1:1:1:100:42000002:5:42000001:7\n"
    "2:2:1:2:1:200:42000002:3\n"
    "2:1:1:1:1:1000:42000002:4\n"
    "2:1:1:1:1:150:99000001:1\n"
    "2:3:1:3:1:150:42000003:9\n"
    "2:1:1:1:1:250:99000001:1\n"
    "2:2:1:2:1:300:88000000:2:42000004:64\n"
    "2:1:1:1:1:0:42000005:8\n"
    "2:2:1:2:1:999:42000005:1\n")

#: comm records and the cycle-accounting family (slot 15 is no cause,
#: 44000000 is past the family)
_COMMS_ATTR = _HEADER + (
    "1:1:1:1:1:0:1000:1\n"
    "3:1:1:1:1:100:105:2:1:2:1:300:310:4096:1\n"
    "2:1:1:1:1:400:42000001:3\n"
    "3:2:1:2:1:500:502:1:1:1:1:600:601:64:0\n"
    "2:1:1:1:1:1000:43000000:11\n"
    "2:2:1:2:1:1000:43000001:5\n"
    "2:1:1:1:1:1000:43000015:9\n"
    "2:1:1:1:1:1000:43000016:2\n"
    "2:3:1:3:1:1000:43000016:2\n"
    "2:1:1:1:1:1000:44000000:1\n")


def _write(tmp_path, text, name="t.prv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def _states(trace):
    return [[(iv.state.name, iv.start, iv.end) for iv in trace.states[t]]
            for t in range(trace.num_threads)]


def _nonzero(series):
    return {(int(b), int(t)): float(series[b, t])
            for b, t in zip(*np.nonzero(series))}


# ----------------------------------------------------------------------
# hand-written traces: values of the record-by-record fold
# ----------------------------------------------------------------------
class TestHandWritten:
    def test_overlapping_out_of_order_states(self, tmp_path):
        rec = reconstruct_run(_write(tmp_path, _OVERLAP))
        assert _states(rec.trace) == [
            [("IDLE", 0, 100), ("CRITICAL", 100, 200), ("RUNNING", 100, 200),
             ("SPINNING", 100, 400), ("RUNNING", 300, 500),
             ("IDLE", 450, 460), ("IDLE", 500, 1000)],
            [("IDLE", 0, 50), ("CRITICAL", 50, 650), ("RUNNING", 600, 700),
             ("IDLE", 700, 800), ("SPINNING", 800, 800),
             ("IDLE", 800, 1000)]]
        assert rec.trace.events == {}
        assert rec.trace.attribution is None
        assert (rec.trace.sampling_period, rec.period_source) == \
            (2048, "default")

    def test_overlapping_states_parse(self, tmp_path):
        parsed = parse_prv(_write(tmp_path, _OVERLAP))
        assert [(s.cpu, s.task, s.begin, s.end, s.state)
                for s in parsed.states] == [
            (1, 1, 300, 500, 1), (1, 1, 100, 400, 3), (1, 1, 100, 200, 2),
            (2, 2, 600, 700, 1), (2, 2, 50, 650, 2), (1, 1, 450, 460, 0),
            (1, 1, 100, 200, 1), (3, 3, 10, 20, 1), (2, 2, 800, 800, 3)]
        assert parsed.events == [] and parsed.comms == []

    def test_multi_pair_and_foreign_events(self, tmp_path):
        path = _write(tmp_path, _EVENTS)
        rec = reconstruct_run(path)
        assert (rec.trace.sampling_period, rec.period_source) == \
            (1, "cadence")
        assert list(rec.trace.events) == [
            EventKind.FLOPS, EventKind.STALLS, EventKind.INTOPS,
            EventKind.MEM_READ_BYTES, EventKind.MEM_WRITE_BYTES]
        assert all(series.shape == (1000, 2)
                   for series in rec.trace.events.values())
        events = {kind.name: _nonzero(series)
                  for kind, series in rec.trace.events.items()}
        assert events == {
            "FLOPS": {(99, 0): 5.0, (199, 1): 3.0, (999, 0): 4.0},
            "STALLS": {(99, 0): 7.0},
            "INTOPS": {},
            "MEM_READ_BYTES": {(299, 1): 64.0},
            "MEM_WRITE_BYTES": {(0, 0): 8.0, (998, 1): 1.0}}
        assert list(rec.unknown_event_types.items()) == \
            [(99000001, 2), (88000000, 1)]
        assert _states(rec.trace) == [[("IDLE", 0, 1000)]] * 2
        assert recover_sampling_period(path) == 1

    def test_events_binned_with_explicit_period(self, tmp_path):
        trace, source, _ = reconstruct_trace(_write(tmp_path, _EVENTS),
                                             sampling_period=100)
        assert source == "explicit"
        events = {kind.name: _nonzero(series)
                  for kind, series in trace.events.items()}
        assert events == {
            "FLOPS": {(0, 0): 5.0, (1, 1): 3.0, (9, 0): 4.0},
            "STALLS": {(0, 0): 7.0}, "INTOPS": {},
            "MEM_READ_BYTES": {(2, 1): 64.0},
            "MEM_WRITE_BYTES": {(0, 0): 8.0, (9, 1): 1.0}}

    def test_multi_pair_events_parse(self, tmp_path):
        parsed = parse_prv(_write(tmp_path, _EVENTS))
        assert [(e.cpu, e.task, e.time, e.type, e.value)
                for e in parsed.events][:2] == [
            (1, 1, 100, 42000002, 5), (1, 1, 100, 42000001, 7)]
        assert len(parsed.events) == 11

    def test_comms_and_attribution_family(self, tmp_path):
        path = _write(tmp_path, _COMMS_ATTR)
        rec = reconstruct_run(path)
        assert (rec.trace.sampling_period, rec.period_source) == \
            (400, "cadence")
        assert {kind.name: _nonzero(series)
                for kind, series in rec.trace.events.items()} == \
            {"STALLS": {(0, 0): 3.0}}
        assert rec.trace.events[EventKind.STALLS].shape == (3, 2)
        assert rec.trace.attribution.cells == {
            (0, 0): [11, 0, 0, 0, 0, 0, 0, 0, 0],
            (0, 1): [0, 5, 0, 0, 0, 0, 0, 0, 0],
            (1, 0): [2, 0, 0, 0, 0, 0, 0, 0, 0]}
        assert list(rec.unknown_event_types.items()) == \
            [(43000015, 1), (44000000, 1)]
        assert _states(rec.trace) == [[("RUNNING", 0, 1000)],
                                      [("IDLE", 0, 1000)]]
        parsed = parse_prv(path)
        assert [tuple(vars(c).values()) for c in parsed.comms] == [
            (1, 2, 100, 105, 300, 310, 4096, 1),
            (2, 1, 500, 502, 600, 601, 64, 0)]

    def test_invalid_state_value(self, tmp_path):
        text = _HEADER + "1:1:1:1:1:0:10:7\n"
        with pytest.raises(ValueError, match="7 is not a valid ThreadState"):
            reconstruct_run(_write(tmp_path, text))


# ----------------------------------------------------------------------
# malformed input: same errors, true line numbers across blocks
# ----------------------------------------------------------------------
_GOOD = "1:1:1:1:1:0:10:1\n"

_BAD_LINES = [
    ("1:1:1:1:1:500:100:1", "ends before it begins"),
    ("2:1:1:1:1:10:99", "odd type:value list"),
    ("7:1:1:1:1:10:20:1", "unknown record type 7"),
    ("1:1:1:1:1:x:20:1", "invalid literal for int"),
    ("2:1:1:1:1:10:42000001:1.5", "invalid literal for int"),
    ("1:1:1:1:1:10", "list index out of range"),
    ("3:1:1:1:1:100:105:2:1:2:1:300", "list index out of range"),
    ("c1:1:1:1:1:0:10:1", "invalid literal for int"),
    ("1:1:1:1:1:0:99999999999999999999:1", "does not fit in 64 bits"),
]


@pytest.mark.parametrize("bad, reason", _BAD_LINES)
@pytest.mark.parametrize("block_chars", [64, prv_parser.BLOCK_CHARS])
def test_bad_line_after_blocks_of_good_ones(tmp_path, monkeypatch, bad,
                                            reason, block_chars):
    monkeypatch.setattr(prv_parser, "BLOCK_CHARS", block_chars)
    # more than one block of good lines before the bad one
    good = 2 * block_chars // len(_GOOD) + 3
    path = _write(tmp_path, _HEADER + "c:app\n" + _GOOD * good + bad
                  + "\n" + _GOOD)
    line = good + 3
    for load in (parse_prv, reconstruct_run):
        with pytest.raises(ParaverParseError) as info:
            load(path)
        assert str(info.value).startswith(f"{path}:{line}: ")
        assert reason in str(info.value)


def test_bad_line_after_a_comment_in_a_later_block(tmp_path, monkeypatch):
    monkeypatch.setattr(prv_parser, "BLOCK_CHARS", 40)
    path = _write(tmp_path, _HEADER + _GOOD * 10 + "# note\n\n"
                  + _GOOD * 10 + "1:1:1:1:1:9:8:1\n")
    with pytest.raises(ParaverParseError,
                       match=f"^{path}:24: state record ends"):
        parse_prv(path)


@pytest.mark.parametrize("text, reason", [
    ("not a paraver file\n", "missing #Paraver header"),
    ("", "missing #Paraver header"),
    ("#Paraver garbled\n", "malformed header"),
    ("#Paraver (01/01/2020 at 00:00):x:1(2):1:2\n", "malformed header"),
])
def test_bad_header(tmp_path, text, reason):
    path = _write(tmp_path, text)
    for load in (parse_prv, reconstruct_run):
        with pytest.raises(ParaverParseError,
                           match=f"^{path}:1: {reason}"):
            load(path)


# ----------------------------------------------------------------------
# the bulk parse agrees with the line parser on any block
# ----------------------------------------------------------------------
_TOKENS = st.one_of(st.integers(0, 10**6).map(str),
                    st.sampled_from(["", "x", "-3", " 4", "+5", "1_0",
                                     "99999999999999999999", "7.5"]))


def _record(kind, fields):
    return ":".join([kind] + fields)


_LINES = st.one_of(
    st.builds(_record, st.sampled_from(["1", "2", "3", "4", " 2", "c"]),
              st.lists(_TOKENS, min_size=0, max_size=16)),
    st.builds(_record, st.sampled_from(["1", "2", "3"]),
              st.lists(st.integers(0, 10**6).map(str), min_size=5,
                       max_size=16)),
    st.sampled_from(["", "# comment", "c:app", "   ", "c:", "#"]),
)


def _outcome(parse, text):
    try:
        return parse(text)
    except ParaverParseError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(st.lists(_LINES, min_size=1, max_size=12))
def test_bulk_parse_matches_line_parser(lines):
    text = "\n".join(lines) + "\n"
    bulk = _outcome(lambda t: prv_parser._parse_block(t, 5, "p"), text)
    line = _outcome(lambda t: prv_parser._line_columns(t, 5, "p"), text)
    if isinstance(line, str):
        assert bulk == line
    else:
        assert not isinstance(bulk, str), bulk
        for a, b in zip(bulk, line):
            assert a.dtype == b.dtype and np.array_equal(a, b)


# ----------------------------------------------------------------------
# one pass over the file
# ----------------------------------------------------------------------
def test_cadence_recovered_in_the_reconstruct_pass(tmp_path, monkeypatch):
    files = write_trace(make_trace(period=100), str(tmp_path / "t"))
    os.remove(files.pcf)
    os.remove(files.row)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if str(file).endswith(".prv"):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    rec = reconstruct_run(files.prv)
    assert rec.period_source == "cadence"
    assert rec.trace.sampling_period == 100
    assert opened == [files.prv]


def test_reader_closes_its_file(tmp_path):
    path = _write(tmp_path, _OVERLAP)
    with PrvReader(path) as reader:
        assert (reader.end_time, reader.num_tasks) == (1000, 2)
        next(iter(reader))
    assert reader._handle.closed
    reader = PrvReader(path)
    blocks = list(reader)
    assert reader._handle.closed
    assert sum(len(block.states) for block in blocks) == 9
