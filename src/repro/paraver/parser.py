"""Reader for Paraver ``.prv`` traces (the subset our writer emits).

:class:`PrvReader` reads a ``.prv`` file as blocks of integer columns,
one :class:`PrvBlock` per block of lines.  Each block is at most
:data:`BLOCK_CHARS` characters of text (plus the rest of its last
line), so memory stays bounded by the block size whatever the trace
size.  Consumers fold the blocks as they arrive: reconstruction
(:mod:`repro.paraver.reconstruct`) and ``repro inspect``.

A block of plain records — digits and ``:`` only, the writer's output —
is parsed in bulk: ``:`` becomes a space, ``np.fromstring`` turns the
block into one integer array, and the colons per line give each
record's fields.  Any other block (comment or blank lines inside it,
spacing, signs, or a malformed record) goes through the line parser,
which accepts and rejects exactly what it always did and reports a bad
record as ``path:line: reason``.

:func:`parse_prv` collects the blocks into a :class:`ParsedTrace` of
per-record dataclasses for callers that want the records as objects.
Communication records (type 3) are read but carry nothing the
reconstruction uses (the paper excludes them too, §IV-A).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Optional

import numpy as np

__all__ = ["ParsedState", "ParsedEvent", "ParsedComm", "ParsedTrace",
           "ParaverParseError", "PrvBlock", "PrvReader", "parse_prv"]

#: characters of text per block (the last line is always completed)
BLOCK_CHARS = 1 << 20

#: record fields kept per class, as field indices of the ``:`` split
_STATE_FIELDS = np.array([1, 3, 5, 6, 7])        # cpu task begin end state
_COMM_FIELDS = np.array([3, 9, 5, 6, 11, 12, 13, 14])
_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
#: the only bytes a block may hold to take the bulk parse
_PLAIN_BYTES = b"0123456789:\n"
_COLON_TO_SPACE = bytes.maketrans(b":", b" ")


@dataclass(frozen=True)
class ParsedState:
    cpu: int
    task: int
    begin: int
    end: int
    state: int


@dataclass(frozen=True)
class ParsedEvent:
    cpu: int
    task: int
    time: int
    type: int
    value: int


@dataclass(frozen=True)
class ParsedComm:
    src_task: int
    dst_task: int
    logical_send: int
    physical_send: int
    logical_recv: int
    physical_recv: int
    size: int
    tag: int


class PrvBlock(NamedTuple):
    """One block of records as ``int64`` columns, each class in file order."""

    #: ``[n, 5]``: cpu, task, begin, end, state
    states: np.ndarray
    #: ``[n, 5]``: cpu, task, time, type, value — one row per
    #: ``type:value`` pair of an event line
    events: np.ndarray
    #: ``[n, 8]``: the :class:`ParsedComm` fields, in their order
    comms: np.ndarray


@dataclass
class ParsedTrace:
    end_time: int
    num_tasks: int
    states: list[ParsedState] = field(default_factory=list)
    events: list[ParsedEvent] = field(default_factory=list)
    comms: list["ParsedComm"] = field(default_factory=list)

    def states_of(self, task: int) -> list[ParsedState]:
        return [s for s in self.states if s.task == task]

    def events_of_type(self, type_id: int) -> list[ParsedEvent]:
        return [e for e in self.events if e.type == type_id]

    def state_durations(self) -> dict[int, int]:
        totals: dict[int, int] = {}
        for record in self.states:
            totals[record.state] = totals.get(record.state, 0) \
                + (record.end - record.begin)
        return totals

    def columns(self) -> PrvBlock:
        """All records as one :class:`PrvBlock`."""

        return PrvBlock(
            _array([(s.cpu, s.task, s.begin, s.end, s.state)
                    for s in self.states], 5),
            _array([(e.cpu, e.task, e.time, e.type, e.value)
                    for e in self.events], 5),
            _array([(c.src_task, c.dst_task, c.logical_send,
                     c.physical_send, c.logical_recv, c.physical_recv,
                     c.size, c.tag) for c in self.comms], 8))


class ParaverParseError(Exception):
    """Malformed .prv content."""


class PrvReader:
    """A ``.prv`` file read block by block as integer columns.

    The header is read on construction (``end_time``, ``num_tasks``);
    iterating yields one :class:`PrvBlock` per block of lines.  Use it
    as a context manager, or iterate it to the end, to close the file::

        with PrvReader(path) as reader:
            for block in reader:
                ...
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path)
        try:
            header = self._handle.readline().rstrip("\n")
            if not header.startswith("#Paraver"):
                raise ParaverParseError(f"{path}:1: missing #Paraver header")
            self.end_time, self.num_tasks = _parse_header(path, header)
        except BaseException:
            self._handle.close()
            raise

    def __enter__(self) -> "PrvReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def close(self) -> None:
        self._handle.close()

    def __iter__(self) -> Iterator[PrvBlock]:
        handle = self._handle
        line_no = 2
        try:
            while True:
                text = handle.read(BLOCK_CHARS)
                if not text:
                    return
                if not text.endswith("\n"):
                    text += handle.readline()
                yield _parse_block(text, line_no, self.path)
                line_no += text.count("\n")
        finally:
            self.close()


def parse_prv(path: str) -> ParsedTrace:
    """Parse a ``.prv`` file written by :mod:`repro.paraver.format`."""

    with PrvReader(path) as reader:
        trace = ParsedTrace(reader.end_time, reader.num_tasks)
        for block in reader:
            trace.states.extend(ParsedState(*row)
                                for row in block.states.tolist())
            trace.events.extend(ParsedEvent(*row)
                                for row in block.events.tolist())
            trace.comms.extend(ParsedComm(*row)
                               for row in block.comms.tolist())
    return trace


def _parse_header(path: str, header: str) -> tuple[int, int]:
    # "#Paraver (date):endtime:nodes(cpus):napps:ntasks(...)"
    try:
        after = header.split("):", 1)[1]
        parts = after.split(":")
        end_time = int(parts[0])
        ntasks = int(parts[3].split("(")[0])
        return end_time, ntasks
    except (IndexError, ValueError) as exc:
        raise ParaverParseError(
            f"{path}:1: malformed header: {header!r}") from exc


def _parse_block(text: str, first_line: int, path: str) -> PrvBlock:
    """Columns of one block of lines; ``first_line`` numbers its first."""

    body = text
    # the writer's leading "c:" line is the one comment a trace has
    while body.startswith(("#", "c:")):
        body = body[body.find("\n") + 1:] if "\n" in body else ""
    block = _bulk_columns(body)
    if block is None:
        block = _line_columns(text, first_line, path)
    return block


def _bulk_columns(body: str) -> Optional[PrvBlock]:
    """Columns of plain records, or ``None`` for the line parser.

    ``None`` whenever the block holds anything but digits, ``:`` and
    newlines, an empty field or line, a value the bulk parse cannot
    hold, or a record the line parser would reject — so the line
    parser decides every case that is not plainly well formed.
    """

    if not body:
        return PrvBlock(_array([], 5), _array([], 5), _array([], 8))
    if not body.endswith("\n"):
        body += "\n"
    if not body.isascii():
        return None
    raw = body.encode("ascii")
    if (raw.translate(None, _PLAIN_BYTES) or raw[:1] in (b":", b"\n")
            or b"::" in raw or b"\n:" in raw or b":\n" in raw
            or b"\n\n" in raw):
        return None
    buf = np.frombuffer(raw, dtype=np.uint8)
    newlines = np.flatnonzero(buf == ord("\n"))
    colons = np.flatnonzero(buf == ord(":"))
    nfields = np.diff(np.searchsorted(colons, newlines), prepend=0) + 1
    try:
        values = np.fromstring(raw.translate(_COLON_TO_SPACE),
                               dtype=np.int64, sep=" ")
    except ValueError:
        return None
    # np.fromstring saturates what does not fit in 64 bits
    if values.size != nfields.sum() or values.max() == _INT64_MAX:
        return None
    first = np.cumsum(nfields) - nfields
    kind = values[first]
    is_state, is_event, is_comm = kind == 1, kind == 2, kind == 3
    event_fields = nfields[is_event]
    if (not (is_state | is_event | is_comm).all()
            or (nfields[is_state] < 8).any()
            or (nfields[is_comm] < 15).any()
            or (event_fields < 6).any() or (event_fields % 2).any()):
        return None
    states = values[first[is_state, None] + _STATE_FIELDS]
    if (states[:, 3] < states[:, 2]).any():
        return None
    # one row per type:value pair of each event line
    pairs = (event_fields - 6) // 2
    line = np.repeat(first[is_event], pairs)
    pair = np.arange(line.size) - np.repeat(np.cumsum(pairs) - pairs, pairs)
    at = line + 6 + 2 * pair
    events = np.stack((values[line + 1], values[line + 3], values[line + 5],
                       values[at], values[at + 1]), axis=1)
    comms = values[first[is_comm, None] + _COMM_FIELDS]
    return PrvBlock(states, events, comms)


def _line_columns(text: str, first_line: int, path: str) -> PrvBlock:
    """Columns of a block parsed line by line, with exact error lines."""

    states: list[tuple] = []
    events: list[tuple] = []
    comms: list[tuple] = []
    for line_no, line in enumerate(text.split("\n"), start=first_line):
        line = line.strip()
        if not line or line.startswith("#") or line.startswith("c:"):
            continue
        fields = line.split(":")
        try:
            kind = _int(fields[0])
            if kind == 1:
                begin, end = _int(fields[5]), _int(fields[6])
                if end < begin:
                    raise ValueError(
                        f"state record ends before it begins "
                        f"({end} < {begin})")
                states.append((_int(fields[1]), _int(fields[3]), begin, end,
                               _int(fields[7])))
            elif kind == 2:
                cpu, _appl, task, _thread = (_int(fields[1]), _int(fields[2]),
                                             _int(fields[3]), _int(fields[4]))
                time = _int(fields[5])
                pairs = fields[6:]
                if len(pairs) % 2:
                    raise ValueError("odd type:value list")
                for i in range(0, len(pairs), 2):
                    events.append((cpu, task, time, _int(pairs[i]),
                                   _int(pairs[i + 1])))
            elif kind == 3:
                comms.append((_int(fields[3]), _int(fields[9]),
                              _int(fields[5]), _int(fields[6]),
                              _int(fields[11]), _int(fields[12]),
                              _int(fields[13]), _int(fields[14])))
            else:
                raise ValueError(f"unknown record type {kind}")
        except (ValueError, IndexError) as exc:
            raise ParaverParseError(f"{path}:{line_no}: {exc}") from exc
    return PrvBlock(_array(states, 5), _array(events, 5), _array(comms, 8))


def _int(text: str) -> int:
    value = int(text)
    if not _INT64_MIN <= value <= _INT64_MAX:
        raise ValueError(f"{text.strip()} does not fit in 64 bits")
    return value


def _array(rows: list[tuple], width: int) -> np.ndarray:
    return np.array(rows, dtype=np.int64).reshape(-1, width)
