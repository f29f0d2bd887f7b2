"""One fast timing engine for pipelined loops and the nests around them.

The scalar reference in :mod:`repro.sim.executor` walks a pipelined
loop one iteration at a time: functional evaluation through the
compiled segment, then leaky-bucket issue booking, window backpressure
and per-access DRAM booking.  This module runs the same work through a
:class:`NestPlan` and one exec-codegen'd timing generator per plan
(:func:`_compile_nest_driver`, compiled once per plan on its first
dispatch):

* a plan describes a pipelined leaf loop plus the sequential loops
  that wrap it (``levels``).  A lone pipelined loop — a top-level loop,
  or the per-entry path of a nest that does not flatten — is a
  *depth-0* plan with no levels;
* a nest with levels evaluates all ``entries x trips`` iterations in
  one nest-mode numpy value kernel when it is dispatched
  (:func:`prepare_nest`; entry boundaries become reset points of the
  accumulator scan).  A depth-0 plan whose segment touches memory calls
  its value kernel once per chunk (``SimConfig.loop_chunk`` trips), at
  the chunk's start, so a lone loop keeps the reference's
  chunk-granular view of memory that other threads write; a memory-free
  one has no such view to keep and evaluates the whole dispatch up
  front, in blocks of at most :data:`KERNEL_BLOCK` trips
  (:func:`prepare_loop`);
* the generated driver replays the reference's control skeleton — loop
  bubbles, leading segments, the per-trip issue recurrence over
  precomputed bank/row lists (one chunked body, whatever an entry's trip
  count), trailing segments and critical sections —
  with the same yields and the same shared-state mutations, at the same
  simulated times.  Profiling deposits are made eagerly at the
  reference deposit points: any deferral would reorder same-bin float
  accumulation against concurrently-running loops (double buffering)
  and drift the binned series by an ulp.  With
  ``SimConfig.attribution`` on, the driver also makes the reference's
  cycle-accounting deposits; that code is only emitted then.

A :class:`~repro.sim.interp.VectorFallback` (raised before any
functional side effect) sends a nest back to the reference per-entry
path, and a depth-0 chunk to the scalar interpreter for that chunk
only, so both modes produce bit-identical cycles, traces, stalls, DRAM
counters and attribution tables.  Every such fallback is a store guard,
so a memory-free kernel never raises one.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..hls.schedule import CriticalNode, LoopNode, Segment
from ..ir.ops import Opcode
from ..ir.types import MemorySpace
from ..profiling.attribution import REGION_SYNC, loop_region, segment_region
from ..profiling.config import EventKind, ThreadState
from .engine import Event
from .interp import (
    VectorFallback, VectorizeError, VectorizedSegment, _elem_bytes, _lanes,
    compile_segment_vectorized,
)

__all__ = ["NestPlan", "build_loop_plan", "build_nest_plan", "prepare_loop",
           "prepare_nest"]


_IOTA = np.arange(64, dtype=np.int64)

#: most trips one value-kernel call of a memory-free lone loop covers:
#: the kernel holds a few arrays of this length per op until it returns
KERNEL_BLOCK = 4096

#: opcodes that give a pipelined segment a view of memory
_MEM_OPCODES = frozenset((Opcode.LOAD, Opcode.STORE, Opcode.PRELOAD))


def _iota(n: int) -> np.ndarray:
    """A read-only ``arange(n)`` served from a grow-only cache."""

    global _IOTA
    if n > _IOTA.shape[0]:
        _IOTA = np.arange(n, dtype=np.int64)
    return _IOTA[:n]


#: value-producing opcodes whose result is entry-invariant when all
#: operands are (used to prove loop bounds and kernel inputs constant
#: across entries)
_PURE_OPS = frozenset((
    Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.DIV, Opcode.REM, Opcode.NEG,
    Opcode.MIN, Opcode.MAX, Opcode.FMA, Opcode.AND, Opcode.OR, Opcode.XOR,
    Opcode.NOT, Opcode.SHL, Opcode.SHR, Opcode.EQ, Opcode.NE, Opcode.LT,
    Opcode.LE, Opcode.GT, Opcode.GE, Opcode.CAST, Opcode.SELECT,
))


@dataclass
class _Trail:
    """One trailing item of a nest level: a segment, optionally locked."""

    segment: Segment
    compiled: object
    lock: object            # CriticalNode lock id, or None
    level: int
    #: per compiled input: ('s', snapshot slot) or ('l', live value id)
    argsrc: tuple
    #: value ids captured per entry, in snapshot-slot order
    snap_ids: tuple
    #: var restores before the call: (vid, 'fin', entry-var index) or
    #: (vid, 'sv', snapshot var slot)
    restores: tuple
    #: var ids captured per entry (appended after snap_ids in the tuple)
    snap_var_ids: tuple
    #: per external access: (start, sched_latency, nbytes, is_write, name)
    mems: tuple


@dataclass
class NestLevel:
    """One sequential loop of a flattenable nest."""

    iv_id: int
    bounds: tuple           # (lower, upper, step) value ids
    #: attribution region of the loop (its control-bubble deposits)
    region: int
    #: (compiled segment, depth, flops, intops, region) per leading
    #: segment
    leading: tuple
    #: indices into NestPlan.trails
    trailing: tuple


@dataclass
class NestPlan:
    """Everything needed to run a pipelined loop, and its nest, fast.

    ``levels`` is empty for a depth-0 plan (a lone pipelined loop).
    """

    levels: tuple
    pipe: LoopNode
    pipe_bounds: tuple      # (lower, upper, step) value ids
    p_iv: int
    pseg: Segment
    vseg: VectorizedSegment
    #: per external access of the pipelined segment, in segment order:
    #: (stage offset, stage offset + scheduled latency, bytes moved,
    #: is_write, buffer name)
    mem: list
    group_id: object
    group_cost: int
    trails: tuple
    #: (vid, is_entry_input) per vseg input, in call order (nests only:
    #: a depth-0 kernel reads its inputs live at each chunk)
    input_plan: tuple
    entry_vars: tuple
    entry_var_float: tuple
    chunk: int
    window: int
    dram: object
    uid: int
    #: the pipelined segment loads, stores or preloads; a depth-0 plan
    #: then calls its value kernel per chunk, else once per dispatch
    touches_memory: bool
    #: the compiled timing driver, built on first dispatch by
    #: :func:`_nest_driver_for`
    driver: object = None


def _seq_items(body):
    """The block's items if it executes sequentially, else ``None``."""

    deps = body.deps
    if not all(index - 1 in dep_list
               for index, dep_list in enumerate(deps) if index > 0):
        return None
    return body.items


def _var_touches(seg: Segment):
    """(first touch kind, written ids, read ids) of a segment's vars."""

    first: dict[int, str] = {}
    written: set[int] = set()
    reads: set[int] = set()
    for op in seg.ops:
        code = op.opcode
        if code is Opcode.DECL_VAR:
            first.setdefault(op.attrs["var"].id, "w")
            written.add(op.attrs["var"].id)
        elif code is Opcode.READ_VAR:
            first.setdefault(op.operands[0].id, "r")
            reads.add(op.operands[0].id)
        elif code is Opcode.WRITE_VAR:
            first.setdefault(op.operands[0].id, "w")
            written.add(op.operands[0].id)
    return first, written, reads


def _base_key(base):
    if base.type.space is MemorySpace.LOCAL:
        return ("loc", base.id)
    return ("ext", base.name)


def _seg_bases(seg: Segment):
    """(loaded, stored) base keys of a segment, local and external."""

    loads: set = set()
    stores: set = set()
    for op in seg.ops:
        if op.opcode is Opcode.LOAD:
            loads.add(_base_key(op.operands[0]))
        elif op.opcode is Opcode.STORE:
            stores.add(_base_key(op.operands[0]))
    return loads, stores


def _memop_bytes(memop):
    op = memop.op
    base = op.operands[0]
    if op.opcode is Opcode.LOAD:
        return _lanes(op.result.type) * _elem_bytes(base.type.elem)
    return _lanes(op.operands[2].type) * _elem_bytes(base.type.elem)


def _pipe_segment(pipe: LoopNode):
    """The single-segment body of a pipelined loop (None if not one)."""

    if pipe.uid < 0 or len(pipe.body.items) != 1:
        return None
    pseg = pipe.body.items[0]
    if not isinstance(pseg, Segment) or pseg.uid < 0:
        return None
    return pseg


def _finish_plan(levels, pipe: LoopNode, pseg: Segment, vseg, trails,
                 input_plan, entry_vars, entry_var_float, schedule, config,
                 uid: int) -> NestPlan:
    mem = [(memop.start, memop.start + memop.sched_latency,
            _memop_bytes(memop), memop.is_write, memop.op.operands[0].name)
           for memop in pseg.mem_ops]
    group_id = schedule.local_groups.get(pseg.uid)
    group_cost = max(1, schedule.local_costs.get(pseg.uid, 1)) \
        if group_id is not None else 0
    return NestPlan(
        levels=tuple(levels), pipe=pipe,
        pipe_bounds=tuple(operand.id for operand in pipe.op.operands[:3]),
        p_iv=pipe.op.defined[0].id, pseg=pseg, vseg=vseg, mem=mem,
        group_id=group_id, group_cost=group_cost, trails=tuple(trails),
        input_plan=input_plan, entry_vars=entry_vars,
        entry_var_float=entry_var_float, chunk=max(1, config.loop_chunk),
        window=max(1, config.pipeline_window), dram=config.dram, uid=uid,
        touches_memory=any(op.opcode in _MEM_OPCODES for op in pseg.ops))


def build_loop_plan(item: LoopNode, schedule, external_uses: set[int],
                    config) -> NestPlan:
    """A lone pipelined loop as a depth-0 plan.

    Raises :class:`~repro.sim.interp.VectorizeError`, saying why, when
    the loop has no plan and runs on the scalar interpreter.
    """

    pseg = _pipe_segment(item)
    if pseg is None:
        raise VectorizeError("loop body is not a single segment")
    vseg = compile_segment_vectorized(pseg, external_uses,
                                      item.op.defined[0].id)
    return _finish_plan((), item, pseg, vseg, (), (), (), (), schedule,
                        config, item.uid)


def build_nest_plan(item: LoopNode, schedule, external_uses: set[int],
                    config, get_compiled):
    """Analyze a sequential loop as a flattenable nest (None if not).

    Flattenability criteria (checked statically; anything outside them
    keeps the reference per-entry path):

    * every level is a sequential loop whose body is leading mem-free
      segments, exactly one inner loop, then trailing segments (plain
      or critical-wrapped); the innermost loop is pipelined with a
      single-segment body;
    * all inner loop bounds are entry-invariant (constants, values from
      outside the nest, or pure functions of invariant leading values);
    * vars written by the pipelined segment are invisible mid-nest
      except accumulators reset by the innermost leading segment
      (first-touch write), whose per-entry finals feed the trailing
      segments; leading segments never read what the pipelined or
      trailing segments write;
    * no memory base is written on one side of an entry boundary and
      read or re-written on the other (pipelined stores vs trailing
      accesses and vice versa);
    * the pipelined segment shares no external buffer with any other
      segment of the kernel, except buffers that both only load: the
      mega-batch runs every entry's pipelined work when the nest is
      dispatched, not chunk by chunk, so it must neither see nor hide
      other threads' stores.
    """

    levels_raw = []
    node = item
    pipe = None
    while True:
        if node.uid < 0:
            return None
        items = _seq_items(node.body)
        if not items:
            return None
        pos = 0
        leading = []
        while pos < len(items) and isinstance(items[pos], Segment):
            seg = items[pos]
            if seg.uid < 0 or seg.mem_ops:
                return None
            if any(op.opcode in (Opcode.ALLOC_LOCAL, Opcode.PRELOAD)
                   for op in seg.ops):
                return None
            leading.append(seg)
            pos += 1
        if pos >= len(items) or not isinstance(items[pos], LoopNode):
            return None
        inner = items[pos]
        trail_units = []
        for it in items[pos + 1:]:
            if isinstance(it, Segment):
                if it.uid < 0:
                    return None
                trail_units.append((it, None))
            elif isinstance(it, CriticalNode):
                sub = _seq_items(it.body)
                if sub is None or len(sub) != 1 or \
                        not isinstance(sub[0], Segment) or sub[0].uid < 0:
                    return None
                trail_units.append((sub[0], it.lock))
            else:
                return None
        levels_raw.append((node, leading, trail_units))
        if inner.pipelined:
            pipe = inner
            break
        node = inner
    pseg = _pipe_segment(pipe)
    if pseg is None:
        return None

    k = len(levels_raw)
    level_ivs = [lv[0].op.defined[0].id for lv in levels_raw]
    iv_set = set(level_ivs)
    p_iv = pipe.op.defined[0].id
    lead_segs = [seg for lv in levels_raw for seg in lv[1]]
    trail_segs = [unit[0] for lv in levels_raw for unit in lv[2]]
    if any(op.opcode is Opcode.PRELOAD
           for seg in trail_segs for op in seg.ops):
        return None

    # -- var dataflow across the nest's three phases -------------------
    touches = {seg.uid: _var_touches(seg) for seg in lead_segs + trail_segs}
    lead_vw: dict[int, list[Segment]] = {}
    lead_vr: set[int] = set()
    for seg in lead_segs:
        _first, written, reads = touches[seg.uid]
        for vid in written:
            lead_vw.setdefault(vid, []).append(seg)
        lead_vr |= reads
    p_first, p_vw, p_vr = _var_touches(pseg)
    trail_vw: set[int] = set()
    for seg in trail_segs:
        trail_vw |= touches[seg.uid][1]
    # a leading segment re-runs per entry during the pre-pass, before
    # the pipelined/trailing work of earlier entries: it must not read
    # anything those write.  The pipelined mega-call reads vars once,
    # so nothing it consumes may change under trailing's feet either.
    if lead_vr & (p_vw | trail_vw):
        return None
    if p_vr & trail_vw:
        return None

    p_kind = {vid: ("invariant" if vid not in p_vw
                    else "carried" if touch == "r" else "local")
              for vid, touch in p_first.items()}
    if any(kind == "invariant" and vid in lead_vw
           for vid, kind in p_kind.items()):
        return None  # per-entry varying var read as a mega-time scalar
    entry_vars = tuple(sorted(
        vid for vid, kind in p_kind.items()
        if kind == "carried" and vid in lead_vw))
    continuous = {vid for vid, kind in p_kind.items()
                  if kind == "carried" and vid not in lead_vw}
    innermost_leads = {id(seg) for seg in levels_raw[-1][1]}
    for vid in entry_vars:
        writers = lead_vw[vid]
        # reset exactly once per innermost entry, by a first-touch
        # write (the seed must not depend on the previous entry)
        if len(writers) != 1 or id(writers[0]) not in innermost_leads:
            return None
        wseg = writers[0]
        if touches[wseg.uid][0].get(vid) != "w":
            return None
        for seg in lead_segs:
            if seg is not wseg and (vid in touches[seg.uid][1]
                                    or vid in touches[seg.uid][2]):
                return None

    # -- value-level invariance ----------------------------------------
    lead_def: dict[int, object] = {}
    lead_def_level: dict[int, int] = {}
    for li, (_node, leads, _t) in enumerate(levels_raw):
        for seg in leads:
            for op in seg.ops:
                if op.result is not None:
                    lead_def[op.result.id] = op
                    lead_def_level[op.result.id] = li
    p_def = {op.result.id for op in pseg.ops if op.result is not None}
    trail_def: set[int] = set()
    for seg in trail_segs:
        for op in seg.ops:
            if op.result is not None:
                trail_def.add(op.result.id)
    nest_vw = set(lead_vw) | p_vw | trail_vw

    inv_memo: dict[int, bool] = {}

    def inv(vid: int) -> bool:
        hit = inv_memo.get(vid)
        if hit is not None:
            return hit
        inv_memo[vid] = False  # cycle guard
        if vid in iv_set or vid == p_iv or vid in p_def or vid in trail_def:
            result = False
        else:
            op = lead_def.get(vid)
            if op is None:
                result = True  # defined before the nest: one value
            elif op.opcode in (Opcode.CONST, Opcode.THREAD_ID,
                               Opcode.NUM_THREADS):
                result = True
            elif op.opcode is Opcode.READ_VAR:
                result = op.operands[0].id not in nest_vw
            elif op.opcode in _PURE_OPS:
                result = all(inv(operand.id) for operand in op.operands)
            else:
                result = False
        inv_memo[vid] = result
        return result

    # inner bounds must be invariant AND defined by the time the loop
    # is first entered (a shallower level's leading, or pre-nest)
    for li, (lnode, _l, _t) in enumerate(levels_raw):
        if li == 0:
            continue  # resolved at dispatch, like the reference
        for operand in lnode.op.operands[:3]:
            if not inv(operand.id):
                return None
            home = lead_def_level.get(operand.id)
            if home is not None and home >= li:
                return None
    for operand in pipe.op.operands[:3]:
        if not inv(operand.id):
            return None

    # -- memory-base hazards across entry boundaries -------------------
    p_loads, p_stores = _seg_bases(pseg)
    t_loads: set = set()
    t_stores: set = set()
    for seg in trail_segs:
        loads, stores = _seg_bases(seg)
        t_loads |= loads
        t_stores |= stores
    if p_stores & (t_loads | t_stores):
        return None
    if p_loads & t_stores:
        return None
    # leading segments re-run ahead of everything in the pre-pass: they
    # must be pure (local stores would land before earlier entries'
    # pipelined/trailing work) and must not read what the later phases
    # write
    l_loads: set = set()
    for seg in lead_segs:
        loads, stores = _seg_bases(seg)
        if stores:
            return None
        l_loads |= loads
    if l_loads & (p_stores | t_stores):
        return None
    # other threads run other segments (and this nest) concurrently:
    # external bases only one side loads are the only safe overlap
    o_loads: set = set()
    o_stores: set = set()
    for seg in schedule.body.walk_segments():
        if seg is not pseg:
            loads, stores = _seg_bases(seg)
            o_loads |= loads
            o_stores |= stores
    ext = {key for key in o_loads | o_stores if key[0] == "ext"}
    if p_loads & o_stores & ext or p_stores & ext:
        return None

    # -- compile the pipelined segment in nest mode --------------------
    entry_inputs = iv_set | {vid for vid in lead_def if not inv(vid)}
    try:
        vseg = compile_segment_vectorized(pseg, external_uses, p_iv,
                                          nest=True,
                                          entry_inputs=entry_inputs,
                                          entry_vars=entry_vars)
    except VectorizeError:
        return None
    if any(vid in trail_def for vid in vseg.inputs):
        return None  # cross-entry value feed from trailing
    input_plan = tuple((vid, vid in entry_inputs) for vid in vseg.inputs)
    ev_float = []
    for vid in entry_vars:
        for op in pseg.ops:
            if op.opcode is Opcode.READ_VAR and op.operands[0].id == vid:
                ev_float.append(bool(op.result.type.is_float))
                break
        else:  # pragma: no cover - classified carried, so a read exists
            return None

    # -- leading / trailing compilation --------------------------------
    trails: list[_Trail] = []
    levels: list[NestLevel] = []
    for li, (lnode, leads, tunits) in enumerate(levels_raw):
        deeper = set(level_ivs[li + 1:]) | {p_iv}
        lead_list = []
        for seg in leads:
            compiled = get_compiled(seg)
            if any(vid in p_def or vid in trail_def or vid in deeper
                   for vid in compiled.inputs):
                return None  # pre-pass would read a stale value
            lead_list.append((compiled, seg.depth, seg.flops, seg.intops,
                              segment_region(seg.uid)))
        t_idx = []
        for seg, lock in tunits:
            compiled = get_compiled(seg)
            argsrc = []
            snap_ids: list[int] = []
            for vid in compiled.inputs:
                if vid in p_def or vid == p_iv:
                    return None  # per-entry pipelined value, not replayable
                if vid in trail_def:
                    argsrc.append(("l", vid))
                elif vid in lead_def or vid in iv_set:
                    argsrc.append(("s", len(snap_ids)))
                    snap_ids.append(vid)
                else:
                    argsrc.append(("l", vid))
            restores = []
            snap_var_ids: list[int] = []
            for vid in sorted(touches[seg.uid][2]):
                if vid in entry_vars:
                    restores.append((vid, "fin", entry_vars.index(vid)))
                elif vid in p_vw:
                    return None  # covered above for most shapes; be safe
                elif vid in lead_vw:
                    restores.append((vid, "sv", len(snap_var_ids)))
                    snap_var_ids.append(vid)
            mems = []
            for memop in seg.mem_ops:
                mems.append((memop.start, memop.sched_latency,
                             _memop_bytes(memop), memop.is_write,
                             memop.op.operands[0].name))
            t_idx.append(len(trails))
            trails.append(_Trail(seg, compiled, lock, li, tuple(argsrc),
                                 tuple(snap_ids), tuple(restores),
                                 tuple(snap_var_ids), tuple(mems)))
        levels.append(NestLevel(
            iv_id=lnode.op.defined[0].id,
            bounds=tuple(operand.id for operand in lnode.op.operands[:3]),
            region=loop_region(lnode.uid), leading=tuple(lead_list),
            trailing=tuple(t_idx)))
    return _finish_plan(levels, pipe, pseg, vseg, trails, input_plan,
                        entry_vars, tuple(ev_float), schedule, config,
                        item.uid)


def _amt(value: int, factor: str = "") -> str:
    """Literal for a deposit amount, folding the zero case."""

    if value == 0:
        return "0"
    return f"{value} * {factor}" if factor else str(value)


def _compile_nest_driver(nplan: NestPlan, limit: int, grant: int,
                         period: int, enabled, record_on: bool, sbits: int,
                         attr: bool):
    """exec-compile the timing generator of one plan.

    The generated function replays the reference executor's exact
    control skeleton for one dispatch — per-trip loop bubbles,
    leading-segment deposits, the per-entry pipelined recurrence over
    precomputed bank/row lists, conditional advance/tail yields, and
    trailing segments with the full critical-section protocol — with
    every schedule constant folded in as a literal.  It mutates the
    same shared state (leaky buckets, port histories, DRAM banks/bus,
    semaphore, thread states) in the same order at the same simulated
    times as the reference, and makes its profiling deposits eagerly at
    the reference deposit points so same-bin float accumulation keeps
    the reference order even against concurrently-running loops.

    Each pipelined entry runs one chunked body, with the per-entry trip
    count ``T`` a runtime argument, so one driver serves every dispatch
    of the plan.  A depth-0 plan whose segment touches memory calls its
    value kernel at each chunk's start; a chunk the kernel refuses runs
    through the executor's scalar ``scalar_chunk``, with the hoisted
    port state written back around it.  With ``attr`` the driver also
    makes every ``acct.deposit`` call of the reference, with the same
    arguments in the same order.  All per-request protocol state that is
    private to this thread — the Avalon port in-flight windows and
    in-order completion clamps, and the semaphore acquisition counters
    — is hoisted into locals for the whole nest and written back once;
    DRAM bank/bus bookings and the FIFO lock handshake are inlined so
    no foreign Python frame is entered between yields.
    """

    levels, trails, pipe, pseg, mem = (nplan.levels, nplan.trails,
                                       nplan.pipe, nplan.pseg, nplan.mem)
    has_group = nplan.group_id is not None
    group_cost, chunk, window, dram = (nplan.group_cost, nplan.chunk,
                                       nplan.window, nplan.dram)
    k = len(levels)
    # only a depth-0 plan whose segment touches memory runs its value
    # kernel inside the driver, per chunk; prepare_loop runs a
    # memory-free one's up front and prepare_nest a nest's
    per_chunk = not k and nplan.touches_memory
    ii, rec_ii, depth = pipe.ii, pipe.rec_ii, pipe.depth
    p_reads = any(not m[3] for m in mem)
    p_writes = any(m[3] for m in mem)
    prb = sum(m[2] for m in mem if not m[3])
    pwb = sum(m[2] for m in mem if m[3])
    t_reads = any(not m[3] for tr in trails for m in tr.mems)
    t_writes = any(m[3] for tr in trails for m in tr.mems)
    used_r = p_reads or t_reads
    used_w = p_writes or t_writes
    any_mem = bool(mem) or t_reads or t_writes
    any_crit = any(tr.lock is not None for tr in trails)
    any_tmem = any(tr.mems for tr in trails)
    locks: list = []
    for tr in trails:
        if tr.lock is not None and tr.lock not in locks:
            locks.append(tr.lock)
    lock_ix = {lock: j for j, lock in enumerate(locks)}
    region = loop_region(pipe.uid)
    drain = max(0, depth - rec_ii)
    # pipelined trips run through the fast body (memory request counts);
    # a depth-0 plan's chunk lists are indexed from 0, so it keeps a total
    ptrips = "p" if k else "_pt"
    rmp = dram.row_miss_penalty
    base = dram.base_latency
    row_span = dram.row_bytes * dram.banks_per_channel * dram.channels
    # accumulator buckets touched by inlined single-bin deposits; tags
    # name the EventKind constants (F/I/R/W/S) in the namespace
    kind_of = {"F": EventKind.FLOPS, "I": EventKind.INTOPS,
               "R": EventKind.MEM_READ_BYTES, "W": EventKind.MEM_WRITE_BYTES,
               "S": EventKind.STALLS}
    en_tags = {tag for tag, kind in kind_of.items() if kind in enabled}
    used_tags: set = set()

    args = "ns, fins, tins, bkrw, tbufs" if k else "iv, step, lrt"
    lines = [f"def _ndrive(rt, tid, ctx, state, group, acct, T, {args}):"]

    def w(indent: int, text: str) -> None:
        lines.append("    " * indent + text)

    def emit_ports_load(ind: int) -> None:
        # this thread's Avalon port windows and in-order clamps, hoisted
        # into locals
        for h, used in (("r", used_r), ("w", used_w)):
            if used:
                w(ind, f"last_{h} = lc.get(_K{h.upper()}, 0)")
                w(ind, f"_h{h} = _deque(hist_{h})")
                w(ind, f"_h{h}a = _h{h}.append")
                w(ind, f"_h{h}p = _h{h}.popleft")
                w(ind, f"hl{h} = len(_h{h})")

    def emit_ports_store(ind: int) -> None:
        for h, used in (("r", used_r), ("w", used_w)):
            if used:
                w(ind, f"lc[_K{h.upper()}] = last_{h}")
                w(ind, f"hist_{h}[:] = _h{h}")

    w(1, "engine = rt.engine")
    w(1, "rec = rt.recorder")
    w(1, "_am = rec.add_many")
    if attr:
        w(1, "_ad = acct.deposit")
    for li in range(k):
        w(1, f"n{li} = ns[{li}]")
    w(1, "inflight = _deque()")
    w(1, "ipop = inflight.popleft")
    w(1, "ipush = inflight.append")
    w(1, "iclear = inflight.clear")
    if attr:
        # (row, arb, latency) split of each in-flight iteration's late
        # response, mirroring ``inflight`` one for one
        w(1, "parts = _deque()")
        w(1, "ppop = parts.popleft")
        w(1, "ppush = parts.append")
        w(1, "pclear = parts.clear")
    elif per_chunk:
        w(1, "parts = None")
    w(1, "gap = state._GAP")
    if any_mem:
        w(1, "lc = rt.ports._last_completion")
        w(1, "memory = rt.memory")
        w(1, "brow = memory._bank_row")
        w(1, "brdy = memory._bank_ready")
        w(1, "bus_busy = memory._bus_busy")
        w(1, "hist_r, hist_w = rt.port_hists[tid]")
    if used_r:
        w(1, "_KR = (tid, False)")
    if used_w:
        w(1, "_KW = (tid, True)")
    emit_ports_load(1)
    if k:
        for i in range(len(mem)):
            w(1, f"bk{i} = bkrw[{2 * i}]")
            w(1, f"rw{i} = bkrw[{2 * i + 1}]")
    elif per_chunk:
        w(1, "_pt = 0")
        w(1, "_lp = _Z3")
    if trails:
        w(1, "_values = ctx.values")
        w(1, "_vars = ctx.vars")
        w(1, "_mem = ctx.mem")
    if any_tmem:
        w(1, "_trace = _mem.trace")
        w(1, "_trc = _trace.clear")
    if any_crit:
        w(1, "_sl = rec._state_log[tid]")
        w(1, "_sla = _sl.append")
        if record_on:
            w(1, "_tb = 0")
        w(1, "sem = rt.semaphore")
        w(1, "_hold = sem._holders")
        w(1, "_hget = _hold.get")
        for j in range(len(locks)):
            w(1, f"_lq{j} = sem._queues.setdefault(_LK{j}, _deque())")
            w(1, f"_lqa{j} = _lq{j}.append")
            w(1, f"_lqp{j} = _lq{j}.popleft")
            w(1, f'_en{j} = "lock%s->t%s" % (_LK{j}, tid)')
            w(1, f"_an{j} = 0")
            w(1, f"_cn{j} = 0")
    fins_used = sorted({slot for tr in trails for _vid, kind, slot
                        in tr.restores if kind == "fin"})
    for slot in fins_used:
        w(1, f"fin{slot} = fins[{slot}]")
    tpos = 0
    for u, tr in enumerate(trails):
        if tr.snap_ids or tr.snap_var_ids:
            w(1, f"tin{u} = tins[{u}]")
        for q in range(len(tr.mems)):
            w(1, f"tb{u}_{q} = tbufs[{tpos}]")
            w(1, f"te{u}_{q} = tbufs[{tpos + 1}]")
            tpos += 2
    hoist_at = len(lines)
    w(1, "now = engine.now")
    w(1, "p = 0")
    if k:
        w(1, "_e = 0")
    if any_mem:
        w(1, "rm = 0")
        w(1, "arb = 0")
    w(1, "stall_acc = 0")
    for li in range(k - 1):
        if levels[li].trailing:
            w(1, f"_q{li} = 0")

    def transfer_of(nbytes: int) -> int:
        return dram.request_overhead + max(1, -(-nbytes // dram.width_bytes))

    def emit_booking(ind: int, is_write: bool, transfer: int) -> None:
        # PortSet.request + ExternalMemory.access_time, inlined over the
        # hoisted deque/clamp locals; expects `at`, `bi`, `row`, `ch`.
        # With attribution a read also leaves its row-miss penalty and
        # arbitration wait in `_pn` / `_av`.
        track = attr and not is_write
        h = "w" if is_write else "r"
        last = "last_w" if is_write else "last_r"
        w(ind, f"if hl{h} >= {limit}:")
        w(ind + 1, f"h0 = _h{h}p()")
        w(ind + 1, "if h0 > at: at = h0")
        w(ind, "else:")
        w(ind + 1, f"hl{h} += 1")
        w(ind, "begin = brdy[bi]")
        w(ind, "if at > begin: begin = at")
        w(ind, "busy = bus_busy[ch]")
        w(ind, "if brow[bi] != row:")
        w(ind + 1, f"begin += {rmp}")
        w(ind + 1, "rm += 1")
        w(ind + 1, "if busy > begin: begin = busy")
        if track:
            w(ind + 1, f"_pn = {rmp}; _av = begin - at - {rmp}")
        else:
            w(ind + 1, f"arb += begin - at - {rmp}")
        w(ind, "else:")
        w(ind + 1, "if busy > begin: begin = busy")
        if track:
            w(ind + 1, "_pn = 0; _av = begin - at")
            w(ind, "arb += _av")
        else:
            w(ind + 1, "arb += begin - at")
        w(ind, f"done = begin + {transfer}")
        w(ind, "bus_busy[ch] = done")
        w(ind, "brow[bi] = row")
        w(ind, "brdy[bi] = done")
        w(ind, f"completion = done + {base}")
        w(ind, f"if completion < {last}: completion = {last}")
        w(ind, f"else: {last} = completion")
        w(ind, f"_h{h}a(completion)")

    def emit_p_memop(ind: int, i: int, start: int, off: int, nbytes: int,
                     is_write: bool) -> None:
        w(ind, f"at = issue + {start}" if start else "at = issue")
        w(ind, f"bi = bk{i}[p]")
        w(ind, f"row = rw{i}[p]")
        w(ind, "ch = _CH[bi]")
        emit_booking(ind, is_write, transfer_of(nbytes))
        if not is_write:
            w(ind, f"late = completion - issue - {off}")
            emit_bind(ind)

    def emit_t_memop(ind: int, u: int, q: int, start: int, slat: int,
                     nbytes: int, is_write: bool) -> None:
        w(ind, f"at = now + {start}" if start else "at = now")
        w(ind, f"addr = tb{u}_{q} + _trace[{q}][0] * te{u}_{q}")
        w(ind, f"ch = addr // {dram.interleave_bytes} % {dram.channels}")
        w(ind, f"bi = ch * {dram.banks_per_channel} + "
               f"addr // {dram.row_bytes} % {dram.banks_per_channel}")
        w(ind, f"row = addr // {row_span}")
        emit_booking(ind, is_write, transfer_of(nbytes))
        if not is_write:
            w(ind, f"late = completion - now - {start + slat}")
            emit_bind(ind)

    def emit_bind(ind: int) -> None:
        # the latest response binds `extra` (first maximum); attribution
        # keeps that request's penalty and arbitration wait
        if attr:
            w(ind, "if late > extra:")
            w(ind + 1, "extra = late; e_pen = _pn; e_arb = _av")
        else:
            w(ind, "if late > extra: extra = late")

    def emit_peel(ind: int, amount: str, pen: str, arbv: str,
                  pre: str) -> None:
        # Runtime._peel: row-miss share first, then arbitration, the
        # rest is latency (`{pre}x - {pre}a`)
        w(ind, f"{pre}r = {pen} if {pen} < {amount} else {amount}")
        w(ind, f"{pre}x = {amount} - {pre}r")
        w(ind, f"{pre}a = {arbv} if {arbv} < {pre}x else {pre}x")

    def emit_bucket(ind: int) -> None:
        # leaky-bucket issue recurrence, strength-reduced: e_next tracks
        # first + count * ii so the earliest-issue slot is one add
        w(ind, "if s_first < 0 or cursor > e_next + gap:")
        w(ind + 1, f"s_first = cursor; e_next = cursor + {ii}; "
                   "issue = cursor")
        w(ind, "else:")
        w(ind + 1, "issue = cursor if cursor > e_next else e_next")
        w(ind + 1, f"e_next += {ii}")
        if attr:
            w(ind, "c_ii += issue - cursor")
        if has_group:
            if attr:
                w(ind, "g_at = issue")
            w(ind, "if g_first < 0 or issue > ge_next + gap:")
            w(ind + 1, f"g_first = issue; ge_next = issue + {group_cost}")
            w(ind, "else:")
            w(ind + 1, "if ge_next > issue: issue = ge_next")
            w(ind + 1, f"ge_next += {group_cost}")
            if attr:
                w(ind, "c_port += issue - g_at")

    def emit_bucket_commit(ind: int) -> None:
        w(ind, "state.first = s_first")
        w(ind, f"state.count = (e_next - s_first) // {ii}")
        if has_group:
            w(ind, "group.first = g_first")
            w(ind, f"group.count = (ge_next - g_first) // {group_cost}")

    def emit_deposit(ind, start_expr, endm1_expr, end_expr,
                     const_pairs, rt_pairs, fallback) -> None:
        # ProfilingRecorder.add_many inlined for deposits within one
        # sampling bin or split across two adjacent bins: same upsert
        # expression per pair, zero/disabled pairs folded away at
        # compile time; wider deposits (rare) fall back to the real
        # method with the reference pair tuple
        inline = [(t, a) for t, a in const_pairs if t in en_tags and a]
        rt_in = [(t, e, g) for t, e, g in rt_pairs if t in en_tags]
        if not inline and not rt_in:
            return  # a no-op deposit in the reference as well
        used_tags.update(t for t, _a in inline)
        used_tags.update(t for t, _e, _g in rt_in)
        w(ind, f"b0 = {start_expr} // {period}")
        w(ind, f"_bl = ({endm1_expr}) // {period}")
        w(ind, "if b0 == _bl:")
        w(ind + 1, "key = (b0, tid)")
        for t, a in inline:
            w(ind + 1, f"_b{t}[key] = _b{t}g(key, 0.0) + {a}")
        for t, e, g in rt_in:
            if g:
                w(ind + 1, f"if {e}:")
                w(ind + 2, f"_b{t}[key] = _b{t}g(key, 0.0) + {e}")
            else:
                w(ind + 1, f"_b{t}[key] = _b{t}g(key, 0.0) + {e}")
        w(ind, "elif _bl == b0 + 1:")
        # the two-window split mirrors add_many's vectorized
        # ``span * (amount / (end - start))`` bit for bit: one float
        # scale per pair, one int*float multiply per window
        w(ind + 1, f"_m = _bl * {period}")
        w(ind + 1, f"_sp = {end_expr} - ({start_expr})")
        w(ind + 1, f"_w0 = _m - ({start_expr})")
        w(ind + 1, f"_w1 = {end_expr} - _m")
        w(ind + 1, "key = (b0, tid)")
        w(ind + 1, "_k1 = (_bl, tid)")
        for t, a in inline:
            w(ind + 1, f"_f = {a} / _sp")
            w(ind + 1, f"_b{t}[key] = _b{t}g(key, 0.0) + _w0 * _f")
            w(ind + 1, f"_b{t}[_k1] = _b{t}g(_k1, 0.0) + _w1 * _f")
        for t, e, g in rt_in:
            base = ind + 1
            if g:
                w(ind + 1, f"if {e}:")
                base = ind + 2
            w(base, f"_f = {e} / _sp")
            w(base, f"_b{t}[key] = _b{t}g(key, 0.0) + _w0 * _f")
            w(base, f"_b{t}[_k1] = _b{t}g(_k1, 0.0) + _w1 * _f")
        w(ind, "else:")
        w(ind + 1, f"_am({start_expr}, {end_expr}, tid, {fallback})")

    def emit_set_state(ind, state_name) -> None:
        # ProfilingRecorder.set_state inlined; the dedupe guard is kept
        # (log tail may already hold the state when the nest begins)
        w(ind, f"if _sl[-1][1] is not {state_name}:")
        w(ind + 1, f"_sla((now, {state_name}))")
        if record_on:
            # pending_bits stays an eager attribute RMW (the periodic
            # flusher reads it mid-run); total_bits is only read at
            # finalize, so it commits once at driver exit
            w(ind + 1, f"rec.pending_bits += {sbits}")
            w(ind + 1, f"_tb += {sbits}")

    def emit_trip_loop(b: int) -> None:
        emit_bucket(b)
        w(b, f"if len(inflight) >= {window}:")
        w(b + 1, f"head = ipop() - {depth}")
        if attr:
            # backpressure peels into the popped iteration's DRAM parts
            w(b + 1, "o_r, o_a, _ol = ppop()")
            w(b + 1, "if head > issue:")
            w(b + 2, "bp = head - issue; stall += bp; issue = head")
            emit_peel(b + 2, "bp", "o_r", "o_a", "_b")
            w(b + 2, "c_row += _br; c_arb += _ba; c_lat += _bx - _ba")
        else:
            w(b + 1, "if head > issue:")
            w(b + 2, "stall += head - issue; issue = head")
        if p_reads:
            w(b, "extra = 0")
        for i, (start, off, nbytes, is_write, _name) in enumerate(mem):
            emit_p_memop(b, i, start, off, nbytes, is_write)
        if attr and p_reads:
            w(b, "if extra > 0:")
            emit_peel(b + 1, "extra", "e_pen", "e_arb", "_p")
            w(b + 1, "ppush((_pr, _pa, _px - _pa))")
            w(b, "else:")
            w(b + 1, "_pr = _pa = 0")
            w(b + 1, "ppush(_Z3)")
        elif attr:
            w(b, "ppush(_Z3)")
        if p_reads:
            w(b, f"retire = issue + {depth} + extra")
            w(b, "stall += extra")
        else:
            w(b, f"retire = issue + {depth}")
        w(b, "ipush(retire)")
        w(b, f"cursor = issue + {rec_ii}")
        if attr and p_reads:
            w(b, "if retire > last_retire:")
            w(b + 1, "last_retire = retire; lp_r = _pr; lp_a = _pa")
        else:
            w(b, "if retire > last_retire: last_retire = retire")
        w(b, "p += 1")

    def emit_chunk_attr(ind: int) -> None:
        # the chunk's advance decomposes exactly: rec_ii per trip is
        # useful issue spacing, the rest is what delayed each issue
        if attr:
            w(ind, f"_ad(cs, last_retire, {region}, ({rec_ii} * batch, "
                   "c_ii, c_port, c_lat, c_arb, c_row, 0, 0, 0))")

    def emit_tail(ind: int) -> None:
        w(ind, "tail = last_retire - now")
        w(ind, "if tail > 0:")
        if attr:
            # pipeline drain after the last issue; what exceeds it is
            # the binding iteration's late response, peeled into its
            # stored DRAM parts
            if drain:
                w(ind + 1, f"_dr = {drain} if {drain} < tail else tail")
            else:
                w(ind + 1, "_dr = 0")
            w(ind + 1, "_x = tail - _dr")
            emit_peel(ind + 1, "_x", "lp_r", "lp_a", "_t")
            w(ind + 1, f"_ad(now, last_retire, {region}, (0, 0, 0, "
                       "_tx - _ta, _ta, _tr, 0, _dr, 0))")
        w(ind + 1, "yield tail")
        w(ind + 1, "now = last_retire")

    def emit_scalar_chunk(ind: int) -> None:
        # depth-0 chunk the value kernel refused: the executor's scalar
        # interpreter runs it over the live port state
        emit_ports_store(ind)
        if attr:
            w(ind, "_lp = (lp_r, lp_a, 0)")
        w(ind, "(cursor, last_retire, _lp, _rb, _wb, stall, c_ii, c_port, "
               "c_row, c_arb, c_lat) = rt.scalar_chunk(lrt, tid, ctx, "
               "inflight, parts, iv, step, batch, cursor, last_retire, _lp)")
        if attr:
            w(ind, "lp_r = _lp[0]; lp_a = _lp[1]")
        emit_ports_load(ind)
        w(ind, f"_am(cs, last_retire, tid, ((_FLOPS, {pseg.flops} * batch), "
               f"(_INTOPS, {pseg.intops} * batch), (_MRB, _rb), "
               "(_MWB, _wb), (_STALLS, stall)))")
        emit_chunk_attr(ind)

    def emit_pipe(ind: int) -> None:
        # one pipelined entry of T trips, chunk by chunk
        w(ind, "iclear()")
        if attr:
            w(ind, "pclear()")
            w(ind, "lp_r = lp_a = 0")
        w(ind, "cursor = now")
        w(ind, "last_retire = cursor")
        w(ind, "remaining = T")
        w(ind, "while remaining > 0:")
        c = f = ind + 1
        w(c, f"batch = {chunk} if remaining > {chunk} else remaining")
        w(c, "cs = cursor")
        if per_chunk:
            w(c, "_bk = _kernel(rt, _P, ctx, iv, step, batch)")
            w(c, "if _bk is None:")
            emit_scalar_chunk(c + 1)
            w(c, "else:")
            f = c + 1
            if mem:
                w(f, ", ".join(f"bk{i}, rw{i}"
                               for i in range(len(mem))) + " = _bk")
            w(f, "p = 0")
        # hoist the shared leaky buckets for the chunk
        w(f, "s_first = state.first")
        w(f, f"e_next = s_first + state.count * {ii}")
        if has_group:
            w(f, "g_first = group.first")
            w(f, f"ge_next = g_first + group.count * {group_cost}")
        w(f, "stall = 0")
        if attr:
            w(f, "c_ii = c_port = c_row = c_arb = c_lat = 0")
        w(f, "_pe = p + batch")
        w(f, "while p < _pe:")
        emit_trip_loop(f + 1)
        emit_bucket_commit(f)
        pipe_rt = [(t, f"{v} * batch", False)
                   for t, v in (("F", pseg.flops), ("I", pseg.intops),
                                ("R", prb), ("W", pwb)) if v]
        emit_deposit(f, "cs", "last_retire - 1", "last_retire", [],
                     pipe_rt + [("S", "stall", True)],
                     f"((_FLOPS, {_amt(pseg.flops, 'batch')}), "
                     f"(_INTOPS, {_amt(pseg.intops, 'batch')}), "
                     f"(_MRB, {_amt(prb, 'batch')}), "
                     f"(_MWB, {_amt(pwb, 'batch')}), (_STALLS, stall))")
        emit_chunk_attr(f)
        if per_chunk:
            w(f, "_pt += batch")
            w(c, "iv += step * batch")
        w(c, "remaining -= batch")
        # re-synchronize with the other thread processes
        w(c, "if stall:")
        w(c + 1, "stall_acc += stall")
        w(c, "advance = cursor - now")
        w(c, "if advance > 0:")
        w(c + 1, "yield advance")
        w(c + 1, "now = cursor")
        emit_tail(ind)

    def emit_seg_attr(ind: int, seg, end: str, lat_arb_row: str) -> None:
        if attr:
            w(ind, f"_ad(now, {end}, {segment_region(seg.uid)}, "
                   f"({seg.depth}, 0, 0, {lat_arb_row}, 0, 0, 0))")

    def emit_trail(u: int, tr, ind: int, idx: str, fin_idx: str) -> None:
        seg = tr.segment
        if tr.lock is not None:
            # HardwareSemaphore.acquire inlined: same yield sequence,
            # same shared holder/queue mutations at the same times
            j = lock_ix[tr.lock]
            emit_set_state(ind, "_SPIN")
            if attr:
                w(ind, "_as = now")
            w(ind, f"_an{j} += 1")
            w(ind, f"yield {grant}")
            w(ind, f"now += {grant}")
            w(ind, f"if _hget(_LK{j}) is None and not _lq{j}:")
            w(ind + 1, f"_hold[_LK{j}] = tid")
            w(ind, "else:")
            w(ind + 1, f"_cn{j} += 1")
            w(ind + 1, f"_ev = _Event(_en{j})")
            w(ind + 1, f"_lqa{j}((tid, _ev))")
            w(ind + 1, "yield _ev")
            w(ind + 1, "now = engine.now")
            if attr:
                w(ind, "if now > _as:")
                w(ind + 1, f"_ad(_as, now, {REGION_SYNC}, "
                           "(0, 0, 0, 0, 0, 0, now - _as, 0, 0))")
            emit_set_state(ind, "_CRIT")
        if tr.snap_ids or tr.snap_var_ids:
            w(ind, f"_t = tin{u}[{idx}]")
        nsnap = len(tr.snap_ids)
        for vid, kind, slot in tr.restores:
            if kind == "fin":
                w(ind, f"_vars[{vid}] = fin{slot}[{fin_idx}]")
            else:
                w(ind, f"_vars[{vid}] = _t[{nsnap + slot}]")
        args = "".join(
            f", _t[{slot}]" if src == "s" else f", _values[{slot}]"
            for src, slot in tr.argsrc)
        call = f"_tf{u}(ctx, _vars, _mem{args})"
        if tr.mems:
            w(ind, "_trc()")
            if tr.compiled.outputs:
                w(ind, f"outs = {call}")
            else:
                w(ind, call)
            for j2, vid in enumerate(tr.compiled.outputs):
                w(ind, f"_values[{vid}] = outs[{j2}]")
            any_tread = any(not m[3] for m in tr.mems)
            if any_tread:
                w(ind, "extra = 0")
            trb = twb = 0
            for q, (start, slat, nbytes, is_write, _name) in \
                    enumerate(tr.mems):
                emit_t_memop(ind, u, q, start, slat, nbytes, is_write)
                if is_write:
                    twb += nbytes
                else:
                    trb += nbytes
            if any_tread:
                w(ind, f"duration = {seg.depth} + extra")
                emit_deposit(
                    ind, "now", "now + duration - 1", "now + duration",
                    [("F", seg.flops), ("I", seg.intops),
                     ("R", trb), ("W", twb)],
                    [("S", "extra", True)],
                    f"((_FLOPS, {_amt(seg.flops)}), (_INTOPS, "
                    f"{_amt(seg.intops)}), (_MRB, {_amt(trb)}), "
                    f"(_MWB, {_amt(twb)}), (_STALLS, extra))")
                if attr:
                    w(ind, "if extra > 0:")
                    emit_peel(ind + 1, "extra", "e_pen", "e_arb", "_s")
                    w(ind, "else:")
                    w(ind + 1, "_sr = _sx = _sa = 0")
                    emit_seg_attr(ind, seg, "now + duration",
                                  "_sx - _sa, _sa, _sr")
                w(ind, "if extra:")
                w(ind + 1, "stall_acc += extra")
                w(ind, "yield duration")
                w(ind, "now += duration")
            else:
                # posted writes never stall the segment: constant timing
                if seg.depth > 0:
                    emit_deposit(
                        ind, "now", f"now + {seg.depth - 1}",
                        f"now + {seg.depth}",
                        [("F", seg.flops), ("I", seg.intops), ("W", twb)],
                        [], f"_PTM{u}")
                emit_seg_attr(ind, seg, f"now + {seg.depth}", "0, 0, 0")
                w(ind, f"yield {seg.depth}")
                w(ind, f"now += {seg.depth}")
        else:
            if tr.compiled.outputs:
                w(ind, f"outs = {call}")
                for j2, vid in enumerate(tr.compiled.outputs):
                    w(ind, f"_values[{vid}] = outs[{j2}]")
            else:
                w(ind, call)
            if seg.depth > 0:
                emit_deposit(ind, "now", f"now + {seg.depth - 1}",
                             f"now + {seg.depth}",
                             [("F", seg.flops), ("I", seg.intops)],
                             [], f"_PT{u}")
            emit_seg_attr(ind, seg, f"now + {seg.depth}", "0, 0, 0")
            w(ind, f"yield {seg.depth}")
            w(ind, f"now += {seg.depth}")
        if tr.lock is not None:
            # HardwareSemaphore.release inlined (holder check elided:
            # this thread provably holds the lock here)
            j = lock_ix[tr.lock]
            w(ind, f"if _lq{j}:")
            w(ind + 1, f"_nt, _gv = _lqp{j}()")
            w(ind + 1, f"_hold[_LK{j}] = _nt")
            w(ind + 1, "_gv.set(engine)")
            w(ind, "else:")
            w(ind + 1, f"_hold[_LK{j}] = None")
            emit_set_state(ind, "_RUN")

    def emit_level(li: int, ind: int) -> None:
        lvl = levels[li]
        if attr:
            w(ind, f"_ls{li} = now")
        w(ind, f"for _x{li} in range(n{li}):")
        b = ind + 1
        w(b, "yield 1")  # loop-control bubble between iterations
        w(b, "now += 1")
        for si, (_compiled, d, lf, lio, lr) in enumerate(lvl.leading):
            if d > 0:
                emit_deposit(b, "now", f"now + {d - 1}", f"now + {d}",
                             [("F", lf), ("I", lio)], [], f"_PL{li}_{si}")
            if attr:
                w(b, f"_ad(now, now + {d}, {lr}, ({d}, 0, 0, 0, 0, 0, 0, "
                     "0, 0))")
            w(b, f"yield {d}")
            w(b, f"now += {d}")
        if li == k - 1:
            emit_pipe(b)
        else:
            emit_level(li + 1, b)
        idx = "_e" if li == k - 1 else f"_q{li}"
        fin_idx = "_e" if li == k - 1 else "_e - 1"
        for u in lvl.trailing:
            emit_trail(u, trails[u], b, idx, fin_idx)
        if li == k - 1:
            w(b, "_e += 1")
        elif lvl.trailing:
            w(b, f"_q{li} += 1")
        if attr:
            # the level's per-trip control bubbles, as one deposit over
            # its span
            w(ind, f"_ad(_ls{li}, now, {lvl.region}, (0, 0, 0, 0, 0, 0, 0, "
                   f"0, n{li}))")

    if k:
        emit_level(0, 1)
    else:
        emit_pipe(1)
    w(1, "if stall_acc:")
    w(2, "rt.stalls[tid] += stall_acc")
    emit_ports_store(1)
    if any_mem:
        req_terms: list = []
        rb_terms: list = []
        wb_terms: list = []
        if mem:
            req_terms.append(f"{len(mem)} * {ptrips}")
            if prb:
                rb_terms.append(f"{prb} * {ptrips}")
            if pwb:
                wb_terms.append(f"{pwb} * {ptrips}")
        for u, tr in enumerate(trails):
            if not tr.mems:
                continue
            cnt = "_e" if tr.level == k - 1 else f"_q{tr.level}"
            req_terms.append(f"{len(tr.mems)} * {cnt}")
            trb = sum(m[2] for m in tr.mems if not m[3])
            twb = sum(m[2] for m in tr.mems if m[3])
            if trb:
                rb_terms.append(f"{trb} * {cnt}")
            if twb:
                wb_terms.append(f"{twb} * {cnt}")
        w(1, f"memory.requests += {' + '.join(req_terms)}")
        if rb_terms:
            w(1, f"memory.bytes_read += {' + '.join(rb_terms)}")
        if wb_terms:
            w(1, f"memory.bytes_written += {' + '.join(wb_terms)}")
        w(1, "memory.row_misses += rm")
        w(1, "memory.arbitration_wait_cycles += arb")
    if any_crit:
        if record_on:
            w(1, "if _tb:")
            w(2, "rec.total_bits += _tb")
        w(1, "_A = sem.acquisitions")
        for j in range(len(locks)):
            w(1, f"_A[_LK{j}] = _A.get(_LK{j}, 0) + _an{j}")
            w(1, f"if _cn{j}:")
            w(2, "_C = sem.contended")
            w(2, f"_C[_LK{j}] = _C.get(_LK{j}, 0) + _cn{j}")

    namespace = {
        "_deque": deque, "_Z3": (0, 0, 0), "_kernel": _chunk_kernel,
        # channel of each flat bank index (channel * banks + bank): one
        # list lookup per access instead of a per-trip channel list
        "_CH": [bi // dram.banks_per_channel
                for bi in range(dram.channels * dram.banks_per_channel)],
        "_P": nplan,
        "_FLOPS": EventKind.FLOPS, "_INTOPS": EventKind.INTOPS,
        "_MRB": EventKind.MEM_READ_BYTES,
        "_MWB": EventKind.MEM_WRITE_BYTES,
        "_STALLS": EventKind.STALLS,
    }
    if any_crit:
        namespace["_Event"] = Event
        namespace["_SPIN"] = ThreadState.SPINNING
        namespace["_CRIT"] = ThreadState.CRITICAL
        namespace["_RUN"] = ThreadState.RUNNING
        for j, lock in enumerate(locks):
            namespace[f"_LK{j}"] = lock
    for li, lvl in enumerate(levels):
        for si, (_c, _d, flops, intops, _r) in enumerate(lvl.leading):
            namespace[f"_PL{li}_{si}"] = ((EventKind.FLOPS, flops),
                                          (EventKind.INTOPS, intops))
    for u, tr in enumerate(trails):
        namespace[f"_tf{u}"] = tr.compiled.fn
        if not tr.mems:
            namespace[f"_PT{u}"] = ((EventKind.FLOPS, tr.segment.flops),
                                    (EventKind.INTOPS, tr.segment.intops))
        elif all(m[3] for m in tr.mems):
            twb = sum(m[2] for m in tr.mems)
            namespace[f"_PTM{u}"] = (
                (EventKind.FLOPS, tr.segment.flops),
                (EventKind.INTOPS, tr.segment.intops),
                (EventKind.MEM_READ_BYTES, 0),
                (EventKind.MEM_WRITE_BYTES, twb),
                (EventKind.STALLS, 0))
    if used_tags:
        names = {"F": "_FLOPS", "I": "_INTOPS", "R": "_MRB",
                 "W": "_MWB", "S": "_STALLS"}
        hoists = ["    _acc = rec._accum"]
        for t in "FIRWS":
            if t in used_tags:
                hoists.append(f"    _b{t} = _acc[{names[t]}]")
                hoists.append(f"    _b{t}g = _b{t}.get")
        lines[hoist_at:hoist_at] = hoists
    source = "\n".join(lines)
    code = compile(source, f"<ndrive:{nplan.uid}>", "exec")
    exec(code, namespace)
    return namespace["_ndrive"]


def _nest_driver_for(nplan: NestPlan, runtime):
    """The plan's timing driver, compiled on its first dispatch."""

    if nplan.driver is None:
        rec = runtime.recorder
        nplan.driver = _compile_nest_driver(
            nplan, runtime.ports.outstanding_limit,
            runtime.semaphore.grant_latency, rec.config.sampling_period,
            frozenset(rec._enabled_kinds),
            rec.config.record_states and rec.config.enabled,
            rec.config.state_record_bits(rec.num_threads),
            runtime.attribution)
    return nplan.driver


def _bank_rows(runtime, mem, idxs) -> tuple:
    """(flat DRAM bank index, row) lists per external access."""

    cfg = runtime.memory.config
    buffers = runtime.buffers
    row_span = cfg.row_bytes * cfg.banks_per_channel * cfg.channels
    lists: list = []
    for (_start, _off, _nbytes, _is_write, name), idx in zip(mem, idxs):
        buf = buffers[name]
        addr = buf.base_addr + idx * buf.elem_bytes
        channel = (addr // cfg.interleave_bytes) % cfg.channels
        bank = (addr // cfg.row_bytes) % cfg.banks_per_channel
        lists.append((channel * cfg.banks_per_channel + bank).tolist())
        lists.append((addr // row_span).tolist())
    return tuple(lists)


def _chunk_kernel(runtime, nplan: NestPlan, ctx, iv: int, step: int,
                  batch: int):
    """Run one depth-0 chunk's value kernel; its bank/row lists, or None.

    ``None`` (a :class:`VectorFallback`, raised before any side effect)
    asks the driver to run the chunk through the scalar interpreter.
    """

    vseg = nplan.vseg
    values = ctx.values
    ivs = iv + step * _iota(batch)
    try:
        outs, idxs = vseg.fn(ctx, ctx.vars, ctx.mem, ivs, batch,
                             *[values[vid] for vid in vseg.inputs])
    except VectorFallback:
        runtime.fp_fallbacks += 1
        return None
    for vid, value in zip(vseg.outputs, outs):
        values[vid] = value
    values[nplan.p_iv] = int(ivs[-1])
    runtime.fp_batches += 1
    runtime.fp_iters += batch
    return _bank_rows(runtime, nplan.mem, idxs)


def _dispatch_kernel(runtime, nplan: NestPlan, ctx, iv: int, step: int,
                     trips: int) -> None:
    """Run a memory-free depth-0 loop's value kernel for a whole dispatch.

    Blocks of at most :data:`KERNEL_BLOCK` trips chain through the
    carried vars, and chained scans equal one strict left fold, so the
    values match a per-chunk evaluation bit for bit.  Nothing else can
    observe them early: the loop reads and writes no memory, and
    dataflow siblings that share its vars or values depend on it.
    """

    vseg = nplan.vseg
    values = ctx.values
    args = [values[vid] for vid in vseg.inputs]
    for start in range(0, trips, KERNEL_BLOCK):
        n = min(KERNEL_BLOCK, trips - start)
        outs, _idxs = vseg.fn(ctx, ctx.vars, ctx.mem,
                              iv + step * (start + _iota(n)), n, *args)
    for vid, value in zip(vseg.outputs, outs):
        values[vid] = value
    values[nplan.p_iv] = iv + step * (trips - 1)
    runtime.fp_batches += -(-trips // nplan.chunk)
    runtime.fp_iters += trips


def prepare_loop(runtime, nplan: NestPlan, tid: int, ctx, state, group,
                 acct, lrt: tuple, lower: int, step: int, trips: int):
    """The timing driver of one depth-0 loop dispatch.

    A memory-free loop's values are all evaluated here, up front; a
    loop that touches memory runs its value kernels inside the driver,
    one per chunk at the chunk's start, and ``lrt``, the executor's
    per-loop invariants tuple, serves chunks that fall back to the
    scalar interpreter.
    """

    if not nplan.touches_memory:
        _dispatch_kernel(runtime, nplan, ctx, lower, step, trips)
    driver = _nest_driver_for(nplan, runtime)
    return driver(runtime, tid, ctx, state, group, acct, trips, lower,
                  step, lrt)


def prepare_nest(runtime, nplan: NestPlan, tid: int, ctx, state, group,
                 acct):
    """Functional pre-pass + mega-batch; returns the nest's timing driver.

    Walks the nest's sequential skeleton once, running leading segments
    in exact reference order to resolve loop bounds, collect per-entry
    accumulator seeds, entry-varying kernel inputs and trailing-segment
    snapshots; then evaluates all ``entries x trips`` pipelined
    iterations in one nest-mode vector call.  Returns ``None`` to fall
    back to per-entry execution (each inner loop then runs on its own
    depth-0 plan) — the pre-pass only re-executes
    leading segments, which the reference then repeats identically, so
    bailing at any point (empty loops, :class:`VectorFallback`) is
    side-effect free.
    """

    values = ctx.values
    vars_ = ctx.vars
    levels = nplan.levels
    k = len(levels)
    b0 = levels[0].bounds
    n0 = len(range(values[b0[0]], values[b0[1]], values[b0[2]]))
    if n0 <= 0:
        return None
    bounds_resolved: list = [None] * k
    bounds_resolved[0] = (values[b0[0]], values[b0[2]], n0)
    entry_vars = nplan.entry_vars
    seeds: list[list] = [[] for _ in entry_vars]
    einp: dict[int, list] = {vid: [] for vid, is_entry in nplan.input_plan
                             if is_entry}
    tins: list[list] = [[] for _ in nplan.trails]
    trails = nplan.trails
    pb: list = []
    mem_view = ctx.mem
    lead_fns = [[(compiled.fn, compiled.inputs, compiled.outputs)
                 for compiled, _d, _f, _io, _r in lvl.leading]
                for lvl in levels]

    def walk(li: int) -> bool:
        lo, st, n = bounds_resolved[li]
        lvl = levels[li]
        iv_id = lvl.iv_id
        iv = lo
        for _ in range(n):
            values[iv_id] = iv
            for fn, inputs, outputs in lead_fns[li]:
                outs = fn(ctx, vars_, mem_view,
                          *[values[vid] for vid in inputs])
                for vid, value in zip(outputs, outs):
                    values[vid] = value
            if li == k - 1:
                if not pb:
                    bp = nplan.pipe_bounds
                    plo, pup, pst = (values[bp[0]], values[bp[1]],
                                     values[bp[2]])
                    if pup <= plo:
                        return False
                    pb.append((plo, pst, len(range(plo, pup, pst))))
                for slot, vid in enumerate(entry_vars):
                    seeds[slot].append(vars_[vid])
                for vid, lst in einp.items():
                    lst.append(values[vid])
            else:
                nli = li + 1
                if bounds_resolved[nli] is None:
                    b = levels[nli].bounds
                    bn = len(range(values[b[0]], values[b[1]],
                                   values[b[2]]))
                    if bn <= 0:
                        return False
                    bounds_resolved[nli] = (values[b[0]], values[b[2]], bn)
                if not walk(nli):
                    return False
            # snapshot exactly at this unit's reference execution point
            for u in lvl.trailing:
                tr = trails[u]
                tins[u].append(
                    tuple([values[vid] for vid in tr.snap_ids]
                          + [vars_[vid] for vid in tr.snap_var_ids]))
            iv += st
        return True

    if not walk(0):
        return None
    plo, pst, trips = pb[0]
    entries = 1
    for _lo, _st, n in bounds_resolved:
        entries *= n
    total = entries * trips
    ivs = np.tile(plo + pst * _iota(trips), entries)
    vseg = nplan.vseg
    args = []
    for vid, is_entry in nplan.input_plan:
        if is_entry:
            args.append(np.repeat(np.asarray(einp[vid]), trips))
        else:
            args.append(values[vid])
    seed_arrs = [
        np.asarray(lst, dtype=np.float64 if is_float else np.int64)
        for lst, is_float in zip(seeds, nplan.entry_var_float)]
    try:
        outs, idxs, fin_arrs = vseg.fn(ctx, vars_, ctx.mem, ivs, total,
                                       entries, *args, *seed_arrs)
    except VectorFallback:
        runtime.nest_fallbacks += 1
        return None
    for vid, value in zip(vseg.outputs, outs):
        values[vid] = value
    values[nplan.p_iv] = int(ivs[-1])
    fins = [arr.tolist() for arr in fin_arrs]

    buffers = runtime.buffers
    tbufs: list = []
    for tr in trails:
        for _s, _sl, _nb, _iw, name in tr.mems:
            buf = buffers[name]
            tbufs.append(buf.base_addr)
            tbufs.append(buf.elem_bytes)

    driver = _nest_driver_for(nplan, runtime)
    gen = driver(runtime, tid, ctx, state, group, acct, trips,
                 tuple(n for _lo, _st, n in bounds_resolved), fins, tins,
                 _bank_rows(runtime, nplan.mem, idxs), tuple(tbufs))
    runtime.entries_batched += entries
    runtime.fp_iters += total
    runtime.fp_batches += entries * ((trips + nplan.chunk - 1)
                                     // nplan.chunk)
    return gen
