"""Differential tests for the vectorized pipelined-loop fast path.

The fast path (:mod:`repro.sim.fastpath`) is a pure performance
optimization: ``exec_mode="fast"`` must produce
**bit-identical** simulated state to the scalar reference interpreter
(``exec_mode="reference"``) — cycles, stalls, DRAM counters, every
profiling event series, and every output buffer.  These tests pin that
contract over the bundled applications plus a synthetic kernel that is
deliberately not vectorizable (exercising the scalar fallback), and
assert the ``sim.fastpath.*`` telemetry counters.
"""

import numpy as np
import pytest

from repro import telemetry
from repro.apps import PI_SOURCE, pi_defines, run_gemm, run_pi
from repro.apps.gemm import EXTRA_VERSIONS, GEMM_VERSIONS
from repro.core.program import Program
from repro.hls.schedule import CriticalNode, LoopNode
from repro.paraver import write_trace
from repro.sim import fastpath
from repro.sim.config import SimConfig

from .conftest import make_vector_add_source, sim_config


@pytest.fixture(autouse=True)
def _telemetry_disabled_after():
    """Leave the process-wide telemetry registry disabled after each test."""

    yield
    telemetry.configure(enabled=False)


def _config(mode: str) -> SimConfig:
    return sim_config(mode, thread_start_interval=50)


def _signature(result):
    """Everything the fast path must reproduce bit-for-bit."""

    return {
        "cycles": result.cycles,
        "stalls": result.stalls,
        "dram_bytes_read": result.dram_bytes_read,
        "dram_bytes_written": result.dram_bytes_written,
        "dram_requests": result.dram_requests,
        "dram_row_misses": result.dram_row_misses,
        "events": {kind.name: series.tolist()
                   for kind, series in result.trace.events.items()},
    }


def _assert_identical(ref, fast):
    assert _signature(ref) == _signature(fast)
    assert set(ref.buffers) == set(fast.buffers)
    for name in ref.buffers:
        assert np.array_equal(ref.buffers[name], fast.buffers[name]), name


# ----------------------------------------------------------------------
# differential: bundled applications, reference vs vectorized
# ----------------------------------------------------------------------
class TestGemmDifferential:
    @pytest.mark.parametrize("version",
                             sorted(GEMM_VERSIONS) + sorted(EXTRA_VERSIONS))
    def test_bit_identical_small(self, version):
        ref = run_gemm(version, dim=16, num_threads=4,
                       sim_config=_config("reference")).result
        fast = run_gemm(version, dim=16, num_threads=4,
                        sim_config=_config("fast")).result
        _assert_identical(ref, fast)

    @pytest.mark.parametrize("mode", ["auto", "vectorized"])
    def test_bit_identical_naive_dim32(self, mode):
        ref = run_gemm("naive", dim=32, num_threads=4,
                       sim_config=_config("reference")).result
        fast = run_gemm("naive", dim=32, num_threads=4,
                        sim_config=_config(mode)).result
        _assert_identical(ref, fast)


class TestPiDifferential:
    def test_bit_identical(self):
        ref = run_pi(8192, num_threads=4,
                     sim_config=_config("reference")).result
        fast = run_pi(8192, num_threads=4,
                      sim_config=_config("fast")).result
        _assert_identical(ref, fast)


# ----------------------------------------------------------------------
# telemetry counters
# ----------------------------------------------------------------------
class TestFastpathTelemetry:
    def test_stock_gemm_uses_fast_path_without_fallbacks(self):
        session = telemetry.configure(enabled=True)
        run_gemm("naive", dim=16, num_threads=4, sim_config=_config("fast"))
        counters = session.counters
        # telemetry.add drops zero amounts, so absent means zero
        assert counters.get("sim.fastpath.batches", 0) > 0
        assert counters.get("sim.fastpath.iters_vectorized", 0) > 0
        assert counters.get("sim.fastpath.fallbacks", 0) == 0

    def test_reference_mode_never_enters_fast_path(self):
        session = telemetry.configure(enabled=True)
        run_gemm("naive", dim=16, num_threads=4,
                 sim_config=_config("reference"))
        counters = session.counters
        assert counters.get("sim.fastpath.batches", 0) == 0
        assert counters.get("sim.fastpath.iters_vectorized", 0) == 0
        assert counters.get("sim.fastpath.fallbacks", 0) == 0


# ----------------------------------------------------------------------
# synthetic non-vectorizable kernel: the fallback must be taken, and
# the result must still be bit-identical to the reference
# ----------------------------------------------------------------------
# `out[t]` is a loop-invariant single cell read and written every trip —
# a single-cell read-modify-write recurrence the vectorizer refuses.
ACCUM_SRC = """
void accum(float* a, float* out, int n) {
  #pragma omp target parallel map(to:a[0:n]) map(tofrom:out[0:2]) \\
      num_threads(2)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = t; i < n; i += nt) {
      out[t] = out[t] + a[i];
    }
  }
}
"""


def _run_accum(mode: str):
    prog = Program(ACCUM_SRC, sim_config=SimConfig(exec_mode=mode))
    a = np.arange(64, dtype=np.float32)
    out = np.zeros(2, dtype=np.float32)
    result = prog.run(a=a, out=out, n=64)
    return result.sim, out


class TestForcedFallback:
    def test_bit_identical_via_scalar_fallback(self):
        ref, out_ref = _run_accum("reference")
        fast, out_fast = _run_accum("fast")
        _assert_identical(ref, fast)
        assert np.array_equal(out_ref, out_fast)
        # the kernel really accumulated: thread t sums a[t::2]
        expected = np.array([np.arange(64, dtype=np.float32)[t::2].sum()
                             for t in range(2)])
        assert np.array_equal(out_fast, expected)

    def test_fallback_counter_fires(self):
        session = telemetry.configure(enabled=True)
        _run_accum("fast")
        counters = session.counters
        assert counters.get("sim.fastpath.fallbacks", 0) > 0
        assert counters.get("sim.fastpath.batches", 0) == 0


# ----------------------------------------------------------------------
# configuration validation
# ----------------------------------------------------------------------
def test_unknown_exec_mode_rejected():
    with pytest.raises(ValueError, match="exec_mode"):
        run_gemm("naive", dim=16, num_threads=4,
                 sim_config=SimConfig(exec_mode="turbo"))


# ----------------------------------------------------------------------
# one loop, both kinds of chunk: a scatter whose targets collide in
# only some chunks hands those chunks to the scalar interpreter and the
# rest to the timing driver, with the in-flight window, port windows
# and cycle-accounting parts carried across every hand-off
# ----------------------------------------------------------------------
SCATTER_SRC = """
void scat(float* a, int* idx, float* out, int n) {
  #pragma omp target parallel map(to:a[0:n], idx[0:n]) \\
      map(tofrom:out[0:n]) num_threads(2)
  {
    int t = omp_get_thread_num();
    int nt = omp_get_num_threads();
    for (int i = t; i < n; i += nt) {
      out[idx[i]] = out[idx[i]] + a[i];
    }
  }
}
"""


def _run_scatter(mode: str, attribution: bool):
    n = 200
    idx = np.arange(n, dtype=np.int32)
    # collisions inside each thread's second chunk (after a fast one)
    # and inside thread 0's third (followed by a fast one)
    idx[100:104] = 7
    idx[150] = 152
    a = np.arange(n, dtype=np.float32)
    out = np.zeros(n, dtype=np.float32)
    cfg = SimConfig(exec_mode=mode, attribution=attribution)
    result = Program(SCATTER_SRC, sim_config=cfg).run(a=a, idx=idx, out=out,
                                                       n=n)
    return result.sim, out


class TestMixedChunks:
    @pytest.mark.parametrize("attribution", [False, True])
    def test_bit_identical(self, attribution):
        ref, out_ref = _run_scatter("reference", attribution)
        fast, out_fast = _run_scatter("fast", attribution)
        _assert_identical(ref, fast)
        assert np.array_equal(out_ref, out_fast)
        assert fast.attribution == ref.attribution

    def test_both_chunk_kinds_run(self):
        session = telemetry.configure(enabled=True)
        _run_scatter("fast", False)
        counters = session.counters
        assert counters.get("sim.fastpath.batches", 0) > 0
        assert counters.get("sim.fastpath.fallbacks", 0) > 0


# ----------------------------------------------------------------------
# unrolled lane-wise vector accumulators: π's ``sum[j] += ...`` under
# ``#pragma unroll`` re-writes the vector after every lane (an INSERT
# chain with dead intermediate writes), and the loop touches no memory,
# so its value kernel runs once per dispatch
# ----------------------------------------------------------------------
#: 4 threads x 592 steps: 296/148/74/37 trips per thread at bs 2/4/8/16,
#: so every thread ends on a ragged chunk (loop_chunk is 32)
PI_RAGGED_STEPS = 2368


def _run_pi_traced(mode: str, bs: int, attribution: bool, tmp_path):
    cfg = SimConfig(exec_mode=mode, attribution=attribution,
                    thread_start_interval=50)
    run = run_pi(PI_RAGGED_STEPS, num_threads=4, bs_compute=bs,
                 sim_config=cfg)
    files = write_trace(run.result.trace, str(tmp_path / mode))
    with open(files.prv, "rb") as handle:
        return run, handle.read()


def _assert_pi_identical(bs: int, attribution: bool, tmp_path):
    ref, ref_prv = _run_pi_traced("reference", bs, attribution, tmp_path)
    fast, fast_prv = _run_pi_traced("fast", bs, attribution, tmp_path)
    _assert_identical(ref.result, fast.result)
    assert repr(fast.value) == repr(ref.value)
    assert fast_prv == ref_prv
    assert fast.result.attribution == ref.result.attribution


def _pi_program(bs: int, threads: int = 8) -> Program:
    return Program(PI_SOURCE, defines=pi_defines(bs),
                   const_env={"threads": threads},
                   sim_config=SimConfig(thread_start_interval=12000))


class TestVectorAccumulator:
    @pytest.mark.parametrize("attribution", [False, True])
    @pytest.mark.parametrize("bs", [2, 4, 8, 16])
    def test_pi_matches_reference(self, bs, attribution, tmp_path):
        _assert_pi_identical(bs, attribution, tmp_path)

    @pytest.mark.parametrize("bs", [4, 8])
    def test_stock_pi_counters(self, bs):
        steps = 32_000
        session = telemetry.configure(enabled=True)
        _pi_program(bs).run(steps=steps, threads=8)
        counters = session.counters
        assert counters.get("sim.fastpath.iters_vectorized", 0) == \
            steps // bs
        # only each thread's critical-section reduction runs scalar
        assert counters.get("sim.fastpath.fallbacks", 0) == 8
        # a value kernel run once per dispatch still counts its chunks
        per_thread = steps // (8 * bs)
        assert counters.get("sim.fastpath.batches", 0) == \
            8 * -(-per_thread // 32)

    def test_only_the_critical_reduction_is_rejected(self):
        program = _pi_program(8)
        program.run(steps=32_000, threads=8)
        crit = [item for item in program.accelerator.schedule.body.items
                if isinstance(item, CriticalNode)]
        assert len(crit) == 1
        loops = [item for item in crit[0].body.items
                 if isinstance(item, LoopNode)]
        assert program.simulation.plan_rejections == {
            loops[0].uid: "data-dependent lane index"}


#: a lone pipelined loop updating two lanes of a vector accumulator;
#: BODY is replaced by each case's update statements
LANES_SRC = """
void lanes(float* out, int n) {
  #pragma omp target parallel map(tofrom:out[0:8]) num_threads(2)
  {
    int t = omp_get_thread_num();
    float4 sum = {0.0f};
    float4 keep = {0.0f};
    for (int i = 0; i < n; i++) {
      float x = (float) i + 0.5f;
      BODY
    }
    out[t * 4] = sum[0] + keep[0];
    out[t * 4 + 1] = sum[1] + keep[1];
    out[t * 4 + 2] = sum[2] + keep[2];
    out[t * 4 + 3] = sum[3] + keep[3];
  }
}
"""


def _run_lanes(body: str, mode: str):
    program = Program(LANES_SRC.replace("BODY", body),
                      sim_config=SimConfig(exec_mode=mode))
    out = np.zeros(8, dtype=np.float32)
    result = program.run(out=out, n=37)
    return program, result.sim, out


class TestVectorAccumulatorShapes:
    def test_two_lane_chain_vectorizes(self):
        body = "sum[0] += x; sum[1] += 2.0f * x;"
        _p, ref, out_ref = _run_lanes(body, "reference")
        session = telemetry.configure(enabled=True)
        program, fast, out_fast = _run_lanes(body, "fast")
        _assert_identical(ref, fast)
        assert np.array_equal(out_ref, out_fast)
        assert program.simulation.plan_rejections == {}
        assert session.counters.get("sim.fastpath.fallbacks", 0) == 0

    @pytest.mark.parametrize("body, reason", [
        # the second update of lane 0 reads the first update's value,
        # not the accumulator: a lane updated twice per trip
        ("sum[0] += x; sum[0] += 2.0f * x;", "ambiguous lane recurrence"),
        ("sum[0] += x; sum[1] += sum[0];", "delta depends on accumulator"),
        # `keep` copies an insert-chain value mid-trip
        ("sum[0] += x; keep = sum; sum[1] += x;", "carried chain escapes"),
    ], ids=["lane_twice", "delta_reads_acc", "chain_value_used"])
    def test_unsupported_shape_runs_scalar(self, body, reason):
        _p, ref, out_ref = _run_lanes(body, "reference")
        session = telemetry.configure(enabled=True)
        program, fast, out_fast = _run_lanes(body, "fast")
        _assert_identical(ref, fast)
        assert np.array_equal(out_ref, out_fast)
        assert list(program.simulation.plan_rejections.values()) == [reason]
        counters = session.counters
        assert counters.get("sim.fastpath.batches", 0) == 0
        assert counters.get("sim.fastpath.fallbacks", 0) > 0


class TestKernelGranularity:
    def _count_calls(self, monkeypatch, name: str) -> list:
        calls: list = []
        real = getattr(fastpath, name)

        def counted(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fastpath, name, counted)
        return calls

    @pytest.mark.parametrize("attribution", [False, True])
    def test_memory_free_loop_in_small_blocks(self, monkeypatch,
                                              attribution, tmp_path):
        # 74 trips per thread in blocks of 5: ragged chunks and blocks
        monkeypatch.setattr(fastpath, "KERNEL_BLOCK", 5)
        _assert_pi_identical(8, attribution, tmp_path)

    def test_memory_free_loop_runs_kernel_once_per_dispatch(
            self, monkeypatch):
        once = self._count_calls(monkeypatch, "_dispatch_kernel")
        chunked = self._count_calls(monkeypatch, "_chunk_kernel")
        _pi_program(8, threads=4).run(steps=PI_RAGGED_STEPS, threads=4)
        assert len(once) == 4
        assert chunked == []

    def test_loop_touching_memory_runs_kernel_per_chunk(self, monkeypatch):
        once = self._count_calls(monkeypatch, "_dispatch_kernel")
        chunked = self._count_calls(monkeypatch, "_chunk_kernel")
        n = 200  # 50 trips per thread: a full chunk and a ragged one
        program = Program(make_vector_add_source())
        a = np.arange(n, dtype=np.float32)
        c = np.zeros(n, dtype=np.float32)
        program.run(a=a, b=a, c=c, N=n)
        assert np.array_equal(c, 2 * a)
        assert once == []
        assert len(chunked) == 4 * 2
