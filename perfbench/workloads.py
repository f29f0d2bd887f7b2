"""Workloads of the benchmark: jobs, pinned outputs and output checks.

A workload is one *round* repeated until the measuring time is up.
Every round has the same three stages, so every workload reports every
end-to-end metric:

* **compile** — cold-compile (no cache) and analytically score a design
  space, as the model stage of ``repro explore`` does;
* **simulate** — per job: warm-cache compile -> simulate -> output check,
  as ``repro sweep --jobs 1`` does;
* **trace** — per job: write ``.prv/.pcf/.row`` -> reconstruct -> report
  (+ the ``repro why`` step), as ``repro trace`` + ``repro analyze`` do.

Each scored candidate and each job (simulate + trace) is one operation.
A check that fails, or a call that raises, marks that operation failed
and the round goes on.  See README.md for why each workload was chosen.
"""

from __future__ import annotations

import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.apps import (
    GemmRun, PI_SOURCE, compile_gemm, compile_pi, gemm_defines, gemm_source,
    pi_defines,
)
from repro.core.program import Program
from repro.explore import (
    GEMM_KNOBS, Budget, gemm_space, pi_space, predict, prune_candidates,
)
from repro.paraver import reconstruct_run, write_trace
from repro.report import build_report, render_report_text
from repro.report.model import AttributionSummary
from repro.report.text import render_why_text
from repro.sim.config import SimConfig

from spans import TracedCache, Tracer

#: the paper's §V-C journey, in order
JOURNEY = ("naive", "no_critical", "vectorized", "blocked", "double_buffered")
#: thread-start stagger ``run_gemm`` applies by default
GEMM_START_INTERVAL = 50
#: thread-start stagger of the scaled π case study (``pi_sweep``)
PI_START_INTERVAL = 12_000
#: |π - value| bound; float32 accumulation leaves about 1e-6 at 32k steps
PI_ERROR_BOUND = 1e-5
SIZES = ("full", "tiny")


@dataclass(frozen=True)
class SimJob:
    """One simulated job with its pinned cycle count."""

    id: str
    app: str                  # "gemm" | "pi"
    cycles: int               # pinned; independent of the input seed
    version: str = ""
    dim: int = 0
    steps: int = 0
    threads: int = 8
    vector_len: int = 4
    block_size: int = 8
    bs_compute: int = 8


@dataclass(frozen=True)
class Workload:
    name: str
    attribution: bool
    #: the design spaces the compile stage scores
    spaces: tuple
    #: pinned (Σ predicted cycles, Σ ALMs) over all scored candidates
    score_checksum: tuple[int, int]
    jobs: tuple[SimJob, ...]
    #: ``Budget.max_evals`` per space; the survivors must be ``jobs``
    max_evals: Optional[int] = None


def _gemm(version: str, dim: int, cycles: int, threads: int = 8,
          vector_len: int = 4, block_size: int = 8) -> SimJob:
    # the label ``gemm_space`` gives the same configuration
    label = f"gemm-{version}-d{dim}-t{threads}"
    if "vector_len" in GEMM_KNOBS[version]:
        label += f"-vl{vector_len}"
    if "block_size" in GEMM_KNOBS[version]:
        label += f"-bs{block_size}"
    return SimJob(label, "gemm", cycles, version=version, dim=dim,
                  threads=threads, vector_len=vector_len,
                  block_size=block_size)


def _pi(steps: int, cycles: int, bs_compute: int = 8) -> SimJob:
    # the label ``pi_space`` gives the same configuration
    return SimJob(f"pi-{steps}-t8-bs{bs_compute}", "pi", cycles, steps=steps,
                  bs_compute=bs_compute)


def _journey_space(dim: int):
    return (gemm_space(dims=(dim,), threads=(8,), versions=JOURNEY,
                       vector_lens=(4,), block_sizes=(8,)),)


# pinned cycles: every stock kernel at 8 threads, vector_len 4, block 8
_JOURNEY_CYCLES = {
    "full": (64, {"naive": 3041069, "no_critical": 2616249,
                  "vectorized": 1284128, "blocked": 313596,
                  "double_buffered": 272051}),
    "tiny": (16, {"naive": 15251, "no_critical": 32987,
                  "vectorized": 11440, "blocked": 6089,
                  "double_buffered": 5147}),
}
_JOURNEY_CHECKSUM = {"full": (7864160, 121820), "tiny": (157904, 121820)}

_PI_STEPS = {
    "full": ((32_000, 85872), (128_000, 90372), (320_000, 99372)),
    "tiny": ((2_048, 84468), (4_096, 84564)),
}
_PI_CHECKSUM = {"full": (275556, 78468), "tiny": (168992, 52312)}

_EXPLORE = {
    "full": dict(dims=(32, 64), threads=(4, 8), steps=(32_000, 128_000,
                                                        320_000)),
    "tiny": dict(dims=(16,), threads=(8,), steps=(2_048,)),
}
_EXPLORE_CHECKSUM = {"full": (31721388, 1652384), "tiny": (502880, 476612)}
#: the predicted-fastest two candidates of each space (``--max-evals 2``)
_EXPLORE_SURVIVORS = {
    "full": (_gemm("double_buffered", 32, 42528, threads=4, vector_len=2,
                   block_size=4),
             _gemm("preloaded", 32, 38137, threads=4, block_size=8),
             _pi(32_000, 87330, bs_compute=4), _pi(32_000, 85872)),
    "tiny": (_gemm("double_buffered", 16, 6127, block_size=4),
             _gemm("preloaded", 16, 5467),
             _pi(2_048, 84522, bs_compute=4), _pi(2_048, 84468)),
}


def workload(name: str, size: str = "full") -> Workload:
    """The named workload at ``size`` (``tiny`` is for the tests)."""

    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}; choose from {SIZES}")
    if name in ("gemm-journey", "gemm-journey-attr"):
        dim, cycles = _JOURNEY_CYCLES[size]
        return Workload(name, name.endswith("-attr"), _journey_space(dim),
                        _JOURNEY_CHECKSUM[size],
                        tuple(_gemm(v, dim, cycles[v]) for v in JOURNEY))
    if name == "pi-scaling":
        steps = tuple(s for s, _ in _PI_STEPS[size])
        return Workload(name, False,
                        (pi_space(steps=steps, bs_compute=(8,),
                                  start_interval=PI_START_INTERVAL),),
                        _PI_CHECKSUM[size],
                        tuple(_pi(s, c) for s, c in _PI_STEPS[size]))
    if name == "explore-compile":
        grid = _EXPLORE[size]
        return Workload(
            name, False,
            (gemm_space(dims=grid["dims"], threads=grid["threads"]),
             pi_space(steps=grid["steps"])),
            _EXPLORE_CHECKSUM[size], _EXPLORE_SURVIVORS[size], max_evals=2)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


NAMES = ("gemm-journey", "gemm-journey-attr", "pi-scaling", "explore-compile")


# ----------------------------------------------------------------------
# running a round
# ----------------------------------------------------------------------
STAGES = ("compile_s", "simulate_s", "trace_s")


@dataclass
class RoundResult:
    """Outcome of one round, with every item's timed repetitions."""

    #: stage -> item (candidate or job id) -> host seconds per repetition
    samples: dict[str, dict[str, list[float]]] = field(
        default_factory=lambda: {stage: {} for stage in STAGES})
    attempted: int = 0
    failed: int = 0
    #: simulated cycles of the last pass over the jobs
    cycles: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, stage: str, item: str, seconds: float) -> None:
        self.samples[stage].setdefault(item, []).append(seconds)

    def fail(self, op: str, reason: str) -> None:
        self.failed += 1
        self.errors.append(f"{op}: {reason}")


def stage_seconds(rounds: list[RoundResult], stage: str) -> float:
    """One pass of ``stage``: the sum of each item's median repetition."""

    samples: dict[str, list[float]] = {}
    for result in rounds:
        for item, times in result.samples[stage].items():
            samples.setdefault(item, []).extend(times)
    return sum(statistics.median(times) for times in samples.values())


def kernel_key(config) -> tuple:
    """What determines the kernel of a ``SimJob`` or ``JobSpec``."""

    if config.app == "gemm":
        return ("gemm", config.version, config.threads, config.vector_len,
                config.block_size)
    return ("pi", config.threads, config.bs_compute)


def compile_kernel(config, cache):
    """Compile the kernel of a ``SimJob`` or ``JobSpec`` through
    ``apps.runners``; ``cache=False`` compiles cold."""

    if config.app == "gemm":
        return compile_gemm(config.version, num_threads=config.threads,
                            vector_len=config.vector_len,
                            block_size=config.block_size, compile_cache=cache)
    return compile_pi(num_threads=config.threads,
                      bs_compute=config.bs_compute, compile_cache=cache)


def compile_stage(wl: Workload, tracer: Tracer, out: RoundResult) -> None:
    """Cold-compile and score every candidate; check the pinned scores."""

    total = sum(len(space.candidates) for space in wl.spaces)
    bad = 0
    cycles = alms = 0
    survivors: set[str] = set()
    for space in wl.spaces:
        compiled: dict[tuple, object] = {}
        scored = []
        for candidate in space.candidates:
            spec = candidate.spec
            key = kernel_key(spec)
            start = time.perf_counter()
            with tracer.job(candidate.id):
                try:
                    if key not in compiled:
                        with tracer.span("compile", "apps"):
                            compiled[key] = compile_kernel(spec, False)
                    # predict() runs extract_facts() on the accelerator
                    with tracer.span("score", "explore"):
                        prediction = predict(candidate, compiled[key])
                except Exception as exc:  # noqa: BLE001 - counted
                    traceback.print_exc()
                    bad += 1
                    out.errors.append(f"{candidate.id}: "
                                      f"{type(exc).__name__}: {exc}")
                    continue
            out.record("compile_s", candidate.id, time.perf_counter() - start)
            scored.append((candidate, prediction))
            cycles += prediction.cycles
            alms += prediction.alms
        if wl.max_evals is not None:
            pruned = prune_candidates(scored, Budget(max_evals=wl.max_evals))
            survivors |= {c.id for c, _ in scored if c.id not in pruned}
    # the scores are checked as a whole: a mismatch fails every candidate
    if not bad and (cycles, alms) != wl.score_checksum:
        bad = total
        out.errors.append(f"scores: (sum cycles, sum ALMs) = "
                          f"{(cycles, alms)}, pinned {wl.score_checksum}")
    expected = {job.id for job in wl.jobs}
    if not bad and wl.max_evals is not None and survivors != expected:
        bad = total
        out.errors.append(f"survivors {sorted(survivors)} != pinned "
                          f"{sorted(expected)}")
    out.attempted += total
    out.failed += bad


def gemm_inputs(dim: int, seed: int):
    rng = np.random.default_rng(seed)
    A = rng.random(dim * dim, dtype=np.float32)
    B = rng.random(dim * dim, dtype=np.float32)
    return A, B


def simulate_job(job: SimJob, wl: Workload, cache: TracedCache, seed: int,
                 tracer: Tracer):
    """Warm-cache compile -> simulate -> check.  Returns (result, errors)."""

    errors: list[str] = []
    if job.app == "gemm":
        A, B = gemm_inputs(job.dim, seed)
        C = np.zeros(job.dim * job.dim, dtype=np.float32)
        config = SimConfig(thread_start_interval=GEMM_START_INTERVAL,
                           attribution=wl.attribution)
        with tracer.span("compile", "apps"):
            program = Program(
                gemm_source(job.version),
                defines=gemm_defines(job.version, num_threads=job.threads,
                                     vector_len=job.vector_len,
                                     block_size=job.block_size),
                sim_config=config, compile_cache=cache)
        with tracer.span("simulate", "apps"):
            outcome = program.run(A=A, B=B, C=C, DIM=job.dim)
        with tracer.span("check", "apps"):
            run = GemmRun(job.version, job.dim, outcome.sim, C,
                          (A.reshape(job.dim, job.dim)
                           @ B.reshape(job.dim, job.dim)).ravel(),
                          program.accelerator, A=A, B=B,
                          num_threads=job.threads)
            if not run.correct:
                errors.append("C does not match the reference")
    else:
        config = SimConfig(thread_start_interval=PI_START_INTERVAL,
                           attribution=wl.attribution)
        with tracer.span("compile", "apps"):
            program = Program(PI_SOURCE, defines=pi_defines(job.bs_compute),
                              const_env={"threads": job.threads},
                              sim_config=config, compile_cache=cache)
        with tracer.span("simulate", "apps"):
            outcome = program.run(steps=job.steps, threads=job.threads)
        with tracer.span("check", "apps"):
            error = abs(float(outcome.value) - float(np.pi))
            if not error < PI_ERROR_BOUND:
                errors.append(f"|pi - {outcome.value}| = {error:.3g} "
                              f">= {PI_ERROR_BOUND:g}")
    result = outcome.sim
    if program.cache_status != "hit":
        errors.append(f"warm compile was a cache {program.cache_status}")
    if result.cycles != job.cycles:
        errors.append(f"cycles {result.cycles} != pinned {job.cycles}")
    return result, errors


def trace_job(job: SimJob, result, workdir: str, tracer: Tracer) -> list[str]:
    """Write -> reconstruct -> report -> why.  Returns check errors."""

    errors: list[str] = []
    base = os.path.join(workdir, job.id)
    with tracer.span("write", "paraver"):
        files = write_trace(result.trace, base, clock_mhz=result.clock_mhz)
    with tracer.span("reconstruct", "paraver"):
        run = reconstruct_run(files.prv)
    with tracer.span("report", "report"):
        report = build_report(run.result, label=job.id, source=files.prv,
                              thread_names=run.thread_names)
        render_report_text(report)
    # the ``repro why`` step: explain the cycles when the trace carries
    # cycle accounting (it finds no table on the other workloads)
    with tracer.span("why", "report"):
        table = run.result.attribution
        if table is not None:
            summary = AttributionSummary.from_table(table, run.result.cycles)
            render_why_text(summary, run.result.cycles, label=job.id)
    for path in (files.prv, files.pcf, files.row):
        os.unlink(path)
    if run.result.cycles != result.cycles:
        errors.append(f"reconstructed cycles {run.result.cycles} != live "
                      f"{result.cycles}")
    if result.attribution is not None:
        if table is None:
            errors.append("reconstructed trace lost the attribution table")
        else:
            violations = table.check(run.result.cycles)
            if violations:
                errors.append(f"attribution invariant violated: "
                              f"{violations}")
            if table != result.attribution:
                errors.append("reconstructed attribution table differs "
                              "from the live one")
    return errors


def run_job(job: SimJob, wl: Workload, cache: TracedCache, workdir: str,
            seed: int, tracer: Tracer, out: RoundResult) -> None:
    """Simulate one job, trace its result, then drop it."""

    out.attempted += 1
    with tracer.job(job.id):
        try:
            start = time.perf_counter()
            result, errors = simulate_job(job, wl, cache, seed, tracer)
            out.record("simulate_s", job.id, time.perf_counter() - start)
            out.cycles += result.cycles
            start = time.perf_counter()
            errors += trace_job(job, result, workdir, tracer)
            out.record("trace_s", job.id, time.perf_counter() - start)
        except Exception as exc:  # noqa: BLE001 - counted
            traceback.print_exc()
            errors = [f"{type(exc).__name__}: {exc}"]
    if errors:
        out.fail(job.id, "; ".join(errors))


def run_round(wl: Workload, cache_dir: str, workdir: str, seed: int,
              tracer: Tracer, interleave: bool = False) -> RoundResult:
    """One pass over the jobs, with the compile stage before the first.

    ``interleave`` runs the compile stage before every job instead.  Its
    samples are short, and spreading them over the run keeps one slow
    moment of the host from deciding the median.  Only one job's result
    is alive at a time, as in one ``repro trace``.
    """

    out = RoundResult()
    # one cache object per pass, as one ``repro sweep`` invocation
    cache = TracedCache(cache_dir, tracer)
    for index, job in enumerate(wl.jobs):
        if interleave or index == 0:
            compile_stage(wl, tracer, out)
        run_job(job, wl, cache, workdir, seed, tracer, out)
    return out
