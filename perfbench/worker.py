"""One workload in one fresh process: set up, then measure rounds.

Started by ``run.py``; not meant to be run by hand.  Set-up imports
``repro``, cold-compiles every kernel the workload simulates into a
fresh compile-cache directory and runs one warm-up round at the tiny
size.  A set-up probe (``--role setup``) stops there.  Otherwise the
worker runs rounds (see ``workloads.py``) as a closed loop with one
caller until the next round would end after ``--seconds``.  Its last
stdout line is a JSON object for ``run.py``.

``--trace 0`` rounds give the end-to-end metrics.  ``--trace 1`` runs
alternate untraced and traced rounds: the traced ones give the
per-layer metrics, and their pass time minus the untraced rounds' is
the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import tempfile
import time

# set-up time starts before ``repro`` is imported (``run.py`` passes the
# moment it spawned this process, which also counts interpreter start)
_STARTED = time.monotonic()

from repro.hls.cache import CompileCache  # noqa: E402
from repro.sim.engine import Engine  # noqa: E402

import workloads  # noqa: E402
from spans import PER_LAYER, Tracer, round_metrics  # noqa: E402

#: no round may end later than this after the process started, which
#: keeps a run inside its 180 s limit
_HARD_LIMIT_S = 150.0
#: every end-to-end metric -> unit
END_TO_END = {"setup_s": "s", "compile_s": "s", "simulate_s": "s",
              "trace_s": "s", "peak_rss_mb": "MB"}


def set_up(wl: workloads.Workload, warm: workloads.Workload, workdir: str,
           seed: int) -> tuple[str, workloads.RoundResult]:
    """Fresh cache dir with every kernel compiled, then one warm-up round."""

    cache_dir = tempfile.mkdtemp(prefix="cache-", dir=workdir)
    cache = CompileCache(cache_dir)
    done = set()
    for job in wl.jobs + warm.jobs:
        if workloads.kernel_key(job) not in done:
            done.add(workloads.kernel_key(job))
            workloads.compile_kernel(job, cache)
    warm_up = workloads.run_round(warm, cache_dir, workdir, seed,
                                  Tracer(False))
    return cache_dir, warm_up


def int_yield_ping_rate(procs: int = 8, steps: int = 25_000,
                        repeat: int = 3) -> float:
    """Host calibration: best engine events/s on integer-yield processes."""

    best = 0.0
    for _ in range(repeat):
        engine = Engine()

        def ping(delay: int):
            for _ in range(steps):
                yield delay

        for p in range(procs):
            engine.spawn(ping(1 + p % 3), name=f"ping{p}")
        start = time.perf_counter()
        engine.run()
        wall = time.perf_counter() - start
        best = max(best, engine.stats()["events_fired"] / wall)
    return best


def measure(wl: workloads.Workload, cache_dir: str, workdir: str,
            seed: int, seconds: float, traced: bool, tracer: Tracer):
    """Run rounds until the next would end after ``seconds``.

    Returns ``[(traced?, RoundResult)]``.  A traced run alternates
    untraced and traced rounds and runs at least one of each; traced
    rounds run the compile stage once, so their spans cover exactly one
    pass.
    """

    rounds = []
    start = time.perf_counter()
    while True:
        tracer.enabled = traced and len(rounds) % 2 == 1
        tracer.round = len(rounds)
        began = time.perf_counter()
        result = workloads.run_round(wl, cache_dir, workdir, seed, tracer,
                                     interleave=not tracer.enabled)
        wall = time.perf_counter() - began
        rounds.append((tracer.enabled, result))
        if time.monotonic() - _STARTED + wall > _HARD_LIMIT_S:
            break
        if len(rounds) >= (2 if traced else 1) \
                and time.perf_counter() - start + wall > seconds:
            break
    tracer.enabled = False
    return rounds


def end_to_end(rounds) -> dict[str, float]:
    results = [result for _, result in rounds]
    metrics = {stage: workloads.stage_seconds(results, stage)
               for stage in workloads.STAGES}
    metrics["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return metrics


def per_layer(rounds, tracer: Tracer) -> dict[str, float]:
    def pass_seconds(results):
        return sum(workloads.stage_seconds(results, stage)
                   for stage in workloads.STAGES)

    plain = pass_seconds([r for traced, r in rounds if not traced])
    overhead = pass_seconds([r for traced, r in rounds if traced]) - plain
    per_round = []
    for index, (traced, result) in enumerate(rounds):
        if traced:
            spans = [s for s in tracer.spans if s.round == index]
            per_round.append(round_metrics(
                spans, tracer.counters.get(index, {}), result.cycles))
    metrics = {name: statistics.median(m[name] for m in per_round)
               for name in per_round[0]}
    metrics["tracing.overhead_s"] = overhead
    metrics["tracing.overhead_pct"] = 100.0 * overhead / plain
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=workloads.SIZES, default="full")
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--role", choices=("setup", "measure"),
                        default="measure")
    parser.add_argument("--trace-out", default=None)
    parser.add_argument("--spawned-at", type=float, default=_STARTED,
                        help="time.monotonic() when the parent started "
                             "this process")
    args = parser.parse_args(argv)

    wl = workloads.workload(args.workload, args.size)
    warm = workloads.workload(args.workload, "tiny")
    cache_dir, warm_up = set_up(wl, warm, args.workdir, args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.role == "setup":
        print(json.dumps({"setup_s": setup_s}), flush=True)
        return 0

    tracer = Tracer(False)
    rounds = measure(wl, cache_dir, args.workdir, args.seed, args.seconds,
                     bool(args.trace), tracer)
    attempted = warm_up.attempted + sum(r.attempted for _, r in rounds)
    failed = warm_up.failed + sum(r.failed for _, r in rounds)
    for error in warm_up.errors + [e for _, r in rounds for e in r.errors]:
        print(f"perfbench: FAILED {error}", file=sys.stderr)
    if args.trace:
        values = per_layer(rounds, tracer)
        units = {name: unit for name, (unit, _) in PER_LAYER.items()}
    else:
        values = {"setup_s": setup_s, **end_to_end(rounds)}
        units = END_TO_END
    metrics = {name: {"value": value, "unit": units[name]}
               for name, value in values.items()}
    host = {"int_yield_ping_events_per_s": int_yield_ping_rate(),
            "cpus": os.cpu_count(), "python": sys.version.split()[0],
            "rounds": len(rounds)}
    if args.trace_out:
        tracer.dump(args.trace_out, {"workload": args.workload,
                                     "seed": args.seed, "host": host,
                                     "metrics": metrics})
    print(json.dumps({"attempted": attempted, "failed": failed,
                      "metrics": metrics, "host": host}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
