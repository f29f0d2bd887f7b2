"""The repository benchmark: one workload, one fresh worker process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload gemm-journey --seed 1 \\
        --seconds 20 --trace 0

Workloads: ``gemm-journey``, ``gemm-journey-attr``, ``pi-scaling``,
``explore-compile`` (see perfbench/README.md).  The worker is started
serially and waited for; nothing runs in parallel.  ``--trace 0`` also
starts set-up probes, so ``setup_s`` is the median of several fresh
processes.  The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it gives host
metadata, among it the engine calibration rate for normalizing numbers
across machines.  ``--trace 1`` reports the per-layer metrics and
writes every span to ``.perfbench-out/``.

Exits non-zero, printing no result, when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: set-up probes started before the measuring worker (plus its own)
SETUP_PROBES = 2
#: a run must end within this many seconds
RUN_LIMIT_S = 175.0


class WorkerFailed(RuntimeError):
    pass


def _spawn(args, role: str, workdir: str, env: dict, deadline: float,
           trace_out=None) -> dict:
    command = [sys.executable, os.path.join(HERE, "worker.py"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--size", args.size, "--workdir", workdir, "--role", role]
    if trace_out:
        command += ["--trace-out", trace_out]
    command += ["--spawned-at", repr(time.monotonic())]
    # stderr passes through; stdout's last line is the worker's result
    done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                          text=True, timeout=deadline - time.monotonic())
    if done.returncode != 0:
        raise WorkerFailed(f"{role} worker exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise WorkerFailed(f"{role} worker printed no result")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    # the worker validates the workload and size names
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help="seed of the GEMM input matrices")
    parser.add_argument("--seconds", type=float, required=True,
                        help="measuring time of the run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    parser.add_argument("--size", default="full",
                        help="tiny: small inputs for the benchmark's tests")
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no program sources under {src}", file=sys.stderr)
        return 2
    work_root = os.path.join(ROOT, ".perfbench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=work_root)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, HERE] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # never the user's ~/.cache/repro, and no numpy worker threads
    env.pop("REPRO_COMPILE_CACHE", None)
    env["REPRO_CACHE_DIR"] = os.path.join(workdir, "default-cache")
    for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS"):
        env[name] = "1"
    trace_out = None
    if args.trace:
        out_dir = os.path.join(ROOT, ".perfbench-out")
        os.makedirs(out_dir, exist_ok=True)
        trace_out = os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.trace.json")
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(_spawn(args, "setup", workdir, env,
                                     deadline)["setup_s"])
        result = _spawn(args, "measure", workdir, env, deadline, trace_out)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 3
    except WorkerFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = result["metrics"]
    if args.trace:
        print(f"perfbench: spans written to {trace_out}", file=sys.stderr)
    else:
        setups.append(metrics["setup_s"]["value"])
        metrics["setup_s"]["value"] = statistics.median(setups)
    print(json.dumps({"host": result["host"]}))
    print(json.dumps({"correct": result["failed"] == 0,
                      "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
