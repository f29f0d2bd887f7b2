"""Tests of the benchmark itself: ``python3 -m pytest -q perfbench``."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import spans  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from repro.hls.cache import CompileCache  # noqa: E402


def _benchmark_json() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def _run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
         "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = _benchmark_json()["per_layer" if trace else "end_to_end"]
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == \
        {metric["name"]: metric["unit"] for metric in declared}
    assert all(isinstance(metric["value"], float)
               for metric in result["metrics"].values())


def test_benchmark_json_declares_the_metrics_the_worker_reports():
    bench = _benchmark_json()
    assert [m["name"] for m in bench["end_to_end"]] == \
        list(worker.END_TO_END)
    assert {m["name"]: (m["unit"], m["better"])
            for m in bench["per_layer"]} == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)


def test_without_program_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("pi-scaling", 0, cwd=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


@pytest.fixture(scope="module")
def journey(tmp_path_factory):
    """The tiny GEMM journey with its kernels compiled into a cache."""

    cache_dir = str(tmp_path_factory.mktemp("cache"))
    wl = workloads.workload("gemm-journey", "tiny")
    cache = CompileCache(cache_dir)
    for job in wl.jobs:
        workloads.compile_kernel(job, cache)
    return wl, cache_dir


def _jobs(wl, cache_dir, workdir):
    out = workloads.RoundResult()
    cache = spans.TracedCache(cache_dir, spans.Tracer(False))
    for job in wl.jobs:
        workloads.run_job(job, wl, cache, str(workdir), 7, spans.Tracer(False),
                          out)
    return out


def test_clean_journey_passes_every_check(journey, tmp_path):
    out = _jobs(*journey, tmp_path)
    assert (out.attempted, out.failed) == (5, 0), out.errors
    assert out.cycles == sum(job.cycles for job in journey[0].jobs)


def test_flipped_element_of_C_counts_as_a_failed_job(journey, monkeypatch,
                                                     tmp_path):
    class Corrupting(workloads.Program):
        def run(self, **args):
            outcome = super().run(**args)
            if "C" in args:
                args["C"][5] += np.float32(1.0)
            return outcome

    monkeypatch.setattr(workloads, "Program", Corrupting)
    out = _jobs(*journey, tmp_path)
    assert (out.attempted, out.failed) == (5, 5)
    assert all("C does not match" in error for error in out.errors)


def test_wrong_pinned_cycles_count_as_a_failed_job(journey, tmp_path):
    wl, cache_dir = journey
    wrong = dataclasses.replace(wl.jobs[2], cycles=wl.jobs[2].cycles + 1)
    wl = dataclasses.replace(wl, jobs=wl.jobs[:2] + (wrong,) + wl.jobs[3:])
    out = _jobs(wl, cache_dir, tmp_path)
    assert (out.attempted, out.failed) == (5, 1)
    assert "pinned" in out.errors[0] and wrong.id in out.errors[0]
    assert len(out.samples["trace_s"]) == 5  # every job still ran


def test_a_job_that_raises_is_counted_and_the_round_goes_on(journey,
                                                            monkeypatch,
                                                            tmp_path):
    original = workloads.simulate_job

    def flaky(job, *args):
        if job.version == "blocked":
            raise RuntimeError("injected")
        return original(job, *args)

    monkeypatch.setattr(workloads, "simulate_job", flaky)
    out = _jobs(*journey, tmp_path)
    assert (out.attempted, out.failed) == (5, 1)
    assert "injected" in out.errors[0]
    assert len(out.samples["trace_s"]) == 4


def test_wrong_score_checksum_fails_every_candidate(journey):
    wl, _ = journey
    wl = dataclasses.replace(wl, score_checksum=(1, 1))
    out = workloads.RoundResult()
    workloads.compile_stage(wl, spans.Tracer(False), out)
    assert out.attempted == out.failed == len(wl.jobs)


def test_self_time_nests_bench_spans_inside_program_spans():
    def span(id, name, layer, start, end, source="bench"):
        return spans.Span(id, -1, name, layer, "job", 0, start, end, source)

    # compile [0, 100] > frontend [10, 60] > cache load [20, 30]; hls [60, 90]
    nested = [span(0, "compile", "apps", 0, 100),
              span(1, "frontend", "frontend", 10, 60, "program"),
              span(2, "hls.cache.load", "hls.cache", 20, 30),
              span(3, "hls", "hls", 60, 90, "program")]
    times = spans.self_times(nested)
    assert times["apps"] * 1e9 == pytest.approx(20)
    assert times["frontend"] * 1e9 == pytest.approx(40)
    assert times["hls.cache"] * 1e9 == pytest.approx(10)
    assert times["hls"] * 1e9 == pytest.approx(30)
