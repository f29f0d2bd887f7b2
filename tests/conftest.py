"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.hls import HLSOptions
from repro.sim import SimConfig


@pytest.fixture
def fast_sim_config() -> SimConfig:
    """Simulation config for tiny unit-test runs."""

    return SimConfig(thread_start_interval=10, launch_overhead=20)


#: test-case labels for the execution strategies, mapped to
#: ``SimConfig`` keyword arguments.  Two labels reach the fast engine:
#: ``auto`` leaves ``exec_mode`` at its default, so it also checks that
#: the default is the fast engine; ``vectorized`` asks for ``"fast"`` by
#: name.
EXEC_MODES = {
    "reference": {"exec_mode": "reference"},
    "fast": {"exec_mode": "fast"},
    "vectorized": {"exec_mode": "fast"},
    "auto": {},
}


def sim_config(mode: str, **kwargs) -> SimConfig:
    """A ``SimConfig`` for the execution strategy labelled ``mode``."""

    return SimConfig(**EXEC_MODES[mode], **kwargs)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(1234)


def make_vector_add_source(n_name: str = "N") -> str:
    """A minimal kernel used across frontend/HLS/sim tests."""

    return f"""
    #define DTYPE float
    void vadd(DTYPE* a, DTYPE* b, DTYPE* c, int {n_name}) {{
      #pragma omp target parallel map(to:a[0:{n_name}], b[0:{n_name}]) \\
          map(from:c[0:{n_name}]) num_threads(4)
      {{
        int tid = omp_get_thread_num();
        int nth = omp_get_num_threads();
        for (int i = tid; i < {n_name}; i += nth) {{
          c[i] = a[i] + b[i];
        }}
      }}
    }}
    """
