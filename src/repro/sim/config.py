"""Simulation configuration: the modeled board (Fig. 1 of the paper).

Defaults approximate the paper's platform — an Intel D5005 PAC
(Stratix 10 SX) with four DDR4 banks behind an Avalon interconnect,
running the generated accelerator at ~140-150 MHz.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["DramConfig", "SimConfig"]


@dataclass(frozen=True)
class DramConfig:
    """External-memory timing model (cycles at the accelerator clock)."""

    #: bytes moved per controller cycle per channel (512-bit interface)
    width_bytes: int = 64
    #: address-interleaved channels (the D5005 has four DDR4 banks)
    channels: int = 4
    #: channel interleave granularity in bytes
    interleave_bytes: int = 256
    #: pipelined latency from end-of-service to data return (the D5005's
    #: DDR4 path through the FIM is several hundred ns at ~140 MHz)
    base_latency: int = 24
    #: bank-activation time when a request misses the open row
    row_miss_penalty: int = 12
    #: open-row (page) size per bank.  Scaled to the default benchmark
    #: problem sizes so a row holds one matrix row (DIM=64 floats): this
    #: preserves the access-pattern classes of the paper's DIM=512 runs
    #: on 2 KiB rows (sequential = row hits, column-strided = misses).
    row_bytes: int = 256
    #: banks per channel with independent open rows
    banks_per_channel: int = 16
    #: data-bus occupancy overhead per request (command/turnaround)
    request_overhead: int = 1


@dataclass(frozen=True)
class SimConfig:
    """Full simulation parameters."""

    dram: DramConfig = DramConfig()
    #: accelerator clock in MHz (used to convert cycles to seconds;
    #: normally taken from the compiled design's Fmax estimate)
    clock_mhz: float = 140.0
    #: maximum outstanding requests per per-thread Avalon port
    port_outstanding: int = 8
    #: cycles between the host starting successive hardware threads —
    #: the software overhead the π case study exposes (§V-D); the default
    #: is calibrated so the iteration sweep reproduces the paper's
    #: thread-start staggering.  Set to 0 for back-to-back starts.
    thread_start_interval: int = 2000
    #: iterations simulated per chunk in pipelined leaf loops (arbitration
    #: between threads is exact within ±1 chunk)
    loop_chunk: int = 32
    #: per-thread iterations allowed in flight in a pipelined loop: memory
    #: responses later than the scheduled latency only stall the pipeline
    #: once this window is full.  The Nymble execution model suspends a
    #: stalling thread almost immediately and relies on *thread
    #: reordering* to keep the datapath busy (§III-B); larger windows model
    #: HLS flows with deeper stage buffering.
    pipeline_window: int = 2
    #: stop runaway simulations after this many cycles
    max_cycles: int = 4_000_000_000
    #: extra cycles for kernel start (context load) per launch
    launch_overhead: int = 200
    #: loop execution strategy.  ``"fast"`` runs every pipelined loop,
    #: and every flattenable sequential nest around one, through the
    #: codegen'd timing driver of :mod:`repro.sim.fastpath` with numpy
    #: value kernels (a loop whose segment does not vectorize, or a
    #: chunk its kernel refuses, takes the scalar interpreter);
    #: ``"reference"`` forces the scalar oracle everywhere.  Both
    #: produce bit-identical cycles, traces, stalls, DRAM counters and
    #: attribution tables; any other value raises ``ValueError``.
    exec_mode: str = "fast"
    #: cycle accounting: attribute every non-useful cycle of every
    #: thread to a cause (II limit, BRAM port conflict, DRAM latency /
    #: arbitration / row miss, sync wait, drain, control), per schedule
    #: region.  Off by default.  Cycles and every non-attribution trace
    #: record (states, hardware counters) are identical with it on and
    #: off (``test_cycles_unchanged`` and
    #: ``test_states_and_counters_unchanged`` in
    #: ``tests/test_attribution.py``); on adds the attribution table and
    #: its counter and region events.
    attribution: bool = False
