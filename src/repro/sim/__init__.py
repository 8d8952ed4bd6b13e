"""Simulation substrate: event engine, network & memory models, samplers.

The paper evaluates G-HBA with a trace-driven simulator.  This package
provides the simulator's foundations:

- :class:`~repro.sim.engine.Simulator` — a deterministic discrete-event
  engine (heap-ordered, FIFO-stable among equal timestamps).
- :class:`~repro.sim.network.NetworkModel` — latency costs for memory
  probes, disk accesses, unicast messages and group/global multicasts.
- :class:`~repro.sim.memory.MemoryModel` — per-MDS memory budget; when
  Bloom filter replicas outgrow it, probe latency degrades toward disk
  speed (the effect behind Figures 8-10).
- :mod:`~repro.sim.rng` — seeded Zipf / exponential samplers.

Metrics are not kept here: counters, gauges and latency histograms live
in :mod:`repro.obs.registry`, and the experiments' windowed series in
:mod:`repro.experiments.common`.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.network import NetworkModel
from repro.sim.memory import MemoryModel
from repro.sim.rng import ZipfSampler, make_rng

__all__ = [
    "Event",
    "Simulator",
    "NetworkModel",
    "MemoryModel",
    "ZipfSampler",
    "make_rng",
]
