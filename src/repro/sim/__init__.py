"""Simulation substrate: network model, samplers.

The paper evaluates G-HBA with a trace-driven simulator.  This package
provides the simulator's foundations:

- :class:`~repro.sim.network.NetworkModel` — latency costs for memory
  probes, disk accesses, unicast messages and group/global multicasts.
- :mod:`~repro.sim.rng` — seeded Zipf / exponential samplers.

Memory residency is not kept here: each MDS holds its budget and the one
fraction it implies (:attr:`repro.core.server.MetadataServer.resident_fraction`).
Metrics are not kept here either: counters, gauges and latency histograms
live in :mod:`repro.obs.registry`, and the experiments' windowed series in
:mod:`repro.experiments.common`.  Nor is there an event engine: every timed
component (:class:`~repro.core.failure.HeartbeatMonitor`,
:class:`~repro.faults.injector.PlanFaultInjector`, the gateway cohort)
moves on a virtual clock its caller passes in.
"""

from repro.sim.network import NetworkModel
from repro.sim.rng import ZipfSampler, make_rng

__all__ = [
    "NetworkModel",
    "ZipfSampler",
    "make_rng",
]
