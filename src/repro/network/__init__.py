"""Network substrate: links, topologies, traffic accounting and simulation.

The paper's experiment is fundamentally a *network traffic* estimate: how
many bytes cross each layer boundary per transaction and per day under the
centralized-cloud model vs the F2C model.  This package provides the pieces
needed to measure that on a simulated network:

* :mod:`repro.network.link` — point-to-point links with latency, bandwidth
  and an optional per-hour congestion profile.
* :mod:`repro.network.topology` — the hierarchical topology (edge devices →
  fog L1 → fog L2 → cloud) held in plain dicts, with breadth-first path
  utilities (fewest hops; the first path in link-insertion order on a tie).
* :mod:`repro.network.traffic` — per-link / per-layer byte and message
  accounting with time-bucketed series (used to reproduce the figures).
* :mod:`repro.network.simulator` — a small discrete-event engine that
  schedules transfers over links and advances a simulated clock.
"""

from repro.network.link import Link, LinkProfile
from repro.network.simulator import NetworkSimulator, Transfer
from repro.network.topology import LayerName, NetworkTopology
from repro.network.traffic import TrafficAccountant, TrafficRecord

__all__ = [
    "LayerName",
    "Link",
    "LinkProfile",
    "NetworkSimulator",
    "NetworkTopology",
    "TrafficAccountant",
    "TrafficRecord",
    "Transfer",
]
