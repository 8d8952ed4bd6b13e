"""Message-passing prototype of G-HBA and HBA.

The paper validates G-HBA with a prototype on a 60-node Linux cluster
(Section 5).  This package substitutes a faithful in-process equivalent
(DESIGN.md §2): every MDS is a daemon thread with a mailbox served over an
in-process transport; clients drive the four-level query protocol by
exchanging real request/reply messages with the nodes, and every message is
counted on the wire.

Timing uses a *virtual service clock*: each node is a single-server queue
whose service time per request comes from the same network/memory cost
model as the simulator.  This keeps latency results deterministic and
hardware-independent while the control flow — who sends what to whom — is
exercised for real, concurrently, across threads.

Public API:

- :class:`~repro.prototype.transport.InProcessTransport` — mailboxes +
  message counting.
- :class:`~repro.prototype.node.MDSNode` — one MDS daemon thread.
- :class:`~repro.prototype.cluster.PrototypeCluster` — builds a G-HBA or
  HBA node fleet, exposes ``lookup`` (a
  :class:`~repro.core.query.QueryResult`, as the simulator's ``query``
  returns) and ``add_node``.
"""

from repro.prototype.messages import Message, MessageKind
from repro.prototype.transport import InProcessTransport, TransportClosed
from repro.prototype.node import MDSNode
from repro.prototype.cluster import PrototypeCluster

__all__ = [
    "Message",
    "MessageKind",
    "InProcessTransport",
    "TransportClosed",
    "MDSNode",
    "PrototypeCluster",
]
