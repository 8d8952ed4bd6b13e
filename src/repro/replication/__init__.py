"""Cross-cluster asynchronous replication (disaster recovery).

The primary fleet's applied mutations are captured CDC-style
(:class:`ChangeCapture` on :meth:`GHBACluster.add_change_listener` and
the prototype node's ``cdc`` hook), shipped as per-home ordered streams
(:class:`ReplicationShipper`, ``REPL_SHIP``) to a standby fleet
(:class:`StandbyEndpoint` / :class:`StandbyNode`) over either transport,
and acknowledged cumulatively through :mod:`repro.prototype.seqlog`,
the very stream the write-back ack floor runs on.  Promotion
(:func:`promote_standby`, ``REPL_PROMOTE``) fences the old primary's
epoch; the :class:`DivergenceAuditor` proves zero acknowledged-mutation
loss and measures RPO.  ``python -m repro.replication drill`` runs the
whole switchover end to end.
"""

from repro.replication.audit import DivergenceAuditor, SwitchoverReport
from repro.replication.cdc import (
    CapturedChange,
    ChangeCapture,
    entry_from_wire,
    entry_to_wire,
)
from repro.replication.controller import ReplicationController
from repro.replication.ship import (
    ReplicationShipper,
    ShipReport,
    fence_probe,
    promote_standby,
)
from repro.replication.standby import (
    ReplicationError,
    StandbyEndpoint,
    StandbyNode,
)

__all__ = [
    "CapturedChange",
    "ChangeCapture",
    "DivergenceAuditor",
    "ReplicationController",
    "ReplicationError",
    "ReplicationShipper",
    "ShipReport",
    "StandbyEndpoint",
    "StandbyNode",
    "SwitchoverReport",
    "entry_from_wire",
    "entry_to_wire",
    "fence_probe",
    "promote_standby",
]
