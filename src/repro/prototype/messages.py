"""Wire messages of the prototype protocol."""

from __future__ import annotations

import enum
import itertools
import queue
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

_request_ids = itertools.count(1)


class MessageKind(enum.Enum):
    """Request kinds a node understands (plus the generic REPLY)."""

    PROBE_LOCAL = "probe_local"      # combined L1 + L2 probe at the origin
    PROBE_SEGMENT = "probe_segment"  # L2 probe (segment array + local filter)
    VERIFY = "verify"                # home-MDS verification (filter + store)
    VERIFY_BATCH = "verify_batch"    # multi-key verification (gateway batch)
    MUTATE_BATCH = "mutate_batch"    # batched write-back mutation flush
    INSERT = "insert"                # become home for a metadata record
    HOST_REPLICA = "host_replica"    # start hosting a BF replica
    DROP_REPLICA = "drop_replica"    # stop hosting a BF replica
    REPLACE_REPLICA = "replace_replica"  # replica update
    PUBLISH = "publish"              # snapshot local filter for replication
    COPY_REPLICA_TO = "copy_replica_to"  # ship a hosted replica to a peer
    SEND_LOCAL_TO = "send_local_to"      # ship own local filter to a peer
    EXCHANGE_REPLICA = "exchange_replica"  # HBA join: swap filters
    RECORD_LRU = "record_lru"        # feed a resolved mapping into L1
    PING = "ping"                    # heartbeat
    STOP = "stop"                    # shut the node down
    REPLY = "reply"
    # Gateway-cohort invalidation protocol (repro.gateway.cohort).  These
    # travel between *gateways* (non-negative cohort member IDs on the
    # cohort's own transport), never between MDS nodes.
    INVALIDATE = "invalidate"            # one mutation-invalidation record
    COHORT_HEARTBEAT = "cohort_heartbeat"  # latest seq + cumulative acks
    COHORT_SYNC = "cohort_sync"          # anti-entropy: records since seq N
    COHORT_SYNC_REPLY = "cohort_sync_reply"  # log suffix catch-up
    # Cross-cluster replication protocol (repro.replication).  These
    # travel from the primary fleet's shipper to a standby endpoint.
    REPL_SHIP = "repl_ship"          # per-home ordered change-stream batch
    REPL_SYNC = "repl_sync"          # full-state bootstrap (checkpoint doc)
    REPL_PROMOTE = "repl_promote"    # promote standby; fence older epochs


@dataclass
class Message:
    """One message on the wire.

    Attributes
    ----------
    kind:
        Request kind (or REPLY).
    sender:
        Node/client identifier of the sender (clients use negative IDs).
    payload:
        Kind-specific data.
    request_id:
        Correlation ID; replies carry the request's ID.
    reply_to:
        Queue the reply must be pushed to (None for one-way messages).
    arrival_vtime:
        Virtual time (seconds) at which the request reaches the node —
        drives the node's single-server queue accounting.
    trace:
        Optional ``(trace_id, parent_span_id, origin)`` causal context
        (``repro.obs.trace.TraceContext``).  ``None`` whenever tracing is
        disabled, so the hot path never allocates one.  Replies inherit
        the request's context.
    """

    kind: MessageKind
    sender: int
    payload: Dict[str, Any] = field(default_factory=dict)
    request_id: int = field(default_factory=lambda: next(_request_ids))
    reply_to: Optional["queue.SimpleQueue[Message]"] = None
    arrival_vtime: float = 0.0
    trace: Optional[Tuple[int, int, int]] = None

    def reply(self, **payload: Any) -> "Message":
        """Build the reply to this message."""
        return Message(
            kind=MessageKind.REPLY,
            sender=-1,
            payload=payload,
            request_id=self.request_id,
            trace=self.trace,
        )
