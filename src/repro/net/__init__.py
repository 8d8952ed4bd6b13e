"""``repro.net``: a real network substrate for the prototype protocol.

The prototype's message layer was transport-shaped from the start — every
protocol step is a :class:`~repro.prototype.messages.Message` delivered by
a transport object exposing ``send`` / ``request`` / ``gather``.  This
package supplies the second implementation of that surface:

- :mod:`repro.net.reliability` — the core both transports are built on
  (:class:`~repro.net.reliability.ReliableTransport`, whose ``request``
  and ``gather`` run the retry/backoff loops over a two-method wire
  seam), and the shared ``GatherResult`` / ``TransportClosed``
  vocabulary.
- :mod:`repro.net.codec` — a versioned, length-prefixed, deterministic
  binary wire format for every :class:`~repro.prototype.messages.
  MessageKind` payload (stdlib only).
- :mod:`repro.net.tcp` — :class:`~repro.net.tcp.TcpTransport`, blocking
  sockets with one pooled connection per peer, one reader thread per
  connection and bounded writes, speaking the codec and driving the same
  fault injector and retry policy as the in-process transport.
- :mod:`repro.net.supervisor` — launches each MDS as a real OS process
  (``python -m repro.net serve``) wired together by a static port map.

The in-process transport remains the deterministic tier-1 harness; this
package is where real serialization cost, real sockets, and
wall-clock numbers come from — measured by ``python -m bench run
--workload wire_mixed`` (two ``serve`` processes, one closed-loop client,
a final re-read as the lost-ack oracle).

The names below are resolved lazily (PEP 562): no import cycle needs it,
but ``repro.prototype`` and ``repro.gateway`` use only the reliability
layer and should not load the codec and the socket modules on import.
"""

_EXPORTS = {
    "CodecError": "repro.net.codec",
    "decode_body": "repro.net.codec",
    "decode_frame": "repro.net.codec",
    "encode_body": "repro.net.codec",
    "encode_frame": "repro.net.codec",
    "GatherResult": "repro.net.reliability",
    "TransportClosed": "repro.net.reliability",
    "PortMap": "repro.net.tcp",
    "TcpTransport": "repro.net.tcp",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module_name), name)
