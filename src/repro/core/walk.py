"""The lookup of Section 2.3 as one decision sequence, written once.

``walk(x)`` decides; the executor ``x`` carries each step out and pays for
it in its own currency (the simulator books modelled latency and counters,
the prototype sends messages).  This module imports nothing of ``repro``
and never learns which driver calls it.  What ``x`` supplies:

``probe_lru()``      the origin's L1 hits (MDS ids)
``forget_lru()``     drop the origin's L1 entry for the path
``probe_segment()``  the origin's L2 hits: own filter + hosted replicas
``peers``            truthy when the origin's group has other members
``multicast()``      L3: the union of every reachable group member's hits
``forward(target)``  send the query to ``target`` to verify: True when the
                     record is there, False when it is not *or* the forward
                     was lost
``broadcast()``      L4: the MDS that holds the record, or None

The rules, each in exactly one place:

- a level with a *unique* hit forwards to it and the answer stands only if
  the target confirms; zero or several hits escalate;
- a forward that comes back empty-handed is one false forward — a refuted
  hit and a lost forward count alike — and the walk escalates;
- a refuted L1 entry is forgotten, so the next lookup does not repeat it;
- a group of one has no L3: L2 already probed everything it holds;
- a unique hit from a multicast that lost members *is* forwarded:
  verification makes a wrong guess safe, and the broadcast it might save
  is dearer than one round trip;
- L4 asks everybody, so its answer is the home or a certain NEGATIVE.

Levels are numbered as ``repro.core.query.QueryLevel`` numbers them.
"""

L1, L2, L3, L4, NEGATIVE = 1, 2, 3, 4, 5


def walk(x):
    """Resolve one lookup over ``x``: ``(level, home, false_forwards)``."""
    false_forwards = 0
    hits = x.probe_lru()
    if len(hits) == 1:
        if x.forward(hits[0]):
            return L1, hits[0], false_forwards
        false_forwards += 1
        x.forget_lru()
    hits = x.probe_segment()
    if len(hits) == 1:
        if x.forward(hits[0]):
            return L2, hits[0], false_forwards
        false_forwards += 1
    if x.peers:
        hits = x.multicast()
        if len(hits) == 1:
            if x.forward(hits[0]):
                return L3, hits[0], false_forwards
            false_forwards += 1
    home = x.broadcast()
    return (NEGATIVE if home is None else L4), home, false_forwards
