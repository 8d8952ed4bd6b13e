"""The fleet's filters by cell: what L2, L3 and L4 probe (DESIGN.md §15).

A :class:`~repro.core.cluster.GHBACluster` keeps one :class:`CellIndex`
over every server it runs: the transpose of the fleet's filters, one
integer per cell of the filter geometry holding two indexes side by side.
For server id ``s``:

- **LOCAL**, bit ``2s`` of ``slices[c]``: ``s``'s live local filter has
  bit ``c`` set;
- **PUB**, bit ``2s + 1`` of ``slices[c]``: ``s``'s last published
  filter has bit ``c`` set.

A lookup ANDs the k slices at the item's cells — one walk serves both
indexes — and masks what is left by who holds what:

- ``scope[h]``: what server ``h`` answers for at L2 — its own LOCAL bit,
  and the PUB bit of every home whose replica ``h`` hosts *and* whose
  hosted copy equals that home's published filter, so that the home's
  PUB bits answer exactly what the copy would;
- ``fallback[h]``: every other replica ``h`` hosts, as ``(home, filter)``
  pairs tested by mask (a copy taken before its home published again, a
  checkpoint copy that differs, one a test installs by hand);
- ``copies[home]``: the hosts whose scope names ``home``'s PUB bit, so a
  publication can take them out.

L3 ORs the scopes of the members it reached; L4 masks by ``everyone``,
the LOCAL bits of every server, less the ones it lost.

The same funnel keeps ``dirty``, the servers whose live filter may differ
from their published one: a change to a live filter adds the server, a
publication takes it out.  Replica synchronization reads it instead of
comparing every server's two filters.

A replica that arrives, moves or leaves changes a scope, never a slice;
a slice changes only where a server's own filter changed.  Every such
change reaches the index through one funnel per server (the
``MetadataServer`` methods that change a filter or a hosted replica call
back here), and a server outside a cluster, whose ``_index`` is None,
pays one ``is None`` check for it.
"""

from __future__ import annotations

from itertools import compress
from typing import TYPE_CHECKING, Dict, Iterable, List, Set, Tuple

from repro.bloom.bloom_filter import BloomFilter, popcount
from repro.bloom.hashing import HashFamily

if TYPE_CHECKING:  # pragma: no cover - type hints only
    from repro.core.server import MetadataServer

Pairs = Tuple[Tuple[int, BloomFilter], ...]

_FLAGS = bytes.maketrans(b"01", b"\x00\x01")


def set_bits(value: int) -> List[int]:
    """The positions of the set bits of ``value`` >= 0, ascending."""
    text = bin(value)
    top = len(text) - 1  # the index of bit 0
    find = text.find
    out = []
    index = find("1", 2)
    while index >= 0:
        out.append(top - index)
        index = find("1", index + 1)
    out.reverse()
    return out


def _local(sid: int) -> int:
    return 1 << 2 * sid


def _pub(sid: int) -> int:
    return 2 << 2 * sid


class CellIndex:
    """LOCAL and PUB over the servers of ``servers`` (the cluster's own
    ``id -> MetadataServer`` map), for filters of ``family``."""

    def __init__(
        self, family: HashFamily, servers: "Dict[int, MetadataServer]"
    ) -> None:
        self.family = family
        self.servers = servers
        self.slices: List[int] = [0] * family.num_bits
        self.scope: Dict[int, int] = {}
        self.fallback: Dict[int, Pairs] = {}
        self.copies: Dict[int, Set[int]] = {}
        self.everyone = 0
        #: Every server whose live filter changed since it last published.
        self.dirty: Set[int] = set()

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------
    def join(self, server: "MetadataServer") -> None:
        """Index ``server``, new and empty: no bit set, nothing hosted."""
        sid = server.server_id
        server._index = self
        self.scope[sid] = _local(sid)
        self.fallback[sid] = ()
        self.everyone |= _local(sid)

    def leave(self, server: "MetadataServer") -> None:
        """Clear ``server``'s bits and its scope; copies of its filter still
        hosted elsewhere are tested by mask from here on."""
        sid = server.server_id
        self._flip(_local(sid), server.local_filter._bits)
        self._flip(_pub(sid), server.published_filter._bits)
        self._unpublish(sid)
        for home in _homes(self.scope.pop(sid) ^ _local(sid)):
            self.copies[home].discard(sid)
        del self.fallback[sid]
        self.everyone ^= _local(sid)
        self.dirty.discard(sid)
        server._index = None

    # ------------------------------------------------------------------
    # The funnel: a server's filter changed
    # ------------------------------------------------------------------
    def local_add(self, sid: int, item: object) -> None:
        """Server ``sid``'s local filter took ``item``."""
        self.dirty.add(sid)
        bit = _local(sid)
        slices = self.slices
        for cell in self.family.cells(item):
            slices[cell] |= bit

    def local_changed(self, sid: int, diff: int) -> None:
        """Server ``sid``'s local filter flipped the bits of ``diff`` (or
        was replaced by an equal one: it is marked drifted all the same)."""
        self.dirty.add(sid)
        self._flip(_local(sid), diff)

    def published(self, sid: int, diff: int) -> None:
        """Server ``sid`` published bits that differ by ``diff``: its PUB
        bits follow, and every copy of the old ones leaves its host's scope
        until :meth:`host` takes an equal copy in its place.  The server
        is no longer drifted: a caller that publishes something other
        than its live filter reports the live filter after this."""
        self.dirty.discard(sid)
        if diff:
            self._flip(_pub(sid), diff)
            self._unpublish(sid)

    def _flip(self, bit: int, diff: int) -> None:
        """Flip ``bit`` in the slice of every cell set in ``diff``: one C
        pass over the binary digits when one in eight or more is set (a
        whole filter), one ``find`` per set bit otherwise (a diff)."""
        slices = self.slices
        text = bin(diff)
        top = len(text) - 1  # the index of bit 0
        if popcount(diff) * 8 > top:
            flags = text[:1:-1].encode().translate(_FLAGS)
            for cell in compress(range(top - 1), flags):
                slices[cell] ^= bit
            return
        find = text.find
        index = find("1", 2)
        while index >= 0:
            slices[top - index] ^= bit
            index = find("1", index + 1)

    def _unpublish(self, home: int) -> None:
        for host in self.copies.pop(home, ()):
            self.scope[host] ^= _pub(home)
            replica = self.servers[host].segment.get_replica(home)
            self.fallback[host] += ((home, replica),)

    # ------------------------------------------------------------------
    # The funnel: a server's hosted replicas changed
    # ------------------------------------------------------------------
    def host(self, sid: int, home: int, replica: BloomFilter) -> None:
        """Server ``sid`` now hosts ``replica`` as ``home``'s."""
        owner = self.servers.get(home)
        if owner is not None and replica._bits == owner.published_filter._bits:
            self.scope[sid] |= _pub(home)
            self.copies.setdefault(home, set()).add(sid)
        else:
            self.fallback[sid] += ((home, replica),)

    def unhost(self, sid: int, home: int) -> None:
        """Server ``sid`` no longer hosts ``home``'s replica."""
        if self.scope[sid] & _pub(home):
            self.scope[sid] ^= _pub(home)
            self.copies[home].discard(sid)
        else:
            self.fallback[sid] = tuple(
                pair for pair in self.fallback[sid] if pair[0] != home
            )

    # ------------------------------------------------------------------
    # Probes
    # ------------------------------------------------------------------
    def lookup(self, item: object, scope: int, fallback: Pairs) -> Tuple[int, ...]:
        """The ids, ascending, whose filter may hold ``item`` among the
        bits of ``scope`` and the replicas of ``fallback``."""
        found = -1
        slices = self.slices
        for cell in self.family.cells(item):
            found &= slices[cell]
        found &= scope
        if fallback:
            mask = self.family.mask(item)
            for home, replica in fallback:
                if (replica._bits & mask) == mask:
                    found |= _local(home)
        if found & (found - 1):
            return tuple(sorted({bit >> 1 for bit in set_bits(found)}))
        return ((found.bit_length() - 1) >> 1,) if found else ()

    def holders(self, item: object, lost: Iterable[int] = ()) -> Tuple[int, ...]:
        """The servers, ascending, whose local filter may hold ``item``,
        less those of ``lost`` (L4)."""
        scope = self.everyone
        for sid in lost:
            scope &= ~_local(sid)
        return self.lookup(item, scope, ())

    # ------------------------------------------------------------------
    # Invariant checking (tests)
    # ------------------------------------------------------------------
    def check_index(self) -> None:
        """Raise ``AssertionError`` unless the slices are the transpose of
        every server's live (LOCAL) and published (PUB) filter, each
        host's scope and fallback list are what it hosts (a copy in the
        scope equals its home's published filter, every other replica is
        in ``fallback``), and ``dirty`` names every server whose two
        filters differ."""
        servers = self.servers
        width = self.family.num_bits
        expected = [0] * width
        for sid, server in servers.items():
            if server._index is not self:
                raise AssertionError(f"server {sid} is not indexed here")
            for bit, bits in (
                (_local(sid), server.local_filter._bits),
                (_pub(sid), server.published_filter._bits),
            ):
                for cell in set_bits(bits):
                    expected[cell] |= bit
        if expected != self.slices:
            cell = next(c for c in range(width) if expected[c] != self.slices[c])
            raise AssertionError(
                f"cell {cell}: slice {self.slices[cell]:#b}, filters {expected[cell]:#b}"
            )
        drifted = {
            sid for sid, server in servers.items()
            if server.local_filter._bits != server.published_filter._bits
        }
        if not drifted <= self.dirty <= servers.keys():
            raise AssertionError(f"dirty {sorted(self.dirty)}, drifted {sorted(drifted)}")
        if self.everyone != sum(map(_local, servers)):
            raise AssertionError(f"everyone {self.everyone:#b}, servers {sorted(servers)}")
        if self.scope.keys() != servers.keys() or self.fallback.keys() != servers.keys():
            raise AssertionError(f"hosts {sorted(self.scope)} != servers {sorted(servers)}")
        copies: Dict[int, Set[int]] = {}
        for sid, server in servers.items():
            scope = self.scope[sid]
            if not scope & _local(sid) or any(
                bit % 2 == 0 for bit in set_bits(scope ^ _local(sid))
            ):
                raise AssertionError(f"host {sid}: scope {scope:#b} names LOCAL bits not its own")
            hosted = _homes(scope ^ _local(sid))
            fallback = dict(self.fallback[sid])
            if len(fallback) != len(self.fallback[sid]):
                raise AssertionError(f"host {sid} lists a fallback home twice")
            if set(hosted) & fallback.keys():
                raise AssertionError(f"host {sid} lists homes in both forms")
            segment = dict(server.segment._pairs)
            if set(hosted) | fallback.keys() != segment.keys():
                raise AssertionError(
                    f"host {sid} indexes {sorted(set(hosted) | fallback.keys())}, "
                    f"hosts {sorted(segment)}"
                )
            for home in hosted:
                owner = servers.get(home)
                if owner is None or segment[home]._bits != owner.published_filter._bits:
                    raise AssertionError(
                        f"host {sid}: copy of {home} in scope differs from its published filter"
                    )
                copies.setdefault(home, set()).add(sid)
            for home, replica in fallback.items():
                if replica is not segment[home]:
                    raise AssertionError(f"host {sid}: fallback {home} is not the hosted copy")
        have_copies = {home: hosts for home, hosts in self.copies.items() if hosts}
        if have_copies != copies:
            raise AssertionError(f"copies {have_copies} != scopes {copies}")


def _homes(pub_bits: int) -> List[int]:
    """The homes whose PUB bits are set in ``pub_bits``."""
    return [bit >> 1 for bit in set_bits(pub_bits)]
