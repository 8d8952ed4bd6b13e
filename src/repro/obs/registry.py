"""A labeled metrics registry: counters, gauges and streaming histograms.

This is the one place metric *names* live.  Components register families
(``ghba_queries_total``, ``ghba_server_false_forwards_total``, ...) with a
fixed label schema (``("level",)``, ``("server",)``), then increment child
series per label value.  Exporters (:mod:`repro.obs.export`) walk the
registry to produce Prometheus text exposition or JSON snapshots.

A histogram child is its own recorder: exact count/sum/min/max, a
seeded reservoir for percentiles, and fixed cumulative buckets for the
Prometheus exposition format.  :func:`percentile` beside it is the one
list-based percentile, for callers that keep every sample.

Conventions follow Prometheus: counters end in ``_total``, label values
are strings, and a family with an empty label schema has exactly one
(unlabeled) child whose operations are proxied by the family itself, so
``registry.counter("x_total").inc()`` just works.

The family is also the only child cache.  :attr:`MetricFamily.by_value`
maps the raw label value (the bare value of a one-label family, the
values tuple of any other) to its child and creates the child on a miss;
:meth:`MetricFamily.labels` reads through it.  A series exists from its
first booking on, never earlier.  A hot path holds the map (or a child)
and books with a subscript and an add, no Python call::

    served_by = family.by_value          # once, at set-up
    served_by[server_id].value += 1      # per event

It adds to ``.value`` directly only a literal 1 or a count it has just
computed (never negative); any other amount goes through
:meth:`CounterChild.inc`, which checks it.
"""

from __future__ import annotations

import bisect
import math
import random
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

#: Default histogram buckets, in milliseconds: spans memory probes
#: (microseconds) through disk accesses and wide multicasts (tens of ms).
DEFAULT_LATENCY_BUCKETS_MS: Tuple[float, ...] = (
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    5.0,
    10.0,
    25.0,
    50.0,
    100.0,
)

#: Samples a histogram child keeps for its interior percentiles.
RESERVOIR_SIZE = 4096


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of a plain list (``p`` in [0, 100]); 0.0
    on empty input.  The one list-based percentile in the repo: staleness
    audits and the scenarios' ``--json`` stats use it (a
    :class:`HistogramChild` interpolates over a reservoir instead — a
    different estimator for streams too long to keep)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(p / 100.0 * (len(ordered) - 1))))
    return ordered[index]


class MetricError(Exception):
    """Raised on registry misuse (name/type/label-schema conflicts)."""


class CounterChild:
    """One counter series (a family member for one label-value tuple)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if not amount >= 0:  # also refuses NaN
            raise MetricError(f"counters only go up, got {amount}")
        self.value += amount


class GaugeChild:
    """One gauge series: a value that can move both ways."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class HistogramChild:
    """One histogram series: cumulative buckets plus the stream itself.

    Bucket counts follow Prometheus semantics (``le`` upper bounds,
    cumulative at exposition time).  ``count``, ``sum`` (added in
    observation order), :attr:`minimum` and :attr:`maximum` are exact;
    interior percentiles come from a uniform reservoir of
    :data:`RESERVOIR_SIZE` samples, deterministic given the seed.
    """

    __slots__ = (
        "bounds", "bucket_counts", "count", "sum", "_min", "_max",
        "_reservoir", "_getrandbits",
    )

    def __init__(self, bounds: Sequence[float], seed: int = 0) -> None:
        self.bounds: Tuple[float, ...] = tuple(bounds)
        self.bucket_counts = [0] * (len(self.bounds) + 1)  # last is +Inf
        self.count = 0
        self.sum = 0.0
        self._min = math.inf
        self._max = -math.inf
        self._reservoir: List[float] = []
        self._getrandbits = random.Random(seed).getrandbits

    def observe(self, value: float) -> None:
        # Validate before touching anything: a rejected value leaves no
        # bucket counted.
        if not value >= 0:  # also refuses NaN
            raise ValueError(f"latency must be non-negative, got {value}")
        self.bucket_counts[bisect.bisect_left(self.bounds, value)] += 1
        self.count = count = self.count + 1
        self.sum += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        reservoir = self._reservoir
        if len(reservoir) < RESERVOIR_SIZE:
            reservoir.append(value)
        else:
            # ``Random._randbelow(count)`` inlined, so the draws (and every
            # percentile) are those of ``randrange(count)`` without a frame.
            getrandbits = self._getrandbits
            bits = count.bit_length()
            slot = getrandbits(bits)
            while slot >= count:
                slot = getrandbits(bits)
            if slot < RESERVOIR_SIZE:
                reservoir[slot] = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    @property
    def minimum(self) -> float:
        return self._min if self.count else 0.0

    @property
    def maximum(self) -> float:
        return self._max if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Return the ``p``-th percentile (0 <= p <= 100).

        Accuracy contract:

        - With no observations the result is ``0.0`` (matching
          :attr:`mean`/:attr:`minimum`/:attr:`maximum`), never an
          exception.
        - ``p == 0`` and ``p == 100`` return the *exact* streamed
          :attr:`minimum` / :attr:`maximum` — extremes are tracked outside
          the reservoir, so they never suffer sampling error.
        - Interior percentiles interpolate over the reservoir.  While
          ``count <= RESERVOIR_SIZE`` it holds every sample and the result
          is exact; beyond that it is a deterministic (seeded) uniform
          sample, accurate to well under a percentile point at the sample
          counts our experiments produce.
        """
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"p must be in [0, 100], got {p}")
        if not self._reservoir:
            return 0.0
        if p == 0.0:
            return self.minimum
        if p == 100.0:
            return self.maximum
        ordered = sorted(self._reservoir)
        rank = p / 100.0 * (len(ordered) - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return ordered[low]
        weight = rank - low
        return ordered[low] * (1.0 - weight) + ordered[high] * weight

    def summary(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }

    def cumulative_buckets(self) -> List[Tuple[float, int]]:
        """``(le, cumulative_count)`` pairs, ending with ``(inf, count)``."""
        out: List[Tuple[float, int]] = []
        running = 0
        for bound, count in zip(self.bounds, self.bucket_counts):
            running += count
            out.append((bound, running))
        out.append((float("inf"), running + self.bucket_counts[-1]))
        return out


class ChildMap(dict):
    """A family's raw label value -> child map (:attr:`MetricFamily.by_value`).

    A hit is a plain dict subscript; a miss creates (or finds) the child
    under the values' strings, exactly as :meth:`MetricFamily.labels`
    does, and remembers it under the raw value.
    """

    __slots__ = ("_family",)

    def __init__(self, family: "MetricFamily") -> None:
        super().__init__()
        self._family = family

    def __missing__(self, raw: object) -> object:
        family = self._family
        values = (raw,) if len(family.label_names) == 1 else raw
        if type(values) is not tuple:
            raise MetricError(
                f"{family.name} takes labels {family.label_names}: "
                f"key it by a tuple of values, got {raw!r}"
            )
        key = family._key(values)
        child = family._children.get(key)
        if child is None:
            child = family._children[key] = family._new_child()
        self[raw] = child
        return child


class MetricFamily:
    """A named metric with a fixed label schema and per-labelset children."""

    #: ``"counter"``, ``"gauge"`` or ``"histogram"``, set by each subclass.
    kind: str

    def __init__(
        self, name: str, help_text: str, label_names: Tuple[str, ...]
    ) -> None:
        self.name = name
        self.help = help_text
        self.label_names = label_names
        self._children: Dict[Tuple[str, ...], object] = {}
        #: Raw label value -> child, the family's one memo: ``by_value[7]``
        #: and ``by_value["7"]`` are two entries naming one child.
        self.by_value = ChildMap(self)

    def _new_child(self) -> object:
        raise NotImplementedError

    def _key(self, values: Tuple[object, ...]) -> Tuple[str, ...]:
        if len(values) != len(self.label_names):
            raise MetricError(
                f"{self.name} takes labels {self.label_names}, "
                f"got {len(values)} value(s)"
            )
        return tuple(map(str, values))

    def labels(self, *values: object):
        """Child for one label-value tuple (created on first use), read
        through :attr:`by_value`.

        Label values are strings or ints; two values that compare equal
        but print differently (``1`` and ``1.0``) would share a memo entry.
        """
        if len(self.label_names) == 1:
            # ``_key`` raises on any other number of values.
            return self.by_value[values[0] if len(values) == 1 else self._key(values)]
        return self.by_value[values]

    def children(self) -> Iterator[Tuple[Tuple[str, ...], object]]:
        """Deterministic (sorted by label values) iteration for exporters."""
        return iter(sorted(self._children.items()))

    def retain(self, keys: Iterable[Tuple[object, ...]]) -> None:
        """Drop children whose label values are not in ``keys``.

        Gauges describing per-server/per-group state use this to forget
        series for servers that have left the cluster.
        """
        keep = {tuple(str(v) for v in key) for key in keys}
        self.by_value.clear()  # in place: holders of the map stay current
        for key in list(self._children):
            if key not in keep:
                del self._children[key]

    def __len__(self) -> int:
        return len(self._children)

    def __repr__(self) -> str:
        return (
            f"{type(self).__name__}(name={self.name!r}, "
            f"labels={self.label_names}, children={len(self._children)})"
        )


class CounterFamily(MetricFamily):
    """Counter family; also provides the tally views legacy code expects
    (``as_dict``/``fractions``/``total``)."""

    kind = "counter"

    def _new_child(self) -> CounterChild:
        return CounterChild()

    def inc(self, amount: float = 1.0) -> None:
        """Unlabeled increment (only valid for an empty label schema)."""
        self.labels().inc(amount)

    @property
    def value(self) -> float:
        """Unlabeled value (only valid for an empty label schema)."""
        return self.labels().value

    def get(self, *values: object) -> float:
        """Value for one labelset without creating the child."""
        child = self._children.get(self._key(values))
        return child.value if child is not None else 0.0

    def as_dict(self) -> Dict[str, float]:
        """Label values -> count (single-label families read naturally)."""
        return {
            "|".join(key): child.value for key, child in self.children()
        }

    def total(self) -> float:
        return sum(child.value for child in self._children.values())

    def fractions(self) -> Dict[str, float]:
        """Each series as a fraction of the family total (empty -> {})."""
        total = self.total()
        if total == 0:
            return {}
        return {
            "|".join(key): child.value / total
            for key, child in self.children()
        }


class GaugeFamily(MetricFamily):
    kind = "gauge"

    def _new_child(self) -> GaugeChild:
        return GaugeChild()

    def set(self, value: float) -> None:
        self.labels().set(value)

    @property
    def value(self) -> float:
        return self.labels().value


class HistogramFamily(MetricFamily):
    kind = "histogram"

    def __init__(
        self,
        name: str,
        help_text: str,
        label_names: Tuple[str, ...],
        buckets: Sequence[float],
        seed: int,
    ) -> None:
        super().__init__(name, help_text, label_names)
        if list(buckets) != sorted(set(buckets)):
            raise MetricError(f"{name}: buckets must be sorted and unique")
        self.buckets = tuple(buckets)
        self._seed = seed

    def _new_child(self) -> HistogramChild:
        return HistogramChild(self.buckets, seed=self._seed)

    def observe(self, value: float) -> None:
        self.labels().observe(value)


class MetricsRegistry:
    """Registration-order collection of metric families.

    Registration is idempotent: asking for an existing name returns the
    existing family, provided kind and label schema match (a mismatch is a
    programming error and raises :class:`MetricError`).
    """

    def __init__(self) -> None:
        self._families: Dict[str, MetricFamily] = {}

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def _register(
        self, cls: type, name: str, help_text: str, labels: Sequence[str], *args
    ) -> MetricFamily:
        """The registered family ``name`` if its kind and schema match,
        else a new ``cls(name, help_text, labels, *args)``, registered: a
        repeat registration builds no family."""
        label_names = tuple(labels)
        existing = self._families.get(name)
        if existing is None:
            family = self._families[name] = cls(name, help_text, label_names, *args)
            return family
        if existing.kind != cls.kind or existing.label_names != label_names:
            raise MetricError(
                f"metric {name!r} re-registered with a different "
                f"schema: {existing.kind}{existing.label_names} vs "
                f"{cls.kind}{label_names}"
            )
        return existing

    def counter(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> CounterFamily:
        return self._register(CounterFamily, name, help_text, labels)  # type: ignore[return-value]

    def gauge(
        self, name: str, help_text: str = "", labels: Sequence[str] = ()
    ) -> GaugeFamily:
        return self._register(GaugeFamily, name, help_text, labels)  # type: ignore[return-value]

    def histogram(
        self,
        name: str,
        help_text: str = "",
        labels: Sequence[str] = (),
        buckets: Sequence[float] = DEFAULT_LATENCY_BUCKETS_MS,
        seed: int = 0,
    ) -> HistogramFamily:
        return self._register(  # type: ignore[return-value]
            HistogramFamily, name, help_text, labels, buckets, seed
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def get(self, name: str) -> Optional[MetricFamily]:
        return self._families.get(name)

    def families(self) -> List[MetricFamily]:
        """Families in registration order."""
        return list(self._families.values())

    def snapshot(self) -> Dict[str, object]:
        """A JSON-able dump of every series (histograms -> summary)."""
        out: Dict[str, object] = {}
        for family in self._families.values():
            series: Dict[str, object] = {}
            for key, child in family.children():
                label = "|".join(key)
                if family.kind == "histogram":
                    series[label] = child.summary()  # type: ignore[union-attr]
                else:
                    series[label] = child.value  # type: ignore[union-attr]
            out[family.name] = {"kind": family.kind, "series": series}
        return out

    def __contains__(self, name: str) -> bool:
        return name in self._families

    def __len__(self) -> int:
        return len(self._families)

    def __repr__(self) -> str:
        return f"MetricsRegistry(families={len(self._families)})"
