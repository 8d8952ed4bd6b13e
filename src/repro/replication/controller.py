"""Replication lag tracking and SLO surface.

The :class:`ReplicationController` owns the ship cadence: each
:meth:`tick` runs one shipper pass, observes per-entry ship lag (virtual
ms between capture and cumulative ack) into the
``replication_ship_lag_ms`` histogram, and refreshes the per-home lag
gauges (``replication_lag_entries`` / ``replication_lag_seconds``).

The lag histogram's buckets go to 10 virtual seconds (replication lag
lives on the ship cadence, not the microsecond RPC scale of
``DEFAULT_LATENCY_BUCKETS_MS``); the ``replication-ship-lag`` SLO
objective (:func:`repro.obs.slo.replication_objectives`) thresholds on
the 1000 ms bound.  The controller also keeps the raw lag samples so
the drill can report exact percentiles.
"""

from __future__ import annotations

from typing import Dict, List

from repro.replication.cdc import ChangeCapture
from repro.replication.ship import ReplicationShipper, ShipReport

#: Bucket bounds for ship lag, in virtual milliseconds.  The SLO
#: threshold must be one of these (1000.0).
LAG_BUCKETS_MS = (
    1.0, 5.0, 10.0, 25.0, 50.0, 100.0,
    250.0, 500.0, 1000.0, 2500.0, 5000.0, 10000.0,
)


class ReplicationController:
    """Drives shipping and exposes replication lag as metrics."""

    def __init__(
        self,
        capture: ChangeCapture,
        shipper: ReplicationShipper,
        metrics=None,
    ) -> None:
        self.capture = capture
        self.shipper = shipper
        #: Raw acked-entry lag samples (virtual ms), for exact drill
        #: percentiles; the histogram carries the bucketed view.
        self.lag_samples_ms: List[float] = []
        self.ticks = 0
        self._lag_hist = None
        if metrics is not None:
            self._lag_hist = metrics.histogram(
                "replication_ship_lag_ms",
                "Virtual ms between capture and cumulative ack, per entry.",
                buckets=LAG_BUCKETS_MS,
            )
            self._lag_entries = metrics.gauge(
                "replication_lag_entries",
                "Captured-but-unacked entries, by home.",
                labels=("home",),
            )
            self._lag_seconds = metrics.gauge(
                "replication_lag_seconds",
                "Virtual age of the oldest unacked entry, by home.",
                labels=("home",),
            )

    # ------------------------------------------------------------------
    def tick(self, now: float) -> ShipReport:
        """One ship pass at virtual time ``now``; updates lag metrics."""
        self.ticks += 1
        report = self.shipper.ship(now)
        for home in sorted(report.acked):
            for entry in report.acked[home]:
                lag_ms = max(0.0, (now - entry.vtime) * 1000.0)
                self.lag_samples_ms.append(lag_ms)
                if self._lag_hist is not None:
                    self._lag_hist.observe(lag_ms)
        self.refresh_gauges(now)
        return report

    def refresh_gauges(self, now: float) -> None:
        if self._lag_hist is None:
            return
        for home in self.capture.homes():
            floor = self.shipper.floors.get(home, 0)
            self._lag_entries.labels(home).set(
                self.capture.last_seq(home) - floor
            )
            oldest = self.capture.oldest_pending_vtime(home, floor)
            lag_s = 0.0 if oldest is None else max(0.0, now - oldest)
            self._lag_seconds.labels(home).set(lag_s)

    # ------------------------------------------------------------------
    def lag_entries(self, home_id: int) -> int:
        return self.capture.last_seq(home_id) - self.shipper.floors.get(
            home_id, 0
        )

    def lag_percentile(self, p: float) -> float:
        """Nearest-rank percentile of the acked-lag samples (0 when no
        entry has been acked yet)."""
        if not self.lag_samples_ms:
            return 0.0
        ordered = sorted(self.lag_samples_ms)
        if p <= 0:
            return ordered[0]
        if p >= 100:
            return ordered[-1]
        rank = max(1, int(round(p / 100.0 * len(ordered) + 0.5)))
        return ordered[min(rank, len(ordered)) - 1]

    def summary(self) -> Dict[str, object]:
        floors = self.shipper.floors
        per_home = {
            str(home): {
                "captured": self.capture.last_seq(home),
                "acked": floors.get(home, 0),
                "lag_entries": self.lag_entries(home),
            }
            for home in self.capture.homes()
        }
        return {
            "ticks": self.ticks,
            "homes": per_home,
            "pending_total": self.capture.pending_total(floors),
            "acked_lag_ms": {
                "p50": round(self.lag_percentile(50), 3),
                "p95": round(self.lag_percentile(95), 3),
                "p99": round(self.lag_percentile(99), 3),
                "max": round(self.lag_percentile(100), 3),
            },
        }
