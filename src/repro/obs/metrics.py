"""Deterministic metrics registry: counters, gauges, and histograms.

One :class:`MetricsRegistry` collects everything a run observes:

* **counters** — monotone integer totals (insertions evaluated, cache
  hits, scheduler re-evaluations);
* **gauges** — last-write-wins floats;
* **timings** — accumulated stage seconds plus call counts (the
  :class:`repro.perf.PerfRecorder` stage timers live here);
* **histograms** — fixed-bucket distributions: per-height-class
  displacement in row-height units (the distribution behind S_am /
  Eq. 2 and max-disp), window expansion depth, scheduler batch
  occupancy.

Everything except the timings is a pure function of the legalization
inputs, and serialization (:meth:`MetricsRegistry.as_dict` with
``sort_keys`` at dump time) is deterministic: two runs of the same
design at any worker count produce byte-identical counter/gauge/
histogram sections.  The registry is injected explicitly (usually via a
:class:`repro.perf.PerfRecorder`); un-instrumented runs never touch it.
"""

from __future__ import annotations

import bisect
import json
from typing import Dict, List, Optional, Sequence, Tuple

__all__ = [
    "BATCH_OCCUPANCY_BUCKETS",
    "BATCH_WIDTH_BUCKETS",
    "DISPLACEMENT_BUCKETS",
    "EXPANSION_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "SHARD_OCCUPANCY_BUCKETS",
    "parse_prometheus",
]

#: Displacement buckets in row-height units.  Well-legalized cells land
#: in the first few; the tail is the max-disp story the §3.2 matching
#: stage exists to crush.
DISPLACEMENT_BUCKETS: Tuple[float, ...] = (
    0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
)

#: MGL window expansion depth per cell (0 = first window fit).
EXPANSION_BUCKETS: Tuple[float, ...] = (
    0.0, 1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0,
)

#: Scheduler batch occupancy (windows actually packed into one L_p batch).
BATCH_OCCUPANCY_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
)

#: Width of batched insertion evaluations (``evaluate_insert_many``
#: tasks per call); same shape as the batch-occupancy buckets so the
#: two distributions compare directly.
BATCH_WIDTH_BUCKETS: Tuple[float, ...] = (
    1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0,
)

#: Cells placed per shard interior (the ``shard.occupancy`` histogram of
#: repro.core.shard) — a skewed distribution means the row-band cuts
#: landed badly for this design's GP density.
SHARD_OCCUPANCY_BUCKETS: Tuple[float, ...] = (
    16.0, 64.0, 256.0, 1024.0, 4096.0, 16384.0, 65536.0,
)


class Histogram:
    """A fixed-bucket histogram with inclusive upper bounds.

    A value ``v`` lands in the first bucket whose bound satisfies
    ``v <= bound``; values above every bound land in the implicit
    overflow bucket, so ``len(counts) == len(bounds) + 1`` always.
    Bounds are fixed at construction — merged or diffed histograms never
    need re-bucketing.
    """

    __slots__ = ("bounds", "counts", "total", "sum")

    def __init__(self, bounds: Sequence[float]) -> None:
        cleaned = tuple(float(bound) for bound in bounds)
        if not cleaned or list(cleaned) != sorted(set(cleaned)):
            raise ValueError(
                f"histogram bounds must be strictly increasing: {bounds!r}"
            )
        self.bounds = cleaned
        self.counts: List[int] = [0] * (len(cleaned) + 1)
        self.total = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        """Record one sample."""
        self.counts[bisect.bisect_left(self.bounds, value)] += 1
        self.total += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.total if self.total else 0.0

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot (floats rounded for stable text output)."""
        return {
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.total,
            "sum": round(self.sum, 6),
            "mean": round(self.mean, 6),
        }

    def __repr__(self) -> str:
        return f"Histogram({len(self.bounds)} buckets, {self.total} samples)"


class MetricsRegistry:
    """Counters, gauges, timings, and histograms for one run."""

    def __init__(self) -> None:
        self.timings: Dict[str, float] = {}
        self.stage_calls: Dict[str, int] = {}
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.histograms: Dict[str, Histogram] = {}

    # -- recording -----------------------------------------------------

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.counters[name] = self.counters.get(name, 0) + amount

    def record_time(self, name: str, seconds: float) -> None:
        """Accumulate a stage duration (and its call count)."""
        self.timings[name] = self.timings.get(name, 0.0) + seconds
        self.stage_calls[name] = self.stage_calls.get(name, 0) + 1

    def set_gauge(self, name: str, value: float) -> None:
        """Set a last-write-wins gauge."""
        self.gauges[name] = value

    def histogram(
        self, name: str, bounds: Optional[Sequence[float]] = None
    ) -> Histogram:
        """Fetch (or create, given ``bounds``) the histogram ``name``.

        Bounds are part of a histogram's identity: re-registering an
        existing name with different bounds raises.
        """
        existing = self.histograms.get(name)
        if existing is not None:
            if bounds is not None and tuple(
                float(bound) for bound in bounds
            ) != existing.bounds:
                raise ValueError(
                    f"histogram {name!r} already registered with bounds "
                    f"{existing.bounds}"
                )
            return existing
        if bounds is None:
            raise KeyError(f"histogram {name!r} not registered")
        created = Histogram(bounds)
        self.histograms[name] = created
        return created

    def observe(self, name: str, value: float, bounds: Sequence[float]) -> None:
        """One-call convenience: register-if-needed and record a sample."""
        self.histogram(name, bounds).observe(value)

    # -- reporting -----------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every section (sorted at dump time)."""
        return {
            "timings": {
                name: round(seconds, 6)
                for name, seconds in self.timings.items()
            },
            "stage_calls": dict(self.stage_calls),
            "counters": dict(self.counters),
            "gauges": {
                name: round(value, 6) for name, value in self.gauges.items()
            },
            "histograms": {
                name: histogram.as_dict()
                for name, histogram in self.histograms.items()
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def render_prometheus(self, prefix: str = "repro") -> str:
        """Prometheus text-exposition snapshot of every section.

        Counters map to ``counter`` series (``_total`` suffix), gauges
        to ``gauge``, stage timings to ``_seconds_total`` /
        ``_calls_total`` counter pairs, and histograms to the standard
        cumulative ``_bucket{le=...}`` / ``_sum`` / ``_count`` triplet —
        the bucket semantics match (:class:`Histogram` bounds are
        inclusive upper bounds, exactly Prometheus ``le``).  Series are
        emitted in sorted name order, so the output is deterministic
        and diff-friendly; an empty registry renders to "".
        """
        lines: List[str] = []

        def metric(name: str, suffix: str = "") -> str:
            cleaned = "".join(
                ch if ch.isalnum() or ch == "_" else "_" for ch in name
            )
            return f"{prefix}_{cleaned}{suffix}"

        def fmt(value: float) -> str:
            return repr(float(value))

        for name in sorted(self.counters):
            series = metric(name, "_total")
            lines.append(f"# TYPE {series} counter")
            lines.append(f"{series} {self.counters[name]}")
        for name in sorted(self.gauges):
            series = metric(name)
            lines.append(f"# TYPE {series} gauge")
            lines.append(f"{series} {fmt(self.gauges[name])}")
        for name in sorted(self.timings):
            series = metric(name, "_seconds_total")
            lines.append(f"# TYPE {series} counter")
            lines.append(f"{series} {fmt(self.timings[name])}")
            calls = metric(name, "_calls_total")
            lines.append(f"# TYPE {calls} counter")
            lines.append(f"{calls} {self.stage_calls.get(name, 0)}")
        for name in sorted(self.histograms):
            histogram = self.histograms[name]
            series = metric(name)
            lines.append(f"# TYPE {series} histogram")
            cumulative = 0
            for bound, count in zip(histogram.bounds, histogram.counts):
                cumulative += count
                lines.append(
                    f'{series}_bucket{{le="{fmt(bound)}"}} {cumulative}'
                )
            lines.append(f'{series}_bucket{{le="+Inf"}} {histogram.total}')
            lines.append(f"{series}_sum {fmt(histogram.sum)}")
            lines.append(f"{series}_count {histogram.total}")
        return "\n".join(lines) + "\n" if lines else ""

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry({len(self.timings)} stages, "
            f"{len(self.counters)} counters, {len(self.gauges)} gauges, "
            f"{len(self.histograms)} histograms)"
        )


def parse_prometheus(text: str) -> Dict[str, float]:
    """Flat ``series -> value`` map from text-exposition output.

    The inverse of :meth:`MetricsRegistry.render_prometheus` as far as
    diffing needs: ``# TYPE``/``# HELP`` comments are skipped, labeled
    series keep their label block in the key (so every histogram bucket
    stays its own entry), and unparsable lines are ignored rather than
    fatal — a run-dir ``metrics.prom`` diff must not die on one strange
    line.  ``repro report`` uses this to render metric deltas between
    two run directories.
    """
    series: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        # "name{labels} value" or "name value"; labels may hold spaces.
        closing = line.rfind("}")
        split_at = line.find(" ", closing + 1) if closing >= 0 else line.find(" ")
        if split_at < 0:
            continue
        name, raw_value = line[:split_at], line[split_at + 1 :].strip()
        try:
            series[name] = float(raw_value)
        except ValueError:
            continue
    return series
