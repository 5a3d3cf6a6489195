"""Lightweight wall-time and counter instrumentation.

A :class:`PerfRecorder` is now a thin shim over
:class:`repro.obs.metrics.MetricsRegistry`: stage timings, counters,
gauges, and histograms all live in the registry, and the recorder keeps
the original recording/reporting API (``stage``/``record``/``count``/
``as_dict``/``summary``) on top of it.  Code holding a recorder can
reach the richer registry via :attr:`PerfRecorder.registry`.

The recorder is injected explicitly — there is no module-global
recorder — so un-instrumented runs pay nothing and instrumented runs
stay easy to reason about: recording happens only in the serial
orchestration layers (:class:`repro.core.legalizer.Legalizer`, the CLI,
benchmark drivers), never inside the pure evaluation paths that worker
processes execute.

Timings are wall-clock and therefore non-deterministic; they live only
in perf reports and never feed back into any placement decision.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping, Optional, Union

from repro.obs.clock import monotonic
from repro.obs.metrics import MetricsRegistry

PerfValue = Union[int, float, str]


class PerfRecorder:
    """Accumulates per-stage wall times and named integer counters.

    Attributes:
        registry: the backing :class:`MetricsRegistry`.
        timings: seconds per stage name; repeated stages accumulate.
        stage_calls: how many times each stage ran.
        counters: named integer counters (merged legalizer stats etc.).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    # The legacy attribute surface stays live views into the registry.

    @property
    def timings(self) -> Dict[str, float]:
        return self.registry.timings

    @property
    def stage_calls(self) -> Dict[str, int]:
        return self.registry.stage_calls

    @property
    def counters(self) -> Dict[str, int]:
        return self.registry.counters

    # -- recording -----------------------------------------------------

    @contextmanager
    def stage(self, name: str) -> Iterator[None]:
        """Time a ``with``-block under ``name`` (accumulating)."""
        start = monotonic()
        try:
            yield
        finally:
            self.registry.record_time(name, monotonic() - start)

    def record(self, name: str, seconds: float) -> None:
        """Record an externally measured stage duration (accumulating)."""
        self.registry.record_time(name, seconds)

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        self.registry.count(name, amount)

    def merge_counters(
        self, counters: Mapping[str, int], prefix: str = ""
    ) -> None:
        """Fold a stats mapping (e.g. ``MGLegalizer.stats``) into ours."""
        for name, value in counters.items():
            self.registry.count(prefix + name, value)

    # -- reporting -----------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """JSON-ready snapshot of every registry section."""
        return self.registry.as_dict()

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def write_json(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_json() + "\n")

    def summary(self) -> str:
        """Human-readable report, stages by descending time."""
        lines = ["perf summary"]
        timings = self.registry.timings
        total = sum(timings.values())
        for name, seconds in sorted(
            timings.items(), key=lambda item: -item[1]
        ):
            share = 100.0 * seconds / total if total > 0 else 0.0
            lines.append(f"  {name:24s} {seconds:9.3f}s  {share:5.1f}%")
        if self.registry.counters:
            lines.append("counters")
            for name in sorted(self.registry.counters):
                lines.append(
                    f"  {name:32s} {self.registry.counters[name]:>12d}"
                )
        if self.registry.gauges:
            lines.append("gauges")
            for name in sorted(self.registry.gauges):
                lines.append(
                    f"  {name:32s} {self.registry.gauges[name]:>12.4f}"
                )
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"PerfRecorder({len(self.registry.timings)} stages, "
            f"{len(self.registry.counters)} counters)"
        )
