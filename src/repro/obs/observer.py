"""One observability handle: span tracer, metrics registry, progress.

The legalization flow threads a single :class:`Observer` through every
layer instead of three separate handles.  Each part keeps its own
null default — :data:`~repro.obs.tracer.NULL_TRACER`, no registry, and
:data:`~repro.obs.progress.NULL_PROGRESS` — so :data:`NULL_OBSERVER`
costs un-instrumented runs one attribute read per call site and
nothing else.  Instrumented code reads :attr:`Observer.tracer` and
:attr:`Observer.progress` directly and records metrics through
:meth:`count` / :meth:`observe` / :meth:`record_time`, which do nothing
without a registry.

:meth:`Observer.stage` is the one way a flow stage is timed: it fires
the progress phase, opens the stage span, and records the stage's
single wall time in the registry; the same number is what
:class:`repro.core.legalizer.StageMetrics` reports as ``seconds``.

Like its parts, the observer is observational only: placements are
bit-identical with any combination of parts attached.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator, Optional, Sequence

from repro.obs.clock import monotonic
from repro.obs.metrics import MetricsRegistry
from repro.obs.progress import NULL_PROGRESS, FieldValue, NullProgress
from repro.obs.tracer import NULL_TRACER, NullTracer, Span

__all__ = ["NULL_OBSERVER", "Observer", "Stage"]


class Stage:
    """One open :meth:`Observer.stage`: its span, then its wall time.

    ``seconds`` is 0.0 while the stage runs and holds the recorded
    duration once the ``with`` block has exited.
    """

    __slots__ = ("span", "seconds")

    def __init__(self, span: Span) -> None:
        self.span = span
        self.seconds = 0.0


class Observer:
    """Tracer, metrics registry and progress emitter behind one handle.

    Args:
        tracer: span tracer; the shared null tracer when omitted.
        metrics: metrics registry; metric calls are no-ops when omitted.
        progress: progress emitter; the shared null emitter when omitted.
    """

    __slots__ = ("tracer", "metrics", "progress")

    def __init__(
        self,
        tracer: Optional[NullTracer] = None,
        metrics: Optional[MetricsRegistry] = None,
        progress: Optional[NullProgress] = None,
    ) -> None:
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.metrics = metrics
        self.progress = progress if progress is not None else NULL_PROGRESS

    def count(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` to the counter ``name``."""
        if self.metrics is not None:
            self.metrics.count(name, amount)

    def observe(self, name: str, value: float, bounds: Sequence[float]) -> None:
        """Record one sample in the histogram ``name``."""
        if self.metrics is not None:
            self.metrics.observe(name, value, bounds)

    def record_time(self, name: str, seconds: float) -> None:
        """Accumulate ``seconds`` under the timing ``name``."""
        if self.metrics is not None:
            self.metrics.record_time(name, seconds)

    @contextmanager
    def stage(self, name: str, **fields: FieldValue) -> Iterator[Stage]:
        """Run a flow stage: progress phase, span, and one timing.

        ``fields`` ride on the progress phase event only; the span opens
        bare, so attributes set on ``Stage.span`` are the caller's
        choice.  A stage that raises records no timing.
        """
        self.progress.phase(name, **fields)
        start = monotonic()
        with self.tracer.span(name) as span:
            stage = Stage(span)
            yield stage
        stage.seconds = monotonic() - start
        self.record_time(name, stage.seconds)


#: Shared default: null tracer, no registry, null progress.
NULL_OBSERVER = Observer()
