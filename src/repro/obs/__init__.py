"""Observability: tracing, metrics, progress, manifests, logging.

Import surface is deliberately light — tracer, metrics, progress, the
observer that bundles them, clock, and log only, so ``repro.obs`` can be
imported from anywhere in the package (including :mod:`repro.core`)
without cycles.  Manifests, span profiles, the run store, and the
report renderer import model/io types and live behind explicit
``repro.obs.manifest`` / ``repro.obs.profile`` / ``repro.obs.runstore``
/ ``repro.obs.report`` imports.
"""

from repro.obs.clock import monotonic
from repro.obs.log import get_logger, setup_logging
from repro.obs.metrics import (
    BATCH_OCCUPANCY_BUCKETS,
    DISPLACEMENT_BUCKETS,
    EXPANSION_BUCKETS,
    Histogram,
    MetricsRegistry,
    parse_prometheus,
)
from repro.obs.observer import NULL_OBSERVER, Observer
from repro.obs.progress import (
    NULL_PROGRESS,
    NullProgress,
    ProgressEmitter,
    render_event,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    SpanPayload,
    SpanTracer,
    structure_hash,
)

__all__ = [
    "BATCH_OCCUPANCY_BUCKETS",
    "DISPLACEMENT_BUCKETS",
    "EXPANSION_BUCKETS",
    "Histogram",
    "MetricsRegistry",
    "NULL_OBSERVER",
    "NULL_PROGRESS",
    "NULL_TRACER",
    "NullProgress",
    "NullTracer",
    "Observer",
    "ProgressEmitter",
    "Span",
    "SpanPayload",
    "SpanTracer",
    "get_logger",
    "monotonic",
    "parse_prometheus",
    "render_event",
    "setup_logging",
    "structure_hash",
]
