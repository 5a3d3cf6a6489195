"""Streaming progress events for long legalization runs.

A :class:`ProgressEmitter` turns the run's milestones into structured
events — phase transitions, cells placed / total, displacement-so-far,
shard and worker heartbeats, deferred/re-evaluation counters, and a
monotonic-clock ETA — delivered to an in-process callback and/or a
JSONL sink while the run is still going.  A stalled worker or a
pathological window is visible from the event stream long before the
run finishes.

Events are **observational only**: emitting them never changes the
legalization result.  The emitter is injected next to the tracer and
metrics registry (see :func:`repro.core.legalizer.legalize`), which
bundles the three into one :class:`repro.obs.observer.Observer`; the
shared :data:`NULL_PROGRESS` null object is the default, so un-instrumented
runs pay one attribute read per milestone.  Expensive event fields
(displacement-so-far is an O(placed) sum) are passed as callables and
only evaluated when the throttle actually lets an event through.

Event schema (one JSON object per line on the sink)::

    {"event": "phase", "phase": "mgl", "elapsed": 0.01, ...}
    {"event": "cells", "placed": 512, "total": 5634, "disp": 812.4,
     "eta_seconds": 12.3, "elapsed": 1.52, ...}
    {"event": "heartbeat", "kind": "shard", "shard": 2, ...}

``elapsed`` is seconds since the emitter was created, measured on the
sanctioned monotonic clock (:mod:`repro.obs.clock`) — never wall time.
All other fields are JSON scalars; extra keyword fields pass through
verbatim, so call sites can attach counters (re-evaluations, deferred
cells, live workers) without schema churn.
"""

from __future__ import annotations

import json
from typing import IO, Callable, Dict, Optional, Union

from repro.obs.clock import monotonic

__all__ = [
    "NULL_PROGRESS",
    "NullProgress",
    "ProgressEmitter",
    "ProgressEvent",
    "render_event",
]

#: One emitted event: JSON-scalar values keyed by field name.
ProgressEvent = Dict[str, object]

#: Extra event fields are JSON scalars so every sink line is lossless.
FieldValue = Union[bool, int, float, str, None]

#: Displacement-so-far is expensive to compute; call sites pass a thunk
#: and the emitter only invokes it for events that pass the throttle.
DispValue = Union[float, Callable[[], float], None]


class NullProgress:
    """Zero-overhead default emitter (and the emitter interface).

    Every method is a no-op; instrumented code gates any per-event
    computation it cannot defer behind :attr:`enabled`.
    """

    enabled: bool = False

    def phase(self, name: str, **fields: FieldValue) -> None:
        """Record entry into a named run phase (always emitted)."""
        return None

    def cells(
        self,
        placed: int,
        total: int,
        disp: DispValue = None,
        **fields: FieldValue,
    ) -> None:
        """Record placement progress (throttled; final event always out)."""
        return None

    def heartbeat(self, kind: str, **fields: FieldValue) -> None:
        """Record a liveness signal from a shard/worker (always emitted)."""
        return None

    def close(self) -> None:
        """Flush the sink, if any."""
        return None


#: Shared default instance; modules use this when no emitter is injected.
NULL_PROGRESS = NullProgress()


class ProgressEmitter(NullProgress):
    """The recording emitter: callback and/or JSONL sink delivery.

    Args:
        callback: called with each event dict, in emission order.
        sink: text stream receiving one JSON object per line, flushed
            per event so ``tail -f`` works on a live run.
        min_interval: minimum seconds between ``cells`` events (phase
            transitions and heartbeats always go out); 0 emits every
            update.
    """

    enabled = True

    def __init__(
        self,
        callback: Optional[Callable[[ProgressEvent], None]] = None,
        sink: Optional[IO[str]] = None,
        min_interval: float = 0.5,
    ) -> None:
        self.callback = callback
        self.sink = sink
        self.min_interval = min_interval
        self.events_emitted = 0
        self._t0 = monotonic()
        self._last_cells = self._t0 - min_interval

    # ------------------------------------------------------------------

    def phase(self, name: str, **fields: FieldValue) -> None:
        event: ProgressEvent = {"event": "phase", "phase": name}
        event.update(fields)
        self._emit(event, monotonic())

    def cells(
        self,
        placed: int,
        total: int,
        disp: DispValue = None,
        **fields: FieldValue,
    ) -> None:
        now = monotonic()
        final = placed >= total
        if not final and now - self._last_cells < self.min_interval:
            return
        self._last_cells = now
        event: ProgressEvent = {
            "event": "cells",
            "placed": placed,
            "total": total,
        }
        value = disp() if callable(disp) else disp
        if value is not None:
            event["disp"] = round(float(value), 3)
        # The ETA extrapolates the event's own ``elapsed`` at the same
        # precision, so it stays (total - placed) / placed times it.
        elapsed = round(now - self._t0, 6)
        if 0 < placed < total and elapsed > 0:
            remaining = (total - placed) * elapsed / placed
            event["eta_seconds"] = round(remaining, 6)
        event.update(fields)
        self._emit(event, now)

    def heartbeat(self, kind: str, **fields: FieldValue) -> None:
        event: ProgressEvent = {"event": "heartbeat", "kind": kind}
        event.update(fields)
        self._emit(event, monotonic())

    def close(self) -> None:
        if self.sink is not None:
            self.sink.flush()

    # ------------------------------------------------------------------

    def _emit(self, event: ProgressEvent, now: float) -> None:
        event["elapsed"] = round(now - self._t0, 6)
        self.events_emitted += 1
        if self.callback is not None:
            self.callback(event)
        if self.sink is not None:
            self.sink.write(json.dumps(event, sort_keys=True) + "\n")
            self.sink.flush()


def render_event(event: ProgressEvent) -> str:
    """One human-readable line per event (the ``--progress`` tty view)."""
    elapsed = event.get("elapsed", 0.0)
    stamp = f"[{float(elapsed):8.2f}s]" if isinstance(
        elapsed, (int, float)
    ) else "[       ?]"
    kind = event.get("event")
    skip = {"event", "elapsed"}
    if kind == "phase":
        head = f"{stamp} phase {event.get('phase')}"
        skip.add("phase")
    elif kind == "cells":
        placed, total = event.get("placed", 0), event.get("total", 0)
        head = f"{stamp} placed {placed}/{total}"
        if isinstance(placed, int) and isinstance(total, int) and total:
            head += f" ({100.0 * placed / total:.1f}%)"
        if "disp" in event:
            head += f" disp {event['disp']}"
            skip.add("disp")
        if "eta_seconds" in event:
            head += f" eta {event['eta_seconds']}s"
            skip.add("eta_seconds")
        skip.update(("placed", "total"))
    else:
        head = f"{stamp} {event.get('kind', kind)}"
        skip.add("kind")
    extras = " ".join(
        f"{key}={event[key]}" for key in sorted(event) if key not in skip
    )
    return f"{head} {extras}".rstrip()
