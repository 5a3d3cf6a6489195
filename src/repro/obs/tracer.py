"""Hierarchical span tracing for the legalization flow.

A *span* is one timed unit of work — ``legalize``, ``mgl``, one
scheduler ``batch``, one ``window`` (a cell's insertion search), one
pure ``evaluate`` — carrying structured attributes (window bounds,
candidates evaluated, the chosen insertion point, the resulting
displacement).  Spans nest, forming a tree per run::

    legalize
      mgl
        batch            (scheduler path only)
          window          attrs: cell, bounds, expansions, x, y, disp …
            evaluate      attrs: evaluated, found, cost, reeval …
      matching
      flow_opt

Two tracer implementations share one interface:

* :class:`NullTracer` — the default.  Every operation is a shared
  no-op; instrumented code pays one attribute lookup and an empty
  ``with`` block, nothing else.  Hot paths additionally gate their
  attribute computation on :attr:`NullTracer.enabled`.
* :class:`SpanTracer` — records the tree, exports it as a JSONL event
  stream (:meth:`SpanTracer.to_jsonl`) or Chrome trace-event JSON
  loadable in Perfetto (:meth:`SpanTracer.to_chrome_trace`), and
  digests it with :meth:`SpanTracer.structure_hash`.

**Determinism contract.**  A span's *structure* — its name, its
attributes, and its children, recursively — is a pure function of the
legalization inputs.  Timestamps and the ``meta`` side-channel (worker
indices, durations) are *non-structural*: they are excluded from
:func:`structure_hash`, which is therefore bit-identical for any
``scheduler_workers`` value (property-tested in
tests/test_trace_determinism.py).  Worker processes return their
``evaluate`` spans as plain payload dicts inside result messages (see
:mod:`repro.core.parallel`); the parent merges them **in selection
order** via :meth:`SpanTracer.attach_payloads`, so the tree never
depends on pool timing.  All timestamps come from the sanctioned
:mod:`repro.obs.clock` (repro-lint D004).

**Sampling.**  ``SpanTracer(sample_every=k)`` keeps the per-cell spans
(``window`` and its ``evaluate`` children) only for every k-th cell of
the fixed legalization order, registered once per run via
:meth:`NullTracer.set_cell_population`.  The keep/drop decision is a
pure function of the cell's *rank in that order* — never of worker
identity, shard assignment, or time — so the sampled structure hash
obeys the same worker-count-invariance contract as the full trace, and
``k=1`` is bit-identical to an unsampled trace.  Structural spans
(``legalize``/``mgl``/``batch``/``shard``/``reconcile``…) are always
kept.  Instrumented code opens per-cell spans through
:meth:`NullTracer.cell_span` and gates payload attachment on
:meth:`NullTracer.sampled`, so dropped cells pay one frozenset lookup
and nothing else.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager
from typing import (
    ClassVar,
    ContextManager,
    Dict,
    FrozenSet,
    Iterator,
    List,
    Optional,
    Sequence,
    Union,
    cast,
)

from repro.obs.clock import monotonic

__all__ = [
    "AttrValue",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "SpanPayload",
    "SpanTracer",
    "structure_hash",
]

#: Attribute values are JSON scalars so every export is lossless.
AttrValue = Union[bool, int, float, str, None]

#: The wire form of a span: the dict produced by :meth:`Span.to_payload`
#: and consumed by :meth:`Span.from_payload` /
#: :meth:`SpanTracer.attach_payloads`.  Worker processes ship these.
SpanPayload = Dict[str, object]


class Span:
    """One node of the trace tree.

    ``name``, ``attrs`` and ``children`` are structural (hashed);
    ``t_start``/``t_end`` (monotonic seconds) and ``meta`` (e.g. the
    worker index that produced a merged span) are not.
    """

    __slots__ = ("name", "attrs", "children", "t_start", "t_end", "meta")

    #: True on recorded spans, False on the shared null span — hot paths
    #: gate expensive attribute computation on this so a sampled-out
    #: cell's ``MGLegalizer.place`` costs one attribute read.
    recording: ClassVar[bool] = True

    def __init__(
        self,
        name: str,
        attrs: Optional[Dict[str, AttrValue]] = None,
        t_start: Optional[float] = None,
    ) -> None:
        self.name = name
        self.attrs: Dict[str, AttrValue] = dict(attrs) if attrs else {}
        self.children: List["Span"] = []
        self.t_start = t_start
        self.t_end: Optional[float] = None
        self.meta: Dict[str, AttrValue] = {}

    def set(self, **attrs: AttrValue) -> None:
        """Add/overwrite attributes on the open span."""
        self.attrs.update(attrs)

    @property
    def duration(self) -> Optional[float]:
        if self.t_start is None or self.t_end is None:
            return None
        return self.t_end - self.t_start

    # -- (de)serialization ---------------------------------------------

    def structure(self) -> SpanPayload:
        """Timestamp- and meta-free canonical form (the hashed part)."""
        return {
            "name": self.name,
            "attrs": {key: self.attrs[key] for key in sorted(self.attrs)},
            "children": [child.structure() for child in self.children],
        }

    def to_payload(self) -> SpanPayload:
        """Wire form: structure plus the non-structural duration/meta."""
        payload = self.structure()
        if self.duration is not None:
            payload["duration"] = self.duration
        if self.meta:
            payload["meta"] = dict(self.meta)
        return payload

    @classmethod
    def from_payload(cls, payload: SpanPayload) -> "Span":
        """Rebuild a span (tree) from its wire form; times stay unset."""
        name = payload.get("name")
        if not isinstance(name, str):
            raise ValueError(f"span payload without a name: {payload!r}")
        attrs = payload.get("attrs") or {}
        if not isinstance(attrs, dict):
            raise ValueError(f"span payload attrs must be a dict: {attrs!r}")
        span = cls(name, cast(Dict[str, AttrValue], attrs))
        children = payload.get("children") or []
        if not isinstance(children, list):
            raise ValueError("span payload children must be a list")
        for child in children:
            span.children.append(cls.from_payload(cast(SpanPayload, child)))
        meta = payload.get("meta")
        if isinstance(meta, dict):
            span.meta.update(cast(Dict[str, AttrValue], meta))
        return span

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, attrs={len(self.attrs)}, "
            f"children={len(self.children)})"
        )


def structure_hash(spans: Sequence[Span]) -> str:
    """SHA-256 over the canonical timestamp-free form of a span forest.

    This is the determinism digest: identical for any
    ``scheduler_workers`` value, across reruns, machines, and Python
    versions, because every structural attribute is a pure function of
    the legalization inputs.
    """
    canonical = json.dumps(
        [span.structure() for span in spans],
        sort_keys=True,
        separators=(",", ":"),
        allow_nan=False,
    )
    return hashlib.sha256(canonical.encode()).hexdigest()


class _NullSpan(Span):
    """The span all :class:`NullTracer` contexts yield; mutation-free."""

    __slots__ = ()

    recording: ClassVar[bool] = False

    def set(self, **attrs: AttrValue) -> None:  # noqa: D102 - no-op
        return None


_NULL_SPAN = _NullSpan("null")


class _NullSpanContext:
    """A reusable, state-free context manager yielding the null span."""

    __slots__ = ()

    def __enter__(self) -> Span:
        return _NULL_SPAN

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_CONTEXT = _NullSpanContext()


class NullTracer:
    """Zero-overhead default tracer (and the tracer interface).

    Every method is a no-op returning shared singletons; nothing is
    allocated per call beyond the keyword dict Python builds for
    ``**attrs``.  Hot paths gate richer attribute computation on
    :attr:`enabled` so the default path stays measurement-clean.
    """

    enabled: bool = False

    def span(self, name: str, **attrs: AttrValue) -> ContextManager[Span]:
        """Open a child span of the innermost open span."""
        return _NULL_CONTEXT

    def cell_span(
        self, name: str, cell: int, **attrs: AttrValue
    ) -> ContextManager[Span]:
        """Open a per-cell span, subject to the sampling policy.

        Identical to :meth:`span` when the cell is sampled (always, at
        ``sample_every=1``); yields the shared null span otherwise, so
        the caller's ``with`` block runs but records nothing.
        """
        return _NULL_CONTEXT

    def sampled(self, cell: int) -> bool:
        """Whether per-cell spans/payloads for ``cell`` are recorded."""
        return False

    def set_cell_population(self, order: Sequence[int]) -> None:
        """Register the fixed cell order the sampling policy draws from.

        Called once per run with :func:`repro.core.mgl.mgl_cell_order`
        *before* any per-cell span opens.  The sampled set is every
        k-th cell of this order — a pure function of the order itself,
        which is what keeps the sampled trace structure invariant
        across worker and shard-pool configurations.
        """
        return None

    def attach_payloads(
        self, payloads: Sequence[SpanPayload], worker: Optional[int] = None
    ) -> None:
        """Merge pre-built span payloads under the innermost open span."""
        return None


#: Shared default instance; modules use this when no tracer is injected.
NULL_TRACER = NullTracer()


class SpanTracer(NullTracer):
    """The recording tracer: builds the tree, exports, and hashes it.

    Args:
        sample_every: keep per-cell spans (``window``/``evaluate``) for
            every k-th cell of the registered cell population; 1 (the
            default) records everything.  Structural spans are always
            recorded.  See the module docstring for the determinism
            argument.
    """

    enabled = True

    def __init__(self, sample_every: int = 1) -> None:
        if sample_every < 1:
            raise ValueError(
                f"sample_every must be >= 1, got {sample_every}"
            )
        self.sample_every = sample_every
        self.roots: List[Span] = []
        self._stack: List[Span] = []
        #: The sampled cell ids; None means "record every cell" (either
        #: sample_every == 1 or no population registered yet — the safe
        #: default for direct unit-level tracer use).
        self._sampled: Optional[FrozenSet[int]] = None

    # -- recording -----------------------------------------------------

    def span(self, name: str, **attrs: AttrValue) -> ContextManager[Span]:
        return self._open(name, attrs)

    def cell_span(
        self, name: str, cell: int, **attrs: AttrValue
    ) -> ContextManager[Span]:
        sampled = self._sampled
        if sampled is None or cell in sampled:
            return self._open(name, attrs)
        return _NULL_CONTEXT

    def sampled(self, cell: int) -> bool:
        sampled = self._sampled
        return sampled is None or cell in sampled

    def set_cell_population(self, order: Sequence[int]) -> None:
        if self.sample_every > 1:
            self._sampled = frozenset(order[:: self.sample_every])

    @contextmanager
    def _open(self, name: str, attrs: Dict[str, AttrValue]) -> Iterator[Span]:
        span = Span(name, attrs, t_start=monotonic())
        if self._stack:
            self._stack[-1].children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        try:
            yield span
        finally:
            span.t_end = monotonic()
            self._stack.pop()

    def attach_payloads(
        self, payloads: Sequence[SpanPayload], worker: Optional[int] = None
    ) -> None:
        """Adopt externally produced spans (e.g. from worker processes).

        Payloads are appended as children of the innermost open span in
        the order given — the caller is responsible for that order being
        deterministic (the scheduler attaches in selection order).  The
        payload's ``duration`` is preserved; its start time is synthetic
        (the merge instant), since worker clocks are not comparable to
        the parent's.  ``worker`` (or a ``"worker"`` payload key) lands
        in the span's non-structural ``meta``.
        """
        now = monotonic()
        target = self._stack[-1].children if self._stack else self.roots
        for payload in payloads:
            span = Span.from_payload(payload)
            duration = payload.get("duration")
            span.t_start = now
            if isinstance(duration, (int, float)) and not isinstance(
                duration, bool
            ):
                span.t_end = now + float(duration)
            else:
                span.t_end = now
            origin = payload.get("worker", worker)
            if isinstance(origin, int):
                span.meta["worker"] = origin
            target.append(span)

    # -- digests & exports ---------------------------------------------

    def structure_hash(self) -> str:
        """Determinism digest of the recorded forest (timestamps stripped)."""
        return structure_hash(self.roots)

    def span_count(self) -> int:
        def count(span: Span) -> int:
            return 1 + sum(count(child) for child in span.children)

        return sum(count(root) for root in self.roots)

    def to_jsonl(self) -> str:
        """One JSON object per span, depth-first, ``depth`` marking nesting."""
        lines: List[str] = []

        def walk(span: Span, depth: int) -> None:
            record: Dict[str, object] = {
                "event": "span",
                "depth": depth,
                "name": span.name,
                "attrs": {key: span.attrs[key] for key in sorted(span.attrs)},
                "t_start": span.t_start,
                "t_end": span.t_end,
            }
            if span.meta:
                record["meta"] = {
                    key: span.meta[key] for key in sorted(span.meta)
                }
            lines.append(json.dumps(record, sort_keys=True))
            for child in span.children:
                walk(child, depth + 1)

        for root in self.roots:
            walk(root, 0)
        return "\n".join(lines) + "\n" if lines else ""

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as handle:
            handle.write(self.to_jsonl())

    def to_chrome_trace(self) -> Dict[str, object]:
        """Chrome trace-event JSON (the format Perfetto loads).

        Every span becomes one complete (``"ph": "X"``) event; nesting
        is implied by time containment on the same track.  Spans merged
        from workers render on per-worker tracks (``tid`` = worker + 1)
        so the pool's activity reads at a glance; the parent runs on
        ``tid`` 0.
        """
        events: List[Dict[str, object]] = []
        starts = [
            span.t_start
            for span in self._walk_all()
            if span.t_start is not None
        ]
        base = min(starts) if starts else 0.0

        def walk(span: Span) -> None:
            t_start = span.t_start if span.t_start is not None else base
            duration = span.duration or 0.0
            worker = span.meta.get("worker")
            events.append({
                "name": span.name,
                "cat": "repro",
                "ph": "X",
                "ts": round((t_start - base) * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": 0,
                "tid": worker + 1 if isinstance(worker, int) else 0,
                "args": {key: span.attrs[key] for key in sorted(span.attrs)},
            })
            for child in span.children:
                walk(child)

        for root in self.roots:
            walk(root)
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.to_chrome_trace(), handle, indent=1)
            handle.write("\n")

    def _walk_all(self) -> Iterator[Span]:
        stack = list(reversed(self.roots))
        while stack:
            span = stack.pop()
            yield span
            stack.extend(reversed(span.children))

    def __repr__(self) -> str:
        return f"SpanTracer({len(self.roots)} roots, {self.span_count()} spans)"
