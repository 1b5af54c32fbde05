"""Hierarchical spans over virtual time.

A span is one timed step of a run — a transaction, a service invocation,
an RPC hop, a compensation pass — with a status and a link to the span
it ran inside.  The simulation is synchronous (RPCs block, services run
in-process), so a single active-span stack per collector reconstructs
the full hierarchy: whatever is on top of the stack when a span starts
is its parent.

Long-lived spans that do not nest strictly (a transaction stays open
across many top-level invocations) open *detached*
(:meth:`SpanCollector.start`): they never join the stack, and children
name them explicitly via ``parent=``.

A step opened as ``with collector.span(...) as span:`` ends by one rule
(:class:`_SpanScope`): ``ok``; ``disconnected`` with ``dead_peer``
when a :class:`~repro.errors.PeerDisconnected` escapes; ``fault`` with
``fault_name`` for a :class:`~repro.errors.ServiceFault`;
``error:<Type>`` for any other exception.  A body that ended its span
itself (``reused``, ``recovered``) keeps that status.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

from repro.errors import PeerDisconnected, ServiceFault


@dataclass
class Span:
    """One timed, attributed step of a simulation run."""

    span_id: int
    name: str
    kind: str  # transaction | invoke | rpc | service | compensation | ...
    peer: str = ""
    txn_id: str = ""
    start: float = 0.0
    end: Optional[float] = None
    status: str = "running"  # ok | committed | aborted | fault | disconnected | ...
    parent_id: Optional[int] = None
    attrs: Dict[str, str] = field(default_factory=dict)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> Optional[float]:
        return None if self.end is None else self.end - self.start

    def to_dict(self) -> Dict[str, object]:
        return {
            "span_id": self.span_id,
            "name": self.name,
            "kind": self.kind,
            "peer": self.peer,
            "txn_id": self.txn_id,
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "parent_id": self.parent_id,
            "attrs": dict(self.attrs),
        }

    def __str__(self) -> str:
        took = "…" if self.duration is None else f"{self.duration:.4f}s"
        return f"[{self.kind}] {self.name} ({self.status}, {took})"


class _SpanScope:
    """What :meth:`SpanCollector.span` returns: the module's rule."""

    __slots__ = ("collector", "span")

    def __init__(self, collector: "SpanCollector", span: Span):
        self.collector = collector
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, exc_type, exc, tb) -> bool:
        span = self.span
        if span.end is None:  # else the body already chose the status
            if exc is None:
                self.collector.end(span)
            elif isinstance(exc, PeerDisconnected):
                self.collector.end(span, "disconnected", dead_peer=exc.peer_id)
            elif isinstance(exc, ServiceFault):
                self.collector.end(span, "fault", fault_name=exc.fault_name)
            else:
                self.collector.end(span, f"error:{type(exc).__name__}")
        return False


class SpanCollector:
    """Collects spans for one simulation run.

    ``now`` supplies virtual time — the owning network passes
    ``lambda: clock.now`` so span timestamps line up with the metrics.
    """

    def __init__(self, now: Callable[[], float]):
        self.now = now
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._ids = itertools.count(1)

    # -- lifecycle ------------------------------------------------------

    def start(
        self,
        name: str,
        kind: str,
        peer: str = "",
        txn_id: str = "",
        parent: Optional[Span] = None,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> Span:
        """Open a detached span: it stays off the active stack (for
        long-lived spans, e.g. whole transactions, that outlive strict
        nesting); its parent is *parent* or the innermost open span.
        *attrs* annotate it, each value stored as text."""
        return self._open(name, kind, peer, txn_id, parent, attrs, stacked=False)

    def span(
        self,
        name: str,
        kind: str,
        peer: str = "",
        txn_id: str = "",
        parent: Optional[Span] = None,
        attrs: Optional[Mapping[str, object]] = None,
    ) -> "_SpanScope":
        """``with collector.span(...) as span:`` opens a span on the stack
        that ends by the module's rule."""
        return _SpanScope(self, self._open(name, kind, peer, txn_id, parent, attrs, stacked=True))

    def _open(
        self, name: str, kind: str, peer: str, txn_id: str,
        parent: Optional[Span], attrs: Optional[Mapping[str, object]], stacked: bool,
    ) -> Span:
        if parent is None and self._stack:
            parent = self._stack[-1]
        span = Span(
            span_id=next(self._ids),
            name=name,
            kind=kind,
            peer=peer,
            txn_id=txn_id,
            start=self.now(),
            parent_id=None if parent is None else parent.span_id,
            attrs={k: str(v) for k, v in attrs.items()} if attrs else {},
        )
        self.spans.append(span)
        if stacked:
            self._stack.append(span)
        return span

    def end(self, span: Span, status: str = "ok", **attrs: str) -> Span:
        """Close a span (idempotent); takes it off the active stack by identity."""
        if span.end is None:
            span.end = self.now()
            span.status = status
            if attrs:
                span.attrs.update({k: str(v) for k, v in attrs.items()})
        stack = self._stack
        if stack and stack[-1] is span:
            stack.pop()
            return span
        for position in range(len(stack) - 2, -1, -1):
            if stack[position] is span:
                del stack[position]
                break
        return span

    def current(self) -> Optional[Span]:
        """The innermost open (stacked) span, if any."""
        return self._stack[-1] if self._stack else None

    # -- reading --------------------------------------------------------

    def __len__(self) -> int:
        return len(self.spans)

    def finished(self) -> List[Span]:
        return [s for s in self.spans if s.finished]

    def by_kind(self, kind: str) -> List[Span]:
        return [s for s in self.spans if s.kind == kind]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans if s.parent_id == span.span_id]

    def slowest(self) -> List[Span]:
        """The five longest finished spans."""
        pool = [s for s in self.spans if s.finished]
        pool.sort(key=lambda s: (-(s.duration or 0.0), s.span_id))
        return pool[:5]

    def summary(self) -> Dict[str, object]:
        """Counts by kind and by status, plus the open-span count."""
        by_kind: Dict[str, int] = {}
        by_status: Dict[str, int] = {}
        for span in self.spans:
            by_kind[span.kind] = by_kind.get(span.kind, 0) + 1
            by_status[span.status] = by_status.get(span.status, 0) + 1
        return {
            "total": len(self.spans),
            "open": sum(1 for s in self.spans if not s.finished),
            "by_kind": by_kind,
            "by_status": by_status,
        }

    # -- export ---------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        return {
            "summary": self.summary(),
            "spans": [span.to_dict() for span in self.spans],
        }

    def __repr__(self) -> str:
        return f"SpanCollector(spans={len(self.spans)}, open={len(self._stack)})"
