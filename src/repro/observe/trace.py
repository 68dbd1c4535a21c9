"""Structured trace spans with a thread-local collector.

Design goals, in order:

1. **Zero overhead when off.**  ``span(...)`` is the only thing the hot
   path ever touches; when tracing is disabled it is one attribute load,
   one truth test and the return of a shared no-op context manager — no
   allocation beyond the kwargs dict the call site builds.  The engine's
   steady-state call makes ~a dozen ``span()`` calls, so the disabled cost
   is a few microseconds against a call measured in hundreds
   (``tests/observe/test_overhead.py`` pins the ratio under 2%).
2. **Correct nesting across threads.**  Each thread keeps its own open-span
   stack, so spans opened on serving-pool or dispatcher threads attribute
   to their own thread and never interleave with the caller's stack.
3. **Cheap aggregation.**  Completed spans carry ``duration`` and
   ``self_duration`` (duration minus direct children), which is what the
   profile report wants: stage tables use self time so a parent span like
   ``conv2d.forward`` does not double-count its stages.

The span taxonomy used by the engine is documented in ``DESIGN.md``
("Observability" section); nothing in this module hard-codes it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One completed (or still-open) traced region."""

    name: str
    attrs: dict
    thread_id: int
    depth: int
    start_s: float
    end_s: float | None = None
    parent: "Span | None" = None
    child_s: float = 0.0
    index: int = field(default=-1)

    @property
    def duration_s(self) -> float:
        if self.end_s is None:
            return 0.0
        return self.end_s - self.start_s

    @property
    def duration_ms(self) -> float:
        return self.duration_s * 1e3

    @property
    def self_s(self) -> float:
        """Duration minus the time spent in direct child spans."""
        return max(self.duration_s - self.child_s, 0.0)

    @property
    def self_ms(self) -> float:
        return self.self_s * 1e3

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        extra = "".join(f" {k}={v}" for k, v in self.attrs.items())
        return (f"Span({self.name}, {self.duration_ms:.3f} ms, "
                f"depth={self.depth}{extra})")


class _NoopSpan:
    """Shared context manager returned by :func:`span` when tracing is off."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def add_attrs(self, **attrs) -> None:
        """No-op counterpart of :meth:`_LiveSpan.add_attrs`."""


_NOOP = _NoopSpan()


class _LiveSpan:
    """Context manager that records one :class:`Span` on exit."""

    __slots__ = ("_record",)

    def __init__(self, name: str, attrs: dict):
        stack = _local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        self._record = Span(
            name=name, attrs=attrs, thread_id=threading.get_ident(),
            depth=len(stack), parent=parent,
            start_s=time.perf_counter(),
        )
        stack.append(self._record)

    def __enter__(self) -> "_LiveSpan":
        return self

    def add_attrs(self, **attrs) -> None:
        """Attach attributes discovered mid-span (sizes, byte counts)."""
        self._record.attrs.update(attrs)

    def __exit__(self, *exc) -> bool:
        record = self._record
        record.end_s = time.perf_counter()
        stack = _local.__dict__.get("stack")
        if stack and stack[-1] is record:
            stack.pop()
        if record.parent is not None:
            record.parent.child_s += record.duration_s
        _collect(record)
        return False


class _State:
    __slots__ = ("enabled",)

    def __init__(self) -> None:
        self.enabled = False


_STATE = _State()
_local = threading.local()
_collect_lock = threading.Lock()
_completed: list[Span] = []


def _collect(record: Span) -> None:
    from repro.observe import registry

    with _collect_lock:
        record.index = len(_completed)
        _completed.append(record)
    # Spans that know their traffic feed the unified bytes-moved counter.
    nbytes = record.attrs.get("bytes")
    if nbytes is not None:
        registry.counters.add("bytes.moved", float(nbytes),
                              stage=record.name)


def span(name: str, **attrs):
    """Open a traced region; returns a context manager.

    When tracing is disabled (the default) this returns a shared no-op
    object without touching any lock or allocating a record.
    """
    if not _STATE.enabled:
        return _NOOP
    return _LiveSpan(name, attrs)


def tracing_enabled() -> bool:
    """Whether :func:`span` currently records."""
    return _STATE.enabled


def enable_tracing() -> None:
    """Start recording spans (and per-call FFT counters)."""
    _STATE.enabled = True


def disable_tracing() -> None:
    """Stop recording spans; already-collected spans are kept."""
    _STATE.enabled = False


@contextmanager
def tracing(clear: bool = True):
    """Context manager: record spans inside, restore the prior state after.

    ``clear=True`` (default) drops previously collected spans on entry so
    the yielded view is exactly the spans of the managed region.
    """
    if clear:
        clear_trace()
    previous = _STATE.enabled
    _STATE.enabled = True
    try:
        yield _completed
    finally:
        _STATE.enabled = previous


def get_trace() -> list[Span]:
    """Snapshot of all completed spans, in completion order."""
    with _collect_lock:
        return list(_completed)


def clear_trace() -> None:
    """Drop all completed spans."""
    with _collect_lock:
        _completed.clear()


def aggregate_spans(spans: list[Span] | None = None,
                    self_time: bool = True) -> dict[str, dict]:
    """Per-name totals: ``{name: {count, total_ms, mean_ms, ...}}``.

    ``self_time=True`` sums each span's self time (duration minus direct
    children) so nested stage spans do not double-count their parents;
    ``total_ms`` always reports the inclusive duration as well.
    """
    if spans is None:
        spans = get_trace()
    out: dict[str, dict] = {}
    for record in spans:
        row = out.setdefault(record.name, {
            "count": 0, "total_ms": 0.0, "self_ms": 0.0, "max_ms": 0.0,
        })
        row["count"] += 1
        row["total_ms"] += record.duration_ms
        row["self_ms"] += record.self_ms
        row["max_ms"] = max(row["max_ms"], record.duration_ms)
    for row in out.values():
        basis = row["self_ms"] if self_time else row["total_ms"]
        row["mean_ms"] = basis / row["count"] if row["count"] else 0.0
    return out


def format_trace(spans: list[Span] | None = None,
                 limit: int | None = None) -> str:
    """Indented text rendering of a span list (completion order)."""
    if spans is None:
        spans = get_trace()
    if limit is not None:
        spans = spans[:limit]
    lines = []
    for record in spans:
        extra = " ".join(
            f"{k}={v}" for k, v in record.attrs.items() if k != "bytes")
        nbytes = record.attrs.get("bytes")
        if nbytes is not None:
            extra = (extra + f" bytes={int(nbytes)}").strip()
        pad = max(1, 28 - 2 * record.depth)
        lines.append(f"{'  ' * record.depth}{record.name:<{pad}} "
                     f"{record.duration_ms:9.4f} ms  {extra}".rstrip())
    return "\n".join(lines)
