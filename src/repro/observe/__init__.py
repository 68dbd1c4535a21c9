"""Runtime observability: trace spans, unified counters, profile reports.

The engine's performance story used to rest on hand-run benchmarks and the
*analytic* counters of :mod:`repro.perfmodel` — nothing observed what the
engine actually does at runtime.  This package closes that loop, mirroring
the paper's own Fig. 7 methodology (hardware counters validating the
Table 2/3 cost model):

- :mod:`repro.observe.trace` — structured spans (``with span("rfft", n=512)``)
  recorded by a thread-local collector around the real hot-path stages.
  Disabled by default; the off path is a single flag check returning a
  shared no-op context (see ``tests/observe/test_overhead.py``).
- :mod:`repro.observe.registry` — one process-wide counter registry.  All
  cache surfaces (conv plans, weight spectra, FFT plans) report
  hits/misses here, and — while observation is enabled — every FFT
  backend invocation is counted by kind and size, with bytes moved.
- :mod:`repro.observe.profile` — joins measured stage times against the
  :mod:`repro.perfmodel` FLOP/byte predictions and flags drift
  (``python -m repro profile <preset>``).
- :mod:`repro.observe.regression` — the noise-aware CI gate
  (``python -m repro bench --check BASELINE.json``).
"""

from repro.observe.registry import (
    CounterRegistry,
    cache_stats,
    counters,
    format_cache_stats,
    record_cache_event,
)
from repro.observe.trace import (
    Span,
    aggregate_spans,
    clear_trace,
    disable_tracing,
    enable_tracing,
    format_trace,
    get_trace,
    span,
    tracing,
    tracing_enabled,
)

__all__ = [
    "CounterRegistry",
    "Span",
    "aggregate_spans",
    "cache_stats",
    "clear_trace",
    "counters",
    "disable_tracing",
    "enable_tracing",
    "format_cache_stats",
    "format_trace",
    "get_trace",
    "record_cache_event",
    "span",
    "tracing",
    "tracing_enabled",
]
