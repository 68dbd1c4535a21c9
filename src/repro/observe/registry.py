"""One process-wide counter registry for every runtime metric.

Before this module each cache kept its own ad-hoc hit/miss dicts
(``fft/plan.py``, the module-level spectrum cache, per-``Conv2d`` spectrum
caches) and the CLI read them inconsistently.  Now every surface reports
events here, and ``python -m repro cache-stats`` renders one coherent table
from this registry.

Counters are keyed by ``(name, tags)`` where *tags* is a sorted tuple of
``(key, value)`` pairs — e.g. FFT invocations are recorded as
``("fft.calls", (("kind", "rfft"), ("n", 512)))`` so per-size/per-kind
breakdowns fall out of the key structure.

Two classes of counters:

- **cache events** (always on): plan/spectrum/FFT-plan/layer-spectrum
  hits and misses.  These were always counted; the registry just unifies
  where.
- **per-call metrics** (on only while tracing is enabled): FFT backend
  invocations by kind and size, rows transformed, bytes moved per stage.
  The hot path guards these behind the same flag as spans, so the
  disabled cost stays a single truth test.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

Tags = tuple[tuple[str, object], ...]


@dataclass(frozen=True)
class CounterRow:
    """One (name, tags, value) snapshot row."""

    name: str
    tags: Tags
    value: float

    @property
    def tag_dict(self) -> dict:
        return dict(self.tags)


class CounterRegistry:
    """Thread-safe additive counters keyed by name + tags."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._data: dict[tuple[str, Tags], float] = {}
        #: Last-merged absolute value per (source, key) — see merge_rows.
        self._merge_state: dict[tuple[str, tuple[str, Tags]], float] = {}

    @staticmethod
    def _key(name: str, tags: dict) -> tuple[str, Tags]:
        return name, tuple(sorted(tags.items()))

    def add(self, name: str, value: float = 1.0, **tags) -> None:
        """Add *value* to the counter ``(name, tags)``."""
        key = self._key(name, tags)
        with self._lock:
            self._data[key] = self._data.get(key, 0.0) + value

    def get(self, name: str, **tags) -> float:
        """Value of one exact ``(name, tags)`` counter (0.0 if unseen)."""
        with self._lock:
            return self._data.get(self._key(name, tags), 0.0)

    def total(self, name: str, **tags) -> float:
        """Sum over every counter with *name* whose tags include *tags*."""
        want = set(tags.items())
        with self._lock:
            return sum(
                v for (n, t), v in self._data.items()
                if n == name and want.issubset(t)
            )

    def snapshot(self, prefix: str = "") -> list[CounterRow]:
        """All counters (optionally name-prefix filtered), sorted by key."""
        with self._lock:
            rows = [CounterRow(n, t, v) for (n, t), v in self._data.items()
                    if n.startswith(prefix)]
        return sorted(rows, key=lambda r: (r.name, r.tags))

    def clear(self, prefix: str = "") -> None:
        """Drop counters whose name starts with *prefix* (all by default)."""
        with self._lock:
            if not prefix:
                self._data.clear()
                self._merge_state.clear()
                return
            for key in [k for k in self._data if k[0].startswith(prefix)]:
                del self._data[key]
            for mkey in [m for m in self._merge_state
                         if m[1][0].startswith(prefix)]:
                del self._merge_state[mkey]

    def reset_unsafe(self) -> None:
        """Replace the lock and drop all state.

        For freshly forked children only: the inherited lock may have been
        captured mid-acquisition by some parent thread, so taking it would
        deadlock.  Never call this in a process with live counter users.
        """
        self._lock = threading.Lock()
        self._data = {}
        self._merge_state = {}

    def merge_rows(self, source: str,
                   rows: list[tuple[str, Tags, float]]) -> None:
        """Delta-merge another process's counter snapshot.

        *rows* are cumulative absolute values from the remote registry
        (e.g. a cluster worker's).  Each call adds only the growth since
        the previous merge from the same *source*, so repeated refreshes
        never double-count.  Merged counters carry an extra
        ``("proc", source)`` tag, keeping per-replica breakdowns
        addressable while ``total(name)`` still sums across processes.
        """
        with self._lock:
            for name, tags, value in rows:
                base_key = (name, tuple(tags))
                state_key = (source, base_key)
                prev = self._merge_state.get(state_key, 0.0)
                delta = value - prev
                if delta < 0:
                    # The source restarted from zero (a respawned
                    # replica): its whole snapshot is new growth.
                    delta = value
                if delta == 0:
                    continue
                self._merge_state[state_key] = value
                tagged = self._key(name, {**dict(tags), "proc": source})
                self._data[tagged] = self._data.get(tagged, 0.0) + delta


#: The process-wide registry every instrumented module reports into.
counters = CounterRegistry()


def record_cache_event(cache: str, hit: bool) -> None:
    """Record one hit or miss on the named cache surface.

    Known surfaces: ``conv_plan``, ``spectrum``, ``fft_plan`` — but
    nothing enforces the vocabulary; new caches simply pick a name.
    """
    counters.add(f"cache.{cache}.{'hits' if hit else 'misses'}")


def cache_hits_misses(cache: str) -> tuple[int, int]:
    """(hits, misses) of one cache surface, from the registry."""
    return (int(counters.get(f"cache.{cache}.hits")),
            int(counters.get(f"cache.{cache}.misses")))


def reset_cache_stats(cache: str) -> None:
    """Zero the hit/miss counters of one cache surface."""
    counters.clear(f"cache.{cache}.")


def cache_stats() -> list[dict]:
    """The consolidated cache table: one row per cache surface.

    Sizes and limits come from the owning structures (the registry only
    holds event counts).
    """
    from repro.core.multichannel import plan_cache_info, spectrum_cache_info
    from repro.fft.plan import fft_plan_cache_info

    plan = plan_cache_info()
    spectrum = spectrum_cache_info()
    fft_plan = fft_plan_cache_info()
    rows = [
        {"cache": "conv_plan", "label": "conv plans",
         "hits": plan.hits, "misses": plan.misses,
         "size": plan.size, "maxsize": plan.maxsize},
        {"cache": "spectrum", "label": "weight spectra",
         "hits": spectrum.hits, "misses": spectrum.misses,
         "size": spectrum.size, "maxsize": spectrum.maxsize},
        {"cache": "fft_plan", "label": "fft plans",
         "hits": fft_plan.hits, "misses": fft_plan.misses,
         "size": fft_plan.size, "maxsize": fft_plan.maxsize},
        # Retired: Conv2d reads the engine's spectrum cache, so nothing
        # records into this surface any more.  The row stays, always 0/0,
        # because perfbench's traced run reads it by name.
        {"cache": "layer_spectrum", "label": "layer spectra",
         "hits": 0, "misses": 0, "size": None, "maxsize": None},
    ]
    for row in rows:
        total = row["hits"] + row["misses"]
        row["hit_rate"] = row["hits"] / total if total else None
    return rows


def format_cache_stats(rows: list[dict] | None = None) -> str:
    """Render :func:`cache_stats` as the CLI's coherent table."""
    if rows is None:
        rows = cache_stats()
    lines = [f"{'cache':<16} {'hits':>8} {'misses':>8} {'hit%':>7} "
             f"{'size':>6} {'max':>6}"]
    for row in rows:
        rate = f"{100 * row['hit_rate']:6.1f}%" if row["hit_rate"] is not None \
            else f"{'-':>7}"
        size = row["size"] if row["size"] is not None else "-"
        maxsize = row["maxsize"] if row["maxsize"] is not None else "-"
        lines.append(f"{row['label']:<16} {row['hits']:>8} "
                     f"{row['misses']:>8} {rate} {size:>6} {maxsize:>6}")
    return "\n".join(lines)


def serve_stats() -> dict:
    """Consolidated serving-layer metrics from the unified registry.

    Raw counters are additive (``serve.batch_size`` is the *sum* of
    stacked rows); derived ratios — mean batch size, mean queue wait,
    coalesce rate — are computed here so every consumer (CLI, bench
    harness, ``ConvServer.stats``) agrees on the arithmetic.
    """
    requests = counters.total("serve.requests")
    batches = counters.total("serve.batches")
    batch_rows = counters.total("serve.batch_size")
    wait_ms = counters.total("serve.queue_wait_ms")
    dispatched = counters.total("serve.dispatched")
    coalesced = counters.total("serve.coalesced")
    stats = {
        "requests": int(requests),
        "batches": int(batches),
        "coalesced": int(coalesced),
        "shards": int(counters.total("serve.shards")),
        # Overload-control outcomes (deadline shedding / admission).
        "completed": int(counters.total("serve.completed")),
        "shed": int(counters.total("serve.shed")),
        "rejected": int(counters.total("serve.rejected")),
        "slot_timeouts": int(counters.total("serve.slot_timeout")),
        "mean_batch_size": batch_rows / batches if batches else None,
        # Per request: the queue sums every dispatched request's wait.
        "mean_queue_wait_ms": wait_ms / dispatched if dispatched else None,
        "coalesce_rate": coalesced / requests if requests else None,
    }
    # Online algorithm selection: surface the counters whenever the
    # bandit has made at least one decision this process lifetime.
    from repro.selection.bandit import selection_counter_stats

    selection = selection_counter_stats()
    if selection["decisions"]:
        stats["selection"] = selection
    return stats


def replica_stats() -> dict[str, dict]:
    """Per-replica rollup of counters merged from cluster workers.

    Groups every counter carrying a ``proc`` tag by its source (the
    ``replicaN`` label :meth:`CounterRegistry.merge_rows` stamped), with
    the proc tag stripped from the inner keys.  Empty when no cluster has
    run in this process.
    """
    out: dict[str, dict] = {}
    for row in counters.snapshot():
        tags = row.tag_dict
        source = tags.pop("proc", None)
        if source is None:
            continue
        entry = out.setdefault(str(source), {})
        suffix = "".join(f"[{k}={v}]" for k, v in sorted(tags.items()))
        entry[row.name + suffix] = entry.get(row.name + suffix, 0.0) \
            + row.value
    return out


def format_serve_stats(stats: dict | None = None) -> str:
    """Render :func:`serve_stats` for the CLI.

    When a cluster has run (``stats["cluster"]`` from
    ``ClusterServer.stats()`` or merged worker counters in the registry),
    a per-replica table follows the aggregate block.
    """
    if stats is None:
        stats = serve_stats()

    def fmt(value, spec):
        return format(value, spec) if value is not None else "-"
    lines = [
        f"requests        {stats['requests']:>10}",
        f"batches         {stats['batches']:>10}",
        f"coalesced       {stats['coalesced']:>10}",
        f"shards          {stats['shards']:>10}",
        f"completed       {stats.get('completed', 0):>10}",
        f"shed            {stats.get('shed', 0):>10}",
        f"rejected        {stats.get('rejected', 0):>10}",
        f"slot timeouts   {stats.get('slot_timeouts', 0):>10}",
        f"mean batch size {fmt(stats['mean_batch_size'], '10.2f')}",
        f"mean wait (ms)  {fmt(stats['mean_queue_wait_ms'], '10.3f')}",
        f"coalesce rate   {fmt(stats['coalesce_rate'], '10.1%')}",
    ]
    selection = stats.get("selection")
    if selection:
        lines.append("")
        lines.append(
            f"selection: {selection['decisions']} decision(s), "
            f"{selection['applied']} applied, "
            f"{selection['explored']} shadow(s) "
            f"({selection['shadow_ok']} ok, "
            f"{selection['shadow_parity_fail']} parity-fail, "
            f"{selection['shadow_error']} error), "
            f"{selection['arms_poisoned']} arm(s) poisoned")
    cluster = stats.get("cluster")
    if cluster and cluster.get("replicas"):
        lines.append("")
        lines.append(f"cluster: {cluster['workers']} worker(s), "
                     f"transport={cluster['transport']}, arena "
                     f"{cluster['arena']['free']}/{cluster['arena']['slots']} "
                     f"slots free")
        lines.append(f"{'replica':>8} {'pid':>8} {'state':>7} "
                     f"{'served':>8} {'inflight':>8} {'convs':>8} "
                     f"{'breaker':>8}")
        for rep in cluster["replicas"]:
            state = "up" if rep["alive"] else "down"
            breaker = "open" if rep["breaker_open"] else "closed"
            convs = int(rep["worker"].get(
                "serve.cluster.worker_convs", 0))
            lines.append(f"{rep['id']:>8} {rep['pid'] or '-':>8} "
                         f"{state:>7} {rep['served']:>8} "
                         f"{rep['inflight']:>8} {convs:>8} {breaker:>8}")
    else:
        merged = replica_stats()
        if merged:
            lines.append("")
            lines.append(f"{'replica':>8} {'convs':>8} {'rows':>8}")
            for source in sorted(merged):
                entry = merged[source]
                lines.append(
                    f"{source:>8} "
                    f"{int(entry.get('serve.cluster.worker_convs', 0)):>8} "
                    f"{int(entry.get('serve.cluster.worker_rows', 0)):>8}")
    return "\n".join(lines)


def fft_call_totals() -> dict[str, dict]:
    """Per-kind FFT invocation totals recorded while tracing was enabled.

    Returns ``{kind: {"calls": int, "rows": int, "by_n": {n: calls}}}``.
    """
    out: dict[str, dict] = {}
    for row in counters.snapshot("fft.calls"):
        tags = row.tag_dict
        kind = tags.get("kind", "?")
        entry = out.setdefault(kind, {"calls": 0, "rows": 0, "by_n": {}})
        entry["calls"] += int(row.value)
        n = tags.get("n")
        entry["by_n"][n] = entry["by_n"].get(n, 0) + int(row.value)
    for row in counters.snapshot("fft.rows"):
        kind = row.tag_dict.get("kind", "?")
        entry = out.setdefault(kind, {"calls": 0, "rows": 0, "by_n": {}})
        entry["rows"] += int(row.value)
    return out
