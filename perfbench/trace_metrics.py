"""Per-layer metrics of the traced run.

Sources, all read from outside ``src/``:

- the :class:`~probe.Probe` totals (time inside each module's public
  entry points);
- the self times of the engine's existing ``repro.observe`` stage spans;
- deltas of the ``repro.observe`` counter registry and of
  ``cache_stats()`` across the traced phase (and, for the failure and
  shipment counts, across the whole run).

Engine-side numbers on ``serve_cluster`` live in the replica process and
are reported as not measured (value 0), never estimated.
"""

from __future__ import annotations

from collections import defaultdict

#: name -> (unit, better).  BENCHMARK.json lists the same metrics.
PER_LAYER = {
    "nn.conv_ms": ("ms", "lower"),
    "nn.nonconv_ms": ("ms", "lower"),
    "nn.backward_input_ms": ("ms", "lower"),
    "nn.backward_weight_ms": ("ms", "lower"),
    "nn.sgd_ms": ("ms", "lower"),
    "dispatch.overhead_us": ("us", "lower"),
    "core.plan_hit_rate": ("ratio", "higher"),
    "core.spectrum_hit_rate": ("ratio", "higher"),
    "core.layer_spectrum_hit_rate": ("ratio", "higher"),
    "core.weight_spectrum_ms": ("ms", "lower"),
    "core.execute_ms": ("ms", "lower"),
    "core.stage.pad_ms": ("ms", "lower"),
    "core.stage.input_fft_ms": ("ms", "lower"),
    "core.stage.pointwise_ms": ("ms", "lower"),
    "core.stage.inverse_fft_ms": ("ms", "lower"),
    "core.stage.gather_ms": ("ms", "lower"),
    "fft.calls.rfft": ("count", "lower"),
    "fft.calls.irfft": ("count", "lower"),
    "fft.calls.fft": ("count", "lower"),
    "fft.calls.ifft": ("count", "lower"),
    "fft.rows.rfft": ("count", "lower"),
    "fft.rows.irfft": ("count", "lower"),
    "fft.rows.fft": ("count", "lower"),
    "fft.rows.ifft": ("count", "lower"),
    "fft.bytes": ("B", "lower"),
    "fft.ms": ("ms", "lower"),
    "serve.rows_per_batch": ("rows", "higher"),
    "serve.coalesce_rate": ("ratio", "higher"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.execute_ms": ("ms", "lower"),
    "serve.submit_us": ("us", "lower"),
    "router.dispatches_per_request": ("ratio", "lower"),
    "router.slot_wait_share": ("ratio", "lower"),
    "router.slot_wait_ms": ("ms", "lower"),
    "router.submit_us": ("us", "lower"),
    "router.tensor_ships": ("count", "lower"),
    "serve.shed": ("count", "lower"),
    "serve.rejected": ("count", "lower"),
    "serve.failed": ("count", "lower"),
    "router.worker_errors": ("count", "lower"),
    "router.respawns": ("count", "lower"),
    "router.slot_timeouts": ("count", "lower"),
    "guard.fallbacks": ("count", "lower"),
    "guard.sentinel_trips": ("count", "lower"),
    "observe.overhead_pct": ("%", "lower"),
}

STAGES = ("pad", "input_fft", "pointwise", "inverse_fft", "gather")
FFT_KINDS = ("rfft", "irfft", "fft", "ifft")

#: Registry counter behind each failure metric.
FAILURE_COUNTERS = {
    "serve.shed": "serve.shed",
    "serve.rejected": "serve.rejected",
    "serve.failed": "serve.failed",
    "router.worker_errors": "serve.cluster.worker_errors",
    "router.respawns": "serve.cluster.respawns",
    "router.slot_timeouts": "serve.slot_timeout",
    "guard.fallbacks": "guard.fallback",
    "guard.sentinel_trips": "guard.sentinel_trip",
}

#: Metrics whose work happens inside the serve_cluster replica.
ENGINE_SIDE = tuple(
    name for name in PER_LAYER
    if name.split(".")[0] in ("nn", "dispatch", "core", "fft"))


def counter_totals() -> dict[str, float]:
    """Every registry counter summed over its tags."""
    from repro.observe.registry import counters

    totals: dict[str, float] = defaultdict(float)
    for row in counters.snapshot():
        totals[row.name] += row.value
    return totals


def counter_delta(before: dict, after: dict) -> dict[str, float]:
    return defaultdict(float, {k: after[k] - before.get(k, 0.0)
                               for k in after})


def fft_counts() -> dict[tuple[str, str, int], float]:
    """FFT invocations and rows per (counter, kind, size), as recorded
    while tracing was on."""
    from repro.observe.registry import counters

    out: dict[tuple[str, str, int], float] = defaultdict(float)
    for counter in ("calls", "rows"):
        for row in counters.snapshot(f"fft.{counter}"):
            tags = row.tag_dict
            out[(counter, tags.get("kind", "?"), int(tags.get("n", 0)))] \
                += row.value
    return out


def fft_bytes(fft: dict[tuple[str, str, int], float]) -> float:
    """Bytes the transforms read and write, computed from array sizes:
    float64 samples, complex128 spectra of n // 2 + 1 bins for the real
    transforms, n bins for the complex ones."""
    total = 0.0
    for (counter, kind, n), count in fft.items():
        if counter != "rows":
            continue
        if kind in ("rfft", "irfft"):
            total += count * (n * 8 + (n // 2 + 1) * 16)
        else:
            total += count * 2 * n * 16
    return total


def cache_counts() -> dict[str, tuple[int, int]]:
    from repro.observe import cache_stats

    return {row["cache"]: (row["hits"], row["misses"])
            for row in cache_stats()}


def _rate(before, after, cache: str) -> float:
    hits = after[cache][0] - before[cache][0]
    misses = after[cache][1] - before[cache][1]
    return hits / (hits + misses) if hits + misses else 0.0


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(workload: str, probe, spans: dict, phase,
                  traced: dict, whole_run: dict, caches_before: dict,
                  caches_after: dict, fft: dict, setups: int,
                  untraced_rate: float) -> tuple[dict, list[str]]:
    """Per-layer values for one traced phase, and notes to print with them
    (raw cache counts, what was computed or not measured).

    *traced* and *whole_run* are counter deltas over the traced phase and
    over the whole run; *spans* is ``aggregate_spans`` of the traced
    phase, and *fft* the :func:`fft_counts` deltas of the traced phase.
    """
    m = dict.fromkeys(PER_LAYER, 0.0)
    if workload == "serve_inproc":
        units = traced["serve.batches"]  # engine batches
    else:
        units = phase.iterations  # batches or steps
    entry = "nn.layer_conv" if workload == "net_infer" \
        else "nn.functional_conv"
    forward = "nn.network_forward" if workload == "net_infer" \
        else "nn.forward"
    seconds, calls = probe.seconds, probe.calls

    m["nn.conv_ms"] = _div(seconds[entry], units) * 1e3
    m["nn.nonconv_ms"] = _div(
        seconds[forward] - probe.inside(forward, entry), units) * 1e3
    m["nn.backward_input_ms"] = _div(seconds["nn.backward_input"],
                                     units) * 1e3
    m["nn.backward_weight_ms"] = _div(seconds["nn.backward_weight"],
                                      units) * 1e3
    m["nn.sgd_ms"] = _div(seconds["nn.sgd"], units) * 1e3
    engine = probe.inside(entry, "core.execute", "core.weight_spectrum",
                          "core.transform_weight")
    m["dispatch.overhead_us"] = _div(seconds[entry] - engine,
                                     calls[entry]) * 1e6

    m["core.plan_hit_rate"] = _rate(caches_before, caches_after,
                                    "conv_plan")
    m["core.spectrum_hit_rate"] = _rate(caches_before, caches_after,
                                        "spectrum")
    m["core.layer_spectrum_hit_rate"] = _rate(caches_before, caches_after,
                                              "layer_spectrum")
    m["core.weight_spectrum_ms"] = _div(
        seconds["core.weight_spectrum"]
        + probe.outside("core.transform_weight", "core.weight_spectrum"),
        units) * 1e3
    m["core.execute_ms"] = _div(seconds["core.execute"], units) * 1e3
    for stage in STAGES:
        self_ms = spans.get(f"stage.{stage}", {}).get("self_ms", 0.0)
        m[f"core.stage.{stage}_ms"] = _div(self_ms, units)

    by_kind: dict[tuple[str, str], float] = defaultdict(float)
    for (counter, kind, _), count in fft.items():
        by_kind[(counter, kind)] += count
    for kind in FFT_KINDS:
        m[f"fft.calls.{kind}"] = _div(by_kind[("calls", kind)], units)
        m[f"fft.rows.{kind}"] = _div(by_kind[("rows", kind)], units)
    m["fft.bytes"] = _div(fft_bytes(fft), units)
    m["fft.ms"] = _div(sum(row["self_ms"] for name, row in spans.items()
                           if name.startswith("fft.")), units)

    m["serve.rows_per_batch"] = _div(traced["serve.batch_size"],
                                     traced["serve.batches"])
    m["serve.coalesce_rate"] = _div(traced["serve.coalesced"],
                                    traced["serve.requests"])
    m["serve.queue_wait_ms"] = _div(traced["serve.queue_wait_ms"],
                                    traced["serve.requests"])
    m["serve.execute_ms"] = _div(seconds["serve.execute"],
                                 calls["serve.execute"]) * 1e3
    m["serve.submit_us"] = _div(seconds["serve.submit"],
                                calls["serve.submit"]) * 1e6

    requests = traced["serve.cluster.requests"]
    dispatches = traced["serve.cluster.dispatches"]
    m["router.dispatches_per_request"] = _div(dispatches, requests)
    m["router.slot_wait_share"] = _div(traced["serve.cluster.slot_waits"],
                                       dispatches)
    m["router.slot_wait_ms"] = _div(traced["serve.cluster.slot_wait_ms"],
                                    requests)
    m["router.submit_us"] = _div(seconds["router.submit"],
                                 calls["router.submit"]) * 1e6
    m["router.tensor_ships"] = _div(
        whole_run["serve.cluster.tensor_ships"], setups)

    for name, counter in FAILURE_COUNTERS.items():
        m[name] = whole_run[counter]
    traced_rate = _div(phase.images, phase.elapsed_s)
    m["observe.overhead_pct"] = _div(untraced_rate - traced_rate,
                                     untraced_rate) * 100.0

    lookups = ", ".join(
        f"{cache} {after[0] - caches_before[cache][0]}/"
        f"{after[1] - caches_before[cache][1]}"
        for cache, after in caches_after.items())
    notes = [f"cache hits/misses in the traced phase: {lookups}",
             "fft.bytes is computed from array sizes, not measured"]
    if workload == "serve_inproc":
        from repro.observe.registry import serve_stats

        notes.append(
            f"serve_stats() mean_queue_wait_ms reads "
            f"{serve_stats()['mean_queue_wait_ms']:.3f}: it divides the "
            f"summed per-request wait by batches; serve.queue_wait_ms "
            f"divides by requests")
    if workload == "serve_cluster":
        notes.append("not measured, inside the replica process (reported "
                     "as 0): " + ", ".join(ENGINE_SIDE))
    return m, notes
