"""Benchmark launcher: one workload, one process, one JSON result line.

Usage, from the repository root::

    python3 perfbench/run.py --workload net_infer --seed 1 --seconds 10 \\
        --trace 0

Workloads: ``net_infer``, ``train_step``, ``serve_inproc``,
``serve_cluster`` (see ``perfbench/README.md``).  A run builds the
oracle's references, times several cold set-ups, warms up, measures for
``--seconds`` with tracing off and checks every output off the clock.
With ``--trace 1`` it then measures again with timing wrappers and
``repro.observe`` tracing on, and prints the per-layer metrics instead of
the end-to-end ones.  The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The ``repro`` package is imported from ``src/`` next to this directory;
without it the launcher exits non-zero and prints no result.
"""

import os

# Pin every BLAS/OpenMP pool to one thread before numpy loads: the
# installed OpenBLAS otherwise sizes a pool to all cores in each process,
# the cluster router and replica included.
THREAD_PINS = {var: "1" for var in ("OMP_NUM_THREADS",
                                    "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS")}
os.environ.update(THREAD_PINS)

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Seconds of the workload's own loop run before measuring.
WARMUP_S = 1.0

END_TO_END = {
    "images_per_s": "1/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def import_repro() -> None:
    """Import ``repro`` from this checkout's ``src/``, or exit non-zero."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import repro from {SRC}: {exc}")
    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"perfbench: repro was imported from {repro.__file__}, "
                 f"not from {SRC}")


def clear_caches() -> None:
    """Drop the plan, weight-spectrum and FFT-plan caches (cold set-up)."""
    from repro.core.multichannel import clear_plan_cache, clear_spectrum_cache
    from repro.fft import clear_fft_plan_cache

    clear_plan_cache()
    clear_spectrum_cache()
    clear_fft_plan_cache()


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def reap_child_processes() -> None:
    """Stop and wait for every process this run started.

    Cluster replicas are joined by ``ClusterServer.close``; this also
    catches any left alive, and stops multiprocessing's resource tracker,
    which the first shared-memory arena starts and which would otherwise
    outlive the run (exiting only once it sees this process gone).
    """
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def environment(args) -> dict:
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "numpy": np.__version__,
        "thread_pins": THREAD_PINS,
    }


def traced_phase(wl, state, seconds: float, untraced_rate: float,
                 run_before: dict):
    """Measure again with the probe and repro.observe tracing switched on."""
    from repro.observe import aggregate_spans, get_trace, tracing

    import trace_metrics as tm
    from probe import Probe, install_default

    probe = Probe()
    install_default(probe)
    before = tm.counter_totals()
    caches_before = tm.cache_counts()
    fft_before = tm.fft_counts()
    try:
        with tracing():
            phase = wl.run(state, seconds)
    finally:
        probe.remove()
    spans = aggregate_spans(get_trace())
    after = tm.counter_totals()
    fft = tm.counter_delta(fft_before, tm.fft_counts())
    metrics, notes = tm.layer_metrics(
        wl.name, probe, spans, phase, tm.counter_delta(before, after),
        tm.counter_delta(run_before, after), caches_before,
        tm.cache_counts(), fft, wl.setups, untraced_rate)
    return phase, metrics, notes


def main(argv=None) -> int:
    try:
        return measure(argv)
    finally:
        reap_child_processes()


def measure(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_repro()
    import trace_metrics as tm
    from workloads import WORKLOADS, tail_ms

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    wl = WORKLOADS[args.workload](args.seed)
    run_before = tm.counter_totals()
    attempted = failed = 0

    wl.prepare()
    setup_s = []
    state = None
    for _ in range(wl.setups):
        if state is not None:
            wl.teardown(state)
            # Drop the old network or server before building the next, so
            # two are never alive at once (that doubled peak_rss_mb).
            state = None
        clear_caches()
        gc.collect()
        start = time.perf_counter()
        state = wl.setup()
        setup_s.append(time.perf_counter() - start)
        a, f = wl.check_setup(state)
        attempted, failed = attempted + a, failed + f
    try:
        warmup = wl.run(state, WARMUP_S)
        phase = wl.run(state, args.seconds)
        a, f = wl.check_run(state, phase)
        attempted += warmup.attempted + phase.attempted + a
        failed += warmup.failed + phase.failed + f
        rate = phase.images / phase.elapsed_s
        if args.trace:
            traced, layer, notes = traced_phase(
                wl, state, args.seconds, rate, run_before)
            a, f = wl.check_run(state, traced)
            attempted += traced.attempted + a
            failed += traced.failed + f
    finally:
        wl.teardown(state)

    print("perfbench env: " + json.dumps(environment(args)))
    if args.trace:
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, (unit, _) in tm.PER_LAYER.items()}
        print(f"perfbench traced phase: {traced.images} images in "
              f"{traced.elapsed_s:.3f} s; untraced {rate:.1f} images/s")
        for note in notes:
            print(f"perfbench {note}")
    else:
        lat_ms = np.asarray(phase.latencies_s) * 1e3
        values = {
            "images_per_s": rate,
            "p50_ms": float(np.percentile(lat_ms, 50)),
            "p99_ms": tail_ms(lat_ms, wl.tail_percentile, wl.tail_block),
            "setup_s": statistics.median(setup_s),
            "peak_rss_mb": peak_rss_mb(),
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
        blocks = "" if wl.tail_block is None else \
            f", median over blocks of {wl.tail_block}"
        print(f"perfbench latency: {len(lat_ms)} {wl.sample}; p99_ms "
              f"reports p{wl.tail_percentile}{blocks}; pooled p99 "
              f"{np.percentile(lat_ms, 99):.4f} ms")
        print(f"perfbench set-ups: "
              f"{', '.join(f'{s:.4f}' for s in setup_s)} s")
    for name, entry in metrics.items():
        print(f"  {name:<32} {entry['value']:>14.6g} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
