"""Command-line interface: ``python -m repro <command>``.

Commands:

- ``selftest``   — quick cross-algorithm correctness check;
- ``figures``    — regenerate the paper's figures as text tables;
- ``simulate``   — simulated GPU time for one convolution shape;
- ``select``     — algorithm recommendation (model + rules) for a shape;
- ``tune``       — measure algorithms on this machine for a shape;
- ``bench``      — execution-engine wall-clock suite, written as JSON;
  ``--check BASELINE.json`` turns it into the CI regression gate;
  ``--inject`` runs the guard recovery drill instead of the timings,
  ``--inject-cluster`` the cluster chaos drill (watchdog/retry/slots);
- ``serve-bench``— serving-layer throughput presets (dynamic batching
  vs a sequential request loop); ``--list`` shows the presets;
  ``--workers 1 2 4`` runs the cluster saturation sweep instead
  (Poisson open-loop load through the shared-memory tier), and
  ``--check-scaleout 1.5`` turns it into the CI scale-out gate;
  ``--overload`` runs the overload sweep (offered load at multiples of
  calibrated capacity) and ``--check-goodput 0.85`` gates goodput at
  the gate multiplier;
- ``serve-stats``— serving counters of this process (requests, batches,
  coalesce rate, queue wait), plus a per-replica table once a cluster
  has run;
- ``doctor``     — install health report (FFT parity, cache integrity,
  fallback-chain reachability, sentinel, guarded recovery); exits
  nonzero when any check fails;
- ``profile``    — measured per-stage times joined against the analytic
  cost model, with drift flags (``--trace`` prints raw spans);
- ``cache-stats``— the consolidated cache hit/miss table (one registry);
- ``algorithms`` — list the registered algorithms.

``selftest``, ``tune`` and ``bench`` accept ``--cache-stats`` to print the
same consolidated table after the run.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _parse_pair(text: str):
    """Parse ``"2"`` or ``"2,1"`` into an int or an ``(h, w)`` pair."""
    parts = [p for p in text.split(",") if p]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected an int or 'h,w' pair, got {text!r}"
        ) from None
    if len(values) == 1:
        return values[0]
    if len(values) == 2:
        return tuple(values)
    raise argparse.ArgumentTypeError(
        f"expected an int or 'h,w' pair, got {text!r}"
    )


def _parse_padding(text: str):
    """Parse ``"same"``, ``"1"``, ``"1,2"`` or ``"1,1,2,2"``."""
    if text == "same":
        return "same"
    parts = [p for p in text.split(",") if p]
    try:
        values = [int(p) for p in parts]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected 'same', an int, 'ph,pw' or 'pt,pb,pl,pr', "
            f"got {text!r}"
        ) from None
    if len(values) == 1:
        return values[0]
    if len(values) in (2, 4):
        return tuple(values)
    raise argparse.ArgumentTypeError(
        f"expected 'same', an int, 'ph,pw' or 'pt,pb,pl,pr', got {text!r}"
    )


def _shape_from_args(args) -> "ConvShape":
    from repro.utils.shapes import ConvShape

    return ConvShape(ih=args.size, iw=args.size, kh=args.kernel,
                     kw=args.kernel, n=args.batch, c=args.channels,
                     f=args.filters, padding=args.padding,
                     stride=args.stride, dilation=args.dilation,
                     groups=args.groups)


def _add_shape_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--size", type=int, default=64,
                        help="input height/width (default 64)")
    parser.add_argument("--kernel", type=int, default=3,
                        help="kernel height/width (default 3)")
    parser.add_argument("--batch", type=int, default=8)
    parser.add_argument("--channels", type=int, default=3)
    parser.add_argument("--filters", type=int, default=16)
    parser.add_argument("--padding", type=_parse_padding, default=1,
                        help="'same', P, 'ph,pw' or 'pt,pb,pl,pr' "
                             "(default 1)")
    parser.add_argument("--stride", type=_parse_pair, default=1,
                        help="S or 'sh,sw' (default 1)")
    parser.add_argument("--dilation", type=_parse_pair, default=1,
                        help="D or 'dh,dw' (default 1)")
    parser.add_argument("--groups", type=int, default=1,
                        help="channel groups; set to channels for "
                             "depthwise (default 1)")


def _print_cache_stats() -> None:
    from repro.observe import format_cache_stats

    print("\ncache statistics (unified observe registry):")
    print(format_cache_stats())


def cmd_selftest(args) -> int:
    from repro.baselines.registry import (
        ConvAlgorithm, convolve, list_algorithms, supports,
    )
    from repro.utils.random import random_problem
    from repro.utils.shapes import ConvShape

    shape = ConvShape(ih=12, iw=11, kh=3, kw=3, n=2, c=3, f=4, padding=1)
    x, w = random_problem(shape)
    reference = convolve(x, w, algorithm=ConvAlgorithm.NAIVE, padding=1)
    failures = 0
    for algo in list_algorithms():
        if not supports(algo, shape):
            continue
        out = convolve(x, w, algorithm=algo, padding=1)
        err = float(np.abs(out - reference).max())
        status = "ok" if err < 1e-6 else "FAIL"
        if status == "FAIL":
            failures += 1
        print(f"{algo.value:<24} max|diff| = {err:.2e}  {status}")
    print("selftest", "FAILED" if failures else "passed")
    if getattr(args, "cache_stats", False):
        _print_cache_stats()
    return 1 if failures else 0


def cmd_figures(args) -> int:
    from repro.baselines.registry import ConvAlgorithm
    from repro.experiments import (
        fig3_input_sweep, fig4_kernel_sweep, fig5_channel_sweep,
        fig6_network_sweep, fig7_counters, format_table, summarize,
    )

    which = args.figure
    if which in ("3", "all"):
        for device in args.devices:
            result = fig3_input_sweep(device)
            print(format_table(result))
            print(summarize(result), "\n")
    if which in ("4", "all"):
        for device in args.devices:
            result = fig4_kernel_sweep(device)
            print(format_table(result))
            print(summarize(result), "\n")
    if which in ("5", "all"):
        result = fig5_channel_sweep()
        print(format_table(result))
        print(summarize(result), "\n")
    if which in ("6", "all"):
        for device in args.devices:
            result = fig6_network_sweep(device)
            print(format_table(result))
            avg = result.average_speedup_for(ConvAlgorithm.POLYHANKEL)
            print(summarize(result))
            print(f"avg speedup over next best = {avg:.2f}\n")
    if which in ("7", "all"):
        flops, tx = fig7_counters()
        print(format_table(flops, precision=0), "\n")
        print(format_table(tx, precision=0))
    return 0


def cmd_simulate(args) -> int:
    from repro.perfmodel.timing import simulate

    shape = _shape_from_args(args)
    print(f"shape: {shape}")
    for device in args.devices:
        report = simulate(args.algorithm, shape, device)
        print(f"\n{report.device.name}: {report.total_ms:.4f} ms")
        for stage in report.stage_times:
            print(f"  {stage.stage.name:<26} {stage.total_s * 1e3:8.4f} ms"
                  f"  ({stage.bound}-bound)")
    return 0


def cmd_select(args) -> int:
    from repro.selection import select_algorithm, select_algorithm_rules

    shape = _shape_from_args(args)
    result = select_algorithm(shape, args.devices[0])
    print(f"shape: {shape}")
    print(f"model-driven choice on {result.device}: "
          f"{result.algorithm.value} ({result.predicted_ms:.4f} ms)")
    print(f"rule-based choice: {select_algorithm_rules(shape).value}")
    print("\nfull ranking:")
    for algo, ms in result.ranking:
        print(f"  {algo.value:<24} {ms:10.4f} ms")
    return 0


def cmd_tune(args) -> int:
    from repro.selection.tuner import ConvTuner

    shape = _shape_from_args(args)
    tuner = ConvTuner(repeats=args.repeats)
    result = tuner.tune(shape)
    print(f"measured on this machine for {shape}:")
    for algo, seconds in result.ranking():
        print(f"  {algo.value:<24} {seconds * 1e3:10.3f} ms")
    print(f"best: {result.best.value}")
    if getattr(args, "cache_stats", False):
        _print_cache_stats()
    return 0


def cmd_bench(args) -> int:
    from repro import bench

    argv = []
    if args.smoke:
        argv.append("--smoke")
    if args.quick:
        argv.append("--quick")
    if args.no_json:
        argv.append("--no-json")
    if args.out:
        argv.extend(["--out", args.out])
    if args.check:
        argv.extend(["--check", args.check,
                     "--tolerance", str(args.tolerance),
                     "--counter-tolerance", str(args.counter_tolerance)])
    if args.inject is not None:
        argv.append("--inject")
        argv.extend(args.inject)
        argv.extend(["--seed", str(args.seed)])
    if args.inject_cluster is not None:
        argv.append("--inject-cluster")
        argv.extend(args.inject_cluster)
        argv.extend(["--seed", str(args.seed)])
    argv.extend(["--repeats", str(args.repeats)])
    code = bench.main(argv)
    if getattr(args, "cache_stats", False):
        _print_cache_stats()
    return code


def cmd_serve_bench(args) -> int:
    import datetime
    import json as _json

    from repro.bench import (
        SCHEMA_VERSION, SERVE_PRESETS, env_pins, format_serve_report,
        run_serve_case,
    )

    from repro.serve.loadgen import (
        CLUSTER_PRESETS, OVERLOAD_PRESETS, format_cluster_report,
        format_overload_report, run_cluster_case, run_overload_case,
    )

    if args.list:
        for preset in SERVE_PRESETS:
            floor = (f"floor {preset.min_speedup:g}x"
                     if preset.min_speedup else "ungated")
            print(f"{preset.name:<24} {preset.requests}x"
                  f"[{preset.request_batch},{preset.channels},"
                  f"{preset.size},{preset.size}] k={preset.kernel} "
                  f"f={preset.filters} max_batch={preset.max_batch} "
                  f"workers={preset.workers} ({floor})")
        for preset in CLUSTER_PRESETS:
            floor = (f"scale-out floor {preset.min_scaleout:g}x@2"
                     if preset.min_scaleout else "ungated")
            counts = "/".join(str(w) for w in preset.worker_counts)
            print(f"{preset.name:<24} {preset.requests}x"
                  f"[{preset.request_batch},{preset.channels},"
                  f"{preset.size},{preset.size}] k={preset.kernel} "
                  f"f={preset.filters} cluster workers={counts} ({floor})")
        for preset in OVERLOAD_PRESETS:
            mults = "/".join(f"{m:g}" for m in preset.multipliers)
            print(f"{preset.name:<24} {preset.requests}x"
                  f"[{preset.request_batch},{preset.channels},"
                  f"{preset.size},{preset.size}] k={preset.kernel} "
                  f"f={preset.filters} overload x{mults} "
                  f"(goodput floor {preset.min_goodput_pct:.0%}@"
                  f"x{preset.gate_multiplier:g})")
        return 0

    if args.overload:
        # Overload mode: open-loop sweep past capacity, gated on goodput
        # at the gate multiplier.
        presets = list(OVERLOAD_PRESETS)
        if args.preset:
            presets = [p for p in presets if p.name == args.preset]
            if not presets:
                names = ", ".join(p.name for p in OVERLOAD_PRESETS)
                print(f"unknown overload preset {args.preset!r}; "
                      f"one of: {names}")
                return 2
        multipliers = tuple(args.multipliers) if args.multipliers else None
        entries = []
        for preset in presets:
            entries += run_overload_case(preset, multipliers=multipliers)
        print(format_overload_report(entries))
        if args.out:
            report = {"schema": SCHEMA_VERSION,
                      "date": datetime.date.today().isoformat(),
                      "env_pins": env_pins(), "overload": entries}
            with open(args.out, "w") as fh:
                _json.dump(report, fh, indent=2)
                fh.write("\n")
            print(f"[written to {args.out}]")
        if args.check_goodput is not None:
            late = [e for e in entries if e.get("late_completions")]
            for e in late:
                print(f"check-goodput FAILED: {e['name']} completed "
                      f"{e['late_completions']} request(s) after "
                      f"reporting them shed")
            gated = [e for e in entries
                     if e["multiplier"] >= args.gate_multiplier]
            if not gated:
                print(f"check-goodput: no point at multiplier >= "
                      f"{args.gate_multiplier:g} in this sweep")
                return 2
            failed = [e for e in gated
                      if e["goodput_pct"] < args.check_goodput]
            for e in failed:
                print(f"check-goodput FAILED: {e['name']} goodput "
                      f"{e['goodput_pct']:.0%} < floor "
                      f"{args.check_goodput:.0%}")
            if not failed and not late:
                print("check-goodput OK: "
                      + ", ".join(f"{e['name']} {e['goodput_pct']:.0%}"
                                  for e in gated)
                      + f" (floor {args.check_goodput:.0%})")
            return 1 if failed or late else 0
        return 0

    if args.workers is not None:
        # Cluster mode: the Poisson open-loop saturation sweep through
        # the multi-process shared-memory tier.
        counts = tuple(args.workers)
        presets = list(CLUSTER_PRESETS)
        if args.preset:
            presets = [p for p in presets if p.name == args.preset]
            if not presets:
                names = ", ".join(p.name for p in CLUSTER_PRESETS)
                print(f"unknown cluster preset {args.preset!r}; "
                      f"one of: {names}")
                return 2
        entries = []
        for preset in presets:
            entries += run_cluster_case(preset, repeats=args.repeats,
                                        worker_counts=counts)
        print(format_cluster_report(entries))
        if args.out:
            report = {"schema": SCHEMA_VERSION,
                      "date": datetime.date.today().isoformat(),
                      "env_pins": env_pins(), "cluster": entries}
            with open(args.out, "w") as fh:
                _json.dump(report, fh, indent=2)
                fh.write("\n")
            print(f"[written to {args.out}]")
        if args.check_scaleout is not None:
            # Unconditional floor (no gated flag): CI runners that are
            # known multi-core opt in explicitly.
            checked = [e for e in entries
                       if e.get("scaleout_vs_1") is not None
                       and e["workers"] == 2]
            if not checked:
                print("check-scaleout: no 2-worker point with a "
                      "1-worker baseline in this sweep")
                return 2
            failed = [e for e in checked
                      if e["scaleout_vs_1"] < args.check_scaleout]
            for e in failed:
                print(f"check-scaleout FAILED: {e['name']} scaled "
                      f"{e['scaleout_vs_1']:g}x < floor "
                      f"{args.check_scaleout:g}x")
            if not failed:
                print(f"check-scaleout OK: "
                      + ", ".join(f"{e['name']} {e['scaleout_vs_1']:g}x"
                                  for e in checked)
                      + f" (floor {args.check_scaleout:g}x)")
            return 1 if failed else 0
        return 0

    presets = list(SERVE_PRESETS)
    if args.preset:
        presets = [p for p in presets if p.name == args.preset]
        if not presets:
            names = ", ".join(p.name for p in SERVE_PRESETS)
            print(f"unknown preset {args.preset!r}; one of: {names}")
            return 2
    entries = [run_serve_case(p, repeats=args.repeats) for p in presets]
    print(format_serve_report(entries))
    if args.out:
        report = {"schema": SCHEMA_VERSION,
                  "date": datetime.date.today().isoformat(),
                  "env_pins": env_pins(), "serve": entries}
        with open(args.out, "w") as fh:
            _json.dump(report, fh, indent=2)
            fh.write("\n")
        print(f"[written to {args.out}]")
    return 0


def cmd_serve_stats(args) -> int:
    from repro.observe.registry import format_serve_stats

    print(format_serve_stats())
    return 0


def cmd_selection_stats(args) -> int:
    from repro.selection.bandit import (
        SelectionBandit, format_selection_stats, load_table,
    )

    if args.table:
        from repro.selection.bandit import SelectionTableError

        try:
            payload = load_table(args.table)
        except SelectionTableError as exc:
            print(f"selection table rejected: {exc}")
            return 1
        if payload is None:
            print(f"no readable selection table at {args.table} "
                  f"(missing, corrupt, or empty)")
            return 1
        bandit = SelectionBandit()
        bandit.warm_start(args.table)
        print(format_selection_stats(bandit.stats()))
        return 0
    print(format_selection_stats())
    return 0


def cmd_selection_drill(args) -> int:
    from repro.selection.drill import (
        format_selection_drill, run_selection_drill,
    )

    report = run_selection_drill(seed=args.seed, requests=args.requests,
                                 table_path=args.table)
    print(format_selection_drill(report))
    return 0 if report["ok"] else 1


def cmd_doctor(args) -> int:
    from repro.guard.doctor import format_report, run_doctor

    results = run_doctor()
    print(format_report(results))
    return 0 if all(r.ok for r in results) else 1


def cmd_profile(args) -> int:
    from repro.observe.profile import (
        case_for_shape, format_profile, profile_case, resolve_preset,
        write_profile,
    )

    if args.preset:
        case = resolve_preset(args.preset, algorithm=args.algorithm)
    else:
        case = case_for_shape(
            args.algorithm, size=args.size, kernel=args.kernel,
            batch=args.batch, channels=args.channels, filters=args.filters,
            padding=args.padding, stride=args.stride,
            dilation=args.dilation, groups=args.groups,
            strategy=args.strategy, backend=args.backend)
    report = profile_case(case, repeats=args.repeats,
                          drift_threshold=args.drift_threshold)
    print(format_profile(report))
    if args.trace:
        print("\nspans (completion order):")
        spans = report["spans"]
        print("\n".join(
            f"{'  ' * s['depth']}{s['name']:<28} {s['ms']:9.4f} ms  "
            + " ".join(f"{k}={v}" for k, v in s["attrs"].items())
            for s in spans))
    if args.json:
        path = write_profile(report, args.json)
        print(f"[written to {path}]")
    return 0


def cmd_cache_stats(args) -> int:
    from repro.observe import format_cache_stats

    print(format_cache_stats())
    return 0


#: Representative problems probing each operator family's support matrix:
#: generic enough (channels divisible, kernel fits) that a "no" means the
#: algorithm genuinely cannot run the op, not that the probe was degenerate.
_OP_PROBES = {
    "1d": ("conv1d", (1, 4, 32), (4, 4, 5), {}),
    "2d": ("conv2d", (1, 4, 16, 16), (4, 4, 3, 3), {}),
    "3d": ("conv3d", (1, 4, 8, 8, 8), (4, 4, 3, 3, 3), {}),
    "t2d": ("conv_transpose2d", (1, 4, 8, 8), (4, 4, 3, 3), {"stride": 2}),
}


def cmd_algorithms(args) -> int:
    from repro.baselines.ndops import op_supports, resolve_op
    from repro.baselines.registry import get_entry, list_algorithms

    cols = list(_OP_PROBES)
    print(f"{'algorithm':<24} {' '.join(f'{c:>4}' for c in cols)}  "
          "description")
    for algo in list_algorithms():
        marks = []
        for col in cols:
            op, x_shape, w_shape, extra = _OP_PROBES[col]
            ok = op_supports(resolve_op(op), algo, x_shape, w_shape,
                             **extra)
            marks.append(f"{'y' if ok else '-':>4}")
        print(f"{algo.value:<24} {' '.join(marks)}  "
              f"{get_entry(algo).description}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PolyHankel convolution (CGO'25) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    selftest = sub.add_parser("selftest",
                              help="cross-algorithm correctness check")
    selftest.add_argument("--cache-stats", action="store_true",
                          help="print cache hit/miss statistics afterwards")
    selftest.set_defaults(fn=cmd_selftest)

    figures = sub.add_parser("figures", help="regenerate paper figures")
    figures.add_argument("figure", choices=["3", "4", "5", "6", "7", "all"],
                         nargs="?", default="all")
    figures.add_argument("--devices", nargs="+",
                         default=["3090ti", "a10g", "v100"])
    figures.set_defaults(fn=cmd_figures)

    simulate = sub.add_parser("simulate",
                              help="simulated GPU time for a shape")
    _add_shape_arguments(simulate)
    simulate.add_argument("--algorithm", default="polyhankel")
    simulate.add_argument("--devices", nargs="+", default=["3090ti"])
    simulate.set_defaults(fn=cmd_simulate)

    select = sub.add_parser("select", help="algorithm recommendation")
    _add_shape_arguments(select)
    select.add_argument("--devices", nargs="+", default=["3090ti"])
    select.set_defaults(fn=cmd_select)

    tune = sub.add_parser("tune", help="measure algorithms on this machine")
    _add_shape_arguments(tune)
    tune.add_argument("--repeats", type=int, default=3)
    tune.add_argument("--cache-stats", action="store_true",
                      help="print cache hit/miss statistics afterwards")
    tune.set_defaults(fn=cmd_tune)

    bench = sub.add_parser("bench",
                           help="execution-engine wall-clock suite (JSON)")
    bench.add_argument("--smoke", action="store_true",
                       help="fast subset (CI-friendly)")
    bench.add_argument("--quick", action="store_true",
                       help="alias for --smoke (the CI gate's spelling)")
    bench.add_argument("--repeats", type=int, default=25)
    bench.add_argument("--out", default=None,
                       help="output JSON path (default BENCH_<date>.json)")
    bench.add_argument("--no-json", action="store_true",
                       help="print the table only")
    bench.add_argument("--check", metavar="BASELINE", default=None,
                       help="regression-gate against a baseline JSON "
                            "(nonzero exit on regression)")
    bench.add_argument("--tolerance", type=float, default=0.5,
                       help="allowed wall-clock growth fraction "
                            "(default 0.5)")
    bench.add_argument("--counter-tolerance", type=float, default=0.1,
                       help="allowed counter-total growth fraction "
                            "(default 0.1)")
    bench.add_argument("--cache-stats", action="store_true",
                       help="print cache hit/miss statistics afterwards")
    bench.add_argument("--inject", nargs="*", metavar="FAULT", default=None,
                       help="run the guard fault-injection recovery drill "
                            "instead of the timing suite (default: all "
                            "engine fault kinds)")
    bench.add_argument("--inject-cluster", nargs="*", metavar="FAULT",
                       default=None,
                       help="run the cluster chaos drill (watchdog, "
                            "retry, slot accounting) instead of the "
                            "timing suite (default: all cluster kinds)")
    bench.add_argument("--seed", type=int, default=0,
                       help="fault-injection seed (with --inject / "
                            "--inject-cluster)")
    bench.set_defaults(fn=cmd_bench)

    serve_bench = sub.add_parser(
        "serve-bench",
        help="serving-layer throughput presets (dynamic batching vs a "
             "sequential request loop)")
    serve_bench.add_argument("preset", nargs="?", default=None,
                             help="preset name (default: all presets)")
    serve_bench.add_argument("--repeats", type=int, default=25)
    serve_bench.add_argument("--list", action="store_true",
                             help="list the presets and exit")
    serve_bench.add_argument("--out", metavar="PATH", default=None,
                             help="also write the results as JSON")
    serve_bench.add_argument("--workers", type=int, nargs="+",
                             default=None, metavar="N",
                             help="run the cluster saturation sweep over "
                                  "these worker counts (e.g. --workers 1 "
                                  "2 4) instead of the in-process presets")
    serve_bench.add_argument("--check-scaleout", type=float, default=None,
                             metavar="RATIO",
                             help="with --workers: exit nonzero unless "
                                  "the 2-worker point scaled >= RATIO "
                                  "over 1 worker (CI's unconditional "
                                  "floor; needs a multi-core host)")
    serve_bench.add_argument("--overload", action="store_true",
                             help="run the overload sweep (open-loop "
                                  "Poisson arrivals at multiples of "
                                  "calibrated capacity) instead of the "
                                  "in-process presets")
    serve_bench.add_argument("--multipliers", type=float, nargs="+",
                             default=None, metavar="X",
                             help="with --overload: offered-load "
                                  "multiples of capacity to sweep "
                                  "(default: the preset's sweep)")
    serve_bench.add_argument("--check-goodput", type=float, default=None,
                             metavar="PCT",
                             help="with --overload: exit nonzero unless "
                                  "goodput at every point at/above the "
                                  "gate multiplier stays >= PCT of "
                                  "capacity (e.g. 0.85), and no request "
                                  "completes after being reported shed")
    serve_bench.add_argument("--gate-multiplier", type=float, default=2.0,
                             metavar="X",
                             help="with --check-goodput: the lowest "
                                  "overload multiplier the floor applies "
                                  "to (default 2.0)")
    serve_bench.set_defaults(fn=cmd_serve_bench)

    sub.add_parser(
        "serve-stats",
        help="serving counters of this process (requests, batches, "
             "coalesce rate, queue wait)"
    ).set_defaults(fn=cmd_serve_stats)

    selection_stats = sub.add_parser(
        "selection-stats",
        help="online algorithm-selection bandit: per-key arm posteriors "
             "and decisions (live bandit or a persisted table)")
    selection_stats.add_argument("--table", metavar="PATH", default=None,
                                 help="read a persisted selection table "
                                      "instead of the live bandit")
    selection_stats.set_defaults(fn=cmd_selection_stats)

    selection_drill = sub.add_parser(
        "selection-drill",
        help="CI convergence drill: seeded replay to the roofline oracle, "
             "warm-start round-trip, poisoned-shadow bit-exactness "
             "(nonzero exit on failure)")
    selection_drill.add_argument("--seed", type=int, default=0)
    selection_drill.add_argument("--requests", type=int, default=300,
                                 help="replay length per key "
                                      "(default 300)")
    selection_drill.add_argument("--table", metavar="PATH", default=None,
                                 help="persist the phase-1 table here "
                                      "(default: a temp file)")
    selection_drill.set_defaults(fn=cmd_selection_drill)

    sub.add_parser(
        "doctor",
        help="install health report: FFT parity, cache integrity, "
             "fallback chain, sentinel, guarded recovery"
    ).set_defaults(fn=cmd_doctor)

    profile = sub.add_parser(
        "profile",
        help="measured per-stage times vs the analytic cost model")
    profile.add_argument("preset", nargs="?", default=None,
                         help="bench-suite case name (e.g. "
                              "conv64_sum_numpy); omit to use shape flags")
    _add_shape_arguments(profile)
    profile.add_argument("--algorithm", default="polyhankel",
                         choices=["polyhankel", "gemm"],
                         help="execution path to profile")
    profile.add_argument("--strategy", default="sum",
                         choices=["sum", "merge"])
    profile.add_argument("--backend", default="numpy",
                         choices=["numpy", "builtin"])
    profile.add_argument("--repeats", type=int, default=10)
    profile.add_argument("--drift-threshold", type=float, default=5.0,
                         help="flag stages whose measured/predicted share "
                              "ratio leaves [1/t, t] (default 5)")
    profile.add_argument("--trace", action="store_true",
                         help="print the raw span log afterwards")
    profile.add_argument("--json", metavar="PATH", default=None,
                         help="also write the profile report as JSON")
    profile.set_defaults(fn=cmd_profile)

    sub.add_parser(
        "cache-stats",
        help="consolidated cache hit/miss table (observe registry)"
    ).set_defaults(fn=cmd_cache_stats)

    sub.add_parser("algorithms", help="list registered algorithms") \
        .set_defaults(fn=cmd_algorithms)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
