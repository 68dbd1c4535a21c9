"""Regression gate: compare_reports semantics and the bench --check wiring."""

import json

import pytest

from repro.observe.regression import (
    Regression,
    compare_reports,
    format_check,
    load_baseline,
)


def _report(cases):
    return {"schema_version": 2, "results": cases}


def _case(name, cached=1.0, uncached=2.0, fft_calls=10, fft_rows=80,
          guard_fallbacks=0):
    return {
        "name": name,
        "cached_ms": cached,
        "uncached_ms": uncached,
        "counters": {"fft_calls": fft_calls, "fft_rows": fft_rows,
                     "guard_fallbacks": guard_fallbacks},
    }


class TestCompareReports:
    def test_identical_reports_pass(self):
        report = _report([_case("a"), _case("b")])
        assert compare_reports(report, report) == []

    def test_within_tolerance_passes(self):
        base = _report([_case("a", cached=1.0)])
        cur = _report([_case("a", cached=1.4)])
        assert compare_reports(cur, base, tolerance=0.5) == []

    def test_injected_2x_slowdown_fails(self):
        """The acceptance scenario: doctor the baseline to look 2x faster
        and the gate must report wall-clock regressions."""
        base = _report([_case("a", cached=1.0, uncached=2.0)])
        doctored = json.loads(json.dumps(base))
        for row in doctored["results"]:
            row["cached_ms"] /= 2.0
            row["uncached_ms"] /= 2.0
        regressions = compare_reports(base, doctored, tolerance=0.5)
        assert {(r.metric, r.kind) for r in regressions} == {
            ("cached_ms", "wall"), ("uncached_ms", "wall")}
        assert all(r.ratio == pytest.approx(2.0) for r in regressions)

    def test_faster_is_never_a_regression(self):
        base = _report([_case("a", cached=2.0, uncached=4.0)])
        cur = _report([_case("a", cached=0.5, uncached=1.0)])
        assert compare_reports(cur, base) == []

    def test_sub_noise_floor_baselines_are_skipped(self):
        base = _report([_case("a", cached=0.01)])
        cur = _report([_case("a", cached=0.04)])  # 4x, but ~timer noise
        regressions = compare_reports(cur, base, min_ms=0.05)
        assert [r.metric for r in regressions if r.kind == "wall"] == []

    def test_counter_growth_is_tight(self):
        base = _report([_case("a", fft_calls=10)])
        cur = _report([_case("a", fft_calls=12)])  # +20% FFT invocations
        regressions = compare_reports(cur, base, counter_tolerance=0.1)
        assert [(r.metric, r.kind) for r in regressions] == [
            ("fft_calls", "counter")]

    def test_counters_absent_on_either_side_are_ignored(self):
        base = _report([_case("a")])
        cur = _report([_case("a")])
        del base["results"][0]["counters"]
        assert compare_reports(cur, base) == []

    def test_cases_only_in_one_report_are_ignored(self):
        base = _report([_case("a"), _case("gone")])
        cur = _report([_case("a"), _case("new")])
        assert compare_reports(cur, base) == []

    def test_guard_fallbacks_zero_tolerance(self):
        """The healthy baseline records 0 fallbacks; the usual counter
        loop skips zero baselines, so the guard metric must have its own
        comparison that does not."""
        base = _report([_case("a", guard_fallbacks=0)])
        cur = _report([_case("a", guard_fallbacks=1)])
        regressions = compare_reports(cur, base)
        assert [(r.metric, r.kind) for r in regressions] == [
            ("guard_fallbacks", "counter")]
        assert "must not grow" in regressions[0].describe()

    def test_guard_fallbacks_equal_passes(self):
        base = _report([_case("a", guard_fallbacks=0)])
        assert compare_reports(_report([_case("a")]), base) == []

    def test_guard_fallbacks_absent_in_old_baseline_ignored(self):
        base = _report([_case("a")])
        del base["results"][0]["counters"]["guard_fallbacks"]
        cur = _report([_case("a", guard_fallbacks=3)])
        assert compare_reports(cur, base) == []

    def test_regression_describe_mentions_limit(self):
        reg = Regression("a", "cached_ms", "wall", 1.0, 2.0, 1.5)
        text = reg.describe()
        assert "2.00x" in text and "1.50x" in text and "a" in text


def _serve_entry(name, speedup=2.5, min_speedup=2.0, served_rps=1000.0):
    return {"name": name, "speedup": speedup, "min_speedup": min_speedup,
            "served_rps": served_rps}


class TestCompareServe:
    def test_healthy_serve_section_passes(self):
        report = dict(_report([_case("a")]), serve=[_serve_entry("s")])
        assert compare_reports(report, report) == []

    def test_speedup_below_absolute_floor_fails(self):
        base = dict(_report([]), serve=[_serve_entry("s", speedup=2.5)])
        cur = dict(_report([]), serve=[_serve_entry("s", speedup=1.4)])
        regressions = compare_reports(cur, base)
        assert [(r.metric, r.kind) for r in regressions] == [
            ("speedup", "throughput")]
        assert regressions[0].limit == 2.0
        assert "fell below its floor" in regressions[0].describe()

    def test_floor_is_absolute_not_tolerance_scaled(self):
        # Even a sky-high tolerance cannot excuse missing min_speedup.
        base = dict(_report([]), serve=[_serve_entry("s")])
        cur = dict(_report([]), serve=[_serve_entry("s", speedup=1.9)])
        regressions = compare_reports(cur, base, tolerance=10.0)
        assert [r.metric for r in regressions] == ["speedup"]

    def test_served_rps_collapse_fails(self):
        base = dict(_report([]), serve=[_serve_entry("s",
                                                     served_rps=1000.0)])
        cur = dict(_report([]), serve=[_serve_entry("s",
                                                    served_rps=100.0)])
        regressions = compare_reports(cur, base, tolerance=0.5)
        assert ("served_rps", "throughput") in [
            (r.metric, r.kind) for r in regressions]

    def test_served_rps_within_tolerance_passes(self):
        base = dict(_report([]), serve=[_serve_entry("s",
                                                     served_rps=1000.0)])
        cur = dict(_report([]), serve=[_serve_entry("s",
                                                    served_rps=600.0)])
        assert compare_reports(cur, base, tolerance=0.5) == []

    def test_ungated_preset_skips_speedup_check(self):
        base = dict(_report([]), serve=[_serve_entry(
            "s", speedup=2.0, min_speedup=None)])
        cur = dict(_report([]), serve=[_serve_entry(
            "s", speedup=0.5, min_speedup=None)])
        assert compare_reports(cur, base, tolerance=0.5) == []

    def test_serve_entries_only_in_one_report_ignored(self):
        base = dict(_report([]), serve=[_serve_entry("gone")])
        cur = dict(_report([]), serve=[_serve_entry("new", speedup=0.1)])
        assert compare_reports(cur, base) == []

    def test_reports_without_serve_section_pass(self):
        base = dict(_report([_case("a")]), serve=[_serve_entry("s")])
        cur = _report([_case("a")])  # e.g. a pre-serve baseline
        assert compare_reports(cur, base) == []
        assert compare_reports(base, cur) == []


class TestServeBenchCase:
    """run_serve_case on the cheapest preset (real serving, tiny shapes)."""

    @pytest.mark.slow
    def test_serve_case_smoke(self):
        from repro.bench import SERVE_PRESETS, run_serve_case

        preset = next(p for p in SERVE_PRESETS if not p.heavy)
        result = run_serve_case(preset, repeats=1)
        assert result["name"] == preset.name
        assert result["exact"] is True
        assert result["served_rps"] > 0
        assert result["sequential_rps"] > 0
        assert result["counters"]["requests"] == preset.requests

    def test_env_pins_recorded(self):
        from repro.bench import ENV_PINS, env_pins

        pins = env_pins()
        assert set(pins) == set(ENV_PINS)


class TestFormatAndLoad:
    def test_format_ok(self):
        text = format_check([], "base.json", 0.5, 0.1)
        assert "OK" in text and "base.json" in text

    def test_format_failed_lists_each(self):
        regs = [Regression("a", "cached_ms", "wall", 1.0, 2.0, 1.5),
                Regression("b", "fft_calls", "counter", 10, 12, 1.1)]
        text = format_check(regs, "base.json", 0.5, 0.1)
        assert "FAILED" in text and "2 regression(s)" in text
        assert "a: cached_ms" in text and "b: fft_calls" in text

    def test_load_baseline_roundtrip(self, tmp_path):
        report = _report([_case("a")])
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(report))
        assert load_baseline(str(path)) == report


class TestBenchWiring:
    """run_check + the --check CLI path on a real (tiny) measurement."""

    @pytest.fixture(scope="class")
    def measured(self):
        from repro.bench import SUITE, run_case

        case = next(c for c in SUITE if c.name == "conv16_sum_numpy")
        result = run_case(case, repeats=2)
        return _report([result])

    def test_results_carry_counters(self, measured):
        counters = measured["results"][0]["counters"]
        assert counters["fft_calls"] >= 2  # >=1 rfft + >=1 irfft
        assert counters["fft_rows"] > 0
        assert "by_kind" in counters

    def test_run_check_passes_against_self(self, measured, tmp_path,
                                            capsys):
        from repro.bench import run_check

        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(measured))
        assert run_check(measured, str(path), tolerance=0.5,
                         counter_tolerance=0.1, repeats=2) == 0
        assert "OK" in capsys.readouterr().out

    def test_run_check_fails_on_doctored_baseline(self, measured,
                                                  tmp_path, capsys):
        """Counter metrics are deterministic, so halving the baseline's
        FFT-invocation counts must fail the gate regardless of machine
        speed — the confirmation re-measure only rescues wall metrics."""
        from repro.bench import run_check

        doctored = json.loads(json.dumps(measured))
        for row in doctored["results"]:
            row["counters"]["fft_calls"] //= 2
            row["counters"]["fft_rows"] //= 2
        path = tmp_path / "baseline.json"
        path.write_text(json.dumps(doctored))
        assert run_check(measured, str(path), tolerance=0.5,
                         counter_tolerance=0.1, repeats=2) == 1
        assert "FAILED" in capsys.readouterr().out
