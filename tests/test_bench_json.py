"""Smoke test for the JSON benchmark harness (slow; excluded from tier-1).

Run explicitly with ``pytest -m slow`` or via ``python -m repro bench
--smoke``.  Validates the report schema and that it round-trips through
JSON, without asserting timing (the CI box is too noisy for that).
"""

import json

import pytest

from repro import bench

pytestmark = pytest.mark.slow


def test_smoke_suite_schema(tmp_path):
    report = bench.run_suite(smoke=True, repeats=1)
    # v2 added the per-case deterministic FFT counters (see --check gate);
    # v3 added the guard_fallbacks counter (zero on a healthy install);
    # v4 added the resolved spectrum layout and roofline_pct;
    # v5 added the N-dimensional operator presets (rows carrying "op").
    assert report["schema"] == bench.SCHEMA_VERSION == 5
    for row in report["results"]:
        assert row["counters"]["fft_calls"] >= 2
        assert row["counters"]["guard_fallbacks"] == 0
        assert row["layout"] in ("planar", "interleaved", None)
        assert row["roofline_pct"] is None or row["roofline_pct"] > 0
    nd_rows = [row for row in report["results"] if "op" in row]
    rows_2d = [row for row in report["results"] if "op" not in row]
    assert {row["op"] for row in nd_rows} == {
        "conv1d", "conv3d", "conv_transpose2d"}
    for row in nd_rows:
        assert row["first_call_ms"] > 0
        assert row["cached_ms"] > 0
        if row["op"] in ("conv1d", "conv3d"):
            # run_nd_case raises if measured != predicted; the report
            # must still carry the prediction for the --check gate.
            predicted = row["predicted_counters"]
            assert {k: row["counters"][k] for k in predicted} == predicted
    assert rows_2d, "smoke suite must run at least one 2D case"
    extended_seen = 0
    for row in rows_2d:
        assert row["uncached_ms"] > 0
        assert row["cached_ms"] > 0
        shape = row["shape"]
        extended = (shape["stride"], shape["dilation"], shape["groups"]) \
            != (1, 1, 1)
        if extended:
            # The seed replica cannot run strided/dilated/grouped layers:
            # those rows are verified against naive and carry no seed
            # comparison.
            extended_seen += 1
            assert row["seed_ms"] is None and row["speedup"] is None
        else:
            assert row["seed_ms"] > 0
            assert row["speedup"] == pytest.approx(
                row["seed_ms"] / row["cached_ms"], rel=1e-2)
        assert row["cache_speedup"] == pytest.approx(
            row["uncached_ms"] / row["cached_ms"], rel=1e-2)
    assert extended_seen >= 2, \
        "smoke suite must cover the strided and depthwise presets"
    # every case must be exercised with both cold and warm measurements
    names = {row["name"] for row in report["results"]}
    assert len(names) == len(report["results"])

    out = tmp_path / "bench.json"
    bench.write_report(report, out)
    assert json.loads(out.read_text())["results"] == report["results"]


def test_smoke_cli_entry(tmp_path, capsys):
    out = tmp_path / "bench.json"
    code = bench.main(["--smoke", "--repeats", "1", "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert "speedup" in capsys.readouterr().out


def test_inject_drill_recovers_everywhere(capsys):
    """The recovery drill: one fault kind across the smoke suite must
    recover the naive reference on every case and exit clean."""
    report = bench.run_inject_drill(kinds=("backend_error",), smoke=True)
    assert report["failures"] == 0
    assert report["rows"], "drill must cover the smoke cases"
    for row in report["rows"]:
        assert row["recovered"]
        assert row["injected"] >= 1
        assert row["fallbacks"] >= 1
    text = bench.format_inject_report(report)
    assert "drill passed" in text


def test_inject_drill_cli_entry(capsys):
    code = bench.main(["--quick", "--inject", "nan_input", "--no-json"])
    assert code == 0
    assert "recovered" in capsys.readouterr().out
