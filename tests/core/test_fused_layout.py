"""Spectrum layout selection and the fused interleaved execution path."""

import pickle

import numpy as np
import pytest

from repro.core.multichannel import (
    PolyHankelPlan,
    clear_plan_cache,
    conv2d_polyhankel,
    get_plan,
)
from repro.core.planning import (
    INTERLEAVED_MIN_WORK,
    PlanSpec,
    select_spectrum_layout,
)
from repro.observe import tracing
from repro.observe.registry import counters, fft_call_totals
from repro.perfmodel.engine import predict_fft_counters
from repro.utils.shapes import ConvShape
from tests.conftest import assert_conv_close, naive_conv2d_reference

#: The bench suite's c16 preset shape (conv32_sum_numpy_c16): the case the
#: fused-path acceptance criteria are written against.
C16_SHAPE = ConvShape(ih=32, iw=32, kh=3, kw=3, n=4, c=16, f=16, padding=1)


def _problem(shape, seed=11):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((shape.n, shape.c, shape.ih, shape.iw))
    w = rng.standard_normal(
        (shape.f, shape.c // shape.groups, shape.kh, shape.kw))
    return x, w


def _measured_counters(plan, x, w):
    w_hat = plan.transform_weight(w)
    plan.execute(x, w_hat)                    # warm scratch
    counters.clear("fft.")
    with tracing():
        plan.execute(x, w_hat)
    totals = fft_call_totals()
    return {
        "fft_calls": sum(v["calls"] for v in totals.values()),
        "fft_rows": sum(v["rows"] for v in totals.values()),
        "by_kind": {k: v["calls"] for k, v in sorted(totals.items())},
    }


class TestLayoutSelection:
    def test_c16_preset_selects_interleaved(self):
        assert select_spectrum_layout(C16_SHAPE, "sum", "smooth7") \
            == "interleaved"

    def test_small_shape_stays_planar(self):
        shape = ConvShape(ih=16, iw=16, kh=3, kw=3, n=4, c=3, f=8, padding=1)
        assert select_spectrum_layout(shape, "sum", "smooth7") == "planar"

    def test_merge_strategy_is_always_planar(self):
        assert select_spectrum_layout(C16_SHAPE, "merge", "smooth7") \
            == "planar"

    def test_depthwise_stays_planar(self):
        shape = ConvShape(ih=64, iw=64, kh=3, kw=3, n=8, c=16, f=16,
                          padding=1, groups=16)
        assert select_spectrum_layout(shape, "sum", "smooth7") == "planar"

    def test_concrete_layouts_pass_through(self):
        assert select_spectrum_layout(C16_SHAPE, "sum", "pow2",
                                      "planar") == "planar"
        small = ConvShape(ih=8, iw=8, kh=3, kw=3, n=1, c=2, f=2)
        assert select_spectrum_layout(small, "sum", "pow2",
                                      "interleaved") == "interleaved"

    def test_unknown_layout_rejected(self):
        with pytest.raises(ValueError, match="layout"):
            select_spectrum_layout(C16_SHAPE, "sum", "pow2", "diagonal")

    def test_threshold_is_the_decision_boundary(self):
        shape = C16_SHAPE
        bins = get_plan(shape, backend="numpy").nfft // 2 + 1
        work = shape.n * shape.groups * shape.group_channels \
            * shape.group_filters * bins
        assert work >= INTERLEAVED_MIN_WORK


class TestFusedParity:
    @pytest.mark.parametrize("c,f,groups", [
        (2, 2, 1),    # smallest packable
        (3, 5, 1),    # both odd: leftover rows on both transforms
        (1, 4, 1),    # C=1: no channel pairs at all
        (4, 1, 1),    # F=1: no filter pairs
        (6, 4, 2),    # grouped
        (5, 3, 1),    # odd channels and filters
    ])
    def test_matches_planar_and_reference(self, c, f, groups):
        rng = np.random.default_rng(c * 7 + f)
        x = rng.standard_normal((2, c, 12, 11))
        w = rng.standard_normal((f, c // groups, 3, 4))
        ref = naive_conv2d_reference(x, w, 1, (1, 1), (1, 1), groups)
        planar = conv2d_polyhankel(x, w, padding=1, groups=groups,
                                   layout="planar")
        fused = conv2d_polyhankel(x, w, padding=1, groups=groups,
                                  layout="interleaved")
        assert_conv_close(fused, ref)
        np.testing.assert_allclose(fused, planar, atol=1e-10)

    def test_c16_preset_matches_naive(self):
        x, w = _problem(C16_SHAPE)
        ref = naive_conv2d_reference(x, w, 1, (1, 1), (1, 1), 1)
        got = conv2d_polyhankel(x, w, padding=1)  # auto -> interleaved
        assert_conv_close(got, ref)

    def test_strided_input(self):
        rng = np.random.default_rng(13)
        base = rng.standard_normal((2, 6, 24, 22))
        x = base[:, :, ::2, ::2]
        w = rng.standard_normal((4, 6, 3, 3))
        want = conv2d_polyhankel(np.ascontiguousarray(x), w,
                                 layout="interleaved")
        np.testing.assert_array_equal(
            conv2d_polyhankel(x, w, layout="interleaved"), want)

    def test_scratch_reuse_is_stable(self):
        """Back-to-back cached executes (scratch reuse on) must not leak
        state between calls."""
        x, w = _problem(C16_SHAPE)
        plan = get_plan(C16_SHAPE, backend="numpy")
        w_hat = plan.transform_weight(w)
        first = plan.execute(x, w_hat).copy()   # allocates scratch
        second = plan.execute(x, w_hat).copy()  # reuses it
        third = plan.execute(x, w_hat)
        np.testing.assert_array_equal(first, second)
        np.testing.assert_array_equal(second, third)


class TestFusedCounters:
    def test_c16_fft_rows_halve(self):
        """The acceptance gate: packing must cut fft_rows ~2x on the c16
        preset (even channel and filter counts -> exactly 2x)."""
        x, w = _problem(C16_SHAPE)
        fused = _measured_counters(
            get_plan(C16_SHAPE, backend="numpy"), x, w)
        planar = _measured_counters(
            get_plan(C16_SHAPE, backend="numpy", layout="planar"), x, w)
        assert fused["fft_rows"] < planar["fft_rows"]
        assert fused["fft_rows"] * 2 == planar["fft_rows"]

    @pytest.mark.parametrize("c,f,layout", [
        (16, 16, "interleaved"),
        (16, 16, "planar"),
        (5, 3, "interleaved"),
        (1, 4, "interleaved"),
    ])
    def test_predictor_matches_measurement(self, c, f, layout):
        shape = ConvShape(ih=12, iw=11, kh=3, kw=3, n=2, c=c, f=f, padding=1)
        x, w = _problem(shape)
        plan = get_plan(shape, backend="numpy", layout=layout)
        assert _measured_counters(plan, x, w) \
            == predict_fft_counters(shape, "sum", layout)


class TestPlanIdentity:
    def test_layout_is_part_of_plan_identity(self):
        a = get_plan(C16_SHAPE, backend="numpy", layout="planar")
        b = get_plan(C16_SHAPE, backend="numpy", layout="interleaved")
        assert a is not b
        assert (a.layout, b.layout) == ("planar", "interleaved")

    def test_auto_resolves_to_concrete_layout_in_cache(self):
        auto = get_plan(C16_SHAPE, backend="numpy")
        forced = get_plan(C16_SHAPE, backend="numpy", layout=auto.layout)
        assert auto is forced

    def test_plan_pickles_as_spec_with_layout(self):
        plan = get_plan(C16_SHAPE, backend="numpy", layout="interleaved")
        clone = pickle.loads(pickle.dumps(plan))
        assert clone is get_plan(C16_SHAPE, backend="numpy",
                                 layout="interleaved")
        assert clone.layout == "interleaved"

    def test_spec_round_trip(self):
        spec = PlanSpec(C16_SHAPE, "smooth7", "sum", "numpy", "interleaved")
        assert spec.resolve().layout == "interleaved"

    def test_direct_plan_resolves_auto(self):
        clear_plan_cache()
        plan = PolyHankelPlan(C16_SHAPE, backend="numpy")
        assert plan.layout in ("planar", "interleaved")
        assert plan.bins == plan.nfft // 2 + 1
