"""Conv2d on the engine's weight-spectrum cache: amortization and
invalidation.

The microbenchmark guard asserts the *mechanism* (not wall-clock): a
counting shim on the FFT backend proves the second forward of a
fixed-shape ``Conv2d`` performs zero ``rfft`` calls on the weight, so the
amortization cannot silently regress.  The layer has no cache of its own:
its statistics are the module-level :func:`spectrum_cache_info`.
"""

import numpy as np
import pytest

from repro import fft as _fft
from repro.core.multichannel import (
    clear_plan_cache,
    clear_spectrum_cache,
    enable_spectrum_cache,
    spectrum_cache_info,
)
from repro.nn import functional as F
from repro.nn.layers import Conv2d
from tests.conftest import naive_conv2d_reference


@pytest.fixture(autouse=True)
def _fresh_caches():
    clear_plan_cache()
    clear_spectrum_cache()
    yield
    enable_spectrum_cache(True)
    clear_plan_cache()
    clear_spectrum_cache()


def _weight_call_count(log, layer):
    """Recorded rfft calls whose input is weight-shaped (f, c, ...)."""
    f, c = layer.out_channels, layer.in_channels
    return sum(1 for s in log.shapes("rfft")
               if len(s) == 3 and s[:2] == (f, c))


class TestAmortizationGuard:
    def test_second_forward_performs_zero_weight_rffts(self, rng):
        layer = Conv2d(3, 8, 3, padding=1, bias=False)
        x = rng.standard_normal((2, 3, 12, 12))

        with _fft.record_fft_calls() as log:
            layer(x)
        assert _weight_call_count(log, layer) == 1  # cold: transform once

        with _fft.record_fft_calls() as log:
            layer(x)
            layer(x)
        assert _weight_call_count(log, layer) == 0  # warm: never again
        assert log.count("rfft") == 2  # the input transform still runs

    def test_cache_disabled_layer_retransforms(self, rng):
        # Disabling the engine's spectrum cache forces a true retransform.
        layer = Conv2d(3, 8, 3, padding=1, bias=False)
        x = rng.standard_normal((2, 3, 12, 12))
        try:
            enable_spectrum_cache(False)
            layer(x)
            with _fft.record_fft_calls() as log:
                layer(x)
        finally:
            enable_spectrum_cache(True)
        assert _weight_call_count(log, layer) == 1

    def test_layer_and_functional_share_one_transform(self, rng):
        """A Conv2d forward and F.conv2d on the same weight array and
        geometry read one cache entry: one weight rfft in total."""
        layer = Conv2d(3, 8, 3, padding=1, bias=False)
        x = rng.standard_normal((2, 3, 12, 12))
        with _fft.record_fft_calls() as log:
            out = layer(x)
            again = F.conv2d(x, layer.weight, padding=1)
        assert _weight_call_count(log, layer) == 1
        np.testing.assert_array_equal(again, out)
        info = spectrum_cache_info()
        assert (info.hits, info.misses) == (1, 1)


class TestLayerCacheCorrectness:
    def test_cached_forward_matches_reference(self, rng):
        layer = Conv2d(3, 4, 3, padding=1)
        x = rng.standard_normal((2, 3, 10, 10))
        expected = naive_conv2d_reference(x, layer.weight, 1) \
            + layer.bias[None, :, None, None]
        for _ in range(3):  # cold then cached
            np.testing.assert_allclose(layer(x), expected, atol=1e-8)
        assert spectrum_cache_info().hits == 2

    def test_cached_forward_bit_identical_to_uncached(self, rng):
        layer = Conv2d(3, 4, 3, padding=1, bias=False)
        x = rng.standard_normal((2, 3, 10, 10))
        enable_spectrum_cache(False)
        reference = layer(x)
        enable_spectrum_cache(True)
        np.testing.assert_array_equal(layer(x), reference)
        np.testing.assert_array_equal(layer(x), reference)

    def test_multiple_input_shapes_each_get_a_plan(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, bias=False)
        for ih in (8, 10, 12):
            x = rng.standard_normal((1, 2, ih, ih))
            np.testing.assert_allclose(
                layer(x), naive_conv2d_reference(x, layer.weight, 1),
                atol=1e-8)
        assert spectrum_cache_info().size == 3


class TestLayerCacheInvalidation:
    def test_rebinding_weight_invalidates(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, bias=False)
        x = rng.standard_normal((1, 2, 8, 8))
        layer(x)
        layer.weight = rng.standard_normal(layer.weight.shape)
        with _fft.record_fft_calls() as log:
            out = layer(x)
        assert _weight_call_count(log, layer) == 1
        np.testing.assert_allclose(
            out, naive_conv2d_reference(x, layer.weight, 1), atol=1e-8)

    def test_in_place_mutation_yields_fresh_spectra(self, rng):
        layer = Conv2d(2, 3, 3, padding=1, bias=False)
        x = rng.standard_normal((1, 2, 8, 8))
        stale = layer(x)
        layer.weight[...] = rng.standard_normal(layer.weight.shape)
        out = layer(x)
        assert not np.array_equal(out, stale)
        np.testing.assert_allclose(
            out, naive_conv2d_reference(x, layer.weight, 1), atol=1e-8)
