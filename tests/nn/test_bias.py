"""One bias rule on every conv entry point.

A bias holds exactly one entry per output channel.  Each entry point adds
it through ``repro.utils.validation.add_bias``: a wrong length raises
instead of broadcasting (a length-1 bias used to spread over every
filter), and a correct bias gives exactly the output plus the bias on
axis 1.
"""

import numpy as np
import pytest

from repro.core.multichannel import conv2d_polyhankel
from repro.guard import guarded
from repro.guard.chain import guarded_conv2d, guarded_convnd
from repro.nn import functional as F
from repro.nn.layers import Conv2d
from repro.serve import ConvServer

BAD_LENGTHS = [1, 3, 5]  # against 4 output channels


def _plus(out, bias):
    return out + bias.reshape((1, -1) + (1,) * (out.ndim - 2))


def _conv2d_problem(rng):
    return rng.standard_normal((2, 3, 8, 8)), rng.standard_normal(
        (4, 3, 3, 3))


def _served(x, w, bias, workers=1, **params):
    with ConvServer(max_batch=4, max_wait_ms=1, workers=workers) as server:
        return server.submit(x, w, bias, **params).result(timeout=30)


def _guarded_functional(x, w, bias, **params):
    with guarded():
        return F.conv2d(x, w, bias, **params)


CONV2D_ENTRY_POINTS = {
    "F.conv2d": lambda x, w, b: F.conv2d(x, w, b, padding=1),
    "F.conv2d[gemm]": lambda x, w, b: F.conv2d(x, w, b, padding=1,
                                                algorithm="gemm"),
    "conv2d_polyhankel": lambda x, w, b: conv2d_polyhankel(x, w, b,
                                                           padding=1),
    "guarded_conv2d": lambda x, w, b: guarded_conv2d(x, w, b, padding=1),
    "guarded F.conv2d": lambda x, w, b: _guarded_functional(x, w, b,
                                                            padding=1),
    "ConvServer": lambda x, w, b: _served(x, w, b, padding=1),
}


@pytest.mark.parametrize("entry", sorted(CONV2D_ENTRY_POINTS))
class TestConv2dEntryPoints:
    def test_wrong_length_raises(self, rng, entry):
        x, w = _conv2d_problem(rng)
        for length in BAD_LENGTHS:
            with pytest.raises(ValueError,
                               match=f"bias must have 4 entries, got "
                                     f"{length}"):
                CONV2D_ENTRY_POINTS[entry](x, w, np.ones(length))

    def test_correct_bias_is_exact(self, rng, entry):
        x, w = _conv2d_problem(rng)
        bias = rng.standard_normal(4)
        run = CONV2D_ENTRY_POINTS[entry]
        assert np.array_equal(run(x, w, bias), _plus(run(x, w, None), bias))


class TestLayer:
    def test_wrong_length_raises(self, rng):
        layer = Conv2d(3, 4, 3, padding=1)
        layer.bias = np.ones(1)
        with pytest.raises(ValueError, match="bias must have 4 entries"):
            layer.forward(rng.standard_normal((1, 3, 8, 8)))

    def test_correct_bias_is_exact(self, rng):
        layer = Conv2d(3, 4, 3, padding=1)
        layer.bias = rng.standard_normal(4)
        x = rng.standard_normal((1, 3, 8, 8))
        expected = _plus(F.conv2d(x, layer.weight, padding=1), layer.bias)
        assert np.array_equal(layer.forward(x), expected)


ND_PROBLEMS = {
    "conv1d": ((2, 3, 9), (4, 3, 3), {"padding": 1}),
    "conv3d": ((1, 3, 5, 5, 5), (4, 3, 3, 3, 3), {"padding": 1}),
    "conv_transpose2d": ((1, 3, 5, 5), (3, 4, 3, 3), {"stride": 2}),
}


def _functional(op):
    return getattr(F, op)


def _guarded_nd(op):
    return lambda x, w, b, **params: guarded_convnd(x, w, op, b, **params)


@pytest.mark.parametrize("op", sorted(ND_PROBLEMS))
@pytest.mark.parametrize("route", [_functional, _guarded_nd],
                         ids=["functional", "guarded"])
class TestNdEntryPoints:
    def test_wrong_length_raises(self, rng, op, route):
        x_shape, w_shape, params = ND_PROBLEMS[op]
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        with pytest.raises(ValueError, match="bias must have 4 entries"):
            route(op)(x, w, np.ones(1), **params)

    def test_correct_bias_is_exact(self, rng, op, route):
        x_shape, w_shape, params = ND_PROBLEMS[op]
        x, w = rng.standard_normal(x_shape), rng.standard_normal(w_shape)
        bias = rng.standard_normal(4)
        run = route(op)
        assert np.array_equal(run(x, w, bias, **params),
                              _plus(run(x, w, None, **params), bias))


def test_group_sharded_server_checks_the_whole_bias(rng):
    """With two workers a lone grouped request is cut along its groups;
    each shard takes its slice of the bias, so the full length must be
    checked before slicing (a length-8 bias used to serve 4 filters)."""
    x = rng.standard_normal((1, 4, 8, 8))
    w = rng.standard_normal((4, 2, 3, 3))
    with pytest.raises(ValueError, match="bias must have 4 entries, got 8"):
        _served(x, w, np.ones(8), workers=2, padding=1, groups=2)
    bias = rng.standard_normal(4)
    assert np.array_equal(
        _served(x, w, bias, workers=2, padding=1, groups=2),
        F.conv2d(x, w, bias, padding=1, groups=2))


def test_guard_checks_bias_before_any_attempt(rng, monkeypatch):
    from repro.guard import chain

    def attempted(*args, **kwargs):
        raise AssertionError("an engine attempt ran with a bad bias")

    monkeypatch.setattr(chain, "convolve", attempted)
    x, w = _conv2d_problem(rng)
    with pytest.raises(ValueError, match="bias must have 4 entries"):
        guarded_conv2d(x, w, np.ones(1), padding=1)
