"""Functional NN operations (inference).

``conv2d`` is the operator whose cuDNN dispatch the paper replaces inside
PyTorch (Sec. 4.2); here it dispatches through our algorithm registry, with
the same "force one algorithm network-wide" capability the paper's
experiment uses.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.registry import ConvAlgorithm, convolve
from repro.guard.state import guard_enabled
from repro.utils.validation import ensure_array


def conv2d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
           padding: int | tuple | str = 0, stride: int | tuple = 1,
           dilation: int | tuple[int, int] = 1, groups: int = 1,
           algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
           **kwargs) -> np.ndarray:
    """2D convolution with an explicit algorithm choice.

    Accepts the full conv2d parameter space: *stride* and *dilation* take
    an int or ``(h, w)`` pair, *padding* additionally a ``(pt, pb, pl, pr)``
    4-tuple or ``"same"``, and *groups* splits the channels (``groups=c``
    is depthwise).  Dispatch goes through the algorithm registry: PolyHankel
    and the GEMM family run the parameters natively (PolyHankel's stretched
    degree map absorbs dilation for free), while the FFT/Winograd baselines
    are lowered — or reject the shape explicitly — by the registry.

    ``algorithm="auto"`` picks per call using the distilled selection rules
    (GEMM small inputs / PolyHankel sweet spot / FFT large kernels) — the
    heuristic dispatch the paper proposes as future work.

    While the guard is enabled (:func:`repro.guard.enable_guard` or the
    :func:`repro.guard.guarded` scope), the call routes through the
    supervised fallback chain: the requested algorithm still runs first,
    but a tripped sentinel or a raised backend error degrades to a slower
    exact algorithm instead of propagating garbage.
    """
    weight = np.asarray(weight)
    x = np.asarray(x)
    if algorithm == "auto":
        from repro.selection.heuristic import select_algorithm_rules
        from repro.utils.shapes import ConvShape

        algorithm = select_algorithm_rules(ConvShape.from_tensors(
            x.shape, weight.shape, padding, stride, dilation, groups
        ))
    if guard_enabled():
        from repro.guard.chain import guarded_conv2d

        return guarded_conv2d(x, weight, bias=bias, padding=padding,
                              stride=stride, dilation=dilation,
                              groups=groups, algorithm=algorithm, **kwargs)
    out = convolve(x, weight, algorithm=algorithm, padding=padding,
                   stride=stride, dilation=dilation, groups=groups, **kwargs)
    if bias is not None:
        bias = ensure_array(bias, "bias", ndim=1)
        out = out + bias[None, :, None, None]
    return out


def conv2d_async(x: np.ndarray, weight: np.ndarray,
                 bias: np.ndarray | None = None,
                 padding: int | tuple | str = 0, stride: int | tuple = 1,
                 dilation: int | tuple[int, int] = 1, groups: int = 1,
                 algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
                 strategy: str = "sum", backend: str | None = None,
                 server=None, deadline_s: float | None = None):
    """Submit a convolution to the serving layer; returns a ``Future``.

    Requests submitted concurrently with the same weight array, geometry
    and parameters coalesce into one stacked engine call (dynamic
    batching); oversized requests shard across the server's worker pool.
    Uses the process-wide default :class:`~repro.serve.ConvServer` unless
    *server* is given.  ``future.result()`` is bit-exact with
    :func:`conv2d` on the same arguments.

    *deadline_s* bounds the request's lifetime: if it cannot be served in
    that many seconds the tier sheds it and the future raises
    :class:`repro.serve.DeadlineExceeded` instead of executing stale
    work.  May raise :class:`repro.serve.Overloaded` when the server is
    at its admission budget.
    """
    from repro import serve

    server = server if server is not None else serve.get_server()
    return server.submit(x, weight, bias, padding, stride, dilation,
                         groups, algorithm, strategy, backend,
                         deadline_s=deadline_s)


def conv1d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
           padding: int | tuple | str = 0, stride: int | tuple = 1,
           dilation: int | tuple = 1, groups: int = 1,
           algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
           **kwargs) -> np.ndarray:
    """1D convolution of an ``(n, c, length)`` batch.

    Same parameter space and dispatch rules as :func:`conv2d` (full
    stride/dilation/groups, ``"same"`` and asymmetric ``(lo, hi)``
    padding, any registered algorithm, guard-chain routing).  Internally
    the sequence runs as a ``1 x L`` image through the cached 2D engine,
    so 1D inherits the packed real-pair FFT pipeline.
    """
    return _convnd("conv1d", x, weight, bias, padding, stride, dilation,
                   groups, algorithm, **kwargs)


def conv3d(x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None = None,
           padding: int | tuple | str = 0, stride: int | tuple = 1,
           dilation: int | tuple = 1, groups: int = 1,
           algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
           **kwargs) -> np.ndarray:
    """3D convolution of an ``(n, c, depth, height, width)`` batch.

    The degree map stacks a plane stride on top of the 2D construction
    (``t^(Iw*Id*k + Iw*i + j)``), so the whole volume still runs as one
    1D FFT.  Algorithms: ``polyhankel``, ``gemm``, ``naive`` (the 2D-only
    baselines reject 3D shapes explicitly).
    """
    return _convnd("conv3d", x, weight, bias, padding, stride, dilation,
                   groups, algorithm, **kwargs)


def _convnd(op: str, x, weight, bias, padding, stride, dilation, groups,
            algorithm, **kwargs) -> np.ndarray:
    from repro.baselines.ndops import convolve_nd

    x = np.asarray(x)
    weight = np.asarray(weight)
    if guard_enabled():
        from repro.guard.chain import guarded_convnd

        return guarded_convnd(x, weight, op=op, bias=bias, padding=padding,
                              stride=stride, dilation=dilation,
                              groups=groups, algorithm=algorithm, **kwargs)
    out = convolve_nd(x, weight, op, algorithm, padding=padding,
                      stride=stride, dilation=dilation, groups=groups,
                      **kwargs)
    if bias is not None:
        bias = ensure_array(bias, "bias", ndim=1)
        out = out + bias.reshape((1, -1) + (1,) * (out.ndim - 2))
    return out


def conv_transpose2d(x: np.ndarray, weight: np.ndarray,
                     bias: np.ndarray | None = None,
                     padding: int | tuple = 0,
                     stride: int | tuple = 1,
                     output_padding: int | tuple = 0,
                     dilation: int | tuple = 1, groups: int = 1,
                     algorithm: ConvAlgorithm | str =
                     ConvAlgorithm.POLYHANKEL, **kwargs) -> np.ndarray:
    """Transposed (fractionally strided) convolution, a.k.a. deconvolution.

    Follows the PyTorch convention: *weight* is ``(c_in, c_out/groups,
    kh, kw)`` and each output extent is ``(i - 1) * stride - (p_lo +
    p_hi) + dilation * (k - 1) + 1 + output_padding`` with ``0 <=
    output_padding < stride`` (it resolves the ambiguity a strided
    forward convolution leaves about its input extent).  *stride*,
    *dilation*, *padding* and *output_padding* accept ints or ``(h, w)``
    pairs (padding also a flat 4-tuple).  The operation is the adjoint of
    :func:`conv2d`, computed with the convolution-based backward-input
    machinery — through any registered algorithm — and routes through the
    guard fallback chain while the guard is enabled.
    """
    from repro.baselines.ndops import convolve_nd

    x = ensure_array(x, "x", ndim=4, dtype=float)
    weight = ensure_array(weight, "weight", ndim=4, dtype=float)
    if guard_enabled():
        from repro.guard.chain import guarded_convnd

        return guarded_convnd(x, weight, op="conv_transpose2d", bias=bias,
                              padding=padding, stride=stride,
                              dilation=dilation, groups=groups,
                              output_padding=output_padding,
                              algorithm=algorithm, **kwargs)
    out = convolve_nd(x, weight, "conv_transpose2d", algorithm,
                      padding=padding, stride=stride, dilation=dilation,
                      groups=groups, output_padding=output_padding,
                      **kwargs)
    if bias is not None:
        bias = ensure_array(bias, "bias", ndim=1)
        out = out + bias[None, :, None, None]
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(x, 0.0)


def max_pool2d(x: np.ndarray, kernel_size: int,
               stride: int | None = None) -> np.ndarray:
    """Max pooling over NCHW spatial dims (no padding; floor division)."""
    return _pool2d(x, kernel_size, stride, np.max)


def avg_pool2d(x: np.ndarray, kernel_size: int,
               stride: int | None = None) -> np.ndarray:
    """Average pooling over NCHW spatial dims."""
    return _pool2d(x, kernel_size, stride, np.mean)


def _pool2d(x: np.ndarray, kernel_size: int, stride: int | None,
            reducer) -> np.ndarray:
    x = ensure_array(x, "x", ndim=4)
    if kernel_size < 1:
        raise ValueError("kernel_size must be positive")
    stride = kernel_size if stride is None else stride
    if stride < 1:
        raise ValueError("stride must be positive")
    n, c, h, w = x.shape
    oh = (h - kernel_size) // stride + 1
    ow = (w - kernel_size) // stride + 1
    if oh < 1 or ow < 1:
        raise ValueError(
            f"pool window {kernel_size} does not fit input {h}x{w}"
        )
    windows = np.lib.stride_tricks.sliding_window_view(
        x, (kernel_size, kernel_size), axis=(2, 3)
    )[:, :, ::stride, ::stride]
    return reducer(windows, axis=(-2, -1))


def batch_norm2d(x: np.ndarray, mean: np.ndarray, var: np.ndarray,
                 gamma: np.ndarray, beta: np.ndarray,
                 eps: float = 1e-5) -> np.ndarray:
    """Inference-mode batch normalization with running statistics."""
    shape = (1, -1, 1, 1)
    scale = gamma / np.sqrt(var + eps)
    return x * scale.reshape(shape) + (
        beta - mean * scale
    ).reshape(shape)


def linear(x: np.ndarray, weight: np.ndarray,
           bias: np.ndarray | None = None) -> np.ndarray:
    """Affine map on the last axis: ``x @ weight.T + bias``."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)
