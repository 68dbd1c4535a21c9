"""N-dimensional PolyHankel convolution (extension beyond the paper).

The paper develops the construction for 2D, but nothing in it is specific
to two dimensions: for a d-dimensional input with padded extents
``P_1 x ... x P_d`` and row-major strides ``s_l``, assign input element
``a[i_1..i_d]`` the degree ``sum_l s_l i_l`` (the flattened index) and
kernel element ``u[j_1..j_d]`` the degree ``M - sum_l s_l d_l j_l`` with
``M = sum_l s_l d_l (K_l - 1)`` (``d_l`` the per-axis dilation — the
stretched degree map, exactly as in 2D).  Every conceptual im2col row
again collapses to a single product term, and output ``(o_1..o_d)`` is
the coefficient at ``M + sum_l s_l stride_l o_l``.  The 2D case recovers
Eqs. 10-12 exactly; 1D drops the row stride; 3D stacks a plane stride
(``t^(Iw*Id*k + Iw*i + j)``).

This gives the library 1D (sequence/audio) and 3D (volumetric/video)
convolution through the same single-FFT pipeline, with channel summation
in the frequency domain as in Sec. 3.2 and the full parameter space
(per-axis stride and dilation, asymmetric/"same" padding, groups).

Rank-2 problems should keep using :mod:`repro.core.multichannel` (plan
cache, spectrum cache, packed layouts); rank-1 problems are lowered onto
that engine by :func:`conv1d_polyhankel` (a length-L sequence *is* a
1 x L image), so 1D inherits the packed real-pair FFT pipeline for free.
Other ranks run through the light :class:`NdPlan` cache here.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np

from repro import fft as _fft
from repro.core.planning import FftPolicy, PlanSpec, plan_fft_size
from repro.utils.shapes import ConvShapeNd, normalize_tuple
from repro.utils.validation import ensure_array, require


def _normalize_per_dim(value, ndim: int, name: str) -> tuple[int, ...]:
    """Broadcast an int (or validate a tuple) to one entry per spatial dim."""
    return normalize_tuple(value, ndim, name)


def _row_major_strides(extents: tuple[int, ...]) -> tuple[int, ...]:
    strides = [1]
    for extent in extents[:0:-1]:
        strides.append(strides[-1] * extent)
    return tuple(reversed(strides))


def max_kernel_degree_nd(kernel_extents: tuple[int, ...],
                         strides: tuple[int, ...],
                         dilation: tuple[int, ...] | None = None) -> int:
    """Highest kernel-polynomial exponent: ``sum_l s_l d_l (K_l - 1)``."""
    if dilation is None:
        dilation = (1,) * len(kernel_extents)
    return int(sum(s * d * (k - 1)
                   for s, d, k in zip(strides, dilation, kernel_extents)))


def kernel_polynomial_nd(kernel: np.ndarray,
                         padded_extents: tuple[int, ...],
                         dilation: tuple[int, ...] | None = None
                         ) -> np.ndarray:
    """Coefficient vector of U(t) for one d-dimensional kernel.

    With *dilation*, tap ``(j_1..j_d)`` sits at degree
    ``M - sum_l s_l d_l j_l`` — the zeros between taps are never stored,
    the degree map just stretches.
    """
    kernel = ensure_array(kernel, "kernel", dtype=float)
    strides = _row_major_strides(padded_extents)
    if dilation is None:
        dilation = (1,) * kernel.ndim
    m = max_kernel_degree_nd(kernel.shape, strides, dilation)
    coeffs = np.zeros(m + 1, dtype=kernel.dtype)
    grids = np.meshgrid(*[np.arange(k) for k in kernel.shape],
                        indexing="ij")
    degrees = sum(s * d * g for s, d, g in zip(strides, dilation, grids))
    coeffs[m - degrees] = kernel
    return coeffs


def output_gather_nd(out_extents: tuple[int, ...],
                     strides: tuple[int, ...],
                     conv_strides: tuple[int, ...], m: int) -> np.ndarray:
    """Gather indices: M + sum_l s_l * stride_l * o_l (shape out_extents)."""
    grids = np.meshgrid(*[np.arange(o) for o in out_extents], indexing="ij")
    return m + sum(s * cs * g
                   for s, cs, g in zip(strides, conv_strides, grids))


# ---------------------------------------------------------------------------
# Plan cache
# ---------------------------------------------------------------------------

class NdPlan:
    """Precomputed geometry of one N-D PolyHankel problem.

    The N-D analogue of :class:`repro.core.multichannel.PolyHankelPlan`,
    deliberately lighter: degree strides, FFT size and the Eq. 12 gather
    index block are computed once and reused across calls; the weight
    spectrum is transformed per call (the rank-2 engine's content-checked
    spectrum cache does not apply here).
    """

    def __init__(self, shape: ConvShapeNd, fft_policy: FftPolicy = "pow2",
                 backend: str | None = None):
        self.shape = shape
        self.fft_policy = fft_policy
        self.backend = backend
        self.strides = shape.poly_strides
        self.m = shape.poly_kernel_len - 1
        self.nfft = plan_fft_size(shape.poly_product_len, fft_policy)
        self.gather = output_gather_nd(shape.out_extents, self.strides,
                                       shape.stride_nd, self.m)

    @property
    def spec(self) -> PlanSpec:
        """The pickle-safe :class:`PlanSpec` identifying this plan."""
        return PlanSpec(self.shape, self.fft_policy, "sum", self.backend,
                        ndim=self.shape.ndim)

    def transform_weight(self, weight: np.ndarray) -> np.ndarray:
        """Frequency-domain kernel block ``(f, c_per, bins)``."""
        shape = self.shape
        fft = _fft.get_backend(self.backend)
        dilation = shape.dilation_nd
        padded = shape.padded_extents
        kernels = np.stack([
            np.stack([kernel_polynomial_nd(weight[fi, ci], padded, dilation)
                      for ci in range(shape.group_channels)])
            for fi in range(shape.f)
        ])
        return fft.rfft(kernels, self.nfft)

    def execute(self, x: np.ndarray, w_hat: np.ndarray) -> np.ndarray:
        """One forward pass given the transformed weights."""
        shape = self.shape
        fft = _fft.get_backend(self.backend)
        n, g = shape.n, shape.groups
        c_per, f_per = shape.group_channels, shape.group_filters
        xp = np.pad(x, [(0, 0), (0, 0)] + list(shape.pad_pairs))
        flat = xp.reshape(n, shape.c, shape.poly_input_len)
        x_hat = fft.rfft(flat, self.nfft)               # (n, c, bins)
        bins = x_hat.shape[-1]
        # Frequency-domain channel sum, blocked per group: x groups along
        # the channel axis, w groups along the filter axis.
        xg = x_hat.reshape(n, g, c_per, bins)
        wg = w_hat.reshape(g, f_per, c_per, bins)
        out_hat = np.einsum("ngcb,gfcb->ngfb", xg, wg)
        out_hat = out_hat.reshape(n, shape.f, bins)
        product = fft.irfft(out_hat, self.nfft)         # (n, f, nfft)
        return product[..., self.gather]


_ND_PLANS: dict[tuple, NdPlan] = {}
_ND_PLAN_LOCK = threading.Lock()


def get_plan_nd(shape: ConvShapeNd, fft_policy: FftPolicy = "pow2",
                backend: str | None = None) -> NdPlan:
    """The (cached) :class:`NdPlan` for *shape* in this process."""
    key = (shape, fft_policy, backend)
    plan = _ND_PLANS.get(key)
    if plan is None:
        with _ND_PLAN_LOCK:
            plan = _ND_PLANS.get(key)
            if plan is None:
                plan = NdPlan(shape, fft_policy, backend)
                _ND_PLANS[key] = plan
    return plan


def clear_ndplan_cache() -> None:
    """Drop every cached N-D plan (tests, memory pressure)."""
    with _ND_PLAN_LOCK:
        _ND_PLANS.clear()


# ---------------------------------------------------------------------------
# Forward operators
# ---------------------------------------------------------------------------

def convnd_polyhankel(x: np.ndarray, weight: np.ndarray, padding=0,
                      stride=1, dilation=1, groups: int = 1,
                      fft_policy: FftPolicy = "pow2",
                      backend: str | None = None) -> np.ndarray:
    """d-dimensional convolution of an ``(n, c, *spatial)`` batch.

    *weight* is ``(f, c // groups, *kernel_spatial)``; *padding*, *stride*
    and *dilation* are ints or per-dimension tuples (*padding* also a
    flat ``(lo, hi)`` per-axis sequence or ``"same"``).  Works for any
    d >= 1; 1D/2D/3D are the practically useful cases, and rank-1/rank-2
    problems are better served by the cached 2D engine (see
    :func:`conv1d_polyhankel`).
    """
    x = ensure_array(x, "x", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    require(x.ndim >= 3, "input must be (n, c, *spatial)")
    shape = ConvShapeNd.from_tensors(x.shape, weight.shape, padding,
                                     stride, dilation, groups)
    plan = get_plan_nd(shape, fft_policy, backend)
    return plan.execute(x, plan.transform_weight(weight))


_LIFT_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}
_LIFT_LOCK = threading.Lock()
_LIFT_LIMIT = 64


def lift_weight_1d(weight: np.ndarray) -> np.ndarray:
    """The ``(f, c, 1, k)`` view of a 1D weight, memoized per array.

    The 2D engine's spectrum cache keys on ``id(weight)``; a fresh view
    per call would miss it forever and re-transform the kernel on every
    forward.  Memoizing the view per source array keeps the id stable, so
    steady-state 1D inference hits the spectrum cache exactly like native
    2D.  The view shares memory with its source, so in-place mutation of
    the 1D weight is still caught by the spectrum cache's content check.
    """
    key = id(weight)
    with _LIFT_LOCK:
        entry = _LIFT_CACHE.get(key)
        if entry is not None and entry[0] is weight:
            return entry[1]
        lifted = weight[:, :, None, :]
        if len(_LIFT_CACHE) >= _LIFT_LIMIT:
            _LIFT_CACHE.clear()
        _LIFT_CACHE[key] = (weight, lifted)
        return lifted


def conv1d_polyhankel(x: np.ndarray, weight: np.ndarray, padding=0,
                      stride=1, dilation=1, groups: int = 1,
                      **kwargs) -> np.ndarray:
    """1D convolution of an ``(n, c, length)`` batch.

    Lowered onto the cached 2D engine as a ``1 x L`` image — the degree
    map degenerates to ``t^j`` either way, and the 2D route brings the
    plan/spectrum caches and the packed real-pair FFT pipeline along.
    Extra *kwargs* (``strategy``, ``backend``, ``layout``,
    ``fft_policy``) pass straight through to the engine.
    """
    from repro.core.multichannel import conv2d_polyhankel

    x = ensure_array(x, "x", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    require(x.ndim == 3, "conv1d input must be (n, c, length)")
    require(weight.ndim == 3,
            "conv1d weight must be (f, c/groups, kernel)")
    shape = ConvShapeNd.from_tensors(x.shape, weight.shape, padding,
                                     stride, dilation, groups)
    (lo, hi), = shape.pad_pairs
    out = conv2d_polyhankel(
        x[:, :, None, :], lift_weight_1d(weight),
        padding=(0, 0, lo, hi), stride=(1, shape.stride_nd[0]),
        dilation=(1, shape.dilation_nd[0]), groups=groups, **kwargs)
    return out[:, :, 0, :]


def conv3d_polyhankel(x: np.ndarray, weight: np.ndarray, padding=0,
                      stride=1, dilation=1, groups: int = 1,
                      **kwargs) -> np.ndarray:
    """3D convolution of an ``(n, c, depth, height, width)`` batch."""
    x = ensure_array(x, "x")
    require(x.ndim == 5, "conv3d input must be (n, c, d, h, w)")
    return convnd_polyhankel(x, weight, padding, stride, dilation, groups,
                             **kwargs)


def convnd_naive(x: np.ndarray, weight: np.ndarray, padding=0,
                 stride=1, dilation=1, groups: int = 1) -> np.ndarray:
    """Direct d-dimensional reference (for testing the fast path)."""
    x = ensure_array(x, "x", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    shape = ConvShapeNd.from_tensors(x.shape, weight.shape, padding,
                                     stride, dilation, groups)
    xp = np.pad(x, [(0, 0), (0, 0)] + list(shape.pad_pairs))
    stride_nd, dilation_nd = shape.stride_nd, shape.dilation_nd
    eff = shape.eff_kernel
    out_extents = shape.out_extents
    c_per, f_per = shape.group_channels, shape.group_filters
    out = np.zeros((shape.n, shape.f, *out_extents))
    flat_weight = weight.reshape(shape.f, -1)
    for idx in itertools.product(*[range(o) for o in out_extents]):
        window = tuple(
            slice(i * s, i * s + e, d)
            for i, s, e, d in zip(idx, stride_nd, eff, dilation_nd)
        )
        patch = xp[(slice(None), slice(None)) + window]
        for g in range(shape.groups):
            flat_patch = patch[:, g * c_per:(g + 1) * c_per].reshape(
                shape.n, -1)
            filters = slice(g * f_per, (g + 1) * f_per)
            out[(slice(None), filters) + idx] = \
                flat_patch @ flat_weight[filters].T
    return out


def convnd_im2col_gemm(x: np.ndarray, weight: np.ndarray, padding=0,
                       stride=1, dilation=1, groups: int = 1) -> np.ndarray:
    """Explicit N-D im2col + GEMM (the Vasudevan-style lowered reference).

    Patches are gathered with ``sliding_window_view`` (dilation becomes a
    per-axis window step, stride a per-axis subsample), flattened to the
    classic ``(patch, c_per * prod(K))`` matrix and contracted against the
    flattened weights — one GEMM per group.
    """
    x = ensure_array(x, "x", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    shape = ConvShapeNd.from_tensors(x.shape, weight.shape, padding,
                                     stride, dilation, groups)
    ndim = shape.ndim
    xp = np.pad(x, [(0, 0), (0, 0)] + list(shape.pad_pairs))
    windows = np.lib.stride_tricks.sliding_window_view(
        xp, shape.eff_kernel, axis=tuple(range(2, 2 + ndim)))
    # (n, c, *valid, *eff_k) -> subsample outputs by stride, taps by
    # dilation.
    sel = ((slice(None), slice(None))
           + tuple(slice(None, None, s) for s in shape.stride_nd)
           + tuple(slice(None, None, d) for d in shape.dilation_nd))
    windows = windows[sel]                  # (n, c, *out, *k)
    n = shape.n
    c_per, f_per = shape.group_channels, shape.group_filters
    out_extents = shape.out_extents
    # Move channels next to the kernel taps: (n, *out, c, *k).
    windows = np.moveaxis(windows, 1, 1 + ndim)
    cols = windows.reshape(n, *out_extents, shape.c, shape.kernel_elems)
    outs = []
    for g in range(shape.groups):
        block = cols[..., g * c_per:(g + 1) * c_per, :].reshape(
            n, *out_extents, c_per * shape.kernel_elems)
        w_flat = weight[g * f_per:(g + 1) * f_per].reshape(f_per, -1)
        outs.append(block @ w_flat.T)       # (n, *out, f_per)
    stacked = np.concatenate(outs, axis=-1)  # (n, *out, f)
    return np.moveaxis(stacked, -1, 1)
