"""Batched multi-channel, multi-filter PolyHankel convolution (Sec. 3.2).

Two channel-handling strategies, as discussed in the paper:

- ``"sum"`` (the paper's chosen option): FFT each input channel separately,
  multiply with per-channel kernel spectra and **sum across channels in the
  frequency domain**, then run one inverse FFT per (image, filter) pair.
- ``"merge"`` (the paper's alternative): interleave all channels into one
  long polynomial whose single FFT aggregates channels automatically, at the
  price of a C-times larger transform.

Both produce identical results; ``benchmarks/bench_ablation_channel_merge``
quantifies the tradeoff the paper describes.

This module is also the execution engine: everything shape-dependent lives
in a :class:`PolyHankelPlan` (bounded LRU cache, :func:`get_plan`), and
everything *weight*-dependent — the kernel spectrum — is memoized in a
bounded, content-verified spectrum cache (:meth:`PolyHankelPlan.
weight_spectrum`), so steady-state inference transforms each kernel exactly
once.  :meth:`PolyHankelPlan.execute` runs the whole batch as one plan:
one input transform, one pointwise product, one inverse transform.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from repro import fft as _fft
from repro.core.construction import (
    channel_kernel_stack,
    merged_input_stack,
    merged_kernel_stack,
    merged_output_gather_indices,
    output_gather_indices,
    polynomial_lengths,
)
from repro.core.planning import (
    FftPolicy,
    PlanSpec,
    SpectrumLayout,
    plan_fft_size,
    resolve_fft_policy,
    select_spectrum_layout,
)
from repro.fft import packed as _packed
from repro.fft.plan import CacheInfo
from repro.guard import faults as _faults
from repro.guard.checksum import array_checksum, verify_checksum
from repro.guard.state import guard_enabled
from repro.hankel.im2col_view import pad2d
from repro.observe import record_cache_event, span
from repro.observe.registry import (
    cache_hits_misses,
    counters,
    reset_cache_stats,
)
from repro.utils.shapes import ConvShape
from repro.utils.validation import check_conv_inputs, ensure_array

ChannelStrategy = Literal["sum", "merge"]


def _as_grid(gather: np.ndarray) -> tuple[int, int, int] | None:
    """``(base, row_stride, col_stride)`` if *gather* is a regular grid.

    Output degrees are affine in (i, j) for every stride (Eq. 12), so this
    holds for all shapes we generate; the check keeps it an invariant
    rather than an assumption.
    """
    if gather.ndim != 2 or gather.size == 0:
        return None
    base = int(gather[0, 0])
    cs = int(gather[0, 1]) - base if gather.shape[1] > 1 else 1
    rs = int(gather[1, 0]) - base if gather.shape[0] > 1 else 1
    if rs <= 0 or cs <= 0:
        return None
    oh, ow = gather.shape
    expect = base + rs * np.arange(oh)[:, None] + cs * np.arange(ow)[None, :]
    if not np.array_equal(gather, expect):
        return None
    return base, rs, cs


@dataclass
class PolyHankelPlan:
    """A reusable execution plan for a fixed convolution shape.

    Mirrors cuDNN's plan/descriptor pattern: the FFT size, gather indices
    and the kernel spectrum layout depend only on the :class:`ConvShape`, so
    repeated executions (every training/inference step) reuse them.  The
    weight spectrum itself is cached via :meth:`weight_spectrum` when
    weights are frozen.

    ``fft_policy="auto"`` resolves to the concrete policy best for the
    plan's backend (see :func:`repro.core.planning.resolve_fft_policy`);
    after construction :attr:`fft_policy` is always concrete.  The same
    holds for ``layout="auto"`` — the spectrum layout (planar einsum vs.
    the fused interleaved matmul pipeline, see
    :func:`repro.core.planning.select_spectrum_layout`) is fixed at plan
    time and recorded on the plan's :class:`PlanSpec`.
    """

    shape: ConvShape
    fft_policy: FftPolicy = "pow2"
    strategy: ChannelStrategy = "sum"
    backend: str | None = None
    layout: SpectrumLayout = "auto"
    nfft: int = field(init=False)
    bins: int = field(init=False)
    gather: np.ndarray = field(init=False)
    gather_grid: tuple[int, int, int] | None = field(init=False)

    def __post_init__(self) -> None:
        if self.strategy not in ("sum", "merge"):
            raise ValueError(
                f"unknown channel strategy {self.strategy!r}; "
                "expected 'sum' or 'merge'"
            )
        self.fft_policy = resolve_fft_policy(self.fft_policy, self.backend)
        self.layout = select_spectrum_layout(self.shape, self.strategy,
                                             self.fft_policy, self.layout)
        len_a, len_u, linear_len = polynomial_lengths(self.shape)
        if self.strategy == "sum":
            self.nfft = plan_fft_size(linear_len, self.fft_policy)
            if self.layout == "interleaved" and self.fft_policy == "smooth7":
                # The fused path's runtime is dominated by batched *complex*
                # transforms, where pocketfft's radix-4/8 kernels make
                # binary-rich sizes faster per point than the minimal
                # 7-smooth length (e.g. 1280 beats 1250 by ~20%).
                self.nfft = _fft.next_fast_len_bias2(linear_len)
            self.gather = output_gather_indices(self.shape)
        else:
            # Channels merge *within* a group; each group is an independent
            # polynomial product, so the transform is c/groups times longer,
            # not c times.
            c = self.shape.group_channels
            merged_linear = c * len_a + c * len_u - 1
            self.nfft = plan_fft_size(merged_linear, self.fft_policy)
            self.gather = merged_output_gather_indices(self.shape)
        self.bins = self.nfft // 2 + 1
        self.gather_grid = _as_grid(self.gather)
        # Per-plan scratch buffers (padded input, frequency-product
        # target).  Reuse keeps the pages warm across repeated calls; every
        # element is overwritten per call, so the values are identical to
        # freshly allocated buffers.
        self._scratch: dict = {}
        self._scratch_lock = threading.Lock()

    @property
    def cache_key(self) -> tuple:
        """Identity of this plan's numerical configuration."""
        backend_name = _fft.get_backend(self.backend).name
        return (self.shape, self.fft_policy, self.strategy, backend_name,
                self.layout)

    @property
    def spec(self) -> PlanSpec:
        """The pickle-safe :class:`PlanSpec` identifying this plan."""
        return PlanSpec(self.shape, self.fft_policy, self.strategy,
                        _fft.get_backend(self.backend).name, self.layout)

    def __reduce__(self):
        # Plans hold locks and scratch buffers, so they pickle as their
        # spec and re-resolve against the destination process's warm plan
        # cache (cluster replicas depend on this: plans travel as cache
        # keys, never as payloads).
        return (_plan_from_spec, (self.shape, self.fft_policy,
                                  self.strategy,
                                  _fft.get_backend(self.backend).name,
                                  self.layout))

    # -- weight handling -----------------------------------------------------

    def transform_weight(self, weight: np.ndarray) -> np.ndarray:
        """Kernel polynomial spectra for *weight* (``(f, c, kh, kw)``).

        Returns ``(f, c, nfft//2 + 1)`` for the ``sum`` strategy with the
        planar layout, ``(f, nfft//2 + 1)`` for ``merge``.  The
        interleaved layout instead returns the bins-major packed operand
        ``(g, bins, f_per, c_per)`` of
        :func:`repro.fft.packed.pack_weight_operand`, ready for the fused
        pointwise matmul.  Always recomputes; the cached entry point is
        :meth:`weight_spectrum`.
        """
        weight = ensure_array(weight, "weight", ndim=4, dtype=float)
        if weight.shape != self.shape.weight_shape():
            raise ValueError(
                f"weight shape {weight.shape} does not match plan "
                f"{self.shape.weight_shape()}"
            )
        fft = _fft.get_backend(self.backend)
        dilation = self.shape.dilation_hw
        with span("weight.transform", strategy=self.strategy,
                  nfft=self.nfft, layout=self.layout, bytes=weight.nbytes):
            if self.strategy == "sum":
                stack = channel_kernel_stack(weight, self.shape.padded_iw,
                                             dilation)
                w_hat = fft.rfft(stack, self.nfft)
                if self.layout == "interleaved":
                    shape = self.shape
                    return _packed.pack_weight_operand(w_hat.reshape(
                        shape.groups, shape.group_filters,
                        shape.group_channels, self.bins))
                return w_hat
            merged = merged_kernel_stack(weight, self.shape.padded_iw,
                                         dilation)
            return fft.rfft(merged, self.nfft)

    def weight_spectrum(self, weight: np.ndarray) -> np.ndarray:
        """Cached kernel spectra for *weight*.

        Consults the module-level spectrum cache keyed by ``(id(weight),
        id(plan))``.  A hit is only served after an exact content check
        against the stored snapshot, so mutating a weight array (in place
        or by rebinding) always yields fresh spectra — the cache can return
        stale results **never**, only miss.  While the guard is enabled,
        entries additionally carry a content checksum of the *spectrum*
        itself: a hit whose spectrum no longer matches its insert-time
        stamp (in-memory rot, a doctored entry) is treated as a miss and
        recomputed, reported through ``guard.cache_corrupt``.
        """
        if not _spectrum_cache_enabled():
            return self.transform_weight(weight)
        # Key on object identities — much cheaper to hash per call than the
        # full plan cache_key tuple.  Storing the plan in the entry both
        # pins its id (no reuse while the entry lives) and lets the hit
        # path confirm the entry belongs to this exact plan object.
        key = (id(weight), id(self))
        arr = np.asarray(weight)
        hit = None
        with _spectrum_lock:
            entry = _SPECTRUM_CACHE.get(key)
            if entry is not None and entry[1] is self \
                    and arr.shape == entry[0].shape \
                    and np.array_equal(arr, entry[0]):
                record_cache_event("spectrum", hit=True)
                _SPECTRUM_CACHE.move_to_end(key)
                hit = entry
        if hit is not None:
            spectrum, stamp = hit[2], hit[3]
            if _faults._STACK:
                _faults.maybe_corrupt_spectrum(spectrum)
            if not guard_enabled() or verify_checksum(spectrum, stamp):
                return spectrum
            counters.add("guard.cache_corrupt", cache="spectrum")
        else:
            record_cache_event("spectrum", hit=False)
        spectrum = self.transform_weight(weight)
        # Stamp unconditionally: inserts are rare (one per weight transform)
        # and a crc32 is microseconds, so entries born while the guard was
        # off are still verifiable once it turns on.
        stamp = array_checksum(spectrum)
        with _spectrum_lock:
            _SPECTRUM_CACHE[key] = (arr.astype(float, copy=True), self,
                                    spectrum, stamp)
            _SPECTRUM_CACHE.move_to_end(key)
            while len(_SPECTRUM_CACHE) > _SPECTRUM_LIMIT[0]:
                _SPECTRUM_CACHE.popitem(last=False)
        return spectrum

    # -- execution ------------------------------------------------------------

    def execute(self, x: np.ndarray, weight_hat: np.ndarray,
                check: bool = True) -> np.ndarray:
        """Run the convolution for input *x* against a transformed weight.

        The whole batch runs as one pipeline: one batched input FFT, one
        pointwise contraction and one batched inverse FFT.
        ``check=False`` skips input validation for callers (the functional
        wrapper) that have already performed it.
        """
        if check:
            x = ensure_array(x, "x", ndim=4, dtype=float)
            if x.shape != self.shape.input_shape():
                raise ValueError(
                    f"input shape {x.shape} does not match plan "
                    f"{self.shape.input_shape()}"
                )
        fft = _fft.get_backend(self.backend)
        # Scratch reuse only when no other caller holds the buffers
        # (concurrent callers fall back to fresh allocations, so reuse is
        # never a correctness concern).
        reuse = self._scratch_lock.acquire(blocking=False)
        try:
            if self.layout == "interleaved" and not _faults._STACK:
                # The fused path stages the raw input straight into its
                # packed complex block (the zero padding border lives in
                # the block's call-invariant zero tail/border), skipping
                # the separate padded-copy pass entirely.
                return self._execute_fused(x, weight_hat, fft, reuse,
                                           raw=True)
            xp = self._pad_input(x, reuse)
            if _faults._STACK:
                # Fault-injection hook: poisons a *copy*, so reused scratch
                # buffers (whose zero border is never rewritten) stay clean.
                xp = _faults.poison_intermediate(xp)
            out = self._execute_block(xp, weight_hat, fft, reuse)
            return _faults.maybe_blowup(out) if _faults._STACK else out
        finally:
            if reuse:
                self._scratch_lock.release()

    def _pad_input(self, x: np.ndarray, reuse: bool = False) -> np.ndarray:
        """Zero-padded input, from the plan's scratch buffer if *reuse*.

        The scratch border stays zero across calls (only the interior is
        rewritten), so reuse skips re-zeroing the whole buffer.
        """
        pt, pb, pl, pr = self.shape.pad_tblr
        if not (pt or pb or pl or pr):
            return x
        with span("stage.pad", reuse=reuse, bytes=x.nbytes):
            if not reuse:
                return pad2d(x, (pt, pb, pl, pr))
            ih, iw = self.shape.ih, self.shape.iw
            buf = self._scratch.get("xp")
            if buf is None:
                buf = np.zeros(x.shape[:-2] + (ih + pt + pb, iw + pl + pr))
                self._scratch["xp"] = buf
            buf[..., pt:pt + ih, pl:pl + iw] = x
            return buf

    def _execute_block(self, xp: np.ndarray, weight_hat: np.ndarray,
                       fft, reuse: bool = False) -> np.ndarray:
        """The frequency-domain pipeline for a batch of padded images
        ``(n, c, ph, pw)``."""
        if self.layout == "interleaved":
            return self._execute_fused(xp, weight_hat, fft, reuse)
        shape = self.shape
        n = xp.shape[0]
        g, c_per, f_per = shape.groups, shape.group_channels, \
            shape.group_filters
        bins = weight_hat.shape[-1]
        out = None
        if reuse:
            out = self._scratch.get("out_hat")
            if out is None or out.shape != (n, shape.f, bins):
                out = np.empty((n, shape.f, bins), dtype=complex)
                self._scratch["out_hat"] = out
        # With groups, filter block g only sees channel block g; both
        # strategies express this as a reshape to (..., g, per-group, bins)
        # so the g == 1 case degenerates to the ungrouped pipeline.
        target = out.reshape(n, g, f_per, bins) if out is not None else None
        if self.strategy == "sum":
            flat = xp.reshape(n, shape.c, -1)
            with span("stage.input_fft", n=self.nfft, rows=n * shape.c,
                      bytes=flat.nbytes):
                x_hat = fft.rfft(flat, self.nfft)        # (n, c, bins)
            # Pointwise multiply and sum over channels: the paper's
            # "summation of outputs across different channels ... during
            # element-wise multiplication" — per group.
            xg = x_hat.reshape(n, g, c_per, bins)
            wg = weight_hat.reshape(g, f_per, c_per, bins)
            with span("stage.pointwise", strategy="sum",
                      bytes=x_hat.nbytes + weight_hat.nbytes):
                out_hat = np.einsum("ngcb,gfcb->ngfb", xg, wg, out=target) \
                    if target is not None \
                    else np.einsum("ngcb,gfcb->ngfb", xg, wg)
        else:
            grouped = xp.reshape(n * g, c_per, *xp.shape[-2:])
            merged = merged_input_stack(grouped)         # (n*g, c_per*L)
            with span("stage.input_fft", n=self.nfft, rows=n * g,
                      bytes=merged.nbytes):
                x_hat = fft.rfft(merged, self.nfft).reshape(n, g, bins)
            wg = weight_hat.reshape(g, f_per, bins)
            with span("stage.pointwise", strategy="merge",
                      bytes=x_hat.nbytes + weight_hat.nbytes):
                if target is not None:
                    out_hat = np.multiply(x_hat[:, :, None, :],
                                          wg[None, :, :, :], out=target)
                else:
                    out_hat = x_hat[:, :, None, :] * wg[None, :, :, :]
        out_hat = out_hat.reshape(n, shape.f, bins)

        with span("stage.inverse_fft", n=self.nfft, rows=n * shape.f,
                  bytes=out_hat.nbytes):
            product = fft.irfft(out_hat, self.nfft)      # (n, f, nfft)
        return self._gather_output(product)

    def _execute_fused(self, xp: np.ndarray, weight_hat: np.ndarray,
                       fft, reuse: bool = False,
                       raw: bool = False) -> np.ndarray:
        """The interleaved-layout pipeline: packed one-pass transforms and
        a single bins-major matmul for the pointwise channel sum.

        Stages, for a batch of padded images ``(n, c, ph, pw)`` against the packed weight operand ``(g, bins, f_per,
        c_per)`` of :meth:`transform_weight`:

        1. fold channel pairs of every (image, group) into complex rows
           and run **one** batched complex FFT over all of them (an odd
           ``c_per`` sends its last channel through one batched rfft);
        2. stage the packed half-spectra and their conjugate-reversed
           images as the bins-major column block ``A`` of shape ``(g,
           bins, c_per, n)`` — with the weight operand's matching slot
           order, ``W @ A`` *is* the pointwise multiply + cross-channel
           sum (see :func:`repro.fft.packed.pack_weight_operand`), one
           BLAS-shaped contraction instead of a multiply-then-reduce pair;
        3. fold output-filter pairs of the resulting half-spectra and run
           one batched inverse complex FFT, whose real/imag parts are the
           two filters' products (odd ``f_per``: one batched irfft).

        Packing pairs rows strictly *within* an (image, group) block, so
        every image's result is independent of the rest of the batch.

        With ``raw=True``, *xp* is the **unpadded** input and the padding
        border is realised inside the packed block itself: the block is
        allocated zeroed, only the per-image interior windows are
        rewritten each call, and (like the planar path's ``xp`` scratch)
        the border and zero-padding tail are never dirtied — so the
        separate padded-copy pass disappears from the pipeline.  The raw
        route is bit-identical to the padded one.
        """
        shape = self.shape
        n = xp.shape[0]
        g, c_per, f_per = shape.groups, shape.group_channels, \
            shape.group_filters
        bins, nfft = self.bins, self.nfft
        c_pairs = c_per // 2
        f_pairs, f_odd = f_per // 2, f_per % 2

        def buf(name: str, shp: tuple, dtype, zero: bool = False):
            # Fused-path scratch: like the planar buffers, reuse is safe
            # because every consumed element is rewritten per call — the
            # one exception is fused_z's zero padding tail, which is
            # written once at allocation and never dirtied.
            if reuse:
                b = self._scratch.get(name)
                if b is None or b.shape != shp:
                    b = (np.zeros if zero else np.empty)(shp, dtype=dtype)
                    self._scratch[name] = b
                return b
            return (np.zeros if zero else np.empty)(shp, dtype=dtype)

        pt, _, pl, _ = shape.pad_tblr
        ph, pw = shape.padded_ih, shape.padded_iw

        def stage(dest, rows):
            # Write *rows* (a channel slice of the input) into the length-
            # ``ph * pw`` head of *dest*'s last axis, viewed as the padded
            # image plane.  ``raw``: scatter just the interior window (the
            # padding border is part of dest's call-invariant zero state);
            # otherwise copy the pre-padded planes wholesale.
            view = np.lib.stride_tricks.as_strided(
                dest, dest.shape[:-1] + (ph, pw),
                dest.strides[:-1] + (pw * dest.strides[-1],
                                     dest.strides[-1]))
            if raw:
                view[..., pt: pt + shape.ih, pl: pl + shape.iw] = rows
            else:
                view[:] = rows

        src = xp.reshape(n, g, c_per, *xp.shape[-2:])
        with span("stage.input_fft", n=nfft, rows=n * shape.c,
                  layout="interleaved", bytes=xp.nbytes):
            z_hat = rest_hat = None
            if c_pairs:
                z = buf("fused_z", (n, g, c_pairs, nfft), complex,
                        zero=True)
                stage(z.real, src[:, :, 0: 2 * c_pairs: 2])
                stage(z.imag, src[:, :, 1: 2 * c_pairs: 2])
                z_hat = fft.fft(z)
            if c_per % 2:
                rest = buf("fused_rest", (n, g, 1, nfft), float, zero=True)
                stage(rest, src[:, :, 2 * c_pairs:])
                rest_hat = fft.rfft(rest, nfft)

        # Bins-major packed column block [Zh | conj-reversed Zh | odd
        # leftover]: one contiguous buffer so the fused matmul runs on
        # BLAS-friendly strides.
        cols = buf("fused_cols", (g, bins, c_per, n), complex)
        if c_pairs:
            cols[:, :, :c_pairs] = z_hat[..., :bins].transpose(1, 3, 2, 0)
            rev = cols[:, :, c_pairs: 2 * c_pairs]
            np.conjugate(z_hat[..., 0].transpose(1, 2, 0), out=rev[:, 0])
            np.conjugate(z_hat[..., : nfft - bins: -1].transpose(1, 3, 2, 0),
                         out=rev[:, 1:])
        if rest_hat is not None:
            cols[:, :, -1] = rest_hat[..., 0, :].transpose(1, 2, 0)

        target = buf("fused_out", (g, bins, f_per, n), complex)
        with span("stage.pointwise", strategy="sum", layout="interleaved",
                  bytes=cols.nbytes + weight_hat.nbytes):
            out_hat = np.matmul(weight_hat, cols, out=target)

        with span("stage.inverse_fft", n=nfft, rows=n * shape.f,
                  layout="interleaved", bytes=out_hat.nbytes):
            product = buf("fused_prod", (n, g, f_per, nfft), float)
            if f_pairs:
                # Inverse pair fold, algebra as repro.fft.packed.
                # fold_half_spectra but staged through scratch with the
                # P/Q form: head bins P = E + iO, tail bins conj-reversed
                # Q = E - iO — one reversal pass instead of two.
                even = out_hat[:, :, 0: 2 * f_pairs: 2]  # (g, bins, fp, n)
                odd = out_hat[:, :, 1: 2 * f_pairs: 2]
                tmp = buf("fused_pq", (g, bins, f_pairs, n), complex)
                np.multiply(odd, 1j, out=tmp)
                gbuf = buf("fused_gin", (n, g, f_pairs, nfft), complex)
                np.add(even, tmp, out=gbuf[..., :bins].transpose(1, 3, 2, 0))
                np.subtract(even, tmp, out=tmp)          # Q = E - iO
                np.conjugate(tmp[:, nfft - bins: 0: -1],
                             out=gbuf[..., bins:].transpose(1, 3, 2, 0))
                y = fft.ifft(gbuf)
                product[..., 0: 2 * f_pairs: 2, :] = y.real
                product[..., 1: 2 * f_pairs: 2, :] = y.imag
            if f_odd:
                product[..., -1:, :] = fft.irfft(
                    out_hat[:, :, -1].transpose(2, 0, 1)[..., None, :], nfft)
        return self._gather_output(product.reshape(n, shape.f, nfft))

    def _gather_output(self, product: np.ndarray) -> np.ndarray:
        """The Eq. 12 output gather over ``(n, f, nfft)`` products."""
        with span("stage.gather", bytes=product.nbytes) as gather_span:
            grid = self.gather_grid
            if grid is None:
                result = product[..., self.gather]       # (n, f, oh, ow)
            else:
                # The gather degrees form a regular (row-stride,
                # col-stride) grid, so a strided view + one contiguous copy
                # replaces the advanced indexing (no index array to walk);
                # the values are identical.
                base, rs, cs = grid
                oh, ow = self.gather.shape
                flat = np.ascontiguousarray(product).reshape(-1, self.nfft)
                s0, s1 = flat.strides
                view = np.lib.stride_tricks.as_strided(
                    flat[:, base:], shape=(flat.shape[0], oh, ow),
                    strides=(s0, rs * s1, cs * s1))
                result = np.ascontiguousarray(view).reshape(
                    product.shape[:-1] + (oh, ow))
            gather_span.add_attrs(out_bytes=result.nbytes)
        return result


# ---------------------------------------------------------------------------
# Bounded plan cache with hit/miss statistics.
# ---------------------------------------------------------------------------

_plan_lock = threading.Lock()
_PLAN_CACHE: OrderedDict[tuple, PolyHankelPlan] = OrderedDict()
_PLAN_LIMIT = [256]


def get_plan(shape: ConvShape, fft_policy: FftPolicy = "auto",
             strategy: ChannelStrategy = "sum",
             backend: str | None = None,
             layout: SpectrumLayout = "auto") -> PolyHankelPlan:
    """Fetch (or build and LRU-cache) the plan for *shape* and options."""
    backend_name = _fft.get_backend(backend).name
    policy = resolve_fft_policy(fft_policy, backend_name)
    layout = select_spectrum_layout(shape, strategy, policy, layout)
    key = (shape, policy, strategy, backend_name, layout)
    with _plan_lock:
        plan = _PLAN_CACHE.get(key)
        if plan is not None:
            record_cache_event("conv_plan", hit=True)
            _PLAN_CACHE.move_to_end(key)
            return plan
    record_cache_event("conv_plan", hit=False)
    with span("plan.build", strategy=strategy, backend=backend_name,
              layout=layout):
        plan = PolyHankelPlan(shape, policy, strategy, backend_name, layout)
    with _plan_lock:
        _PLAN_CACHE[key] = plan
        _PLAN_CACHE.move_to_end(key)
        while len(_PLAN_CACHE) > _PLAN_LIMIT[0]:
            _PLAN_CACHE.popitem(last=False)
    return plan


def _plan_from_spec(shape: ConvShape, fft_policy: FftPolicy,
                    strategy: ChannelStrategy, backend: str | None,
                    layout: SpectrumLayout = "auto") -> PolyHankelPlan:
    """Unpickling target for :meth:`PolyHankelPlan.__reduce__`: resolve a
    plan spec against *this* process's warm plan cache."""
    return get_plan(shape, fft_policy, strategy, backend, layout=layout)


def plan_cache_info() -> CacheInfo:
    """Hit/miss statistics of the plan cache (events from the unified
    :mod:`repro.observe` registry; size/limit from the structure)."""
    hits, misses = cache_hits_misses("conv_plan")
    with _plan_lock:
        return CacheInfo(hits, misses, len(_PLAN_CACHE), _PLAN_LIMIT[0])


def set_plan_cache_limit(maxsize: int) -> None:
    """Bound the number of cached plans, evicting LRU entries if needed."""
    if maxsize < 1:
        raise ValueError("plan cache limit must be >= 1")
    with _plan_lock:
        _PLAN_LIMIT[0] = maxsize
        while len(_PLAN_CACHE) > maxsize:
            _PLAN_CACHE.popitem(last=False)


def clear_plan_cache() -> None:
    """Drop all cached plans (mainly for tests and memory control)."""
    with _plan_lock:
        _PLAN_CACHE.clear()
        _ARG_MEMO.clear()
    reset_cache_stats("conv_plan")


# ---------------------------------------------------------------------------
# Bounded, content-verified weight-spectrum cache.
# ---------------------------------------------------------------------------

_spectrum_lock = threading.Lock()
_SPECTRUM_CACHE: OrderedDict[
    tuple, tuple[np.ndarray, PolyHankelPlan, np.ndarray, int | None]
] = OrderedDict()
_SPECTRUM_LIMIT = [64]
_SPECTRUM_ENABLED = [True]


def _spectrum_cache_enabled() -> bool:
    return _SPECTRUM_ENABLED[0]


def enable_spectrum_cache(enabled: bool = True) -> None:
    """Globally enable/disable spectrum caching (used for benchmarking the
    uncached reference path)."""
    _SPECTRUM_ENABLED[0] = bool(enabled)


def spectrum_cache_info() -> CacheInfo:
    """Hit/miss statistics of the weight-spectrum cache (events from the
    unified :mod:`repro.observe` registry)."""
    hits, misses = cache_hits_misses("spectrum")
    with _spectrum_lock:
        return CacheInfo(hits, misses, len(_SPECTRUM_CACHE),
                         _SPECTRUM_LIMIT[0])


def set_spectrum_cache_limit(maxsize: int) -> None:
    """Bound the number of cached spectra, evicting LRU entries if needed."""
    if maxsize < 1:
        raise ValueError("spectrum cache limit must be >= 1")
    with _spectrum_lock:
        _SPECTRUM_LIMIT[0] = maxsize
        while len(_SPECTRUM_CACHE) > maxsize:
            _SPECTRUM_CACHE.popitem(last=False)


def clear_spectrum_cache() -> None:
    """Drop all cached spectra and reset the statistics."""
    with _spectrum_lock:
        _SPECTRUM_CACHE.clear()
    reset_cache_stats("spectrum")


# Front memo for the functional entry point: maps primitive argument
# tuples straight to plan objects, skipping ConvShape construction and its
# (comparatively expensive) dataclass hashing on the steady-state path.
# Entries only reference plans held by _PLAN_CACHE-style lookups; bounded
# like the other caches and flushed by clear_plan_cache().
_ARG_MEMO: OrderedDict[tuple, PolyHankelPlan] = OrderedDict()
_ARG_MEMO_LIMIT = 256


def _hashable(value):
    return tuple(value) if isinstance(value, list) else value


def _plan_for_args(x_shape, w_shape, padding, stride, dilation, groups,
                   fft_policy, strategy, backend,
                   layout="auto") -> PolyHankelPlan:
    key = (x_shape, w_shape, _hashable(padding), _hashable(stride),
           _hashable(dilation), groups, fft_policy, strategy, backend,
           layout)
    with _plan_lock:
        plan = _ARG_MEMO.get(key)
    if plan is not None:
        # The front memo is part of the plan-cache surface: count its hits
        # so the consolidated cache table reflects steady-state reuse.
        record_cache_event("conv_plan", hit=True)
        return plan
    shape = ConvShape.from_tensors(x_shape, w_shape, padding, stride,
                                   dilation, groups)
    plan = get_plan(shape, fft_policy, strategy, backend, layout=layout)
    with _plan_lock:
        _ARG_MEMO[key] = plan
        while len(_ARG_MEMO) > _ARG_MEMO_LIMIT:
            _ARG_MEMO.popitem(last=False)
    return plan


def conv2d_polyhankel(x: np.ndarray, weight: np.ndarray,
                      bias: np.ndarray | None = None,
                      padding: int | tuple | str = 0,
                      stride: int | tuple = 1,
                      dilation: int | tuple = 1, groups: int = 1,
                      fft_policy: FftPolicy = "auto",
                      strategy: ChannelStrategy = "sum",
                      backend: str | None = None,
                      layout: SpectrumLayout = "auto") -> np.ndarray:
    """2D convolution of an NCHW batch via the PolyHankel method.

    Parameters mirror ``torch.nn.functional.conv2d``: *stride* and
    *dilation* take an int or an ``(h, w)`` pair, *padding* additionally a
    ``(pt, pb, pl, pr)`` 4-tuple or ``"same"``, and *groups* splits the
    channels (``groups=c`` is depthwise).  Returns an ``(n, f, oh, ow)``
    array.  Repeated calls with the same weight array and geometry reuse
    the cached plan *and* kernel spectrum.
    """
    x = ensure_array(x, "x", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    check_conv_inputs(x, weight, padding, stride, dilation, groups)
    plan = _plan_for_args(x.shape, weight.shape, padding, stride, dilation,
                          groups, fft_policy, strategy, backend, layout)
    shape = plan.shape
    out = plan.execute(x, plan.weight_spectrum(weight), check=False)
    if bias is not None:
        bias = ensure_array(bias, "bias", ndim=1)
        if len(bias) != shape.f:
            raise ValueError(
                f"bias must have {shape.f} entries, got {len(bias)}"
            )
        out = out + bias[None, :, None, None]
    return out
