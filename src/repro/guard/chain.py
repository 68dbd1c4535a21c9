"""The supervised fallback chain: one forward, several ways to survive it.

``guarded_conv2d`` walks an ordered chain of algorithm lowerings —
PolyHankel, its overlap-save variant, im2col/GEMM, naive — derived from
the baselines registry's ``supports()`` metadata.  Each attempt is
sentinel-classified (:mod:`repro.guard.sentinel`); a suspect/failed result
or a raised exception falls through to the next entry instead of reaching
the caller.  A per-(algorithm, shape, dtype) circuit breaker
(:mod:`repro.guard.breaker`) remembers chronically failing paths and
routes around them for a TTL, so a broken backend costs its failure
latency once per TTL window, not once per request.

Every decision is observable through the unified counter registry:

- ``guard.fallback``      — one abandoned attempt (tags: algorithm, cause);
- ``guard.sentinel_trip`` — a suspect/failed verdict (tags: algorithm,
  status);
- ``guard.breaker_open``  — a breaker transitioning to open;
- ``guard.cache_corrupt`` — a checksum-invalidated spectrum entry
  (emitted by the cache owners, counted here for one vocabulary);

plus ``guard.attempt`` trace spans while tracing is enabled.
"""

from __future__ import annotations

import numpy as np

from repro.baselines.registry import ConvAlgorithm, convolve, fallback_chain
from repro.guard import sentinel
from repro.guard.breaker import CircuitBreaker
from repro.guard.state import GuardConfig, current_config
from repro.observe import span
from repro.observe.registry import counters
from repro.utils.shapes import ConvShape
from repro.utils.validation import add_bias, check_bias, ensure_array


class GuardExhaustedError(RuntimeError):
    """Every chain entry failed, was skipped, or produced rejected output."""

    def __init__(self, attempts: list[tuple[str, str, str | None]]):
        self.attempts = attempts
        detail = "; ".join(
            f"{algo}: {status}" + (f" ({reason})" if reason else "")
            for algo, status, reason in attempts
        )
        super().__init__(
            f"guarded execution exhausted its fallback chain — {detail}"
        )


#: Process-wide breaker shared by every guarded call.
_BREAKER = CircuitBreaker()


def breaker() -> CircuitBreaker:
    """The process-wide circuit breaker (introspection and tests)."""
    return _BREAKER


def reset_guard() -> None:
    """Reset breaker memory and guard counters (tests, recovery drills)."""
    _BREAKER.reset()
    counters.clear("guard.")


def guarded_conv2d(x: np.ndarray, weight: np.ndarray,
                   bias: np.ndarray | None = None,
                   padding: int | tuple | str = 0,
                   stride: int | tuple = 1,
                   dilation: int | tuple = 1, groups: int = 1,
                   algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
                   config: GuardConfig | None = None,
                   breaker_key=None,
                   **kwargs) -> np.ndarray:
    """2D convolution through the supervised fallback chain.

    Semantics match :func:`repro.nn.functional.conv2d`, with supervision:
    the requested *algorithm* runs first (receiving any extra *kwargs*);
    on a sentinel trip or exception the chain falls through registry-
    lowered alternatives — called bare, since engine-specific knobs like
    ``strategy`` or ``backend`` do not transfer — until one produces a
    healthy result.  Raises :class:`GuardExhaustedError` if none does.

    *breaker_key* overrides the breaker's shape scope: the serving layer
    passes a request family's coalescing key so shards of one family —
    whose per-shard shapes differ only in batch size — trip and share a
    single breaker instead of one breaker per batch-axis cut.

    Non-finite *inputs* are served from the first attempt that completes
    (classified ``degraded``): garbage-in is not an engine fault, and no
    fallback could recover a clean answer from a poisoned input.
    """
    config = config or current_config()
    x = ensure_array(x, "x", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    shape = ConvShape.from_tensors(x.shape, weight.shape, padding, stride,
                                   dilation, groups)
    check_bias(bias, shape.f)
    chain = fallback_chain(shape, primary=algorithm, order=config.chain)
    if not chain:  # pragma: no cover - naive supports every shape
        raise GuardExhaustedError([("-", "empty", "no supported algorithm")])
    dtype_tag = str(x.dtype)
    scope = breaker_key if breaker_key is not None else shape
    attempts: list[tuple[str, str, str | None]] = []
    last_exc: Exception | None = None
    for index, algo in enumerate(chain):
        key = (algo.value, scope, dtype_tag)
        if _BREAKER.is_open(key):
            counters.add("guard.fallback", algorithm=algo.value,
                         cause="breaker_open")
            attempts.append((algo.value, "skipped", "breaker open"))
            continue
        call_kwargs = kwargs if index == 0 else {}
        try:
            with span("guard.attempt", algorithm=algo.value, attempt=index):
                out = convolve(x, weight, algorithm=algo, padding=padding,
                               stride=stride, dilation=dilation,
                               groups=groups, **call_kwargs)
        except Exception as exc:
            last_exc = exc
            counters.add("guard.fallback", algorithm=algo.value,
                         cause="exception")
            if _BREAKER.record_failure(key, config.breaker_threshold,
                                       config.breaker_ttl_s):
                counters.add("guard.breaker_open", algorithm=algo.value)
            attempts.append((algo.value, "error",
                             f"{type(exc).__name__}: {exc}"))
            continue
        verdict = sentinel.classify(out, x, weight,
                                    shape.poly_product_len, config)
        if verdict.ok:
            _BREAKER.record_success(key)
            return add_bias(out, bias)
        counters.add("guard.sentinel_trip", algorithm=algo.value,
                     status=verdict.status)
        counters.add("guard.fallback", algorithm=algo.value,
                     cause=verdict.status)
        if _BREAKER.record_failure(key, config.breaker_threshold,
                                   config.breaker_ttl_s):
            counters.add("guard.breaker_open", algorithm=algo.value)
        attempts.append((algo.value, verdict.status, verdict.reason))
    raise GuardExhaustedError(attempts) from last_exc


def guarded_convnd(x: np.ndarray, weight: np.ndarray,
                   op="conv2d",
                   bias: np.ndarray | None = None,
                   padding: int | tuple | str = 0,
                   stride: int | tuple = 1,
                   dilation: int | tuple = 1, groups: int = 1,
                   output_padding: int | tuple = 0,
                   algorithm: ConvAlgorithm | str = ConvAlgorithm.POLYHANKEL,
                   config: GuardConfig | None = None,
                   breaker_key=None,
                   **kwargs) -> np.ndarray:
    """Any convolution op through the supervised fallback chain.

    The op-level generalization of :func:`guarded_conv2d` — same
    supervision contract (sentinel classification, breaker memory,
    counters), dispatched through :func:`repro.baselines.ndops.convolve_nd`
    so conv1d/conv3d/conv_transpose2d inherit the chain.  The sentinel's
    B/E model carries over per rank: B is the per-output-channel L1 bound
    (rank-agnostic), E uses the op's actual FFT product length
    (``ConvShapeNd.poly_product_len``, or the internal adjoint problem's
    for transposed conv).
    """
    from repro.baselines.ndops import (
        ConvOp,
        convolve_nd,
        fallback_chain_nd,
        op_shape,
        resolve_op,
        transpose_weight_view,
    )

    op = resolve_op(op)
    if op is ConvOp.CONV2D:
        return guarded_conv2d(x, weight, bias=bias, padding=padding,
                              stride=stride, dilation=dilation,
                              groups=groups, algorithm=algorithm,
                              config=config, breaker_key=breaker_key,
                              **kwargs)
    config = config or current_config()
    x = ensure_array(x, "x", dtype=float)
    weight = ensure_array(weight, "weight", dtype=float)
    shape = op_shape(op, x.shape, weight.shape, padding, stride, dilation,
                     groups, output_padding)
    check_bias(bias, shape.f)
    chain = fallback_chain_nd(op, x.shape, weight.shape, padding, stride,
                              dilation, groups, output_padding,
                              primary=algorithm)
    if not chain:  # pragma: no cover - naive supports every op/shape
        raise GuardExhaustedError([("-", "empty", "no supported algorithm")])
    # The sentinel bound wants weight axis 0 to enumerate output channels;
    # the tconv layout needs the per-group channel transpose first.
    sentinel_weight = weight
    if op is ConvOp.CONV_TRANSPOSE2D:
        sentinel_weight = transpose_weight_view(weight, groups)
    dtype_tag = str(x.dtype)
    scope = breaker_key if breaker_key is not None else (op.value, shape)
    attempts: list[tuple[str, str, str | None]] = []
    last_exc: Exception | None = None
    for index, algo in enumerate(chain):
        key = (algo.value, scope, dtype_tag)
        if _BREAKER.is_open(key):
            counters.add("guard.fallback", algorithm=algo.value,
                         cause="breaker_open")
            attempts.append((algo.value, "skipped", "breaker open"))
            continue
        call_kwargs = kwargs if index == 0 else {}
        try:
            with span("guard.attempt", algorithm=algo.value, attempt=index,
                      op=op.value):
                out = convolve_nd(x, weight, op, algo, padding=padding,
                                  stride=stride, dilation=dilation,
                                  groups=groups,
                                  output_padding=output_padding,
                                  **call_kwargs)
        except Exception as exc:
            last_exc = exc
            counters.add("guard.fallback", algorithm=algo.value,
                         cause="exception")
            if _BREAKER.record_failure(key, config.breaker_threshold,
                                       config.breaker_ttl_s):
                counters.add("guard.breaker_open", algorithm=algo.value)
            attempts.append((algo.value, "error",
                             f"{type(exc).__name__}: {exc}"))
            continue
        verdict = sentinel.classify(out, x, sentinel_weight,
                                    shape.poly_product_len, config)
        if verdict.ok:
            _BREAKER.record_success(key)
            return add_bias(out, bias)
        counters.add("guard.sentinel_trip", algorithm=algo.value,
                     status=verdict.status)
        counters.add("guard.fallback", algorithm=algo.value,
                     cause=verdict.status)
        if _BREAKER.record_failure(key, config.breaker_threshold,
                                   config.breaker_ttl_s):
            counters.add("guard.breaker_open", algorithm=algo.value)
        attempts.append((algo.value, verdict.status, verdict.reason))
    raise GuardExhaustedError(attempts) from last_exc
