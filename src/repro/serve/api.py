"""The user-facing serving object and the process-wide default server.

:class:`ConvServer` composes the batching queue and the worker pool into
one front door:

- ``submit(...)`` returns a ``concurrent.futures.Future`` immediately;
- requests whose own batch fits under ``max_batch`` wait (at most
  ``max_wait_ms``) in the :class:`~repro.serve.queue.BatchingQueue` for
  compatible companions and ride one stacked engine call;
- oversized requests bypass the queue entirely and are sharded across
  the persistent :class:`~repro.serve.pool.WorkerPool` along the batch
  and group axes;
- ``conv2d(...)`` is the synchronous convenience wrapper.

A lazily created default server backs
:func:`repro.nn.functional.conv2d_async` and ``Conv2d.submit``; its knobs
come from ``REPRO_SERVE_WORKERS``, ``REPRO_SERVE_MAX_BATCH`` and
``REPRO_SERVE_MAX_WAIT_MS``.
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Future, InvalidStateError
from concurrent.futures import TimeoutError as FutureTimeoutError

import numpy as np

from repro.observe.registry import counters
from repro.serve.coalescer import (
    ConvRequest,
    make_request,
    split_result,
    stack_requests,
)
from repro.serve.overload import (
    DeadlineExceeded,
    InflightBudget,
    Overloaded,
    ServeConfig,
    attach_accounting,
    resolve_deadline,
)
from repro.serve.pool import WorkerPool, execute_conv
from repro.serve.queue import BatchingQueue

DEFAULT_MAX_BATCH = 8
DEFAULT_MAX_WAIT_MS = 2.0


class ConvServer:
    """Async dynamic-batching front door to the convolution engine.

    Admission is bounded: at most ``config.max_inflight`` requests may be
    in flight; past the budget the configured ``shed_policy`` either
    rejects the newcomer with :class:`~repro.serve.overload.Overloaded`
    (``reject-new``, the default) or evicts the oldest queued request in
    its favor (``shed-oldest``).  Per-request deadlines (``deadline_s``)
    propagate to every dispatch stage, which sheds expired work instead
    of executing it.
    """

    def __init__(self, max_batch: int = DEFAULT_MAX_BATCH,
                 max_wait_ms: float = DEFAULT_MAX_WAIT_MS,
                 workers: int | None = None,
                 config: ServeConfig | None = None):
        self.max_batch = int(max_batch)
        self.config = config if config is not None \
            else ServeConfig.from_env()
        self._budget = InflightBudget(self.config.max_inflight)
        self._pool = WorkerPool(workers=workers)
        self._queue = BatchingQueue(self._execute_batch,
                                    max_batch=max_batch,
                                    max_wait_ms=max_wait_ms)
        self._closed = False

    # -- request intake ------------------------------------------------------

    def _admit(self, request: ConvRequest) -> None:
        """Claim an in-flight unit for *request* or raise Overloaded.

        Under ``shed-oldest``, a full budget first evicts the oldest
        queued request (its future carries
        :class:`~repro.serve.overload.Overloaded`), which frees a unit
        for the newcomer; when nothing is queued — every in-flight
        request is already executing — the newcomer is rejected after
        all.  ``serve.rejected`` counts front-door rejections;
        evictions land in ``serve.shed`` via the outcome accounting.
        """
        while not self._budget.try_acquire():
            if self.config.shed_policy != "shed-oldest" \
                    or self._queue.shed_oldest() is None:
                counters.add("serve.rejected")
                raise Overloaded(
                    f"server is at its in-flight budget "
                    f"({self.config.max_inflight}); request rejected "
                    f"({self.config.shed_policy})")
        attach_accounting(request.future)
        self._budget.attach(request.future)

    def submit(self, x: np.ndarray, weight: np.ndarray,
               bias: np.ndarray | None = None,
               padding: int | tuple | str = 0, stride: int | tuple = 1,
               dilation: int | tuple = 1, groups: int = 1,
               algorithm: str = "polyhankel", strategy: str = "sum",
               backend: str | None = None, op: str = "conv2d",
               output_padding: int | tuple = 0,
               deadline_s: float | None = None) -> Future:
        """Enqueue one convolution; returns its future immediately.

        *op* selects the operator family (``conv1d``/``conv2d``/
        ``conv3d``/``conv_transpose2d``).  For the 4-D ops a 3-D input is
        treated as a single CHW image (batch of one); a 1-D op's 3-D
        input is already the batched NCL layout.

        *deadline_s* bounds the request's whole lifetime: once that many
        seconds pass, any stage still holding the request sheds it and
        the future raises :class:`~repro.serve.overload.DeadlineExceeded`
        instead of executing stale work.  Raises
        :class:`~repro.serve.overload.Overloaded` when admission control
        refuses the request.
        """
        if self._closed:
            raise RuntimeError("server is closed")
        op = str(getattr(op, "value", op))
        if getattr(x, "ndim", None) == 3 and op in ("conv2d",
                                                    "conv_transpose2d"):
            x = np.asarray(x, dtype=float)[None]
        request = make_request(x, weight, bias, padding, stride, dilation,
                               groups, algorithm, strategy, backend,
                               op, output_padding,
                               deadline=resolve_deadline(deadline_s))
        counters.add("serve.requests")
        self._admit(request)
        if request.batch > self.max_batch:
            # Oversized: no companion could ride along anyway — shard it
            # across the pool instead of clogging the queue.
            self._pool.resolve(request)
        else:
            self._queue.submit(request)
        return request.future

    def conv2d(self, x: np.ndarray, weight: np.ndarray,
               bias: np.ndarray | None = None,
               padding: int | tuple | str = 0, stride: int | tuple = 1,
               dilation: int | tuple = 1, groups: int = 1,
               algorithm: str = "polyhankel", strategy: str = "sum",
               backend: str | None = None,
               timeout: float | None = None) -> np.ndarray:
        """Synchronous convenience wrapper around :meth:`submit`.

        *timeout* doubles as the request's deadline: a sync caller that
        stops waiting has no use for a late answer, so the timed-out
        future is **cancelled** — any stage that has not started the work
        sheds it, a stage mid-execution discards the result — and the
        call raises :class:`~repro.serve.overload.DeadlineExceeded`.
        The pre-fix behavior (abandon the future, let the engine run
        dead work to completion) leaked exactly the capacity an
        overloaded server needs back.
        """
        future = self.submit(x, weight, bias, padding, stride, dilation,
                             groups, algorithm, strategy, backend,
                             deadline_s=timeout)
        try:
            return future.result(timeout)
        except DeadlineExceeded:
            # The serving tier shed the request; its typed error already
            # carries the stage detail.  (Ordering matters: on 3.11+
            # DeadlineExceeded IS a futures TimeoutError.)
            raise
        except FutureTimeoutError:
            future.cancel()
            raise DeadlineExceeded(
                f"conv2d timed out after {timeout:g}s; request "
                f"cancelled") from None

    # -- dispatch ------------------------------------------------------------

    def _execute_batch(self, batch: list[ConvRequest]) -> None:
        """Run one coalesced batch and resolve every rider's future."""
        first = batch[0]
        key = first.key
        if len(batch) == 1 and self._pool.workers > 1:
            # Nothing to split off the stacked call; let the pool decide
            # whether shards help this lone request.
            self._pool.resolve(first)
            return
        stacked = stack_requests(batch)
        out = execute_conv(
            stacked, first.weight, first.bias, padding=key.padding,
            stride=key.stride, dilation=key.dilation, groups=key.groups,
            algorithm=key.algorithm, strategy=key.strategy,
            backend=key.backend, op=key.op,
            output_padding=key.output_padding, breaker_key=key)
        for request, result in zip(batch, split_result(out, batch)):
            try:
                request.future.set_result(result)
            except InvalidStateError:
                pass  # cancelled mid-execution; result is discarded

    # -- introspection and lifecycle ----------------------------------------

    def stats(self) -> dict:
        """Serving counters from the unified registry (process-wide)."""
        from repro.observe.registry import serve_stats

        return serve_stats()

    def pending_count(self) -> int:
        return self._queue.pending_count()

    def close(self, timeout: float | None = 10.0) -> None:
        """Drain the queue, stop the dispatcher, shut the pool down."""
        if self._closed:
            return
        self._closed = True
        self._queue.close(timeout)
        self._pool.close()
        # Persist the learned selection table (no-op unless a table path
        # is configured) so the next server warm-starts from measurement.
        from repro.selection.bandit import active_bandit

        bandit = active_bandit()
        if bandit is not None:
            bandit.save()

    def __enter__(self) -> "ConvServer":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ---------------------------------------------------------------------------
# Process-wide default server.
# ---------------------------------------------------------------------------

_default_lock = threading.Lock()
_DEFAULT: list[ConvServer | None] = [None]


def _env_float(name: str, fallback: float) -> float:
    value = os.environ.get(name)
    try:
        return float(value) if value else fallback
    except ValueError:
        return fallback


def get_server() -> ConvServer:
    """The lazily created process-wide default server."""
    with _default_lock:
        server = _DEFAULT[0]
        if server is None or server._closed:
            server = ConvServer(
                max_batch=int(_env_float("REPRO_SERVE_MAX_BATCH",
                                         DEFAULT_MAX_BATCH)),
                max_wait_ms=_env_float("REPRO_SERVE_MAX_WAIT_MS",
                                       DEFAULT_MAX_WAIT_MS),
            )
            _DEFAULT[0] = server
        return server


def set_server(server: ConvServer | None) -> ConvServer | None:
    """Swap the default server; returns the previous one (not closed)."""
    with _default_lock:
        previous, _DEFAULT[0] = _DEFAULT[0], server
    return previous


def configure_server(**kwargs) -> ConvServer:
    """Replace the default server with a freshly configured one."""
    server = ConvServer(**kwargs)
    previous = set_server(server)
    if previous is not None:
        previous.close()
    return server


def shutdown_server() -> None:
    """Close and drop the default server (tests, clean interpreter exit)."""
    previous = set_server(None)
    if previous is not None:
        previous.close()
