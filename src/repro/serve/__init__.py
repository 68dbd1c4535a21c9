"""Async dynamic-batching serving layer in front of the PolyHankel engine.

Every entry point before this package executed one request at a time on
one thread: the plan cache, spectrum cache and guard chain were warm and
ready, but nothing amortized them across *concurrent* requests.  This
package closes that gap with the standard serving architecture:

- :mod:`repro.serve.coalescer` — the coalescing key: which requests may
  legally ride one stacked batch (same geometry, same weight array, same
  conv parameters, same algorithm/strategy/backend), plus the pure
  stack/split helpers.  Stacking along the batch axis is **bit-exact**:
  every engine stage (row FFTs, the channel einsum, the inverse FFT, the
  gather) is row-independent, so a coalesced answer equals the answer
  each request would have gotten alone.
- :mod:`repro.serve.queue` — :class:`BatchingQueue`: requests wait at
  most ``max_wait_ms`` for compatible companions; a group is dispatched
  the moment it holds ``max_batch`` stacked rows or its oldest request's
  deadline expires.
- :mod:`repro.serve.pool` — the persistent thread-pool
  :class:`WorkerPool` and the batch/group shard splitter for oversized
  requests.
- :mod:`repro.serve.api` — :class:`ConvServer`, the user-facing object,
  and the process-wide default server used by
  :func:`repro.nn.functional.conv2d_async` and ``Conv2d.submit``.
- :mod:`repro.serve.shm` / :mod:`repro.serve.cluster` /
  :mod:`repro.serve.router` — the multi-process scale-out tier:
  :class:`ClusterServer` routes coalesced batches to N worker replica
  processes (each owning warm plan/spectrum caches) over a shared-memory
  slot arena with generation-counter crash detection, so no tensor ever
  crosses a process boundary by pickle.
- :mod:`repro.serve.loadgen` — the Poisson open-loop saturation bench
  behind ``repro serve-bench --workers N`` and the CI scale-out gate,
  plus the overload sweep behind ``--overload`` / ``--check-goodput``.
- :mod:`repro.serve.overload` — the request-lifecycle robustness layer:
  absolute deadlines propagated from the front door through queue, pool
  and cluster (every stage sheds expired work as a typed
  :class:`DeadlineExceeded` instead of executing it), bounded in-flight
  admission (:class:`Overloaded`, ``reject-new`` / ``shed-oldest``
  policies) and the :class:`ServeConfig` knobs — all overridable via
  ``REPRO_SERVE_*`` environment variables.

Everything is observable through the unified counter registry
(``serve.requests``, ``serve.coalesced``, ``serve.batches``,
``serve.batch_size``, ``serve.queue_wait_ms``, ``serve.dispatched``,
``serve.shards``, and the overload outcomes ``serve.completed`` /
``serve.shed`` / ``serve.rejected`` / ``serve.slot_timeout``) and runs under the guard
chain when supervision is enabled, with the circuit breaker scoped by
coalescing key so every shard of one request family shares breaker
state.
"""

from repro.serve.api import (
    ConvServer,
    configure_server,
    get_server,
    set_server,
    shutdown_server,
)
from repro.serve.coalescer import (
    CoalesceKey,
    ConvRequest,
    coalesce_key,
    make_request,
    split_result,
    stack_requests,
)
from repro.serve.overload import (
    DeadlineExceeded,
    Overloaded,
    ServeConfig,
)
from repro.serve.pool import WorkerPool, execute_conv, shard_splits
from repro.serve.queue import BatchingQueue
from repro.serve.router import ClusterServer, ClusterUnavailableError
from repro.serve.shm import (
    SlotAllocator,
    SlotsExhaustedError,
    SlotTimeout,
    TensorArena,
    TornWriteError,
)

__all__ = [
    "BatchingQueue",
    "CoalesceKey",
    "ClusterServer",
    "ClusterUnavailableError",
    "ConvRequest",
    "ConvServer",
    "DeadlineExceeded",
    "Overloaded",
    "ServeConfig",
    "SlotAllocator",
    "SlotsExhaustedError",
    "SlotTimeout",
    "TensorArena",
    "TornWriteError",
    "WorkerPool",
    "coalesce_key",
    "configure_server",
    "execute_conv",
    "get_server",
    "make_request",
    "set_server",
    "shard_splits",
    "shutdown_server",
    "split_result",
    "stack_requests",
]
