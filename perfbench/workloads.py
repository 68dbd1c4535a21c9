"""The four benchmark workloads and their output oracles.

Every workload follows one protocol, driven by ``run.py``:

- ``prepare()`` builds the oracle's reference outputs, off the clock;
- ``setup()`` is one cold set-up, timed: it builds the network, model or
  server and returns once every distinct conv shape has produced its first
  result; ``check_setup(state)`` then checks those results off the clock;
- ``run(state, seconds)`` is one closed-loop phase and returns a
  :class:`Phase`; ``check_run(state, phase)`` applies the oracle to it;
- ``teardown(state)`` closes whatever ``setup`` opened.

Inputs come from the workload seed; weights are fixed, so every seed runs
the same network on different data.  The program only ever sees the
generated float64 arrays.
"""

from __future__ import annotations

import sys
import threading
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

#: Max relative error, against the ``gemm`` algorithm, that the net and
#: train oracles accept.  PolyHankel in float64 lands near 1e-15; 1e-9
#: leaves room for summation order without admitting a wrong answer.
REL_TOL = 1e-9

#: Requests a serving generator keeps in flight (closed loop).
INFLIGHT = 32

#: Served results compared bit for bit in each serving oracle phase.
SERVE_VERIFY_REQUESTS = 4000

#: Coalescing keys of the serving workloads: (channels, filters, kernel,
#: image side).  Padding is kernel // 2.
SERVE_KEYS = ((3, 8, 3, 8), (8, 16, 3, 16), (16, 16, 5, 16), (3, 32, 3, 32))

#: Percentile that ``p99_ms`` reports on the single-stream workloads.  A
#: run there holds 60-130 batches or steps: too few for a p99, which would
#: sit between the two slowest samples.  p90 leaves about ten beyond it.
TAIL_STREAM = 90

#: Serving ``p99_ms`` is the median, over blocks of this many consecutive
#: completions, of each block's p99 (ten samples beyond it per block).  A
#: pooled p99 is set by a few seconds of host stalls in a 20 s run: it
#: spread 0.30 between runs on serve_inproc where the block median spread
#: 0.14.
SERVE_P99_BLOCK = 1000

#: Inputs per serving key and batches in the net/train pools.
SERVE_POOL = 8
NET_POOL = 4
TRAIN_POOL = 4


@dataclass
class Phase:
    """What one measured or verification phase did."""

    images: int = 0
    elapsed_s: float = 0.0
    latencies_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    #: Outputs kept for an off-the-clock oracle: (pool index, array).
    outputs: list = field(default_factory=list)
    #: Loop iterations (batches or steps) for per-batch normalisation.
    iterations: int = 0


def _report(exc: BaseException) -> None:
    traceback.print_exception(type(exc), exc, exc.__traceback__,
                              file=sys.stderr)


def max_rel_error(got: np.ndarray, want: np.ndarray) -> float:
    """max |got - want| over max |want| (inf on a shape mismatch)."""
    got = np.asarray(got)
    want = np.asarray(want)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return float("inf")
    scale = float(np.max(np.abs(want))) or 1.0
    return float(np.max(np.abs(got - want))) / scale


def tail_ms(latencies_ms: np.ndarray, percentile: float,
            block: int | None) -> float:
    """The *percentile* of the latencies, or with *block*, the median of
    that percentile over consecutive blocks of at least *block* samples."""
    if block is None:
        return float(np.percentile(latencies_ms, percentile))
    parts = np.array_split(latencies_ms, max(1, len(latencies_ms) // block))
    return float(np.median([np.percentile(p, percentile) for p in parts]))


def stream_loop(step, pool: int, seconds: float) -> Phase:
    """Closed single stream: call ``step(i)`` back to back for *seconds*.

    ``step`` returns ``(images, output_or_None)``; an output is kept with
    its iteration index for the oracle.  A raised step counts as failed.
    """
    phase = Phase()
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        phase.attempted += 1
        try:
            images, out = step(i)
        except Exception as exc:  # one failed operation; keep measuring
            _report(exc)
            phase.failed += 1
            images, out = 0, None
        t1 = time.perf_counter()
        phase.latencies_s.append(t1 - t0)
        phase.images += images
        if out is not None:
            phase.outputs.append((i % pool, out))
        i += 1
    phase.elapsed_s = time.perf_counter() - start
    phase.iterations = i
    return phase


# ---------------------------------------------------------------------------
# net_infer
# ---------------------------------------------------------------------------

class NetInfer:
    """Closed single stream through the paper's 20-layer synthetic network."""

    name = "net_infer"
    setups = 7
    batch = 8
    sample = "batches"
    tail_percentile = TAIL_STREAM
    tail_block = None

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.pool = [rng.standard_normal((self.batch, 3, 32, 32))
                     for _ in range(NET_POOL)]
        self.reference: list[np.ndarray] = []

    def prepare(self) -> None:
        from repro.nn import synthetic_network

        net = synthetic_network(32, seed=0, algorithm="gemm")
        self.reference = [net(x) for x in self.pool]

    def setup(self):
        from repro.nn import synthetic_network

        net = synthetic_network(32, seed=0)
        return {"net": net, "first": net(self.pool[0])}

    def check_setup(self, state) -> tuple[int, int]:
        ok = max_rel_error(state["first"], self.reference[0]) <= REL_TOL
        return 1, 0 if ok else 1

    def run(self, state, seconds: float) -> Phase:
        net = state["net"]
        pool = self.pool

        def step(i):
            return self.batch, net(pool[i % NET_POOL])

        return stream_loop(step, NET_POOL, seconds)

    def check_run(self, state, phase: Phase) -> tuple[int, int]:
        failed = sum(max_rel_error(out, self.reference[idx]) > REL_TOL
                     for idx, out in phase.outputs)
        phase.outputs.clear()
        return 0, failed

    def teardown(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# train_step
# ---------------------------------------------------------------------------

def initial_params() -> list[np.ndarray]:
    """Fixed He-initialised weights of the train_step model."""
    rng = np.random.default_rng(0)

    def conv(c, f, k):
        return (rng.standard_normal((f, c, k, k)) * np.sqrt(2.0 / (c * k * k)),
                np.zeros(f))

    w1, b1 = conv(3, 16, 3)
    w2, b2 = conv(16, 32, 5)
    w3, b3 = conv(32, 32, 3)
    wl = rng.standard_normal((10, 32 * 8 * 8)) * np.sqrt(1.0 / (32 * 8 * 8))
    return [w1, b1, w2, b2, w3, b3, wl, np.zeros(10)]


def train_loss(params, x: np.ndarray, labels: np.ndarray,
               algorithm: str = "polyhankel"):
    """Forward pass and loss of the model 3->16 k3, 16->32 k5, pool,
    32->32 k3, pool, linear->10, with ReLU after every conv."""
    from repro.nn import autograd as ag

    w1, b1, w2, b2, w3, b3, wl, bl = params
    h = ag.Tensor(x)
    h = ag.relu(ag.conv2d(h, w1, b1, padding=1, algorithm=algorithm))
    h = ag.relu(ag.conv2d(h, w2, b2, padding=2, algorithm=algorithm))
    h = ag.max_pool2d(h, 2)
    h = ag.relu(ag.conv2d(h, w3, b3, padding=1, algorithm=algorithm))
    h = ag.max_pool2d(h, 2)
    return ag.cross_entropy(ag.linear(ag.flatten(h), wl, bl), labels)


class TrainStep:
    """Closed single stream of momentum-SGD steps through repro.nn.autograd."""

    name = "train_step"
    setups = 7
    batch = 16
    sample = "steps"
    tail_percentile = TAIL_STREAM
    tail_block = None

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.pool = [(rng.standard_normal((self.batch, 3, 32, 32)),
                      rng.integers(0, 10, self.batch))
                     for _ in range(TRAIN_POOL)]
        self.reference_grads: list[np.ndarray] = []

    def prepare(self) -> None:
        from repro.nn import autograd as ag

        params = [ag.parameter(p) for p in initial_params()]
        x, labels = self.pool[0]
        train_loss(params, x, labels, algorithm="gemm").backward()
        self.reference_grads = [p.grad for p in params]

    def _step(self, params, opt, i: int) -> float:
        x, labels = self.pool[i % TRAIN_POOL]
        opt.zero_grad()
        loss = train_loss(params, x, labels)
        loss.backward()
        opt.step()
        return float(loss.data)

    def setup(self):
        from repro.nn import autograd as ag

        params = [ag.parameter(p) for p in initial_params()]
        opt = ag.SGD(params, lr=0.01, momentum=0.9)
        loss = self._step(params, opt, 0)
        return {"params": params, "opt": opt, "first_loss": loss,
                "first_grads": [p.grad.copy() for p in params]}

    def check_setup(self, state) -> tuple[int, int]:
        ok = np.isfinite(state["first_loss"]) and all(
            max_rel_error(got, want) <= REL_TOL
            for got, want in zip(state["first_grads"], self.reference_grads))
        return 1, 0 if ok else 1

    def run(self, state, seconds: float) -> Phase:
        params, opt = state["params"], state["opt"]

        def step(i):
            loss = self._step(params, opt, i)
            if not np.isfinite(loss):
                raise FloatingPointError(f"step {i}: loss is {loss}")
            return self.batch, None

        return stream_loop(step, TRAIN_POOL, seconds)

    def check_run(self, state, phase: Phase) -> tuple[int, int]:
        return 0, 0  # every step's loss was checked finite in the loop

    def teardown(self, state) -> None:
        pass


# ---------------------------------------------------------------------------
# serve_inproc and serve_cluster
# ---------------------------------------------------------------------------

def serve_weights() -> list[tuple[np.ndarray, np.ndarray]]:
    """Fixed weights and biases, one pair per serving key."""
    rng = np.random.default_rng(0)
    out = []
    for c, f, k, _ in SERVE_KEYS:
        w = rng.standard_normal((f, c, k, k)) * np.sqrt(2.0 / (c * k * k))
        out.append((w, rng.standard_normal(f) * 0.1))
    return out


class _Serve:
    """Closed loop of single-image requests over four coalescing keys."""

    setups = 21
    sample = "requests"
    tail_percentile = 99
    tail_block = SERVE_P99_BLOCK

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        self.weights = serve_weights()
        self.pool = [[rng.standard_normal((1, c, s, s))
                      for _ in range(SERVE_POOL)]
                     for c, _, _, s in SERVE_KEYS]
        self._draws = np.random.default_rng([seed, 1])
        self.expected: list[list[np.ndarray]] = []

    def make_server(self):
        raise NotImplementedError

    def prepare(self) -> None:
        from repro.nn import functional as F

        self.expected = [
            [F.conv2d(x, w, b, padding=k // 2) for x in xs]
            for xs, (w, b), (_, _, k, _) in zip(self.pool, self.weights,
                                                SERVE_KEYS)]

    def _submit(self, server, key: int, idx: int):
        w, b = self.weights[key]
        return server.submit(self.pool[key][idx], w, b,
                             padding=SERVE_KEYS[key][2] // 2)

    def setup(self):
        server = self.make_server()
        try:
            futures = [self._submit(server, key, 0)
                       for key in range(len(SERVE_KEYS))]
            first = [f.result(timeout=60) for f in futures]
        except BaseException:
            server.close()
            raise
        return {"server": server, "first": first}

    def check_setup(self, state) -> tuple[int, int]:
        failed = sum(not np.array_equal(out, self.expected[key][0])
                     for key, out in enumerate(state["first"]))
        return len(state["first"]), failed

    def _requests(self):
        """Endless (key, input index) draws from the workload seed."""
        while True:
            keys = self._draws.integers(0, len(SERVE_KEYS), 4096)
            idxs = self._draws.integers(0, SERVE_POOL, 4096)
            yield from zip(keys.tolist(), idxs.tolist())

    def closed_loop(self, server, seconds: float | None = None,
                    count: int | None = None, check: bool = False) -> Phase:
        """Keep INFLIGHT requests outstanding from one generator thread.

        Stops submitting after *seconds* or *count* requests, then waits
        for every outstanding reply.  With *check*, each served result is
        compared bit for bit against the in-process oracle; a mismatch or
        a raised request counts as failed.
        """
        phase = Phase()
        slots = threading.BoundedSemaphore(INFLIGHT)
        lock = threading.Lock()
        last_done = [0.0]
        requests = self._requests()

        def on_done(future, t0, key, idx):
            t1 = time.perf_counter()
            try:
                out = future.result()
                ok = not check or np.array_equal(out,
                                                 self.expected[key][idx])
            except Exception as exc:  # a raised request counts as failed
                _report(exc)
                ok = False
            with lock:
                phase.latencies_s.append(t1 - t0)
                phase.images += 1
                phase.failed += not ok
                last_done[0] = max(last_done[0], t1)
            slots.release()

        start = time.perf_counter()
        while True:
            if count is not None and phase.attempted >= count:
                break
            if seconds is not None and time.perf_counter() - start >= seconds:
                break
            if not slots.acquire(timeout=60):
                raise RuntimeError("no reply within 60 s")
            key, idx = next(requests)
            t0 = time.perf_counter()
            phase.attempted += 1
            try:
                future = self._submit(server, key, idx)
            except Exception as exc:  # refused at the door
                _report(exc)
                with lock:
                    phase.failed += 1
                slots.release()
                continue
            future.add_done_callback(
                lambda f, t0=t0, key=key, idx=idx: on_done(f, t0, key, idx))
        for _ in range(INFLIGHT):
            if not slots.acquire(timeout=60):
                raise RuntimeError("outstanding replies did not drain")
        phase.elapsed_s = max(last_done[0], start) - start
        phase.iterations = phase.attempted
        return phase

    def run(self, state, seconds: float) -> Phase:
        return self.closed_loop(state["server"], seconds=seconds)

    def check_run(self, state, phase: Phase) -> tuple[int, int]:
        """The serving oracle, off the clock: a further closed-loop phase
        of the same traffic in which every served result is checked."""
        checked = self.closed_loop(state["server"],
                                   count=SERVE_VERIFY_REQUESTS, check=True)
        return checked.attempted, checked.failed

    def teardown(self, state) -> None:
        state["server"].close()


class ServeInproc(_Serve):
    """Closed loop against ConvServer(workers=1) with default knobs."""

    name = "serve_inproc"

    def make_server(self):
        from repro.serve import ConvServer

        return ConvServer(workers=1)


class ServeCluster(_Serve):
    """Closed loop against ClusterServer(workers=1) with default knobs."""

    name = "serve_cluster"

    def make_server(self):
        from repro.serve import ClusterServer

        return ClusterServer(workers=1)


WORKLOADS = {cls.name: cls for cls in (NetInfer, TrainStep, ServeInproc,
                                       ServeCluster)}
