"""Timing wrappers for the traced run, installed from outside the package.

A :class:`Probe` replaces public functions and methods of ``repro``
modules with wrappers that time each call, then puts the originals back.
Nothing inside ``src/`` changes: the traced run reads these totals plus
the spans and counters ``repro.observe`` already records.

Each wrapper keeps a per-thread stack of the probed calls that are open,
so a call's time is also booked under the probed call that encloses it.
That is what lets the benchmark subtract the engine's time from the
dispatch layer's time without counting either twice.
"""

from __future__ import annotations

import functools
import threading
import time
from collections import defaultdict


class Probe:
    """Inclusive call time per probed name, and per (caller, callee) pair."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        #: name -> summed inclusive seconds
        self.seconds: dict[str, float] = defaultdict(float)
        #: name -> number of calls
        self.calls: dict[str, int] = defaultdict(int)
        #: (enclosing probed name or None, name) -> summed seconds
        self.nested: dict[tuple, float] = defaultdict(float)

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _book(self, parent: str | None, name: str, seconds: float) -> None:
        with self._lock:
            self.seconds[name] += seconds
            self.calls[name] += 1
            self.nested[(parent, name)] += seconds

    def wrap(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` (a module or class attribute) with a
        timed wrapper booked under *name*; :meth:`remove` restores it."""
        original = owner.__dict__[attr]
        probe = self

        @functools.wraps(original)
        def timed(*args, **kwargs):
            stack = probe._stack()
            parent = stack[-1] if stack else None
            stack.append(name)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                probe._book(parent, name, elapsed)

        setattr(owner, attr, timed)
        self._restore.append((owner, attr, original))

    def remove(self) -> None:
        """Put every wrapped attribute back, newest first."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def inside(self, parent: str, *names: str) -> float:
        """Seconds spent in *names* while directly under *parent*."""
        return sum(self.nested.get((parent, name), 0.0) for name in names)

    def outside(self, name: str, parent: str) -> float:
        """Seconds in *name* not directly under *parent*."""
        return self.seconds.get(name, 0.0) - self.nested.get(
            (parent, name), 0.0)


def install_default(probe: Probe) -> None:
    """Wrap the public entry points of every layer the workloads cross.

    Names are the benchmark's layer names, not the functions' own:

    - ``nn.functional_conv`` — :func:`repro.nn.functional.conv2d` (the
      autograd forward and the serving pool call it by attribute);
    - ``nn.layer_conv`` — :meth:`repro.nn.layers.Conv2d.forward`, the
      network's conv entry point, which calls the plan directly;
    - ``nn.network_forward`` — :meth:`repro.nn.network.Sequential.forward`;
    - ``nn.forward`` — the train_step model's forward and loss,
      :func:`workloads.train_loss`;
    - ``nn.backward_input`` / ``nn.backward_weight`` — the conv gradients
      as :mod:`repro.nn.autograd` imported them;
    - ``nn.sgd`` — :meth:`repro.nn.autograd.SGD.step`;
    - ``core.weight_spectrum`` / ``core.transform_weight`` /
      ``core.execute`` — :class:`repro.core.multichannel.PolyHankelPlan`;
    - ``serve.submit`` / ``serve.execute`` — :meth:`ConvServer.submit` and
      :func:`repro.serve.pool.execute_conv` as :mod:`repro.serve.api`
      imported it;
    - ``router.submit`` — :meth:`ClusterServer.submit`.
    """
    from repro.core.multichannel import PolyHankelPlan
    from repro.nn import autograd, functional, layers, network
    from repro.serve import api, router

    import workloads

    probe.wrap(functional, "conv2d", "nn.functional_conv")
    probe.wrap(layers.Conv2d, "forward", "nn.layer_conv")
    probe.wrap(network.Sequential, "forward", "nn.network_forward")
    probe.wrap(workloads, "train_loss", "nn.forward")
    probe.wrap(autograd, "conv2d_backward_input", "nn.backward_input")
    probe.wrap(autograd, "conv2d_backward_weight", "nn.backward_weight")
    probe.wrap(autograd.SGD, "step", "nn.sgd")
    probe.wrap(PolyHankelPlan, "weight_spectrum", "core.weight_spectrum")
    probe.wrap(PolyHankelPlan, "transform_weight", "core.transform_weight")
    probe.wrap(PolyHankelPlan, "execute", "core.execute")
    probe.wrap(api.ConvServer, "submit", "serve.submit")
    probe.wrap(api, "execute_conv", "serve.execute")
    probe.wrap(router.ClusterServer, "submit", "router.submit")
