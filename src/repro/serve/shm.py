"""Zero-pickle tensor transport over ``multiprocessing.shared_memory``.

Pickling arrays through an executor makes serialization dominate exactly
where the engine is fastest.  This module is the transport for the
cluster tier instead: tensors move through a **slot arena** in one shared
memory segment, and only tiny plain-data control messages (slot indices,
generation counters, conv parameters) cross the pipe.

Layout: the segment is divided into ``slots`` fixed-size slots.  Each
slot starts with a fixed 128-byte header followed by the payload:

    +---------+----------------------------------------------+
    | header  | seq · nbytes · dtype · ndim · shape[8]       |
    +---------+----------------------------------------------+
    | payload | raw C-contiguous tensor bytes                |
    +---------+----------------------------------------------+

``seq`` is a per-slot **generation counter** with seqlock parity: a
writer bumps it to an odd value before touching the payload and to the
next even value after, so a write that died halfway (a worker SIGKILLed
mid-``memcpy``) leaves the counter odd and every reader refuses the torn
slot instead of consuming garbage.  Readers pass the generation they were
told to expect; a mismatch means the slot was re-used for a younger
tensor and the read is stale.  The counter is *not* a lock-free
synchronization protocol — completion is signalled through the control
pipe, which happens-after the payload write — it is purely crash/stale
detection.

Slot ownership is centralized: the router process owns the free-list
(:class:`SlotAllocator`) and assigns both the request slot and the
response slot of every dispatch, so workers never allocate and two
processes never race for a slot.  When every slot is in flight,
``acquire`` blocks — that is the cluster's backpressure: submitters stall
instead of growing an unbounded pickle queue.

The control plane is hostile to tensors by construction:
:func:`send_control` refuses to pickle any ``np.ndarray`` (see
``_ControlPickler.reducer_override``), so an array can never silently
fall back to the serialization path this module exists to remove.
"""

from __future__ import annotations

import os
import pickle
import secrets
import threading
import time
from multiprocessing import shared_memory

import numpy as np

from repro.observe.registry import counters

#: Prefix of every arena segment name; the CI leak check and the test
#: session teardown look for ``/dev/shm/<prefix>*`` leftovers.
ARENA_PREFIX = "repro_arena_"

#: Maximum tensor rank the slot header can describe.
MAX_DIMS = 8

#: Bytes reserved for the header at the start of every slot (padded well
#: past the packed struct so payloads start 128-byte aligned).
HEADER_BYTES = 128

HEADER_DTYPE = np.dtype([
    ("seq", np.uint64),
    ("nbytes", np.int64),
    ("dtype", "S8"),      # numpy dtype.str, e.g. b"<f8"
    ("ndim", np.uint8),
    ("shape", np.int64, (MAX_DIMS,)),
])

assert HEADER_DTYPE.itemsize <= HEADER_BYTES


class TornWriteError(RuntimeError):
    """A slot's generation counter does not match the expected stable
    value: either the writer crashed mid-write (odd counter) or the slot
    was recycled for a younger tensor (stale generation)."""


class SlotsExhaustedError(RuntimeError):
    """No arena slot became free within the allowed wait."""


class SlotTimeout(SlotsExhaustedError, TimeoutError):
    """The allocator's wait for free slots timed out.

    Subclasses :class:`SlotsExhaustedError` (so existing handlers keep
    working) *and* :class:`TimeoutError` (so overload-aware callers can
    treat slot starvation like any other deadline miss).  Counted under
    ``serve.slot_timeout`` — starvation must be observable on a dashboard
    before it cascades into cluster-wide unavailability.
    """


#: Heartbeat record one worker stamps per loop iteration (see
#: :meth:`TensorArena.beat`).  ``generation`` is the router-assigned
#: incarnation counter, so a stale stamp from a killed predecessor can
#: never vouch for its respawned successor.
HEARTBEAT_DTYPE = np.dtype([
    ("generation", np.uint64),
    ("stamp", np.float64),    # time.monotonic() at the stamp
    ("pid", np.int64),
])

#: Bytes reserved per heartbeat record (padded past the packed struct).
HEARTBEAT_BYTES = 32

assert HEARTBEAT_DTYPE.itemsize <= HEARTBEAT_BYTES


class TensorArena:
    """One shared-memory segment cut into fixed-size header+payload slots.

    The creating process owns the segment and must :meth:`unlink` it; any
    number of other processes may :meth:`attach` by name and read/write
    slots they were handed.  All slot coordination (who may write which
    slot when) is the caller's job — see :class:`SlotAllocator` and
    :mod:`repro.serve.router`.
    """

    def __init__(self, slots: int, slot_bytes: int, name: str | None = None,
                 heartbeats: int = 0, _create: bool = True):
        if slots < 1:
            raise ValueError("slots must be >= 1")
        if slot_bytes < 1:
            raise ValueError("slot_bytes must be >= 1")
        if heartbeats < 0:
            raise ValueError("heartbeats must be >= 0")
        self.slots = int(slots)
        self.slot_bytes = int(slot_bytes)
        self.heartbeats = int(heartbeats)
        self._stride = HEADER_BYTES + self.slot_bytes
        size = self._stride * self.slots \
            + HEARTBEAT_BYTES * self.heartbeats
        if name is None:
            name = f"{ARENA_PREFIX}{os.getpid()}_{secrets.token_hex(4)}"
        self.owner = _create
        if _create or os.name != "posix":
            self._shm = shared_memory.SharedMemory(
                name=name, create=_create, size=size)
        else:
            # Python's resource tracker registers every attach (bpo-39959)
            # and would unlink the segment when *this* process exits even
            # though the router still owns it.  Unregistering afterwards
            # is wrong under fork (the tracker is shared, so it would drop
            # the creator's registration too); instead, suppress the
            # registration so only the creator's entry ever exists.
            from multiprocessing import resource_tracker

            original_register = resource_tracker.register

            def _skip_shm(name_, rtype):  # pragma: no cover - trivial
                if rtype != "shared_memory":
                    original_register(name_, rtype)

            resource_tracker.register = _skip_shm
            try:
                self._shm = shared_memory.SharedMemory(
                    name=name, create=False, size=size)
            finally:
                resource_tracker.register = original_register
        self._closed = False

    @classmethod
    def attach(cls, name: str, slots: int, slot_bytes: int,
               heartbeats: int = 0) -> "TensorArena":
        """Map an existing arena created by another process."""
        return cls(slots, slot_bytes, name=name, heartbeats=heartbeats,
                   _create=False)

    @property
    def name(self) -> str:
        return self._shm.name

    # -- slot access ---------------------------------------------------------

    def _header(self, slot: int) -> np.void:
        """Mutable structured view of one slot's header."""
        if not 0 <= slot < self.slots:
            raise IndexError(f"slot {slot} out of range 0..{self.slots - 1}")
        arr = np.ndarray((1,), dtype=HEADER_DTYPE, buffer=self._shm.buf,
                         offset=slot * self._stride)
        return arr[0]

    def _payload(self, slot: int, nbytes: int) -> np.ndarray:
        return np.ndarray((nbytes,), dtype=np.uint8, buffer=self._shm.buf,
                          offset=slot * self._stride + HEADER_BYTES)

    def write(self, slot: int, array: np.ndarray) -> int:
        """Copy *array* into *slot*; returns the new (even) generation.

        The single ``memcpy`` here is the only data movement on the
        request/response hot path — no pickle, no encode, no reallocation
        on the reader side beyond its own copy-out.
        """
        shape_in = np.shape(array)
        # ascontiguousarray promotes 0-d to 1-d; the header keeps the
        # caller's true shape so the reader reconstructs it exactly.
        array = np.ascontiguousarray(array)
        if len(shape_in) != array.ndim:
            array = array.reshape(shape_in)
        if array.nbytes > self.slot_bytes:
            raise ValueError(
                f"tensor of {array.nbytes} bytes does not fit a "
                f"{self.slot_bytes}-byte slot; size the arena for the "
                f"largest request (slot_bytes)")
        if array.ndim > MAX_DIMS:
            raise ValueError(f"rank {array.ndim} exceeds MAX_DIMS "
                             f"({MAX_DIMS})")
        header = self._header(slot)
        seq = int(header["seq"])
        if seq % 2:
            # The previous writer died mid-write; step past its torn
            # generation so ours lands on fresh even/odd values.
            seq += 1
        header["seq"] = seq + 1  # odd: write in progress
        header["nbytes"] = array.nbytes
        header["dtype"] = array.dtype.str.encode("ascii")
        header["ndim"] = array.ndim
        shape = np.zeros(MAX_DIMS, dtype=np.int64)
        shape[:array.ndim] = array.shape
        header["shape"] = shape
        if array.nbytes:
            self._payload(slot, array.nbytes)[:] = \
                array.reshape(-1).view(np.uint8)
        header["seq"] = seq + 2  # even: stable
        return seq + 2

    def read(self, slot: int, expected_seq: int,
             copy: bool = True) -> np.ndarray:
        """Reconstruct the tensor in *slot* at generation *expected_seq*.

        ``copy=False`` returns a view aliasing the shared buffer —
        zero-copy for a worker that immediately feeds the tensor to the
        engine — valid only until the slot is recycled.  ``copy=True``
        re-checks the generation *after* copying, so a racing writer
        cannot hand the caller a half-old, half-new tensor.
        """
        header = self._header(slot)
        seq = int(header["seq"])
        if seq % 2:
            raise TornWriteError(
                f"slot {slot}: generation {seq} is odd — the writer "
                f"died mid-write; payload is torn")
        if seq != expected_seq:
            raise TornWriteError(
                f"slot {slot}: generation {seq} != expected "
                f"{expected_seq} — slot was recycled (stale read)")
        dtype = np.dtype(bytes(header["dtype"]).decode("ascii"))
        ndim = int(header["ndim"])
        shape = tuple(int(s) for s in header["shape"][:ndim])
        nbytes = int(header["nbytes"])
        view = self._payload(slot, nbytes).view(dtype).reshape(shape)
        if not copy:
            return view
        out = np.array(view)
        if int(self._header(slot)["seq"]) != expected_seq:
            raise TornWriteError(
                f"slot {slot}: generation changed during copy-out")
        return out

    # -- liveness heartbeats -------------------------------------------------

    def _heartbeat(self, index: int) -> np.void:
        """Mutable view of one heartbeat record past the slot region."""
        if not 0 <= index < self.heartbeats:
            raise IndexError(
                f"heartbeat {index} out of range 0..{self.heartbeats - 1}")
        arr = np.ndarray(
            (1,), dtype=HEARTBEAT_DTYPE, buffer=self._shm.buf,
            offset=self._stride * self.slots + index * HEARTBEAT_BYTES)
        return arr[0]

    def beat(self, index: int, generation: int) -> None:
        """Stamp heartbeat *index* with *generation* and ``monotonic()``.

        Single-writer by construction (each worker owns its own record),
        so no seqlock: a torn read can at worst delay or spuriously
        trigger one watchdog scan, and the generation check filters
        stamps left by a previous incarnation of the worker slot.
        """
        record = self._heartbeat(index)
        record["generation"] = int(generation)
        record["stamp"] = time.monotonic()
        record["pid"] = os.getpid()

    def read_heartbeat(self, index: int) -> dict:
        """The last stamp of heartbeat *index* (all-zero before any)."""
        record = self._heartbeat(index)
        return {"generation": int(record["generation"]),
                "stamp": float(record["stamp"]),
                "pid": int(record["pid"])}

    # -- lifecycle -----------------------------------------------------------

    def close(self) -> None:
        """Unmap the segment (and unlink it when this process owns it)."""
        if self._closed:
            return
        self._closed = True
        self._shm.close()
        if self.owner:
            try:
                self._shm.unlink()
            except FileNotFoundError:  # pragma: no cover - already gone
                pass

    def __enter__(self) -> "TensorArena":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class SlotAllocator:
    """Router-owned free-list over an arena's slots with backpressure.

    ``acquire_many`` hands out all requested slots atomically — a
    dispatch needs its request *and* response slot together, and taking
    them one at a time would let N submitters each hold one slot while
    waiting for a second, deadlocking the arena.

    *reserved* slots are headroom only ``use_reserve=True`` acquirers
    may draw on.  Dispatch slot pairs live until their futures resolve,
    so enough of them can pin the whole arena; a weight shipment to a
    freshly (re)spawned replica then needs one more slot before any
    dispatch can complete — a deadlock.  Ships are transient (released
    on the worker's ack, or on the replica's death), so reserving one
    slot for them breaks the cycle without shrinking steady-state
    throughput.
    """

    def __init__(self, arena: TensorArena, reserved: int = 0):
        if not 0 <= reserved < arena.slots:
            raise ValueError(
                f"reserved must be in [0, {arena.slots}) for a "
                f"{arena.slots}-slot arena, got {reserved}")
        self._arena = arena
        self._reserved = int(reserved)
        self._cond = threading.Condition()
        self._free = list(range(arena.slots))
        self._closed = False

    def available(self) -> int:
        with self._cond:
            return len(self._free)

    def acquire_many(self, count: int, timeout: float | None = None,
                     *, use_reserve: bool = False) -> list[int]:
        """Pop *count* free slots, blocking until all are available.

        Ordinary acquirers never dip into the reserved headroom; pass
        ``use_reserve=True`` for transient holds (weight shipments) that
        must make progress even when dispatches pin the rest.
        """
        floor = 0 if use_reserve else self._reserved
        if count + floor > self._arena.slots:
            raise ValueError(
                f"cannot acquire {count} slots from a "
                f"{self._arena.slots}-slot arena "
                f"({self._reserved} reserved)")
        deadline = None if timeout is None else time.monotonic() + timeout
        start = time.monotonic()
        with self._cond:
            while len(self._free) - floor < count:
                if self._closed:
                    raise SlotsExhaustedError("allocator is closed")
                remaining = None if deadline is None \
                    else deadline - time.monotonic()
                if remaining is not None and remaining <= 0:
                    counters.add("serve.slot_timeout")
                    raise SlotTimeout(
                        f"no {count} free slot(s) within {timeout:g}s "
                        f"({len(self._free)}/{self._arena.slots} free) — "
                        f"grow the arena or slow the offered load")
                counters.add("serve.cluster.slot_waits")
                self._cond.wait(remaining)
            if self._closed:
                raise SlotsExhaustedError("allocator is closed")
            slots = [self._free.pop() for _ in range(count)]
        waited = time.monotonic() - start
        if waited > 0:
            counters.add("serve.cluster.slot_wait_ms", waited * 1e3)
        return slots

    def acquire(self, timeout: float | None = None,
                *, use_reserve: bool = False) -> int:
        return self.acquire_many(1, timeout, use_reserve=use_reserve)[0]

    def release(self, *slots: int) -> None:
        with self._cond:
            for slot in slots:
                if slot in self._free:  # pragma: no cover - double free
                    raise RuntimeError(f"slot {slot} double-released")
                self._free.append(slot)
            self._cond.notify_all()

    def close(self) -> None:
        """Wake every blocked acquirer with an error (server shutdown)."""
        with self._cond:
            self._closed = True
            self._cond.notify_all()


# ---------------------------------------------------------------------------
# Pickle-free control plane.
# ---------------------------------------------------------------------------


class _ControlPickler(pickle.Pickler):
    """Pickler that refuses tensors.

    Every cluster control message goes through this class, so the
    "tensors never travel by pickle" property is enforced in production,
    not just asserted by a test: an ndarray reaching the control plane
    raises instead of silently re-introducing the serialization cost the
    arena removes.
    """

    def reducer_override(self, obj):
        if isinstance(obj, np.ndarray):
            raise TypeError(
                "np.ndarray on the cluster control plane — tensors must "
                "travel through the shared-memory arena, not pickle")
        return NotImplemented


def dumps_control(message: object) -> bytes:
    """Serialize one control message, rejecting ndarray payloads."""
    import io

    buf = io.BytesIO()
    _ControlPickler(buf, protocol=pickle.HIGHEST_PROTOCOL).dump(message)
    return buf.getvalue()


def send_control(conn, message: object) -> None:
    """Send one control message over a ``multiprocessing`` connection."""
    conn.send_bytes(dumps_control(message))


def recv_control(conn):
    """Receive one control message (blocking)."""
    return pickle.loads(conn.recv_bytes())
