"""Zero-copy shared-memory exchange plane for the sharded executor.

The sharded executor's data plane — per-shard micro-batch index sets, the
step's matching pools and the raw per-example loss terms — lives in
pre-allocated, double-buffered POSIX shared-memory *regions*; the worker
pipes carry only tiny control headers.  The layout is an explicit message
format — the single-host rehearsal of a future multi-host wire protocol.

Region model
------------

* The **parent** owns every region (:class:`ExchangePlane`): one dispatch
  region per shard (``p2w{i}``), one reply region per shard (``w2p{i}``) and
  one broadcast region (``bcast``, packed once per step for all shards).
* Each region is **double-buffered**: a segment holds two equal *slots* and
  a step uses slot ``step % 2``, so a reader of step *s* is never raced by
  the writer of step *s+1*.
* Regions are **generation-counted**: growing a region allocates a fresh
  segment (new name, ``generation + 1``) and unlinks the old one
  immediately — POSIX unlink removes the name, not the memory, so workers
  still mapping the old generation keep reading it safely and re-attach
  lazily when a header names the new segment.  All parent-side regrows
  happen at step *begin* (before any message of the step is sent), so the
  supervisor's respawn-replay log never references a replaced segment.
* **Workers** (:class:`ExchangeClient`) attach segments by name from the
  headers, cache the mapping per region, and never create or unlink
  anything.  A worker-side reply overflow falls back to sending the payload
  pickled over the pipe and piggybacks a grow request; the parent regrows
  the region at the next step begin, returning the steady state to zero
  pickled data-plane bytes.

Wire format
-----------

A data-plane header is the tuple::

    ("shm", (region_id, segment_name, generation, slot_bytes),
     slot, skeleton, meta)

where ``skeleton`` is the payload's container tree with every ndarray
replaced by an index, and ``meta[i] = (shape, dtype_str, offset)`` locates
array ``i`` inside the slot (offsets are 64-byte aligned, relative to the
slot start).  The overflow fallback form is ``("pipe", payload)`` with the
payload pickled over the pipe.

The skeleton supports dicts, lists, tuples, dataclasses (rebuilt as the
same class) and opaque leaves (scalars, strings, ``None`` — anything
non-array rides the pipe inside the header, which is what keeps the header
a *control* message).
"""

from __future__ import annotations

import itertools
import os
import time
import weakref
from dataclasses import fields as dataclass_fields
from dataclasses import is_dataclass
from multiprocessing import shared_memory
from typing import Dict, List, Optional, Tuple

import numpy as np

__all__ = [
    "ExchangeOverflow",
    "CommsStats",
    "ExchangePlane",
    "ExchangeClient",
    "tree_array_bytes",
    "SHM_HEADER",
    "PIPE_HEADER",
]

#: Alignment of every packed array (cache-line sized, like ``_SharedBlock``).
_ALIGN = 64

#: Header kind tags of the data-plane wire format.
SHM_HEADER = "shm"
PIPE_HEADER = "pipe"

#: Monotonic suffix keeping this process's segment names unique.
_region_counter = itertools.count()


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _release_shm(shm: shared_memory.SharedMemory, creator_pid: int) -> None:
    """Close (best-effort) and unlink one shm segment; creator-only unlink.

    Runs from ``weakref.finalize`` — at explicit release, at garbage
    collection, or at interpreter exit — and must therefore tolerate every
    ordering: ``close()`` may raise ``BufferError`` while numpy views are
    still exported (the segment is unlinked regardless; the mapping lives
    until process death), and forked children inherit the finalizer but
    must never unlink the parent's segment.
    """
    try:
        shm.close()
    except BufferError:
        # Numpy views still alias the mapping.  The exported buffers keep
        # the underlying mmap object alive, so the mapping survives until
        # the views die — but detach it from the SharedMemory handle so
        # its ``__del__`` does not retry the close and emit an unraisable
        # BufferError at garbage collection; the retried close() below
        # then just releases the file descriptor.
        shm._buf = None
        shm._mmap = None
        try:
            shm.close()
        except OSError:  # pragma: no cover — fd already gone
            pass
    if os.getpid() == creator_pid:
        try:
            shm.unlink()
        except FileNotFoundError:
            pass


class ExchangeOverflow(RuntimeError):
    """A payload does not fit the region's current slot capacity."""

    def __init__(self, region_id: str, needed: int, capacity: int) -> None:
        super().__init__(
            f"exchange region '{region_id}' overflow: need {needed} bytes, "
            f"slot capacity {capacity}"
        )
        self.region_id = region_id
        self.needed = int(needed)
        self.capacity = int(capacity)


# ----------------------------------------------------------------------
# payload tree <-> (skeleton, arrays)
# ----------------------------------------------------------------------
def _flatten(tree, arrays: List[np.ndarray]):
    """Skeleton of ``tree`` with every ndarray pulled out into ``arrays``."""
    if isinstance(tree, np.ndarray):
        if tree.dtype.hasobject:  # pragma: no cover — no object arrays in the protocol
            return ("o", tree)
        arrays.append(tree)
        return ("a", len(arrays) - 1)
    if isinstance(tree, dict):
        return ("d", [(key, _flatten(value, arrays)) for key, value in tree.items()])
    if isinstance(tree, tuple):
        return ("t", [_flatten(value, arrays) for value in tree])
    if isinstance(tree, list):
        return ("l", [_flatten(value, arrays) for value in tree])
    if is_dataclass(tree) and not isinstance(tree, type):
        return (
            "c",
            type(tree),
            [
                (f.name, _flatten(getattr(tree, f.name), arrays))
                for f in dataclass_fields(tree)
                if f.init
            ],
        )
    return ("o", tree)


def _rebuild(skeleton, resolve):
    """Inverse of :func:`_flatten`; ``resolve(index)`` materialises arrays."""
    kind = skeleton[0]
    if kind == "a":
        return resolve(skeleton[1])
    if kind == "o":
        return skeleton[1]
    if kind == "d":
        return {key: _rebuild(child, resolve) for key, child in skeleton[1]}
    if kind == "t":
        return tuple(_rebuild(child, resolve) for child in skeleton[1])
    if kind == "l":
        return [_rebuild(child, resolve) for child in skeleton[1]]
    if kind == "c":
        return skeleton[1](
            **{name: _rebuild(child, resolve) for name, child in skeleton[2]}
        )
    raise ValueError(f"unknown skeleton node kind '{kind}'")  # pragma: no cover


def tree_array_bytes(tree) -> int:
    """Total ndarray payload bytes in a container tree (pipe-fallback metering)."""
    arrays: List[np.ndarray] = []
    _flatten(tree, arrays)
    return int(sum(array.nbytes for array in arrays))


def _required_bytes(arrays, cursor: int) -> int:
    for array in arrays:
        cursor = _aligned(cursor) + array.nbytes
    return cursor


def _read_arrays(buf, base_offset: int, skeleton, meta, copy: bool):
    """Rebuild a payload from a slot; views by default, copies on request."""
    total = 0

    def resolve(index: int):
        nonlocal total
        shape, dtype_str, offset = meta[index]
        view = np.ndarray(
            shape, dtype=np.dtype(dtype_str), buffer=buf, offset=base_offset + offset
        )
        total += view.nbytes
        return np.array(view, copy=True) if copy else view

    return _rebuild(skeleton, resolve), total


# ----------------------------------------------------------------------
# stats
# ----------------------------------------------------------------------
#: Data-plane rounds of the sharded step, in step order.
ROUNDS = ("dispatch", "broadcast", "loss")


class CommsStats:
    """Per-round byte and serialization/copy-time counters.

    One instance lives on the executor for its whole life (surviving
    degrade-and-reopen cycles) and is surfaced as the profiler's ``comms``
    section.  ``fallback_data_bytes`` is the structural "steady-state
    pickled data-plane bytes" gate: it stays 0 unless a worker-side reply
    overflow forced a one-step pipe fallback.
    """

    def __init__(self) -> None:
        self.rounds: Dict[str, Dict[str, float]] = {
            name: {
                "messages": 0,
                "shm_bytes": 0,
                "pipe_bytes": 0,
                "pack_s": 0.0,
                "unpack_s": 0.0,
            }
            for name in ROUNDS
        }
        #: Region regrows (generation bumps), including forced ones.
        self.grows = 0
        #: Regrows injected through the ``exchange_overflow`` fault point.
        self.forced_regrows = 0
        #: Worker replies that overflowed their region and rode the pipe.
        self.pipe_fallbacks = 0
        #: Pickled ndarray bytes those fallback replies carried.
        self.fallback_data_bytes = 0

    def record(
        self,
        round_name: str,
        *,
        messages: int = 1,
        shm_bytes: int = 0,
        pipe_bytes: int = 0,
        pack_s: float = 0.0,
        unpack_s: float = 0.0,
    ) -> None:
        entry = self.rounds[round_name]
        entry["messages"] += messages
        entry["shm_bytes"] += int(shm_bytes)
        entry["pipe_bytes"] += int(pipe_bytes)
        entry["pack_s"] += pack_s
        entry["unpack_s"] += unpack_s

    def total(self, metric: str) -> float:
        return sum(entry[metric] for entry in self.rounds.values())

    def copy_seconds(self) -> float:
        """Total parent-side serialization/copy time across all rounds."""
        return float(self.total("pack_s") + self.total("unpack_s"))

    def as_section(self) -> Dict:
        """Payload for ``profiler.record_section("comms", ...)``."""
        section: Dict = {
            name: dict(entry) for name, entry in self.rounds.items() if entry["messages"]
        }
        section["grows"] = self.grows
        section["forced_regrows"] = self.forced_regrows
        section["pipe_fallbacks"] = self.pipe_fallbacks
        section["fallback_data_bytes"] = self.fallback_data_bytes
        return section


# ----------------------------------------------------------------------
# parent side
# ----------------------------------------------------------------------
class _Region:
    """One double-buffered, generation-counted named shm segment."""

    def __init__(self, region_id: str, slot_bytes: int) -> None:
        self.region_id = region_id
        self.generation = 0
        self.shm: Optional[shared_memory.SharedMemory] = None
        self._finalizer = None
        self._allocate(slot_bytes)

    def _allocate(self, slot_bytes: int) -> None:
        slot_bytes = _aligned(max(int(slot_bytes), _ALIGN))
        name = f"repro-xp-{os.getpid()}-{next(_region_counter)}"
        self.shm = shared_memory.SharedMemory(name=name, create=True, size=2 * slot_bytes)
        self.slot_bytes = slot_bytes
        self._finalizer = weakref.finalize(self, _release_shm, self.shm, os.getpid())

    def _release_segment(self) -> None:
        finalizer, self._finalizer = self._finalizer, None
        if finalizer is not None:
            finalizer()  # runs at most once

    def grow(self, needed: int, *, at_least_double: bool = True) -> None:
        """Swap in a bigger segment (new name, next generation).

        The old segment is unlinked immediately: attached workers keep their
        mappings alive until they see the new name in a header — POSIX
        unlink removes the name, not the memory.
        """
        if at_least_double:
            needed = max(int(needed), 2 * self.slot_bytes)
        self._release_segment()
        self.generation += 1
        self._allocate(needed)

    def release(self) -> None:
        self._release_segment()

    def descriptor(self) -> Tuple[str, str, int, int]:
        return (self.region_id, self.shm.name, self.generation, self.slot_bytes)


class ExchangePlane:
    """Parent-side owner of the exchange regions (see module docstring)."""

    def __init__(self, n_shards: int, stats: Optional[CommsStats] = None) -> None:
        self.n_shards = int(n_shards)
        self.stats = stats if stats is not None else CommsStats()
        self.regions: Dict[str, _Region] = {}
        self.slot = 0
        self._cursors: Dict[str, int] = {}
        self._pending_grow: Dict[str, int] = {}

    # -- lifecycle -----------------------------------------------------
    def open(
        self, *, dispatch_bytes: int = 1 << 15, reply_bytes: int = 1 << 16
    ) -> None:
        if self.regions:
            return
        for shard in range(self.n_shards):
            self.regions[f"p2w{shard}"] = _Region(f"p2w{shard}", dispatch_bytes)
            self.regions[f"w2p{shard}"] = _Region(f"w2p{shard}", reply_bytes)
        self.regions["bcast"] = _Region("bcast", dispatch_bytes)

    def close(self) -> None:
        regions, self.regions = self.regions, {}
        for region in regions.values():
            region.release()

    # -- per-step control ----------------------------------------------
    def begin_step(
        self,
        step_index: int,
        *,
        reply_bound: Optional[int] = None,
        force_regrow: bool = False,
    ) -> None:
        """Flip the double buffer and apply every pending/forced regrow.

        All parent-side regrows happen here — before any message of the
        step is sent — so the supervisor's respawn-replay log never
        references a segment replaced mid-step.
        """
        self.slot = step_index % 2
        self._cursors = {region_id: 0 for region_id in self.regions}
        if force_regrow:
            for region in self.regions.values():
                region.grow(region.slot_bytes, at_least_double=False)
                self.stats.grows += 1
            self.stats.forced_regrows += 1
        for region_id, needed in self._pending_grow.items():
            region = self.regions.get(region_id)
            if region is not None and needed > region.slot_bytes:
                region.grow(needed)
                self.stats.grows += 1
        self._pending_grow = {}
        if reply_bound is not None:
            for shard in range(self.n_shards):
                region = self.regions[f"w2p{shard}"]
                if reply_bound > region.slot_bytes:
                    region.grow(reply_bound)
                    self.stats.grows += 1

    def request_grow(self, requests: Optional[Dict[str, int]]) -> None:
        """Note worker grow requests; honored at the next :meth:`begin_step`."""
        if not requests:
            return
        for region_id, needed in requests.items():
            current = self._pending_grow.get(region_id, 0)
            self._pending_grow[region_id] = max(current, int(needed))

    # -- generic payload pack/unpack -----------------------------------
    def pack(self, region_id: str, payload, round_name: str):
        """Pack a payload into the region's current slot; return its header.

        Parent-owned regions pack at most once per step (cursor 0), so an
        overflow here is resolved by growing in place — the header the
        workers will see names the fresh segment.
        """
        started = time.perf_counter()
        region = self.regions[region_id]
        arrays: List[np.ndarray] = []
        skeleton = _flatten(payload, arrays)
        cursor = self._cursors[region_id]
        needed = _required_bytes(arrays, cursor)
        if needed > region.slot_bytes:
            if cursor:  # pragma: no cover — parent regions pack once per step
                raise ExchangeOverflow(region_id, needed, region.slot_bytes)
            region.grow(needed)
            self.stats.grows += 1
        slot_start = self.slot * region.slot_bytes
        meta = []
        shm_bytes = 0
        for array in arrays:
            cursor = _aligned(cursor)
            if array.nbytes:
                dest = np.ndarray(
                    array.shape,
                    dtype=array.dtype,
                    buffer=region.shm.buf,
                    offset=slot_start + cursor,
                )
                dest[...] = array
            meta.append((array.shape, array.dtype.str, cursor))
            cursor += array.nbytes
            shm_bytes += array.nbytes
        self._cursors[region_id] = cursor
        self.stats.record(
            round_name, shm_bytes=shm_bytes, pack_s=time.perf_counter() - started
        )
        return (SHM_HEADER, region.descriptor(), self.slot, skeleton, meta)

    def unpack(self, header, round_name: str, *, copy: bool = False):
        """Payload of a worker reply header (shm views, or the pipe fallback)."""
        started = time.perf_counter()
        if header[0] == PIPE_HEADER:
            payload = header[1]
            nbytes = tree_array_bytes(payload)
            self.stats.pipe_fallbacks += 1
            self.stats.fallback_data_bytes += nbytes
            self.stats.record(
                round_name, pipe_bytes=nbytes, unpack_s=time.perf_counter() - started
            )
            return payload
        _, descriptor, slot, skeleton, meta = header
        region = self.regions[descriptor[0]]
        payload, nbytes = _read_arrays(
            region.shm.buf, slot * region.slot_bytes, skeleton, meta, copy
        )
        self.stats.record(
            round_name, shm_bytes=nbytes, unpack_s=time.perf_counter() - started
        )
        return payload

    def descriptor(self, region_id: str) -> Tuple[str, str, int, int]:
        return self.regions[region_id].descriptor()


# ----------------------------------------------------------------------
# worker side
# ----------------------------------------------------------------------
def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without touching the resource tracker.

    ``SharedMemory(name=...)`` registers the name on attach (Python <=3.12),
    and forked workers share the parent's tracker process — so the obvious
    attach-then-unregister dance would delete the *creator's* registration
    and make the parent's eventual ``unlink`` KeyError inside the tracker.
    Suppressing the attach-side registration instead keeps the tracker's
    books exactly mirroring ownership: one entry per segment, held by the
    creating parent until it unlinks.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original


def _detach(shm: shared_memory.SharedMemory) -> None:
    """Worker-side close that tolerates still-exported numpy views."""
    try:
        shm.close()
    except BufferError:
        shm._buf = None
        shm._mmap = None
        try:
            shm.close()
        except OSError:  # pragma: no cover
            pass


class _Attached:
    """One worker-side mapping of a parent region generation."""

    def __init__(self, descriptor: Tuple[str, str, int, int]) -> None:
        _, name, generation, slot_bytes = descriptor
        self.shm = _attach_untracked(name)
        self.generation = generation
        self.slot_bytes = slot_bytes

    def close(self) -> None:
        _detach(self.shm)


class ExchangeClient:
    """Worker-side view of the exchange plane.

    Attaches parent segments lazily by name (cached per region, re-attached
    when a header names a new generation), unpacks dispatch payloads and
    packs replies into this shard's reply region.
    """

    def __init__(self) -> None:
        self._attached: Dict[str, _Attached] = {}
        self.slot = 0
        self._reply: Optional[Tuple[str, str, int, int]] = None
        self._reply_cursor = 0
        self.grow_request: Dict[str, int] = {}

    def attach(self, descriptor: Tuple[str, str, int, int]) -> _Attached:
        region_id, name = descriptor[0], descriptor[1]
        cached = self._attached.get(region_id)
        if cached is None or cached.shm.name != name:
            if cached is not None:
                cached.close()
            cached = _Attached(descriptor)
            self._attached[region_id] = cached
        return cached

    def begin_step(self, env: Dict) -> None:
        self.slot = env["slot"]
        self._reply = env["reply"]
        self._reply_cursor = 0
        self.grow_request = {}

    def unpack(self, header, *, copy: bool = False):
        if header[0] == PIPE_HEADER:
            return header[1]
        _, descriptor, slot, skeleton, meta = header
        attached = self.attach(descriptor)
        payload, _ = _read_arrays(
            attached.shm.buf, slot * attached.slot_bytes, skeleton, meta, copy
        )
        return payload

    # -- reply packing --------------------------------------------------
    def pack_reply(self, payload):
        """Header for ``payload`` packed into the reply slot.

        Overflow falls back to the ``("pipe", payload)`` header plus a grow
        request.
        """
        attached = self.attach(self._reply)
        arrays: List[np.ndarray] = []
        skeleton = _flatten(payload, arrays)
        needed = _required_bytes(arrays, self._reply_cursor)
        if needed > attached.slot_bytes:
            self._note_grow(needed)
            return (PIPE_HEADER, payload)
        slot_start = self.slot * attached.slot_bytes
        meta: List = []
        cursor = self._reply_cursor
        for array in arrays:
            cursor = _aligned(cursor)
            if array.nbytes:
                dest = np.ndarray(
                    array.shape,
                    dtype=array.dtype,
                    buffer=attached.shm.buf,
                    offset=slot_start + cursor,
                )
                dest[...] = array
            meta.append((array.shape, array.dtype.str, cursor))
            cursor += array.nbytes
        self._reply_cursor = cursor
        descriptor = (
            self._reply[0],
            attached.shm.name,
            attached.generation,
            attached.slot_bytes,
        )
        return (SHM_HEADER, descriptor, self.slot, skeleton, meta)

    def _note_grow(self, needed: int) -> None:
        region_id = self._reply[0]
        current = self.grow_request.get(region_id, 0)
        # Request double the miss so repeated near-misses converge quickly.
        self.grow_request[region_id] = max(current, 2 * int(needed))

    def take_grow_request(self) -> Optional[Dict[str, int]]:
        request, self.grow_request = self.grow_request, {}
        return request or None

    def close(self) -> None:
        attached, self._attached = self._attached, {}
        for mapping in attached.values():
            mapping.close()
