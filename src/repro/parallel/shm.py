"""Shared-memory plane arena for the zero-copy worker backplane.

A :class:`SharedPlaneArena` publishes the compiled state workers need —
pickled blobs (the replica spec, the sweep context) plus numpy arrays
(the ECO stage-LUT planes) — as one POSIX shared-memory segment per
*generation*.  Workers :func:`attach` by name and get read-only
zero-copy array views, so a spawn or crash-respawn maps the arena
instead of receiving state over its pipe.

Generation protocol
-------------------
The main process owns the arena.  Each :meth:`SharedPlaneArena.export`
writes a brand-new segment named ``<arena>-g<N>`` and *then* unlinks the
previous generation; workers spawned afterwards attach to the newest
name, while workers still mapping an unlinked generation keep their
(private, already-consistent) views until they exit — POSIX keeps the
backing pages alive for existing mappings.  A generation is therefore
immutable after publish: readers never observe a partially written
segment, and the generation counter in the directory lets tests assert
which baseline a respawned worker adopted.

Segment layout: ``[8-byte little-endian header length][pickled header]
[64-byte-aligned array payloads]``.  The header carries the caller's
``meta`` dict, the blob bytes, and the array directory (name, dtype,
shape, offset).  Blobs travel inside the header because they are opaque
pickles anyway; arrays live in the aligned payload region so attached
views are proper zero-copy ndarrays.
"""

from __future__ import annotations

import itertools
import os
import pickle
import struct
import threading
import time
import weakref
from multiprocessing import shared_memory
from typing import Any, Dict, List, Mapping, Optional

import numpy as np

from repro.obs import trace as obs_trace

#: Distinctive segment-name prefix; the CI leak check greps /dev/shm
#: for it after the test suite.
ARENA_PREFIX = "repro-arena"

_ARENA_COUNTER = itertools.count(1)

#: Live-arena registry for the resource sampler: every
#: :class:`SharedPlaneArena` registers itself on construction and is
#: dropped automatically (WeakSet) or on :meth:`~SharedPlaneArena.close`.
_LIVE_ARENAS: "weakref.WeakSet[SharedPlaneArena]" = weakref.WeakSet()
_LIVE_ARENAS_LOCK = threading.Lock()


def live_arena_stats() -> Dict[str, object]:
    """Point-in-time view of owned /dev/shm segments for telemetry.

    Returns ``{"segments": n, "bytes": total, "arenas": [...]}`` where
    each arena entry carries its tag, current generation and published
    bytes.  Thread-safe: the sampler thread calls this while the main
    thread publishes new generations.
    """
    arenas: List[Dict[str, object]] = []
    with _LIVE_ARENAS_LOCK:
        live = list(_LIVE_ARENAS)
    segments = 0
    total = 0
    for arena in live:
        if arena._segment is None:
            continue
        segments += 1
        total += arena.bytes_shared
        arenas.append(
            {
                "tag": arena.tag,
                "generation": arena.generation,
                "bytes": arena.bytes_shared,
            }
        )
    return {"segments": segments, "bytes": total, "arenas": arenas}

_ALIGN = 64
_LEN_FMT = "<Q"
_LEN_SIZE = struct.calcsize(_LEN_FMT)


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) & ~(_ALIGN - 1)


def _transfer_metric(name: str, started: float, size: int, generation: int) -> None:
    """Record one export/attach as a timer metric, not a span.

    A span would add a path that serial runs lack to the merged span
    tree (exports run before the flow's root span, attaches inside
    whichever request a fresh worker serves first), breaking its
    worker-count invariance.
    """
    obs_trace.active().metric(
        name,
        round(time.perf_counter() - started, 6),
        kind="timer",
        labels={"bytes": size, "generation": generation},
    )


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment without adopting ownership.

    Python's resource tracker unlinks every tracked segment at process
    exit; an attaching worker must not trigger that (the main process
    owns the segment's lifetime), so use ``track=False`` where available
    (3.13+).  Older interpreters get the register call suppressed during
    attach instead — unregistering *after* would race the owner's entry
    in the fork-shared tracker and spray KeyError noise at unlink time.
    """
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    def _no_register(*args, **kwargs):
        pass

    original_register = resource_tracker.register
    resource_tracker.register = _no_register
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = original_register


class ArenaView:
    """Read-only attached view of one published arena generation."""

    def __init__(self, name: str) -> None:
        started = time.perf_counter()
        self.name = name
        self._segment = _attach_segment(name)
        buf = self._segment.buf
        (header_len,) = struct.unpack_from(_LEN_FMT, buf, 0)
        header = pickle.loads(bytes(buf[_LEN_SIZE : _LEN_SIZE + header_len]))
        self.meta: Dict[str, Any] = header["meta"]
        self._blobs: Dict[str, bytes] = header["blobs"]
        self.arrays: Dict[str, np.ndarray] = {}
        for entry_name, dtype, shape, offset in header["arrays"]:
            view = np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=buf, offset=offset
            )
            view.flags.writeable = False
            self.arrays[entry_name] = view
        _transfer_metric("shm.attach_s", started, self._segment.size, self.generation)

    @property
    def generation(self) -> int:
        return int(self.meta.get("generation", 0))

    def blob(self, name: str) -> bytes:
        return self._blobs[name]

    def close(self) -> None:
        """Drop the mapping (main-process test support only).

        Worker processes never call this — their views must stay valid
        for the process lifetime, and the OS reclaims the mapping at
        exit.  Closing requires releasing every exported array first, so
        the arrays dict is emptied here.
        """
        self.arrays = {}
        self._blobs = {}
        try:
            self._segment.close()
        except BufferError:
            pass  # a caller still holds a view; the OS cleans up at exit


class SharedPlaneArena:
    """Main-process owner of the generation-versioned shared segments."""

    def __init__(self, tag: str = "pool") -> None:
        self.tag = tag
        self._base = (
            f"{ARENA_PREFIX}-{os.getpid()}-{next(_ARENA_COUNTER)}-{tag}"
        )
        self._segment: Optional[shared_memory.SharedMemory] = None
        self.name: Optional[str] = None
        self.generation = 0
        self.meta: Dict[str, Any] = {}
        self.bytes_shared = 0
        with _LIVE_ARENAS_LOCK:
            _LIVE_ARENAS.add(self)

    def export(
        self,
        blobs: Mapping[str, bytes],
        arrays: Mapping[str, np.ndarray],
        meta: Optional[Mapping[str, Any]] = None,
    ) -> str:
        """Publish a new generation; returns its segment name.

        The previous generation (if any) is unlinked *after* the new one
        is fully written, so attachers racing an export see either the
        old complete segment or the new complete segment, never a torn
        one.
        """
        started = time.perf_counter()
        generation = self.generation + 1
        full_meta = dict(meta or {})
        full_meta["generation"] = generation
        entries = []
        header_stub = {
            "meta": full_meta,
            "blobs": {name: bytes(blob) for name, blob in blobs.items()},
            "arrays": entries,
        }
        # Two-pass layout: sizing needs the final header, whose array
        # offsets depend on its own pickled length.  Reserve with
        # placeholder offsets, then re-pickle into the same length by
        # padding the length prefix region — simpler: fix the header
        # by computing offsets relative to a padded header block.
        plain = [
            (name, np.ascontiguousarray(arr)) for name, arr in arrays.items()
        ]
        probe = [
            (name, arr.dtype.str, arr.shape, 0) for name, arr in plain
        ]
        header_stub["arrays"] = probe
        header_len = len(pickle.dumps(header_stub, protocol=5))
        # Offsets only grow the header by a bounded number of digits;
        # pad the header region so the final pickle always fits.
        header_room = _aligned(_LEN_SIZE + header_len + 16 * len(plain) + 64)
        offset = header_room
        final_entries = []
        for name, arr in plain:
            offset = _aligned(offset)
            final_entries.append((name, arr.dtype.str, arr.shape, offset))
            offset += arr.nbytes
        header_stub["arrays"] = final_entries
        header = pickle.dumps(header_stub, protocol=5)
        if _LEN_SIZE + len(header) > header_room:  # pragma: no cover
            raise RuntimeError("arena header overflow")
        total = max(offset, header_room + 1)

        name = f"{self._base}-g{generation}"
        segment = shared_memory.SharedMemory(
            name=name, create=True, size=total
        )
        buf = segment.buf
        struct.pack_into(_LEN_FMT, buf, 0, len(header))
        buf[_LEN_SIZE : _LEN_SIZE + len(header)] = header
        for (name_, _, _, arr_offset), (_, arr) in zip(final_entries, plain):
            dest = np.ndarray(
                arr.shape, dtype=arr.dtype, buffer=buf, offset=arr_offset
            )
            dest[...] = arr
            del dest
        previous = self._segment
        self._segment = segment
        self.name = segment.name
        self.generation = generation
        self.meta = full_meta
        self.bytes_shared = total
        if previous is not None:
            self._discard(previous)
        _transfer_metric("shm.export_s", started, total, generation)
        return segment.name

    @staticmethod
    def _discard(segment: shared_memory.SharedMemory) -> None:
        try:
            segment.close()
        except BufferError:  # pragma: no cover
            pass
        try:
            segment.unlink()
        except FileNotFoundError:  # pragma: no cover
            pass

    def close(self) -> None:
        """Unlink the live generation; the arena is unusable afterwards."""
        if self._segment is not None:
            self._discard(self._segment)
            self._segment = None
            self.name = None
        with _LIVE_ARENAS_LOCK:
            _LIVE_ARENAS.discard(self)


def attach(name: str) -> ArenaView:
    """Worker-side attach to a published arena generation by name."""
    return ArenaView(name)
