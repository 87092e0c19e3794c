"""Shared-memory tile store: `TileMatrix` payloads across processes.

The process-parallel backend (:mod:`repro.runtime.procpool`) runs tile
kernels in worker processes, so tile payloads must live somewhere every
process can reach without serialization.  A :class:`SharedTileStore`
backs each tile of a :class:`~repro.tile.matrix.TileMatrix` with
regions of :class:`multiprocessing.shared_memory.SharedMemory`
segments:

* a **slab allocator keyed by capacity class**: tiles of one shape
  share segments, each segment packing many fixed-capacity slabs, so a
  30x30-tile matrix costs a handful of ``shm_open`` calls, not 930;
* **fixed per-tile homes**: every tile gets two slabs of capacity
  ``8 * m * n`` bytes each — slab *a* holds a dense payload or the
  low-rank ``U`` factor, slab *b* the ``V`` factor.  The bound covers
  every representation a kernel can produce (dense FP64 is ``8mn``;
  a rank-``r`` factor with ``r <= min(m, n)`` fits because
  ``itemsize * r <= 8 * n``, float64 accumulators included), so a
  tile can accumulate, settle, densify or change precision in place
  without ever reallocating;
* **picklable headers**: a :class:`TileHandle` names the slabs plus
  the current representation (kind / precision / shape / rank / what
  an accumulating tile owes) — the only thing that ever crosses a
  process boundary;
* **zero-copy views**: :func:`tile_view` wraps the slab bytes in
  numpy arrays without copying, on both sides of the fork;
* **explicit lifecycle**: the creating process owns the segments and
  must :meth:`~SharedTileStore.close` (unlink-on-close); workers
  attach through a :class:`SegmentCache`, which keeps attaches off the
  resource tracker so only the owner ever unlinks (on this Python,
  attaching also registers — a tracked attach would tear segments out
  from under the owner's later cleanup).

In-place overwrite is race-free by construction: the runtime's
dependence edges (RAW/WAW/WAR) serialize every conflicting access, and
the dispatcher only releases a successor after its producers' results
have been observed, so no reader ever sees a half-written slab.
"""

from __future__ import annotations

import os
from contextlib import suppress
from multiprocessing import resource_tracker, shared_memory
from typing import NamedTuple

import numpy as np

from ..exceptions import ShapeError
from .layout import TileLayout
from .matrix import TileMatrix
from .precision import Precision
from .tile import DenseTile, LowRankTile, Tile

__all__ = [
    "SlabRef",
    "TileHandle",
    "SharedTileStore",
    "SegmentCache",
    "payload_nbytes",
    "leaked_segments",
]

#: Prefix of every segment name this module creates — leak checks grep
#: ``/dev/shm`` for it.
SEGMENT_PREFIX = "reproshm"

#: Target segment size for the slab allocator: large enough to
#: amortize ``shm_open``/``mmap`` per segment, small enough that the
#: trailing partially-used segment wastes little.
_SEGMENT_TARGET = 8 << 20

_store_counter = 0


class SlabRef(NamedTuple):
    """One fixed-capacity region of a named shared-memory segment."""

    segment: str
    offset: int
    capacity: int


class TileHandle(NamedTuple):
    """Picklable descriptor of a tile's current representation in the
    store.  ``a`` holds the dense payload or the ``U`` factor, ``b``
    the ``V`` factor (unused while dense); ``rank`` is meaningful only
    when ``lr``.  ``owed`` is the tile's
    :attr:`~repro.tile.tile.Tile.owed`: when set, the payload is the
    float64 accumulator and ``precision`` the planned storage."""

    index: tuple[int, int]
    lr: bool
    precision: int
    shape: tuple[int, int]
    rank: int
    a: SlabRef
    b: SlabRef
    owed: "tuple[float, int | None] | None" = None


def _payload_dtype(handle: TileHandle) -> np.dtype:
    if handle.owed is not None:
        return np.dtype(np.float64)
    return Precision(handle.precision).dtype


def payload_nbytes(handle: TileHandle) -> int:
    """Bytes of the handle's payload in its wire representation —
    by construction identical to
    :func:`repro.runtime.comm.tile_wire_bytes` for the same
    representation (``itemsize * m * n`` dense,
    ``itemsize * rank * (m + n)`` low-rank)."""
    m, n = handle.shape
    itemsize = _payload_dtype(handle).itemsize
    if handle.lr:
        return itemsize * handle.rank * (m + n)
    return itemsize * m * n


def _check_fits(nbytes: int, ref: SlabRef, what: str) -> None:
    if nbytes > ref.capacity:
        raise ShapeError(
            f"{what} needs {nbytes} bytes but its home slab holds "
            f"{ref.capacity}"
        )


def _write_payload(buf, ref: SlabRef, arr: np.ndarray) -> None:
    """Copy ``arr`` (C-order) into the slab bytes."""
    _check_fits(arr.nbytes, ref, "tile payload")
    view = np.ndarray(arr.shape, dtype=arr.dtype, buffer=buf, offset=ref.offset)
    view[...] = arr


def _handle_for(index: tuple[int, int], tile: Tile, a: SlabRef, b: SlabRef) -> TileHandle:
    return TileHandle(
        index, tile.is_low_rank, int(tile.precision), tile.shape,
        tile.rank if tile.is_low_rank else 0, a, b, tile.owed,
    )


def tile_view(handle: TileHandle, buf_a, buf_b) -> Tile:
    """Zero-copy :class:`Tile` over the handle's slab bytes.

    ``buf_a``/``buf_b`` are the mapped buffers of the two segments the
    handle's slabs live in (the same object when they share a
    segment).  The arrays alias shared memory: callers that outlive
    the current task must copy.
    """
    m, n = handle.shape
    dtype = _payload_dtype(handle)
    precision = Precision(handle.precision)
    if handle.lr:
        u = np.ndarray((m, handle.rank), dtype=dtype, buffer=buf_a,
                       offset=handle.a.offset)
        v = np.ndarray((n, handle.rank), dtype=dtype, buffer=buf_b,
                       offset=handle.b.offset)
        return LowRankTile(u, v, precision, handle.owed)
    data = np.ndarray((m, n), dtype=dtype, buffer=buf_a,
                      offset=handle.a.offset)
    return DenseTile(data, precision, handle.owed)


class _SlabClass:
    """Bump allocator for one capacity class: segments holding
    ``per_segment`` slabs each, plus a free list."""

    __slots__ = ("capacity", "per_segment", "free", "_cursor", "_room")

    def __init__(self, capacity: int):
        # 16-byte alignment keeps every payload dtype aligned.
        self.capacity = -(-capacity // 16) * 16
        self.per_segment = max(1, _SEGMENT_TARGET // self.capacity)
        self.free: list[SlabRef] = []
        self._cursor: str | None = None  # segment still being filled
        self._room = 0


class SharedTileStore:
    """Owner-side store backing one :class:`TileMatrix`'s tiles.

    The creating process is the owner: it allocates segments, writes
    initial payloads, and must call :meth:`close` (or use the store as
    a context manager) to unlink them — segments are kernel objects
    that outlive the process otherwise.  Worker processes never
    construct one of these; they attach via :class:`SegmentCache`.
    """

    def __init__(self, layout: TileLayout):
        global _store_counter
        _store_counter += 1
        self.layout = layout
        self._tag = f"{SEGMENT_PREFIX}{os.getpid():x}x{_store_counter:x}"
        self._segments: dict[str, shared_memory.SharedMemory] = {}
        self._classes: dict[int, _SlabClass] = {}
        self._homes: dict[tuple[int, int], tuple[SlabRef, SlabRef]] = {}
        self.handles: dict[tuple[int, int], TileHandle] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # slab allocation
    # ------------------------------------------------------------------
    def _alloc(self, capacity: int) -> SlabRef:
        cls = self._classes.get(capacity)
        if cls is None:
            cls = self._classes[capacity] = _SlabClass(capacity)
        if cls.free:
            return cls.free.pop()
        if cls._room == 0:
            name = f"{self._tag}s{len(self._segments):x}"
            seg = shared_memory.SharedMemory(
                name=name, create=True,
                size=cls.capacity * cls.per_segment,
            )
            self._segments[seg.name] = seg
            cls._cursor = seg.name
            cls._room = cls.per_segment
        offset = (cls.per_segment - cls._room) * cls.capacity
        cls._room -= 1
        return SlabRef(cls._cursor, offset, cls.capacity)

    def free_slab(self, ref: SlabRef) -> None:
        """Return a slab to its class's free list (homes are stable for
        the store's lifetime; this exists for non-matrix scratch use)."""
        cls = self._classes.get(ref.capacity)
        if cls is not None:
            cls.free.append(ref)

    def _home(self, key: tuple[int, int]) -> tuple[SlabRef, SlabRef]:
        """The tile's two fixed slabs (allocated on first use).  Each
        has capacity ``8 * m * n``: enough for dense FP64 and for
        either low-rank factor at any legal rank."""
        home = self._homes.get(key)
        if home is None:
            m, n = self.layout.tile_shape(*key)
            home = self._homes[key] = (
                self._alloc(8 * m * n), self._alloc(8 * m * n)
            )
        return home

    # ------------------------------------------------------------------
    # tile I/O (owner side)
    # ------------------------------------------------------------------
    def _buf(self, ref: SlabRef):
        return self._segments[ref.segment].buf

    def put_tile(self, key: tuple[int, int], tile: Tile) -> TileHandle:
        """Write ``tile`` into its home slabs; returns (and records)
        the new handle."""
        a, b = self._home(key)
        if isinstance(tile, LowRankTile):
            _write_payload(self._buf(a), a, np.ascontiguousarray(tile.u))
            _write_payload(self._buf(b), b, np.ascontiguousarray(tile.v))
        else:
            _write_payload(self._buf(a), a, np.ascontiguousarray(tile.data))
        handle = _handle_for(key, tile, a, b)
        self.handles[key] = handle
        return handle

    def put_matrix(self, matrix: TileMatrix) -> dict[tuple[int, int], TileHandle]:
        """Write every stored tile of ``matrix``; returns the handle
        table (also kept on :attr:`handles`)."""
        if matrix.layout != self.layout:
            raise ShapeError("matrix layout differs from the store's")
        for key, tile in matrix.items():
            self.put_tile(key, tile)
        return dict(self.handles)

    def get_tile(self, handle: TileHandle) -> Tile:
        """Materialize a handle as a private (copied) tile — safe to
        use after the store is closed."""
        view = tile_view(
            handle, self._buf(handle.a),
            self._buf(handle.b) if handle.lr else None,
        )
        if isinstance(view, LowRankTile):
            return LowRankTile(
                view.u.copy(), view.v.copy(), view.precision, view.owed
            )
        return DenseTile(view.data.copy(), view.precision, view.owed)

    def read_into(self, matrix: TileMatrix) -> TileMatrix:
        """Copy every current handle's payload back into ``matrix``
        (the factorization result escaping the store's lifetime)."""
        for key, handle in self.handles.items():
            matrix._tiles[key] = self.get_tile(handle)
        return matrix

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def segment_names(self) -> list[str]:
        return sorted(self._segments)

    @property
    def nbytes(self) -> int:
        return sum(seg.size for seg in self._segments.values())

    def close(self) -> None:
        """Close and unlink every segment (idempotent).  Any numpy
        view into the store is invalid after this."""
        if self._closed:
            return
        self._closed = True
        for seg in self._segments.values():
            # A live view pins the mapping (BufferError on close);
            # unlink still removes the name so nothing leaks past
            # process exit.  FileNotFoundError means already unlinked.
            with suppress(BufferError):
                seg.close()
            with suppress(FileNotFoundError):
                seg.unlink()
        self._segments.clear()
        self._homes.clear()
        self.handles.clear()

    def __enter__(self) -> "SharedTileStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):  # pragma: no cover - safety net
        try:
            self.close()
        except Exception:
            return  # interpreter teardown; close() is best-effort here


class SegmentCache:
    """Worker-side attach cache: one ``mmap`` per segment per worker,
    reused across every task of a factorization.

    Attaching registers the segment with the resource tracker on this
    Python, but cleanup responsibility stays with the owning process —
    otherwise the first worker to exit would unlink segments its
    siblings are still computing on.  Because fork/spawn children share
    the parent's tracker *process*, an attach-then-unregister would
    remove the owner's registration from the shared tracker (the
    tracker keys by name, not by registrant), so the cache instead
    suppresses registration for the attach call itself.
    """

    def __init__(self) -> None:
        self._segments: dict[str, shared_memory.SharedMemory] = {}

    def buf(self, name: str):
        seg = self._segments.get(name)
        if seg is None:
            orig_register = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                seg = shared_memory.SharedMemory(name=name)
            finally:
                resource_tracker.register = orig_register
            self._segments[name] = seg
        return seg.buf

    def view(self, handle: TileHandle) -> Tile:
        """Zero-copy tile over the handle's current payload."""
        return tile_view(
            handle, self.buf(handle.a.segment),
            self.buf(handle.b.segment) if handle.lr else None,
        )

    def write(self, handle: TileHandle, tile: Tile) -> TileHandle:
        """Store a task's output tile into the (home) slabs named by
        ``handle`` and return the updated handle."""
        a, b = handle.a, handle.b
        if isinstance(tile, LowRankTile):
            _write_payload(self.buf(a.segment), a,
                           np.ascontiguousarray(tile.u))
            _write_payload(self.buf(b.segment), b,
                           np.ascontiguousarray(tile.v))
        else:
            _write_payload(self.buf(a.segment), a,
                           np.ascontiguousarray(tile.data))
        return _handle_for(handle.index, tile, a, b)

    def close(self) -> None:
        """Detach every cached mapping (never unlinks)."""
        for seg in self._segments.values():
            with suppress(BufferError):  # a leaked view pins the mmap
                seg.close()
        self._segments.clear()


def leaked_segments() -> list[str]:
    """Names under ``/dev/shm`` carrying this module's prefix — empty
    unless a store was abandoned without :meth:`SharedTileStore.close`
    (leak tests assert on this)."""
    try:
        return sorted(
            name for name in os.listdir("/dev/shm")
            if name.startswith(SEGMENT_PREFIX)
        )
    except OSError:  # pragma: no cover - non-linux
        return []
