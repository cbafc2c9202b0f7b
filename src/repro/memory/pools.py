"""Pooled power-of-two memory allocators (Section VII-C).

ZNN implements two custom allocators — one for (large, SIMD-aligned) 3D
images and one for small auxiliary objects — each maintaining 32 global
pools of memory chunks, pool *i* holding chunks of ``2**i`` bytes.
Requests round the size up to the next power of two; frees push the
chunk back onto its pool and **no memory is ever returned to the
system**, so usage peaks after a few training rounds and the worst-case
overhead is bounded by 2x.

We reproduce the design with numpy byte buffers.  Pool operations use
``collections.deque`` whose ``append``/``pop`` are atomic under the GIL,
mirroring the boost lock-free queues of the original: an allocate or
deallocate never blocks on a lock.

:class:`PooledArray` wraps a chunk as an ndarray of the requested shape;
:func:`image_allocator` exposes the global 64-byte-aligned image
allocator (the small-object one has no user in this reproduction).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Optional, Sequence, Tuple

import numpy as np

from repro.analysis.runtime import make_lock
from repro.observability.metrics import get_registry

__all__ = [
    "AllocatorStats",
    "PoolAllocator",
    "PooledArray",
    "image_allocator",
    "reset_global_allocators",
]

NUM_POOLS = 32


def _round_up_pow2(n: int) -> Tuple[int, int]:
    """Return (2**i >= n, i).  n must be >= 1."""
    if n < 1:
        raise ValueError(f"size must be >= 1, got {n}")
    i = max(0, (n - 1).bit_length())
    return 1 << i, i


@dataclass
class AllocatorStats:
    """Counters describing allocator behaviour over its lifetime."""

    system_allocations: int = 0
    pool_hits: int = 0
    deallocations: int = 0
    bytes_from_system: int = 0
    bytes_requested: int = 0

    @property
    def requests(self) -> int:
        return self.system_allocations + self.pool_hits

    @property
    def hit_rate(self) -> float:
        return self.pool_hits / self.requests if self.requests else 0.0

    @property
    def overhead_ratio(self) -> float:
        """Held-bytes / requested-bytes; bounded by ~2 for pow-2 rounding."""
        if not self.bytes_requested:
            return 1.0
        return self.bytes_from_system / self.bytes_requested

    def snapshot(self) -> dict:
        return {
            "system_allocations": self.system_allocations,
            "pool_hits": self.pool_hits,
            "deallocations": self.deallocations,
            "bytes_from_system": self.bytes_from_system,
            "bytes_requested": self.bytes_requested,
            "hit_rate": self.hit_rate,
        }


class PooledArray(np.ndarray):
    """An ndarray view over a pooled chunk.

    Carries the chunk and pool index so :meth:`PoolAllocator.deallocate`
    can return the backing memory.  Behaves as a normal ndarray
    otherwise; views/slices share the chunk but only the original
    pooled array should be deallocated.
    """

    _chunk: Optional[np.ndarray]
    _pool_index: int
    _allocator: Optional["PooledArrays"]

    def __array_finalize__(self, obj):
        # Views inherit nothing: only the array handed out by allocate()
        # is deallocatable.
        self._chunk = getattr(self, "_chunk", None)
        self._pool_index = getattr(self, "_pool_index", -1)
        self._allocator = getattr(self, "_allocator", None)


class PoolAccounting:
    """Lifetime stats and ``pool.*`` metrics of one pooled allocator —
    what :class:`PoolAllocator` and
    :class:`repro.memory.shared_pool.SharedMemoryPool` record the same
    way, wherever their bytes live."""

    def __init__(self, name: str, lock_name: str) -> None:
        # Stats mutation is the only shared-state write outside the
        # allocators' free-list ops; a tiny lock keeps counters exact.
        self._lock = make_lock(lock_name)
        self.stats = AllocatorStats()  # guarded-by: _lock
        reg = get_registry()
        self._m_alloc = reg.counter("pool.alloc", pool=name)
        self._m_reuse = reg.counter("pool.reuse", pool=name)
        self._m_free = reg.counter("pool.free", pool=name)
        self._m_held = reg.gauge("pool.held_bytes", pool=name)
        self._m_outstanding = reg.gauge("pool.outstanding", pool=name)

    def allocated(self, nbytes: int, size: int, hit: bool) -> None:
        """A request of *nbytes* was served by a chunk of *size* bytes,
        from the free list (*hit*) or from the system."""
        with self._lock:
            self.stats.bytes_requested += nbytes
            if hit:
                self.stats.pool_hits += 1
            else:
                self.stats.system_allocations += 1
                self.stats.bytes_from_system += size
            held = self.stats.bytes_from_system
        self._m_alloc.inc()
        if hit:
            self._m_reuse.inc()
        else:
            self._m_held.set(held)
        self._m_outstanding.inc()

    def freed(self) -> None:
        """A chunk went back to its free list."""
        with self._lock:
            self.stats.deallocations += 1
        self._m_free.inc()
        self._m_outstanding.dec()


class PooledArrays:
    """``allocate_array``/``deallocate_array`` for an allocator whose
    ``allocate(nbytes)`` returns ``(chunk, pool_index)`` and whose
    ``deallocate(chunk, pool_index)`` takes them back."""

    def allocate_array(self, shape: int | Sequence[int],
                       dtype=np.float64) -> PooledArray:
        """Allocate a pooled ndarray of *shape*/*dtype*."""
        shape_t = (shape,) if isinstance(shape, int) else tuple(shape)
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape_t)) * dt.itemsize)
        chunk, index = self.allocate(nbytes)
        flat = chunk[: int(np.prod(shape_t)) * dt.itemsize].view(dt)
        arr = flat.reshape(shape_t).view(PooledArray)
        arr._chunk = chunk
        arr._pool_index = index
        arr._allocator = self
        return arr

    def deallocate_array(self, array: PooledArray) -> None:
        """Return a :class:`PooledArray`'s chunk to its pool."""
        chunk = getattr(array, "_chunk", None)
        if chunk is None:
            raise ValueError("array was not allocated by a pooled "
                             "allocator (or is a view)")
        if array._allocator is not self:
            raise ValueError("array belongs to a different allocator")
        self.deallocate(chunk, array._pool_index)
        array._chunk = None
        array._allocator = None


class PoolAllocator(PooledArrays):
    """A 32-pool power-of-two allocator over numpy byte chunks.

    Parameters
    ----------
    alignment:
        Byte alignment of returned chunks (the image allocator uses 64
        to enable SIMD in the original; the small-object allocator 1).
    name:
        For diagnostics.
    """

    def __init__(self, alignment: int = 1, name: str = "pool") -> None:
        if alignment < 1 or (alignment & (alignment - 1)):
            raise ValueError(f"alignment must be a power of two, got {alignment}")
        self.alignment = alignment
        self.name = name
        # The free-lists are deliberately lock-free: deque append/pop
        # are GIL-atomic (the boost lock-free queues of §VII-C).
        self._pools: list[Deque[np.ndarray]] = [deque() for _ in range(NUM_POOLS)]
        self._accounting = PoolAccounting(name, f"memory.pool_stats.{name}")
        self.stats = self._accounting.stats

    # ------------------------------------------------------------------

    def _new_chunk(self, size: int) -> np.ndarray:
        """Allocate an aligned byte buffer of exactly *size* bytes."""
        if self.alignment == 1:
            return np.empty(size, dtype=np.uint8)
        raw = np.empty(size + self.alignment, dtype=np.uint8)
        offset = (-raw.ctypes.data) % self.alignment
        return raw[offset:offset + size]

    def allocate(self, nbytes: int) -> Tuple[np.ndarray, int]:
        """Return (chunk, pool_index) with ``chunk.nbytes >= nbytes``.

        Reuses a pooled chunk when available, otherwise allocates from
        the system (and remembers the system bytes forever — pool memory
        is never released).
        """
        size, index = _round_up_pow2(nbytes)
        if index >= NUM_POOLS:
            raise MemoryError(
                f"request of {nbytes} bytes exceeds the largest pool "
                f"(2**{NUM_POOLS - 1})")
        try:
            chunk = self._pools[index].pop()
            hit = True
        except IndexError:
            chunk = self._new_chunk(size)
            hit = False
        self._accounting.allocated(nbytes, size, hit)
        return chunk, index

    def deallocate(self, chunk: np.ndarray, pool_index: int) -> None:
        """Return *chunk* to its pool (never to the system)."""
        if not 0 <= pool_index < NUM_POOLS:
            raise ValueError(f"invalid pool index {pool_index}")
        if chunk.nbytes != (1 << pool_index):
            raise ValueError(
                f"chunk of {chunk.nbytes} bytes does not belong to pool "
                f"{pool_index} (expects {1 << pool_index})")
        self._pools[pool_index].append(chunk)
        self._accounting.freed()

    # ------------------------------------------------------------------

    def pooled_chunks(self) -> list[int]:
        """Number of idle chunks per pool (diagnostics)."""
        return [len(p) for p in self._pools]

    def held_bytes(self) -> int:
        """Total bytes ever obtained from the system (never decreases)."""
        return self.stats.bytes_from_system

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"PoolAllocator(name={self.name!r}, "
                f"alignment={self.alignment}, "
                f"held={self.held_bytes()})")


# ---------------------------------------------------------------------------
# The two global allocators of Section VII-C.  "No memory is shared
# between the two allocators."
# ---------------------------------------------------------------------------

_image_allocator: Optional[PoolAllocator] = None  # guarded-by: _global_lock
_global_lock = make_lock("memory.pool_globals")


def image_allocator() -> PoolAllocator:
    """The global 3D-image allocator (64-byte aligned)."""
    global _image_allocator
    with _global_lock:
        if _image_allocator is None:
            _image_allocator = PoolAllocator(alignment=64, name="images")
        return _image_allocator


def reset_global_allocators() -> None:
    """Discard the global allocator (tests / benchmarks only)."""
    global _image_allocator
    with _global_lock:
        _image_allocator = None
