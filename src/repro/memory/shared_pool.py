"""Pooled cross-process shared-memory allocator.

The serving fleet (:mod:`repro.serving.fleet`) hands each request's
input and output volumes to its worker processes in
``multiprocessing.shared_memory`` blocks, so whole volumes cross the
process boundary without being pickled through a pipe (at 64³ a pipe
round trip costs several times a shared-memory one).  It is the only
user: the data-parallel trainer's gradients are small enough to travel
in its pipe replies.  This module extends the Section VII-C
pooled-allocator design of :mod:`repro.memory.pools` across process
boundaries: requests round up to the next power of two, freed blocks
return to one of 32 per-size free lists (never to the operating
system), and the worst-case held-bytes overhead stays bounded by 2x.

Only the **owning** process allocates and frees; worker processes
receive picklable :class:`BlockHandle` descriptions and map the same
physical pages with :func:`attach_block`.  The owner's ``close()``
unlinks every segment it ever created, which is why pooled reuse —
rather than per-round segment churn — matters here even more than in
the in-process allocator: shared-memory segments are a finite kernel
resource and leak past process death.

Statistics reuse :class:`repro.memory.pools.AllocatorStats` and the
``pool.*`` metric families (labelled ``pool=<name>``), so allocator
dashboards cover both in-process and cross-process pools.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from multiprocessing import shared_memory
from typing import Deque, Dict, Sequence, Tuple

import numpy as np

from repro.analysis.runtime import make_lock
from repro.memory.pools import NUM_POOLS, PoolAccounting, _round_up_pow2

__all__ = [
    "BlockHandle",
    "AttachedBlock",
    "SharedMemoryPool",
    "attach_block",
]


@dataclass(frozen=True)
class BlockHandle:
    """Picklable identity of one pooled shared-memory chunk.

    ``size`` is the chunk's power-of-two byte size (``2**pool_index``),
    not the caller's request.
    """

    name: str
    size: int
    pool_index: int


class AttachedBlock:
    """A shared-memory chunk mapped into this process.

    Wraps the ``SharedMemory`` segment and exposes typed ndarray views
    over (a prefix of) its bytes.  The process that created the block
    (via :class:`SharedMemoryPool`) owns unlinking; attachers only ever
    ``close()``.
    """

    def __init__(self, shm: shared_memory.SharedMemory,
                 handle: BlockHandle, owner: bool) -> None:
        self.shm = shm
        self.handle = handle
        self.owner = owner
        self._closed = False

    def as_array(self, shape: int | Sequence[int],
                 dtype=np.float64) -> np.ndarray:
        """An ndarray view of *shape*/*dtype* over the chunk's prefix."""
        shape_t = (shape,) if isinstance(shape, int) else tuple(shape)
        dt = np.dtype(dtype)
        nbytes = int(np.prod(shape_t)) * dt.itemsize
        if nbytes > self.handle.size:
            raise ValueError(
                f"view of {nbytes} bytes exceeds block size "
                f"{self.handle.size}")
        return np.ndarray(shape_t, dtype=dt, buffer=self.shm.buf)

    def close(self) -> None:
        """Unmap the segment from this process (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self.shm.close()

    def unlink(self) -> None:
        """Remove the segment from the system (owner only)."""
        if not self.owner:
            raise RuntimeError("only the owning process may unlink")
        self.close()
        try:
            self.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already gone
            pass

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"AttachedBlock({self.handle.name!r}, "
                f"size={self.handle.size}, owner={self.owner})")


def attach_block(handle: BlockHandle) -> AttachedBlock:
    """Map an existing block (created by another process's pool) into
    this process.

    The spawned worker inherits the parent's resource tracker, so the
    attach needs no extra bookkeeping: the owner remains responsible
    for unlinking.
    """
    shm = shared_memory.SharedMemory(name=handle.name)
    return AttachedBlock(shm, handle, owner=False)


class SharedMemoryPool:
    """A 32-pool power-of-two allocator over shared-memory segments.

    The cross-process sibling of :class:`repro.memory.pools.PoolAllocator`:
    ``allocate``/``deallocate`` round to powers of two and recycle
    through per-size free lists.  Unlike the in-process allocator the
    pool tracks every segment it ever created so :meth:`close` can
    unlink them all — shared memory outlives processes, so "never
    return memory to the system" must end at pool shutdown.
    """

    def __init__(self, name: str = "shared") -> None:
        self.name = name
        # Free lists and segment registry are shared between the fleet
        # router's dispatcher and reader threads, so all structural
        # mutation happens under _lock (stats stay on their own lock;
        # the two are never nested).
        self._lock = make_lock(f"memory.shared_pool.{name}")
        self._pools: list[Deque[AttachedBlock]] = [
            deque() for _ in range(NUM_POOLS)]  # guarded-by: _lock
        self._all: Dict[str, AttachedBlock] = {}  # guarded-by: _lock
        self._closed = False  # guarded-by: _lock
        self._accounting = PoolAccounting(
            name, f"memory.shared_pool_stats.{name}")
        self.stats = self._accounting.stats

    # ------------------------------------------------------------------

    def allocate(self, nbytes: int) -> AttachedBlock:
        """Return a block with ``handle.size >= nbytes``, reusing a
        pooled segment when one of the right size class is free."""
        size, index = _round_up_pow2(nbytes)
        if index >= NUM_POOLS:
            raise MemoryError(
                f"request of {nbytes} bytes exceeds the largest pool "
                f"(2**{NUM_POOLS - 1})")
        with self._lock:
            if self._closed:
                raise RuntimeError(f"pool {self.name!r} is closed")
            try:
                block = self._pools[index].popleft()
                hit = True
            except IndexError:
                shm = shared_memory.SharedMemory(create=True, size=size)
                block = AttachedBlock(
                    shm, BlockHandle(shm.name, size, index), owner=True)
                self._all[shm.name] = block
                hit = False
        self._accounting.allocated(nbytes, size, hit)
        return block

    def deallocate(self, block: AttachedBlock) -> None:
        """Return *block* to its free list (never to the system)."""
        with self._lock:
            if self._closed:
                return  # close() already unlinked everything
            if block.handle.name not in self._all:
                raise ValueError(
                    f"block {block.handle.name!r} does not belong to "
                    f"pool {self.name!r}")
            self._pools[block.handle.pool_index].append(block)
        self._accounting.freed()

    def allocate_array(self, shape: int | Sequence[int],
                       dtype=np.float64) -> Tuple[AttachedBlock, np.ndarray]:
        """Allocate a block and return it with an ndarray view of
        *shape*/*dtype* over it."""
        shape_t = (shape,) if isinstance(shape, int) else tuple(shape)
        dt = np.dtype(dtype)
        nbytes = max(1, int(np.prod(shape_t)) * dt.itemsize)
        block = self.allocate(nbytes)
        return block, block.as_array(shape_t, dt)

    # ------------------------------------------------------------------

    def held_bytes(self) -> int:
        """Total shared-memory bytes obtained from the system."""
        return self.stats.bytes_from_system

    def pooled_chunks(self) -> list[int]:
        """Number of idle blocks per pool (diagnostics)."""
        with self._lock:
            return [len(p) for p in self._pools]

    def close(self) -> None:
        """Unlink every segment this pool ever created (idempotent).

        Outstanding views become invalid; callers must stop using
        arrays obtained from the pool before closing it.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
            blocks = list(self._all.values())
            self._all.clear()
            for pool in self._pools:
                pool.clear()
        for block in blocks:
            block.unlink()

    def __enter__(self) -> "SharedMemoryPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SharedMemoryPool(name={self.name!r}, "
                f"held={self.held_bytes()}, "
                f"segments={len(self._all)})")
