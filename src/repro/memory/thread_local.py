"""Thread-local memory pools — the Section VII-C future-work extension.

"In the future, we might consider implementing more advanced memory
allocators, such as ones with thread-local pools in addition to the
global pool."  This allocator gives each thread a private front-end of
bounded size per chunk class; allocation tries the local pool first
(no synchronisation at all), then falls back to a shared
:class:`repro.memory.PoolAllocator`.  Frees fill the local pool up to
``local_capacity`` chunks per size class and overflow to the global
pool, so memory still circulates between threads over time.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.runtime import make_lock
from repro.memory.pools import (
    NUM_POOLS,
    PoolAllocator,
    PooledArrays,
    _round_up_pow2,
)

__all__ = ["ThreadLocalAllocator"]


class ThreadLocalAllocator(PooledArrays):
    """Two-level allocator: per-thread front-end over a shared pool.

    Parameters
    ----------
    backing:
        The shared :class:`PoolAllocator` (created if omitted).
    local_capacity:
        Maximum idle chunks a thread keeps per size class before frees
        overflow to the shared pool.
    """

    def __init__(self, backing: Optional[PoolAllocator] = None,
                 local_capacity: int = 4) -> None:
        if local_capacity < 0:
            raise ValueError(
                f"local_capacity must be >= 0, got {local_capacity}")
        self.backing = backing if backing is not None else PoolAllocator(
            alignment=64, name="tl-backing")
        self.local_capacity = local_capacity
        self._tls = threading.local()
        self._stats_lock = make_lock("memory.tl_stats")
        self.local_hits = 0  # guarded-by: _stats_lock
        self.global_requests = 0  # guarded-by: _stats_lock

    def _local_pools(self) -> List[List[np.ndarray]]:
        pools = getattr(self._tls, "pools", None)
        if pools is None:
            pools = [[] for _ in range(NUM_POOLS)]
            self._tls.pools = pools
        return pools

    # ------------------------------------------------------------------

    def allocate(self, nbytes: int) -> Tuple[np.ndarray, int]:
        """Return (chunk, pool_index); the local pool is lock-free."""
        _, index = _round_up_pow2(nbytes)
        pools = self._local_pools()
        if index < NUM_POOLS and pools[index]:
            chunk = pools[index].pop()
            with self._stats_lock:
                self.local_hits += 1
            return chunk, index
        with self._stats_lock:
            self.global_requests += 1
        return self.backing.allocate(nbytes)

    def deallocate(self, chunk: np.ndarray, pool_index: int) -> None:
        """Free to the local pool; overflow to the shared pool."""
        pools = self._local_pools()
        if (0 <= pool_index < NUM_POOLS
                and len(pools[pool_index]) < self.local_capacity):
            if chunk.nbytes != (1 << pool_index):
                raise ValueError(
                    f"chunk of {chunk.nbytes} bytes does not belong to "
                    f"pool {pool_index}")
            pools[pool_index].append(chunk)
            return
        self.backing.deallocate(chunk, pool_index)

    # ------------------------------------------------------------------

    @property
    def local_hit_rate(self) -> float:
        with self._stats_lock:
            total = self.local_hits + self.global_requests
            return self.local_hits / total if total else 0.0

    def local_chunks(self) -> Dict[int, int]:
        """Idle chunk counts per class in *this thread's* pool."""
        return {i: len(p) for i, p in enumerate(self._local_pools()) if p}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ThreadLocalAllocator(capacity={self.local_capacity}, "
                f"local_hit_rate={self.local_hit_rate:.2f})")
