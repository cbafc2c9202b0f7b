"""Memory substrate: pooled power-of-two allocators (Section VII-C)."""

from repro.memory.pools import (
    AllocatorStats,
    PoolAllocator,
    PooledArray,
    image_allocator,
    reset_global_allocators,
)
from repro.memory.thread_local import ThreadLocalAllocator

__all__ = [
    "AllocatorStats",
    "PoolAllocator",
    "PooledArray",
    "image_allocator",
    "reset_global_allocators",
    "ThreadLocalAllocator",
]
