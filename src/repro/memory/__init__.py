"""Memory substrate: pooled power-of-two allocators (Section VII-C),
in-process and cross-process."""

from repro.memory.pools import (
    AllocatorStats,
    PoolAllocator,
    PooledArray,
    image_allocator,
    reset_global_allocators,
)
from repro.memory.shared_pool import (
    AttachedBlock,
    BlockHandle,
    SharedMemoryPool,
    attach_block,
)
from repro.memory.thread_local import ThreadLocalAllocator

__all__ = [
    "AllocatorStats",
    "AttachedBlock",
    "BlockHandle",
    "PoolAllocator",
    "PooledArray",
    "SharedMemoryPool",
    "attach_block",
    "image_allocator",
    "reset_global_allocators",
    "ThreadLocalAllocator",
]
