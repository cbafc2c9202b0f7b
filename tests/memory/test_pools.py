"""Pooled allocator tests (Section VII-C semantics)."""

import threading

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.memory import (
    PoolAllocator,
    image_allocator,
    reset_global_allocators,
)
from repro.memory.pools import _round_up_pow2


class TestRounding:
    @pytest.mark.parametrize("n,size,idx", [
        (1, 1, 0), (2, 2, 1), (3, 4, 2), (4, 4, 2), (5, 8, 3),
        (1023, 1024, 10), (1024, 1024, 10), (1025, 2048, 11),
    ])
    def test_round_up(self, n, size, idx):
        assert _round_up_pow2(n) == (size, idx)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            _round_up_pow2(0)


class TestAllocateDeallocate:
    def test_chunk_at_least_requested(self):
        alloc = PoolAllocator()
        chunk, idx = alloc.allocate(100)
        assert chunk.nbytes == 128 and idx == 7

    def test_reuse_after_free(self):
        alloc = PoolAllocator()
        chunk, idx = alloc.allocate(64)
        alloc.deallocate(chunk, idx)
        chunk2, _ = alloc.allocate(64)
        assert chunk2 is chunk
        assert alloc.stats.pool_hits == 1

    def test_never_returns_memory_to_system(self):
        alloc = PoolAllocator()
        held = []
        for _ in range(5):
            held.append(alloc.allocate(256))
        for chunk, idx in held:
            alloc.deallocate(chunk, idx)
        before = alloc.held_bytes()
        for _ in range(5):
            alloc.allocate(256)
        assert alloc.held_bytes() == before  # all served from pools

    def test_different_sizes_different_pools(self):
        alloc = PoolAllocator()
        c1, i1 = alloc.allocate(64)
        c2, i2 = alloc.allocate(4096)
        assert i1 != i2
        alloc.deallocate(c1, i1)
        alloc.deallocate(c2, i2)
        assert alloc.pooled_chunks()[i1] == 1
        assert alloc.pooled_chunks()[i2] == 1

    def test_deallocate_wrong_pool_rejected(self):
        alloc = PoolAllocator()
        chunk, idx = alloc.allocate(64)
        with pytest.raises(ValueError):
            alloc.deallocate(chunk, idx + 1)

    def test_huge_request_rejected(self):
        alloc = PoolAllocator()
        with pytest.raises(MemoryError):
            alloc.allocate(2 ** 40)

    def test_overhead_bounded_by_two(self):
        alloc = PoolAllocator()
        for n in (3, 5, 9, 17, 33, 100, 1000):
            alloc.allocate(n)
        assert alloc.stats.overhead_ratio < 2.0


class TestAlignment:
    @pytest.mark.parametrize("alignment", [1, 16, 64, 256])
    def test_chunks_aligned(self, alignment):
        alloc = PoolAllocator(alignment=alignment)
        for size in (8, 100, 5000):
            chunk, _ = alloc.allocate(size)
            assert chunk.ctypes.data % alignment == 0

    def test_bad_alignment_rejected(self):
        with pytest.raises(ValueError):
            PoolAllocator(alignment=48)


class TestArrays:
    def test_allocate_array_shape_dtype(self):
        alloc = PoolAllocator()
        a = alloc.allocate_array((3, 4, 5), dtype=np.float64)
        assert a.shape == (3, 4, 5) and a.dtype == np.float64

    def test_array_usable(self):
        alloc = PoolAllocator()
        a = alloc.allocate_array((4, 4, 4))
        a[:] = 7.0
        assert a.sum() == 7.0 * 64

    def test_array_roundtrip_reuses_chunk(self):
        alloc = PoolAllocator()
        a = alloc.allocate_array((8, 8, 8))
        alloc.deallocate_array(a)
        b = alloc.allocate_array((8, 8, 8))
        assert alloc.stats.pool_hits == 1
        assert b.shape == (8, 8, 8)

    def test_double_free_rejected(self):
        alloc = PoolAllocator()
        a = alloc.allocate_array((2, 2, 2))
        alloc.deallocate_array(a)
        with pytest.raises(ValueError):
            alloc.deallocate_array(a)

    def test_view_not_deallocatable(self):
        alloc = PoolAllocator()
        a = alloc.allocate_array((4, 4, 4))
        view = a[1:]
        with pytest.raises(ValueError):
            alloc.deallocate_array(view)

    def test_foreign_array_rejected(self):
        alloc1 = PoolAllocator()
        alloc2 = PoolAllocator()
        a = alloc1.allocate_array((2, 2, 2))
        with pytest.raises(ValueError):
            alloc2.deallocate_array(a)

    def test_training_like_trace_runs_out_of_the_pools(self):
        """Section VII-C on a round-shaped trace (allocate a round's
        images, free them, repeat): memory peaks after the first round,
        every later request is a pool hit, and the held bytes stay
        within the 2x power-of-two bound of the live ones."""
        shapes = [(24, 24, 24), (12, 12, 12), (24, 24, 24), (6, 6, 6)]
        alloc = PoolAllocator(alignment=64)
        peak = None
        for _ in range(50):
            live = [alloc.allocate_array(s) for s in shapes]
            for array in live:
                alloc.deallocate_array(array)
            peak = peak or alloc.held_bytes()
            assert alloc.held_bytes() == peak
        assert alloc.stats.hit_rate > 0.95
        assert peak <= 2 * sum(int(np.prod(s)) * 8 for s in shapes)

    def test_scalar_shape(self):
        alloc = PoolAllocator()
        a = alloc.allocate_array(10)
        assert a.shape == (10,)


class TestGlobalAllocators:
    def test_two_distinct_allocators(self):
        """A reset discards the global allocator: the next call builds
        a distinct one (with empty pools)."""
        first = image_allocator()
        reset_global_allocators()
        assert image_allocator() is not first
        assert image_allocator().stats.requests == 0

    def test_singletons(self):
        reset_global_allocators()
        assert image_allocator() is image_allocator()

    def test_image_allocator_simd_aligned(self):
        reset_global_allocators()
        assert image_allocator().alignment == 64


class TestThreadSafety:
    def test_concurrent_allocate_free(self):
        alloc = PoolAllocator()
        errors = []

        def worker():
            try:
                for _ in range(200):
                    a = alloc.allocate_array((4, 4, 4))
                    a[0, 0, 0] = 1.0
                    alloc.deallocate_array(a)
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert alloc.stats.deallocations == 800


@given(sizes=st.lists(st.integers(1, 10_000), min_size=1, max_size=40))
def test_property_alloc_free_alloc_never_grows(sizes):
    """After freeing everything, re-allocating the same sizes draws
    entirely from the pools (system bytes constant)."""
    alloc = PoolAllocator()
    held = [alloc.allocate(s) for s in sizes]
    for chunk, idx in held:
        alloc.deallocate(chunk, idx)
    baseline = alloc.held_bytes()
    for s in sizes:
        alloc.allocate(s)
    assert alloc.held_bytes() == baseline
