"""Thread-local allocator tests (Section VII-C future work)."""

import threading

import pytest

from repro.memory import PoolAllocator, ThreadLocalAllocator


class TestLocalFastPath:
    def test_free_then_alloc_hits_local(self):
        alloc = ThreadLocalAllocator()
        a = alloc.allocate_array((8, 8, 8))
        alloc.deallocate_array(a)
        alloc.allocate_array((8, 8, 8))
        assert alloc.local_hits == 1
        # the shared pool never saw the chunk come back
        assert alloc.backing.stats.deallocations == 0

    def test_first_allocation_goes_global(self):
        alloc = ThreadLocalAllocator()
        alloc.allocate_array((4, 4, 4))
        assert alloc.global_requests == 1
        assert alloc.local_hits == 0

    def test_capacity_overflow_to_global(self):
        alloc = ThreadLocalAllocator(local_capacity=2)
        arrays = [alloc.allocate_array((4, 4, 4)) for _ in range(4)]
        for a in arrays:
            alloc.deallocate_array(a)
        # 2 kept locally, 2 overflowed
        assert alloc.backing.stats.deallocations == 2
        assert sum(alloc.local_chunks().values()) == 2

    def test_zero_capacity_degenerates_to_global(self):
        alloc = ThreadLocalAllocator(local_capacity=0)
        a = alloc.allocate_array((4, 4, 4))
        alloc.deallocate_array(a)
        alloc.allocate_array((4, 4, 4))
        assert alloc.local_hits == 0
        assert alloc.backing.stats.pool_hits == 1

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            ThreadLocalAllocator(local_capacity=-1)

    def test_custom_backing(self):
        backing = PoolAllocator(alignment=64)
        alloc = ThreadLocalAllocator(backing=backing)
        alloc.allocate_array((4, 4, 4))
        assert backing.stats.system_allocations == 1


class TestThreadIsolation:
    def test_each_thread_has_its_own_pool(self):
        alloc = ThreadLocalAllocator()
        a = alloc.allocate_array((8, 8, 8))
        alloc.deallocate_array(a)  # main thread's local pool now holds it

        results = {}

        def other():
            b = alloc.allocate_array((8, 8, 8))
            results["hits"] = alloc.local_hits
            alloc.deallocate_array(b)

        t = threading.Thread(target=other)
        t.start()
        t.join()
        # the other thread could NOT see the main thread's local chunk
        assert results["hits"] == 0
        # main thread's chunk is still there
        assert sum(alloc.local_chunks().values()) == 1

    def test_concurrent_usage_safe(self):
        alloc = ThreadLocalAllocator(local_capacity=8)
        errors = []

        def worker():
            try:
                for _ in range(100):
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
        assert alloc.local_hit_rate > 0.9


class TestArraySemantics:
    def test_array_usable(self):
        alloc = ThreadLocalAllocator()
        a = alloc.allocate_array((3, 3, 3))
        a[:] = 2.0
        assert a.sum() == 54.0

    def test_double_free_rejected(self):
        alloc = ThreadLocalAllocator()
        a = alloc.allocate_array((2, 2, 2))
        alloc.deallocate_array(a)
        with pytest.raises(ValueError):
            alloc.deallocate_array(a)

    def test_foreign_array_rejected(self):
        a1 = ThreadLocalAllocator()
        a2 = ThreadLocalAllocator()
        arr = a1.allocate_array((2, 2, 2))
        with pytest.raises(ValueError):
            a2.deallocate_array(arr)
