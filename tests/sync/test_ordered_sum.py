"""OrderedSum (deterministic accumulation) tests."""

import threading

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sync import OrderedSum, reduce_in_order


class TestBasics:
    def test_in_order_reduction(self, rng):
        s = OrderedSum(3)
        arrays = [rng.standard_normal((3, 3, 3)) for _ in range(3)]
        assert not s.add(arrays[2], 2)
        assert not s.add(arrays[0], 0)
        assert s.add(arrays[1], 1)
        expected = arrays[0] + arrays[1] + arrays[2]
        np.testing.assert_array_equal(s.get(), expected)  # bitwise

    def test_arrival_order_irrelevant(self, rng):
        arrays = [rng.standard_normal((4, 4, 4)) for _ in range(4)]
        results = []
        for order in ([0, 1, 2, 3], [3, 2, 1, 0], [2, 0, 3, 1]):
            s = OrderedSum(4)
            for i in order:
                s.add(arrays[i], i)
            results.append(s.get())
        np.testing.assert_array_equal(results[0], results[1])
        np.testing.assert_array_equal(results[0], results[2])

    def test_missing_index_rejected(self, rng):
        s = OrderedSum(2)
        with pytest.raises(ValueError):
            s.add(rng.standard_normal((2, 2, 2)))

    def test_index_out_of_range(self, rng):
        s = OrderedSum(2)
        with pytest.raises(ValueError):
            s.add(rng.standard_normal((2, 2, 2)), 2)

    def test_duplicate_slot_rejected(self, rng):
        s = OrderedSum(2)
        s.add(rng.standard_normal((2, 2, 2)), 0)
        with pytest.raises(RuntimeError):
            s.add(rng.standard_normal((2, 2, 2)), 0)

    def test_get_before_complete(self, rng):
        s = OrderedSum(2)
        s.add(rng.standard_normal((2, 2, 2)), 0)
        with pytest.raises(RuntimeError):
            s.get()

    def test_reset_reuse(self, rng):
        s = OrderedSum(2)
        s.add(np.ones((2, 2, 2)), 0)
        s.add(np.ones((2, 2, 2)), 1)
        s.reset()
        a, b = rng.standard_normal((2, 2, 2)), rng.standard_normal((2, 2, 2))
        s.add(b, 1)
        s.add(a, 0)
        np.testing.assert_array_equal(s.get(), a + b)

    def test_threaded_matches_serial_bitwise(self, rng):
        arrays = [rng.standard_normal((8, 8, 8)) for _ in range(6)]
        serial = OrderedSum(6)
        for i, a in enumerate(arrays):
            serial.add(a.copy(), i)

        threaded = OrderedSum(6)
        barrier = threading.Barrier(6)

        def worker(i):
            barrier.wait()
            threaded.add(arrays[i].copy(), i)

        ts = [threading.Thread(target=worker, args=(i,)) for i in range(6)]
        for t in ts:
            t.start()
        for t in ts:
            t.join()
        np.testing.assert_array_equal(serial.get(), threaded.get())


@st.composite
def contributions_in_arrival_order(draw):
    """1-7 same-shaped contributions, real or complex, and the order in
    which they arrive."""
    count = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 16)))
    shape = (draw(st.integers(1, 3)), 2, draw(st.integers(1, 4)))
    arrays = [rng.standard_normal(shape) for _ in range(count)]
    if draw(st.booleans()):
        arrays = [a + 1j * rng.standard_normal(shape) for a in arrays]
    return arrays, draw(st.permutations(range(count)))


class TestInPlace:
    @given(contributions_in_arrival_order())
    def test_same_bits_as_reduce_in_order_in_any_arrival_order(self, case):
        arrays, order = case
        before = [a.copy() for a in arrays]
        s = OrderedSum(len(arrays))
        done = [s.add(arrays[i], i) for i in order]
        assert done == [False] * (len(arrays) - 1) + [True]
        assert s.get().tobytes() == reduce_in_order(before).tobytes()
        for a, b in zip(arrays, before):  # no contribution is mutated
            assert a.tobytes() == b.tobytes()

    def test_holds_only_what_is_not_yet_added(self, rng):
        s = OrderedSum(3)
        late = rng.standard_normal((2, 2, 2))
        s.add(late, 2)
        s.add(rng.standard_normal((2, 2, 2)), 0)
        assert s._slots == [None, None, late]
        s.add(rng.standard_normal((2, 2, 2)), 1)
        assert s._slots == [None, None, None]

    def test_threads_add_in_order_under_a_short_switch_interval(self, rng):
        """8 threads on 2 cores, 50 rounds: one True per round and the
        in-order bits, whichever thread ends up doing the adding."""
        import sys

        arrays = [rng.standard_normal((4, 4, 4)) for _ in range(8)]
        expected = reduce_in_order(arrays).tobytes()
        s = OrderedSum(8)
        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(50):
                s.reset()
                barrier, done = threading.Barrier(8), []

                def worker(i):
                    barrier.wait()
                    done.append(s.add(arrays[i], i))

                threads = [threading.Thread(target=worker, args=(i,))
                           for i in range(8)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=10)
                assert not any(t.is_alive() for t in threads)
                assert sorted(done) == [False] * 7 + [True]
                assert s.get().tobytes() == expected
        finally:
            sys.setswitchinterval(previous)

    def test_accumulator_comes_from_alloc(self, rng):
        made = []

        def alloc(shape, dtype):
            made.append(np.empty(shape, dtype))
            return made[-1]

        s = OrderedSum(2)
        s.add(rng.standard_normal((2, 2, 2)), 1, alloc)
        s.add(rng.standard_normal((2, 2, 2)), 0, alloc)
        assert len(made) == 1 and s.get() is made[0]

    def test_next_round_completes_after_an_add_raised(self, rng):
        """An add whose alloc raises leaves the adding thread's flag
        set; the reset between rounds clears it."""
        def failing(shape, dtype):
            raise MemoryError("alloc")

        arrays = [rng.standard_normal((2, 2, 2)) for _ in range(3)]
        s = OrderedSum(3)
        s.add(arrays[2], 2)
        s.add(arrays[1], 1)
        with pytest.raises(MemoryError):
            s.add(arrays[0], 0, failing)
        s.reset()
        assert [s.add(arrays[i], i) for i in (1, 2, 0)] == [False] * 2 + [
            True]
        assert s.get().tobytes() == reduce_in_order(arrays).tobytes()


class TestNetworkDeterminism:
    def test_bitwise_identical_across_worker_counts(self, rng):
        """The headline property: a default network sums in edge order,
        so full FFT-mode training is bitwise reproducible regardless of
        thread count.  At width 12 the serial cascade's arrival order
        differs from edge order (``L1_10`` arrives before ``L1_2``)."""
        from repro.core import Network, SGD
        from repro.graph import build_layered_network

        x = rng.standard_normal((12, 12, 12))

        def run(width, workers):
            graph = build_layered_network("CTMCT", width=width, kernel=2,
                                          window=2, transfer="tanh")
            net = Network(graph, input_shape=(12, 12, 12), seed=5,
                          num_workers=workers, conv_mode="fft",
                          optimizer=SGD(learning_rate=0.01))
            targets = {n.name: np.zeros(n.shape)
                       for n in net.output_nodes}
            losses = [net.train_step(x, targets) for _ in range(3)]
            net.synchronize()
            kernels = net.kernels()
            net.close()
            return losses, kernels

        for width in (4, 12):
            losses1, kernels1 = run(width, 1)
            for workers in (2, 4):
                losses, kernels = run(width, workers)
                assert losses == losses1, (width, workers)  # float-exact
                for k in kernels1:
                    np.testing.assert_array_equal(kernels[k], kernels1[k])

    def test_deterministic_matches_waitfree_approximately(self, rng):
        """Algorithm 4's arrival-order sum and the edge-order sum agree
        to round-off on the same contributions."""
        from repro.sync import ConcurrentSum

        arrays = [rng.standard_normal((6, 6, 6)) for _ in range(8)]
        arrival = rng.permutation(len(arrays))
        ordered, waitfree = OrderedSum(8), ConcurrentSum(8)
        for i in arrival:
            ordered.add(arrays[i], int(i))
            waitfree.add(arrays[i].copy(), int(i))
        assert ordered.get().tobytes() == reduce_in_order(arrays).tobytes()
        np.testing.assert_allclose(waitfree.get(), ordered.get(),
                                   atol=1e-12)


def test_reduce_in_order_is_strictly_sequential():
    # Left-to-right float addition is not associative; the helper must
    # commit to the ((s0 + s1) + s2) ... ordering exactly.
    slots = [np.array([1e16]), np.array([1.0]), np.array([1.0]),
             np.array([-1e16])]
    expected = ((slots[0] + slots[1]) + slots[2]) + slots[3]
    assert np.array_equal(reduce_in_order(slots), expected)
    # and that this differs from another grouping, so the test means
    # something on this machine:
    other = (slots[0] + (slots[1] + slots[2])) + slots[3]
    assert not np.array_equal(expected, other)
