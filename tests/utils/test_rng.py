"""Seeded-RNG helper tests."""

import numpy as np

from repro.utils.rng import as_generator, kernel_init, spawn


class TestAsGenerator:
    def test_from_int(self):
        a = as_generator(7)
        b = as_generator(7)
        assert a.integers(0, 1000) == b.integers(0, 1000)

    def test_passthrough(self):
        g = np.random.default_rng(0)
        assert as_generator(g) is g

    def test_none_gives_fresh(self):
        a = as_generator(None)
        b = as_generator(None)
        # overwhelmingly likely to differ
        assert (a.integers(0, 2**31) != b.integers(0, 2**31)
                or a.integers(0, 2**31) != b.integers(0, 2**31))


class TestSpawn:
    def test_children_independent_and_deterministic(self):
        parents = [as_generator(3), as_generator(3)]
        kids_a = spawn(parents[0], 3)
        kids_b = spawn(parents[1], 3)
        for a, b in zip(kids_a, kids_b):
            assert a.integers(0, 10**9) == b.integers(0, 10**9)

    def test_children_differ_from_each_other(self):
        kids = spawn(as_generator(0), 4)
        draws = [k.integers(0, 2**31) for k in kids]
        assert len(set(draws)) > 1


class TestKernelInit:
    def test_shape_and_dtype(self):
        k = kernel_init(as_generator(0), (3, 3, 3))
        assert k.shape == (3, 3, 3) and k.dtype == np.float64

    def test_fan_in_scaling(self):
        rng = as_generator(0)
        small_fan = kernel_init(as_generator(1), (5, 5, 5), fan_in=10)
        big_fan = kernel_init(as_generator(1), (5, 5, 5), fan_in=1000)
        assert small_fan.std() > big_fan.std()

    def test_default_fan_in_is_kernel_size(self):
        a = kernel_init(as_generator(2), (4, 4, 4))
        b = kernel_init(as_generator(2), (4, 4, 4), fan_in=64)
        np.testing.assert_array_equal(a, b)

    def test_roughly_he_scaled(self):
        k = kernel_init(as_generator(3), (20, 20, 20), fan_in=800)
        expected_std = np.sqrt(2.0 / 800)
        assert 0.8 * expected_std < k.std() < 1.2 * expected_std
