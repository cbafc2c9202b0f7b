"""Shape algebra tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.utils import shapes as sh


class TestAsShape3:
    def test_scalar_is_isotropic(self):
        assert sh.as_shape3(5) == (5, 5, 5)

    def test_three_tuple_passthrough(self):
        assert sh.as_shape3((2, 3, 4)) == (2, 3, 4)

    def test_two_tuple_promotes_leading_singleton(self):
        assert sh.as_shape3((7, 9)) == (1, 7, 9)

    def test_one_tuple_promotes_two_singletons(self):
        assert sh.as_shape3((7,)) == (1, 1, 7)

    def test_list_accepted(self):
        assert sh.as_shape3([2, 3, 4]) == (2, 3, 4)

    @pytest.mark.parametrize("bad", [0, -1, (1, 0, 1), (2, 3, -4)])
    def test_nonpositive_rejected(self, bad):
        with pytest.raises(ValueError):
            sh.as_shape3(bad)

    def test_four_dims_rejected(self):
        with pytest.raises(ValueError):
            sh.as_shape3((1, 2, 3, 4))


class TestEffectiveKernel:
    def test_dense_kernel_unchanged(self):
        assert sh.effective_kernel_shape(3, 1) == (3, 3, 3)

    def test_sparsity_dilates(self):
        # (k-1)*s + 1
        assert sh.effective_kernel_shape(3, 2) == (5, 5, 5)
        assert sh.effective_kernel_shape(3, 4) == (9, 9, 9)

    def test_anisotropic(self):
        assert sh.effective_kernel_shape((1, 3, 3), (1, 2, 4)) == (1, 5, 9)

    def test_kernel_of_one_ignores_sparsity(self):
        assert sh.effective_kernel_shape(1, 7) == (1, 1, 1)


class TestConvShapes:
    def test_valid_shrinks(self):
        assert sh.valid_conv_shape(10, 3) == (8, 8, 8)

    def test_valid_sparse(self):
        assert sh.valid_conv_shape(10, 3, 2) == (6, 6, 6)

    def test_full_grows(self):
        assert sh.full_conv_shape(10, 3) == (12, 12, 12)

    def test_full_inverts_valid(self):
        out = sh.valid_conv_shape((9, 11, 13), (2, 3, 4), (1, 2, 3))
        back = sh.full_conv_shape(out, (2, 3, 4), (1, 2, 3))
        assert back == (9, 11, 13)

    def test_too_small_raises(self):
        with pytest.raises(ValueError):
            sh.valid_conv_shape(4, 3, 2)

    @given(n=st.integers(3, 30), k=st.integers(1, 4), s=st.integers(1, 3))
    def test_valid_plus_effective_matches_input(self, n, k, s):
        eff = (k - 1) * s + 1
        if eff > n:
            return
        out = sh.valid_conv_shape(n, k, s)
        assert out == (n - eff + 1,) * 3


class TestPoolFilterShapes:
    def test_pool_divides(self):
        assert sh.pool_shape(8, 2) == (4, 4, 4)

    def test_pool_indivisible_raises(self):
        with pytest.raises(ValueError):
            sh.pool_shape(9, 2)

    def test_filter_like_valid_conv(self):
        """A max-filter edge shrinks its image like a valid convolution
        of the window (the graph's shape rule for the kind)."""
        from repro.graph import build_layered_network

        graph = build_layered_network("CM", width=1, kernel=1, window=3)
        graph.propagate_shapes((10, 10, 10))
        assert (graph.output_nodes[0].shape
                == sh.valid_conv_shape(10, 3) == (8, 8, 8))

    def test_filter_backward_restores(self):
        """The backward image of a sparse filter grows back to the
        input size: full is the inverse of valid."""
        out = sh.valid_conv_shape(10, 3, 2)
        assert sh.full_conv_shape(out, 3, 2) == (10, 10, 10)


class TestVoxels:
    def test_cube(self):
        assert sh.voxels(4) == 64

    def test_anisotropic(self):
        assert sh.voxels((1, 5, 7)) == 35


class TestFieldOfView:
    def test_single_conv(self):
        assert sh.field_of_view([("conv", 3, 1)]) == (3, 3, 3)

    def test_conv_pool_conv(self):
        # conv2, pool2, conv2: fov = ((1+1)*2 + 1) = 5
        fov = sh.field_of_view([("conv", 2, 1), ("pool", 2, 1),
                                ("conv", 2, 1)])
        assert fov == (5, 5, 5)

    def test_sparse_conv_fov_matches_pool_version(self):
        # Fig 2: pooled net fov == filter+sparse net fov
        pooled = sh.field_of_view([("conv", 2, 1), ("pool", 2, 1),
                                   ("conv", 2, 1)])
        filtered = sh.field_of_view([("conv", 2, 1), ("filter", 2, 1),
                                     ("conv", 2, 2)])
        assert pooled == filtered

    def test_unknown_kind_raises(self):
        with pytest.raises(ValueError):
            sh.field_of_view([("warp", 2, 1)])


class TestShapePropagation:
    LAYERS = [("conv", 3, 1), ("filter", 2, 1), ("conv", 3, 2)]

    @staticmethod
    def forward(n):
        """Output shape of the LAYERS network as the computation graph
        propagates it (the forward rules' real consumer)."""
        from repro.graph import build_layered_network

        graph = build_layered_network("CMC", width=1, kernel=3, window=2,
                                      skip_kernels=True)
        graph.propagate_shapes((n, n, n))
        return graph.output_nodes[0].shape

    def test_roundtrip(self):
        out = self.forward(20)
        back = sh.input_shape_for_output(out, self.LAYERS)
        assert back == (20, 20, 20)

    def test_transfer_is_identity(self):
        assert sh.input_shape_for_output(9, [("transfer", 1, 1)]) == (9, 9, 9)

    def test_pool_inverse_multiplies(self):
        assert sh.input_shape_for_output(3, [("pool", 2, 1)]) == (6, 6, 6)

    @given(n=st.integers(12, 40))
    def test_roundtrip_property(self, n):
        try:
            out = self.forward(n)
        except ValueError:
            return
        assert sh.input_shape_for_output(out, self.LAYERS) == (n, n, n)
