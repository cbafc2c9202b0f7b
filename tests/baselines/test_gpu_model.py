"""GPU baseline model tests (Fig 8/9 machinery)."""

import pytest

from repro.baselines import (
    GPU_FRAMEWORKS,
    ConvLayerShape,
    comparison_layers,
    gpu_fits_in_memory,
    gpu_memory_bytes,
    gpu_seconds_per_update,
    znn_seconds_per_update,
)


class TestComparisonLayers:
    def test_six_conv_layers(self):
        layers = comparison_layers(2, 10, 8)
        assert len(layers) == 6

    def test_widths(self):
        layers = comparison_layers(2, 10, 8, width=40)
        assert layers[0].f_in == 1 and layers[0].f_out == 40
        assert all(l.f_in == 40 and l.f_out == 40 for l in layers[1:])

    def test_2d_shapes_have_singleton_axis(self):
        layers = comparison_layers(2, 10, 8)
        assert all(l.input_shape[0] == 1 for l in layers)

    def test_output_grows_with_patch(self):
        small = comparison_layers(3, 3, 1)
        large = comparison_layers(3, 3, 8)
        assert large[0].input_shape[0] > small[0].input_shape[0]

    def test_final_layer_output_matches_patch(self):
        layers = comparison_layers(3, 3, 4)
        assert layers[-1].output_shape == (4, 4, 4)

    def test_pooling_halves_resolution(self):
        layers = comparison_layers(3, 3, 4)
        # layer 2's input is pooled relative to layer 1's output
        assert layers[1].input_shape[0] == layers[0].output_shape[0] // 2

    def test_invalid_dims(self):
        with pytest.raises(ValueError):
            comparison_layers(4, 3, 4)


class TestGpuTimeModel:
    def test_seconds_increase_with_kernel(self):
        fw = GPU_FRAMEWORKS["theano"]
        t10 = gpu_seconds_per_update(fw, comparison_layers(2, 10, 8))
        t40 = gpu_seconds_per_update(fw, comparison_layers(2, 40, 8))
        assert t40 > t10

    def test_seconds_increase_with_output(self):
        fw = GPU_FRAMEWORKS["caffe-cudnn"]
        t1 = gpu_seconds_per_update(fw, comparison_layers(2, 20, 1))
        t64 = gpu_seconds_per_update(fw, comparison_layers(2, 20, 64))
        assert t64 > t1

    def test_cudnn_faster_than_plain_caffe(self):
        layers = comparison_layers(2, 10, 8)
        assert (gpu_seconds_per_update(GPU_FRAMEWORKS["caffe-cudnn"], layers)
                < gpu_seconds_per_update(GPU_FRAMEWORKS["caffe"], layers))

    def test_macs_formula(self):
        layer = ConvLayerShape(f_in=2, f_out=3, input_shape=(1, 10, 10),
                               output_shape=(1, 6, 6),
                               kernel_shape=(1, 5, 5))
        assert layer.macs_per_pass == 2 * 3 * 36 * 25


class TestGpuMemoryModel:
    def test_memory_grows_with_kernel(self):
        fw = GPU_FRAMEWORKS["caffe"]
        m10 = gpu_memory_bytes(fw, comparison_layers(2, 10, 8))
        m40 = gpu_memory_bytes(fw, comparison_layers(2, 40, 8))
        assert m40 > m10

    def test_caffe_oom_at_kernel_30(self):
        """Fig 8's missing Caffe bars for kernels >= 30^2."""
        fw = GPU_FRAMEWORKS["caffe"]
        assert gpu_fits_in_memory(fw, comparison_layers(2, 10, 8))
        assert not gpu_fits_in_memory(fw, comparison_layers(2, 30, 8))

    def test_cudnn_fits_everywhere_in_fig8(self):
        fw = GPU_FRAMEWORKS["caffe-cudnn"]
        for k in (10, 20, 30, 40):
            assert gpu_fits_in_memory(fw, comparison_layers(2, k, 64))

    def test_theano_3d_oom_beyond_7(self):
        """'We were unable to use Theano to train 3D networks with
        kernel sizes larger than 7x7x7.'"""
        fw = GPU_FRAMEWORKS["theano-3d"]
        assert gpu_fits_in_memory(fw, comparison_layers(3, 7, 1))
        assert not gpu_fits_in_memory(fw, comparison_layers(3, 9, 1))

    def test_custom_capacity(self):
        fw = GPU_FRAMEWORKS["caffe"]
        layers = comparison_layers(2, 10, 8)
        assert not gpu_fits_in_memory(fw, layers, capacity=1024)


class TestZnnModel:
    def test_fft_memoized_cheapest(self):
        layers = comparison_layers(3, 5, 4)
        memo = znn_seconds_per_update(layers, mode="fft-memo")
        plain = znn_seconds_per_update(layers, mode="fft")
        assert memo < plain

    def test_direct_mode_scales_with_kernel(self):
        t3 = znn_seconds_per_update(comparison_layers(3, 3, 4),
                                    mode="direct")
        t7 = znn_seconds_per_update(comparison_layers(3, 7, 4),
                                    mode="direct")
        assert t7 > 5 * t3

    def test_fft_mode_grows_slower_with_kernel_than_direct(self):
        """FFT cost depends on the kernel only through the enlarged
        field of view (image size), not through k^3 taps — the source
        of ZNN's large-kernel advantage."""
        fft_ratio = (znn_seconds_per_update(comparison_layers(3, 7, 4))
                     / znn_seconds_per_update(comparison_layers(3, 3, 4)))
        direct_ratio = (znn_seconds_per_update(comparison_layers(3, 7, 4),
                                               mode="direct")
                        / znn_seconds_per_update(comparison_layers(3, 3, 4),
                                                 mode="direct"))
        assert fft_ratio < direct_ratio

    def test_bigger_machine_faster(self):
        layers = comparison_layers(2, 20, 8)
        assert (znn_seconds_per_update(layers, machine="xeon-40")
                < znn_seconds_per_update(layers, machine="xeon-8"))
