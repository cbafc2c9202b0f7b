"""Fig 8 / Fig 9 comparison-harness tests — the paper's qualitative
regimes must reproduce."""

import pytest

from repro import reporting
from repro.baselines import (
    FIG8_KERNELS,
    FIG9_KERNELS,
    fig8_comparison,
    fig9_comparison,
)


@pytest.fixture(scope="module")
def fig8():
    return fig8_comparison(outputs=(1, 8, 64))


@pytest.fixture(scope="module")
def fig9():
    return fig9_comparison()


class TestFig8Regimes:
    def test_row_inventory(self, fig8):
        assert len(fig8) == len(FIG8_KERNELS) * 3
        assert all(set(r.seconds) == {"znn", "caffe", "caffe-cudnn",
                                      "theano"} for r in fig8)

    def test_gpu_wins_small_kernels(self, fig8):
        """'Such large kernels are not generally used in practice, so
        ZNN may not be competitive' — at 10^2 the GPU wins."""
        for row in fig8:
            if row.kernel_size == 10:
                assert row.winner() != "znn"

    def test_znn_wins_kernels_30_and_up(self, fig8):
        """'ZNN is faster than Caffe and Theano for sufficiently large
        kernels (30x30 or larger).'"""
        for row in fig8:
            if row.kernel_size >= 30:
                assert row.winner() == "znn"

    def test_caffe_missing_bars_for_large_kernels(self, fig8):
        """'Where Caffe data is missing, it means that Caffe could not
        handle networks of the given size.'"""
        oom = [r for r in fig8 if r.seconds["caffe"] is None]
        assert oom and all(r.kernel_size >= 30 for r in oom)

    def test_znn_never_oom(self, fig8):
        """'A typical CPU system has much more RAM than even a top
        GPU' — ZNN always reports a time."""
        assert all(r.seconds["znn"] is not None for r in fig8)

    def test_seconds_scale_with_output(self, fig8):
        for k in FIG8_KERNELS:
            rows = {r.output_size: r for r in fig8 if r.kernel_size == k}
            assert rows[64].seconds["znn"] > rows[1].seconds["znn"]

    def test_every_system_slows_with_output_patch(self, fig8):
        for system in ("znn", "caffe", "caffe-cudnn", "theano"):
            for k in FIG8_KERNELS:
                series = [r.seconds[system] for r in fig8
                          if r.kernel_size == k
                          and r.seconds[system] is not None]
                assert series == sorted(series)

    def test_caffe_and_theano_oom_exactly_from_30(self, fig8):
        """The missing bars: plain Caffe and Theano run out of Titan X
        memory at every 30^2 and 40^2 point and at none below."""
        for row in fig8:
            for system in ("caffe", "theano"):
                assert (row.seconds[system] is None) \
                    == (row.kernel_size >= 30)


class TestFig9Regimes:
    def test_row_inventory(self, fig9):
        assert len(fig9) == len(FIG9_KERNELS) * 5
        assert all(set(r.seconds) == {"znn", "theano"} for r in fig9)

    def test_theano_competitive_small_kernels(self, fig9):
        """Theano holds its own at 3^3."""
        for row in fig9:
            if row.kernel_size == 3:
                assert row.winner() == "theano"

    def test_comparable_at_5(self, fig9):
        """'ZNN is comparable to Theano even for modest kernel sizes of
        5x5x5' — within a factor of 2 either way."""
        for row in fig9:
            if row.kernel_size == 5 and row.seconds["theano"] is not None:
                ratio = row.seconds["znn"] / row.seconds["theano"]
                assert 0.5 < ratio < 2.0

    def test_znn_wins_at_7(self, fig9):
        """'...outperforms Theano for kernel sizes of 7x7x7 and
        greater.'"""
        for row in fig9:
            if row.kernel_size == 7:
                assert row.winner() == "znn"

    def test_theano_oom_at_large_output_k7(self, fig9):
        """Theano's 12 GB limit bites within the 7^3 sweep."""
        k7 = [r for r in fig9 if r.kernel_size == 7]
        assert any(r.seconds["theano"] is None for r in k7)


class TestFormatting:
    def test_format_contains_oom_and_winner(self):
        text = reporting.render_table(
            "Fig 8", *reporting.figure8(outputs=(1, 8, 64)))
        assert "OOM" in text
        assert "znn" in text
        assert "kernel" in text.splitlines()[1]
