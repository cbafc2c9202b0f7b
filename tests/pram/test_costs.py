"""Cost-formula tests — Tables I, II, III, IV verified symbolically
and against operation counts."""

import math

import pytest

from repro.pram import (
    DEFAULT_FFT_CONSTANT,
    conv_layer_costs_direct,
    conv_layer_costs_fft,
    conv_layer_tinf,
    direct_conv_task_cost,
    fft_cost,
    filter_task_cost,
    filtering_layer_costs,
    nonconv_layer_tinf,
    pointwise_product_cost,
    pooling_layer_costs,
    transfer_layer_costs,
)


class TestTaskCosts:
    def test_direct_conv_nk(self):
        # n' = 10 - 3 + 1 = 8 -> 8^3 * 3^3
        assert direct_conv_task_cost(10, 3) == 8 ** 3 * 27

    def test_direct_conv_sparse(self):
        # effective 5 -> n' = 6, taps still 3^3
        assert direct_conv_task_cost(10, 3, 2) == 6 ** 3 * 27

    def test_fft_cost_formula(self):
        n = 8 ** 3
        assert fft_cost(8) == pytest.approx(
            DEFAULT_FFT_CONSTANT * n * math.log2(n))

    def test_fft_cost_custom_constant(self):
        assert fft_cost(8, constant=1.0) == pytest.approx(
            8 ** 3 * math.log2(8 ** 3))

    def test_pointwise_product_4n(self):
        assert pointwise_product_cost(8) == 4 * 512

    def test_filter_cost_6nlogk(self):
        # Table I: 6 n^3 log k
        assert filter_task_cost(8, 4) == pytest.approx(6 * 512 * 2)

    def test_filter_backward_n3(self):
        assert filter_task_cost(8, 4, backward=True) == 512


class TestTableI:
    """Table I rows for a layer of f nodes on n^3 images."""

    def test_pooling_row(self):
        costs = pooling_layer_costs(4, 8)
        assert costs.forward == 4 * 512
        assert costs.backward == 4 * 512
        assert costs.update == 0.0

    def test_filtering_row(self):
        costs = filtering_layer_costs(4, 8, 4)
        assert costs.forward == pytest.approx(4 * 6 * 512 * 2)
        assert costs.backward == 4 * 512
        assert costs.update == 0.0

    def test_transfer_row(self):
        costs = transfer_layer_costs(4, 8)
        assert costs.forward == costs.backward == costs.update == 4 * 512

    @pytest.mark.parametrize("window", [2, 4, 8])
    def test_filtering_forward_is_6_log2_k_poolings(self, window):
        """Table I's structure: the filtering forward carries the
        6 log2 k factor over pooling's n^3; the backwards are all n^3."""
        pool = pooling_layer_costs(4, 32)
        filt = filtering_layer_costs(4, 32, window)
        assert filt.forward == pytest.approx(
            6 * math.log2(window) * pool.forward)
        assert filt.backward == pool.backward \
            == transfer_layer_costs(4, 32).backward


class TestTableII:
    """Table II: f -> f' fully connected conv layer."""

    def test_direct_every_pass_ffnk(self):
        costs = conv_layer_costs_direct(3, 5, 10, 3)
        per_pass = 3 * 5 * 8 ** 3 * 27
        assert costs.forward == costs.backward == costs.update == per_pass
        assert costs.total == 3 * per_pass

    def test_fft_forward_term(self):
        f, fp, n = 3, 5, 8
        costs = conv_layer_costs_fft(f, fp, n, memoized=True)
        one = fft_cost(n)
        expected = one * (f + fp + f * fp) + 4 * n ** 3 * f * fp
        assert costs.forward == pytest.approx(expected)

    def test_memoized_backward_drops_kernel_ffts(self):
        f, fp, n = 3, 5, 8
        memo = conv_layer_costs_fft(f, fp, n, memoized=True)
        plain = conv_layer_costs_fft(f, fp, n, memoized=False)
        one = fft_cost(n)
        assert plain.backward - memo.backward == pytest.approx(one * f * fp)

    def test_memoized_total_is_two_thirds_of_fft_terms(self):
        """9C -> 6C: memoization removes one third of the FFT work."""
        f, fp, n = 4, 4, 8
        memo = conv_layer_costs_fft(f, fp, n, memoized=True)
        plain = conv_layer_costs_fft(f, fp, n, memoized=False)
        one = fft_cost(n)
        fft_terms_plain = 3 * (f + fp + f * fp)   # 9C... / 3C per pass
        fft_terms_memo = 2 * (f + fp + f * fp)
        assert (plain.total - memo.total) == pytest.approx(
            one * (fft_terms_plain - fft_terms_memo))

    def test_fft_beats_direct_for_large_kernels(self):
        direct = conv_layer_costs_direct(8, 8, 32, 9).total
        fft = conv_layer_costs_fft(8, 8, 32).total
        assert fft < direct

    def test_direct_beats_fft_for_tiny_kernels(self):
        direct = conv_layer_costs_direct(1, 1, 32, 1).total
        fft = conv_layer_costs_fft(1, 1, 32).total
        assert direct < fft

    def test_direct_over_fft_ratio_grows_with_kernel(self):
        fft = conv_layer_costs_fft(1, 1, 24).total
        ratios = [conv_layer_costs_direct(1, 1, 24, k).total / fft
                  for k in (3, 5, 7)]
        assert ratios == sorted(ratios) and ratios[0] < ratios[-1]


class TestTablesIIIandIV:
    def test_direct_tinf_has_log_width_term(self):
        """T_inf grows by ceil(log2 f) image additions (binary collapse)."""
        narrow = conv_layer_tinf(2, 2, 10, 3, mode="direct")
        wide = conv_layer_tinf(16, 16, 10, 3, mode="direct")
        out3 = (10 - 3 + 1) ** 3
        assert wide.forward - narrow.forward == pytest.approx(
            out3 * (4 - 1))  # log2 16 - log2 2

    def test_update_tinf_width_independent(self):
        a = conv_layer_tinf(2, 2, 10, 3, mode="direct").update
        b = conv_layer_tinf(64, 64, 10, 3, mode="direct").update
        assert a == b

    def test_fft_memo_update_single_inverse(self):
        t = conv_layer_tinf(4, 4, 8, 3, mode="fft-memo")
        assert t.update == pytest.approx(fft_cost(8) + 4 * 512)

    def test_fft_update_two_transforms(self):
        t = conv_layer_tinf(4, 4, 8, 3, mode="fft")
        assert t.update == pytest.approx(2 * fft_cost(8) + 4 * 512)

    def test_nonconv_rows(self):
        n3 = 512
        pool = nonconv_layer_tinf("pool", 8)
        assert (pool.forward, pool.backward, pool.update) == (n3, n3, 0.0)
        filt = nonconv_layer_tinf("filter", 8, 4)
        assert filt.forward == pytest.approx(6 * n3 * 2)
        xfer = nonconv_layer_tinf("transfer", 8)
        assert xfer.update == n3

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            nonconv_layer_tinf("warp", 8)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            conv_layer_tinf(2, 2, 8, 3, mode="winograd")

    def test_tinf_below_t1(self):
        """Sanity: the infinite-processor time never exceeds the
        serial work."""
        for mode in ("direct", "fft", "fft-memo"):
            t1 = (conv_layer_costs_direct(8, 8, 16, 3).total
                  if mode == "direct"
                  else conv_layer_costs_fft(8, 8, 16,
                                            memoized=(mode == "fft-memo")
                                            ).total)
            tinf = conv_layer_tinf(8, 8, 16, 3, mode=mode)
            assert tinf.forward + tinf.backward + tinf.update < t1
