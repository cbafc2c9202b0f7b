"""Brent bound and Fig 4 tests."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import reporting
from repro.pram import (
    FIG4_DEPTHS,
    FIG4_PROCESSORS,
    achievable_speedup,
    achievable_speedup_curve,
    brent_speedup_bound,
    brent_time_bound,
    layered_network_times,
)


class TestBrentBound:
    def test_time_bound_formula(self):
        assert brent_time_bound(100.0, 10.0, 10) == pytest.approx(19.0)

    def test_one_processor_is_serial(self):
        assert brent_time_bound(100.0, 10.0, 1) == pytest.approx(100.0)

    def test_infinite_processors_approach_tinf(self):
        assert brent_time_bound(100.0, 10.0, 10**9) == pytest.approx(
            10.0, rel=1e-6)

    def test_speedup_bound_eq2(self):
        s_inf = 100.0 / 10.0
        expected = s_inf / (1 + (s_inf - 1) / 4)
        assert brent_speedup_bound(100.0, 10.0, 4) == pytest.approx(expected)

    def test_speedup_never_exceeds_p(self):
        for p in (1, 2, 8, 64):
            assert brent_speedup_bound(1e9, 1.0, p) <= p + 1e-9

    def test_speedup_never_exceeds_sinf(self):
        assert brent_speedup_bound(100.0, 50.0, 1000) <= 2.0 + 1e-9

    def test_tinf_above_t1_rejected(self):
        with pytest.raises(ValueError):
            brent_time_bound(1.0, 2.0, 4)

    @given(t1=st.floats(10, 1e6), ratio=st.floats(0.001, 1.0),
           p=st.integers(1, 256))
    def test_property_bound_sandwiched(self, t1, ratio, p):
        tinf = t1 * ratio
        s = brent_speedup_bound(t1, tinf, p)
        assert 0 < s <= min(p, t1 / tinf) + 1e-6


class TestNetworkTimes:
    def test_t1_scales_quadratically_with_width(self):
        """T1 ~ f^2 for large f (Section V-A)."""
        a = layered_network_times(20, 4).t1
        b = layered_network_times(40, 4).t1
        assert 3.0 < b / a < 4.5

    def test_tinf_scales_logarithmically_with_width(self):
        a = layered_network_times(16, 4).tinf
        b = layered_network_times(64, 4).tinf
        assert b / a < 1.5  # log-factor only

    def test_sinf_diverges_with_width(self):
        widths = [4, 16, 64]
        sinfs = [layered_network_times(w, 4).s_inf for w in widths]
        assert sinfs[0] < sinfs[1] < sinfs[2]

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            layered_network_times(0, 4)


class TestFig4:
    def test_speedup_increases_with_width(self):
        curve = achievable_speedup_curve(18, widths=[2, 10, 40, 120])
        assert curve == sorted(curve)

    def test_wide_networks_reach_p(self):
        for mode in ("direct", "fft-memo"):  # panels (a) and (b)
            for p in FIG4_PROCESSORS:
                s = achievable_speedup(p, 120, 8, mode=mode)
                assert s > 0.9 * p

    def test_narrow_networks_far_from_p(self):
        s = achievable_speedup(120, 2, 8)
        assert s < 0.5 * 120

    def test_width_at_75pct_grows_with_p(self):
        """'The network width at which S_P reaches a fixed fraction of
        its maximal value increases with P' (Section V-A)."""
        def width_at_75(p, mode):
            for w in range(1, 400):
                if achievable_speedup(p, w, 8, mode=mode) >= 0.75 * p:
                    return w
            return 400

        for mode in ("direct", "fft-memo"):
            assert (width_at_75(8, mode) < width_at_75(40, mode)
                    < width_at_75(120, mode))

    def test_fft_memo_mode_curve(self):
        curve = achievable_speedup_curve(60, widths=[5, 60, 120],
                                         mode="fft-memo")
        assert curve == sorted(curve)
        assert curve[-1] <= 60 + 1e-9

    def test_fig4_series_structure(self):
        """The full figure: one line per (P, depth), one point per
        width."""
        header, rows = reporting.figure4(widths=[5, 20], full=True)
        assert header == ["P", "w=5", "w=20"]
        assert [row[0] for row in rows] == [
            f"{p} d={d}" for p in FIG4_PROCESSORS for d in FIG4_DEPTHS]
        assert all(len(row) == 3 for row in rows)

    def test_depth_weakly_affects_speedup(self):
        """Fig 4: 'Multiple lines of the same color' (depths 4-40) sit
        close together."""
        shallow = achievable_speedup(40, 60, 4)
        deep = achievable_speedup(40, 60, 40)
        assert abs(shallow - deep) / shallow < 0.2
