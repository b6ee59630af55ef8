"""Tests for ACF/PACF/Ljung-Box diagnostics."""

import numpy as np
import pytest

from repro.timeseries.acf import acf, ljung_box, pacf


def ar1(phi: float, n: int = 4000, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    y = np.zeros(n)
    for t in range(1, n):
        y[t] = phi * y[t - 1] + rng.normal()
    return y


class TestAcf:
    def test_lag_zero_is_one(self):
        assert acf(np.random.default_rng(0).normal(size=100), 5)[0] == 1.0

    def test_white_noise_near_zero(self):
        r = acf(np.random.default_rng(1).normal(size=5000), 5)
        assert np.all(np.abs(r[1:]) < 0.05)

    def test_ar1_geometric_decay(self):
        r = acf(ar1(0.7), 3)
        assert r[1] == pytest.approx(0.7, abs=0.05)
        assert r[2] == pytest.approx(0.49, abs=0.06)

    def test_constant_series(self):
        r = acf(np.ones(50), 4)
        assert r[0] == 1.0
        assert np.all(r[1:] == 0.0)

    def test_nlags_clipped(self):
        r = acf([1.0, 2.0, 3.0], 10)
        assert r.size == 3  # lags 0..2

    def test_too_short_raises(self):
        with pytest.raises(ValueError):
            acf([1.0], 1)
        with pytest.raises(ValueError):
            acf([1.0, 2.0], -1)


class TestPacf:
    def test_ar1_cuts_off_after_lag_one(self):
        p = pacf(ar1(0.7), 4)
        assert p[1] == pytest.approx(0.7, abs=0.05)
        assert abs(p[2]) < 0.06
        assert abs(p[3]) < 0.06

    def test_ar2_cuts_off_after_lag_two(self):
        rng = np.random.default_rng(2)
        n = 6000
        y = np.zeros(n)
        for t in range(2, n):
            y[t] = 0.5 * y[t - 1] + 0.3 * y[t - 2] + rng.normal()
        p = pacf(y, 4)
        assert abs(p[2]) > 0.2
        assert abs(p[3]) < 0.06


class TestLjungBox:
    def test_white_noise_not_rejected(self):
        _q, pvalue = ljung_box(np.random.default_rng(3).normal(size=2000), 10)
        assert pvalue > 0.01

    def test_correlated_rejected(self):
        _q, pvalue = ljung_box(ar1(0.7, n=2000), 10)
        assert pvalue < 1e-6

    def test_short_series_raises(self):
        with pytest.raises(ValueError):
            ljung_box(np.ones(5), 10)

    def test_pvalue_matches_chi2_sf_bit_for_bit(self):
        # ljung_box evaluates the survival function with chdtrc, the
        # routine chi2.sf itself calls, to keep scipy.stats unimported.
        from scipy import stats
        from scipy.special import chdtrc

        dof = np.arange(1, 40)[:, None]
        q = np.concatenate((np.linspace(0.0, 200.0, 4001), [1e-300, 1e3, 1e5, np.inf]))
        np.testing.assert_array_equal(chdtrc(dof, q[None, :]), stats.chi2.sf(q[None, :], dof))

    def test_residual_diagnostics_match_chi2_sf_on_ar1_fit(self):
        from scipy import stats

        from repro.timeseries.arima import ARIMA

        rng = np.random.default_rng(11)
        e = rng.normal(size=300)
        y = np.zeros(300)
        for t in range(1, 300):
            y[t] = 0.6 * y[t - 1] + e[t]
        q, pvalue = ARIMA((1, 0, 0)).fit(y).residual_diagnostics(y)
        # The values recorded with the scipy.stats.chi2.sf implementation
        # (bit for bit with numpy 2.4 / scipy 1.17), and that formula
        # applied to this fit's own Q with dof = nlags - p - q = 9.
        assert q == pytest.approx(11.43995414299334, rel=1e-9)
        assert pvalue == pytest.approx(0.2467528791344013, rel=1e-9)
        assert pvalue == float(stats.chi2.sf(q, 9))
