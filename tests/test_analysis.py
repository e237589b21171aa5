"""Order statistics, cutoff predictions, Hooge estimates, fitting."""
import warnings
from functools import partial

import numpy as np
import pytest

from trapnoise import (
    MaterialParams,
    PoissonTrapping,
    SimConfig,
    SpectrumEstimate,
    UniformRates,
    detrap_mean,
    effective_cutoff,
    expected_min_rate,
    fit_loglog,
    hooge_alpha_exact,
    hooge_alpha_fitted,
    hooge_alpha_predicted,
    plateau_onset,
    pulse_height_from_material,
    trapping_rate_from_material,
)
from trapnoise.analysis import (
    carrier_count,
    cutoff_by_regime,
    fitted_floor_rate,
    line_departure_frequency,
    mean_current_from_material,
)
from trapnoise.analytic import chi_exponential, chi_uniform_rate, psd_general_pulse


def mc_min_rate(gamma_min, gamma_max, k, trials, seed):
    """Oracle: brute-force expected minimum of k uniform rate draws."""
    rng = np.random.default_rng(seed)
    draws = rng.uniform(gamma_min, gamma_max, size=(trials, k))
    return draws.min(axis=1).mean()


def departure_by_scan(freqs, ratio, threshold, persistence=2):
    """Reference: the downward scan for ``persistence`` points in a row
    below ``threshold``, one point at a time."""
    freqs = np.asarray(freqs, dtype=float)
    ratio = np.asarray(ratio, dtype=float)
    for i in range(len(freqs) - 1, -1, -1):
        if not ratio[i] < threshold:
            continue
        lower = ratio[max(0, i - persistence + 1) : i]
        if len(lower) < persistence - 1 or not np.all(lower < threshold):
            continue
        if i + 1 >= len(freqs) or not ratio[i + 1] > 0.0:
            return float(freqs[i])
        if ratio[i] == 0.0:
            return float(freqs[i + 1])
        lf = np.log(freqs[i : i + 2])
        lr = np.log(ratio[i : i + 2])
        if lr[1] == lr[0]:
            return float(freqs[i])
        t = (np.log(threshold) - lr[0]) / (lr[1] - lr[0])
        return float(np.exp(lf[0] + np.clip(t, 0.0, 1.0) * (lf[1] - lf[0])))
    return float("nan")


def make_config(**kw):
    base = dict(
        rates=UniformRates(0.0, 1e3),
        trapping=PoissonTrapping(1.0),
        horizon=1e6,
        seed=0,
    )
    base.update(kw)
    return SimConfig(**base)


class TestExpectedMinRate:
    def test_unit_range_single_draw(self):
        assert expected_min_rate(0.0, 1.0, 1) == pytest.approx(0.5)

    def test_large_sample_limit(self):
        assert expected_min_rate(2.0, 5.0, 10**9) == pytest.approx(2.0, rel=1e-8)

    def test_monte_carlo_oracle(self):
        for k in (1, 10, 1000):
            oracle = mc_min_rate(0.0, 1e3, k, 10_000, seed=k)
            assert expected_min_rate(0.0, 1e3, k) == pytest.approx(oracle, rel=0.02)

    def test_frozen_example(self):
        assert expected_min_rate(0.0, 1e3, 1000) == pytest.approx(0.999, rel=1e-3)

    def test_rejects_zero_count(self):
        with pytest.raises(ValueError):
            expected_min_rate(0.0, 1.0, 0)


class TestEffectiveCutoff:
    def test_long_trapping_frozen(self):
        cfg = make_config(horizon=1e6)
        pred = effective_cutoff(cfg, regime="long_trapping")
        assert pred.gamma_min_eff == pytest.approx(1e-3)
        assert pred.regime == "long_trapping"

    def test_doubling_horizon_halves_long_trapping(self):
        a = effective_cutoff(make_config(horizon=1e6), regime="long_trapping")
        b = effective_cutoff(make_config(horizon=2e6), regime="long_trapping")
        assert a.gamma_min_eff == pytest.approx(2.0 * b.gamma_min_eff)

    def test_many_experiments_reach_observation_floor(self):
        cfg = make_config(n_realizations=10**9, horizon=1e6)
        pred = effective_cutoff(cfg, regime="multi_experiment")
        assert 1.0 <= pred.gamma_min_eff * cfg.horizon < 1.001

    def test_auto_regime_selection(self):
        ergodic = make_config(rates=UniformRates(1e-3, 1e3), horizon=1e6)
        assert effective_cutoff(ergodic).regime == "ergodic_exact"
        single = make_config(horizon=1e4)
        assert effective_cutoff(single).regime == "nonergodic"
        many = make_config(horizon=1e4, n_realizations=100)
        assert effective_cutoff(many).regime == "multi_experiment"

    def test_monotone_in_horizon_and_realizations(self):
        for regime in ("nonergodic", "multi_experiment", "long_trapping"):
            vals = [
                effective_cutoff(make_config(horizon=T), regime=regime).gamma_min_eff
                for T in np.geomspace(1e3, 1e9, 13)
            ]
            assert all(x >= y for x, y in zip(vals, vals[1:]))
        vals = [
            effective_cutoff(
                make_config(n_realizations=r), regime="multi_experiment"
            ).gamma_min_eff
            for r in (1, 2, 8, 64, 1024)
        ]
        assert all(x >= y for x, y in zip(vals, vals[1:]))

    def test_floor_above_observation_limit(self):
        for T in (1e3, 1e6):
            for r in (1, 100):
                cfg = make_config(horizon=T, n_realizations=r)
                pred = effective_cutoff(cfg)
                floor = max(cfg.rates.gamma_min, 1.0 / T) * (1.0 - 1e-12)
                assert pred.gamma_min_eff >= floor

    def test_ergodic_exact_formula(self):
        cfg = make_config(rates=UniformRates(1e-2, 10.0), horizon=1e4)
        tau = detrap_mean(cfg.rates)
        cycle = 1.0 + tau
        want = (10.0 - 1e-2) * cycle / (cycle + 1e4) + 1e-2
        got = effective_cutoff(cfg, regime="ergodic_exact").gamma_min_eff
        assert got == pytest.approx(want, rel=1e-12)

    def test_by_regime_report(self):
        table = cutoff_by_regime(make_config())
        assert table["ergodic_exact"] is None  # gamma_min = 0
        assert table["long_trapping"] == pytest.approx(1e-3)


class TestHoogePredicted:
    def test_direct_ratios(self):
        assert hooge_alpha_predicted(1.0, 1e4) == pytest.approx(1e-4)
        assert hooge_alpha_predicted(1.0, 1e3) == pytest.approx(1e-3)

    def test_full_form_close_to_ratio(self):
        # reference parameters: rates on [1e-4, 1e4], unit trapping rate
        nu = 1.0 / (1.0 + detrap_mean(UniformRates(1e-4, 1e4)))
        full = hooge_alpha_exact(nu, 1.0, 1e4)
        assert abs(full / 1e-4 - 1.0) < 0.005


class TestHoogeFitted:
    def _flicker_estimate(self, alpha, current, n, freqs):
        values = current**2 * alpha / (n * freqs)
        return SpectrumEstimate(
            freqs=freqs, values=values, n_averaged=1, estimator="event_exact"
        )

    def test_exact_inversion(self):
        freqs = np.geomspace(1e-2, 1e2, 60)
        est = self._flicker_estimate(3.7e-4, 2.5, 10, freqs)
        fit = hooge_alpha_fitted(est, 2.5, 10, (1e-1, 1e1))
        assert fit.alpha == pytest.approx(3.7e-4, rel=1e-12)
        assert fit.slope_deviation < 1e-10
        assert fit.in_band

    def test_amplitude_rescaling_exact_invariance(self):
        freqs = np.geomspace(1e-2, 1e2, 60)
        est = self._flicker_estimate(3.7e-4, 2.5, 10, freqs)
        doubled = SpectrumEstimate(
            freqs=freqs, values=4.0 * est.values, n_averaged=1,
            estimator="event_exact",
        )
        a1 = hooge_alpha_fitted(est, 2.5, 10, (1e-1, 1e1)).alpha
        a2 = hooge_alpha_fitted(doubled, 5.0, 10, (1e-1, 1e1)).alpha
        assert a1 == a2

    def test_unbiased_on_periodogram_scatter(self):
        # periodogram ordinates scatter as S_true * Exp(1); a fit of log S
        # (a geometric mean of S*f) reads low by e^-gamma ~= 0.56
        rng = np.random.default_rng(11)
        freqs = np.geomspace(1e-2, 1e2, 4000)
        exact = self._flicker_estimate(3.7e-4, 2.5, 10, freqs)
        noisy = SpectrumEstimate(
            freqs=freqs, values=exact.values * rng.standard_exponential(4000),
            n_averaged=1, estimator="event_exact",
        )
        fit = hooge_alpha_fitted(noisy, 2.5, 10, (1e-2, 1e2))
        assert fit.alpha == pytest.approx(3.7e-4, rel=0.05)

    def test_flags_wrong_slope(self):
        freqs = np.geomspace(1e-2, 1e2, 60)
        est = SpectrumEstimate(
            freqs=freqs, values=1.0 / freqs**2, n_averaged=1,
            estimator="event_exact",
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = hooge_alpha_fitted(est, 1.0, 1, (1e-1, 1e1))
        assert fit.slope_deviation == pytest.approx(1.0, rel=1e-9)
        assert not fit.in_band

    def test_one_point_window_has_no_slope(self):
        freqs = np.geomspace(1e-2, 1e2, 9)  # one point per half decade
        est = self._flicker_estimate(3.7e-4, 2.5, 10, freqs)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fit = hooge_alpha_fitted(est, 2.5, 10, (0.5, 2.0))
        assert fit.alpha == pytest.approx(3.7e-4, rel=1e-12)
        assert fit.slope_deviation is None
        assert not fit.in_band

    def test_empty_window_rejected(self):
        freqs = np.geomspace(1e-2, 1e2, 10)
        est = self._flicker_estimate(1e-3, 1.0, 1, freqs)
        with pytest.raises(ValueError):
            hooge_alpha_fitted(est, 1.0, 1, (1e3, 1e4))

    def test_zero_mean_current_rejected(self):
        # a carrier never free: S = 0 and I = 0 would give alpha = 0/0
        freqs = np.geomspace(1e-2, 1e2, 10)
        est = SpectrumEstimate(
            freqs=freqs, values=np.zeros(10), n_averaged=1, estimator="event_exact"
        )
        with pytest.raises(ValueError, match="mean current"):
            hooge_alpha_fitted(est, 0.0, 1, (1e-1, 1e1))


class TestMaterialRelations:
    def _material(self, **kw):
        base = dict(
            charge=1.0, drift_speed=1.0, thermal_speed=1.0, length=1.0,
            cross_section=1.0, carrier_density=1.0, trap_density=1.0,
            capture_cross_section=1.0,
        )
        base.update(kw)
        return MaterialParams(**base)

    def test_unit_pulse_height(self):
        assert pulse_height_from_material(self._material()) == 1.0

    def test_trap_density_linearity(self):
        m1 = self._material(trap_density=2.0)
        m2 = self._material(trap_density=1.0)
        assert trapping_rate_from_material(m1) == 2.0 * trapping_rate_from_material(m2)

    def test_current_consistency_identity(self):
        # pulse height from the mean current must reproduce q v_c / L
        rng = np.random.default_rng(8)
        for _ in range(50):
            q, vc, vt, L, sm, n, nc, sc = rng.uniform(0.1, 10.0, 8)
            m = MaterialParams(q, vc, vt, L, sm, n, nc, sc)
            nu, mean_pulse = rng.uniform(0.1, 10.0, 2)
            current = mean_current_from_material(m, nu, mean_pulse)
            n_carriers = carrier_count(m)
            recovered = current / (n_carriers * nu * mean_pulse)
            assert recovered == pytest.approx(q * vc / L, rel=1e-12)

    def test_positivity_enforced(self):
        with pytest.raises(ValueError):
            self._material(length=0.0)


class TestFitting:
    def test_fit_loglog_recovers_power_law(self):
        freqs = np.geomspace(1e-3, 1e3, 100)
        slope, amp = fit_loglog(freqs, 2.5 * freqs**-1.7)
        assert slope == pytest.approx(-1.7, rel=1e-9)
        assert amp == pytest.approx(2.5, rel=1e-9)

    def test_line_departure_on_synthetic_knee(self):
        freqs = np.geomspace(1e-4, 1.0, 200)
        f_knee = 1e-2
        spectrum = 1.0 / (freqs + f_knee)  # flat below knee, 1/f above
        ratio = spectrum * freqs / 1.0
        got = line_departure_frequency(freqs, ratio, threshold=0.5)
        # ratio = f/(f + knee) = 0.5 exactly at the knee
        assert got == pytest.approx(f_knee, rel=0.05)

    def test_line_departure_none(self):
        freqs = np.geomspace(1e-2, 1.0, 30)
        assert np.isnan(line_departure_frequency(freqs, np.ones(30)))

    @staticmethod
    def _assert_same_departure(freqs, ratio, threshold):
        got = line_departure_frequency(freqs, ratio, threshold)
        want = departure_by_scan(freqs, ratio, threshold)
        assert np.float64(got).tobytes() == np.float64(want).tobytes(), (
            ratio, got, want
        )

    @pytest.mark.parametrize("threshold", [2.0**-0.5, 0.5])
    def test_line_departure_matches_the_downward_scan(self, threshold):
        rng = np.random.default_rng(11)
        for _ in range(400):
            n = int(rng.integers(1, 40))
            freqs = np.sort(rng.uniform(1e-3, 10.0, n))
            ratio = rng.uniform(0.2, 1.4, n)
            ratio[rng.random(n) < 0.1] = 0.0
            ratio[rng.random(n) < 0.05] = np.nan
            self._assert_same_departure(freqs, ratio, threshold)

    @pytest.mark.parametrize(
        "ratio",
        [
            [0.1, 0.2, np.nan, 0.1, 1.0],  # a NaN entry
            [0.1, np.nan, 0.1, 1.0, 1.0],
            [0.1, 0.2, 0.3, 0.1],  # every point below
            [0.1],  # a single point
            [1.0, 1.0, 1.0, 0.1],  # only the top point below
            [0.1, 0.2, 1.0, 1.0],  # only the two lowest points below
            [0.1, 0.5, 0.5, 1.0],  # equal ratios around the crossing
        ],
    )
    def test_line_departure_edge_cases(self, ratio):
        freqs = np.geomspace(1e-2, 1.0, len(ratio))
        self._assert_same_departure(freqs, np.asarray(ratio), 2.0**-0.5)

    def test_line_departure_equal_logs_around_the_crossing(self):
        # two neighbouring floats whose logs round alike: lr[1] == lr[0]
        below = np.nextafter(4.0, 0.0)
        assert np.log(below) == np.log(4.0)
        freqs = np.geomspace(1e-2, 1.0, 3)
        ratio = np.array([1.0, below, 4.0])
        self._assert_same_departure(freqs, ratio, 4.0)
        assert line_departure_frequency(freqs, ratio, 4.0) == freqs[1]

    def test_line_departure_from_a_zero_crossing(self):
        # log(0) would make the interpolation inf/inf; its limit is the
        # point above the crossing
        freqs = np.array([1.0, 2.0, 4.0, 8.0])
        assert line_departure_frequency(freqs, [0.1, 0.0, 1.0, 1.0]) == 4.0
        tiny = line_departure_frequency(freqs, [0.1, 1e-300, 1.0, 1.0])
        assert tiny == pytest.approx(4.0, rel=1e-3)

    def test_plateau_onset_wraps_departure(self):
        freqs = np.geomspace(1e-4, 1.0, 300)
        f_knee = 1e-2
        est = SpectrumEstimate(
            freqs=freqs, values=1.0 / (freqs + f_knee), n_averaged=1,
            estimator="event_exact",
        )
        # the measured line level over the window sits slightly below the
        # asymptote, shifting the crossing a little: allow 20%
        onset = plateau_onset(est, (5e-2, 5e-1), threshold=0.5)
        assert onset == pytest.approx(f_knee, rel=0.2)

    def test_fitted_floor_recovers_synthetic_floor(self):
        floor, gmax, gth, nu = 2e-3, 1e3, 1.0, 0.99
        freqs = np.geomspace(1e-4, 1.0, 80)
        values = psd_general_pulse(
            freqs, 1.0, nu, partial(chi_exponential, rate=gth),
            partial(chi_uniform_rate, gamma_min=floor, gamma_max=gmax),
        )
        est = SpectrumEstimate(
            freqs=freqs, values=values, n_averaged=1, estimator="event_exact"
        )
        got = fitted_floor_rate(est, nu, 1.0, gth, gmax, (1e-5, 1e-1))
        assert got == pytest.approx(floor, rel=0.1)
