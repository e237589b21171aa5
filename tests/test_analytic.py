"""Characteristic functions and closed-form spectra.

Two independent oracles check the gap-mixture characteristic function:
64-point Gauss-Legendre averaging of the single-rate characteristic
function over the rate interval, and an oscillatory-quadrature Fourier
transform of the mixture density itself.
"""
from functools import partial

import numpy as np
import pytest
from scipy import integrate

from trapnoise import (
    UniformRates,
    chi_exponential,
    chi_uniform_rate,
    chi_uniform_rate_approx,
    detrap_mean,
    detrap_pdf,
    psd_full_expression,
    psd_general_pulse,
    psd_lorentzian,
    psd_multi_carrier,
    psd_one_over_f,
    psd_poisson_pulse,
)

TWO_PI = 2.0 * np.pi


def chi_by_rate_average(f, a, b):
    """Oracle: average chi over rates, 64-point Gauss-Legendre per
    log-spaced panel (the integrand turns sharply near gamma ~ 2 pi f)."""
    nodes, weights = np.polynomial.legendre.leggauss(64)
    edges = np.geomspace(a, b, 9)
    total = 0.0 + 0.0j
    for lo, hi in zip(edges[:-1], edges[1:]):
        g = 0.5 * (hi - lo) * nodes + 0.5 * (lo + hi)
        vals = g / (g - TWO_PI * 1j * f)
        total += 0.5 * (hi - lo) * np.sum(weights * vals)
    return total / (b - a)


def chi_by_fourier(f, model):
    """Oracle: adaptive Fourier quadrature of the gap density."""
    re, _ = integrate.quad(
        lambda t: detrap_pdf(t, model), 0, np.inf,
        weight="cos", wvar=TWO_PI * f, limit=800,
    )
    im, _ = integrate.quad(
        lambda t: detrap_pdf(t, model), 0, np.inf,
        weight="sin", wvar=TWO_PI * f, limit=800,
    )
    return re + 1j * im


class TestChiExponential:
    def test_at_zero(self):
        assert chi_exponential(0.0, 3.0) == 1.0

    def test_frozen_point(self):
        # 2 pi f = gamma makes the value exactly 1/(1 - i)
        g = 10.0
        assert chi_exponential(g / TWO_PI, g) == pytest.approx(0.5 + 0.5j)

    def test_decays(self):
        assert abs(chi_exponential(1e12, 1.0)) < 1e-11

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            chi_exponential(1.0, 0.0)


class TestChiUniformRate:
    def test_at_zero(self):
        assert chi_uniform_rate(0.0, 1e-3, 10.0) == 1.0 + 0.0j

    def test_matches_rate_average(self):
        a, b = 1e-3, 10.0
        for f in (1e-2, 1.0, 1e2):
            oracle = chi_by_rate_average(f, a, b)
            assert abs(chi_uniform_rate(f, a, b) - oracle) < 1e-8

    def test_matches_fourier_transform_of_density(self):
        model = UniformRates(1e-3, 10.0)
        val = chi_uniform_rate(1.0, 1e-3, 10.0)
        oracle = chi_by_fourier(1.0, model)
        assert abs(val - oracle) / abs(oracle) < 1e-6

    def test_zero_gamma_min_limit(self):
        f = np.geomspace(1e-6, 1e6, 400)
        vals = chi_uniform_rate(f, 0.0, 1e3)
        assert np.all(np.isfinite(vals))
        assert np.all(np.abs(vals) <= 1.0 + 1e-12)

    def test_degenerate_falls_back_to_exponential(self):
        assert chi_uniform_rate(0.7, 2.0, 2.0) == chi_exponential(0.7, 2.0)


class TestChiUniformRateApprox:
    def test_at_zero(self):
        assert chi_uniform_rate_approx(0.0, 1e4) == 1.0 + 0.0j

    def test_within_one_percent_on_window(self):
        a, b = 1e-4, 1e4
        f = np.geomspace(100.0 * a / TWO_PI, 1e-2 * b / TWO_PI, 200)
        exact = chi_uniform_rate(f, a, b)
        approx = chi_uniform_rate_approx(f, b)
        rel = np.abs(approx - exact) / np.abs(exact)
        assert rel.max() < 0.01

    def test_imaginary_part_positive_below_gamma_max(self):
        b = 1e4
        f = np.geomspace(1e-6, 0.99 * b / TWO_PI, 100)
        assert np.all(np.imag(chi_uniform_rate_approx(f, b)) > 0.0)


class TestCharFnProperties:
    def test_unit_at_zero_and_bounded(self):
        evaluators = [
            partial(chi_exponential, rate=3.0),
            partial(chi_uniform_rate, gamma_min=1e-3, gamma_max=10.0),
            partial(chi_uniform_rate, gamma_min=0.0, gamma_max=1e3),
            partial(chi_uniform_rate_approx, gamma_max=1e4),
        ]
        f = np.geomspace(1e-6, 1e6, 250)
        for chi in evaluators:
            assert chi(0.0) == pytest.approx(1.0)
            vals = np.abs(chi(f))
            if chi.func is chi_uniform_rate_approx:
                # only meaningful inside its validity window
                win = f < chi.keywords["gamma_max"] / (100.0 * TWO_PI)
                vals = vals[win]
            assert np.all(vals <= 1.0 + 1e-12)


class TestPsdGeneralPulse:
    def test_exponential_pair_is_lorentzian(self):
        f = np.geomspace(1e-3, 1e2, 50)
        nu = 0.75
        got = psd_general_pulse(
            f, 1.3, nu,
            partial(chi_exponential, rate=1.0), partial(chi_exponential, rate=3.0),
        )
        want = psd_lorentzian(f, 1.3, nu, 1.0, 3.0)
        assert np.allclose(got, want, rtol=1e-10)

    def test_flicker_window_matches_one_over_f(self):
        # gap mixture with gamma_max >> trapping rate: within 5% of the
        # pure flicker form across the inner validity window
        b, g = 1e4, 1.0
        nu = 1.0 / (1.0 + detrap_mean(UniformRates(1e-4, b)))
        f = np.geomspace(1e-2, 1e1, 40)
        got = psd_general_pulse(
            f, 1.0, nu,
            partial(chi_exponential, rate=g),
            partial(chi_uniform_rate_approx, gamma_max=b),
        )
        want = psd_one_over_f(f, 1.0, nu, b)
        assert np.max(np.abs(got / want - 1.0)) < 0.05

    def test_quadratic_amplitude_scaling(self):
        args = (
            partial(chi_exponential, rate=1.0), partial(chi_exponential, rate=3.0)
        )
        s1 = psd_general_pulse(0.3, 1.0, 0.5, *args)
        s3 = psd_general_pulse(0.3, 3.0, 0.5, *args)
        assert s3 == pytest.approx(9.0 * s1, rel=1e-12)

    def test_indeterminate_near_zero(self):
        with pytest.raises(ValueError):
            psd_general_pulse(
                1e-300, 1.0, 0.5,
                partial(chi_exponential, rate=1.0), partial(chi_exponential, rate=3.0),
            )

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            psd_general_pulse(
                0.0, 1.0, 0.5,
                partial(chi_exponential, rate=1.0), partial(chi_exponential, rate=3.0),
            )


class TestPsdPoissonPulse:
    def test_equals_general_with_exponential_pulses(self):
        chi_gap = partial(chi_uniform_rate, gamma_min=1e-3, gamma_max=10.0)
        for f in (1e-3, 1.0, 1e3):
            chi_pulse = partial(chi_exponential, rate=2.0)
            a = psd_general_pulse(f, 1.0, 0.9, chi_pulse, chi_gap)
            b = psd_poisson_pulse(f, 1.0, 0.9, 2.0, chi_gap)
            assert abs(a - b) / abs(b) < 1e-10

    def test_reproduces_full_expression_with_approx_gap(self):
        b = 1e4
        for f in (1e-2, 1.0, 1e1):
            chi_gap = partial(chi_uniform_rate_approx, gamma_max=b)
            got = psd_poisson_pulse(f, 1.0, 0.99, 1.0, chi_gap)
            want = psd_full_expression(f, 1.0, 0.99, 1.0, b)
            assert abs(got - want) / abs(want) < 1e-10

    def test_quadratic_in_amplitude(self):
        chi_gap = partial(chi_uniform_rate, gamma_min=1e-3, gamma_max=10.0)
        s1 = psd_poisson_pulse(0.5, 1.0, 0.9, 2.0, chi_gap)
        s2 = psd_poisson_pulse(0.5, 2.0, 0.9, 2.0, chi_gap)
        assert s2 == pytest.approx(4.0 * s1, rel=1e-12)


class TestPsdFullExpression:
    def test_ratio_to_flicker_in_unit_band(self):
        ratio = psd_full_expression(1.0, 1.0, 0.99, 1.0, 1e4) / psd_one_over_f(
            1.0, 1.0, 0.99, 1e4
        )
        assert 0.99 < ratio <= 1.0

    def test_ratio_monotone_in_rate_separation(self):
        ratios = [
            psd_full_expression(1.0, 1.0, 0.99, 1.0, b)
            / psd_one_over_f(1.0, 1.0, 0.99, b)
            for b in (1e3, 1e4, 1e5, 1e6)
        ]
        assert all(x < y for x, y in zip(ratios, ratios[1:]))
        assert ratios[-1] < 1.0

    def test_quadratic_in_amplitude(self):
        s1 = psd_full_expression(1.0, 1.0, 0.99, 1.0, 1e4)
        s2 = psd_full_expression(1.0, 2.0, 0.99, 1.0, 1e4)
        assert s2 == pytest.approx(4.0 * s1, rel=1e-12)


class TestFlickerForms:
    def test_frozen_example(self):
        # nu from the mean gap of rates on [1e-4, 1e4] with unit pulses
        nu = 1.0 / (1.0 + detrap_mean(UniformRates(1e-4, 1e4)))
        assert nu == pytest.approx(0.99816, rel=1e-4)
        val = psd_one_over_f(1e-2, 1.0, nu, 1e4)
        assert val == pytest.approx(9.98e-3, rel=1e-3)

    def test_multi_carrier_reduces_at_one(self):
        f = np.geomspace(1e-2, 1e2, 9)
        one = psd_one_over_f(f, 1.0, 0.9, 1e3)
        assert np.array_equal(psd_multi_carrier(f, 1, 1.0, 0.9, 1e3), one)

    def test_exact_unit_slope(self):
        s = psd_one_over_f(np.array([0.1, 10.0]), 1.0, 0.9, 1e3)
        assert s[0] / s[1] == pytest.approx(100.0, rel=1e-12)
