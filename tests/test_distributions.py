"""Rate and detrapping-time law tests.

Oracles here are built from the defining mixture integral
p(tau) = (1/(b-a)) * integral over gamma of gamma*exp(-gamma*tau),
evaluated by quadrature, never from the closed forms under test.
"""
import numpy as np
import pytest
from scipy import integrate, stats

from trapnoise import (
    ArrheniusRates,
    NonergodicError,
    PoissonTrapping,
    UniformRates,
    detrap_cdf,
    detrap_mean,
    detrap_pdf,
    sample_detrap_time,
    sample_rate,
)


def _edge_hints(tau, a, b):
    # the integrand concentrates within a few 1/tau of gamma_min
    pts = [a + k / tau for k in (1.0, 5.0, 20.0)]
    return [p for p in pts if a < p < b]


def mixture_pdf(tau, a, b):
    """Oracle: quadrature of the defining rate mixture."""
    val, _ = integrate.quad(
        lambda g: g * np.exp(-g * tau), a, b, points=_edge_hints(tau, a, b), limit=200
    )
    return val / (b - a)


def mixture_survival(t, a, b):
    """Oracle: P(tau > t) by integrating exp(-gamma t) over rates."""
    val, _ = integrate.quad(
        lambda g: np.exp(-g * t), a, b, points=_edge_hints(t, a, b), limit=200
    )
    return val / (b - a)


class TestRateModels:
    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            UniformRates(-1.0, 1.0)
        with pytest.raises(ValueError):
            UniformRates(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformRates(0.0, 0.0)
        UniformRates(0.0, 1e3)  # nonergodic lower bound is allowed

    def test_arrhenius_validation_and_bounds(self):
        m = ArrheniusRates(prefactor=1.0, thermal_energy=1.0,
                           energy_min=0.0, energy_max=np.log(1e4))
        assert m.gamma_max == pytest.approx(1.0)
        assert m.gamma_min == pytest.approx(1e-4)
        assert 0.0 < m.gamma_min < m.gamma_max <= m.prefactor
        with pytest.raises(ValueError):
            ArrheniusRates(0.0, 1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            ArrheniusRates(1.0, 1.0, 2.0, 1.0)
        with pytest.raises(ValueError, match="energy_max"):
            ArrheniusRates(1.0, 1.0, 0.0, np.inf)
        with pytest.raises(ValueError, match="energy_min must be finite"):
            ArrheniusRates(1.0, 1.0, True, 2.0)

    def test_numpy_scalars_accepted(self):
        rates = UniformRates(np.float32(0.0), np.int64(10))
        assert rates.gamma_max == 10
        ArrheniusRates(np.float64(1.0), np.float32(0.5), np.int32(0), np.float64(2.0))
        assert PoissonTrapping(np.float32(2.0)).mean_time == pytest.approx(0.5)

    def test_trapping_validation(self):
        assert PoissonTrapping(2.0).mean_time == pytest.approx(0.5)
        with pytest.raises(ValueError):
            PoissonTrapping(0.0)
        with pytest.raises(ValueError):
            PoissonTrapping(np.inf)


class TestSampleRate:
    def test_uniform_range_containment(self):
        rng = np.random.default_rng(0)
        g = sample_rate(UniformRates(0.0, 1e3), rng, size=10_000)
        assert np.all((g >= 0.0) & (g <= 1e3))

    @pytest.mark.parametrize("bounds", [(0.0, 1e3), (1e-4, 1e4), (0.3, 7.7)])
    @pytest.mark.parametrize("size", [None, 1, 50_000])
    def test_uniform_has_the_bytes_of_rng_uniform(self, bounds, size):
        for seed in range(5):
            got = sample_rate(UniformRates(*bounds), np.random.default_rng(seed), size)
            want = np.random.default_rng(seed).uniform(*bounds, size)
            assert type(got) is type(want)
            assert np.asarray(got).tobytes() == np.asarray(want).tobytes()

    def test_arrhenius_degenerate_support(self):
        rng = np.random.default_rng(1)
        m = ArrheniusRates(2.0, 1.5, 3.0, 3.0)
        g = sample_rate(m, rng, size=100)
        assert np.allclose(g, 2.0 * np.exp(-3.0 / 1.5))

    def test_arrhenius_induces_uniform_rates(self):
        # change of variables: Boltzmann depths through activated escape
        # must give exactly uniform rates on [1e-4, 1]
        rng = np.random.default_rng(2)
        m = ArrheniusRates(1.0, 1.0, 0.0, np.log(1e4))
        g = sample_rate(m, rng, size=100_000)
        res = stats.kstest(g, stats.uniform(loc=1e-4, scale=1.0 - 1e-4).cdf)
        assert res.pvalue > 0.01


class TestSampleDetrapTime:
    def test_one_draw_without_a_size_is_a_float(self):
        model = UniformRates(1e-2, 10.0)
        tau = sample_detrap_time(model, np.random.default_rng(3))
        assert type(tau) is float
        one = sample_detrap_time(model, np.random.default_rng(3), size=1)
        assert tau == one[0]

    def test_degenerate_is_exponential(self):
        rng = np.random.default_rng(3)
        tau = sample_detrap_time(UniformRates(2.0, 2.0), rng, size=50_000)
        res = stats.kstest(tau, stats.expon(scale=0.5).cdf)
        assert res.pvalue > 0.01

    def test_matches_mixture_density(self):
        # log-binned chi^2 against the quadrature oracle over [1e-2, 1e2]
        rng = np.random.default_rng(4)
        a, b = 1e-3, 10.0
        tau = sample_detrap_time(UniformRates(a, b), rng, size=1_000_000)
        edges = np.geomspace(1e-2, 1e2, 25)
        observed, _ = np.histogram(tau, bins=edges)
        probs = np.array([
            integrate.quad(lambda t: mixture_pdf(t, a, b), lo, hi)[0]
            for lo, hi in zip(edges[:-1], edges[1:])
        ])
        in_window = (tau >= edges[0]) & (tau <= edges[-1])
        expected = probs / probs.sum() * observed.sum()
        assert in_window.sum() > 100_000
        res = stats.chisquare(observed, expected)
        assert res.pvalue > 0.01

    def test_zero_rate_draws_heavy_tail(self):
        # gamma_min = 0: survival decays like 1/(b t), far slower than
        # any exponential; a finite fraction outlives any fixed horizon
        rng = np.random.default_rng(5)
        a, b = 0.0, 1e3
        tau = sample_detrap_time(UniformRates(a, b), rng, size=1_000_000)
        for t in (10.0, 100.0):
            frac = np.mean(tau > t)
            expect = mixture_survival(t, a, b)
            sigma = np.sqrt(expect / 1e6)
            assert abs(frac - expect) < 5.0 * sigma
        # power-law tail: doubling the horizon roughly halves the survival
        assert np.mean(tau > 20.0) > 0.25 * np.mean(tau > 10.0)


class TestDetrapPdf:
    def test_short_time_saturation(self):
        # frozen from the series limit (a+b)/2 = 5.0005
        m = UniformRates(1e-3, 10.0)
        assert detrap_pdf(1e-12, m) == pytest.approx(5.0005, rel=1e-6)
        assert detrap_pdf(0.0, m) == pytest.approx(5.0005, rel=1e-3)
        # oracle agrees where the quadrature is still well conditioned
        assert detrap_pdf(1e-4, m) == pytest.approx(
            mixture_pdf(1e-4, 1e-3, 10.0), rel=1e-9
        )

    def test_midrange_inverse_square(self):
        m = UniformRates(1e-3, 10.0)
        val = detrap_pdf(1.0, m)
        asymptote = 1.0 / ((10.0 - 1e-3) * 1.0**2)
        assert abs(val / asymptote - 1.0) < 0.10

    def test_normalization(self):
        m = UniformRates(1e-3, 10.0)
        total, err = integrate.quad(
            lambda t: detrap_pdf(t, m), 0.0, np.inf, limit=200
        )
        assert abs(total - 1.0) < 1e-6

    def test_matches_oracle_on_grid(self):
        m = UniformRates(1e-3, 10.0)
        for t in np.geomspace(1e-5, 1e3, 17):
            assert detrap_pdf(t, m) == pytest.approx(
                mixture_pdf(t, 1e-3, 10.0), rel=1e-7
            )

    def test_nonnegative_everywhere(self):
        m = UniformRates(1e-4, 1e4)
        t = np.geomspace(1e-12, 1e8, 300)
        assert np.all(detrap_pdf(t, m) >= 0.0)

    def test_degenerate_limit_is_exponential(self):
        g = 2.0
        m = UniformRates(g, g * (1.0 + 1e-5))
        t = np.geomspace(1e-3, 5.0, 50)
        exact = g * np.exp(-g * t)
        assert np.max(np.abs(detrap_pdf(t, m) / exact - 1.0)) < 1e-3

    def test_negative_tau_rejected(self):
        with pytest.raises(ValueError):
            detrap_pdf(-0.5, UniformRates(1.0, 2.0))
        for law in (detrap_pdf, detrap_cdf):
            with pytest.raises(ValueError, match="tau"):
                law(np.nan, UniformRates(1.0, 2.0))


class TestDetrapCdf:
    def test_matches_pdf_integral(self):
        m = UniformRates(1e-2, 5.0)
        for t in (0.03, 0.4, 2.0, 30.0):
            ref, _ = integrate.quad(lambda x: mixture_pdf(x, 1e-2, 5.0), 0, t)
            assert detrap_cdf(t, m) == pytest.approx(ref, rel=1e-8)

    def test_limits_and_monotonicity(self):
        m = UniformRates(1e-3, 10.0)
        assert detrap_cdf(0.0, m) == 0.0
        t = np.geomspace(1e-9, 1e5, 200)
        vals = detrap_cdf(t, m)
        assert np.all(np.diff(vals) >= 0.0)
        assert vals[-1] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("bounds", [(0.0, 10.0), (1e-3, 10.0), (2.0, 2.0)])
    def test_limits_at_an_infinite_time(self, bounds):
        # a zero-rate draw gives tau = inf, where the density is 0 and
        # the distribution function 1, as a scalar and in an array
        m = UniformRates(*bounds)
        assert detrap_pdf(np.inf, m) == 0.0
        assert detrap_cdf(np.inf, m) == 1.0
        t = np.array([0.0, 1.0, np.inf])
        assert detrap_pdf(t, m)[-1] == 0.0
        assert np.array_equal(detrap_cdf(t, m)[[0, 2]], [0.0, 1.0])
        assert detrap_pdf(t, m)[1] == detrap_pdf(1.0, m)


class TestDetrapMean:
    # frozen values computed from the tau * mixture_pdf quadrature oracle
    def test_frozen_values(self):
        # split so the slow exp(-gamma_min * t) tail is fully captured
        pieces = [
            integrate.quad(
                lambda t: t * mixture_pdf(t, 1e-3, 10.0), lo, hi, limit=400
            )[0]
            for lo, hi in ((0.0, 10.0), (10.0, 5e4))
        ]
        oracle = sum(pieces)
        assert oracle == pytest.approx(0.92113, rel=1e-4)
        assert detrap_mean(UniformRates(1e-3, 10.0)) == pytest.approx(
            oracle, rel=1e-6
        )
        assert detrap_mean(UniformRates(1e-4, 1e4)) == pytest.approx(
            1.8421e-3, rel=1e-4
        )

    def test_degenerate_limit(self):
        assert detrap_mean(UniformRates(4.0, 4.0)) == pytest.approx(0.25)

    def test_nonergodic_raises(self):
        with pytest.raises(NonergodicError):
            detrap_mean(UniformRates(0.0, 1e3))

    def test_empirical_mean_within_three_se(self):
        rng = np.random.default_rng(6)
        m = UniformRates(1e-3, 10.0)
        tau = sample_detrap_time(m, rng, size=1_000_000)
        se = tau.std() / np.sqrt(len(tau))
        assert abs(tau.mean() - detrap_mean(m)) < 3.0 * se
