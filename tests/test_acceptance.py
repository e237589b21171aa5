"""End-to-end acceptance criteria.

Each test prints one PASS line with the measured numbers once its
assertions hold; pytest reports any failure with the offending values.
The heavy Monte Carlo runs are shared through module-scoped fixtures.
Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""
from functools import partial

import numpy as np
import pytest
from scipy import integrate, stats

import trapnoise as tn
from trapnoise.analysis import fitted_floor_rate
from trapnoise.presets import ExperimentSpec
from trapnoise.runner import run, run_spectrum_config

GAMMA_MAX = 1e3
TRAP_RATE = 1.0


def _pass(num, detail):
    print(f"\nACCEPTANCE {num}: PASS - {detail}")


@pytest.fixture(scope="module")
def flicker_run():
    """Shared scaled reference run: T=1e5, rates [1e-3, 1e3], R=100."""
    cfg = tn.SimConfig(
        rates=tn.UniformRates(1e-3, GAMMA_MAX),
        trapping=tn.PoissonTrapping(TRAP_RATE),
        horizon=1e5,
        n_realizations=100,
        seed=42,
    )
    freqs = tn.natural_frequencies(cfg.horizon, 5e3, points_per_decade=16)
    return cfg, run_spectrum_config(cfg, freqs=freqs, workers=1)


def test_criterion_1_flicker_slope_and_amplitude(flicker_run):
    cfg, res = flicker_run
    slope, amplitude = tn.fit_loglog(
        res.spectrum.freqs, res.spectrum.values, (1e-2, 10.0)
    )
    assert abs(slope + 1.0) <= 0.05
    reference = cfg.amplitude**2 * res.nu_bar / GAMMA_MAX
    assert 0.5 <= amplitude / reference <= 2.0
    _pass(1, f"slope {slope:+.4f} (|{slope + 1.0:.4f}| <= 0.05), "
             f"amplitude/reference {amplitude / reference:.3f} in [0.5, 2]")


def test_criterion_2_three_regimes(flicker_run):
    cfg, res = flicker_run
    freqs, values = res.spectrum.freqs, res.spectrum.values
    two_pi = 2.0 * np.pi
    flat_window = (freqs[0], cfg.rates.gamma_min / two_pi)
    brown_window = (2.0 * GAMMA_MAX / two_pi, 20.0 * GAMMA_MAX / two_pi)
    assert flat_window[1] / flat_window[0] >= 10.0
    assert brown_window[1] / brown_window[0] >= 10.0
    flat, _ = tn.fit_loglog(freqs, values, flat_window)
    mid, _ = tn.fit_loglog(freqs, values, (1e-2, 10.0))
    brown, _ = tn.fit_loglog(freqs, values, brown_window)
    assert abs(flat - 0.0) <= 0.2
    assert abs(mid + 1.0) <= 0.2
    assert abs(brown + 2.0) <= 0.2
    _pass(2, f"slopes flat {flat:+.3f}, mid {mid:+.3f}, brown {brown:+.3f} "
             f"(each fitted over >= 1 decade, tolerance 0.2)")


def _single_experiment_floor(horizon, seed):
    pred = GAMMA_MAX / (TRAP_RATE * horizon)
    cfg = tn.SimConfig(
        rates=tn.UniformRates(0.0, GAMMA_MAX),
        trapping=tn.PoissonTrapping(TRAP_RATE),
        horizon=horizon,
        n_realizations=1,
        seed=seed,
    )
    freqs = tn.natural_frequencies(horizon, 150.0 * pred, points_per_decade=12)
    path = tn.simulate_realization(cfg, 0)[0]
    est = tn.periodogram_superposed_events([path], 1.0, freqs)
    binned = tn.logbin_spectrum(est, 4)
    sel = binned.freqs <= 30.0 * pred
    trimmed = tn.SpectrumEstimate(
        freqs=binned.freqs[sel], values=binned.values[sel],
        n_averaged=1, estimator="event_exact",
    )
    return fitted_floor_rate(
        trimmed, tn.empirical_nu(path), 1.0, TRAP_RATE, GAMMA_MAX,
        bounds=(pred / 300.0, pred * 100.0),
    )


def test_criterion_3_cutoff_scaling_with_horizon():
    # single-experiment low-frequency cutoff measured as the effective
    # rate floor of the closed-form spectrum fitted to each seed's
    # periodogram, averaged geometrically over 20 seeds
    onsets = {}
    for horizon in (1e4, 1e6):
        floors = [_single_experiment_floor(horizon, seed) for seed in range(20)]
        onsets[horizon] = float(np.exp(np.mean(np.log(floors))))
    for horizon, measured in onsets.items():
        predicted = GAMMA_MAX / (TRAP_RATE * horizon)
        assert predicted / 3.0 <= measured <= predicted * 3.0
    ratio = onsets[1e4] / onsets[1e6]
    assert 50.0 <= ratio <= 200.0
    _pass(3, f"onsets {onsets[1e4]:.3g} (pred 0.1) and {onsets[1e6]:.3g} "
             f"(pred 1e-3), horizon ratio {ratio:.1f} (target 100, factor 2)")


def test_criterion_4_averaging_removes_cutoff():
    # (a) one experiment: lowest decade starved of power by > 3x
    cfg_a = tn.SimConfig(
        rates=tn.UniformRates(0.0, GAMMA_MAX),
        trapping=tn.PoissonTrapping(TRAP_RATE),
        horizon=1e5, n_realizations=1, seed=5,
    )
    freqs_a = tn.natural_frequencies(cfg_a.horizon, 1e-2, points_per_decade=16)
    res_a = run_spectrum_config(cfg_a, freqs=freqs_a, workers=1)
    line = res_a.nu_bar / (GAMMA_MAX * res_a.spectrum.freqs)
    sel = res_a.spectrum.freqs <= 10.0 / cfg_a.horizon
    deficit = np.exp(np.mean(np.log(line[sel] / res_a.spectrum.values[sel])))
    assert deficit > 3.0

    # (b) many experiments (R = 1e4 at horizon 1e4, which satisfies
    # R >> gamma_max * mean pulse): lowest decade back within factor 2
    cfg_b = tn.SimConfig(
        rates=tn.UniformRates(0.0, GAMMA_MAX),
        trapping=tn.PoissonTrapping(TRAP_RATE),
        horizon=1e4, n_realizations=10_000, seed=6,
    )
    freqs_b = tn.natural_frequencies(cfg_b.horizon, 1e-2, points_per_decade=16)
    res_b = run_spectrum_config(cfg_b, freqs=freqs_b, workers=1)
    line = res_b.nu_bar / (GAMMA_MAX * res_b.spectrum.freqs)
    sel = res_b.spectrum.freqs <= 10.0 / cfg_b.horizon
    ratio = np.exp(np.mean(np.log(res_b.spectrum.values[sel] / line[sel])))
    assert 0.5 <= ratio <= 2.0
    _pass(4, f"single-run lowest-decade deficit {deficit:.1f}x (> 3x); "
             f"averaged run ratio {ratio:.3f} (within factor 2)")


def test_criterion_5_multi_carrier():
    scale = 8.0
    cfg = tn.SimConfig(
        rates=tn.UniformRates(0.0, GAMMA_MAX),
        trapping=tn.PoissonTrapping(TRAP_RATE),
        horizon=2**26 * 1e-4 / scale,
        n_carriers=1000, n_realizations=1, sample_dt=1e-4, seed=99,
    )
    res = run_spectrum_config(cfg, estimator="sampled_fft", workers=1)

    est = tn.logbin_spectrum(res.spectrum, 4)
    reference = tn.psd_multi_carrier(
        est.freqs, cfg.n_carriers, cfg.amplitude, res.nu_bar, GAMMA_MAX
    )
    sel = (est.freqs >= 0.03) & (est.freqs <= 3.0)
    assert np.log10(3.0 / 0.03) >= 2.0
    ratio = est.values[sel] / reference[sel]
    assert np.all((ratio >= 0.5) & (ratio <= 2.0))

    pmf = res.hist / res.hist.sum()
    p_fit = float(np.arange(len(pmf)) @ pmf) / cfg.n_carriers
    assert abs(p_fit - 0.984) <= 0.005
    _pass(5, f"spectrum/reference in [{ratio.min():.2f}, {ratio.max():.2f}] "
             f"over two decades; binomial p {p_fit:.4f} (|p-0.984| = "
             f"{abs(p_fit - 0.984):.4f} <= 0.005)")


def test_criterion_6_sampler_correctness():
    a, b = 1e-3, 10.0
    rng = np.random.default_rng(11)
    samples = tn.sample_detrap_time(tn.UniformRates(a, b), rng, size=100_000)

    def mixture_cdf(t):
        t = np.asarray(t, dtype=float)
        with np.errstate(invalid="ignore"):
            val = 1.0 - (np.exp(-a * t) - np.exp(-b * t)) / ((b - a) * t)
        return np.where(t > 0.0, val, 0.0)

    ks = stats.kstest(samples, mixture_cdf)
    assert ks.pvalue > 0.01

    model = tn.ArrheniusRates(1.0, 1.0, 0.0, np.log(1e4))
    rates = tn.sample_rate(model, np.random.default_rng(12), size=100_000)
    edges = np.linspace(model.gamma_min, model.gamma_max, 51)
    observed, _ = np.histogram(rates, bins=edges)
    chi2 = stats.chisquare(observed)
    assert chi2.pvalue > 0.01
    _pass(6, f"detrap-time KS p = {ks.pvalue:.3f} > 0.01; "
             f"rate-uniformity chi2 p = {chi2.pvalue:.3f} > 0.01 (50 bins)")


def test_criterion_7_analytic_cross_validation():
    # exact characteristic function vs Fourier quadrature of the density
    model = tn.UniformRates(1e-3, 10.0)
    worst = 0.0
    for f in np.geomspace(1e-3, 1e2, 20):
        w = 2.0 * np.pi * f
        re, _ = integrate.quad(lambda t: tn.detrap_pdf(t, model), 0, np.inf,
                               weight="cos", wvar=w, limit=1000, maxp1=200,
                               epsabs=1e-11)
        im, _ = integrate.quad(lambda t: tn.detrap_pdf(t, model), 0, np.inf,
                               weight="sin", wvar=w, limit=1000, maxp1=200,
                               epsabs=1e-11)
        oracle = re + 1j * im
        rel = abs(tn.chi_uniform_rate(f, 1e-3, 10.0) - oracle) / abs(oracle)
        worst = max(worst, rel)
    assert worst <= 1e-6

    # closed-form telegraph spectrum vs simulated periodogram
    detrap_rate = 3.0
    cfg = tn.SimConfig(
        rates=tn.UniformRates(detrap_rate, detrap_rate),
        trapping=tn.PoissonTrapping(TRAP_RATE),
        horizon=1e4, n_realizations=100, seed=13,
    )
    freqs = tn.natural_frequencies(cfg.horizon, 13.0, f_min=8e-3,
                                   points_per_decade=80)
    res = run_spectrum_config(cfg, freqs=freqs, workers=1)
    nu = TRAP_RATE * detrap_rate / (TRAP_RATE + detrap_rate)
    reference = tn.psd_general_pulse(
        freqs, 1.0, nu,
        partial(tn.chi_exponential, rate=TRAP_RATE),
        partial(tn.chi_exponential, rate=detrap_rate),
    )
    # bin measurement and reference identically so the comparison is not
    # skewed by in-bin curvature of the steep f^-2 tail
    binned = tn.logbin_spectrum(res.spectrum, 2)
    ref_binned = tn.logbin_spectrum(
        tn.SpectrumEstimate(freqs=freqs, values=reference, n_averaged=1,
                            estimator="event_exact"),
        2,
    )
    ratio = binned.values / ref_binned.values
    assert np.log10(binned.freqs[-1] / binned.freqs[0]) >= 2.9
    assert np.all((ratio >= 0.9) & (ratio <= 1.1))
    _pass(7, f"char-fn vs Fourier quadrature worst rel {worst:.2e} <= 1e-6; "
             f"telegraph spectrum/reference in [{ratio.min():.3f}, "
             f"{ratio.max():.3f}] over three decades")


def test_criterion_8_hooge_consistency(flicker_run):
    cfg, res = flicker_run
    fit = tn.hooge_alpha_fitted(
        res.spectrum, res.mean_current, cfg.n_carriers, (1e-2, 10.0)
    )
    predicted = TRAP_RATE / GAMMA_MAX
    assert 0.5 <= fit.alpha / predicted <= 2.0

    doubled = tn.SpectrumEstimate(
        freqs=res.spectrum.freqs, values=4.0 * res.spectrum.values,
        n_averaged=res.spectrum.n_averaged, estimator=res.spectrum.estimator,
    )
    fit2 = tn.hooge_alpha_fitted(
        doubled, 2.0 * res.mean_current, cfg.n_carriers, (1e-2, 10.0)
    )
    assert fit2.alpha == fit.alpha
    _pass(8, f"fitted alpha {fit.alpha:.3e} vs predicted {predicted:.0e} "
             f"(ratio {fit.alpha / predicted:.3f} in [0.5, 2]); "
             f"amplitude-rescaling invariance exact")


def test_criterion_9_order_statistics_oracle():
    rng = np.random.default_rng(14)
    worst = 0.0
    for k in (1, 10, 1000):
        draws = rng.uniform(0.0, GAMMA_MAX, size=(10_000, k))
        oracle = float(draws.min(axis=1).mean())
        predicted = tn.expected_min_rate(0.0, GAMMA_MAX, k)
        rel = abs(predicted / oracle - 1.0)
        worst = max(worst, rel)
        assert rel <= 0.02
    _pass(9, f"expected minimum vs Monte Carlo within {worst:.3%} "
             f"for K in (1, 10, 1000) (tolerance 2%)")


def test_criterion_10_determinism_across_worker_counts(tmp_path):
    base = tn.SimConfig(
        rates=tn.UniformRates(1e-2, 1e2),
        trapping=tn.PoissonTrapping(TRAP_RATE),
        horizon=500.0, n_realizations=32, seed=2024,
    )
    spec = ExperimentSpec(
        name="detcheck", runs=(("", base),), estimator="event_exact",
        f_max=10.0, points_per_decade=12,
    )
    digests = []
    for workers in (1, 4, 16):
        outdir = tmp_path / f"w{workers}"
        run(spec, outdir, workers=workers)
        digests.append((outdir / "detcheck_spectrum.csv").read_bytes())
    assert digests[0] == digests[1] == digests[2]
    assert len(digests[0]) > 1000
    _pass(10, f"spectrum CSV byte-identical across worker counts 1, 4, 16 "
              f"({len(digests[0])} bytes)")
