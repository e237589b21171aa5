"""Experiment runner: spread each run over the workers, merge
deterministically, and write the artifact set.

A run of several realizations fans them out to a pool of ``workers``
processes; a run of one realization computes it in this process, and its
event-exact transform splits its frequencies over ``workers`` threads,
its sampled periodogram the blocks of its in-place FFT over two.  A
sampled realization counts its occupancy histogram first, because the
transform overwrites the signal.

Artifacts per experiment ``name``:

* ``name[_label]_spectrum.csv``  one per run (f, S, R_eff, estimator)
* ``name[_label]_amplitude_pmf.csv``  one per run when the amplitude
  histogram is requested
* ``name[_label]_events.csv``, ``name[_label]_signal.csv``  with the
  event export (the signal when the run is sampled)
* ``name_curves.csv``            for curve-only experiments
* ``name_report.json``           empirical rates, cutoff and Hooge analyses
* ``name_meta.json``             everything needed to re-run exactly
* ``name_plot.py``               plain-text plot script for the CSVs

Results are bit-identical for a given seed regardless of the worker
count: every realization runs on a sub-stream derived from the master
seed by its index, the reduction is ordered by index, and a frequency's
value does not depend on which thread computed it.
"""
from __future__ import annotations

import functools
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from . import analysis as _analysis
from .analytic import one_over_f_window
from .distributions import NonergodicError, UniformRates, detrap_pdf, free_probability
from .presets import (
    _ESTIMATORS, FIG2_COMPONENT_RATES, FIG2_RATE_BOUNDS, ExperimentSpec, spec_to_dict,
)
from .simulate import (
    SimConfig, _write_rows, binomial_pmf, occupancy_counts, simulate_realization,
    superpose,
)
from .spectra import (
    SpectrumEstimate,
    average_spectra,
    logbin_spectrum,
    periodogram_fft,
    periodogram_superposed_events,
    write_spectrum_csv,
)

__all__ = ["run", "run_spectrum_config", "RunResult"]


@dataclass
class RealizationResult:
    """Spectrum and empirical counts of one realization (all carriers)."""

    spectrum: SpectrumEstimate
    pulse_count: int
    free_time: float
    hist: Optional[np.ndarray]  # occupancy counts; sampled_fft only


@dataclass
class RunResult:
    """Averaged spectrum plus the empirical aggregates of one run."""

    spectrum: SpectrumEstimate
    nu_bar: float
    mean_current: float
    pulse_count: int
    hist: Optional[np.ndarray]  # occupancy counts summed over realizations


def _one_realization(config, estimator, freqs, threads, realization) -> RealizationResult:
    paths = simulate_realization(config, realization)
    hist = None
    if estimator == "sampled_fft":
        signal = superpose(paths, config.amplitude, config.sample_dt)
        # the transform overwrites the signal, so it is counted first
        hist = occupancy_counts(signal)
        est = periodogram_fft(signal, workers=threads, overwrite=True)
    else:
        est = periodogram_superposed_events(
            paths, config.amplitude, freqs, workers=threads
        )
    return RealizationResult(
        spectrum=est,
        pulse_count=sum(p.pulse_count for p in paths),
        free_time=sum(p.free_time for p in paths),
        hist=hist,
    )


def _worker_count(workers: Optional[int]) -> int:
    """``workers``, or the CPU count when it is None; below 1 is an error."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError(f"workers must be >= 1 or None, got {workers}")
    return workers


def run_spectrum_config(
    config: SimConfig,
    estimator: str = "event_exact",
    freqs: Optional[np.ndarray] = None,
    workers: Optional[int] = None,
) -> RunResult:
    """Simulate all realizations of one config and average their spectra,
    on ``freqs`` (event_exact) or on the sampling's FFT grid (sampled_fft)."""
    if estimator not in _ESTIMATORS:
        raise ValueError(
            f"unknown estimator {estimator!r}; choose from {_ESTIMATORS}"
        )
    if estimator == "sampled_fft" and config.sample_dt is None:
        raise ValueError("sampled_fft estimator needs sample_dt in the config")
    if estimator == "event_exact" and freqs is None:
        raise ValueError("event_exact estimator needs freqs")
    if estimator == "sampled_fft" and freqs is not None:
        raise ValueError("sampled_fft estimator takes no freqs: its grid is k/(L dt)")

    n_workers = _worker_count(workers)
    R = config.n_realizations
    # processes over realizations, or, for a single realization, threads
    # within its transform
    pooled = n_workers > 1 and R > 1
    task = functools.partial(
        _one_realization, config, estimator, freqs, 1 if pooled else n_workers
    )
    if pooled:
        chunk = max(1, R // (4 * n_workers))
        # the pool forks every worker at its first submit
        with ProcessPoolExecutor(max_workers=min(n_workers, R)) as pool:
            results = list(pool.map(task, range(R), chunksize=chunk))
    else:
        results = list(map(task, range(R)))

    averaged = average_spectra([r.spectrum for r in results])

    total_pulses = sum(r.pulse_count for r in results)
    total_free = sum(r.free_time for r in results)
    hist = None
    if results[0].hist is not None:
        hist = np.sum([r.hist for r in results], axis=0)
    return RunResult(
        spectrum=averaged,
        nu_bar=total_pulses / (R * config.n_carriers * config.horizon),
        mean_current=config.amplitude * total_free / (R * config.horizon),
        pulse_count=total_pulses,
        hist=hist,
    )


def _analyze_run(spec, label, config, result, p_fit) -> dict:
    """Report entry of one run; ``p_fit`` is the mean free fraction of
    the occupancy histogram, None when no histogram was requested."""
    info = {
        "label": label,
        "nu_bar_empirical": result.nu_bar,
        "mean_current": result.mean_current,
        "pulse_count": result.pulse_count,
    }
    est = result.spectrum
    gamma_max = config.rates.gamma_max
    # one low-rate floor, the finite-observation one, and one flicker
    # window (cycles per time) serve every analysis
    auto = _analysis.effective_cutoff(config)
    lo, hi = one_over_f_window(auto.gamma_min_eff, gamma_max)

    if "cutoff" in spec.analyses:
        info["cutoff"] = {
            "auto_regime": auto.regime,
            "auto_gamma_min_eff": auto.gamma_min_eff,
            "by_regime": _analysis.cutoff_by_regime(config),
        }
        try:
            onset = _analysis.plateau_onset(logbin_spectrum(est, 4), (lo, hi))
        except ValueError:
            onset = float("nan")
        info["cutoff"]["measured_onset"] = onset

    if "hooge" in spec.analyses:
        hooge = {
            "predicted": _analysis.hooge_alpha_predicted(
                config.trapping.rate, gamma_max
            ),
            "exact": _analysis.hooge_alpha_exact(
                result.nu_bar, config.trapping.mean_time, gamma_max
            ),
        }
        try:
            fitted = _analysis.hooge_alpha_fitted(
                est, result.mean_current, config.n_carriers, (lo, hi)
            )
        except ValueError as exc:
            # no free time, or a floor above f_max leaves no point to fit
            hooge["fit_window"] = [lo, hi]
            hooge["fit_skipped"] = str(exc)
        else:
            hooge["fitted"] = fitted.alpha
            hooge["fit_window"] = [lo, hi]
            hooge["slope_deviation"] = fitted.slope_deviation
            hooge["in_band"] = fitted.in_band
        info["hooge"] = hooge

    if p_fit is not None:
        # beside the analytic free probability when the mean gap exists
        try:
            p_analytic = free_probability(config.rates, config.trapping)
        except NonergodicError:
            p_analytic = None
        info["amplitude"] = {"p_fit": p_fit, "p_analytic": p_analytic}

    return info


def _plot_script(spec: ExperimentSpec, csv_names: list[str], report_name: str) -> str:
    lines = [
        "#!/usr/bin/env python3",
        f'"""Plot the {spec.name} artifacts (regenerate by re-running the experiment)."""',
        "import json",
        "import numpy as np",
        "import matplotlib.pyplot as plt",
        "",
    ]
    if spec.kind == "curves":
        lines += [
            f'data = np.genfromtxt("{csv_names[0]}", delimiter=",", names=True)',
            "names = data.dtype.names",
            'plt.loglog(data["tau"], data["mixture"], "r-", lw=2, label="rate mixture")',
            "for name in names[2:]:",
            '    plt.loglog(data["tau"], data[name], "k--", lw=0.7)',
            'plt.xlabel("detrapping time")',
            'plt.ylabel("probability density")',
            "plt.ylim(1e-12, 1e2)",
            "plt.legend()",
            f'plt.savefig("{spec.name}.png", dpi=150)',
        ]
    else:
        lines += [f'report = json.load(open("{report_name}"))']
        for csv_name in csv_names:
            lines += [
                f'data = np.genfromtxt("{csv_name}", delimiter=",", names=True, '
                'dtype=None, encoding=None)',
                f'plt.loglog(data["f"], data["S"], label="{csv_name}")',
            ]
        lines += [
            "run0 = report['runs'][0]",
            "nu = run0['nu_bar_empirical']",
            "f = data['f']",
        ]
        _, cfg0 = spec.runs[0]
        amp = cfg0.amplitude**2 * cfg0.n_carriers
        lines += [
            f"ref = {amp} * nu / ({cfg0.rates.gamma_max} * f)",
            'plt.loglog(f, ref, "k--", label="flicker reference")',
            'plt.xlabel("frequency")',
            'plt.ylabel("power spectral density")',
            "plt.legend()",
            f'plt.savefig("{spec.name}.png", dpi=150)',
        ]
    return "\n".join(lines) + "\n"


def _export_events(config: SimConfig, stem: str, outdir: Path) -> list[str]:
    """Event-level CSV (one row per segment) plus the sampled first
    realization when a sampling interval is configured; returns the
    names of the files written."""
    from .simulate import write_event_csv, write_signal_csv

    ev_name = f"{stem}_events.csv"
    names = [ev_name]
    # one realization's paths at a time, written and dropped
    with open(outdir / ev_name, "w") as fh:
        for r in range(config.n_realizations):
            paths = simulate_realization(config, r)
            write_event_csv(fh, [paths], start=r)
            if r == 0 and config.sample_dt is not None:
                signal = superpose(paths, config.amplitude, config.sample_dt)
                sig_name = f"{stem}_signal.csv"
                with open(outdir / sig_name, "w") as sig_fh:
                    write_signal_csv(sig_fh, signal, config.seed)
                del signal
                names.append(sig_name)
            del paths
    return names


def _write_curves(spec: ExperimentSpec, outdir: Path) -> list[str]:
    model = UniformRates(*FIG2_RATE_BOUNDS)
    tau = np.geomspace(1e-3, 1e4, 281)
    mixture = detrap_pdf(tau, model)
    components = [
        rate * np.exp(-rate * tau) / len(FIG2_COMPONENT_RATES)
        for rate in FIG2_COMPONENT_RATES
    ]
    name = f"{spec.name}_curves.csv"
    with open(outdir / name, "w") as fh:
        header = ["tau", "mixture"] + [
            f"comp_{i}" for i in range(len(FIG2_COMPONENT_RATES))
        ]
        fh.write(",".join(header) + "\n")
        columns = [mixture] + components
        _write_rows(fh, tau, *(piece for c in columns for piece in (",", c)), "\n")
    return [name]


def run(
    spec: ExperimentSpec,
    outdir,
    workers: Optional[int] = None,
    events_csv: bool = False,
) -> dict:
    """Execute an experiment spec and write its artifact set.

    Returns a dict mapping each data file's name, and the roles
    ``report``, ``meta``, ``plot`` and (the last run's) ``amplitude_pmf``,
    to paths.  ``events_csv`` additionally writes one row per simulated
    segment (event-level export; large for long horizons).
    """
    _worker_count(workers)
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    artifacts: dict[str, str] = {}
    report: dict = {"name": spec.name, "scale": spec.scale, "runs": []}

    if spec.kind == "curves":
        csv_names = _write_curves(spec, outdir)
        written = list(csv_names)
        report["component_rates"] = [float(g) for g in FIG2_COMPONENT_RATES]
        report["rate_bounds"] = list(FIG2_RATE_BOUNDS)
    else:
        csv_names = []  # the spectra, which the plot script reads
        written = []  # every data file, in the order written
        for label, config in spec.runs:
            freqs = None
            if spec.estimator == "event_exact":
                freqs = spec.event_grid(config)
            result = run_spectrum_config(
                config, estimator=spec.estimator, freqs=freqs, workers=workers
            )
            est = result.spectrum
            if spec.bins_per_decade is not None:
                est = logbin_spectrum(est, spec.bins_per_decade)
            stem = f"{spec.name}_{label}" if label else spec.name
            csv_name = f"{stem}_spectrum.csv"
            with open(outdir / csv_name, "w") as fh:
                write_spectrum_csv(fh, est)
            csv_names.append(csv_name)
            written.append(csv_name)
            p_fit = None
            if "amplitude_pmf" in spec.analyses:
                pmf = result.hist / result.hist.sum()
                p_fit = float(np.arange(len(pmf)) @ pmf) / config.n_carriers
                # the binomial of the measured mean occupancy
                model = binomial_pmf(config.n_carriers, p_fit)
                pmf_name = f"{stem}_amplitude_pmf.csv"
                with open(outdir / pmf_name, "w") as fh:
                    fh.write("count,pmf,binomial\n")
                    _write_rows(fh, np.arange(len(pmf)), ",", pmf, ",", model, "\n")
                written.append(pmf_name)
                artifacts["amplitude_pmf"] = str(outdir / pmf_name)
            report["runs"].append(_analyze_run(spec, label, config, result, p_fit))

            if events_csv:
                written += _export_events(config, stem, outdir)

    report_name = f"{spec.name}_report.json"
    with open(outdir / report_name, "w") as fh:
        json.dump(report, fh, indent=2)
        fh.write("\n")

    plot_name = f"{spec.name}_plot.py"
    with open(outdir / plot_name, "w") as fh:
        fh.write(_plot_script(spec, csv_names, report_name))

    meta_name = f"{spec.name}_meta.json"
    meta = {
        "spec": spec_to_dict(spec),
        "workers": workers,
        "numpy_version": np.__version__,
        "wall_time_s": time.perf_counter() - t_start,
        "artifacts": written + [report_name, plot_name],
    }
    with open(outdir / meta_name, "w") as fh:
        json.dump(meta, fh, indent=2)
        fh.write("\n")

    for name in written:
        artifacts[name] = str(outdir / name)
    artifacts["report"] = str(outdir / report_name)
    artifacts["meta"] = str(outdir / meta_name)
    artifacts["plot"] = str(outdir / plot_name)
    return artifacts
