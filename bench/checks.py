"""Output checks: the float64 reference spectrum and the closed forms.

``reference_error`` compares written spectra with the stored float64
reference; it only applies at the seed the reference was made for.  The
closed-form checks hold at any seed: the fitted flicker slope and level
against ``psd_multi_carrier``, a normalized amplitude pmf, a finite
report and an event export that agrees with the report.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from trapnoise import analysis, analytic
from trapnoise.spectra import SpectrumEstimate

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

# Frequencies in the written CSV and the reference come from the same
# formula; anything looser than rounding means the grid changed.
_FREQ_RTOL = 1e-12


class CheckFailed(Exception):
    """An output did not match what the benchmark expects."""


def stem(spec, label: str) -> str:
    return f"{spec.name}_{label}" if label else spec.name


def read_spectra(spec, outdir: Path) -> dict:
    """label -> (freqs, values) of every spectrum CSV a run wrote."""
    out = {}
    for label, _ in spec.runs:
        data = np.loadtxt(
            outdir / f"{stem(spec, label)}_spectrum.csv",
            delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2,
        )
        out[label] = (data[:, 0], data[:, 1])
    return out


def reference_path(workload, tiny: bool) -> Path:
    """Stored reference of one workload size (one file when both sizes agree)."""
    suffix = "-tiny" if tiny and workload.tiny_size != workload.size else ""
    return REFERENCE_DIR / f"{workload.name}{suffix}.csv"


def write_reference(path: Path, spectra: dict) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("label,f,S\n")
        for label, (freqs, values) in spectra.items():
            for f, s in zip(freqs, values):
                fh.write(f"{label},{f:.17g},{s:.17g}\n")


def load_reference(path: Path) -> dict:
    rows: dict = {}
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            rows.setdefault(row["label"], []).append((float(row["f"]), float(row["S"])))
    return {
        label: (np.array([r[0] for r in pts]), np.array([r[1] for r in pts]))
        for label, pts in rows.items()
    }


def match_reference(spectra: dict, reference: dict) -> dict:
    """label -> indices into the written spectrum of each reference point."""
    out = {}
    for label, (ref_f, _) in reference.items():
        if label not in spectra:
            raise CheckFailed(f"no spectrum written for run {label!r}")
        freqs = spectra[label][0]
        idx = np.clip(np.searchsorted(freqs, ref_f), 0, len(freqs) - 1)
        if not np.allclose(freqs[idx], ref_f, rtol=_FREQ_RTOL, atol=0.0):
            raise CheckFailed(f"run {label!r}: frequency grid differs from the reference")
        out[label] = idx
    return out


def reference_error(spectra: dict, reference: dict) -> float:
    """Largest relative difference from the reference over all its points."""
    worst = 0.0
    for label, idx in match_reference(spectra, reference).items():
        ref_s = reference[label][1]
        err = np.abs(spectra[label][1][idx] - ref_s) / ref_s
        worst = max(worst, float(err.max()))
    return worst


def check_flicker(workload, spec, spectra: dict, report: dict) -> list:
    """Fitted slope and level on each run's flicker window vs the closed form.

    Unless the workload names a window, it is ``one_over_f_window`` of the
    predicted low-rate floor and gamma_max.  The level is the mean of S*f
    there, which is unbiased for a single periodogram (a log fit of one
    is biased low by e^-0.58).
    """
    problems = []
    slope_tol, level_tol = workload.slope_tol, workload.level_tol
    for (label, config), run_info in zip(spec.runs, report["runs"]):
        freqs, values = spectra[label]
        if workload.flicker_window is not None:
            lo, hi = workload.flicker_window
        else:
            floor = analysis.effective_cutoff(config).gamma_min_eff
            lo, hi = analytic.one_over_f_window(floor, config.rates.gamma_max)
        sel = (freqs >= lo) & (freqs <= hi)
        if np.count_nonzero(sel) < 8:
            problems.append(f"run {label!r}: flicker window [{lo:.3g}, {hi:.3g}] too narrow")
            continue
        slope, _ = analysis.fit_loglog(freqs, values, (lo, hi))
        est = SpectrumEstimate(freqs=freqs, values=values, n_averaged=1, estimator="")
        level = analysis.flicker_line_level(est, (lo, hi))
        expected = analytic.psd_multi_carrier(
            1.0, config.n_carriers, config.amplitude,
            run_info["nu_bar_empirical"], config.rates.gamma_max,
        )
        if abs(slope + 1.0) > slope_tol:
            problems.append(f"run {label!r}: flicker slope {slope:.3f}, want -1 +- {slope_tol}")
        ratio = level / expected
        if not 1.0 / level_tol <= ratio <= level_tol:
            problems.append(f"run {label!r}: flicker level {ratio:.3f} x closed form")
    return problems


def check_report(report: dict) -> list:
    """Every number in the report is finite.

    ``measured_onset`` may be NaN: the runner writes NaN there when the
    spectrum never leaves its flicker line.  ``None`` marks a quantity
    that does not exist for the model (e.g. a nonergodic mean).
    """
    problems = []

    def walk(node, where):
        if isinstance(node, dict):
            for key, value in node.items():
                walk(value, f"{where}.{key}")
        elif isinstance(node, list):
            for i, value in enumerate(node):
                walk(value, f"{where}[{i}]")
        elif isinstance(node, float) and not math.isfinite(node):
            if not (where.endswith(".measured_onset") and math.isnan(node)):
                problems.append(f"report{where} = {node}")

    walk(report, "")
    return problems


def check_pmf(path: Path) -> list:
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    problems = []
    for column, name in ((1, "pmf"), (2, "binomial")):
        total = float(data[:, column].sum())
        if abs(total - 1.0) > 1e-9 or np.any(data[:, column] < 0.0):
            problems.append(f"{name} column sums to {total!r}")
    return problems


def check_events(spec, outdir: Path, report: dict) -> list:
    """Each run's event CSV holds one pulse row per pulse the report counts."""
    problems = []
    for (label, _), run_info in zip(spec.runs, report["runs"]):
        pulses = (outdir / f"{stem(spec, label)}_events.csv").read_bytes().count(b",pulse,")
        if pulses != run_info["pulse_count"]:
            problems.append(
                f"run {label!r}: events CSV has {pulses} pulse rows, "
                f"report counts {run_info['pulse_count']}"
            )
    return problems


def check_run(workload, spec, outdir: Path, artifacts: dict) -> list:
    """Closed-form checks for one run; returns the problems found."""
    with open(artifacts["report"]) as fh:
        report = json.load(fh)
    spectra = read_spectra(spec, outdir)
    problems = check_report(report)
    problems += check_flicker(workload, spec, spectra, report)
    if "amplitude_pmf" in artifacts:
        problems += check_pmf(Path(artifacts["amplitude_pmf"]))
    if workload.events_csv:
        problems += check_events(spec, outdir, report)
    return problems
