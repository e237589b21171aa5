"""Periodogram estimation and spectrum bookkeeping.

Two estimators of the same one-sided definition ``S(f) = (2/T) |F(f)|^2``
with ``F`` the finite-time Fourier integral of the current:

* ``periodogram_superposed_events`` integrates the piecewise-constant
  current of one or more carriers analytically pulse by pulse, so it has
  no discretization error and can be evaluated on sparse log-spaced grids
  over millions of pulses.
* ``periodogram_fft`` is the standard rectangular-window periodogram of a
  uniformly sampled signal on its natural frequencies k/T.

The signal mean is kept in the signal (the definition uses the raw
current); evaluating on natural frequencies k/T makes the mean contribute
only at the excluded zero bin, so grids should be snapped to k/T — use
:func:`natural_frequencies`.

Event-exact trig is evaluated in float32 after reducing phases modulo one
cycle in float64.  The per-term error is ~4e-7 radians, which after the
pairwise-summed accumulation stays orders of magnitude below the
realization noise of any averaged spectrum; pass ``trig_dtype=np.float64``
to make the kernel fully double precision.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .simulate import CarrierPath, SampledSignal

__all__ = [
    "SpectrumEstimate",
    "natural_frequencies",
    "periodogram_superposed_events",
    "periodogram_fft",
    "average_spectra",
    "logbin_spectrum",
    "write_spectrum_csv",
]

_TWO_PI = 2.0 * np.pi
_EVENT_CHUNK = 1 << 16  # fixed so results do not depend on scheduling


@dataclass
class SpectrumEstimate:
    """Frequency grid plus one-sided PSD values.

    ``n_averaged`` counts the realizations merged into ``values``;
    ``estimator`` records provenance ("event_exact" or "sampled_fft").
    """

    freqs: np.ndarray
    values: np.ndarray
    n_averaged: int
    estimator: str
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        if np.any(self.freqs <= 0.0):
            raise ValueError("frequencies must be positive (zero bin excluded)")
        if np.any(np.diff(self.freqs) <= 0.0):
            raise ValueError("frequencies must be strictly increasing")


def natural_frequencies(
    horizon: float,
    f_max: float,
    f_min: float | None = None,
    points_per_decade: int = 40,
) -> np.ndarray:
    """Log-spaced selection from the natural grid k/horizon, k >= 1.

    Snapping to natural frequencies keeps the signal mean confined to the
    excluded zero bin of the finite-time periodogram.
    """
    if f_min is None:
        f_min = 1.0 / horizon
    if not (0.0 < f_min < f_max):
        raise ValueError("need 0 < f_min < f_max")
    n = int(np.ceil(np.log10(f_max / f_min) * points_per_decade)) + 1
    ks = np.rint(horizon * np.geomspace(f_min, f_max, n)).astype(np.int64)
    ks = np.unique(np.clip(ks, 1, None))
    return ks.astype(np.float64) / horizon


def _fourier_sums(times: np.ndarray, freqs: np.ndarray, trig_dtype) -> tuple:
    """(sum cos, sum sin) of 2*pi*f*t over events, one pair per frequency.

    Phases are reduced modulo one cycle in float64 before the trig calls;
    sums accumulate in float64 regardless of the trig dtype.
    """
    cos_out = np.zeros(len(freqs))
    sin_out = np.zeros(len(freqs))
    for j, f in enumerate(freqs):
        acc_c = 0.0
        acc_s = 0.0
        for i in range(0, len(times), _EVENT_CHUNK):
            x = f * times[i : i + _EVENT_CHUNK]
            x -= np.floor(x)
            x *= _TWO_PI
            ph = x.astype(trig_dtype, copy=False)
            acc_c += float(np.cos(ph).sum(dtype=np.float64))
            acc_s += float(np.sin(ph).sum(dtype=np.float64))
        cos_out[j] = acc_c
        sin_out[j] = acc_s
    return cos_out, sin_out


def _pulse_transform(
    starts: np.ndarray, ends: np.ndarray, freqs: np.ndarray, trig_dtype
) -> np.ndarray:
    """Fourier integral of a unit pulse train: sum over pulses of
    (e^{-i w t0} - e^{-i w t1}) / (i w)."""
    c0, s0 = _fourier_sums(starts, freqs, trig_dtype)
    c1, s1 = _fourier_sums(ends, freqs, trig_dtype)
    # sum of e^{-i w t} is (sum cos) - i (sum sin)
    numerator = (c0 - c1) - 1j * (s0 - s1)
    return numerator / (1j * _TWO_PI * freqs)


def periodogram_superposed_events(
    paths: Sequence[CarrierPath],
    amplitude: float,
    freqs: np.ndarray,
    trig_dtype=np.float32,
) -> SpectrumEstimate:
    """Exact finite-time periodogram of the summed current of the carriers.

    The carriers' Fourier integrals add coherently before the modulus, so
    this equals the periodogram of the superposed signal with no sampling
    involved.  Pass ``[path]`` for a single carrier's pulse train.
    """
    freqs = np.asarray(freqs, dtype=float)
    if np.any(freqs <= 0.0):
        raise ValueError("frequencies must be positive")
    T = paths[0].horizon
    if any(p.horizon != T for p in paths):
        raise ValueError("mismatched horizons")
    total = np.zeros(len(freqs), dtype=complex)
    for p in paths:
        starts, ends = p.pulse_bounds()
        if len(starts):
            total += _pulse_transform(starts, ends, freqs, trig_dtype)
    values = (2.0 * amplitude**2 / T) * np.abs(total) ** 2
    return SpectrumEstimate(
        freqs=freqs,
        values=values,
        n_averaged=1,
        estimator="event_exact",
        metadata={"horizon": T, "n_carriers": len(paths)},
    )


def periodogram_fft(signal: SampledSignal) -> SpectrumEstimate:
    """Rectangular-window periodogram of a sampled signal.

    Natural frequencies k/(L dt) for k = 1..L//2; normalized to the same
    one-sided convention as the event-exact estimator, zero bin dropped.
    """
    x = np.asarray(signal.values, dtype=float)
    if x.size < 2:
        raise ValueError("signal too short")
    length = x.size
    spectrum = np.fft.rfft(x)
    values = (2.0 * signal.dt / length) * np.abs(spectrum[1:]) ** 2
    freqs = np.arange(1, len(spectrum)) / (length * signal.dt)
    return SpectrumEstimate(
        freqs=freqs,
        values=values,
        n_averaged=1,
        estimator="sampled_fft",
        metadata={
            "horizon": signal.horizon,
            "dt": signal.dt,
            "n_carriers": signal.n_carriers,
        },
    )


def average_spectra(estimates: Sequence[SpectrumEstimate]) -> SpectrumEstimate:
    """Pointwise mean over realizations (fixed input order, fixed reduction)."""
    if not estimates:
        raise ValueError("nothing to average")
    base = estimates[0]
    for est in estimates[1:]:
        if not np.array_equal(est.freqs, base.freqs):
            raise ValueError("frequency grids differ")
    stacked = np.stack([est.values for est in estimates], axis=0)
    tags = {est.estimator for est in estimates}
    return SpectrumEstimate(
        freqs=base.freqs.copy(),
        values=stacked.mean(axis=0),
        n_averaged=sum(est.n_averaged for est in estimates),
        estimator=base.estimator if len(tags) == 1 else "mixed",
        metadata=dict(base.metadata),
    )


def logbin_spectrum(est: SpectrumEstimate, bins_per_decade: int) -> SpectrumEstimate:
    """Geometric-mean frequency and arithmetic-mean PSD per log bin.

    Bin edges sit on the absolute grid 10^(j / bins_per_decade), so a grid
    that already places one point per bin passes through unchanged.
    """
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be >= 1")
    logf = np.log10(est.freqs)
    j0 = int(np.floor(logf[0] * bins_per_decade))
    j1 = int(np.ceil(logf[-1] * bins_per_decade)) + 1
    edges = np.arange(j0, j1 + 1) / bins_per_decade
    idx = np.digitize(logf, edges) - 1
    freqs = []
    values = []
    for j in np.unique(idx):
        sel = idx == j
        freqs.append(10.0 ** logf[sel].mean())
        values.append(est.values[sel].mean())
    meta = dict(est.metadata)
    meta["bins_per_decade"] = bins_per_decade
    return SpectrumEstimate(
        freqs=np.asarray(freqs),
        values=np.asarray(values),
        n_averaged=est.n_averaged,
        estimator=est.estimator,
        metadata=meta,
    )


def write_spectrum_csv(fileobj, est: SpectrumEstimate) -> None:
    """Columns (f, S, R_eff, estimator); 17 significant digits."""
    fileobj.write("f,S,R_eff,estimator\n")
    for f, v in zip(est.freqs, est.values):
        fileobj.write(f"{f:.17g},{v:.17g},{est.n_averaged},{est.estimator}\n")
