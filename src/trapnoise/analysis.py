"""Finite-observation cutoff predictions, Hooge-parameter estimates, and
slope/window fitting helpers.

A finite run of duration T samples only K detrapping rates, so the
smallest rate actually seen — a uniform order statistic with expectation
``(gamma_max - gamma_min)/(K + 1) + gamma_min`` — acts as an effective
low-rate floor and produces a spurious low-frequency plateau.  Averaging
R independent runs multiplies the sample size and pushes the floor down
to ``(R + gamma_max <pulse>)/(R T)``.

The flicker spectrum rewritten in Hooge form ``S = I^2 alpha / (N f)``
gives ``alpha = trapping_rate / gamma_max`` when pulses are long compared
to gaps, and ``1 / (nu <pulse>^2 gamma_max)`` without that assumption.
Fitted to a measured spectrum, alpha comes with the deviation of the free
slope from -1 and an ``in_band`` verdict, values a report records.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .distributions import (
    NonergodicError, _require_integer, _require_positive, detrap_mean,
)
from .simulate import SimConfig
from .spectra import SpectrumEstimate

__all__ = [
    "CutoffPrediction",
    "HoogeEstimate",
    "MaterialParams",
    "expected_min_rate",
    "effective_cutoff",
    "cutoff_by_regime",
    "fitted_floor_rate",
    "flicker_line_level",
    "line_departure_frequency",
    "hooge_alpha_predicted",
    "hooge_alpha_exact",
    "hooge_alpha_fitted",
    "pulse_height_from_material",
    "trapping_rate_from_material",
    "mean_current_from_material",
    "carrier_count",
    "fit_loglog",
    "plateau_onset",
]

# candidate floors scanned by fitted_floor_rate
_FLOOR_GRID = 140
# the share of its flicker line below which a spectrum has departed from it
_DEPARTURE_RATIO = 2.0**-0.5

_REGIMES = (
    "ergodic_exact",
    "broad_range",
    "nonergodic",
    "long_trapping",
    "multi_experiment",
)


@dataclass(frozen=True)
class CutoffPrediction:
    """Effective minimum detrapping rate and the approximation that produced it."""

    gamma_min_eff: float
    regime: str


@dataclass(frozen=True)
class HoogeEstimate:
    """Hooge coefficient fitted to a measured spectrum, with the deviation
    of the freely fitted slope from -1 (None when the window holds fewer
    than two points) and whether that deviation puts the window in the
    flicker band."""

    alpha: float
    slope_deviation: Optional[float]
    in_band: bool


@dataclass(frozen=True)
class MaterialParams:
    """Physical sample parameters tying pulse height and trapping rate to
    measurable quantities; every field must be finite and positive."""

    charge: float
    drift_speed: float
    thermal_speed: float
    length: float
    cross_section: float
    carrier_density: float
    trap_density: float
    capture_cross_section: float

    def __post_init__(self):
        _require_positive(**self.__dict__)


def expected_min_rate(gamma_min: float, gamma_max: float, pulse_count: int) -> float:
    """Expected smallest of ``pulse_count`` uniform rate draws.

    The minimum of K uniforms on [0, 1] is Beta(1, K) with mean
    1/(K + 1); rescaling to [gamma_min, gamma_max] gives the result.
    """
    _require_integer(1, pulse_count=pulse_count)
    return (gamma_max - gamma_min) / (pulse_count + 1) + gamma_min


def _cutoff_one(config: SimConfig, regime: str) -> float:
    a = config.rates.gamma_min
    b = config.rates.gamma_max
    theta = config.trapping.mean_time
    T = config.horizon
    R = config.n_realizations

    if regime == "ergodic_exact":
        tau = detrap_mean(config.rates)
        cycle = theta + tau
        return (b - a) * cycle / (cycle + R * T) + a
    if regime == "broad_range":
        if a <= 0.0:
            raise NonergodicError("broad_range needs gamma_min > 0")
        log_ratio = np.log(b / a)
        return b * (b * theta + log_ratio) / (b * (theta + T) + log_ratio) + a
    if regime == "nonergodic":
        return (1.0 + b * theta + np.log(b * T)) / T
    if regime == "long_trapping":
        return b * theta / T
    return (R + b * theta) / (R * T)  # multi_experiment


def effective_cutoff(config: SimConfig) -> CutoffPrediction:
    """Effective low-rate floor of a finite run.

    The ergodic exact form when ``gamma_min * horizon >= 1``, otherwise
    the nonergodic substitution (``gamma_min -> 1/T``), with the
    multi-experiment form when several realizations are averaged.
    :func:`cutoff_by_regime` gives the floor of every regime.
    """
    if config.rates.gamma_min * config.horizon >= 1.0:
        regime = "ergodic_exact"
    elif config.n_realizations > 1:
        regime = "multi_experiment"
    else:
        regime = "nonergodic"
    value = _cutoff_one(config, regime)
    return CutoffPrediction(gamma_min_eff=float(value), regime=regime)


def cutoff_by_regime(config: SimConfig) -> dict:
    """The floor of every regime by name, None where the regime does not
    exist (``broad_range`` and ``ergodic_exact`` need gamma_min > 0)."""
    out = {}
    for regime in _REGIMES:
        try:
            out[regime] = float(_cutoff_one(config, regime))
        except NonergodicError:
            out[regime] = None
    return out


def hooge_alpha_predicted(trapping_rate: float, gamma_max: float) -> float:
    """alpha = trapping_rate / gamma_max, both finite and positive; assumes
    pulses much longer than gaps (compare :func:`hooge_alpha_exact` where
    they are not)."""
    _require_positive(trapping_rate=trapping_rate, gamma_max=gamma_max)
    return trapping_rate / gamma_max


def hooge_alpha_exact(pulse_rate: float, mean_pulse: float, gamma_max: float) -> float:
    """Unapproximated form ``1 / (nu <pulse>^2 gamma_max)``, all three
    finite and positive; a run without pulses is named as such."""
    if pulse_rate == 0.0:
        raise ValueError("pulse rate must be positive")
    _require_positive(
        **{"pulse rate": pulse_rate}, mean_pulse=mean_pulse, gamma_max=gamma_max
    )
    return 1.0 / (pulse_rate * mean_pulse**2 * gamma_max)


def hooge_alpha_fitted(
    est: SpectrumEstimate,
    mean_current: float,
    n_carriers: int,
    window: tuple,
) -> HoogeEstimate:
    """Invert ``S = I^2 alpha / (N f)`` on a window of the spectrum.

    alpha is ``N A / I^2`` with A the arithmetic mean of S*f over the
    window (:func:`flicker_line_level`).  Periodogram ordinates scatter
    as S times an Exp(1) variable, so a least-squares fit of log S with
    the slope held at -1 (a geometric mean of S*f) reads low by e^-gamma,
    about 0.56, on a single realization; the arithmetic mean is
    unbiased.  Rescaling the amplitude (a -> 2a: S -> 4S, I -> 2I)
    cancels bit for bit.  A free-slope fit alongside reports the
    deviation; the window is in the flicker band when it is at most 0.2.
    A window of one point has no slope: the deviation is None and the
    window is not in band.
    """
    _require_positive(**{"mean current": mean_current})
    _require_integer(1, n_carriers=n_carriers)
    alpha = float(n_carriers * flicker_line_level(est, window) / mean_current**2)
    try:
        deviation = abs(fit_loglog(est.freqs, est.values, window)[0] + 1.0)
    except ValueError:  # fewer than two points in the window
        return HoogeEstimate(alpha=alpha, slope_deviation=None, in_band=False)
    return HoogeEstimate(
        alpha=alpha, slope_deviation=deviation, in_band=deviation <= 0.2
    )


def pulse_height_from_material(m: MaterialParams) -> float:
    """Single-carrier current step, charge * drift speed / sample length."""
    return m.charge * m.drift_speed / m.length


def trapping_rate_from_material(m: MaterialParams) -> float:
    """Capture rate, (capture cross-section * thermal speed) * trap density."""
    return m.capture_cross_section * m.thermal_speed * m.trap_density


def carrier_count(m: MaterialParams) -> float:
    """Carriers in the sample, density * length * cross-section."""
    return m.carrier_density * m.length * m.cross_section


def mean_current_from_material(
    m: MaterialParams, pulse_rate: float, mean_pulse: float
) -> float:
    """Average current: the free-drift current scaled by the duty cycle
    ``nu * <pulse>`` of a carrier."""
    v_drift = pulse_rate * mean_pulse * m.drift_speed
    return m.cross_section * m.carrier_density * m.charge * v_drift


def fit_loglog(
    freqs: np.ndarray, values: np.ndarray, window: Optional[tuple] = None
) -> tuple[float, float]:
    """Power-law fit S = C f^slope over a frequency window.

    Returns (slope, C).
    """
    freqs = np.asarray(freqs, dtype=float)
    values = np.asarray(values, dtype=float)
    if window is not None:
        sel = (freqs >= window[0]) & (freqs <= window[1])
        freqs, values = freqs[sel], values[sel]
    if freqs.size < 2:
        raise ValueError("need at least two points to fit")
    slope, intercept = np.polyfit(np.log(freqs), np.log(values), 1)
    return float(slope), float(np.exp(intercept))


def fitted_floor_rate(
    est: SpectrumEstimate,
    pulse_rate: float,
    amplitude: float,
    trapping_rate: float,
    gamma_max: float,
    bounds: tuple,
) -> float:
    """Effective minimum detrapping rate fitted to a measured spectrum.

    Scans a log grid of candidate floors and returns the one whose exact
    closed-form spectrum (uniform rates on [floor, gamma_max], Poisson
    trapping) minimizes the mean squared log residual against
    ``est.values``.  This measures where the finite-observation plateau
    sits; feed a log-binned spectrum restricted to frequencies around and
    below the expected knee.
    """
    from .analytic import chi_exponential, chi_uniform_rate, psd_general_pulse

    lo, hi = bounds
    if not (0.0 < lo < hi < gamma_max):
        raise ValueError("need 0 < lo < hi < gamma_max")
    log_meas = np.log(est.values)
    best = lo
    best_resid = np.inf
    for floor in np.geomspace(lo, hi, _FLOOR_GRID):
        model = psd_general_pulse(
            est.freqs,
            amplitude,
            pulse_rate,
            functools.partial(chi_exponential, rate=trapping_rate),
            functools.partial(chi_uniform_rate, gamma_min=floor, gamma_max=gamma_max),
        )
        resid = float(np.mean((log_meas - np.log(model)) ** 2))
        if resid < best_resid:
            best, best_resid = floor, resid
    return float(best)


def flicker_line_level(est: SpectrumEstimate, window: tuple) -> float:
    """Measured flicker amplitude A of S ~= A/f, the mean of S*f over a
    window inside the 1/f region."""
    f1, f2 = window
    sel = (est.freqs >= f1) & (est.freqs <= f2)
    if not np.any(sel):
        raise ValueError("empty fit window")
    return float((est.values[sel] * est.freqs[sel]).mean())


def line_departure_frequency(freqs: np.ndarray, ratio: np.ndarray) -> float:
    """Highest frequency at which a spectrum drops below its flicker line.

    ``ratio`` is S(f)*f/A, the spectrum in units of the measured 1/f
    line.  The crossing is the highest point below ``_DEPARTURE_RATIO``
    whose neighbour below it is under that ratio too (so single noisy bins
    do not trigger), with the exact frequency log-interpolated against
    the point above it.  Returns NaN if the profile never departs.
    """
    freqs = np.asarray(freqs, dtype=float)
    ratio = np.asarray(ratio, dtype=float)
    below = ratio < _DEPARTURE_RATIO
    hits = np.flatnonzero(below[1:] & below[:-1])
    if not hits.size:
        return float("nan")
    i = hits[-1] + 1
    if i + 1 >= len(freqs) or not ratio[i + 1] > 0.0:
        return float(freqs[i])
    if ratio[i] == 0.0:  # the limit of the interpolation as ratio[i] -> 0
        return float(freqs[i + 1])
    lf = np.log(freqs[i : i + 2])
    lr = np.log(ratio[i : i + 2])
    t = (np.log(_DEPARTURE_RATIO) - lr[0]) / (lr[1] - lr[0])
    return float(np.exp(lf[0] + np.clip(t, 0.0, 1.0) * (lf[1] - lf[0])))


def plateau_onset(est: SpectrumEstimate, line_window: tuple) -> float:
    """Measured low-frequency cutoff of a flicker spectrum.

    The flicker line is measured on ``line_window`` and the onset is the
    highest frequency below that window where the spectrum has fallen
    to ``_DEPARTURE_RATIO`` times the line and stays below — the point
    where 1/f behavior gives way to the finite-observation plateau.  Only
    points below the window are scanned: inside it the spectrum is on the
    line by assumption, and on a single realization a wide window holds
    enough noisy bins for two to dip below that ratio together.  Feed
    a log-binned spectrum.
    """
    level = flicker_line_level(est, line_window)
    sel = est.freqs < line_window[0]
    ratio = est.values[sel] * est.freqs[sel] / level
    return line_departure_frequency(est.freqs[sel], ratio)
