"""Characteristic functions and the closed-form spectrum family.

All spectra here are one-sided power spectral densities of a current
composed of rectangular pulses of fixed height: gaps while the carrier is
trapped, pulses of height ``a`` while it drifts.  The general form is

    S(f) = (a^2 nu / (pi^2 f^2)) * Re[(1 - chi_p)(1 - chi_g)
                                      / (1 - chi_p chi_g)]

with ``chi_p`` and ``chi_g`` the characteristic functions of the pulse
and gap duration laws and ``nu`` the mean number of pulses per unit time.
Specializing the gap law to the uniform-rate mixture and the pulse law to
an exponential yields, in the window gamma_min << 2 pi f << gamma_max,
the pure flicker spectrum ``a^2 nu / (gamma_max f)``.

Frequencies are in cycles per unit time throughout; every ``psd_*``
takes them and the pulse height ``a`` finite and positive and rejects
any other.
"""
from __future__ import annotations

import numpy as np

from .distributions import (
    UniformRates, _require_integer, _require_nonnegative, _require_positive,
)

__all__ = [
    "chi_exponential",
    "chi_uniform_rate",
    "chi_uniform_rate_approx",
    "psd_general_pulse",
    "psd_poisson_pulse",
    "psd_lorentzian",
    "psd_full_expression",
    "psd_one_over_f",
    "psd_multi_carrier",
    "one_over_f_window",
]

_TWO_PI = 2.0 * np.pi
# factor kept between the flicker window and each rate bound
_FLICKER_MARGIN = 10.0


def _frequencies(f) -> np.ndarray:
    """``f`` as a float array, rejected unless every value is finite and
    positive, as the frequencies of a one-sided spectrum are."""
    f_arr = np.asarray(f, dtype=float)
    if not np.all((f_arr > 0.0) & (f_arr < np.inf)):
        raise ValueError("frequencies must be finite and positive")
    return f_arr


def chi_exponential(f, rate: float):
    """Characteristic function of an exponential duration with the given
    finite and positive rate: ``rate / (rate - 2 pi i f)``."""
    _require_positive(rate=rate)
    f = np.asarray(f, dtype=float)
    out = rate / (rate - _TWO_PI * 1j * f)
    return out if out.shape else complex(out)


def chi_uniform_rate(f, gamma_min: float, gamma_max: float):
    """Exact characteristic function of the uniform-rate gap mixture.

        chi(f) = 1 + (2 pi i f / (b - a)) * log((b - 2 pi i f) / (a - 2 pi i f))

    using the principal complex log.  For 0 <= a < b and real w = 2 pi f
    != 0, Im log((b - iw)/(a - iw)) lies in (-pi/2, pi/2), so the log never
    meets its branch cut, ``gamma_min = 0`` included.  ``f = 0`` returns
    exactly 1.  ``gamma_min == gamma_max`` is the exponential law.
    """
    UniformRates(gamma_min, gamma_max)  # the bounds' one rule
    a, b = float(gamma_min), float(gamma_max)
    if a == b:
        return chi_exponential(f, a)
    f_arr = np.asarray(f, dtype=float)
    w = np.atleast_1d(_TWO_PI * f_arr).astype(float)
    out = np.ones(w.shape, dtype=complex)
    nz = w != 0.0
    wn = w[nz]
    log_term = np.log((b - 1j * wn) / (a - 1j * wn))
    out[nz] = 1.0 + 1j * wn / (b - a) * log_term
    return out.reshape(f_arr.shape) if f_arr.shape else complex(out[0])


def chi_uniform_rate_approx(f, gamma_max: float):
    """Broad-range approximation of :func:`chi_uniform_rate`.

        chi(f) ~= 1 - (2 pi f / gamma_max) * [pi/2 + i log(2 pi f / gamma_max)]

    valid for gamma_min << 2 pi f << gamma_max, with gamma_max finite and
    positive.  The imaginary part is positive throughout 2 pi f < gamma_max,
    matching the exact form.
    """
    _require_positive(gamma_max=gamma_max)
    f_arr = np.asarray(f, dtype=float)
    x = _TWO_PI * f_arr / gamma_max
    with np.errstate(divide="ignore", invalid="ignore"):
        val = 1.0 - x * (0.5 * np.pi + 1j * np.log(x))
    out = np.where(x == 0.0, 1.0 + 0.0j, val)
    return out if out.shape else complex(out)


def psd_general_pulse(f, amplitude, pulse_rate, chi_pulse, chi_gap):
    """One-sided PSD of a renewal pulse train with arbitrary duration laws.

    Parameters
    ----------
    f : array_like
        Frequencies, all finite and > 0.
    amplitude : float
        Pulse height, finite and > 0.
    pulse_rate : float
        Mean number of pulses per unit time (nu), finite and >= 0.
    chi_pulse, chi_gap : callable
        Characteristic functions of the pulse and gap duration laws, of f
        alone, e.g. ``functools.partial(chi_exponential, rate=g)``.

    Raises
    ------
    ValueError
        If ``|1 - chi_pulse * chi_gap|`` falls below 1e-14 anywhere
        (frequency too close to 0: the expression is indeterminate).
    """
    _require_positive(amplitude=amplitude)
    _require_nonnegative(pulse_rate=pulse_rate)
    f_arr = _frequencies(f)
    cp = np.asarray(chi_pulse(f_arr), dtype=complex)
    cg = np.asarray(chi_gap(f_arr), dtype=complex)
    denom = 1.0 - cp * cg
    if np.any(np.abs(denom) < 1e-14):
        raise ValueError("indeterminate: |1 - chi_pulse*chi_gap| < 1e-14")
    ratio = (1.0 - cp) * (1.0 - cg) / denom
    out = (amplitude**2 * pulse_rate / (np.pi**2 * f_arr**2)) * np.real(ratio)
    return out if out.shape else float(out)


def psd_poisson_pulse(f, amplitude, pulse_rate, trapping_rate, chi_gap):
    """PSD with Poisson trapping (exponential pulses) and an arbitrary gap law:

        S(f) = (4 a^2 nu / g^2) * Re[1 / (1 - chi_gap(f) - 2 pi i f / g)]

    Algebraically identical to :func:`psd_general_pulse` with an
    exponential pulse characteristic function.
    """
    _require_positive(amplitude=amplitude, trapping_rate=trapping_rate)
    _require_nonnegative(pulse_rate=pulse_rate)
    f_arr = _frequencies(f)
    g = float(trapping_rate)
    cg = np.asarray(chi_gap(f_arr), dtype=complex)
    denom = 1.0 - cg - _TWO_PI * 1j * f_arr / g
    if np.any(np.abs(denom) < 1e-14):
        raise ValueError("indeterminate: denominator < 1e-14")
    out = (4.0 * amplitude**2 * pulse_rate / g**2) * np.real(1.0 / denom)
    return out if out.shape else float(out)


def psd_lorentzian(f, amplitude, pulse_rate, trapping_rate, detrapping_rate):
    """Random-telegraph limit (exponential pulses and gaps):

        S(f) = 4 a^2 nu / ((g_p + g_g)^2 + (2 pi f)^2)

    with ``amplitude`` and both rates finite and positive.
    """
    _require_positive(
        amplitude=amplitude, trapping_rate=trapping_rate, detrapping_rate=detrapping_rate
    )
    _require_nonnegative(pulse_rate=pulse_rate)
    f_arr = _frequencies(f)
    lam = trapping_rate + detrapping_rate
    out = 4.0 * amplitude**2 * pulse_rate / (lam**2 + (_TWO_PI * f_arr) ** 2)
    return out if out.shape else float(out)


def psd_full_expression(f, amplitude, pulse_rate, trapping_rate, gamma_max):
    """Flicker spectrum with the first-order correction retained:

        S(f) = (a^2 nu gamma_max / (g^2 f))
               / [(pi/2)^2 + (gamma_max/g - log(2 pi f / gamma_max))^2]

    Reduces to ``a^2 nu / (gamma_max f)`` when gamma_max/g dominates both
    pi/2 and the log term.
    """
    _require_positive(amplitude=amplitude, trapping_rate=trapping_rate, gamma_max=gamma_max)
    _require_nonnegative(pulse_rate=pulse_rate)
    f_arr = _frequencies(f)
    g = float(trapping_rate)
    bracket = gamma_max / g - np.log(_TWO_PI * f_arr / gamma_max)
    out = (amplitude**2 * pulse_rate * gamma_max / (g**2 * f_arr)) / (
        (0.5 * np.pi) ** 2 + bracket**2
    )
    return out if out.shape else float(out)


def psd_one_over_f(f, amplitude, pulse_rate, gamma_max):
    """Pure flicker spectrum ``a^2 nu / (gamma_max f)`` for a single carrier,
    with ``amplitude`` and ``gamma_max`` finite and positive."""
    _require_positive(amplitude=amplitude, gamma_max=gamma_max)
    _require_nonnegative(pulse_rate=pulse_rate)
    f_arr = _frequencies(f)
    out = amplitude**2 * pulse_rate / (gamma_max * f_arr)
    return out if out.shape else float(out)


def psd_multi_carrier(f, n_carriers, amplitude, pulse_rate, gamma_max):
    """Flicker spectrum of N independent carriers, ``N a^2 nu / (gamma_max f)``.

    ``pulse_rate`` is per carrier, and ``n_carriers`` an integer >= 1.
    """
    _require_integer(1, n_carriers=n_carriers)
    return n_carriers * psd_one_over_f(f, amplitude, pulse_rate, gamma_max)


def one_over_f_window(gamma_min: float, gamma_max: float):
    """Frequency window (f_lo, f_hi) on which the flicker approximation holds:
    ``_FLICKER_MARGIN * gamma_min < 2 pi f < gamma_max / _FLICKER_MARGIN``,
    with ``gamma_min`` finite and >= 0 and ``gamma_max`` finite and
    positive.  A floor above the ceiling gives an inverted window, which
    callers report."""
    _require_nonnegative(gamma_min=gamma_min)
    _require_positive(gamma_max=gamma_max)
    return (
        _FLICKER_MARGIN * gamma_min / _TWO_PI,
        gamma_max / (_FLICKER_MARGIN * _TWO_PI),
    )

