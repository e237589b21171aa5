"""Detrapping-rate and detrapping-time laws.

A carrier stuck in a trapping center escapes at a rate drawn once per
capture.  Two parametrizations of the rate law are supported: a direct
uniform distribution on ``[gamma_min, gamma_max]``, and an activated
(Arrhenius) escape over trap depths drawn from a truncated Boltzmann
distribution, which induces exactly the same uniform rate law by change
of variables.

Detrapping times are conditionally exponential given the rate; the
marginal density is the uniform mixture of exponentials, which saturates
at short times, decays like ``tau**-2`` over the middle range
``1/gamma_max << tau << 1/gamma_min``, and has an exponential tail.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "UniformRates",
    "ArrheniusRates",
    "RateModel",
    "PoissonTrapping",
    "NonergodicError",
    "sample_rate",
    "sample_detrap_time",
    "escape_times",
    "detrap_pdf",
    "detrap_cdf",
    "detrap_mean",
    "free_probability",
]

# Below this value of gamma_max*tau the closed-form pdf is a difference of
# near-equal quantities; switch to a 2-term series.
_SERIES_THRESHOLD = 1e-6


class NonergodicError(ValueError):
    """Raised when a moment is requested that only exists for gamma_min > 0."""


def _is_real(value) -> bool:
    """Whether ``value`` is a real number: a bool (JSON ``true``), a
    string or None is not, and numpy numbers are."""
    return not isinstance(value, bool) and isinstance(
        value, (int, float, np.integer, np.floating)
    )


def _require_positive(**values) -> None:
    """Reject the first value that is not a finite positive real number,
    by name; NaN fails the test too."""
    for name, value in values.items():
        if not (_is_real(value) and 0.0 < value < np.inf):
            raise ValueError(f"{name} must be finite and positive, got {value!r}")


def _require_nonnegative(**values) -> None:
    """Reject the first value that is not a finite real number of at
    least 0, by name; NaN fails the test too."""
    for name, value in values.items():
        if not (_is_real(value) and 0.0 <= value < np.inf):
            raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _require_integer(minimum: int, **values) -> None:
    """Reject the first value that is not an integer of at least
    ``minimum``, by name; a bool (JSON ``true``) and a float fail, however
    whole, and numpy integers pass."""
    for name, value in values.items():
        integral = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not (integral and value >= minimum):
            raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class UniformRates:
    """Detrapping rates distributed uniformly on [gamma_min, gamma_max].

    ``gamma_min = 0`` is allowed (nonergodic regime: the mean detrapping
    time diverges and must be replaced by an empirical pulse rate).  The
    degenerate case ``gamma_min == gamma_max`` is the single-rate
    (exponential) limit.
    """

    gamma_min: float
    gamma_max: float

    def __post_init__(self):
        _require_nonnegative(gamma_min=self.gamma_min)
        _require_positive(gamma_max=self.gamma_max)
        if self.gamma_min > self.gamma_max:
            raise ValueError(
                f"need 0 <= gamma_min <= gamma_max, got "
                f"[{self.gamma_min}, {self.gamma_max}]"
            )


@dataclass(frozen=True)
class ArrheniusRates:
    """Activated escape over Boltzmann-distributed trap depths.

    Trap depths E are drawn from a truncated exponential density
    proportional to ``exp(-E / thermal_energy)`` on
    ``[energy_min, energy_max]`` and mapped through the activated-rate
    law ``gamma = prefactor * exp(-E / thermal_energy)``.  The induced
    rate distribution is exactly uniform on the bounds below.

    Parameters
    ----------
    prefactor : float
        Attempt rate; upper bound of any induced rate.
    thermal_energy : float
        k_B times temperature, in the same units as the energies.
    energy_min, energy_max : float
        Truncation bounds of the trap-depth distribution.  No physical
        defaults are assumed; both must be given explicitly.
    """

    prefactor: float
    thermal_energy: float
    energy_min: float
    energy_max: float

    def __post_init__(self):
        _require_positive(prefactor=self.prefactor, thermal_energy=self.thermal_energy)
        _require_nonnegative(energy_min=self.energy_min, energy_max=self.energy_max)
        if self.energy_min > self.energy_max:
            raise ValueError("need 0 <= energy_min <= energy_max")

    @property
    def gamma_min(self) -> float:
        return self.prefactor * np.exp(-self.energy_max / self.thermal_energy)

    @property
    def gamma_max(self) -> float:
        return self.prefactor * np.exp(-self.energy_min / self.thermal_energy)


RateModel = Union[UniformRates, ArrheniusRates]


@dataclass(frozen=True)
class PoissonTrapping:
    """Homogeneous Poisson capture of a drifting carrier.

    ``rate`` is the trapping rate; free-drift (pulse) durations are
    exponential with this rate, so the mean pulse duration is ``1/rate``.
    """

    rate: float

    def __post_init__(self):
        _require_positive(trapping_rate=self.rate)

    @property
    def mean_time(self) -> float:
        return 1.0 / self.rate


def sample_rate(model: RateModel, rng: np.random.Generator, size=None):
    """Draw detrapping rate(s) from the rate law.

    For ``ArrheniusRates`` the trap depth is sampled first (inverse-CDF
    on the truncated exponential; exact, no rejection) and mapped through
    the activated-rate law.  The result is uniform on
    ``[model.gamma_min, model.gamma_max]`` for either parametrization.
    ``UniformRates`` are ``low + (high - low) * u`` over ``rng.random``,
    the bytes of ``rng.uniform(low, high, size)`` at a lower cost per
    draw.
    """
    if isinstance(model, ArrheniusRates):
        kt = model.thermal_energy
        lo = np.exp(-model.energy_min / kt)
        hi = np.exp(-model.energy_max / kt)
        u = rng.random(size)
        energy = -kt * np.log(lo - u * (lo - hi))
        return model.prefactor * np.exp(-energy / kt)
    # in place, so a block of rates allocates one array, as rng.uniform does
    u = rng.random(size)
    u *= model.gamma_max - model.gamma_min
    u += model.gamma_min
    return u


def sample_detrap_time(model: RateModel, rng: np.random.Generator, size=None):
    """Draw detrapping time(s): rate first, then exponential given the rate.

    A zero-rate draw (possible only when ``gamma_min == 0``) yields
    ``inf``; callers truncate at their observation horizon.
    """
    gamma = np.asarray(sample_rate(model, rng, size), dtype=float)
    tau = escape_times(gamma, rng.standard_exponential(size))
    if size is None:
        return float(tau)
    return tau


def escape_times(
    gamma: np.ndarray, exponentials: np.ndarray, out: np.ndarray | None = None
) -> np.ndarray:
    """Detrapping times given the rates: unit exponentials over ``gamma``,
    written into ``out`` when it is given.

    A zero rate gives ``inf`` (the carrier never escapes).
    """
    if out is None:
        out = np.empty(np.broadcast(gamma, exponentials).shape)
    out[...] = np.inf
    return np.divide(exponentials, gamma, out=out, where=gamma > 0.0)


def _bounds(model: RateModel) -> tuple[float, float]:
    return float(model.gamma_min), float(model.gamma_max)


def detrap_pdf(tau, model: RateModel):
    """Marginal density of the detrapping time.

    Closed form for uniform rates on [a, b]:

        p(tau) = [(1 + a tau) e^{-a tau} - (1 + b tau) e^{-b tau}]
                 / ((b - a) tau^2)

    For ``b * tau`` below ``1e-6`` the difference above cancels
    catastrophically and a 2-term series is used instead; the limit at
    ``tau = 0+`` is ``(a + b) / 2``, and at ``tau = inf`` (a zero-rate
    draw) 0.

    Raises
    ------
    ValueError
        If any ``tau`` is negative or NaN.
    """
    tau_arr = np.asarray(tau, dtype=float)
    if not np.all(tau_arr >= 0.0):
        raise ValueError("tau must be nonnegative")
    a, b = _bounds(model)
    if a == b:
        out = a * np.exp(-a * tau_arr)
        return out if tau_arr.shape else float(out)

    small = b * tau_arr < _SERIES_THRESHOLD
    exact = ~small & (tau_arr < np.inf)
    out = np.zeros_like(tau_arr)

    t = tau_arr[exact]
    num = (1.0 + a * t) * np.exp(-a * t) - (1.0 + b * t) * np.exp(-b * t)
    out[exact] = num / ((b - a) * t * t)

    # p(tau) = (a+b)/2 - (a^2 + ab + b^2)/3 * tau + O(tau^2)
    t = tau_arr[small]
    out[small] = 0.5 * (a + b) - (a * a + a * b + b * b) / 3.0 * t

    return out if tau_arr.shape else float(out)


def detrap_cdf(tau, model: RateModel):
    """Distribution function of the detrapping time.

        F(tau) = 1 - (e^{-a tau} - e^{-b tau}) / ((b - a) tau)

    evaluated through ``expm1`` so it is stable down to tau = 0; it is 1
    at ``tau = inf`` (a zero-rate draw).
    """
    tau_arr = np.asarray(tau, dtype=float)
    if not np.all(tau_arr >= 0.0):
        raise ValueError("tau must be nonnegative")
    a, b = _bounds(model)
    if a == b:
        out = -np.expm1(-a * tau_arr)
        return out if tau_arr.shape else float(out)
    with np.errstate(invalid="ignore"):
        spread = (b - a) * tau_arr
        ratio = np.exp(-a * tau_arr) * -np.expm1(-spread) / spread
    out = np.select([tau_arr == 0.0, tau_arr == np.inf], [0.0, 1.0], 1.0 - ratio)
    return out if tau_arr.shape else float(out)


def detrap_mean(model: RateModel) -> float:
    """Mean detrapping time, ``ln(b / a) / (b - a)``.

    Raises
    ------
    NonergodicError
        If ``gamma_min == 0``: the mean diverges and the pulse rate must
        be measured empirically as (pulse count) / (observation time).
    """
    a, b = _bounds(model)
    if a == 0.0:
        raise NonergodicError(
            "mean detrapping time undefined for gamma_min = 0; "
            "use the empirical pulse rate K/T instead"
        )
    if a == b:
        return 1.0 / a
    return float(np.log(b / a) / (b - a))


def free_probability(rates: RateModel, trapping: PoissonTrapping) -> float:
    """Probability that a carrier is free, ``<pulse> / (<pulse> + <gap>)``.

    Raises :class:`NonergodicError` when the mean gap diverges, as
    :func:`detrap_mean` does.
    """
    tau = detrap_mean(rates)
    return trapping.mean_time / (trapping.mean_time + tau)
