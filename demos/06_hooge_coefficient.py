#!/usr/bin/env python3
"""The Hooge form of the flicker spectrum and its coefficient.

Rewriting N a^2 nu / (gamma_max f) as I^2 alpha / (N f) identifies
alpha = trapping_rate / gamma_max: the dimensionless flicker coefficient
is the ratio of the capture rate to the fastest escape rate.  A fit to a
simulated spectrum recovers it, and material relations tie both rates to
sample parameters.
"""
import numpy as np

import trapnoise as tn
from trapnoise.analysis import (
    carrier_count,
    mean_current_from_material,
    trapping_rate_from_material,
)
from trapnoise.runner import run_spectrum_config

gamma_max, trapping_rate = 1e3, 1.0

predicted = tn.hooge_alpha_predicted(trapping_rate, gamma_max)
print(f"predicted alpha = trapping/gamma_max = {predicted:.1e}")

nu = 1.0 / (1.0 + tn.detrap_mean(tn.UniformRates(1e-3, gamma_max)))
exact = tn.hooge_alpha_exact(nu, 1.0 / trapping_rate, gamma_max)
print(f"unapproximated form 1/(nu <pulse>^2 gamma_max) = {exact:.4e}")

config = tn.SimConfig(
    rates=tn.UniformRates(1e-3, gamma_max),
    trapping=tn.PoissonTrapping(trapping_rate),
    horizon=3e4, n_realizations=60, seed=12,
)
freqs = tn.natural_frequencies(config.horizon, 20.0, f_min=1e-3,
                               points_per_decade=16)
print("simulating ...")
result = run_spectrum_config(config, freqs=freqs, workers=1)
fitted = tn.hooge_alpha_fitted(
    result.spectrum, result.mean_current, config.n_carriers, (1e-2, 10.0)
)
print(f"fitted alpha = {fitted.alpha:.4e} "
      f"(free-slope deviation from -1: {fitted.slope_deviation:.3f}, "
      f"in the flicker band: {fitted.in_band})")

# --- material relations -------------------------------------------------
m = tn.MaterialParams(
    charge=1.0, drift_speed=2.0, thermal_speed=40.0, length=10.0,
    cross_section=0.5, carrier_density=200.0, trap_density=0.05,
    capture_cross_section=0.5,
)
a = tn.pulse_height_from_material(m)
g_theta = trapping_rate_from_material(m)
current = mean_current_from_material(m, nu, 1.0 / g_theta)
print(f"\nmaterial example: pulse height a = {a:.3f}, "
      f"trapping rate = {g_theta:.3f}, carriers N = {carrier_count(m):.0f}, "
      f"mean current = {current:.3f}")
print("halving the trap density halves the trapping rate and alpha:",
      f"{trapping_rate_from_material(tn.MaterialParams(1.0, 2.0, 40.0, 10.0, 0.5, 200.0, 0.025, 0.5)):.3f}")
