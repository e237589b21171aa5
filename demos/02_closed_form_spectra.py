#!/usr/bin/env python3
"""The closed-form spectrum family and its internal consistency.

One general renewal-pulse formula, three specializations that must agree:
the Poisson-trapping form, the logarithm-corrected flicker expression,
and the pure 1/f law inside gamma_min << 2 pi f << gamma_max.  The
characteristic functions go in as callables of f alone, the parameters
bound with functools.partial.
"""
from functools import partial

import numpy as np

import trapnoise as tn

gamma_max = 1e4
trapping_rate = 1.0
nu = 1.0 / (1.0 + tn.detrap_mean(tn.UniformRates(1e-4, gamma_max)))
print(f"pulse rate nu = {nu:.5f} (mean pulse 1.0, mean gap "
      f"{tn.detrap_mean(tn.UniformRates(1e-4, gamma_max)):.2e})")

freqs = np.geomspace(1e-3, 1e2, 6)
chi_pulse = partial(tn.chi_exponential, rate=trapping_rate)
chi_gap = partial(tn.chi_uniform_rate, gamma_min=1e-4, gamma_max=gamma_max)
general = tn.psd_general_pulse(freqs, 1.0, nu, chi_pulse, chi_gap)
poisson = tn.psd_poisson_pulse(freqs, 1.0, nu, trapping_rate, chi_gap)
full = tn.psd_full_expression(freqs, 1.0, nu, trapping_rate, gamma_max)
flicker = tn.psd_one_over_f(freqs, 1.0, nu, gamma_max)

print("\n  f         general      poisson      log-corrected  pure 1/f")
for row in zip(freqs, general, poisson, full, flicker):
    print("  " + "  ".join(f"{x:.4e}" for x in row))
print("\nmax |poisson/general - 1|:",
      f"{np.max(np.abs(poisson / general - 1.0)):.2e}")

window = tn.one_over_f_window(1e-4, gamma_max)
print(f"flicker validity window: f in ({window[0]:.2e}, {window[1]:.2e})")

# the broad-range characteristic function drives everything above
f_grid = np.geomspace(1e-2, 1.0, 5)
exact = tn.chi_uniform_rate(f_grid, 1e-4, gamma_max)
approx = tn.chi_uniform_rate_approx(f_grid, gamma_max)
print("\n  f        |chi_exact - chi_approx| / |chi_exact|")
for f, e, a in zip(f_grid, exact, approx):
    print(f"  {f:7.3g}  {abs(e - a) / abs(e):.2e}")
