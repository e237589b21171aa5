#!/usr/bin/env python3
"""Averaging experiments, or superposing carriers, removes the cutoff.

Averaging R spectra multiplies the number of sampled detrapping rates by
R, pushing the effective floor down to (R + gamma_max*<pulse>)/(R*T).
Superposing N independent carriers does the same while also making the
amplitude histogram binomial.
"""
import numpy as np

import trapnoise as tn
from trapnoise.runner import run_spectrum_config

gamma_max = 1e3

# --- repetition: R = 1 starves the lowest decade, R = 2000 restores it --
for n_real in (1, 2000):
    cfg = tn.SimConfig(
        rates=tn.UniformRates(0.0, gamma_max),
        trapping=tn.PoissonTrapping(1.0),
        horizon=1e4, n_realizations=n_real, seed=8,
    )
    freqs = tn.natural_frequencies(cfg.horizon, 1e-2, points_per_decade=12)
    res = run_spectrum_config(cfg, freqs=freqs, workers=1)
    line = res.nu_bar / (gamma_max * res.spectrum.freqs)
    lowest = res.spectrum.freqs <= 10.0 / cfg.horizon
    ratio = np.exp(np.mean(np.log(res.spectrum.values[lowest] / line[lowest])))
    print(f"R = {n_real:4d}: lowest-decade spectrum / flicker line = {ratio:.3f}")

# --- many carriers: one realization of N = 1000 ------------------------
cfg = tn.SimConfig(
    rates=tn.UniformRates(0.0, gamma_max),
    trapping=tn.PoissonTrapping(1.0),
    horizon=2**20 * 1e-4, n_carriers=1000, n_realizations=1,
    sample_dt=1e-4, seed=99,
)
res = run_spectrum_config(cfg, workers=1)  # sampled: no freqs, sample_dt set
pmf = res.hist / res.hist.sum()
p_fit = float(np.arange(len(pmf)) @ pmf) / cfg.n_carriers
print(f"\nN = 1000 carriers over horizon {cfg.horizon:.1f}:")
print(f"  best-fit binomial success probability p = {p_fit:.4f}")
print(f"  modal free-carrier count = {int(np.argmax(pmf))}")

binned = tn.logbin_spectrum(res.spectrum, 4)
ref = tn.psd_multi_carrier(binned.freqs, cfg.n_carriers, 1.0, res.nu_bar, gamma_max)
sel = (binned.freqs >= 0.05) & (binned.freqs <= 2.0)
print(f"  spectrum / N-carrier flicker law over [0.05, 2]: "
      f"{np.exp(np.mean(np.log(binned.values[sel] / ref[sel]))):.3f}")
