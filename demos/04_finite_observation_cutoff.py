#!/usr/bin/env python3
"""The spurious low-frequency cutoff of a finite experiment.

With gamma_min = 0, arbitrarily slow traps exist, but a single run of
duration T only samples K ~ nu*T of them; the slowest rate seen is about
gamma_max/K, so the spectrum goes flat below roughly gamma_max/(g*T).
The cutoff is measured here by fitting the closed-form spectrum with a
floating rate floor to each run, and it moves down 100x when T moves up
100x.
"""
import numpy as np

import trapnoise as tn
from trapnoise.analysis import cutoff_by_regime, fitted_floor_rate

gamma_max, trapping_rate = 1e3, 1.0

for horizon in (1e4, 1e6):
    predicted = cutoff_by_regime(
        tn.SimConfig(
            rates=tn.UniformRates(0.0, gamma_max),
            trapping=tn.PoissonTrapping(trapping_rate),
            horizon=horizon, seed=0,
        )
    )["long_trapping"]
    floors = []
    for seed in range(10):
        cfg = tn.SimConfig(
            rates=tn.UniformRates(0.0, gamma_max),
            trapping=tn.PoissonTrapping(trapping_rate),
            horizon=horizon, n_realizations=1, seed=seed,
        )
        freqs = tn.natural_frequencies(
            horizon, 150.0 * predicted, points_per_decade=12
        )
        path = tn.simulate_realization(cfg, 0)[0]
        est = tn.periodogram_superposed_events([path], 1.0, freqs)
        binned = tn.logbin_spectrum(est, 4)
        keep = binned.freqs <= 30.0 * predicted
        trimmed = tn.SpectrumEstimate(
            freqs=binned.freqs[keep], values=binned.values[keep],
            n_averaged=1, estimator="event_exact",
        )
        floors.append(fitted_floor_rate(
            trimmed, tn.empirical_nu(path), 1.0, trapping_rate, gamma_max,
            bounds=(predicted / 300.0, predicted * 100.0),
        ))
    measured = np.exp(np.mean(np.log(floors)))
    print(f"horizon {horizon:8g}:  predicted floor {predicted:.2e}   "
          f"measured {measured:.2e}   (ratio {measured / predicted:.2f})")

print("\nregime predictions for horizon 1e6:")
cfg = tn.SimConfig(
    rates=tn.UniformRates(0.0, gamma_max),
    trapping=tn.PoissonTrapping(trapping_rate),
    horizon=1e6, seed=0,
)
for regime, value in cutoff_by_regime(cfg).items():
    shown = "n/a (needs gamma_min > 0)" if value is None else f"{value:.3e}"
    print(f"  {regime:16s} {shown}")
