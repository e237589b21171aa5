"""Write the float64 reference spectra the benchmark checks against.

    python3 bench/make_reference.py [workload ...]

For every workload, at its benchmark size and its self-test size, this
evaluates the spectrum at the default seed with the float64 event-exact
kernel (``periodogram_superposed_events(..., trig_dtype=np.float64)``)
and averages realizations with ``average_spectra``, then stores it in
``bench/reference/<workload>[-tiny].csv``.

Event-exact workloads are referenced at every frequency of their grid.
The sampled-FFT workload is referenced at the low log bins that hold a
single natural frequency k/T, where the continuous-time sum is the exact
spectrum the sampled estimate approximates.
"""
from __future__ import annotations

import shutil
import sys

import bootstrap

bootstrap.import_program()

import numpy as np  # noqa: E402

from trapnoise.runner import run  # noqa: E402
from trapnoise.simulate import simulate_realization  # noqa: E402
from trapnoise.spectra import (  # noqa: E402
    average_spectra,
    natural_frequencies,
    periodogram_superposed_events,
)

import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

_TWO_PI = 2.0 * np.pi


def _float64_spectrum(config, freqs) -> np.ndarray:
    estimates = [
        periodogram_superposed_events(
            simulate_realization(config, r), config.amplitude, freqs,
            trig_dtype=np.float64,
        )
        for r in range(config.n_realizations)
    ]
    return average_spectra(estimates).values


def _event_grid(spec, config) -> np.ndarray:
    top = spec.f_max if spec.f_max is not None else 10.0 * config.rates.gamma_max / _TWO_PI
    return natural_frequencies(
        config.horizon, top, f_min=spec.f_min, points_per_decade=spec.points_per_decade
    )


def _single_bins(spec, workload) -> dict:
    """label -> written frequencies of the log bins holding one k/T each."""
    outdir = bootstrap.OUT_ROOT / "reference"
    try:
        run(spec, outdir, workers=1, events_csv=workload.events_csv)
        spectra = checks.read_spectra(spec, outdir)
    finally:
        shutil.rmtree(bootstrap.OUT_ROOT, ignore_errors=True)
    out = {}
    for label, (freqs, _) in spectra.items():
        k = freqs / freqs[0]
        out[label] = freqs[np.abs(k - np.rint(k)) < 1e-6]
    return out


def reference_spectra(workload, spec) -> dict:
    """label -> (freqs, float64 reference values) for one spec."""
    if spec.estimator == "sampled_fft":
        grids = _single_bins(spec, workload)
    else:
        grids = {label: _event_grid(spec, config) for label, config in spec.runs}
    return {
        label: (grids[label], _float64_spectrum(config, grids[label]))
        for label, config in spec.runs
    }


def main(argv) -> int:
    names = argv or list(WORKLOADS)
    checks.REFERENCE_DIR.mkdir(exist_ok=True)
    for name in names:
        workload = WORKLOADS[name]
        for tiny, size in ((False, workload.size), (True, workload.tiny_size)):
            path = checks.reference_path(workload, tiny)
            if tiny and path == checks.reference_path(workload, False):
                continue
            spec = workload.build(size, DEFAULT_SEED)
            checks.write_reference(path, reference_spectra(workload, spec))
            print(f"wrote {path.relative_to(bootstrap.ROOT)}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
