"""The benchmark's workloads: which experiment each one runs, at which size.

Every workload goes through the public ``trapnoise.runner.run`` entry
point, from an ``ExperimentSpec`` to the full artifact set.  ``size`` is
the size the benchmark measures; ``tiny_size`` is a fast variant used by
the self-test.  Why each workload was chosen is stated in
``BENCHMARK.json``.  Each workload keeps a float64 reference spectrum for both
sizes under ``reference/`` (see ``make_reference.py``).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from trapnoise.presets import DEFAULT_SEED, ExperimentSpec, preset, spec_from_dict

__all__ = ["Workload", "WORKLOADS", "DEFAULT_SEED"]


@dataclass(frozen=True)
class Workload:
    """One benchmark input.

    ``build(size, seed)`` returns the spec; ``size_name`` says what
    ``size`` means for provenance.  ``ref_tol`` bounds the largest
    relative difference from the float64 reference at the default seed;
    it sits below 1% so that a 1% change at a single point fails.
    ``slope_tol`` and ``level_tol`` bound the fitted flicker slope (as
    |slope + 1|) and the flicker level (as a factor either way) against
    the closed form, on ``flicker_window`` or, when that is None, on the
    window the predicted low-rate floor leaves.  Both tolerances are at
    least five seed-to-seed standard deviations of the noisiest run of
    the workload (measured over 12 seeds), so they catch a wrong
    normalization or slope, not realization noise.
    """

    name: str
    build: Callable[[float, int], ExperimentSpec]
    size_name: str
    size: float
    tiny_size: float
    ref_tol: float
    slope_tol: float
    level_tol: float
    flicker_window: Optional[tuple] = None
    events_csv: bool = False


def _cutoff_average(n_realizations: float, seed: int) -> ExperimentSpec:
    # Criterion-4 style: many short experiments averaged, only the lowest
    # natural frequencies (every k <= 100).  The Hooge fit is the analysis
    # that stays defined once averaging has removed the plateau.
    return spec_from_dict(
        {
            "name": "cutoff_average",
            "runs": [
                {
                    "label": "",
                    "rates": {"kind": "uniform", "gamma_min": 0.0, "gamma_max": 1e3},
                    "trapping_rate": 1.0,
                    "horizon": 1e4,
                    "n_realizations": int(n_realizations),
                    "seed": seed,
                }
            ],
            "estimator": "event_exact",
            "f_max": 1e-2,
            "points_per_decade": 16,
            "analyses": ["hooge"],
        }
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="flicker_exact",
            build=partial(preset, "fig3"),
            size_name="scale",
            size=12.5,
            tiny_size=40.0,
            ref_tol=8e-3,
            slope_tol=0.15,
            level_tol=1.5,
        ),
        Workload(
            name="cutoff_average",
            build=_cutoff_average,
            size_name="n_realizations",
            size=400,
            tiny_size=200,
            ref_tol=8e-3,
            slope_tol=0.3,
            level_tol=1.5,
        ),
        Workload(
            name="carriers_fft",
            build=partial(preset, "fig6"),
            size_name="scale",
            size=16.0,
            tiny_size=16.0,
            # sampling the current on the dt grid moves the lowest natural
            # frequencies by up to ~5e-3 from the continuous-time spectrum
            ref_tol=6e-3,
            slope_tol=0.45,
            level_tol=1.6,
            # Below ~0.1 each carrier's own finite-T cutoff still shows, and
            # above ~3 the synchronized trapped start of all carriers adds
            # a coherent term (S*f/line reaches ~1.5 at 10-30).
            flicker_window=(0.1, 3.0),
        ),
        Workload(
            name="event_export",
            build=partial(preset, "fig4"),
            size_name="scale",
            size=5.0,
            tiny_size=10.0,
            ref_tol=8e-3,
            # single realizations: the short run's slope and level scatter
            # by ~0.2 and ~0.13 from seed to seed
            slope_tol=0.9,
            level_tol=2.5,
            events_csv=True,
        ),
    )
}
