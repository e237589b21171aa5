"""Built-in experiment presets and their JSON round-trip.

Five reference experiments (fig2..fig6) cover the toolkit end to end:

* fig2 - the detrapping-time density with its single-rate components
* fig3 - single-carrier spectrum spanning flat, 1/f and 1/f^2 regimes
* fig4 - low-frequency cutoff moving with the observation time
* fig5 - cutoff removal by averaging repeated experiments
* fig6 - one realization of a thousand superposed carriers

Every preset is one entry of ``_PRESETS``, in the JSON form that
``spec_from_dict`` reads and ``dump-preset`` prints, with the reference
parameters verbatim.  ``preset`` divides each run's horizon and
realization count by ``scale`` for desk-scale runs (the scale is recorded
in the output metadata), sets each run's seed and loads the entry through
``spec_from_dict``, the loader of config files too.
"""
from __future__ import annotations

from dataclasses import MISSING, asdict, dataclass, fields
from typing import Optional

import numpy as np

from .distributions import (
    ArrheniusRates, PoissonTrapping, RateModel, UniformRates, _require_integer,
    _require_positive,
)
from .simulate import SimConfig
from .spectra import natural_frequencies

__all__ = [
    "ExperimentSpec",
    "DEFAULT_SEED",
    "PRESET_NAMES",
    "FIG2_RATE_BOUNDS",
    "FIG2_COMPONENT_RATES",
    "preset",
    "spec_to_dict",
    "spec_from_dict",
]

DEFAULT_SEED = 20240901

# rate bounds of the fig2 mixture density, and the ten single-rate
# components displayed alongside it
FIG2_RATE_BOUNDS = (1e-3, 10.0)
FIG2_COMPONENT_RATES = np.geomspace(*FIG2_RATE_BOUNDS, 10)

_ESTIMATORS = ("event_exact", "sampled_fft")
_ANALYSES = ("cutoff", "hooge", "amplitude_pmf")
_RATE_LAWS = {"uniform": UniformRates, "arrhenius": ArrheniusRates}

# a run of the flicker rate law of fig4..fig6: gamma_min = 0, so the
# finite horizon alone sets the low-frequency cutoff
_FLICKER_RUN = {
    "rates": {"kind": "uniform", "gamma_min": 0.0, "gamma_max": 1e3},
    "trapping_rate": 1.0,
    "n_realizations": 1,
}
# the fig4 run that only ``full`` includes
_FULL_ONLY = "T1e8"

_PRESETS = {
    "fig2": {"kind": "curves"},
    "fig3": {
        "runs": [{"rates": {"kind": "uniform", "gamma_min": 1e-4, "gamma_max": 1e4},
                  "trapping_rate": 1.0, "horizon": 1e6, "n_realizations": 100}],
        "analyses": ["cutoff", "hooge"],
    },
    "fig4": {
        "runs": [{**_FLICKER_RUN, "label": "T1e4", "horizon": 1e4},
                 {**_FLICKER_RUN, "label": "T1e6", "horizon": 1e6},
                 {**_FLICKER_RUN, "label": "T1e8", "horizon": 1e8}],
        "analyses": ["cutoff"],
    },
    "fig5": {
        "runs": [{**_FLICKER_RUN, "label": "R1", "horizon": 1e6},
                 {**_FLICKER_RUN, "label": "R1000", "horizon": 1e6,
                  "n_realizations": 1000}],
        "analyses": ["cutoff"],
    },
    "fig6": {
        "runs": [{**_FLICKER_RUN, "horizon": 2**26 * 1e-4, "n_carriers": 1000,
                  "sample_dt": 1e-4}],
        "estimator": "sampled_fft",
        "bins_per_decade": 40,
        "analyses": ["cutoff", "amplitude_pmf"],
    },
}
PRESET_NAMES = tuple(_PRESETS)


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment (possibly several runs).

    A spec that cannot run is rejected here, with a message naming the
    field; each run's label names its spectrum CSV, so labels are unique.
    """

    name: str
    kind: str = "spectrum"  # "spectrum" or "curves"
    runs: tuple = ()  # (label, SimConfig) pairs
    estimator: str = "event_exact"
    f_min: Optional[float] = None
    f_max: Optional[float] = None
    points_per_decade: int = 40
    bins_per_decade: Optional[int] = None
    analyses: tuple = ()
    scale: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise ValueError("spec name must be nonempty")
        if self.kind not in ("spectrum", "curves"):
            raise ValueError(f"unknown spec kind {self.kind!r}")
        if self.kind == "spectrum" and not self.runs:
            raise ValueError("spectrum spec needs at least one run")
        labels = [label for label, _ in self.runs]
        repeated = sorted({label for label in labels if labels.count(label) > 1})
        if repeated:
            raise ValueError(f"run labels {repeated} repeat; each label names one run")
        if self.estimator not in _ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; choose from {_ESTIMATORS}"
            )
        if self.estimator == "sampled_fft":
            for label, config in self.runs:
                if config.sample_dt is None:
                    raise ValueError(
                        f"run {label!r}: sampled_fft estimator needs sample_dt"
                    )
            for name in ("f_min", "f_max"):
                if getattr(self, name) is not None:
                    raise ValueError(f"{name} is unused by sampled_fft (grid k/(L dt))")
        unknown = [a for a in self.analyses if a not in _ANALYSES]
        if unknown:
            raise ValueError(f"unknown analyses {unknown}; choose from {_ANALYSES}")
        if "amplitude_pmf" in self.analyses and self.estimator != "sampled_fft":
            raise ValueError("analysis amplitude_pmf needs the sampled_fft estimator")
        # scale is only recorded in the outputs, so None does no harm there
        bounds = {name: getattr(self, name) for name in ("f_min", "f_max", "scale")}
        _require_positive(**{k: v for k, v in bounds.items() if v is not None})
        if None not in (self.f_min, self.f_max) and self.f_min >= self.f_max:
            raise ValueError(f"f_min {self.f_min} must be below f_max {self.f_max}")
        _require_integer(1, points_per_decade=self.points_per_decade)
        if self.bins_per_decade is not None:
            _require_integer(1, bins_per_decade=self.bins_per_decade)
        if self.estimator == "event_exact":
            for label, config in self.runs:
                try:
                    self.event_grid(config)
                except ValueError as exc:
                    raise ValueError(
                        f"run {label!r} (horizon {config.horizon:g}): {exc}"
                    ) from None

    def event_grid(self, config: SimConfig) -> np.ndarray:
        """A run's event_exact frequencies: natural frequencies k/T from
        f_min (by default 1/T) up to f_max (by default 10 gamma_max / 2 pi)."""
        top = self.f_max or 10.0 * config.rates.gamma_max / (2.0 * np.pi)
        return natural_frequencies(
            config.horizon, top, f_min=self.f_min,
            points_per_decade=self.points_per_decade,
        )


def preset(
    figure: str,
    scale: float = 1.0,
    seed: int = DEFAULT_SEED,
    full: bool = False,
) -> ExperimentSpec:
    """Build the named experiment with its reference parameters.

    ``scale`` divides the horizon and realization count; ``full`` enables
    the long fig4 run (horizon 1e8), which is gated off by default.
    """
    if figure not in _PRESETS:
        raise ValueError(f"unknown preset {figure!r}; choose from {PRESET_NAMES}")
    _require_positive(scale=scale)
    entry = _PRESETS[figure]
    runs = [
        {**run, "horizon": run["horizon"] / scale, "seed": seed,
         "n_realizations": max(1, round(run["n_realizations"] / scale))}
        for run in entry.get("runs", ())
        if full or run.get("label") != _FULL_ONLY
    ]
    return spec_from_dict({**entry, "name": figure, "runs": runs, "scale": scale})


def _reject_unknown_keys(d: dict, known, where: str) -> None:
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; known: {sorted(known)}")


def _field_names(cls) -> list:
    return [f.name for f in fields(cls)]


def _rates_to_dict(rates: RateModel) -> dict:
    kind = next(k for k, law in _RATE_LAWS.items() if type(rates) is law)
    return {"kind": kind, **asdict(rates)}


def _rates_from_dict(d: dict) -> RateModel:
    params = dict(d)
    kind = params.pop("kind", None)
    if kind not in _RATE_LAWS:
        raise ValueError(
            f"unknown rate model kind {kind!r}; choose from {sorted(_RATE_LAWS)}"
        )
    law = _RATE_LAWS[kind]
    _reject_unknown_keys(params, _field_names(law), "rates")
    return law(**params)


# A run's JSON keys are its label and the SimConfig fields, except that
# the rate law is a dict tagged with its kind and the trapping law is
# written as its rate.
_TRAPPING_KEY = "trapping_rate"


def _run_keys() -> list:
    return ["label"] + [
        _TRAPPING_KEY if name == "trapping" else name
        for name in _field_names(SimConfig)
    ]


def _run_to_dict(label: str, config: SimConfig) -> dict:
    values = [getattr(config, name) for name in _field_names(SimConfig)]
    d = dict(zip(_run_keys(), [label, *values]))
    d["rates"] = _rates_to_dict(config.rates)
    d[_TRAPPING_KEY] = config.trapping.rate
    return d


def _run_from_dict(index: int, d: dict) -> tuple:
    _reject_unknown_keys(d, _run_keys(), "run")
    label = d.get("label", "")
    # the keys of the SimConfig fields without a default
    missing = [
        key for key, f in zip(_run_keys()[1:], fields(SimConfig))
        if f.default is MISSING and key not in d
    ]
    if missing:
        raise ValueError(f"run {index} (label {label!r}) lacks required key(s) {missing}")
    params = {k: v for k, v in d.items() if k not in ("label", _TRAPPING_KEY)}
    params["rates"] = _rates_from_dict(d["rates"])
    params["trapping"] = PoissonTrapping(d[_TRAPPING_KEY])
    params.setdefault("seed", DEFAULT_SEED)
    return label, SimConfig(**params)


def spec_to_dict(spec: ExperimentSpec) -> dict:
    d = {name: getattr(spec, name) for name in _field_names(ExperimentSpec)}
    d["runs"] = [_run_to_dict(label, config) for label, config in spec.runs]
    d["analyses"] = list(spec.analyses)
    return d


def spec_from_dict(d: dict) -> ExperimentSpec:
    _reject_unknown_keys(d, _field_names(ExperimentSpec), "spec")
    params = dict(d)
    if "runs" in params:
        params["runs"] = tuple(
            _run_from_dict(i, run) for i, run in enumerate(params["runs"])
        )
    if "analyses" in params:
        params["analyses"] = tuple(params["analyses"])
    return ExperimentSpec(**params)
