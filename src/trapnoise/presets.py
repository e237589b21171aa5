"""Built-in experiment presets and their JSON round-trip.

Five reference experiments (fig2..fig6) cover the toolkit end to end:

* fig2 - the detrapping-time density with its single-rate components
* fig3 - single-carrier spectrum spanning flat, 1/f and 1/f^2 regimes
* fig4 - low-frequency cutoff moving with the observation time
* fig5 - cutoff removal by averaging repeated experiments
* fig6 - one realization of a thousand superposed carriers

Every preset carries the reference parameters verbatim; ``scale`` divides
the horizon and the realization count for desk-scale runs and is recorded
in the output metadata.
"""
from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Optional

import numpy as np

from .distributions import ArrheniusRates, PoissonTrapping, RateModel, UniformRates
from .simulate import SimConfig

__all__ = [
    "ExperimentSpec",
    "DEFAULT_SEED",
    "PRESET_NAMES",
    "FIG2_COMPONENT_RATES",
    "preset",
    "spec_to_dict",
    "spec_from_dict",
]

DEFAULT_SEED = 20240901
PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5", "fig6")

# single-rate components displayed alongside the mixture density in fig2
FIG2_COMPONENT_RATES = np.geomspace(1e-3, 10.0, 10)

_ESTIMATORS = ("event_exact", "sampled_fft")
_ANALYSES = ("cutoff", "hooge", "amplitude_pmf")
_RUN_KEYS = ("label", "rates", "trapping_rate", "horizon", "amplitude",
             "n_carriers", "n_realizations", "sample_dt", "seed")


@dataclass(frozen=True)
class ExperimentSpec:
    """Declarative description of one experiment (possibly several runs)."""

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
        if self.estimator not in _ESTIMATORS:
            raise ValueError(
                f"unknown estimator {self.estimator!r}; choose from {_ESTIMATORS}"
            )
        unknown = [a for a in self.analyses if a not in _ANALYSES]
        if unknown:
            raise ValueError(f"unknown analyses {unknown}; choose from {_ANALYSES}")


def _scaled(config: SimConfig, scale: float) -> SimConfig:
    if scale == 1.0:
        return config
    return replace(
        config,
        horizon=config.horizon / scale,
        n_realizations=max(1, round(config.n_realizations / scale)),
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
    if scale <= 0.0:
        raise ValueError("scale must be positive")
    if figure == "fig2":
        return ExperimentSpec(name="fig2", kind="curves", scale=scale)

    if figure == "fig3":
        cfg = SimConfig(
            rates=UniformRates(1e-4, 1e4),
            trapping=PoissonTrapping(1.0),
            horizon=1e6,
            amplitude=1.0,
            n_carriers=1,
            n_realizations=100,
            seed=seed,
        )
        return ExperimentSpec(
            name="fig3",
            runs=(("", _scaled(cfg, scale)),),
            estimator="event_exact",
            analyses=("cutoff", "hooge"),
            scale=scale,
        )

    if figure == "fig4":
        base = SimConfig(
            rates=UniformRates(0.0, 1e3),
            trapping=PoissonTrapping(1.0),
            horizon=1e4,
            amplitude=1.0,
            n_carriers=1,
            n_realizations=1,
            seed=seed,
        )
        horizons = [1e4, 1e6] + ([1e8] if full else [])
        runs = tuple(
            (f"T{h:.0e}".replace("+0", "").replace("+", ""), _scaled(replace(base, horizon=h), scale))
            for h in horizons
        )
        return ExperimentSpec(
            name="fig4",
            runs=runs,
            estimator="event_exact",
            analyses=("cutoff",),
            scale=scale,
        )

    if figure == "fig5":
        base = SimConfig(
            rates=UniformRates(0.0, 1e3),
            trapping=PoissonTrapping(1.0),
            horizon=1e6,
            amplitude=1.0,
            n_carriers=1,
            n_realizations=1,
            seed=seed,
        )
        runs = tuple(
            (f"R{r}", _scaled(replace(base, n_realizations=r), scale))
            for r in (1, 1000)
        )
        return ExperimentSpec(
            name="fig5",
            runs=runs,
            estimator="event_exact",
            analyses=("cutoff",),
            scale=scale,
        )

    if figure == "fig6":
        cfg = SimConfig(
            rates=UniformRates(0.0, 1e3),
            trapping=PoissonTrapping(1.0),
            horizon=2**26 * 1e-4,
            amplitude=1.0,
            n_carriers=1000,
            n_realizations=1,
            sample_dt=1e-4,
            seed=seed,
        )
        return ExperimentSpec(
            name="fig6",
            runs=(("", _scaled(cfg, scale)),),
            estimator="sampled_fft",
            bins_per_decade=40,
            analyses=("cutoff", "amplitude_pmf"),
            scale=scale,
        )

    raise ValueError(f"unknown preset {figure!r}; choose from {PRESET_NAMES}")


def _rates_to_dict(rates: RateModel) -> dict:
    if isinstance(rates, ArrheniusRates):
        return {
            "kind": "arrhenius",
            "prefactor": rates.prefactor,
            "thermal_energy": rates.thermal_energy,
            "energy_min": rates.energy_min,
            "energy_max": rates.energy_max,
        }
    return {
        "kind": "uniform",
        "gamma_min": rates.gamma_min,
        "gamma_max": rates.gamma_max,
    }


def _reject_unknown_keys(d: dict, known, where: str) -> None:
    unknown = sorted(set(d) - set(known))
    if unknown:
        raise ValueError(f"unknown {where} key(s) {unknown}; known: {sorted(known)}")


def _rates_from_dict(d: dict) -> RateModel:
    models = {"arrhenius": ArrheniusRates, "uniform": UniformRates}
    if d["kind"] not in models:
        raise ValueError(f"unknown rate model kind {d['kind']!r}")
    model = models[d["kind"]]
    names = [f.name for f in fields(model)]
    _reject_unknown_keys(d, ["kind", *names], "rates")
    return model(*(d[name] for name in names))


def _config_to_dict(config: SimConfig) -> dict:
    return {
        "rates": _rates_to_dict(config.rates),
        "trapping_rate": config.trapping.rate,
        "horizon": config.horizon,
        "amplitude": config.amplitude,
        "n_carriers": config.n_carriers,
        "n_realizations": config.n_realizations,
        "sample_dt": config.sample_dt,
        "seed": config.seed,
    }


def _config_from_dict(d: dict) -> SimConfig:
    _reject_unknown_keys(d, _RUN_KEYS, "run")
    return SimConfig(
        rates=_rates_from_dict(d["rates"]),
        trapping=PoissonTrapping(d["trapping_rate"]),
        horizon=d["horizon"],
        amplitude=d.get("amplitude", 1.0),
        n_carriers=d.get("n_carriers", 1),
        n_realizations=d.get("n_realizations", 1),
        sample_dt=d.get("sample_dt"),
        seed=d.get("seed", DEFAULT_SEED),
    )


def spec_to_dict(spec: ExperimentSpec) -> dict:
    return {
        "name": spec.name,
        "kind": spec.kind,
        "runs": [
            {"label": label, **_config_to_dict(cfg)} for label, cfg in spec.runs
        ],
        "estimator": spec.estimator,
        "f_min": spec.f_min,
        "f_max": spec.f_max,
        "points_per_decade": spec.points_per_decade,
        "bins_per_decade": spec.bins_per_decade,
        "analyses": list(spec.analyses),
        "scale": spec.scale,
    }


def spec_from_dict(d: dict) -> ExperimentSpec:
    _reject_unknown_keys(d, [f.name for f in fields(ExperimentSpec)], "spec")
    runs = tuple(
        (r.get("label", ""), _config_from_dict(r)) for r in d.get("runs", [])
    )
    return ExperimentSpec(
        name=d["name"],
        kind=d.get("kind", "spectrum"),
        runs=runs,
        estimator=d.get("estimator", "event_exact"),
        f_min=d.get("f_min"),
        f_max=d.get("f_max"),
        points_per_decade=d.get("points_per_decade", 40),
        bins_per_decade=d.get("bins_per_decade"),
        analyses=tuple(d.get("analyses", ())),
        scale=d.get("scale", 1.0),
    )
