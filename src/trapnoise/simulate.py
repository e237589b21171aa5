"""Carrier-path generation and superposition.

A carrier alternates between a trapped state (gap: zero current) and free
drift (pulse: current ``a``), starting trapped at t = 0 with a freshly
drawn gap.  Every capture draws a new trapping-center rate, so gap
durations are iid from the uniform-rate mixture; pulse durations are iid
exponential with the trapping rate.  Paths are truncated at the horizon
``T`` and the clipped final segment keeps its clipped duration.

Durations are the stored record; segment end times come from one
extended-precision prefix sum, so phase errors stay negligible even for
~1e8 events.  ``simulate_carrier`` keeps the times of the prefix sum it
already takes to find the horizon, and a path built directly sums its
durations on first use; either sum runs in place on one longdouble copy.
``CarrierPath.events`` is the one place that reads the pulse events off
those times: the pulse starts and ends, alternating, which the
event-exact transform walks in chunks and ``pulse_bounds`` splits.
A carrier's draws go straight into one interleaved float64 buffer, and
the segment that crosses the horizon is clipped in place, so a path
peaks at about 35 bytes per kept segment (the float64 durations, their
longdouble prefix sum and its float64 cast, 32 bytes per drawn segment,
with about 1.1 drawn per kept) and keeps 16 (durations and end times).

``superpose`` builds the sampled signal in one float64 array: the
pulses' rising (+1) and falling (-1) sample indices added in with
``np.add.at``, a group of carriers at a time, then its prefix sum, then
the pulse height, all in place.  The sums are over whole numbers, so
they are exact.  ``occupancy_counts`` counts the signal in blocks of
``_HIST_BLOCK`` samples.

Every CSV row of the package is written by ``_write_rows``, in blocks
of ``_CSV_BLOCK`` rows.

Reproducibility contract: one random sub-stream per (realization,
carrier), derived from the master seed by index, so results are
bit-identical for a given config regardless of how work is distributed.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .distributions import (
    NonergodicError,
    PoissonTrapping,
    RateModel,
    detrap_mean,
    escape_times,
    sample_rate,
)

__all__ = [
    "SimConfig",
    "CarrierPath",
    "SampledSignal",
    "carrier_stream",
    "simulate_carrier",
    "simulate_realization",
    "empirical_nu",
    "superpose",
    "occupancy_counts",
    "binomial_pmf",
    "write_event_csv",
    "write_signal_csv",
]

# rows per formatted block of every CSV; bounds the strings a long path,
# signal or spectrum would otherwise build
_CSV_BLOCK = 1 << 14
# samples per block of the occupancy histogram (512 kB of float64), so
# counting makes no temporary as large as the signal
_HIST_BLOCK = 1 << 16
# ``superpose`` adds the pulse bounds of whole carriers with one np.add.at
# call per group of at least this many, so many short paths take few calls
_SUPERPOSE_GROUP = 1 << 16


def _sample_count(horizon: float, dt: float) -> int:
    """Samples at k * dt below ``horizon``, forgiving rounding of horizon/dt."""
    return int(np.floor(horizon / dt + 1e-9))


@dataclass(frozen=True)
class SimConfig:
    """Everything needed to regenerate a run exactly."""

    rates: RateModel
    trapping: PoissonTrapping
    horizon: float
    amplitude: float = 1.0
    n_carriers: int = 1
    n_realizations: int = 1
    sample_dt: Optional[float] = None
    seed: int = 0

    def __post_init__(self):
        for name in ("horizon", "amplitude"):
            value = getattr(self, name)
            if not 0.0 < value < np.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        for name in ("n_carriers", "n_realizations"):
            count = getattr(self, name)
            if not isinstance(count, (int, np.integer)) or count < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.sample_dt is None:
            return
        if not 0.0 < self.sample_dt < np.inf:
            raise ValueError(
                f"sample_dt must be finite and positive, got {self.sample_dt}"
            )
        if _sample_count(self.horizon, self.sample_dt) < 2:
            raise ValueError(
                f"sample_dt {self.sample_dt} leaves fewer than 2 samples "
                f"on horizon {self.horizon}"
            )


@dataclass
class CarrierPath:
    """One carrier's alternating gap/pulse durations over [0, horizon].

    Paths always start trapped: ``durations[0]`` is a gap and segments
    alternate strictly, so even indices are gaps and odd indices pulses.
    A path that starts free has a zero-length first gap.  ``durations``
    must not change once :meth:`segment_times` has been called.
    """

    durations: np.ndarray
    horizon: float
    _times: Optional[np.ndarray] = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def pulse_count(self) -> int:
        return len(self.durations) // 2

    @property
    def gap_durations(self) -> np.ndarray:
        return self.durations[0::2]

    @property
    def pulse_durations(self) -> np.ndarray:
        return self.durations[1::2]

    @property
    def free_time(self) -> float:
        return float(self.pulse_durations.sum())

    def segment_times(self) -> np.ndarray:
        """Cumulative segment end times (extended-precision prefix sum).

        Computed once per path and returned read-only.
        """
        if self._times is None:
            prefix = self.durations.astype(np.longdouble)
            np.cumsum(prefix, out=prefix)
            self._set_times(prefix.astype(np.float64))
        return self._times

    def _set_times(self, times: np.ndarray) -> None:
        times.flags.writeable = False
        self._times = times

    @property
    def events(self) -> np.ndarray:
        """Pulse starts and ends, alternating (read-only): the segment end
        times up to the last pulse's end."""
        return self.segment_times()[: 2 * self.pulse_count]

    def pulse_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(start, end) times of every pulse segment."""
        events = self.events
        return events[0::2], events[1::2]


@dataclass
class SampledSignal:
    """Superposed current sampled on a uniform grid.

    ``values[k]`` is the current at time ``k * dt``: the pulse height
    times the number of carriers free at that instant.
    """

    values: np.ndarray
    dt: float
    n_carriers: int
    amplitude: float
    horizon: float


def carrier_stream(seed: int, realization: int, carrier: int) -> np.random.Generator:
    """Independent, reproducible stream for one (realization, carrier)."""
    ss = np.random.SeedSequence(seed, spawn_key=(realization, carrier))
    return np.random.Generator(np.random.PCG64(ss))


def _cycle_time_guess(rates: RateModel, trapping: PoissonTrapping, horizon: float) -> float:
    try:
        tau = detrap_mean(rates)
    except NonergodicError:
        # crude positive stand-in; only affects block sizing
        tau = np.log1p(rates.gamma_max * horizon) / rates.gamma_max
    return trapping.mean_time + tau


def simulate_carrier(config: SimConfig, rng: np.random.Generator) -> CarrierPath:
    """Generate one carrier path, starting trapped, truncated at the horizon.

    Gap and pulse durations are drawn in blocks (rates, then gap
    exponentials, then pulse exponentials), each straight into its
    interleaved slots, so the draw sequence is a pure function of the
    stream state.  A zero-rate gap comes out infinite and is clipped at
    the horizon, closing the path with a terminal gap.
    """
    T = config.horizon
    theta_scale = config.trapping.mean_time
    guess = _cycle_time_guess(config.rates, config.trapping, T)

    blocks: list[np.ndarray] = []
    total = 0.0
    while total < T:
        n = max(16, int(1.1 * (T - total) / guess) + 1)
        block = np.empty(2 * n)
        gamma = np.asarray(sample_rate(config.rates, rng, n), dtype=float)
        block[0::2] = escape_times(gamma, rng.standard_exponential(n))
        block[1::2] = rng.exponential(theta_scale, n)
        blocks.append(block)
        block_total = block[0::2].sum() + block[1::2].sum()
        total = total + block_total if np.isfinite(block_total) else np.inf
    interleaved = np.concatenate(blocks)
    del blocks, block, gamma  # the loop variables hold the last block's draw

    prefix = interleaved.astype(np.longdouble)
    np.cumsum(prefix, out=prefix)
    ends = prefix.astype(np.float64)
    cut = int(np.searchsorted(ends, T, side="left"))
    if cut < len(interleaved):
        # clip the segment that crosses the horizon (positive, as its start
        # is below T) and end it as the path's own prefix sum would
        interleaved[cut] = T - (ends[cut - 1] if cut else 0.0)
        ends[cut] = (prefix[cut - 1] if cut else 0.0) + interleaved[cut]
        cut += 1
    del prefix  # free the extended-precision sum before the copies
    path = CarrierPath(durations=interleaved[:cut].copy(), horizon=T)
    path._set_times(ends[:cut].copy())
    return path


def simulate_realization(config: SimConfig, realization: int) -> list[CarrierPath]:
    """All carrier paths of one realization, each on its own sub-stream."""
    return [
        simulate_carrier(config, carrier_stream(config.seed, realization, c))
        for c in range(config.n_carriers)
    ]


def empirical_nu(path: CarrierPath) -> float:
    """Observed pulses per unit time, K / T."""
    return path.pulse_count / path.horizon


def superpose(
    paths: Sequence[CarrierPath], amplitude: float, dt: float
) -> SampledSignal:
    """Sample the summed current of independent carriers on a uniform grid.

    State changes are located exactly; the only discretization is the
    sampling itself.  All paths must share the same horizon.
    """
    if not paths:
        raise ValueError("need at least one carrier path")
    T = paths[0].horizon
    if any(p.horizon != T for p in paths):
        raise ValueError("mismatched horizons")
    n_samples = _sample_count(T, dt)
    if n_samples < 1:
        raise ValueError("horizon shorter than one sample interval")

    # carrier free on [t0, t1) contributes to samples ceil(t0/dt) .. ceil(t1/dt)-1;
    # one float64 array holds the increments, then the occupancy; both
    # are whole numbers far below 2**53, so every sum is exact
    delta = np.zeros(n_samples + 1)
    group: list = []
    size = 0
    for i, p in enumerate(paths):
        group.append(p.pulse_bounds())
        size += 2 * p.pulse_count
        if size >= _SUPERPOSE_GROUP or i == len(paths) - 1:
            # a group's rising (+1) and falling (-1) sample indices
            for times, step in zip(zip(*group), (1.0, -1.0)):
                k = np.ceil(np.concatenate(times) / dt).astype(np.int64)
                np.clip(k, 0, n_samples, out=k)
                np.add.at(delta, k, step)
            group, size = [], 0
    values = delta[:n_samples]
    np.cumsum(values, out=values)
    values *= amplitude
    return SampledSignal(
        values=values,
        dt=dt,
        n_carriers=len(paths),
        amplitude=amplitude,
        horizon=T,
    )


def occupancy_counts(signal: SampledSignal) -> np.ndarray:
    """Number of samples with 0..N carriers free (unnormalized histogram).

    Counted ``_HIST_BLOCK`` samples at a time, so no temporary is as
    large as the signal.
    """
    hist = np.zeros(signal.n_carriers + 1, dtype=np.int64)
    for i in range(0, len(signal.values), _HIST_BLOCK):
        x = signal.values[i : i + _HIST_BLOCK] / signal.amplitude
        np.rint(x, out=x)
        hist += np.bincount(x.astype(np.int64), minlength=len(hist))
    return hist


def binomial_pmf(n_carriers: int, p_free: float) -> np.ndarray:
    """Probability of 0..n_carriers free carriers, each free with
    probability ``p_free`` independently of the others."""
    from scipy.stats import binom

    return binom.pmf(np.arange(n_carriers + 1), n_carriers, p_free)


def _write_rows(fileobj, *pieces) -> None:
    """One row per index of the equal-length arrays among ``pieces``:
    strings are fixed text, written as they are, and each array a column
    at 17 significant digits (so ``2.0`` is ``2``).  One ``%`` pass and
    one write per ``_CSV_BLOCK`` rows.
    """
    row = "".join(
        p.replace("%", "%%") if isinstance(p, str) else "%.17g" for p in pieces
    )
    columns = [p for p in pieces if not isinstance(p, str)]
    for i in range(0, len(columns[0]), _CSV_BLOCK):
        block = np.column_stack([c[i : i + _CSV_BLOCK] for c in columns])
        fileobj.write(row * len(block) % tuple(block.ravel().tolist()))


def write_event_csv(
    fileobj, realizations: Sequence[Sequence[CarrierPath]], start: int = 0
) -> None:
    """One row per segment: realization, carrier, kind, duration.

    Rows carry realization index ``start + i``, and the header is written
    when ``start`` is 0, so realizations can be written one call at a
    time.  Each gap and pulse pair is one two-line row of
    :func:`_write_rows`.
    """
    if start == 0:
        fileobj.write("realization,carrier,kind,duration\n")
    for r, paths in enumerate(realizations, start):
        for c, path in enumerate(paths):
            gap, d, n = f"{r},{c},gap,", path.durations, 2 * path.pulse_count
            _write_rows(fileobj, gap, d[0:n:2], f"\n{r},{c},pulse,", d[1:n:2], "\n")
            _write_rows(fileobj, gap, d[n:], "\n")  # the closing gap, if any


def write_signal_csv(fileobj, signal: SampledSignal, seed: int) -> None:
    """Sampled values with a header row carrying the grid parameters."""
    fileobj.write("dt,n_carriers,amplitude,horizon,seed\n")
    fileobj.write(
        f"{signal.dt:.17g},{signal.n_carriers},{signal.amplitude:.17g},"
        f"{signal.horizon:.17g},{seed}\n"
    )
    fileobj.write("value\n")
    _write_rows(fileobj, signal.values, "\n")
