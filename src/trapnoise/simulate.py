"""Carrier-path generation and superposition.

A carrier alternates between a trapped state (gap: zero current) and free
drift (pulse: current ``a``), starting trapped at t = 0 with a freshly
drawn gap.  Every capture draws a new trapping-center rate, so gap
durations are iid from the uniform-rate mixture; pulse durations are iid
exponential with the trapping rate.  Paths are truncated at the horizon
``T`` and the clipped final segment keeps its clipped duration.

A path records its durations and their segment end times, the float64
rounding of one extended-precision prefix sum, so phase errors stay
negligible even for ~1e8 events.  ``simulate_carrier`` keeps the ends
of the prefix sum it already takes to find the horizon.
``CarrierPath.events`` is the one place that reads the pulse events off
those times: the pulse starts and ends, alternating, which the
event-exact transform walks in chunks and ``pulse_bounds`` splits.
A carrier's draws go straight into one interleaved float64 buffer.  Its
longdouble prefix sum runs in blocks of ``_PREFIX_BLOCK`` segments, each
block's cumsum starting from the last sum of the block before, so the
additions are those of one cumsum over the path; each block's float64
cast goes straight into the end times, up to the block that reaches the
horizon.  The segment that crosses the horizon is clipped in place, and
a path longer than one block is trimmed in place too, so a path peaks at
about 20 bytes per kept segment (the float64 durations and end times, 16
bytes per drawn segment, with about 1.1 drawn per kept, and one block of
the longdouble sum) and keeps 16.

``simulate_realization`` makes many short paths a group at a time.
Each carrier's first draw block goes, on its own stream and in the
order ``simulate_carrier`` draws it, into a row of buffers shared by a
group of carriers with at most ``_GROUP_SEGMENTS`` first-block segments
in all; the escape times, the interleave, the block totals, the
row-wise longdouble prefix sum, the horizon cut and the clip then run
once for the whole group.  A carrier whose first block ends short of
the horizon carries on from that block and its stream as
``simulate_carrier`` would, so nothing is drawn twice and every path
has ``simulate_carrier``'s bytes.  A lone carrier, or a first block of
more than ``_GROUP_SEGMENTS`` segments, takes ``simulate_carrier`` itself.

``superpose`` builds the sampled signal in one float64 array: the
pulses' rising (+1) and falling (-1) sample indices added in with
``np.add.at``, a group of carriers at a time, then its prefix sum, then
the pulse height, all in place.  The sums are over whole numbers, so
they are exact.  It takes any iterable of paths and reads each once, so
a producer can simulate the carriers while it adds them in (the
runner's sampled realizations do), and only the paths of the groups in
flight are alive beside the signal.  ``simulate_realization`` makes the
paths of any range of a realization's carriers, the same as the whole
realization's at those indices.  ``occupancy_counts`` counts the signal
in blocks of ``_HIST_BLOCK`` samples.

Every CSV row of the package is written by ``_write_rows``, in blocks
of ``_CSV_BLOCK`` rows.

Reproducibility contract: one random sub-stream per (realization,
carrier), derived from the master seed by index, so results are
bit-identical for a given config regardless of how work is distributed.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np

from .distributions import (
    NonergodicError,
    PoissonTrapping,
    RateModel,
    _require_positive,
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
# call per group of at least this many, so many short paths take few calls,
# and the group's paths and index arrays beside the signal stay small
_SUPERPOSE_GROUP = 1 << 14
# segments per block of a carrier's longdouble prefix sum; a path longer
# than one block is trimmed in place, a shorter one copied (in place,
# the many short paths of a sampled run left more heap behind)
_PREFIX_BLOCK = 1 << 16
# the most first-block segments of one carrier group in
# ``simulate_realization``: its buffers hold about 33 bytes per segment at
# once (1 MB), whatever the carriers' path length; twice as many gained no
# speed and raised the peak RSS of fig6 at scale 16 by 0.4-2.6 MB
_GROUP_SEGMENTS = 1 << 15


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
        _require_positive(horizon=self.horizon, amplitude=self.amplitude)
        for name in ("n_carriers", "n_realizations"):
            count = getattr(self, name)
            if not isinstance(count, (int, np.integer)) or count < 1:
                raise ValueError(f"{name} must be an integer >= 1, got {count!r}")
        if not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(f"seed must be an integer >= 0, got {self.seed!r}")
        if self.sample_dt is None:
            return
        _require_positive(sample_dt=self.sample_dt)
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
    A path that starts free has a zero-length first gap.  ``ends`` holds
    the segment end times, the float64 rounding of the longdouble prefix
    sum of ``durations``, and is read-only once the path is built.
    """

    durations: np.ndarray
    horizon: float
    ends: np.ndarray

    def __post_init__(self):
        self.ends.flags.writeable = False

    @property
    def pulse_count(self) -> int:
        return len(self.durations) // 2

    @property
    def free_time(self) -> float:
        return float(self.durations[1::2].sum())

    @property
    def events(self) -> np.ndarray:
        """Pulse starts and ends, alternating (read-only): the segment end
        times up to the last pulse's end."""
        return self.ends[: 2 * self.pulse_count]

    def pulse_bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """(start, end) times of every pulse segment."""
        events = self.events
        return events[0::2], events[1::2]


@dataclass
class SampledSignal:
    """Superposed current sampled on a uniform grid.

    ``values[k]`` is the current at time ``k * dt``: the pulse height
    times the number of carriers free at that instant.  An even-length
    signal passed to ``periodogram_fft(..., overwrite=True)`` is
    transformed in its own memory, with no spectrum-sized array beside
    it, and gives that memory to the spectrum: ``values`` then holds the
    frequency grid and the periodogram, not samples, and keeps its
    length.
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


def _block_pairs(remaining: float, guess: float) -> int:
    """Gap/pulse pairs of the next draw block, for ``remaining`` time to go."""
    return max(16, int(1.1 * remaining / guess) + 1)


def simulate_carrier(config: SimConfig, rng: np.random.Generator) -> CarrierPath:
    """Generate one carrier path, starting trapped, truncated at the horizon.

    Gap and pulse durations are drawn in blocks (rates, then gap
    exponentials, then pulse exponentials), each straight into its
    interleaved slots, so the draw sequence is a pure function of the
    stream state.  A zero-rate gap comes out infinite and is clipped at
    the horizon, closing the path with a terminal gap.
    """
    return _carry_on(config, rng, [], 0.0)


def _carry_on(
    config: SimConfig, rng: np.random.Generator, blocks: list, total: float
) -> CarrierPath:
    """The path whose draw blocks so far are ``blocks``, of float64 total
    ``total``: draw blocks from ``rng`` until the total reaches the
    horizon, then cut the path there."""
    T = config.horizon
    theta_scale = config.trapping.mean_time
    guess = _cycle_time_guess(config.rates, config.trapping, T)

    while total < T:
        n = _block_pairs(T - total, guess)
        block = np.empty(2 * n)
        gamma = sample_rate(config.rates, rng, n)
        escape_times(gamma, rng.standard_exponential(n), out=block[0::2])
        block[1::2] = rng.exponential(theta_scale, n)
        blocks.append(block)
        total += block[0::2].sum() + block[1::2].sum()
    interleaved = blocks[0] if len(blocks) == 1 else np.concatenate(blocks)
    del blocks, block, gamma  # the loop variables hold the last block's draw

    # the longdouble prefix sum in blocks: row 0 of the block buffer holds
    # the last sum of the block before (0 at first), so one cumsum per
    # block makes the same sequential additions as one over the path; its
    # float64 cast goes into the ends until the block that reaches T
    ends = np.empty_like(interleaved)
    prefix = np.zeros(min(_PREFIX_BLOCK, len(interleaved)) + 1, dtype=np.longdouble)
    for start in range(0, len(interleaved), _PREFIX_BLOCK):
        durations = interleaved[start : start + _PREFIX_BLOCK]
        stop = start + len(durations)
        part = prefix[: len(durations) + 1]
        part[1:] = durations
        np.cumsum(part, out=part)
        ends[start:stop] = part[1:]
        if ends[stop - 1] >= T:  # the float64 end, as the search reads it
            break
        prefix[0] = part[-1]
    cut = start + int(np.searchsorted(ends[start:stop], T))
    if cut < len(interleaved):
        # clip the segment that crosses the horizon (positive, as its start
        # is below T) and end it as the path's own prefix sum would
        interleaved[cut] = T - (ends[cut - 1] if cut else 0.0)
        ends[cut] = part[cut - start] + interleaved[cut]
        cut += 1
    del prefix, part, durations  # durations is a view of interleaved
    if cut > _PREFIX_BLOCK:
        # no view of either buffer is left, so both shrink in place
        interleaved.resize(cut, refcheck=False)
        ends.resize(cut, refcheck=False)
    else:
        interleaved, ends = interleaved[:cut].copy(), ends[:cut].copy()
    return CarrierPath(durations=interleaved, horizon=T, ends=ends)


def _simulate_group(
    config: SimConfig, realization: int, carriers: range, n: int
) -> list[CarrierPath]:
    """The paths of ``carriers``, whose first draw blocks (``n`` pairs
    each) are drawn one carrier at a time into the rows of shared buffers
    and cut in whole-array operations, with ``simulate_carrier``'s bytes.

    Each row's draws are those ``simulate_carrier`` makes, in its order
    (``exponential(theta, n)`` is ``theta`` times the unit exponentials,
    product for product).  The row sums along the last axis and the
    row-wise longdouble cumsum make the same additions as the sums and
    cumsum over one path, and the count of ends below T is the search of
    a sorted row.  A carrier whose first block ends short of T carries on
    from that block and its own stream, through ``_carry_on``.
    """
    T = config.horizon
    rngs = [carrier_stream(config.seed, realization, c) for c in carriers]
    rates, gaps, pulses = np.empty((3, len(rngs), n))
    for rng, rate, gap, pulse in zip(rngs, rates, gaps, pulses):
        rate[:] = sample_rate(config.rates, rng, n)
        rng.standard_exponential(out=gap)
        rng.standard_exponential(out=pulse)
    block = np.empty((len(rngs), 2 * n))
    escape_times(rates, gaps, out=block[:, 0::2])
    np.multiply(pulses, config.trapping.mean_time, out=block[:, 1::2])
    del rates, gaps, pulses
    totals = block[:, 0::2].sum(axis=1) + block[:, 1::2].sum(axis=1)

    prefix = np.zeros((len(rngs), 2 * n + 1), dtype=np.longdouble)
    prefix[:, 1:] = block
    np.cumsum(prefix, axis=1, out=prefix)
    ends = prefix[:, 1:].astype(np.float64)
    cuts = np.count_nonzero(ends < T, axis=1)
    # clip each crossing segment of a path that ends in this block
    rows = np.flatnonzero((totals >= T) & (cuts < 2 * n))
    cut = cuts[rows]
    block[rows, cut] = T - np.where(cut > 0, ends[rows, cut - 1], 0.0)
    ends[rows, cut] = prefix[rows, cut] + block[rows, cut]
    cuts[rows] += 1
    del prefix

    return [
        _carry_on(config, rng, [block[i]], totals[i])
        if totals[i] < T
        else CarrierPath(
            durations=block[i, : cuts[i]].copy(), horizon=T, ends=ends[i, : cuts[i]].copy()
        )
        for i, rng in enumerate(rngs)
    ]


def simulate_realization(
    config: SimConfig, realization: int, carriers: Optional[range] = None
) -> list[CarrierPath]:
    """The paths of the ``carriers`` (default: all) of one realization,
    each on its own sub-stream, so the paths of a range of carriers are
    those of the whole realization at the same indices.

    Several carriers whose first draw block fits in ``_GROUP_SEGMENTS``
    segments are simulated in groups of at most that many first-block
    segments (``_simulate_group``); each path has the bytes
    ``simulate_carrier`` gives it.
    """
    if carriers is None:
        carriers = range(config.n_carriers)
    guess = _cycle_time_guess(config.rates, config.trapping, config.horizon)
    n = _block_pairs(config.horizon, guess)
    if len(carriers) == 1 or 2 * n > _GROUP_SEGMENTS:
        return [
            simulate_carrier(config, carrier_stream(config.seed, realization, c))
            for c in carriers
        ]
    per_group = _GROUP_SEGMENTS // (2 * n)
    return [
        path
        for lo in range(0, len(carriers), per_group)
        for path in _simulate_group(config, realization, carriers[lo : lo + per_group], n)
    ]


def empirical_nu(path: CarrierPath) -> float:
    """Observed pulses per unit time, K / T."""
    return path.pulse_count / path.horizon


def _add_bounds(delta: np.ndarray, group: list, dt: float) -> None:
    """Add the rising (+1) and falling (-1) sample indices of a group of
    ``pulse_bounds`` into the increments ``delta`` (one past the samples)."""
    for times, step in zip(zip(*group), (1.0, -1.0)):
        k = np.ceil(np.concatenate(times) / dt).astype(np.int64)
        np.clip(k, 0, len(delta) - 1, out=k)
        np.add.at(delta, k, step)


def superpose(
    paths: Iterable[CarrierPath], amplitude: float, dt: float
) -> SampledSignal:
    """Sample the summed current of independent carriers on a uniform grid.

    State changes are located exactly; the only discretization is the
    sampling itself.  ``paths`` may be any iterable of paths, a generator
    included: each path is read as it arrives and dropped once its group
    is added in, so a producer that makes the paths a few carriers at a
    time keeps only those alive.  All paths must share the same horizon.
    """
    # carrier free on [t0, t1) contributes to samples ceil(t0/dt) .. ceil(t1/dt)-1;
    # one float64 array holds the increments, then the occupancy; both
    # are whole numbers far below 2**53, so every sum is exact
    delta = None
    group: list = []
    size = n_carriers = 0
    for p in paths:
        if delta is None:
            T = p.horizon
            n_samples = _sample_count(T, dt)
            if n_samples < 1:
                raise ValueError("horizon shorter than one sample interval")
            delta = np.zeros(n_samples + 1)
        elif p.horizon != T:
            raise ValueError("mismatched horizons")
        n_carriers += 1
        group.append(p.pulse_bounds())
        size += 2 * p.pulse_count
        if size >= _SUPERPOSE_GROUP:
            _add_bounds(delta, group, dt)
            group, size = [], 0
    if delta is None:
        raise ValueError("need at least one carrier path")
    if group:
        _add_bounds(delta, group, dt)
    values = delta[:n_samples]
    np.cumsum(values, out=values)
    values *= amplitude
    return SampledSignal(
        values=values,
        dt=dt,
        n_carriers=n_carriers,
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
    fileobj,
    realizations: Sequence[Sequence[CarrierPath]],
    start: int = 0,
    carrier_start: int = 0,
) -> None:
    """One row per segment: realization, carrier, kind, duration.

    Rows carry realization index ``start + i`` and carrier index
    ``carrier_start + j``, and the header is written when both are 0, so
    realizations, or groups of one realization's carriers, can be written
    one call at a time.  Each gap and pulse pair is one two-line row of
    :func:`_write_rows`.
    """
    if start == 0 and carrier_start == 0:
        fileobj.write("realization,carrier,kind,duration\n")
    for r, paths in enumerate(realizations, start):
        for c, path in enumerate(paths, carrier_start):
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
