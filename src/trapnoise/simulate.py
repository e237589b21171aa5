"""Carrier-path generation and superposition.

A carrier alternates between a trapped state (gap: zero current) and free
drift (pulse: current ``a``), starting trapped at t = 0 with a freshly
drawn gap.  Every capture draws a new trapping-center rate, so gap
durations are iid from the uniform-rate mixture; pulse durations are iid
exponential with the trapping rate.  Paths are truncated at the horizon
``T`` and the clipped final segment keeps its clipped duration.

A path records its durations and their segment end times, the float64
rounding of one extended-precision prefix sum, so phase errors stay
negligible even for ~1e8 events.  ``CarrierPath.events`` is the one
place that reads the pulse events off those times: the pulse starts and
ends, alternating, which the event-exact transform walks in chunks and
``pulse_bounds`` splits.

One builder makes every path, a lone carrier's as a group of one.  Its
draw rule (``_draw``) fills one interleaved row per carrier, each from
the carrier's own stream.  Its cut rule (``_cut``) takes the row-wise
longdouble prefix sum in column blocks of ``_PREFIX_BLOCK`` segments,
each starting from the last sum of the block before, so the additions
are those of one cumsum over the path, and casts it straight into the
end times.  Those ends alone decide where a path ends: the segment that
crosses the horizon is clipped there, so every path covers [0, T], and
a row whose ends all fall short draws a block more from its own stream
and is cut again.  No path is copied.  A lone path is its row trimmed
in place: it peaks at about 20 bytes per kept segment (the float64
durations and end times, 16 bytes per drawn segment, with about 1.1
drawn per kept, and one block of the longdouble sum) and keeps 16.  A
group's paths are views of the group's rows.  One rule,
``_carrier_groups``, sizes the groups that ``simulate_realization``,
the runner and ``superpose`` take.

``superpose`` builds the sampled signal in one float64 array: the
pulses' rising (+1) and falling (-1) sample indices added in with one
``np.add.at`` per sign and carrier group, then its prefix sum, then the
pulse height, all in place.  The sums are over whole numbers, so they
are exact, whatever the grouping.  It takes any iterable of carrier
groups and drops each once it is added in, so the runner simulates the
groups while it adds them in, and only one is alive beside the signal.
``simulate_realization`` makes the paths of any range of a realization's
carriers, the same as the whole realization's at those indices.
``occupancy_counts`` counts the signal in blocks of ``_HIST_BLOCK``
samples.

Every CSV row of the package is written by ``_write_rows``, in blocks
of ``_CSV_BLOCK`` rows, each formatted in whole-array operations with
the bytes of ``"%.17g" % value``: a row is a run of NUL-padded 8-byte
words, its text copied in and each number's field laid out from table
lookups, and a block is written in one call with its NULs taken out.
A whole number below 2**53 is written from its 4-digit groups.  Any
other number in [1e-6, 1e17) is scaled to 17 digits by Dekker's exact
product, rounded half to even, and laid out by ``%g``'s rule, its
trailing zeros stripped.  The rest (non-finite or out of range, about
0.03% of fig4's durations) go through ``%`` one at a time.
``write_event_csv`` writes each carrier group's rows together, each
row's ``realization,carrier,kind,`` text taken from a table.

Reproducibility contract: one random sub-stream per (realization,
carrier), derived from the master seed by index, so results are
bit-identical for a given config regardless of how work is distributed.
The stream is a ``PCG64`` seeded by numpy's
``SeedSequence(seed, spawn_key=(realization, carrier))``.  Every carrier
group, a lone carrier as a group of one, has its streams hashed in one
array pass of that hash, which numpy keeps fixed (``_carrier_streams``);
``carrier_stream`` builds one stream straight from numpy, the reference.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .distributions import (
    NonergodicError,
    PoissonTrapping,
    RateModel,
    _require_integer,
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
# signal or spectrum would otherwise build, and the block's temporaries:
# 8192-row blocks took the sampled export of fig6 at scale 64 to 1.24
# signal sizes, past its 1.2, and 2048-row ones were 7-17% slower
_CSV_BLOCK = 1 << 12
# samples per block of the occupancy histogram (512 kB of float64), so
# counting makes no temporary as large as the signal
_HIST_BLOCK = 1 << 16
# segments per column block of the longdouble prefix sum
_PREFIX_BLOCK = 1 << 16
# the most first-block segments of one carrier group: its buffers hold
# about 33 bytes per segment at once (1 MB), whatever the carriers' path
# length; twice as many gained no speed and raised the peak RSS of fig6 at
# scale 16 by 0.4-2.6 MB
_GROUP_SEGMENTS = 1 << 15
# the most carriers of one group, so the paths a sampled realization holds
# beside its signal stay few: at fig6 scale 64, groups of 142 carriers
# raised its traced peak from 1.13 to 1.21 signal sizes
_GROUP_CARRIERS = 64


def _sample_count(horizon: float, dt: float) -> int:
    """Whole intervals ``dt`` in ``horizon``, forgiving 4 ulps of horizon/dt."""
    ratio = horizon / dt
    return int(np.floor(ratio + 4 * np.spacing(ratio)))


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
        _require_integer(
            1, n_carriers=self.n_carriers, n_realizations=self.n_realizations
        )
        _require_integer(0, seed=self.seed)
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
    times the number of carriers free at that instant.  A signal passed
    to ``periodogram_fft(..., overwrite=True)`` is transformed in its own
    memory, with no spectrum-sized array beside it, and gives that memory
    to the spectrum: ``values`` then holds the frequency grid and the
    periodogram, not samples, and keeps its length.  An odd length's
    last sample is left out of the transform and keeps its value.
    """

    values: np.ndarray
    dt: float
    n_carriers: int
    amplitude: float
    horizon: float


def carrier_stream(seed: int, realization: int, carrier: int) -> np.random.Generator:
    """Independent, reproducible stream for one (realization, carrier):
    a ``PCG64`` seeded by ``np.random.SeedSequence(seed,
    spawn_key=(realization, carrier))``, any integers >= 0.  The
    reference for ``_carrier_streams``, which seeds every carrier group
    in one array pass and takes carriers below 2**32 only."""
    _require_integer(0, seed=seed, realization=realization, carrier=carrier)
    ss = np.random.SeedSequence(seed, spawn_key=(realization, carrier))
    return np.random.Generator(np.random.PCG64(ss))


# numpy's SeedSequence hash constants, which its reproducibility policy
# (NEP 19) keeps fixed
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)


@functools.lru_cache
def _hash_constants(init: int, mult: int, first: int, count: int) -> np.ndarray:
    """Xor (row 0) and multiply (row 1) constants of hash steps first ..
    first + count - 1, ``init * mult**k`` mod 2**32 after k steps; cached."""
    m = 1 << 32
    c = [init * pow(mult, k, m) % m for k in range(first, first + count + 1)]
    rows = np.array([c[:-1], c[1:]], dtype=np.uint32)
    rows.flags.writeable = False
    return rows


# the output hash's constants, rows of 4 words that broadcast over a pool
_HASH_B = _hash_constants(_INIT_B, _MULT_B, 0, 8).reshape(2, 2, 4)


def _uint32_words(value: int) -> int:
    """The 32-bit words SeedSequence splits a non-negative integer into."""
    return max(1, -(-int(value).bit_length() // 32))


class _CarrierSeed(ISeedSequence):
    """A carrier's ``generate_state(4, np.uint64)`` words, computed by
    ``_carrier_streams``, for ``PCG64`` to seed itself from (it cannot
    spawn)."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


def _carrier_streams(seed: int, realization: int, carriers: range) -> list:
    """The ``carrier_stream`` of each of ``carriers``, a range of carrier
    indices, with the same states, hashed for the whole group in uint32
    array arithmetic.

    ``SeedSequence(seed, spawn_key=(realization,))`` has mixed every word
    before the carrier's into its 4-word pool.  The carrier, one 32-bit
    word (so an index must be below 2**32), is then hash-mixed into each
    pool word, and the pool hashed into the 8 words of
    ``generate_state(4, np.uint64)``, as numpy's C code does: every
    product wraps mod 2**32, which array arithmetic does silently.  Each
    row of words seeds a ``PCG64`` through ``_CarrierSeed``, so numpy's
    own PCG64 seeding runs.
    """
    _require_integer(0, seed=seed, realization=realization)
    if len(carriers):
        lo, hi = sorted((carriers[0], carriers[-1]))
        _require_integer(0, carrier=lo)
        if hi >= 1 << 32:
            raise ValueError(f"carrier must be below 2**32, got {hi!r}")
    pool = np.random.SeedSequence(seed, spawn_key=(realization,)).pool
    # words before the carrier's: the seed's, padded to the pool size,
    # and the realization's; filling the pool took 4 hash steps, mixing
    # it 12, and each word past the first 4 took 4
    before = max(4, _uint32_words(seed)) + _uint32_words(realization)
    a = _hash_constants(_INIT_A, _MULT_A, 16 + 4 * (before - 4), 4)
    index = np.arange(carriers.start, carriers.stop, carriers.step, dtype=np.uint32)
    h = (index[:, None] ^ a[0]) * a[1]
    h ^= h >> 16
    mixed = _MIX_MULT_L * pool - _MIX_MULT_R * h
    mixed ^= mixed >> 16
    state = (mixed[:, None] ^ _HASH_B[0]) * _HASH_B[1]
    state ^= state >> 16
    words = state.reshape(len(index), 8).astype("<u4").view("<u8").astype(np.uint64)
    return [np.random.Generator(np.random.PCG64(_CarrierSeed(w))) for w in words]


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
    """Generate one carrier path, starting trapped, truncated at the horizon:
    the path of a group of one stream."""
    return _simulate_carriers(config, [rng])[0]


def _carrier_groups(config: SimConfig, carriers: range) -> list[range]:
    """``carriers`` in the groups that are simulated together: at most
    ``_GROUP_CARRIERS`` carriers and ``_GROUP_SEGMENTS`` first-block
    segments each, but at least one carrier."""
    guess = _cycle_time_guess(config.rates, config.trapping, config.horizon)
    pairs = _block_pairs(config.horizon, guess)
    size = max(1, min(_GROUP_CARRIERS, _GROUP_SEGMENTS // (2 * pairs)))
    return [carriers[lo : lo + size] for lo in range(0, len(carriers), size)]


def _draw(config: SimConfig, rngs: list, n: int) -> np.ndarray:
    """A draw block of ``n`` gap/pulse pairs per stream of ``rngs``, one
    interleaved row each.

    Every stream draws its rates (through ``sample_rate``), then its gap
    exponentials, then its pulse exponentials, so a row is a pure
    function of its stream's state.  The rates and the unit exponentials
    wait in contiguous scratch rows, which the escape-time division reads
    fastest, and the rates' rows are freed before the pulses are drawn;
    ``exponential(theta, n)`` is ``theta`` times the unit exponentials,
    product for product.  A zero rate gives an infinite gap.
    """
    block = np.empty((len(rngs), 2 * n))
    rates = np.empty((len(rngs), n))
    for rng, rate in zip(rngs, rates):
        rate[:] = sample_rate(config.rates, rng, n)
    units = np.empty_like(rates)
    for rng, unit in zip(rngs, units):
        rng.standard_exponential(out=unit)
    escape_times(rates, units, out=block[:, 0::2])
    del rates
    for rng, unit in zip(rngs, units):
        rng.standard_exponential(out=unit)
    np.multiply(units, config.trapping.mean_time, out=block[:, 1::2])
    return block


def _cut(block: np.ndarray, T: float) -> list[CarrierPath | float]:
    """Each row of a draw block cut at the horizon: its path, or the
    time it reached if that is short of T.

    The longdouble prefix sum runs along the rows in column blocks of
    ``_PREFIX_BLOCK`` segments; column 0 of the sum's buffer holds each
    row's last sum of the block before (0 at first), so one cumsum per
    block makes the same sequential additions as one over the row.  Its
    float64 cast, the end times, alone judges a row.  In the block whose
    last end is at least T, the count of the row's ends below T (the
    search of a sorted row) finds the crossing segment, which is clipped
    (positive, as its start is below T) and ended from the longdouble sum
    before it, as the row's own prefix sum would end it.  A row whose
    ends all stay below T gives back its last end, its durations as
    drawn.  A lone row's path is the row trimmed in place, which it
    owns; a group's paths are views of its rows.
    """
    width = block.shape[1]
    ends = np.empty_like(block)
    prefix = np.zeros((len(block), min(_PREFIX_BLOCK, width) + 1), dtype=np.longdouble)
    cuts = np.zeros(len(block), dtype=int)  # 0 for a row short of T
    todo = np.arange(len(block))
    for start in range(0, width, _PREFIX_BLOCK):
        stop = min(start + _PREFIX_BLOCK, width)
        part = prefix[:, : stop - start + 1]
        part[:, 1:] = block[:, start:stop]
        np.cumsum(part, axis=1, out=part)
        ends[:, start:stop] = part[:, 1:]
        reached = ends[todo, stop - 1] >= T  # the float64 ends, as the count reads them
        i = todo[reached]
        cut = np.count_nonzero(ends[:, start:stop] < T, axis=1)[i]
        # the longdouble sums before the crossing segments, whose float64
        # casts are the ends before them (0 before the first)
        before = part[i, cut]
        cut += start
        block[i, cut] = clipped = T - before.astype(np.float64)
        ends[i, cut] = before + clipped
        cuts[i] = cut + 1
        todo = todo[~reached]
        if not len(todo):
            break
        prefix[:, 0] = part[:, -1]
    del prefix, part
    if len(block) == 1 and cuts[0]:
        # no view of either buffer is left, so both shrink in place
        block.resize(cuts[0], refcheck=False)
        ends.resize(cuts[0], refcheck=False)
        return [CarrierPath(durations=block, horizon=T, ends=ends)]
    return [
        CarrierPath(durations=block[i, :cut], horizon=T, ends=ends[i, :cut])
        if cut else float(ends[i, -1])
        for i, cut in enumerate(cuts)
    ]


def _simulate_carriers(config: SimConfig, rngs: list) -> list[CarrierPath]:
    """The path of each stream of ``rngs``.

    The streams' first draw blocks are drawn and cut together.  A row
    that the cut finds short of T carries on alone: it joins on a block
    from its own stream, sized for the time from its last end to T, and
    is cut again, until the cut gives its path.
    """
    T = config.horizon
    guess = _cycle_time_guess(config.rates, config.trapping, T)
    block = _draw(config, rngs, _block_pairs(T, guess))
    paths = _cut(block, T)
    for i, rng in enumerate(rngs):
        row = block[i : i + 1]
        while isinstance(paths[i], float):
            more = _draw(config, [rng], _block_pairs(T - paths[i], guess))
            row = np.concatenate([row, more], axis=1)
            paths[i] = _cut(row, T)[0]
    return paths


def simulate_realization(
    config: SimConfig, realization: int, carriers: Optional[range] = None
) -> list[CarrierPath]:
    """The paths of the ``carriers`` (default: all) of one realization,
    each on its own sub-stream, so the paths of a range of carriers are
    those of the whole realization at the same indices.  The carriers are
    simulated in their ``_carrier_groups``."""
    if carriers is None:
        carriers = range(config.n_carriers)
    groups = _carrier_groups(config, carriers)
    streams = (_carrier_streams(config.seed, realization, g) for g in groups)
    return [path for rngs in streams for path in _simulate_carriers(config, rngs)]


def empirical_nu(path: CarrierPath) -> float:
    """Observed pulses per unit time, K / T."""
    return path.pulse_count / path.horizon


def superpose(
    groups: Iterable[Sequence[CarrierPath]], amplitude: float, dt: float
) -> SampledSignal:
    """Sample the summed current of independent carriers on a uniform grid.

    State changes are located exactly; the only discretization is the
    sampling itself.  ``groups`` may be any iterable of carrier groups
    (sequences of paths), a generator included: each group is added in
    as it arrives and then dropped, so a producer that makes the groups
    one at a time keeps only one alive.  Pass ``[paths]`` for one list.
    All paths must share the same horizon, and ``amplitude`` and ``dt``
    must be finite and positive.
    """
    _require_positive(amplitude=amplitude, dt=dt)
    # carrier free on [t0, t1) contributes to samples ceil(t0/dt) .. ceil(t1/dt)-1;
    # one float64 array holds the increments, then the occupancy; both
    # are whole numbers far below 2**53, so every sum is exact, whatever
    # the grouping
    delta = None
    n_carriers = 0
    for group in groups:
        if delta is None and len(group):
            T = group[0].horizon
            n_samples = _sample_count(T, dt)
            if n_samples < 1:
                raise ValueError("horizon shorter than one sample interval")
            delta = np.zeros(n_samples + 1)
        if any(p.horizon != T for p in group):
            raise ValueError("mismatched horizons")
        n_carriers += len(group)
        for times, step in zip(zip(*(p.pulse_bounds() for p in group)), (1.0, -1.0)):
            k = np.ceil(np.concatenate(times) / dt).astype(np.int64)
            np.clip(k, 0, n_samples, out=k)
            np.add.at(delta, k, step)
        # dropped before the producer makes the next group
        group = times = k = None
    if delta is None:
        raise ValueError("need at least one carrier path")
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


def _digit_words() -> np.ndarray:
    """ASCII words (4 bytes) of 0..9999: with leading zeros at 0..9999;
    with them as NUL (0 as four NULs) at 10000..19999; the same, but 0 as
    "0", at 20000..29999; then the digits 0..9, each before three NULs,
    at 30000..30009, and four NULs at ``_NUL_WORD``."""
    g = np.arange(10000)
    digits = np.stack([g // 1000, g // 100 % 10, g // 10 % 10, g % 10], axis=1)
    full = (digits + 48).astype(np.uint8)
    stripped = np.where(np.cumsum(digits, axis=1) > 0, full, 0).astype(np.uint8)
    kept = stripped.copy()
    kept[0, 3] = 48
    single = np.zeros((11, 4), np.uint8)
    single[:10, 0] = full[:10, 3]
    return np.concatenate([full, stripped, kept, single]).view("<u4").ravel()


def _layouts() -> tuple[np.ndarray, ...]:
    """``"%.17g"``'s layout of 17 digits with exponent k in -6..16 and
    n = 1..17 significant digits, by row 18 (k + 6) + n: masks (3 words)
    of the digits kept before the point, and after it in the digits
    moved on by one byte, and the point and exponent text; and by k + 6,
    the word of text before the digits, from its second byte on.  Fixed
    notation keeps the integer part's digits; k < -4 takes exponent
    notation, with at least two exponent digits."""
    at = np.arange(24)
    before = np.zeros((23, 18, 24), bool)
    after = np.zeros_like(before)
    text = np.zeros((23, 18, 24), np.uint8)
    lead = np.zeros((23, 8), np.uint8)
    n = np.arange(18)[:, None]
    for k in range(-6, 17):
        if k >= 0:
            point = kept = k + 1
        elif k >= -4:
            lead[k + 6, 1 : 2 - k] = list(b"0." + b"0" * (-k - 1))
            point, kept = 24, 1  # the point is in the lead text
        else:
            text[k + 6, :, 18:22] = list(b"e-0%d" % -k)
            point = kept = 1
        end = np.maximum(n, kept) + (n > point)
        before[k + 6] = (at < point) & (at < end)
        after[k + 6] = (at > point) & (at < end)
        if point < 24:
            text[k + 6, :, point] = np.where(point < end[:, 0], 46, 0)
    rows = (before.view(np.uint8) * 255, after.view(np.uint8) * 255, text)
    # word-major tables of three words per layout
    words = [r.reshape(23 * 18, 24).view("<u8").T.copy() for r in rows]
    return (*words, lead.view("<u8").ravel())


_DIGIT_WORDS = _digit_words()
_NUL_WORD = 30010
# "0" in each digit's byte of the three words of 17 digits, and the
# place, counted from 1, of each word's first digit
_ZERO_DIGITS = np.array([[0x3030303030303030], [0x3030303030303030], [0x30]], "<u8")
_WORD_PLACES = np.array([[1], [9], [17]])
_BEFORE_POINT, _AFTER_POINT, _LAYOUT_TEXT, _LEAD_TEXT = _layouts()
# 10**k for k = -8..18, the doubles nearest them; and the exact 10**q,
# q = 0..22, split in 26-bit halves for Dekker's product
_POW10 = 10.0 ** np.arange(-8, 19)
_SCALE = 10.0 ** np.arange(23)
_SPLIT = 134217729.0  # 2**27 + 1
_SCALE_HI = _SCALE * _SPLIT - (_SCALE * _SPLIT - _SCALE)
_SCALE_LO = _SCALE - _SCALE_HI


def _integer_fields(ax: np.ndarray, out: np.ndarray) -> None:
    """Words 1-2 of the fields of whole numbers ``ax`` below 2**53: their
    16 digits, leading zeros as NUL but the last digit kept; word 3 NUL."""
    v = ax.astype(np.int64)
    high = v // 10**8
    low = (v - high * 10**8).astype(np.uint32)
    high = high.astype(np.uint32)
    index = np.empty((len(v), 4), np.intp)
    g = high // 10000
    index[:, 0] = g + 10000
    blank = g == 0  # every digit so far is a leading zero
    g = high - g * 10000
    index[:, 1] = g + blank * np.uint32(10000)
    blank &= g == 0
    g = low // 10000
    index[:, 2] = g + blank * np.uint32(10000)
    blank &= g == 0
    index[:, 3] = low - g * 10000 + blank * np.uint32(20000)
    out[:, 1:3] = _DIGIT_WORDS.take(index).view("<u8")
    out[:, 3] = 0


def _scaled_digits(a: np.ndarray, q: np.ndarray, ok: np.ndarray) -> np.ndarray:
    """a * 10**q (q = 0..22, so 10**q is exact) rounded half to even to a
    whole number, as int64, for the rows of ``ok``: hi + rint(lo), the
    exact double-double hi + lo of Dekker's product of the two factors
    split in 26-bit halves, whose hi is an even whole number when it is
    at least 1e16.  Clears ``ok`` where hi = 1e16 rounds up a smaller
    product."""
    hi = a * _SCALE.take(q, mode="clip")
    a_hi = a * _SPLIT
    a_hi -= a_hi - a
    a = a - a_hi  # its low half
    s_hi, s_lo = _SCALE_HI.take(q, mode="clip"), _SCALE_LO.take(q, mode="clip")
    # Dekker's error terms, in Shewchuk's order
    err = hi - a_hi * s_hi
    err -= a * s_hi
    err -= a_hi * s_lo
    lo = a * s_lo
    lo -= err
    ok &= (hi != 1e16) | (lo >= 0)
    d = hi.astype(np.int64)
    d += np.rint(lo).astype(np.int64)
    return d


def _digit_string(d: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each of ``d`` (1e16 <= d < 1e17; any text
    for others), NUL-padded to three little-endian words, word-major:
    an array of (3, len(d))."""
    high = d // 10**9
    low = (d - high * 10**9).astype(np.uint32)
    high = high.astype(np.uint32)
    low10 = low // 10
    # 4 and 4 digits, 4 and 4, then the last and NULs
    index = np.empty((3, len(d), 2), np.intp)
    for w, part in enumerate((high, low10)):
        g = part // 10000
        index[w, :, 0] = g
        index[w, :, 1] = part - g * 10000
    index[2, :, 0] = low - low10 * 10 + 30000
    index[2, :, 1] = _NUL_WORD
    return _DIGIT_WORDS.take(index, mode="clip").view("<u8")[..., 0]


def _decimal_fields(ax: np.ndarray, skip: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The fields of ``ax`` (finite, 1e-6 <= ax < 1e17) but the rows of
    ``skip``: their 17 significant digits, laid out by ``_layouts``, with
    the lead text in word 0.  Returns the rows written; the others hold
    any text.

    k = floor(log10 ax) is read off the exponent bits and one table
    comparison, and D, ax * 10**(16 - k) rounded half to even as ``%``
    rounds, by ``_scaled_digits``.  A row whose k is off by one gets D
    out of [1e16, 1e17), or hi = 1e16 above a smaller product, and is
    not written.
    """
    k = (ax.view(np.uint64) >> np.uint64(52)).astype(np.intp)
    k -= 1023
    k *= 1233
    k >>= 12  # floor(k log10 2), k the binary exponent
    k += ax >= _POW10.take(k + 9, mode="clip")
    k += 6  # from here on, k + 6
    ok = k.view(np.uintp) <= 22
    ok &= ~skip
    d = _scaled_digits(np.where(ok, ax, 0.0), 22 - k, ok)
    ok &= (d - 10**16).view(np.uint64) < 9 * 10**16
    digits = _digit_string(d)
    # the significant digits run to the last nonzero one: the top byte of
    # each word's digits less "0", read off its float exponent
    n = (digits ^ _ZERO_DIGITS).astype(np.float64).view(np.int64) >> 52
    n -= 1023
    n >>= 3
    n += _WORD_PLACES
    row = n.max(axis=0)
    row += k * 18
    moved = digits << np.uint64(8)  # moved on by one byte, after the point
    moved[1:] |= digits[:2] >> np.uint64(56)
    moved &= _AFTER_POINT.take(row, axis=1, mode="clip")
    digits &= _BEFORE_POINT.take(row, axis=1, mode="clip")
    digits |= moved
    digits |= _LAYOUT_TEXT.take(row, axis=1, mode="clip")
    out[:, 1:] = digits.T
    out[:, 0] = _LEAD_TEXT.take(k, mode="clip")
    return ok


def _format_column(x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``"%.17g" % v`` of each float64 v of ``x`` in the matching row of
    ``out``, four little-endian words, NUL-padded: the sign and any lead
    text, then the digits.  Whole numbers below 2**53 take
    ``_integer_fields``, and the rest ``_decimal_fields``; the values
    that neither writes (non-finite, outside [1e-6, 1e17), or an
    exponent read off by one) are formatted by ``%`` one at a time, and
    their rows returned."""
    ax = np.abs(x)
    whole = np.rint(ax) == ax
    whole &= ax < 2.0**53
    n_whole = np.count_nonzero(whole)
    done = whole
    if n_whole < len(x):
        done = _decimal_fields(ax, whole, out) | whole
    if n_whole == len(x):
        out[:, 0] = 0
        _integer_fields(ax, out)
    elif n_whole:
        rows = np.flatnonzero(whole)
        fields = np.zeros((len(rows), 4), "<u8")
        _integer_fields(ax[rows], fields)
        out[rows] = fields
    out[:, 0] |= np.signbit(x) * np.uint64(45)
    rest = np.flatnonzero(~done)
    for i in rest:
        out[i] = np.frombuffer(("%.17g" % x[i]).encode().ljust(32, b"\0"), "<u8")
    return rest


def _text_words(texts: Sequence[str]) -> np.ndarray:
    """Each text's UTF-8 bytes, NUL-padded to whole 8-byte words of one
    width: an array of (len(texts), words)."""
    raw = [t.encode() for t in texts]
    if any(b"\0" in r for r in raw):
        raise ValueError("CSV text may not hold NUL")
    size = -(-max(map(len, raw)) // 8) * 8
    padded = b"".join(r.ljust(size, b"\0") for r in raw)
    return np.frombuffer(padded, "<u8").reshape(len(raw), size // 8)


def _write_rows(fileobj, *pieces) -> None:
    """One row per index of the equal-length columns among ``pieces``.

    A piece is fixed text (a string), text per row (a pair of a list of
    strings and an index array: row i takes ``texts[index[i]]``), or a
    column of numbers, each written as ``"%.17g" % value`` (so ``2.0``
    is ``2``).  Every piece fills whole 8-byte words of a NUL-padded row,
    a column four, so a block of ``_CSV_BLOCK`` rows is formatted in
    whole-array operations and written once, its NULs taken out.
    """
    fixed, slots, width = [], [], 0
    for piece in pieces:
        if isinstance(piece, str):
            words = _text_words([piece])[0]
            fixed.append((width, words))
            width += len(words)
        elif isinstance(piece, tuple):
            table = _text_words(piece[0]).T.copy()  # word-major
            slots.append((width, table, piece[1]))
            width += len(table)
        else:
            slots.append((width, None, piece))
            width += 4  # a number's field
    n = len(slots[0][2])
    row = np.empty((min(n, _CSV_BLOCK), width), "<u8")
    for at, words in fixed:
        row[:, at : at + len(words)] = words
    for i in range(0, n, _CSV_BLOCK):
        block = row[: min(_CSV_BLOCK, n - i)]
        for at, table, column in slots:
            part = column[i : i + len(block)]
            if table is None:
                _format_column(np.asarray(part, np.float64), block[:, at : at + 4])
            else:
                for w, words in enumerate(table, at):
                    block[:, w] = words.take(part)
        fileobj.write(block.tobytes().translate(None, b"\0").decode())


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
    one call at a time.  A realization's carriers are written together:
    their segments in turn, ``_CSV_BLOCK`` rows per :func:`_write_rows`
    call, each row's ``r,c,kind,`` text taken by its carrier and the
    parity of its segment.
    """
    if start == 0 and carrier_start == 0:
        fileobj.write("realization,carrier,kind,duration\n")
    values = np.empty(_CSV_BLOCK)
    label = np.empty(_CSV_BLOCK, dtype=np.intp)
    for r, paths in enumerate(realizations, start):
        carriers = range(carrier_start, carrier_start + len(paths))
        labels = [f"{r},{c},{kind}," for c in carriers for kind in ("gap", "pulse")]
        n = 0
        for j, path in enumerate(paths):
            d, lo = path.durations, 0
            while lo < len(d):
                m = min(len(d) - lo, _CSV_BLOCK - n)
                values[n : n + m] = d[lo : lo + m]
                np.bitwise_and(np.arange(lo, lo + m), 1, out=label[n : n + m])
                label[n : n + m] += 2 * j
                n, lo = n + m, lo + m
                if n == _CSV_BLOCK:
                    _write_rows(fileobj, (labels, label), values, "\n")
                    n = 0
        if n:
            _write_rows(fileobj, (labels, label[:n]), values[:n], "\n")


def write_signal_csv(fileobj, signal: SampledSignal, seed: int) -> None:
    """Sampled values with a header row carrying the grid parameters."""
    fileobj.write("dt,n_carriers,amplitude,horizon,seed\n")
    fileobj.write(
        f"{signal.dt:.17g},{signal.n_carriers},{signal.amplitude:.17g},"
        f"{signal.horizon:.17g},{seed}\n"
    )
    fileobj.write("value\n")
    _write_rows(fileobj, signal.values, "\n")
