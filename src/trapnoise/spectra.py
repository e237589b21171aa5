"""Periodogram estimation and spectrum bookkeeping.

Two estimators of the same one-sided definition ``S(f) = (2/T) |F(f)|^2``
with ``F`` the finite-time Fourier integral of the current:

* ``periodogram_superposed_events`` integrates the piecewise-constant
  current of one or more carriers analytically pulse by pulse, so it has
  no discretization error and can be evaluated on sparse log-spaced grids
  over millions of pulses.
* ``periodogram_fft`` is the standard rectangular-window periodogram of a
  uniformly sampled signal on its natural frequencies k/T.

The signal mean is kept in the signal (the definition uses the raw
current); evaluating on natural frequencies k/T makes the mean contribute
only at the excluded zero bin, so grids should be snapped to k/T — use
:func:`natural_frequencies`.

The event-exact sum over pulse starts (+1) and ends (-1) takes one of
two paths per frequency:

* Natural frequencies k/T up to a cut k_cut use a binned series: every
  event goes to the nearest of M >= 8 k_cut grid points (M a power of
  two), its offset from that point enters through a 10-term Taylor
  series, and each term costs one bincount and one rfft.  The truncation
  error is at most (pi/8)^10/10! = 2.4e-11 per event; against the
  float64 direct sum the measured relative error is below 2e-11 on the
  test-suite grids.  A cost model picks k_cut from the event count and
  the grid, and chooses no cut when the direct sum is cheaper.
* Every other frequency, above the cut or not a multiple of 1/T, uses
  the direct sum, with phases reduced modulo one cycle in float64 and
  trig in float32 (about 7x faster than float64 trig).  The per-term
  error is ~4e-7 radians; on single-realization fig3 spectra (scales
  12.5 and 100) the direct part is off from float64 trig by 2.3e-4
  relative at most and 8e-7 in the median.  Pass
  ``trig_dtype=np.float64`` to make this part double precision.

The direct sum walks each path once, in chunks of 2 * ``_EVENT_CHUNK``
events split into pulse starts and ends, frequencies inside.  ``workers``
threads share it: its frequencies are split evenly between them (numpy
releases the GIL in the cast, trig and sum loops).  Every frequency adds
the float64 sums of the same chunks in the same order, paths in order,
so the result does not depend on the thread count.  The binned series
runs first, on the calling thread: run beside the direct sum, its grids
would raise the peak memory by about as much as they hold.

A signal of even length L is transformed in place, in about one signal
of memory.  Its N = L/2 complex values z[m] = x[2m] + i x[2m+1], a view
of the float64 samples, go through the four-step FFT (Bailey 1990,
"FFTs in external or hierarchical memory") as an N1 x N2 matrix, N1 the
divisor of N nearest sqrt(N): FFTs of the columns, in blocks copied to
one small buffer, the twiddle W_N^{k1 n2}, then FFTs of the rows, all
through ``scipy.fft``.  The real transform is unpacked from the complex
one (Press et al., *Numerical Recipes*, sec. 12.3): with
E_k = (Z_k + conj Z_{N-k})/2, O_k = (Z_k - conj Z_{N-k})/(2i) and
W = e^{-2 pi i/L}, X_k = E_k + W^k O_k and X_{N-k} = conj(E_k - W^k O_k),
and each ordinate |X_k|^2 is written once, straight into the spectrum.
The twiddles come from short tables of phases reduced exactly and taken
in long double, each rounded once (a twiddle from ``exp`` of a float64
phase made the smallest ordinates twice as noisy as numpy's rfft).  Each
pass runs in fixed blocks, which ``min(workers, 2)`` threads share
(scipy releases the GIL); N1 and the blocks depend on L alone, so no
value depends on the thread count.  ``periodogram_fft`` transforms a
copy unless told it may overwrite the signal.  An odd L takes one rfft.

Accuracy, on integer random walks with three seeds per length, as the
largest error over the spectrum in units of the mean ordinate: against
a long-double rfft, 2.8e-10 at L = 2^22 (numpy's rfft: 4.3e-10) and
1.0e-9 at L = 6710886 (rfft: 5.3e-10), a few roundings of the largest
ordinate, which is 1.4e6 to 2.2e6 times the mean.  The single rfft and this
transform differ by at most 1.5e-10 and 1.6e-9.  Against a long-double
DFT with exactly reduced phases it is as accurate as the single rfft at
the largest and the smallest ordinates (L = 2^16).  Where N1 or N2 has
a large prime factor, scipy's FFT of that length is less accurate and
the smallest ordinates are noisier: at L = 6710886 (N1 = 7 x 241) the
rms relative error is 2.4e-12 to 1.3e-11, against 1.4e-12 to 2.6e-12
for the rfft.

Averaging is the stacked mean of the realizations, one formula for every
grid and realization count; a single estimate is its own mean and is
returned as it is.  The stack holds R x n values beside the R spectra it
is built from: a sampled run of R > 1 would hold its spectra twice,
though no preset runs one (fig6 has R = 1 at every scale).  The average
shares the first spectrum's frequencies.  Log binning finds each bin's
run of points by one binary search per bin edge, on the log10 of the
grid that each estimate takes once.
"""
from __future__ import annotations

import functools
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .simulate import CarrierPath, SampledSignal, _write_rows

__all__ = [
    "SpectrumEstimate",
    "natural_frequencies",
    "periodogram_superposed_events",
    "periodogram_fft",
    "average_spectra",
    "logbin_spectrum",
    "write_spectrum_csv",
]

_TWO_PI = 2.0 * np.pi
_PI_LONG = np.arccos(np.longdouble(-1))
_EVENT_CHUNK = 1 << 16  # fixed so results do not depend on scheduling
# columns per block of the four-step FFT's column pass, and rows per block
# of its row pass and of the unpack, fixed likewise
_COLUMN_BLOCK = 32
_ROW_BLOCK = 16
# Binned path: P Taylor terms on a grid oversampled 8x over the highest
# mode, so the series is off by at most (pi/8)^10/10! = 2.4e-11 per event.
_TAYLOR_TERMS = 10
_OVERSAMPLE = 8
# f counts as the natural frequency k/T when f*T is within rounding of k.
_NATURAL_RTOL = 1e-14
# Cost model in ns, measured on a 2-core 2.1 GHz x86_64 VM with numpy 2.4
# at 2e4-4e5 events: the direct sum per event and frequency (5.2-9.1), the
# binned path per event and Taylor term (5.8-8.0), and its FFT per M log2(M)
# and term (1.1-1.5 at M >= 8192).
_DIRECT_NS = 7.5
_BINNED_NS = 7.0
_FFT_NS = 1.2


@dataclass
class SpectrumEstimate:
    """Frequency grid plus one-sided PSD values.

    ``n_averaged`` counts the realizations merged into ``values``;
    ``estimator`` records provenance ("event_exact" or "sampled_fft").
    """

    freqs: np.ndarray
    values: np.ndarray
    n_averaged: int
    estimator: str

    def __post_init__(self):
        f = self.freqs
        # increasing from a positive first to a finite last point: one pass,
        # and NaN fails every comparison
        if not (len(f) and f[0] > 0.0 and f[-1] < np.inf):
            raise ValueError(
                "frequencies must be positive and finite (zero bin excluded)"
            )
        if not np.all(f[1:] > f[:-1]):
            raise ValueError("frequencies must be strictly increasing")

    @functools.cached_property
    def log_freqs(self) -> np.ndarray:
        """log10 of the frequencies, taken once per estimate."""
        return np.log10(self.freqs)


def natural_frequencies(
    horizon: float,
    f_max: float,
    f_min: float | None = None,
    points_per_decade: int = 40,
) -> np.ndarray:
    """Log-spaced selection from the natural grid k/horizon, k >= 1.

    Snapping to natural frequencies keeps the signal mean confined to the
    excluded zero bin of the finite-time periodogram.
    """
    if f_min is None:
        f_min = 1.0 / horizon
    if not (0.0 < f_min < f_max):
        raise ValueError(
            f"need 0 < f_min < f_max, got f_min {f_min:g} (by default "
            f"1/horizon) and f_max {f_max:g}"
        )
    n = int(np.ceil(np.log10(f_max / f_min) * points_per_decade)) + 1
    ks = np.rint(horizon * np.geomspace(f_min, f_max, n)).astype(np.int64)
    ks = np.unique(np.clip(ks, 1, None))
    return ks.astype(np.float64) / horizon


def _binned_grid(ks: np.ndarray, n_events: int) -> int:
    """Grid size M of the binned path for the natural modes ``ks``, or 0
    when the direct sum is cheaper for every M.

    The binned path covers every mode k <= M / _OVERSAMPLE.  M runs over
    powers of two and the one with the largest modelled saving wins.
    The P grids hold at most two values per event, no more memory than
    a longdouble copy of the event times.
    """
    best, best_gain = 0, 0.0
    grid = _OVERSAMPLE
    top = ks.max(initial=0) * _OVERSAMPLE
    while grid < 2 * top and _TAYLOR_TERMS * grid <= 2 * n_events:
        covered = np.count_nonzero(ks <= grid // _OVERSAMPLE)
        gain = _DIRECT_NS * n_events * covered - _TAYLOR_TERMS * (
            _BINNED_NS * n_events + _FFT_NS * grid * np.log2(grid)
        )
        if gain > best_gain:
            best, best_gain = grid, gain
        grid *= 2
    return best


def _binned_sums(events: list, ks: np.ndarray, grid: int, horizon: float) -> np.ndarray:
    """sum over events of w e^{-2 pi i k t / T} for the modes ``ks``, with
    w = +1 at pulse starts and -1 at pulse ends.

    An event at s = t M / T = m + d, m its nearest grid point, has
    e^{-2 pi i k s / M} = e^{-2 pi i k m / M} sum_p (-2 pi i k d / M)^p / p!.
    So the sum is sum_p (-2 pi i k / M)^p / p! rfft(H_p)[k] with
    H_p[m] = sum of w d^p over the events at m.  For k <= M / _OVERSAMPLE
    the truncated series is off by at most (pi / _OVERSAMPLE)^P / P! per
    event.
    """
    H = np.zeros((_TAYLOR_TERMS, grid + 1))
    sign = np.ones(min(_EVENT_CHUNK, max(len(e) for e in events)))
    sign[1::2] = -1.0
    scale = grid / horizon
    for times in events:
        # chunks start at even offsets, so each one opens with a pulse start
        for i in range(0, len(times), _EVENT_CHUNK):
            s = times[i : i + _EVENT_CHUNK] * scale
            m = np.rint(s)
            d = s - m
            m = m.astype(np.intp)
            lo = m[0]  # times are sorted, so m is too
            m -= lo
            v = sign[: len(s)].copy()
            for p in range(_TAYLOR_TERMS):
                h = np.bincount(m, v)
                H[p, lo : lo + len(h)] += h
                v *= d
    H[:, 0] += H[:, grid]  # t = T is a whole period
    spectra = [np.fft.rfft(h[:grid])[ks] for h in H]
    z = (-2j * np.pi / grid) * ks
    total = spectra[-1]
    for p in range(_TAYLOR_TERMS - 2, -1, -1):
        total = spectra[p] + (z / (p + 1)) * total
    return total


def _direct_sums(events: list, freqs: np.ndarray, trig_dtype) -> np.ndarray:
    """sum over events of w e^{-2 pi i f t} by the direct sum, with
    w = +1 at pulse starts and -1 at pulse ends: phases reduced modulo one
    cycle in float64, then per frequency the float64 cos and sin sums of
    each path's chunks added in chunk order, the paths in order."""
    total = np.zeros(len(freqs), dtype=complex)
    for times in events:
        # sums of cos and of sin over the starts (row 0) and ends (row 1)
        c = np.zeros((2, len(freqs)))
        s = np.zeros((2, len(freqs)))
        for i in range(0, len(times), 2 * _EVENT_CHUNK):
            chunk = times[i : i + 2 * _EVENT_CHUNK]
            for half in range(2):
                edges = chunk[half::2]
                for j, f in enumerate(freqs):
                    x = f * edges
                    x -= np.floor(x)
                    x *= _TWO_PI
                    ph = x.astype(trig_dtype, copy=False)
                    c[half, j] += np.cos(ph).sum(dtype=np.float64)
                    s[half, j] += np.sin(ph).sum(dtype=np.float64)
        # sum of e^{-i w t} is (sum cos) - i (sum sin)
        total += (c[0] - c[1]) - 1j * (s[0] - s[1])
    return total


def periodogram_superposed_events(
    paths: Sequence[CarrierPath],
    amplitude: float,
    freqs: np.ndarray,
    trig_dtype=np.float32,
    workers: int = 1,
) -> SpectrumEstimate:
    """Exact finite-time periodogram of the summed current of the carriers.

    The carriers' Fourier integrals add coherently before the modulus, so
    this equals the periodogram of the superposed signal with no sampling
    involved.  Pass ``[path]`` for a single carrier's pulse train.
    The integral is the sum over pulses of (e^{-i w t0} - e^{-i w t1}) /
    (i w).  Natural frequencies k/T up to the cut the cost model picks go
    through the binned series; every other frequency through the direct
    sum, with trig in ``trig_dtype``, split evenly over
    ``min(workers, frequencies)`` threads (the values do not depend on it).
    """
    freqs = np.asarray(freqs, dtype=float)
    if np.any(freqs <= 0.0):
        raise ValueError("frequencies must be positive")
    T = paths[0].horizon
    if any(p.horizon != T for p in paths):
        raise ValueError("mismatched horizons")
    events = [p.events for p in paths if p.pulse_count]
    total = np.zeros(len(freqs), dtype=complex)
    if events:
        modes = np.rint(freqs * T)
        natural = (modes >= 1) & (np.abs(freqs * T - modes) <= _NATURAL_RTOL * modes)
        grid = _binned_grid(modes[natural], sum(len(e) for e in events))
        binned = natural & (modes <= grid // _OVERSAMPLE)
        if binned.any():
            ks = modes[binned].astype(np.intp)
            total[binned] = _binned_sums(events, ks, grid, T)
        direct = np.flatnonzero(~binned)
        threads = min(workers, len(direct))
        parts = np.array_split(direct, max(threads, 1))

        def part_sums(part):
            return _direct_sums(events, freqs[part], trig_dtype)

        if threads > 1:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                sums = list(pool.map(part_sums, parts))
        else:
            sums = map(part_sums, parts)
        for part, part_total in zip(parts, sums):
            total[part] = part_total
        total /= 1j * _TWO_PI * freqs
    values = (2.0 * amplitude**2 / T) * np.abs(total) ** 2
    return SpectrumEstimate(
        freqs=freqs,
        values=values,
        n_averaged=1,
        estimator="event_exact",
    )


def _rows(n: int) -> int:
    """The divisor of ``n`` nearest sqrt(n): the rows N1 of the four-step
    transform of ``n`` points (1 when ``n`` is prime)."""
    small = np.arange(1, math.isqrt(n) + 1)
    small = small[n % small == 0]
    divisors = np.concatenate((small, n // small))
    return int(divisors[np.argmin(np.abs(divisors - math.sqrt(n)))])


def _unit_roots(m: np.ndarray, n: int) -> np.ndarray:
    """e^{-2 pi i m / n} for integers m, from phases reduced exactly
    modulo n and taken in long double, so each is rounded once."""
    phase = (m % n).astype(np.longdouble) * (-2 * _PI_LONG / n)
    roots = np.empty(np.shape(m), dtype=complex)
    roots.real = np.cos(phase)
    roots.imag = np.sin(phase)
    return roots


def _four_step_periodogram(x: np.ndarray, scale: float, workers: int) -> np.ndarray:
    """``scale |X_k|^2`` for k = 1..L/2, X the DFT of the even-length,
    contiguous ``x``, which it overwrites.

    The N = L/2 complex values z[m] = x[2m] + i x[2m+1], viewed as an
    N1 x N2 matrix, are transformed in place by the four-step FFT:
    column FFTs, the twiddle W_N^{k1 n2}, row FFTs, after which the
    matrix holds Z[k1 + N1 k2] at [k1, k2].  Then, with W = W_L^k,
    X_k = E_k + W O_k and X_{N-k} = conj(E_k - W O_k), where
    E_k = (Z_k + conj Z_{N-k})/2 and O_k = (Z_k - conj Z_{N-k})/(2i);
    each ordinate is written once, into ``values.reshape(N2, N1)``.
    Each pass is split into fixed blocks, shared by two threads when
    ``workers > 1``; N1 and the blocks depend on L alone, so no value
    depends on the thread count.
    """
    import scipy.fft

    n = len(x) // 2
    rows = _rows(n)
    cols = n // rows
    half = rows // 2
    z = x.view(np.complex128).reshape(rows, cols)
    # the big array is allocated here, so no thread arena holds it
    values = np.empty(n)
    grid = values.reshape(cols, rows)
    # the unpack makes 2 X_k, so its powers are scaled by a quarter
    quarter = scale / 4
    k1 = np.arange(rows)
    # W_N^{k1 (j + c)} = W_N^{k1 j} table[k1, c] for a block of columns
    # from j, and W_N^m = coarse[m // N1] fine[m % N1]
    table = _unit_roots(np.outer(k1, np.arange(_COLUMN_BLOCK)), n)
    coarse = _unit_roots(np.arange(cols) * rows, n)
    fine = _unit_roots(k1, n)
    # -i W_L^k = row_twiddle[k1] col_twiddle[k2] for k = k1 + N1 k2
    row_twiddle = -1j * _unit_roots(k1, len(x))[:, None]
    col_twiddle = _unit_roots(np.arange(cols) * rows, len(x))

    def column_ffts(starts):
        buf = np.empty((rows, _COLUMN_BLOCK), dtype=complex)
        for j in starts:
            w = min(_COLUMN_BLOCK, cols - j)
            block = buf[:, :w]
            block[...] = z[:, j : j + w]
            block = scipy.fft.fft(block, axis=0, overwrite_x=True, workers=1)
            block *= table[:, :w]
            q, r = np.divmod(k1 * j % n, rows)
            np.multiply(block, (coarse[q] * fine[r])[:, None], out=z[:, j : j + w])

    def row_ffts(starts):
        for i in starts:
            block = z[i : i + _ROW_BLOCK]
            out = scipy.fft.fft(block, axis=1, overwrite_x=True, workers=1)
            if not np.may_share_memory(out, block):
                block[...] = out

    def doubled(zk, zm, twiddle):
        """2 X_k = 2 E_k + 2 W O_k and 2 conj X_{N-k} = 2 E_k - 2 W O_k,
        for the rows ``zk``, the rows ``zm`` that hold conj Z_{N-k} at the
        same places, and ``twiddle`` = -i W."""
        plus = zk + zm
        odd = zk - zm
        odd *= twiddle
        minus = plus - odd
        plus += odd
        return plus, minus

    def unpack_rows(starts):
        # row k1 of the spectrum pairs with row N1 - k1, reversed
        for a in starts:
            b = min(a + _ROW_BLOCK, half + 1)
            plus, minus = doubled(
                z[a:b],
                z[rows - a : rows - b : -1, ::-1].conj(),
                row_twiddle[a:b] * col_twiddle,
            )
            # X_k for k = k1 + N1 k2 goes to grid[k2, k1 - 1], and
            # X_{N-k} to grid[N2 - 1 - k2, N1 - 1 - k1] while N - k is
            # in another row (k1 < N1 - k1)
            grid[:, a - 1 : b - 1] = _power(plus, quarter).T
            c = min(b, (rows + 1) // 2)
            grid[::-1, rows - c : rows - a] = _power(minus[: c - a], quarter)[::-1].T

    passes = [
        (column_ffts, range(0, cols, _COLUMN_BLOCK)),
        (row_ffts, range(0, rows, _ROW_BLOCK)),
        (unpack_rows, range(1, half + 1, _ROW_BLOCK)),
    ]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=2) as pool:
            for fn, blocks in passes:
                cut = len(blocks) // 2
                list(pool.map(fn, (blocks[:cut], blocks[cut:])))
    else:
        for fn, blocks in passes:
            fn(blocks)
    # row 0 pairs with itself: Z_{N - N1 k2} = Z[0, -k2 mod N2]
    plus, minus = doubled(z[0], np.roll(z[0, ::-1], 1).conj(), -1j * col_twiddle)
    grid[:-1, rows - 1] = _power(plus[1:], quarter)
    # X_N = conj(E_0 - W^0 O_0)
    values[-1] = _power(minus[0], quarter)
    return values


def _power(z: np.ndarray, scale: float) -> np.ndarray:
    """scale |z|^2."""
    power = np.square(z.real)
    power += np.square(z.imag)
    power *= scale
    return power


def periodogram_fft(
    signal: SampledSignal, workers: int = 1, overwrite: bool = False
) -> SpectrumEstimate:
    """Rectangular-window periodogram of a sampled signal.

    Natural frequencies k/(L dt) for k = 1..L//2; normalized to the same
    one-sided convention as the event-exact estimator, zero bin dropped.
    An even length L goes through the in-place four-step FFT on
    ``min(workers, 2)`` threads (the values do not depend on it), of a
    copy of the signal unless ``overwrite`` allows it to use the signal's
    own memory, which it then leaves holding no samples; an odd length
    goes through a single rfft and leaves the signal as it was.
    """
    x = np.asarray(signal.values, dtype=float)
    if x.size < 2:
        raise ValueError("signal too short")
    length = x.size
    scale = 2.0 * signal.dt / length
    if length % 2 == 0:
        x = np.array(x, order="C", copy=None if overwrite else True)
        values = _four_step_periodogram(x, scale, workers)
    else:
        spectrum = np.fft.rfft(x)
        values = np.abs(spectrum[1:])
        del spectrum
        np.square(values, out=values)
        values *= scale
    freqs = np.arange(1, len(values) + 1, dtype=np.float64)
    freqs /= length * signal.dt
    return SpectrumEstimate(
        freqs=freqs,
        values=values,
        n_averaged=1,
        estimator="sampled_fft",
    )


def average_spectra(estimates: Sequence[SpectrumEstimate]) -> SpectrumEstimate:
    """Pointwise mean over realizations, on the first one's frequencies.

    A single estimate is its own mean and comes back as it is.
    """
    if not estimates:
        raise ValueError("nothing to average")
    base = estimates[0]
    if len(estimates) == 1:
        return base
    for est in estimates[1:]:
        if not np.array_equal(est.freqs, base.freqs):
            raise ValueError("frequency grids differ")
    return SpectrumEstimate(
        freqs=base.freqs,
        values=np.stack([est.values for est in estimates]).mean(axis=0),
        n_averaged=sum(est.n_averaged for est in estimates),
        estimator=base.estimator,
    )


def logbin_spectrum(est: SpectrumEstimate, bins_per_decade: int) -> SpectrumEstimate:
    """Geometric-mean frequency and arithmetic-mean PSD per log bin.

    Bin edges sit on the absolute grid 10^(j / bins_per_decade), so a grid
    that already places one point per bin passes through unchanged.  A
    point on an edge opens the bin above it.
    """
    if bins_per_decade < 1:
        raise ValueError("bins_per_decade must be >= 1")
    logf = est.log_freqs
    j0 = int(np.floor(logf[0] * bins_per_decade))
    j1 = int(np.ceil(logf[-1] * bins_per_decade)) + 1
    edges = np.arange(j0, j1 + 1) / bins_per_decade
    # the grid is increasing, so each bin is the run between the first
    # points at or above its two edges; empty bins give repeated bounds
    cuts = np.searchsorted(logf, edges, side="left")
    runs = np.unique(np.concatenate(([0], cuts, [len(logf)])))
    spans = list(zip(runs[:-1], runs[1:]))
    freqs = [10.0 ** logf[a:b].mean() for a, b in spans]
    values = [est.values[a:b].mean() for a, b in spans]
    return SpectrumEstimate(
        freqs=np.asarray(freqs),
        values=np.asarray(values),
        n_averaged=est.n_averaged,
        estimator=est.estimator,
    )


def write_spectrum_csv(fileobj, est: SpectrumEstimate) -> None:
    """Columns (f, S, R_eff, estimator); 17 significant digits."""
    fileobj.write("f,S,R_eff,estimator\n")
    _write_rows(
        fileobj, est.freqs, ",", est.values, f",{est.n_averaged},{est.estimator}\n"
    )
