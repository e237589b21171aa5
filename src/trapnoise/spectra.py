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
  series, and each term costs one bincount; the terms' rffts go in one
  call per block of terms, as many as fit in a ``_GRID_BLOCK``-point
  transform (all ten up to M = 2^12, one from M = 2^16).  The truncation
  error is at most (pi/8)^10/10! = 2.4e-11 per event; against the
  float64 direct sum the measured relative error is below 2e-11 on the
  test-suite grids.  A cost model picks k_cut from the event count and
  the grid, and chooses no cut when the direct sum is cheaper.
* Every other frequency, above the cut or not a multiple of 1/T, uses
  the direct sum: phases reduced to the nearest whole cycle in float64
  (within half a cycle, so the float32 phase is rounded by at most
  1.2e-7 radians, half what a reduction to [0, 1) cycle costs), trig in
  float32 (about 7x faster than float64 trig), and each half-chunk's
  cos and sin values folded to a quarter in float32 before a float64
  sum of that quarter.  Against float64 trig, over every realization's
  direct frequencies of fig3 (scales 12.5 and 100), fig4 (5 and 10) and
  fig5 (100), the relative error is 2.8e-7 to 5.2e-7 in the median and
  1.7e-5 to 6.5e-5 at the 99th percentile (floor reduction with
  float64 sums of whole rows: 4.2e-7 to 7.5e-7 and 1.9e-5 to 9.8e-5),
  and at most 1.0e-3, at an ordinate that nearly cancels.  Pass
  ``trig_dtype=np.float64`` to make this part double precision.

The direct sum walks each path once, in chunks of 2 * ``_EVENT_CHUNK``
events split into pulse starts and ends, frequencies inside.  Both
transforms share their threads by one rule, ``_in_threads``: a pass's
fixed blocks (here the frequencies) go in contiguous runs to the threads
of a pool made for the pass, each run writing its own results (numpy
releases the GIL in the cast, trig, add and sum loops).  Every frequency
adds the sums of the same chunks in the same order, paths in order, so
the result does not depend on the thread count.  Each call, so each
thread, allocates one workspace of three ``_EVENT_CHUNK`` float64 rows:
the half-chunk's starts or ends, copied contiguous once for every
frequency; the float64 phase; and its rint.  The sin and cos values take
a pair of rows, the rint row's two float32 halves, or for float64 trig
the rint and the phase rows, zero-padded to a multiple of 4 values, and
fold in place.  Every per-frequency step writes into the workspace
through ``out=``, so the direct sum makes no temporary per frequency,
and its peak (3.1 rows with the sum's cast buffer) depends on neither
the frequency count nor the path length.  The binned series
runs first, on the calling thread: run beside the direct sum, its grids
would raise the peak memory by about as much as they hold.

A sampled signal's first L samples, L its length rounded down to even,
are transformed in place, in one signal of memory and small blocks; an
odd length n leaves its last sample out, which keeps its value, so its
grid is k/((n - 1) dt).  The N = L/2 complex values
z[m] = x[2m] + i x[2m+1], a view of the float64 samples, go through the
four-step FFT (Bailey 1990, "FFTs in external or hierarchical memory")
as an N1 x N2 matrix, N1 the divisor of N nearest sqrt(N): FFTs of the
columns, in blocks copied to one small buffer, the twiddle W_N^{k1 n2},
then FFTs of the rows, all through ``scipy.fft``.  The real transform
is unpacked from the complex one (Press et al., *Numerical Recipes*,
sec. 12.3): with
E_k = (Z_k + conj Z_{N-k})/2, O_k = (Z_k - conj Z_{N-k})/(2i) and
W = e^{-2 pi i/L}, X_k = E_k + W^k O_k and X_{N-k} = conj(E_k - W^k O_k).
The twiddles come from short tables of phases reduced exactly and taken
in long double, each rounded once (a twiddle from ``exp`` of a float64
phase made the smallest ordinates twice as noisy as numpy's rfft).  Each
pass runs in fixed blocks, which ``min(workers, 2)`` threads share by
the same rule (scipy releases the GIL; the cap bounds the per-thread
temporaries, which grow with the signal); N1 and the blocks depend on L
alone, so no value depends on the thread count.  Once a pair of rows k1
and N1 - k1 is read, the unpack writes its 2 N2 ordinates |X_k|^2 into
row k1's own 2 N2 float64, so every ordinate is staged in the buffer's
first half (row 0's N2 share row 0 with one more column).  One blocked
pass then moves them into natural order in the second half, and the grid
k/(L dt) is written into the first, block by block, so ``freqs`` and
``values`` are views of the one buffer.  The unpack's blocks hold N1/256
rows of at most ``_UNPACK_BLOCK`` columns and the move's N2/64 rows of
the grid, so beyond the buffer the transform holds its twiddle tables
and a few blocks: under 0.1 signal sizes at L = 2^20 on one thread
(0.14 on two), less at longer signals, and 0.35 on two threads at
L = 3532044, where N1 = 6: each thread's row holds 2 N2 / 3 values in a
scratch row, and the column twiddles take a sixth of the signal.
``periodogram_fft`` transforms a copy unless told it may overwrite the
signal; in overwrite mode the spectrum and its grid take over the
signal's buffer.  The time follows the largest prime factor of N, as
scipy takes a large prime length by Bluestein's algorithm, through FFTs
of at least twice that length: at fig6's scale 20, N = 1677721 is prime.

Accuracy, on integer random walks with three seeds per length, as the
largest error over the spectrum in units of the mean ordinate: against
a long-double rfft, 2.8e-10 at L = 2^22 (numpy's rfft: 4.3e-10) and
1.0e-9 at L = 6710886 (rfft: 5.3e-10), a few roundings of the largest
ordinate, which is 1.4e6 to 2.2e6 times the mean.  numpy's rfft and this
transform differ by at most 1.5e-10 and 1.6e-9.  Against a long-double
DFT with exactly reduced phases it is as accurate as numpy's rfft at
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
run of points by a bisection over indices for all bin edges at once,
which takes log10 only at its probes, and each bin takes the log10 of
its own points: the largest temporary is the largest bin's log10 (at 4
bins per decade on a grid up to 1/(2 dt) with dt = 1e-4, as fig6 has,
36.75% of the grid), not the grid's.
"""
from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .distributions import _require_integer, _require_positive
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
# of its row pass, fixed likewise
_COLUMN_BLOCK = 32
_ROW_BLOCK = 16
# the unpack takes N1 / _UNPACK_SHARE rows per block (at least one), so
# its few block-sized temporaries stay near 1/64 of the signal at every
# length; its values do not depend on the block
_UNPACK_SHARE = 256
# columns per block of the unpack's rows: at N1 = 6 (L = 3532044) its
# blocks and scratch rows, beside the column twiddles, peak at 0.35 of
# the signal on two threads (0.61 with blocks of 65536 columns)
_UNPACK_BLOCK = 1 << 14
# the move from the staged rows into the spectrum takes N2 / _MOVE_SHARE
# grid rows per block (at least one), so its gathered block stays near
# 1/128 of the signal
_MOVE_SHARE = 64
# frequencies per block of the sampled grid, written without a temporary
# as long as the grid
_GRID_BLOCK = 1 << 16
# Binned path: P Taylor terms on a grid oversampled 8x over the highest
# mode, so the series is off by at most (pi/8)^10/10! = 2.4e-11 per event.
_TAYLOR_TERMS = 10
_OVERSAMPLE = 8
# f counts as the natural frequency k/T when f*T is within rounding of k.
_NATURAL_RTOL = 1e-14
# Cost model in ns, first measured on a 2-core 2.1 GHz x86_64 VM with
# numpy 2.4 at 2e4-4e5 events: the direct sum per event and frequency
# (5.2-9.1), the binned path per event and Taylor term (5.8-8.0), and its
# FFT per M log2(M) and term (1.1-1.5 at M >= 8192).  The kernels have
# since become faster; measured again on that VM (best of five calls,
# three rounds): the direct sum 4.1-6.0, the binned path 3.8-5.5, and the
# blocked FFT 0.5-1.6 at M = 2^10 to 2^18.  With phases reduced to the
# nearest cycle and the float32 folds, the direct sum measures 5.1-6.7
# against 6.0-7.0 for the floor-reduced kernel with float64 sums of whole
# rows (fig3 paths of 2e4-4e5 events, 40 direct frequencies, the two
# interleaved in one process, best of five calls, three rounds).  The
# constants stay as they are: they decide which frequencies are binned,
# so new values would move the cut and the bytes of the binned spectra.
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
        if np.shape(self.values) != np.shape(self.freqs):
            raise ValueError(
                f"values of shape {np.shape(self.values)} do not match "
                f"freqs of shape {np.shape(self.freqs)}"
            )
        _check_grid(self.freqs)


def _check_grid(f: np.ndarray) -> None:
    """Raise ValueError unless ``f`` increases strictly from a positive
    first to a finite last point (NaN fails every comparison)."""
    if not (len(f) and f[0] > 0.0 and f[-1] < np.inf):
        raise ValueError(
            "frequencies must be positive and finite (zero bin excluded)"
        )
    # in blocks, each against its predecessor's last point, so the
    # check holds no temporary as long as the grid
    for i in range(0, len(f) - 1, _GRID_BLOCK):
        block = f[i : i + _GRID_BLOCK + 1]
        if not np.all(block[1:] > block[:-1]):
            raise ValueError("frequencies must be strictly increasing")


def natural_frequencies(
    horizon: float,
    f_max: float,
    f_min: float | None = None,
    points_per_decade: int = 40,
) -> np.ndarray:
    """Log-spaced selection from the natural grid k/horizon, k >= 1;
    ``horizon``, ``f_max`` and a given ``f_min`` must be finite and
    positive, and ``points_per_decade`` an integer of at least 1.

    Snapping to natural frequencies keeps the signal mean confined to the
    excluded zero bin of the finite-time periodogram.
    """
    _require_positive(horizon=horizon, f_max=f_max)
    _require_integer(1, points_per_decade=points_per_decade)
    if f_min is None:
        f_min = 1.0 / horizon
    _require_positive(f_min=f_min)
    if not f_min < f_max:
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
    the powers of two from _OVERSAMPLE below 2 * _OVERSAMPLE * max(ks),
    and the first with the largest positive modelled saving wins; every
    candidate's saving is evaluated at once.  The P grids hold at most
    two values per event (P M <= 2 n_events), no more memory than a
    longdouble copy of the event times.
    """
    # the memory cap in Python integers, so the candidates stay below
    # n_events / 5 and no product of them overflows int64
    cap = 2 * n_events // _TAYLOR_TERMS
    grids = _OVERSAMPLE << np.arange((cap // _OVERSAMPLE).bit_length(), dtype=np.int64)
    top = ks.max(initial=0) * _OVERSAMPLE
    grids = grids[grids < 2 * top]
    if not len(grids):
        return 0
    covered = np.searchsorted(np.sort(ks), grids // _OVERSAMPLE, side="right")
    gain = _DIRECT_NS * n_events * covered - _TAYLOR_TERMS * (
        _BINNED_NS * n_events + _FFT_NS * grids * np.log2(grids)
    )
    best = int(np.argmax(gain))  # the first maximum
    return int(grids[best]) if gain[best] > 0.0 else 0


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
    del sign, s, m, d, v, h  # the last chunk's temporaries
    H[:, 0] += H[:, grid]  # t = T is a whole period
    # one rfft call per block of terms, each row the bytes of its own
    # rfft, so a block's output stays near one _GRID_BLOCK-point transform
    rows = max(1, _GRID_BLOCK // grid)
    spectra = np.empty((_TAYLOR_TERMS, len(ks)), dtype=complex)
    for p in range(0, _TAYLOR_TERMS, rows):
        spectra[p : p + rows] = np.fft.rfft(H[p : p + rows, :grid], axis=1)[:, ks]
    z = (-2j * np.pi / grid) * ks
    total = spectra[-1]
    for p in range(_TAYLOR_TERMS - 2, -1, -1):
        total = spectra[p] + (z / (p + 1)) * total
    return total


def _in_threads(fn, blocks, threads: int) -> None:
    """Call ``fn`` on ``threads`` contiguous runs of ``blocks``, each on its
    own thread of one pool, or on all of ``blocks`` on the calling thread
    when ``threads`` is 1; ``fn`` writes its own results."""
    if threads == 1:
        return fn(blocks)
    cuts = [len(blocks) * t // threads for t in range(threads + 1)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(fn, (blocks[a:b] for a, b in zip(cuts, cuts[1:]))))


def _quarter_folds(row: np.ndarray):
    """The quarters of a row whose length is a multiple of 4, as the views
    that ``_folded_sum`` adds: rows 0-1 and 2-3, then rows 0 and 1."""
    q = row.reshape(4, -1)
    return q[:2], q[2:], q[0], q[1]


def _folded_sum(top, bottom, first, second) -> float:
    """The sum of a row given as its ``_quarter_folds``: quarters 2-3 are
    added onto 0-1 and quarter 1 onto 0 in the row's dtype, in place, and
    the float64 pairwise sum of quarter 0 is returned."""
    np.add(top, bottom, out=top)
    np.add(first, second, out=first)
    return first.sum(dtype=np.float64)


def _direct_sums(events: list, freqs: np.ndarray, trig_dtype) -> np.ndarray:
    """sum over events of w e^{-2 pi i f t} by the direct sum, with
    w = +1 at pulse starts and -1 at pulse ends: phases reduced to the
    nearest whole cycle in float64 (f t - rint(f t), within half a cycle),
    then per frequency the sin and cos of each half-chunk's phases, folded
    and summed by ``_folded_sum``, added in chunk order, the paths in
    order.  Every step writes into one workspace of three rows: the
    half-chunk's edges, the phase, and its rint.  The pair of rows that
    holds the ``trig_dtype`` phase and trig values is the two float32
    halves of the rint row, or for float64 trig the phase row and the rint
    row; the phase is written into the cos row, the sin beside it, then the
    cos in place.  The pair is zero-padded to a multiple of 4 values, which
    only a path's last half-chunk needs; the sin row lies in the rint row,
    so its pad is zeroed again after each rint."""
    total = np.zeros(len(freqs), dtype=complex)
    work = np.empty((3, _EVENT_CHUNK))
    edges_row, x_row, low_row = work
    if np.dtype(trig_dtype) == np.float64:
        sin_row, cos_row = low_row, x_row
    else:
        sin_row, cos_row = low_row.view(trig_dtype).reshape(2, _EVENT_CHUNK)
    for times in events:
        # sums of cos and of sin over the starts (row 0) and ends (row 1)
        c = np.zeros((2, len(freqs)))
        s = np.zeros((2, len(freqs)))
        for i in range(0, len(times), 2 * _EVENT_CHUNK):
            chunk = times[i : i + 2 * _EVENT_CHUNK]
            for half in range(2):
                half_chunk = chunk[half::2]
                n = len(half_chunk)
                padded = -(-n // 4) * 4
                edges, x, low = edges_row[:n], x_row[:n], low_row[:n]
                sines, cosines = sin_row[:n], cos_row[:n]
                sin_pad = sin_row[n:padded]
                cos_row[n:padded] = 0.0
                sin_folds = _quarter_folds(sin_row[:padded])
                cos_folds = _quarter_folds(cos_row[:padded])
                np.copyto(edges, half_chunk)
                for j, f in enumerate(freqs):
                    np.multiply(f, edges, out=x)
                    np.rint(x, out=low)
                    np.subtract(x, low, out=x)
                    # a float64 product, rounded into the trig dtype
                    np.multiply(x, _TWO_PI, out=cosines, casting="same_kind")
                    if padded > n:
                        sin_pad[...] = 0.0
                    np.sin(cosines, out=sines)
                    np.cos(cosines, out=cosines)
                    s[half, j] += _folded_sum(*sin_folds)
                    c[half, j] += _folded_sum(*cos_folds)
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
    ``min(workers, frequencies)`` threads, ``workers`` an integer >= 1
    (the values do not depend on it).  An ``amplitude`` that is not
    finite and positive, or a grid that is not positive, finite and
    strictly increasing, is rejected before any sum runs.
    """
    _require_positive(amplitude=amplitude)
    _require_integer(1, workers=workers)
    freqs = np.asarray(freqs, dtype=float)
    _check_grid(freqs)
    if not paths:
        raise ValueError("need at least one carrier path")
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

        def part_sums(part):
            total[part] = _direct_sums(events, freqs[part], trig_dtype)

        # an all-binned grid skips the direct pass and its workspace
        if len(direct):
            _in_threads(part_sums, direct, min(workers, len(direct)))
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
    modulo n and taken in long double, so each is rounded once; cos and
    sin cast into the roots as they go, ``_GRID_BLOCK`` phases at a time,
    with no long-double array as long as the roots."""
    roots = np.empty(np.shape(m), dtype=complex)
    flat, m = roots.reshape(-1), np.ravel(m)
    for i in range(0, len(m), _GRID_BLOCK):
        phase = (m[i : i + _GRID_BLOCK] % n).astype(np.longdouble)
        phase *= -2 * _PI_LONG / n
        block = flat[i : i + _GRID_BLOCK]
        np.cos(phase, out=block.real, casting="same_kind")
        np.sin(phase, out=block.imag, casting="same_kind")
    return roots


def _four_step_periodogram(x: np.ndarray, scale: float, workers: int) -> np.ndarray:
    """``scale |X_k|^2`` for k = 1..L/2, X the DFT of the even-length,
    contiguous ``x``, written into the second half of ``x``, which is
    returned; the first half is left as scratch.

    The N = L/2 complex values z[m] = x[2m] + i x[2m+1], viewed as an
    N1 x N2 matrix, are transformed in place by the four-step FFT:
    column FFTs, the twiddle W_N^{k1 n2}, row FFTs, after which the
    matrix holds Z[k1 + N1 k2] at [k1, k2].  Then, with W = W_L^k,
    X_k = E_k + W O_k and X_{N-k} = conj(E_k - W O_k), where
    E_k = (Z_k + conj Z_{N-k})/2 and O_k = (Z_k - conj Z_{N-k})/(2i).
    In the spectrum's grid ``x[N:].reshape(N2, N1)``, row k1 >= 1 gives
    column k1 - 1 (X_k) and, while N1 - k1 is another row, column
    N1 - 1 - k1 (X_{N-k}, reversed); row 0 gives column N1 - 1.  Each
    column of N2 powers is staged in ``x[:N]`` as a row of the matrix
    ``x[:N].reshape(N1, N2)``: row k1 >= 1 pairs with row N1 - k1, and
    once both are read its two columns go into row k1's own 2 N2
    float64, staged rows 2 k1 and 2 k1 + 1; row 0, read first, goes to
    staged row 0.  Every row is read in blocks of ``_UNPACK_BLOCK``
    columns, each block's powers staged over columns already read or,
    until they are, held in a scratch row.  The one column
    whose staged row would be N1 (the self-paired middle row of an even
    N1, or the second column of the last pair of an odd N1) goes to
    staged row 1.  Then one blocked pass moves the staged rows into the
    grid's columns.  Each of the four passes goes through ``_in_threads``
    in fixed blocks on ``min(workers, 2)`` threads, as the direct sum's
    frequencies do; N1 and the blocks depend on L alone, so no value
    depends on it.
    """
    import scipy.fft

    n = len(x) // 2
    rows = _rows(n)
    cols = n // rows
    half = rows // 2
    z = x.view(np.complex128).reshape(rows, cols)
    staged = x[:n].reshape(rows, cols)
    grid = x[n:].reshape(cols, rows)
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
    unpack_step = max(1, rows // _UNPACK_SHARE)
    move_step = max(1, cols // _MOVE_SHARE)
    # grid column c comes from staged row source[c]: 2 (c + 1) for the
    # X_k columns c < N1 / 2, 2 (N1 - c) - 1 for the X_{N-k} columns,
    # 0 for column N1 - 1, and 1 where these give N1
    column = np.arange(rows)
    source = np.where(column < half, 2 * column + 2, 2 * (rows - column) - 1)
    source[-1] = 0
    source[source == rows] = 1

    def stage(first, powers, part=slice(None)):
        """Stage ``powers`` in columns ``part`` of rows first, first + 2,
        ..., row N1 in row 1."""
        j = np.arange(first, first + 2 * len(powers), 2)
        j[j == rows] = 1
        staged[j, part] = powers

    def column_ffts(starts):
        buf = np.empty((rows, _COLUMN_BLOCK), dtype=complex)
        for j in starts:
            w = min(_COLUMN_BLOCK, cols - j)
            block = buf[:, :w]
            block[...] = z[:, j : j + w]
            block = scipy.fft.fft(block, axis=0, overwrite_x=True, workers=1)
            block *= table[:, :w]
            q, r = np.divmod(k1 * j % n, rows)
            # in place, then copied: a ufunc with the strided z as its
            # output allocates iterator buffers as large as the block
            block *= (coarse[q] * fine[r])[:, None]
            z[:, j : j + w] = block

    def row_ffts(starts):
        for i in starts:
            block = z[i : i + _ROW_BLOCK]
            out = scipy.fft.fft(block, axis=1, overwrite_x=True, workers=1)
            if not np.may_share_memory(out, block):
                block[...] = out

    def doubled(zk, zm, twiddle):
        """2 X_k = 2 E_k + 2 W O_k and 2 conj X_{N-k} = 2 E_k - 2 W O_k,
        for the rows ``zk``, the rows ``zm`` that hold conj Z_{N-k} at the
        same places, and ``twiddle`` = -i W; ``zm`` and ``twiddle`` are
        fresh arrays, overwritten with W O_k and the second result."""
        plus = zk + zm
        odd = np.subtract(zk, zm, out=zm)
        odd *= twiddle
        minus = np.subtract(plus, odd, out=twiddle)
        plus += odd
        return plus, minus

    def unpack_rows(starts):
        # row k1 pairs with row N1 - k1, reversed, in blocks of columns.
        # Column k2's X_k power is staged at float k2 of row k1 and its
        # X_{N-k} power at float 2 N2 - 1 - k2, columns k2 // 2 and
        # N2 - 1 - k2 // 2 of the matrix row; the results are fresh arrays,
        # so once a block is read both places of its columns from
        # ``wait`` = ceil((2 N2 - 2) / 3) on are read too, and the X_{N-k}
        # powers of the columns before it wait in a scratch row
        wait = -(-(2 * cols - 2) // 3)
        for a in starts:
            b = min(a + unpack_step, half + 1)
            c = min(b, (rows + 1) // 2)
            pending = np.empty((c - a, wait))
            pair = z[rows - a : rows - b : -1, ::-1]
            for j in range(0, cols, _UNPACK_BLOCK):
                stop = min(j + _UNPACK_BLOCK, cols)
                plus, minus = doubled(
                    z[a:b, j:stop],
                    pair[:, j:stop].conj(),
                    row_twiddle[a:b] * col_twiddle[j:stop],
                )
                stage(2 * a, _power(plus, quarter), slice(j, stop))
                minus = _power(minus[: c - a], quarter)
                split = min(max(wait, j), stop)
                pending[:, j:split] = minus[:, : split - j]
                later = slice(cols - stop, cols - split)
                stage(2 * a + 1, minus[:, split - j :][:, ::-1], later)
            stage(2 * a + 1, pending[:, ::-1], slice(cols - wait, cols))

    def move_rows(starts):
        for i in starts:
            grid[i : i + move_step] = staged[source, i : i + move_step].T

    threads = min(workers, 2)
    _in_threads(column_ffts, range(0, cols, _COLUMN_BLOCK), threads)
    del table, coarse, fine  # the column twiddles are used up
    _in_threads(row_ffts, range(0, rows, _ROW_BLOCK), threads)
    col_twiddle = _unit_roots(np.arange(cols) * rows, len(x))
    # row 0 pairs with itself: Z_{N - N1 k2} = Z[0, -k2 mod N2]; it is
    # read first, as a pair's column is staged over its second half.  Its
    # column blocks' powers gather in a scratch row, since staged row 0
    # overlays the first half of matrix row 0, which every block reads
    row0 = np.empty(cols)
    for j in range(0, cols, _UNPACK_BLOCK):
        part = slice(j, min(j + _UNPACK_BLOCK, cols))
        zm = z[0, -np.arange(j, part.stop) % cols]
        np.conjugate(zm, out=zm)
        plus, minus = doubled(z[0, part], zm, -1j * col_twiddle[part])
        row0[part] = _power(plus, quarter)
        if not j:
            row0[0] = _power(minus[0], quarter)
    # X_{N1 k2} for k2 = 1..N2-1, then X_N = conj(E_0 - W^0 O_0), which
    # the first block put in place of X_0
    staged[0, :-1] = row0[1:]
    staged[0, -1] = row0[0]
    del row0, zm, plus, minus
    _in_threads(unpack_rows, range(1, half + 1, unpack_step), threads)
    _in_threads(move_rows, range(0, cols, move_step), threads)
    return x[n:]


def _power(z: np.ndarray, scale: float) -> np.ndarray:
    """scale |z|^2."""
    power = np.square(z.real)
    power += np.square(z.imag)
    power *= scale
    return power


def periodogram_fft(
    signal: SampledSignal, workers: int = 1, overwrite: bool = False
) -> SpectrumEstimate:
    """Rectangular-window periodogram of a sampled signal's first L
    samples, L its length rounded down to even: an odd length leaves its
    last sample out.

    Natural frequencies k/(L dt) for k = 1..L/2; normalized to the same
    one-sided convention as the event-exact estimator, zero bin dropped.
    The samples go through the in-place four-step FFT on
    ``min(workers, 2)`` threads, ``workers`` an integer >= 1 (the values
    do not depend on it), of a copy unless ``overwrite`` allows it to use
    the signal's own memory.  The transform holds no spectrum beside that
    buffer: the unpack stages the ordinates in its first half and one
    pass moves them into its second.  The spectrum and its grid take over
    the transformed buffer: ``freqs`` is a view of its first half and
    ``values`` of its second, so with ``overwrite`` the signal's first L
    values hold the grid and the spectrum, not samples.
    """
    _require_integer(1, workers=workers)
    shape = np.shape(signal.values)
    if len(shape) != 1:
        raise ValueError(f"values must be one-dimensional, got shape {shape}")
    x = np.asarray(signal.values, dtype=float)
    n = x.size // 2
    if n == 0:
        raise ValueError("signal too short")
    length = 2 * n
    x = np.array(x[:length], order="C", copy=None if overwrite else True)
    # the spectrum takes the second half of x, and the grid its first
    values = _four_step_periodogram(x, 2.0 * signal.dt / length, workers)
    freqs = x[:n]
    for i in range(0, n, _GRID_BLOCK):
        block = freqs[i : i + _GRID_BLOCK]
        block[...] = np.arange(i + 1, i + 1 + len(block), dtype=np.float64)
        block /= length * signal.dt
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


def _first_at_or_above(freqs: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """For each of the increasing ``edges``, the first index i with
    log10(freqs[i]) >= edge (len(freqs) when there is none).

    A bisection over indices for all edges at once, so log10 is taken
    only at the about log2(len(freqs)) rounds of probes; on a grid whose
    log10 does not decrease it is ``searchsorted(log10(freqs), edges)``.
    """
    last = len(freqs) - 1
    lo = np.zeros(len(edges), dtype=np.intp)
    hi = np.full(len(edges), len(freqs), dtype=np.intp)
    for _ in range(len(freqs).bit_length()):
        mid = (lo + hi) // 2
        # a closed search (lo == hi) keeps its bounds whatever it reads
        below = np.log10(freqs[np.minimum(mid, last)]) < edges
        lo = np.where(below & (lo < hi), mid + 1, lo)
        hi = np.where(below, hi, mid)
    return lo


def logbin_spectrum(est: SpectrumEstimate, bins_per_decade: int) -> SpectrumEstimate:
    """Geometric-mean frequency and arithmetic-mean PSD per log bin.

    Bin edges sit on the absolute grid 10^(j / bins_per_decade), so a grid
    that already places one point per bin passes through unchanged.  A
    point on an edge opens the bin above it.  The bins' runs of points
    are found by bisection, and each bin takes the log10 of its own
    points, so the largest temporary is the largest bin's log10, not
    the grid's.
    """
    _require_integer(1, bins_per_decade=bins_per_decade)
    f = est.freqs
    first, last = np.log10(f[[0, -1]])
    j0 = int(np.floor(first * bins_per_decade))
    j1 = int(np.ceil(last * bins_per_decade)) + 1
    edges = np.arange(j0, j1 + 1) / bins_per_decade
    # the grid is increasing, so each bin is the run between the first
    # points at or above its two edges; empty bins give repeated bounds
    cuts = _first_at_or_above(f, edges)
    runs = np.unique(np.concatenate(([0], cuts, [len(f)])))
    spans = list(zip(runs[:-1], runs[1:]))
    freqs = [10.0 ** np.log10(f[a:b]).mean() for a, b in spans]
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
