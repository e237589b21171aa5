"""Periodogram estimators, averaging, and log binning."""
import io

import numpy as np
import pytest

from trapnoise import (
    CarrierPath,
    PoissonTrapping,
    SampledSignal,
    SimConfig,
    SpectrumEstimate,
    UniformRates,
    average_spectra,
    logbin_spectrum,
    natural_frequencies,
    periodogram_fft,
    periodogram_superposed_events,
    simulate_realization,
    superpose,
)
from trapnoise import spectra
from trapnoise.simulate import _CSV_BLOCK
from trapnoise.spectra import (
    _EVENT_CHUNK, _OVERSAMPLE, _TWO_PI, _binned_grid, write_spectrum_csv,
)


def single_pulse_path(duration, horizon):
    # a zero-length first gap: the pulse starts at t = 0
    return CarrierPath(durations=np.array([0.0, duration]), horizon=horizon)


class TestNaturalFrequencies:
    def test_grid_properties(self):
        T = 1e4
        f = natural_frequencies(T, 1e2, points_per_decade=10)
        ks = f * T
        assert np.allclose(ks, np.rint(ks))
        assert np.all(np.diff(f) > 0.0)
        assert f[0] == pytest.approx(1.0 / T)
        assert f[-1] <= 1e2 * (1.0 + 1e-9)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            natural_frequencies(1e4, 1e-9)


class TestEventExact:
    def test_single_pulse_closed_form(self):
        # hand integral of one rectangle starting at t = 0
        theta, T, a = 2.5, 10.0, 1.5
        freqs = np.array([0.05, 0.21, 1.3, 4.7])
        est = periodogram_superposed_events([single_pulse_path(theta, T)], a, freqs)
        want = (2.0 * a**2 / T) * np.sin(np.pi * freqs * theta) ** 2 / (
            np.pi * freqs
        ) ** 2
        assert np.allclose(est.values, want, rtol=1e-4)

    def test_float64_kernel_matches_closed_form_tightly(self):
        theta, T = 2.5, 10.0
        freqs = np.array([0.05, 0.21, 1.3])
        est = periodogram_superposed_events(
            [single_pulse_path(theta, T)], 1.0, freqs, trig_dtype=np.float64
        )
        want = (2.0 / T) * np.sin(np.pi * freqs * theta) ** 2 / (np.pi * freqs) ** 2
        assert np.allclose(est.values, want, rtol=1e-9)

    def test_zero_signal(self):
        path = CarrierPath(durations=np.array([8.0]), horizon=8.0)
        est = periodogram_superposed_events([path], 1.0, np.array([0.5, 2.0]))
        assert np.all(est.values == 0.0)

    def test_trig_dtype_consistency(self):
        cfg = SimConfig(
            rates=UniformRates(1e-2, 10.0), trapping=PoissonTrapping(1.0),
            horizon=2e3, seed=3,
        )
        path = simulate_realization(cfg, 0)[0]
        freqs = natural_frequencies(cfg.horizon, 50.0, points_per_decade=6)
        fast = periodogram_superposed_events([path], 1.0, freqs)
        slow = periodogram_superposed_events([path], 1.0, freqs, trig_dtype=np.float64)
        assert np.allclose(fast.values, slow.values, rtol=1e-3)

    def test_rejects_nonpositive_frequency(self):
        with pytest.raises(ValueError):
            periodogram_superposed_events(
                [single_pulse_path(1.0, 4.0)], 1.0, np.array([0.0, 1.0])
            )

    def test_superposed_equals_sampled_superposition(self):
        # coherent sum over carriers equals the spectrum of the summed
        # signal; compare log-binned so single-bin notches cannot blow up
        # the relative error
        cfg = SimConfig(
            rates=UniformRates(0.5, 20.0), trapping=PoissonTrapping(1.0),
            horizon=500.0, n_carriers=3, sample_dt=1e-3, seed=9,
        )
        paths = simulate_realization(cfg, 0)
        sig = superpose(paths, 1.0, cfg.sample_dt)
        fft_est = periodogram_fft(sig)
        ks = np.arange(2, 1000)
        freqs = ks / sig.horizon
        ev = periodogram_superposed_events(paths, 1.0, freqs)
        fft_match = SpectrumEstimate(
            freqs=freqs, values=fft_est.values[ks - 1], n_averaged=1,
            estimator="sampled_fft",
        )
        b_ev = logbin_spectrum(ev, 4)
        b_ff = logbin_spectrum(fft_match, 4)
        assert np.max(np.abs(b_ev.values / b_ff.values - 1.0)) < 0.01


def _direct_float64(paths, freqs):
    """Periodogram by the plain float64 sum over signed pulse edges."""
    total = np.zeros(len(freqs), dtype=complex)
    for p in paths:
        ends = np.cumsum(p.durations, dtype=np.longdouble).astype(np.float64)
        edges = ends[: 2 * p.pulse_count]
        sign = np.where(np.arange(len(edges)) % 2 == 0, 1.0, -1.0)
        for j, f in enumerate(freqs):
            x = f * edges
            x -= np.floor(x)
            total[j] += np.sum(sign * np.exp(-2j * np.pi * x))
    total /= 2j * np.pi * freqs
    return (2.0 / paths[0].horizon) * np.abs(total) ** 2


def _binned_cut(paths, freqs):
    """Highest mode k the hybrid kernel sends through the binned series."""
    modes = np.rint(freqs * paths[0].horizon)
    n_events = sum(2 * p.pulse_count for p in paths)
    return _binned_grid(modes, n_events) // _OVERSAMPLE


class TestHybridKernel:
    """The binned series and the direct sum against float64 (gate 1e-6)."""

    GATE = 1e-6

    def test_averaging_grid_all_binned(self):
        # criterion-4 style: T = 1e4, every k <= 100
        cfg = SimConfig(
            rates=UniformRates(0.0, 1e3), trapping=PoissonTrapping(1.0),
            horizon=1e4, seed=5,
        )
        paths = simulate_realization(cfg, 0)
        freqs = natural_frequencies(cfg.horizon, 1e-2, points_per_decade=16)
        assert freqs[-1] * cfg.horizon <= _binned_cut(paths, freqs)
        est = periodogram_superposed_events(paths, 1.0, freqs)
        want = _direct_float64(paths, freqs)
        assert np.max(np.abs(est.values / want - 1.0)) < self.GATE

    def test_flicker_grid_spans_both_paths(self):
        cfg = SimConfig(
            rates=UniformRates(1e-4, 1e2), trapping=PoissonTrapping(1.0),
            horizon=2e4, seed=2,
        )
        paths = simulate_realization(cfg, 0)
        freqs = natural_frequencies(cfg.horizon, 160.0, points_per_decade=20)
        low = freqs * cfg.horizon <= _binned_cut(paths, freqs)
        assert 10 < low.sum() < len(freqs) - 10
        want = _direct_float64(paths, freqs)
        fast = periodogram_superposed_events(paths, 1.0, freqs)
        assert np.max(np.abs(fast.values[low] / want[low] - 1.0)) < self.GATE
        exact = periodogram_superposed_events(
            paths, 1.0, freqs, trig_dtype=np.float64
        )
        assert np.max(np.abs(exact.values / want - 1.0)) < self.GATE

    def test_several_carriers(self):
        cfg = SimConfig(
            rates=UniformRates(1e-2, 1e2), trapping=PoissonTrapping(1.0),
            horizon=2e3, n_carriers=4, seed=7,
        )
        paths = simulate_realization(cfg, 0)
        freqs = natural_frequencies(cfg.horizon, 50.0, points_per_decade=20)
        low = freqs * cfg.horizon <= _binned_cut(paths, freqs)
        assert low.sum() > 10
        want = _direct_float64(paths, freqs)
        fast = periodogram_superposed_events(paths, 1.0, freqs)
        assert np.max(np.abs(fast.values[low] / want[low] - 1.0)) < self.GATE
        exact = periodogram_superposed_events(
            paths, 1.0, freqs, trig_dtype=np.float64
        )
        assert np.max(np.abs(exact.values / want - 1.0)) < self.GATE

    def test_non_natural_frequencies_take_the_direct_sum(self):
        cfg = SimConfig(
            rates=UniformRates(0.0, 1e3), trapping=PoissonTrapping(1.0),
            horizon=1e4, seed=5,
        )
        paths = simulate_realization(cfg, 0)
        freqs = (np.arange(1, 40) + 0.37) / cfg.horizon
        est = periodogram_superposed_events(
            paths, 1.0, freqs, trig_dtype=np.float64
        )
        assert np.allclose(est.values, _direct_float64(paths, freqs), rtol=1e-9)


class TestThreadedTransform:
    """The direct sum's frequencies split over threads: the same bytes
    for any thread count."""

    # float32 cosines mostly add exactly in float64, so a changed summation
    # order shows in the bytes with float64 trig far more than with float32
    @pytest.mark.parametrize("trig_dtype", [np.float32, np.float64])
    def test_bytes_do_not_depend_on_workers(self, thread_pools, trig_dtype):
        cfg = SimConfig(
            rates=UniformRates(1e-4, 1e2), trapping=PoissonTrapping(1.0),
            horizon=2e4, n_carriers=3, seed=2,
        )
        paths = simulate_realization(cfg, 0)
        freqs = natural_frequencies(cfg.horizon, 160.0, points_per_decade=20)
        # one frequency between the natural ones k = 3 and 4
        freqs = np.sort(np.append(freqs, 3.37 / cfg.horizon))
        low = freqs * cfg.horizon <= _binned_cut(paths, freqs)
        assert 10 < low.sum() < len(freqs) - 3
        serial = periodogram_superposed_events(
            paths, 1.0, freqs, trig_dtype=trig_dtype, workers=1
        )
        assert thread_pools == []
        for workers in (2, 3):
            threaded = periodogram_superposed_events(
                paths, 1.0, freqs, trig_dtype=trig_dtype, workers=workers
            )
            assert threaded.values.tobytes() == serial.values.tobytes()
        assert thread_pools == [2, 3]

    @pytest.mark.parametrize("n_direct", [1, 2])
    def test_fewer_direct_frequencies_than_workers(self, thread_pools, n_direct):
        cfg = SimConfig(
            rates=UniformRates(0.0, 1e3), trapping=PoissonTrapping(1.0),
            horizon=1e4, seed=5,
        )
        paths = simulate_realization(cfg, 0)
        # every k <= 100 goes through the binned series, and the
        # frequencies between natural ones through the direct sum
        grid = natural_frequencies(cfg.horizon, 1e-2, points_per_decade=16)
        assert grid[-1] * cfg.horizon <= _binned_cut(paths, grid)
        between = (np.arange(n_direct) * 7 + 0.37) / cfg.horizon
        freqs = np.sort(np.concatenate([grid, between]))
        serial = periodogram_superposed_events(paths, 1.0, freqs, workers=1)
        threaded = periodogram_superposed_events(paths, 1.0, freqs, workers=3)
        assert threaded.values.tobytes() == serial.values.tobytes()
        # one frequency runs on the calling thread; two get two threads
        assert thread_pools == ([] if n_direct == 1 else [2])


def fourier_sums_by_frequency(times, freqs, trig_dtype):
    """Reference: (sum cos, sum sin) of 2 pi f t over ``times``, one
    frequency at a time, each over ``_EVENT_CHUNK`` chunks of the times."""
    cos_out = np.zeros(len(freqs))
    sin_out = np.zeros(len(freqs))
    for j, f in enumerate(freqs):
        acc_c = 0.0
        acc_s = 0.0
        for i in range(0, len(times), _EVENT_CHUNK):
            x = f * times[i : i + _EVENT_CHUNK]
            x -= np.floor(x)
            x *= _TWO_PI
            ph = x.astype(trig_dtype, copy=False)
            acc_c += float(np.cos(ph).sum(dtype=np.float64))
            acc_s += float(np.sin(ph).sum(dtype=np.float64))
        cos_out[j] = acc_c
        sin_out[j] = acc_s
    return cos_out, sin_out


def direct_sums_by_frequency(events, freqs, trig_dtype):
    """Reference: the direct sum that took the starts and the ends of each
    path as two separate passes, frequencies outside and chunks inside."""
    total = np.zeros(len(freqs), dtype=complex)
    for times in events:
        c0, s0 = fourier_sums_by_frequency(times[0::2], freqs, trig_dtype)
        c1, s1 = fourier_sums_by_frequency(times[1::2], freqs, trig_dtype)
        total += (c0 - c1) - 1j * (s0 - s1)
    return total


class TestDirectSumOrder:
    """The direct sum walks each path once in chunks of 2 * _EVENT_CHUNK
    events, with the bytes of the reference that ran frequency by
    frequency over the starts and the ends apart."""

    T = 1e6

    def paths(self):
        rng = np.random.default_rng(11)
        long = rng.exponential(size=2 * (2 * _EVENT_CHUNK + 5) + 1)
        short = rng.exponential(size=7)
        return [
            CarrierPath(long * (self.T / long.sum()), horizon=self.T),
            CarrierPath(short * (self.T / short.sum()), horizon=self.T),
            CarrierPath(np.array([self.T]), horizon=self.T),  # no pulse
        ]

    def freqs(self):
        natural = np.array([1.0, 3.0, 40.0, 1000.0, 123457.0]) / self.T
        between = np.array([2.37, 57.5, 98765.4321]) / self.T
        return np.sort(np.concatenate([natural, between]))

    @pytest.mark.parametrize("trig_dtype", [np.float32, np.float64])
    def test_same_bytes_as_the_reference(self, monkeypatch, trig_dtype):
        paths, freqs = self.paths(), self.freqs()
        events = [p.events for p in paths if p.pulse_count]
        # the long path ends in a short chunk
        assert len(events[0]) % (2 * _EVENT_CHUNK) == 10
        assert len(events[0]) > 2 * (2 * _EVENT_CHUNK)
        got = spectra._direct_sums(events, freqs, trig_dtype)
        want = direct_sums_by_frequency(events, freqs, trig_dtype)
        assert got.tobytes() == want.tobytes()

        estimates = [
            periodogram_superposed_events(
                paths, 1.0, freqs, trig_dtype=trig_dtype, workers=workers
            )
            for workers in (1, 2, 3)
        ]
        monkeypatch.setattr(spectra, "_direct_sums", direct_sums_by_frequency)
        reference = periodogram_superposed_events(
            paths, 1.0, freqs, trig_dtype=trig_dtype
        )
        for est in estimates:
            assert est.values.tobytes() == reference.values.tobytes()


class TestFftEstimator:
    def test_constant_signal_energy_in_dropped_bin(self):
        sig = SampledSignal(
            values=np.full(4096, 2.0), dt=0.01, n_carriers=1,
            amplitude=2.0, horizon=40.96,
        )
        est = periodogram_fft(sig)
        assert est.values.max() < 1e-20

    def test_parseval_white_signal(self):
        rng = np.random.default_rng(0)
        x = rng.normal(1.0, 0.7, 65536)
        sig = SampledSignal(values=x, dt=0.02, n_carriers=1, amplitude=1.0,
                            horizon=65536 * 0.02)
        est = periodogram_fft(sig)
        df = 1.0 / sig.horizon
        total = est.values.sum() * df
        assert abs(total / x.var() - 1.0) < 0.01

    @pytest.mark.parametrize("length", [2, 3, 1000, 1001])
    def test_matches_the_one_expression_formula(self, length):
        rng = np.random.default_rng(length)
        values = 1.5 * rng.integers(0, 5, length).astype(np.float64)
        sig = SampledSignal(
            values=values, dt=0.01, n_carriers=4, amplitude=1.5, horizon=length * 0.01
        )
        est = periodogram_fft(sig)
        spectrum = np.fft.rfft(values)
        want = (2.0 * 0.01 / length) * np.abs(spectrum[1:]) ** 2
        want_f = np.arange(1, len(spectrum)) / (length * 0.01)
        if length % 2:
            assert est.values.tobytes() == want.tobytes()
        else:
            # even lengths take the split rfft (TestSplitPeriodogram)
            assert np.max(np.abs(est.values - want)) <= 1e-9 * want.mean()
        assert est.freqs.tobytes() == want_f.tobytes()

    def test_short_signal_rejected(self):
        sig = SampledSignal(values=np.array([1.0]), dt=0.1, n_carriers=1,
                            amplitude=1.0, horizon=0.1)
        with pytest.raises(ValueError):
            periodogram_fft(sig)

    def test_cross_estimator_agreement(self):
        # dt * gamma_max = 1e-2, compare log-binned far below Nyquist
        cfg = SimConfig(
            rates=UniformRates(0.5, 10.0), trapping=PoissonTrapping(1.0),
            horizon=2000.0, sample_dt=1e-3, seed=21,
        )
        paths = simulate_realization(cfg, 0)
        sig = superpose(paths, 1.0, cfg.sample_dt)
        fft_est = periodogram_fft(sig)
        ks = np.arange(2, 4000)
        freqs = ks / sig.horizon
        ev = periodogram_superposed_events([paths[0]], 1.0, freqs)
        fft_match = SpectrumEstimate(
            freqs=freqs, values=fft_est.values[ks - 1], n_averaged=1,
            estimator="sampled_fft",
        )
        b_ev = logbin_spectrum(ev, 4)
        b_ff = logbin_spectrum(fft_match, 4)
        assert np.max(np.abs(b_ev.values / b_ff.values - 1.0)) < 0.01


def _walk(length, seed=0):
    """An integer random walk: a long-memory signal, as occupancy sums are."""
    steps = np.random.default_rng(seed).integers(-1, 2, length)
    return np.cumsum(steps).astype(np.float64)


def _sampled(values, dt=0.01):
    return SampledSignal(
        values=values, dt=dt, n_carriers=1, amplitude=1.0, horizon=len(values) * dt
    )


def _one_rfft(values, dt=0.01):
    """The periodogram of a single rfft, as odd lengths compute it."""
    return (2.0 * dt / len(values)) * np.abs(np.fft.rfft(values)[1:]) ** 2


class TestSplitPeriodogram:
    """Even lengths: the four-step FFT of the samples viewed as complex
    pairs, unpacked into the real transform."""

    # L = 0 and 2 mod 4; 4000000 has the non-power-of-two half 2^7 5^6
    @pytest.mark.parametrize("length", [2, 4, 6, 1000, 1002, 4_000_000])
    def test_matches_the_single_rfft(self, length):
        values = _walk(length, seed=length)
        est = periodogram_fft(_sampled(values), workers=2)
        want = _one_rfft(values)
        assert len(est.values) == length // 2
        assert np.max(np.abs(est.values - want)) <= 1e-9 * want.mean()

    def test_as_accurate_as_the_single_rfft(self):
        # against a DFT with phases reduced as integers k n mod L and the
        # sums in long double, at the largest and the smallest ordinates
        length, dt = 1 << 16, 0.01
        values = _walk(length)
        split = periodogram_fft(_sampled(values, dt)).values
        single = _one_rfft(values, dt)
        n = np.arange(length)
        x = values.astype(np.longdouble)
        two_pi = 2 * np.arccos(np.longdouble(-1))
        order = np.argsort(single)
        for ordinates in (order[-5:], order[:5]):
            errors = []
            for i in ordinates:
                phase = ((i + 1) * n % length).astype(np.longdouble) * (two_pi / length)
                re, im = np.sum(x * np.cos(phase)), np.sum(x * np.sin(phase))
                exact = (2 * np.longdouble(dt) / length) * (re * re + im * im)
                errors.append(
                    [float(abs(s[i] - exact) / exact) for s in (split, single)]
                )
            worst_split, worst_single = np.max(errors, axis=0)
            eps = np.finfo(np.float64).eps
            assert worst_split <= 2.0 * max(worst_single, eps)

    # several blocks of the combine each; L = 0 and 2 mod 4, and odd
    @pytest.mark.parametrize("length", [1 << 15, 24594, 24595])
    def test_bytes_do_not_depend_on_workers(self, thread_pools, length):
        sig = _sampled(_walk(length, seed=3))
        serial = periodogram_fft(sig, workers=1)
        assert thread_pools == []
        for workers in (2, 3):
            threaded = periodogram_fft(sig, workers=workers)
            assert threaded.values.tobytes() == serial.values.tobytes()
            assert threaded.freqs.tobytes() == serial.freqs.tobytes()
        # the two halves share two threads; an odd length has one rfft
        assert thread_pools == ([] if length % 2 else [2, 2])


class TestFourStepPeriodogram:
    """The in-place transform: its memory, its input and its lengths."""

    def test_overwriting_transform_allocates_little_beyond_the_spectrum(self):
        import tracemalloc

        length = 1 << 20
        sig = _sampled(_walk(length))
        tracemalloc.start()
        try:
            est = periodogram_fft(sig, overwrite=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the spectrum alone is half a signal; the frequency grid is made
        # after the transform
        assert peak - est.freqs.nbytes <= 0.75 * sig.values.nbytes

    @pytest.mark.parametrize("length", [1000, 1001])
    def test_default_leaves_the_signal_as_it_was(self, length):
        values = _walk(length, seed=4)
        sig = _sampled(values.copy())
        periodogram_fft(sig, workers=2)
        assert sig.values.tobytes() == values.tobytes()

    # N = L/2 prime (one row), and N = 3 2^20 with rows of 1536
    @pytest.mark.parametrize("length", [2 * 65537, 3 << 21])
    def test_awkward_lengths_match_the_single_rfft(self, length):
        values = _walk(length, seed=5)
        want = _one_rfft(values)
        est = periodogram_fft(_sampled(values), workers=2, overwrite=True)
        assert np.max(np.abs(est.values - want)) <= 1e-9 * want.mean()


class TestSpectrumEstimate:
    @pytest.mark.parametrize(
        "freqs, message",
        [
            ([1.0, np.nan, 3.0], "increasing"),
            ([np.nan, 1.0], "positive"),
            ([1.0, np.nan], "positive"),
            ([1.0, np.inf], "positive"),
            ([1.0, np.inf, 3.0], "increasing"),
            ([0.0, 1.0], "positive"),
            ([1.0, 2.0, 2.0], "increasing"),
            ([], "positive"),
        ],
    )
    def test_bad_grid_rejected(self, freqs, message):
        freqs = np.array(freqs, dtype=float)
        with pytest.raises(ValueError, match=message):
            SpectrumEstimate(
                freqs=freqs, values=np.ones(len(freqs)), n_averaged=1,
                estimator="event_exact",
            )

    def test_log_frequencies_taken_once(self):
        freqs = np.geomspace(0.01, 1.0, 12)
        est = SpectrumEstimate(
            freqs=freqs, values=np.ones(12), n_averaged=1, estimator="event_exact"
        )
        assert est.log_freqs is est.log_freqs
        assert est.log_freqs.tobytes() == np.log10(est.freqs).tobytes()


class TestAveraging:
    def _estimate(self, seed):
        rng = np.random.default_rng(seed)
        freqs = np.geomspace(0.01, 1.0, 12)
        return SpectrumEstimate(
            freqs=freqs, values=rng.exponential(1.0, 12), n_averaged=1,
            estimator="event_exact",
        )

    def test_idempotent_on_copies(self):
        est = self._estimate(0)
        avg = average_spectra([est] * 7)
        assert np.allclose(avg.values, est.values, rtol=1e-15)
        assert avg.n_averaged == 7

    @pytest.mark.parametrize(
        "n_realizations, n_points",
        [(1, 999), (2, 999), (3, 999), (7, 999), (8, 999), (400, 999),
         (8, 1), (400, 1), (8, 2)],
    )
    def test_matches_the_stacked_mean(self, n_realizations, n_points):
        rng = np.random.default_rng(n_realizations)
        freqs = np.geomspace(0.01, 1.0, n_points)
        ests = [
            SpectrumEstimate(
                freqs=freqs, values=rng.exponential(1.0, n_points), n_averaged=1,
                estimator="sampled_fft",
            )
            for _ in range(n_realizations)
        ]
        stacked = np.stack([e.values for e in ests], axis=0)
        avg = average_spectra(ests)
        assert avg.values.tobytes() == stacked.mean(axis=0).tobytes()
        assert avg.n_averaged == n_realizations
        # the running sum leaves its inputs as they were
        assert np.stack([e.values for e in ests], axis=0).tobytes() == stacked.tobytes()

    def test_single_estimate_is_its_own_mean(self):
        est = self._estimate(3)
        assert average_spectra([est]) is est

    def test_grid_mismatch_rejected(self):
        est = self._estimate(0)
        other = SpectrumEstimate(
            freqs=est.freqs * 1.5, values=est.values, n_averaged=1,
            estimator="event_exact",
        )
        with pytest.raises(ValueError):
            average_spectra([est, other])

    def test_variance_shrinks_like_one_over_r(self):
        # exponential periodogram noise: grouped means must shrink ~ 1/R
        singles = [self._estimate(s) for s in range(256)]
        group = 16
        grouped = [
            average_spectra(singles[i : i + group]).values
            for i in range(0, 256, group)
        ]
        var_single = np.var([e.values for e in singles], axis=0).mean()
        var_grouped = np.var(grouped, axis=0).mean()
        ratio = var_single / var_grouped
        assert group / 2.5 < ratio < group * 2.5


def logbin_by_digitize(est, bins_per_decade):
    """(freqs, values) of the log bins, one mask per np.digitize bin."""
    logf = np.log10(est.freqs)
    edges = np.arange(
        np.floor(logf[0] * bins_per_decade), np.ceil(logf[-1] * bins_per_decade) + 2
    ) / bins_per_decade
    idx = np.digitize(logf, edges) - 1
    masks = [idx == j for j in np.unique(idx)]
    freqs = np.array([10.0 ** logf[m].mean() for m in masks])
    return freqs, np.array([est.values[m].mean() for m in masks])


class TestLogbin:
    def test_identity_when_one_point_per_bin(self):
        freqs = 10.0 ** (np.arange(-3, 4) + 0.31)
        est = SpectrumEstimate(
            freqs=freqs, values=np.arange(1.0, 8.0), n_averaged=4,
            estimator="event_exact",
        )
        binned = logbin_spectrum(est, 1)
        assert np.allclose(binned.freqs, freqs, rtol=1e-12)
        assert np.allclose(binned.values, est.values, rtol=1e-12)
        assert binned.n_averaged == 4
        assert binned.estimator == "event_exact"

    def test_monotone_grid_preserved(self):
        rng = np.random.default_rng(1)
        freqs = np.geomspace(1e-3, 1e3, 500)
        est = SpectrumEstimate(
            freqs=freqs, values=rng.exponential(1.0, 500), n_averaged=1,
            estimator="sampled_fft",
        )
        binned = logbin_spectrum(est, 5)
        assert np.all(np.diff(binned.freqs) > 0.0)

    def test_matches_one_mask_per_bin(self):
        rng = np.random.default_rng(4)
        freqs = np.unique(10.0 ** rng.uniform(-3.0, 3.0, 5000))
        est = SpectrumEstimate(
            freqs=freqs, values=rng.exponential(1.0, len(freqs)), n_averaged=1,
            estimator="event_exact",
        )
        binned = logbin_spectrum(est, 8)
        want_f, want_s = logbin_by_digitize(est, 8)
        assert np.array_equal(binned.freqs, want_f)
        assert np.array_equal(binned.values, want_s)

    @pytest.mark.parametrize("bins_per_decade", [1, 3, 4, 7, 40])
    def test_points_on_edges_and_empty_bins(self, bins_per_decade):
        # points on the edges 10^(j / bpd) (f = 1, 10 and 100 among them),
        # one ulp to either side, and gaps of several empty bins
        j = np.arange(-2 * bins_per_decade, 2 * bins_per_decade + 1)
        on_edges = 10.0 ** (j / bins_per_decade)
        below, above = np.nextafter(on_edges, 0.0), np.nextafter(on_edges, np.inf)
        freqs = np.unique(np.concatenate([[1.0, 10.0, 100.0], on_edges, below, above]))
        freqs = freqs[(freqs < 0.05) | (freqs > 0.5)]  # an empty stretch of bins
        rng = np.random.default_rng(bins_per_decade)
        est = SpectrumEstimate(
            freqs=freqs, values=rng.exponential(1.0, len(freqs)), n_averaged=1,
            estimator="sampled_fft",
        )
        binned = logbin_spectrum(est, bins_per_decade)
        want_f, want_s = logbin_by_digitize(est, bins_per_decade)
        assert binned.freqs.tobytes() == want_f.tobytes()
        assert binned.values.tobytes() == want_s.tobytes()

    def test_first_point_below_its_rounded_edge(self):
        # log10(f) * 3 rounds up to the integer j although log10(f) < j / 3,
        # so the first point lies below the lowest edge and gets a bin of
        # its own, as np.digitize gives it
        on_edges = 10.0 ** (np.arange(-600, 600) / 3)
        cands = np.concatenate([np.nextafter(on_edges, 0.0), on_edges])
        logf = np.log10(cands)
        below = cands[np.floor(logf * 3) / 3 > logf]
        assert len(below)
        freqs = below[0] * np.array([1.0, 1.0 + 1e-12, 1.5, 2.0, 30.0])
        est = SpectrumEstimate(
            freqs=freqs, values=np.arange(1.0, 6.0), n_averaged=1, estimator="sampled_fft"
        )
        binned = logbin_spectrum(est, 3)
        want_f, want_s = logbin_by_digitize(est, 3)
        assert binned.values[0] == 1.0
        assert binned.freqs.tobytes() == want_f.tobytes()
        assert binned.values.tobytes() == want_s.tobytes()

    def test_pure_flicker_slope_preserved(self):
        freqs = np.geomspace(1e-2, 1e2, 900)
        est = SpectrumEstimate(
            freqs=freqs, values=1.0 / freqs, n_averaged=1, estimator="event_exact"
        )
        binned = logbin_spectrum(est, 8)
        slope = np.polyfit(np.log(binned.freqs), np.log(binned.values), 1)[0]
        assert abs(slope + 1.0) < 0.01


class TestCsvExport:
    def test_round_trip_17_digits(self):
        freqs = np.array([0.1, 1.0, 10.0])
        values = np.array([1.2345678901234567, 2e-17, 3.9e8])
        est = SpectrumEstimate(
            freqs=freqs, values=values, n_averaged=3, estimator="event_exact"
        )
        buf = io.StringIO()
        write_spectrum_csv(buf, est)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "f,S,R_eff,estimator"
        parsed = [line.split(",") for line in lines[1:]]
        assert [float(p[1]) for p in parsed] == list(values)
        assert all(p[2] == "3" and p[3] == "event_exact" for p in parsed)

    @pytest.mark.parametrize("estimator", ["event_exact", "100% %s %d %%"])
    def test_rows_match_one_f_string_per_row(self, estimator):
        # one block and one row more; a % in the estimator goes out as it is
        n = _CSV_BLOCK + 1
        rng = np.random.default_rng(3)
        freqs = np.cumsum(rng.exponential(size=n))
        values = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
        values[::4] = np.rint(values[::4] * 1e-290)
        est = SpectrumEstimate(
            freqs=freqs, values=values, n_averaged=7, estimator=estimator
        )
        buf = io.StringIO()
        write_spectrum_csv(buf, est)
        want = "f,S,R_eff,estimator\n" + "".join(
            f"{f:.17g},{v:.17g},{est.n_averaged},{est.estimator}\n"
            for f, v in zip(est.freqs, est.values)
        )
        assert buf.getvalue() == want
