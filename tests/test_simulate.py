"""Carrier-path generation, superposition, and reproducibility."""
import io
import tracemalloc

import numpy as np
import pytest
from scipy import stats

from trapnoise import (
    ArrheniusRates,
    CarrierPath,
    PoissonTrapping,
    SampledSignal,
    SimConfig,
    UniformRates,
    carrier_stream,
    detrap_cdf,
    detrap_mean,
    empirical_nu,
    simulate_carrier,
    simulate_realization,
    superpose,
)
from trapnoise import simulate
from trapnoise.distributions import escape_times, sample_rate
from trapnoise.simulate import (
    _CSV_BLOCK, _HIST_BLOCK, _cycle_time_guess, _write_rows, occupancy_counts,
    write_event_csv, write_signal_csv,
)


def make_config(**kw):
    base = dict(
        rates=UniformRates(1e-2, 10.0),
        trapping=PoissonTrapping(1.0),
        horizon=1e3,
        seed=123,
    )
    base.update(kw)
    return SimConfig(**base)


class TestSimulateCarrier:
    def test_path_invariants(self):
        cfg = make_config()
        path = simulate_carrier(cfg, carrier_stream(cfg.seed, 0, 0))
        assert np.all(path.durations > 0.0)
        ends = path.segment_times()
        assert ends[-1] <= path.horizon * (1.0 + 1e-12)
        # even indices are gaps, odd ones pulses
        kinds = ["pulse" if i % 2 else "gap" for i in range(len(path.durations))]
        assert path.pulse_count == kinds.count("pulse")
        pulses = [d for k, d in zip(kinds, path.durations) if k == "pulse"]
        assert path.free_time == pytest.approx(sum(pulses), rel=1e-12)

    @pytest.mark.parametrize("gamma_min", [0.0, 1e-2])
    @pytest.mark.parametrize("horizon", [37.3, 1e4])
    def test_events_are_the_pulse_segment_ends(self, gamma_min, horizon):
        # pulse starts and ends alternate in the segment end times
        cfg = make_config(rates=UniformRates(gamma_min, 1e3), horizon=horizon)
        built = CarrierPath(np.random.default_rng(2).exponential(size=7), horizon=1e6)
        paths = simulate_realization(cfg, 0) + [
            built,
            CarrierPath(np.array([horizon]), horizon=horizon),  # no pulse
        ]
        for path in paths:
            want = path.segment_times()[: 2 * path.pulse_count]
            assert path.events.tobytes() == want.tobytes()
            assert len(path.events) == 2 * path.pulse_count
            assert not path.events.flags.writeable
            starts, ends = path.pulse_bounds()
            assert starts.tobytes() == want[0::2].tobytes()
            assert ends.tobytes() == want[1::2].tobytes()
        assert len(built.events) == 6 and len(paths[-1].events) == 0

    @pytest.mark.parametrize("gamma_min", [0.0, 1e-2])
    @pytest.mark.parametrize("horizon", [37.3, 1e4])
    def test_times_are_the_prefix_sum(self, gamma_min, horizon):
        # the times simulate_carrier keeps must be the path's own prefix
        # sum byte for byte, clipped last segment included
        cfg = make_config(rates=UniformRates(gamma_min, 1e3), horizon=horizon)
        for seed in range(6):
            path = simulate_carrier(cfg, carrier_stream(seed, 0, 0))
            want = np.cumsum(path.durations, dtype=np.longdouble).astype(np.float64)
            assert path.segment_times().tobytes() == want.tobytes()
            built = CarrierPath(durations=path.durations.copy(), horizon=horizon)
            assert built.segment_times().tobytes() == want.tobytes()
            assert not path.segment_times().flags.writeable
            starts, ends = path.pulse_bounds()
            assert np.array_equal(starts, want[0 : 2 * path.pulse_count : 2])
            assert np.array_equal(ends, want[1 : 2 * path.pulse_count : 2])

    def test_pulse_count_tracks_mean_rate(self):
        cfg = make_config(
            rates=UniformRates(1e-4, 1e4), horizon=1e5, trapping=PoissonTrapping(1.0)
        )
        path = simulate_carrier(cfg, carrier_stream(cfg.seed, 0, 0))
        nu = 1.0 / (1.0 + detrap_mean(cfg.rates))
        expected = nu * cfg.horizon
        assert abs(path.pulse_count - expected) < 3.0 * np.sqrt(expected)

    def test_mean_pulse_duration(self):
        cfg = make_config(trapping=PoissonTrapping(4.0), horizon=1e4)
        path = simulate_carrier(cfg, carrier_stream(cfg.seed, 0, 0))
        pulses = path.pulse_durations[:-1]  # final segment may be clipped
        se = pulses.std() / np.sqrt(len(pulses))
        assert abs(pulses.mean() - 0.25) < 3.0 * se

    def test_fast_trapping_limit(self):
        # very high trapping rate: carrier is almost always trapped
        cfg = make_config(trapping=PoissonTrapping(1e3), horizon=1e3)
        path = simulate_carrier(cfg, carrier_stream(cfg.seed, 0, 0))
        assert path.free_time / path.horizon < 0.02

    def test_zero_rate_draw_closes_with_terminal_gap(self):
        # gamma_min = 0 with a tiny range: most draws are ~0, so the first
        # gap outlives the horizon and the path is a single clipped gap
        cfg = make_config(rates=UniformRates(0.0, 1e-12), horizon=10.0)
        path = simulate_carrier(cfg, carrier_stream(cfg.seed, 0, 0))
        assert path.pulse_count == 0
        assert len(path.durations) == 1
        assert path.durations[0] == pytest.approx(10.0)

    def test_gap_distribution_ks(self):
        cfg = make_config(rates=UniformRates(0.1, 10.0), horizon=2e3)
        gaps = []
        for r in range(80):
            path = simulate_carrier(cfg, carrier_stream(cfg.seed, r, 0))
            gaps.append(path.gap_durations[:-1])  # drop possibly clipped tail
        gaps = np.concatenate(gaps)
        assert len(gaps) > 1e5
        res = stats.kstest(gaps, lambda t: detrap_cdf(t, cfg.rates))
        assert res.pvalue > 0.01


def simulate_carrier_three_buffers(config, rng):
    """Reference: the sampler that kept separate gap and pulse buffers,
    interleaved them afterwards and clipped the horizon segment in copies."""
    T = config.horizon
    theta_scale = config.trapping.mean_time
    guess = _cycle_time_guess(config.rates, config.trapping, T)

    gap_blocks = []
    pulse_blocks = []
    total = 0.0
    while total < T:
        n = max(16, int(1.1 * (T - min(total, T)) / guess) + 1)
        gamma = np.asarray(sample_rate(config.rates, rng, n), dtype=float)
        gaps = escape_times(gamma, rng.standard_exponential(n))
        pulses = rng.exponential(theta_scale, n)
        gap_blocks.append(gaps)
        pulse_blocks.append(pulses)
        block_total = gaps.sum() + pulses.sum()
        total = total + block_total if np.isfinite(block_total) else np.inf

    gaps = np.concatenate(gap_blocks)
    pulses = np.concatenate(pulse_blocks)
    interleaved = np.empty(2 * len(gaps))
    interleaved[0::2] = gaps
    interleaved[1::2] = pulses

    prefix = interleaved.astype(np.longdouble)
    np.cumsum(prefix, out=prefix)
    ends = prefix.astype(np.float64)
    cut = int(np.searchsorted(ends, T, side="left"))
    if cut >= len(interleaved):
        kept = interleaved.copy()
        times = ends
    else:
        start_of_last = ends[cut - 1] if cut > 0 else 0.0
        last = T - start_of_last
        last_end = prefix[cut - 1] + last if cut > 0 else last
        kept = interleaved[: cut + 1].copy()
        times = ends[: cut + 1].copy()
        kept[-1] = last
        times[-1] = last_end
        if kept[-1] <= 0.0:
            kept = kept[:-1]
            times = times[:-1]
    return kept, times


class TestOneBufferSampler:
    """``simulate_carrier`` draws into one interleaved buffer and clips in
    place, with the bytes of the three-buffer reference."""

    def test_same_bytes_as_three_buffers(self, monkeypatch):
        blocks_drawn = []

        def counting_sample_rate(*args):
            blocks_drawn[-1] += 1
            return sample_rate(*args)

        monkeypatch.setattr(simulate, "sample_rate", counting_sample_rate)
        models = [
            UniformRates(0.0, 10.0),
            UniformRates(1e-3, 10.0),
            UniformRates(2.0, 2.0),
            ArrheniusRates(1e3, 0.1, 0.2, 1.0),
        ]
        lengths = []
        for rates in models:
            for horizon in (0.01, 1.0, 37.3, 1e3, 1e5):
                for trapping_rate in (0.01, 1.0, 100.0):
                    cfg = make_config(
                        rates=rates, trapping=PoissonTrapping(trapping_rate),
                        horizon=horizon,
                    )
                    for seed in range(3):
                        blocks_drawn.append(0)
                        path = simulate_carrier(cfg, carrier_stream(seed, 0, 0))
                        kept, times = simulate_carrier_three_buffers(
                            cfg, carrier_stream(seed, 0, 0)
                        )
                        assert path.durations.tobytes() == kept.tobytes()
                        assert path.segment_times().tobytes() == times.tobytes()
                        lengths.append(len(kept))
        # the grid covers a path cut in its first segment and a draw that
        # needed more than one block
        assert min(lengths) == 1
        assert max(blocks_drawn) > 1

    def test_peak_memory_per_kept_segment(self):
        cfg = make_config(rates=UniformRates(1e-3, 1e3), horizon=2e5)
        rng = carrier_stream(1, 0, 0)
        tracemalloc.start()
        try:
            path = simulate_carrier(cfg, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 3e5 < len(path.durations) < 5e5
        # the prefix stage: 32 bytes per drawn segment, ~1.1 drawn per kept
        assert peak / len(path.durations) <= 40.0


class TestDeterminism:
    def test_bit_identical_paths(self):
        cfg = make_config(n_carriers=3)
        a = simulate_realization(cfg, 5)
        b = simulate_realization(cfg, 5)
        assert all(np.array_equal(x.durations, y.durations) for x, y in zip(a, b))

    def test_streams_differ_by_index(self):
        cfg = make_config()
        p0 = simulate_carrier(cfg, carrier_stream(cfg.seed, 0, 0))
        p1 = simulate_carrier(cfg, carrier_stream(cfg.seed, 1, 0))
        p2 = simulate_carrier(cfg, carrier_stream(cfg.seed, 0, 1))
        assert not np.array_equal(p0.durations, p1.durations)
        assert not np.array_equal(p0.durations, p2.durations)


class TestEmpiricalNu:
    def test_all_gap_path(self):
        path = CarrierPath(durations=np.array([50.0]), horizon=50.0)
        assert empirical_nu(path) == 0.0

    def test_arithmetic(self):
        durations = np.tile([9.0, 1.0], 1000).astype(float)
        path = CarrierPath(durations=durations, horizon=1e4)
        assert empirical_nu(path) == pytest.approx(0.1)

    def test_ergodic_convergence(self):
        cfg = make_config(rates=UniformRates(1e-2, 10.0), horizon=1e6)
        path = simulate_carrier(cfg, carrier_stream(cfg.seed, 0, 0))
        nu = 1.0 / (1.0 + detrap_mean(cfg.rates))
        assert abs(empirical_nu(path) / nu - 1.0) < 0.01

    def test_free_fraction_near_duty_cycle(self):
        cfg = make_config(rates=UniformRates(0.5, 5.0), horizon=5e3)
        paths = [simulate_carrier(cfg, carrier_stream(cfg.seed, r, 0)) for r in range(40)]
        fracs = np.array([p.free_time / p.horizon for p in paths])
        tau = detrap_mean(cfg.rates)
        p_free = 1.0 / (1.0 + tau)
        se = fracs.std(ddof=1) / np.sqrt(len(fracs))
        assert abs(fracs.mean() - p_free) < 3.0 * se


class TestSuperpose:
    def test_single_carrier_matches_state_sampling(self):
        cfg = make_config(horizon=200.0)
        path = simulate_carrier(cfg, carrier_stream(cfg.seed, 0, 0))
        dt = 0.05
        sig = superpose([path], 2.0, dt)
        starts, ends = path.pulse_bounds()
        t = np.arange(len(sig.values)) * dt
        idx = np.searchsorted(starts, t, side="right") - 1
        free = (idx >= 0) & (t < ends[np.clip(idx, 0, len(ends) - 1)])
        assert np.array_equal(sig.values, 2.0 * free.astype(float))

    def test_mismatched_horizons_rejected(self):
        p1 = CarrierPath(durations=np.array([1.0, 1.0]), horizon=2.0)
        p2 = CarrierPath(durations=np.array([1.0, 2.0]), horizon=3.0)
        with pytest.raises(ValueError):
            superpose([p1, p2], 1.0, 0.1)

    def test_all_trapped_gives_zero_signal(self):
        paths = [CarrierPath(durations=np.array([5.0]), horizon=5.0) for _ in range(3)]
        sig = superpose(paths, 1.0, 0.5)
        assert np.all(sig.values == 0.0)

    def test_mean_equals_grid_occupancy_identity(self):
        cfg = make_config(n_carriers=4, horizon=300.0)
        paths = simulate_realization(cfg, 0)
        sig = superpose(paths, 1.5, 0.1)
        occupancy = np.zeros(len(sig.values))
        t = np.arange(len(sig.values)) * 0.1
        for p in paths:
            starts, ends = p.pulse_bounds()
            idx = np.searchsorted(starts, t, side="right") - 1
            occupancy += (idx >= 0) & (t < ends[np.clip(idx, 0, len(ends) - 1)])
        assert sig.values.mean() == 1.5 * occupancy.mean()


def superpose_formula(paths, amplitude, dt):
    """The sampled signal as one expression over every pulse's bounds."""
    n = int(np.floor(paths[0].horizon / dt + 1e-9))
    starts, stops = zip(*(p.pulse_bounds() for p in paths))
    k0 = np.clip(np.concatenate([np.ceil(t / dt).astype(np.int64) for t in starts]), 0, n)
    k1 = np.clip(np.concatenate([np.ceil(t / dt).astype(np.int64) for t in stops]), 0, n)
    delta = np.bincount(k0, minlength=n + 1) - np.bincount(k1, minlength=n + 1)
    return amplitude * np.cumsum(delta)[:n].astype(np.float64)


class TestAgainstFormulas:
    """The blocked and in-place kernels give the bytes of the one-expression
    formulas they stand for."""

    @pytest.mark.parametrize("n_samples", [_HIST_BLOCK - 1, _HIST_BLOCK, _HIST_BLOCK + 1])
    def test_superpose_and_histogram_around_one_block(self, n_samples):
        dt = 0.01
        cfg = make_config(n_carriers=6, horizon=n_samples * dt)
        paths = simulate_realization(cfg, 0)
        sig = superpose(paths, 1.5, dt)
        assert len(sig.values) == n_samples
        want = superpose_formula(paths, 1.5, dt)
        assert sig.values.tobytes() == want.tobytes()
        hist = occupancy_counts(sig)
        assert hist.dtype == np.int64
        want_hist = np.bincount(
            np.rint(want / 1.5).astype(np.int64), minlength=cfg.n_carriers + 1
        )
        assert hist.tobytes() == want_hist.tobytes()

    def test_pulses_past_the_last_sample_are_clipped(self):
        # n = floor(10.05 / 0.1) = 100 samples; the last pulse of each path
        # ends at the horizon, at k = ceil(100.5) = 101 before clipping
        paths = [
            CarrierPath(durations=np.array([0.0, 2.0, 3.0, 5.05]), horizon=10.05),
            CarrierPath(durations=np.array([9.99, 0.06]), horizon=10.05),
            CarrierPath(durations=np.array([0.26, 9.79]), horizon=10.05),
        ]
        sig = superpose(paths, 1.5, 0.1)
        want = superpose_formula(paths, 1.5, 0.1)
        assert len(want) == 100
        assert sig.values.tobytes() == want.tobytes()
        assert sig.values[-1] == 1.5 * 2

    @pytest.mark.parametrize(
        "length", [1, _HIST_BLOCK - 1, _HIST_BLOCK, _HIST_BLOCK + 1, 3 * _HIST_BLOCK + 7]
    )
    def test_histogram_of_any_length(self, length):
        rng = np.random.default_rng(length)
        values = 1.5 * rng.integers(0, 9, length).astype(np.float64)
        sig = SampledSignal(
            values=values, dt=0.1, n_carriers=8, amplitude=1.5, horizon=1.0
        )
        want = np.bincount(np.rint(values / 1.5).astype(np.int64), minlength=9)
        assert occupancy_counts(sig).tobytes() == want.tobytes()


class TestExports:
    def test_event_csv_layout(self):
        cfg = make_config(horizon=50.0, n_carriers=2)
        realized = [simulate_realization(cfg, r) for r in range(2)]
        buf = io.StringIO()
        write_event_csv(buf, realized)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "realization,carrier,kind,duration"
        n_segments = sum(len(p.durations) for paths in realized for p in paths)
        assert len(lines) == 1 + n_segments
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "0" and first[2] == "gap"

    def test_event_csv_rows_match_segments(self):
        # odd and even lengths, one long enough to span several blocks
        rng = np.random.default_rng(5)
        realized = [
            [CarrierPath(rng.exponential(size=n), horizon=1e6) for n in (40001, 0)],
            [CarrierPath(rng.exponential(size=n), horizon=1e6) for n in (1, 6)],
        ]
        buf = io.StringIO()
        write_event_csv(buf, realized)
        expected = ["realization,carrier,kind,duration"] + [
            f"{r},{c},{'pulse' if i % 2 else 'gap'},{duration:.17g}"
            for r, paths in enumerate(realized)
            for c, path in enumerate(paths)
            for i, duration in enumerate(path.durations)
        ]
        assert buf.getvalue() == "\n".join(expected) + "\n"

    def test_event_csv_one_realization_at_a_time(self):
        cfg = make_config(horizon=200.0, n_carriers=3)
        realized = [simulate_realization(cfg, r) for r in range(3)]
        whole = io.StringIO()
        write_event_csv(whole, realized)
        parts = io.StringIO()
        for r, paths in enumerate(realized):
            write_event_csv(parts, [paths], start=r)
        assert parts.getvalue() == whole.getvalue()

    def test_signal_csv_layout(self):
        sig = SampledSignal(
            values=np.array([0.0, 1.0, 1.0]), dt=0.5, n_carriers=1,
            amplitude=1.0, horizon=1.5,
        )
        buf = io.StringIO()
        write_signal_csv(buf, sig, seed=7)
        lines = buf.getvalue().strip().split("\n")
        assert lines[0] == "dt,n_carriers,amplitude,horizon,seed"
        assert lines[1].endswith(",7")
        assert lines[2] == "value"
        assert len(lines) == 3 + 3

    @pytest.mark.parametrize("n", [1, _CSV_BLOCK, _CSV_BLOCK + 1])
    def test_signal_csv_values_match_one_row_per_sample(self, n):
        values = np.random.default_rng(n).normal(scale=1e3, size=n)
        values[::3] = np.rint(values[::3])  # whole numbers, zeros among them
        sig = SampledSignal(
            values=values, dt=1e-4, n_carriers=3, amplitude=0.5, horizon=n * 1e-4,
        )
        buf = io.StringIO()
        write_signal_csv(buf, sig, seed=9)
        _, _, body = buf.getvalue().partition("value\n")
        assert body == "".join(f"{v:.17g}\n" for v in values)


def awkward_floats(n, seed):
    """Floats over many decades, with whole numbers, zeros and extremes."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, n)
    x[::5] = np.rint(rng.normal(scale=1e4, size=len(x[::5])))
    x[:6] = [0.0, -0.0, 5e-324, 1.7976931348623157e308, 1e22, 0.1]
    return x


class TestBlockedRows:
    """``_write_rows`` writes the bytes of one f-string per row."""

    N = _CSV_BLOCK + 1

    def test_pmf_rows(self):
        pmf, model = awkward_floats(self.N, 1), awkward_floats(self.N, 2)
        buf = io.StringIO()
        _write_rows(buf, np.arange(self.N), ",", pmf, ",", model, "\n")
        want = "".join(
            f"{k},{p:.17g},{m:.17g}\n" for k, (p, m) in enumerate(zip(pmf, model))
        )
        assert buf.getvalue() == want

    def test_curves_rows(self):
        tau = awkward_floats(self.N, 3)
        mixture = awkward_floats(self.N, 4)
        components = [awkward_floats(self.N, 5 + i) for i in range(10)]
        buf = io.StringIO()
        columns = [mixture] + components
        _write_rows(buf, tau, *(piece for c in columns for piece in (",", c)), "\n")
        want = []
        for i, t in enumerate(tau):
            row = [f"{t:.17g}", f"{mixture[i]:.17g}"]
            row += [f"{comp[i]:.17g}" for comp in components]
            want.append(",".join(row) + "\n")
        assert buf.getvalue() == "".join(want)

    def test_percent_in_fixed_text_is_written_verbatim(self):
        buf = io.StringIO()
        _write_rows(buf, "%d%%", np.array([1.5, 2.0]), ",%s 100%\n")
        assert buf.getvalue() == "%d%%1.5,%s 100%\n%d%%2,%s 100%\n"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "build, field",
        [
            (lambda: make_config(horizon=np.nan), "horizon"),
            (lambda: make_config(horizon=np.inf), "horizon"),
            (lambda: make_config(sample_dt=np.nan), "sample_dt"),
            (lambda: make_config(sample_dt=np.inf), "sample_dt"),
            (lambda: UniformRates(0.0, np.inf), "gamma_max"),
            (lambda: UniformRates(np.inf, np.inf), "gamma_min"),
            (lambda: ArrheniusRates(np.inf, 1.0, 0.0, 1.0), "prefactor"),
            (lambda: ArrheniusRates(1.0, np.nan, 0.0, 1.0), "thermal_energy"),
        ],
        ids=["horizon-nan", "horizon-inf", "dt-nan", "dt-inf", "gamma_max-inf",
             "gamma_min-inf", "prefactor-inf", "thermal_energy-nan"],
    )
    def test_non_finite_values_rejected(self, build, field):
        with pytest.raises(ValueError, match=field):
            build()

    @pytest.mark.parametrize(
        "kw, field",
        [
            (dict(amplitude=0.0), "amplitude"),
            (dict(amplitude=-1.0), "amplitude"),
            (dict(amplitude=np.nan), "amplitude"),
            (dict(amplitude=np.inf), "amplitude"),
            (dict(n_carriers=2.5), "n_carriers"),
            (dict(n_carriers=3.0), "n_carriers"),
            (dict(n_realizations=2.0), "n_realizations"),
            (dict(n_realizations="4"), "n_realizations"),
            (dict(seed=-1), "seed"),
            (dict(seed=1.5), "seed"),
            (dict(seed="7"), "seed"),
            (dict(horizon=1.0, sample_dt=2.0), "sample_dt"),
            (dict(horizon=1.0, sample_dt=0.7), "sample_dt"),
        ],
        ids=["amplitude-zero", "amplitude-negative", "amplitude-nan",
             "amplitude-inf", "carriers-fraction", "carriers-float",
             "realizations-float", "realizations-str", "seed-negative",
             "seed-fraction", "seed-str", "dt-above-horizon", "dt-one-sample"],
    )
    def test_bad_amplitude_and_counts_rejected(self, kw, field):
        with pytest.raises(ValueError, match=field):
            make_config(**kw)

    def test_two_samples_accepted(self):
        cfg = make_config(horizon=1.0, sample_dt=0.5, seed=np.uint32(0))
        path = simulate_carrier(cfg, carrier_stream(cfg.seed, 0, 0))
        assert len(superpose([path], 1.0, cfg.sample_dt).values) == 2

    def test_numpy_integer_counts_accepted(self):
        cfg = make_config(n_carriers=np.int64(3), n_realizations=np.int32(2))
        assert cfg.n_carriers == 3 and cfg.n_realizations == 2

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            make_config(horizon=0.0)
        with pytest.raises(ValueError):
            make_config(n_carriers=0)
        with pytest.raises(ValueError):
            make_config(n_realizations=0)
        with pytest.raises(ValueError):
            make_config(sample_dt=0.0)
