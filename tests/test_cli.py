"""Presets, runner artifacts, CLI subcommands, determinism."""
import dataclasses
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from trapnoise import (
    PoissonTrapping,
    SimConfig,
    UniformRates,
    effective_cutoff,
    preset,
    spec_from_dict,
    spec_to_dict,
)
from trapnoise.analysis import plateau_onset
from trapnoise.cli import main
from trapnoise.distributions import free_probability
from trapnoise.presets import FIG2_COMPONENT_RATES, DEFAULT_SEED
from trapnoise import runner
from trapnoise.runner import run, run_spectrum_config
from trapnoise.simulate import (
    _GROUP_CARRIERS, _carrier_groups, binomial_pmf, occupancy_counts,
    simulate_realization, superpose,
)
from trapnoise.spectra import SpectrumEstimate, logbin_spectrum


class TestPresets:
    def test_fig3_reference_parameters(self):
        spec = preset("fig3")
        label, cfg = spec.runs[0]
        assert label == ""
        assert cfg.rates == UniformRates(1e-4, 1e4)
        assert cfg.trapping.rate == 1.0
        assert cfg.amplitude == 1.0
        assert cfg.horizon == 1e6
        assert cfg.n_realizations == 100
        assert cfg.n_carriers == 1

    def test_fig4_horizons_and_gate(self):
        spec = preset("fig4")
        assert [cfg.horizon for _, cfg in spec.runs] == [1e4, 1e6]
        assert [label for label, _ in spec.runs] == ["T1e4", "T1e6"]
        full = preset("fig4", full=True)
        assert [cfg.horizon for _, cfg in full.runs] == [1e4, 1e6, 1e8]
        for _, cfg in full.runs:
            assert cfg.rates == UniformRates(0.0, 1e3)
            assert cfg.n_realizations == 1

    def test_fig5_realization_counts(self):
        spec = preset("fig5")
        assert [cfg.n_realizations for _, cfg in spec.runs] == [1, 1000]
        assert all(cfg.horizon == 1e6 for _, cfg in spec.runs)

    def test_fig6_reference_parameters(self):
        spec = preset("fig6")
        _, cfg = spec.runs[0]
        assert cfg.n_carriers == 1000
        assert cfg.n_realizations == 1
        assert cfg.horizon == 2**26 * 1e-4
        assert cfg.sample_dt == 1e-4
        assert cfg.rates == UniformRates(0.0, 1e3)
        assert spec.estimator == "sampled_fft"

    def test_fig2_component_rates(self):
        # ten log-spaced single-rate components between 1e-3 and 10
        want = [1e-3, 2.78e-3, 7.74e-3, 2.15e-2, 5.99e-2,
                1.67e-1, 4.64e-1, 1.29, 3.59, 10.0]
        assert np.allclose(FIG2_COMPONENT_RATES, want, rtol=0.005)

    def test_scale_divides_horizon_and_realizations(self):
        spec = preset("fig3", scale=10.0)
        _, cfg = spec.runs[0]
        assert cfg.horizon == 1e5
        assert cfg.n_realizations == 10
        assert spec.scale == 10.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError):
            preset("fig7")

    def test_json_round_trip(self):
        for name in ("fig2", "fig3", "fig4", "fig5", "fig6"):
            for scale, full in ((2.0, False), (1.0, True)):
                spec = preset(name, scale=scale, seed=77, full=full)
                again = spec_from_dict(json.loads(json.dumps(spec_to_dict(spec))))
                assert again == spec

    @pytest.mark.parametrize(
        "edit, name",
        [
            (lambda d: d.update(estimator="bogus"), "bogus"),
            (lambda d: d.update(analyses=["cutoff", "hoge"]), "hoge"),
            (lambda d: d.update(f_maxx=1.0), "f_maxx"),
            (lambda d: d["runs"][0].update(horizn=1e3), "horizn"),
            (lambda d: d["runs"][0]["rates"].update(gamma_mx=1e3), "gamma_mx"),
            (lambda d: d["runs"][0]["rates"].update(kind="bogus"), "bogus"),
        ],
        ids=["estimator", "analysis", "spec-key", "run-key", "rates-key",
             "rates-kind"],
    )
    def test_unknown_name_rejected(self, edit, name):
        d = spec_to_dict(preset("fig3", scale=1000.0))
        edit(d)
        with pytest.raises(ValueError, match=name):
            spec_from_dict(d)

    @pytest.mark.parametrize(
        "figure, edit, field",
        [
            ("fig3", lambda d: d["runs"].append(dict(d["runs"][0])), "label"),
            ("fig3", lambda d: d["analyses"].append("amplitude_pmf"),
             "amplitude_pmf"),
            ("fig6", lambda d: d["runs"][0].update(sample_dt=None), "sample_dt"),
            ("fig3", lambda d: d.update(points_per_decade=0), "points_per_decade"),
            ("fig6", lambda d: d.update(bins_per_decade=0), "bins_per_decade"),
            ("fig3", lambda d: d.update(f_min=0.0), "f_min"),
            ("fig3", lambda d: d.update(f_max=-1.0), "f_max"),
            ("fig3", lambda d: d.update(f_min=2.0, f_max=1.0), "f_min"),
            ("fig3", lambda d: d.update(scale=0.0), "scale"),
            ("fig3", lambda d: d.update(scale=-2.0), "scale"),
            ("fig6", lambda d: d.update(f_min=1e-3), "f_min"),
            ("fig6", lambda d: d.update(f_max=1.0), "f_max"),
            ("fig3", lambda d: d.update(name=""), "name"),
            ("fig3", lambda d: d.update(kind="bogus"), "kind"),
            ("fig3", lambda d: d.update(runs=[]), "run"),
        ],
        ids=["duplicate-label", "pmf-event-exact", "fft-no-dt", "points-zero",
             "bins-zero", "f_min-zero", "f_max-negative", "f_min-above-f_max",
             "scale-zero", "scale-negative", "fft-f_min", "fft-f_max",
             "empty-name", "unknown-kind", "no-runs"],
    )
    def test_unrunnable_spec_rejected(self, figure, edit, field):
        d = spec_to_dict(preset(figure, scale=1000.0))
        edit(d)
        with pytest.raises(ValueError, match=field):
            spec_from_dict(d)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n_carriers", True),
            ("n_realizations", True),
            ("seed", False),
            ("points_per_decade", True),
            ("bins_per_decade", 2.5),
        ],
    )
    def test_integer_fields_reject_bools_and_fractions(self, field, value):
        # JSON true and false are Python bools, which isinstance(.., int) accepts
        d = spec_to_dict(preset("fig6", scale=1000.0))
        (d if field.endswith("_per_decade") else d["runs"][0])[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            spec_from_dict(d)

    @pytest.mark.parametrize(
        "field, value",
        [
            (field, value)
            for field in ("horizon", "amplitude", "sample_dt", "trapping_rate",
                          "gamma_min", "gamma_max", "f_min", "f_max", "scale")
            for value in (True, "1e4", None)
            # None stands for the default of the optional fields
            if value is not None
            or field not in ("sample_dt", "f_min", "f_max", "scale")
        ],
    )
    def test_real_fields_reject_bools_and_non_numbers(self, field, value):
        # JSON true is a Python bool, which compares as the number 1
        d = spec_to_dict(preset("fig3", scale=1000.0))
        run0 = d["runs"][0]
        owner = d if field in ("f_min", "f_max", "scale") else run0
        (run0["rates"] if field.startswith("gamma") else owner)[field] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            spec_from_dict(d)

    def test_f_max_below_a_runs_lowest_frequency_rejected(self):
        # T1e4 at scale 100 has horizon 100, so its grid starts at 1e-2
        d = spec_to_dict(preset("fig4", scale=100.0))
        d["f_max"] = 1e-3
        with pytest.raises(ValueError, match=r"'T1e4' \(horizon 100\).*f_max"):
            spec_from_dict(d)

    @pytest.mark.parametrize("key", ["rates", "trapping_rate", "horizon"])
    def test_missing_run_key_named(self, key):
        d = spec_to_dict(preset("fig3", scale=1000.0))
        del d["runs"][0][key]
        with pytest.raises(ValueError, match=rf"run 0 \(label ''\).*'{key}'"):
            spec_from_dict(d)

    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan")])
    def test_preset_rejects_bad_scale(self, scale):
        with pytest.raises(ValueError, match="scale"):
            preset("fig3", scale=scale)


def _assert_same_artifacts(one_dir, two_dir) -> list:
    """Both runs wrote the same files with the same bytes, apart from the
    timing and worker keys of the meta JSON; returns the file names."""
    names = sorted(p.name for p in one_dir.iterdir())
    assert names == sorted(p.name for p in two_dir.iterdir())
    for name in names:
        one = (one_dir / name).read_bytes()
        two = (two_dir / name).read_bytes()
        if name.endswith("_meta.json"):
            one, two = json.loads(one), json.loads(two)
            for meta in (one, two):
                del meta["wall_time_s"], meta["workers"]
        assert one == two, name
    return names


class TestRunner:
    def test_fig3_artifacts_exist(self, tmp_path):
        spec = preset("fig3", scale=1000.0, seed=5)
        artifacts = run(spec, tmp_path, workers=1)
        assert (tmp_path / "fig3_spectrum.csv").exists()
        assert (tmp_path / "fig3_report.json").exists()
        assert (tmp_path / "fig3_meta.json").exists()
        assert (tmp_path / "fig3_plot.py").exists()
        report = json.loads((tmp_path / "fig3_report.json").read_text())
        run0 = report["runs"][0]
        assert 0.5 < run0["nu_bar_empirical"] < 1.5
        assert "cutoff" in run0 and "hooge" in run0
        header = (tmp_path / "fig3_spectrum.csv").read_text().splitlines()[0]
        assert header == "f,S,R_eff,estimator"

    def test_fig2_curves(self, tmp_path):
        artifacts = run(preset("fig2"), tmp_path)
        lines = (tmp_path / "fig2_curves.csv").read_text().splitlines()
        cols = lines[0].split(",")
        assert cols[:2] == ["tau", "mixture"]
        assert len(cols) == 2 + 10
        data = np.genfromtxt(tmp_path / "fig2_curves.csv", delimiter=",",
                             names=True)
        assert np.all(np.diff(data["tau"]) > 0.0)
        assert np.all(data["mixture"] > 0.0)

    def test_meta_echoes_spec(self, tmp_path):
        spec = preset("fig3", scale=1000.0, seed=5)
        run(spec, tmp_path, workers=1)
        meta = json.loads((tmp_path / "fig3_meta.json").read_text())
        assert spec_from_dict(meta["spec"]) == spec

    def test_same_seed_byte_identical(self, tmp_path):
        spec = preset("fig3", scale=1000.0, seed=5)
        run(spec, tmp_path / "a", workers=1)
        run(spec, tmp_path / "b", workers=1)
        assert (tmp_path / "a/fig3_spectrum.csv").read_bytes() == (
            tmp_path / "b/fig3_spectrum.csv"
        ).read_bytes()

    def test_multi_run_and_fft_presets(self, tmp_path):
        run(preset("fig4", scale=100.0, seed=3), tmp_path, workers=1)
        assert (tmp_path / "fig4_T1e4_spectrum.csv").exists()
        assert (tmp_path / "fig4_T1e6_spectrum.csv").exists()

        run(preset("fig6", scale=64.0, seed=3), tmp_path, workers=1)
        assert (tmp_path / "fig6_spectrum.csv").exists()
        pmf_lines = (tmp_path / "fig6_amplitude_pmf.csv").read_text().splitlines()
        assert pmf_lines[0] == "count,pmf,binomial"
        assert len(pmf_lines) == 1 + 1001
        report = json.loads((tmp_path / "fig6_report.json").read_text())
        assert 0.9 < report["runs"][0]["amplitude"]["p_fit"] <= 1.0

    def test_hooge_window_above_f_max_skips_fit(self, tmp_path):
        # averaging R = 8 puts the floor-derived fit window start at
        # 10 (R + 1e3) / (R T) / 2 pi ~ 0.02, above f_max = 0.01
        spec = spec_from_dict({
            "name": "late_window",
            "runs": [{
                "rates": {"kind": "uniform", "gamma_min": 0.0, "gamma_max": 1e3},
                "trapping_rate": 1.0,
                "horizon": 1e4,
                "n_realizations": 8,
                "seed": 3,
            }],
            "f_max": 1e-2,
            "points_per_decade": 16,
            "analyses": ["hooge"],
        })
        run(spec, tmp_path, workers=1)

        def reject(token):
            raise AssertionError(f"non-finite value {token} in the report")

        text = (tmp_path / "late_window_report.json").read_text()
        hooge = json.loads(text, parse_constant=reject)["runs"][0]["hooge"]
        assert "fitted" not in hooge
        assert hooge["fit_skipped"] == "empty fit window"
        f_lo, f_hi = hooge["fit_window"]
        assert 1e-2 < f_lo < f_hi

    def test_fig3_report_adds_in_band_to_hooge(self, tmp_path):
        run(preset("fig3", scale=1000.0, seed=5), tmp_path, workers=1)
        info = json.loads((tmp_path / "fig3_report.json").read_text())["runs"][0]
        assert list(info) == [
            "label", "nu_bar_empirical", "mean_current", "pulse_count",
            "cutoff", "hooge",
        ]
        assert list(info["hooge"]) == [
            "predicted", "exact", "fitted", "fit_window", "slope_deviation",
            "in_band",
        ]
        assert info["hooge"]["in_band"] is (info["hooge"]["slope_deviation"] <= 0.2)

    def test_hooge_fit_unbiased_across_seeds(self, tmp_path):
        # the fit window starts at the finite-observation floor, ~100x
        # above gamma_min here, so the fit sees only the flicker band
        ratios = []
        for seed in range(1, 9):
            spec = preset("fig3", scale=50.0, seed=seed)
            artifacts = run(spec, tmp_path / str(seed), workers=1)
            with open(artifacts["report"]) as fh:
                hooge = json.load(fh)["runs"][0]["hooge"]
            floor = effective_cutoff(spec.runs[0][1]).gamma_min_eff
            assert hooge["fit_window"][0] == 10.0 * floor / (2.0 * np.pi)
            ratios.append(hooge["fitted"] / hooge["exact"])
        assert np.exp(np.mean(np.log(ratios))) == pytest.approx(1.0, rel=0.1)

    def test_plateau_onset_tracks_floor_across_seeds(self, tmp_path):
        # a single realization's onset scatters over about a decade (the
        # lowest bins hold a few ordinates each), so over 16 runs the mean
        # of log10(onset / (floor/2pi)) has a standard error of ~0.2; a
        # factor of 3 (0.48 decades) allows ~2.5 of them
        ratios = []
        for seed in range(1, 9):
            spec = preset("fig4", scale=5.0, seed=seed)
            artifacts = run(spec, tmp_path / str(seed), workers=1)
            with open(artifacts["report"]) as fh:
                runs = json.load(fh)["runs"]
            for info in runs:
                cutoff = info["cutoff"]
                floor_f = cutoff["auto_gamma_min_eff"] / (2.0 * np.pi)
                onset = cutoff["measured_onset"]  # null when not measured
                ratios.append(np.nan if onset is None else onset / floor_f)
        ratios = np.asarray(ratios)
        assert np.isfinite(ratios).sum() >= 12
        geo = np.exp(np.nanmean(np.log(ratios)))
        assert 1.0 / 3.0 < geo < 3.0

    def test_event_exact_needs_freqs(self):
        cfg = SimConfig(
            rates=UniformRates(1e-2, 10.0), trapping=PoissonTrapping(1.0),
            horizon=100.0,
        )
        with pytest.raises(ValueError, match="freqs"):
            run_spectrum_config(cfg, workers=1)

    def test_neither_freqs_nor_sample_dt_names_both(self):
        cfg = SimConfig(
            rates=UniformRates(1e-2, 10.0), trapping=PoissonTrapping(1.0),
            horizon=100.0,
        )
        with pytest.raises(ValueError, match="freqs.*sample_dt"):
            run_spectrum_config(cfg, workers=1)

    def test_a_grid_with_sample_dt_runs_event_exact(self):
        # the grid decides the estimator; sample_dt does not touch the paths
        cfg = SimConfig(
            rates=UniformRates(1e-2, 10.0), trapping=PoissonTrapping(1.0),
            horizon=100.0, n_realizations=2, seed=6,
        )
        freqs = np.geomspace(0.01, 1.0, 9)
        plain = run_spectrum_config(cfg, freqs=freqs, workers=1).spectrum
        sampled = dataclasses.replace(cfg, sample_dt=1e-2)
        both = run_spectrum_config(sampled, freqs=freqs, workers=1).spectrum
        assert both.estimator == "event_exact"
        assert both.freqs.tobytes() == plain.freqs.tobytes()
        assert both.values.tobytes() == plain.values.tobytes()

    def test_worker_count_does_not_change_bytes(self, tmp_path):
        spec = preset("fig3", scale=200.0, seed=5)  # 5e3 horizon, R=1... scale
        run(spec, tmp_path / "w1", workers=1)
        run(spec, tmp_path / "w2", workers=2)
        assert (tmp_path / "w1/fig3_spectrum.csv").read_bytes() == (
            tmp_path / "w2/fig3_spectrum.csv"
        ).read_bytes()

    def test_threads_on_one_realization_keep_every_byte(self, tmp_path, thread_pools):
        spec = preset("fig4", scale=100.0)  # two runs of one realization
        run(spec, tmp_path / "w1", workers=1, events_csv=True)
        assert thread_pools == []
        run(spec, tmp_path / "w2", workers=2, events_csv=True)
        assert thread_pools == [2, 2]
        names = _assert_same_artifacts(tmp_path / "w1", tmp_path / "w2")
        assert "fig4_T1e6_events.csv" in names

    def test_sampled_run_keeps_every_byte_at_any_workers(self, tmp_path):
        spec = preset("fig6", scale=64.0)  # one realization, sampled FFT
        run(spec, tmp_path / "w1", workers=1)
        run(spec, tmp_path / "w2", workers=2)
        names = _assert_same_artifacts(tmp_path / "w1", tmp_path / "w2")
        assert "fig6_amplitude_pmf.csv" in names

    @pytest.mark.parametrize("n_realizations", [1, 2, 5])
    def test_only_a_single_realization_runs_on_threads(
        self, monkeypatch, thread_pools, n_realizations
    ):
        # several realizations at three workers keep the process pool, of
        # no more processes than realizations
        processes = []

        class SerialPool:
            def __init__(self, max_workers):
                processes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks, chunksize=1):
                return map(fn, tasks)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", SerialPool)
        cfg = SimConfig(
            rates=UniformRates(1e-2, 1e2), trapping=PoissonTrapping(1.0),
            horizon=1e3, n_realizations=n_realizations, seed=4,
        )
        freqs = (np.arange(1, 10) + 0.37) / cfg.horizon  # all direct
        run_spectrum_config(cfg, freqs=freqs, workers=3)
        if n_realizations == 1:
            assert (processes, thread_pools) == ([], [3])
        else:
            assert (processes, thread_pools) == ([min(3, n_realizations)], [])


    def test_sampled_run_of_one_realization_runs_on_two_threads(self, thread_pools):
        cfg = SimConfig(
            rates=UniformRates(1e-2, 1e2), trapping=PoissonTrapping(1.0),
            horizon=100.0, n_carriers=20, sample_dt=1e-2, seed=4,
        )
        serial = run_spectrum_config(cfg, workers=1)
        assert thread_pools == []
        threaded = run_spectrum_config(cfg, workers=2)
        # one pool for each of the transform's four passes
        assert thread_pools == [2] * 4
        assert threaded.spectrum.values.tobytes() == serial.spectrum.values.tobytes()

    def test_sampled_run_counts_the_signal_before_its_transform(self):
        cfg = SimConfig(
            rates=UniformRates(1e-2, 1e2), trapping=PoissonTrapping(1.0),
            horizon=100.0, n_carriers=20, sample_dt=1e-2, seed=4,
        )
        paths = simulate_realization(cfg, 0)
        want = occupancy_counts(superpose([paths], cfg.amplitude, cfg.sample_dt))
        res = run_spectrum_config(cfg, workers=1)
        assert res.hist.tobytes() == want.tobytes()

    def test_pooled_sampled_run_starts_no_thread_pool(self, thread_pools):
        cfg = SimConfig(
            rates=UniformRates(1e-2, 1e2), trapping=PoissonTrapping(1.0),
            horizon=100.0, n_carriers=20, n_realizations=2, sample_dt=1e-2, seed=4,
        )
        serial = run_spectrum_config(cfg, workers=1)
        pooled = run_spectrum_config(cfg, workers=2)
        # the workers run the halves one after the other, with the same bytes
        assert thread_pools == []
        assert pooled.spectrum.values.tobytes() == serial.spectrum.values.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sampled_realization_holds_one_signal(self, workers):
        import tracemalloc

        import scipy.fft  # noqa: F401  (the transform imports it lazily)

        cfg = preset("fig6", scale=64).runs[0][1]  # 1000 carriers, L = 2^20
        signal_bytes = 8 * (1 << 20)
        tracemalloc.start()
        try:
            res = run_spectrum_config(cfg, workers=workers)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(res.spectrum.values) == 1 << 19
        # the signal, beside it a group of carrier paths while they are
        # added in, then small blocks of the transform in its memory
        assert peak <= 1.15 * signal_bytes

    def test_event_export_holds_one_realization(self, tmp_path):
        import tracemalloc

        def export_peak(n_realizations):
            cfg = SimConfig(
                rates=UniformRates(1.0, 10.0), trapping=PoissonTrapping(1.0),
                horizon=2e4, n_realizations=n_realizations, seed=4,
            )
            tracemalloc.start()
            try:
                runner._export_events(cfg, f"r{n_realizations}", tmp_path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert export_peak(6) <= 1.5 * export_peak(1)

    def test_sampled_event_export_streams_carrier_groups(self, tmp_path):
        import io

        from trapnoise.simulate import write_event_csv, write_signal_csv

        cfg = SimConfig(
            rates=UniformRates(1.0, 10.0), trapping=PoissonTrapping(1.0),
            horizon=20.0, n_carriers=1, n_realizations=2, sample_dt=0.05, seed=4,
        )
        size = len(_carrier_groups(cfg, range(_GROUP_CARRIERS))[0])
        cfg = dataclasses.replace(cfg, n_carriers=2 * size + 3)
        assert len(_carrier_groups(cfg, range(cfg.n_carriers))) == 3
        assert runner._export_events(cfg, "g", tmp_path) == [
            "g_events.csv", "g_signal.csv",
        ]
        # the bytes of whole realizations, written and superposed at once
        realized = [simulate_realization(cfg, r) for r in range(2)]
        events = io.StringIO()
        write_event_csv(events, realized)
        signal = io.StringIO()
        write_signal_csv(
            signal, superpose(realized[:1], cfg.amplitude, cfg.sample_dt), cfg.seed
        )
        assert (tmp_path / "g_events.csv").read_text() == events.getvalue()
        assert (tmp_path / "g_signal.csv").read_text() == signal.getvalue()

    def test_sampled_event_export_holds_one_group_beside_the_signal(self, tmp_path):
        import tracemalloc

        # a 100k-sample signal (0.8 MB) and about 1600 segments per path
        cfg = SimConfig(
            rates=UniformRates(1.0, 10.0), trapping=PoissonTrapping(1.0),
            horizon=1e3, n_carriers=1, sample_dt=1e-2, seed=4,
        )
        group = len(_carrier_groups(cfg, range(_GROUP_CARRIERS))[0])

        def export_peak(n_groups):
            config = dataclasses.replace(cfg, n_carriers=n_groups * group)
            assert len(_carrier_groups(config, range(config.n_carriers))) == n_groups
            tracemalloc.start()
            try:
                runner._export_events(config, f"g{n_groups}", tmp_path)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # eight groups of carriers peak about as high as one (the first
        # call's one-time allocations are left out)
        export_peak(1)
        one = export_peak(1)
        assert export_peak(8) <= 1.5 * one

    def test_sampled_run_with_event_export_holds_one_signal(self, tmp_path):
        import tracemalloc

        import scipy.fft  # noqa: F401  (the transform imports it lazily)
        import scipy.stats  # noqa: F401  (the pmf imports it lazily)

        spec = preset("fig6", scale=64)  # 1000 carriers, L = 2^20
        signal_bytes = 8 * (1 << 20)
        tracemalloc.start()
        try:
            run(spec, tmp_path, workers=1, events_csv=True)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the spectrum pass's signal is dropped before the export makes its
        # own, beside which only a group of carrier paths is alive
        assert peak <= 1.2 * signal_bytes

    def test_default_workers_count_the_cpus_this_process_may_use(self, monkeypatch):
        import os

        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {3, 7}, raising=False)
        assert runner._worker_count(None) == 2
        assert runner._worker_count(5) == 5

    def test_default_workers_without_an_affinity_mask(self, monkeypatch):
        import os

        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert runner._worker_count(None) == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)  # undeterminable
        assert runner._worker_count(None) == 1

    @pytest.mark.parametrize("workers", [2.0, 2.5, True])
    def test_workers_must_be_an_integer(self, monkeypatch, workers):
        # a float count used to fail inside the pool, or run at R = 1
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
        for n_realizations in (1, 2):
            cfg = SimConfig(
                rates=UniformRates(1e-2, 1e2), trapping=PoissonTrapping(1.0),
                horizon=1e2, n_realizations=n_realizations, seed=4,
            )
            with pytest.raises(ValueError, match="workers must be an integer"):
                run_spectrum_config(cfg, freqs=np.arange(1, 10) / 1e2, workers=workers)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(
        self, monkeypatch, thread_pools, tmp_path, workers
    ):
        def no_pool(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(runner, "ProcessPoolExecutor", no_pool)
        cfg = SimConfig(
            rates=UniformRates(1e-2, 1e2), trapping=PoissonTrapping(1.0),
            horizon=1e2, n_realizations=2, seed=4,
        )
        freqs = np.arange(1, 10) / cfg.horizon
        with pytest.raises(ValueError, match="workers"):
            run_spectrum_config(cfg, freqs=freqs, workers=workers)
        # fig2 never reaches run_spectrum_config; nothing is written
        with pytest.raises(ValueError, match="workers"):
            run(preset("fig2"), tmp_path / "out", workers=workers)
        assert not (tmp_path / "out").exists()
        assert thread_pools == []


class TestOnsetBins:
    """The plateau onset reads the 4-per-decade bins of only the points
    below the first bin edge above the window top."""

    @staticmethod
    def onset(est, window):
        try:
            return plateau_onset(est, window)
        except ValueError as exc:
            return str(exc)

    # 10 Hz is a grid point on a bin edge; 0.004 Hz lies below the grid
    # and 1e4 Hz above it
    @pytest.mark.parametrize("top", [10.0, 15.9, 10**1.25, 0.004, 1e4])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_same_onset_as_the_whole_grid_binning(self, top, seed):
        rng = np.random.default_rng(seed)
        freqs = np.arange(1, 20001) / 100.0
        # a flicker line that flattens below 1 Hz, with periodogram scatter
        values = rng.exponential(size=len(freqs)) / np.maximum(freqs, 1.0)
        est = SpectrumEstimate(freqs, values, 1, "sampled_fft")
        whole = logbin_spectrum(est, 4)
        try:
            head = runner._onset_bins(est, top)
        except ValueError:  # no point below the edge
            assert top < freqs[0]
        else:
            # the first bins of the whole binning, byte for byte, and
            # every bin at or below the top among them
            k = len(head.freqs)
            assert head.freqs.tobytes() == whole.freqs[:k].tobytes()
            assert head.values.tobytes() == whole.values[:k].tobytes()
            assert np.all(whole.freqs[k:] > top)
            window = (top / 300, top)
            # the same float, NaN, or error message
            assert repr(self.onset(head, window)) == repr(self.onset(whole, window))

    def test_analysis_of_a_sampled_estimate_bins_little(self):
        import tracemalloc

        spec = preset("fig6", scale=64)
        label, cfg = spec.runs[0]
        n = 1 << 20  # a 2^21-sample signal's grid up to 5000 Hz
        freqs = np.arange(1, n + 1) / (2 * n * cfg.sample_dt)
        est = SpectrumEstimate(freqs, 1.0 / freqs, 1, "sampled_fft")
        result = runner.RunResult(
            spectrum=est, nu_bar=1.0, mean_current=1.0, pulse_count=1, hist=None
        )
        runner._analyze_run(spec, label, cfg, result, None)  # lazy imports
        tracemalloc.start()
        try:
            info = runner._analyze_run(spec, label, cfg, result, None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "measured_onset" in info["cutoff"]
        # the points below 10^(5/4) Hz, not the largest bin of the grid
        # (36.75% of it)
        assert peak <= 0.01 * freqs.nbytes


def _amplitude_spec(gamma_min, gamma_max, n_carriers, horizon, sample_dt):
    return spec_from_dict({
        "name": "amp",
        "runs": [{
            "rates": {"kind": "uniform", "gamma_min": gamma_min,
                      "gamma_max": gamma_max},
            "trapping_rate": 1.0,
            "horizon": horizon,
            "n_carriers": n_carriers,
            "sample_dt": sample_dt,
            "seed": 123,
        }],
        "estimator": "sampled_fft",
        "analyses": ["amplitude_pmf"],
    })


def _strict_json(text: str):
    """``text`` parsed as RFC 8259 JSON, where NaN and Infinity are errors."""

    def reject(token):
        raise AssertionError(f"non-finite value {token} in the JSON")

    return json.loads(text, parse_constant=reject)


class TestStrictReports:
    def test_unmeasurable_onset_is_null_with_its_reason(self, tmp_path):
        # at scale 64 the flicker window lies below the grid
        artifacts = run(preset("fig6", scale=64.0), tmp_path, workers=1)
        report = _strict_json(Path(artifacts["report"]).read_text())
        _strict_json(Path(artifacts["meta"]).read_text())
        cutoff = report["runs"][0]["cutoff"]
        assert cutoff["measured_onset"] is None
        assert cutoff["onset_skipped"] == "empty fit window"

    def test_run_without_pulses_finishes_its_analyses(self, tmp_path, capsys):
        cfg_path = tmp_path / "zero.json"
        cfg_path.write_text(json.dumps({
            "name": "zero",
            "runs": [{
                "rates": {"kind": "uniform", "gamma_min": 0.0, "gamma_max": 1.0},
                "trapping_rate": 1.0, "horizon": 1.0, "seed": 4,
            }],
            "analyses": ["cutoff", "hooge"],
        }))
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg_path), "--out", str(out),
                     "--workers", "1"]) == 0
        capsys.readouterr()
        assert sorted(p.name for p in out.iterdir()) == [
            "zero_meta.json", "zero_plot.py", "zero_report.json",
            "zero_spectrum.csv",
        ]
        info = _strict_json((out / "zero_report.json").read_text())["runs"][0]
        assert info["pulse_count"] == 0
        # the flicker window is inverted (3.18 to 0.016 Hz), its top below the grid
        assert info["cutoff"]["measured_onset"] is None
        assert info["cutoff"]["onset_skipped"] == "inverted fit window"
        assert info["hooge"]["exact"] is None
        assert info["hooge"]["exact_skipped"] == "pulse rate must be positive"
        assert info["hooge"]["fit_skipped"] == "inverted fit window"
        f_lo, f_hi = info["hooge"]["fit_window"]
        assert f_lo > f_hi


class TestArtifactBookkeeping:
    def test_every_file_of_two_sampled_runs_is_listed(self, tmp_path, capsys):
        spec = _amplitude_spec(0.5, 5.0, 4, 100.0, 0.5)
        d = spec_to_dict(spec)
        d["name"] = "two"
        d["runs"] = [dict(d["runs"][0], label=label) for label in ("a", "b")]
        cfg_path = tmp_path / "spec.json"
        cfg_path.write_text(json.dumps(d))
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--workers", "1"]) == 0
        listed = dict(
            line.split(": ", 1) for line in capsys.readouterr().out.splitlines()
        )
        written = sorted(p.name for p in out.iterdir())
        assert written == sorted(
            f"two_{label}_{kind}.csv"
            for label in ("a", "b")
            for kind in ("spectrum", "amplitude_pmf", "events", "signal")
        ) + ["two_meta.json", "two_plot.py", "two_report.json"]
        # every file is in the listing; the pmf role names the last run's
        assert sorted({Path(path).name for path in listed.values()}) == written
        assert "two_a_amplitude_pmf.csv" in listed
        assert listed["amplitude_pmf"] == str(out / "two_b_amplitude_pmf.csv")
        meta = json.loads((out / "two_meta.json").read_text())
        assert sorted(meta["artifacts"]) == [
            name for name in written if name != "two_meta.json"
        ]


class TestAmplitudeStatistics:
    def test_ergodic_pmf_beside_the_analytic_binomial(self, tmp_path):
        spec = _amplitude_spec(0.5, 5.0, 20, 2e3, 0.5)
        _, cfg = spec.runs[0]
        run(spec, tmp_path, workers=1)
        amplitude = json.loads((tmp_path / "amp_report.json").read_text())[
            "runs"][0]["amplitude"]
        p_analytic = free_probability(cfg.rates, cfg.trapping)
        assert amplitude["p_analytic"] == p_analytic
        data = np.genfromtxt(tmp_path / "amp_amplitude_pmf.csv", delimiter=",",
                             names=True)
        assert len(data) == 21
        assert abs(data["pmf"].sum() - 1.0) < 1e-12
        model = binomial_pmf(20, p_analytic)
        assert abs(int(np.argmax(data["pmf"])) - int(np.argmax(model))) <= 2

    def test_nonergodic_run_has_no_analytic_p(self, tmp_path):
        run(_amplitude_spec(0.0, 1e2, 5, 200.0, 0.1), tmp_path, workers=1)
        amplitude = json.loads((tmp_path / "amp_report.json").read_text())[
            "runs"][0]["amplitude"]
        assert amplitude["p_analytic"] is None
        assert 0.0 <= amplitude["p_fit"] <= 1.0


class TestCli:
    def test_dump_preset_stdout(self, capsys):
        assert main(["dump-preset", "fig6"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["name"] == "fig6"
        assert payload["runs"][0]["sample_dt"] == 1e-4
        assert payload["runs"][0]["seed"] == DEFAULT_SEED

    def test_reproduce_and_rerun_from_dump(self, tmp_path, capsys):
        out = tmp_path / "arts"
        code = main([
            "reproduce", "fig3", "--scale", "1000", "--seed", "9",
            "--out", str(out), "--workers", "1",
        ])
        assert code == 0
        assert (out / "fig3_spectrum.csv").exists()
        capsys.readouterr()

        cfg_path = tmp_path / "spec.json"
        assert main([
            "dump-preset", "fig3", "--scale", "1000", "--seed", "9",
            "--out", str(cfg_path),
        ]) == 0
        out2 = tmp_path / "arts2"
        assert main([
            "analyze", "--config", str(cfg_path), "--out", str(out2),
            "--workers", "1",
        ]) == 0
        assert (out / "fig3_spectrum.csv").read_bytes() == (
            out2 / "fig3_spectrum.csv"
        ).read_bytes()

    def test_out_of_band_fit_is_reported_not_warned(self, tmp_path, capsys):
        # a single realization at this scale fits a slope of about -0.57
        out = tmp_path / "arts"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([
                "reproduce", "fig3", "--scale", "1000", "--seed", "9",
                "--out", str(out), "--workers", "1",
            ]) == 0
        capsys.readouterr()
        text = (out / "fig3_report.json").read_text()
        assert '"in_band": false' in text
        hooge = json.loads(text)["runs"][0]["hooge"]
        assert hooge["slope_deviation"] > 0.2

    def test_seed_option_overrides_config_seeds(self, tmp_path, capsys):
        out = tmp_path / "preset"
        assert main([
            "reproduce", "fig3", "--scale", "1000", "--seed", "9",
            "--out", str(out), "--workers", "1",
        ]) == 0
        cfg_path = tmp_path / "spec.json"
        assert main([
            "dump-preset", "fig3", "--scale", "1000", "--seed", "1",
            "--out", str(cfg_path),
        ]) == 0
        assert json.loads(cfg_path.read_text())["runs"][0]["seed"] == 1
        out2 = tmp_path / "config"
        assert main([
            "analyze", "--config", str(cfg_path), "--seed", "9",
            "--out", str(out2), "--workers", "1",
        ]) == 0
        capsys.readouterr()
        assert (out / "fig3_spectrum.csv").read_bytes() == (
            out2 / "fig3_spectrum.csv"
        ).read_bytes()

    def test_simulate_writes_events_and_signal(self, tmp_path):
        cfg_path = tmp_path / "spec.json"
        spec_dict = {
            "name": "mini",
            "runs": [{
                "label": "",
                "rates": {"kind": "uniform", "gamma_min": 0.1, "gamma_max": 10.0},
                "trapping_rate": 1.0,
                "horizon": 50.0,
                "amplitude": 1.0,
                "n_carriers": 2,
                "n_realizations": 2,
                "sample_dt": 0.05,
                "seed": 4,
            }],
            "estimator": "sampled_fft",
            "analyses": [],
        }
        cfg_path.write_text(json.dumps(spec_dict))
        out = tmp_path / "sim"
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out),
                     "--workers", "1"]) == 0
        events = (out / "mini_events.csv").read_text().splitlines()
        assert events[0] == "realization,carrier,kind,duration"
        assert len(events) > 10
        signal = (out / "mini_signal.csv").read_text().splitlines()
        assert signal[0] == "dt,n_carriers,amplitude,horizon,seed"

    def test_spectrum_subcommand_skips_analyses(self, tmp_path):
        cfg_path = tmp_path / "spec.json"
        spec = preset("fig3", scale=1000.0, seed=3)
        cfg_path.write_text(json.dumps(spec_to_dict(spec)))
        out = tmp_path / "spe"
        assert main(["spectrum", "--config", str(cfg_path), "--out", str(out),
                     "--workers", "1"]) == 0
        report = json.loads((out / "fig3_report.json").read_text())
        assert "hooge" not in report["runs"][0]

    def test_negative_seed_rejected_before_anything_is_written(self, tmp_path, capsys):
        out = tmp_path / "arts"
        assert main(["reproduce", "fig4", "--seed", "-1", "--out", str(out)]) == 1
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_config_path_fails_cleanly(self, capsys):
        assert main(["analyze", "--config", "/nonexistent.json"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_figure_rejected_by_argparse(self):
        with pytest.raises(SystemExit) as info:
            main(["reproduce", "fig9"])
        assert info.value.code == 2
