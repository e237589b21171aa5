"""Presets, runner artifacts, CLI subcommands, determinism."""
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
from trapnoise.cli import main
from trapnoise.distributions import free_probability
from trapnoise.presets import FIG2_COMPONENT_RATES, DEFAULT_SEED
from trapnoise import runner
from trapnoise.runner import run, run_spectrum_config
from trapnoise.simulate import (
    binomial_pmf, occupancy_counts, simulate_realization, superpose,
)


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
        ],
        ids=["estimator", "analysis", "spec-key", "run-key", "rates-key"],
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
        ],
        ids=["duplicate-label", "pmf-event-exact", "fft-no-dt", "points-zero",
             "bins-zero", "f_min-zero", "f_max-negative", "f_min-above-f_max",
             "scale-zero", "scale-negative", "fft-f_min", "fft-f_max"],
    )
    def test_unrunnable_spec_rejected(self, figure, edit, field):
        d = spec_to_dict(preset(figure, scale=1000.0))
        edit(d)
        with pytest.raises(ValueError, match=field):
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
                ratios.append(cutoff["measured_onset"] / floor_f)
        ratios = np.asarray(ratios)
        assert np.isfinite(ratios).sum() >= 12
        geo = np.exp(np.nanmean(np.log(ratios)))
        assert 1.0 / 3.0 < geo < 3.0

    def test_unknown_estimator_rejected(self):
        cfg = SimConfig(
            rates=UniformRates(1e-2, 10.0), trapping=PoissonTrapping(1.0),
            horizon=100.0,
        )
        with pytest.raises(ValueError, match="estimator"):
            run_spectrum_config(cfg, estimator="bogus", workers=1)

    def test_event_exact_needs_freqs(self):
        cfg = SimConfig(
            rates=UniformRates(1e-2, 10.0), trapping=PoissonTrapping(1.0),
            horizon=100.0,
        )
        with pytest.raises(ValueError, match="freqs"):
            run_spectrum_config(cfg, workers=1)

    def test_sampled_fft_rejects_freqs(self):
        # the FFT grid is k/(L dt), so a grid passed in would be ignored
        cfg = SimConfig(
            rates=UniformRates(1e-2, 10.0), trapping=PoissonTrapping(1.0),
            horizon=100.0, sample_dt=1e-2,
        )
        with pytest.raises(ValueError, match="freqs"):
            run_spectrum_config(
                cfg, estimator="sampled_fft", freqs=np.array([0.1]), workers=1
            )

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
        serial = run_spectrum_config(cfg, estimator="sampled_fft", workers=1)
        assert thread_pools == []
        threaded = run_spectrum_config(cfg, estimator="sampled_fft", workers=2)
        assert thread_pools == [2]
        assert threaded.spectrum.values.tobytes() == serial.spectrum.values.tobytes()

    def test_sampled_run_counts_the_signal_before_its_transform(self):
        cfg = SimConfig(
            rates=UniformRates(1e-2, 1e2), trapping=PoissonTrapping(1.0),
            horizon=100.0, n_carriers=20, sample_dt=1e-2, seed=4,
        )
        paths = simulate_realization(cfg, 0)
        want = occupancy_counts(superpose(paths, cfg.amplitude, cfg.sample_dt))
        res = run_spectrum_config(cfg, estimator="sampled_fft", workers=1)
        assert res.hist.tobytes() == want.tobytes()

    def test_pooled_sampled_run_starts_no_thread_pool(self, thread_pools):
        cfg = SimConfig(
            rates=UniformRates(1e-2, 1e2), trapping=PoissonTrapping(1.0),
            horizon=100.0, n_carriers=20, n_realizations=2, sample_dt=1e-2, seed=4,
        )
        serial = run_spectrum_config(cfg, estimator="sampled_fft", workers=1)
        pooled = run_spectrum_config(cfg, estimator="sampled_fft", workers=2)
        # the workers run the halves one after the other, with the same bytes
        assert thread_pools == []
        assert pooled.spectrum.values.tobytes() == serial.spectrum.values.tobytes()

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
