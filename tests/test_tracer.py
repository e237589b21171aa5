"""The benchmark's tracer still finds every call it patches.

``bench/tracer.py`` wraps runner and simulate functions by name, so a
renamed or bypassed call would leave its counts at zero.  The tracer is
loaded from its file as it stands and run on two small presets.
"""
import importlib.util
import time
from pathlib import Path

import pytest

from trapnoise.presets import preset
from trapnoise.runner import run

_TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer_module():
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    "figure, scale, events_csv, want",
    [
        ("fig4", 1000, True, {
            "simulate.pulses": 1055,
            "simulate.segments_written": 2110,
            "spectra.freqs": 217,
            "runner.tasks": 2,
        }),
        ("fig6", 1024, False, {
            # counted on the carrier groups the runner streams into superpose
            "simulate.pulses": 7470,
            "distributions.rates_drawn": 16048,
            "simulate.gaps": 7482,
            "simulate.samples": 65536,
            "spectra.fft_len": 65536,
            "runner.tasks": 1,
        }),
    ],
    ids=["fig4-events", "fig6"],
)
def test_traced_counts(tracer_module, tmp_path, figure, scale, events_csv, want):
    tracer = tracer_module.Tracer()
    start = time.perf_counter()
    with tracer.patch():
        run(preset(figure, scale=scale), tmp_path, workers=1, events_csv=events_csv)
    metrics = tracer_module.layer_metrics(tracer, time.perf_counter() - start)
    assert {key: metrics[key] for key in want} == want
