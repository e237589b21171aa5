"""Per-layer tracing of one ``runner.run`` call, from outside the package.

``Tracer.patch()`` replaces each layer's public function at the place the
runner looks it up (``runner`` binds most names at import), records one
span per call and takes the work counts from arguments and return values.
Spans stay in memory; ``layer_metrics`` turns them into self times.  Only
meaningful at ``workers=1``, where every call happens in this process.

The event export (``runner._export_events``) simulates every realization
a second time.  That pass is one span of its own, ``simulate.export_s``:
inside it only ``write_event_csv`` is traced, so the ``simulate.*`` and
``distributions.*`` times and counts cover the spectrum pass alone.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import Counter

import numpy as np

from trapnoise import analysis, runner, simulate

# Analysis functions runner._analyze_run calls through ``runner._analysis``.
_ANALYSIS_CALLS = (
    "effective_cutoff",
    "cutoff_by_regime",
    "plateau_onset",
    "hooge_alpha_predicted",
    "hooge_alpha_exact",
    "hooge_alpha_fitted",
)

# span name -> per-layer metric holding its self time
LAYER_TIMES = {
    "sample_rate": "distributions.sample_rate_s",
    "carrier": "simulate.carrier_s",
    "pulse_bounds": "simulate.pulse_bounds_s",
    "superpose": "simulate.superpose_s",
    "write_events": "simulate.write_events_s",
    "export": "simulate.export_s",
    "event_exact": "spectra.event_exact_s",
    "fft": "spectra.fft_s",
    "logbin": "spectra.logbin_s",
    "average": "spectra.average_s",
    "write_csv": "spectra.write_csv_s",
    "analysis": "analysis.s",
}
COUNTS = (
    "distributions.rates_drawn",
    "simulate.pulses",
    "simulate.gaps",
    "simulate.samples",
    "simulate.segments_written",
    "spectra.pairs",
    "spectra.freqs",
    "spectra.fft_len",
    "runner.tasks",
)


def _pulses(paths) -> int:
    return sum(p.pulse_count for p in paths)


def _count_carrier(counts, args, out):
    counts["simulate.pulses"] += _pulses(out)
    # paths start trapped, so segments alternate gap, pulse, gap, ...
    counts["simulate.gaps"] += sum((len(p.durations) + 1) // 2 for p in out)


def _count_event_exact(counts, args, out):
    counts["spectra.pairs"] += 2 * _pulses(args[0]) * len(out.freqs)
    counts["spectra.freqs"] = max(counts["spectra.freqs"], len(out.freqs))


def _count_write_events(counts, args, out):
    counts["simulate.segments_written"] += sum(
        len(p.durations) for paths in args[1] for p in paths
    )


class Tracer:
    """Spans as [name, start, end, parent index] plus work counters."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list = []
        self._in_export = False

    def _wrap(self, name, fn, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self._in_export and name != "write_events":
                return fn(*args, **kwargs)
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            if name == "export":
                self._in_export = True
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
                if name == "export":
                    self._in_export = False
            if count is not None:
                count(self.counts, args, out)
            return out

        return traced

    def _tally(self, key, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def patch(self):
        """Install the wrappers for the duration of the block."""
        targets = [
            (runner, "simulate_realization", self._wrap("carrier", runner.simulate_realization, _count_carrier)),
            (runner, "superpose", self._wrap(
                "superpose", runner.superpose,
                lambda c, a, out: c.update({"simulate.samples": len(out.values)}))),
            (runner, "periodogram_superposed_events", self._wrap(
                "event_exact", runner.periodogram_superposed_events, _count_event_exact)),
            (runner, "periodogram_fft", self._wrap(
                "fft", runner.periodogram_fft,
                lambda c, a, out: c.update({"spectra.fft_len": len(a[0].values)}))),
            (runner, "average_spectra", self._wrap("average", runner.average_spectra)),
            (runner, "logbin_spectrum", self._wrap("logbin", runner.logbin_spectrum)),
            (runner, "write_spectrum_csv", self._wrap("write_csv", runner.write_spectrum_csv)),
            (runner, "_export_events", self._wrap("export", runner._export_events)),
            (runner, "_one_realization", self._tally("runner.tasks", runner._one_realization)),
            (simulate, "sample_rate", self._wrap(
                "sample_rate", simulate.sample_rate,
                lambda c, a, out: c.update({"distributions.rates_drawn": np.size(out)}))),
            (simulate, "write_event_csv", self._wrap(
                "write_events", simulate.write_event_csv, _count_write_events)),
            (simulate.CarrierPath, "pulse_bounds", self._wrap(
                "pulse_bounds", simulate.CarrierPath.pulse_bounds)),
        ]
        targets += [
            (analysis, name, self._wrap("analysis", getattr(analysis, name)))
            for name in _ANALYSIS_CALLS
        ]
        saved = [(owner, name, owner.__dict__[name]) for owner, name, _ in targets]
        try:
            for owner, name, wrapper in targets:
                setattr(owner, name, wrapper)
            yield self
        finally:
            for owner, name, original in saved:
                setattr(owner, name, original)

    def self_times(self) -> dict:
        """Span name -> summed self time (duration minus direct children)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict = {}
        for i, (name, start, end, _) in enumerate(self.spans):
            out[name] = out.get(name, 0.0) + (end - start) - child[i]
        return out

    def top_level_time(self) -> float:
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)


def layer_metrics(tracer: Tracer, wall: float) -> dict:
    """Per-layer self times and counts of one traced ``run`` of ``wall`` s.

    ``runner.self_s`` is the wall time no span covers (pool set-up,
    dispatch, histograms, report, meta and plot writes), so the self
    times of all layers plus ``runner.self_s`` add up to ``wall``.
    """
    selfs = tracer.self_times()
    out = {metric: selfs.get(name, 0.0) for name, metric in LAYER_TIMES.items()}
    out.update({key: tracer.counts[key] for key in COUNTS})
    out["runner.self_s"] = wall - tracer.top_level_time()
    pairs = out["spectra.pairs"]
    out["spectra.ns_per_pair"] = 1e9 * out["spectra.event_exact_s"] / pairs if pairs else 0.0
    drawn = out["distributions.rates_drawn"]
    out["distributions.draws_kept"] = out["simulate.gaps"] / drawn if drawn else 0.0
    return out
