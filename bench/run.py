#!/usr/bin/env python3
"""The trapnoise benchmark: whole experiment runs, spec to artifact set.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every run goes through the public ``trapnoise.runner.run`` with
``workers = nproc`` (``--trace 1`` adds ``workers=1`` runs) and has its
outputs checked.  ``--trace 0`` reports the end-to-end metrics:

* ``wall_s``         median wall time of one ``run()`` after a warm-up run,
                     in reference seconds (see below)
* ``pulses_per_s``   pulses simulated per run (all realizations and
                     carriers) divided by ``wall_s``
* ``setup_s``        median over fresh interpreters, timed between the
                     timed runs, of importing trapnoise and ``scipy.stats``
                     and building the spec, in reference seconds
* ``peak_rss_mb``    peak RSS of a fresh process that runs the workload
                     once plus that of its largest worker
* ``spectrum_rel_err``  largest relative difference between the spectrum
                     written at the default seed and the float64
                     reference in ``bench/reference`` (for the sampled
                     FFT, the continuous-time spectrum at its lowest bins)

A shared machine drifts in speed by up to ~1.4x over minutes, which no
median over one run removes.  So every timed run and every set-up is
bracketed by a fixed calibration kernel (``Calibration``, pure numpy and
Python, no trapnoise code), and ``wall_s`` and ``setup_s`` are medians of
``raw time * CALIBRATION_REF_S / kernel time``, the kernel time being the
mean of the two kernels around the sample: seconds on a machine on which
the kernel takes ``CALIBRATION_REF_S``.  The raw samples and kernel times
are printed too, and provenance records the median kernel time.

``--trace 1`` reports per-layer self times and work counts of a traced
``workers=1`` run (see ``tracer.py``), the tracing overhead against an
untraced ``workers=1`` run, and the parallel efficiency.

Human-readable lines come first; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A run that raises or fails a check counts as failed.  ``--tiny`` runs the
self-test sizes.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import bootstrap

# Fresh interpreters timed per run.  They are spread evenly over the timed
# window, between timed runs, so that one slow spell of a shared machine
# does not set the median of either.
SETUP_REPEATS = 6
MIN_TIMED_RUNS = 3
# Time of the calibration kernel on a typical minute of a 2-core 2.1 GHz
# x86_64 VM; normalized times are in seconds of that machine.
CALIBRATION_REF_S = 0.075

END_TO_END_UNITS = {
    "wall_s": "s",
    "pulses_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "spectrum_rel_err": "ratio",
}


def per_layer_units() -> dict:
    from tracer import COUNTS, LAYER_TIMES

    units = {metric: "s" for metric in LAYER_TIMES.values()}
    units.update({key: "count" for key in COUNTS})
    units.update({
        "runner.self_s": "s",
        "spectra.ns_per_pair": "ns",
        "distributions.draws_kept": "ratio",
        "runner.artifact_bytes": "B",
        "runner.serial_wall_s": "s",
        "runner.parallel_efficiency": "ratio",
        "trace.wall_s": "s",
        "trace.overhead": "ratio",
    })
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--child", choices=("setup", "rss"), help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Calibration:
    """A fixed kernel whose time tracks the machine's current speed.

    A mix of what the workloads spend their time on: an FFT, a sort,
    float32 trigonometry and an interpreted loop, about 0.075 s in all.
    """

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._signal = rng.random(1 << 21)
        self._keys = rng.random(1 << 19)
        self._phases = rng.random(1 << 20).astype(np.float32)
        self.times: list = []
        self.measure()  # warm-up: FFT plan and first touches
        self.times.clear()

    def measure(self) -> float:
        np = self._np
        start = time.perf_counter()
        np.fft.rfft(self._signal)
        np.sort(self._keys)
        np.cos(self._phases).sum()
        np.sin(3 * self._phases).sum()
        acc = 0.0
        for i in range(150_000):
            acc += i * 0.5
        elapsed = time.perf_counter() - start
        self.times.append(elapsed)
        return elapsed


def normalized(samples) -> float:
    """Median of raw times in reference seconds; ``samples`` holds
    (raw, kernel before, kernel after) triples."""
    return statistics.median(
        raw * CALIBRATION_REF_S / ((before + after) / 2) for raw, before, after in samples
    )


@dataclass
class RunOutcome:
    wall: float
    pulses: int
    artifact_bytes: int


class Bench:
    """Runs one workload's spec, checks each run, counts attempts."""

    def __init__(self, workload, outdir: Path):
        self.workload = workload
        self.outdir = outdir
        self.attempted = 0
        self.failed = 0
        self._digests: dict = {}
        # median calibration kernel time of the timed window, if any
        self.calibration_s = None

    def fail(self, problems) -> None:
        self.failed += 1
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)

    def attempt(self, spec, workers: int, tracer=None):
        """One checked ``run()``; returns a RunOutcome, or None if it failed."""
        import checks
        from trapnoise.runner import run

        self.attempted += 1
        shutil.rmtree(self.outdir, ignore_errors=True)
        try:
            with tracer.patch() if tracer else contextlib.nullcontext():
                start = time.perf_counter()
                artifacts = run(spec, self.outdir, workers=workers,
                                events_csv=self.workload.events_csv)
                wall = time.perf_counter() - start
            problems = checks.check_run(self.workload, spec, self.outdir, artifacts)
            problems += self._check_repeatable(spec)
            with open(artifacts["report"]) as fh:
                pulses = sum(r["pulse_count"] for r in json.load(fh)["runs"])
        except Exception:  # a run that raises counts as failed; keep measuring
            traceback.print_exc(file=sys.stderr)
            problems = ["run raised"]
        if problems:
            self.fail(problems)
            return None
        size = sum(p.stat().st_size for p in self.outdir.iterdir())
        return RunOutcome(wall, pulses, size)

    def _check_repeatable(self, spec) -> list:
        """Artifacts other than meta.json are identical for one spec,
        whatever the worker count."""
        digest = hashlib.sha256()
        for path in sorted(self.outdir.iterdir()):
            if not path.name.endswith("_meta.json"):
                digest.update(path.name.encode())
                digest.update(path.read_bytes())
        key = repr(spec)
        first = self._digests.setdefault(key, digest.hexdigest())
        return [] if first == digest.hexdigest() else ["artifacts differ between runs of one spec"]


def reference_check(bench: Bench, spec, tiny: bool):
    """Run the default-seed spec and compare it with the stored reference.

    Doubles as the warm-up run.  Returns the largest relative error, or
    None if the run or the comparison failed.
    """
    import checks

    if bench.attempt(spec, nproc()) is None:
        return None
    try:
        reference = checks.load_reference(checks.reference_path(bench.workload, tiny))
        err = checks.reference_error(checks.read_spectra(spec, bench.outdir), reference)
    except (OSError, checks.CheckFailed) as exc:
        bench.fail([f"reference: {exc}"])
        return None
    if not err <= bench.workload.ref_tol:
        bench.fail([f"spectrum differs from the float64 reference by {err:.3g} "
                    f"(tolerance {bench.workload.ref_tol})"])
    return err


def child_command(args, role: str) -> list:
    cmd = [sys.executable, str(Path(__file__).resolve()), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed)]
    return cmd + (["--tiny"] if args.tiny else [])


def measure_setup(args) -> float:
    """Wall time of a fresh interpreter that only imports and builds the spec."""
    start = time.perf_counter()
    subprocess.run(child_command(args, "setup"), cwd=bootstrap.ROOT, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - start


def measure_rss(args, bench: Bench) -> float:
    """Peak RSS in MB of a fresh process running the workload once."""
    bench.attempted += 1
    proc = subprocess.run(child_command(args, "rss"), cwd=bootstrap.ROOT, check=True,
                          stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if result["problems"]:
        bench.fail(result["problems"])
    return (result["self_kb"] + result["children_kb"]) / 1024.0


def git_commit():
    """(commit, dirty) of the checkout, or (None, None) outside a git tree."""
    # Never look past the checkout for a repository that merely contains it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(bootstrap.ROOT.parent))

    def git(*args):
        return subprocess.run(["git", "--no-optional-locks", *args], cwd=bootstrap.ROOT,
                              env=env, capture_output=True, text=True, check=True).stdout

    try:
        return git("rev-parse", "HEAD").strip(), bool(git("status", "--porcelain").strip())
    except (OSError, subprocess.CalledProcessError):
        return None, None


def provenance(args, workload, size, calibration_s) -> dict:
    import numpy
    import scipy

    commit, dirty = git_commit()
    return {
        "workload": workload.name,
        "seed": args.seed,
        workload.size_name: size,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "git_commit": commit,
        "git_dirty": dirty,
        "calibration_s": calibration_s,
        "calibration_ref_s": CALIBRATION_REF_S,
    }


def end_to_end(args, bench, spec, ref_spec) -> dict:
    peak_rss = measure_rss(args, bench)
    rel_err = reference_check(bench, ref_spec, args.tiny)
    clock = Calibration()
    walls, setup, pulses = [], [], None
    start = time.perf_counter()
    deadline = start + args.seconds
    setup_due = [start + (i + 0.5) * args.seconds / SETUP_REPEATS for i in range(SETUP_REPEATS)]
    attempts = 0
    before = clock.measure()

    def add_setup():
        nonlocal before
        raw = measure_setup(args)
        after = clock.measure()
        setup.append((raw, before, after))
        before = after

    while time.perf_counter() < deadline or (
        len(walls) < MIN_TIMED_RUNS and attempts < 2 * MIN_TIMED_RUNS
    ):
        attempts += 1
        outcome = bench.attempt(spec, nproc())
        after = clock.measure()
        if outcome is not None:
            walls.append((outcome.wall, before, after))
            pulses = outcome.pulses
        before = after
        if len(setup) < SETUP_REPEATS and time.perf_counter() >= setup_due[len(setup)]:
            add_setup()
    while len(setup) < SETUP_REPEATS:
        add_setup()
    if not walls or rel_err is None:
        return {}
    wall = normalized(walls)
    print(f"wall_s raw samples ({len(walls)}): " + " ".join(f"{w[0]:.4f}" for w in walls))
    print(f"setup_s raw samples ({len(setup)}): " + " ".join(f"{s[0]:.4f}" for s in setup))
    print(f"calibration kernel ({len(clock.times)}): median {statistics.median(clock.times):.4f} s, "
          f"range {min(clock.times):.4f}-{max(clock.times):.4f} s")
    bench.calibration_s = statistics.median(clock.times)
    return {
        "wall_s": wall,
        "pulses_per_s": pulses / wall,
        "setup_s": normalized(setup),
        "peak_rss_mb": peak_rss,
        "spectrum_rel_err": rel_err,
    }


def per_layer(args, bench, spec, ref_spec) -> dict:
    """Traced and untraced ``workers=1`` runs plus a ``workers=nproc`` run,
    in cycles until ``--seconds`` have passed.

    Layer times and counts come from the cycle with the median traced
    wall time, so they add up to its ``trace.wall_s`` exactly; the
    overhead and the parallel efficiency are medians over the cycles.
    The two ``workers=1`` runs swap order every cycle.
    """
    from tracer import Tracer, layer_metrics

    if reference_check(bench, ref_spec, args.tiny) is None:
        return {}
    cycles = []
    deadline = time.perf_counter() + args.seconds
    while not cycles or time.perf_counter() < deadline:
        tracer = Tracer()
        if len(cycles) % 2:
            traced = bench.attempt(spec, 1, tracer=tracer)
            serial = bench.attempt(spec, 1)
        else:
            serial = bench.attempt(spec, 1)
            traced = bench.attempt(spec, 1, tracer=tracer)
        parallel = bench.attempt(spec, nproc())
        if None in (serial, traced, parallel):
            if not cycles and bench.attempted >= 7:
                break
            continue
        metrics = layer_metrics(tracer, traced.wall)
        metrics.update({
            "runner.artifact_bytes": traced.artifact_bytes,
            "trace.wall_s": traced.wall,
            "runner.serial_wall_s": serial.wall,
            "runner.parallel_efficiency": serial.wall / (nproc() * parallel.wall),
            "trace.overhead": traced.wall / serial.wall,
        })
        cycles.append(metrics)
    if not cycles:
        return {}
    print(f"per-layer cycles: {len(cycles)}")
    median_cycle = sorted(cycles, key=lambda c: c["trace.wall_s"])[(len(cycles) - 1) // 2]
    out = dict(median_cycle)
    for key in ("runner.serial_wall_s", "runner.parallel_efficiency", "trace.overhead"):
        out[key] = statistics.median(c[key] for c in cycles)
    return out


def run_child(args, workload, spec) -> int:
    if args.child == "setup":
        return 0
    import checks
    from trapnoise.runner import run

    outdir = bootstrap.OUT_ROOT / f"{workload.name}-{os.getpid()}"
    peak_kb = {"self_kb": 0, "children_kb": 0}
    try:
        artifacts = run(spec, outdir, workers=nproc(), events_csv=workload.events_csv)
        # Read the peaks before the checks, which load whole artifacts.
        peak_kb = {
            "self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "children_kb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
        }
        problems = checks.check_run(workload, spec, outdir, artifacts)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        problems = ["run raised"]
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    print(json.dumps({**peak_kb, "problems": problems}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    bootstrap.import_program()
    import scipy.stats  # noqa: F401  (runner imports it lazily; count it in set-up)

    from workloads import DEFAULT_SEED, WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    size = workload.tiny_size if args.tiny else workload.size
    spec = workload.build(size, args.seed)
    if args.child:
        return run_child(args, workload, spec)

    ref_spec = workload.build(size, DEFAULT_SEED)
    bootstrap.OUT_ROOT.mkdir(exist_ok=True)
    bench = Bench(workload, bootstrap.OUT_ROOT / f"{workload.name}-{os.getpid()}")
    try:
        measure = per_layer if args.trace else end_to_end
        metrics = measure(args, bench, spec, ref_spec)
    finally:
        shutil.rmtree(bench.outdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            bootstrap.OUT_ROOT.rmdir()
    if not metrics:
        print(f"benchmark: {workload.name} gave no measurement", file=sys.stderr)
        return 1

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    print("provenance: " + json.dumps(provenance(args, workload, size, bench.calibration_s)))
    for name, value in metrics.items():
        print(f"{name}: {value:.6g} {units[name]}")
    print(f"runs: {bench.attempted} attempted, {bench.failed} failed")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
