#!/usr/bin/env python3
"""Self-test of the benchmark; exits non-zero on the first failed check.

    python3 bench/selftest.py

* runs every workload at its tiny size, untraced once and traced twice,
  and checks that the result line names every metric of
  ``BENCHMARK.json`` with its unit, that nothing failed, that traced self
  times add up to the traced wall time and that counts repeat exactly;
* checks that each workload's written spectrum passes the reference check
  and fails it once one point is changed by 1%;
* checks that the benchmark fails without printing a result in a
  directory holding only ``BENCHMARK.json`` and ``bench/``.
"""
from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys

import bootstrap

bootstrap.import_program()

from trapnoise.runner import run  # noqa: E402

import checks  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

CONFIG = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


def expect(condition, message):
    if not condition:
        print(f"FAIL: {message}")
        sys.exit(1)


def bench(cwd, workload, trace):
    cmd = CONFIG["command"] + ["--workload", workload, "--seed", str(DEFAULT_SEED),
                               "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=180)


def result_of(workload, trace) -> dict:
    proc = bench(bootstrap.ROOT, workload, trace)
    expect(proc.returncode == 0, f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    expect(set(result) == {"correct", "attempted", "failed", "metrics"},
           f"{workload}: result keys {sorted(result)}")
    expect(result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
           f"{workload} trace={trace}: {result['failed']} of {result['attempted']} runs failed")
    declared = CONFIG["per_layer" if trace else "end_to_end"]
    expect(set(result["metrics"]) == {m["name"] for m in declared},
           f"{workload} trace={trace}: metrics {sorted(result['metrics'])}")
    for m in declared:
        got = result["metrics"][m["name"]]
        expect(got["unit"] == m["unit"], f"{m['name']}: unit {got['unit']}, declared {m['unit']}")
        expect(isinstance(got["value"], (int, float)) and math.isfinite(got["value"]),
               f"{m['name']}: value {got['value']!r}")
        expect(not trace or got["value"] >= 0, f"{m['name']}: negative value {got['value']}")
        expect(trace or got["value"] > 0, f"{m['name']}: end-to-end value is 0")
        expect(any(line.startswith(f"{m['name']}: ") and line.endswith(f" {m['unit']}")
                   for line in lines[:-1]), f"{m['name']} not printed with its unit")
    return result["metrics"]


def check_workload(name):
    end_to_end = result_of(name, 0)
    traced = [result_of(name, 1) for _ in range(2)]
    for metrics in traced:
        values = {k: v["value"] for k, v in metrics.items()}
        layers = sum(v["value"] for k, v in metrics.items()
                     if v["unit"] == "s" and k not in ("trace.wall_s", "runner.serial_wall_s"))
        expect(math.isclose(layers, values["trace.wall_s"], rel_tol=1e-9),
               f"{name}: self times add to {layers}, traced wall {values['trace.wall_s']}")
    for key, value in traced[0].items():
        if value["unit"] == "count":
            expect(value["value"] == traced[1][key]["value"], f"{name}: {key} differs between runs")
    print(f"ok   {name}: wall {end_to_end['wall_s']['value']:.3f} s, "
          f"{traced[0]['simulate.pulses']['value']} pulses traced")


def check_perturbation(name):
    workload = WORKLOADS[name]
    spec = workload.build(workload.tiny_size, DEFAULT_SEED)
    outdir = bootstrap.OUT_ROOT / "selftest"
    try:
        run(spec, outdir, workers=1, events_csv=workload.events_csv)
        spectra = checks.read_spectra(spec, outdir)
    finally:
        shutil.rmtree(outdir, ignore_errors=True)
    reference = checks.load_reference(checks.reference_path(workload, tiny=True))
    err = checks.reference_error(spectra, reference)
    expect(err <= workload.ref_tol, f"{name}: unperturbed spectrum off by {err}")
    label, idx = next(iter(checks.match_reference(spectra, reference).items()))
    spectra[label][1][idx[len(idx) // 2]] *= 1.01
    perturbed = checks.reference_error(spectra, reference)
    expect(perturbed > workload.ref_tol, f"{name}: 1% change passes ({perturbed:.3g})")
    print(f"ok   {name}: reference error {err:.3g}, {perturbed:.3g} after a 1% change")


def check_bare_directory():
    bare = bootstrap.OUT_ROOT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(bootstrap.ROOT / "BENCHMARK.json", bare)
        for path in CONFIG["paths"]:
            shutil.copytree(bootstrap.ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(bare, next(iter(WORKLOADS)), 0)
    finally:
        shutil.rmtree(bootstrap.OUT_ROOT, ignore_errors=True)
    expect(proc.returncode != 0, "bare directory: exit code 0")
    expect('"correct"' not in proc.stdout, "bare directory: printed a result")
    print(f"ok   bare directory: exit {proc.returncode}, no result")


def main() -> int:
    for name in WORKLOADS:
        check_perturbation(name)
        check_workload(name)
    check_bare_directory()
    print("self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
