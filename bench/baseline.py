#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize the spread.

    python3 bench/baseline.py [--first-seed 1] [--out bench/baseline.json]

For every workload of ``BENCHMARK.json`` this runs ``bench/run.py`` once
per seed, on ten seeds from ``--first-seed``, with tracing off, and on the
first two of them with tracing on, at the ``run_seconds`` of
``BENCHMARK.json``.  It prints, per end-to-end metric,
the median, the quartiles and the quartile spread as a share of the
median next to the metric's bound, and writes the medians, the spreads,
the per-layer medians and each layer's share of the traced wall time to
``--out``.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SEEDS = 10
TRACED_SEEDS = 2


def run_once(config, workload, seed, trace) -> dict:
    cmd = config["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(config["run_seconds"]), "--trace", str(trace),
    ]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    provenance = next(
        (json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("provenance: ")),
        None,
    )
    return {"returncode": proc.returncode, "elapsed_s": elapsed, "result": result,
            "provenance": provenance}


def spread(values) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--out", default=None, help="write the summary JSON here")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    seeds = range(args.first_seed, args.first_seed + SEEDS)
    summary: dict = {"run_seconds": config["run_seconds"], "seeds": list(seeds), "workloads": {}}
    ok = True
    for name in (w["name"] for w in config["workloads"]):
        runs = [run_once(config, name, seed, 0) for seed in seeds]
        traced = [run_once(config, name, seed, 1) for seed in seeds[:TRACED_SEEDS]]
        failed = [r for r in runs + traced if r["result"] is None or not r["result"]["correct"]]
        ok &= not failed
        good = [r["result"]["metrics"] for r in runs if r["result"]]
        entry = {
            "failed_invocations": len(failed),
            "elapsed_s": [round(r["elapsed_s"], 2) for r in runs + traced],
            "provenance": runs[0]["provenance"],
            "end_to_end": {},
        }
        print(f"{name}: {len(runs) + len(traced)} invocations, {len(failed)} failed, "
              f"longest {max(entry['elapsed_s']):.1f} s")
        for metric, bound in bounds.items():
            if len(good) < 2:
                break
            stats = spread([m[metric]["value"] for m in good])
            stats["unit"] = good[0][metric]["unit"]
            entry["end_to_end"][metric] = stats
            flag = "" if stats["spread"] <= bound / 3 else "  <-- above bound/3"
            print(f"  {metric:18s} median {stats['median']:.6g} {stats['unit']:6s} "
                  f"spread {stats['spread']:.4f} (bound {bound}){flag}")
            print("    values " + " ".join(f"{v:.4g}" for v in stats["values"]))
        layers = [r["result"]["metrics"] for r in traced if r["result"]]
        if layers:
            per_layer = {k: statistics.median(m[k]["value"] for m in layers) for k in layers[0]}
            wall = per_layer["trace.wall_s"]
            entry["per_layer"] = per_layer
            entry["layer_shares"] = {
                k: v / wall for k, v in per_layer.items()
                if layers[0][k]["unit"] == "s" and k not in ("trace.wall_s", "runner.serial_wall_s")
            }
            shares = ", ".join(f"{k} {v:.1%}" for k, v in entry["layer_shares"].items() if v >= 0.005)
            print(f"  traced shares: {shares}")
        summary["workloads"][name] = entry
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
