"""Run the benchmark once per seed on every workload and summarise the spread.

    python3 perfbench/spread.py --out perfbench/baseline.json

Each workload runs untraced for seeds 1-10, for BENCHMARK.json's
``run_seconds``, then once traced with seed 1 for the per-layer numbers.  For
each end-to-end metric it prints the median over the seeds, the quartile
spread (Q3 - Q1) / median as ``statistics.quantiles(values, n=4)`` gives the
quartiles, and the metric's bound.  Runs go one at a time, so they do not
compete for the CPU.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from run import BENCH_DIR, ROOT, declared, provenance

SEEDS = range(1, 11)
TRACE_SEED = 1


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True)
    result = json.loads(proc.stdout.splitlines()[-1])
    if proc.returncode or not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}, {result}")
    return {m: v["value"] for m, v in result["metrics"].items()}


def summarise(runs: dict[int, dict], end_to_end: list[dict]) -> dict:
    out = {}
    for metric in end_to_end:
        name = metric["name"]
        values = [r[name] for r in runs.values()]
        q1, median, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": median, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median, "bound": metric["bound"]}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the record here as JSON")
    args = parser.parse_args(argv)
    benchmark = declared()
    seconds = benchmark["run_seconds"]

    record = {"provenance": provenance(seed=None), "run_seconds": seconds,
              "seeds": list(SEEDS), "workloads": {}}
    for workload in (w["name"] for w in benchmark["workloads"]):
        runs = {}
        for seed in SEEDS:
            runs[seed] = run_once(workload, seed, seconds, 0)
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{m}={v:.5g}" for m, v in runs[seed].items()), flush=True)
        summary = summarise(runs, benchmark["end_to_end"])
        for name, s in summary.items():
            flag = "" if s["spread"] < s["bound"] / 3 else "  <-- over a third of the bound"
            print(f"{workload}  {name:16s} median {s['median']:.5g}  spread "
                  f"{s['spread']:.4f}  bound {s['bound']}{flag}", flush=True)
        per_layer = run_once(workload, TRACE_SEED, seconds, 1)
        print(f"{workload} traced seed {TRACE_SEED}: " + ", ".join(
            f"{m}={v:.5g}" for m, v in per_layer.items()), flush=True)
        record["workloads"][workload] = {"runs": runs, "summary": summary,
                                         "per_layer": per_layer,
                                         "per_layer_seed": TRACE_SEED}
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
