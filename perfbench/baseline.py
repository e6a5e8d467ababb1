"""Repeat run.py over seeds and summarise each metric's spread.

    python3 perfbench/baseline.py --seeds 0-9 --trace 0 --out perfbench/BENCH_baseline_e2e.json

Runs `run.py --workload W --seed n` in its own process for every
workload W and seed n, with the run length BENCHMARK.json sets, and
reports, per metric, the median, the quartiles from
statistics.quantiles(values, n=4) and the spread (q3 - q1) / median,
next to the bound BENCHMARK.json fixes for it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(v) for v in text.split(",")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(run.WORKLOADS))
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    seeds = parse_seeds(args.seeds)
    summary = {"facts": run.machine_facts(), "seconds": spec["run_seconds"],
               "trace": args.trace, "seeds": seeds, "workloads": {}}
    for name in args.workloads.split(","):
        results = []
        for seed in seeds:
            started = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(run.BENCH / "run.py"), "--workload", name,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", str(args.trace)],
                capture_output=True, text=True, cwd=run.ROOT, check=False,
            )
            if proc.returncode != 0:
                print(proc.stdout[-2000:], proc.stderr[-2000:], file=sys.stderr)
                return 1
            line = proc.stdout.strip().splitlines()[-1]
            results.append(json.loads(line))
            print(f"{name} seed {seed}: {time.perf_counter() - started:.1f} s {line}", flush=True)
        entry = {"correct": all(r["correct"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results), "metrics": {}}
        for metric in results[0]["metrics"]:
            values = [r["metrics"][metric]["value"] for r in results]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            entry["metrics"][metric] = {
                "unit": results[0]["metrics"][metric]["unit"],
                "median": median, "q1": q1, "q3": q3,
                "spread": (q3 - q1) / abs(median) if median else 0.0,
                "bound": bounds.get(metric), "values": values,
            }
        summary["workloads"][name] = entry
        for metric, m in entry["metrics"].items():
            print(f"  {name:12s} {metric:40s} median {m['median']:12.6g} {m['unit']:6s} "
                  f"spread {m['spread']:.4f} bound {m['bound']}", flush=True)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(summary, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
