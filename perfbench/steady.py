"""Run-to-run spread of the benchmark: repeated runs, median and quartiles.

    python3 perfbench/steady.py --workloads er_paired,large_sparse,measure_oneshot \
        --seeds 1-10 --seconds 20

Runs `perfbench/run.py` once per (workload, seed), one at a time, and
prints for every end-to-end metric the median, the quartiles
(`statistics.quantiles(values, n=4)`) and the spread, (Q3 - Q1) / median.
Each run's result line is appended to `perfbench/_results/steady.jsonl`.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def main(argv=None) -> int:
    spec = bench_json()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    out_dir = HERE / "_results"
    out_dir.mkdir(exist_ok=True)
    log = out_dir / "steady.jsonl"
    status = 0
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            t0 = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.perf_counter() - t0
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
                status = 1
                continue
            res = json.loads(lines[-1])
            res.update(workload=workload, seed=seed, wall_s=wall)
            with log.open("a") as fh:
                fh.write(json.dumps(res) + "\n")
            results.append(res)
            shown = " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items())
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"failed={res['failed']}/{res['attempted']} wall={wall:.1f}s {shown}",
                  flush=True)
            if not res["correct"] or res["failed"]:
                status = 1
        if len(results) < 2:
            continue
        print(f"\n{workload}: {len(results)} runs")
        print(f"{'metric':<24} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>6}")
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            flag = "" if bound is None or spread <= bound / 3 else "  > bound/3"
            print(f"{name:<24} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {spread:>8.3f} "
                  f"{bound if bound is not None else '':>6}{flag}")
        print()
    return status


if __name__ == "__main__":
    sys.exit(main())
