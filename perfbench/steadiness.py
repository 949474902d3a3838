#!/usr/bin/env python3
"""Run the benchmark once per seed and report each metric's spread.

    python3 perfbench/steadiness.py [--runs 10] [--first-seed 1]

It runs every workload of BENCHMARK.json with tracing off, one run per
seed from --first-seed on.  For every workload and end-to-end metric it
prints the median, the quartiles of `statistics.quantiles(values, n=4)`
and the spread (Q3 - Q1) as a share of the median, next to the metric's
bound; it also prints the failed share of operations.  Raw results go
to perfbench/_work/steadiness-<time>.json.
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


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    raw = {}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT)
            wall = time.perf_counter() - t0
            if proc.returncode != 0:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["wall_s"] = wall
            runs.append(result)
        raw[workload] = runs
        shares = {r["failed"] / r["attempted"] for r in runs}
        walls = [r["wall_s"] for r in runs]
        print(f"{workload}: {len(runs)} runs, attempted "
              f"{min(r['attempted'] for r in runs)}-{max(r['attempted'] for r in runs)}, "
              f"failed share {sorted(shares)}, wall {min(walls):.1f}-{max(walls):.1f} s")
        for m in spec["end_to_end"]:
            values = [r["metrics"][m["name"]]["value"] for r in runs]
            q1, med, q3 = statistics.quantiles(values, n=4)
            print(f"  {m['name']:<12} median {med:.6g} {m['unit']}  "
                  f"Q1 {q1:.6g}  Q3 {q3:.6g}  spread {(q3 - q1) / med:.4f}  "
                  f"bound {m['bound']}")
    out = HERE / "_work" / f"steadiness-{int(time.time())}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(raw, indent=1))
    print(f"raw results: {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
