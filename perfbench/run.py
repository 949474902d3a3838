#!/usr/bin/env python3
"""snsim benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test

Run from anywhere inside a source checkout; the program is taken from
its `src/`.  With ``--trace 0`` the workload's rounds run in fresh
worker processes, one after another, for about S seconds, and the last
line of stdout holds the end-to-end metrics (`setup_s`, `op_s`,
`peak_rss_mb`).  With ``--trace 1`` the run measures the per-layer
metrics instead: import times, fixed-size kernels, and one untraced and
one traced round on the same inputs.  Metric names, units and bounds
come from BENCHMARK.json.  ``--self-test`` runs every workload at a tiny
size and shows that each check rejects a perturbed result.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import FFT_LAYER, LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

# operations per worker process; relax operations are short, so a round
# batches enough of them to outweigh the interpreter start
ROUND_OPS = {"check": 1, "ehrenfest": 1, "sweep-snapshots": 1, "relax": 25}
# no run may take longer than this, whatever --seconds says
HARD_LIMIT_S = 170.0
IMPORT_PROFILES = 3


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(ROOT / "src") + (os.pathsep + old if old else "")
    # the sweep's --jobs 2 is the only concurrency the benchmark asks for
    env.pop("SIM_THREADS", None)
    return env


class Runner:
    def __init__(self, tag: str, deadline: float):
        self.work = WORK / tag
        self.deadline = deadline
        self.env = _env()
        self.count = 0

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def worker(self, *args) -> tuple[dict, float]:
        """Run one worker to completion; returns (its result, wall seconds)."""
        self.count += 1
        result = self.work / f"result{self.count}.json"
        opwork = self.work / f"w{self.count}"
        timeout = self.remaining()
        if timeout <= 0:
            raise BenchError("out of time before a worker could start")
        spawned = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), *map(str, args),
                 "--spawned", repr(spawned), "--work", str(opwork),
                 "--result", str(result)],
                env=self.env, stdout=sys.stderr.fileno(), timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError("a worker exceeded the run's time limit")
        wall = time.perf_counter() - spawned
        if proc.returncode != 0 or not result.exists():
            raise BenchError(f"worker {' '.join(map(str, args))} exited with "
                             f"{proc.returncode}")
        return json.loads(result.read_text()), wall

    def round(self, workload, seed, first, *flags) -> tuple[dict, float]:
        return self.worker("--workload", workload, "--seed", seed, "--first", first,
                           "--count", ROUND_OPS[workload], *flags)

    def import_times(self) -> dict:
        """Self import time of each snsim module, numpy excluded.

        A module's time is its own plus that of every non-snsim module it
        imports first (scipy.signal counts for potentials), from
        ``python -X importtime`` in a fresh interpreter.
        """
        samples = {m: [] for m in LAYERS}
        for _ in range(IMPORT_PROFILES):
            proc = subprocess.run(
                [sys.executable, "-X", "importtime", "-c",
                 "import numpy; import snsim.cli, snsim.acceptance"],
                env=self.env, capture_output=True, text=True,
                timeout=max(1.0, self.remaining()))
            if proc.returncode != 0:
                raise BenchError("importing snsim failed:\n" + proc.stderr[-2000:])
            for m, us in _attribute_imports(proc.stderr).items():
                if m in samples:
                    samples[m].append(us / 1e6)
        return {f"{m}.import_s": statistics.median(v) for m, v in samples.items() if v}


def _attribute_imports(text: str) -> dict:
    """Per snsim module: self microseconds of it and its non-snsim imports."""
    entries = []
    for line in text.splitlines():
        parts = line[len("import time:"):].split("|")
        if not line.startswith("import time:") or len(parts) != 3:
            continue
        self_us, name = parts[0].strip(), parts[2]
        if not self_us.isdigit():  # the header line
            continue
        depth = (len(name) - len(name.lstrip(" "))) // 2
        entries.append((depth, name.strip(), int(self_us)))
    # -X importtime prints children before their parent, one level deeper
    children, pending = {}, []
    for i, (depth, _, _) in enumerate(entries):
        kids = []
        while pending and entries[pending[-1]][0] > depth:
            kids.append(pending.pop())
        children[i] = kids
        pending.append(i)

    def own(i):
        total = entries[i][2]
        for k in children[i]:
            if not entries[k][1].startswith("snsim."):
                total += own(k)
        return total

    return {name.split(".", 1)[1]: own(i) for i, (_, name, _) in enumerate(entries)
            if name.startswith("snsim.")}


def _ops(results) -> list:
    return [op for r in results for op in r["ops"]]


def _median_op(results) -> float:
    good = [op["op_s"] for op in _ops(results) if op["error"] is None]
    if not good:
        raise BenchError("no operation succeeded")
    return statistics.median(good)


def _log(results):
    for r in results:
        times = " ".join(f"{op['op_s']:.3f}" if op["error"] is None else "failed"
                         for op in r["ops"])
        print(f"round: setup {r['setup_s']:.3f} s, ops {times} s, "
              f"peak {r['peak_rss_mb']:.1f} MB", file=sys.stderr)
    for op in _ops(results):
        if op["error"] is not None:
            print(f"operation {op['index']} failed: {op['error']}", file=sys.stderr)


def measure(workload, seed, seconds, runner) -> tuple[dict, list]:
    results, walls = [], []
    start = time.perf_counter()
    first = 0
    while True:
        result, wall = runner.round(workload, seed, first)
        results.append(result)
        walls.append(wall)
        first += ROUND_OPS[workload]
        # start another round only if it should end inside the window
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            break
    metrics = {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "op_s": _median_op(results),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in results),
    }
    return metrics, results


def _outputs(opdir: Path) -> dict:
    return {p.relative_to(opdir): p.read_bytes()
            for p in sorted(opdir.rglob("*")) if p.suffix in (".csv", ".tsv")}


def measure_traced(workload, seed, runner) -> tuple[dict, list]:
    metrics = runner.import_times()
    kernels, _ = runner.worker("--kernels")
    metrics.update(kernels["kernels"])
    for note in kernels["missing"]:
        print(f"missing: {note}", file=sys.stderr)
    plain, _ = runner.round(workload, seed, 0, "--keep")
    traced, _ = runner.round(workload, seed, 0, "--keep", "--trace")
    for name in traced["missing"]:
        print(f"missing: {name}", file=sys.stderr)
    # the same inputs must give byte-identical tables, traced or not
    for a, b in zip(plain["ops"], traced["ops"]):
        if a["error"] is None and b["error"] is None:
            da = runner.work / f"w{runner.count - 1}" / f"op{a['index']}"
            db = runner.work / f"w{runner.count}" / f"op{b['index']}"
            if _outputs(da) != _outputs(db):
                b["error"] = "outputs differ between two runs with the same inputs"
    per_op = [op["layers"] for op in traced["ops"] if op["error"] is None]
    if not per_op:
        raise BenchError("no traced operation succeeded")
    for name in per_op[0]:
        values = [layers[name] for layers in per_op]
        if any(v is None for v in values):
            print(f"missing: {name}", file=sys.stderr)
            continue
        metrics[name] = statistics.median(values)
    metrics["trace.overhead_s"] = _median_op([traced]) - _median_op([plain])
    return metrics, [plain, traced]


def _result(metrics, results, wanted) -> dict:
    ops = _ops(results)
    failed = sum(op["error"] is not None for op in ops)
    return {
        "correct": failed == 0,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted if m["name"] in metrics},
    }


def self_test(runner) -> bool:
    """Each workload end to end at a tiny size, traced and not, plus
    every perturbation the workload's checks must reject."""
    ok = True
    for workload in ROUND_OPS:
        plain, _ = runner.worker("--workload", workload, "--seed", 1, "--count", 1,
                                 "--tiny", "--keep")
        traced, _ = runner.worker("--workload", workload, "--seed", 1, "--count", 1,
                                  "--tiny", "--keep", "--trace")
        for r in (plain, traced):
            for op in r["ops"]:
                if op["error"] is not None:
                    ok = False
                    print(f"FAIL {workload}: {op['error']}")
        da = runner.work / f"w{runner.count - 1}" / "op0"
        db = runner.work / f"w{runner.count}" / "op0"
        same = _outputs(da) == _outputs(db)
        print(f"{'PASS' if same else 'FAIL'} {workload}: tables byte-identical "
              f"across two runs ({len(_outputs(da))} files)")
        ok &= same
        op = plain["ops"][0]
        for perturb, reason in op.get("rejected", {}).items():
            print(f"{'PASS' if reason else 'FAIL'} {workload}: check rejects "
                  f"perturbation '{perturb}'" + (f" ({reason})" if reason else ""))
            ok &= reason is not None
        if traced["ops"][0]["error"] is None:
            layers = traced["ops"][0]["layers"]
            total = sum(layers[f"{m}.self_s"] for m in LAYERS + (FFT_LAYER,))
            op_s, root = layers["trace.op_s"], layers["trace.root_self_s"]
            with open(runner.work / f"w{runner.count}" / "spans.jsonl") as fh:
                threads = len({json.loads(line)["thread"] for line in fh})
            # the sweep's self times must also add up with its pool running
            covered = (abs(total + root - op_s) <= 1e-6 * op_s
                       and (workload != "sweep-snapshots" or threads > 1))
            print(f"{'PASS' if covered else 'FAIL'} {workload}: traced op {op_s:.3f} s = "
                  f"layer self times {total:.3f} s + outside snsim {root:.6f} s, "
                  f"spans on {threads} thread(s)")
            ok &= covered
    return ok


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(ROUND_OPS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not (ROOT / "src" / "snsim" / "__init__.py").is_file():
        print(f"no snsim sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # byte-compile once, outside every timing: set-up excludes the
    # compilation that follows a fresh checkout
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"),
                    str(HERE)], check=True, stdout=subprocess.DEVNULL)
    tag = "self-test" if args.self_test else f"{args.workload}-{args.seed}-{os.getpid()}"
    runner = Runner(tag, time.perf_counter() + HARD_LIMIT_S)
    shutil.rmtree(runner.work, ignore_errors=True)
    try:
        if args.self_test:
            return 0 if self_test(runner) else 1
        if args.trace:
            metrics, results = measure_traced(args.workload, args.seed, runner)
            wanted = spec["per_layer"]
            spans = runner.work / f"w{runner.count}" / "spans.jsonl"
            if spans.exists():
                os.replace(spans, WORK / f"spans-{args.workload}.jsonl")
        else:
            metrics, results = measure(args.workload, args.seed, args.seconds, runner)
            wanted = spec["end_to_end"]
        _log(results)
        print(json.dumps(_result(metrics, results, wanted)))
        return 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
