"""One benchmark worker: a fresh interpreter that sets up and runs a round.

Started by run.py, never by hand:

    python3 perfbench/worker.py --workload W --seed S --first I --count C \
        --spawned T --work DIR --result FILE [--trace] [--keep] [--tiny]
    python3 perfbench/worker.py --kernels --spawned T --work DIR --result FILE

``--spawned`` is the parent's perf_counter() just before it started this
process (CLOCK_MONOTONIC, shared by all processes), so set-up time runs
from a fresh interpreter to the moment the first operation can start:
interpreter start, importing snsim with numpy and scipy, and making the
round's inputs.  Each operation runs in a fresh directory under DIR and
is checked after its timing ends.  The result file holds the set-up
time, the process's peak resident set when its last operation ended
(before that operation's checks, which could add to it) and one entry
per operation.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from collections import defaultdict
from pathlib import Path


def _hook(module, attr, extract, records):
    original = getattr(module, attr)

    def hooked(*args, **kwargs):
        result = original(*args, **kwargs)
        records[attr].append(extract(args, kwargs, result))
        return result

    setattr(module, attr, hooked)


def _peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def _dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def _rejection(verify, perturb):
    """The reason the checks give for rejecting a perturbed result, or None."""
    from checks import CheckFailure

    try:
        verify(perturb=perturb)
    except CheckFailure as exc:
        return str(exc)
    return None


def run_round(args, work: Path) -> dict:
    import snsim.cli  # noqa: F401  (the import a CLI start pays)
    import workloads

    wl = workloads.WORKLOADS[args.workload]
    inputs = [wl.make_input(args.seed, i, tiny=args.tiny)
              for i in range(args.first, args.first + args.count)]
    setup_s = time.perf_counter() - args.spawned

    tracer, missing = None, []
    if args.trace:
        import spans

        tracer = spans.Tracer()
        missing = spans.install(tracer)
    records = defaultdict(list)
    for module, attr, extract in wl.hooks():
        _hook(module, attr, extract, records)

    ops = []
    for index, inp in zip(range(args.first, args.first + args.count), inputs):
        opdir = work / f"op{index}"
        shutil.rmtree(opdir, ignore_errors=True)
        opdir.mkdir(parents=True)
        wl.prepare(inp, opdir)
        records.clear()
        entry = {"index": index, "op_s": None, "error": None}
        first_span = len(tracer.spans) if tracer else 0
        try:
            if tracer:
                out, root = tracer.run("op", lambda: wl.run(inp, opdir))
                op_spans = tracer.spans[first_span:]
                entry["op_s"] = root[6] - root[5]
            else:
                t0 = time.perf_counter()
                out = wl.run(inp, opdir)
                entry["op_s"] = time.perf_counter() - t0
        except Exception as exc:  # an operation that raises counts as failed
            traceback.print_exc()
            entry["error"] = f"{type(exc).__name__}: {exc}"
        # the process peak so far, read before the checks can add to it
        peak_rss_mb = _peak_rss_mb()
        if entry["error"] is None:
            try:
                wl.verify(inp, out, opdir, records)
            except Exception as exc:
                entry["error"] = f"{type(exc).__name__}: {exc}"
        if entry["error"] is None and tracer:
            layers = spans.summarize(op_spans, root, missing)
            layers["scenarios.output_mb"] = _dir_bytes(opdir) / 1e6
            entry["layers"] = layers
        if entry["error"] is None and args.tiny:
            entry["rejected"] = {
                p: _rejection(lambda perturb: wl.verify(inp, out, opdir, records,
                                                      perturb=perturb), p)
                for p in wl.perturbations}
        out = None
        records.clear()
        if not args.keep:
            shutil.rmtree(opdir, ignore_errors=True)
        ops.append(entry)
    if tracer:
        tracer.dump(work / "spans.jsonl")
    return {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb, "ops": ops,
            "missing": missing}


def run_kernels(work: Path) -> dict:
    import kernels

    metrics, missing = kernels.measure(work)
    return {"kernels": metrics, "missing": missing}


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--count", type=int, default=1)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--keep", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--kernels", action="store_true")
    args = parser.parse_args(argv)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    result = run_kernels(work) if args.kernels else run_round(args, work)
    tmp = Path(args.result + ".tmp")
    tmp.write_text(json.dumps(result))
    os.replace(tmp, args.result)


if __name__ == "__main__":
    sys.exit(main())
