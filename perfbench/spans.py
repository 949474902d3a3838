"""Span tracing of snsim from outside the package.

The tracer replaces each public function of the nine snsim modules, in
every snsim module namespace that binds it, with a wrapper that records
a span: name, layer (the defining module), parent span, thread, start
and end.  Callers look functions up in their own module's namespace at
call time, so `snsim.scenarios.evolve_kernel` and
`snsim.propagate.convolution_self_potential` are traced where they are
called.  `numpy.fft.fft` and `numpy.fft.ifft` are wrapped as the layer
`numpy_fft`.  Spans stay in memory until the worker writes them out.

A span's parent is the innermost open span on the same thread, so a
thread-pool member's top-level span has no parent.  Self time is the
wall time in which a span is the innermost open span of its thread;
while pool threads work, the operation's thread waits and they share
the time (see `self_times`).  So the self times of one operation add up
to its wall time, with or without the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import os
import threading
import time
from collections import defaultdict

LAYERS = ("cli", "acceptance", "scenarios", "propagate", "potentials",
          "guidance", "fields", "oracles", "choquard")
FFT_LAYER = "numpy_fft"

def _spec_of(args, kwargs):
    for a in itertools.chain(args, kwargs.values()):
        if type(a).__name__ == "EvolutionSpec":
            return a
    raise ValueError("no EvolutionSpec argument")


def _evolve(args, kwargs, result):
    spec = _spec_of(args, kwargs)
    psi0 = args[0] if args else kwargs["psi0"]
    frames = spec.n_steps // spec.output_stride + 1
    stored = frames * psi0.grid.n_points * 16 if spec.store_fields else 0
    return {"steps": spec.n_steps, "stored_bytes": stored}


def _snapshots(args, kwargs, result):
    return {"files": len(result),
            "bytes": sum(os.path.getsize(p) for p in result)}


ANNOTATORS = {
    "propagate.evolve_linear": _evolve,
    "propagate.evolve_self_harmonic": _evolve,
    "propagate.evolve_kernel": _evolve,
    "propagate.write_snapshots": _snapshots,
    "guidance.decompose_run": lambda a, k, r: {"frames": len(a[0] if a else k["times"])},
    "oracles.gaussian_moment_flow": lambda a, k, r: {"rk4_steps": len(r.times) - 1},
    "oracles.classical_trajectory": lambda a, k, r: {"rk4_steps": len(r[0]) - 1},
    "choquard.solve_ground_state": lambda a, k, r: {"iters": r.iters},
    "propagate.imaginary_time_relax": lambda a, k, r: {"iters": r.iters},
}


class Tracer:
    """Records spans; each span is [id, name, layer, parent, thread, t0, t1, extra]."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, fn, name, layer, annotate=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            rec = [next(tracer._ids), name, layer,
                   stack[-1][0] if stack else None,
                   threading.get_ident(), 0.0, 0.0, None]
            stack.append(rec)
            rec[5] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[6] = time.perf_counter()
                stack.pop()
                tracer.spans.append(rec)
            if annotate is not None:
                try:
                    rec[7] = annotate(args, kwargs, result)
                except Exception as exc:  # a changed signature must not fail the op
                    rec[7] = {"annotate_error": repr(exc)}
            return result

        return traced

    def run(self, name, fn):
        """Call fn inside a root span; returns (result, root span)."""
        root = self.wrap(fn, name, "bench")
        result = root()
        return result, next(s for s in reversed(self.spans) if s[1] == name)

    def dump(self, path):
        with open(path, "w") as fh:
            for s in sorted(self.spans):
                fh.write(json.dumps({"id": s[0], "name": s[1], "layer": s[2],
                                     "parent": s[3], "thread": s[4],
                                     "start": s[5], "end": s[6],
                                     "extra": s[7]}) + "\n")




# -- per-operation summary ----------------------------------------------

def _total(key, scale=1.0):
    """A metric that sums one annotation over the spans of its functions."""
    def derive(spans, names, ancestors):
        vals = [s[7] for s in spans if s[1] in names]
        if any(v is None or key not in v for v in vals):
            return None
        return sum(v[key] for v in vals) * scale
    return derive


def _calls_per_step(spans, names, ancestors):
    """Convolutions inside the kernel stepper per kernel step; 0 without one."""
    kernel, convolution = names
    steps = _total("steps")(spans, (kernel,), ancestors)
    if not steps:
        return steps if steps is None else 0.0
    inside = sum(1 for s in spans if s[1] == convolution
                 and any(a[1] == kernel for a in ancestors(s)))
    return inside / steps


def _overlap(spans, names, ancestors):
    """Summed sweep-member time over sweep wall time; 0 without a sweep.

    A member runs on a pool thread (a span without parent) or, with one
    job, inside the sweep on the operation's thread.
    """
    sweep, member = names
    wall = sum(s[6] - s[5] for s in spans if s[1] == sweep)
    busy = sum(s[6] - s[5] for s in spans if s[1] == member
               and (s[3] is None or any(a[1] == sweep for a in ancestors(s))))
    return busy / wall if wall else 0.0


EVOLVERS = ("propagate.evolve_linear", "propagate.evolve_self_harmonic",
            "propagate.evolve_kernel")

# derived metric -> (the functions it is computed from, how)
DERIVED = {
    "potentials.convolution_calls_per_step": (
        ("propagate.evolve_kernel", "potentials.convolution_self_potential"),
        _calls_per_step),
    "propagate.steps": (EVOLVERS, _total("steps")),
    "propagate.stored_mb": (EVOLVERS, _total("stored_bytes", 1e-6)),
    "guidance.frames": (("guidance.decompose_run",), _total("frames")),
    "oracles.rk4_steps": (("oracles.gaussian_moment_flow",
                           "oracles.classical_trajectory"), _total("rk4_steps")),
    "propagate.snapshot_mb": (("propagate.write_snapshots",), _total("bytes", 1e-6)),
    "choquard.sweeps": (("choquard.solve_ground_state",), _total("iters")),
    "propagate.relax_iters": (("propagate.imaginary_time_relax",), _total("iters")),
    "scenarios.sweep_overlap": (("scenarios.sweep", "scenarios.run_scenario"),
                                _overlap),
}
FFT_NAMES = (f"{FFT_LAYER}.fft", f"{FFT_LAYER}.ifft")
# a name missing from the program makes its metrics missing, never zero
REQUIRED = sorted({n for names, _ in DERIVED.values() for n in names}
                  | set(FFT_NAMES))


def install(tracer: Tracer) -> list:
    """Wrap every public snsim function and numpy.fft.fft/ifft.

    Returns the REQUIRED names that do not exist in the program.
    """
    import numpy

    mods = {m: importlib.import_module(f"snsim.{m}") for m in LAYERS}
    mods[FFT_LAYER] = numpy.fft
    missing = [name for name in REQUIRED
               if not hasattr(mods[name.partition(".")[0]], name.partition(".")[2])]
    wrapped = {}
    for mod in (mods[m] for m in LAYERS):
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            owner = obj.__module__.rpartition(".")[2]
            if not obj.__module__.startswith("snsim.") or owner not in LAYERS:
                continue
            if id(obj) not in wrapped:
                name = f"{owner}.{obj.__name__}"
                wrapped[id(obj)] = tracer.wrap(obj, name, owner,
                                               ANNOTATORS.get(name))
            setattr(mod, attr, wrapped[id(obj)])
    for name in FFT_NAMES:
        attr = name.partition(".")[2]
        if name not in missing:
            setattr(numpy.fft, attr,
                    tracer.wrap(getattr(numpy.fft, attr), name, FFT_LAYER))
    return missing


def self_times(spans, root) -> dict:
    """Span id -> the wall time the span owns.

    On one thread a span owns the time in which it is the innermost open
    span.  While threads other than the root's have open spans, the
    root's thread is waiting for them (the sweep's pool), so its spans
    own nothing, and each busy thread's innermost span owns an equal
    share.  Every instant of the root span is owned exactly once, so the
    owned times add up to the root's duration.
    """
    by_id = {s[0]: s for s in spans}

    def depth(s):
        d = 0
        while s[3] is not None:
            s, d = by_id[s[3]], d + 1
        return d

    # at equal times closes come first, and parents open before children
    events = sorted([(s[5], 1, depth(s), s) for s in spans]
                    + [(s[6], 0, -depth(s), s) for s in spans],
                    key=lambda e: e[:3])
    open_spans = defaultdict(dict)  # thread -> {span id: depth}
    owned = defaultdict(float)
    last = None
    for t, opening, d, s in events:
        if last is not None and t > last:
            busy = [th for th, o in open_spans.items() if o and th != root[4]]
            if not busy and open_spans[root[4]]:
                busy = [root[4]]
            for th in busy:
                inner = max(open_spans[th], key=open_spans[th].get)
                owned[inner] += (t - last) / len(busy)
        last = t
        if opening:
            open_spans[s[4]][s[0]] = d
        else:
            del open_spans[s[4]][s[0]]
    return owned


def summarize(spans, root, missing=()) -> dict:
    """Per-operation layer self times, call counts and derived counts.

    ``spans`` are the spans recorded during one operation, ``root`` is its
    root span (on the operation's main thread).  A metric computed from a
    name in ``missing`` is None.
    """
    by_id = {s[0]: s for s in spans}
    owned = self_times(spans, root)
    op_s = root[6] - root[5]
    total = sum(owned.values())
    if abs(total - op_s) > 1e-9 * max(op_s, 1.0):
        raise RuntimeError(f"self times sum to {total!r}, op took {op_s!r}")
    self_s = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        if s[2] != "bench":
            self_s[s[2]] += owned[s[0]]
            calls[s[2]] += 1

    def ancestors(s):
        while s[3] is not None:
            s = by_id[s[3]]
            yield s

    out = {f"{layer}.self_s": self_s[layer] for layer in LAYERS + (FFT_LAYER,)}
    out.update({f"{layer}.calls": calls[layer] for layer in LAYERS + (FFT_LAYER,)})
    if set(FFT_NAMES) & set(missing):
        out[f"{FFT_LAYER}.self_s"] = out[f"{FFT_LAYER}.calls"] = None
    out["trace.op_s"] = op_s
    out["trace.root_self_s"] = owned[root[0]]
    for metric, (names, derive) in DERIVED.items():
        out[metric] = (None if set(names) & set(missing)
                       else derive(spans, names, ancestors))
    return out
