"""Per-layer spans for the traced benchmark run, recorded from outside qptori.

``install`` replaces module-level names of qptori at the place where their
callers look them up (for example ``flowmap.run_chunks``, which
``advance_grid`` calls, or ``manifold.solve_cohomological``) with wrappers
that record a span: name, kind, start, end, parent span and a size.  Spans
stay in memory while the solve runs; ``layer_metrics`` turns them into the
per-layer metrics afterwards.  Nothing in qptori itself is changed, and a
name that no longer exists is reported as missing instead of failing.

Chunks that the worker pool runs in other processes record their spans
there; ``TracedChunk`` ships them back with each chunk's result.
"""

from __future__ import annotations

import functools
import importlib
import os
import time
from collections import defaultdict
from statistics import mean

SERIES_ORDERS = range(2, 7)


def jet_kind(spec) -> str:
    """real (values), grad (first-order jets in every state direction) or series."""
    if spec.ncoeff == 1:
        return "real"
    return "grad" if spec.order == 1 else "series"


def sin_cos_kind(spec) -> str:
    kind = jet_kind(spec)
    return f"o{spec.order}" if kind == "series" else kind


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# span name -> (kind, size) of a call, from its arguments
def _rhs_info(args, kwargs):
    return jet_kind(_arg(args, kwargs, 3, "spec")), _arg(args, kwargs, 1, "x").shape[0]


def _sin_cos_info(args, kwargs):
    return sin_cos_kind(_arg(args, kwargs, 1, "spec")), None


def _span_info(args, kwargs):
    return jet_kind(_arg(args, kwargs, 4, "spec")), _arg(args, kwargs, 1, "y0").shape[0]


def _file_size(args, kwargs):
    return None, os.path.getsize(_arg(args, kwargs, 1, "path"))


# (span name, owner "module" or "module:Class", attribute, info before, info after)
TARGETS = [
    ("models.rhs", "qptori.models:PendulumField", "rhs", _rhs_info, None),
    ("models.forcing", "qptori.models:PendulumField", "forcing", None, None),
    ("jets.sin_cos", "qptori.jets", "sin_cos", _sin_cos_info, None),
    ("flowmap.span", "qptori.flowmap", "integrate_span", _span_info, None),
    ("parallel.run_chunks", "qptori.flowmap", "run_chunks", None, None),
    ("multishoot.section_map", "qptori.multishoot", "section_map", None, None),
    ("multishoot.lift", "qptori.multishoot:LiftedMap", "images", None, None),
    ("multishoot.lift", "qptori.multishoot:LiftedMap", "images_and_jacobian", None, None),
    ("multishoot.lift", "qptori.multishoot:LiftedMap", "transport_series", None, None),
    ("torus.newton", "qptori.torus", "run_newton", None, None),
    ("torus.newton", "qptori.cli", "run_newton", None, None),
    ("torus.coho", "qptori.torus", "solve_cohomological", None, None),
    ("torus.floquet", "qptori.torus", "solve_coho_floquet", None, None),
    ("fourier.fft", "qptori.fourier", "analyze", None, None),
    ("fourier.fft", "qptori.fourier", "synthesize", None, None),
    ("fourier.io", "qptori.fourier:FourierField", "save", None, _file_size),
    ("fourier.io", "qptori.fourier:FourierField", "load", _file_size, None),
    ("manifold.expansion", "qptori.cli", "unstable_expansion", None, None),
    ("manifold.expansion", "qptori.cli", "stable_expansion", None, None),
    ("manifold.solve", "qptori.manifold", "solve_cohomological", None, None),
    ("manifold.errors", "qptori.manifold", "_expansion_errors", None, None),
    ("verify.torus_suite", "qptori.cli", "torus_suite", None, None),
    ("verify.test_order", "qptori.cli", "test_order", None, None),
]


class Recorder:
    """Spans of one process: (name, kind, t0, t1, parent index, size)."""

    def __init__(self):
        self.active = False
        self.spans: list = []
        self.stack: list = []


REC = Recorder()
_installed: set | None = None  # span names whose targets are missing, once installed


def _wrap(fn, name, before, after):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        rec = REC
        if not rec.active:
            return fn(*args, **kwargs)
        kind = size = None
        if before is not None:
            kind, size = before(args, kwargs)
        idx = len(rec.spans)
        rec.spans.append(None)
        parent = rec.stack[-1] if rec.stack else -1
        rec.stack.append(idx)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            rec.stack.pop()
            if after is not None:
                size = after(args, kwargs)[1]
            rec.spans[idx] = (name, kind, t0, t1, parent, size)

    return wrapper


class TracedChunk:
    """Runs one pool payload with its own span list; returns it with the result."""

    def __init__(self, fn):
        self.fn = fn

    def __call__(self, payload):
        install()  # a worker started by spawn has not installed the wrappers yet
        saved = REC.active, REC.spans, REC.stack
        REC.active, REC.spans, REC.stack = True, [], []
        t0 = time.perf_counter()
        try:
            out = self.fn(payload)
        finally:
            t1 = time.perf_counter()
            spans = REC.spans
            REC.active, REC.spans, REC.stack = saved
        return out, t0, t1, spans


def _wrap_run_chunks(run_chunks):
    @functools.wraps(run_chunks)
    def wrapper(fn, payloads):
        rec = REC
        if not rec.active:
            return run_chunks(fn, payloads)
        idx = len(rec.spans)
        rec.spans.append(None)
        parent = rec.stack[-1] if rec.stack else -1
        t0 = time.perf_counter()
        results = run_chunks(TracedChunk(fn), payloads)
        t1 = time.perf_counter()
        for _, c0, c1, spans in results:
            chunk = len(rec.spans)
            rec.spans.append(("parallel.chunk", None, c0, c1, idx, None))
            base = len(rec.spans)
            for name, kind, s0, s1, par, size in spans:
                rec.spans.append((name, kind, s0, s1, chunk if par < 0 else par + base, size))
        rec.spans[idx] = ("parallel.run_chunks", None, t0, t1, parent, len(payloads))
        return [r[0] for r in results]

    return wrapper


def install() -> set:
    """Wrap every target once per process; return the span names that are missing."""
    global _installed
    if _installed is not None:
        return _installed
    missing = set()
    for name, owner, attr, before, after in TARGETS:
        modname, _, clsname = owner.partition(":")
        obj = importlib.import_module(modname)
        if clsname:
            obj = getattr(obj, clsname, None)
        if obj is None or not hasattr(obj, attr):
            missing.add(name)
            continue
        if clsname:
            raw = obj.__dict__.get(attr)
            if isinstance(raw, classmethod):
                setattr(obj, attr, classmethod(_wrap(raw.__func__, name, before, after)))
            elif raw is not None:
                setattr(obj, attr, _wrap(raw, name, before, after))
            else:  # inherited: the class no longer defines it
                missing.add(name)
        elif name == "parallel.run_chunks":
            setattr(obj, attr, _wrap_run_chunks(getattr(obj, attr)))
        else:
            setattr(obj, attr, _wrap(getattr(obj, attr), name, before, after))
    _installed = missing
    return missing


# -- per-layer metrics -----------------------------------------------------

KINDS = ("real", "grad", "series")
SIN_COS_KINDS = ("real", "grad") + tuple(f"o{k}" for k in SERIES_ORDERS)

# metric -> span names it needs; a metric whose spans are missing reads None
NEEDS = {
    **{f"models.rhs_s.{k}": ("models.rhs",) for k in KINDS},
    **{f"models.rhs_calls.{k}": ("models.rhs",) for k in KINDS},
    "models.forcing_s": ("models.forcing",),
    **{f"jets.sin_cos_s.{k}": ("jets.sin_cos",) for k in SIN_COS_KINDS},
    **{f"flowmap.span_s.{k}": ("flowmap.span",) for k in KINDS},
    **{f"flowmap.rk_self_s.{k}": ("flowmap.span", "models.rhs") for k in KINDS},
    "flowmap.spans": ("flowmap.span",),
    **{f"flowmap.step_attempts.{k}": ("flowmap.span", "models.rhs") for k in KINDS},
    "flowmap.point_steps": ("flowmap.span", "models.rhs"),
    "flowmap.single_point_s": ("flowmap.span",),
    "parallel.run_chunks_s": ("parallel.run_chunks",),
    "parallel.chunks": ("parallel.run_chunks",),
    "parallel.busy_s": ("parallel.run_chunks",),
    "parallel.efficiency": ("parallel.run_chunks",),
    "parallel.imbalance": ("parallel.run_chunks",),
    "multishoot.section_maps": ("multishoot.section_map",),
    "multishoot.lift_self_s": ("multishoot.lift", "multishoot.section_map"),
    "torus.newton_iters": ("torus.floquet",),
    "torus.coho_s": ("torus.coho",),
    "torus.floquet_s": ("torus.floquet",),
    "torus.self_s": ("torus.newton",),
    "fourier.fft_s": ("fourier.fft",),
    "fourier.fft_calls": ("fourier.fft",),
    "fourier.io_s": ("fourier.io",),
    "fourier.io_bytes": ("fourier.io",),
    "manifold.transport_s": ("manifold.expansion",),
    "manifold.solve_s": ("manifold.solve",),
    "manifold.errors_s": ("manifold.errors",),
    "verify.torus_suite_s": ("verify.torus_suite",),
    "verify.test_order_s": ("verify.test_order",),
}

# metrics that must repeat exactly between two traced solves of one input
EXACT_COUNTS = (
    [f"models.rhs_calls.{k}" for k in KINDS]
    + [f"flowmap.step_attempts.{k}" for k in KINDS]
    + [
        "flowmap.spans",
        "flowmap.point_steps",
        "parallel.chunks",
        "multishoot.section_maps",
        "torus.newton_iters",
        "fourier.fft_calls",
        "fourier.io_bytes",
    ]
)

_STEP_STAGES = 12  # rhs calls per DOP853 step attempt; one more starts each span


def layer_metrics(spans: list, workers: int, missing: set) -> dict:
    """Per-layer metrics of one traced solve."""
    children = defaultdict(list)
    for i, s in enumerate(spans):
        children[s[4]].append(i)

    def dur(i):
        return spans[i][3] - spans[i][2]

    def self_time(i):
        return dur(i) - sum(dur(c) for c in children[i])

    def total(name, kind=None):
        return sum(dur(i) for i, s in enumerate(spans) if s[0] == name and (kind is None or s[1] == kind))

    def count(name, kind=None):
        return sum(1 for s in spans if s[0] == name and (kind is None or s[1] == kind))

    m: dict = {}
    for k in KINDS:
        m[f"models.rhs_s.{k}"] = total("models.rhs", k)
        m[f"models.rhs_calls.{k}"] = count("models.rhs", k)
    m["models.forcing_s"] = total("models.forcing")
    for k in SIN_COS_KINDS:
        m[f"jets.sin_cos_s.{k}"] = total("jets.sin_cos", k)

    attempts = dict.fromkeys(KINDS, 0)
    rk_self = dict.fromkeys(KINDS, 0.0)
    point_steps = single = 0
    for i, s in enumerate(spans):
        if s[0] != "flowmap.span":
            continue
        rhs = sum(1 for c in children[i] if spans[c][0] == "models.rhs")
        steps = max(0, rhs - 1) // _STEP_STAGES
        attempts[s[1]] += steps
        point_steps += steps * s[5]
        rk_self[s[1]] += self_time(i)
        if s[5] == 1:
            single += dur(i)
    for k in KINDS:
        m[f"flowmap.span_s.{k}"] = total("flowmap.span", k)
        m[f"flowmap.rk_self_s.{k}"] = rk_self[k]
        m[f"flowmap.step_attempts.{k}"] = attempts[k]
    m["flowmap.spans"] = count("flowmap.span")
    m["flowmap.point_steps"] = point_steps
    m["flowmap.single_point_s"] = single

    dispatch = [i for i, s in enumerate(spans) if s[0] == "parallel.run_chunks"]
    wall = sum(dur(i) for i in dispatch)
    busy = total("parallel.chunk")
    ratios = []
    for i in dispatch:
        chunk_times = [dur(c) for c in children[i] if spans[c][0] == "parallel.chunk"]
        if len(chunk_times) > 1:
            ratios.append(max(chunk_times) / mean(chunk_times))
    m["parallel.run_chunks_s"] = wall
    m["parallel.chunks"] = count("parallel.chunk")
    m["parallel.busy_s"] = busy
    m["parallel.efficiency"] = busy / (workers * wall) if wall > 0 else 0.0
    m["parallel.imbalance"] = mean(ratios) if ratios else 1.0

    m["multishoot.section_maps"] = count("multishoot.section_map")
    m["multishoot.lift_self_s"] = sum(
        self_time(i) for i, s in enumerate(spans) if s[0] == "multishoot.lift"
    )
    m["torus.newton_iters"] = count("torus.floquet")
    m["torus.coho_s"] = total("torus.coho")
    m["torus.floquet_s"] = total("torus.floquet")
    m["torus.self_s"] = sum(self_time(i) for i, s in enumerate(spans) if s[0] == "torus.newton")

    m["fourier.fft_s"] = total("fourier.fft")
    m["fourier.fft_calls"] = count("fourier.fft")
    m["fourier.io_s"] = total("fourier.io")
    m["fourier.io_bytes"] = sum(s[5] for s in spans if s[0] == "fourier.io")

    # the order-by-order transports: map calls made directly by an expansion,
    # not those inside _expansion_errors
    m["manifold.transport_s"] = sum(
        dur(c)
        for i, s in enumerate(spans)
        if s[0] == "manifold.expansion"
        for c in children[i]
        if spans[c][0] in ("parallel.run_chunks", "multishoot.lift")
    )
    m["manifold.solve_s"] = total("manifold.solve")
    m["manifold.errors_s"] = total("manifold.errors")
    m["verify.torus_suite_s"] = total("verify.torus_suite")
    m["verify.test_order_s"] = total("verify.test_order")

    for metric, needs in NEEDS.items():
        if any(n in missing for n in needs):
            m[metric] = None
    return m
