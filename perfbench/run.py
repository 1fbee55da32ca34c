"""qptori benchmark: end-to-end times of three workloads, or their per-layer trace.

    python3 perfbench/run.py --workload desk_d2 --seed 1 --seconds 40 --trace 0

Run from the root of a qptori checkout; the package is imported from its
``src/`` directory.  Each operation is one solve in a fresh interpreter
(``solve.py``), so set-up is paid the way a command-line user pays it.  The
workloads, the reasons for them and the layer metrics are described in
``perfbench/README.md``; metric names and units come from ``BENCHMARK.json``.

With ``--trace 0`` the script runs solves back to back (a closed loop, one
client): at least two, then more while another one still fits in
``--seconds``, plus set-up-only interpreters until set-up has five
samples, and reports medians.  With
``--trace 1`` it runs a traced solve, one without tracing and another
traced one, all of the same input, whatever ``--seconds`` says (about 30-60 s
on a 2-core host); the traced solves must repeat every exact count.

A solve that fails its correctness gate counts as failed and is not timed;
a metric with no passing sample reads null.
The last line of standard output is the result object; the line before it
holds the host facts, sample counts and per-solve values.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import EXACT_COUNTS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RUN_LIMIT_S = 170.0  # the whole run, children included
MIN_SOLVES = 2
MIN_SETUP_SAMPLES = 5


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("QPTORI_THREADS", None)  # the workload sets the worker count
    # one BLAS thread per process, so that workers x BLAS threads <= nproc
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(w, seed: int, deadline: float, *, setup_only=False, trace=False):
    """One operation in a fresh interpreter: (result dict, None) or (None, error)."""
    cmd = [sys.executable, str(HERE / "solve.py"), "--workload", w.name, "--seed", str(seed)]
    cmd += ["--setup-only"] * setup_only + ["--trace"] * trace
    proc = subprocess.Popen(
        cmd,
        cwd=ROOT,
        env=child_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,  # its pool workers share its process group
    )
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, "timed out"
    if proc.returncode != 0:
        return None, f"exit {proc.returncode}: {err.strip().splitlines()[-1:]}"
    return json.loads(out.splitlines()[-1]), None


def host_facts() -> dict:
    facts = {"nproc": len(os.sched_getaffinity(0)), "cpu": None}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    caches = Path("/sys/devices/system/cpu/cpu0/cache")
    for index in sorted(caches.glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if level in ("2", "3") and kind in ("Unified", "Data"):
            facts[f"L{level}"] = size
    return facts


def solve_ok(res) -> bool:
    return res is not None and res.get("gate", {}).get("ok", False)


def peak_rss(res, workers: int) -> float:
    """Peak resident memory of the solve process plus that of its largest worker."""
    worker = res["worker_peak_rss_mib"] if workers > 1 else 0.0
    return res["peak_rss_mib"] + worker


def timed_run(w, seed, seconds, deadline):
    """Closed loop of at least MIN_SOLVES solves, more while they fit in
    ``seconds``, then set-up-only interpreters until set-up has
    MIN_SETUP_SAMPLES samples; medians of the passing solves."""
    solves, errors = [], []
    t0 = time.monotonic()
    while True:
        t = time.monotonic()
        res, err = run_child(w, seed, deadline)
        solves.append(res)
        errors.append(err)
        took = time.monotonic() - t
        if err is not None:
            break
        if len(solves) >= MIN_SOLVES and time.monotonic() - t0 + took > seconds:
            break
    good = [r for r in solves if solve_ok(r)]
    setups = [r["setup_s"] for r in good]
    while good and len(setups) < MIN_SETUP_SAMPLES:
        res, err = run_child(w, seed, deadline, setup_only=True)
        if err is not None:
            raise SystemExit(f"set-up failed: {err}")
        setups.append(res["setup_s"])

    values = {
        "solve_s": [r["solve_s"] for r in good],
        "setup_s": setups,
        "peak_rss_mib": [peak_rss(r, w.workers) for r in good],
    }
    if w.kind == "desk":  # the two commands, reported but not bounded
        values["torus_s"] = [r["torus_s"] for r in good]
        values["manifold_s"] = [r["manifold_s"] for r in good]
    metrics = {k: median(v) for k, v in values.items() if v}
    return solves, errors, metrics, values


def traced_run(w, seed, deadline):
    """Two traced solves of the same input with an untraced one between them,
    so that the overhead compares neighbouring solves."""
    solves, errors = [], []
    for trace in (True, False, True):
        res, err = run_child(w, seed, deadline, trace=trace)
        solves.append(res)
        errors.append(err)
    plain = solves[1]
    traced = [solves[0], solves[2]]
    metrics, values = {}, {}
    repeat = all(solve_ok(r) for r in traced) and all(
        traced[0]["layers"][k] == traced[1]["layers"][k] for k in EXACT_COUNTS
    )
    if solve_ok(plain) and all(solve_ok(r) for r in traced):
        layers = [r["layers"] for r in traced]
        for name in layers[0]:
            vals = [lay[name] for lay in layers]
            if None in vals:
                metrics[name] = None
            else:  # exact counts stay whole numbers
                metrics[name] = vals[0] if len(set(vals)) == 1 else median(vals)
            values[name] = vals
        traced_s = median(r["solve_s"] for r in traced)
        metrics["trace.overhead_frac"] = (traced_s - plain["solve_s"]) / plain["solve_s"]
        values["trace.overhead_frac"] = [plain["solve_s"], traced_s]
    missing = sorted({m for r in traced if r for m in r["missing"]})
    return solves, errors, metrics, values, repeat, missing


def main() -> int:
    ap = argparse.ArgumentParser(description="qptori benchmark")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "qptori" / "__init__.py").is_file():
        print(f"error: no qptori sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    w = WORKLOADS[args.workload]
    host = host_facts()
    if w.workers > host["nproc"]:
        print(json.dumps({"workload": w.name, "status": "not run",
                          "reason": f"needs {w.workers} workers, nproc is {host['nproc']}"}))
        return 3

    if args.trace:
        solves, errors, metrics, values, repeat, missing = traced_run(w, args.seed, deadline)
        wanted = spec["per_layer"]
    else:
        solves, errors, metrics, values = timed_run(w, args.seed, args.seconds, deadline)
        repeat, missing = None, []
        wanted = spec["end_to_end"]
    names = {m["name"] for m in wanted}

    failed = sum(not solve_ok(r) for r in solves)
    versions = next((r["versions"] for r in solves if r), {})
    detail = {
        "workload": w.name,
        "seed": args.seed,
        "seed_used": w.uses_seed,  # desk_d2 is deterministic and ignores it
        "workers": w.workers,
        "host": {**host, **versions},
        "samples": {k: len(v) for k, v in values.items()},
        "unbounded_medians": {k: v for k, v in metrics.items() if k not in names},
        "values": values,
        "gates": [r["gate"] if r else None for r in solves],
        "errors": [e for e in errors if e],
        "exact_counts_repeat": repeat,
        "missing_spans": missing,
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0 and repeat is not False,
        "attempted": len(solves),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics.get(m["name"]), "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
