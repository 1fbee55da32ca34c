"""One benchmark operation in a fresh interpreter: set up, solve, check.

    python3 perfbench/solve.py --workload newton_d4 --seed 1 [--setup-only] [--trace]

Set-up is what a user pays before the first map evaluation.  For the Newton
workloads that is importing qptori (mostly scipy), building the model and
``PoincareSpec``, sizing and warming the worker pool, and the seed
Jacobian.  For ``desk_d2`` it is the imports only: the CLI builds its own
model, map and seed Jacobian inside ``qptori torus``, so they count in the
solve.  The solve is the workload body.  The last line of standard output
is one JSON object with the timings, the peak memory, the correctness gate
and, with ``--trace``, the per-layer metrics of the solve.  ``run.py``
starts this script once per operation, from the root of the checkout that
holds this directory; ``desk_d2`` writes its artifacts under
``perfbench/_work/`` and removes them.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import (  # noqa: E402
    ALPHA,
    EPS,
    INTEGRATOR_TOL,
    MULTIPLIER_RTOL,
    NEWTON_TOL,
    RESIDUAL_TOL,
    SEED_OFFSET_MAX,
    WORKLOADS,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

DESK_CONFIG = """\
[model]
name = pendulum
d = {d}
alpha = {alpha}
eps = {eps}

[mesh]
N = {mesh}

[newton]
tol = {newton_tol}
max_iter = 12

[integrator]
tol = {integrator_tol}

[manifold]
order = {order}
branches = unstable stable
scaling = auto

[run]
sections = 1
threads = {workers}
test_tol = {test_tol}
"""


def seed_offset(seed: int):
    """A seeded perturbation of x0 with Euclidean norm at most SEED_OFFSET_MAX."""
    import numpy as np

    rng = np.random.default_rng(seed)
    angle = rng.uniform(0.0, 2.0 * np.pi)
    radius = SEED_OFFSET_MAX * rng.uniform(0.0, 1.0)
    return radius * np.array([np.cos(angle), np.sin(angle)])


def setup(w, seed: int, trace: bool) -> dict:
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np
    import qptori
    from qptori import cli, flowmap, fourier, models, multishoot, parallel

    if not Path(qptori.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"qptori imported from {qptori.__file__}, not from {ROOT / 'src'}")
    missing = None
    if trace:
        import tracing

        missing = tracing.install()
    if w.kind == "desk":  # the CLI builds its model, map and seed inside the solve
        return {"cli": cli, "missing": missing}
    field = models.pendulum_field(d=w.d, alpha=ALPHA, eps=EPS)
    P = flowmap.PoincareSpec(field, tol=INTEGRATOR_TOL, r=w.sections)
    lift = multishoot.LiftedMap(P)
    mesh = fourier.MeshSpec((w.N,) * w.d)
    parallel.set_workers(w.workers)
    if w.workers > 1:
        parallel.run_chunks(abs, list(range(w.workers)))  # start the pool's processes
    x0 = np.array([np.pi, 0.0])
    if w.uses_seed:
        x0 = x0 + seed_offset(seed)
    phi0, C0, B0 = multishoot.lifted_seed(lift, mesh, x0)
    return {"lift": lift, "seed": (phi0, C0, B0), "missing": missing}


def solve_desk(w, ctx, work: Path) -> tuple[dict, dict]:
    """qptori torus, then qptori manifold, in-process through cli.main."""
    cli = ctx["cli"]
    work.mkdir(parents=True, exist_ok=True)
    config = work / "run.ini"
    config.write_text(
        DESK_CONFIG.format(
            d=w.d,
            alpha=ALPHA,
            eps=EPS,
            mesh=" ".join([str(w.N)] * w.d),
            newton_tol=NEWTON_TOL,
            integrator_tol=INTEGRATOR_TOL,
            order=w.order,
            workers=w.workers,
            test_tol=RESIDUAL_TOL,
        )
    )
    argv = ["--config", str(config), "--out", str(work), "--threads", str(w.workers)]
    log = io.StringIO()
    with contextlib.redirect_stdout(log):
        t0 = time.perf_counter()
        torus_code = cli.main(["torus"] + argv)
        t1 = time.perf_counter()
        manifold_code = cli.main(["manifold"] + argv) if torus_code == 0 else None
        t2 = time.perf_counter()
    times = {"solve_s": t2 - t0, "torus_s": t1 - t0, "manifold_s": t2 - t1}
    gate = {"torus_exit": torus_code, "manifold_exit": manifold_code}
    gate["ok"] = (
        torus_code == 0
        and torus_tests_pass(work, gate)
        and manifold_code == 0
        and manifold_pass(w, work, gate)
    )
    shutil.rmtree(work, ignore_errors=True)
    return times, gate


def torus_tests_pass(work: Path, gate: dict) -> bool:
    """Tests 1-3 in the torus report passed at the configured tolerance."""
    tests = json.loads((work / "torus_report.json").read_text())["tests"]
    gate["torus_tests"] = {t["name"]: t["measured"] for t in tests}
    return [t["test"] for t in tests] == [1, 2, 3] and all(
        t["passed"] and t["tol"] <= 10 * RESIDUAL_TOL for t in tests
    )


def manifold_pass(w, work: Path, gate: dict) -> bool:
    """Every order error of both branches within tolerance, test 4 near m+1."""
    manifold_report = json.loads((work / "manifold_report.json").read_text())
    gate["order_errors_max"] = {}
    gate["test4_ratio"] = {}
    for branch in ("unstable", "stable"):
        rep = manifold_report["branches"][branch]
        gate["order_errors_max"][branch] = max(rep["order_errors"])
        (t4,) = [t for t in rep["tests"] if t["test"] == 4]
        gate["test4_ratio"][branch] = t4["measured"]
    return all(e <= RESIDUAL_TOL for e in gate["order_errors_max"].values()) and all(
        abs(r - (w.order + 1)) <= 0.5 for r in gate["test4_ratio"].values()
    )


def solve_newton(w, ctx) -> tuple[dict, dict]:
    """run_newton on the r-section lift; the r-th powers of its multipliers
    must match the reference multipliers of the return map."""
    import numpy as np
    from qptori import torus

    t0 = time.perf_counter()
    sol = torus.run_newton(ctx["lift"], *ctx["seed"], torus.NewtonConfig(tol=NEWTON_TOL))
    t1 = time.perf_counter()
    times = {"solve_s": t1 - t0}

    powers = np.linalg.eigvals(sol.B) ** w.sections
    powers = powers[np.argsort(np.abs(powers))]
    ref = np.repeat(np.asarray(w.multipliers), w.sections)
    rel = np.abs(powers - ref) / np.abs(ref)
    last = sol.history[-1]
    gate = {
        "multipliers": [float(abs(v)) for v in powers[:: w.sections]],
        "multiplier_rel_err": float(rel.max()),
        "residuals": [last["invariance"], last["reducibility"]],
        "newton_iters": len(sol.history) - 1,
    }
    gate["ok"] = bool(
        rel.max() <= MULTIPLIER_RTOL and max(gate["residuals"]) <= RESIDUAL_TOL
    )
    return times, gate


def versions() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    w = WORKLOADS[args.workload]

    ctx = setup(w, args.seed, args.trace)
    out = {"setup_s": time.perf_counter() - T_START, "versions": versions()}
    if not args.setup_only:
        if args.trace:
            import tracing

            tracing.REC.active = True
        if w.kind == "desk":
            times, gate = solve_desk(w, ctx, HERE / "_work" / f"{w.name}-{os.getpid()}")
        else:
            times, gate = solve_newton(w, ctx)
        out.update(times)
        out["gate"] = gate
        if args.trace:
            tracing.REC.active = False
            out["layers"] = tracing.layer_metrics(tracing.REC.spans, w.workers, ctx["missing"])
            out["missing"] = sorted(ctx["missing"])

    from qptori import parallel

    parallel.set_workers(1)  # shut the pool down and wait for its processes
    kib = 1024.0
    out["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / kib
    out["worker_peak_rss_mib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / kib
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
