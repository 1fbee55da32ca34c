"""Batch driver: compute a torus, expand its manifolds, verify, export slices.

Runs are described by a plain INI config file (see ``example_config`` below)
so an experiment is a diff-able text record.  Every command writes a
machine-readable JSON report plus a human log into the output directory.
Exit codes: 0 success, 1 generic/test failure, 2 no convergence,
3 resonance, 4 unsupported spectrum, 5 unreadable or mismatched artifact,
6 integration failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
import time
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import numpy as np

from . import models, parallel
from .errors import ArtifactError, QptoriError
from .flowmap import PoincareSpec
from .fourier import FourierField, MeshSpec
from .manifold import ManifoldExpansion, estimate_radius, stable_expansion, unstable_expansion
from .multishoot import LiftedMap, lifted_seed
from .torus import NewtonConfig, TorusSolution, run_newton
from .verify import test_order, test_tail, torus_suite

example_config = """\
[model]
name = pendulum
d = 2
alpha = 0.8
eps = 0.01

[mesh]
N = 31 31

[newton]
tol = 1e-10
max_iter = 12

[integrator]
tol = 1e-14

[manifold]
order = 6
branches = unstable stable
scaling = auto

[run]
sections = 1
threads = 1
test_tol = 1e-10
"""


@dataclass
class RunConfig:
    model: str = "pendulum"
    model_params: dict = dc_field(default_factory=dict)
    mesh: tuple = (31, 31)
    newton_tol: float = 1e-10
    max_iter: int = 12
    integrator_tol: float = 1e-14
    manifold_order: int = 6
    branches: tuple = ("unstable", "stable")
    scaling: str = "auto"
    sections: int = 1
    threads: int = 0  # 0 means "not set here"
    test_tol: float = 1e-10

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ArtifactError(f"cannot read config file {path}")
        cfg = cls()
        if parser.has_section("model"):
            sec = parser["model"]
            cfg.model = sec.get("name", cfg.model)
            params = {}
            for key in ("d",):
                if key in sec:
                    params[key] = sec.getint(key)
            for key in ("alpha", "eps"):
                if key in sec:
                    params[key] = sec.getfloat(key)
            if "omega" in sec:
                params["omega"] = tuple(float(w) for w in sec["omega"].split())
            cfg.model_params = params
        if parser.has_section("mesh") and "n" in parser["mesh"]:
            cfg.mesh = tuple(int(N) for N in parser["mesh"]["n"].split())
        if parser.has_section("newton"):
            cfg.newton_tol = parser["newton"].getfloat("tol", cfg.newton_tol)
            cfg.max_iter = parser["newton"].getint("max_iter", cfg.max_iter)
        if parser.has_section("integrator"):
            cfg.integrator_tol = parser["integrator"].getfloat("tol", cfg.integrator_tol)
        if parser.has_section("manifold"):
            sec = parser["manifold"]
            cfg.manifold_order = sec.getint("order", cfg.manifold_order)
            if "branches" in sec:
                cfg.branches = tuple(sec["branches"].split())
            cfg.scaling = sec.get("scaling", cfg.scaling)
        if parser.has_section("run"):
            sec = parser["run"]
            cfg.sections = sec.getint("sections", cfg.sections)
            cfg.threads = sec.getint("threads", cfg.threads)
            cfg.test_tol = sec.getfloat("test_tol", cfg.test_tol)
        return cfg


def _build_map(cfg: RunConfig):
    field = models.get(cfg.model, cfg.model_params)
    mesh = MeshSpec(cfg.mesh)
    if mesh.d != field.d:
        raise ArtifactError(
            f"mesh has {mesh.d} angles but the model forces {field.d}"
        )
    # sections = 1 is the r = 1 lift, the plain return map
    lift = LiftedMap(PoincareSpec(field, tol=cfg.integrator_tol, r=cfg.sections))
    return mesh, lift


def _builtin_seed(cfg: RunConfig, mesh: MeshSpec, lift: LiftedMap):
    if cfg.model != "pendulum":
        raise ArtifactError(
            f"no builtin seed for model {cfg.model!r}; use --resume with a previous run"
        )
    return lifted_seed(lift, mesh, np.array([np.pi, 0.0]))


class _Log:
    def __init__(self, path: Path):
        self.path = path
        self.lines = []

    def __call__(self, msg: str):
        print(msg)
        self.lines.append(msg)

    def flush(self):
        self.path.write_text("\n".join(self.lines) + "\n")


def _finish(out: Path, name: str, report: dict, log: _Log) -> None:
    with open(out / f"{name}_report.json", "w") as fh:
        json.dump(report, fh, indent=1, default=str)
    log.flush()


def _check_resume(
    prev: TorusSolution, prefix: str, mesh: MeshSpec, lift: LiftedMap, cfg: RunConfig
) -> None:
    """Refuse a torus artifact whose mesh, state size or rotation (the
    section count and the frequencies) differ from the configured run."""
    if prev.mesh.shape != mesh.shape:
        raise ArtifactError(
            f"torus artifact {prefix} mesh {prev.mesh.shape} does not match "
            f"the configured mesh {mesh.shape}"
        )
    rho = np.asarray(lift.rho, dtype=float)
    if prev.n != lift.n or prev.rho.shape != rho.shape or not np.allclose(
        prev.rho, rho, rtol=0.0, atol=1e-12
    ):
        raise ArtifactError(
            f"torus artifact {prefix} (n={prev.n}, rho={list(prev.rho)}) does not match "
            f"the configured map (n={lift.n}, rho={list(rho)}, sections={cfg.sections})"
        )


def cmd_torus(cfg: RunConfig, out: Path, resume: str | None) -> int:
    mesh, lift = _build_map(cfg)
    log = _Log(out / "torus.log")
    if resume:
        prev = TorusSolution.load(resume)
        _check_resume(prev, resume, mesh, lift, cfg)
        phi0, C0, B0 = prev.phi, prev.C, prev.B
        log(f"seed: previous run {resume}")
    else:
        phi0, C0, B0 = _builtin_seed(cfg, mesh, lift)
        log("seed: builtin")
    ncfg = NewtonConfig(tol=cfg.newton_tol, max_iter=cfg.max_iter)
    parallel.profile.reset()
    t0 = time.perf_counter()
    sol = run_newton(lift, phi0, C0, B0, ncfg)
    tests = torus_suite(lift, sol.phi, cfg.test_tol)
    wall = time.perf_counter() - t0  # Newton and the tests: every map_eval phase
    for i, h in enumerate(sol.history):
        log(f"iter {i}: invariance {h['invariance']:.3e}  reducibility {h['reducibility']:.3e}")
    eigs = np.sort(np.abs(sol.eigenvalues()))
    log(f"eigenvalue magnitudes: {', '.join(f'{v:.15e}' for v in eigs)}")
    for t in tests:
        log(str(t))
    sol.save(str(out / "torus"))
    frac = parallel.profile.fraction("map_eval", wall)
    log(f"wall time {wall:.2f}s, map evaluation {100*frac:.1f}%, workers {parallel.get_workers()}")
    report = {
        "command": "torus",
        "model": cfg.model,
        "model_params": cfg.model_params,
        "mesh": list(cfg.mesh),
        "sections": cfg.sections,
        "workers": parallel.get_workers(),
        "wall_time": wall,
        "profile": {
            "seconds": dict(parallel.profile.seconds),
            "map_eval_fraction": frac,
        },
        "solution": sol.report(),
        "tests": [t.as_dict() for t in tests],
    }
    _finish(out, "torus", report, log)
    if not all(t.passed for t in tests):
        return 1
    return 0


def _expand(sol, lift: LiftedMap, branch: str, m: int, scaling: str):
    fn = unstable_expansion if branch == "unstable" else stable_expansion
    if scaling != "auto":
        return fn(sol, lift, m, float(scaling)), None
    exp = fn(sol, lift, m, 1.0)
    radius = estimate_radius(exp)
    if np.isfinite(radius) and not 0.1 <= radius <= 10.0:
        return fn(sol, lift, m, radius), radius
    return exp, radius


def cmd_manifold(cfg: RunConfig, out: Path, resume: str | None) -> int:
    mesh, lift = _build_map(cfg)
    prefix = resume or str(out / "torus")
    sol = TorusSolution.load(prefix)
    _check_resume(sol, prefix, mesh, lift, cfg)
    log = _Log(out / "manifold.log")
    parallel.profile.reset()
    t0 = time.perf_counter()
    report = {
        "command": "manifold",
        "order": cfg.manifold_order,
        "branches": {},
    }
    ok = True
    for branch in cfg.branches:
        exp, radius = _expand(sol, lift, branch, cfg.manifold_order, cfg.scaling)
        log(f"{branch}: lambda {exp.lam:.15e}, scaling {exp.scaling}")
        for k, err in enumerate(exp.order_errors):
            log(f"  order {k}: relative invariance error {err:.3e}")
        tests = [
            test_tail(exp.coeffs[-1], cfg.test_tol),
            test_order(exp, lift),
        ]
        for t in tests:
            log(f"  {t}")
        name = str(out / f"manifold_{branch}")
        exp.save(name)
        _slice_manifold_csv(exp, out / f"manifold_{branch}_slice.csv")
        orders_ok = all(e <= cfg.test_tol for e in exp.order_errors)
        ok = ok and orders_ok and all(t.passed for t in tests)
        report["branches"][branch] = {
            "lambda": exp.lam,
            "scaling": exp.scaling,
            "estimated_radius": radius,
            "order_errors": exp.order_errors,
            "orders_pass": orders_ok,
            "tests": [t.as_dict() for t in tests],
        }
    wall = time.perf_counter() - t0
    report["wall_time"] = wall
    report["workers"] = parallel.get_workers()
    report["profile"] = {
        "seconds": dict(parallel.profile.seconds),
        "map_eval_fraction": parallel.profile.fraction("map_eval", wall),
    }
    log(f"wall time {wall:.2f}s")
    _finish(out, "manifold", report, log)
    return 0 if ok else 1


def _slice_manifold_csv(exp: ManifoldExpansion, path: Path, axis: int = 0, count: int = 33):
    thetas = np.zeros((count, exp.mesh.d))
    thetas[:, axis] = np.linspace(0.0, 1.0, count, endpoint=False)
    sigmas = np.linspace(-1.0, 1.0, 9)
    with open(path, "w") as fh:
        cols = [f"theta{axis+1}", "sigma"] + [f"w{i}" for i in range(exp.n)]
        fh.write(",".join(cols) + "\n")
        for th in thetas:
            for s in sigmas:
                w = exp.evaluate(th, s)
                row = [f"{th[axis]:.17e}", f"{s:.17e}"] + [f"{v:.17e}" for v in w]
                fh.write(",".join(row) + "\n")


def cmd_verify(cfg: RunConfig, out: Path, artifacts: list[str]) -> int:
    _, lift = _build_map(cfg)
    log = _Log(out / "verify.log")
    reports = []
    ok = True
    for prefix in artifacts:
        if Path(f"{prefix}.phi.bin").exists():
            sol = TorusSolution.load(prefix)
            tests = torus_suite(lift, sol.phi, cfg.test_tol)
            kind = "torus"
        elif Path(f"{prefix}.a0.bin").exists():
            exp = ManifoldExpansion.load(prefix)
            tests = [test_tail(exp.coeffs[-1], cfg.test_tol), test_order(exp, lift)]
            kind = "manifold"
        else:
            raise ArtifactError(f"no artifact found at prefix {prefix}")
        log(f"{kind} {prefix}:")
        for t in tests:
            log(f"  {t}")
        ok = ok and all(t.passed for t in tests)
        reports.append({"artifact": prefix, "kind": kind, "tests": [t.as_dict() for t in tests]})
    _finish(out, "verify", {"command": "verify", "artifacts": reports}, log)
    return 0 if ok else 1


def cmd_slice(args) -> int:
    prefix = args.artifact
    fixed = [float(v) for v in args.fixed.split(",")] if args.fixed else []
    if Path(f"{prefix}.phi.bin").exists():
        try:
            phi = FourierField.load(f"{prefix}.phi.bin")
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"cannot read torus artifact {prefix}: {exc}") from exc
        d = phi.mesh.d
        axis = args.axis - 1
        count = args.count or phi.mesh.shape[axis]
        thetas = np.zeros((count, d))
        others = [j for j in range(d) if j != axis]
        for j, v in zip(others, fixed):
            thetas[:, j] = v
        thetas[:, axis] = np.linspace(0.0, 1.0, count, endpoint=False)
        vals = phi.evaluate(thetas)
        with open(args.output, "w") as fh:
            cols = [f"theta{axis+1}"] + [f"x{i}" for i in range(phi.n)]
            fh.write(",".join(cols) + "\n")
            for th, v in zip(thetas[:, axis], vals):
                fh.write(",".join([f"{th:.17e}"] + [f"{c:.17e}" for c in v]) + "\n")
        return 0
    if Path(f"{prefix}.a0.bin").exists():
        exp = ManifoldExpansion.load(prefix)
        axis = args.axis - 1
        count = args.count or exp.mesh.shape[axis]
        _slice_manifold_csv(exp, Path(args.output), axis=axis, count=count)
        return 0
    raise ArtifactError(f"no artifact found at prefix {prefix}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="qptori",
        description="Invariant tori, Floquet data, and manifold expansions of "
        "quasi-periodically forced ODEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument("--threads", type=int, default=None, help="worker count")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--resume", default=None, help="artifact prefix of a previous run")

    common(sub.add_parser("torus", help="compute the torus and Floquet data"))
    common(sub.add_parser("manifold", help="expand the invariant manifolds"))
    pv = sub.add_parser("verify", help="re-run the accuracy tests on artifacts")
    common(pv)
    pv.add_argument("artifacts", nargs="+", help="artifact prefixes")
    ps = sub.add_parser("slice", help="tabulate a torus or manifold slice as CSV")
    ps.add_argument("artifact", help="artifact prefix")
    ps.add_argument("--axis", type=int, default=1, help="angle index to sweep (1-based)")
    ps.add_argument("--fixed", default="", help="comma-separated values of the other angles")
    ps.add_argument("--count", type=int, default=None, help="number of sweep points")
    ps.add_argument("--output", default="slice.csv", help="CSV output path")

    args = parser.parse_args(argv)
    try:
        if args.command == "slice":
            return cmd_slice(args)
        cfg = RunConfig.from_file(args.config)
        import os

        if args.threads is not None and args.threads > 0:
            threads = args.threads
        elif os.environ.get(parallel.ENV_THREADS):
            threads = parallel.default_workers()
        elif cfg.threads > 0:
            threads = cfg.threads
        else:
            threads = 1
        parallel.set_workers(threads)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "torus":
            return cmd_torus(cfg, out, args.resume)
        if args.command == "manifold":
            return cmd_manifold(cfg, out, args.resume)
        if args.command == "verify":
            return cmd_verify(cfg, out, args.artifacts)
        parser.error(f"unknown command {args.command}")
    except QptoriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    return 0


if __name__ == "__main__":
    sys.exit(main())
