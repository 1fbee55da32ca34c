"""Batch driver: compute a torus, expand its manifolds, verify, export slices.

Runs are described by a plain INI config file (see ``example_config`` below)
so an experiment is a diff-able text record.  The file is the only source of
run settings besides the command line: ``_KEYS`` lists every key it may hold,
and ``--threads`` overrides ``[run] threads``.  The model is the built-in
forced pendulum; other fields run through the Python API.  The config is
checked and the run (mesh and lift) built before anything is written.
``torus``, ``manifold`` and ``verify`` end with a machine-readable JSON
report plus a human log in the output directory when they exit 0 or 1;
``slice`` writes only its CSV, and a run that stops with exit 2-6 writes
neither.  Exit codes: 0 success, 1 generic/test failure, 2 no convergence,
3 resonance, 4 unsupported spectrum, 5 unreadable or mismatched artifact,
config or command line, or an output that cannot be written, 6 integration
failure.
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
from .fourier import MeshSpec
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


def _words(cast, sep=None):
    def words(text):
        return tuple(cast(word) for word in text.split(sep))

    words.__name__ = f"{cast.__name__} list"  # argparse's usage error names the type by it
    return words


def _scaling(text: str) -> str | float:
    if text == "auto":
        return text
    value = float(text)
    if not 0.0 < value < np.inf:
        raise ValueError(f"scaling must be auto or a positive number, got {text!r}")
    return value


# Every accepted (section, key), as configparser spells it (keys lower-case):
# the RunConfig field the value sets, or None for a parameter of the
# pendulum (passed to ``pendulum_field`` under the key's name), and the
# parser of its text.  Any other section or key is refused.
_KEYS = {
    ("model", "name"): ("model", str),
    ("model", "d"): (None, int),
    ("model", "alpha"): (None, float),
    ("model", "eps"): (None, float),
    ("model", "omega"): (None, _words(float)),
    ("mesh", "n"): ("mesh", _words(int)),
    ("newton", "tol"): ("newton_tol", float),
    ("newton", "max_iter"): ("max_iter", int),
    ("integrator", "tol"): ("integrator_tol", float),
    ("manifold", "order"): ("manifold_order", int),
    ("manifold", "branches"): ("branches", _words(str)),
    ("manifold", "scaling"): ("scaling", _scaling),
    ("run", "sections"): ("sections", int),
    ("run", "threads"): ("threads", int),
    ("run", "test_tol"): ("test_tol", float),
}


@dataclass
class RunConfig:
    model: str = "pendulum"
    model_params: dict = dc_field(default_factory=dict)
    mesh: tuple | None = None  # N = 31 on each of the model's angles
    newton_tol: float = 1e-10
    max_iter: int = 12
    integrator_tol: float = 1e-14
    manifold_order: int = 6
    branches: tuple = ("unstable", "stable")
    scaling: str | float = "auto"
    sections: int = 1
    threads: int = 1
    test_tol: float = 1e-10

    @classmethod
    def from_file(cls, path: str) -> "RunConfig":
        """Parse and check a config file; any fault is an ``ArtifactError``."""
        parser = configparser.ConfigParser()
        try:
            if not parser.read(path):
                raise ArtifactError(f"cannot read config file {path}")
            cfg = cls._from_parser(parser)
            cfg._check()
        except (configparser.Error, ValueError) as exc:
            detail = " ".join(str(exc).split())  # configparser's messages span lines
            raise ArtifactError(f"bad config file {path}: {detail}") from exc
        return cfg

    def _check(self) -> None:
        """Refuse values that a run would otherwise trip over only after computing."""
        if self.model != "pendulum":
            raise ValueError(f"unknown model {self.model!r}; the command line runs the pendulum")
        if self.manifold_order < 1:
            raise ValueError("order must be at least 1")
        NewtonConfig(tol=self.newton_tol, max_iter=self.max_iter)  # refuses its own bad values
        if not 0.0 < self.test_tol < np.inf:
            raise ValueError(f"test_tol must be positive and finite, got {self.test_tol}")
        if not self.branches:
            raise ValueError("branches must name unstable and/or stable")
        for branch in self.branches:
            if branch not in ("unstable", "stable"):
                raise ValueError(f"unknown branch {branch!r} (use unstable and/or stable)")

    @classmethod
    def _from_parser(cls, parser: configparser.ConfigParser) -> "RunConfig":
        # configparser copies [DEFAULT] entries into every section
        if parser.defaults():
            raise ValueError(f"[DEFAULT] entries are not accepted: {', '.join(parser.defaults())}")
        cfg = cls()
        sections = {section for section, _ in _KEYS}
        for section in parser.sections():
            if section not in sections:
                raise ValueError(f"unknown section [{section}]")
            for key, text in parser.items(section):
                if (section, key) not in _KEYS:
                    raise ValueError(f"unknown key {key!r} in [{section}]")
                name, parse = _KEYS[section, key]
                try:
                    value = parse(text)
                except ValueError as exc:
                    raise ValueError(f"[{section}] {key}: {exc}") from None
                if name is None:
                    cfg.model_params[key] = value
                else:
                    setattr(cfg, name, value)
        return cfg


def _build_map(cfg: RunConfig) -> tuple[MeshSpec, LiftedMap]:
    """The configured run's mesh and lift; a value that they refuse is an
    ``ArtifactError``."""
    try:
        field = models.pendulum_field(**cfg.model_params)
        mesh = MeshSpec(cfg.mesh or (31,) * field.d)
        # sections = 1 is the r = 1 lift, the plain return map
        lift = LiftedMap(PoincareSpec(field, tol=cfg.integrator_tol, r=cfg.sections))
        if mesh.d != field.d:
            raise ValueError(f"mesh has {mesh.d} angles but the model forces {field.d}")
    except ValueError as exc:
        raise ArtifactError(f"bad config: {exc}") from exc
    return mesh, lift


class _Log:
    def __init__(self, path: Path):
        self.path = path
        self.lines = []

    def __call__(self, msg: str):
        print(msg)
        self.lines.append(msg)

    def flush(self):
        self.path.write_text("\n".join(self.lines) + "\n")


def _timing(t0: float) -> dict:
    """The wall time since ``t0``, the worker count and the phase profile of a run report."""
    wall = time.perf_counter() - t0
    return {
        "wall_time": wall,
        "workers": parallel.get_workers(),
        "profile": {
            "seconds": dict(parallel.profile.seconds),
            "map_eval_fraction": parallel.profile.fraction("map_eval", wall),
        },
    }


def _finish(out: Path, name: str, report: dict, log: _Log) -> None:
    with open(out / f"{name}_report.json", "w") as fh:
        json.dump(report, fh, indent=1)
    log.flush()


def _load_artifact(
    prefix: str, run: tuple[MeshSpec, LiftedMap] | None = None, torus_only: bool = False
) -> TorusSolution | ManifoldExpansion:
    """The torus or manifold artifact at ``prefix``, told apart by the files
    found there (``torus_only`` reads a torus).  Given the configured run's
    ``(mesh, lift)``, refuse an artifact whose mesh, state size or rotation
    (the section count and the frequencies) differ from it."""
    if torus_only or Path(f"{prefix}.phi.bin").exists():
        art = TorusSolution.load(prefix)
    elif Path(f"{prefix}.a0.bin").exists():
        art = ManifoldExpansion.load(prefix)
    else:
        raise ArtifactError(f"no artifact found at prefix {prefix}")
    if run is None:
        return art
    mesh, lift = run
    if art.mesh.shape != mesh.shape:
        raise ArtifactError(
            f"artifact {prefix} mesh {art.mesh.shape} does not match "
            f"the configured mesh {mesh.shape}"
        )
    rho = np.asarray(lift.rho, dtype=float)
    if art.n != lift.n or art.rho.shape != rho.shape or not np.allclose(
        art.rho, rho, rtol=0.0, atol=1e-12
    ):
        raise ArtifactError(
            f"artifact {prefix} (n={art.n}, rho={art.rho.tolist()}) does not match "
            f"the configured map (n={lift.n}, rho={rho.tolist()}, sections={lift.r})"
        )
    return art


def cmd_torus(cfg: RunConfig, run: tuple, out: Path, resume: str | None) -> int:
    mesh, lift = run
    log = _Log(out / "torus.log")
    if resume:
        prev = _load_artifact(resume, run, torus_only=True)
        phi0, C0, B0 = prev.phi, prev.C, prev.B
        log(f"seed: previous run {resume}")
    else:
        phi0, C0, B0 = lifted_seed(lift, mesh, np.array([np.pi, 0.0]))  # the pendulum's saddle
        log("seed: builtin")
    ncfg = NewtonConfig(tol=cfg.newton_tol, max_iter=cfg.max_iter)
    parallel.profile.reset()
    t0 = time.perf_counter()
    sol = run_newton(lift, phi0, C0, B0, ncfg)
    tests = torus_suite(lift, sol.phi, cfg.test_tol)
    timing = _timing(t0)  # Newton and the tests: every map_eval phase
    for i, h in enumerate(sol.history):
        log(
            f"iter {i}: invariance {h['invariance']:.3e}  reducibility {h['reducibility']:.3e}"
            f"  map tol {h['map_tol']:.1e}"
        )
    eigs = np.sort(np.abs(sol.eigenvalues()))
    log(f"eigenvalue magnitudes: {', '.join(f'{v:.15e}' for v in eigs)}")
    for t in tests:
        log(str(t))
    sol.save(str(out / "torus"))
    wall, frac = timing["wall_time"], timing["profile"]["map_eval_fraction"]
    log(f"wall time {wall:.2f}s, map evaluation {100*frac:.1f}%, workers {timing['workers']}")
    report = {
        "command": "torus",
        "model": cfg.model,
        "model_params": cfg.model_params,
        "mesh": list(mesh.shape),
        "sections": cfg.sections,
        **timing,
        "solution": sol.report(),
        "tests": [t.as_dict() for t in tests],
    }
    _finish(out, "torus", report, log)
    if not all(t.passed for t in tests):
        return 1
    return 0


def _expand(sol, lift: LiftedMap, branch: str, m: int, scaling: str | float):
    fn = unstable_expansion if branch == "unstable" else stable_expansion
    if scaling != "auto":
        return fn(sol, lift, m, scaling), None
    exp = fn(sol, lift, m, 1.0)
    radius = estimate_radius(exp)
    if radius is not None and not 0.1 <= radius <= 10.0:
        return fn(sol, lift, m, radius), radius
    return exp, radius


def _manifold_tests(exp: ManifoldExpansion, lift: LiftedMap, tol: float) -> list:
    """Tests 2 and 4 on a manifold expansion."""
    return [test_tail(exp.coeffs[-1], tol), test_order(exp, lift)]


def cmd_manifold(cfg: RunConfig, run: tuple, out: Path, resume: str | None) -> int:
    _, lift = run
    sol = _load_artifact(resume or str(out / "torus"), run, torus_only=True)
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
        tests = _manifold_tests(exp, lift, cfg.test_tol)
        for t in tests:
            log(f"  {t}")
        name = str(out / f"manifold_{branch}")
        exp.save(name)
        _slice_manifold_csv(
            exp, out / f"manifold_{branch}_slice.csv", _slice_thetas(exp.mesh, 1, count=33), 1
        )
        orders_ok = all(e <= cfg.test_tol for e in exp.order_errors)
        ok = ok and orders_ok and all(t.passed for t in tests)
        report["branches"][branch] = {
            "lambda": exp.lam,
            "scaling": exp.scaling,
            "estimated_radius": radius,
            "order_errors": exp.order_errors,
            "orders_pass": orders_ok,
            "transport_tails": exp.transport_tails,  # JSON keys: the orders as strings
            "tests": [t.as_dict() for t in tests],
        }
    report.update(_timing(t0))
    log(f"wall time {report['wall_time']:.2f}s")
    _finish(out, "manifold", report, log)
    return 0 if ok else 1


def _slice_thetas(mesh: MeshSpec, axis: int, fixed=(), count: int | None = None) -> np.ndarray:
    """The line of angles a slice tabulates: angle ``axis`` (1-based) sweeps
    [0, 1) in ``count`` steps (default: its mesh size), and the other angles
    sit at ``fixed`` (default: 0)."""
    d = mesh.d
    if not 1 <= axis <= d:
        raise ArtifactError(f"--axis {axis} is outside 1..{d} for this artifact")
    if fixed and len(fixed) != d - 1:
        raise ArtifactError(f"--fixed needs {d - 1} values for this artifact, got {len(fixed)}")
    if not np.isfinite(fixed).all():
        raise ArtifactError(f"--fixed takes finite angles, got {', '.join(map(str, fixed))}")
    if count is not None and count < 1:
        raise ArtifactError(f"--count must be positive, got {count}")
    count = count or mesh.shape[axis - 1]
    thetas = np.zeros((count, d))
    thetas[:, [j for j in range(d) if j != axis - 1]] = fixed or 0.0
    thetas[:, axis - 1] = np.linspace(0.0, 1.0, count, endpoint=False)
    return thetas


def _slice_torus_csv(sol: TorusSolution, path, thetas: np.ndarray, axis: int) -> None:
    with open(path, "w") as fh:
        fh.write(",".join([f"theta{axis}"] + [f"x{i}" for i in range(sol.n)]) + "\n")
        for th, v in zip(thetas[:, axis - 1], sol.phi.evaluate(thetas)):
            fh.write(",".join([f"{th:.17e}"] + [f"{c:.17e}" for c in v]) + "\n")


def _slice_manifold_csv(exp: ManifoldExpansion, path, thetas: np.ndarray, axis: int) -> None:
    sigmas = np.linspace(-1.0, 1.0, 9)
    values = exp.evaluate(thetas, sigmas)
    with open(path, "w") as fh:
        fh.write(",".join([f"theta{axis}", "sigma"] + [f"w{i}" for i in range(exp.n)]) + "\n")
        for th, row_values in zip(thetas[:, axis - 1], values):
            for s, w in zip(sigmas, row_values):
                row = [f"{th:.17e}", f"{s:.17e}"] + [f"{v:.17e}" for v in w]
                fh.write(",".join(row) + "\n")


def cmd_verify(cfg: RunConfig, run: tuple, out: Path, artifacts: list[str]) -> int:
    _, lift = run
    log = _Log(out / "verify.log")
    reports = []
    ok = True
    for prefix in artifacts:
        art = _load_artifact(prefix, run)
        if isinstance(art, TorusSolution):
            kind, tests = "torus", torus_suite(lift, art.phi, cfg.test_tol)
        else:
            kind, tests = "manifold", _manifold_tests(art, lift, cfg.test_tol)
        log(f"{kind} {prefix}:")
        for t in tests:
            log(f"  {t}")
        ok = ok and all(t.passed for t in tests)
        reports.append({"artifact": prefix, "kind": kind, "tests": [t.as_dict() for t in tests]})
    _finish(out, "verify", {"command": "verify", "artifacts": reports}, log)
    return 0 if ok else 1


def cmd_slice(args) -> int:
    art = _load_artifact(args.artifact)
    write = _slice_torus_csv if isinstance(art, TorusSolution) else _slice_manifold_csv
    thetas = _slice_thetas(art.mesh, args.axis, args.fixed, args.count)
    write(art, args.output, thetas, args.axis)
    return 0


class _Parser(argparse.ArgumentParser):
    """Command-line usage errors exit 5, like every other refused input,
    through ``main``'s one-line error report (argparse's own exit code, 2,
    means no convergence here)."""

    def error(self, message):
        raise ArtifactError(f"{self.prog}: {message}")


def main(argv=None) -> int:
    parser = _Parser(
        prog="qptori",
        description="Invariant tori, Floquet data, and manifold expansions of "
        "quasi-periodically forced ODEs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, resume=True):
        p.add_argument("--config", required=True, help="INI run configuration")
        p.add_argument(
            "--threads", type=int, default=None, help="worker count; overrides [run] threads"
        )
        p.add_argument("--out", default=".", help="output directory")
        if resume:
            p.add_argument("--resume", default=None, help="artifact prefix of a previous run")

    common(sub.add_parser("torus", help="compute the torus and Floquet data"))
    common(sub.add_parser("manifold", help="expand the invariant manifolds"))
    pv = sub.add_parser("verify", help="re-run the accuracy tests on artifacts")
    common(pv, resume=False)
    pv.add_argument("artifacts", nargs="+", help="artifact prefixes")
    ps = sub.add_parser("slice", help="tabulate a torus or manifold slice as CSV")
    ps.add_argument("artifact", help="artifact prefix")
    ps.add_argument("--axis", type=int, default=1, help="angle index to sweep (1-based)")
    ps.add_argument(
        "--fixed", type=_words(float, ","), default=(), help="the other angles, comma-separated"
    )
    ps.add_argument("--count", type=int, default=None, help="number of sweep points")
    ps.add_argument("--output", default="slice.csv", help="CSV output path")

    try:
        args = parser.parse_args(argv)
        if args.command == "slice":
            return cmd_slice(args)
        cfg = RunConfig.from_file(args.config)
        run = _build_map(cfg)
        try:
            parallel.set_workers(cfg.threads if args.threads is None else args.threads)
        except ValueError as exc:
            raise ArtifactError(f"bad config or --threads: {exc}") from exc
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "torus":
            return cmd_torus(cfg, run, out, args.resume)
        if args.command == "manifold":
            return cmd_manifold(cfg, run, out, args.resume)
        return cmd_verify(cfg, run, out, args.artifacts)
    except OSError as exc:  # reads are refused where artifacts load: this is an output
        print(f"error: cannot write output: {exc}", file=sys.stderr)
        return ArtifactError.exit_code
    except QptoriError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
