"""Dead-code and layering guards: every module-level import of the package
is used, every private module-level function, class or constant is read in
its own module, every function parameter and local name is read, the map
layer imports nothing from the algorithm layer, no module reads the
environment, every name the benchmark's tracer wraps still exists and reads
its sizes where they are, and the benchmark's CLI config still loads.

No linter ships with the project, so these stdlib ``ast`` checks stand in
for one.  ``__init__.py`` is exempt from the import check: its imports are
the public re-exports.
"""

import ast
import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qptori import cli, flowmap, jets
from qptori.models import pendulum_field

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "qptori"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported_names(tree: ast.Module) -> dict[str, int]:
    """Name bound by each module-level import -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


def _private_names(tree: ast.Module) -> dict[str, int]:
    """Each private name defined at module level -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = [
                t.id
                for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                if isinstance(t, ast.Name)
            ]
        else:
            continue
        for name in targets:
            if name.startswith("_") and not name.startswith("__"):
                names[name] = node.lineno
    return names


def _used_names(tree: ast.Module) -> set[str]:
    """Every name read in the module, including quoted annotations."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for ann in annotations:
        for sub in ast.walk(ann):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                used |= _used_names(ast.parse(sub.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_imports_are_used(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unused = sorted(
        f"{path.name}:{line} {name}"
        for name, line in _imported_names(tree).items()
        if name not in used
    )
    assert not unused, f"unused imports: {', '.join(unused)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_names_are_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used_names(tree)
    unread = sorted(
        f"{path.name}:{line} {name}"
        for name, line in _private_names(tree).items()
        if name not in used
    )
    assert not unread, f"private names never read in their module: {', '.join(unread)}"


MAP_LAYER = ("errors", "fourier", "jets", "parallel", "flowmap", "models", "multishoot")
ALGORITHM_LAYER = {"torus", "manifold", "verify", "cli"}


def _imported_modules(tree: ast.Module) -> set[str]:
    """Last dotted component of every qptori module imported anywhere in
    the module, function-local imports included."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found |= {a.name.split(".")[-1] for a in node.names if a.name.startswith("qptori")}
        elif isinstance(node, ast.ImportFrom):
            if node.level == 0 and not (node.module or "").startswith("qptori"):
                continue
            if node.module and node.module != "qptori":
                found.add(node.module.split(".")[-1])
            else:  # from . import torus / from qptori import torus
                found |= {a.name for a in node.names}
    return found


@pytest.mark.parametrize("name", MAP_LAYER)
def test_map_layer_does_not_import_algorithms(name):
    tree = ast.parse((SRC / f"{name}.py").read_text())
    upward = sorted(_imported_modules(tree) & ALGORITHM_LAYER)
    assert not upward, f"{name}.py imports the algorithm layer: {', '.join(upward)}"


def _load_perfbench(name):
    """A benchmark module, loaded from its file; nothing is installed."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_perfbench_targets_resolve():
    # the tracer reports a vanished name as a missing metric instead of
    # failing, so a rename would otherwise go unnoticed
    tracing = _load_perfbench("tracing")
    missing = []
    for name, owner, attr, _, _ in tracing.TARGETS:
        modname, _, clsname = owner.partition(":")
        obj = importlib.import_module(modname)
        if clsname:  # the tracer wraps only what the class itself defines
            found = attr in getattr(obj, clsname, object).__dict__
        else:
            found = hasattr(obj, attr)
        if not found:
            missing.append(f"{name}: {owner}.{attr}")
    assert not missing, f"tracer targets missing from qptori: {', '.join(missing)}"


def test_perfbench_span_size_is_the_batch(monkeypatch):
    # flowmap.point_steps weights each span's step attempts by the size the
    # tracer reads from integrate_span's arguments: it must be the batch size,
    # whatever layout the integrator uses inside
    tracing = _load_perfbench("tracing")
    calls = []
    integrate_span = flowmap.integrate_span

    def recording(*args, **kwargs):
        calls.append((args, kwargs))
        return integrate_span(*args, **kwargs)

    monkeypatch.setattr(flowmap, "integrate_span", recording)
    monkeypatch.setattr(flowmap, "run_chunks", lambda fn, payloads: [fn(p) for p in payloads])
    P = flowmap.PoincareSpec(pendulum_field(d=1), tol=1e-10)
    rng = np.random.default_rng(0)
    x = np.array([np.pi, 0.0]) + 0.01 * rng.standard_normal((5, 2))
    thetas = rng.random((5, 1))
    for seeds, spec in (
        (x, jets.REAL),
        jets.seed_gradient(x),
        jets.seed_series(np.stack([x, np.ones_like(x)]), 3),
    ):
        flowmap.advance_grid(P, seeds, thetas, 0.0, 0.25, spec)
    sizes = [tracing._span_info(args, kwargs) for args, kwargs in calls]
    assert sizes == [("real", 5), ("grad", 5), ("series", 5)]


def test_perfbench_desk_config_loads(monkeypatch, tmp_path):
    # desk_d2 runs the CLI on the config that solve_desk writes: a key the
    # CLI stops accepting would make every run of that workload exit 5
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    solve = _load_perfbench("solve")
    loaded = []

    def main(argv):
        loaded.append(cli.RunConfig.from_file(argv[argv.index("--config") + 1]))
        return 1  # stop before the torus is computed

    desk = solve.WORKLOADS["desk_d2"]
    solve.solve_desk(desk, {"cli": SimpleNamespace(main=main)}, tmp_path / "work")
    (cfg,) = loaded
    assert cfg.mesh == (desk.N,) * desk.d and cfg.manifold_order == desk.order
    assert cfg.threads == desk.workers


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_environment_is_not_read(path):
    # run settings come from the config file and the command line only
    tree = ast.parse(path.read_text(), filename=str(path))
    knobs = {"environ", "getenv"}
    reads = [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if (
            isinstance(node, ast.Attribute)
            and node.attr in knobs
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
        )
        or (
            isinstance(node, ast.ImportFrom)
            and node.module == "os"
            and knobs & {a.name for a in node.names}
        )
    ]
    assert not reads, f"environment reads: {', '.join(reads)}"


def _only_raises_not_implemented(fn: ast.FunctionDef) -> bool:
    """True for an interface stub: an optional docstring, then
    ``raise NotImplementedError``."""
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    if len(body) != 1 or not isinstance(body[0], ast.Raise) or body[0].exc is None:
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_parameters_are_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if not isinstance(fn, ast.Lambda) and _only_raises_not_implemented(fn):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = fn.body if isinstance(fn.body, list) else [fn.body]
        read = {
            node.id
            for stmt in body
            for node in ast.walk(stmt)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        name = getattr(fn, "name", "<lambda>")
        unread += [
            f"{path.name}:{fn.lineno} {name}({p.arg})"
            for p in params
            if p.arg not in ("self", "cls") and p.arg not in read
        ]
    assert not unread, f"parameters never read: {', '.join(unread)}"


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn):
    """The nodes of a function body outside its nested functions and classes."""
    stack = list(fn.body) if isinstance(fn.body, list) else [fn.body]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(c for c in ast.iter_child_nodes(node) if not isinstance(c, _SCOPES))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_locals_are_read(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    unread = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # nested functions may read the enclosing function's locals
        read = {n.id for n in ast.walk(fn) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        declared = {
            name
            for node in _own_nodes(fn)
            if isinstance(node, (ast.Global, ast.Nonlocal))
            for name in node.names
        }
        stored = {
            (node.id, node.lineno)
            for node in _own_nodes(fn)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)
        }
        unread += [
            f"{path.name}:{line} {fn.name}: {name}"
            for name, line in sorted(stored)
            if name != "_" and name not in read and name not in declared
        ]
    assert not unread, f"local names assigned and never read: {', '.join(unread)}"
