"""Dead-code and layering guards: every module-level import of the package
is used, every import names the standard library, the package itself or a
declared dependency, importing the CLI loads neither scipy nor the process
pool, every private module-level function, class or constant is read in
its own module, every public one (and every public method or property) is
read somewhere in the package or documented in ``qptori.__all__`` or the
README, every function parameter and local name is read, each name that
``_ONE_PLACE`` covers is read only by its owners, no module reads another
one's private names beyond those ``_PRIVATE_IMPORTS`` lists, every name
the benchmark's tracer wraps still exists, is called where it is wrapped
and reads its sizes where they are, and the benchmark's CLI config still
loads.

No linter ships with the project, so these stdlib ``ast`` checks stand in
for one.  ``__init__.py`` is exempt from the import check: its imports are
the public re-exports.
"""

import ast
import fnmatch
import functools
import importlib
import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import qptori
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


def _declared_dependencies() -> set[str]:
    """Import names of the distributions in ``[project] dependencies``."""
    tomllib = pytest.importorskip("tomllib", reason="tomllib is new in Python 3.11")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    names = (re.match(r"[A-Za-z0-9._-]+", dep).group() for dep in project["dependencies"])
    return {name.lower().replace("-", "_") for name in names}


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_declared(path):
    # function-local imports included: a module that only an optional code
    # path imports is still a dependency of the package
    allowed = set(sys.stdlib_module_names) | _declared_dependencies()
    tree = ast.parse(path.read_text(), filename=str(path))
    stray = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots = [node.module.split(".")[0]]
        else:  # not an import, or a relative one: the package itself
            continue
        stray += [f"{path.name}:{node.lineno} {root}" for root in roots if root not in allowed]
    assert not stray, f"imports of undeclared packages: {', '.join(stray)}"


def test_cli_import_loads_no_scipy_and_no_pool():
    # a fresh interpreter: this one has loaded whatever the other tests use
    code = "import sys, qptori.cli; print(*sorted(sys.modules))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    loaded = [
        m for m in out if m in ("scipy", "concurrent.futures.process") or m.startswith("scipy.")
    ]
    assert not loaded, f"import qptori.cli loads {', '.join(loaded)}"


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


def _public_names(tree: ast.Module) -> dict[str, int]:
    """Each public module-level function, class or constant, and each public
    method or property of a module-level class (``Class.name``) -> its line."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names[node.name] = node.lineno
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        names[f"{node.name}.{item.name}"] = item.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for t in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(t, ast.Name):
                    names[t.id] = node.lineno
    return {q: line for q, line in names.items() if not q.split(".")[-1].startswith("_")}


def _read_in_src() -> set[str]:
    """Every name or attribute that ``src/`` loads, and every name it imports."""
    read = set()
    for path in SRC.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {a.name for a in node.names}
    return read


def _documented() -> set[str]:
    """``qptori.__all__`` and every identifier the README shows in backticks,
    inline or fenced."""
    text = (ROOT / "README.md").read_text()
    code = re.findall(r"```.*?```|`[^`\n]+`", text, flags=re.S)
    return set(qptori.__all__) | {w for span in code for w in re.findall(r"[A-Za-z_]\w*", span)}


def test_public_names_are_read():
    # the public API is what the package itself uses and what it documents;
    # a name that only tests read is dead weight.  An exported class does not
    # exempt its methods.
    keep = _read_in_src() | _documented()
    unread = sorted(
        f"{path.name}:{line} {qual}"
        for path in sorted(SRC.glob("*.py"))
        for qual, line in _public_names(ast.parse(path.read_text())).items()
        if qual.split(".")[-1] not in keep
    )
    assert not unread, f"public names neither read in src/ nor documented: {', '.join(unread)}"


# Decisions that one place owns, by rule: why the rule holds, the fnmatch
# patterns of the dotted names it covers (as ``_reads`` spells them), and the
# functions (file, qualified name) that may read them; no owner means
# nowhere.  The test named after each rule picks the files it reads.
_ONE_PLACE = {
    "fft": (
        "the benchmark counts FFTs (fourier.fft_calls) by wrapping fourier.analyze and "
        "fourier.synthesize, so a transform anywhere else would go uncounted",
        ("*.fft.*fft", "*.fft.*fft[2n]"),  # not fftfreq or fftshift: they transform nothing
        {("fourier.py", "analyze"), ("fourier.py", "synthesize")},
    ),
    "section_map": (
        "every grid sweep goes through LiftedMap's one route loop, so the lift alone knows "
        "the section routes and the benchmark's section-map count sees every call",
        ("qptori.flowmap.section_map",),
        {("multishoot.py", "LiftedMap._sweep")},
    ),
    "eig": (
        "the torus, Floquet and manifold equations share one eigenbasis solve; an eig or "
        "cond elsewhere would start a second one (eigvals is allowed)",
        ("*.linalg.eig", "*.linalg.cond"),
        {("torus.py", "_solve_eigenbasis"), ("manifold.py", "eigen_pick")},
    ),
    "artifact_read": (
        "a second read path could skip the checks of the whole artifact or of the run",
        ("qptori.*.load",),  # TorusSolution, ManifoldExpansion and FourierField
        {("cli.py", "_load_artifact")},
    ),
    "run_build": (
        "a second build of the run would check the config after --out is made",
        ("qptori.cli._build_map",),
        {("cli.py", "main")},
    ),
    "reflection": (
        "theta -> -theta is an index permutation of the grid, exact only as "
        "fourier.reflect_grid writes it; a second copy could disagree with it",
        ("numpy.flip*", "numpy.roll*"),
        {("fourier.py", "reflect_grid")},
    ),
    "reversor": (
        "whether a map is reversible (a field's reversor, on an r = 1 lift) is decided "
        "once, where the lift is built, for the manifold expansions and the torus report alike",
        ("*.field.reversor",),
        {("multishoot.py", "LiftedMap.__init__")},
    ),
    "tolerance": (
        "a sweep's integrator tolerance is its PoincareSpec's tol: the integrator reads "
        "it per chunk, and Newton reads it to loosen a copy of the spec for a loose pass",
        ("*.P.tol",),
        {("flowmap.py", "_advance_chunk"), ("torus.py", "run_newton")},
    ),
    "environment": (
        "run settings come from the config file and the command line only",
        ("os.environ*", "os.getenv*"),
        set(),
    ),
    "layering": (
        "the map layer runs under the algorithms and imports nothing from them",
        ("qptori.torus*", "qptori.manifold*", "qptori.verify*", "qptori.cli*"),
        set(),
    ),
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _source(node: ast.ImportFrom) -> str:
    """The module a ``from`` import reads from; a relative one is in qptori."""
    if not node.level:
        return node.module
    return "qptori" + (f".{node.module}" if node.module else "")


def _aliases(tree: ast.Module) -> dict[str, str]:
    """Each name an import binds anywhere in the module -> what it stands for."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                bound = a.asname or a.name.partition(".")[0]
                aliases[bound] = a.name if a.asname else bound
        elif isinstance(node, ast.ImportFrom):
            aliases.update({a.asname or a.name: f"{_source(node)}.{a.name}" for a in node.names})
    return aliases


def _dotted(node: ast.AST) -> str | None:
    """``a.b.c`` for a name that is read or an attribute chain on one."""
    if isinstance(node, ast.Name):
        return node.id if isinstance(node.ctx, ast.Load) else None
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


@functools.cache
def _reads(path: Path) -> list[tuple[str, str, int]]:
    """Each dotted name the file reads, the qualified function that reads it
    ("" at module level) and its line.  An alias reads what it stands for,
    any other name the module's own, and an attribute chain on a name is one
    read.  An import reads the module it loads: ``from .torus import X`` and
    ``from . import torus`` both read ``qptori.torus``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = _aliases(tree)
    module = "qptori" if path.stem == "__init__" else f"qptori.{path.stem}"
    reads = []

    def visit(node, scope):
        if isinstance(node, ast.Import):
            reads.extend((a.name, scope, node.lineno) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            source = _source(node)
            loaded = [f"{source}.{a.name}" for a in node.names] if source == "qptori" else [source]
            reads.extend((name, scope, node.lineno) for name in loaded)
        dotted = _dotted(node)
        if dotted:
            head, _, tail = dotted.partition(".")
            name = aliases.get(head, f"{module}.{head}")
            reads.append((f"{name}.{tail}" if tail else name, scope, node.lineno))
            return
        # decorators, defaults and base classes run in the enclosing scope
        body = node.body if isinstance(node, _DEFS) else []
        inner = f"{scope}.{node.name}".lstrip(".") if body else scope
        for child in ast.iter_child_nodes(node):
            visit(child, inner if child in body else scope)

    visit(tree, "")
    return reads


def _check_one_place(rule: str, path: Path) -> None:
    why, patterns, owners = _ONE_PLACE[rule]
    found = [
        f"{path.name}:{line} {func or '<module>'} reads {name}"
        for name, func, line in _reads(path)
        if any(fnmatch.fnmatchcase(name, p) for p in patterns)
        and not any(path.name == f and f"{func}.".startswith(f"{q}.") for f, q in owners)
    ]
    assert not found, f"{why}: {', '.join(found)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_fft_runs_only_in_analyze_and_synthesize(path):
    _check_one_place("fft", path)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_section_map_runs_only_in_the_lifted_sweep(path):
    _check_one_place("section_map", path)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_eig_runs_only_in_the_eigenbasis_solve(path):
    _check_one_place("eig", path)


def test_cli_reads_and_builds_in_one_place():
    _check_one_place("artifact_read", SRC / "cli.py")
    _check_one_place("run_build", SRC / "cli.py")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_reflection_and_reversor_in_one_place(path):
    _check_one_place("reflection", path)
    _check_one_place("reversor", path)


def test_reversor_rule_refuses_a_second_reading(tmp_path):
    # an expansion that decides reversibility from the field itself
    path = tmp_path / "manifold.py"
    path.write_text("def stable_expansion(sol, qpmap, m):\n    R = qpmap.P.field.reversor\n")
    with pytest.raises(AssertionError, match="stable_expansion reads qptori.manifold.qpmap.P"):
        _check_one_place("reversor", path)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_tolerance_read_in_one_place(path):
    _check_one_place("tolerance", path)


def test_tolerance_rule_refuses_a_per_call_tolerance(tmp_path):
    # a section_map that takes its own tol, falling back on the spec's
    path = tmp_path / "flowmap.py"
    path.write_text(
        "def section_map(P, j, x, thetas, spec, inverse=False, tol=None):\n"
        "    tol = P.tol if tol is None else tol\n"
    )
    with pytest.raises(AssertionError, match="section_map reads qptori.flowmap.P.tol"):
        _check_one_place("tolerance", path)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_environment_is_not_read(path):
    _check_one_place("environment", path)


@pytest.mark.parametrize(
    "name", ("errors", "fourier", "jets", "parallel", "flowmap", "models", "multishoot")
)
def test_map_layer_does_not_import_algorithms(name):
    _check_one_place("layering", SRC / f"{name}.py")


# Each private name of one package module that another reads, as (file,
# "module.name").  The list may only shrink: every entry couples two modules
# past the public names of one of them.
_PRIVATE_IMPORTS = {
    ("manifold.py", "torus._json_floats"),
    ("manifold.py", "torus._matvec"),
    ("manifold.py", "torus._point_norm_max"),
    ("verify.py", "manifold._direction"),
    ("verify.py", "torus._point_norm_max"),
}
_STEMS = {p.stem for p in SRC.glob("*.py")}


def _private_imports(path: Path) -> dict[str, int]:
    """Each private name of another package module that the file reads, as
    ``module.name`` -> the first line that reads it.  An imported name that
    nothing reads is ``test_module_imports_are_used``'s to catch."""
    found = {}
    for name, _, line in _reads(path):
        parts = name.split(".")
        if len(parts) < 3 or parts[0] != "qptori" or parts[1] not in _STEMS - {path.stem}:
            continue
        if parts[2].startswith("_") and not parts[2].startswith("__"):
            found.setdefault(f"{parts[1]}.{parts[2]}", line)
    return found


def _check_private_imports(path: Path) -> None:
    stray = [
        f"{path.name}:{line} reads {name}"
        for name, line in _private_imports(path).items()
        if (path.name, name) not in _PRIVATE_IMPORTS
    ]
    assert not stray, f"private names read from another module: {', '.join(stray)}"


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_private_imports_are_listed(path):
    _check_private_imports(path)


def test_private_imports_list_is_current():
    found = {(p.name, name) for p in SRC.glob("*.py") for name in _private_imports(p)}
    stale = sorted(f"{f} {name}" for f, name in _PRIVATE_IMPORTS - found)
    assert not stale, f"no longer read, drop from _PRIVATE_IMPORTS: {', '.join(stale)}"


@pytest.mark.parametrize(
    "name, imported", [("cli.py", "_reversor"), ("verify.py", "_direction, _reversor")]
)
def test_private_imports_refuse_a_new_one(tmp_path, name, imported):
    # the private reversor helper that cli and verify once read from manifold;
    # verify's _direction stays on the list
    path = tmp_path / name
    path.write_text(
        f"from .manifold import {imported}\n\n\ndef f(q):\n    return {imported}, _reversor(q)\n"
    )
    with pytest.raises(AssertionError, match=rf"module: {name}:5 reads manifold\._reversor\n"):
        _check_private_imports(path)


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
    P = flowmap.PoincareSpec(pendulum_field(d=1), tol=1e-10, r=4)
    rng = np.random.default_rng(0)
    x = np.array([np.pi, 0.0]) + 0.01 * rng.standard_normal((5, 2))
    thetas = rng.random((5, 1))
    for seeds, spec in (
        (x[..., None], jets.REAL),
        jets.seed_gradient(x),
        jets.seed_series(np.stack([x, np.ones_like(x)]), 3),
    ):
        flowmap.section_map(P, 1, seeds, thetas, spec)
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


def test_tracer_targets_are_called_where_wrapped():
    # the tracer replaces a function in the module it names; a module that
    # binds the function by name calls the unwrapped one, so its spans go
    # unrecorded, unless the tracer wraps that binding too.  __init__.py only
    # re-exports: src/ calls nothing through it
    tracing = _load_perfbench("tracing")
    wrapped = {f"{owner}.{attr}" for _, owner, attr, _, _ in tracing.TARGETS if ":" not in owner}
    bound = sorted(
        f"{path.name} {name}"
        for path in MODULES
        for name, target in _aliases(ast.parse(path.read_text())).items()
        if target in wrapped and f"qptori.{path.stem}.{name}" not in wrapped
    )
    assert not bound, f"tracer targets bound by name, so called unwrapped: {', '.join(bound)}"


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
