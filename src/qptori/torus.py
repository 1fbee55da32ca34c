"""Newton iteration for reducible invariant tori of a quasi-periodic map.

Each iteration has two halves.  The torus half corrects the
parametrization phi(theta) by solving the cohomological equation
``u(theta+rho) = B u(theta) + g(theta)`` in Fourier space; the Floquet half
corrects the change C(theta) and the constant matrix B from the map
differentials, solving the Sylvester-type equation
``H(theta+rho) B - B H(theta) = Rtilde(theta)`` mode by mode.  Both halves
contract quadratically while above the round-off floor.  ``run_newton``
makes one pass, and one map sweep, per iterate: the sweep's differentials
finish the previous Floquet half, its images give both residuals, and the
torus half follows unless they pass.  C^{-1} is derived from C where it is
needed, never stored.

The Newton passes are inexact (Dembo, Eisenstat and Steihaug 1982;
Eisenstat and Walker 1996): a correction needs the map only about as
accurately as the residual it leaves behind, and the integrator's step
count grows like tol^(-1/8).  Pass 0 sweeps at ``_FIRST_PASS_TOL`` and
pass k at ``P.tol * r^4`` clamped to [P.tol, _FIRST_PASS_TOL], where r is
the larger residual of pass k-1; each sweeps the lift of a copy of P
with that ``tol``.  A loose pass whose invariance residual reads under
``_RESWEEP_BELOW`` (or under the Newton tolerance) is swept again at P.tol
before anything reads it, so no correction near the solution and no
convergence decision rests on a loose sweep.  Each history entry records
its sweep's tolerance as ``map_tol``.

A reversible map (a lift with ``reversor`` R, which implies r = 1) is
P = R Q^{-1} R Q, with Q the half-period map from section 0 to section
1/2 (Lamb and Roberts 1998), and its torus is symmetric, phi(theta) =
R phi(-theta).  Newton then sweeps only Q, half the integration of a full
pass.  It runs on the grid shifted by -c, 2c = rho: it iterates
psi = phi(. - c) and C(. - c), sweeps K(theta) = Q(psi(theta), theta - c),
and reads P's residual and differential at theta - c from K and its exact
grid reflection (``_half_period_sweep``); the torus and Floquet halves run
unchanged with rotation rho.  Shifting K and DQ by -rho onto the plain grid
instead would interpolate the section-1/2 torus, which needs more modes
than phi.  The seed and every torus correction are projected onto
psi(theta) = R psi(rho - theta) in coefficient space; deriving psi from phi
by a shift on every pass would put round-off into the sweep's input, which
DP multiplies by lambda_u.  Pass 0 adds the mean reducibility error to the
seed's B, the differential at one point, whose asymmetric step the
projection would otherwise cut at lambda_u times the residual.  After each
Floquet half-step the new C^{-1}(theta + rho) comes from the solved
equation, (Id + H(theta + rho))^{-1} C^{-1}(theta + rho), not from a
transform of the new C^{-1}; the full path keeps the transform, so that its
results stay as they were.

The torus, Floquet and manifold equations are one equation,
``X(theta+rho) A - B X(theta) = G`` on grid values: A = 1 for the torus,
A = lambda^m for manifold order m and A = B, with a zero-average X, for
the Floquet change.  It is solved in the eigenbases ``B = V diag(mu) V^{-1}``
and ``A = W diag(nu) W^{-1}``, with the stored mode ``kappa`` and phase
``psi = 2 pi <kappa, rho>``: every mode needs one division per entry, by
``exp(i psi) nu_j - mu_i``.  Going to the eigenbases and back amplifies
round-off by up to cond(V) cond(W), so the one divisor rule reads
``|divisor| / (cond(V) cond(W))``, which is ``|divisor| / cond(V)`` for a
vector (W = 1) and ``|divisor| / cond(V)^2`` for the Floquet change (W = V):
an ill-conditioned (or defective) B
warns and is refused like a small divisor.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from . import fourier  # analyze and synthesize looked up per call, where a tracer wraps them
from .errors import ArtifactError, ConvergenceError, ResonanceError
from .fourier import FourierField, MeshSpec, mode_phases, reflect_grid, shift_grid
from .multishoot import LiftedMap

_DIVISOR_WARN = 1e-8  # warn when a cohomological or Floquet divisor falls below this
_MONITOR_RATIO = 1e4  # resonance monitor: a mode this far above the previous shell's median
# inexact Newton (module docstring): the integrator tolerance of the first
# pass, and the invariance residual under which a loose pass is swept again
_FIRST_PASS_TOL = 1e-10
_RESWEEP_BELOW = 1e-4


def _json_floats(value, name: str, ndim: int) -> np.ndarray:
    """A JSON number (ndim 0), or nested lists of them, as a float array.

    float() would parse the string "2.5" and take true as 1, so an artifact
    holding either, or another number of axes, is refused with ValueError.
    """
    stack = [value]
    while stack:
        item = stack.pop()
        if isinstance(item, list):
            stack.extend(item)
        elif type(item) not in (int, float):
            raise ValueError(f"{name} holds {item!r}, not a JSON number")
    out = np.array(value, dtype=float)
    if out.ndim != ndim:
        raise ValueError(f"{name} has {out.ndim} axes, not {ndim}")
    return out


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-10
    max_iter: int = 12

    def __post_init__(self):
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"newton tol must be positive and finite, got {self.tol}")
        if self.max_iter < 0:
            raise ValueError(f"max_iter must be non-negative, got {self.max_iter}")


@dataclass
class TorusSolution:
    phi: FourierField
    C: np.ndarray  # grid values of the Floquet change, shape mesh.shape + (n, n)
    B: np.ndarray
    rho: np.ndarray
    history: list = dc_field(default_factory=list)
    monitor_flags: list = dc_field(default_factory=list)

    @property
    def mesh(self) -> MeshSpec:
        return self.phi.mesh

    @property
    def n(self) -> int:
        return self.phi.n

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvals(self.B)

    def _meta(self) -> dict:
        """The fields of the artifact's JSON, which the run report also carries."""
        return {
            "n": self.n,
            "rho": list(map(float, self.rho)),
            "B": self.B.tolist(),
            "history": self.history,
            "monitor_flags": [list(map(int, k)) for k in self.monitor_flags],
        }

    def report(self) -> dict:
        eigs = sorted(self.eigenvalues(), key=lambda v: (v.real, v.imag))
        return {
            **self._meta(),
            "eigenvalues": [float(v.real) if abs(v.imag) < 1e-12 else str(v) for v in eigs],
        }

    def save(self, prefix: str) -> None:
        self.phi.save(f"{prefix}.phi.bin")
        cfield = FourierField.from_values(self.mesh, self.C.reshape(self.mesh.shape + (-1,)))
        cfield.save(f"{prefix}.C.bin")
        with open(f"{prefix}.json", "w") as fh:
            json.dump(self._meta(), fh, indent=1)

    @classmethod
    def load(cls, prefix: str) -> "TorusSolution":
        try:
            phi = FourierField.load(f"{prefix}.phi.bin")
            cfield = FourierField.load(f"{prefix}.C.bin")
            with open(f"{prefix}.json") as fh:
                meta = json.load(fh)
            if not isinstance(meta, dict):
                raise ValueError(f"{prefix}.json holds no JSON object")
            n = meta["n"]
            if type(n) is not int:  # json reads 2.7 as a float and true as a bool
                raise ValueError(f"n is {n!r}, not an integer")
            B = _json_floats(meta["B"], "B", 2)
            rho = _json_floats(meta["rho"], "rho", 1)
            history = meta.get("history", [])
            monitor_flags = [tuple(k) for k in meta.get("monitor_flags", [])]
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ArtifactError(f"cannot read torus artifact {prefix}: {exc}") from exc
        if phi.n != n or cfield.n != n * n or cfield.mesh != phi.mesh:
            raise ArtifactError(
                f"torus artifact {prefix}: phi has {phi.n} components and C {cfield.n} "
                f"on mesh {cfield.mesh.shape}, but n={n} on mesh {phi.mesh.shape}"
            )
        if B.shape != (n, n) or rho.shape != (phi.mesh.d,):
            raise ArtifactError(
                f"torus artifact {prefix}: B of shape {B.shape} or rho of length {rho.size} "
                f"does not fit n={n}, d={phi.mesh.d}"
            )
        if not (np.isfinite(B).all() and np.isfinite(rho).all()):
            raise ArtifactError(f"torus artifact {prefix}: B or rho holds a non-finite value")
        C = cfield.values.reshape(phi.mesh.shape + (n, n))
        # the runs invert C, and the stable branch B; a flow map's are never singular
        try:
            np.linalg.inv(C), np.linalg.inv(B)
        except np.linalg.LinAlgError:
            raise ArtifactError(
                f"torus artifact {prefix}: C is singular at a grid point, or B is singular"
            ) from None
        return cls(
            phi=phi,
            C=C,
            B=B,
            rho=rho,
            history=history,
            monitor_flags=monitor_flags,
        )


# -- cohomological solvers ------------------------------------------------


def _solve_eigenbasis(G: np.ndarray, mesh: MeshSpec, B, A, rho, zero_mean=False) -> np.ndarray:
    """Solve ``X(theta+rho) A - B X(theta) = G`` for grid values G, shape mesh + (n, k).

    With ``B = V diag(mu) V^{-1}`` and ``A = W diag(nu) W^{-1}``, each mode
    of ``Y = V^{-1} X W`` is ``Y_ij = (V^{-1} G W)_ij / (exp(i psi) nu_j - mu_i)``
    and ``X = V Y W^{-1}``.  ``zero_mean`` gives the zero-average X: its
    kappa = 0 mode is zero and not checked.  A divisor counts as
    ``|den| / (cond(V) cond(W))``; below 1e-13 it raises ResonanceError, and
    below ``_DIVISOR_WARN`` it warns at the line that called the public
    solver, one frame up.  Returns the grid values of X.
    """
    mu, V = np.linalg.eig(B)
    nu, W = (mu, V) if A is B else np.linalg.eig(A)
    den = mode_phases(mesh, rho)[..., None, None] * nu - mu[:, None]
    if zero_mean:
        den[(0,) * mesh.d] = np.inf
    cond = float(np.linalg.cond(V) * np.linalg.cond(W))
    mins = np.abs(den).reshape(mesh.cshape + (-1,)).min(axis=-1)
    worst = int(np.argmin(mins))
    smallest = float(mins.flat[worst]) / cond
    if smallest < _DIVISOR_WARN:
        kappa = tuple(int(k) for k in mesh.freqs().reshape(-1, mesh.d)[worst])
        if smallest < 1e-13:
            raise ResonanceError(
                f"singular block at kappa={kappa} (divisor {smallest:.3e}, cond {cond:.3e})"
            )
        warnings.warn(
            f"small divisor {smallest:.3e} at kappa={kappa} (cond {cond:.3e})",
            RuntimeWarning,
            stacklevel=3,
        )
    # einsum contracts the stacked products through BLAS; a stacked matmul
    # over the modes is several times slower at small n
    similar = "ij,...jk,kl->...il"
    Y = np.einsum(similar, np.linalg.inv(V), fourier.analyze(G, mesh.d), W, optimize=True) / den
    return fourier.synthesize(np.einsum(similar, V, Y, np.linalg.inv(W), optimize=True), mesh)


def solve_cohomological(g: np.ndarray, mesh: MeshSpec, B, rho, factor: float = 1.0) -> np.ndarray:
    """Solve ``factor * u(theta+rho) = B u(theta) + g(theta)`` on grid values:
    g and the returned u have shape mesh + (n,).

    ``factor = 1`` is the torus equation; ``factor = lambda**m`` gives the
    manifold equation of order m.  Both are ``_solve_eigenbasis`` with
    ``A = [[factor]]``.
    """
    return _solve_eigenbasis(g[..., None], mesh, B, np.array([[factor]]), rho)[..., 0]


def solve_coho_floquet(R: np.ndarray, mesh: MeshSpec, B, rho) -> np.ndarray:
    """Solve ``H(theta+rho) B - B H(theta) = R(theta)`` with Avg(H) = 0 on
    grid values: the zero-average R and the returned H have shape mesh + (n, n).

    This is ``_solve_eigenbasis`` with ``A = B``.
    """
    return _solve_eigenbasis(R, mesh, B, B, rho, zero_mean=True)


# -- diagnostics -----------------------------------------------------------


def resonance_monitor(correction: FourierField) -> list[tuple[int, ...]]:
    """Flag correction modes that break the expected decay.

    Modes are grouped by sup-norm shells |kappa|; a mode is flagged when it
    exceeds the previous shell's median by more than ``_MONITOR_RATIO``.  A smooth
    geometric decay produces an empty report; a resonance shows up as one
    anomalously large mode.
    """
    mesh = correction.mesh
    norms = correction.mode_norms().reshape(-1)
    kappas = mesh.freqs().reshape(-1, mesh.d)
    shells = np.abs(kappas).max(axis=-1)
    flagged = []
    for s in range(1, int(shells.max()) + 1):
        prev = norms[shells == s - 1]
        if prev.size == 0:
            continue
        cut = _MONITOR_RATIO * float(np.median(prev))
        for idx in np.nonzero((shells == s) & (norms > max(cut, 1e-14)))[0]:
            flagged.append(tuple(int(k) for k in kappas[idx]))
    return flagged


def _point_norm_max(v: np.ndarray) -> float:
    """Max over the mesh of the Euclidean norm of the last axis."""
    return float(np.sqrt((v * v).sum(axis=-1)).max())


def _matvec(A: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise matrix-vector product on the grid: A mesh + (n, n), v mesh + (n,)."""
    return np.einsum("...ij,...j->...i", A, v)


def _reducibility_error(
    jacs_grid: np.ndarray, C: np.ndarray, C_inv_shift: np.ndarray, B: np.ndarray
) -> np.ndarray:
    """C^{-1}(theta+rho) DP C(theta) - B on the mesh, shape mesh + (n, n)."""
    return C_inv_shift @ jacs_grid @ C - B


# -- Newton steps ----------------------------------------------------------


def _inv(A: np.ndarray) -> np.ndarray:
    """Inverses of a stack of n x n matrices.  A 2 x 2 stack takes the
    adjugate over the determinant, about ten times faster than LAPACK's
    batched inverse on the grid."""
    if A.shape[-2:] != (2, 2):
        return np.linalg.inv(A)
    det = A[..., 0, 0] * A[..., 1, 1] - A[..., 0, 1] * A[..., 1, 0]
    out = np.empty_like(A)
    out[..., 0, 0] = A[..., 1, 1] / det
    out[..., 1, 1] = A[..., 0, 0] / det
    out[..., 0, 1] = -A[..., 0, 1] / det
    out[..., 1, 0] = -A[..., 1, 0] / det
    return out


def _constant(values: np.ndarray, mesh: MeshSpec) -> bool:
    """Whether grid values of shape mesh.shape + any trailing shape are the
    same at every point."""
    flat = values.reshape(mesh.M, -1)
    return bool((flat == flat[0]).all())


def _symmetrize(x: FourierField, R: np.ndarray, rho) -> FourierField:
    """The part of x with x(theta) = R x(rho - theta): the mean of x and that
    reflection, whose packed coefficients are R conj(xhat exp(2 pi i <kappa, rho>))."""
    xhat = x.coeffs
    mirror = np.conj(xhat * mode_phases(x.mesh, rho)[..., None]) * R
    return FourierField(x.mesh, x.n, coeffs=0.5 * (xhat + mirror))


def _half_period_sweep(qpmap, psi: FourierField, thetas) -> tuple[np.ndarray, np.ndarray]:
    """P's invariance error y and differential DP on the grid shifted by -c,
    2c = rho, from one sweep of the half-period map Q (module docstring).

    With K(theta) = Q(psi(theta), theta - c) and G = DQ there, a torus with
    psi(theta) = R psi(rho - theta) is invariant exactly when K(-theta) =
    R K(theta), and P = R Q^{-1} R Q gives, to first order in that defect,
    y(theta) = R G(-theta)^{-1} (K(-theta) - R K(theta)) and DP(theta) =
    R G(-theta)^{-1} R G(theta).  The reflection is a grid permutation, so
    nothing is interpolated.  R is ``qpmap.reversor``.  Returns y, shape
    (M, n), and DP on the grid.
    """
    mesh, n, R = psi.mesh, psi.n, qpmap.reversor
    K, G = qpmap.images_and_jacobian(psi.values.reshape(mesh.M, n), thetas, half=True)
    K = K.reshape(mesh.shape + (n,))
    G = G.reshape(mesh.shape + (n, n))
    RGR = _inv(reflect_grid(G, mesh)) * np.outer(R, R)  # R G(-theta)^{-1} R
    y = _matvec(RGR, R * reflect_grid(K, mesh) - K)
    return y.reshape(mesh.M, n), RGR @ G


def torus_correction(
    phi: FourierField,
    y_grid: np.ndarray,
    C: np.ndarray,
    C_inv_shift: np.ndarray,
    B: np.ndarray,
    rho,
) -> FourierField:
    """One torus half-step from the invariance error y = phi(.+rho) - P(phi):
    the correction h, which phi + h applies."""
    mesh = phi.mesh
    u = solve_cohomological(-_matvec(C_inv_shift, y_grid), mesh, B, rho)
    return FourierField.from_values(mesh, _matvec(C, u))


def floquet_correction(
    jacs_grid: np.ndarray,
    C: np.ndarray,
    C_inv_shift: np.ndarray,
    B: np.ndarray,
    rho,
) -> tuple[np.ndarray, np.ndarray]:
    """One Floquet half-step from the map differentials on the mesh.

    Returns the corrected change C (Id + H), matrix B' = B + Avg(R), and
    H(theta + rho) on the grid, which the solved equation gives without a
    transform: (R - Avg(R) + B' H) B'^{-1}.
    """
    n = B.shape[0]
    R = _reducibility_error(jacs_grid, C, C_inv_shift, B)
    avg = R.reshape(-1, n, n).mean(axis=0)
    B_new = B + avg
    R -= avg
    H = solve_coho_floquet(R, MeshSpec(C.shape[:-2]), B_new, rho)
    return C @ (np.eye(n) + H), B_new, (R + B_new @ H) @ np.linalg.inv(B_new)


def run_newton(
    qpmap,
    phi0: FourierField,
    C0: np.ndarray,
    B0: np.ndarray,
    cfg: NewtonConfig = NewtonConfig(),
) -> TorusSolution:
    """Alternate torus and Floquet corrections until both residuals pass.

    ``qpmap`` is the return map, or its multiple-shooting lift.  Each pass
    makes one map sweep at the current phi: its differentials finish the
    previous pass's Floquet half-step, its images and the updated C and B
    give both residuals, and, unless those pass or a stop applies, the
    torus half-step moves phi for the next pass.  ``history`` holds one
    entry per pass; a pass sweeps once, or twice when its loose sweep
    reads a small residual (module docstring).  ``C0`` holds the grid
    values of the seed change, shape mesh.shape + (n, n).  A full pass
    sweeps ``qpmap``, at ``qpmap.P.tol``, and a loose pass a loosened lift.

    A lift with a reversor R (``qpmap.reversor``) sweeps only the
    half-period map (module docstring): Newton then runs on psi = phi(. - c)
    and C(. - c), 2c = rho, on the grid, and ``history`` reads y there.
    The seed and every torus correction are projected onto the symmetric
    tori, psi(theta) = R psi(rho - theta), and pass 0 replaces the seed's B,
    the differential at one point, by B + Avg(R).  A seed that passes at
    pass 0 is returned as given.
    """
    mesh = phi0.mesh
    n = phi0.n
    rho = np.asarray(qpmap.rho, dtype=float)
    R = qpmap.reversor
    half = R is not None
    c = rho / 2.0
    thetas = (mesh.grid() - c) % 1.0 if half else mesh.grid()

    phi, C, B = phi0, np.asarray(C0, dtype=float), np.array(B0, dtype=float)
    if C.shape != mesh.shape + (n, n):
        raise ValueError(f"C0 shape {C.shape} != {mesh.shape + (n, n)}")
    seed = phi, C, B
    constant_seed = half and _constant(C, mesh) and _constant(phi.values, mesh)
    if constant_seed:  # lifted_seed's: the shift by -c is the identity, the projection a mean
        phi = FourierField.from_values(mesh, 0.5 * (phi.values + R * phi.values))
    elif half:
        phi, C = _symmetrize(phi.shift(-c), R, rho), shift_grid(C, mesh, -c)
    C_inv_shift = _inv(C) if constant_seed else shift_grid(_inv(C), mesh, rho)
    history: list[dict] = []
    flags: list[tuple[int, ...]] = []

    full_tol = qpmap.P.tol
    prev_worst = np.inf
    for it in range(cfg.max_iter + 1):
        map_tol = max(full_tol, min(_FIRST_PASS_TOL, full_tol * prev_worst**4))
        while True:
            sweep = qpmap if map_tol == full_tol else LiftedMap(replace(qpmap.P, tol=map_tol))
            if half:
                y, jacs = _half_period_sweep(sweep, phi, thetas)
            else:
                images, jacs = sweep.images_and_jacobian(phi.values.reshape(mesh.M, n), thetas)
                # the invariance error phi(theta+rho) - P(phi(theta), theta)
                y = phi.shift(rho).values.reshape(mesh.M, n) - images
                del images  # only y, of the same size, stays alive through the pass
            res_y = _point_norm_max(y)
            if map_tol == full_tol or res_y > max(_RESWEEP_BELOW, cfg.tol):
                break
            del jacs, y  # so that two sweeps are never alive at once
            map_tol = full_tol
        jacs_grid = jacs.reshape(mesh.shape + (n, n))
        if it > 0:
            C, B, H_shift = floquet_correction(jacs_grid, C, C_inv_shift, B, rho)
            if half:  # C^{-1}(theta + rho) (Id + H(theta + rho))^{-1}, with no transform
                C_inv_shift = _inv(np.eye(n) + H_shift) @ C_inv_shift
            else:  # by a transform, which keeps this path's results as they were
                C_inv_shift = shift_grid(_inv(C), mesh, rho)

        red = _reducibility_error(jacs_grid, C, C_inv_shift, B)
        if half and it == 0:
            avg = red.reshape(-1, n, n).mean(axis=0)
            B = B + avg
            red -= avg
        res_q = _point_norm_max(red.reshape(mesh.shape + (n * n,)))
        history.append({"invariance": res_y, "reducibility": res_q, "map_tol": map_tol})
        if res_y <= cfg.tol and res_q <= cfg.tol:
            if it == 0:
                phi, C, B = seed
            elif half:
                phi, C = phi.shift(c), shift_grid(C, mesh, c)
            return TorusSolution(phi, C, B, rho, history, flags)

        worst = max(res_y, res_q)
        if it > 0:
            if not np.isfinite([res_y, res_q]).all():
                raise ConvergenceError(f"residual became non-finite: {history}")
            if worst > 0.9 * prev_worst and worst > cfg.tol:
                raise ConvergenceError(
                    f"stagnation: residual {prev_worst:.3e} -> {worst:.3e} "
                    f"above threshold {cfg.tol:.1e} after {it} iterations"
                )
        if it == cfg.max_iter:
            raise ConvergenceError(
                f"no convergence in {cfg.max_iter} iterations "
                f"(invariance {res_y:.3e}, reducibility {res_q:.3e})"
            )
        prev_worst = worst

        h = torus_correction(phi, y.reshape(mesh.shape + (n,)), C, C_inv_shift, B, rho)
        if half:
            h = _symmetrize(h, R, rho)
        phi = FourierField.from_values(mesh, phi.values + h.values)
        flags.extend(resonance_monitor(h))
