"""Newton iteration for reducible invariant tori of a quasi-periodic map.

Each iteration has two halves.  The torus half corrects the
parametrization phi(theta) by solving the cohomological equation
``u(theta+rho) = B u(theta) + g(theta)`` in Fourier space; the Floquet half
corrects the change C(theta) and the constant matrix B from the map
differentials, solving the Sylvester-type equation
``H(theta+rho) B - B H(theta) = Rtilde(theta)`` mode by mode.  Both halves
contract quadratically while above the round-off floor.

All cohomological systems are solved in complex form: with the stored mode
``kappa`` and phase ``psi = 2 pi <kappa, rho>``, the torus blocks are
``(exp(i psi) Id - B)``, which is equivalent to the paired real (cos, sin)
blocks and solves in one batched call per sweep.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ConvergenceError, ResonanceError
from .fourier import FourierField, FourierMatrix, MeshSpec, coeff_index_to_tuple

_EYE = np.eye


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-10
    max_iter: int = 12
    stop_on_stagnation: bool = True
    monitor_ratio: float = 1e4
    divisor_warn: float = 1e-8

    def __post_init__(self):
        if self.tol <= 0.0:
            raise ValueError("residual threshold must be positive")


@dataclass
class TorusSolution:
    phi: FourierField
    C: FourierMatrix
    C_inv: FourierMatrix
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

    def report(self) -> dict:
        return {
            "rho": list(map(float, self.rho)),
            "B": self.B.tolist(),
            "eigenvalues": sorted(
                (complex(v).real if abs(complex(v).imag) < 1e-12 else str(v))
                for v in self.eigenvalues()
            )
            if np.isrealobj(self.B)
            else self.B.tolist(),
            "history": self.history,
            "monitor_flags": [list(map(int, k)) for k in self.monitor_flags],
        }

    def save(self, prefix: str) -> None:
        self.phi.save(f"{prefix}.phi.bin")
        self.C.as_field().save(f"{prefix}.C.bin")
        meta = {
            "n": self.n,
            "rho": list(map(float, self.rho)),
            "B": self.B.tolist(),
            "history": self.history,
            "monitor_flags": [list(map(int, k)) for k in self.monitor_flags],
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(meta, fh, indent=1)

    @classmethod
    def load(cls, prefix: str) -> "TorusSolution":
        from .errors import ArtifactError

        try:
            phi = FourierField.load(f"{prefix}.phi.bin")
            cfield = FourierField.load(f"{prefix}.C.bin")
            with open(f"{prefix}.json") as fh:
                meta = json.load(fh)
        except (OSError, ValueError) as exc:
            raise ArtifactError(f"cannot read torus artifact {prefix}: {exc}") from exc
        n = int(meta["n"])
        C = FourierMatrix.from_field(cfield, n)
        return cls(
            phi=phi,
            C=C,
            C_inv=C.inv(),
            B=np.array(meta["B"], dtype=float),
            rho=np.array(meta["rho"], dtype=float),
            history=meta.get("history", []),
            monitor_flags=[tuple(k) for k in meta.get("monitor_flags", [])],
        )


# -- cohomological solvers ------------------------------------------------


def _mode_phases(mesh: MeshSpec, rho) -> np.ndarray:
    """exp(2 pi i <kappa, rho>) for every stored mode, shape cshape."""
    psi = 2.0 * np.pi * (mesh.freqs() @ np.asarray(rho, dtype=float))
    return np.exp(1j * psi)


def _check_divisors(divisors: np.ndarray, mesh: MeshSpec, warn_below: float, what: str):
    """Raise on an (almost) exactly singular block, warn on a small divisor."""
    worst = int(np.argmin(divisors))
    smallest = float(divisors.flat[worst])
    if smallest < 1e-13:
        kappa = coeff_index_to_tuple(worst, mesh)
        raise ResonanceError(
            f"singular {what} block at kappa={kappa} (divisor {smallest:.3e})",
            kappa=kappa,
        )
    if smallest < warn_below:
        kappa = coeff_index_to_tuple(worst, mesh)
        warnings.warn(
            f"small divisor {smallest:.3e} in {what} block at kappa={kappa}",
            RuntimeWarning,
            stacklevel=3,
        )


def solve_cohomological(
    g: FourierField, B: np.ndarray, rho, factor: float = 1.0, warn_below: float = 1e-8
) -> FourierField:
    """Solve ``factor * u(theta+rho) = B u(theta) + g(theta)`` mode by mode.

    ``factor = 1`` is the torus equation; ``factor = lambda**m`` gives the
    manifold equation of order m.  One small complex solve per stored mode,
    batched.
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    mesh = g.mesh
    phases = factor * _mode_phases(mesh, rho)

    mus = np.linalg.eigvals(B)
    divisors = np.abs(phases.reshape(-1, 1) - mus.reshape(1, -1)).min(axis=1)
    _check_divisors(divisors, mesh, warn_below, "cohomological")

    blocks = phases[..., None, None] * _EYE(n) - B
    u = np.linalg.solve(blocks, g.coeffs[..., None])[..., 0]
    return FourierField(mesh, n, coeffs=u)


def solve_coho_floquet(
    Rt_values: np.ndarray, mesh: MeshSpec, B: np.ndarray, rho, warn_below: float = 1e-8
) -> FourierMatrix:
    """Solve ``H(theta+rho) B - B H(theta) = Rtilde(theta)`` with Avg(H) = 0.

    ``Rt_values`` are grid values of the zero-average right-hand side, shape
    mesh + (n, n).  Each stored mode gives an n^2 x n^2 system in the
    row-major vectorization, ``(exp(i psi) (Id kron B^T) - (B kron Id)) vec(H_kappa)
    = vec(R_kappa)``; the kappa = 0 block is skipped (H has zero average).
    """
    B = np.asarray(B, dtype=float)
    n = B.shape[0]
    as_field = FourierField.from_values(mesh, Rt_values.reshape(mesh.shape + (n * n,)))
    rhat = as_field.coeffs.reshape(-1, n * n)
    phases = _mode_phases(mesh, rho).reshape(-1)

    mus = np.linalg.eigvals(B)
    ratio = phases[1:].reshape(-1, 1, 1) * mus.reshape(1, -1, 1) - mus.reshape(1, 1, -1)
    divisors = np.abs(ratio).reshape(len(phases) - 1, -1).min(axis=1)
    _check_divisors(
        np.concatenate([[np.inf], divisors]), mesh, warn_below, "Floquet"
    )

    left = np.kron(_EYE(n), B.T)
    right = np.kron(B, _EYE(n))
    blocks = phases[1:, None, None] * left - right
    hvec = np.zeros((len(phases), n * n), dtype=complex)
    hvec[1:] = np.linalg.solve(blocks, rhat[1:, :, None])[..., 0]
    hfield = FourierField(mesh, n * n, coeffs=hvec.reshape(mesh.cshape + (n * n,)))
    return FourierMatrix(mesh, hfield.values.reshape(mesh.shape + (n, n)))


# -- diagnostics -----------------------------------------------------------


def resonance_monitor(correction: FourierField, ratio: float = 1e4) -> list[tuple[int, ...]]:
    """Flag correction modes that break the expected decay.

    Modes are grouped by sup-norm shells |kappa|; a mode is flagged when it
    exceeds the previous shell's median by more than ``ratio``.  A smooth
    geometric decay produces an empty report; a resonance shows up as one
    anomalously large mode.
    """
    norms = correction.mode_norms().reshape(-1)
    shells = np.abs(correction.mesh.freqs()).max(axis=-1).reshape(-1)
    flagged = []
    for s in range(1, int(shells.max()) + 1):
        prev = norms[shells == s - 1]
        if prev.size == 0:
            continue
        cut = ratio * float(np.median(prev))
        for idx in np.nonzero((shells == s) & (norms > max(cut, 1e-14)))[0]:
            flagged.append(coeff_index_to_tuple(int(idx), correction.mesh))
    return flagged


def _point_norm_max(v: np.ndarray) -> float:
    """Max over the mesh of the Euclidean norm of the last axis."""
    return float(np.sqrt((v * v).sum(axis=-1)).max())


def invariance_residual(qpmap, phi: FourierField) -> float:
    """Max-over-mesh Euclidean norm of phi(theta+rho) - P(phi(theta), theta)."""
    mesh = phi.mesh
    flat = phi.values.reshape(mesh.M, phi.n)
    images = qpmap.images(flat, mesh.grid())
    target = phi.shift(qpmap.rho).values.reshape(mesh.M, phi.n)
    return _point_norm_max(target - images)


def reducibility_residual(
    jacs_grid: np.ndarray, C: FourierMatrix, C_inv_shift: FourierMatrix, B: np.ndarray
) -> float:
    """Max-over-mesh Frobenius norm of C^{-1}(theta+rho) DP C(theta) - B."""
    R = C_inv_shift.values @ jacs_grid @ C.values - B
    return _point_norm_max(R.reshape(R.shape[:-2] + (-1,)))


# -- Newton steps ----------------------------------------------------------


def torus_correction(
    qpmap,
    phi: FourierField,
    C: FourierMatrix,
    C_inv_shift: FourierMatrix,
    B: np.ndarray,
    y_grid: np.ndarray,
    warn_below: float = 1e-8,
) -> tuple[FourierField, FourierField]:
    """One torus half-step from the invariance error y = phi(.+rho) - P(phi).

    Returns the corrected parametrization and the correction h itself (for
    the resonance monitor).
    """
    mesh = phi.mesh
    g_vals = -C_inv_shift.matvec(y_grid)
    g = FourierField.from_values(mesh, g_vals)
    u = solve_cohomological(g, B, qpmap.rho, 1.0, warn_below)
    h_vals = C.matvec(u.values)
    h = FourierField.from_values(mesh, h_vals)
    return FourierField.from_values(mesh, phi.values + h_vals), h


def floquet_correction(
    qpmap,
    jacs_grid: np.ndarray,
    C: FourierMatrix,
    C_inv_shift: FourierMatrix,
    B: np.ndarray,
    warn_below: float = 1e-8,
) -> tuple[FourierMatrix, np.ndarray]:
    """One Floquet half-step from the map differentials on the mesh.

    Returns the corrected change C (Id + H) and matrix B + Avg(R).
    """
    mesh = C.mesh
    R = C_inv_shift.values @ jacs_grid @ C.values - B
    avg = R.reshape(-1, C.n, C.n).mean(axis=0)
    B_new = B + avg
    Rt = R - avg
    H = solve_coho_floquet(Rt, mesh, B_new, qpmap.rho, warn_below)
    eye = _EYE(C.n)
    C_new = FourierMatrix(mesh, C.values @ (eye + H.values))
    return C_new, B_new


def run_newton(
    qpmap,
    phi0: FourierField,
    C0: FourierMatrix,
    B0: np.ndarray,
    cfg: NewtonConfig = NewtonConfig(),
) -> TorusSolution:
    """Alternate torus and Floquet corrections until both residuals pass.

    ``qpmap`` provides ``rho``, ``images`` and ``images_and_jacobian`` over
    batches of mesh points (the return map, or its multiple-shooting lift).
    """
    mesh = phi0.mesh
    n = phi0.n
    rho = np.asarray(qpmap.rho, dtype=float)
    thetas = mesh.grid()

    phi, C, B = phi0, C0, np.array(B0, dtype=float)
    C_inv = C.inv()
    history: list[dict] = []
    flags: list[tuple[int, ...]] = []

    flat = phi.values.reshape(mesh.M, n)
    images, jacs = qpmap.images_and_jacobian(flat, thetas)
    y = phi.shift(rho).values.reshape(mesh.M, n) - images
    jacs_grid = jacs.reshape(mesh.shape + (n, n))
    C_inv_shift = C_inv.shift(rho)
    res_y = _point_norm_max(y)
    res_q = reducibility_residual(jacs_grid, C, C_inv_shift, B)
    history.append({"invariance": res_y, "reducibility": res_q})

    for _ in range(cfg.max_iter):
        if res_y <= cfg.tol and res_q <= cfg.tol:
            return TorusSolution(phi, C, C_inv, B, rho, history, flags)

        y_grid = y.reshape(mesh.shape + (n,))
        phi, h = torus_correction(
            qpmap, phi, C, C_inv_shift, B, y_grid, cfg.divisor_warn
        )
        flags.extend(resonance_monitor(h, cfg.monitor_ratio))

        flat = phi.values.reshape(mesh.M, n)
        images, jacs = qpmap.images_and_jacobian(flat, thetas)
        jacs_grid = jacs.reshape(mesh.shape + (n, n))

        C, B = floquet_correction(qpmap, jacs_grid, C, C_inv_shift, B, cfg.divisor_warn)
        C_inv = C.inv()
        C_inv_shift = C_inv.shift(rho)

        y = phi.shift(rho).values.reshape(mesh.M, n) - images
        prev_y, prev_q = res_y, res_q
        res_y = _point_norm_max(y)
        res_q = reducibility_residual(jacs_grid, C, C_inv_shift, B)
        history.append({"invariance": res_y, "reducibility": res_q})

        worst = max(res_y, res_q)
        prev_worst = max(prev_y, prev_q)
        if not np.isfinite(worst):
            raise ConvergenceError(f"residual became non-finite: {history}")
        if cfg.stop_on_stagnation and worst > 0.9 * prev_worst and worst > cfg.tol:
            raise ConvergenceError(
                f"stagnation: residual {prev_worst:.3e} -> {worst:.3e} "
                f"above threshold {cfg.tol:.1e} after {len(history) - 1} iterations"
            )

    if res_y <= cfg.tol and res_q <= cfg.tol:
        return TorusSolution(phi, C, C_inv, B, rho, history, flags)
    raise ConvergenceError(
        f"no convergence in {cfg.max_iter} iterations "
        f"(invariance {res_y:.3e}, reducibility {res_q:.3e})"
    )
