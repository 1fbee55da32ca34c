"""Taylor-Fourier expansions of the stable/unstable manifolds of a torus.

A one-parameter manifold attached to a reducible invariant torus is written
as W(theta, sigma) = sum_k a_k(theta) sigma^k with Fourier-series
coefficients a_k and a real hyperbolic eigenvalue lambda of the Floquet
matrix, satisfying P(W(theta, sigma), theta) = W(theta + rho, lambda sigma).
The orders are obtained one at a time: the truncation W_{k-1} plus a zero
sigma^k pad is pushed through the map with jet transport, the order-k
coefficient b_k is read off, and the cohomological equation
``lambda^k u_k(theta+rho) = B u_k(theta) + g_k(theta)`` closes the order.

The stable branch is the same expansion of the inverse map.  From
DP(phi(theta), theta) C(theta) = C(theta + rho) B it follows that
DP^{-1} C(theta) = C(theta - rho) B^{-1}, so the stable manifold of P with
multiplier lambda_s is the unstable manifold of P^{-1} with rotation -rho,
Floquet matrix B^{-1} and multiplier 1/lambda_s, on the same phi and C.
Both branches store a_k(theta) on the plain grid.  Off the grid, W is one
contraction of all m+1 coefficient series over the angles
(``fourier.evaluate_coeffs``) followed by Horner's rule in sigma.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import ArtifactError, QptoriError, SpectrumError
from .fourier import FourierField, MeshSpec, evaluate_coeffs, shift_grid
from .torus import TorusSolution, _matvec, _json_floats, _point_norm_max, solve_cohomological

_TAIL_WARN = 1e-10
_TAIL_FATAL = 1e-6
_RADIUS_ORDERS = 3  # orders the radius estimate takes its root test over
# version of the manifold JSON; files without one hold the stable
# coefficients on another convention and are refused
_FORMAT = 2


@dataclass
class ManifoldExpansion:
    branch: str
    lam: float
    v: np.ndarray
    coeffs: list  # a_0 .. a_m as FourierFields
    scaling: float
    rho: np.ndarray
    order_errors: list = dc_field(default_factory=list)
    # order k >= 2 -> relative Fourier tail of its transported coefficient;
    # reported by the expansion run, not stored in the artifact
    transport_tails: dict = dc_field(default_factory=dict)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def mesh(self) -> MeshSpec:
        return self.coeffs[0].mesh

    @property
    def n(self) -> int:
        return self.coeffs[0].n

    def evaluate(self, theta, sigma) -> np.ndarray:
        """W at angles theta, shape (d,) or (npts, d), and parameter values
        sigma, a number or a 1-D array: shape theta.shape[:-1] + sigma.shape + (n,).

        The m+1 orders go through one contraction over the angles, and the
        sum in sigma is taken by Horner's rule.
        """
        stacked = np.stack([a.coeffs for a in self.coeffs], axis=-2)
        a = np.moveaxis(evaluate_coeffs(stacked, self.mesh, theta), -2, 0)
        sigma = np.asarray(sigma, dtype=float)
        a = a.reshape(a.shape[:-1] + (1,) * sigma.ndim + a.shape[-1:])
        s = sigma[..., None]
        out = a[-1]
        for a_k in a[-2::-1]:
            out = out * s + a_k
        return out

    def save(self, prefix: str) -> None:
        meta = {
            "format": _FORMAT,
            "branch": self.branch,
            "lambda": self.lam,
            "scaling": self.scaling,
            "order": self.order,
            "v": self.v.tolist(),
            "rho": list(map(float, self.rho)),
            "order_errors": self.order_errors,
        }
        with open(f"{prefix}.json", "w") as fh:
            json.dump(meta, fh, indent=1)
        for k, a in enumerate(self.coeffs):
            a.save(f"{prefix}.a{k}.bin")

    @classmethod
    def load(cls, prefix: str) -> "ManifoldExpansion":
        try:
            with open(f"{prefix}.json") as fh:
                meta = json.load(fh)
            if not isinstance(meta, dict):
                raise ValueError(f"{prefix}.json holds no JSON object")
            if meta.get("format") != _FORMAT:
                raise ArtifactError(
                    f"manifold artifact {prefix} has format {meta.get('format')}, "
                    f"expected {_FORMAT}; recompute it"
                )
            order = meta["order"]
            if type(order) is not int:  # json reads 2.5 as a float and true as a bool
                raise ValueError(f"order is {order!r}, not an integer")
            coeffs = [FourierField.load(f"{prefix}.a{k}.bin") for k in range(order + 1)]
            exp = cls(
                branch=meta["branch"],
                lam=float(_json_floats(meta["lambda"], "lambda", 0)),
                v=_json_floats(meta["v"], "v", 1),
                coeffs=coeffs,
                scaling=float(_json_floats(meta["scaling"], "scaling", 0)),
                rho=_json_floats(meta["rho"], "rho", 1),
                order_errors=list(meta.get("order_errors", [])),
            )
        except (OSError, ValueError, KeyError, TypeError) as exc:
            raise ArtifactError(f"cannot read manifold artifact {prefix}: {exc}") from exc
        if exp.branch not in ("unstable", "stable"):
            raise ArtifactError(f"manifold artifact {prefix} has unknown branch {exp.branch!r}")
        if exp.order < 1 or any(a.mesh != exp.mesh or a.n != exp.n for a in coeffs):
            raise ArtifactError(
                f"manifold artifact {prefix}: order below 1, or coefficients on "
                "different meshes or of different sizes"
            )
        if exp.v.shape != (exp.n,) or exp.rho.shape != (exp.mesh.d,):
            raise ArtifactError(
                f"manifold artifact {prefix}: v of length {exp.v.size} or rho of length "
                f"{exp.rho.size} does not fit n={exp.n}, d={exp.mesh.d}"
            )
        if not (np.isfinite(exp.v).all() and 0.0 < exp.scaling < np.inf):
            raise ArtifactError(
                f"manifold artifact {prefix}: v is not finite, or scaling {exp.scaling} "
                "is not positive and finite"
            )
        lam = abs(exp.lam)
        if not (1.0 < lam < np.inf if exp.branch == "unstable" else 0.0 < lam < 1.0):
            raise ArtifactError(
                f"manifold artifact {prefix}: lambda {exp.lam} is not finite or not on "
                f"the {exp.branch} side of the unit circle"
            )
        return exp


def eigen_pick(B: np.ndarray, branch: str, c: float = 1.0) -> tuple[float, np.ndarray]:
    """The dominant real eigenpair off the unit circle for the given branch.

    The eigenvector is real, Euclidean norm c, and its largest-magnitude
    component is positive (a deterministic sign convention).  Eigenvalues
    whose scores agree to 1e-9 relative tie, and the largest of them wins.
    """
    if branch not in ("stable", "unstable"):
        raise ValueError(f"branch must be stable or unstable, got {branch!r}")
    vals, vecs = np.linalg.eig(np.asarray(B, dtype=float))
    found = []
    for i, mu in enumerate(vals):
        if abs(mu.imag) > 1e-9 * max(1.0, abs(mu)):
            continue
        lam = mu.real
        if branch == "unstable" and abs(lam) <= 1.0:
            continue
        if branch == "stable" and abs(lam) >= 1.0:
            continue
        score = abs(lam) if branch == "unstable" else 1.0 / abs(lam)
        found.append((score, lam, i))
    if not found:
        raise SpectrumError(
            f"no real {branch} eigenvalue off the unit circle; spectrum {vals}"
        )
    # the +-sqrt(lambda) pair of an r = 2 lift ties: the positive one wins,
    # not LAPACK's order
    top = max(score for score, _, _ in found)
    lam, i = max((lam, i) for score, lam, i in found if score >= top * (1.0 - 1e-9))
    v = vecs[:, i].real
    pivot = np.argmax(np.abs(v))
    if v[pivot] < 0:
        v = -v
    v = v * (c / np.linalg.norm(v))
    return float(lam), v


def _check_tail(b: FourierField, k: int) -> float:
    """The relative Fourier tail of the order-k transport; raise or warn if it
    is too large for the mesh."""
    scale = max(1.0, float(np.abs(b.values).max()))
    tail = float(b.tail_norms().max()) / scale
    if tail > _TAIL_FATAL:
        raise QptoriError(
            f"order-{k} transport tail {tail:.3e} exceeds {_TAIL_FATAL:.0e}; "
            "the mesh cannot represent this order"
        )
    if tail > _TAIL_WARN:
        warnings.warn(
            f"order-{k} transport has relative tail {tail:.3e}; "
            "consider more Fourier modes",
            RuntimeWarning,
            stacklevel=3,
        )
    return tail


def _tables(coeffs) -> np.ndarray:
    """Coefficient values stacked for jet seeding, shape (k, M, n)."""
    mesh, n = coeffs[0].mesh, coeffs[0].n
    return np.stack([a.values.reshape(mesh.M, n) for a in coeffs])


def _direction(branch: str, lam: float, rho, B=None):
    """The map a branch is expanded on, as ``(inverse, B_F, rho_F, lambda_F)``.

    The unstable branch runs on P itself.  The stable branch runs on P^{-1},
    whose Floquet matrix is B^{-1}, rotation -rho and multiplier 1/lambda,
    so that F(W(theta, sigma), theta) = W(theta + rho_F, lambda_F sigma)
    holds for the map F of either branch.  ``B_F`` is None when ``B`` is.
    """
    rho = np.asarray(rho, dtype=float)
    if branch == "unstable":
        return False, B, rho, lam
    return True, None if B is None else np.linalg.inv(B), -rho, 1.0 / lam


def _expansion_errors(qpmap, coeffs, branch: str, lam: float, rho) -> list[float]:
    """Per-order invariance errors from one transport of the full expansion.

    Order i of the transported series is compared against the invariance
    target lambda_F^i a_i(theta + rho_F), relative to max(1, target norm).
    """
    mesh, n = coeffs[0].mesh, coeffs[0].n
    m = len(coeffs) - 1
    inverse, _, rho_F, lam_F = _direction(branch, lam, rho)
    out = qpmap.transport_series(_tables(coeffs), mesh.grid(), m, inverse=inverse)
    errors = []
    for i in range(m + 1):
        target = (lam_F**i * coeffs[i].shift(rho_F).values).reshape(mesh.M, n)
        errors.append(_point_norm_max(out[i] - target) / max(1.0, _point_norm_max(target)))
    return errors


def _expand(sol: TorusSolution, qpmap, branch: str, m: int, c: float) -> ManifoldExpansion:
    """Order-by-order expansion of one branch through the map of its direction."""
    if m < 1:
        raise ValueError("expansion order must be at least 1")
    mesh, n = sol.mesh, sol.n
    rho = np.asarray(sol.rho, dtype=float)
    lam, v = eigen_pick(sol.B, branch, c)
    inverse, B_F, rho_F, lam_F = _direction(branch, lam, rho, sol.B)

    a1 = _matvec(sol.C, np.broadcast_to(v, mesh.shape + (n,)))
    a = [sol.phi, FourierField.from_values(mesh, a1)]
    C_inv_shift = shift_grid(np.linalg.inv(sol.C), mesh, rho_F)
    thetas = mesh.grid()
    tails = {}

    for k in range(2, m + 1):
        out = qpmap.transport_series(_tables(a), thetas, k, inverse=inverse)
        b = FourierField.from_values(mesh, out[k].reshape(mesh.shape + (n,)))
        tails[k] = _check_tail(b, k)
        u = solve_cohomological(_matvec(C_inv_shift, b.values), mesh, B_F, rho_F, float(lam_F) ** k)
        a.append(FourierField.from_values(mesh, _matvec(sol.C, u)))

    errors = _expansion_errors(qpmap, a, branch, lam, rho)
    return ManifoldExpansion(branch, lam, v, a, c, rho, errors, tails)


def unstable_expansion(sol: TorusSolution, qpmap, m: int, c: float = 1.0) -> ManifoldExpansion:
    """Order-by-order expansion of the unstable branch through the map."""
    return _expand(sol, qpmap, "unstable", m, c)


def stable_expansion(sol: TorusSolution, qpmap, m: int, c: float = 1.0) -> ManifoldExpansion:
    """Order-by-order expansion of the stable branch through the inverse map."""
    return _expand(sol, qpmap, "stable", m, c)


def estimate_radius(exp: ManifoldExpansion) -> float | None:
    """Root-test estimate of the convergence radius, 1 / limsup ||a_k||^(1/k),
    over the top ``_RADIUS_ORDERS`` orders from 2 on; None when no such
    order is nonzero."""
    m = exp.order
    ks = range(max(2, m - _RADIUS_ORDERS + 1), m + 1)
    roots = []
    for k in ks:
        norm = float(np.abs(exp.coeffs[k].values).max())
        if norm > 0.0:
            roots.append(norm ** (1.0 / k))
    return 1.0 / max(roots) if roots else None
