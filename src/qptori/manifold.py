"""Taylor-Fourier expansions of the stable/unstable manifolds of a torus.

A one-parameter manifold attached to a reducible invariant torus is written
as W(theta, sigma) = sum_k a_k(theta) sigma^k with Fourier-series
coefficients a_k and a real hyperbolic eigenvalue lambda of the Floquet
matrix, satisfying P(W(theta, sigma), theta) = W(theta + rho, lambda sigma).
The orders are obtained one at a time: the truncation W_{k-1} plus a zero
sigma^k pad is pushed through the map with jet transport, the order-k
coefficient b_k is read off, and the cohomological equation
``lambda^k u_k(theta+rho) = B u_k(theta) + g_k(theta)`` closes the order.

The stable branch runs the same scheme through the inverse map.  Its
coefficients are stored on the rho-shifted parametrization: the field at
slot k holds a_k(theta + rho), and the transport evaluates the inverse map
at angles theta + rho (where those states actually live).
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import QptoriError, SpectrumError
from .fourier import FourierField, MeshSpec
from .torus import TorusSolution, solve_cohomological

_TAIL_WARN = 1e-10
_TAIL_FATAL = 1e-6


@dataclass
class ManifoldExpansion:
    branch: str
    lam: float
    v: np.ndarray
    coeffs: list  # a_0 .. a_m as FourierFields (stable: a_k(theta+rho))
    scaling: float
    rho: np.ndarray
    order_errors: list = dc_field(default_factory=list)

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def mesh(self) -> MeshSpec:
        return self.coeffs[0].mesh

    @property
    def n(self) -> int:
        return self.coeffs[0].n

    def evaluate(self, theta, sigma: float) -> np.ndarray:
        """W at one angle and parameter value (stable: the shifted W(theta+rho, sigma))."""
        out = np.zeros(self.n)
        power = 1.0
        for a in self.coeffs:
            out += power * a.evaluate(theta)
            power *= sigma
        return out

    def tables(self) -> np.ndarray:
        """Coefficient values stacked for jet seeding, shape (m+1, M, n)."""
        return np.stack([a.values.reshape(self.mesh.M, self.n) for a in self.coeffs])

    def save(self, prefix: str) -> None:
        meta = {
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
        from .errors import ArtifactError

        try:
            with open(f"{prefix}.json") as fh:
                meta = json.load(fh)
            coeffs = [
                FourierField.load(f"{prefix}.a{k}.bin")
                for k in range(int(meta["order"]) + 1)
            ]
        except (OSError, ValueError, KeyError) as exc:
            raise ArtifactError(f"cannot read manifold artifact {prefix}: {exc}") from exc
        return cls(
            branch=meta["branch"],
            lam=float(meta["lambda"]),
            v=np.array(meta["v"], dtype=float),
            coeffs=coeffs,
            scaling=float(meta["scaling"]),
            rho=np.array(meta["rho"], dtype=float),
            order_errors=list(meta.get("order_errors", [])),
        )


def eigen_pick(B: np.ndarray, branch: str, c: float = 1.0) -> tuple[float, np.ndarray]:
    """The dominant real eigenpair off the unit circle for the given branch.

    The eigenvector is real, Euclidean norm c, and its largest-magnitude
    component is positive (a deterministic sign convention).
    """
    if branch not in ("stable", "unstable"):
        raise ValueError(f"branch must be stable or unstable, got {branch!r}")
    vals, vecs = np.linalg.eig(np.asarray(B, dtype=float))
    best = None
    for i, mu in enumerate(vals):
        if abs(mu.imag) > 1e-9 * max(1.0, abs(mu)):
            continue
        lam = mu.real
        if branch == "unstable" and abs(lam) <= 1.0:
            continue
        if branch == "stable" and abs(lam) >= 1.0:
            continue
        score = abs(lam) if branch == "unstable" else 1.0 / abs(lam)
        if best is None or score > best[0]:
            best = (score, lam, i)
    if best is None:
        raise SpectrumError(
            f"no real {branch} eigenvalue off the unit circle; spectrum {vals}"
        )
    _, lam, i = best
    v = vecs[:, i].real
    pivot = np.argmax(np.abs(v))
    if v[pivot] < 0:
        v = -v
    v = v * (c / np.linalg.norm(v))
    return float(lam), v


def _check_tail(b: FourierField, k: int) -> None:
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


def _matvec_grid(M: np.ndarray, vals: np.ndarray) -> np.ndarray:
    return np.einsum("ij,...j->...i", M, vals)


def _expansion_errors(qpmap, coeffs, lam, rho, inverse: bool) -> list[float]:
    """Per-order invariance errors from one transport of the full expansion.

    Order i of the transported series is compared against the invariance
    target (lambda^i a_i(theta+rho) forward, lambda^{-i} a_i(theta-rho) for
    the inverse-map branch), relative to max(1, target norm).
    """
    mesh = coeffs[0].mesh
    n = coeffs[0].n
    m = len(coeffs) - 1
    tabs = np.stack([a.values.reshape(mesh.M, n) for a in coeffs])
    thetas = mesh.grid()
    if inverse:
        thetas = (thetas + rho) % 1.0
    out = qpmap.transport_series(tabs, thetas, m, inverse=inverse)
    errors = []
    for i in range(m + 1):
        if inverse:
            target = lam ** (-i) * coeffs[i].shift(-np.asarray(rho)).values
        else:
            target = lam**i * coeffs[i].shift(rho).values
        target = target.reshape(mesh.M, n)
        scale = max(1.0, float(np.sqrt((target * target).sum(-1)).max()))
        diff = out[i] - target
        errors.append(float(np.sqrt((diff * diff).sum(-1)).max()) / scale)
    return errors


def unstable_expansion(
    sol: TorusSolution, qpmap, m: int, c: float = 1.0, warn_below: float = 1e-8
) -> ManifoldExpansion:
    """Order-by-order expansion of the unstable branch through the map."""
    if m < 1:
        raise ValueError("expansion order must be at least 1")
    mesh, n = sol.mesh, sol.n
    rho = np.asarray(sol.rho, dtype=float)
    lam, v = eigen_pick(sol.B, "unstable", c)

    a = [sol.phi, FourierField.from_values(mesh, sol.C.matvec(np.broadcast_to(v, mesh.shape + (n,))))]
    C_inv_shift = sol.C_inv.shift(rho)
    thetas = mesh.grid()

    for k in range(2, m + 1):
        tabs = np.stack([f.values.reshape(mesh.M, n) for f in a])
        out = qpmap.transport_series(tabs, thetas, k)
        b = FourierField.from_values(mesh, out[k].reshape(mesh.shape + (n,)))
        _check_tail(b, k)
        g = FourierField.from_values(mesh, C_inv_shift.matvec(b.values))
        u = solve_cohomological(g, sol.B, rho, float(lam) ** k, warn_below)
        a.append(FourierField.from_values(mesh, sol.C.matvec(u.values)))

    errors = _expansion_errors(qpmap, a, lam, rho, inverse=False)
    return ManifoldExpansion("unstable", lam, v, a, c, rho, errors)


def stable_expansion(
    sol: TorusSolution, qpmap, m: int, c: float = 1.0, warn_below: float = 1e-8
) -> ManifoldExpansion:
    """Stable branch through the inverse map, on the shifted parametrization.

    The stored fields hold a_k(theta + rho); the transport feeds them to the
    inverse map at angles theta + rho, so each order-k table lands back on
    the plain grid where the cohomological equation
    ``lambda^k u_k(theta+rho) = B u_k(theta) - lambda^k B C^{-1}(theta) b_k(theta)``
    is solved.
    """
    if m < 1:
        raise ValueError("expansion order must be at least 1")
    mesh, n = sol.mesh, sol.n
    rho = np.asarray(sol.rho, dtype=float)
    lam, v = eigen_pick(sol.B, "stable", c)

    C_shift = sol.C.shift(rho)
    a = [
        sol.phi.shift(rho),
        FourierField.from_values(mesh, C_shift.matvec(np.broadcast_to(v, mesh.shape + (n,)))),
    ]
    thetas = (mesh.grid() + rho) % 1.0

    for k in range(2, m + 1):
        tabs = np.stack([f.values.reshape(mesh.M, n) for f in a])
        out = qpmap.transport_series(tabs, thetas, k, inverse=True)
        b = FourierField.from_values(mesh, out[k].reshape(mesh.shape + (n,)))
        _check_tail(b, k)
        g_vals = -(lam**k) * _matvec_grid(sol.B, sol.C_inv.matvec(b.values))
        g = FourierField.from_values(mesh, g_vals)
        u = solve_cohomological(g, sol.B, rho, float(lam) ** k, warn_below)
        a.append(FourierField.from_values(mesh, C_shift.matvec(u.shift(rho).values)))

    errors = _expansion_errors(qpmap, a, lam, rho, inverse=True)
    return ManifoldExpansion("stable", lam, v, a, c, rho, errors)


def rescale(exp: ManifoldExpansion, c_new: float) -> ManifoldExpansion:
    """Reparametrize sigma -> c_new * sigma, scaling a_k by c_new^k."""
    coeffs = [
        FourierField(a.mesh, a.n, coeffs=(c_new**k) * a.coeffs)
        for k, a in enumerate(exp.coeffs)
    ]
    return ManifoldExpansion(
        exp.branch,
        exp.lam,
        exp.v * c_new,
        coeffs,
        exp.scaling * c_new,
        exp.rho,
        list(exp.order_errors),
    )


def estimate_radius(exp: ManifoldExpansion, top_orders: int = 3) -> float:
    """Root-test estimate of the convergence radius, 1 / limsup ||a_k||^(1/k)."""
    m = exp.order
    ks = range(max(2, m - top_orders + 1), m + 1)
    roots = []
    for k in ks:
        norm = float(np.abs(exp.coeffs[k].values).max())
        if norm > 0.0:
            roots.append(norm ** (1.0 / k))
    if not roots:
        return np.inf
    return 1.0 / max(roots)
