"""Multiple shooting: the return map split over r intermediate sections.

Strongly hyperbolic tori cannot be flowed accurately over the full return
time, so the map is cut into r section maps P_j, each covering a fraction
1/r of the return time.  The r-section problem is lifted to a single
shooting problem of state dimension n*r and rotation rho/r whose map sends
(X_1, ..., X_r) to (P_r(X_r), P_1(X_1), ..., P_{r-1}(X_{r-1})); the torus
and manifold algorithms then run on the lift unchanged.

Because the lifted map couples block j only to block j+1 (cyclically), the
Newton iteration seeded with a block-diagonal change (the identity) and the
cyclic lifted differential keeps that structure: the converged C is block
diagonal with the per-section changes C_j on the diagonal, and the converged
Floquet matrix carries B_j = C_{j+1}(theta+rho/r)^{-1} A_j(theta) C_j(theta)
in block (j+1, j).  The lifted eigenvalues mu are r-th roots of the
single-shooting Floquet eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .flowmap import PoincareSpec, advance_grid, section_map
from .fourier import FourierField, FourierMatrix, MeshSpec
from .manifold import ManifoldExpansion, stable_expansion, unstable_expansion
from .torus import TorusSolution


class LiftedMap:
    """Single-shooting view of the r-section problem.

    This is the grid-sweep map of the torus and manifold algorithms for
    every section count r >= 1; with r = 1 it is the plain return map.  It
    offers ``n``, ``d``, ``rho``, ``images``, ``images_and_jacobian`` and
    ``transport_series`` over batches of grid points.
    """

    def __init__(self, P: PoincareSpec):
        self.P = P
        self.r = P.r
        self.n = P.n * P.r
        self.d = P.d
        self.rho = P.rho_section

    def _block(self, j: int) -> slice:
        n = self.P.n
        return slice((j - 1) * n, j * n)

    def _routes(self, inverse: bool):
        """(section j, input block, output block) triples of the lifted map."""
        r = self.r
        for j in range(1, r + 1):
            if inverse:
                yield j, j % r + 1, j
            else:
                yield j, j, j % r + 1

    def images(self, x, thetas, inverse=False):
        x = np.asarray(x, dtype=float)
        out = np.empty_like(x)
        for j, src, dst in self._routes(inverse):
            out[:, self._block(dst)] = section_map(
                self.P, j, x[:, self._block(src)], thetas, inverse=inverse
            )
        return out

    def images_and_jacobian(self, x, thetas, inverse=False):
        x = np.asarray(x, dtype=float)
        vals = np.empty_like(x)
        jac = np.zeros((x.shape[0], self.n, self.n))
        for j, src, dst in self._routes(inverse):
            seeds, spec = jets.seed_gradient(x[:, self._block(src)])
            out = section_map(self.P, j, seeds, thetas, spec, inverse=inverse)
            v, J = jets.split_gradient(out)
            vals[:, self._block(dst)] = v
            jac[:, self._block(dst), self._block(src)] = J
        return vals, jac

    def transport_series(self, tables, thetas, order, inverse=False):
        """Push truncated sigma-series through the map.

        ``tables`` stacks the series coefficients, shape (k, batch, n); the
        result has shape (order+1, batch, n).
        """
        tables = np.asarray(tables, dtype=float)
        out = np.empty((order + 1,) + tables.shape[1:])
        for j, src, dst in self._routes(inverse):
            seeds, spec = jets.seed_series(tables[:, :, self._block(src)], order)
            img = section_map(self.P, j, seeds, thetas, spec, inverse=inverse)
            out[:, :, self._block(dst)] = np.moveaxis(img, -1, 0)
        return out


def lifted_seed(lift: LiftedMap, mesh: MeshSpec, x0) -> tuple[FourierField, FourierMatrix, np.ndarray]:
    """Constant seed: every section torus at x0, identity change, and the
    lifted differential at the seed point as the Floquet guess."""
    x0 = np.asarray(x0, dtype=float)
    stacked = np.tile(x0, lift.r)
    phi0 = FourierField.from_values(
        mesh, np.broadcast_to(stacked, mesh.shape + (lift.n,)).copy()
    )
    C0 = FourierMatrix.identity(mesh, lift.n)
    _, jac = lift.images_and_jacobian(stacked[None], np.zeros((1, lift.d)))
    return phi0, C0, jac[0]


@dataclass
class MultiTorus:
    """Per-section view of a converged lifted solution."""

    r: int
    phis: list  # FourierFields, sections 1..r
    Cs: list  # FourierMatrix per section (diagonal blocks of the lifted C)
    Bs: list  # n x n matrices, B_j taken from lifted block (j+1 mod r, j)
    lifted: TorusSolution

    @property
    def rho_section(self) -> np.ndarray:
        return self.lifted.rho

    @classmethod
    def from_lifted(cls, sol: TorusSolution, r: int) -> "MultiTorus":
        n = sol.n // r
        phis, Cs, Bs = [], [], []
        vals = sol.phi.values
        for j in range(1, r + 1):
            blk = slice((j - 1) * n, j * n)
            dst = slice((j % r) * n, (j % r) * n + n)
            phis.append(FourierField.from_values(sol.mesh, vals[..., blk]))
            Cs.append(FourierMatrix(sol.mesh, sol.C.values[..., blk, blk]))
            Bs.append(np.array(sol.B[dst, blk]))
        return cls(r, phis, Cs, Bs, sol)

    def off_block_norm(self) -> float:
        """Largest entry of the lifted C outside its diagonal blocks and of
        the lifted B outside its cyclic blocks (structure check)."""
        n = self.lifted.n // self.r
        Cmask = np.ones((self.lifted.n, self.lifted.n), dtype=bool)
        Bmask = np.ones_like(Cmask)
        for j in range(self.r):
            blk = slice(j * n, (j + 1) * n)
            dst = slice(((j + 1) % self.r) * n, ((j + 1) % self.r) * n + n)
            Cmask[blk, blk] = False
            Bmask[dst, blk] = False
        c_off = float(np.abs(self.lifted.C.values[..., Cmask]).max()) if Cmask.any() else 0.0
        b_off = float(np.abs(self.lifted.B[Bmask]).max()) if Bmask.any() else 0.0
        return max(c_off, b_off)


def spectral_consistency(
    multi: MultiTorus, single: TorusSolution, P: PoincareSpec, npoints: int = 5
) -> dict:
    """Check the two spectral relations that tie the lift to single shooting.

    Every eigenvalue mu of the lifted Floquet matrix must satisfy mu^r in
    spectrum(B_single); and composing the section maps pointwise must
    reproduce the plain return map.
    """
    r = multi.r
    mus = np.linalg.eigvals(multi.lifted.B)
    singles = np.linalg.eigvals(single.B)
    eig_err = 0.0
    for mu in mus:
        target = mu**r
        err = np.abs(singles - target).min() / max(1.0, abs(target))
        eig_err = max(eig_err, float(err))

    rng = np.random.default_rng(7)
    pts = single.phi.values.reshape(single.mesh.M, single.n)
    idx = rng.choice(single.mesh.M, size=min(npoints, single.mesh.M), replace=False)
    x = pts[idx]
    thetas = single.mesh.grid()[idx]
    direct = advance_grid(P, x, thetas, 0.0, 1.0)
    comp = x
    for j in range(1, r + 1):
        comp = section_map(P, j, comp, (thetas + (j - 1) * P.rho_section) % 1.0)
    comp_err = float(np.sqrt(((comp - direct) ** 2).sum(-1)).max())

    return {
        "eigenvalue_relation": eig_err,
        "composition": comp_err,
        "block_structure": multi.off_block_norm(),
    }


def manifold_multishoot(
    sol: TorusSolution, lift: LiftedMap, branch: str, m: int, c: float = 1.0
) -> list[ManifoldExpansion]:
    """Per-section manifold expansions from one lifted order-by-order run."""
    if branch == "unstable":
        lifted_exp = unstable_expansion(sol, lift, m, c)
    else:
        lifted_exp = stable_expansion(sol, lift, m, c)
    r, n = lift.r, lift.P.n
    out = []
    for j in range(1, r + 1):
        blk = slice((j - 1) * n, j * n)
        coeffs = [
            FourierField.from_values(a.mesh, a.values[..., blk]) for a in lifted_exp.coeffs
        ]
        out.append(
            ManifoldExpansion(
                branch,
                lifted_exp.lam,
                lifted_exp.v[blk],
                coeffs,
                c,
                lifted_exp.rho,
                list(lifted_exp.order_errors),
            )
        )
    return out
