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
single-shooting Floquet eigenvalues.  Per-section data are read as blocks
of the lifted solution: the section torus phi_j is block j of phi, and the
section manifold coefficients are block j of each lifted a_k.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from . import jets
from .flowmap import PoincareSpec, section_map
from .fourier import FourierField, MeshSpec


class LiftedMap:
    """Single-shooting view of the r-section problem.

    This is the grid-sweep map of the torus and manifold algorithms for
    every section count r >= 1; with r = 1 it is the plain return map.  It
    offers ``n``, ``d``, ``rho``, ``images``, ``images_and_jacobian`` and
    ``transport_series`` over batches of grid points, all at ``P.tol``
    (Newton's loose passes sweep the lift of a loosened spec).  On an r = 1
    lift, ``images_and_jacobian(..., half=True)`` sweeps the half-period map
    Q instead, from section 0 to section 1/2, so that P = R Q^{-1} R Q for a
    reversible field (Lamb and Roberts 1998).

    ``reversor`` is the field's declared R as floats on an r = 1 lift, where
    R P(R x, -theta) = P^{-1}(x, theta); None for a field that declares none
    and for r > 1, where reversal maps section j/r onto (r-j)/r.  A
    declaration that is not a +-1 vector of length ``field.n`` is refused.
    """

    def __init__(self, P: PoincareSpec):
        self.P = P
        self.r = P.r
        self.n = P.field.n * P.r
        self.d = P.field.d
        self.rho = P.rho_section
        R = P.field.reversor
        if R is not None:
            R = np.asarray(R, dtype=float)
            if R.shape != (P.field.n,) or not (np.abs(R) == 1.0).all():
                raise ValueError(
                    f"a reversor is a +-1 vector of length {P.field.n}, got {R.tolist()}"
                )
        self.reversor = R if P.r == 1 else None

    def _block(self, j: int) -> slice:
        n = self.P.field.n
        return slice((j - 1) * n, j * n)

    def _routes(self, inverse: bool, half: bool = False):
        """(spec, section j, input block, output block) of every section map
        on the lifted map's route.  ``half`` routes the half-period map of an
        r = 1 lift: the first section map of its two-section split."""
        if half:
            yield replace(self.P, r=2), 1, 1, 1
            return
        r = self.r
        for j in range(1, r + 1):
            if inverse:
                yield self.P, j, j % r + 1, j
            else:
                yield self.P, j, j, j % r + 1

    def _sweep(self, y, thetas, spec, inverse, half=False):
        """Lifted jets (batch, n*r, ncoeff) through every section on its route."""
        out = np.empty_like(y)
        for P, j, src, dst in self._routes(inverse, half):
            out[:, self._block(dst)] = section_map(
                P, j, y[:, self._block(src)], thetas, spec, inverse=inverse
            )
        return out

    def images(self, x, thetas, inverse=False):
        x = np.asarray(x, dtype=float)
        return self._sweep(x[..., None], thetas, jets.REAL, inverse)[..., 0]

    def images_and_jacobian(self, x, thetas, half=False):
        """Forward images and lifted differentials; with ``half``, those of
        the half-period map Q of an r = 1 lift, from section 0 to 1/2."""
        if half and self.r != 1:
            raise ValueError(f"the half-period map is an r = 1 sweep, not r = {self.r}")
        x = np.asarray(x, dtype=float)
        seeds, spec = jets.seed_gradient(x.reshape(x.shape[0], self.r, -1))
        out = self._sweep(seeds.reshape(x.shape + (-1,)), thetas, spec, False, half)
        jac = np.zeros((x.shape[0], self.n, self.n))
        for _, _, src, dst in self._routes(False, half):
            jac[:, self._block(dst), self._block(src)] = out[:, self._block(dst), 1:]
        return out[..., 0].copy(), jac  # a view would keep the whole jet array alive

    def transport_series(self, tables, thetas, order, inverse=False):
        """Push truncated sigma-series through the map.

        ``tables`` stacks the series coefficients, shape (k, batch, n); the
        result has shape (order+1, batch, n).
        """
        seeds, spec = jets.seed_series(np.asarray(tables, dtype=float), order)
        out = self._sweep(seeds, thetas, spec, inverse)
        return np.ascontiguousarray(np.moveaxis(out, -1, 0))


def lifted_seed(lift: LiftedMap, mesh: MeshSpec, x0) -> tuple[FourierField, np.ndarray, np.ndarray]:
    """Constant seed: every section torus at x0, identity change, and the
    lifted differential at the seed point as the Floquet guess."""
    x0 = np.asarray(x0, dtype=float)
    stacked = np.tile(x0, lift.r)
    phi0 = FourierField.from_values(
        mesh, np.broadcast_to(stacked, mesh.shape + (lift.n,)).copy()
    )
    C0 = np.broadcast_to(np.eye(lift.n), mesh.shape + (lift.n, lift.n))
    _, jac = lift.images_and_jacobian(stacked[None], np.zeros((1, lift.d)))
    return phi0, C0, jac[0]

