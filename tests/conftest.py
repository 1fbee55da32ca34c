import numpy as np
import pytest

from qptori import (
    LiftedMap,
    MeshSpec,
    NewtonConfig,
    PoincareSpec,
    jets,
    lifted_seed,
    pendulum_field,
    run_newton,
)
from qptori.flowmap import section_map
from qptori.manifold import _direction


def pendulum_setup(d, N, eps=0.01, tol=1e-14, r=1):
    field = pendulum_field(d=d, eps=eps)
    mesh = MeshSpec((N,) * d)
    P = PoincareSpec(field, tol=tol, r=r)
    return field, mesh, P


def rhs_real(field, x, theta):
    """The field in real arithmetic at states (batch, n), angles (batch, d+1)."""
    return field.rhs(x.T[None], theta, jets.REAL)[0].T


def newton_seed(lift, mesh):
    """Constant seed at the saddle (pi, 0) of the unforced pendulum."""
    return lifted_seed(lift, mesh, np.array([np.pi, 0.0]))


@pytest.fixture(scope="session")
def d1_torus():
    """Converged d=1 pendulum torus, shared by the manifold and verify tests."""
    field, mesh, P = pendulum_setup(1, 31)
    qpmap = LiftedMap(P)
    sol = run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig())
    return P, qpmap, sol


@pytest.fixture(scope="session")
def d2_torus():
    field, mesh, P = pendulum_setup(2, 31)
    qpmap = LiftedMap(P)
    sol = run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig())
    return P, qpmap, sol


def off_block_norm(sol, r):
    """Largest entry of an r-section lifted solution (r >= 2) outside its
    multiple-shooting structure: C off its diagonal n-blocks, B off its
    cyclic blocks (j+1, j)."""
    n = sol.n // r
    C_mask = np.ones((sol.n, sol.n), dtype=bool)
    B_mask = np.ones_like(C_mask)
    for j in range(r):
        blk = slice(j * n, (j + 1) * n)
        C_mask[blk, blk] = False
        B_mask[((j + 1) % r) * n : ((j + 1) % r + 1) * n, blk] = False
    return max(float(np.abs(sol.C[..., C_mask]).max()), float(np.abs(sol.B[B_mask]).max()))


def lift_spectral_errors(lifted, single, P, npoints=5):
    """The two relations that tie an r-section lift to single shooting.

    Returns the largest relative distance of mu^r, for each eigenvalue mu of
    the lifted Floquet matrix, to the single-shooting spectrum; and the
    largest distance between the composed section maps and the plain return
    map at ``npoints`` points of the single-shooting torus.
    """
    r = P.r
    singles = np.linalg.eigvals(single.B)
    eig_err = max(
        float(np.abs(singles - mu**r).min() / max(1.0, abs(mu**r)))
        for mu in np.linalg.eigvals(lifted.B)
    )
    rng = np.random.default_rng(7)
    idx = rng.choice(single.mesh.M, size=min(npoints, single.mesh.M), replace=False)
    x = single.phi.values.reshape(single.mesh.M, single.n)[idx]
    thetas = single.mesh.grid()[idx]
    comp = x[..., None]
    for j in range(1, r + 1):
        comp = section_map(P, j, comp, (thetas + (j - 1) * P.rho_section) % 1.0, jets.REAL)
    direct = section_map(PoincareSpec(P.field, tol=P.tol), 1, x[..., None], thetas, jets.REAL)
    comp_err = float(np.sqrt(((comp - direct)[..., 0] ** 2).sum(-1)).max())
    return eig_err, comp_err


def single_point_order_reading(exp, qpmap, sigma1=1e-2):
    """Test 4's reading at theta = 0 with every probe point flowed alone.

    The reference for ``verify.test_order``, which flows all probe points in
    one map call: here W is the power sum of the coefficient fields at one
    point, each residual has its own single-point map call, and the scan,
    its floor (from the residual at sigma = 0) and its candidate rule are
    the same.
    """
    inverse, _, rho_F, lam_F = _direction(exp.branch, exp.lam, exp.rho)
    start = np.zeros(exp.mesh.d)
    if inverse:
        start = (start - rho_F) % 1.0

    def w(theta, sigma):
        return sum(sigma**k * a.evaluate(theta) for k, a in enumerate(exp.coeffs))

    def residual(sigma):
        img = qpmap.images(w(start, sigma)[None], start[None], inverse=inverse)[0]
        return np.linalg.norm(img - w((start + rho_F) % 1.0, lam_F * sigma))

    expected = exp.order + 1
    floor = max(1e-13, 100.0 * residual(0.0))
    best = None
    for sigma in sigma1 * 10.0 ** (-np.arange(9) / 4.0):
        e1, e2 = residual(sigma), residual(sigma / 2.0)
        if min(e1, e2) < floor:
            continue
        ratio = np.log2(e1 / e2)
        if best is None or abs(ratio - expected) < abs(best - expected):
            best = ratio
    return best
