import numpy as np
import pytest

from qptori.errors import SpectrumError
from qptori.fourier import FourierField, MeshSpec
from qptori.manifold import (
    ManifoldExpansion,
    eigen_pick,
    estimate_radius,
    rescale,
    stable_expansion,
    unstable_expansion,
)
from qptori.torus import solve_cohomological

from conftest import newton_seed, pendulum_setup


@pytest.fixture(scope="module")
def d1_manifolds(d1_torus):
    P, qpmap, sol = d1_torus
    return (
        unstable_expansion(sol, qpmap, m=6),
        stable_expansion(sol, qpmap, m=6),
    )


class TestEigenPick:
    def test_diagonal(self):
        lam, v = eigen_pick(np.diag([2.0, 0.5]), "unstable", c=3.0)
        assert lam == 2.0
        assert np.allclose(v, [3.0, 0.0])
        lam, v = eigen_pick(np.diag([2.0, 0.5]), "stable")
        assert lam == 0.5
        assert np.allclose(v, [0.0, 1.0])

    def test_eigen_residual(self, d1_torus):
        _, _, sol = d1_torus
        for branch in ("unstable", "stable"):
            lam, v = eigen_pick(sol.B, branch)
            assert np.linalg.norm(sol.B @ v - lam * v) <= 1e-10 * np.linalg.norm(v)

    def test_rotation_has_no_real_hyperbolic_pair(self):
        R = np.array([[0.0, -1.0], [1.0, 0.0]])
        with pytest.raises(SpectrumError):
            eigen_pick(R, "unstable")

    def test_bad_branch(self):
        with pytest.raises(ValueError):
            eigen_pick(np.eye(2), "sideways")


class TestCohoManifold:
    def test_constant_input(self):
        # (lambda^2 - B) u = g on the DC block: (4 - 2) u = g
        mesh = MeshSpec((5,))
        g = FourierField.from_values(mesh, np.full(mesh.shape + (1,), 1.0))
        u = solve_cohomological(g, np.array([[2.0]]), np.array([0.3]), 2.0**2)
        assert np.abs(u.values - 0.5).max() < 1e-14

    def test_functional_residual(self, d1_torus):
        _, _, sol = d1_torus
        rng = np.random.default_rng(0)
        mesh = sol.mesh
        lam, _ = eigen_pick(sol.B, "unstable")
        for m in range(2, 11):
            g = FourierField.from_values(mesh, rng.standard_normal(mesh.shape + (2,)))
            u = solve_cohomological(g, sol.B, sol.rho, float(lam) ** m)
            lhs = lam**m * u.shift(sol.rho).values
            rhs = np.einsum("ij,...j->...i", sol.B, u.values) + g.values
            scale = max(1.0, np.abs(lhs).max())
            assert np.abs(lhs - rhs).max() / scale < 1e-11


class TestExpansions:
    def test_unstable_seed_orders(self, d1_torus, d1_manifolds):
        _, _, sol = d1_torus
        exp, _ = d1_manifolds
        assert exp.order == 6
        assert np.abs(exp.coeffs[0].values - sol.phi.values).max() == 0.0
        a1 = sol.C.matvec(np.broadcast_to(exp.v, sol.mesh.shape + (2,)))
        assert np.abs(exp.coeffs[1].values - a1).max() < 1e-14

    def test_stable_seed_is_shifted_torus(self, d1_torus, d1_manifolds):
        _, _, sol = d1_torus
        _, exp = d1_manifolds
        shifted = sol.phi.shift(sol.rho).values
        assert np.abs(exp.coeffs[0].values - shifted).max() < 1e-14

    def test_per_order_errors_small(self, d1_manifolds):
        for exp in d1_manifolds:
            assert len(exp.order_errors) == 7
            assert max(exp.order_errors) <= 1e-10

    def test_linear_order_consistent(self, d1_manifolds):
        # order 1 is exact by construction; the measured residual is the
        # jet-transport noise floor amplified by the multiplier ~276
        for exp in d1_manifolds:
            assert exp.order_errors[1] <= 1e-10

    def test_unstable_invariance_pointwise(self, d1_torus, d1_manifolds):
        P, qpmap, sol = d1_torus
        exp, _ = d1_manifolds
        theta = np.array([0.3])
        sigma = 1e-5  # the target is evaluated at lambda*sigma ~ 2.8e-3
        x = exp.evaluate(theta, sigma)
        img = qpmap.images(x[None], theta[None])[0]
        target = exp.evaluate((theta + sol.rho) % 1.0, exp.lam * sigma)
        assert np.linalg.norm(img - target) < 1e-10

    def test_stable_invariance_pointwise(self, d1_torus, d1_manifolds):
        # coefficients live on the shifted parametrization: the stored
        # W(theta, .) is the manifold at angle theta + rho, and the forward
        # map contracts sigma by lambda_s
        P, qpmap, sol = d1_torus
        _, exp = d1_manifolds
        theta = np.array([0.3])
        sigma = 1e-3
        x = exp.evaluate(theta, sigma)
        img = qpmap.images(x[None], ((theta + sol.rho) % 1.0)[None])[0]
        target = exp.evaluate((theta + sol.rho) % 1.0, exp.lam * sigma)
        assert np.linalg.norm(img - target) < 1e-10

    def test_reversibility_relates_branches(self):
        # for the unforced pendulum, (x, y) -> (x, -y) with time reversal
        # maps the unstable manifold of (pi, 0) onto the stable one; the two
        # expansions agree up to that flip and a sigma rescaling
        from qptori.multishoot import LiftedMap
        from qptori.torus import NewtonConfig, run_newton

        field, mesh, P = pendulum_setup(1, 15, eps=0.0)
        qpmap = LiftedMap(P)
        sol = run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig())
        uns = unstable_expansion(sol, qpmap, m=4)
        sta = stable_expansion(sol, qpmap, m=4)
        flip = np.array([1.0, -1.0])
        # the sigma scale between the parametrizations comes from order 1
        u1 = uns.coeffs[1].average()
        s1 = sta.coeffs[1].average()
        c = s1[1] / (flip[1] * u1[1])
        for k in range(2, 5):
            lhs = sta.coeffs[k].average()
            rhs = c**k * flip * uns.coeffs[k].average()
            assert np.abs(lhs - rhs).max() < 1e-9 * max(1.0, np.abs(rhs).max())

    def test_order_too_low(self, d1_torus):
        _, qpmap, sol = d1_torus
        with pytest.raises(ValueError):
            unstable_expansion(sol, qpmap, m=0)


class TestRescale:
    def test_identity(self, d1_manifolds):
        exp, _ = d1_manifolds
        same = rescale(exp, 1.0)
        for a, b in zip(same.coeffs, exp.coeffs):
            assert np.abs(a.coeffs - b.coeffs).max() == 0.0

    def test_group_action(self, d1_manifolds):
        exp, _ = d1_manifolds
        back = rescale(rescale(exp, 2.0), 0.5)
        for a, b in zip(back.coeffs, exp.coeffs):
            assert np.abs(a.values - b.values).max() < 1e-13

    def test_reparametrization_preserves_points(self, d1_manifolds):
        exp, _ = d1_manifolds
        scaled = rescale(exp, 2.0)
        theta = np.array([0.7])
        sigma = 0.02
        w1 = exp.evaluate(theta, sigma)
        w2 = scaled.evaluate(theta, sigma / 2.0)
        assert np.abs(w1 - w2).max() < 1e-12

    def test_radius_of_geometric_series(self):
        mesh = MeshSpec((5,))
        r = 3.0
        coeffs = [
            FourierField.from_values(mesh, np.full(mesh.shape + (1,), r**-k))
            for k in range(9)
        ]
        exp = ManifoldExpansion("unstable", 2.0, np.array([1.0]), coeffs, 1.0, np.array([0.3]))
        assert abs(estimate_radius(exp) - r) / r < 0.1


class TestPersistence:
    def test_save_load_roundtrip(self, d1_manifolds, tmp_path):
        exp, _ = d1_manifolds
        prefix = str(tmp_path / "mani")
        exp.save(prefix)
        back = ManifoldExpansion.load(prefix)
        assert back.branch == exp.branch
        assert back.lam == exp.lam
        assert back.order == exp.order
        assert np.allclose(back.v, exp.v)
        assert back.order_errors == exp.order_errors
        for a, b in zip(back.coeffs, exp.coeffs):
            assert np.abs(a.coeffs - b.coeffs).max() == 0.0

    def test_load_missing_raises(self, tmp_path):
        from qptori.errors import ArtifactError

        with pytest.raises(ArtifactError):
            ManifoldExpansion.load(str(tmp_path / "nothing"))
