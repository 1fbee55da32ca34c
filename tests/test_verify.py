import numpy as np
import pytest

from qptori.fourier import FourierField, MeshSpec
from qptori.manifold import ManifoldExpansion
from qptori.verify import (
    default_gamma,
    test_invariance,
    test_order,
    test_shifted,
    test_tail,
    torus_suite,
)

from conftest import single_point_order_reading

# pytest would otherwise try to collect the imported checks as test functions
test_invariance.__test__ = False
test_order.__test__ = False
test_shifted.__test__ = False
test_tail.__test__ = False


class LinearSkewMap:
    """P(x, theta) = A (x - psi(theta)) + psi(theta + rho): psi is invariant
    by construction, with constant differential A."""

    def __init__(self, A, psi, rho):
        self.A = np.asarray(A, dtype=float)
        self.psi = psi  # callable theta (npts, d) -> (npts, n)
        self.rho = np.asarray(rho, dtype=float)
        self.d = len(self.rho)

    def images(self, x, thetas, inverse=False):
        thetas = np.asarray(thetas, dtype=float)
        if inverse:
            Ainv = np.linalg.inv(self.A)
            prev = (thetas - self.rho) % 1.0
            return (x - self.psi(thetas)) @ Ainv.T + self.psi(prev)
        return (x - self.psi(thetas)) @ self.A.T + self.psi((thetas + self.rho) % 1.0)


def circle(thetas):
    ang = 2 * np.pi * thetas[:, 0]
    return np.stack([np.cos(ang), np.sin(ang)], axis=-1)


@pytest.fixture
def exact_fixture():
    mesh = MeshSpec((31,))
    rho = np.array([0.3127])
    qpmap = LinearSkewMap(np.diag([2.0, 0.5]), circle, rho)
    phi = FourierField.from_values(mesh, circle(mesh.grid()).reshape(mesh.shape + (2,)))
    return mesh, qpmap, phi


class TestReportFormat:
    def test_pass_line(self, exact_fixture):
        _, qpmap, phi = exact_fixture
        rep = test_invariance(qpmap, phi)
        assert rep.passed
        text = str(rep)
        assert text.startswith("test 1 (invariance):")
        assert "[pass]" in text
        assert rep.as_dict()["test"] == 1

    def test_gamma_is_deterministic(self):
        g = default_gamma(3)
        assert np.allclose(g, default_gamma(3))
        assert ((0 <= g) & (g < 1)).all()


class TestInvariance:
    def test_exact_circle(self, exact_fixture):
        _, qpmap, phi = exact_fixture
        rep = test_invariance(qpmap, phi)
        assert rep.measured < 1e-14

    def test_perturbed_mode_fails(self, exact_fixture):
        mesh, qpmap, phi = exact_fixture
        coeffs = phi.coeffs.copy()
        coeffs[3, 0] += 1e-6 * mesh.M
        bad = FourierField(mesh, phi.n, coeffs=coeffs)
        rep = test_invariance(qpmap, bad)
        assert not rep.passed
        assert 1e-7 < rep.measured < 1e-4


class TestTail:
    def test_band_limited_zero(self):
        mesh = MeshSpec((31,))
        coeffs = np.zeros(mesh.cshape + (1,), dtype=complex)
        coeffs[0, 0] = 1.0
        coeffs[3, 0] = 0.5
        rep = test_tail(FourierField(mesh, 1, coeffs=coeffs))
        assert rep.passed
        assert rep.measured == 0.0

    def test_under_resolved_fails(self):
        def fn(theta):
            return 1.0 / (1.3 + np.cos(2 * np.pi * theta[..., :1]))

        coarse, fine = (
            test_tail(
                FourierField.from_values(mesh, fn(mesh.grid()).reshape(mesh.shape + (1,))),
                tol=1e-10,
            )
            for mesh in (MeshSpec((15,)), MeshSpec((101,)))
        )
        assert not coarse.passed
        assert fine.passed


class TestShifted:
    def test_gamma_zero_equals_test1(self, exact_fixture):
        _, qpmap, phi = exact_fixture
        r1 = test_invariance(qpmap, phi)
        r3 = test_shifted(qpmap, phi, gamma=np.zeros(1))
        assert abs(r1.measured - r3.measured) < 1e-14

    def test_exact_circle_shifted(self, exact_fixture):
        _, qpmap, phi = exact_fixture
        rep = test_shifted(qpmap, phi)
        assert rep.measured < 1e-13

    def test_aliasing_passes_test1_fails_test3(self):
        # the true invariant curve has a mode (20) beyond the mesh, aliasing
        # onto mode -11 of a 31-point grid; with rho a multiple of 1/31 the
        # aliased shift phases coincide on the mesh, so test 1 cannot see
        # the problem, while the off-mesh interpolation of test 3 does
        mesh = MeshSpec((31,))
        rho = np.array([7.0 / 31.0])

        def psi(thetas):
            ang = 2 * np.pi * 20 * thetas[:, 0]
            return np.stack([np.cos(ang), np.sin(ang)], axis=-1)

        qpmap = LinearSkewMap(np.diag([2.0, 0.5]), psi, rho)
        phi = FourierField.from_values(mesh, psi(mesh.grid()).reshape(mesh.shape + (2,)))
        r1 = test_invariance(qpmap, phi)
        r3 = test_shifted(qpmap, phi)
        assert r1.passed
        assert not r3.passed

    def test_suite_runs_all_three(self, exact_fixture):
        _, qpmap, phi = exact_fixture
        reports = torus_suite(qpmap, phi)
        assert [r.test_id for r in reports] == [1, 2, 3]
        assert all(r.passed for r in reports)


class QuadraticMap:
    """P(x) = lam*x + q*x^2 componentwise, no angle dependence."""

    def __init__(self, lam, q, d):
        self.lam = lam
        self.q = q
        self.rho = np.full(d, 0.17)

    def images(self, x, thetas, inverse=False):
        assert not inverse
        return self.lam * x + self.q * x * x


class TestOrder:
    def _linear_expansion(self, lam):
        mesh = MeshSpec((5,))
        zero = FourierField.from_values(mesh, np.zeros(mesh.shape + (2,)))
        a1 = FourierField.from_values(mesh, np.broadcast_to([1.0, 0.5], mesh.shape + (2,)).copy())
        return ManifoldExpansion(
            "unstable", lam, np.array([1.0, 0.5]), [zero, a1], 1.0, np.array([0.17])
        )

    def test_quadratic_truncation_ratio(self):
        # W = sigma*v truncated at m=1 under a quadratic map: the residual is
        # exactly the quadratic term, so the two-point slope is 2
        lam = 2.0
        exp = self._linear_expansion(lam)
        rep = test_order(exp, QuadraticMap(lam, q=0.3, d=1), sigma1=1e-3)
        assert rep.passed
        assert rep.measured == pytest.approx(2.0, abs=0.05)
        assert rep.context["expected"] == 2

    def test_round_off_sigma_flagged(self):
        lam = 2.0
        exp = self._linear_expansion(lam)
        rep = test_order(exp, QuadraticMap(lam, q=0.3, d=1), sigma1=1e-12)
        assert not rep.passed
        assert all(entry.get("note") == "round-off" for entry in rep.context["scan"])

    def test_pendulum_expansion_ratio(self, d1_torus):
        from qptori.manifold import unstable_expansion

        P, qpmap, sol = d1_torus
        exp = unstable_expansion(sol, qpmap, m=4)
        rep = test_order(exp, qpmap)
        assert rep.passed
        assert abs(rep.measured - 5.0) <= 0.5

    @pytest.mark.parametrize("branch", ["unstable", "stable"])
    def test_one_span_per_section(self, d1_torus, monkeypatch, branch):
        # all 18 probe points go through one map call: one integration span
        # per section, and the reading of one point at a time
        from qptori import flowmap
        from qptori.manifold import stable_expansion, unstable_expansion

        _, qpmap, sol = d1_torus
        expand = unstable_expansion if branch == "unstable" else stable_expansion
        exp = expand(sol, qpmap, m=4)
        batches = []
        integrate_span = flowmap.integrate_span

        def counting(field, y0, *args, **kwargs):
            batches.append(y0.shape[0])
            return integrate_span(field, y0, *args, **kwargs)

        monkeypatch.setattr(flowmap, "integrate_span", counting)
        rep = test_order(exp, qpmap)
        assert batches == [18] * qpmap.r
        monkeypatch.undo()
        assert rep.passed
        assert abs(rep.measured - single_point_order_reading(exp, qpmap)) <= 0.01
