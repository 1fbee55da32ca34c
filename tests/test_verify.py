import numpy as np
import pytest

from qptori.fourier import FourierField, MeshSpec
from qptori.manifold import ManifoldExpansion
from qptori.verify import (
    _plateau,
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
    def _linear_expansion(self, lam, size=1.0):
        mesh = MeshSpec((5,))
        zero = FourierField.from_values(mesh, np.zeros(mesh.shape + (2,)))
        a1 = FourierField.from_values(
            mesh, np.broadcast_to([size, 0.5 * size], mesh.shape + (2,)).copy()
        )
        return ManifoldExpansion(
            "unstable", lam, np.array([1.0, 0.5]), [zero, a1], 1.0, np.array([0.17])
        )

    def test_quadratic_truncation_ratio(self):
        # W = sigma*v truncated at m=1 under a quadratic map: the residual is
        # exactly the quadratic term q (sigma v)^2, so the two-point slope is
        # 2 at every sigma of the scan
        lam = 2.0
        exp = self._linear_expansion(lam)
        rep = test_order(exp, QuadraticMap(lam, q=0.3, d=1))
        assert rep.passed
        assert rep.measured == pytest.approx(2.0, abs=0.05)
        assert rep.context["expected"] == 2

    def test_round_off_sigma_flagged(self):
        # a_1 scaled by 1e-10 puts every residual of the scan, at most
        # 0.3 (1e-12)^2, under the round-off floor
        lam = 2.0
        exp = self._linear_expansion(lam, size=1e-10)
        rep = test_order(exp, QuadraticMap(lam, q=0.3, d=1))
        assert not rep.passed
        assert all(entry.get("note") == "floor" for entry in rep.context["scan"])

    def test_pendulum_expansion_ratio(self, d1_torus):
        from qptori.manifold import unstable_expansion

        P, qpmap, sol = d1_torus
        exp = unstable_expansion(sol, qpmap, m=4)
        rep = test_order(exp, qpmap)
        assert rep.passed
        assert abs(rep.measured - 5.0) <= 0.5

    @pytest.mark.parametrize(
        "scan, expected, passed",
        # scans of the forced pendulum (None: a floor skip)
        [
            ([2.79, 2.95, 3.03, 3.11, 3.22, 3.48, 4.26, 2.36, 0.83], 2, False),
            ([2.77, 2.92, 2.97, 2.99, 3.00, 3.00, 3.00, 3.00, 3.00], 3, True),
            ([4.76, 4.92, 4.97, 4.99, 5.00, 4.99, None, None, None], 5, True),
            ([6.76, 6.92, 6.97, 6.99, None, None, None, None, None], 7, True),
            ([6.76, 6.92, 6.97, 6.99, 6.97, None, None, None, None], 7, True),
            ([4.79, 4.98, 5.09, 5.22, 5.51, 6.65, 4.26, None, None], 4, False),
            ([6.0, 6.9, 7.0, None, 7.1, 7.2, 5.0, 7.0, 7.0], 7, False),
            # the d=1 order-4 branch at scaling 0.05, 1/70 of its radius:
            # the scan reaches the floor after two sigmas
            ([5.00, 4.99, None, None, None, None, None, None, None], 5, True),
            # one clean slope (the same branch at scaling 0.03) is no plateau
            ([5.00, None, None, None, None, None, None, None, None], 5, False),
            ([5.00, 3.90, None, None, None, None, None, None, None], 5, False),
            ([5.00, None, 4.99, None, None, None, None, None, None], 5, False),
        ],
    )
    def test_plateau_rule(self, scan, expected, passed):
        # a pass needs three consecutive clean slopes in the band, or every
        # clean slope of a shorter scan (two at least), and reads their
        # median; a floor skip breaks a run
        measured, plateau, ok = _plateau(scan, expected)
        assert ok == passed
        run = [scan[i] for i in plateau]
        assert all(abs(r - expected) <= 0.5 for r in run)
        if passed:
            assert measured == np.median(run)

    def test_order_one_stable_fails(self, d1_torus):
        # its scan reads 2.79-4.26 and then 2.36 at sigma = 1.8e-4, a single
        # slope in the band [1.5, 2.5] on the way to the floor: not a plateau
        from qptori.manifold import stable_expansion

        _, qpmap, sol = d1_torus
        rep = test_order(stable_expansion(sol, qpmap, m=1), qpmap)
        assert not rep.passed
        assert len(rep.context["plateau"]) < 3

    @pytest.mark.parametrize("branch", ["unstable", "stable"])
    def test_odd_order_reads_above_its_band(self, d1_torus, branch):
        # the pendulum is odd about the saddle, so the sigma^4 term of an
        # order-3 residual is O(eps) and sigma^5 dominates it down to the
        # torus error: the slope reads near m + 2, and test 4 fails it
        from qptori.manifold import stable_expansion, unstable_expansion

        _, qpmap, sol = d1_torus
        expand = unstable_expansion if branch == "unstable" else stable_expansion
        rep = test_order(expand(sol, qpmap, m=3), qpmap)
        assert not rep.passed
        assert rep.measured >= 4.5

    @pytest.mark.parametrize("branch", ["unstable", "stable"])
    def test_one_span_per_section(self, d1_torus, monkeypatch, branch):
        # all 19 probe points go through one map call: one integration span
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
        assert batches == [19] * qpmap.r
        monkeypatch.undo()
        assert rep.passed
        assert abs(rep.measured - single_point_order_reading(exp, qpmap)) <= 0.01
