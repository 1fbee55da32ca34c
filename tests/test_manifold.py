import warnings

import numpy as np
import pytest

from qptori import jets
from qptori.errors import SpectrumError
from qptori.flowmap import PoincareSpec, QPVectorField
from qptori.fourier import FourierField, MeshSpec, reflect_grid, shift_grid
from qptori.manifold import (
    ManifoldExpansion,
    eigen_pick,
    estimate_radius,
    stable_expansion,
    unstable_expansion,
)
from qptori.models import PendulumField, pendulum_field
from qptori.multishoot import LiftedMap
from qptori.torus import NewtonConfig, run_newton, solve_cohomological
from qptori.verify import reversibility, test_order, torus_suite

from conftest import NoReversor, newton_seed, pendulum_setup, single_point_order_reading

# the imported accuracy check is a library function, not a pytest case
test_order.__test__ = False


@pytest.fixture(scope="module")
def d1_manifolds(d1_torus):
    P, qpmap, sol = d1_torus
    uns = unstable_expansion(sol, qpmap, m=6)
    return uns, stable_expansion(sol, qpmap, m=6, unstable=uns)


@pytest.fixture(scope="module")
def desk_manifolds(d2_torus):
    """Both order-6 branches of the desk torus (d=2, N=31), as the CLI makes them."""
    P, qpmap, sol = d2_torus
    uns = unstable_expansion(sol, qpmap, m=6)
    return uns, stable_expansion(sol, qpmap, m=6, unstable=uns)


class WrongReversor(PendulumField):
    """The pendulum declaring (1, 1), which is not a reversor of it."""

    reversor = (1, 1)


def _inverse_transports(monkeypatch, qpmap):
    """A list that records the order of every transport through P^{-1}."""
    calls = []
    transport = qpmap.transport_series

    def counting(tables, thetas, order, inverse=False):
        if inverse:
            calls.append(order)
        return transport(tables, thetas, order, inverse=inverse)

    monkeypatch.setattr(qpmap, "transport_series", counting)
    return calls


class TestEigenPick:
    def test_diagonal(self):
        lam, v = eigen_pick(np.diag([2.0, 0.5]), "unstable", c=3.0)
        assert lam == 2.0
        assert np.allclose(v, [3.0, 0.0])
        lam, v = eigen_pick(np.diag([2.0, 0.5]), "stable")
        assert lam == 0.5
        assert np.allclose(v, [0.0, 1.0])
        # a +-pair ties in score: the positive eigenvalue wins in either order
        for pair in ([-3.0, 3.0], [3.0, -3.0]):
            lam, _ = eigen_pick(np.diag(pair + [0.5]), "unstable")
            assert lam == 3.0
        for pair in ([-0.25, 0.25], [0.25, -0.25]):
            lam, _ = eigen_pick(np.diag(pair + [4.0]), "stable")
            assert lam == 0.25

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
        g = np.full(mesh.shape + (1,), 1.0)
        u = solve_cohomological(g, mesh, np.array([[2.0]]), np.array([0.3]), 2.0**2)
        assert np.abs(u - 0.5).max() < 1e-14

    def test_functional_residual(self, d1_torus):
        _, _, sol = d1_torus
        rng = np.random.default_rng(0)
        mesh = sol.mesh
        lam, _ = eigen_pick(sol.B, "unstable")
        for m in range(2, 11):
            g = rng.standard_normal(mesh.shape + (2,))
            u = solve_cohomological(g, mesh, sol.B, sol.rho, float(lam) ** m)
            lhs = lam**m * shift_grid(u, mesh, sol.rho)
            rhs = np.einsum("ij,...j->...i", sol.B, u) + g
            scale = max(1.0, np.abs(lhs).max())
            assert np.abs(lhs - rhs).max() / scale < 1e-11


class TestExpansions:
    @pytest.mark.parametrize(
        "index, tol_a0, tol_a1",
        # the reflected stable branch carries the torus's symmetry error
        # (5.0e-14) and the noise of C's stable column (1.2e-11)
        [(0, 0.0, 1e-14), (1, 1e-13, 1e-10)],
        ids=["unstable", "stable"],
    )
    def test_seed_orders(self, d1_torus, d1_manifolds, index, tol_a0, tol_a1):
        # both branches sit on the plain grid: a_0 is the torus, a_1 = C v
        _, _, sol = d1_torus
        exp = d1_manifolds[index]
        assert exp.order == 6
        assert np.abs(exp.coeffs[0].values - sol.phi.values).max() <= tol_a0
        a1 = sol.C @ exp.v
        assert np.abs(exp.coeffs[1].values - a1).max() <= tol_a1

    def test_per_order_errors_small(self, d1_manifolds):
        for exp in d1_manifolds:
            assert len(exp.order_errors) == 7
            assert max(exp.order_errors) <= 1e-10

    def test_transport_tails_kept(self, d1_manifolds):
        # one relative Fourier tail per transported order 2..m; a tail above
        # the fatal level would have stopped the expansion
        for exp in d1_manifolds:
            assert sorted(exp.transport_tails) == list(range(2, 7))
            assert all(0.0 <= t < 1e-6 for t in exp.transport_tails.values())

    def test_linear_order_consistent(self, d1_manifolds):
        # order 1 is exact by construction; the measured residual is the
        # jet-transport noise floor amplified by the multiplier ~276
        for exp in d1_manifolds:
            assert exp.order_errors[1] <= 1e-10

    @pytest.mark.parametrize(
        "index, sigma",
        # the unstable target is evaluated at lambda*sigma ~ 2.8e-3
        [(0, 1e-5), (1, 1e-3)],
        ids=["unstable", "stable"],
    )
    def test_invariance_pointwise(self, d1_torus, d1_manifolds, index, sigma):
        # P(W(theta, sigma), theta) = W(theta + rho, lambda sigma) for either branch
        P, qpmap, sol = d1_torus
        exp = d1_manifolds[index]
        theta = np.array([0.3])
        x = exp.evaluate(theta, sigma)
        img = qpmap.images(x[None], theta[None])[0]
        target = exp.evaluate((theta + sol.rho) % 1.0, exp.lam * sigma)
        assert np.linalg.norm(img - target) < 1e-10

    def test_evaluate_sigma_vector(self, d1_manifolds):
        # one contraction and Horner's rule over a sigma vector and a batch of
        # angles give the per-point, per-sigma power sum to round-off
        for exp in d1_manifolds:
            thetas = np.array([[0.0], [0.3], [0.77]])
            sigmas = np.linspace(-1.0, 1.0, 9)
            values = exp.evaluate(thetas, sigmas)
            assert values.shape == (3, 9, 2)
            assert exp.evaluate(thetas[1], sigmas).shape == (9, 2)
            for theta, row in zip(thetas, values):
                for sigma, w in zip(sigmas, row):
                    ref = sum(sigma**k * a.evaluate(theta) for k, a in enumerate(exp.coeffs))
                    assert np.abs(w - ref).max() <= 1e-14 * max(1.0, np.abs(ref).max())
                    assert np.array_equal(exp.evaluate(theta, sigma), w)

    def test_reversibility_relates_branches(self, d1_torus, d1_manifolds):
        # the stable branch transported through P^{-1}, on the same pendulum
        # without its reversor, agrees with the reflected one up to the
        # noise that C's stable column leaves in the transported a_k
        P, _, sol = d1_torus
        qpmap = LiftedMap(PoincareSpec(NoReversor(P.field.params), tol=P.tol))
        transported = stable_expansion(sol, qpmap, m=6)
        assert transported.derived_from is None
        reflected = d1_manifolds[1]
        for a, b in zip(transported.coeffs, reflected.coeffs):
            scale = np.abs(a.values).max()
            assert np.abs(a.values - b.values).max() <= 1e-8 * scale

    def test_order_too_low(self, d1_torus):
        _, qpmap, sol = d1_torus
        with pytest.raises(ValueError):
            unstable_expansion(sol, qpmap, m=0)


class TestReflection:
    """A reversible field's stable branch is its reflected unstable branch."""

    @pytest.mark.parametrize("fixture", ["d1_manifolds", "desk_manifolds"])
    def test_every_order_is_reflected(self, request, fixture):
        uns, sta = request.getfixturevalue(fixture)
        R = np.array([1.0, -1.0])
        assert (uns.derived_from, sta.derived_from) == (None, "unstable")
        assert sta.transport_tails == uns.transport_tails
        for a_u, a_s in zip(uns.coeffs, sta.coeffs):
            assert np.array_equal(a_s.values, R * reflect_grid(a_u.values, a_u.mesh))

    def test_desk_pivot_sign(self, d2_torus, desk_manifolds):
        # the reflected a_1 lies on the side of C v_s that eigen_pick's pivot
        # rule picked, at its scale, up to the noise of C's stable column
        _, _, sol = d2_torus
        sta = desk_manifolds[1]
        Cv = sol.C @ sta.v
        gauge = np.vdot(sta.coeffs[1].values, Cv) / np.vdot(Cv, Cv)
        assert abs(gauge - 1.0) <= 1e-9

    def test_desk_accuracy(self, d2_torus, desk_manifolds):
        _, qpmap, sol = d2_torus
        assert reversibility(qpmap, sol.phi) <= 1e-13
        for exp in desk_manifolds:
            assert max(exp.order_errors) <= 1e-10, (exp.branch, exp.order_errors)
            rep = test_order(exp, qpmap)
            assert rep.passed and abs(rep.measured - 7.0) <= 0.5, str(rep)

    def test_sign_follows_the_pivot(self):
        # for alpha > 1 the pivot of v_u and v_s is the velocity, which R
        # flips: sigma changes sign, and with it every odd order
        field = pendulum_field(d=1, alpha=1.2)
        mesh = MeshSpec((31,))
        qpmap = LiftedMap(PoincareSpec(field))
        sol = run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig())
        uns = unstable_expansion(sol, qpmap, m=4)
        sta = stable_expansion(sol, qpmap, m=4, unstable=uns)
        R = np.array([1.0, -1.0])
        for k, (a_u, a_s) in enumerate(zip(uns.coeffs, sta.coeffs)):
            assert np.array_equal(a_s.values, (-1.0) ** k * R * reflect_grid(a_u.values, mesh))
        # lambda_u is 975 here, and both transported branches read up to
        # 2.1e-10; the other sign would read O(1) at odd orders
        assert max(sta.order_errors) <= 1e-9, sta.order_errors

    def test_wrong_reversor_is_caught(self, d1_torus):
        # the stable branch's own transport through P^{-1} checks the reflection
        P, _, sol = d1_torus
        qpmap = LiftedMap(PoincareSpec(WrongReversor(P.field.params), tol=P.tol))
        exp = stable_expansion(sol, qpmap, m=4)
        assert exp.derived_from == "unstable"
        assert max(exp.order_errors) > 1e-3, exp.order_errors

    def test_mismatched_unstable_refused(self, d1_torus, d1_manifolds):
        # the reflection takes the unstable branch at the stable one's order
        # and scaling, or none at all; it never transports a second copy
        _, qpmap, sol = d1_torus
        uns, sta = d1_manifolds
        for m, c, given in [(6, 2.0, uns), (4, 1.0, uns), (6, 1.0, sta)]:
            with pytest.raises(ValueError, match="reflects the unstable one"):
                stable_expansion(sol, qpmap, m=m, c=c, unstable=given)

    def test_lift_keeps_the_transport(self, monkeypatch):
        # reversal maps section j/r onto section (r-j)/r: an r = 2 lift
        # transports its stable branch, orders 2..m and the error check
        field, mesh, P = pendulum_setup(1, 31, r=2)
        qpmap = LiftedMap(P)
        sol = run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig())
        assert reversibility(qpmap, sol.phi) is None
        calls = _inverse_transports(monkeypatch, qpmap)
        exp = stable_expansion(sol, qpmap, m=3)
        assert exp.derived_from is None
        assert calls == [2, 3, 3]
        assert max(exp.order_errors) <= 1e-10, exp.order_errors


class TestRadius:
    """The radius estimate by which ``scaling = auto`` rescales sigma."""

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


class TestTransportTail:
    """A transported order whose relative Fourier tail is too large for the
    mesh warns above 1e-10 and stops the expansion above 1e-6."""

    def test_coarse_mesh_warns(self):
        # at N = 15 the order-2 tail reads 3.9e-7: a warning, not a stop
        field, mesh, P = pendulum_setup(1, 15)
        qpmap = LiftedMap(P)
        sol = run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig())
        with pytest.warns(RuntimeWarning, match="order-2 transport has relative tail 3.9"):
            exp = unstable_expansion(sol, qpmap, m=2, c=1.0)
        assert exp.transport_tails[2] == pytest.approx(3.9e-7, rel=0.05)


class DampedPendulum(QPVectorField):
    """(x, y)' = (y, -0.8 sin x - 0.05 y + 0.01 / (3 + sum_i cos 2 pi theta_i)).

    It implements ``rhs`` only, so the integrator runs the default ``span``;
    its divergence is -0.05, so det DP = exp(-0.05 * 2 pi) != 1.
    """

    n = 2
    omega = np.array([1.0, np.sqrt(2.0)])
    gamma = 0.05

    def rhs(self, x, theta, spec):
        sin_x, _ = jets.sin_cos(x[:, 0], spec)
        out = np.empty_like(x)
        out[:, 0] = x[:, 1]
        out[:, 1] = -0.8 * sin_x - self.gamma * x[:, 1]
        out[0, 1] += 0.01 / (3.0 + np.cos(2.0 * np.pi * theta).sum(axis=-1))
        return out


@pytest.fixture(scope="module")
def damped_run():
    """Torus, tests 1-4 and both order-4 manifolds of the damped pendulum."""
    field = DampedPendulum()
    mesh = MeshSpec((31,))
    qpmap = LiftedMap(PoincareSpec(field))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        sol = run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig())
        branches = [unstable_expansion(sol, qpmap, m=4), stable_expansion(sol, qpmap, m=4)]
        torus_tests = torus_suite(qpmap, sol.phi, tol=1e-10)
        order_tests = [test_order(exp, qpmap) for exp in branches]
    return field, sol, branches, torus_tests, order_tests, caught


class TestOtherField:
    """The whole pipeline on a field other than the built-in pendulum."""

    def test_liouville_product(self, damped_run):
        field, sol, *_ = damped_run
        lam_s, lam_u = np.sort(np.abs(sol.eigenvalues()))
        expected = np.exp(-field.gamma * field.delta)
        assert abs(lam_s * lam_u - expected) <= 1e-10 * expected

    def test_accuracy_tests_pass(self, damped_run):
        *_, torus_tests, order_tests, _ = damped_run
        for t in torus_tests + order_tests:
            assert t.passed, str(t)

    def test_order_reading_matches_single_points(self, damped_run):
        # flowing the 18 probe points in one call shares the integrator's
        # steps among them; the reading stays that of one point at a time
        field, sol, branches, *_ = damped_run
        qpmap = LiftedMap(PoincareSpec(field))
        for exp in branches:
            batched = test_order(exp, qpmap).measured
            assert abs(batched - single_point_order_reading(exp, qpmap)) <= 0.01, exp.branch

    def test_order_errors(self, damped_run):
        _, _, branches, *_ = damped_run
        for exp in branches:
            assert max(exp.order_errors) <= 1e-10, (exp.branch, exp.order_errors)

    def test_seed_orders_and_transport(self, damped_run, monkeypatch):
        # no reversor: both branches transported, a_0 the torus and a_1 = C v
        field, sol, branches, *_ = damped_run
        qpmap = LiftedMap(PoincareSpec(field))
        assert reversibility(qpmap, sol.phi) is None
        for exp in branches:
            assert exp.derived_from is None
            assert np.array_equal(exp.coeffs[0].values, sol.phi.values)
            assert np.abs(exp.coeffs[1].values - sol.C @ exp.v).max() < 1e-14
        calls = _inverse_transports(monkeypatch, qpmap)
        again = stable_expansion(sol, qpmap, m=4, unstable=branches[0])
        assert calls == [2, 3, 4, 4]
        for a, b in zip(again.coeffs, branches[1].coeffs):
            assert np.array_equal(a.values, b.values)

    def test_no_warning(self, damped_run):
        caught = damped_run[-1]
        assert not caught, [str(w.message) for w in caught]
