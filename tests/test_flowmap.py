import numpy as np
import pytest

from qptori import flowmap, jets
from qptori.errors import IntegrationError
from qptori.flowmap import PoincareSpec, QPVectorField, integrate_span, section_map
from qptori.models import pendulum_field
from qptori.multishoot import LiftedMap

from conftest import pendulum_setup, rhs_real


# the test fields see coefficient-major states x (ncoeff, n, batch)


class ZeroField(QPVectorField):
    n = 2
    omega = np.array([1.0, np.sqrt(2.0)])

    def rhs(self, x, theta, spec):
        return np.zeros_like(x)


class RotationField(QPVectorField):
    """Harmonic oscillator (x, y)' = (y, -x); period 2 pi, no forcing."""

    n = 2
    omega = np.array([1.0, np.sqrt(2.0)])

    def rhs(self, x, theta, spec):
        out = np.empty_like(x)
        out[:, 0] = x[:, 1]
        out[:, 1] = -x[:, 0]
        return out


class BlowupField(QPVectorField):
    """x' = x^2, blows up at t = 1/x(0)."""

    n = 1
    omega = np.array([1.0, np.sqrt(2.0)])

    def rhs(self, x, theta, spec):
        return x * x  # real jets: the product is the plain product


class TestIntegrate:
    def test_zero_field(self):
        field = ZeroField()
        y0 = np.random.default_rng(0).standard_normal((4, 2, 1))
        theta = np.zeros((4, 2))
        out = integrate_span(field, y0, theta, 3.7, jets.REAL, 1e-12)
        assert np.abs(out - y0).max() == 0.0

    def test_harmonic_oscillator_period(self):
        field = RotationField()
        tol = 1e-12
        y0 = np.array([[1.3, -0.4]])[..., None]
        out = integrate_span(field, y0, np.zeros((1, 2)), 2 * np.pi, jets.REAL, tol)
        assert np.abs(out - y0).max() < tol * 10

    def test_error_tracks_tolerance(self):
        # errors against a tight reference must fall with the tolerance
        field = RotationField()
        y0 = np.array([[1.0, 0.0]])[..., None]
        theta = np.zeros((1, 2))
        span = 6 * np.pi
        ref = integrate_span(field, y0, theta, span, jets.REAL, 1e-15)
        tols = (1e-6, 1e-8, 1e-10, 1e-12)
        errs = [
            np.abs(integrate_span(field, y0, theta, span, jets.REAL, tol) - ref).max()
            for tol in tols
        ]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        assert all(err <= 100 * tol for err, tol in zip(errs, tols))

    def test_bad_tolerance(self):
        # a NaN tolerance is refused at once, not after shrinking the step
        # until it underflows
        for tol in (0.0, np.nan):
            with pytest.raises(ValueError):
                integrate_span(ZeroField(), np.zeros((1, 2, 1)), np.zeros((1, 2)), 1.0, jets.REAL, tol)

    def test_blowup_raises(self):
        field = BlowupField()
        y0 = np.array([[1.0]])[..., None]
        with pytest.raises(IntegrationError, match="step size underflow at t=") as err:
            integrate_span(field, y0, np.zeros((1, 2)), 2.0, jets.REAL, 1e-12)
        assert float(str(err.value).rpartition("t=")[2]) < 2.0

    def test_step_limit_raises(self, monkeypatch):
        # a smooth span that needs more step attempts than the limit allows
        monkeypatch.setattr(flowmap, "_MAX_STEPS", 5)
        y0 = np.array([[1.0, 0.0]])[..., None]
        span = 6 * np.pi
        with pytest.raises(IntegrationError, match="in 5 steps, stopped at t=") as err:
            integrate_span(RotationField(), y0, np.zeros((1, 2)), span, jets.REAL, 1e-12)
        assert 0.0 < float(str(err.value).rpartition("t=")[2]) < span

    def test_backward_forward_roundtrip(self):
        field = pendulum_field(d=1)
        rng = np.random.default_rng(1)
        y0 = (np.array([np.pi, 0.0]) + 0.1 * rng.standard_normal((5, 2)))[..., None]
        theta = rng.random((5, 2))
        fwd = integrate_span(field, y0, theta, field.delta, jets.REAL, 1e-14)
        theta_end = theta + field.omega * field.delta / (2 * np.pi)
        back = integrate_span(field, fwd, theta_end, -field.delta, jets.REAL, 1e-14)
        assert np.abs(back - y0).max() < 1e-11


class CountingField(QPVectorField):
    """Another field's stage function, counting its evaluations."""

    def __init__(self, field):
        self.field, self.n, self.omega = field, field.n, field.omega
        self.calls = 0

    def span(self, theta_start, spec):
        f = self.field.span(theta_start, spec)

        def counted(t, x):
            self.calls += 1
            return f(t, x)

        return counted


def reference_span(field, y0, theta_start, t_span, spec, tol):
    """One DOP853 span written with np.tensordot over the stage axis, each
    stage argument a fresh ``y + h * (...)``: the formulation integrate_span
    must reproduce bitwise, step for step."""
    y = y0.transpose(2, 1, 0).copy()
    direction = 1.0 if t_span > 0 else -1.0
    f = field.span(theta_start, spec)
    t = 0.0
    k0 = f(t, y)
    scale = tol + tol * np.abs(y[0])
    d0 = float(np.sqrt(np.mean((y[0] / scale) ** 2)))
    d1 = float(np.sqrt(np.mean((k0[0] / scale) ** 2)))
    h = 0.01 * d0 / d1 if d1 > 1e-15 and d0 > 1e-15 else 1e-6
    h = direction * min(h, abs(t_span))
    A, B, C, E3, E5 = flowmap._A, flowmap._B, flowmap._C, flowmap._E3, flowmap._E5
    stages = flowmap._N_STAGES
    K = np.empty((stages + 1,) + y.shape)
    K[0] = k0
    while True:
        if direction * (t + h) > direction * t_span:
            h = t_span - t
        for i in range(1, stages):
            K[i] = f(t + C[i] * h, y + h * np.tensordot(A[i, :i], K[:i], axes=1))
        y_new = y + h * np.tensordot(B, K[:stages], axes=1)
        K[stages] = f(t + h, y_new)
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err5 = np.tensordot(E5, K, axes=1) / scale
        err3 = np.tensordot(E3, K, axes=1) / scale
        err5_sq = float(np.sum(err5 * err5))
        err3_sq = float(np.sum(err3 * err3))
        if err5_sq == 0.0 and err3_sq == 0.0:
            err_norm = 0.0
        else:
            err_norm = abs(h) * err5_sq / np.sqrt((err5_sq + 0.01 * err3_sq) * y.size)
        if err_norm <= 1.0:
            t += h
            y = y_new
            K[0] = K[stages]
            if t == t_span:
                return y.transpose(2, 1, 0).copy()
            factor = 5.0 if err_norm == 0.0 else min(5.0, max(0.2, 0.9 * err_norm**-0.125))
        else:
            factor = max(0.2, 0.9 * err_norm**-0.125)
        h *= factor


def _saddle_jets(kind, batch, rng):
    """(batch, 2, ncoeff) jets near the pendulum's saddle (pi, 0)."""
    x = np.array([np.pi, 0.0]) + 0.05 * rng.standard_normal((batch, 2))
    if kind == "real":
        return x[..., None], jets.REAL
    if kind == "grad":
        return jets.seed_gradient(x)
    tables = rng.standard_normal((7, batch, 2)) * 0.3 ** np.arange(7)[:, None, None]
    tables[0] = x
    return jets.seed_series(tables, order=6)


class TestReferenceStepper:
    @pytest.mark.parametrize("kind", ["real", "grad", "series"])
    @pytest.mark.parametrize("batch", [1, 961])
    def test_bitwise_and_same_steps(self, kind, batch):
        rng = np.random.default_rng(batch)
        y0, spec = _saddle_jets(kind, batch, rng)
        theta = rng.random((batch, 3))
        field = pendulum_field(d=2)
        ours, ref = CountingField(field), CountingField(field)
        out = integrate_span(ours, y0, theta, field.delta, spec, 1e-14)
        expected = reference_span(ref, y0, theta, field.delta, spec, 1e-14)
        assert np.array_equal(out, expected)
        # one start evaluation and 12 per attempt: the same step sequence,
        # over more than ten attempts
        assert ours.calls == ref.calls > 1 + 12 * 10

    def test_backward_span(self):
        # negative steps, and a span that is no multiple of the forcing period
        rng = np.random.default_rng(9)
        y0, spec = _saddle_jets("grad", 7, rng)
        theta = rng.random((7, 2))
        field = pendulum_field(d=1)
        ours, ref = CountingField(field), CountingField(field)
        out = integrate_span(ours, y0, theta, -0.7 * field.delta, spec, 1e-12)
        expected = reference_span(ref, y0, theta, -0.7 * field.delta, spec, 1e-12)
        assert np.array_equal(out, expected)
        assert ours.calls == ref.calls


class TestTableau:
    def test_bitwise_equal_to_scipy(self):
        # the literals were copied from scipy's DOP853 module; a changed digit
        # would alter every map evaluation without failing any tolerance
        dp8 = pytest.importorskip(
            "scipy.integrate._ivp.dop853_coefficients",
            reason="scipy is not installed: nothing to compare the DOP853 tableau with",
        )
        n = dp8.N_STAGES
        assert flowmap._N_STAGES == n
        assert np.array_equal(flowmap._A, dp8.A[:n, :n])
        assert np.array_equal(flowmap._B, dp8.B)
        assert np.array_equal(flowmap._C, dp8.C[:n])
        assert np.array_equal(flowmap._E3, dp8.E3)
        assert np.array_equal(flowmap._E5, dp8.E5)

    def test_consistency_conditions(self):
        # explicit scheme, c_i = sum_j a_ij, weights summing to 1 and error
        # weights to 0 (round-off today: 1.0e-15, 4.4e-16, 3.5e-16, 1.0e-16)
        A, C = flowmap._A, flowmap._C
        assert A.shape == (flowmap._N_STAGES, flowmap._N_STAGES)
        assert not np.triu(A).any()
        assert np.abs(A.sum(axis=1) - C).max() <= 4e-15
        assert abs(flowmap._B.sum() - 1.0) <= 4e-15
        assert abs(flowmap._E3.sum()) <= 4e-15
        assert abs(flowmap._E5.sum()) <= 4e-15


# the return map is the r = 1 lift
class TestPoincare:
    def test_unforced_fixed_point(self):
        field, mesh, P = pendulum_setup(1, 31, eps=0.0)
        img = LiftedMap(P).images(np.array([[np.pi, 0.0]]), np.zeros((1, 1)))[0]
        assert np.abs(img - [np.pi, 0.0]).max() < 1e-13

    def test_unforced_multipliers(self):
        # linearization at (pi, 0) is xi'' = alpha xi: multipliers e^{+-2 pi sqrt(alpha)}
        field, mesh, P = pendulum_setup(1, 31, eps=0.0)
        _, jac = LiftedMap(P).images_and_jacobian(np.array([[np.pi, 0.0]]), np.zeros((1, 1)))
        eig = np.sort(np.linalg.eigvals(jac[0]).real)
        expected = np.exp(2 * np.pi * np.sqrt(0.8))
        assert abs(eig[1] - expected) / expected < 1e-10
        assert abs(eig[0] - 1.0 / expected) / (1.0 / expected) < 1e-10

    def test_inverse_roundtrip(self):
        field, mesh, P = pendulum_setup(1, 31)
        rng = np.random.default_rng(2)
        x = np.array([np.pi, 0.0]) + 0.05 * rng.standard_normal((4, 2))
        theta = rng.random((4, 1))
        lift = LiftedMap(P)
        img = lift.images(x, theta)
        back = lift.images(img, (theta + lift.rho) % 1.0, inverse=True)
        assert np.abs(back - x).max() < 1e-11

    def test_inverse_fixed_point(self):
        field, mesh, P = pendulum_setup(1, 31, eps=0.0)
        img = LiftedMap(P).images(np.array([[np.pi, 0.0]]), np.zeros((1, 1)), inverse=True)[0]
        assert np.abs(img - [np.pi, 0.0]).max() < 1e-13

    def test_inverse_jacobian_reciprocal(self):
        field, mesh, P = pendulum_setup(1, 31)
        rng = np.random.default_rng(3)
        x = np.array([np.pi, 0.0]) + 0.02 * rng.standard_normal((3, 2))
        theta = rng.random((3, 1))
        img, fwd = LiftedMap(P).images_and_jacobian(x, theta)
        seeds, spec = jets.seed_gradient(img)
        bwd = section_map(P, 1, seeds, (theta + P.rho_section) % 1.0, spec, inverse=True)[..., 1:]
        prod = bwd @ fwd
        assert np.abs(prod - np.eye(2)).max() < 1e-9

    def test_orientation_preserved(self):
        field, mesh, P = pendulum_setup(1, 31)
        rng = np.random.default_rng(4)
        x = np.array([np.pi, 0.0]) + 0.1 * rng.standard_normal((5, 2))
        _, jac = LiftedMap(P).images_and_jacobian(x, rng.random((5, 1)))
        assert (np.linalg.det(jac) > 0).all()


class TestJacobianOracle:
    def test_against_central_differences(self):
        field, mesh, P = pendulum_setup(1, 31)
        rng = np.random.default_rng(5)
        x = np.array([np.pi, 0.0]) + 0.1 * rng.standard_normal((10, 2))
        theta = rng.random((10, 1))
        lift = LiftedMap(P)
        _, jac = lift.images_and_jacobian(x, theta)
        h = 1e-5
        for col in range(2):
            e = np.zeros(2)
            e[col] = h
            plus = lift.images(x + e, theta)
            minus = lift.images(x - e, theta)
            fd = (plus - minus) / (2 * h)
            scale = np.maximum(1.0, np.abs(jac[:, :, col]))
            assert (np.abs(fd - jac[:, :, col]) / scale).max() < 1e-6


class TestSectionMap:
    def test_r1_equals_poincare(self):
        field, mesh, P = pendulum_setup(1, 31)
        rng = np.random.default_rng(6)
        x = np.array([np.pi, 0.0]) + 0.05 * rng.standard_normal((3, 2))
        theta = rng.random((3, 1))
        plain = section_map(P, 1, x[..., None], theta, jets.REAL)[..., 0]
        assert np.abs(plain - LiftedMap(P).images(x, theta)).max() < 1e-14

    def test_section_index_range(self):
        field, mesh, P = pendulum_setup(1, 31, r=2)
        with pytest.raises(ValueError):
            section_map(P, 3, np.zeros((1, 2, 1)), np.zeros((1, 1)), jets.REAL)

    @pytest.mark.parametrize("tol", [0.0, np.inf, np.nan])
    def test_bad_tolerance_refused(self, tol):
        with pytest.raises(ValueError):
            PoincareSpec(pendulum_field(d=1), tol=tol)

    def test_composition_reproduces_map(self):
        # chaining the r section maps with the per-section angle advance
        # reproduces the full return map
        field, mesh, P = pendulum_setup(1, 31, r=3)
        _, _, P1 = pendulum_setup(1, 31, r=1)
        rng = np.random.default_rng(7)
        x = np.array([np.pi, 0.0]) + 0.05 * rng.standard_normal((4, 2))
        theta = rng.random((4, 1))
        direct = LiftedMap(P1).images(x, theta)
        comp = x[..., None]
        for j in range(1, P.r + 1):
            comp = section_map(P, j, comp, (theta + (j - 1) * P.rho_section) % 1.0, jets.REAL)
        assert np.abs(comp[..., 0] - direct).max() < 1e-10

    def test_section_differential_spectrum(self):
        # the product of the section differentials shares the spectrum of D_x P
        field, mesh, P2 = pendulum_setup(1, 31, r=2)
        _, _, P1 = pendulum_setup(1, 31, r=1)
        x = np.array([[np.pi + 0.05, 0.02]])
        theta = np.array([[0.31]])
        seeds, spec = jets.seed_gradient(x)
        out1 = section_map(P2, 1, seeds, theta, spec)
        x1, A1 = out1[..., 0], out1[..., 1:]
        seeds2, spec2 = jets.seed_gradient(x1)
        out2 = section_map(P2, 2, seeds2, (theta + P2.rho_section) % 1.0, spec2)
        A2 = out2[..., 1:]
        _, full = LiftedMap(P1).images_and_jacobian(x, theta)
        prod_eigs = np.sort(np.linalg.eigvals(A2[0] @ A1[0]).real)
        full_eigs = np.sort(np.linalg.eigvals(full[0]).real)
        assert np.abs(prod_eigs - full_eigs).max() / np.abs(full_eigs).max() < 1e-8
        # spectrum of AB equals spectrum of BA
        swapped = np.sort(np.linalg.eigvals(A1[0] @ A2[0]).real)
        assert np.abs(prod_eigs - swapped).max() / np.abs(prod_eigs).max() < 1e-9

    def test_rho_section_unreduced(self):
        # the per-section advance divides the unreduced rotation, then folds
        field, mesh, P = pendulum_setup(1, 31, r=2)
        expected = (np.sqrt(2.0) / 2.0) % 1.0
        assert P.rho_section[0] == pytest.approx(expected, abs=1e-15)
        folded = (field.omega[1] / field.omega[0]) % 1.0
        assert P.rho_section[0] != pytest.approx((folded / 2.0) % 1.0, abs=1e-3)


class TestPeriodicity:
    def test_field_periodic_in_angles(self):
        field = pendulum_field(d=2)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 2))
        theta = rng.random((5, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            a = rhs_real(field, x, theta)
            b = rhs_real(field, x, theta + e)
            assert np.abs(a - b).max() < 1e-12
