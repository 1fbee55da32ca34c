import numpy as np
import pytest

from qptori import jets
from qptori.errors import IntegrationError
from qptori.flowmap import QPVectorField, integrate_span, section_map
from qptori.models import pendulum_field
from qptori.multishoot import LiftedMap

from conftest import pendulum_setup


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
        out[..., 0, :] = x[..., 1, :]
        out[..., 1, :] = -x[..., 0, :]
        return out


class BlowupField(QPVectorField):
    """x' = x^2, blows up at t = 1/x(0)."""

    n = 1
    omega = np.array([1.0, np.sqrt(2.0)])

    def rhs(self, x, theta, spec):
        return jets.mul(x, x, spec)


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
        with pytest.raises(ValueError):
            integrate_span(ZeroField(), np.zeros((1, 2, 1)), np.zeros((1, 2)), 1.0, jets.REAL, 0.0)

    def test_blowup_raises(self):
        field = BlowupField()
        y0 = np.array([[1.0]])[..., None]
        with pytest.raises(IntegrationError) as err:
            integrate_span(field, y0, np.zeros((1, 2)), 2.0, jets.REAL, 1e-12, max_steps=2000)
        assert err.value.t_reached is not None
        assert err.value.t_reached < 2.0

    def test_backward_forward_roundtrip(self):
        field = pendulum_field(d=1)
        rng = np.random.default_rng(1)
        y0 = (np.array([np.pi, 0.0]) + 0.1 * rng.standard_normal((5, 2)))[..., None]
        theta = rng.random((5, 2))
        fwd = integrate_span(field, y0, theta, field.delta, jets.REAL, 1e-14)
        theta_end = theta + field.omega * field.delta / (2 * np.pi)
        back = integrate_span(field, fwd, theta_end, -field.delta, jets.REAL, 1e-14)
        assert np.abs(back - y0).max() < 1e-11


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
        lift = LiftedMap(P)
        img, fwd = lift.images_and_jacobian(x, theta)
        _, bwd = lift.images_and_jacobian(img, (theta + lift.rho) % 1.0, inverse=True)
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
        assert np.abs(section_map(P, 1, x, theta) - LiftedMap(P).images(x, theta)).max() < 1e-14

    def test_section_index_range(self):
        field, mesh, P = pendulum_setup(1, 31, r=2)
        with pytest.raises(ValueError):
            section_map(P, 3, np.zeros((1, 2)), np.zeros((1, 1)))

    def test_composition_reproduces_map(self):
        # chaining the r section maps with the per-section angle advance
        # reproduces the full return map
        field, mesh, P = pendulum_setup(1, 31, r=3)
        _, _, P1 = pendulum_setup(1, 31, r=1)
        rng = np.random.default_rng(7)
        x = np.array([np.pi, 0.0]) + 0.05 * rng.standard_normal((4, 2))
        theta = rng.random((4, 1))
        direct = LiftedMap(P1).images(x, theta)
        comp = x
        for j in range(1, P.r + 1):
            comp = section_map(P, j, comp, (theta + (j - 1) * P.rho_section) % 1.0)
        assert np.abs(comp - direct).max() < 1e-10

    def test_section_differential_spectrum(self):
        # the product of the section differentials shares the spectrum of D_x P
        field, mesh, P2 = pendulum_setup(1, 31, r=2)
        _, _, P1 = pendulum_setup(1, 31, r=1)
        x = np.array([[np.pi + 0.05, 0.02]])
        theta = np.array([[0.31]])
        seeds, spec = jets.seed_gradient(x)
        out1 = section_map(P2, 1, seeds, theta, spec)
        x1, A1 = jets.split_gradient(out1)
        seeds2, spec2 = jets.seed_gradient(x1)
        out2 = section_map(P2, 2, seeds2, (theta + P2.rho_section) % 1.0, spec2)
        _, A2 = jets.split_gradient(out2)
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
        assert P.rho_section[0] != pytest.approx((field.rho[0] / 2.0) % 1.0, abs=1e-3)


class TestPeriodicity:
    def test_field_periodic_in_angles(self):
        field = pendulum_field(d=2)
        rng = np.random.default_rng(8)
        x = rng.standard_normal((5, 2))
        theta = rng.random((5, 3))
        for i in range(3):
            e = np.zeros(3)
            e[i] = 1.0
            a = field.rhs_point(x, theta)
            b = field.rhs_point(x, theta + e)
            assert np.abs(a - b).max() < 1e-12
