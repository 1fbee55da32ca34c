import functools

import numpy as np
import pytest

from qptori import jets
from qptori.flowmap import QPVectorField, integrate_span
from qptori.models import PendulumParams, pendulum_field


class TestParams:
    def test_defaults(self):
        p = PendulumParams()
        assert p.alpha == 0.8
        assert p.eps == 0.01
        assert p.d == 4
        assert np.allclose(p.omega, [1.0, np.sqrt(2), np.sqrt(3), np.sqrt(5), np.sqrt(7)])

    def test_d_range(self):
        with pytest.raises(ValueError):
            PendulumParams(d=0)
        with pytest.raises(ValueError):
            PendulumParams(d=5)

    def test_omega_length(self):
        with pytest.raises(ValueError):
            PendulumParams(d=2, omega=(1.0, 2.0))
        with pytest.raises(ValueError):
            PendulumParams(d=1, omega=(0.0, 1.0))


class TestForcing:
    def test_value_at_zero(self):
        for d in (1, 2, 4):
            field = pendulum_field(d=d)
            zeta = field.forcing(np.zeros((1, d + 1)))
            assert zeta[0] == pytest.approx(1.0 / (2 * d + 3), abs=1e-15)

    def test_denominator_bounded(self):
        field = pendulum_field(d=4)
        rng = np.random.default_rng(0)
        zeta = field.forcing(rng.random((1000, 5)))
        assert (zeta > 0).all()
        assert (zeta <= 1.0).all()

    def test_mirror_symmetry(self):
        field = pendulum_field(d=3)
        rng = np.random.default_rng(1)
        theta = rng.random((50, 4))
        assert np.allclose(field.forcing(theta), field.forcing(-theta), atol=1e-15)


class TestField:
    def test_unforced_equilibrium(self):
        field = pendulum_field(d=1, eps=0.0)
        out = field.rhs_point(np.array([[np.pi, 0.0]]), np.zeros((1, 2)))
        assert np.abs(out).max() < 1e-15

    def test_forcing_enters_second_component(self):
        field = pendulum_field(d=1)
        theta = np.array([[0.0, 0.25]])
        out = field.rhs_point(np.array([[np.pi, 0.0]]), theta)
        assert out[0, 0] == 0.0
        assert out[0, 1] == pytest.approx(0.01 * field.forcing(theta)[0], abs=1e-16)

    def test_jet_matches_finite_differences(self):
        field = pendulum_field(d=2)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((5, 2))
        theta = rng.random((5, 3))
        seeds, spec = jets.seed_gradient(x)
        out = field.rhs(np.ascontiguousarray(seeds.T), theta, spec)  # (ncoeff, n, batch)
        assert out.shape == (spec.ncoeff, 2, 5)
        _, jac = jets.split_gradient(out.T)
        h = 1e-6
        for col in range(2):
            e = np.zeros(2)
            e[col] = h
            fd = (field.rhs_point(x + e, theta) - field.rhs_point(x - e, theta)) / (2 * h)
            assert np.abs(fd - jac[:, :, col]).max() < 1e-8


def _seed(kind, x, rng):
    if kind == "real":
        return x[..., None], jets.REAL
    if kind == "grad":
        return jets.seed_gradient(x)
    return jets.seed_series(np.stack([x, 0.1 * rng.standard_normal(x.shape)]), 6)


def _counted_span(field, span):
    """Install ``span`` as the field's per-span hook; return a stage-call
    counter.  Every stage call must pass coefficient-major states."""
    calls = [0]

    def counting(theta_start, spec):
        f = span(theta_start, spec)

        def g(t, x):
            calls[0] += 1
            assert x.shape == (spec.ncoeff, field.n, theta_start.shape[0])
            out = f(t, x)
            assert out.shape == x.shape
            return out

        return g

    field.span = counting  # integrate_span looks the hook up on the instance
    return calls


class TestSpan:
    """The pendulum's hoisted stage function against the rhs-based default."""

    @pytest.mark.parametrize("kind", ["real", "grad", "series"])
    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_hoisted_matches_rhs(self, d, kind):
        rng = np.random.default_rng(10 * d + len(kind))
        x = np.array([np.pi, 0.0]) + 0.01 * rng.standard_normal((8, 2))
        theta = rng.random((8, d + 1))
        y0, spec = _seed(kind, x, rng)
        hoisted, default = pendulum_field(d=d), pendulum_field(d=d)
        hoisted_calls = _counted_span(hoisted, hoisted.span)
        default_calls = _counted_span(default, functools.partial(QPVectorField.span, default))
        # the two paths round the angles differently, and the saddle amplifies
        # that over one return as much as a one-ulp change of theta does: up
        # to 5e-14 in values and gradients, and up to 2e-12 in the order-k
        # series coefficients, which cancel more and more with k
        rtol = 1e-11 if kind == "series" else 1e-13
        for t_span in (hoisted.delta, -hoisted.delta):
            a = integrate_span(hoisted, y0, theta, t_span, spec, 1e-14)
            b = integrate_span(default, y0, theta, t_span, spec, 1e-14)
            scale = np.abs(b).max(axis=(0, 1))  # per jet coefficient
            assert (np.abs(a - b).max(axis=(0, 1)) <= rtol * scale).all()
            assert hoisted_calls[0] == default_calls[0] > 0

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_forcing_along_span(self, d):
        field = pendulum_field(d=d)
        rng = np.random.default_rng(d)
        theta = rng.random((200, d + 1))
        zeta = field.forcing_along(theta)
        for t in rng.uniform(-field.delta, field.delta, 20):
            ref = field.forcing(theta + field.omega / (2.0 * np.pi) * t)
            # both round angles of up to ~23 rad, ulp 3.6e-15, so a few ulp of
            # each cosine add up to tens of ulp of zeta
            assert (np.abs(zeta(t) - ref) <= 32 * np.spacing(ref)).all()

