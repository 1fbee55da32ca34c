import math

import numpy as np
import pytest

from qptori import jets
from qptori.jets import JetSpec


def product(a, b, spec):
    """Product of coefficient-major jets truncated at the order of ``spec``
    (for the checks here)."""
    if spec.order == 1:
        out = a[:1] * b
        out[1:] += a[1:] * b[:1]
        return out
    return np.stack([sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(spec.order + 1)])


def sin_cos_by_coefficient(a, spec):
    """The order-k recurrence one coefficient at a time on (..., ncoeff) jets:
    the reference the coefficient-major contraction must reproduce bitwise."""
    s0, c0 = np.sin(a[..., 0]), np.cos(a[..., 0])
    if spec.ncoeff == 1:
        return s0[..., None], c0[..., None]
    if spec.order == 1:
        s, c = np.empty_like(a), np.empty_like(a)
        s[..., 0], c[..., 0] = s0, c0
        s[..., 1:] = c0[..., None] * a[..., 1:]
        c[..., 1:] = -s0[..., None] * a[..., 1:]
        return s, c
    s = np.zeros(a.shape)
    c = np.zeros(a.shape)
    s[..., 0], c[..., 0] = s0, c0
    for k in range(1, spec.order + 1):
        for j in range(1, k + 1):
            s[..., k] += j * a[..., j] * c[..., k - j]
            c[..., k] -= j * a[..., j] * s[..., k - j]
        s[..., k] /= k
        c[..., k] /= k
    return s, c


class TestJetSpec:
    def test_coefficient_counts(self):
        assert JetSpec(1, 5).ncoeff == 6
        assert JetSpec(3, 1).ncoeff == 4
        assert jets.REAL.ncoeff == 1

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            JetSpec(2, 3)


class TestElementary:
    def test_sin_maclaurin(self):
        spec = JetSpec(1, 3)
        x = np.array([0.0, 1.0, 0.0, 0.0])  # sigma
        s, c = jets.sin_cos(x, spec)
        assert np.allclose(s, [0.0, 1.0, 0.0, -1.0 / 6.0])
        assert np.allclose(c, [1.0, 0.0, -0.5, 0.0])

    def test_pythagorean(self):
        rng = np.random.default_rng(2)
        for spec in (JetSpec(1, 6), JetSpec(3, 1)):
            a = rng.standard_normal((spec.ncoeff, 4))
            s, c = jets.sin_cos(a, spec)
            one = product(s, s, spec) + product(c, c, spec)
            one[0] -= 1.0
            assert np.abs(one).max() < 1e-13


class TestLayout:
    """sin_cos on coefficient-major jets (ncoeff, n, batch), against the
    per-coefficient loop on the transposed (batch, n, ncoeff) jets."""

    SPECS = [jets.REAL, JetSpec(2, 1), JetSpec(4, 1)] + [JetSpec(1, o) for o in range(1, 10)]

    @pytest.mark.parametrize("spec", SPECS, ids=str)
    @pytest.mark.parametrize("batch", [1, 7, 961])
    def test_bitwise_per_coefficient_loop(self, spec, batch):
        rng = np.random.default_rng(spec.ncoeff + batch)
        ref_in = rng.standard_normal((batch, 2, spec.ncoeff))
        ref_in *= 10.0 ** rng.integers(-3, 2, ref_in.shape)
        ref_s, ref_c = sin_cos_by_coefficient(ref_in, spec)
        x = np.ascontiguousarray(ref_in.T)
        # the whole state, and the view x[:, 0] that the pendulum passes:
        # contiguous over the batch, strided over the coefficients
        cases = [(x, ref_s.T, ref_c.T), (x[:, 0], ref_s[:, 0].T, ref_c[:, 0].T)]
        for a, expect_s, expect_c in cases:
            s, c = jets.sin_cos(a, spec)
            assert s.shape == c.shape == a.shape
            assert np.array_equal(s, expect_s)
            assert np.array_equal(c, expect_c)

    def test_coefficient_axis_checked(self):
        with pytest.raises(ValueError):
            jets.sin_cos(np.zeros((5, 3)), JetSpec(2, 1))


class TestExtraction:
    def test_factorial_scaling(self):
        # the order-k coefficient is the k-th derivative over k!: sin(sigma) and
        # cos(sigma) have +-1/k! at odd and even k
        spec = JetSpec(1, 9)
        x = np.zeros(spec.ncoeff)
        x[1] = 1.0
        s, c = jets.sin_cos(x, spec)
        derivs_s = [0.0, 1.0, 0.0, -1.0] * 3  # sin^(k)(0)
        derivs_c = [1.0, 0.0, -1.0, 0.0] * 3
        inv_fact = np.array([1.0 / math.factorial(k) for k in range(10)])
        assert np.abs(s - derivs_s[:10] * inv_fact).max() < 1e-15
        assert np.abs(c - derivs_c[:10] * inv_fact).max() < 1e-15


class TestSeeds:
    def test_gradient_seed_roundtrip(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3))
        seeds, spec = jets.seed_gradient(x)
        assert spec == JetSpec(3, 1)
        assert np.allclose(seeds[..., 0], x)
        assert np.allclose(seeds[..., 1:], np.broadcast_to(np.eye(3), (4, 3, 3)))

    def test_series_seed_pads(self):
        tables = np.arange(6.0).reshape(2, 3, 1)
        seeds, spec = jets.seed_series(tables, order=4)
        assert spec == JetSpec(1, 4)
        assert np.allclose(seeds[..., 0], tables[0])
        assert np.allclose(seeds[..., 1], tables[1])
        assert np.abs(seeds[..., 2:]).max() == 0.0
