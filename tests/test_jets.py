import math

import numpy as np
import pytest

from qptori import jets
from qptori.jets import JetSpec, SingularJetError


class TestJetSpec:
    def test_coefficient_counts(self):
        assert JetSpec(1, 5).ncoeff == 6
        assert JetSpec(3, 1).ncoeff == 4
        assert jets.REAL.ncoeff == 1

    def test_unsupported_shape(self):
        with pytest.raises(ValueError):
            JetSpec(2, 3)


class TestRingOps:
    def test_product_exact(self):
        spec = JetSpec(1, 2)
        a = np.array([1.0, 1.0, 0.0])  # 1 + sigma
        b = np.array([1.0, -1.0, 0.0])  # 1 - sigma
        assert np.allclose(jets.mul(a, b, spec), [1.0, 0.0, -1.0])

    def test_truncation(self):
        spec = JetSpec(1, 1)
        a = np.array([1.0, 1.0])
        assert np.allclose(jets.mul(a, a, spec), [1.0, 2.0])

    def test_commutativity(self):
        rng = np.random.default_rng(0)
        for spec in (JetSpec(1, 6), JetSpec(4, 1)):
            a = rng.standard_normal((5, spec.ncoeff))
            b = rng.standard_normal((5, spec.ncoeff))
            ab = jets.mul(a, b, spec)
            ba = jets.mul(b, a, spec)
            assert np.abs(ab - ba).max() < 1e-14

    def test_gradient_product_rule(self):
        spec = JetSpec(3, 1)
        a = np.array([2.0, 1.0, 0.0, 3.0])
        b = np.array([5.0, 0.0, 2.0, 1.0])
        out = jets.mul(a, b, spec)
        assert np.allclose(out, [10.0, 5.0, 4.0, 17.0])


class TestElementary:
    def test_sin_maclaurin(self):
        spec = JetSpec(1, 3)
        x = jets.variable(0.0, spec)
        s, c = jets.sin_cos(x, spec)
        assert np.allclose(s, [0.0, 1.0, 0.0, -1.0 / 6.0])
        assert np.allclose(c, [1.0, 0.0, -0.5, 0.0])

    def test_exp_inverse(self):
        rng = np.random.default_rng(1)
        spec = JetSpec(1, 5)
        a = rng.standard_normal((4, spec.ncoeff))
        prod = jets.mul(jets.exp(a, spec), jets.exp(-a, spec), spec)
        expected = jets.constant(np.ones(4), spec)
        assert np.abs(prod - expected).max() < 1e-13

    def test_pythagorean(self):
        rng = np.random.default_rng(2)
        for spec in (JetSpec(1, 6), JetSpec(3, 1)):
            a = rng.standard_normal((4, spec.ncoeff))
            s, c = jets.sin_cos(a, spec)
            one = jets.mul(s, s, spec) + jets.mul(c, c, spec)
            assert np.abs(one - jets.constant(np.ones(4), spec)).max() < 1e-13

    def test_reciprocal(self):
        spec = JetSpec(1, 4)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((3, spec.ncoeff))
        a[..., 0] += 3.0
        prod = jets.mul(a, jets.reciprocal(a, spec), spec)
        assert np.abs(prod - jets.constant(np.ones(3), spec)).max() < 1e-13

    def test_reciprocal_singular(self):
        spec = JetSpec(1, 2)
        with pytest.raises(SingularJetError):
            jets.reciprocal(np.array([0.0, 1.0, 0.0]), spec)

    def test_sqrt(self):
        spec = JetSpec(1, 4)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((3, spec.ncoeff))
        a[..., 0] = np.abs(a[..., 0]) + 1.0
        q = jets.sqrt(a, spec)
        assert np.abs(jets.mul(q, q, spec) - a).max() < 1e-13
        with pytest.raises(SingularJetError):
            jets.sqrt(np.array([-1.0, 0.0, 0.0, 0.0, 0.0]), spec)


class TestExtraction:
    def test_factorial_scaling(self):
        # the order-k coefficient is the k-th derivative over k!: exp(sigma) has 1/k!
        spec = JetSpec(1, 5)
        e = jets.exp(jets.variable(0.0, spec), spec)
        expected = np.array([1.0 / math.factorial(k) for k in range(6)])
        assert np.abs(e - expected).max() < 1e-15


class TestSeeds:
    def test_gradient_seed_roundtrip(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((4, 3))
        seeds, spec = jets.seed_gradient(x)
        assert spec == JetSpec(3, 1)
        vals, jac = jets.split_gradient(seeds)
        assert np.allclose(vals, x)
        assert np.allclose(jac, np.broadcast_to(np.eye(3), (4, 3, 3)))

    def test_series_seed_pads(self):
        tables = np.arange(6.0).reshape(2, 3, 1)
        seeds, spec = jets.seed_series(tables, order=4)
        assert spec == JetSpec(1, 4)
        assert np.allclose(seeds[..., 0], tables[0])
        assert np.allclose(seeds[..., 1], tables[1])
        assert np.abs(seeds[..., 2:]).max() == 0.0
