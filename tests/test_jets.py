import math

import numpy as np
import pytest

from qptori import jets
from qptori.jets import JetSpec


def product(a, b, spec):
    """Jet product truncated at the order of ``spec`` (for the checks here)."""
    if spec.order == 1:
        out = a[..., :1] * b
        out[..., 1:] += a[..., 1:] * b[..., :1]
        return out
    terms = [sum(a[..., i] * b[..., k - i] for i in range(k + 1)) for k in range(spec.order + 1)]
    return np.stack(terms, axis=-1)


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
            a = rng.standard_normal((4, spec.ncoeff))
            s, c = jets.sin_cos(a, spec)
            one = product(s, s, spec) + product(c, c, spec)
            one[..., 0] -= 1.0
            assert np.abs(one).max() < 1e-13


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
