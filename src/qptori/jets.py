"""Truncated power-series ("jet") arithmetic for transport through integrators.

Two shapes cover everything the algorithms need and are the only ones
accepted: a single symbol at arbitrary truncation order (manifold orders),
and several symbols at order one (value plus gradient, for differentials of
the return map).  Coefficients sit on the *last* axis of a numpy array in
graded-lexicographic order -- ``[const, sigma, sigma^2, ...]`` for one
symbol, ``[const, d/ds_1, ..., d/ds_s]`` at order one -- and any leading
axes are independent jets processed in lockstep.

The module holds what the vector fields and the transport use: linear
operations are plain numpy arithmetic on the coefficient arrays, the one
elementary function is ``sin_cos``, and the seeds turn states and manifold
coefficient tables into jets.  All operations are pure and deterministic;
there is no shared state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class JetSpec:
    symbols: int = 1
    order: int = 1

    def __post_init__(self):
        if self.symbols < 0 or self.order < 0:
            raise ValueError("symbols and order must be nonnegative")
        if self.order > 1 and self.symbols != 1:
            raise ValueError("only (1 symbol, any order) or (any symbols, order <= 1) supported")

    @property
    def ncoeff(self) -> int:
        if self.order == 0 or self.symbols == 0:
            return 1
        if self.symbols == 1:
            return self.order + 1
        return self.symbols + 1


REAL = JetSpec(symbols=0, order=0)


def _check(a: np.ndarray, spec: JetSpec) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.shape[-1] != spec.ncoeff:
        raise ValueError(f"coefficient axis {a.shape[-1]} does not match {spec}")
    return a


def _compose_gradient(a: np.ndarray, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[..., 0] = f0
    out[..., 1:] = f1[..., None] * a[..., 1:]
    return out


def sin_cos(a: np.ndarray, spec: JetSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sine and cosine of a jet, computed jointly."""
    a = _check(a, spec)
    s0, c0 = np.sin(a[..., 0]), np.cos(a[..., 0])
    if spec.ncoeff == 1:
        return s0[..., None], c0[..., None]
    if spec.order == 1:
        return _compose_gradient(a, s0, c0), _compose_gradient(a, c0, -s0)
    o = spec.order
    s = np.zeros(a.shape)
    c = np.zeros(a.shape)
    s[..., 0], c[..., 0] = s0, c0
    for k in range(1, o + 1):
        for j in range(1, k + 1):
            s[..., k] += j * a[..., j] * c[..., k - j]
            c[..., k] -= j * a[..., j] * s[..., k - j]
        s[..., k] /= k
        c[..., k] /= k
    return s, c


# -- convenience seeds for transport ------------------------------------


def seed_gradient(x: np.ndarray) -> tuple[np.ndarray, JetSpec]:
    """States (..., n) -> order-1 jets with the identity as first-order part."""
    n = x.shape[-1]
    spec = JetSpec(symbols=n, order=1)
    out = np.zeros(x.shape + (spec.ncoeff,))
    out[..., 0] = x
    idx = np.arange(n)
    out[..., idx, 1 + idx] = 1.0
    return out, spec


def split_gradient(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of seed_gradient on outputs: (values (..., n), Jacobian (..., n, n))."""
    return y[..., 0], y[..., 1:]


def seed_series(tables: np.ndarray, order: int) -> tuple[np.ndarray, JetSpec]:
    """Stack of coefficient tables (k, ..., n) -> univariate jets of the given order.

    Missing orders beyond ``tables.shape[0] - 1`` are zero-padded.
    """
    spec = JetSpec(symbols=1, order=order)
    out = np.zeros(tables.shape[1:] + (order + 1,))
    for k in range(min(tables.shape[0], order + 1)):
        out[..., k] = tables[k]
    return out, spec
