"""Truncated power-series ("jet") arithmetic for transport through integrators.

Two shapes cover everything the algorithms need and are the only ones
accepted: a single symbol at arbitrary truncation order (manifold orders),
and several symbols at order one (value plus gradient, for differentials of
the return map).  Coefficients are ordered graded-lexicographically --
``[const, sigma, sigma^2, ...]`` for one symbol, ``[const, d/ds_1, ...,
d/ds_s]`` at order one.

Jets live in two layouts.  Inside the integrator they are coefficient-major,
shape (ncoeff, ...): coefficient k of every state component and batch point
is one contiguous row, so each jet operation is a few long array operations
rather than many short ones over 1-10 coefficients per point.  ``sin_cos``
takes this layout and carries the sine and cosine coefficients together as
(s_k, c_k) pairs, so its order-k recurrence is one contraction over the
stacked lower pairs per order, not one per coefficient of each function.
The transport interface (``flowmap.integrate_span``, the seeds below) keeps
the coefficients on the *last* axis, (batch, n, ncoeff), and the integrator
converts once per span.

The module holds what the vector fields and the transport use: linear
operations are plain numpy arithmetic on the coefficient arrays, the one
elementary function is ``sin_cos``, and the seeds turn states and manifold
coefficient tables into jets.  A real state is the one-coefficient jet
``REAL``, ``x[..., None]``, so the transport takes jets only; its outputs are
read by indexing the coefficient axis (``[..., 0]`` the values, ``[..., 1:]``
the Jacobian of a gradient jet).  All operations are pure and deterministic;
the only shared state is the read-only order tables that ``sin_cos`` caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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
    if a.shape[0] != spec.ncoeff:
        raise ValueError(f"coefficient axis {a.shape[0]} does not match {spec}")
    return a


def _compose_gradient(a: np.ndarray, f0: np.ndarray, f1: np.ndarray) -> np.ndarray:
    out = np.empty_like(a)
    out[0] = f0
    np.multiply(f1, a[1:], out=out[1:])
    return out


@lru_cache(maxsize=None)
def _order_tables(order: int, ndim: int) -> tuple[np.ndarray, np.ndarray]:
    """The factors j = 1..order of the order-k recurrence, and the divisors
    (k, -k) of each row of (s_k, c_k) pairs: s_k = x/k and c_k = x/(-k),
    which is -(x/k) exactly in binary floating point.  Both are shaped to
    broadcast against coefficient-major jets of ``ndim`` axes."""
    j = np.arange(1.0, order + 1.0)
    tail = (1,) * (ndim - 1)
    div = np.multiply.outer(j, [1.0, -1.0]).reshape((order, 2) + tail)
    j = j.reshape((order,) + tail)
    j.flags.writeable = div.flags.writeable = False
    return j, div


def sin_cos(a: np.ndarray, spec: JetSpec) -> tuple[np.ndarray, np.ndarray]:
    """Sine and cosine of coefficient-major jets (ncoeff, ...), computed jointly.

    The series coefficients follow s' = a' c and c' = -a' s: order k is
    s_k = sum_{j=1..k} j a_j c_{k-j} / k, likewise c_k, summed in order of
    increasing j.  Above order one, s and c are views of one array of
    (s_k, c_k) pairs.
    """
    a = _check(a, spec)
    s0, c0 = np.sin(a[0]), np.cos(a[0])
    if spec.ncoeff == 1:
        return s0[None], c0[None]
    if spec.order == 1:
        return _compose_gradient(a, s0, c0), _compose_gradient(a, c0, -s0)
    o = spec.order
    j, div = _order_tables(o, a.ndim)
    ja = j * a[1:]
    sc = np.empty((o + 1, 2) + a.shape[1:])
    sc[0, 0], sc[0, 1] = s0, c0
    # one contraction per order over the lower rows with the pair swapped;
    # einsum accumulates over j row by row, each row a contiguous pass over
    # the batch; vecdot along the leading axis makes one short strided dot
    # per point, slower at batch 8192
    for k in range(1, o + 1):
        np.einsum("j...,jp...->p...", ja[:k], sc[k - 1 :: -1, ::-1], out=sc[k])
        sc[k] /= div[k - 1]
    return sc[:, 0], sc[:, 1]


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


def seed_series(tables: np.ndarray, order: int) -> tuple[np.ndarray, JetSpec]:
    """Stack of coefficient tables (k, ..., n) -> univariate jets of the given order.

    Missing orders beyond ``tables.shape[0] - 1`` are zero-padded.
    """
    spec = JetSpec(symbols=1, order=order)
    out = np.zeros(tables.shape[1:] + (order + 1,))
    for k in range(min(tables.shape[0], order + 1)):
        out[..., k] = tables[k]
    return out, spec
