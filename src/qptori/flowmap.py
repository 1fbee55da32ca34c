"""Quasi-periodically forced vector fields and their stroboscopic return maps.

The return map integrates the forced ODE over one period ``delta = 2 pi /
omega_0`` of the section angle; intermediate section maps cover a fraction
``1/r`` of that span.  The perturbing angles are substituted analytically as
``theta_i(t) = theta_i(0) + omega_i t / (2 pi)`` (angles in turns), so only
the state is integrated.

Two primitives sweep batches of grid points: ``advance_grid`` flows states
between two fractions of the return time, and ``section_map`` between
consecutive shooting sections.  ``multishoot.LiftedMap`` builds the
grid-sweep map of the torus and manifold algorithms on them, for every
section count r >= 1 (r = 1 is the plain return map).

A model meets one contract, ``QPVectorField.rhs(x, theta, spec)``.  The
integrator asks it once per span for the stage function
``f = field.span(theta_start, spec)`` and calls ``f(t, x)`` at every stage;
the default closes over ``rhs``, and a model may override ``span`` to do the
work that depends only on the angles once per span instead of once per stage.

The integrator is an adaptive embedded Runge-Kutta pair of order 8 (the
Dormand-Prince 8(5,3) coefficients shipped with scipy) that works unchanged
on real states and on jet coefficients: stage combinations are linear, the
nonlinearity lives in the field evaluation, and the step-size control
measures every jet coefficient.  Grid sweeps share one step sequence
per chunk, which makes every map evaluation deterministic and independent of
the worker count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.integrate._ivp import dop853_coefficients as _dp8

from . import jets
from .errors import IntegrationError
from .parallel import chunk_slices, profile, run_chunks

_N_STAGES = _dp8.N_STAGES  # 12
_A = _dp8.A[:_N_STAGES, :_N_STAGES]
_B = _dp8.B
_C = _dp8.C[:_N_STAGES]
_E3 = _dp8.E3
_E5 = _dp8.E5

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ERR_EXPONENT = -1.0 / 8.0


class QPVectorField:
    """Base class: a vector field F(x, theta) on R^n x T^(d+1).

    Subclasses set ``n`` and ``omega`` (length d+1, rationally independent)
    and implement ``rhs`` for batches of jet states; that is the contract
    every model must meet.  ``span`` is the per-span hook of the integrator:
    a subclass may override it to hoist angle-only work out of the stages,
    as long as its stage function agrees with ``rhs`` along the span.
    """

    n: int
    omega: np.ndarray

    def rhs(self, x: np.ndarray, theta: np.ndarray, spec: jets.JetSpec) -> np.ndarray:
        """dx/dt for states x (batch, n, ncoeff) at angles theta (batch, d+1) in turns."""
        raise NotImplementedError

    def span(self, theta_start: np.ndarray, spec: jets.JetSpec):
        """Stage function f(t, x) of one integration span.

        ``theta_start`` (batch, d+1) holds the angles in turns at t = 0 of
        the span; ``f(t, x)`` is ``rhs`` at the angles reached at time t.
        """
        omega_turns = self.omega / (2.0 * np.pi)
        return lambda t, x: self.rhs(x, theta_start + omega_turns * t, spec)

    @property
    def d(self) -> int:
        return len(self.omega) - 1

    @property
    def delta(self) -> float:
        """Return time of the stroboscopic section."""
        return 2.0 * np.pi / self.omega[0]

    @property
    def rho(self) -> np.ndarray:
        """Rotation vector in turns, one entry per perturbing angle."""
        return (self.omega[1:] / self.omega[0]) % 1.0

    def rhs_point(self, x: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """Real-arithmetic evaluation for states (batch, n), angles (batch, d+1)."""
        return self.rhs(x[..., None], theta, jets.REAL)[..., 0]


def _point_rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(v * v)))


def integrate_span(
    field: QPVectorField,
    y0: np.ndarray,
    theta_start: np.ndarray,
    t_span: float,
    spec: jets.JetSpec,
    tol: float,
    max_steps: int = 100000,
) -> np.ndarray:
    """Advance a batch of (jet) states over a signed time span.

    ``y0`` has shape (batch, n, ncoeff); ``theta_start`` holds all d+1
    angles (turns) at the start of the span.  One shared adaptive step
    sequence is used for the whole batch; the final time is hit exactly by
    clamping the last step.
    """
    if tol <= 0.0:
        raise ValueError("tolerance must be positive")
    if t_span == 0.0:
        return y0.copy()
    y = np.asarray(y0, dtype=float).copy()
    direction = 1.0 if t_span > 0 else -1.0
    f = field.span(np.asarray(theta_start, dtype=float), spec)

    t = 0.0
    k0 = f(t, y)
    # classical initial-step heuristic on the point part
    scale = tol + tol * np.abs(y[..., 0])
    d0 = _point_rms(y[..., 0] / scale)
    d1 = _point_rms(k0[..., 0] / scale)
    h = 0.01 * d0 / d1 if d1 > 1e-15 and d0 > 1e-15 else 1e-6
    h = direction * min(h, abs(t_span))

    K = np.empty((_N_STAGES + 1,) + y.shape)
    K[0] = k0
    npts = y.size

    for _ in range(max_steps):
        if direction * (t + h) > direction * t_span:
            h = t_span - t  # clamp the final step
        if abs(h) < 1e-15 * max(1.0, abs(t_span)):
            raise IntegrationError(f"step size underflow at t={t:.6g}", t_reached=t)
        for i in range(1, _N_STAGES):
            yi = y + h * np.tensordot(_A[i, :i], K[:i], axes=1)
            K[i] = f(t + _C[i] * h, yi)
        y_new = y + h * np.tensordot(_B, K[:_N_STAGES], axes=1)
        f_new = f(t + h, y_new)
        K[_N_STAGES] = f_new

        # the error norm covers every jet coefficient: controlling only the
        # degree-0 part lets the transported derivatives go unchecked when
        # the point orbit is (nearly) stationary, e.g. at an equilibrium
        scale = tol + tol * np.maximum(np.abs(y), np.abs(y_new))
        err5 = np.tensordot(_E5, K, axes=1) / scale
        err3 = np.tensordot(_E3, K, axes=1) / scale
        err5_sq = float(np.sum(err5 * err5))
        err3_sq = float(np.sum(err3 * err3))
        if err5_sq == 0.0 and err3_sq == 0.0:
            err_norm = 0.0
        else:
            err_norm = abs(h) * err5_sq / np.sqrt((err5_sq + 0.01 * err3_sq) * npts)

        if err_norm <= 1.0:
            t += h
            y = y_new
            K[0] = f_new
            if t == t_span:
                return y
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm**_ERR_EXPONENT)
            )
        else:
            factor = max(_MIN_FACTOR, _SAFETY * err_norm**_ERR_EXPONENT)
        h *= factor
    raise IntegrationError(f"no convergence in {max_steps} steps", t_reached=t)


@dataclass(frozen=True)
class PoincareSpec:
    """The stroboscopic return map of a forced field, split into r sections."""

    field: QPVectorField
    tol: float = 1e-14
    r: int = 1
    chunk: int = 8192

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("section count r must be >= 1")

    @property
    def n(self) -> int:
        return self.field.n

    @property
    def d(self) -> int:
        return self.field.d

    @property
    def rho_section(self) -> np.ndarray:
        """Angle advance of one section map, in turns.

        This is the unreduced per-return advance divided by r and only then
        folded into [0, 1); folding before dividing would give a different
        (wrong) rotation.
        """
        return (self.field.omega[1:] / self.field.omega[0] / self.r) % 1.0

    @property
    def delta(self) -> float:
        return self.field.delta


def _advance_chunk(payload):
    P, x, thetas, frac0, frac1, spec = payload
    ncoeff = spec.ncoeff
    y0 = x if x.ndim == 3 else x[..., None]
    theta_start = np.empty((x.shape[0], P.d + 1))
    theta_start[:, 0] = frac0
    theta_start[:, 1:] = thetas
    span = (frac1 - frac0) * P.delta
    y1 = integrate_span(P.field, y0, theta_start, span, spec, P.tol)
    return y1 if x.ndim == 3 else y1[..., 0]


def advance_grid(P: PoincareSpec, x, thetas, frac0: float, frac1: float, spec=jets.REAL):
    """Flow a batch of states between two section fractions of the return time.

    ``x`` is (batch, n) for real states or (batch, n, ncoeff) for jets;
    ``thetas`` is (batch, d), the perturbing angles at the starting section.
    The batch is cut into fixed-size chunks (independent of the worker
    count) and dispatched to the pool.
    """
    x = np.asarray(x, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    payloads = [
        (P, x[s], thetas[s], frac0, frac1, spec) for s in chunk_slices(x.shape[0], P.chunk)
    ]
    with profile.phase("map_eval"):
        parts = run_chunks(_advance_chunk, payloads)
    return np.concatenate(parts, axis=0)


def section_map(P: PoincareSpec, j: int, x, thetas, spec=jets.REAL, inverse: bool = False):
    """Map between consecutive shooting sections (j = 1..r).

    Forward: from section j to section j+1, a span of delta/r starting at
    section fraction (j-1)/r.  Inverse: the corresponding preimage, where
    ``thetas`` are the angles on section j+1.
    """
    if not 1 <= j <= P.r:
        raise ValueError(f"section index {j} outside 1..{P.r}")
    frac0 = (j - 1) / P.r
    frac1 = j / P.r
    if inverse:
        frac0, frac1 = frac1, frac0
    return advance_grid(P, x, thetas, frac0, frac1, spec)
