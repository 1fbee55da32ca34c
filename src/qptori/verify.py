"""Accuracy tests attached to computed tori and manifold expansions.

Four checks, all reusable on persisted artifacts:

1. invariance: max-over-mesh residual of the invariance equation;
2. tail: size of the two highest Fourier modes per angular direction;
3. shifted: the invariance residual on a rigidly shifted mesh, which the
   series can only pass if it actually interpolates between grid points
   (an aliased solution passes test 1 and fails here);
4. order: the truncation-order probe log2(eps(sigma)/eps(sigma/2)), which
   must sit near m+1 for an expansion truncated at order m.  The residual
   is taken on the map the branch was expanded on: P for the unstable
   branch, and P^{-1} for the stable branch, which is the unstable
   expansion of the inverse map on the same plain parametrization.  The
   probe points of a scan share one map call, so they share the
   integrator's step sequence: one integration span per section.  The
   probe at sigma = 0 reads the torus error itself, and a sigma whose
   residual sits within a factor 100 of it is not read.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fourier import FourierField
from .manifold import ManifoldExpansion, _direction
from .torus import _point_norm_max

DEFAULT_TOL = 1e-10
_ORDER_BAND = 0.5  # test 4 passes when its slope is within this of m + 1
_ROUND_OFF_FLOOR = 1e-13  # test 4 skips a sigma whose residuals fall below this
_TORUS_ERROR_MARGIN = 100.0  # and a sigma whose residuals fall below this times eps(0)


def default_gamma(d: int) -> np.ndarray:
    """The fixed irrational-like shift used by test 3, gamma_i = (sqrt(2)-1)/2^i."""
    base = np.sqrt(2.0) - 1.0
    return np.array([(base / 2.0**i) % 1.0 for i in range(d)])


@dataclass
class TestReport:
    test_id: int
    name: str
    measured: float
    tol: float
    passed: bool
    context: dict = dc_field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "test": self.test_id,
            "name": self.name,
            "measured": self.measured,
            "tol": self.tol,
            "passed": bool(self.passed),
            "context": self.context,
        }

    def __str__(self):
        flag = "pass" if self.passed else "FAIL"
        return f"test {self.test_id} ({self.name}): {self.measured:.3e} vs {self.tol:.1e} [{flag}]"


def _shifted_residual(qpmap, phi: FourierField, gamma: np.ndarray) -> float:
    """Max over the mesh angles theta of the Euclidean norm of
    phi(s+rho) - P(phi(s), s) at s = theta + gamma, tests 1 (gamma = 0) and 3.
    At gamma = 0 the stored grid values themselves are flowed."""
    mesh = phi.mesh
    rho = np.asarray(qpmap.rho, dtype=float)
    x = phi.shift(gamma) if gamma.any() else phi
    images = qpmap.images(x.values.reshape(mesh.M, phi.n), (mesh.grid() + gamma) % 1.0)
    return _point_norm_max(phi.shift(gamma + rho).values.reshape(mesh.M, phi.n) - images)


def test_invariance(qpmap, phi: FourierField, tol: float = DEFAULT_TOL) -> TestReport:
    """Test 1: max-over-mesh Euclidean residual of phi(theta+rho) = P(phi(theta), theta)."""
    res = _shifted_residual(qpmap, phi, np.zeros(phi.mesh.d))
    return TestReport(1, "invariance", res, tol, res <= tol, {"mesh": list(phi.mesh.shape)})


def test_tail(field: FourierField, tol: float = DEFAULT_TOL) -> TestReport:
    """Test 2: per-direction size of the two highest-index mode pairs."""
    tails = field.tail_norms()
    return TestReport(
        2,
        "tail",
        float(tails.max()),
        tol,
        bool((tails <= tol).all()),
        {"per_direction": tails.tolist()},
    )


def test_shifted(qpmap, phi: FourierField, gamma=None, tol: float = DEFAULT_TOL) -> TestReport:
    """Test 3: the invariance residual evaluated on the gamma-shifted mesh.

    The shifted values come from the trigonometric series (not the stored
    samples), so an under-resolved or aliased solution fails here.
    """
    if gamma is None:
        gamma = default_gamma(phi.mesh.d)
    gamma = np.asarray(gamma, dtype=float)
    res = _shifted_residual(qpmap, phi, gamma)
    return TestReport(3, "shifted", res, tol, res <= tol, {"gamma": gamma.tolist()})


def test_order(exp: ManifoldExpansion, qpmap, sigma1: float = 1e-2) -> TestReport:
    """Test 4: the two-point slope log2(eps(sigma)/eps(sigma/2)) near m+1.

    eps(sigma) is the truncation residual of the invariance equation across
    the step from the fibre at angle theta = 0 to the fibre at theta + rho:
    ``F(W(s, sigma), s) - W(s + rho_F, lambda_F sigma)`` for the map F the
    branch was expanded on, P from s = theta for the unstable branch, and
    P^{-1} from s = theta + rho back to theta for the stable one, where the
    forward form would bury the sigma^{m+1} signal under the contraction by
    lambda.  Scans sigma1 down one decade; all 19 probe points (each sigma
    and its half, and sigma = 0) go through the map in one call.  eps(0)
    is the torus error, which no truncation order explains: a candidate
    whose smaller residual is under ``max(1e-13, 100 eps(0))`` is flagged
    as "floor" and skipped.
    """
    m = exp.order
    theta = np.zeros(exp.mesh.d)
    expected = m + 1
    inverse, _, rho_F, lam_F = _direction(exp.branch, exp.lam, exp.rho)
    start = (theta - rho_F) % 1.0 if inverse else theta
    scan = sigma1 * 10.0 ** (-np.arange(9) / 4.0)
    sigmas = np.concatenate([scan, scan / 2.0, [0.0]])
    x = exp.evaluate(start, sigmas)
    img = qpmap.images(x, np.tile(start, (len(sigmas), 1)), inverse=inverse)
    target = exp.evaluate((start + rho_F) % 1.0, lam_F * sigmas)
    eps = np.linalg.norm(img - target, axis=-1)
    floor = max(_ROUND_OFF_FLOOR, _TORUS_ERROR_MARGIN * float(eps[-1]))
    tried = []
    best = None
    for sigma, e1, e2 in zip(scan, eps[: len(scan)], eps[len(scan) : -1]):
        if min(e1, e2) < floor:
            tried.append({"sigma": float(sigma), "ratio": None, "note": "floor"})
            continue
        ratio = float(np.log2(e1 / e2))
        tried.append({"sigma": float(sigma), "ratio": ratio})
        if best is None or abs(ratio - expected) < abs(best[1] - expected):
            best = (float(sigma), ratio)
    measured = best[1] if best is not None else float("nan")
    passed = best is not None and abs(measured - expected) <= _ORDER_BAND
    return TestReport(
        4,
        "order",
        measured,
        _ORDER_BAND,
        passed,
        {"expected": expected, "scan": tried, "theta": theta.tolist(), "floor": floor},
    )


def torus_suite(qpmap, phi: FourierField, tol: float = DEFAULT_TOL) -> list[TestReport]:
    """Tests 1-3 on a torus parametrization."""
    return [
        test_invariance(qpmap, phi, tol),
        test_tail(phi, tol),
        test_shifted(qpmap, phi, tol=10.0 * tol),
    ]
