"""Accuracy tests attached to computed tori and manifold expansions.

Four checks, all reusable on persisted artifacts:

1. invariance: max-over-mesh residual of the invariance equation;
2. tail: size of the two highest Fourier modes per angular direction;
3. shifted: the invariance residual on a rigidly shifted mesh, which the
   series can only pass if it actually interpolates between grid points.
   Newton without a reversor drives test 1's own residual to zero, so an
   aliased solution passes test 1 and fails here.  With a reversor Newton
   solves the half-period equations on the grid shifted by -rho/2 and never
   evaluates P on the plain grid: test 1 is then an independent check of P,
   and on an unresolved mesh it fails like test 3;
4. order: the truncation-order probe log2(eps(sigma)/eps(sigma/2)), which
   must sit near m+1 for an expansion truncated at order m.  The residual
   is taken on the map the branch was expanded on: P for the unstable
   branch, and P^{-1} for the stable branch, which is the unstable
   expansion of the inverse map on the same plain parametrization.  The
   probe points of a scan share one map call, so they share the
   integrator's step sequence: one integration span per section.  The
   probe at sigma = 0 reads the torus error itself, and a sigma whose
   residual sits within a factor 100 of it is not read.  A single slope
   near m+1 can be noise, so the test passes only on three consecutive
   clean sigmas in the band, or on every clean sigma of a shorter scan
   when there are at least two.

``reversibility`` reports, for a map with a reversor
(``LiftedMap.reversor``), how far the torus is from its mirror image; it
is a reading, not a fifth test.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .fourier import FourierField, reflect_grid
from .manifold import ManifoldExpansion, _direction
from .torus import _point_norm_max

DEFAULT_TOL = 1e-10
_ORDER_BAND = 0.5  # test 4 passes when its slopes are within this of m + 1
_PLATEAU = 3  # at this many consecutive sigmas, or every clean one (two or more) of a shorter scan
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


def test_shifted(qpmap, phi: FourierField, tol: float = DEFAULT_TOL) -> TestReport:
    """Test 3: the invariance residual on the ``default_gamma``-shifted mesh.

    The shifted values come from the trigonometric series (not the stored
    samples), so an under-resolved or aliased solution fails here.
    """
    gamma = default_gamma(phi.mesh.d)
    res = _shifted_residual(qpmap, phi, gamma)
    return TestReport(3, "shifted", res, tol, res <= tol, {"gamma": gamma.tolist()})


def test_order(exp: ManifoldExpansion, qpmap) -> TestReport:
    """Test 4: the two-point slope log2(eps(sigma)/eps(sigma/2)) near m+1.

    eps(sigma) is the truncation residual of the invariance equation across
    the step from the fibre at angle theta = 0 to the fibre at theta + rho:
    ``F(W(s, sigma), s) - W(s + rho_F, lambda_F sigma)`` for the map F the
    branch was expanded on, P from s = theta for the unstable branch, and
    P^{-1} from s = theta + rho back to theta for the stable one, where the
    forward form would bury the sigma^{m+1} signal under the contraction by
    lambda.  Scans 1e-2 down two decades; all 19 probe points (each sigma
    and its half, and sigma = 0) go through the map in one call.  eps(0)
    is the torus error, which no truncation order explains: a candidate
    whose smaller residual is under ``max(1e-13, 100 eps(0))`` is flagged
    as "floor" and skipped.  The test reads a plateau, not a pick: it passes
    when at least ``_PLATEAU`` consecutive clean sigmas read within
    ``_ORDER_BAND`` of m+1, or every clean sigma of a scan with fewer (two
    at least, as when the expansion's scaling sits far below its radius and
    the scan reaches the floor early), and reports their median
    (``_plateau``).
    """
    m = exp.order
    theta = np.zeros(exp.mesh.d)
    expected = m + 1
    inverse, _, rho_F, lam_F = _direction(exp.branch, exp.lam, exp.rho)
    start = (theta - rho_F) % 1.0 if inverse else theta
    scan = 1e-2 * 10.0 ** (-np.arange(9) / 4.0)
    sigmas = np.concatenate([scan, scan / 2.0, [0.0]])
    x = exp.evaluate(start, sigmas)
    img = qpmap.images(x, np.tile(start, (len(sigmas), 1)), inverse=inverse)
    target = exp.evaluate((start + rho_F) % 1.0, lam_F * sigmas)
    eps = np.linalg.norm(img - target, axis=-1)
    floor = max(_ROUND_OFF_FLOOR, _TORUS_ERROR_MARGIN * float(eps[-1]))
    tried = []
    for sigma, e1, e2 in zip(scan, eps[: len(scan)], eps[len(scan) : -1]):
        if min(e1, e2) < floor:
            tried.append({"sigma": float(sigma), "ratio": None, "note": "floor"})
        else:
            tried.append({"sigma": float(sigma), "ratio": float(np.log2(e1 / e2))})
    measured, plateau, passed = _plateau([t["ratio"] for t in tried], expected)
    return TestReport(
        4,
        "order",
        measured,
        _ORDER_BAND,
        passed,
        {
            "expected": expected,
            "scan": tried,
            "plateau": [tried[i]["sigma"] for i in plateau],
            "theta": theta.tolist(),
            "floor": floor,
        },
    )


def _plateau(ratios: list, expected: int) -> tuple[float, list[int], bool]:
    """Test 4's reading of a scan's slopes (None for a skipped sigma): the
    longest run of consecutive slopes within ``_ORDER_BAND`` of ``expected``
    (the first of equal runs), as the indices of the run, and whether it
    passes: it holds ``_PLATEAU`` slopes, or every clean slope of a scan with
    fewer, two at least.  A passing run reads its median; otherwise the
    reading is the median of every clean slope (nan when every sigma was
    skipped)."""
    best, run = [], []
    for i, ratio in enumerate(ratios):
        run = run + [i] if ratio is not None and abs(ratio - expected) <= _ORDER_BAND else []
        if len(run) > len(best):
            best = run
    clean = [r for r in ratios if r is not None]
    if len(best) >= max(2, min(_PLATEAU, len(clean))):
        return float(np.median([ratios[i] for i in best])), best, True
    return (float(np.median(clean)) if clean else float("nan")), best, False


def reversibility(qpmap, phi: FourierField) -> float | None:
    """max over the grid of |phi(-theta) - R phi(theta)| for a map with a
    reversor R (``qpmap.reversor``), None otherwise.  A reversible map's unique
    torus is symmetric, so this reads round-off on a resolved mesh; it is
    reported, not a pass/fail test."""
    R = qpmap.reversor
    if R is None:
        return None
    return _point_norm_max(reflect_grid(phi.values, phi.mesh) - R * phi.values)


def torus_suite(qpmap, phi: FourierField, tol: float = DEFAULT_TOL) -> list[TestReport]:
    """Tests 1-3 on a torus parametrization."""
    return [
        test_invariance(qpmap, phi, tol),
        test_tail(phi, tol),
        test_shifted(qpmap, phi, tol=10.0 * tol),
    ]
