"""Quasi-periodically forced vector fields and their stroboscopic return maps.

The return map integrates the forced ODE over one period ``delta = 2 pi /
omega_0`` of the section angle; intermediate section maps cover a fraction
``1/r`` of that span.  The perturbing angles are substituted analytically as
``theta_i(t) = theta_i(0) + omega_i t / (2 pi)`` (angles in turns), so only
the state is integrated.

One primitive sweeps batches of grid points: ``section_map`` flows jets
(batch, n, ncoeff) between consecutive shooting sections; a real state is
the one-coefficient jet ``jets.REAL``, ``x[..., None]``.  The grid-sweep map
of the torus and manifold algorithms, ``multishoot.LiftedMap``, calls it
from one route loop for every section count r >= 1 (r = 1 is the plain
return map).

A model meets one contract, ``QPVectorField.rhs(x, theta, spec)``.  The
integrator asks it once per span for the stage function
``f = field.span(theta_start, spec)`` and calls ``f(t, x)`` at every stage;
the default closes over ``rhs``, and a model may override ``span`` to do the
work that depends only on the angles once per span instead of once per stage.
Both see the states coefficient-major, (ncoeff, n, batch): ``x[k, i]`` is
coefficient k of component i at every point of the batch.

The integrator is an adaptive embedded Runge-Kutta pair of order 8 that
works unchanged on real states and on jet coefficients: stage combinations
are linear, the nonlinearity lives in the field evaluation, and the
step-size control measures every jet coefficient.  ``integrate_span`` takes
and returns (batch, n, ncoeff) arrays and carries the state, the stages and
the stage arguments coefficient-major in between, converting once at each
end.  The 13 stages sit in one array that is read as a matrix (13,
ncoeff*n*batch), so each stage combination, the update and each error
estimate is a single ``np.dot``; every stage argument is built in place in
one buffer per span, which the stage function reads during its call only.
Grid sweeps share one step sequence per chunk, which makes every map
evaluation deterministic and independent of the worker count.

The tableau is the Dormand-Prince 8(5,3) pair DOP853 of Hairer, Norsett and
Wanner (Solving Ordinary Differential Equations I, 2nd ed., Springer 1993).
Its literals are those of scipy's ``scipy.integrate._ivp.dop853_coefficients``,
digit for digit, and ``_E3`` is built from ``_B`` by the same three
subtractions, so every array is bitwise equal to scipy's
(``tests/test_flowmap.py`` checks this where scipy is installed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import IntegrationError
from .parallel import profile, run_chunks

# the 12 stages of DOP853 and its two error estimators (module docstring);
# the dense-output stages and coefficients are left out
_N_STAGES = 12
_C = np.array([
    0.0,
    0.526001519587677318785587544488e-01,
    0.789002279381515978178381316732e-01,
    0.118350341907227396726757197510,
    0.281649658092772603273242802490,
    0.333333333333333333333333333333,
    0.25,
    0.307692307692307692307692307692,
    0.651282051282051282051282051282,
    0.6,
    0.857142857142857142857142857142,
    1.0,
])
_A = np.zeros((_N_STAGES, _N_STAGES))
_A[1, [0]] = [5.26001519587677318785587544488e-2]
_A[2, [0, 1]] = [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2]
_A[3, [0, 2]] = [2.95875854768068491816892993775e-2, 8.87627564304205475450678981324e-2]
_A[4, [0, 2, 3]] = [
    2.41365134159266685502369798665e-1,
    -8.84549479328286085344864962717e-1,
    9.24834003261792003115737966543e-1,
]
_A[5, [0, 3, 4]] = [
    3.7037037037037037037037037037e-2,
    1.70828608729473871279604482173e-1,
    1.25467687566822425016691814123e-1,
]
_A[6, [0, 3, 4, 5]] = [
    3.7109375e-2,
    1.70252211019544039314978060272e-1,
    6.02165389804559606850219397283e-2,
    -1.7578125e-2,
]
_A[7, [0, 3, 4, 5, 6]] = [
    3.70920001185047927108779319836e-2,
    1.70383925712239993810214054705e-1,
    1.07262030446373284651809199168e-1,
    -1.53194377486244017527936158236e-2,
    8.27378916381402288758473766002e-3,
]
_A[8, [0, 3, 4, 5, 6, 7]] = [
    6.24110958716075717114429577812e-1,
    -3.36089262944694129406857109825,
    -8.68219346841726006818189891453e-1,
    2.75920996994467083049415600797e1,
    2.01540675504778934086186788979e1,
    -4.34898841810699588477366255144e1,
]
_A[9, [0, 3, 4, 5, 6, 7, 8]] = [
    4.77662536438264365890433908527e-1,
    -2.48811461997166764192642586468,
    -5.90290826836842996371446475743e-1,
    2.12300514481811942347288949897e1,
    1.52792336328824235832596922938e1,
    -3.32882109689848629194453265587e1,
    -2.03312017085086261358222928593e-2,
]
_A[10, [0, 3, 4, 5, 6, 7, 8, 9]] = [
    -9.3714243008598732571704021658e-1,
    5.18637242884406370830023853209,
    1.09143734899672957818500254654,
    -8.14978701074692612513997267357,
    -1.85200656599969598641566180701e1,
    2.27394870993505042818970056734e1,
    2.49360555267965238987089396762,
    -3.0467644718982195003823669022,
]
_A[11, [0, 3, 4, 5, 6, 7, 8, 9, 10]] = [
    2.27331014751653820792359768449,
    -1.05344954667372501984066689879e1,
    -2.00087205822486249909675718444,
    -1.79589318631187989172765950534e1,
    2.79488845294199600508499808837e1,
    -2.85899827713502369474065508674,
    -8.87285693353062954433549289258,
    1.23605671757943030647266201528e1,
    6.43392746015763530355970484046e-1,
]
_B = np.zeros(_N_STAGES)
_B[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    5.42937341165687622380535766363e-2,
    4.45031289275240888144113950566,
    1.89151789931450038304281599044,
    -5.8012039600105847814672114227,
    3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1,
    2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2,
]
# the error weights act on the 12 stages and the FSAL stage f(t + h, y_new)
_E3 = np.zeros(_N_STAGES + 1)
_E3[:-1] = _B
_E3[0] -= 0.244094488188976377952755905512
_E3[8] -= 0.733846688281611857341361741547
_E3[11] -= 0.220588235294117647058823529412e-1
_E5 = np.zeros(_N_STAGES + 1)
_E5[[0, 5, 6, 7, 8, 9, 10, 11]] = [
    0.1312004499419488073250102996e-1,
    -0.1225156446376204440720569753e+1,
    -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1,
    -0.3503288487499736816886487290,
    0.3341791187130174790297318841,
    0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1,
]

_SAFETY = 0.9
_MIN_FACTOR = 0.2
_MAX_FACTOR = 5.0
_ERR_EXPONENT = -1.0 / 8.0
_CHUNK = 8192  # grid points per integration chunk and pool task
_MAX_STEPS = 100000  # step attempts per span before the integrator gives up


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
        """dx/dt for coefficient-major states x (ncoeff, n, batch) at angles
        theta (batch, d+1) in turns; the result has the shape of x."""
        raise NotImplementedError

    def span(self, theta_start: np.ndarray, spec: jets.JetSpec):
        """Stage function f(t, x) of one integration span.

        ``theta_start`` (batch, d+1) holds the angles in turns at t = 0 of
        the span; ``f(t, x)`` is ``rhs`` at the angles reached at time t,
        for coefficient-major states x (ncoeff, n, batch).
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


def _point_rms(v: np.ndarray) -> float:
    return float(np.sqrt(np.mean(v * v)))


def integrate_span(
    field: QPVectorField,
    y0: np.ndarray,
    theta_start: np.ndarray,
    t_span: float,
    spec: jets.JetSpec,
    tol: float,
) -> np.ndarray:
    """Advance a batch of (jet) states over a signed time span.

    ``y0`` has shape (batch, n, ncoeff); ``theta_start`` holds all d+1
    angles (turns) at the start of the span.  One shared adaptive step
    sequence is used for the whole batch; the final time is hit exactly by
    clamping the last step.  Between entry and exit the state is carried
    coefficient-major, (ncoeff, n, batch), the layout of the stage function.
    """
    if not 0.0 < tol < np.inf:
        raise ValueError(f"tolerance must be positive and finite, got {tol}")
    if t_span == 0.0:
        return y0.copy()
    y = np.asarray(y0, dtype=float).transpose(2, 1, 0).copy()
    direction = 1.0 if t_span > 0 else -1.0
    f = field.span(np.asarray(theta_start, dtype=float), spec)

    t = 0.0
    k0 = f(t, y)
    # classical initial-step heuristic on the point part
    scale = tol + tol * np.abs(y[0])
    d0 = _point_rms(y[0] / scale)
    d1 = _point_rms(k0[0] / scale)
    h = 0.01 * d0 / d1 if d1 > 1e-15 and d0 > 1e-15 else 1e-6
    h = direction * min(h, abs(t_span))

    # K2 is the stages as a matrix (13, ncoeff*n*batch); each stage argument
    # is built in ``yi`` with the two roundings of y + h * (a . K)
    K = np.empty((_N_STAGES + 1,) + y.shape)
    K[0] = k0
    K2 = K.reshape(_N_STAGES + 1, -1)
    yi = np.empty_like(y)
    yi_flat = yi.reshape(-1)
    abs_y = np.abs(y)
    npts = y.size

    for _ in range(_MAX_STEPS):
        if direction * (t + h) > direction * t_span:
            h = t_span - t  # clamp the final step
        if abs(h) < 1e-15 * max(1.0, abs(t_span)):
            raise IntegrationError(f"step size underflow at t={t:.6g}", t_reached=t)
        for i in range(1, _N_STAGES):
            np.dot(_A[i, :i], K2[:i], out=yi_flat)
            yi *= h
            yi += y
            K[i] = f(t + _C[i] * h, yi)
        y_new = np.dot(_B, K2[:_N_STAGES]).reshape(y.shape)
        y_new *= h
        y_new += y
        f_new = f(t + h, y_new)
        K[_N_STAGES] = f_new

        # the error norm covers every jet coefficient: controlling only the
        # degree-0 part lets the transported derivatives go unchecked when
        # the point orbit is (nearly) stationary, e.g. at an equilibrium
        abs_new = np.abs(y_new)
        scale = np.maximum(abs_y, abs_new).reshape(-1)
        scale *= tol
        scale += tol
        err5 = np.dot(_E5, K2)
        err5 /= scale
        err3 = np.dot(_E3, K2)
        err3 /= scale
        err5_sq = float(np.sum(err5 * err5))
        err3_sq = float(np.sum(err3 * err3))
        if err5_sq == 0.0 and err3_sq == 0.0:
            err_norm = 0.0
        else:
            err_norm = abs(h) * err5_sq / np.sqrt((err5_sq + 0.01 * err3_sq) * npts)

        if err_norm <= 1.0:
            t += h
            y, abs_y = y_new, abs_new
            K[0] = f_new
            if t == t_span:
                return y.transpose(2, 1, 0).copy()
            factor = _MAX_FACTOR if err_norm == 0.0 else min(
                _MAX_FACTOR, max(_MIN_FACTOR, _SAFETY * err_norm**_ERR_EXPONENT)
            )
        else:
            factor = max(_MIN_FACTOR, _SAFETY * err_norm**_ERR_EXPONENT)
        h *= factor
    raise IntegrationError(f"no convergence in {_MAX_STEPS} steps", t_reached=t)


@dataclass(frozen=True)
class PoincareSpec:
    """The stroboscopic return map of a forced field, split into r sections."""

    field: QPVectorField
    tol: float = 1e-14
    r: int = 1

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("section count r must be >= 1")
        if not 0.0 < self.tol < np.inf:
            raise ValueError(f"tolerance must be positive and finite, got {self.tol}")

    @property
    def rho_section(self) -> np.ndarray:
        """Angle advance of one section map, in turns.

        This is the unreduced per-return advance divided by r and only then
        folded into [0, 1); folding before dividing would give a different
        (wrong) rotation.
        """
        return (self.field.omega[1:] / self.field.omega[0] / self.r) % 1.0


def _advance_chunk(payload):
    P, x, thetas, frac0, frac1, spec, tol = payload
    theta_start = np.empty((x.shape[0], P.field.d + 1))
    theta_start[:, 0] = frac0
    theta_start[:, 1:] = thetas
    span = (frac1 - frac0) * P.field.delta
    return integrate_span(P.field, x, theta_start, span, spec, tol)


def section_map(
    P: PoincareSpec, j: int, x, thetas, spec: jets.JetSpec, inverse: bool = False, tol=None
):
    """Map jets between consecutive shooting sections (j = 1..r).

    Forward: from section j to section j+1, a span of delta/r starting at
    section fraction (j-1)/r.  Inverse: the corresponding preimage, where
    ``thetas`` are the angles on section j+1.  ``x`` is (batch, n, ncoeff)
    with ``ncoeff`` set by ``spec`` (a real state is a ``jets.REAL`` jet,
    ``x[..., None]``); ``thetas`` is (batch, d).  The batch is cut into
    fixed-size chunks (independent of the worker count) and dispatched to
    the pool.  ``tol`` is the integrator tolerance of this sweep; None
    means ``P.tol``.
    """
    if not 1 <= j <= P.r:
        raise ValueError(f"section index {j} outside 1..{P.r}")
    frac0 = (j - 1) / P.r
    frac1 = j / P.r
    if inverse:
        frac0, frac1 = frac1, frac0
    x = np.asarray(x, dtype=float)
    thetas = np.asarray(thetas, dtype=float)
    tol = P.tol if tol is None else tol
    payloads = [
        (P, x[i : i + _CHUNK], thetas[i : i + _CHUNK], frac0, frac1, spec, tol)
        for i in range(0, x.shape[0], _CHUNK)
    ]
    with profile.phase("map_eval"):
        parts = run_chunks(_advance_chunk, payloads)
    return np.concatenate(parts, axis=0)
