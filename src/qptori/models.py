"""Built-in quasi-periodically forced vector fields.

The main model is a forced pendulum whose forcing mixes d+1 rationally
independent frequencies; the number of perturbing angles is configurable so
the whole pipeline runs at desk scale (d = 1, 2) or at full scale (d = 4).
The command line runs this pendulum; any other ``QPVectorField`` runs through
the Python API (``PoincareSpec(field, ...)``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import jets
from .flowmap import QPVectorField

_DEFAULT_OMEGA = (1.0, np.sqrt(2.0), np.sqrt(3.0), np.sqrt(5.0), np.sqrt(7.0))


@dataclass(frozen=True)
class PendulumParams:
    alpha: float = 0.8
    eps: float = 0.01
    d: int = 4
    omega: tuple[float, ...] | None = None

    def __post_init__(self):
        if not 1 <= self.d <= 4:
            raise ValueError("d must be between 1 and 4")
        omega = self.omega if self.omega is not None else _DEFAULT_OMEGA[: self.d + 1]
        omega = tuple(float(w) for w in omega)
        if len(omega) != self.d + 1:
            raise ValueError(f"need {self.d + 1} frequencies, got {len(omega)}")
        if not all(np.isfinite((self.alpha, self.eps) + omega)):
            raise ValueError(
                f"alpha, eps and omega must be finite, got {self.alpha}, {self.eps}, {omega}"
            )
        if omega[0] == 0.0:
            raise ValueError("section frequency omega_0 must be nonzero")
        object.__setattr__(self, "omega", omega)


class PendulumField(QPVectorField):
    """(x, y)' = (y, -alpha sin x + eps * zeta(theta)) with
    zeta = 1 / (d + 2 + sum_i cos(2 pi theta_i)); the denominator never
    drops below 1.  zeta is even in theta, so (x, y, t, theta) ->
    (x, -y, -t, -theta) maps solutions to solutions: the reversor is (1, -1)."""

    n = 2
    reversor = (1, -1)

    def __init__(self, params: PendulumParams):
        self.params = params
        self.omega = np.array(params.omega)

    def forcing(self, theta: np.ndarray) -> np.ndarray:
        """zeta at angles (batch, d+1) in turns."""
        total = np.cos(2.0 * np.pi * theta).sum(axis=-1)
        return 1.0 / (self.params.d + 2.0 + total)

    def rhs(self, x, theta, spec):
        return self._field(x, self.forcing(theta), spec)

    def forcing_along(self, theta_start: np.ndarray):
        """zeta(t) = forcing(theta_start + omega t / (2 pi)) along one span.

        Every angle moves as 2 pi theta_i(t) = 2 pi theta_i(0) + omega_i t,
        so by angle addition cos(2 pi theta_i(t)) = c0_i cos(omega_i t) -
        s0_i sin(omega_i t): once c0 and s0 are known, a time t needs the
        d+1 scalars cos/sin(omega t) and two dot products per point instead
        of d+1 cosines per point.
        """
        angle0 = 2.0 * np.pi * theta_start
        c0, s0 = np.cos(angle0), np.sin(angle0)
        base = self.params.d + 2.0

        def zeta(t):
            wt = self.omega * t
            return 1.0 / (base + (c0 @ np.cos(wt) - s0 @ np.sin(wt)))

        return zeta

    def span(self, theta_start, spec):
        zeta = self.forcing_along(theta_start)
        return lambda t, x: self._field(x, zeta(t), spec)

    def _field(self, x, zeta, spec):
        """The field at coefficient-major states x (ncoeff, 2, batch), given
        the forcing zeta (batch,) at their angles."""
        sin_x, _ = jets.sin_cos(x[:, 0], spec)
        out = np.empty_like(x)
        out[:, 0] = x[:, 1]
        np.multiply(sin_x, -self.params.alpha, out=out[:, 1])
        out[0, 1] += self.params.eps * zeta
        return out


def pendulum_field(**kwargs) -> PendulumField:
    return PendulumField(PendulumParams(**kwargs))

