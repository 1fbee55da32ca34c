"""Reducible invariant tori of quasi-periodically forced ODEs.

The package computes invariant tori of stroboscopic return maps together
with their Floquet change and matrix, expands the attached stable/unstable
manifolds in Taylor-Fourier series, and validates everything with a small
battery of accuracy tests.  Multiple shooting lifts strongly hyperbolic
problems to an equivalent single-shooting one, and that lift, with one
section, is also the plain return map.
"""

from .errors import (
    ArtifactError,
    ConvergenceError,
    IntegrationError,
    QptoriError,
    ResonanceError,
    SpectrumError,
)
from .flowmap import PoincareSpec, QPVectorField
from .fourier import FourierField, FourierMatrix, MeshSpec
from .jets import JetSpec
from .manifold import ManifoldExpansion, stable_expansion, unstable_expansion
from .models import PendulumParams, pendulum_field
from .multishoot import LiftedMap, MultiTorus, lifted_seed
from .torus import NewtonConfig, TorusSolution, run_newton

__version__ = "0.1.0"

__all__ = [
    "ArtifactError",
    "ConvergenceError",
    "IntegrationError",
    "QptoriError",
    "ResonanceError",
    "SpectrumError",
    "PoincareSpec",
    "QPVectorField",
    "FourierField",
    "FourierMatrix",
    "MeshSpec",
    "JetSpec",
    "ManifoldExpansion",
    "stable_expansion",
    "unstable_expansion",
    "PendulumParams",
    "pendulum_field",
    "LiftedMap",
    "MultiTorus",
    "lifted_seed",
    "NewtonConfig",
    "TorusSolution",
    "run_newton",
]
