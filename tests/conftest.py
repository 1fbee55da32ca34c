import numpy as np
import pytest

from qptori import (
    LiftedMap,
    MeshSpec,
    NewtonConfig,
    PoincareSpec,
    lifted_seed,
    pendulum_field,
    run_newton,
)


def pendulum_setup(d, N, eps=0.01, tol=1e-14, r=1):
    field = pendulum_field(d=d, eps=eps)
    mesh = MeshSpec((N,) * d)
    P = PoincareSpec(field, tol=tol, r=r)
    return field, mesh, P


def newton_seed(lift, mesh):
    """Constant seed at the saddle (pi, 0) of the unforced pendulum."""
    return lifted_seed(lift, mesh, np.array([np.pi, 0.0]))


@pytest.fixture(scope="session")
def d1_torus():
    """Converged d=1 pendulum torus, shared by the manifold and verify tests."""
    field, mesh, P = pendulum_setup(1, 31)
    qpmap = LiftedMap(P)
    sol = run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig())
    return P, qpmap, sol


@pytest.fixture(scope="session")
def d2_torus():
    field, mesh, P = pendulum_setup(2, 31)
    qpmap = LiftedMap(P)
    sol = run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig())
    return P, qpmap, sol
