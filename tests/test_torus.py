import numpy as np
import pytest

from qptori.errors import ConvergenceError, ResonanceError
from qptori.fourier import FourierField, MeshSpec
from qptori.multishoot import LiftedMap
from qptori.torus import (
    NewtonConfig,
    TorusSolution,
    invariance_residual,
    resonance_monitor,
    run_newton,
    solve_coho_floquet,
    solve_cohomological,
    torus_correction,
)

from conftest import newton_seed, pendulum_setup


def random_hyperbolic(rng, n):
    """A random matrix with eigenvalues bounded away from the unit circle."""
    mags = np.concatenate(
        [rng.uniform(0.1, 0.7, size=n // 2), rng.uniform(1.5, 5.0, size=n - n // 2)]
    )
    signs = rng.choice([-1.0, 1.0], size=n)
    T = rng.standard_normal((n, n))
    while abs(np.linalg.det(T)) < 0.1:
        T = rng.standard_normal((n, n))
    return T @ np.diag(mags * signs) @ np.linalg.inv(T)


def torus_residual(u, B, rho, g):
    lhs = u.shift(rho).values
    rhs = np.einsum("ij,...j->...i", B, u.values) + g.values
    return np.abs(lhs - rhs).max()


class TestCohoTorus:
    def test_constant_input(self):
        mesh = MeshSpec((5,))
        g = FourierField.from_values(mesh, np.full(mesh.shape + (1,), 3.0))
        u = solve_cohomological(g, np.array([[0.5]]), np.array([0.37]))
        # DC block: u = g / (1 - 0.5)
        assert np.abs(u.values - 6.0).max() < 1e-13

    def test_single_mode_residual(self):
        mesh = MeshSpec((31,))
        theta = mesh.grid()[:, 0]
        # one radian is 1/(2 pi) of a turn
        rho = np.array([1.0 / (2 * np.pi)])
        g = FourierField.from_values(mesh, np.cos(2 * np.pi * theta)[:, None])
        B = np.array([[0.5]])
        u = solve_cohomological(g, B, rho)
        assert torus_residual(u, B, rho, g) < 1e-13

    def test_random_hyperbolic_residual(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            n = rng.integers(1, 4)
            mesh = MeshSpec((11, 9))
            B = random_hyperbolic(rng, n)
            rho = rng.random(2)
            g = FourierField.from_values(mesh, rng.standard_normal(mesh.shape + (n,)))
            u = solve_cohomological(g, B, rho)
            assert torus_residual(u, B, rho, g) < 1e-12

    def test_resonant_block_raises(self):
        # B with eigenvalue 1 makes the DC block exactly singular
        mesh = MeshSpec((5,))
        g = FourierField.from_values(mesh, np.ones(mesh.shape + (1,)))
        with pytest.raises(ResonanceError) as err:
            solve_cohomological(g, np.array([[1.0]]), np.array([0.3]))
        assert err.value.kappa == (0,)

    def test_small_divisor_warns(self):
        mesh = MeshSpec((5,))
        g = FourierField.from_values(mesh, np.ones(mesh.shape + (1,)))
        with pytest.warns(RuntimeWarning, match="small divisor"):
            solve_cohomological(g, np.array([[1.0 + 1e-10]]), np.array([0.3]))


class TestCohoFloquet:
    def test_zero_input(self):
        mesh = MeshSpec((7,))
        B = np.array([[2.0, 0.0], [0.0, 0.5]])
        H = solve_coho_floquet(np.zeros(mesh.shape + (2, 2)), mesh, B, np.array([0.3]))
        assert np.abs(H.values).max() < 1e-14

    def test_block_residual(self):
        rng = np.random.default_rng(1)
        mesh = MeshSpec((11,))
        B = random_hyperbolic(rng, 2)
        rho = np.array([0.41])
        R = rng.standard_normal(mesh.shape + (2, 2))
        R -= R.reshape(-1, 2, 2).mean(axis=0)  # zero average
        H = solve_coho_floquet(R, mesh, B, rho)
        lhs = H.shift(rho).values @ B - B @ H.values
        assert np.abs(lhs - R).max() < 1e-12
        # Avg(H) = 0 by construction
        assert np.abs(H.values.reshape(-1, 4).mean(axis=0)).max() < 1e-13

    def test_eigenvalue_ratio_resonance(self):
        # e^{i psi} mu_l = mu_j at kappa != 0 makes a Floquet block singular;
        # rho = 0 and equal eigenvalues force it at every mode
        mesh = MeshSpec((5,))
        B = np.diag([2.0, 2.0])
        R = np.zeros(mesh.shape + (2, 2))
        R[0, 0, 0] = 1.0
        R -= R.reshape(-1, 2, 2).mean(axis=0)
        with pytest.raises(ResonanceError):
            solve_coho_floquet(R, mesh, B, np.array([0.0]))


class TestResonanceMonitor:
    def _geometric_field(self, mesh, rate=0.5):
        freqs = mesh.freqs()
        coeffs = (rate ** np.abs(freqs).max(axis=-1)).astype(complex) * mesh.M
        return FourierField.from_coeffs(mesh, coeffs[..., None])

    def test_smooth_decay_clean(self):
        mesh = MeshSpec((15,))
        assert resonance_monitor(self._geometric_field(mesh)) == []

    def test_injected_spike_flagged(self):
        mesh = MeshSpec((15,))
        f = self._geometric_field(mesh)
        coeffs = f.coeffs.copy()
        coeffs[5, 0] *= 1e6
        flagged = resonance_monitor(FourierField.from_coeffs(mesh, coeffs))
        assert (5,) in flagged


class TestNewton:
    def test_d1_converges_fast(self, d1_torus):
        P, qpmap, sol = d1_torus
        iters = len(sol.history) - 1
        assert iters <= 4
        # the floor is the map's conditioning (lambda_u ~ 276) times one ulp
        # of the state, a bit under 1e-12; the threshold 1e-10 is met earlier
        assert sol.history[-1]["invariance"] <= 1e-12
        assert sol.history[-1]["reducibility"] <= 1e-12

    def test_d1_eigenvalue_product(self, d1_torus):
        # the pendulum map preserves area, so the multipliers are reciprocal
        _, _, sol = d1_torus
        eigs = np.sort(np.abs(sol.eigenvalues()))
        assert abs(eigs[0] * eigs[1] - 1.0) < 1e-10

    def test_quadratic_decrease(self, d1_torus):
        _, _, sol = d1_torus
        res = [h["invariance"] for h in sol.history]
        # consecutive pre-floor triples: log-ratio slope near 2
        for a, b, c in zip(res, res[1:], res[2:]):
            if c < 1e-12:
                continue
            slope = np.log(c / b) / np.log(b / a)
            assert slope >= 1.8

    def test_invariance_residual_matches_history(self, d1_torus):
        P, qpmap, sol = d1_torus
        res = invariance_residual(qpmap, sol.phi)
        assert abs(res - sol.history[-1]["invariance"]) < 1e-12

    def test_change_is_invertible(self, d1_torus):
        _, _, sol = d1_torus
        prod = sol.C.values @ sol.C_inv.values
        assert np.abs(prod - np.eye(2)).max() < 1e-11

    def test_exact_seed_returns_immediately(self, d1_torus):
        P, qpmap, sol = d1_torus
        again = run_newton(qpmap, sol.phi, sol.C, sol.B, NewtonConfig())
        assert len(again.history) == 1  # only the initial residual sweep

    def test_correction_is_noop_on_exact_torus(self, d1_torus):
        P, qpmap, sol = d1_torus
        mesh = sol.mesh
        flat = sol.phi.values.reshape(mesh.M, 2)
        images = qpmap.images(flat, mesh.grid())
        y = sol.phi.shift(sol.rho).values.reshape(mesh.M, 2) - images
        C_inv_shift = sol.C_inv.shift(sol.rho)
        _, h = torus_correction(
            qpmap, sol.phi, sol.C, C_inv_shift, sol.B, y.reshape(mesh.shape + (2,))
        )
        assert np.abs(h.values).max() < 1e-10

    def test_monitor_clean_on_pendulum(self, d1_torus):
        _, _, sol = d1_torus
        assert sol.monitor_flags == []

    def test_phase_shifted_seed_same_spectrum(self, d1_torus):
        P, qpmap, sol = d1_torus
        gamma = np.array([0.2])
        shifted = run_newton(
            qpmap, sol.phi.shift(gamma), sol.C.shift(gamma), sol.B, NewtonConfig()
        )
        a = np.sort(np.abs(shifted.eigenvalues()))
        b = np.sort(np.abs(sol.eigenvalues()))
        assert np.abs(a - b).max() / b.max() < 1e-9

    def test_stagnation_detected(self):
        # an absurdly tight threshold forces the round-off floor, where the
        # residual stops improving and the stagnation stop must trigger
        field, mesh, P = pendulum_setup(1, 15)
        qpmap = LiftedMap(P)
        with pytest.raises(ConvergenceError):
            run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig(tol=1e-16, max_iter=12))


class TestPersistence:
    def test_save_load_roundtrip(self, d1_torus, tmp_path):
        _, _, sol = d1_torus
        prefix = str(tmp_path / "torus")
        sol.save(prefix)
        back = TorusSolution.load(prefix)
        # coefficients round-trip exactly; values go through one synthesis
        assert np.abs(back.phi.coeffs - sol.phi.coeffs).max() == 0.0
        assert np.abs(back.phi.values - sol.phi.values).max() < 1e-14
        assert np.abs(back.C.values - sol.C.values).max() < 1e-15
        assert np.abs(back.B - sol.B).max() < 1e-15
        assert np.allclose(back.rho, sol.rho)
        assert back.history == sol.history

    def test_load_missing_raises(self, tmp_path):
        from qptori.errors import ArtifactError

        with pytest.raises(ArtifactError):
            TorusSolution.load(str(tmp_path / "nothing"))
