import json
import warnings

import numpy as np
import pytest

from qptori import flowmap, jets, verify
from qptori.errors import ConvergenceError, ResonanceError
from qptori.fourier import FourierField, MeshSpec, shift_grid
from qptori.multishoot import LiftedMap
from qptori.torus import (
    NewtonConfig,
    TorusSolution,
    floquet_correction,
    resonance_monitor,
    run_newton,
    solve_coho_floquet,
    solve_cohomological,
    torus_correction,
)
from qptori.torus import _half_period_sweep, _inv

from conftest import newton_seed, pendulum_map, pendulum_setup


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


def scaled_rotation(rng, modulus=1.7, angle=0.9, real=0.4):
    """A random conjugate of diag(modulus * rotation(angle), real): one
    complex-conjugate eigenvalue pair off the unit circle, as r >= 3 lifts have."""
    c, s = np.cos(angle), np.sin(angle)
    D = np.array([[modulus * c, -modulus * s, 0.0], [modulus * s, modulus * c, 0.0], [0.0, 0.0, real]])
    T = rng.standard_normal((3, 3)) + 3.0 * np.eye(3)
    return T @ D @ np.linalg.inv(T)


# B = [[2, 1], [0, 2 + delta]]: cond(V) is about 2 / delta, and delta = 0 is
# defective.  The torus divisors count as |den| / cond(V), the Floquet ones,
# transformed on both sides, as |den| / cond(V)^2.
TORUS_CONDITIONING = [
    pytest.param(0.0, "refused", id="defective"),
    pytest.param(1e-9, "warns", id="cond-2e9"),
    pytest.param(1e-6, "quiet", id="cond-2e6"),
]
FLOQUET_CONDITIONING = [
    pytest.param(0.0, "refused", id="defective"),
    pytest.param(1e-9, "refused", id="cond-2e9"),
    pytest.param(1e-6, "warns", id="cond-2e6"),
    pytest.param(1e-2, "quiet", id="cond-2e2"),
]


def solve_with_conditioning(outcome, solve):
    """Run ``solve`` and check that the eigenbasis conditioning has the expected effect."""
    if outcome == "refused":
        with pytest.raises(ResonanceError, match="cond"):
            solve()
        return None
    if outcome == "warns":
        with pytest.warns(RuntimeWarning, match="small divisor"):
            return solve()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return solve()


def torus_residual(u, mesh, B, rho, g):
    lhs = shift_grid(u, mesh, rho)
    rhs = np.einsum("ij,...j->...i", B, u) + g
    return np.abs(lhs - rhs).max()


class TestCohoTorus:
    def test_constant_input(self):
        mesh = MeshSpec((5,))
        g = np.full(mesh.shape + (1,), 3.0)
        u = solve_cohomological(g, mesh, np.array([[0.5]]), np.array([0.37]))
        # DC block: u = g / (1 - 0.5)
        assert np.abs(u - 6.0).max() < 1e-13

    def test_single_mode_residual(self):
        mesh = MeshSpec((31,))
        theta = mesh.grid()[:, 0]
        # one radian is 1/(2 pi) of a turn
        rho = np.array([1.0 / (2 * np.pi)])
        g = np.cos(2 * np.pi * theta)[:, None]
        B = np.array([[0.5]])
        u = solve_cohomological(g, mesh, B, rho)
        assert torus_residual(u, mesh, B, rho, g) < 1e-13

    def test_random_hyperbolic_residual(self):
        rng = np.random.default_rng(0)
        Bs = [random_hyperbolic(rng, rng.integers(1, 4)) for _ in range(5)]
        for B in Bs + [scaled_rotation(rng)]:
            n = B.shape[0]
            mesh = MeshSpec((11, 9))
            rho = rng.random(2)
            g = rng.standard_normal(mesh.shape + (n,))
            u = solve_cohomological(g, mesh, B, rho)
            assert torus_residual(u, mesh, B, rho, g) < 1e-12

    def test_resonant_block_raises(self):
        # B with eigenvalue 1 makes the DC block exactly singular
        mesh = MeshSpec((5,))
        g = np.ones(mesh.shape + (1,))
        with pytest.raises(ResonanceError, match=r"singular block at kappa=\(0,\) "):
            solve_cohomological(g, mesh, np.array([[1.0]]), np.array([0.3]))

    def test_small_divisor_warns(self):
        mesh = MeshSpec((5,))
        g = np.ones(mesh.shape + (1,))
        with pytest.warns(RuntimeWarning, match="small divisor") as record:
            solve_cohomological(g, mesh, np.array([[1.0 + 1e-10]]), np.array([0.3]))
        # the warning points at the solver's caller, not into torus.py
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("delta, outcome", TORUS_CONDITIONING)
    def test_eigenbasis_conditioning(self, delta, outcome):
        mesh = MeshSpec((5,))
        g = np.random.default_rng(3).standard_normal((5, 2))
        B = np.array([[2.0, 1.0], [0.0, 2.0 + delta]])
        rho = np.array([0.3])
        u = solve_with_conditioning(outcome, lambda: solve_cohomological(g, mesh, B, rho))
        if outcome == "quiet":  # round-off grows like cond(V) * eps
            assert torus_residual(u, mesh, B, rho, g) < 1e-8


class TestCohoFloquet:
    def test_zero_input(self):
        mesh = MeshSpec((7,))
        B = np.array([[2.0, 0.0], [0.0, 0.5]])
        H = solve_coho_floquet(np.zeros(mesh.shape + (2, 2)), mesh, B, np.array([0.3]))
        assert np.abs(H).max() < 1e-14

    def test_block_residual(self):
        rng = np.random.default_rng(1)
        mesh = MeshSpec((11,))
        rho = np.array([0.41])
        for B in (random_hyperbolic(rng, 2), scaled_rotation(rng)):
            n = B.shape[0]
            R = rng.standard_normal(mesh.shape + (n, n))
            R -= R.reshape(-1, n, n).mean(axis=0)  # zero average
            H = solve_coho_floquet(R, mesh, B, rho)
            lhs = shift_grid(H, mesh, rho) @ B - B @ H
            assert np.abs(lhs - R).max() < 1e-12
            # Avg(H) = 0 by construction
            assert np.abs(H.reshape(-1, n * n).mean(axis=0)).max() < 1e-13

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

    def test_small_divisor_warns(self):
        # cond(V) about 2e6 counts twice in the Floquet rule
        mesh = MeshSpec((5,))
        R = np.random.default_rng(4).standard_normal(mesh.shape + (2, 2))
        R -= R.reshape(-1, 2, 2).mean(axis=0)
        B = np.array([[2.0, 1.0], [0.0, 2.0 + 1e-6]])
        with pytest.warns(RuntimeWarning, match="small divisor") as record:
            solve_coho_floquet(R, mesh, B, np.array([0.3]))
        assert [w.filename for w in record] == [__file__]

    @pytest.mark.parametrize("delta, outcome", FLOQUET_CONDITIONING)
    def test_eigenbasis_conditioning(self, delta, outcome):
        mesh = MeshSpec((5,))
        R = np.random.default_rng(4).standard_normal(mesh.shape + (2, 2))
        R -= R.reshape(-1, 2, 2).mean(axis=0)
        B = np.array([[2.0, 1.0], [0.0, 2.0 + delta]])
        rho = np.array([0.3])
        H = solve_with_conditioning(outcome, lambda: solve_coho_floquet(R, mesh, B, rho))
        if outcome == "quiet":
            lhs = shift_grid(H, mesh, rho) @ B - B @ H
            assert np.abs(lhs - R).max() < 1e-9


class TestResonanceMonitor:
    def _geometric_field(self, mesh, rate=0.5):
        freqs = mesh.freqs()
        coeffs = (rate ** np.abs(freqs).max(axis=-1)).astype(complex) * mesh.M
        return FourierField(mesh, 1, coeffs=coeffs[..., None])

    def test_smooth_decay_clean(self):
        mesh = MeshSpec((15,))
        assert resonance_monitor(self._geometric_field(mesh)) == []

    def test_injected_spike_flagged(self):
        mesh = MeshSpec((15,))
        f = self._geometric_field(mesh)
        coeffs = f.coeffs.copy()
        coeffs[5, 0] *= 1e6
        flagged = resonance_monitor(FourierField(mesh, 1, coeffs=coeffs))
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
        res = verify.test_invariance(qpmap, sol.phi).measured
        assert abs(res - sol.history[-1]["invariance"]) < 1e-12

    def test_change_is_invertible(self, d1_torus):
        _, _, sol = d1_torus
        prod = sol.C @ np.linalg.inv(sol.C)
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
        C_inv_shift = shift_grid(np.linalg.inv(sol.C), mesh, sol.rho)
        h = torus_correction(
            sol.phi, y.reshape(mesh.shape + (2,)), sol.C, C_inv_shift, sol.B, sol.rho
        )
        assert np.abs(h.values).max() < 1e-10

    def test_monitor_clean_on_pendulum(self, d1_torus):
        _, _, sol = d1_torus
        assert sol.monitor_flags == []

    def test_phase_shifted_seed_same_spectrum(self, d1_torus):
        P, qpmap, sol = d1_torus
        gamma = np.array([0.2])
        shifted = run_newton(
            qpmap, sol.phi.shift(gamma), shift_grid(sol.C, sol.mesh, gamma), sol.B, NewtonConfig()
        )
        a = np.sort(np.abs(shifted.eigenvalues()))
        b = np.sort(np.abs(sol.eigenvalues()))
        assert np.abs(a - b).max() / b.max() < 1e-9

    def test_max_iter_0_returns_converged_seed(self, d1_torus):
        _, qpmap, sol = d1_torus
        again = run_newton(qpmap, sol.phi, sol.C, sol.B, NewtonConfig(max_iter=0))
        assert len(again.history) == 1
        assert again.phi is sol.phi

    @staticmethod
    def count_sweeps(monkeypatch) -> list:
        """Record one entry per grid sweep of a lift: whether it swept the
        half-period map."""
        sweeps = []
        sweep = LiftedMap._sweep

        def counting(self, y, thetas, spec, inverse, half=False):
            sweeps.append(half)
            return sweep(self, y, thetas, spec, inverse, half)

        monkeypatch.setattr(LiftedMap, "_sweep", counting)
        return sweeps

    def test_max_iter_0_refuses_unconverged_seed(self, monkeypatch):
        sweeps = self.count_sweeps(monkeypatch)
        for reversible in (True, False):  # the pendulum, and the field without its reversor
            mesh, qpmap = pendulum_map(1, 15, reversible)
            seed = newton_seed(qpmap, mesh)  # its single-point sweep is not counted
            sweeps.clear()
            with pytest.raises(ConvergenceError, match="no convergence in 0 iterations"):
                run_newton(qpmap, *seed, NewtonConfig(max_iter=0))
            assert sweeps == [reversible]  # the one pass that measures the seed

    def test_one_sweep_per_history_entry(self, monkeypatch):
        # a reversible map sweeps the half-period map on every pass, and
        # never the full return map beside it
        sweeps = self.count_sweeps(monkeypatch)
        for reversible in (True, False):
            mesh, qpmap = pendulum_map(1, 31, reversible)
            seed = newton_seed(qpmap, mesh)
            sweeps.clear()
            sol = run_newton(qpmap, *seed, NewtonConfig())
            assert len(sol.history) > 1
            assert sweeps == [reversible] * len(sol.history)

    @pytest.mark.parametrize(
        "reversible, r, parts",
        [(True, 1, 2), (False, 1, 1), (True, 2, 2)],
        ids=["pendulum", "no-reversor", "pendulum-r2"],
    )
    def test_sweep_spans(self, monkeypatch, d1_torus, reversible, r, parts):
        # every integration span of a reversible r = 1 map covers half the
        # return time with gradient jets; a full-period sweep would show as
        # a span of delta.  Without a reversor, and on an r = 2 lift, a span
        # covers delta / r.  d=1 N=31 is one chunk per section map, so the
        # spans count the sweeps: r per history entry, plus one for the
        # converged seed's loose pass, which is swept again
        mesh, qpmap = pendulum_map(1, 31, reversible, r)
        seed = newton_seed(qpmap, mesh)
        spans = []
        integrate_span = flowmap.integrate_span

        def recording(field, y0, theta_start, t_span, spec, tol):
            spans.append((t_span, spec))
            return integrate_span(field, y0, theta_start, t_span, spec, tol)

        monkeypatch.setattr(flowmap, "integrate_span", recording)
        sol = run_newton(qpmap, *seed, NewtonConfig())
        assert len(spans) == r * len(sol.history)
        if r == 1:
            _, _, solved = d1_torus
            again = run_newton(qpmap, solved.phi, solved.C, solved.B, NewtonConfig())
            assert len(again.history) == 1
            assert len(spans) == len(sol.history) + 2
        delta = qpmap.P.field.delta
        assert {t for t, _ in spans} == {delta / parts}
        assert {spec for _, spec in spans} == {jets.JetSpec(symbols=2, order=1)}

    def test_early_passes_sweep_loose(self, d1_torus):
        # the seed's residual sets a loose first pass; the pass that stops
        # Newton and the one before it sweep at the configured tolerance
        P, _, sol = d1_torus
        tols = [h["map_tol"] for h in sol.history]
        assert tols[0] > P.tol
        assert tols[-2:] == [P.tol, P.tol]
        assert all(P.tol <= t <= 1e-10 for t in tols)

    def test_sweeps_integrate_at_their_history_tolerance(self, monkeypatch):
        # the tolerance each pass records is the one its integrator spans get
        field, mesh, P = pendulum_setup(1, 31)
        qpmap = LiftedMap(P)
        seed = newton_seed(qpmap, mesh)
        tols = []
        integrate_span = flowmap.integrate_span

        def recording(*args):
            tols.append(args[5])  # field, y0, theta_start, t_span, spec, tol
            return integrate_span(*args)

        monkeypatch.setattr(flowmap, "integrate_span", recording)
        sol = run_newton(qpmap, *seed, NewtonConfig())
        assert sol.history[0]["map_tol"] > P.tol
        assert tols[0] == sol.history[0]["map_tol"]
        assert tols[-1] == P.tol
        assert set(tols) == {h["map_tol"] for h in sol.history}

    def test_converged_seed_swept_again_at_full_tolerance(self, d1_torus, monkeypatch):
        # a loose first pass that reads a small residual is swept again, and
        # only the second sweep makes the history
        P, _, sol = d1_torus
        sweeps = self.count_sweeps(monkeypatch)
        for reversible in (True, False):
            _, qpmap = pendulum_map(1, 31, reversible)
            sweeps.clear()
            again = run_newton(qpmap, sol.phi, sol.C, sol.B, NewtonConfig())
            assert sweeps == [reversible] * 2
            assert [h["map_tol"] for h in again.history] == [P.tol]

    @pytest.mark.parametrize("tol", [1e-10, 0.05])
    def test_convergence_never_read_from_a_loose_sweep(self, tol):
        # with tol = 0.05 the loose second pass already reads under tol
        # (0.02 on this seed): it is swept again before Newton stops
        field, mesh, P = pendulum_setup(1, 31)
        qpmap = LiftedMap(P)
        seed = newton_seed(qpmap, mesh)
        last = run_newton(qpmap, *seed, NewtonConfig(tol=tol)).history[-1]
        assert last["invariance"] <= tol and last["reducibility"] <= tol
        assert last["map_tol"] == P.tol

    def test_seed_change_of_wrong_shape_refused(self):
        # C0 holds the grid values of the change, not one n x n matrix
        field, mesh, P = pendulum_setup(1, 15)
        qpmap = LiftedMap(P)
        phi0, _, B0 = newton_seed(qpmap, mesh)
        with pytest.raises(ValueError, match="C0 shape"):
            run_newton(qpmap, phi0, np.eye(2), B0)

    @pytest.mark.parametrize("tol, max_iter", [(np.nan, 12), (np.inf, 12), (0.0, 12), (1e-10, -1)])
    def test_bad_config_refused(self, tol, max_iter):
        with pytest.raises(ValueError):
            NewtonConfig(tol=tol, max_iter=max_iter)

    def test_stagnation_detected(self):
        # an absurdly tight threshold forces the round-off floor, where the
        # residual stops improving and the stagnation stop must trigger
        field, mesh, P = pendulum_setup(1, 15)
        qpmap = LiftedMap(P)
        with pytest.raises(ConvergenceError):
            run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig(tol=1e-16, max_iter=12))


class TestFloquetCorrection:
    @pytest.mark.parametrize("r", [1, 2])
    def test_shifted_inverse_is_the_new_change(self, d1_torus, r):
        # from a smoothly perturbed change of the d=1 torus, or of its r = 2
        # lift, the returned C^-1(theta + rho) is the transform of the
        # returned C's inverse
        if r == 1:
            _, qpmap, sol = d1_torus
        else:
            mesh, qpmap = pendulum_map(1, 31, r=r)
            sol = run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig())
        mesh, n = sol.mesh, sol.n
        _, jacs = qpmap.images_and_jacobian(sol.phi.values.reshape(mesh.M, n), mesh.grid())
        K = np.random.default_rng(3).standard_normal((n, n))
        wave = np.sin(2.0 * np.pi * mesh.grid().sum(axis=-1)).reshape(mesh.shape + (1, 1))
        C = sol.C @ (np.eye(n) + 1e-3 * wave * K)
        C_inv_shift = shift_grid(np.linalg.inv(C), mesh, sol.rho)
        C_new, _, C_inv_shift_new = floquet_correction(
            jacs.reshape(C.shape), C, C_inv_shift, sol.B, sol.rho
        )
        expected = shift_grid(np.linalg.inv(C_new), mesh, sol.rho)
        assert np.abs(C_new - C).max() > 1e-6  # the perturbation was corrected
        assert np.abs(C_inv_shift_new - expected).max() <= 1e-12 * np.abs(expected).max()


class TestInverse:
    @pytest.mark.parametrize("n", [2, 4])
    def test_matches_lapack(self, n):
        # the closed form for n = 2, LAPACK's batched inverse otherwise
        A = np.eye(n) + 0.2 * np.random.default_rng(n).standard_normal((7, 5, n, n))
        assert np.linalg.cond(A).max() < 10.0
        expected = np.linalg.inv(A)
        err = np.abs(_inv(A) - expected).max(axis=(-2, -1))
        assert (err <= 1e-13 * np.abs(expected).max(axis=(-2, -1))).all()


class TestHalfPeriodNewton:
    """A reversible map's Newton sweeps the half-period map Q and reflects it."""

    def test_half_sweep_is_the_return_map(self, d2_torus):
        # at the desk torus, y and DP built from Q and its grid reflection are
        # the full map's residual and differential at theta - rho/2
        _, qpmap, sol = d2_torus
        mesh = sol.mesh
        c = sol.rho / 2.0
        thetas = (mesh.grid() - c) % 1.0
        psi = sol.phi.shift(-c)
        y, DP = _half_period_sweep(qpmap, psi, thetas)
        images, jacs = qpmap.images_and_jacobian(psi.values.reshape(mesh.M, 2), thetas)
        full_y = sol.phi.shift(c).values.reshape(mesh.M, 2) - images
        assert np.abs(y - full_y).max() < 1e-12
        jacs = jacs.reshape(DP.shape)
        assert np.abs(DP - jacs).max() < 1e-11 * np.abs(jacs).max()

    def test_d1_N21_passes_tests_1_to_3(self):
        # test 1 on P is independent of Newton's own residual here, and the
        # shifted-grid collocation keeps every test under 1e-10
        mesh, qpmap = pendulum_map(1, 21)
        sol = run_newton(qpmap, *newton_seed(qpmap, mesh), NewtonConfig())
        for t in verify.torus_suite(qpmap, sol.phi):
            assert t.measured <= 1e-10, str(t)

    def test_desk_agrees_with_the_full_sweep(self, d2_torus):
        _, qpmap, sol = d2_torus
        mesh, full = pendulum_map(2, 31, reversible=False)
        ref = run_newton(full, *newton_seed(full, mesh), NewtonConfig())
        a, b = np.sort(np.abs(sol.eigenvalues())), np.sort(np.abs(ref.eigenvalues()))
        assert np.abs(a / b - 1.0).max() <= 1e-10
        assert np.abs(sol.phi.values - ref.phi.values).max() <= 1e-13
        # the full path takes C^-1(theta + rho) from the solved Floquet
        # equation (1.1e-13 here); a transform of the inverted C reads 3.8e-13
        assert ref.history[-1]["reducibility"] <= 2e-13

    def test_desk_torus_is_symmetric(self, d2_torus):
        _, qpmap, sol = d2_torus
        assert verify.reversibility(qpmap, sol.phi) <= 1e-14


class TestReport:
    def test_complex_spectrum(self):
        # r >= 3 lifts have complex Floquet eigenvalues; the report must stay JSON
        mesh = MeshSpec((5,))
        B = scaled_rotation(np.random.default_rng(6))
        sol = TorusSolution(
            phi=FourierField.from_values(mesh, np.zeros(mesh.shape + (3,))),
            C=np.broadcast_to(np.eye(3), mesh.shape + (3, 3)),
            B=B,
            rho=np.array([0.3]),
        )
        eigs = json.loads(json.dumps(sol.report()))["eigenvalues"]
        assert eigs[0] == pytest.approx(0.4)
        assert [type(v) for v in eigs] == [float, str, str]
        assert complex(eigs[1]) == pytest.approx(complex(eigs[2]).conjugate())


class TestPersistence:
    def test_save_load_roundtrip(self, d1_torus, tmp_path):
        _, _, sol = d1_torus
        prefix = str(tmp_path / "torus")
        sol.save(prefix)
        back = TorusSolution.load(prefix)
        # coefficients round-trip exactly; values go through one synthesis
        assert np.abs(back.phi.coeffs - sol.phi.coeffs).max() == 0.0
        assert np.abs(back.phi.values - sol.phi.values).max() < 1e-14
        assert np.abs(back.C - sol.C).max() < 1e-15
        assert np.abs(back.B - sol.B).max() < 1e-15
        assert np.allclose(back.rho, sol.rho)
        assert back.history == sol.history

    def test_load_missing_raises(self, tmp_path):
        from qptori.errors import ArtifactError

        with pytest.raises(ArtifactError):
            TorusSolution.load(str(tmp_path / "nothing"))
