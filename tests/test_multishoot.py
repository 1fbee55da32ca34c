import numpy as np
import pytest

from qptori import flowmap, jets, parallel
from qptori.flowmap import section_map
from qptori.manifold import eigen_pick, unstable_expansion
from qptori.multishoot import LiftedMap, lifted_seed
from qptori.torus import NewtonConfig, run_newton

from conftest import lift_spectral_errors, off_block_norm, pendulum_setup


@pytest.fixture(scope="module")
def r2_solution(d1_torus):
    """d=1 pendulum torus recomputed with two shooting sections."""
    field, mesh, P = pendulum_setup(1, 31, r=2)
    lift = LiftedMap(P)
    seed = lifted_seed(lift, mesh, np.array([np.pi, 0.0]))
    sol = run_newton(lift, *seed, NewtonConfig())
    return P, lift, sol


class TestLift:
    @pytest.mark.parametrize("r", [1, 3])
    def test_lift_blocks_are_section_maps(self, r):
        # bitwise: each destination block of images, differentials and
        # series, forward and inverse, is its own section map of its source
        # block, and the Jacobian blocks off the cyclic route are exactly 0;
        # with r = 1 the lift is the plain return map
        field, mesh, P = pendulum_setup(1, 31, r=r)
        lift = LiftedMap(P)
        n = field.n
        rng = np.random.default_rng(0)
        x = np.tile([np.pi, 0.0], r) + 0.05 * rng.standard_normal((4, n * r))
        theta = rng.random((4, 1))
        tables = np.stack([x, 0.1 * rng.standard_normal((4, n * r))])
        for inverse in (False, True):
            images = lift.images(x, theta, inverse=inverse)
            vals, jac = lift.images_and_jacobian(x, theta, inverse=inverse)
            series = lift.transport_series(tables, theta, 3, inverse=inverse)
            on_route = np.zeros((r, r), dtype=bool)
            for j in range(1, r + 1):
                src, dst = (j % r + 1, j) if inverse else (j, j % r + 1)
                on_route[dst - 1, src - 1] = True
                s = slice((src - 1) * n, src * n)
                t = slice((dst - 1) * n, dst * n)

                plain = section_map(P, j, x[:, s, None], theta, jets.REAL, inverse=inverse)
                assert np.array_equal(images[:, t], plain[..., 0])

                seeds, spec = jets.seed_gradient(x[:, s])
                grad = section_map(P, j, seeds, theta, spec, inverse=inverse)
                assert np.array_equal(vals[:, t], grad[..., 0])
                assert np.array_equal(jac[:, t, s], grad[..., 1:])

                seeds, spec = jets.seed_series(tables[:, :, s], 3)
                img = section_map(P, j, seeds, theta, spec, inverse=inverse)
                assert np.array_equal(series[:, :, t], np.moveaxis(img, -1, 0))
            blocks = jac.reshape(4, r, n, r, n).transpose(0, 1, 3, 2, 4)
            assert not blocks[:, ~on_route].any()
        assert np.array_equal(lift.rho, (field.omega[1:] / field.omega[0] / r) % 1.0)

    @staticmethod
    def sweep_points(r, npts=64):
        field, mesh, P = pendulum_setup(1, 31, r=r)
        rng = np.random.default_rng(4)
        x = np.tile([np.pi, 0.0], r) + 0.05 * rng.standard_normal((npts, field.n * r))
        return P, LiftedMap(P), x, rng.random((npts, 1))

    def test_configured_tolerance_is_the_default(self):
        # a sweep that passes P.tol is the sweep that passes none, bitwise
        P, lift, x, theta = self.sweep_points(r=2)
        for inverse in (False, True):
            default = lift.images_and_jacobian(x, theta, inverse=inverse)
            explicit = lift.images_and_jacobian(x, theta, inverse=inverse, tol=P.tol)
            for a, b in zip(default, explicit):
                assert np.array_equal(a, b)

    def test_loose_sweep_independent_of_workers(self, monkeypatch):
        # a loose tolerance reaches every chunk, in-process and in the pool
        monkeypatch.setattr(flowmap, "_CHUNK", 16)  # 4 chunks per section
        P, lift, x, theta = self.sweep_points(r=2)
        loose = lift.images_and_jacobian(x, theta, tol=1e-10)
        try:
            parallel.set_workers(2)
            pooled = lift.images_and_jacobian(x, theta, tol=1e-10)
        finally:
            parallel.set_workers(1)
        full = lift.images_and_jacobian(x, theta)
        for a, b, c in zip(loose, pooled, full):
            assert np.array_equal(a, b)
            assert not np.array_equal(a, c)

    def test_lifted_rotation(self):
        field, mesh, P = pendulum_setup(1, 31, r=2)
        lift = LiftedMap(P)
        assert np.allclose(lift.rho, P.rho_section)

    def test_inverse_roundtrip(self):
        field, mesh, P = pendulum_setup(1, 31, r=2)
        lift = LiftedMap(P)
        rng = np.random.default_rng(2)
        x = np.array([np.pi, 0.0, np.pi, 0.0]) + 0.02 * rng.standard_normal((3, 4))
        theta = rng.random((3, 1))
        img = lift.images(x, theta)
        back = lift.images(img, (theta + lift.rho) % 1.0, inverse=True)
        assert np.abs(back - x).max() < 1e-11


class TestLiftedNewton:
    def test_converges(self, r2_solution):
        P, lift, sol = r2_solution
        assert sol.history[-1]["invariance"] <= 1e-10
        assert sol.history[-1]["reducibility"] <= 1e-10

    def test_per_section_invariance(self, r2_solution):
        # each section torus, block j of the lifted phi, satisfies
        # P_j(phi_j(theta), .) = phi_{j+1}(theta + rho/r)
        P, lift, sol = r2_solution
        mesh, n = sol.mesh, P.field.n
        values = sol.phi.values.reshape(mesh.M, P.r * n)
        shifted = sol.phi.shift(lift.rho).values.reshape(mesh.M, P.r * n)
        for j in range(1, P.r + 1):
            nxt = j % P.r
            x = values[:, (j - 1) * n : j * n, None]
            img = section_map(P, j, x, mesh.grid(), jets.REAL)[..., 0]
            target = shifted[:, nxt * n : (nxt + 1) * n]
            assert np.sqrt(((img - target) ** 2).sum(-1)).max() < 1e-11

    def test_block_structure_preserved(self, r2_solution):
        P, lift, sol = r2_solution
        assert off_block_norm(sol, P.r) < 1e-9


class TestSpectralConsistency:
    def test_relations(self, r2_solution, d1_torus):
        P, lift, sol = r2_solution
        _, _, single = d1_torus
        eig_err, comp_err = lift_spectral_errors(sol, single, P)
        assert eig_err < 1e-8
        assert comp_err < 1e-10
        assert off_block_norm(sol, P.r) < 1e-9

    def test_square_of_block_eigenvalue(self, r2_solution, d1_torus):
        P, lift, sol = r2_solution
        _, _, single = d1_torus
        mus = np.abs(np.linalg.eigvals(sol.B))
        lam_u = np.abs(single.eigenvalues()).max()
        assert abs(mus.max() ** 2 - lam_u) / lam_u < 1e-10


class TestLiftedManifold:
    def test_eigen_block_relation(self, r2_solution):
        # B_j v_j = mu v_{j+1}, with B_j the lifted block (j+1, j) and v_j
        # block j of the lifted eigenvector
        P, lift, sol = r2_solution
        mu, v = eigen_pick(sol.B, "unstable")
        n, r = P.field.n, P.r
        for j in range(1, r + 1):
            blk = slice((j - 1) * n, j * n)
            nxt = slice((j % r) * n, (j % r) * n + n)
            res = sol.B[nxt, blk] @ v[blk] - mu * v[nxt]
            assert np.linalg.norm(res) < 1e-10 * max(1.0, abs(mu))

    def test_per_section_order_errors(self, r2_solution):
        # the section expansions are the n-blocks of the lifted a_k, so the
        # lifted order errors bound every section's
        P, lift, sol = r2_solution
        exp = unstable_expansion(sol, lift, m=3)
        assert exp.n == P.r * P.field.n
        assert max(exp.order_errors) <= 1e-10
