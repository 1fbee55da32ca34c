import numpy as np
import pytest

from qptori import jets
from qptori.flowmap import advance_grid
from qptori.manifold import unstable_expansion
from qptori.multishoot import (
    LiftedMap,
    MultiTorus,
    lifted_seed,
    manifold_multishoot,
    spectral_consistency,
)
from qptori.torus import NewtonConfig, run_newton

from conftest import pendulum_setup


@pytest.fixture(scope="module")
def r2_solution(d1_torus):
    """d=1 pendulum torus recomputed with two shooting sections."""
    field, mesh, P = pendulum_setup(1, 31, r=2)
    lift = LiftedMap(P)
    seed = lifted_seed(lift, mesh, np.array([np.pi, 0.0]))
    sol = run_newton(lift, *seed, NewtonConfig())
    return P, lift, sol


class TestLift:
    def test_r1_lift_is_plain_map(self):
        # bitwise: with one section the lift is a single full-return sweep,
        # for images, differentials and series, forward and inverse
        field, mesh, P = pendulum_setup(1, 31, r=1)
        lift = LiftedMap(P)
        rng = np.random.default_rng(0)
        x = np.array([np.pi, 0.0]) + 0.05 * rng.standard_normal((4, 2))
        theta = rng.random((4, 1))
        tables = np.stack([x, 0.1 * rng.standard_normal((4, 2))])
        for inverse, fracs in ((False, (0.0, 1.0)), (True, (1.0, 0.0))):
            plain = advance_grid(P, x, theta, *fracs)
            assert np.array_equal(lift.images(x, theta, inverse=inverse), plain)

            seeds, spec = jets.seed_gradient(x)
            vals, jac = jets.split_gradient(advance_grid(P, seeds, theta, *fracs, spec))
            lift_vals, lift_jac = lift.images_and_jacobian(x, theta, inverse=inverse)
            assert np.array_equal(lift_vals, vals)
            assert np.array_equal(lift_jac, jac)

            seeds, spec = jets.seed_series(tables, 3)
            series = np.moveaxis(advance_grid(P, seeds, theta, *fracs, spec), -1, 0)
            assert np.array_equal(lift.transport_series(tables, theta, 3, inverse=inverse), series)
        assert np.array_equal(lift.rho, field.rho)

    def test_lifted_rotation(self):
        field, mesh, P = pendulum_setup(1, 31, r=2)
        lift = LiftedMap(P)
        assert np.allclose(lift.rho, P.rho_section)

    def test_cyclic_block_permutation(self):
        # block row j of the lifted image must hold section map j-1 applied
        # to block j-1 of the input (cyclically): checked by routing a
        # recognizable state through one section at a time
        field, mesh, P = pendulum_setup(1, 31, r=3)
        lift = LiftedMap(P)
        rng = np.random.default_rng(1)
        x = np.tile([np.pi, 0.0], 3) + 0.02 * rng.standard_normal((1, 6))
        theta = rng.random((1, 1))
        out = lift.images(x, theta)
        from qptori.flowmap import section_map

        for j in range(1, 4):
            src = slice((j - 1) * 2, j * 2)
            dst_j = j % 3 + 1
            dst = slice((dst_j - 1) * 2, dst_j * 2)
            expected = section_map(P, j, x[:, src], theta)
            assert np.abs(out[:, dst] - expected).max() < 1e-14

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
        # each section torus satisfies P_j(phi_j(theta), .) = phi_{j+1}(theta + rho/r)
        from qptori.flowmap import section_map

        P, lift, sol = r2_solution
        multi = MultiTorus.from_lifted(sol, P.r)
        mesh = sol.mesh
        thetas = mesh.grid()
        for j in range(1, P.r + 1):
            phi_j = multi.phis[j - 1]
            phi_next = multi.phis[j % P.r]
            img = section_map(P, j, phi_j.values.reshape(mesh.M, 2), thetas)
            target = phi_next.shift(lift.rho).values.reshape(mesh.M, 2)
            assert np.sqrt(((img - target) ** 2).sum(-1)).max() < 1e-11

    def test_block_structure_preserved(self, r2_solution):
        P, lift, sol = r2_solution
        multi = MultiTorus.from_lifted(sol, P.r)
        assert multi.off_block_norm() < 1e-9

    def test_section_matrices_assemble_lifted_B(self, r2_solution):
        P, lift, sol = r2_solution
        multi = MultiTorus.from_lifted(sol, P.r)
        n, r = 2, P.r
        rebuilt = np.zeros((n * r, n * r))
        for j in range(1, r + 1):
            blk = slice((j - 1) * n, j * n)
            dst = slice((j % r) * n, (j % r) * n + n)
            rebuilt[dst, blk] = multi.Bs[j - 1]
        off = sol.B - rebuilt
        assert np.abs(off).max() < 1e-9


class TestSpectralConsistency:
    def test_relations(self, r2_solution, d1_torus):
        P, lift, sol = r2_solution
        _, _, single = d1_torus
        multi = MultiTorus.from_lifted(sol, P.r)
        report = spectral_consistency(multi, single, P)
        assert report["eigenvalue_relation"] < 1e-8
        assert report["composition"] < 1e-10
        assert report["block_structure"] < 1e-9

    def test_square_of_block_eigenvalue(self, r2_solution, d1_torus):
        P, lift, sol = r2_solution
        _, _, single = d1_torus
        mus = np.abs(np.linalg.eigvals(sol.B))
        lam_u = np.abs(single.eigenvalues()).max()
        assert abs(mus.max() ** 2 - lam_u) / lam_u < 1e-10


class TestLiftedManifold:
    def test_r1_matches_single_shooting(self, d1_torus):
        P, qpmap, sol = d1_torus
        lift = LiftedMap(P)
        single = unstable_expansion(sol, qpmap, m=3)
        sections = manifold_multishoot(sol, lift, "unstable", m=3)
        assert len(sections) == 1
        for a, b in zip(sections[0].coeffs, single.coeffs):
            assert np.abs(a.values - b.values).max() < 1e-11

    def test_eigen_block_relation(self, r2_solution):
        # B_j v_j = mu v_{j+1} for the lifted eigenvector blocks
        from qptori.manifold import eigen_pick

        P, lift, sol = r2_solution
        multi = MultiTorus.from_lifted(sol, P.r)
        mu, v = eigen_pick(sol.B, "unstable")
        n, r = 2, P.r
        for j in range(1, r + 1):
            vj = v[(j - 1) * n : j * n]
            vnext = v[(j % r) * n : (j % r) * n + n]
            res = multi.Bs[j - 1] @ vj - mu * vnext
            assert np.linalg.norm(res) < 1e-10 * max(1.0, abs(mu))

    def test_per_section_order_errors(self, r2_solution):
        P, lift, sol = r2_solution
        sections = manifold_multishoot(sol, lift, "unstable", m=3)
        assert len(sections) == P.r
        for exp in sections:
            assert max(exp.order_errors) <= 1e-10
