import numpy as np
import pytest

from qptori.fourier import (
    FourierField,
    FourierMatrix,
    MeshSpec,
    analyze,
    coeff_index_to_tuple,
    synthesize,
)


class TestMeshSpec:
    def test_counts(self):
        mesh = MeshSpec((3, 5))
        assert mesh.d == 2
        assert mesh.M == 15
        assert mesh.Mbar == 3 * 3
        assert mesh.Mbar < mesh.M
        assert 2 * mesh.Mbar >= mesh.M

    def test_even_size_rejected(self):
        with pytest.raises(ValueError):
            MeshSpec((4,))
        with pytest.raises(ValueError):
            MeshSpec((3, 0))

    def test_grid_points(self):
        mesh = MeshSpec((3,))
        assert np.allclose(mesh.grid()[:, 0], [0.0, 1 / 3, 2 / 3])


class TestGridIndex:
    """Flat grid index ell of ``MeshSpec.grid()`` is the row-major kappa."""

    def test_zero(self):
        assert tuple(MeshSpec((3, 5)).grid()[0]) == (0.0, 0.0)

    def test_row_major(self):
        mesh = MeshSpec((3, 5))
        grid = mesh.grid()
        assert tuple(grid[7]) == (1 / 3, 2 / 5)
        assert tuple(grid[14]) == (2 / 3, 4 / 5)
        # grid values reshape to mesh.shape with kappa as the leading index
        f = FourierField.from_function(mesh, lambda th: th, 2)
        assert tuple(f.values[1, 2]) == (1 / 3, 2 / 5)

    def test_bijection(self):
        mesh = MeshSpec((3, 5, 7))
        kappas = np.rint(mesh.grid() * np.array(mesh.shape)).astype(int)
        seen = {tuple(k) for k in kappas}
        assert len(seen) == mesh.M
        assert all(all(0 <= k < N for k, N in zip(t, mesh.shape)) for t in seen)

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            MeshSpec((3, 5)).grid()[15]


class TestCoeffIndex:
    def test_dc(self):
        assert coeff_index_to_tuple(0, MeshSpec((5, 5))) == (0, 0)

    def test_fold_negative(self):
        # index 4 on a size-5 axis folds to the signed frequency -1; only the
        # non-final axes store folded indices (the last axis is halved)
        mesh = MeshSpec((5, 5))
        ell = 4 * mesh.cshape[-1]  # tuple (4, 0) in the packed layout
        assert coeff_index_to_tuple(ell, mesh) == (-1, 0)

    def test_no_fold(self):
        assert coeff_index_to_tuple(2, MeshSpec((5,))) == (2,)
        mesh = MeshSpec((5, 5))
        assert coeff_index_to_tuple(2 * mesh.cshape[-1], mesh) == (2, 0)

    def test_matches_freqs(self):
        mesh = MeshSpec((5, 7))
        freqs = mesh.freqs().reshape(-1, 2)
        for ell in range(mesh.Mbar):
            assert coeff_index_to_tuple(ell, mesh) == tuple(freqs[ell])

    def test_out_of_range(self):
        with pytest.raises(IndexError):
            coeff_index_to_tuple(MeshSpec((5,)).Mbar, MeshSpec((5,)))


class TestTransforms:
    def test_constant(self):
        mesh = MeshSpec((5, 7))
        vals = np.full(mesh.shape + (1,), 3.25)
        coeffs = analyze(vals, 2)
        assert np.isclose(coeffs[0, 0, 0].real, 3.25 * mesh.M)
        coeffs[0, 0, 0] = 0.0
        assert np.abs(coeffs).max() < 1e-12

    def test_pure_cosine_mode(self):
        mesh = MeshSpec((5,))
        theta = mesh.grid()[:, 0]
        f = FourierField.from_values(mesh, np.cos(2 * np.pi * theta)[:, None])
        amp = f.coeffs / mesh.M  # complex amplitude of exp(+2 pi i theta)
        assert np.isclose(amp[1, 0], 0.5)
        amp[1, 0] = 0.0
        assert np.abs(amp).max() < 1e-14

    @pytest.mark.parametrize("shape", [(31,), (5, 7), (3, 5, 7), (3, 3, 5, 5)])
    def test_roundtrip(self, shape):
        mesh = MeshSpec(shape)
        rng = np.random.default_rng(0)
        vals = rng.standard_normal(mesh.shape + (3,))
        back = synthesize(analyze(vals, mesh.d), mesh)
        assert np.abs(back - vals).max() <= 1e-13 * max(1.0, np.abs(vals).max())


class TestShift:
    def test_zero_is_identity(self):
        mesh = MeshSpec((7, 9))
        f = FourierField.from_values(
            mesh, np.random.default_rng(1).standard_normal(mesh.shape + (2,))
        )
        assert np.allclose(f.shift(np.zeros(2)).values, f.values, atol=1e-14)

    def test_cosine_angle_addition(self):
        mesh = MeshSpec((31,))
        theta = mesh.grid()[:, 0]
        f = FourierField.from_values(mesh, np.cos(2 * np.pi * theta)[:, None])
        alpha = 0.37
        expected = np.cos(2 * np.pi * alpha) * np.cos(2 * np.pi * theta) - np.sin(
            2 * np.pi * alpha
        ) * np.sin(2 * np.pi * theta)
        assert np.abs(f.shift([alpha]).values[:, 0] - expected).max() < 1e-14

    def test_inverse_shift(self):
        mesh = MeshSpec((5, 9))
        f = FourierField.from_values(
            mesh, np.random.default_rng(2).standard_normal(mesh.shape + (2,))
        )
        back = f.shift([0.3, 0.81]).shift([-0.3, -0.81])
        assert np.abs(back.values - f.values).max() < 1e-13

    def test_homomorphism(self):
        mesh = MeshSpec((7, 5))
        f = FourierField.from_values(
            mesh, np.random.default_rng(3).standard_normal(mesh.shape + (1,))
        )
        a, b = np.array([0.12, 0.7]), np.array([0.55, 0.31])
        lhs = f.shift(a + b).values
        rhs = f.shift(a).shift(b).values
        assert np.abs(lhs - rhs).max() < 1e-13


class TestEvaluate:
    def test_constant(self):
        mesh = MeshSpec((5, 5))
        f = FourierField.from_values(mesh, np.full(mesh.shape + (2,), 1.5))
        assert np.allclose(f.average(), [1.5, 1.5])
        assert np.allclose(f.evaluate(np.array([0.21, 0.83])), [1.5, 1.5])
        assert f.tail_norms().max() == pytest.approx(0.0, abs=1e-14)

    def test_cosine_at_third_of_pi(self):
        mesh = MeshSpec((31,))
        theta = mesh.grid()[:, 0]
        f = FourierField.from_values(mesh, np.cos(2 * np.pi * theta)[:, None])
        # theta = pi/3 rad is 1/6 of a turn; cos(pi/3) = 0.5
        assert f.evaluate(np.array([1.0 / 6.0]))[0] == pytest.approx(0.5, abs=1e-14)

    def test_matches_grid_values(self):
        mesh = MeshSpec((5, 7))
        f = FourierField.from_values(
            mesh, np.random.default_rng(4).standard_normal(mesh.shape + (2,))
        )
        vals = f.evaluate(mesh.grid())
        assert np.abs(vals - f.values.reshape(mesh.M, 2)).max() < 1e-13

    def test_tail_decays_with_mesh(self):
        def fn(theta):
            return 1.0 / (2.0 + np.cos(2 * np.pi * theta[..., :1]))

        coarse = FourierField.from_function(MeshSpec((15,)), fn, 1)
        fine = FourierField.from_function(MeshSpec((31,)), fn, 1)
        assert fine.tail_norms().max() < 1e-3 * coarse.tail_norms().max()


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        mesh = MeshSpec((5, 7))
        f = FourierField.from_values(
            mesh, np.random.default_rng(5).standard_normal(mesh.shape + (3,))
        )
        path = tmp_path / "field.bin"
        f.save(path)
        g = FourierField.load(path)
        assert g.mesh.shape == mesh.shape
        assert g.n == 3
        assert np.abs(g.values - f.values).max() < 1e-15

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "junk.bin"
        path.write_bytes(b"not a coefficient file at all")
        with pytest.raises(IOError):
            FourierField.load(path)


class TestFourierMatrix:
    def test_identity_matvec(self):
        mesh = MeshSpec((5,))
        eye = FourierMatrix.identity(mesh, 2)
        vec = np.random.default_rng(7).standard_normal(mesh.shape + (2,))
        assert np.allclose(eye.matvec(vec), vec)

    def test_inv(self):
        mesh = MeshSpec((5, 5))
        rng = np.random.default_rng(8)
        vals = np.broadcast_to(np.eye(2), mesh.shape + (2, 2)) + 0.2 * rng.standard_normal(
            mesh.shape + (2, 2)
        )
        A = FourierMatrix(mesh, vals)
        prod = A.values @ A.inv().values
        assert np.abs(prod - np.eye(2)).max() < 1e-12

    def test_shift_roundtrip(self):
        mesh = MeshSpec((7,))
        rng = np.random.default_rng(9)
        A = FourierMatrix(mesh, rng.standard_normal(mesh.shape + (2, 2)))
        back = A.shift([0.4]).shift([-0.4])
        assert np.abs(back.values - A.values).max() < 1e-13
