import tracemalloc

import numpy as np
import pytest

from qptori.fourier import (
    FourierField,
    MeshSpec,
    analyze,
    shift_grid,
    synthesize,
)


class TestMeshSpec:
    def test_counts(self):
        mesh = MeshSpec((3, 5))
        assert mesh.d == 2
        assert mesh.M == 15
        stored = np.prod(mesh.cshape)
        assert stored == 3 * 3
        assert stored < mesh.M
        assert 2 * stored >= mesh.M

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
        f = FourierField.from_values(mesh, grid.reshape(mesh.shape + (2,)))
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
    """Flat index ell of the packed coefficients reads its signed frequency
    from ``MeshSpec.freqs()`` (the resonance reports rely on this)."""

    @staticmethod
    def kappa(mesh, ell):
        return tuple(int(k) for k in mesh.freqs().reshape(-1, mesh.d)[ell])

    def test_dc(self):
        assert self.kappa(MeshSpec((5, 5)), 0) == (0, 0)

    def test_fold_negative(self):
        # index 4 on a size-5 axis folds to the signed frequency -1; only the
        # non-final axes store folded indices (the last axis is halved)
        mesh = MeshSpec((5, 5))
        ell = 4 * mesh.cshape[-1]  # tuple (4, 0) in the packed layout
        assert self.kappa(mesh, ell) == (-1, 0)

    def test_no_fold(self):
        assert self.kappa(MeshSpec((5,)), 2) == (2,)
        mesh = MeshSpec((5, 5))
        assert self.kappa(mesh, 2 * mesh.cshape[-1]) == (2, 0)

    def test_matches_freqs(self):
        # cos + 0.5 sin of 2 pi <kappa, theta> puts M (1 - 0.5i) / 2 at the
        # slot of kappa and the conjugate at -kappa, so a sign slip shows
        mesh = MeshSpec((5, 7))
        theta = mesh.grid()
        for ell in range(1, np.prod(mesh.cshape)):
            x = 2 * np.pi * theta @ np.array(self.kappa(mesh, ell))
            vals = (np.cos(x) + 0.5 * np.sin(x)).reshape(mesh.shape)
            coeff = analyze(vals, mesh.d).reshape(-1)[ell]
            assert abs(coeff - mesh.M * (1 - 0.5j) / 2) < 1e-12


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
        assert np.allclose(f.coeffs[0, 0].real / mesh.M, [1.5, 1.5])
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

    @staticmethod
    def _direct_sum(f, theta):
        """Off-grid values as one phase matrix over all stored modes."""
        theta = np.atleast_2d(theta)
        freqs = f.mesh.freqs().reshape(-1, f.mesh.d)
        w = np.ones(f.mesh.cshape)
        w[..., 1:] = 2.0
        phase = np.exp(2j * np.pi * theta @ freqs.T)  # (npts, prod(cshape))
        return ((phase * w.ravel()) @ f.coeffs.reshape(-1, f.n)).real / f.mesh.M

    @pytest.mark.parametrize(
        "shape", [(7,), (1,), (5, 1), (1, 9), (3, 1, 5), (5, 3, 7), (3, 5, 1, 3), (5, 3, 3, 5)]
    )
    @pytest.mark.parametrize("n", [1, 3])
    def test_matches_direct_sum(self, shape, n):
        mesh = MeshSpec(shape)
        rng = np.random.default_rng(sum(shape) + n)
        f = FourierField.from_values(mesh, rng.standard_normal(shape + (n,)))
        theta = rng.uniform(-0.5, 1.5, (23, mesh.d))
        vals = f.evaluate(theta)
        assert vals.shape == (23, n)
        assert np.abs(vals - self._direct_sum(f, theta)).max() < 1e-13
        assert np.abs(f.evaluate(theta[4]) - vals[4]).max() < 1e-13
        grid = f.evaluate(mesh.grid())
        assert np.abs(grid - f.values.reshape(mesh.M, n)).max() < 1e-13

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_line_equals_pointwise(self, axis):
        # a line of angles contracts its fixed axes once for all angles; a
        # line along the last axis keeps the pointwise axis order, bitwise
        mesh = MeshSpec((5, 7, 9))
        f = FourierField.from_values(
            mesh, np.random.default_rng(6).standard_normal(mesh.shape + (2,))
        )
        line = np.tile([0.37, 0.81, 0.13], (33, 1))
        line[:, axis] = np.linspace(0.0, 1.0, 33, endpoint=False)
        vals = f.evaluate(line)
        points = np.array([f.evaluate(theta) for theta in line])
        if axis == mesh.d - 1:
            assert np.array_equal(vals, points)
        assert np.abs(vals - points).max() < 1e-14
        assert np.abs(vals - self._direct_sum(f, line)).max() < 1e-13

    def test_memory_is_coefficient_sized(self):
        # no (npts x prod(cshape)) phase matrix, which would take 24 times
        # the coefficients here: two coefficient-sized partial sums and
        # numpy's fixed-size ufunc buffers
        mesh = MeshSpec((15, 15, 15))
        f = FourierField.from_values(
            mesh, np.random.default_rng(10).standard_normal(mesh.shape + (3,))
        )
        theta = np.random.default_rng(11).uniform(0.0, 1.0, (33, 3))
        f.evaluate(theta)  # caches the frequency tables
        tracemalloc.start()
        try:
            f.evaluate(theta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * f.coeffs.nbytes

    def test_tail_decays_with_mesh(self):
        def fn(theta):
            return 1.0 / (2.0 + np.cos(2 * np.pi * theta[..., :1]))

        coarse, fine = (
            FourierField.from_values(mesh, fn(mesh.grid()).reshape(mesh.shape + (1,)))
            for mesh in (MeshSpec((15,)), MeshSpec((31,)))
        )
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


class TestShiftGrid:
    def test_shift_roundtrip(self):
        mesh = MeshSpec((7,))
        A = np.random.default_rng(9).standard_normal(mesh.shape + (2, 2))
        back = shift_grid(shift_grid(A, mesh, [0.4]), mesh, [-0.4])
        assert back.shape == A.shape
        assert np.abs(back - A).max() < 1e-13

    def test_vector_values_match_field_shift(self):
        mesh = MeshSpec((5, 7))
        f = FourierField.from_values(
            mesh, np.random.default_rng(10).standard_normal(mesh.shape + (3,))
        )
        alpha = [0.3, 0.81]
        assert np.array_equal(shift_grid(f.values, mesh, alpha), f.shift(alpha).values)
