"""Truncated real Fourier series on the d-torus.

Conventions used throughout the package:

* Angles live on [0, 1): one unit is a full turn.  A series with mesh sizes
  ``N = (N_1, ..., N_d)`` (all odd) is sampled on the regular grid
  ``{kappa/N : 0 <= kappa_j < N_j}`` in row-major order.
* The forward transform is unnormalized, ``xhat_k = sum_theta x(theta)
  exp(-2 pi i <k, theta>)``, and the inverse carries the ``1/M`` factor with
  ``M = prod N_j``.  The grid values are therefore recovered exactly (to
  round-off) from the coefficients and vice versa.
* Because the series are real, only the half-space ``0 <= k_d <= (N_d-1)/2``
  is stored (the layout of a real-input FFT with the last angle halved); the
  missing coefficients follow from ``xhat_{-k} = conj(xhat_k)``.

Real cosine/sine amplitudes relate to the stored complex coefficients by
``a_c = 2 Re(xhat)/M`` and ``a_s = -2 Im(xhat)/M`` (half of that weight for
the constant term).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

_MAGIC = b"QPTFOUR\x00"
_VERSION = 1


@dataclass(frozen=True)
class MeshSpec:
    """Sizes of the Fourier grid, one odd integer per angle."""

    shape: tuple[int, ...]

    def __post_init__(self):
        shape = tuple(int(N) for N in self.shape)
        object.__setattr__(self, "shape", shape)
        if not shape:
            raise ValueError("mesh needs at least one angle")
        for N in shape:
            if N <= 0 or N % 2 == 0:
                raise ValueError(f"mesh sizes must be odd and positive, got {shape}")

    @property
    def d(self) -> int:
        return len(self.shape)

    @property
    def M(self) -> int:
        """Number of grid points."""
        return int(np.prod(self.shape))

    @property
    def cshape(self) -> tuple[int, ...]:
        """Shape of the packed complex-coefficient array (last axis halved)."""
        return self.shape[:-1] + (self.shape[-1] // 2 + 1,)

    @property
    def Mbar(self) -> int:
        """Number of stored complex coefficients."""
        return int(np.prod(self.cshape))

    def grid(self) -> np.ndarray:
        """All mesh angles, shape (M, d), row-major, in turns."""
        return _grid_angles(self.shape)

    def freqs(self) -> np.ndarray:
        """Signed frequency tuple of every stored coefficient, shape cshape + (d,)."""
        return _freq_grid(self.shape)

    def half_weights(self) -> np.ndarray:
        """Multiplicity of each stored coefficient in the full index set (1 or 2)."""
        w = np.ones(self.cshape)
        w[..., 1:] = 2.0
        return w


@lru_cache(maxsize=None)
def _grid_angles(shape: tuple[int, ...]) -> np.ndarray:
    axes = [np.arange(N) / N for N in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@lru_cache(maxsize=None)
def _freq_grid(shape: tuple[int, ...]) -> np.ndarray:
    axes = [np.rint(np.fft.fftfreq(N) * N).astype(np.int64) for N in shape[:-1]]
    axes.append(np.arange(shape[-1] // 2 + 1, dtype=np.int64))
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack(mesh, axis=-1)


def coeff_index_to_tuple(ell: int, mesh: MeshSpec) -> tuple[int, ...]:
    """Flat index into the packed coefficient array -> signed frequency tuple.

    Indices above half the mesh size fold to the negative frequency they
    alias, so the returned tuple can be used directly in rotation phases.
    """
    if not 0 <= ell < mesh.Mbar:
        raise IndexError(f"coefficient index {ell} out of range for mesh {mesh.shape}")
    out = []
    j = ell
    for i, N in enumerate(reversed(mesh.cshape)):
        k = j % N
        full = mesh.shape[mesh.d - 1 - i]
        if k > full // 2:
            k -= full
        out.append(k)
        j //= N
    return tuple(reversed(out))


def analyze(values: np.ndarray, d: int) -> np.ndarray:
    """Grid values -> packed complex coefficients.

    The first ``d`` axes of ``values`` are the angles; any trailing axes
    (vector components) ride along.
    """
    return np.fft.rfftn(values, axes=tuple(range(d)))


def synthesize(coeffs: np.ndarray, mesh: MeshSpec) -> np.ndarray:
    """Packed complex coefficients -> grid values (inverse of analyze)."""
    return np.fft.irfftn(coeffs, s=mesh.shape, axes=tuple(range(mesh.d)))


def shift_coeffs(coeffs: np.ndarray, mesh: MeshSpec, alpha) -> np.ndarray:
    """Coefficients of theta -> x(theta + alpha), alpha in turns."""
    alpha = np.asarray(alpha, dtype=float)
    phase = np.exp(2j * np.pi * (mesh.freqs() @ alpha))
    extra = coeffs.ndim - mesh.d
    return coeffs * phase.reshape(phase.shape + (1,) * extra)


class FourierField:
    """A vector-valued truncated real Fourier series on T^d.

    Immutable; either representation (grid values or packed coefficients) is
    computed on demand and cached.
    """

    def __init__(self, mesh: MeshSpec, n: int, *, values=None, coeffs=None):
        if values is None and coeffs is None:
            raise ValueError("need values or coeffs")
        self.mesh = mesh
        self.n = int(n)
        if values is not None:
            values = np.asarray(values, dtype=float)
            if values.shape != mesh.shape + (self.n,):
                raise ValueError(f"values shape {values.shape} != {mesh.shape + (self.n,)}")
        if coeffs is not None:
            coeffs = np.asarray(coeffs, dtype=complex)
            if coeffs.shape != mesh.cshape + (self.n,):
                raise ValueError(f"coeffs shape {coeffs.shape} != {mesh.cshape + (self.n,)}")
        self._values = values
        self._coeffs = coeffs

    @classmethod
    def from_values(cls, mesh: MeshSpec, values) -> "FourierField":
        values = np.asarray(values, dtype=float)
        return cls(mesh, values.shape[-1], values=values)

    @classmethod
    def from_coeffs(cls, mesh: MeshSpec, coeffs) -> "FourierField":
        coeffs = np.asarray(coeffs, dtype=complex)
        return cls(mesh, coeffs.shape[-1], coeffs=coeffs)

    @classmethod
    def from_function(cls, mesh: MeshSpec, fn, n: int) -> "FourierField":
        """Sample ``fn(theta) -> R^n`` (theta in turns, shape (..., d)) on the mesh."""
        vals = np.asarray(fn(mesh.grid()), dtype=float).reshape(mesh.shape + (n,))
        return cls(mesh, n, values=vals)

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self._values = synthesize(self._coeffs, self.mesh)
        return self._values

    @property
    def coeffs(self) -> np.ndarray:
        if self._coeffs is None:
            self._coeffs = analyze(self._values, self.mesh.d)
        return self._coeffs

    def shift(self, alpha) -> "FourierField":
        """The field theta -> x(theta + alpha), alpha in turns."""
        return FourierField(self.mesh, self.n, coeffs=shift_coeffs(self.coeffs, self.mesh, alpha))

    def average(self) -> np.ndarray:
        dc = self.coeffs[(0,) * self.mesh.d]
        return dc.real / self.mesh.M

    def evaluate(self, theta) -> np.ndarray:
        """Evaluate the trigonometric polynomial at arbitrary angles (turns)."""
        theta = np.asarray(theta, dtype=float)
        single = theta.ndim == 1
        theta = np.atleast_2d(theta)
        freqs = self.mesh.freqs().reshape(-1, self.mesh.d)
        w = self.mesh.half_weights().ravel()
        phase = np.exp(2j * np.pi * theta @ freqs.T)  # (npts, Mbar)
        flat = self.coeffs.reshape(-1, self.n)
        out = (phase * w) @ flat
        out = out.real / self.mesh.M
        return out[0] if single else out

    def mode_norms(self) -> np.ndarray:
        """Euclidean size of the real (cos, sin) amplitude pair per stored kappa.

        Shape cshape; the n components are folded into the norm.
        """
        amp = 2.0 * np.abs(self.coeffs) / self.mesh.M
        dc = (0,) * self.mesh.d
        amp[dc] /= 2.0
        return np.sqrt((amp**2).sum(axis=-1))

    def tail_norms(self) -> np.ndarray:
        """Per-angle tail size: max amplitude with |kappa_j| in the top two indices."""
        norms = self.mode_norms()
        freqs = self.mesh.freqs()
        out = np.empty(self.mesh.d)
        for j, N in enumerate(self.mesh.shape):
            nbar = (N - 1) // 2
            mask = np.abs(freqs[..., j]) >= nbar - 1
            out[j] = norms[mask].max() if mask.any() else 0.0
        return out

    # -- persistence ----------------------------------------------------

    def save(self, path) -> None:
        """Binary format: magic, version, d, n, N_1..N_d as little-endian
        int64, then the packed coefficients as float64 pairs (Re, Im) in
        row-major order with components contiguous."""
        with open(path, "wb") as fh:
            fh.write(_MAGIC)
            header = [_VERSION, self.mesh.d, self.n, *self.mesh.shape]
            fh.write(struct.pack(f"<{len(header)}q", *header))
            flat = np.ascontiguousarray(self.coeffs, dtype="<c16")
            fh.write(flat.tobytes())

    @classmethod
    def load(cls, path) -> "FourierField":
        with open(path, "rb") as fh:
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise IOError(f"{path}: not a coefficient file")
            try:
                version, d, n = struct.unpack("<3q", fh.read(24))
                if version != _VERSION:
                    raise IOError(f"{path}: unsupported version {version}")
                shape = struct.unpack(f"<{d}q", fh.read(8 * d))
            except struct.error as exc:
                raise ValueError(f"{path}: truncated header") from exc
            mesh = MeshSpec(tuple(shape))
            raw = np.frombuffer(fh.read(), dtype="<c16")
        coeffs = raw.reshape(mesh.cshape + (n,)).astype(complex)
        return cls(mesh, n, coeffs=coeffs)


class FourierMatrix:
    """An n x n matrix of scalar Fourier series on one shared mesh.

    Stored as grid values of shape mesh.shape + (n, n).
    """

    def __init__(self, mesh: MeshSpec, values: np.ndarray):
        values = np.asarray(values, dtype=float)
        n = values.shape[-1]
        if values.shape != mesh.shape + (n, n):
            raise ValueError(f"matrix values shape {values.shape} incompatible with {mesh.shape}")
        self.mesh = mesh
        self.n = n
        self.values = values

    @classmethod
    def identity(cls, mesh: MeshSpec, n: int) -> "FourierMatrix":
        vals = np.broadcast_to(np.eye(n), mesh.shape + (n, n)).copy()
        return cls(mesh, vals)

    def as_field(self) -> FourierField:
        return FourierField.from_values(self.mesh, self.values.reshape(self.mesh.shape + (self.n**2,)))

    @classmethod
    def from_field(cls, field: FourierField, n: int) -> "FourierMatrix":
        return cls(field.mesh, field.values.reshape(field.mesh.shape + (n, n)))

    def shift(self, alpha) -> "FourierMatrix":
        return FourierMatrix.from_field(self.as_field().shift(alpha), self.n)

    def inv(self) -> "FourierMatrix":
        return FourierMatrix(self.mesh, np.linalg.inv(self.values))

    def matvec(self, vec: np.ndarray) -> np.ndarray:
        """Pointwise matrix-vector product on the grid, vec shape mesh + (n,)."""
        return np.einsum("...ij,...j->...i", self.values, vec)
