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

Off-grid values factor by angle: ``evaluate_coeffs`` contracts the packed
coefficients one axis at a time with the 1-D phase vectors
``exp(2 pi i kappa_j theta_j)``, the stored half-axis counted twice for
``kappa_d > 0``.  A value costs O(Mbar n) multiply-adds and no Mbar-sized
exponential, with ``Mbar = prod(cshape)``; axes on which all requested angles
agree are contracted once for all of them, so a line of angles costs
O(N_axis) per angle once its fixed axes are done.
"""

from __future__ import annotations

import math
import os
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

    def grid(self) -> np.ndarray:
        """All mesh angles, shape (M, d), row-major, in turns."""
        return _grid_angles(self.shape)

    def freqs(self) -> np.ndarray:
        """Signed frequency tuple of every stored coefficient, shape cshape + (d,)."""
        return _freq_grid(self.shape)


@lru_cache(maxsize=None)
def _grid_angles(shape: tuple[int, ...]) -> np.ndarray:
    axes = [np.arange(N) / N for N in shape]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


@lru_cache(maxsize=None)
def _axis_freqs(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The signed frequencies stored along each axis, in storage order."""
    axes = [np.rint(np.fft.fftfreq(N) * N).astype(np.int64) for N in shape[:-1]]
    axes.append(np.arange(shape[-1] // 2 + 1, dtype=np.int64))
    return tuple(axes)


@lru_cache(maxsize=None)
def _freq_grid(shape: tuple[int, ...]) -> np.ndarray:
    mesh = np.meshgrid(*_axis_freqs(shape), indexing="ij")
    return np.stack(mesh, axis=-1)


def analyze(values: np.ndarray, d: int) -> np.ndarray:
    """Grid values -> packed complex coefficients.

    The first ``d`` axes of ``values`` are the angles; any trailing axes
    (vector components) ride along.
    """
    return np.fft.rfftn(values, axes=tuple(range(d)))


def synthesize(coeffs: np.ndarray, mesh: MeshSpec) -> np.ndarray:
    """Packed complex coefficients -> grid values (inverse of analyze)."""
    return np.fft.irfftn(coeffs, s=mesh.shape, axes=tuple(range(mesh.d)))


def mode_phases(mesh: MeshSpec, alpha) -> np.ndarray:
    """exp(2 pi i <kappa, alpha>) for every stored mode kappa, shape cshape:
    the factor by which a shift by alpha (turns) multiplies each coefficient.
    The few shifts a run makes (its rotation, above all) are cached, read-only."""
    return _mode_phases(mesh, tuple(np.asarray(alpha, dtype=float).tolist()))


@lru_cache(maxsize=4)
def _mode_phases(mesh: MeshSpec, alpha: tuple) -> np.ndarray:
    phases = np.exp(2j * np.pi * (mesh.freqs() @ np.array(alpha)))
    phases.flags.writeable = False
    return phases


def _contract(work: np.ndarray, phases: np.ndarray) -> np.ndarray:
    """Sum axis 1 of ``work`` (P or 1, K, ...) against ``phases`` (P or 1, K).

    Elementwise multiply-adds in a fixed k order: a point's sum is the same
    to the bit whether it is contracted alone, shared, or in a block.
    """
    ph = phases.reshape(phases.shape + (1,) * (work.ndim - 2))
    acc = ph[:, 0] * work[:, 0]
    for k in range(1, work.shape[1]):
        acc += ph[:, k] * work[:, k]
    return acc


def evaluate_coeffs(coeffs: np.ndarray, mesh: MeshSpec, theta) -> np.ndarray:
    """Values at arbitrary angles (turns) of the series with packed coefficients.

    ``theta`` has shape (..., d) and the result ``theta.shape[:-1] +
    coeffs.shape[d:]``: any trailing coefficient axes ride along.  The axes
    on which every angle agrees are contracted first, once for all angles,
    then the others, each in axis order; the angles go through those in
    blocks of the first such axis's length, so no block holds more partial
    sums than there are coefficients.  A value is therefore bitwise the same
    in every call that contracts its axes in the same order: one angle
    alone, or a line along the last axis, for example.
    """
    d = mesh.d
    theta = np.asarray(theta, dtype=float)
    flat = theta.reshape(-1, d)
    agree = [bool((flat[:, j] == flat[:1, j]).all()) for j in range(d)]
    order = [j for j in range(d) if agree[j]] + [j for j in range(d) if not agree[j]]
    phases = []
    for j, f in enumerate(_axis_freqs(mesh.shape)):
        ph = np.exp((2j * np.pi) * np.multiply.outer(flat[:1, j] if agree[j] else flat[:, j], f))
        if j == d - 1:
            ph[:, 1:] *= 2.0  # kappa_d > 0 stands for kappa and -kappa
        phases.append(ph)
    work = np.moveaxis(coeffs, order, range(d))[None]
    fixed = agree.count(True)
    for j in order[:fixed]:
        work = _contract(work, phases[j])
    if fixed < d:
        step = work.shape[1]
        blocks = []
        for start in range(0, flat.shape[0], step):
            part = work
            for j in order[fixed:]:
                part = _contract(part, phases[j][start : start + step])
            blocks.append(part)
        work = np.concatenate(blocks)
    return (work.real / mesh.M).reshape(theta.shape[:-1] + coeffs.shape[d:])


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
        phase = mode_phases(self.mesh, alpha)[..., None]
        return FourierField(self.mesh, self.n, coeffs=self.coeffs * phase)

    def evaluate(self, theta) -> np.ndarray:
        """Values at angles theta (turns), shape (d,) or (npts, d): (n,) or (npts, n)."""
        return evaluate_coeffs(self.coeffs, self.mesh, theta)

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
        """Read a file written by ``save``.  The header's d and n are checked
        against the file's length before anything of that size is read, so a
        corrupt header raises ValueError instead of a huge allocation; a
        non-finite coefficient raises ValueError too."""
        with open(path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            magic = fh.read(len(_MAGIC))
            if magic != _MAGIC:
                raise IOError(f"{path}: not a coefficient file")
            try:
                version, d, n = struct.unpack("<3q", fh.read(24))
                if version != _VERSION:
                    raise IOError(f"{path}: unsupported version {version}")
                if d < 1 or n < 1 or 8 * d > size - fh.tell():
                    raise ValueError(f"{path}: header gives d={d}, n={n} for {size} bytes")
                shape = struct.unpack(f"<{d}q", fh.read(8 * d))
            except struct.error as exc:
                raise ValueError(f"{path}: truncated header") from exc
            mesh = MeshSpec(tuple(shape))
            payload = size - fh.tell()
            if payload != 16 * n * math.prod(mesh.cshape):
                raise ValueError(
                    f"{path}: {payload} coefficient bytes do not fit mesh {mesh.shape}, n={n}"
                )
            raw = np.frombuffer(fh.read(), dtype="<c16")
        if not np.isfinite(raw).all():
            raise ValueError(f"{path}: non-finite coefficients")
        coeffs = raw.reshape(mesh.cshape + (n,)).astype(complex)
        return cls(mesh, n, coeffs=coeffs)


def shift_grid(values: np.ndarray, mesh: MeshSpec, alpha) -> np.ndarray:
    """Grid values of theta -> x(theta + alpha), alpha in turns, for grid
    values of shape mesh.shape + any trailing shape (an n x n matrix, say)."""
    field = FourierField.from_values(mesh, values.reshape(mesh.shape + (-1,)))
    return field.shift(alpha).values.reshape(values.shape)


def reflect_grid(values: np.ndarray, mesh: MeshSpec) -> np.ndarray:
    """Grid values of theta -> x(-theta), for grid values of shape
    mesh.shape + any trailing shape.  The grid maps onto itself under
    theta -> -theta (mod 1), kappa_j -> -kappa_j mod N_j on every angle, so
    this is an index permutation: exact, and no transform."""
    return values[_reflection_index(mesh.shape)]


@lru_cache(maxsize=None)
def _reflection_index(shape: tuple[int, ...]) -> tuple[np.ndarray, ...]:
    """The open-mesh index of reflect_grid: kappa_j -> -kappa_j mod N_j on every angle."""
    return np.ix_(*[-np.arange(N) % N for N in shape])
