"""Samplers for every random-state ensemble used in this package.

The base object is the Ginibre matrix (i.i.d. complex standard Gaussians).
Its Gram matrix is a Wishart matrix; trace-normalizing that gives the
induced random mixed state.  Mixing ensembles of order k are realized by
block concatenation: one m x (k*n) Ginibre draw, so the k = 1 case reduces
bit-for-bit to the plain induced sampler.  Direct Dirichlet and
Haar-isospectral samplers cover the marginal laws that have one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import linalg
from .errors import ParameterError
from .randkit import RngStream

TRACE_TOL = 1e-12


@dataclass(frozen=True)
class EnsembleSpec:
    """Ensemble parameters: system dim m, environment dim n, mixing order k."""

    m: int
    n: int
    k: int = 1

    def __post_init__(self):
        if self.m < 1:
            raise ParameterError(f"m must be >= 1, got {self.m}")
        if self.m > self.n:
            raise ParameterError(f"requires m <= n, got m={self.m}, n={self.n}")
        if self.k < 1:
            raise ParameterError(f"k must be >= 1, got {self.k}")

    @property
    def env_dim(self) -> int:
        """Effective environment dimension k*n of the block construction."""
        return self.k * self.n


class DensityMatrix:
    """A sampled mixed state, or a stack of them along leading axes:
    Hermitian, PSD, unit trace.

    The diagonal is cached at construction; the spectrum is computed on
    first access and cached (estimator loops touch one or both per draw).
    """

    __slots__ = ("matrix", "diagonal", "_spectrum")

    def __init__(self, matrix: np.ndarray):
        matrix = np.asarray(matrix, dtype=np.complex128)
        if matrix.ndim < 2 or matrix.shape[-1] != matrix.shape[-2]:
            raise ParameterError(f"density matrix must be square, got shape {matrix.shape}")
        if not np.isfinite(matrix).all():
            raise ParameterError("density matrix has non-finite entries")
        trace = np.trace(matrix, axis1=-2, axis2=-1).real
        off = np.abs(trace - 1.0) > TRACE_TOL
        if off.any():
            raise ParameterError(f"density matrix trace is {float(trace[off].flat[0])!r}, expected 1")
        self._set(linalg.hermitize(matrix))

    @classmethod
    def _from_gram(cls, w: np.ndarray) -> "DensityMatrix":
        """States w / tr(w) from Hermitian PSD matrices w (one or a stack).

        For samplers whose w is exactly Hermitian by construction (a Gram
        matrix), so the checks of the public constructor are skipped.
        """
        state = cls.__new__(cls)
        state._set(w)
        return state

    def _set(self, hermitian: np.ndarray) -> None:
        trace = np.trace(hermitian, axis1=-2, axis2=-1).real[..., None, None]
        # renormalize componentwise: real-by-real division is exact where
        # complex division picks up 1-ulp noise (visible at m = 1, where the
        # diagonal must be exactly 1)
        self.matrix = hermitian.real / trace + 1j * (hermitian.imag / trace)
        self.diagonal = np.diagonal(self.matrix, axis1=-2, axis2=-1).real.copy()
        self._spectrum = None

    @property
    def dim(self) -> int:
        return self.matrix.shape[-1]

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues, descending, clamped into [0, 1] and summing to 1."""
        if self._spectrum is None:
            vals = linalg.hermitian_eigenvalues(self.matrix)
            self._spectrum = linalg.clamp_spectrum(vals)
        return self._spectrum


def sample_ginibre(stream: RngStream, m: int, n: int, size: int | None = None) -> np.ndarray:
    """m x n matrix of i.i.d. complex standard Gaussians, drawn row-major.

    With size, a (size, m, n) stack drawn as one block: it consumes the
    stream exactly as size single draws do and holds the same matrices.
    """
    if m < 1 or n < 1:
        raise ParameterError(f"matrix dimensions must be >= 1, got {m} x {n}")
    shape = (m, n) if size is None else (size, m, n)
    return stream.complex_gaussians(math.prod(shape)).reshape(shape)


def sample_wishart(stream: RngStream, m: int, n: int) -> np.ndarray:
    """Wishart matrix W = Z Z-dagger of a fresh m x n Ginibre draw."""
    if m > n:
        raise ParameterError(f"requires m <= n, got m={m}, n={n}")
    return linalg.gram(sample_ginibre(stream, m, n))


def sample_induced_state(stream: RngStream, spec: EnsembleSpec) -> DensityMatrix:
    """Random mixed state of the induced measure: a Wishart draw normalized
    by its trace."""
    if spec.k != 1:
        raise ParameterError(f"induced states have k=1, got k={spec.k}; use sample_mixing_state")
    return sample_mixing_state(stream, spec)


def sample_mixing_state(stream: RngStream, spec: EnsembleSpec, size: int | None = None) -> DensityMatrix:
    """Random state of the order-k mixing ensemble.

    Drawn as the trace-normalized Gram matrix of one m x (k*n) Ginibre
    block; for k=1 this is exactly the induced sampler, same stream, same
    state.  With size, a DensityMatrix holding a (size, m, m) stack; a
    single state is the stack of one, so both give the same states.
    """
    w = linalg.gram(sample_ginibre(stream, spec.m, spec.env_dim, 1 if size is None else size))
    return DensityMatrix._from_gram(w[0] if size is None else w)


def sample_diag_dirichlet(stream: RngStream, spec: EnsembleSpec) -> np.ndarray:
    """Diagonal marginal of the order-k ensemble, sampled directly as a
    symmetric Dirichlet(k*n, ..., k*n) vector of length m."""
    return stream.sample_symmetric_dirichlet(spec.m, float(spec.env_dim))


def sample_isospectral_diagonal(stream: RngStream, lam: np.ndarray, size: int | None = None) -> np.ndarray:
    """Diagonal of U diag(lam) U-dagger for a fresh Haar unitary U; with
    size, a (size, m) stack of them for independent unitaries.  A single
    diagonal is the stack of one."""
    lam = np.asarray(lam, dtype=np.float64)
    u = linalg.haar_unitary(stream, lam.size, 1 if size is None else size)
    d = linalg.unitary_conjugate_diagonal(u, lam)
    return d[0] if size is None else d
