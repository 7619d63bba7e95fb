"""Samplers for every random-state ensemble used in this package.

The base object is the Ginibre matrix (i.i.d. complex standard Gaussians).
Its Gram matrix is a Wishart matrix; trace-normalizing that gives the
induced random mixed state.  Mixing ensembles of order k are realized by
block concatenation: one m x (k*n) Ginibre block, so one sampler,
sample_mixing_state, covers both, and k = 1 is the induced measure.  It
draws the Wishart matrix from its m x m complex Bartlett factor, and
sample_mixing_spectrum draws the spectra of the same states from the
Laguerre bidiagonal model, both at a cost that does not grow with k*n;
every sampled DensityMatrix is read off its factor's variates
(DensityMatrix._from_bartlett) and keeps the Wishart diagonal that mc's KS
checks test (wishart_diagonal); any other is built from a matrix that its
constructor checks once.  At m = 2 neither sampler forms a stack of
matrices: a state is read off its factor's three variates and a spectrum
off its tridiagonal's three entries, elementwise, with the arithmetic of
the matrix routes.
sample_ginibre and sample_wishart keep the Ginibre block itself,
the reference construction the tests compare those routes against;
nothing in mc draws it.  Direct Dirichlet and Haar-isospectral samplers
cover the marginal laws that have one.  The isospectral sampler reads the
diagonal of U diag(lam) U^dagger off the m - 1 Gram-Schmidt columns of a
Ginibre block, at m(m-1) complex Gaussians per draw, with no QR and no
full unitary; linalg.haar_unitary and linalg.unitary_conjugate_diagonal
stay the reference construction the tests compare it against.

Every sampler draws a stack of size draws along a leading axis, and size
is required: one draw is the stack of one.
"""

from __future__ import annotations

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
        # a float would slip through the range tests and on into the Gamma
        # shapes and array sizes, and a bool would pass as 0 or 1
        for name in ("m", "n", "k"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ParameterError(f"{name} must be an integer, got {value!r}")
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
    Hermitian, PSD, unit trace.  The constructor refuses a matrix that is
    not Hermitian within linalg.HERMITIAN_TOL and averages the rest of the
    asymmetry, which is rounding noise, away; the spectrum of the exactly
    Hermitian result is then solved without checking it again.

    sample_mixing_state reads its states straight off their Bartlett factor
    L (_from_bartlett): wishart_diagonal is the diagonal of W = L L^dagger
    (None for a state built from a matrix), the diagonal is it over its
    sum, the spectrum is that of W over the same trace, and the matrix is
    formed only when it is read, with exactly that diagonal.  At m = 2 not
    even L is stacked: the three entries of W that the closed-form
    eigenvalues read are formed from L's three variates, elementwise.
    Estimators read the diagonal, the spectrum or both, never the matrix.

    The diagonal is set at construction; the spectrum and the matrix are
    computed on first access and cached.
    """

    __slots__ = ("diagonal", "wishart_diagonal", "_matrix", "_spectrum", "_factor", "_variates")

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
        # a non-Hermitian input is refused, not averaged into another state;
        # only rounding noise is averaged away
        linalg.check_hermitian(matrix)
        hermitian = linalg.hermitize(matrix)
        self._matrix = _normalized(hermitian, np.trace(hermitian, axis1=-2, axis2=-1).real[..., None])
        self.diagonal = np.diagonal(self._matrix, axis1=-2, axis2=-1).real.copy()
        self.wishart_diagonal = self._factor = self._variates = self._spectrum = None

    @classmethod
    def _from_bartlett(cls, root: np.ndarray, z: np.ndarray) -> "DensityMatrix":
        """States L L^dagger / tr(L L^dagger) of the Bartlett factors L with
        diagonals root (..., m) and strict lower triangles z (..., m(m-1)/2),
        row-major (_bartlett_variates).  At m = 2 the diagonal of
        W = L L^dagger is formed elementwise, W_ii = root_i^2 plus |z_0|^2
        in row 1: one addition, which commutes, so these are the bits
        _row_norms gives on L.  The variates are kept for the closed-form
        spectrum, and L is built only when the matrix is read.  From m = 3
        on (and at m = 1) L is formed once and W_ii = sum_j |L_ij|^2 read
        off it."""
        state = cls.__new__(cls)
        state._factor = state._variates = state._matrix = state._spectrum = None
        if root.shape[-1] == 2:
            state.wishart_diagonal = root**2
            state.wishart_diagonal[..., 1] += z[..., 0].real ** 2 + z[..., 0].imag ** 2
            state._variates = (root, z)
        else:
            state._factor = _lower_factor(root, z)
            state.wishart_diagonal = _row_norms(state._factor)
        state.diagonal = state.wishart_diagonal / linalg.row_sum(state.wishart_diagonal, keepdims=True)
        return state

    @property
    def dim(self) -> int:
        return self.diagonal.shape[-1]

    @property
    def matrix(self) -> np.ndarray:
        """The density matrix (complex, exactly Hermitian), or the stack."""
        if self._matrix is None:
            if self._factor is None:
                self._factor = _lower_factor(*self._variates)
            matrix = _normalized(linalg.gram(self._factor), linalg.row_sum(self.wishart_diagonal, keepdims=True))
            diag = np.arange(self.dim)
            matrix[..., diag, diag] = self.diagonal
            self._matrix = matrix
        return self._matrix

    @property
    def spectrum(self) -> np.ndarray:
        """Eigenvalues, descending, clamped into [0, 1] and summing to 1."""
        if self._spectrum is None:
            if self.wishart_diagonal is None:
                # the constructor checked the matrix and made it exactly
                # Hermitian, so it is not checked again
                vals = linalg.exact_hermitian_eigenvalues(self._matrix)
            else:
                if self._variates is not None:
                    # |W_10| = |z_0 root_0|: L L^dagger's off-diagonal entry
                    root, z = self._variates
                    w = self.wishart_diagonal
                    vals = linalg._eigenvalues_2x2(w[..., 0], w[..., 1], np.abs(z[..., 0] * root[..., 0]))
                else:
                    vals = linalg.factor_gram_eigenvalues(self._factor)
                vals /= linalg.row_sum(self.wishart_diagonal, keepdims=True)
            self._spectrum = linalg.clamp_spectrum(vals)
        return self._spectrum


def _row_norms(low: np.ndarray) -> np.ndarray:
    """sum_j |L_ij|^2 for each row i of each factor L of the stack."""
    sq = low.real**2
    sq += low.imag**2
    return linalg.row_sum(sq)


def _normalized(hermitian: np.ndarray, trace: np.ndarray) -> np.ndarray:
    """hermitian / trace for traces of shape (..., 1), componentwise:
    real-by-real division is exact where complex division picks up 1-ulp
    noise (visible at m = 1, where the diagonal must be exactly 1)."""
    trace = trace[..., None]
    return hermitian.real / trace + 1j * (hermitian.imag / trace)


def sample_ginibre(stream: RngStream, m: int, n: int, size: int) -> np.ndarray:
    """(size, m, n) stack of matrices of i.i.d. complex standard Gaussians,
    drawn as one block, matrix by matrix, each row-major."""
    if m < 1 or n < 1:
        raise ParameterError(f"matrix dimensions must be >= 1, got {m} x {n}")
    return stream.complex_gaussians(size * m * n).reshape(size, m, n)


def sample_wishart(stream: RngStream, m: int, n: int, size: int) -> np.ndarray:
    """(size, m, m) stack of Wishart matrices W = Z Z-dagger of fresh m x n
    Ginibre draws Z."""
    if m > n:
        raise ParameterError(f"requires m <= n, got m={m}, n={n}")
    return linalg.gram(sample_ginibre(stream, m, n, size))


def sample_mixing_state(stream: RngStream, spec: EnsembleSpec, size: int) -> DensityMatrix:
    """A DensityMatrix holding a stack of size random states of the order-k
    mixing ensemble; k=1 gives the induced measure.

    The state is W / tr(W) for the Wishart matrix W = G G^dagger of an
    m x (k*n) Ginibre block G, drawn through its complex Bartlett
    decomposition W = L L^dagger: L is m x m lower triangular with
    L_ii = sqrt(Gamma(kn - i)), i = 0..m-1, and i.i.d. complex standard
    Gaussians (E|z|^2 = 1) below the diagonal.  (In the LQ factorization
    G = L Q, row i's component orthogonal to the earlier rows has squared
    norm Gamma(kn - i), and its coordinates along them are i.i.d.
    CN(0, 1).)  The law of the whole state is that of the Ginibre
    construction, at m(m+1)/2 variates per draw whatever k*n is.  The
    state is read off L's variates (DensityMatrix._from_bartlett): its
    wishart_diagonal is the squared row norms of L and its diagonal is
    them over their sum; W itself is formed only for the spectrum
    (unaveraged) and for the matrix, when they are read.  At m = 2 L is
    formed only for the matrix.

    The stack is drawn with one gammas call (m variates per draw, draw by
    draw) and then one complex_gaussians call (the strict lower triangles,
    row-major, draw by draw).
    """
    return DensityMatrix._from_bartlett(*_bartlett_variates(stream, spec, size))


def _bartlett_variates(stream: RngStream, spec: EnsembleSpec, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The Bartlett variates of count factors L, in sample_mixing_state's
    stream order: one gammas call for the diagonals, whose square roots
    make the (count, m) diagonals of L, then one complex_gaussians call for
    the (count, m(m-1)/2) strict lower triangles, row-major."""
    m = spec.m
    g = stream.gammas((spec.env_dim - np.arange(m)).astype(np.float64), count * m)
    z = stream.complex_gaussians(count * m * (m - 1) // 2)
    return np.sqrt(g).reshape(count, m), z.reshape(count, m * (m - 1) // 2)


def _lower_factor(root: np.ndarray, z: np.ndarray) -> np.ndarray:
    """The stack of lower triangular L with diagonals root (..., m) and
    strict lower triangles z (..., m(m-1)/2), row-major."""
    m = root.shape[-1]
    diag = np.arange(m)
    rows, cols = np.tril_indices(m, -1)
    low = np.zeros(root.shape + (m,), dtype=np.complex128)
    low[..., diag, diag] = root
    low[..., rows, cols] = z
    return low


def sample_mixing_spectrum(stream: RngStream, spec: EnsembleSpec, size: int) -> np.ndarray:
    """Spectra of size states of the order-k mixing ensemble, without the
    states: a (size, m) stack, each row descending, clamped and summing to 1.

    The beta = 2 Laguerre matrix model (Dumitriu & Edelman, "Matrix models
    for beta ensembles", J. Math. Phys. 43, 2002): the Wishart matrix of an
    m x (k*n) Ginibre block has the spectrum of T = B B^T, for B real lower
    bidiagonal with diagonal sqrt(Gamma(kn - i)), i = 0..m-1, and
    sub-diagonal sqrt(Gamma(m - 1 - i)), i = 0..m-2; T is tridiagonal, and
    its spectrum divided by its trace is that of the sampled state.  A draw
    consumes 2m - 1 Gamma variates, diagonal shapes first, whatever k*n is;
    the stack draws all of them in one gammas call, draw by draw.  The
    states' eigenbasis is Haar and independent of the spectrum, so this
    covers every quantity of the spectrum alone; sample_mixing_state stays
    the sampler of the states.  At m = 2 the three entries of T are passed
    to the closed-form eigenvalues elementwise, with no stack of T.
    """
    m, kn = spec.m, spec.env_dim
    shapes = np.concatenate([kn - np.arange(m), m - 1 - np.arange(m - 1)]).astype(np.float64)
    g = stream.gammas(shapes, size * shapes.size).reshape(size, shapes.size)
    # T is finite and exactly symmetric by construction, so it is solved
    # unchecked; clamp_spectrum still refuses a non-finite spectrum
    if m == 2:
        # T = [[g_0, sqrt(g_2 g_0)], [sqrt(g_2 g_0), g_1 + g_2]], the
        # entries _laguerre_tridiagonal writes
        vals = linalg._eigenvalues_2x2(g[:, 0], g[:, 1] + g[:, 2], np.sqrt(g[:, 2] * g[:, 0]))
    else:
        # formed and solved block by block (8 bytes per entry: T itself),
        # so the whole stack of T is never held at once
        vals = np.empty((size, m))
        for rows in linalg.row_blocks(size, m * m, 8):
            vals[rows] = linalg.exact_hermitian_eigenvalues(_laguerre_tridiagonal(g[rows], m))
    vals /= linalg.row_sum(g, keepdims=True)
    return linalg.clamp_spectrum(vals)


def _laguerre_tridiagonal(g: np.ndarray, m: int) -> np.ndarray:
    """The stack of T = B B^T for rows g of Gamma variates, the diagonal
    of B squared in g[:, :m] and its sub-diagonal squared in g[:, m:]."""
    diag, sub = g[:, :m], g[:, m:]
    # (B B^T)_ii = a_i^2 + b_(i-1)^2 and (B B^T)_(i,i-1) = b_(i-1) a_(i-1);
    # in a flattened m x m matrix the diagonal is every (m+1)-th entry from
    # 0, the sub-diagonal from m and the super-diagonal from 1
    t = np.zeros((len(g), m * m))
    t[:, ::m + 1] = diag
    t[:, m + 1::m + 1] += sub
    off = np.sqrt(sub * diag[:, :-1])
    t[:, m::m + 1] = off
    t[:, 1::m + 1] = off
    return t.reshape(len(g), m, m)


def sample_diag_dirichlet(stream: RngStream, spec: EnsembleSpec, size: int) -> np.ndarray:
    """Diagonal marginal of the order-k ensemble, sampled directly: a
    (size, m) stack of symmetric Dirichlet(k*n, ..., k*n) vectors, drawn
    from one block of size*m Gamma variates."""
    g = stream.gammas(float(spec.env_dim), spec.m * size).reshape(size, spec.m)
    return g / linalg.row_sum(g, keepdims=True)


def sample_isospectral_diagonal(stream: RngStream, lam: np.ndarray, size: int) -> np.ndarray:
    """(size, m) stack of the diagonals of U diag(lam) U-dagger for
    independent Haar unitaries U.

    The diagonal d_i = sum_j |U_ij|^2 lam_j reads only the squared moduli
    of U, and every row of U has norm 1, so d = lam_m + sum_{j<m} |u_j|^2
    (lam_j - lam_m) needs only the first m - 1 columns u_j.  Gram-Schmidt
    on m - 1 columns of complex standard Gaussians gives exactly those
    columns of a Haar unitary (Mezzadri, Notices AMS 54, 592, 2007); the
    columns are orthonormalized by classical Gram-Schmidt with one
    re-orthogonalization pass, which is enough (Giraud, Langou & Rozloznik,
    Comput. Math. Appl. 50, 2005).  The stack draws one block of
    size * m * (m - 1) complex Gaussians, the m x (m - 1) matrices draw by
    draw, row-major; m = 1 draws nothing and returns lam.  Every step is a
    real elementwise operation on the stack or a sum over a short axis in
    a fixed order, so a draw's bits depend neither on the stack it is in
    nor on the BLAS kernel.
    """
    lam = np.asarray(lam, dtype=np.float64)
    m = lam.size
    z = stream.complex_gaussians(size * m * (m - 1))
    # the real and the imaginary parts of column j of every draw, each an
    # (m, size) array: the stack goes along the last axis, so that every
    # operation is over one contiguous array of draws
    re, im = z.view(np.float64).reshape(size, m, m - 1, 2).transpose(3, 2, 1, 0).copy()
    d = np.full((m, size), lam[-1])
    for j in range(m - 1):
        vr, vi = re[j], im[j]
        ur, ui = re[:j], im[:j]
        for _ in range(2 if j else 0):
            # c_k = <u_k, v> for each earlier column k, then v -= sum_k c_k u_k
            p = ur * vr
            p += ui * vi
            cr = _sum_rows(p)[:, None]
            np.multiply(ur, vi, out=p)
            p -= ui * vr
            ci = _sum_rows(p)[:, None]
            t = cr * ur
            t -= ci * ui
            for k in range(j):
                vr -= t[k]
            np.multiply(cr, ui, out=t)
            t += ci * ur
            for k in range(j):
                vi -= t[k]
        sq = vr * vr
        sq += vi * vi
        norm2 = _sum_rows(sq)
        if j < m - 2:
            # the last column is never projected on, so it is not scaled
            norm = np.sqrt(norm2)
            vr /= norm
            vi /= norm
        # |u_j|^2 (lam_j - lam_m) = |v|^2 (lam_j - lam_m) / |v|_2^2
        sq *= (lam[j] - lam[-1]) / norm2
        d += sq
    return d.T.copy()


def _sum_rows(a: np.ndarray) -> np.ndarray:
    """a summed over its second-to-last axis (of at least 2 rows), the rows
    added first to last, each an elementwise add over the draws.  Not
    linalg.row_sum on swapped axes: from 8 rows on that is numpy's sum,
    whose order on a stack of one draw differs from its order on more."""
    total = a[..., 0, :] + a[..., 1, :]
    for i in range(2, a.shape[-2]):
        total += a[..., i, :]
    return total
