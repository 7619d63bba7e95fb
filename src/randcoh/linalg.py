"""Dense linear algebra for small Hermitian (complex or real symmetric) problems.

Eigenvalues of 2 x 2 matrices are solved in closed form, without the
cancellation of the textbook formula; larger ones are delegated to LAPACK
(``numpy.linalg.eigvalsh``).  The module adds the contracts the rest of the
package relies on: Hermitian symmetry checked within a tolerance and
enforced by averaging, descending spectra, the tiny-negative eigenvalue
clamp, and the Haar phase correction on QR-sampled unitaries.

Every function takes a single matrix (or vector) or a stack of them along
leading axes, and treats each member of a stack exactly as it would treat
that member on its own.  Stacks are checked, and products of factors
formed and solved, in blocks of matrices (row_blocks), so that the
temporaries of a pass stay bounded however large the stack is.

Two row kernels serve the package's short rows (spectra, diagonals and
factor rows of a few entries), where numpy's reductions and sorts along
the last axis cost per row rather than per entry: row_sum adds the
columns of a narrow stack left to right, which is the order numpy sums
fewer than 8 entries in, so it gives numpy's bits; row_sort sorts rows of
up to 4 entries by a compare-exchange network on column views, which only
permutes each row.  Wider rows go to numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ParameterError, check_integer
from .randkit import RngStream

HERMITIAN_TOL = 1e-10
EIG_CLAMP = 1e-12
SPECTRUM_SUM_TOL = 1e-10
# bound on the working arrays of one pass over a block of a stack of
# matrices (row_blocks).  At m = 16 a chunk of mc.CHUNK_ENTRIES = 16 384
# variates takes 2 blocks of its 528 real tridiagonals (8 bytes per entry,
# 288 to a block, 576 KiB) and 3 of its 120 Bartlett factors (40 bytes per
# entry with their products, 57 to a block, 570 KiB)
_BLOCK_BYTES = 9 << 16
# rows narrower than this are summed by columns (row_sum): numpy sums a row
# of fewer than 8 entries left to right from 0.0, and unrolls 8 partial
# sums, in another order, from 8 entries on
_ROW_SUM_COLUMNS = 8
# widest row sorted by a compare-exchange network (row_sort): on 1000 rows
# of 2-4 entries np.sort takes about 40 us and the network of 1, 3 or 5
# comparators 5-25 us; each comparator is two ufunc calls, so the 9 of a
# 5-entry network would cost about what np.sort does
_ROW_SORT_COLUMNS = 4
_SORT_NETWORKS = {2: ((0, 1),), 3: ((0, 1), (1, 2), (0, 1)),
                  4: ((0, 1), (2, 3), (0, 2), (1, 3), (1, 2))}


def row_sum(a: np.ndarray, keepdims: bool = False) -> np.ndarray:
    """a.sum(axis=-1, keepdims=keepdims) for a float64 stack of rows
    (..., m), bit for bit.  Below _ROW_SUM_COLUMNS columns the columns are
    added left to right from 0.0, which is numpy's own order there, at a
    cost per column where numpy's reduction pays per row; wider rows are
    summed by numpy."""
    m = a.shape[-1]
    if not 0 < m < _ROW_SUM_COLUMNS:
        return a.sum(axis=-1, keepdims=keepdims)
    out = a[..., 0] + 0.0
    for j in range(1, m):
        out += a[..., j]
    return out[..., None] if keepdims else out


def row_sort(a: np.ndarray) -> np.ndarray:
    """np.sort(a, axis=-1) for a NaN-free float64 stack of rows (..., m),
    as a new C-contiguous array.  Rows of 2 to _ROW_SORT_COLUMNS entries
    are sorted by a fixed compare-exchange network on column views, the
    rest by np.sort.  A sort only permutes each row, so both give the same
    values (only 0.0 and -0.0, which compare equal, may trade places)."""
    m = a.shape[-1]
    if not 1 < m <= _ROW_SORT_COLUMNS:
        return np.sort(a, axis=-1)
    cols = [a[..., j] for j in range(m)]
    for i, j in _SORT_NETWORKS[m]:
        cols[i], cols[j] = np.minimum(cols[i], cols[j]), np.maximum(cols[i], cols[j])
    out = np.empty(a.shape)
    for j, col in enumerate(cols):
        out[..., j] = col
    return out


def _dagger(a: np.ndarray) -> np.ndarray:
    t = np.swapaxes(a, -1, -2)
    return np.conj(t) if np.iscomplexobj(t) else t


def hermitize(a: np.ndarray) -> np.ndarray:
    """Average a with its conjugate transpose."""
    a = np.asarray(a, dtype=np.complex128)
    return 0.5 * (a + _dagger(a))


def row_blocks(count: int, entries: int, bytes_per_entry: int) -> list[slice]:
    """Consecutive slices of range(count), at least one row each, such that
    a block of rows of `entries` entries each, with bytes_per_entry bytes
    of working arrays per entry, takes at most _BLOCK_BYTES."""
    step = max(1, _BLOCK_BYTES // (bytes_per_entry * entries or 1))
    return [slice(i, i + step) for i in range(0, count, step)]


def _blocks(a: np.ndarray, bytes_per_entry: int):
    """The stack a of matrices as consecutive sub-stacks (row_blocks)."""
    flat = a.reshape((-1,) + a.shape[-2:])
    return (flat[rows] for rows in row_blocks(len(flat), a.shape[-1] ** 2, bytes_per_entry))


def check_hermitian(a: np.ndarray) -> None:
    """Raise ParameterError unless every matrix of the square stack a is
    Hermitian within HERMITIAN_TOL relative to its largest entry (taken
    as at least 1).  The stack is checked block by block, with 8 bytes of
    temporaries per entry of a real stack and 24 of a complex one."""
    blocks = _blocks(a, 24 if np.iscomplexobj(a) else 8)
    if not all(_is_hermitian(block) for block in blocks):
        raise ParameterError("matrix is not Hermitian within tolerance")


def _is_hermitian(a: np.ndarray) -> bool:
    """check_hermitian's test of one block."""
    if np.iscomplexobj(a):
        asym = _dagger(a)
        np.subtract(a, asym, out=asym)
        asym = np.abs(asym)
    else:
        asym = a - _dagger(a)
        np.abs(asym, out=asym)
    if asym.max(initial=0.0) <= HERMITIAN_TOL:
        # every scale is at least 1, so no matrix needs its own
        return True
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    return not (asym.max(axis=(-2, -1), initial=0.0) > HERMITIAN_TOL * scale).any()


def gram(z: np.ndarray) -> np.ndarray:
    """Z Z-dagger: the Hermitian PSD Gram matrix of the rows of z (of each
    matrix in a stack of shape (..., m, n))."""
    z = np.atleast_2d(np.asarray(z, dtype=np.complex128))
    return hermitize(z @ _dagger(z))


def factor_gram_eigenvalues(low: np.ndarray) -> np.ndarray:
    """hermitian_eigenvalues(L L-dagger) for each square factor L of a
    stack (..., m, m), with L L-dagger not averaged: it is Hermitian to
    rounding, and the solvers read one triangle.  The products are formed
    and solved block by block, 40 bytes of temporaries per entry (the
    product, its conjugate factor and the check's), so the stack's
    products are never held at once.  (ensembles solves its m = 2 states
    from their factors' variates, without this function.)"""
    flat = low.reshape((-1,) + low.shape[-2:])
    vals = np.empty(flat.shape[:-1])
    for rows in row_blocks(len(flat), low.shape[-1] ** 2, 40):
        vals[rows] = hermitian_eigenvalues(flat[rows] @ _dagger(flat[rows]))
    return vals.reshape(low.shape[:-1])


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, real, in descending order.

    A stack of shape (..., m, m) gives spectra of shape (..., m).  Input must
    be finite and Hermitian within HERMITIAN_TOL relative to its largest
    entry; the solvers then read the diagonal and one triangle, so the
    input is not averaged a second time.  2 x 2 matrices are solved in
    closed form (_eigenvalues_2x2), larger ones by LAPACK.  Real input stays
    real: a real symmetric stack is solved by the real routine, which is
    cheaper than the complex one on the same matrices.
    """
    a = np.asarray(a)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    if not all(np.isfinite(block).all() for block in _blocks(a, 1)):
        raise NumericalError("matrix has non-finite entries")
    check_hermitian(a)
    return exact_hermitian_eigenvalues(a)


def exact_hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """hermitian_eigenvalues without its checks, for a square float64 or
    complex128 stack that is finite and exactly Hermitian by construction
    (the Laguerre tridiagonals of ensembles.sample_mixing_spectrum, the
    averaged matrices of ensembles.DensityMatrix)."""
    if a.shape[-1] == 2:
        return _eigenvalues_2x2(a[..., 0, 0].real, a[..., 1, 1].real, np.abs(a[..., 1, 0]))
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed to converge: {exc}") from exc
    # a descending view: the callers' scaling or clamp_spectrum makes the copy
    return vals[..., ::-1]


def _eigenvalues_2x2(p: np.ndarray, q: np.ndarray, off: np.ndarray) -> np.ndarray:
    """Descending eigenvalues of the Hermitian 2 x 2 matrices with diagonal
    p, q and off-diagonal modulus off = |b| (arrays of one shape).

    With h = |p - q|/2 and r = sqrt(h^2 + |b|^2) they are
    (p + q)/2 +- r = max(p, q) + t and min(p, q) - t, t = r - h, and t is
    formed as |b|^2 / (h + r), which cancels nothing: the shift is exactly 0
    on diagonal input, and 0/0 (p = q, b = 0) is read as 0.
    """
    h = 0.5 * np.abs(p - q)
    # off * (off / (h + r)) rather than off^2 / (h + r): nothing squared can
    # overflow or underflow, and the ratio is at most 1
    s = h + np.hypot(h, off)
    t = off * np.divide(off, s, out=np.zeros_like(s), where=s > 0.0)
    vals = np.empty(np.shape(t) + (2,))
    np.add(np.maximum(p, q), t, out=vals[..., 0])
    np.subtract(np.minimum(p, q), t, out=vals[..., 1])
    return vals


def clamp_spectrum(values: np.ndarray) -> np.ndarray:
    """Clamp eigenvalues of a density matrix into a valid spectrum.

    Values in [-EIG_CLAMP, 0) are rounding noise and are set to 0; anything
    more negative, not finite, or a spectrum that does not sum to 1 signals
    a broken sampler and raises.  A stack of spectra (..., m) is checked
    row by row.
    """
    vals = np.array(values, dtype=np.float64)
    if not np.isfinite(vals).all():
        raise NumericalError("spectrum has non-finite eigenvalues")
    if vals.size and vals.min() < -EIG_CLAMP:
        raise NumericalError(f"eigenvalue {vals.min():.3e} below clamp tolerance -{EIG_CLAMP:.0e}")
    np.clip(vals, 0.0, None, out=vals)
    sums = row_sum(vals)
    bad = np.abs(sums - 1.0) > SPECTRUM_SUM_TOL
    if bad.any():
        raise NumericalError(f"spectrum sums to {float(np.asarray(sums)[bad].flat[0])!r}, expected 1")
    return vals


def haar_unitary(stream: RngStream, m: int, size: int) -> np.ndarray:
    """(size, m, m) stack of independent m x m unitaries distributed with
    Haar measure.

    QR-factorize square Ginibre matrices, drawn in one block, and multiply
    column j of each Q by the phase conj(r_jj)/|r_jj|.  Without the phase
    correction the QR convention biases the law away from Haar.
    """
    check_integer("m", m, 1)
    check_integer("size", size, 0)
    q, r = np.linalg.qr(stream.complex_gaussians(size * m * m).reshape(size, m, m))
    d = np.diagonal(r, axis1=-2, axis2=-1)
    q *= (d / np.abs(d)).conj()[:, None, :]
    return q


def unitary_conjugate_diagonal(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Diagonal of U diag(lam) U-dagger, i.e. d_i = sum_j |U_ij|^2 lam_j.

    Never forms the conjugated matrix; the diagonal is a doubly stochastic
    mixture of lam, so it is again a probability vector when lam is one.
    u may be a stack (..., m, m); lam is one spectrum or a matching stack.
    """
    u = np.asarray(u, dtype=np.complex128)
    lam = np.asarray(lam, dtype=np.float64)
    if u.ndim < 2 or u.shape[-1] != u.shape[-2] or lam.ndim < 1 or u.shape[-1] != lam.shape[-1]:
        raise ParameterError(f"dimension mismatch: U is {u.shape}, lambda has shape {lam.shape}")
    weights = u.real**2
    weights += u.imag**2
    return (weights @ lam[..., None])[..., 0]
