"""Dense complex linear algebra for small Hermitian problems.

Eigenvalues are delegated to LAPACK (``numpy.linalg.eigvalsh``); the module
adds the contracts the rest of the package relies on: Hermitian symmetry
enforced by averaging, descending spectra, the tiny-negative eigenvalue
clamp, and the Haar phase correction on QR-sampled unitaries.

Every function takes a single matrix (or vector) or a stack of them along
leading axes, and treats each member of a stack exactly as it would treat
that member on its own.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericalError, ParameterError
from .randkit import RngStream

HERMITIAN_TOL = 1e-10
EIG_CLAMP = 1e-12
SPECTRUM_SUM_TOL = 1e-10


def _dagger(a: np.ndarray) -> np.ndarray:
    return np.conj(np.swapaxes(a, -1, -2))


def hermitize(a: np.ndarray) -> np.ndarray:
    """Average a with its conjugate transpose."""
    a = np.asarray(a, dtype=np.complex128)
    return 0.5 * (a + _dagger(a))


def gram(z: np.ndarray) -> np.ndarray:
    """Z Z-dagger: the Hermitian PSD Gram matrix of the rows of z (of each
    matrix in a stack of shape (..., m, n))."""
    z = np.atleast_2d(np.asarray(z, dtype=np.complex128))
    return hermitize(z @ _dagger(z))


def hermitian_eigenvalues(a: np.ndarray) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, real, in descending order.

    A stack of shape (..., m, m) gives spectra of shape (..., m).  Input must
    be Hermitian within HERMITIAN_TOL relative to its largest entry; LAPACK
    then reads one triangle, so the input is not averaged a second time.
    """
    a = np.asarray(a, dtype=np.complex128)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ParameterError(f"expected a square matrix, got shape {a.shape}")
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    if (np.abs(a - _dagger(a)).max(axis=(-2, -1), initial=0.0) > HERMITIAN_TOL * scale).any():
        raise ParameterError("matrix is not Hermitian within tolerance")
    try:
        vals = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigenvalue iteration failed to converge: {exc}") from exc
    return vals[..., ::-1].copy()


def clamp_spectrum(values: np.ndarray, check_sum: bool = True) -> np.ndarray:
    """Clamp eigenvalues of a density matrix into a valid spectrum.

    Values in [-EIG_CLAMP, 0) are rounding noise and are set to 0; anything
    more negative, or not finite, signals a broken sampler and raises.  A
    stack of spectra (..., m) is checked row by row.
    """
    vals = np.array(values, dtype=np.float64)
    if not np.isfinite(vals).all():
        raise NumericalError("spectrum has non-finite eigenvalues")
    if vals.size and vals.min() < -EIG_CLAMP:
        raise NumericalError(f"eigenvalue {vals.min():.3e} below clamp tolerance -{EIG_CLAMP:.0e}")
    np.clip(vals, 0.0, None, out=vals)
    if check_sum:
        sums = vals.sum(axis=-1)
        bad = np.abs(sums - 1.0) > SPECTRUM_SUM_TOL
        if bad.any():
            raise NumericalError(f"spectrum sums to {float(np.asarray(sums)[bad].flat[0])!r}, expected 1")
    return vals


def haar_unitary(stream: RngStream, m: int, size: int | None = None) -> np.ndarray:
    """An m x m unitary distributed with Haar measure, or a (size, m, m)
    stack of independent ones.

    QR-factorize a square Ginibre matrix and multiply column j of Q by the
    phase conj(r_jj)/|r_jj|.  Without the phase correction the QR convention
    biases the law away from Haar.  A stack draws its Ginibre matrices in
    one block, which consumes the stream exactly as size single calls do;
    a single unitary is the stack of one.
    """
    if m < 1:
        raise ParameterError(f"dimension must be >= 1, got {m}")
    count = 1 if size is None else size
    z = stream.complex_gaussians(count * m * m).reshape(count, m, m)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=-2, axis2=-1)
    u = q * (d / np.abs(d)).conj()[:, None, :]
    return u[0] if size is None else u


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
    return ((u.real**2 + u.imag**2) @ lam[..., None])[..., 0]
