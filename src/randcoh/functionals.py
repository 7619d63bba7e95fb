"""Entropy-family functionals on probability vectors and spectra.

Subentropy is the delicate one: the literal quotient formula
-sum_i lam_i^m ln(lam_i) / prod_{j != i}(lam_i - lam_j) cancels
catastrophically once eigenvalue gaps shrink below ~1e-5, which random
spectra hit routinely.  It is evaluated here as the negated (m-1)-th
divided difference of g(x) = x^m ln x, with near-coincident nodes merged
and handled confluently through the exact derivatives of g.

Each functional takes one vector (or state) and returns a float, or a
stack of them along leading axes and returns an array of values.  The
row sums and sorts of a stack go through linalg.row_sum and
linalg.row_sort, which give numpy's values at a cost per column on the
short rows of small systems.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError, ParameterError
from .linalg import row_sort, row_sum

EULER_GAMMA = 0.5772156649015329

_NEG_TOL = 1e-12
_SUM_TOL = 1e-8
_CLUSTER_GAP = 1e-7
_ZERO_NODE = 1e-14
_COHERENCE_FLOOR = -1e-9


def harmonic(k: int) -> float:
    """The k-th harmonic number H_k = sum_{j=1}^{k} 1/j.

    Summed exactly (fsum) below k = 100; from there on the Euler-Maclaurin
    expansion is within 2 ulp of the partial sums, and at k = 100 equal.
    """
    if k < 1:
        raise ParameterError(f"harmonic index must be >= 1, got {k}")
    if k < 100:
        return math.fsum(1.0 / j for j in range(1, k + 1))
    # H_k = ln k + gamma + 1/2k - 1/12k^2 + 1/120k^4 - 1/252k^6 + O(k^-8)
    inv = 1.0 / k
    inv2 = inv * inv
    return (math.log(k) + EULER_GAMMA + 0.5 * inv
            - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0)))


def _validated_probabilities(p) -> np.ndarray:
    """The one validation point for probability vectors and spectra, single
    (m,) or stacked (..., m): finite, nonnegative within _NEG_TOL, each row
    summing to 1 within _SUM_TOL.  Returns a clipped copy."""
    p = np.asarray(p, dtype=np.float64)
    if p.ndim < 1 or p.shape[-1] < 1:
        raise DomainError(f"expected a probability vector or a stack of them, got shape {p.shape}")
    if not np.isfinite(p).all():
        raise DomainError("probabilities must be finite")
    if p.size and p.min() < -_NEG_TOL:
        raise DomainError(f"negative probability {p.min():.3e} beyond tolerance")
    sums = row_sum(p)
    unnormalized = np.abs(sums - 1.0) > _SUM_TOL
    if unnormalized.any():
        raise DomainError(f"probabilities sum to {float(sums[unnormalized].flat[0])!r}, expected 1")
    return np.clip(p, 0.0, None)


def _scalar_or_stack(values: np.ndarray):
    # a single input vector gives a plain float, a stack an array
    return float(values) if values.ndim == 0 else values


def shannon_entropy(p):
    """-sum p_i ln p_i in nats, with the 0 ln 0 = 0 convention.

    A stack of vectors (..., m) gives one entropy per vector.  Terms are
    summed in sorted order, so any permutation of p gives the same value to
    the bit (a diagonal state's diagonal and spectrum, for one).
    """
    return _scalar_or_stack(_ascending_entropy(row_sort(_validated_probabilities(p))))


def _ascending_entropy(p: np.ndarray) -> np.ndarray:
    """shannon_entropy's sum, unchecked, over rows p already sorted
    ascending (a C-contiguous array, so that the terms are summed in the
    order shannon_entropy sums them)."""
    log_p = np.log(p, out=np.zeros_like(p), where=p > 0.0)
    log_p *= p
    return np.maximum(0.0, -row_sum(log_p))


def von_neumann_entropy(rho):
    """Shannon entropy of the spectrum of a density matrix, in nats."""
    return shannon_entropy(rho.spectrum)


def relative_entropy_of_coherence(rho):
    """S(rho_diag) - S(rho), clamped at 0; zero exactly for diagonal states.

    Equal to shannon_entropy(rho.diagonal) - von_neumann_entropy(rho) bit
    for bit, in one pass over each vector, with neither validated again:
    a DensityMatrix's diagonal sums to 1 by construction, and
    clamp_spectrum has checked the spectrum.  A broken draw, or a matrix
    with a negative diagonal entry, fails there with NumericalError (the
    smallest eigenvalue is at most the smallest diagonal entry).  The
    diagonal is sorted once; the spectrum is descending, so its reverse is
    its ascending sort.
    """
    diag = _ascending_entropy(row_sort(rho.diagonal))
    c = np.asarray(diag - _ascending_entropy(np.ascontiguousarray(rho.spectrum[..., ::-1])))
    if (c < _COHERENCE_FLOOR).any():
        raise DomainError(f"coherence {float(c.min())!r} below the numerical floor; "
                          "sampler or solver is broken")
    return _scalar_or_stack(np.maximum(c, 0.0))


def _g_derivative(x, m: int, r: int) -> np.ndarray:
    """r-th derivative of g(x) = x^m ln x for 0 <= r < m, elementwise.

    d^r/dx^r [x^m ln x] = (m!/(m-r)!) x^(m-r) (ln x + H_m - H_{m-r}),
    which extends by 0 to x = 0 since r < m.
    """
    x = np.asarray(x, dtype=np.float64)
    # ln 0 is replaced by 0; the power in front of it vanishes there
    log_x = np.log(x, out=np.zeros_like(x), where=x > 0.0)
    if r == 0:
        return x**m * log_x
    falling = math.factorial(m) // math.factorial(m - r)
    return falling * x ** (m - r) * (log_x + harmonic(m) - harmonic(m - r))


def _clustered_nodes(lam: np.ndarray) -> np.ndarray:
    """Sort each row of lam (rows, m) ascending, snap near-zeros to 0, and
    merge clusters of nodes closer than the confluence gap to their common
    mean.  A cluster is a maximal run of consecutive gaps <= _CLUSTER_GAP."""
    nodes = row_sort(lam)
    nodes[nodes < _ZERO_NODE] = 0.0
    starts = np.ones(nodes.shape, dtype=bool)
    starts[:, 1:] = np.diff(nodes, axis=-1) > _CLUSTER_GAP
    if starts.all():
        return nodes
    rows, m = nodes.shape
    labels = (np.cumsum(starts, axis=-1) - 1 + m * np.arange(rows)[:, None]).ravel()
    sums = np.bincount(labels, weights=nodes.ravel(), minlength=rows * m)
    counts = np.bincount(labels, minlength=rows * m)
    return (sums / np.maximum(counts, 1))[labels].reshape(rows, m)


def subentropy(lam):
    """Subentropy Q of a spectrum, in nats.

    Equal to the negated (m-1)-th divided difference of g(x) = x^m ln x
    over the eigenvalues; repeated (or nearly repeated) eigenvalues are
    handled by the confluent limit g[x,...,x] (r+1 nodes) = g^(r)(x)/r!.
    Ranges over [0, 1 + ln m - H_m], the maximum at the uniform spectrum.
    A stack of spectra (..., m) gives one value per spectrum; the
    recursion runs on all of them at once.  Where cancellation drives a
    value below 0 or above the maximum (at large m, or near-uniform
    spectra), NumericalError names m, the lost digits and the bound.
    """
    lam = _validated_probabilities(lam)
    m = lam.shape[-1]
    if m == 1:
        return _scalar_or_stack(np.zeros(lam.shape[:-1]))
    z = _clustered_nodes(lam.reshape(-1, m))
    col = _g_derivative(z, m, 0)
    for order in range(1, m):
        lo, hi = z[:, :-order], z[:, order:]
        tie = hi == lo
        col = np.divide(col[:, 1:] - col[:, :-1], hi - lo, out=np.zeros_like(lo), where=~tie)
        if tie.any():
            col = np.where(tie, _g_derivative(lo, m, order) / math.factorial(order), col)
    q = -col[:, 0].reshape(lam.shape[:-1])
    if (q < -_NEG_TOL).any():
        # Q >= 0, so a value below it is an error of at least |q|: cancellation
        lost = math.log10(-float(q.min()) / np.finfo(np.float64).eps)
        raise NumericalError(f"subentropy at m = {m}: the divided differences of x^m ln x lost at least "
                             f"{lost:.1f} digits (a value of {float(q.min())!r}, below its lower bound 0)")
    q_max = 1.0 + math.log(m) - harmonic(m)
    # the same above the maximum; a spectrum may sum to 1 within _SUM_TOL,
    # which moves Q by up to m * _SUM_TOL
    if (q > q_max + m * _SUM_TOL).any():
        lost = math.log10((float(q.max()) - q_max) / np.finfo(np.float64).eps)
        raise NumericalError(f"subentropy at m = {m}: the divided differences of x^m ln x lost at least "
                             f"{lost:.1f} digits (a value of {float(q.max())!r}, above its upper bound {q_max!r})")
    return _scalar_or_stack(np.maximum(q, 0.0))
