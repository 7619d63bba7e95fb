"""Entropy-family functionals on probability vectors and spectra.

Subentropy is the delicate one: the literal quotient formula
-sum_i lam_i^m ln(lam_i) / prod_{j != i}(lam_i - lam_j) cancels
catastrophically once eigenvalue gaps shrink below ~1e-5, which random
spectra hit routinely.  It is evaluated here as the negated (m-1)-th
divided difference of g(x) = x^m ln x, with near-coincident nodes merged
and handled confluently through the exact derivatives of g.

Each functional takes one vector (or state) and returns a float, or a
stack of them along leading axes and returns an array of values.
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import DomainError, ParameterError

EULER_GAMMA = 0.5772156649015329

_NEG_TOL = 1e-12
_SUM_TOL = 1e-8
_CLUSTER_GAP = 1e-7
_ZERO_NODE = 1e-14
_COHERENCE_FLOOR = -1e-9


class HarmonicTable:
    """Cached harmonic numbers H_1..H_K, grown on demand.

    Growth uses Kahan-compensated accumulation so the table stays within a
    few ulps of the exact partial sums regardless of K.  Beyond the table
    limit the Euler-Maclaurin expansion is exact to double precision.
    """

    TABLE_LIMIT = 1 << 16

    def __init__(self):
        self._values = [0.0, 1.0]  # index k holds H_k; H_0 = 0 placeholder
        self._carry = 0.0
        self._lock = threading.Lock()

    def value(self, k: int) -> float:
        if k < 1:
            raise ParameterError(f"harmonic index must be >= 1, got {k}")
        if k > self.TABLE_LIMIT:
            return self._asymptotic(k)
        if k >= len(self._values):
            with self._lock:
                self._grow(k)
        return self._values[k]

    def _grow(self, k: int) -> None:
        total = self._values[-1]
        carry = self._carry
        for j in range(len(self._values), k + 1):
            term = 1.0 / j - carry
            new_total = total + term
            carry = (new_total - total) - term
            total = new_total
            self._values.append(total)
        self._carry = carry

    @staticmethod
    def _asymptotic(k: int) -> float:
        # H_k = ln k + gamma + 1/2k - 1/12k^2 + 1/120k^4 - 1/252k^6 + O(k^-8)
        inv = 1.0 / k
        inv2 = inv * inv
        return (math.log(k) + EULER_GAMMA + 0.5 * inv
                - inv2 * (1.0 / 12.0 - inv2 * (1.0 / 120.0 - inv2 / 252.0)))


_TABLE = HarmonicTable()


def harmonic(k: int) -> float:
    """The k-th harmonic number H_k = sum_{j=1}^{k} 1/j."""
    return _TABLE.value(k)


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
    sums = p.sum(axis=-1)
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
    p = np.sort(_validated_probabilities(p), axis=-1)
    log_p = np.log(p, out=np.zeros_like(p), where=p > 0.0)
    return _scalar_or_stack(np.maximum(0.0, -(p * log_p).sum(axis=-1)))


def von_neumann_entropy(rho):
    """Shannon entropy of the spectrum of a density matrix, in nats."""
    return shannon_entropy(rho.spectrum)


def relative_entropy_of_coherence(rho):
    """S(rho_diag) - S(rho), clamped at 0; zero exactly for diagonal states."""
    c = np.asarray(shannon_entropy(rho.diagonal) - von_neumann_entropy(rho))
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
    nodes = np.sort(lam, axis=-1)
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
    recursion runs on all of them at once.
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
        # divided-difference noise only ever shows up at the bottom of the range
        raise DomainError(f"subentropy {float(q.min())!r} escaped its lower bound")
    return _scalar_or_stack(np.maximum(q, 0.0))
