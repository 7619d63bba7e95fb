"""Entropy-family functionals on probability vectors and spectra.

Subentropy is the delicate one: the literal quotient formula
-sum_i lam_i^m ln(lam_i) / prod_{j != i}(lam_i - lam_j) cancels
catastrophically once eigenvalue gaps shrink below ~1e-5, which random
spectra hit routinely, and so does any divided-difference form of it as m
grows.  It is evaluated here as one integral of nonnegative terms, built
from the elementary symmetric polynomials of the spectrum, on a fixed
trapezoid grid that serves every m and every spectrum.

Each functional takes one vector (or state) and returns a float, or a
stack of them along leading axes and returns an array of values.  The
row sums and sorts of a stack go through linalg.row_sum and
linalg.row_sort, which give numpy's values at a cost per column on the
short rows of small systems.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError, check_integer
from .linalg import row_blocks, row_sort, row_sum

EULER_GAMMA = 0.5772156649015329

_NEG_TOL = 1e-12
_SUM_TOL = 1e-8
# subentropy's trapezoid rule in u = ln tau: nodes u = 0.35 j, j = -49..46.
# At step 0.35 it is within 8e-15 of mpmath at m = 2..128 on sampled, tied,
# zeroed and near-uniform spectra; 0.4 gives 2e-13 at m = 64 and 0.5 gives
# 2e-10 at m = 128.  Above u = 16.1 the terms fall like 1/(m tau^2) and are
# dropped.  The nodes below u = -17.15 are summed, from the integrand's
# first two Taylor terms e_2 tau + (e_3 - 2m e_2) tau^2, as geometric series:
# e_2 _TAIL[0] + (e_3 - 2m e_2) _TAIL[1]
_STEP = 0.35
_TAU = np.exp(_STEP * np.arange(-49, 47))
_TAIL = _TAU[0] ** np.array([1.0, 2.0]) * _STEP / np.expm1(_STEP * np.array([1.0, 2.0]))
# a value further than this above 1 + ln m - H_m is a fault, not rounding
_Q_SLACK = 1e-12
# log2 of the largest sum of the e_k(mu / 2^s) that subentropy lets through:
# below it every coefficient is finite
_LOG2_E_SUM_MAX = 1023
_COHERENCE_FLOOR = -1e-9


def harmonic(k: int) -> float:
    """The k-th harmonic number H_k = sum_{j=1}^{k} 1/j.

    Summed exactly (fsum) below k = 100; from there on the Euler-Maclaurin
    expansion is within 2 ulp of the partial sums, and at k = 100 equal.
    """
    check_integer("k", k, 1)
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


def subentropy(lam):
    """Subentropy Q of a spectrum, in nats (Jozsa, Robb & Wootters, PRA 49,
    668 (1994)), over [0, 1 + ln m - H_m], the maximum at the uniform
    spectrum.  A stack of spectra (..., m) gives one value per spectrum.

    With mu = m lam / sum(lam) and P(tau) = sum_{k=2}^{m} e_k(mu) tau^(k-2),
    Q = (1/m) int_0^inf tau P / ((1 + m tau)(1 + m tau + tau^2 P)) du over
    u = ln tau (Q = int_0^inf [s/(1+s) - prod_i s/(s+lam_i)] ds at
    s = 1/(m tau)).  Every coefficient e_k and every term is >= 0, so ties,
    zeros, near-uniform spectra and large m cost no digits.  The
    e_k <= C(m, k) sum to at most 2^m; from m = 1024 on, the e_k of
    nu = mu / c are formed instead, for the power of two c = 2^s with
    m log2(1 + 1/c) <= 1023, and P(tau) = c^2 P_nu(c tau) is evaluated at
    the scaled nodes c tau: scaling by a power of two is exact, so every
    step is that of the unscaled sum, barring e_k(nu) that underflow and
    are negligible wherever P is not already far above 1 + m tau.  The
    fixed grid's error grows with m: the uniform spectrum reads 1.7e-14
    below the maximum at m = 1023, 7.4e-14 at 2048, 5.6e-13 at 4096 and
    8.2e-12 at 10 000.  A value above the maximum is a fault, and
    NumericalError is raised.
    """
    lam = _validated_probabilities(lam)
    m = lam.shape[-1]
    rows = lam.reshape(-1, m)
    shift = _coefficient_shift(m)
    c = 2.0**shift
    mu = rows * (m / c / row_sum(rows, keepdims=True))
    top = max(m, 2)
    # a term is weight tau^2 P / (1 + m tau + tau^2 P) = weight / (1 + scale / P).
    # P overflows to inf only where tau^2 P > 1e308 >> 1 + m tau, which gives
    # the term its limit, weight; P = 0 (rank 1) gives 0.  With c = 2^s, P is
    # c^2 P_nu at the nodes c tau, and scale / P = (scale / c^2) / P_nu
    weight = 1.0 / (_TAU * (1.0 + m * _TAU))
    scale = (1.0 + m * _TAU) / _TAU**2 / c**2
    nodes = _TAU * c
    q = np.empty(len(rows))
    with np.errstate(over="ignore", divide="ignore"):
        for block in row_blocks(len(rows), _TAU.size + m, 16):
            # e_0..e_max(m, 3) of each row by e_k += mu_i e_(k-1), 0 beyond e_m
            e = np.zeros((len(rows[block]), max(m, 3) + 1))
            e[:, 0] = 1.0
            for i in range(m):
                e[:, 1:i + 2] += mu[block, i, None] * e[:, :i + 1]
            p = np.empty((len(e), _TAU.size))
            p[:] = e[:, top, None]
            for k in range(top - 1, 1, -1):
                p *= nodes
                p += e[:, k, None]
            np.divide(scale, p, out=p)
            p += 1.0
            np.divide(weight, p, out=p)
            e2, e3 = e[:, 2] * c**2, e[:, 3] * c**3
            tail = e2 * _TAIL[0] + (e3 - 2 * m * e2) * _TAIL[1]
            q[block] = (_STEP * p.sum(axis=-1) + tail) / m
    q = q.reshape(lam.shape[:-1])
    q_max = 1.0 + math.log(m) - harmonic(m)
    above = ~(q <= q_max + _Q_SLACK)
    if above.any():
        raise NumericalError(f"subentropy at m = {m}: the quadrature gave {float(q[above].flat[0])!r}, "
                             f"above the maximum {q_max!r} of any spectrum")
    return _scalar_or_stack(q)


def _coefficient_shift(m: int) -> int:
    """The least s >= 0 with m log2(1 + 2^-s) <= _LOG2_E_SUM_MAX: the e_k of
    mu / 2^s, whose sum (1 + 2^-s)^m bounds them all at the uniform
    spectrum, are then finite.  It is 0 up to m = 1023."""
    shift = 0
    while m * math.log2(1.0 + 2.0**-shift) > _LOG2_E_SUM_MAX:
        shift += 1
    return shift
