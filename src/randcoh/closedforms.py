"""Closed-form ensemble averages as exact functions of (m, n, k).

Order-k mixing averages come from the substitution n -> k*n in the k = 1
formulas, which is exactly what the block construction of the mixing
ensemble implies.  The two m = 2 eigenvalue densities at the bottom give
the same curve through two independent routes (Vandermonde-squared joint
law vs. the diagonal law hit with the derivative operator), which is what
the pointwise verification leans on.

The ensemble averages, max_subentropy and concentration_bound check their
(m, n, k) by building the EnsembleSpec they describe, so the rules live in
one place.
"""

from __future__ import annotations

import functools
import math
import sys

import numpy as np

from .ensembles import EnsembleSpec
from .errors import DomainError, NumericalError, ParameterError, check_integer
from .functionals import EULER_GAMMA, harmonic, subentropy

_LN2 = math.log(2.0)


def avg_entropy_page(m: int, n: int) -> float:
    """Average von Neumann entropy of induced states: H_mn - H_n - (m-1)/(2n)."""
    EnsembleSpec(m, n)
    return harmonic(m * n) - harmonic(n) - (m - 1) / (2.0 * n)


def avg_diag_entropy(m: int, n: int, k: int = 1) -> float:
    """Average diagonal entropy of the order-k ensemble: H_mkn - H_kn."""
    EnsembleSpec(m, n, k)
    return harmonic(m * k * n) - harmonic(k * n)


def avg_coherence(m: int, n: int, k: int = 1) -> float:
    """Average relative entropy of coherence of the order-k ensemble: (m-1)/(2kn)."""
    EnsembleSpec(m, n, k)
    return (m - 1) / (2.0 * k * n)


def avg_subentropy(m: int, n: int) -> float:
    """Average subentropy of induced states: 1 + H_mn - H_m - H_n."""
    EnsembleSpec(m, n)
    return 1.0 + harmonic(m * n) - harmonic(m) - harmonic(n)


def max_subentropy(m: int) -> float:
    """Largest possible subentropy in dimension m: 1 + ln m - H_m, attained
    only at the uniform spectrum; tends to 1 - gamma_Euler as m grows."""
    EnsembleSpec(m, m)
    return 1.0 + math.log(m) - harmonic(m)


def isospectral_avg_diag_entropy(lam):
    """Haar average of the diagonal entropy on a fixed-spectrum orbit:
    H_m - 1 + Q(lam).  A stack of spectra (..., m) gives one average per
    spectrum."""
    # subentropy validates lam before its length is read
    q = subentropy(lam)
    return harmonic(np.shape(lam)[-1]) - 1.0 + q


def concentration_bound(m: int, n: int, epsilon: float) -> float:
    """Tail bound on |C(rho) - (m-1)/2n| exceeding epsilon,
    min(1, 2 exp(-m n eps^2 / (144 pi^3 ln2 (ln m)^2))).

    Stated only for m >= 3.  The raw expression exceeds 1 at desk-scale
    (m, n), so the clamp keeps the return value an honest probability.
    """
    EnsembleSpec(m, n)
    if m < 3:
        raise ParameterError(f"the tail bound requires m >= 3, got {m}")
    if not (math.isfinite(epsilon) and epsilon > 0):
        raise ParameterError(f"epsilon must be finite and positive, got {epsilon}")
    exponent = -(m * n * (epsilon * epsilon)) / (144.0 * math.pi**3 * _LN2 * math.log(m) ** 2)
    return min(1.0, 2.0 * math.exp(exponent))


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


@functools.cache
def _m2_normalisers(n: int) -> tuple[float, float]:
    """The normalisers of the two m = 2 densities at n, each from its own
    Beta function: B(n-1, n-1)/(2n-1) for eigen_density_m2 and B(n, n) for
    derivative_principle_density_m2.  They depend on n alone, so a grid of
    points at one n computes them once."""
    return math.exp(_log_beta(n - 1, n - 1)) / (2 * n - 1), math.exp(_log_beta(n, n))


def _m2_normaliser(n: int, x: float, which: int) -> float | None:
    """Normaliser which (0: eigen_density_m2, 1: derivative_principle_density_m2)
    of _m2_normalisers at n, after the checks both densities share: n an
    integer >= 2 (ParameterError) and x not NaN (DomainError).  None where
    x lies outside (0, 1), where the density is 0.  A normaliser that is not
    a normal float raises NumericalError: it is subnormal, and the density
    loses its digits, from n = 506 (eigen) and 510 (derivative), and 0.0
    from n = 533 and 537."""
    check_integer("n", n, 2)
    if math.isnan(x):
        raise DomainError("the m = 2 densities are undefined at x = NaN")
    if not 0.0 < x < 1.0:
        return None
    norm = _m2_normalisers(n)[which]
    if norm < sys.float_info.min:
        raise NumericalError(f"the m = 2 density normaliser at n = {n} is {norm!r}, not a normal float")
    return norm


def eigen_density_m2(n: int, x: float) -> float:
    """Density of the larger-or-smaller eigenvalue coordinate x of an
    m = 2 induced state (the partner eigenvalue is 1 - x).

    Proportional to (2x-1)^2 (x(1-x))^(n-2) on (0, 1).  Its integral
    B(n-1,n-1) - 4 B(n,n) equals B(n-1,n-1)/(2n-1), since
    B(n,n) = B(n-1,n-1) (n-1)/(2(2n-1)); the normalizer is taken in that
    form, whose one Beta function and one division keep their digits,
    where the difference of the two Beta functions cancels (its relative
    error grows to about 1e-10 by n = 150).
    """
    norm = _m2_normaliser(n, x, 0)
    if norm is None:
        return 0.0
    return (2.0 * x - 1.0) ** 2 * (x * (1.0 - x)) ** (n - 2) / norm


def derivative_principle_density_m2(n: int, x: float) -> float:
    """m = 2 eigenvalue density reconstructed from the diagonal law by the
    derivative principle.

    (lam2 - lam1) times (d/d lam1 - d/d lam2) of the diagonal density
    (x(1-x))^(n-1)/B(n,n), restricted to lam2 = 1 - lam1 = 1 - x, has unit
    mass after division by 2: integration by parts gives
    int_0^1 (1-2x) d/dx[(x(1-x))^(n-1)] dx = 2 B(n,n).  Agrees pointwise
    with eigen_density_m2: both reduce to the same polynomial profile, but
    through independent constant factors.
    """
    beta_nn = _m2_normaliser(n, x, 1)
    if beta_nn is None:
        return 0.0
    return (1.0 - 2.0 * x) * (n - 1) * (x * (1.0 - x)) ** (n - 2) * (1.0 - 2.0 * x) / beta_nn / 2.0
