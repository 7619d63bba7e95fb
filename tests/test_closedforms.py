import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import integrate

from randcoh import closedforms as cf
from randcoh.errors import DomainError, ParameterError
from randcoh.functionals import EULER_GAMMA, harmonic, subentropy

LN2 = math.log(2.0)


class TestPageAverageEntropy:
    @pytest.mark.parametrize("n", [1, 2, 5, 100])
    def test_pure_subsystem(self, n):
        assert cf.avg_entropy_page(1, n) == 0.0

    def test_two_by_two(self):
        assert cf.avg_entropy_page(2, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)

    def test_three_by_four(self):
        assert cf.avg_entropy_page(3, 4) == pytest.approx(0.769877344877345, rel=1e-12)

    def test_rejects_m_above_n(self):
        with pytest.raises(ParameterError):
            cf.avg_entropy_page(3, 2)


class TestAvgDiagEntropy:
    def test_dimension_one(self):
        assert cf.avg_diag_entropy(1, 7) == 0.0

    def test_base_case(self):
        assert cf.avg_diag_entropy(2, 2, 1) == pytest.approx(7.0 / 12.0, rel=1e-14)

    def test_mixing_order_two(self):
        assert cf.avg_diag_entropy(2, 2, 2) == pytest.approx(0.634523809523810, rel=1e-12)

    def test_rejects_bad_k(self):
        with pytest.raises(ParameterError):
            cf.avg_diag_entropy(2, 2, 0)


class TestAvgCoherence:
    @pytest.mark.parametrize("n,k", [(1, 1), (4, 2), (9, 5)])
    def test_dimension_one_has_no_coherence(self, n, k):
        assert cf.avg_coherence(1, n, k) == 0.0

    def test_base_case(self):
        assert cf.avg_coherence(2, 2, 1) == 0.25

    def test_mixing_scaling(self):
        assert cf.avg_coherence(2, 2, 2) == 0.125
        assert cf.avg_coherence(2, 2, 3) == pytest.approx(1.0 / 12.0, rel=1e-15)

    def test_square_limit_is_one_half(self):
        m = 10**6
        assert abs(cf.avg_coherence(m, m) - 0.5) < 1e-6


class TestAvgSubentropy:
    def test_dimension_one(self):
        assert cf.avg_subentropy(1, 9) == pytest.approx(0.0, abs=1e-15)

    def test_two_by_two(self):
        assert cf.avg_subentropy(2, 2) == pytest.approx(1.0 / 12.0, rel=1e-13)

    def test_three_by_four(self):
        assert cf.avg_subentropy(3, 4) == pytest.approx(0.186544011544012, rel=1e-12)

    def test_square_limit_is_one_minus_euler_gamma(self):
        m = 10**4
        assert abs(cf.avg_subentropy(m, m) - (1.0 - EULER_GAMMA)) < 1.1e-4

    def test_never_exceeds_the_maximum(self):
        # scan of the (m, n) lattice up to 10^4 on a log-spaced grid
        grid = sorted(set(
            list(range(1, 33)) + [50, 100, 250, 500, 1000, 2500, 5000, 10_000]
        ))
        for m in grid:
            for n in grid:
                if m <= n:
                    assert cf.avg_subentropy(m, n) <= cf.max_subentropy(m) + 1e-15


class TestMaxSubentropy:
    def test_dimension_one(self):
        assert cf.max_subentropy(1) == 0.0

    def test_qubit(self):
        assert cf.max_subentropy(2) == pytest.approx(LN2 - 0.5, rel=1e-14)

    @pytest.mark.parametrize("m", [2, 3, 5, 8, 16])
    def test_attained_by_uniform_spectrum(self, m):
        uniform = np.full(m, 1.0 / m)
        assert cf.max_subentropy(m) - subentropy(uniform) == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("m", [0, 2.5, 2.0])
    def test_a_dimension_that_is_no_positive_integer_is_refused(self, m):
        with pytest.raises(ParameterError):
            cf.max_subentropy(m)


class TestIsospectralAverage:
    def test_dimension_one(self):
        assert cf.isospectral_avg_diag_entropy([1.0]) == 0.0

    def test_pure_qubit(self):
        assert cf.isospectral_avg_diag_entropy([1.0, 0.0]) == pytest.approx(0.5, abs=1e-12)

    def test_uniform_qubit_gives_ln2(self):
        assert cf.isospectral_avg_diag_entropy([0.5, 0.5]) == pytest.approx(LN2, abs=1e-12)

    def test_a_stack_gives_the_average_of_each_spectrum(self):
        # H_2 - 1 + Q(lam) row by row, not H_4 from the stack's four entries
        lam = np.array([[0.5, 0.5], [0.6, 0.4]])
        values = cf.isospectral_avg_diag_entropy(lam)
        assert values.shape == (2,)
        assert values == pytest.approx([LN2, 0.6864535372794592], abs=1e-12)
        assert np.array_equal(values, [cf.isospectral_avg_diag_entropy(row) for row in lam])

    @pytest.mark.parametrize("lam", [[], [[]], 0.5])
    def test_no_probability_vector_is_a_domain_error(self, lam):
        with pytest.raises(DomainError):
            cf.isospectral_avg_diag_entropy(lam)


class TestConcentrationBound:
    def test_vanishing_epsilon_saturates(self):
        assert cf.concentration_bound(3, 3, 1e-12) == 1.0

    def test_huge_epsilon_gives_the_limit_zero(self):
        # a float power epsilon**2 raises OverflowError above about 1.34e154
        assert cf.concentration_bound(3, 3, 1e300) == 0.0

    def test_monotone_in_epsilon_and_dimension(self):
        eps = np.linspace(5.0, 50.0, 8)
        vals = [cf.concentration_bound(4, 100, e) for e in eps]
        assert all(a >= b for a, b in zip(vals, vals[1:]))
        # monotone in mn with the other arguments fixed
        vals = [cf.concentration_bound(4, n, 5.0) for n in (10, 100, 400, 1000)]
        assert all(a >= b for a, b in zip(vals, vals[1:]))

    def test_desk_scale_value_is_clamped(self):
        # the raw expression at (3, 3, 1) is 2 exp(-9/(144 pi^3 ln2 (ln3)^2))
        # = 1.99518692165863, which the probability clamp cuts at 1
        raw = 2.0 * math.exp(-9.0 / (144.0 * math.pi**3 * LN2 * math.log(3.0) ** 2))
        assert raw == pytest.approx(1.99518692165863, rel=1e-12)
        assert cf.concentration_bound(3, 3, 1.0) == 1.0

    def test_unclamped_regime_value(self):
        expected = 2.0 * math.exp(-(10 * 1000 * 4.0) / (144.0 * math.pi**3 * LN2 * math.log(10.0) ** 2))
        assert cf.concentration_bound(10, 1000, 2.0) == pytest.approx(expected, rel=1e-14)
        assert cf.concentration_bound(10, 1000, 2.0) < 1.0

    def test_hypothesis_guards(self):
        with pytest.raises(ParameterError):
            cf.concentration_bound(2, 4, 0.1)
        with pytest.raises(ParameterError):
            cf.concentration_bound(4, 3, 0.1)
        # the dimensions are those of an EnsembleSpec: integers with m <= n
        for m, n in ((3, 3.5), (3.5, 4), (3.0, 4)):
            with pytest.raises(ParameterError):
                cf.concentration_bound(m, n, 0.1)
        # every comparison with NaN is False, so a sign test alone lets NaN through
        for epsilon in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                cf.concentration_bound(3, 3, epsilon)


class TestEigenDensityM2:
    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_normalized(self, n):
        total, err = integrate.quad(lambda x: cf.eigen_density_m2(n, x), 0.0, 1.0)
        assert abs(total - 1.0) < 1e-8
        assert err < 1e-8

    def test_vanishes_at_degenerate_point(self):
        assert cf.eigen_density_m2(3, 0.5) == 0.0

    def test_exchange_symmetry(self):
        for x in (0.1, 0.25, 0.4):
            assert cf.eigen_density_m2(4, x) == pytest.approx(cf.eigen_density_m2(4, 1.0 - x), rel=1e-12)

    def test_zero_outside_unit_interval(self):
        assert cf.eigen_density_m2(3, -0.2) == 0.0
        assert cf.eigen_density_m2(3, 1.2) == 0.0

    def test_requires_n_at_least_two(self):
        with pytest.raises(ParameterError):
            cf.eigen_density_m2(1, 0.3)


class TestDerivativePrincipleM2:
    def test_agrees_with_eigen_density_on_verifys_grid_at_every_checked_kn(self):
        # verify's derivative_principle_m2 check: its 50 points and its gate,
        # at every k*n it compares.  The cancelling normaliser
        # B(n-1,n-1) - 4 B(n,n) failed it from k*n = 69 on
        xs = np.linspace(0.01, 0.99, 50)
        for n in range(2, 164):
            diff = max(abs(cf.eigen_density_m2(n, float(x)) - cf.derivative_principle_density_m2(n, float(x)))
                       for x in xs)
            assert diff < 1e-10, n

    @pytest.mark.parametrize("n", [2, 3, 10, 69, 100, 150, 163, 300])
    def test_eigen_density_normaliser_is_the_exact_beta_quotient(self, n):
        # the integral of (2x-1)^2 (x(1-x))^(n-2) over (0, 1) is
        # B(n-1, n-1)/(2n-1), in exact rationals at integer n; exp(lgamma)
        # keeps it within 3e-13, where the cancelling form was off by
        # 1.2e-10 at n = 150
        exact = Fraction(math.factorial(n - 2) ** 2, math.factorial(2 * n - 3) * (2 * n - 1))
        x = 0.3
        profile = Fraction((2.0 * x - 1.0) ** 2 * (x * (1.0 - x)) ** (n - 2))
        assert abs(Fraction(cf.eigen_density_m2(n, x)) * exact / profile - 1) < 1e-12

    @pytest.mark.parametrize("x", [0.1, 0.3, 0.7])
    def test_pointwise_equal_to_eigen_density(self, x):
        assert cf.derivative_principle_density_m2(3, x) == pytest.approx(
            cf.eigen_density_m2(3, x), abs=1e-10
        )

    def test_vanishes_at_degenerate_point(self):
        assert cf.derivative_principle_density_m2(5, 0.5) == 0.0

    @pytest.mark.parametrize("n", [2, 4])
    def test_normalized(self, n):
        total, _ = integrate.quad(lambda x: cf.derivative_principle_density_m2(n, x), 0.0, 1.0)
        assert abs(total - 1.0) < 1e-8


class TestIdentities:
    def test_coherence_is_the_entropy_gap(self):
        # avg diagonal entropy minus Page entropy is exactly the coherence
        for m in range(1, 30):
            for n in range(m, 30):
                gap = cf.avg_diag_entropy(m, n) - cf.avg_entropy_page(m, n)
                assert gap == pytest.approx(cf.avg_coherence(m, n), abs=1e-14)

    def test_isospectral_chain(self):
        # coherence = (H_m - 1 + avg subentropy) - Page entropy
        for m, n in [(2, 2), (3, 4), (4, 8), (7, 7), (10, 30)]:
            chain = harmonic(m) - 1.0 + cf.avg_subentropy(m, n) - cf.avg_entropy_page(m, n)
            assert chain == pytest.approx(cf.avg_coherence(m, n), abs=1e-12)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 4), (4, 8), (16, 16), (100, 1000), (1000, 1000)])
    def test_matches_extended_precision(self, m, n):
        with mpmath.workdps(40):
            h = lambda k: mpmath.harmonic(k)
            page = float(h(m * n) - h(n) - mpmath.mpf(m - 1) / (2 * n))
            diag = float(h(m * n) - h(n))
            suben = float(1 + h(m * n) - h(m) - h(n))
        assert cf.avg_entropy_page(m, n) == pytest.approx(page, rel=1e-12)
        assert cf.avg_diag_entropy(m, n) == pytest.approx(diag, rel=1e-12)
        assert cf.avg_subentropy(m, n) == pytest.approx(suben, rel=1e-12, abs=1e-13)


def _binary_entropy(x):
    return -x * mpmath.log(x) - (1 - x) * mpmath.log(1 - x)


def _quad_on_unit_interval(f, kn):
    """int_0^1 f at 30 digits, split at 1/2 and a few widths 1/sqrt(kn) on
    either side, where the m = 2 laws put their mass."""
    half, width = mpmath.mpf(1) / 2, 4 / mpmath.sqrt(kn)
    return mpmath.quad(f, [0, half - width, half, half + width, 1] if width < half else [0, 1])


class TestAgainstTheLawsTheyAverage:
    """At m = 2 each closed form is the integral of its functional against
    the law it averages, by mpmath quadrature at 30 digits: the eigenvalue
    density ~ (2x-1)^2 (x(1-x))^(kn-2) for the spectrum (x, 1-x), the
    Beta(kn, kn) law of the diagonal entry, and a uniform t for the Haar
    diagonal lam_2 + (lam_1 - lam_2) t of a fixed spectrum."""

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("n", [2, 3, 7, 20])
    def test_qubit_averages(self, n, k):
        kn = k * n
        with mpmath.workdps(30):
            weight = lambda x: (x * (1 - x)) ** (kn - 2)
            norm = _quad_on_unit_interval(lambda x: (2 * x - 1) ** 2 * weight(x), kn)
            entropy = _quad_on_unit_interval(lambda x: (2 * x - 1) ** 2 * weight(x) * _binary_entropy(x), kn) / norm
            # (lam_1 - lam_2)^2 Q(lam) = -(lam_1 - lam_2)(lam_1^2 ln lam_1 - lam_2^2 ln lam_2)
            subent = _quad_on_unit_interval(lambda x: -(2 * x - 1) * weight(x) * (
                x**2 * mpmath.log(x) - (1 - x) ** 2 * mpmath.log(1 - x)), kn) / norm
            diag = _quad_on_unit_interval(lambda x: x * (1 - x) * weight(x) * _binary_entropy(x), kn) \
                / mpmath.beta(kn, kn)
            assert abs(entropy - cf.avg_entropy_page(2, kn)) <= 1e-14
            assert abs(subent - cf.avg_subentropy(2, kn)) <= 1e-14
            assert abs(diag - cf.avg_diag_entropy(2, n, k)) <= 1e-14
            assert abs(diag - entropy - cf.avg_coherence(2, n, k)) <= 1e-14

    @pytest.mark.parametrize("lam", [(0.6, 0.4), (0.9, 0.1)])
    def test_qubit_isospectral_average(self, lam):
        with mpmath.workdps(30):
            high, low = mpmath.mpf(lam[0]), mpmath.mpf(lam[1])
            average = mpmath.quad(lambda t: _binary_entropy(low + (high - low) * t), [0, 1])
            assert abs(average - cf.isospectral_avg_diag_entropy(lam)) <= 1e-14
