import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from randcoh import functionals, linalg
from randcoh.closedforms import isospectral_avg_diag_entropy, max_subentropy
from randcoh.ensembles import DensityMatrix, EnsembleSpec, sample_mixing_spectrum, sample_mixing_state
from randcoh.errors import DomainError, NumericalError, ParameterError
from randcoh.functionals import (
    EULER_GAMMA,
    harmonic,
    relative_entropy_of_coherence,
    shannon_entropy,
    subentropy,
    von_neumann_entropy,
)
from randcoh.randkit import RngStream, SeedSpec
from test_randkit import dirichlet

LN2 = math.log(2.0)

# frozen from the literal quotient formula evaluated at 30 decimal digits
Q_ORACLE = {
    (0.6, 0.3, 0.1): 0.216826987206295843975884415231,
    (0.5, 0.3, 0.2): 0.247876783642299237805395347920,
    (0.7, 0.2, 0.1): 0.188664704797062054687628624114,
}


def random_spectra(count, seed=101, dims=(2, 3, 4, 6, 8)):
    stream = RngStream(SeedSpec(seed, 0))
    for i in range(count):
        yield dirichlet(stream, 1.0, dims[i % len(dims)])


def induced_spectra(m, count, seed):
    """Spectra of count induced states at (m, 2m), the estimator's input."""
    return sample_mixing_state(RngStream(SeedSpec(seed, m)), EnsembleSpec(m, 2 * m), count).spectrum


# -- the reference: mpmath, sharing no arithmetic with the package ----------

def subentropy_reference(lam) -> float:
    """Q of the spectrum lam / sum(lam), each float entry taken as exact.

    Zeros are dropped (a zero eigenvalue leaves Q as it is).  Distinct
    entries go through the literal quotient formula
    -sum_i x_i^r ln x_i / prod_{j != i}(x_i - x_j) over the r nonzero
    entries.  A float is a dyadic rational, so the entries are scaled to
    integers V_i with x_i = V_i / T, T = sum_j V_j, and each quotient
    x_i^r / prod_{j != i}(x_i - x_j) = V_i^r / (T prod_{j != i}(V_i - V_j))
    is formed exactly in Python integers.  Only the r logarithms and the
    cancelling sum are taken in mpmath, at 30 digits more than its largest
    term has before the point, so that the cancellation leaves an absolute
    error near 1e-30.  Tied entries go through mpmath.quad, at 30 digits,
    of the positive integrand
    Q = (1/r) int_0^inf P / ((1 + r t)(1 + r t + t^2 P)) dt, with
    P(t) = sum_{k=2}^{r} e_k(r x) t^(k-2).
    """
    values = [float(v) for v in lam if v != 0]
    r = len(values)
    if len(set(values)) == r:
        ratios = [v.as_integer_ratio() for v in values]
        denominator = max(q for _, q in ratios)
        ints = [p * (denominator // q) for p, q in ratios]
        total = sum(ints)
        quotients = [(v**r, total * math.prod(v - w for w in ints if w != v)) for v in ints]

        def terms():
            return [mpmath.mpf(num) / den * mpmath.log(mpmath.mpf(v) / total)
                    for (num, den), v in zip(quotients, ints)]

        with mpmath.workdps(30):
            digits = max((int(mpmath.log10(abs(t))) for t in terms() if t), default=0)
        with mpmath.workdps(30 + max(digits, 0)):
            return float(-mpmath.fsum(terms()))
    exact = [mpmath.mpf(v) for v in values]
    with mpmath.workdps(30):
        total = mpmath.fsum(exact)
        e = [mpmath.mpf(1)] + [mpmath.mpf(0)] * r
        for mu in (r * v / total for v in exact):
            for k in range(r, 0, -1):
                e[k] += mu * e[k - 1]

        def integrand(t):
            poly = mpmath.polyval(e[r:1:-1], t)
            return poly / ((1 + r * t) * (1 + r * t + t * t * poly))

        return float(mpmath.quad(integrand, [0, mpmath.mpf(1) / r, 1, r, mpmath.inf]) / r)


# every comparison with the reference is absolute, at this tolerance
REFERENCE_TOL = 1e-13
GAP = 1e-7


def edge_variants(lam):
    """lam with nodes tied, 0.9, 1.1 and 10 GAP apart, zeroed or tiny,
    renormalized."""
    out = {}
    if lam.size >= 2:
        for name, gap in (("tie", 0.0), ("below_gap", 0.9 * GAP), ("above_gap", 1.1 * GAP),
                          ("far_above_gap", 10.0 * GAP)):
            v = lam.copy()
            v[1] = v[0] - gap
            out[name] = v
        for name, value in (("zero", 0.0), ("tiny", 1e-15)):
            v = lam.copy()
            v[-1] = value
            out[name] = v
    if lam.size >= 3:
        v = lam.copy()
        v[1] = v[2] = v[0]
        out["triple_tie"] = v
        v = lam.copy()
        v[-2:] = 0.0
        out["two_zeros"] = v
    return {name: v / v.sum() for name, v in out.items()}


def assert_matches_reference(lams):
    """subentropy of the stack lams (rows, m) is within REFERENCE_TOL of the
    reference row by row, and within [0, 1 + ln m - H_m]."""
    values = subentropy(lams)
    for lam, q in zip(lams, values):
        assert abs(q - subentropy_reference(lam)) <= REFERENCE_TOL, lam
    assert (values >= 0.0).all() and (values <= max_subentropy(lams.shape[-1]) + REFERENCE_TOL).all()


class TestHarmonic:
    def test_first_values(self):
        assert harmonic(1) == 1.0
        assert harmonic(4) == pytest.approx(25.0 / 12.0, rel=1e-15)

    def test_rejects_zero(self):
        with pytest.raises(ParameterError):
            harmonic(0)

    def test_euler_limit(self):
        assert abs(harmonic(10**6) - math.log(10**6) - EULER_GAMMA) < 1e-6

    def test_matches_exact_sum_within_table(self):
        for k in (2, 17, 1000, 65536):
            exact = math.fsum(1.0 / j for j in range(1, k + 1))
            assert harmonic(k) == pytest.approx(exact, rel=1e-14)

    def test_asymptotic_continuation_is_seamless(self):
        # the exact sum ends at k = 99, the Euler-Maclaurin expansion starts at 100
        for k in (99, 100, 101, (1 << 16) + 12345):
            exact = math.fsum(1.0 / j for j in range(1, k + 1))
            assert harmonic(k) == pytest.approx(exact, rel=1e-13)

    # the Euler-Maclaurin branch holds its documented 2 ulp against the
    # exact H_k; dropping its 1/252k^6 term costs 4.4 ulp at k = 100
    @given(k=st.integers(100, 10**7))
    @example(k=100)
    @example(k=4_347_922)  # 1.89 ulp, the largest error measured
    @example(k=2**53)
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_asymptotic_branch_is_within_two_ulp(self, k):
        with mpmath.workdps(40):
            exact = mpmath.harmonic(k)
            error = abs(mpmath.mpf(harmonic(k)) - exact)
        assert error <= 2 * math.ulp(float(exact))


class TestShannonEntropy:
    def test_pure_distribution(self):
        assert shannon_entropy([1.0, 0.0]) == 0.0

    def test_fair_coin(self):
        assert shannon_entropy([0.5, 0.5]) == pytest.approx(LN2, rel=1e-15)

    def test_generic_value(self):
        assert shannon_entropy([0.7, 0.2, 0.1]) == pytest.approx(0.801818552543337, rel=1e-12)

    def test_rejects_negative_entry(self):
        with pytest.raises(DomainError):
            shannon_entropy([1.1, -0.1])

    def test_rejects_unnormalized(self):
        with pytest.raises(DomainError):
            shannon_entropy([0.5, 0.4])

    def test_range(self):
        for p in random_spectra(200):
            assert 0.0 <= shannon_entropy(p) <= math.log(p.size) + 1e-12


class TestVonNeumannEntropy:
    def test_maximally_mixed(self):
        rho = DensityMatrix(np.eye(3, dtype=complex) / 3.0)
        assert von_neumann_entropy(rho) == pytest.approx(math.log(3.0), rel=1e-12)

    def test_pure_state(self):
        v = np.array([1.0, 1.0j]) / math.sqrt(2.0)
        rho = DensityMatrix(np.outer(v, v.conj()))
        assert von_neumann_entropy(rho) < 1e-9

    def test_unitary_invariance(self):
        (u,) = linalg.haar_unitary(RngStream(SeedSpec(55, 0)), 3, 1)
        rho = DensityMatrix(u @ np.diag([0.7, 0.2, 0.1]).astype(complex) @ u.conj().T)
        assert von_neumann_entropy(rho) == pytest.approx(0.801818552543337, abs=1e-9)


class TestCoherence:
    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_diagonal_state_has_none(self, m):
        # the diagonal and the spectrum hold the same numbers in different
        # orders, so their entropies must agree to the bit in every order
        weights = np.array([0.3, 0.5, 0.2, 0.15])[:m]
        for order in itertools.permutations(weights / weights.sum()):
            rho = DensityMatrix(np.diag(order).astype(complex))
            assert relative_entropy_of_coherence(rho) == 0.0

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 5), (3, 4), (4, 8), (16, 32)])
    def test_equals_the_two_entropies_to_the_bit(self, m, n):
        rhos = sample_mixing_state(RngStream(SeedSpec(1011, m)), EnsembleSpec(m, n), 400)
        reference = np.maximum(shannon_entropy(rhos.diagonal) - von_neumann_entropy(rhos), 0.0)
        assert np.array_equal(relative_entropy_of_coherence(rhos), reference)
        # one state, built from a matrix of the stack, gives a float
        single = DensityMatrix(rhos.matrix[0])
        assert relative_entropy_of_coherence(single) == max(
            shannon_entropy(single.diagonal) - von_neumann_entropy(single), 0.0)

    def test_a_negative_diagonal_entry_raises(self):
        rho = DensityMatrix(np.array([[1.1, 0.05], [0.05, -0.1]], dtype=complex))
        with pytest.raises(NumericalError):
            relative_entropy_of_coherence(rho)

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("variates", ["gammas", "complex_gaussians"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_a_non_finite_variate_raises(self, monkeypatch, m, variates, bad):
        # the diagonal is not validated again, so the spectrum must refuse
        # the draw; one bad variate in the middle of the stack
        draw = getattr(RngStream, variates)

        def spoiled(stream, *args):
            out = draw(stream, *args)
            out[out.size // 2] = bad
            return out

        monkeypatch.setattr(RngStream, variates, spoiled)
        with np.errstate(invalid="ignore"), pytest.raises(NumericalError):
            relative_entropy_of_coherence(
                sample_mixing_state(RngStream(SeedSpec(1012, 0)), EnsembleSpec(m, m + 1), 100))

    def test_uniform_superposition(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        rho = DensityMatrix(np.outer(v, v.conj()).astype(complex))
        assert relative_entropy_of_coherence(rho) == pytest.approx(LN2, abs=1e-9)

    def test_maximally_mixed_state_has_none(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        assert relative_entropy_of_coherence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_random_states(self):
        from randcoh.ensembles import EnsembleSpec, sample_mixing_state

        rhos = sample_mixing_state(RngStream(SeedSpec(66, 0)), EnsembleSpec(3, 4), 300)
        assert (relative_entropy_of_coherence(rhos) >= 0.0).all()

    def test_positive_for_off_diagonal_state(self):
        rho = DensityMatrix(np.array([[0.5, 0.2], [0.2, 0.5]], dtype=complex))
        assert relative_entropy_of_coherence(rho) > 1e-9


class TestSubentropy:
    def test_dimension_one(self):
        assert subentropy([1.0]) == 0.0

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_pure_spectrum(self, m):
        lam = np.zeros(m)
        lam[0] = 1.0
        assert subentropy(lam) == pytest.approx(0.0, abs=1e-12)

    def test_uniform_qubit(self):
        assert subentropy([0.5, 0.5]) == pytest.approx(LN2 - 0.5, abs=1e-12)

    @pytest.mark.parametrize("m", range(2, 17))
    def test_uniform_attains_the_maximum(self, m):
        uniform = np.full(m, 1.0 / m)
        assert subentropy(uniform) == pytest.approx(1.0 + math.log(m) - harmonic(m), abs=1e-10)

    @pytest.mark.parametrize("lam,expected", list(Q_ORACLE.items()))
    def test_against_literal_formula(self, lam, expected):
        assert subentropy(np.array(lam)) == pytest.approx(expected, abs=1e-10)

    def test_permutation_invariance(self):
        lam = np.array([0.55, 0.25, 0.15, 0.05])
        reference = subentropy(lam)
        rng = np.random.default_rng(3)
        for _ in range(10):
            assert subentropy(rng.permutation(lam)) == pytest.approx(reference, rel=1e-12)

    def test_near_degenerate_matches_confluent_path(self):
        assert subentropy([0.5, 0.5 - 1e-9]) == pytest.approx(subentropy([0.5, 0.5]), abs=1e-6)

    def test_perturbation_stability(self):
        # moving one eigenvalue by 1e-9 (renormalized) moves Q by < 1e-6
        for lam in random_spectra(100, seed=202):
            perturbed = lam.copy()
            perturbed[0] += 1e-9
            perturbed /= perturbed.sum()
            assert abs(subentropy(perturbed) - subentropy(lam)) < 1e-6

    def test_sandwich_bounds(self):
        # 0 <= Q <= S <= ln m on random spectra
        for lam in random_spectra(10_000, seed=303):
            q = subentropy(lam)
            s = shannon_entropy(lam)
            assert 0.0 <= q <= s + 1e-12
            assert s <= math.log(lam.size) + 1e-12

    def test_dimension_one_stack(self):
        assert np.array_equal(subentropy(np.ones((3, 1))), np.zeros(3))

    def test_cancellation_below_zero_is_a_numerical_error(self):
        # valid spectra at m = 64, on which the divided differences of
        # x^m ln x lost every digit and fell below 0: the quadrature holds
        lam = sample_mixing_spectrum(RngStream(SeedSpec(1, 0, 1)), EnsembleSpec(64, 64), 20)
        assert_matches_reference(lam)

    @pytest.mark.parametrize("m,eps,value", [(4, 1e-6, "0.84"), (8, 1e-3, "1.63")])
    def test_cancellation_above_the_maximum_is_a_numerical_error(self, m, eps, value):
        # near-uniform spectra, gaps 6.7e-7 at m = 4 and 2.9e-4 at m = 8, on
        # which the divided differences of x^m ln x gave `value`, far above
        # 1 + ln m - H_m: the quadrature holds, alone and in a stack
        lam = 1.0 / m + eps * np.linspace(-1.0, 1.0, m)
        assert_matches_reference(lam[None, :])
        assert not repr(subentropy(lam)).startswith(value)
        assert np.array_equal(subentropy(np.stack([np.full(m, 1.0 / m), lam]))[1], subentropy(lam))

    def test_a_value_above_the_maximum_is_a_numerical_error(self, monkeypatch):
        # a quadrature fault: the trapezoid weights of twice the step double
        # every sum, which puts the uniform spectrum at twice its maximum
        monkeypatch.setattr(functionals, "_STEP", 2 * functionals._STEP)
        with pytest.raises(NumericalError, match=r"^subentropy at m = 8: the quadrature gave .*, "
                                                 r"above the maximum 0\.36"):
            subentropy(np.full(8, 1.0 / 8))

    @pytest.mark.parametrize("m", [1030, 1100, 2048, 4096])
    def test_uniform_beyond_the_range_of_the_unscaled_coefficients(self, m):
        # C(m, m/2) overflows from m = 1030 on; the coefficients of mu / 2^s
        # do not.  The grid's error grows with m: 5.6e-13 at m = 4096
        assert functionals._coefficient_shift(m) > 0
        assert abs(subentropy(np.full(m, 1.0 / m)) - max_subentropy(m)) <= 1e-12

    def test_no_shift_up_to_m_1023(self):
        assert [functionals._coefficient_shift(m) for m in (1, 2, 1023, 1024, 1800, 2048)] == [0, 0, 0, 1, 2, 2]

    def test_a_power_of_two_shift_keeps_every_bit(self, monkeypatch):
        # the coefficients of mu / 8 at m = 64, evaluated at the nodes 8 tau,
        # give the unscaled sum's bits: every scaling is by a power of two
        near_uniform = np.full(64, 1 / 64) + 1e-4 * np.linspace(-1.0, 1.0, 64)
        lams = np.concatenate([induced_spectra(64, 20, seed=7), list(edge_variants(near_uniform).values())])
        unscaled = subentropy(lams)
        monkeypatch.setattr(functionals, "_LOG2_E_SUM_MAX", 20)
        assert functionals._coefficient_shift(64) == 3
        assert np.array_equal(subentropy(lams), unscaled)

    def test_strictly_below_maximum_off_uniform(self):
        for lam in random_spectra(500, seed=404):
            if np.ptp(lam) > 1e-3:
                assert subentropy(lam) < 1.0 + math.log(lam.size) - harmonic(lam.size)


class TestSubentropyOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 4, 8, 16, 32, 64, 128])
    def test_sampled_spectra(self, m):
        assert_matches_reference(induced_spectra(m, 40 if m <= 16 else 2, seed=606))

    @pytest.mark.parametrize("m", [2, 3, 4, 8, 16, 32, 64, 128])
    def test_ties_gaps_and_zeros(self, m):
        cases = [edge_variants(lam) for lam in induced_spectra(m, 4 if m <= 16 else 1, seed=707)]
        for name in cases[0]:
            assert_matches_reference(np.array([case[name] for case in cases]))

    @pytest.mark.parametrize("m", [2, 3, 4, 8, 16, 32, 64, 128])
    def test_uniform_and_near_uniform(self, m):
        # the uniform spectrum is one m-fold tie, where Q takes its maximum
        assert subentropy(np.full(m, 1.0 / m)) == pytest.approx(max_subentropy(m), abs=REFERENCE_TOL)
        assert_matches_reference(np.array([1.0 / m + eps * np.linspace(-1.0, 1.0, m) / m
                                           for eps in (1e-3, 1e-7, 1e-12)]))

    def test_gap_either_side_of_the_cluster_threshold(self):
        # gaps either side of GAP, which the divided differences took as
        # the threshold to merge nodes
        for factor in (0.5, 0.99, 1.01, 2.0):
            lam = np.array([0.5, 0.3, 0.2 - factor * GAP])
            lam[1] = 0.5 - lam[2]
            assert_matches_reference(lam[None, :])

    # a pair of nodes log-uniformly 1e-16 to 1e-2 apart, the rest Dirichlet
    @given(m=st.integers(2, 8), seed=st.integers(0, 2**32 - 1), log_gap=st.floats(-16.0, -2.0))
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_a_pair_gap_of_any_size(self, m, seed, log_gap):
        lam = dirichlet(RngStream(SeedSpec(seed, m)), 1.0, m)
        lam[1] = lam[0] + 10.0**log_gap
        assert_matches_reference((lam / lam.sum())[None, :])

    def test_isospectral_average_near_a_tie(self):
        # a gap of 2e-7, on which the divided differences were 1.3e-11 off
        lam = (0.5000001, 0.4999999)
        with mpmath.workdps(40):
            expected = float(mpmath.mpf(0.5) + mpmath.mpf(subentropy_reference(lam)))
        assert abs(isospectral_avg_diag_entropy(lam) - expected) <= 1e-14

    def test_stack_equals_row_by_row(self):
        lams = induced_spectra(8, 100, seed=808)
        values = subentropy(lams)
        assert values.shape == (100,)
        assert np.array_equal(values, [subentropy(lam) for lam in lams])
        assert subentropy(lams.reshape(10, 10, 8)).shape == (10, 10)

    def test_vector_input_gives_a_float(self):
        assert type(subentropy([0.6, 0.3, 0.1])) is float


class TestStackedFunctionals:
    def test_entropy_stack_equals_row_by_row(self):
        lams = induced_spectra(4, 100, seed=909)
        values = shannon_entropy(lams)
        assert np.array_equal(values, [shannon_entropy(lam) for lam in lams])
        assert type(shannon_entropy(lams[0])) is float

    def test_entropy_is_permutation_invariant_to_the_bit(self):
        p = np.array([0.4, 0.05, 0.3, 0.25])
        assert shannon_entropy(p) == shannon_entropy(p[::-1]) == shannon_entropy(np.sort(p))

    def test_coherence_of_a_stack_equals_state_by_state(self):
        stream = RngStream(SeedSpec(1010, 0))
        spec = EnsembleSpec(3, 4)
        rhos = sample_mixing_state(stream, spec, 50)
        values = relative_entropy_of_coherence(rhos)
        singles = [relative_entropy_of_coherence(DensityMatrix(m)) for m in rhos.matrix]
        assert values.shape == (50,)
        assert np.allclose(values, singles, rtol=0.0, atol=1e-14)
        assert von_neumann_entropy(rhos).shape == (50,)

    def test_bad_row_in_a_stack_raises(self):
        with pytest.raises(DomainError):
            shannon_entropy(np.array([[0.5, 0.5], [0.5, 0.4]]))


class TestNonFiniteInput:
    def test_all_nan_entropy_raises(self):
        with pytest.raises(DomainError):
            shannon_entropy([math.nan, math.nan])

    def test_partly_nan_entropy_raises(self):
        with pytest.raises(DomainError):
            shannon_entropy([0.5, math.nan])

    def test_nan_subentropy_raises(self):
        with pytest.raises(DomainError):
            subentropy([math.nan, math.nan])

    def test_nan_row_in_a_stack_raises(self):
        with pytest.raises(DomainError):
            shannon_entropy(np.array([[0.5, 0.5], [math.nan, 0.5]]))
        with pytest.raises(DomainError):
            subentropy(np.array([[0.5, 0.5], [math.inf, 0.0]]))
