import math

import mpmath
import numpy as np
import pytest

from randcoh import linalg
from randcoh.ensembles import DensityMatrix, EnsembleSpec, sample_mixing_state
from randcoh.errors import DomainError, ParameterError
from randcoh.functionals import (
    _CLUSTER_GAP,
    _ZERO_NODE,
    EULER_GAMMA,
    HarmonicTable,
    _g_derivative,
    harmonic,
    relative_entropy_of_coherence,
    shannon_entropy,
    subentropy,
    von_neumann_entropy,
)
from randcoh.randkit import RngStream, SeedSpec

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
        m = dims[i % len(dims)]
        yield stream.sample_symmetric_dirichlet(m, 1.0)


def induced_spectra(m, count, seed):
    """Spectra of count induced states at (m, 2m), the estimator's input."""
    return sample_mixing_state(RngStream(SeedSpec(seed, m)), EnsembleSpec(m, 2 * m), count).spectrum


# -- the scalar subentropy: the reference the vectorised one is held to ------
# One spectrum at a time, one node at a time, with math.log and Python's
# float power; this is how the package evaluated subentropy before the
# recursion ran on stacks.

def _oracle_g(x, m):
    return 0.0 if x == 0.0 else x**m * math.log(x)


def _oracle_g_derivative(x, m, r):
    if r == 0:
        return _oracle_g(x, m)
    if x == 0.0:
        return 0.0
    falling = math.factorial(m) // math.factorial(m - r)
    return falling * x ** (m - r) * (math.log(x) + harmonic(m) - harmonic(m - r))


def _oracle_clustered_nodes(lam):
    nodes = np.sort(lam)
    nodes[nodes < _ZERO_NODE] = 0.0
    out = np.empty_like(nodes)
    i = 0
    while i < nodes.size:
        j = i + 1
        while j < nodes.size and nodes[j] - nodes[j - 1] <= _CLUSTER_GAP:
            j += 1
        out[i:j] = nodes[i:j].mean() if j - i > 1 else nodes[i]
        i = j
    return out


def subentropy_oracle(lam) -> float:
    lam = np.clip(np.asarray(lam, dtype=np.float64), 0.0, None)
    m = lam.size
    if m == 1:
        return 0.0
    z = _oracle_clustered_nodes(lam)
    col = [_oracle_g(float(x), m) for x in z]
    for order in range(1, m):
        nxt = []
        for i in range(m - order):
            lo, hi = z[i], z[i + order]
            if hi == lo:
                nxt.append(_oracle_g_derivative(float(lo), m, order) / math.factorial(order))
            else:
                nxt.append((col[i + 1] - col[i]) / (hi - lo))
        col = nxt
    return max(-col[0], 0.0)


def edge_variants(lam):
    """lam with nodes tied, merged, just separate or zeroed, renormalized."""
    out = {}
    if lam.size >= 2:
        for name, gap in (("tie", 0.0), ("below_gap", 0.9 * _CLUSTER_GAP), ("above_gap", 1.1 * _CLUSTER_GAP),
                          ("far_above_gap", 10.0 * _CLUSTER_GAP)):
            v = lam.copy()
            v[1] = v[0] - gap
            out[name] = v
        for name, value in (("zero", 0.0), ("below_zero_node", 0.1 * _ZERO_NODE)):
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


# Absolute tolerance of the vectorised subentropy against the oracle.  numpy's
# log and power differ from libm's in the last bit for a few percent of
# arguments, and the (m-1)-th divided difference magnifies that by the
# inverse gaps of the spectrum, more at larger m (measured on 200 sampled
# spectra: 1.5e-15 at m <= 4, 3e-14 at m = 8, 3e-11 at m = 16).
ORACLE_TOL = {1: 2e-15, 2: 2e-15, 3: 2e-15, 8: 1e-12, 16: 1e-9}
# Nodes 1.1 and 10 times the confluence gap apart stay separate, and their
# first divided difference alone magnifies a 1-ulp difference in g by the
# inverse gap, 1e6 to 1e7; both evaluations are that far from the exact
# value there (measured: 4e-10 at m <= 4, 4e-9 at m = 8, 1.4e-7 at m = 16)
ABOVE_GAP_TOL = {2: 1e-8, 3: 1e-8, 8: 1e-7, 16: 1e-6}


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
        limit = HarmonicTable.TABLE_LIMIT
        for k in (limit + 1, limit + 12345):
            exact = math.fsum(1.0 / j for j in range(1, k + 1))
            assert harmonic(k) == pytest.approx(exact, rel=1e-13)

    def test_table_grows_on_demand(self):
        table = HarmonicTable()
        assert table.value(3000) == pytest.approx(harmonic(3000), rel=1e-15)


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
        u = linalg.haar_unitary(RngStream(SeedSpec(55, 0)), 3)
        rho = DensityMatrix(u @ np.diag([0.7, 0.2, 0.1]).astype(complex) @ u.conj().T)
        assert von_neumann_entropy(rho) == pytest.approx(0.801818552543337, abs=1e-9)


class TestCoherence:
    def test_diagonal_state_has_none(self):
        rho = DensityMatrix(np.diag([0.3, 0.5, 0.2]).astype(complex))
        assert relative_entropy_of_coherence(rho) == 0.0

    def test_uniform_superposition(self):
        v = np.array([1.0, 1.0]) / math.sqrt(2.0)
        rho = DensityMatrix(np.outer(v, v.conj()).astype(complex))
        assert relative_entropy_of_coherence(rho) == pytest.approx(LN2, abs=1e-9)

    def test_maximally_mixed_state_has_none(self):
        rho = DensityMatrix(np.eye(4, dtype=complex) / 4.0)
        assert relative_entropy_of_coherence(rho) == pytest.approx(0.0, abs=1e-12)

    def test_nonnegative_on_random_states(self):
        from randcoh.ensembles import EnsembleSpec, sample_mixing_state

        s = RngStream(SeedSpec(66, 0))
        for _ in range(300):
            assert relative_entropy_of_coherence(sample_mixing_state(s, EnsembleSpec(3, 4))) >= 0.0

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

    def test_strictly_below_maximum_off_uniform(self):
        for lam in random_spectra(500, seed=404):
            if np.ptp(lam) > 1e-3:
                assert subentropy(lam) < 1.0 + math.log(lam.size) - harmonic(lam.size)


class TestSubentropyOracle:
    @pytest.mark.parametrize("m", [1, 2, 3, 8, 16])
    def test_sampled_spectra(self, m):
        lams = induced_spectra(m, 200, seed=606)
        for lam, q in zip(lams, subentropy(lams)):
            assert abs(q - subentropy_oracle(lam)) <= ORACLE_TOL[m]

    @pytest.mark.parametrize("m", [2, 3, 8, 16])
    def test_ties_gaps_and_zeros(self, m):
        cases = [edge_variants(lam) for lam in induced_spectra(m, 50, seed=707)]
        for name in cases[0]:
            lams = np.array([case[name] for case in cases])
            tol = ABOVE_GAP_TOL[m] if name.endswith("above_gap") else ORACLE_TOL[m]
            for lam, q in zip(lams, subentropy(lams)):
                assert abs(q - subentropy_oracle(lam)) <= tol, name

    def test_gap_either_side_of_the_cluster_threshold(self):
        # below the gap the pair is merged and evaluated confluently, above it
        # stays a quotient; both sides agree with the scalar path
        for factor in (0.5, 0.99, 1.01, 2.0):
            lam = np.array([0.5, 0.3, 0.2 - factor * _CLUSTER_GAP])
            lam[1] = 0.5 - lam[2]
            assert subentropy(lam) == pytest.approx(subentropy_oracle(lam), abs=1e-8)

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


class TestDerivativeFormula:
    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_against_central_differences(self, r):
        # the confluent path leans on d^r/dx^r [x^m ln x]; check it against
        # high-precision central differences before trusting it
        m, x0, h = 4, mpmath.mpf("0.3"), mpmath.mpf("1e-4")
        g = lambda x: x**m * mpmath.log(x)
        with mpmath.workdps(40):
            if r == 1:
                fd = (g(x0 + h) - g(x0 - h)) / (2 * h)
            elif r == 2:
                fd = (g(x0 + h) - 2 * g(x0) + g(x0 - h)) / h**2
            else:
                fd = (g(x0 + 2 * h) - 2 * g(x0 + h) + 2 * g(x0 - h) - g(x0 - 2 * h)) / (2 * h**3)
        assert _g_derivative(0.3, m, r) == pytest.approx(float(fd), abs=1e-6)

    def test_vanishes_at_zero_below_top_order(self):
        for r in range(4):
            assert _g_derivative(0.0, 4, r) == 0.0
