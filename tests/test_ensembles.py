import math

import numpy as np
import pytest
from scipy import stats as sps

from randcoh import ensembles, functionals, linalg
from randcoh.ensembles import (
    DensityMatrix,
    EnsembleSpec,
    sample_diag_dirichlet,
    sample_ginibre,
    sample_induced_state,
    sample_isospectral_diagonal,
    sample_mixing_state,
    sample_wishart,
)
from randcoh.errors import ParameterError
from randcoh.randkit import RngStream, SeedSpec

H2 = 1.5
H4 = 25.0 / 12.0


def stream(master=31, index=0):
    return RngStream(SeedSpec(master, index))


class TestEnsembleSpec:
    def test_rejects_m_larger_than_n(self):
        with pytest.raises(ParameterError):
            EnsembleSpec(3, 2)

    def test_rejects_bad_counts(self):
        with pytest.raises(ParameterError):
            EnsembleSpec(0, 2)
        with pytest.raises(ParameterError):
            EnsembleSpec(2, 2, 0)

    def test_env_dim(self):
        assert EnsembleSpec(2, 3, k=4).env_dim == 12


class TestDensityMatrix:
    def test_rejects_wrong_trace(self):
        with pytest.raises(ParameterError):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))

    def test_rejects_nan_entries(self):
        with pytest.raises(ParameterError):
            DensityMatrix(np.array([[0.5, math.nan], [math.nan, 0.5]], dtype=complex))

    def test_stack_checks_every_trace(self):
        good = np.eye(2, dtype=complex) / 2.0
        with pytest.raises(ParameterError):
            DensityMatrix(np.stack([good, 2.0 * good]))

    def test_stack_holds_every_state(self):
        mats = np.stack([np.diag([0.7, 0.3]), np.diag([0.2, 0.8])]).astype(complex)
        rho = DensityMatrix(mats)
        assert rho.dim == 2
        assert np.array_equal(rho.diagonal, [[0.7, 0.3], [0.2, 0.8]])
        assert np.array_equal(rho.spectrum, [[0.7, 0.3], [0.8, 0.2]])

    def test_caches_diagonal_and_spectrum(self):
        rho = sample_induced_state(stream(), EnsembleSpec(3, 3))
        assert np.array_equal(rho.diagonal, np.real(np.diagonal(rho.matrix)))
        assert rho.spectrum is rho.spectrum  # second access reuses the cache


class TestGinibre:
    def test_frobenius_second_moment(self):
        s = stream(1)
        acc = 0.0
        n = 10_000
        for _ in range(n):
            z = sample_ginibre(s, 2, 3)
            acc += float(np.sum(np.abs(z) ** 2))
        assert abs(acc / n - 6.0) < 0.1

    def test_fixed_seed_is_bit_identical(self):
        assert np.array_equal(sample_ginibre(stream(8), 3, 4), sample_ginibre(stream(8), 3, 4))

    def test_different_streams_uncorrelated(self):
        n = 100_000
        a = stream(9, 0).complex_gaussians(n).real
        b = stream(9, 1).complex_gaussians(n).real
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ParameterError):
            sample_ginibre(stream(), 0, 3)

    def test_block_holds_the_sequential_draws(self):
        a, b = stream(15), stream(15)
        block = sample_ginibre(a, 3, 4, 25)
        assert block.shape == (25, 3, 4)
        assert np.array_equal(block, [sample_ginibre(b, 3, 4) for _ in range(25)])
        assert a.uniform() == b.uniform()  # and leaves the stream at the same place


class TestWishart:
    def test_mean_trace(self):
        s = stream(2)
        traces = [sample_wishart(s, 2, 3).trace().real for _ in range(10_000)]
        assert abs(np.mean(traces) - 6.0) < 0.15

    def test_diagonal_entry_is_gamma_n(self):
        # diagonal marginals of the Wishart ensemble are Gamma(n, 1)
        n = 4
        s = stream(3)
        w11 = np.array([sample_wishart(s, 2, n)[0, 0].real for _ in range(100_000)])
        d, _ = sps.kstest(w11, lambda x: sps.gamma.cdf(x, n))
        assert d < 0.01

    def test_positive_semidefinite(self):
        s = stream(4)
        for _ in range(100):
            vals = linalg.hermitian_eigenvalues(sample_wishart(s, 3, 5))
            assert vals.min() >= -1e-12

    def test_rejects_m_larger_than_n(self):
        with pytest.raises(ParameterError):
            sample_wishart(stream(), 4, 2)


class TestInducedState:
    def test_dimension_one_is_the_unit_state(self):
        rho = sample_induced_state(stream(), EnsembleSpec(1, 1))
        assert rho.matrix == pytest.approx(np.array([[1.0 + 0j]]))

    def test_diagonal_matches_dirichlet_mean(self):
        s = stream(5)
        spec = EnsembleSpec(2, 3)
        diags = np.array([sample_induced_state(s, spec).diagonal for _ in range(100_000)])
        assert np.abs(diags.mean(axis=0) - 0.5).max() < 0.005

    def test_mean_entropy_matches_page(self):
        # H_4 - H_2 - 1/4 = 1/3 for m = n = 2
        s = stream(6)
        spec = EnsembleSpec(2, 2)
        vals = [functionals.von_neumann_entropy(sample_induced_state(s, spec)) for _ in range(20_000)]
        assert abs(np.mean(vals) - 1.0 / 3.0) < 0.01

    def test_rejects_mixing_order(self):
        with pytest.raises(ParameterError):
            sample_induced_state(stream(), EnsembleSpec(2, 2, k=2))


class TestMixingState:
    def test_order_one_reduces_to_induced_sampler(self):
        a = sample_mixing_state(stream(12), EnsembleSpec(2, 3, k=1))
        b = sample_induced_state(stream(12), EnsembleSpec(2, 3))
        assert np.array_equal(a.matrix, b.matrix)

    def test_mean_coherence_order_two(self):
        # C-bar(E_2) = (m-1)/(4n) = 1/8 at m = n = 2
        s = stream(7)
        spec = EnsembleSpec(2, 2, k=2)
        vals = [functionals.relative_entropy_of_coherence(sample_mixing_state(s, spec))
                for _ in range(20_000)]
        assert abs(np.mean(vals) - 0.125) < 0.01

    @pytest.mark.parametrize("spec", [EnsembleSpec(1, 3), EnsembleSpec(2, 2), EnsembleSpec(3, 4, k=3)])
    def test_stack_holds_the_sequential_states(self, spec):
        a, b = stream(16), stream(16)
        stack = sample_mixing_state(a, spec, 40)
        singles = [sample_mixing_state(b, spec) for _ in range(40)]
        assert stack.matrix.shape == (40, spec.m, spec.m)
        assert np.array_equal(stack.matrix, [rho.matrix for rho in singles])
        assert np.array_equal(stack.spectrum, [rho.spectrum for rho in singles])
        assert a.uniform() == b.uniform()

    def test_unit_trace(self):
        s = stream(8)
        for _ in range(200):
            rho = sample_mixing_state(s, EnsembleSpec(3, 4, k=3))
            assert abs(rho.matrix.trace().real - 1.0) < 1e-12


class TestDiagDirichlet:
    def test_dimension_one(self):
        assert sample_diag_dirichlet(stream(), EnsembleSpec(1, 5)) == pytest.approx([1.0])

    def test_mean_diag_entropy(self):
        # average diagonal entropy is H_mn - H_n = H_4 - H_2 at m = n = 2
        s = stream(9)
        spec = EnsembleSpec(2, 2)
        vals = [functionals.shannon_entropy(sample_diag_dirichlet(s, spec)) for _ in range(100_000)]
        assert abs(np.mean(vals) - (H4 - H2)) < 0.005

    def test_matches_full_sampler_marginal(self):
        spec = EnsembleSpec(2, 3)
        n = 100_000
        s_full, s_diag = stream(10, 0), stream(10, 1)
        from_states = np.array([sample_induced_state(s_full, spec).diagonal[0] for _ in range(n)])
        direct = np.array([sample_diag_dirichlet(s_diag, spec)[0] for _ in range(n)])
        d, _ = sps.ks_2samp(from_states, direct)
        assert d < 0.01


class TestIsospectralDiagonal:
    def test_rank_one_case(self):
        d = sample_isospectral_diagonal(stream(), np.array([1.0, 0.0, 0.0]))
        assert abs(d.sum() - 1.0) < 1e-12
        assert d.min() >= 0.0

    def test_uniform_spectrum_is_fixed(self):
        d = sample_isospectral_diagonal(stream(11), np.full(3, 1.0 / 3.0))
        assert d == pytest.approx(np.full(3, 1.0 / 3.0), abs=1e-12)

    def test_stack_holds_the_sequential_diagonals(self):
        lam = np.array([0.6, 0.3, 0.1])
        a, b = stream(17), stream(17)
        stack = sample_isospectral_diagonal(a, lam, 30)
        assert np.array_equal(stack, [sample_isospectral_diagonal(b, lam) for _ in range(30)])

    def test_mean_diag_entropy_pure_qubit(self):
        # Haar average of S(diag) on the (1, 0) orbit is H_2 - 1 = 1/2
        s = stream(13)
        lam = np.array([1.0, 0.0])
        vals = [functionals.shannon_entropy(sample_isospectral_diagonal(s, lam))
                for _ in range(100_000)]
        assert abs(np.mean(vals) - 0.5) < 0.005


class TestEnsembleInvariants:
    @pytest.mark.parametrize("spec", [EnsembleSpec(2, 2), EnsembleSpec(3, 5), EnsembleSpec(2, 2, k=3)])
    def test_states_are_valid(self, spec):
        s = stream(spec.m * 100 + spec.n * 10 + spec.k)
        for _ in range(300):
            rho = sample_mixing_state(s, spec)
            assert abs(rho.matrix.trace().real - 1.0) < 1e-12
            assert np.array_equal(rho.matrix, rho.matrix.conj().T)
            spectrum = rho.spectrum
            assert spectrum.min() >= 0.0 and spectrum.max() <= 1.0

    def test_spectrum_statistics_unitarily_invariant(self):
        # conjugating every draw by a fixed unitary leaves entropy statistics alone
        spec = EnsembleSpec(3, 3)
        u = linalg.haar_unitary(stream(555), 3)
        n = 10_000
        s_plain, s_conj = stream(14, 0), stream(14, 1)
        plain = np.array([functionals.von_neumann_entropy(sample_induced_state(s_plain, spec))
                          for _ in range(n)])
        conjugated = []
        for _ in range(n):
            rho = sample_induced_state(s_conj, spec)
            conjugated.append(
                functionals.von_neumann_entropy(DensityMatrix(u @ rho.matrix @ u.conj().T))
            )
        conjugated = np.array(conjugated)
        gap = abs(plain.mean() - conjugated.mean())
        stderr = math.sqrt(plain.var() / n + conjugated.var() / n)
        assert gap < 3 * stderr
