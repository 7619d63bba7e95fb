import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from randcoh import ensembles, functionals, linalg, mc
from randcoh.ensembles import (
    DensityMatrix,
    EnsembleSpec,
    sample_diag_dirichlet,
    sample_ginibre,
    sample_isospectral_diagonal,
    sample_mixing_spectrum,
    sample_mixing_state,
    sample_wishart,
)
from randcoh.errors import DomainError, ParameterError
from randcoh.randkit import RngStream, SeedSpec
from test_randkit import dirichlet

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

    @pytest.mark.parametrize("m,n,k", [(2.5, 3, 1), (2.0, 3, 1), (2, 3.0, 1), (2, 3, 1.0), ("2", 3, 1)])
    def test_rejects_non_integer_sizes(self, m, n, k):
        with pytest.raises(ParameterError):
            EnsembleSpec(m, n, k)

    def test_accepts_numpy_integers(self):
        assert EnsembleSpec(np.int64(2), np.int32(3), np.uint8(2)).env_dim == 6

    @pytest.mark.parametrize("m,n,k", [(True, 2, 1), (1, True, 1), (2, 2, True)])
    def test_rejects_bools(self, m, n, k):
        # a bool is an int to isinstance, and would pass as 1
        with pytest.raises(ParameterError):
            EnsembleSpec(m, n, k)


class TestDensityMatrix:
    def test_rejects_wrong_trace(self):
        with pytest.raises(ParameterError):
            DensityMatrix(np.diag([0.6, 0.6]).astype(complex))

    def test_rejects_nan_entries(self):
        with pytest.raises(ParameterError):
            DensityMatrix(np.array([[0.5, math.nan], [math.nan, 0.5]], dtype=complex))

    # averaging a non-Hermitian matrix with its adjoint would make it another
    # state: [[.5, .3], [-.3, .5]] the maximally mixed one, [[.5, 1], [0, .5]]
    # a pure one
    @pytest.mark.parametrize("matrix", [[[0.5, 0.3], [-0.3, 0.5]], [[0.5, 1.0], [0.0, 0.5]],
                                        [[0.5, 0.2j], [0.2j, 0.5]]])
    def test_rejects_non_hermitian_input(self, matrix):
        with pytest.raises(ParameterError):
            DensityMatrix(np.array(matrix, dtype=complex))

    def test_stack_checks_every_member_is_hermitian(self):
        good = np.eye(2, dtype=complex) / 2.0
        bad = np.array([[0.5, 0.3], [-0.3, 0.5]], dtype=complex)
        with pytest.raises(ParameterError):
            DensityMatrix(np.stack([good, bad, good]))

    def test_rounding_noise_is_averaged_away(self):
        matrix = np.array([[0.5, 0.3 + 1e-17j], [0.3 + 3e-17, 0.5]])
        rho = DensityMatrix(matrix)
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)
        assert rho.matrix[0, 1] == pytest.approx(0.3, abs=1e-16)

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

    @pytest.mark.parametrize("m", [2, 4])
    def test_spectrum_checks_the_matrix_once(self, monkeypatch, m):
        # the constructor checks the matrix and makes it exactly Hermitian;
        # its spectrum is solved without a second check, to the same bits
        matrix = sample_mixing_state(stream(14), EnsembleSpec(m, m + 1), 50).matrix
        checked = []
        check = linalg.check_hermitian
        monkeypatch.setattr(linalg, "check_hermitian", lambda a: checked.append(a.shape) or check(a))
        rho = DensityMatrix(matrix)
        spectrum = rho.spectrum
        assert checked == [(50, m, m)]
        assert np.array_equal(spectrum, linalg.clamp_spectrum(linalg.hermitian_eigenvalues(rho.matrix)))

    def test_caches_diagonal_and_spectrum(self):
        rho = sample_mixing_state(stream(), EnsembleSpec(3, 3), 1)
        assert np.array_equal(rho.diagonal, np.real(np.diagonal(rho.matrix, axis1=-2, axis2=-1)))
        assert rho.spectrum is rho.spectrum  # second access reuses the cache


class TestGinibre:
    def test_frobenius_second_moment(self):
        n = 10_000
        z = sample_ginibre(stream(1), 2, 3, n)
        assert abs(float(np.sum(np.abs(z) ** 2)) / n - 6.0) < 0.1

    def test_fixed_seed_is_bit_identical(self):
        assert np.array_equal(sample_ginibre(stream(8), 3, 4, 5), sample_ginibre(stream(8), 3, 4, 5))

    def test_different_streams_uncorrelated(self):
        n = 100_000
        a = stream(9, 0).complex_gaussians(n).real
        b = stream(9, 1).complex_gaussians(n).real
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01

    def test_rejects_empty_dimensions(self):
        with pytest.raises(ParameterError):
            sample_ginibre(stream(), 0, 3, 1)

    def test_block_holds_the_sequential_draws(self):
        # a stack of 25 holds the matrices of 25 stacks of one
        a, b = stream(15), stream(15)
        block = sample_ginibre(a, 3, 4, 25)
        assert block.shape == (25, 3, 4)
        assert np.array_equal(block, np.concatenate([sample_ginibre(b, 3, 4, 1) for _ in range(25)]))
        assert a.uniforms(1) == b.uniforms(1)  # and leaves the stream at the same place


class TestWishart:
    def test_mean_trace(self):
        traces = np.trace(sample_wishart(stream(2), 2, 3, 10_000), axis1=-2, axis2=-1).real
        assert abs(np.mean(traces) - 6.0) < 0.15

    def test_diagonal_entry_is_gamma_n(self):
        # diagonal marginals of the Wishart ensemble are Gamma(n, 1)
        n = 4
        w11 = sample_wishart(stream(3), 2, n, 100_000)[:, 0, 0].real
        d, _ = sps.kstest(w11, lambda x: sps.gamma.cdf(x, n))
        assert d < 0.01

    def test_positive_semidefinite(self):
        vals = linalg.hermitian_eigenvalues(sample_wishart(stream(4), 3, 5, 100))
        assert vals.min() >= -1e-12

    def test_rejects_m_larger_than_n(self):
        with pytest.raises(ParameterError):
            sample_wishart(stream(), 4, 2, 1)


class TestInducedState:
    def test_dimension_one_is_the_unit_state(self):
        rho = sample_mixing_state(stream(), EnsembleSpec(1, 1), 1)
        assert rho.matrix == pytest.approx(np.array([[[1.0 + 0j]]]))

    def test_diagonal_matches_dirichlet_mean(self):
        diags = sample_mixing_state(stream(5), EnsembleSpec(2, 3), 100_000).diagonal
        assert np.abs(diags.mean(axis=0) - 0.5).max() < 0.005

    def test_mean_entropy_matches_page(self):
        # H_4 - H_2 - 1/4 = 1/3 for m = n = 2
        states = sample_mixing_state(stream(6), EnsembleSpec(2, 2), 20_000)
        vals = functionals.von_neumann_entropy(states)
        assert abs(np.mean(vals) - 1.0 / 3.0) < 0.01


class TestMixingState:
    def test_mean_coherence_order_two(self):
        # C-bar(E_2) = (m-1)/(4n) = 1/8 at m = n = 2
        states = sample_mixing_state(stream(7), EnsembleSpec(2, 2, k=2), 20_000)
        vals = functionals.relative_entropy_of_coherence(states)
        assert abs(np.mean(vals) - 0.125) < 0.01

    @pytest.mark.parametrize("spec", [EnsembleSpec(1, 3), EnsembleSpec(2, 2), EnsembleSpec(3, 4, k=3)])
    def test_single_state_is_the_stack_of_one(self, spec):
        # one state is drawn as the stack of one, from its own Bartlett factor
        a, b = stream(16), stream(16)
        one = sample_mixing_state(a, spec, 1)
        expected = bartlett_reference(b, spec, 1)
        assert one.matrix.shape == (1, spec.m, spec.m)
        assert one.diagonal.shape == one.spectrum.shape == (1, spec.m)
        np.testing.assert_allclose(one.matrix, expected, rtol=0.0, atol=1e-15)
        assert a.uniforms(1) == b.uniforms(1)

    @pytest.mark.parametrize("spec", [EnsembleSpec(1, 3), EnsembleSpec(2, 2), EnsembleSpec(3, 4, k=3),
                                      EnsembleSpec(5, 7)])
    def test_stack_is_built_from_one_gamma_and_one_normal_block(self, spec):
        a, b = stream(18), stream(18)
        stack = sample_mixing_state(a, spec, 40)
        expected = bartlett_reference(b, spec, 40)
        assert stack.matrix.shape == (40, spec.m, spec.m)
        np.testing.assert_allclose(stack.matrix, expected, rtol=0.0, atol=1e-15)
        assert a.uniforms(1) == b.uniforms(1)

    def test_dimension_one_is_exactly_one(self):
        assert np.array_equal(sample_mixing_state(stream(19), EnsembleSpec(1, 5, k=2), 30).matrix,
                              np.ones((30, 1, 1)))

    def test_unit_trace(self):
        rho = sample_mixing_state(stream(8), EnsembleSpec(3, 4, k=3), 200)
        assert np.abs(np.trace(rho.matrix, axis1=-2, axis2=-1).real - 1.0).max() < 1e-12


class TestFactorReadState:
    """sample_mixing_state reads each state off its Bartlett factor L and
    forms the matrix only when it is read."""

    @pytest.mark.parametrize("spec", [EnsembleSpec(1, 3), EnsembleSpec(2, 2), EnsembleSpec(2, 2, k=3),
                                      EnsembleSpec(3, 4, k=3), EnsembleSpec(5, 7), EnsembleSpec(8, 16)])
    def test_matrix_agrees_with_diagonal_and_spectrum(self, spec):
        states = sample_mixing_state(stream(90), spec, 300)
        spectrum, matrix = states.spectrum, states.matrix
        assert np.array_equal(matrix, matrix.conj().swapaxes(-1, -2))
        assert np.abs(np.trace(matrix, axis1=-2, axis2=-1) - 1.0).max() <= 1e-14
        diagonal = np.diagonal(matrix, axis1=-2, axis2=-1)
        assert np.array_equal(diagonal.real, states.diagonal)
        assert not diagonal.imag.any()
        assert np.abs(np.linalg.eigvalsh(matrix)[:, ::-1] - spectrum).max() <= 1e-15

    @pytest.mark.parametrize("spec", [EnsembleSpec(2, 3), EnsembleSpec(4, 8, k=2)])
    def test_diagonal_is_the_row_norms_of_the_factor(self, spec):
        states = sample_mixing_state(stream(91), spec, 200)
        low = bartlett_factor(stream(91), spec, 200)
        norms = (np.abs(low) ** 2).sum(axis=-1)
        np.testing.assert_allclose(states.wishart_diagonal, norms, rtol=1e-15)
        np.testing.assert_allclose(states.diagonal, norms / norms.sum(axis=-1, keepdims=True), rtol=1e-15)

    def test_estimators_never_form_the_matrix(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an estimator formed a Gram matrix or averaged a stack")

        monkeypatch.setattr(linalg, "gram", refuse)
        monkeypatch.setattr(linalg, "hermitize", refuse)
        for quantity in ("coherence", "diag_entropy"):
            stats = mc.estimate(mc.EstimatorConfig(EnsembleSpec(3, 4), quantity, 1500, master_seed=92))
            assert stats.count == 1500
        fraction, _ = mc.empirical_concentration(EnsembleSpec(3, 3), 0.1, 1000, master_seed=92)
        assert 0.0 < fraction < 1.0

    @pytest.mark.usefixtures("chunks_of_4096")
    @pytest.mark.parametrize("quantity", ["coherence", "diag_entropy", "entropy", "subentropy"])
    def test_qubit_estimates_form_no_matrix_stack(self, monkeypatch, quantity):
        # at m = 2 states and spectra are solved from their variates alone
        def refuse(*args):
            raise AssertionError("an m = 2 estimate formed a stack of matrices")

        for owner, name in [(ensembles, "_lower_factor"), (ensembles, "_laguerre_tridiagonal"),
                            (linalg, "gram"), (linalg, "hermitize"),
                            (linalg, "factor_gram_eigenvalues"), (linalg, "hermitian_eigenvalues"),
                            (linalg, "exact_hermitian_eigenvalues")]:
            monkeypatch.setattr(owner, name, refuse)
        config = mc.EstimatorConfig(EnsembleSpec(2, 3, k=2), quantity, 3000, master_seed=93)
        assert len(mc._chunks(mc._draw_key(config))) == 3
        assert mc.estimate(config).count == 3000


class TestQubitDraws:
    """At m = 2 the states are read off their Bartlett variates and the
    spectra off their Laguerre variates, elementwise, with the arithmetic
    of the matrix routes."""

    draws = dict(
        seed=st.integers(0, 2**64 - 1),
        kn=st.integers(2, 10**4),
        size=st.integers(1, 50),
    )

    @given(**draws)
    @example(seed=0, kn=2, size=1)
    @example(seed=2**64 - 1, kn=10**4, size=50)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_states_are_those_of_their_factors(self, seed, kn, size):
        spec = EnsembleSpec(2, kn)
        states = sample_mixing_state(RngStream(SeedSpec(seed)), spec, size)
        low = bartlett_factor(RngStream(SeedSpec(seed)), spec, size)
        norms = ensembles._row_norms(low)
        trace = norms.sum(axis=-1, keepdims=True)
        assert np.array_equal(states.wishart_diagonal, norms)
        assert np.array_equal(states.diagonal, norms / trace)
        products = low @ low.conj().swapaxes(-1, -2)
        expected = linalg.hermitian_eigenvalues(products) / trace
        scale = np.abs(products).max(axis=(-2, -1))[:, None] / trace
        assert (np.abs(states.spectrum - expected) <= 8 * np.finfo(float).eps * scale).all()

    @given(**draws)
    @example(seed=0, kn=2, size=1)
    @example(seed=2**64 - 1, kn=10**4, size=50)
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_spectra_are_those_of_their_tridiagonals(self, seed, kn, size):
        spectra = sample_mixing_spectrum(RngStream(SeedSpec(seed)), EnsembleSpec(2, kn), size)
        g = RngStream(SeedSpec(seed)).gammas(np.tile([kn, kn - 1, 1.0], size), 3 * size).reshape(size, 3)
        vals = linalg.exact_hermitian_eigenvalues(ensembles._laguerre_tridiagonal(g, 2))
        assert np.array_equal(spectra, linalg.clamp_spectrum(vals / g.sum(axis=-1, keepdims=True)))


def bartlett_factor(s, spec, count):
    """The (count, m, m) stack of the Bartlett factors L whose states
    sample_mixing_state draws from the same stream."""
    return ensembles._lower_factor(*ensembles._bartlett_variates(s, spec, count))


def bartlett_reference(s, spec, count):
    """count states of spec built one at a time, as the Bartlett sampler lays
    out its variates: one gammas block of the m diagonal variates of every
    draw (shapes kn, kn - 1, ..., kn - m + 1), then one complex_gaussians
    block of every draw's strict lower triangle, row by row.  Each state is
    L L^dagger / tr(L L^dagger) for the explicit triangle L."""
    m, kn = spec.m, spec.env_dim
    g = s.gammas(np.tile(kn - np.arange(m), count).astype(float), count * m).reshape(count, m)
    z = s.complex_gaussians(count * m * (m - 1) // 2).reshape(count, -1)
    states = []
    for diag, below in zip(g, z):
        low = np.diag(np.sqrt(diag)).astype(complex)
        entries = iter(below)
        for i in range(m):
            for j in range(i):
                low[i, j] = next(entries)
        w = low @ low.conj().T
        states.append(w / np.trace(w).real)
    return np.array(states)


def ginibre_grams(spec, size, seed):
    """The Gram matrices W of size explicit m x kn Ginibre blocks of spec,
    the reference construction, and their traces, in chunks."""
    s = RngStream(seed)
    for c in mc.chunk_sizes(size, spec.m * spec.env_dim):
        w = linalg.gram(sample_ginibre(s, spec.m, spec.env_dim, c))
        yield w, np.trace(w, axis1=-2, axis2=-1).real[:, None]


def ginibre_states(spec, size, seed, statistic):
    """statistic(rho) of size states W / tr W of spec (ginibre_grams)."""
    return np.concatenate([statistic(DensityMatrix(w / trace[..., None]))
                           for w, trace in ginibre_grams(spec, size, seed)])


def bartlett_states(spec, size, s, statistic):
    """statistic(rho) of size states of spec drawn by sample_mixing_state
    from stream s, in the estimators' chunks."""
    return np.concatenate([statistic(sample_mixing_state(s, spec, c))
                           for c in mc.chunk_sizes(size, spec.m * (spec.m + 1) // 2)])


def ginibre_spectra(spec, size, seed):
    """size spectra of spec's states drawn as Ginibre states."""
    return np.concatenate([linalg.hermitian_eigenvalues(w) / trace
                           for w, trace in ginibre_grams(spec, size, seed)])


def laguerre_spectra(spec, size, seed):
    """size spectra of spec's states drawn from the Laguerre model."""
    s = RngStream(seed)
    return np.concatenate([sample_mixing_spectrum(s, spec, c) for c in mc.chunk_sizes(size, 2 * spec.m - 1)])


def state_statistics(rho):
    """Per state: coherence, rho_00, Re rho_01 and the largest eigenvalue."""
    return np.stack([functionals.relative_entropy_of_coherence(rho), rho.matrix[:, 0, 0].real,
                     rho.matrix[:, 0, 1].real, rho.spectrum[:, 0]], axis=1)


class LoudStream(RngStream):
    """A stream whose complex Gaussians have E|z|^2 = 2 instead of 1."""

    def complex_gaussians(self, n):
        return math.sqrt(2.0) * super().complex_gaussians(n)


class TestBartlettMatchesGinibre:
    # the Bartlett states must follow the law of the Ginibre states: two-sample
    # KS of the coherence, rho_00, Re rho_01 and the largest eigenvalue at the
    # 1% level.  The same Ginibre draws must tell apart Bartlett states with
    # Gamma shapes kn + 1 - i (the sampler fed kn + 1) and Bartlett states
    # whose off-diagonal entries have E|z|^2 = 2, on the coherence and on the
    # largest eigenvalue
    @pytest.mark.parametrize("spec", [EnsembleSpec(2, 2), EnsembleSpec(4, 8), EnsembleSpec(2, 2, k=3),
                                      EnsembleSpec(16, 32)])
    def test_two_sample_ks(self, spec):
        size = 10_000
        critical = mc.ks_critical_value(size, alpha=0.01, n2=size)
        ginibre = ginibre_states(spec, size, SeedSpec(45, 0), state_statistics)
        bartlett = bartlett_states(spec, size, RngStream(SeedSpec(45, 1)), state_statistics)
        for column in range(4):
            assert mc.ks_two_sample(ginibre[:, column], bartlett[:, column]) < critical
        miskeyed = bartlett_states(EnsembleSpec(spec.m, spec.env_dim + 1), size, RngStream(SeedSpec(45, 1)),
                                   state_statistics)
        loud = bartlett_states(spec, size, LoudStream(SeedSpec(45, 1)), state_statistics)
        for wrong in (miskeyed, loud):
            for column in (0, 3):
                assert mc.ks_two_sample(ginibre[:, column], wrong[:, column]) > critical


class TestMixingSpectrum:
    @pytest.mark.parametrize("spec", [EnsembleSpec(2, 2), EnsembleSpec(4, 8), EnsembleSpec(3, 5, k=3)])
    def test_rows_are_descending_unit_sum_spectra(self, spec):
        lam = sample_mixing_spectrum(stream(40), spec, 500)
        assert lam.shape == (500, spec.m)
        assert (np.diff(lam, axis=1) <= 0.0).all()
        assert lam.min() >= 0.0
        assert np.abs(lam.sum(axis=1) - 1.0).max() < 1e-12

    def test_dimension_one_is_the_point_mass(self):
        assert np.array_equal(sample_mixing_spectrum(stream(41), EnsembleSpec(1, 4, k=2), 50), np.ones((50, 1)))

    @pytest.mark.parametrize("spec", [EnsembleSpec(1, 2), EnsembleSpec(3, 4), EnsembleSpec(8, 16)])
    def test_no_draws_is_an_empty_stack(self, spec):
        s = stream(43)
        assert sample_mixing_spectrum(s, spec, 0).shape == (0, spec.m)
        assert sample_mixing_state(s, spec, 0).spectrum.shape == (0, spec.m)
        assert np.array_equal(s.uniforms(5), stream(43).uniforms(5))

    def test_tridiagonals_are_solved_unchecked(self, monkeypatch):
        # they are exactly symmetric and finite by construction
        def refuse(*args):
            raise AssertionError("a Laguerre tridiagonal was checked")

        monkeypatch.setattr(linalg, "check_hermitian", refuse)
        lam = sample_mixing_spectrum(stream(44), EnsembleSpec(4, 8), 300)
        assert lam.shape == (300, 4)

    def test_depends_on_the_environment_only_through_kn(self):
        a = sample_mixing_spectrum(stream(42), EnsembleSpec(2, 2, k=3), 300)
        b = sample_mixing_spectrum(stream(42), EnsembleSpec(2, 6), 300)
        assert np.array_equal(a, b)

    # the two routes must give the same law of the spectrum: two-sample KS of
    # the largest eigenvalue and of the entropy at the 1% level; the same
    # Ginibre draws must tell the Laguerre spectra at kn + 1 apart
    @pytest.mark.parametrize("spec", [EnsembleSpec(2, 2), EnsembleSpec(4, 8), EnsembleSpec(2, 2, k=3),
                                      EnsembleSpec(16, 32)])
    def test_matches_the_ginibre_route(self, spec):
        size = 10_000
        ginibre = ginibre_spectra(spec, size, SeedSpec(44, 0))
        laguerre = laguerre_spectra(spec, size, SeedSpec(44, 1))
        miskeyed = laguerre_spectra(EnsembleSpec(spec.m, spec.env_dim + 1), size, SeedSpec(44, 1))
        critical = mc.ks_critical_value(size, alpha=0.01, n2=size)
        for statistic in (lambda lam: lam[:, 0], functionals.shannon_entropy):
            assert mc.ks_two_sample(statistic(ginibre), statistic(laguerre)) < critical
            assert mc.ks_two_sample(statistic(ginibre), statistic(miskeyed)) > critical


class TestDiagDirichlet:
    def test_dimension_one(self):
        assert sample_diag_dirichlet(stream(), EnsembleSpec(1, 5), 3) == pytest.approx(np.ones((3, 1)))

    def test_mean_diag_entropy(self):
        # average diagonal entropy is H_mn - H_n = H_4 - H_2 at m = n = 2
        diags = sample_diag_dirichlet(stream(9), EnsembleSpec(2, 2), 100_000)
        vals = functionals.shannon_entropy(diags)
        assert abs(np.mean(vals) - (H4 - H2)) < 0.005

    def test_single_draw_is_the_stack_of_one(self):
        # one vector is drawn as the stack of one: m Gamma(kn) variates over their sum
        one = sample_diag_dirichlet(stream(12), EnsembleSpec(3, 4, k=2), 1)
        assert one.shape == (1, 3)
        assert np.array_equal(one[0], dirichlet(stream(12), 8.0, 3))

    def test_stack_rows_follow_the_dirichlet_law(self):
        # Dirichlet(a, ..., a) of length m: mean 1/m, variance (m-1)/(m^2 (m a + 1))
        m, a, size = 3, 4.0, 20_000
        d = sample_diag_dirichlet(stream(13), EnsembleSpec(m, 4), size=size)
        assert d.shape == (size, m)
        assert np.abs(d.sum(axis=1) - 1.0).max() < 1e-12
        var = (m - 1) / (m * m * (m * a + 1))
        assert np.abs(d.mean(axis=0) - 1.0 / m).max() < 5 * math.sqrt(var / size)
        assert d[:, 0].var() == pytest.approx(var, rel=0.05)

    def test_matches_full_sampler_marginal(self):
        spec = EnsembleSpec(2, 3)
        n = 100_000
        s_full, s_diag = stream(10, 0), stream(10, 1)
        from_states = sample_mixing_state(s_full, spec, n).diagonal[:, 0]
        direct = sample_diag_dirichlet(s_diag, spec, n)[:, 0]
        d, _ = sps.ks_2samp(from_states, direct)
        assert d < 0.01


class TestIsospectralDiagonal:
    def test_rank_one_case(self):
        (d,) = sample_isospectral_diagonal(stream(), np.array([1.0, 0.0, 0.0]), 1)
        assert abs(d.sum() - 1.0) < 1e-12
        assert d.min() >= 0.0

    def test_uniform_spectrum_is_fixed(self):
        d = sample_isospectral_diagonal(stream(11), np.full(3, 1.0 / 3.0), 5)
        assert d == pytest.approx(np.full((5, 3), 1.0 / 3.0), abs=1e-12)

    # numpy's own row sums change their order from 8 entries on
    @pytest.mark.parametrize("m", [3, 8, 9, 16])
    def test_stack_holds_the_sequential_diagonals(self, m):
        lam = np.arange(m, 0, -1) / (m * (m + 1) / 2)
        # a stack of 30 holds the diagonals of 30 stacks of one
        a, b = stream(17), stream(17)
        stack = sample_isospectral_diagonal(a, lam, 30)
        assert np.array_equal(stack, np.concatenate([sample_isospectral_diagonal(b, lam, 1) for _ in range(30)]))

    def test_mean_diag_entropy_pure_qubit(self):
        # Haar average of S(diag) on the (1, 0) orbit is H_2 - 1 = 1/2
        diags = sample_isospectral_diagonal(stream(13), np.array([1.0, 0.0]), 100_000)
        vals = functionals.shannon_entropy(diags)
        assert abs(np.mean(vals) - 0.5) < 0.005


class TestGramSchmidtOrbit:
    """The orbit sampler's m - 1 Gram-Schmidt columns against the reference
    construction: the whole phase-corrected QR unitary of linalg."""

    @pytest.mark.parametrize("lam", [(0.3, 0.7), (0.1, 0.3, 0.6), (0.05, 0.1, 0.15, 0.3, 0.4)])
    def test_diagonals_match_the_qr_route(self, lam):
        # the largest eigenvalue is the last one, which the sampler reads
        # off the row complement of the other columns
        lam = np.array(lam)
        n = 20_000
        orbit = sample_isospectral_diagonal(stream(71), lam, n)
        qr = linalg.unitary_conjugate_diagonal(linalg.haar_unitary(stream(72), lam.size, n), lam)
        for i in (0, lam.size - 1):
            assert sps.ks_2samp(orbit[:, i], qr[:, i]).pvalue > 1e-3

    @pytest.mark.parametrize("m", [2, 3, 5, 8])
    def test_a_pure_spectrum_gives_beta_diagonals(self, m):
        # at lam = e_1 the entry d_0 = |U_00|^2 of a Haar unitary is
        # Beta(1, m - 1), whose CDF is 1 - (1 - x)^(m - 1)
        lam = np.zeros(m)
        lam[0] = 1.0
        d0 = sample_isospectral_diagonal(stream(73, m), lam, 20_000)[:, 0]
        assert sps.kstest(d0, lambda x: 1.0 - (1.0 - x) ** (m - 1)).pvalue > 1e-3

    @pytest.mark.parametrize("m", [2, 3, 5, 16])
    def test_the_uniform_spectrum_is_fixed(self, m):
        d = sample_isospectral_diagonal(stream(74, m), np.full(m, 1.0 / m), 200)
        assert np.abs(d - 1.0 / m).max() <= 1e-15

    def test_dimension_one_returns_the_spectrum_without_drawing(self):
        s = stream(75)
        d = sample_isospectral_diagonal(s, np.array([1.0]), 50)
        assert np.array_equal(d, np.ones((50, 1)))
        assert np.array_equal(s.normals(5), stream(75).normals(5))

    @pytest.mark.parametrize("lam", [[math.nan, 0.5], [0.9, 0.5], [0.5, -0.5, 1.0], [[0.5, 0.5]], 1.0])
    def test_refuses_what_is_not_one_probability_vector(self, lam):
        # NaN diagonals, or numbers from a spectrum that sums to 1.4
        with pytest.raises(DomainError):
            sample_isospectral_diagonal(stream(76), lam, 3)


class TestEnsembleInvariants:
    @pytest.mark.parametrize("spec", [EnsembleSpec(2, 2), EnsembleSpec(3, 5), EnsembleSpec(2, 2, k=3)])
    def test_states_are_valid(self, spec):
        rho = sample_mixing_state(stream(spec.m * 100 + spec.n * 10 + spec.k), spec, 300)
        assert np.abs(np.trace(rho.matrix, axis1=-2, axis2=-1).real - 1.0).max() < 1e-12
        assert np.array_equal(rho.matrix, rho.matrix.conj().swapaxes(-1, -2))
        spectrum = rho.spectrum
        assert spectrum.min() >= 0.0 and spectrum.max() <= 1.0

    def test_spectrum_statistics_unitarily_invariant(self):
        # conjugating every draw by a fixed unitary leaves entropy statistics alone
        spec = EnsembleSpec(3, 3)
        (u,) = linalg.haar_unitary(stream(555), 3, 1)
        n = 10_000
        s_plain, s_conj = stream(14, 0), stream(14, 1)
        plain = functionals.von_neumann_entropy(sample_mixing_state(s_plain, spec, n))
        rho = sample_mixing_state(s_conj, spec, n)
        conjugated = functionals.von_neumann_entropy(DensityMatrix(u @ rho.matrix @ u.conj().T))
        gap = abs(plain.mean() - conjugated.mean())
        stderr = math.sqrt(plain.var() / n + conjugated.var() / n)
        assert gap < 3 * stderr
