import math

import numpy as np
import pytest

from randcoh import linalg
from randcoh.errors import NumericalError, ParameterError
from randcoh.randkit import RngStream, SeedSpec


def stream(master=77, index=0):
    return RngStream(SeedSpec(master, index))


def random_hermitian(rng, m):
    a = rng.standard_normal((m, m)) + 1j * rng.standard_normal((m, m))
    return 0.5 * (a + a.conj().T)


class TestGram:
    def test_identity(self):
        assert np.array_equal(linalg.gram(np.eye(2)), np.eye(2))

    def test_row_vector(self):
        w = linalg.gram(np.array([[1.0, 1.0j]]))
        assert w.shape == (1, 1)
        assert w[0, 0] == pytest.approx(2.0)

    def test_output_is_exactly_hermitian_and_psd(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            z = rng.standard_normal((3, 5)) + 1j * rng.standard_normal((3, 5))
            w = linalg.gram(z)
            assert np.array_equal(w, w.conj().T)
            assert linalg.hermitian_eigenvalues(w).min() >= -1e-12


    def test_stack_equals_matrix_by_matrix(self):
        rng = np.random.default_rng(3)
        z = rng.standard_normal((20, 3, 5)) + 1j * rng.standard_normal((20, 3, 5))
        assert np.array_equal(linalg.gram(z), [linalg.gram(x) for x in z])


class TestHermitianEigenvalues:
    def test_diagonal_matrix_sorted_descending(self):
        vals = linalg.hermitian_eigenvalues(np.diag([3.0, 1.0, 2.0]).astype(complex))
        assert vals == pytest.approx([3.0, 2.0, 1.0])

    def test_pauli_like_matrix(self):
        # char poly of [[1, i], [-i, 1]] is l^2 - 2l, so eigenvalues 2 and 0
        a = np.array([[1.0, 1.0j], [-1.0j, 1.0]])
        assert linalg.hermitian_eigenvalues(a) == pytest.approx([2.0, 0.0], abs=1e-12)

    def test_trace_identities(self):
        rng = np.random.default_rng(1)
        for m in (2, 3, 5, 8):
            a = random_hermitian(rng, m)
            vals = linalg.hermitian_eigenvalues(a)
            assert vals.sum() == pytest.approx(a.trace().real, abs=1e-10)
            assert (vals**2).sum() == pytest.approx(np.linalg.norm(a, "fro") ** 2, abs=1e-10)

    def test_invariant_under_unitary_conjugation(self):
        rng = np.random.default_rng(2)
        a = random_hermitian(rng, 4)
        u = linalg.haar_unitary(stream(), 4)
        before = linalg.hermitian_eigenvalues(a)
        after = linalg.hermitian_eigenvalues(u @ a @ u.conj().T)
        assert np.abs(before - after).max() < 1e-9

    def test_rejects_non_hermitian(self):
        with pytest.raises(ParameterError):
            linalg.hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(ParameterError):
            linalg.hermitian_eigenvalues(np.zeros((2, 3)))

    def test_stack_equals_matrix_by_matrix(self):
        rng = np.random.default_rng(4)
        stack = np.array([random_hermitian(rng, 4) for _ in range(30)]).reshape(5, 6, 4, 4)
        vals = linalg.hermitian_eigenvalues(stack)
        assert vals.shape == (5, 6, 4)
        singles = [linalg.hermitian_eigenvalues(a) for a in stack.reshape(30, 4, 4)]
        assert np.array_equal(vals.reshape(30, 4), singles)

    def test_hermitian_tolerance_is_per_matrix(self):
        # a large member must not loosen the check on a small one
        big = 1e6 * np.eye(2, dtype=complex)
        skewed = np.array([[0.5, 1e-6], [0.0, 0.5]], dtype=complex)
        linalg.hermitian_eigenvalues(big)
        with pytest.raises(ParameterError):
            linalg.hermitian_eigenvalues(np.stack([big, skewed]))


class TestClampSpectrum:
    def test_rounding_noise_is_clamped_to_zero(self):
        vals = linalg.clamp_spectrum(np.array([1.0 + 5e-13, -5e-13]))
        assert vals[1] == 0.0

    def test_genuinely_negative_eigenvalue_raises(self):
        with pytest.raises(NumericalError):
            linalg.clamp_spectrum(np.array([1.001, -1e-3]))

    def test_nan_raises(self):
        with pytest.raises(NumericalError):
            linalg.clamp_spectrum(np.array([math.nan, math.nan]))
        with pytest.raises(NumericalError):
            linalg.clamp_spectrum(np.array([[0.5, 0.5], [1.0, math.nan]]))

    def test_stack_is_checked_row_by_row(self):
        vals = linalg.clamp_spectrum(np.array([[1.0 + 5e-13, -5e-13], [0.5, 0.5]]))
        assert np.array_equal(vals, [[1.0 + 5e-13, 0.0], [0.5, 0.5]])
        with pytest.raises(NumericalError):
            linalg.clamp_spectrum(np.array([[0.5, 0.5], [0.6, 0.6]]))


class TestHaarUnitary:
    def test_dimension_one_is_a_phase(self):
        u = linalg.haar_unitary(stream(), 1)
        assert abs(abs(u[0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        for m in (2, 3, 6):
            u = linalg.haar_unitary(stream(master=m), m)
            assert np.linalg.norm(u.conj().T @ u - np.eye(m), "fro") < 1e-10

    def test_first_moment_identity(self):
        # E |U_ij|^2 = 1/m for Haar measure
        u = linalg.haar_unitary(stream(5), 3, 100_000)
        assert abs(np.mean(np.abs(u[:, 0, 0]) ** 2) - 1.0 / 3.0) < 0.005

    def test_left_invariance_of_moments(self):
        # statistics of |(VU)_11|^2 for fixed V match the Haar identity
        s = stream(6)
        v = linalg.haar_unitary(stream(1234), 3)
        n = 20_000
        vals = np.array([abs((v @ linalg.haar_unitary(s, 3))[0, 0]) ** 2 for _ in range(n)])
        stderr = vals.std() / math.sqrt(n)
        assert abs(vals.mean() - 1.0 / 3.0) < 4 * stderr

    def test_rejects_dimension_zero(self):
        with pytest.raises(ParameterError):
            linalg.haar_unitary(stream(), 0)

    def test_stack_holds_the_sequential_draws(self):
        a, b = stream(7), stream(7)
        us = linalg.haar_unitary(a, 3, 40)
        assert us.shape == (40, 3, 3)
        assert np.array_equal(us, [linalg.haar_unitary(b, 3) for _ in range(40)])


class TestUnitaryConjugateDiagonal:
    def test_identity_returns_spectrum(self):
        lam = np.array([0.5, 0.3, 0.2])
        assert np.array_equal(linalg.unitary_conjugate_diagonal(np.eye(3), lam), lam)

    def test_maximally_mixed_is_invariant(self):
        u = linalg.haar_unitary(stream(9), 4)
        d = linalg.unitary_conjugate_diagonal(u, np.full(4, 0.25))
        assert d == pytest.approx(np.full(4, 0.25), abs=1e-12)

    def test_output_is_a_probability_vector(self):
        s = stream(10)
        lam = np.array([0.7, 0.2, 0.1, 0.0])
        for _ in range(200):
            d = linalg.unitary_conjugate_diagonal(linalg.haar_unitary(s, 4), lam)
            assert abs(d.sum() - 1.0) < 1e-12
            assert d.min() >= 0.0 and d.max() <= 1.0

    def test_stack_of_unitaries(self):
        us = linalg.haar_unitary(stream(12), 3, 10)
        lam = np.array([0.6, 0.3, 0.1])
        d = linalg.unitary_conjugate_diagonal(us, lam)
        assert d.shape == (10, 3)
        assert np.allclose(d, [linalg.unitary_conjugate_diagonal(u, lam) for u in us], rtol=0.0, atol=1e-15)
        per_row = linalg.unitary_conjugate_diagonal(us, np.tile(lam, (10, 1)))
        assert np.array_equal(per_row, d)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ParameterError):
            linalg.unitary_conjugate_diagonal(np.eye(3), np.array([1.0, 0.0]))
