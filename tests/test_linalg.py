import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

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
        (u,) = linalg.haar_unitary(stream(), 4, 1)
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


EPS = np.finfo(float).eps


def mp_eigenvalues(a):
    """Descending eigenvalues of one Hermitian matrix, from its float
    entries, at 50 digits."""
    with mpmath.workdps(50):
        vals = mpmath.eighe(mpmath.matrix(np.asarray(a, dtype=complex).tolist()), eigvals_only=True)
        return np.array(sorted((float(v) for v in vals), reverse=True))


def assert_near_reference(a, vals, ulps=4):
    """vals are the eigenvalues of the 2 x 2 matrix a within ulps * eps of
    its largest entry, and a wrong sign on the shift t = lambda_1 - max(p, q)
    would not be."""
    ref = mp_eigenvalues(a)
    tol = ulps * EPS * np.abs(a).max()
    assert np.abs(vals - ref).max() <= tol
    p, q = a[0, 0].real, a[1, 1].real
    t = ref[0] - max(p, q)
    flipped = np.array([max(p, q) - t, min(p, q) + t])
    assert np.abs(flipped - ref).max() > tol


class TestTwoByTwo:
    """hermitian_eigenvalues solves 2 x 2 matrices in closed form."""

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_diagonal_input_is_exact(self, dtype):
        rng = np.random.default_rng(20)
        pq = rng.standard_normal((200, 2)) * 10.0 ** rng.integers(-12, 3, (200, 1))
        pq[:20, 1] = pq[:20, 0]
        a = np.zeros((200, 2, 2), dtype=dtype)
        a[:, 0, 0], a[:, 1, 1] = pq[:, 0], pq[:, 1]
        expected = np.stack([pq.max(axis=1), pq.min(axis=1)], axis=1)
        assert np.array_equal(linalg.hermitian_eigenvalues(a), expected)
        assert np.array_equal(linalg.hermitian_eigenvalues(a[7]), expected[7])

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_equal_diagonal_and_no_coupling_is_not_a_zero_division(self, dtype):
        with np.errstate(all="raise"):
            assert linalg.hermitian_eigenvalues(np.diag([0.3, 0.3]).astype(dtype)).tolist() == [0.3, 0.3]
            assert linalg.hermitian_eigenvalues(np.zeros((3, 2, 2), dtype=dtype)).tolist() == [[0.0, 0.0]] * 3

    @pytest.mark.parametrize("b", [0.5, -0.5, 0.3 + 0.4j, -2e-3j])
    def test_coupling_far_above_the_diagonal_gap(self, b):
        a = np.array([[0.5, np.conj(b)], [b, 0.5 + 1e-12]])
        if np.isrealobj(b):
            a = a.real
        assert_near_reference(a, linalg.hermitian_eigenvalues(a))

    @pytest.mark.parametrize("phase", [1.0, np.exp(0.7j)])
    def test_eigenvalue_ratio_near_1e_14(self, phase):
        c, s = math.cos(0.6), math.sin(0.6) * phase
        u = np.array([[c, -np.conj(s)], [s, c]])
        a = u @ np.diag([1.0, 1e-14]) @ u.conj().T
        a = a.real if phase == 1.0 else a
        vals = linalg.hermitian_eigenvalues(a)
        assert_near_reference(a, vals)
        assert 0.9e-14 < vals[1] / vals[0] < 1.1e-14
        assert np.abs(vals - np.linalg.eigvalsh(a)[::-1]).max() <= 4 * EPS

    def test_small_eigenvalue_of_a_nearly_diagonal_matrix_keeps_its_digits(self):
        # the shift is |b|^2 / (h + r), so nothing cancels in lambda_2 here
        a = np.array([[1.0, 1e-20 - 3e-21j], [1e-20 + 3e-21j, 1e-14]])
        vals = linalg.hermitian_eigenvalues(a)
        ref = mp_eigenvalues(a)
        assert abs(vals[1] - ref[1]) <= EPS * ref[1]

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_random_stacks_against_lapack_and_mpmath(self, dtype):
        rng = np.random.default_rng(21 if dtype is float else 22)
        a = rng.standard_normal((400, 2, 2))
        if dtype is complex:
            a = a + 1j * rng.standard_normal((400, 2, 2))
        a = (a + a.conj().swapaxes(-1, -2)) * 10.0 ** rng.integers(-6, 7, (400, 1, 1))
        vals = linalg.hermitian_eigenvalues(a)
        assert vals.dtype == np.float64 and vals.shape == (400, 2)
        scale = np.abs(a).max(axis=(-2, -1))[:, None]
        assert (np.abs(vals - np.linalg.eigvalsh(a)[:, ::-1]) <= 8 * EPS * scale).all()
        for i in range(0, 400, 40):
            assert_near_reference(a[i], vals[i])
        singles = [linalg.hermitian_eigenvalues(x) for x in a]
        assert np.array_equal(vals, singles)
        assert np.array_equal(linalg.hermitian_eigenvalues(a.reshape(8, 50, 2, 2)), vals.reshape(8, 50, 2))

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_non_finite_input_raises(self, m, bad, dtype):
        for i, j in ((0, 0), (1, 1), (1, 0)):
            a = np.tile(np.eye(m, dtype=dtype), (4, 1, 1))
            a[2, i, j] = a[2, j, i] = bad
            with pytest.raises(NumericalError, match="non-finite"):
                linalg.hermitian_eigenvalues(a)
            with pytest.raises(NumericalError, match="non-finite"):
                linalg.hermitian_eigenvalues(a[2])


class TestFactorGramEigenvalues:
    """factor_gram_eigenvalues(L) is the spectrum of L L-dagger, at m = 2
    as at any other m."""

    @pytest.mark.parametrize("m", [2, 3])
    @pytest.mark.parametrize("triangular", [False, True])
    def test_spectra_of_the_products(self, m, triangular):
        rng = np.random.default_rng(23 + m)
        low = rng.standard_normal((300, m, m)) + 1j * rng.standard_normal((300, m, m))
        if triangular:
            low = np.tril(low)
        vals = linalg.factor_gram_eigenvalues(low.reshape(3, 100, m, m))
        assert vals.shape == (3, 100, m)
        products = low @ low.conj().swapaxes(-1, -2)
        scale = np.abs(products).max(axis=(-2, -1))[:, None]
        expected = linalg.hermitian_eigenvalues(products)
        assert (np.abs(vals.reshape(300, m) - expected) <= 8 * EPS * scale).all()

    def test_non_finite_factor_gives_a_spectrum_the_clamp_refuses(self):
        low = np.tile(np.eye(2, dtype=complex), (3, 1, 1))
        low[1, 1, 0] = math.nan
        with pytest.raises(NumericalError, match="non-finite"):
            linalg.clamp_spectrum(linalg.factor_gram_eigenvalues(low) / 2.0)


def bits(a) -> bytes:
    """The bytes of a float64 array: equal bits, signed zeros included."""
    return np.asarray(a, dtype=np.float64).tobytes()


# leading shapes (N,) and (N, K) of a stack of rows
LEADING = st.one_of(st.tuples(st.integers(0, 40)), st.tuples(st.integers(1, 6), st.integers(1, 6)))


class TestRowKernels:
    """row_sum and row_sort give numpy's bits at any width: by columns on
    narrow rows, by numpy itself on wide ones."""

    # signed zeros, subnormals, magnitudes up to 1e+-300 and mixtures of them
    VALUES = st.one_of(
        st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e-300, -1e-300, 1e300, -1e300, 1.0]),
        st.floats(-1e300, 1e300, allow_nan=False),
    )

    @given(leading=LEADING, m=st.integers(1, 16), layout=st.sampled_from(["C", "F", "reversed"]),
           data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_row_sum_is_numpys_sum(self, leading, m, layout, data):
        a = data.draw(arrays(np.float64, leading + (m,), elements=self.VALUES))
        a = {"C": a, "F": np.asfortranarray(a), "reversed": a[..., ::-1]}[layout]
        assert bits(linalg.row_sum(a)) == bits(a.sum(axis=-1))
        kept = linalg.row_sum(a, keepdims=True)
        assert kept.shape == a.shape[:-1] + (1,)
        assert bits(kept) == bits(a.sum(axis=-1, keepdims=True))

    def test_numpy_sums_seven_columns_left_to_right(self):
        # the premise of row_sum's column sweep, on a row whose sum depends
        # on the order: left to right from 1.0 each 2^-53 is half an ulp and
        # rounds to even, back to 1.0; adding any two of them together first
        # leaves a sum above 1.0
        row = np.array([[1.0] + [2.0**-53] * 6])
        assert row.sum(axis=-1)[0] == 1.0
        assert linalg.row_sum(row)[0] == 1.0

    def test_signed_zeros_and_single_rows(self):
        # numpy's sum starts from 0.0, so a row of -0.0 sums to 0.0
        for m in range(1, 8):
            assert bits(linalg.row_sum(np.full((2, m), -0.0))) == bits([0.0, 0.0])
        assert linalg.row_sum(np.array([0.25, 0.5])) == 0.75
        assert np.array_equal(linalg.row_sort(np.array([3.0, 1.0, 2.0])), [1.0, 2.0, 3.0])

    @given(leading=LEADING, m=st.integers(1, 8), data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_row_sort_is_numpys_sort(self, leading, m, data):
        # few distinct values, so that rows hold ties; 0.0 and -0.0 compare
        # equal and may trade places, so zeros are compared without their sign
        ties = st.sampled_from([0.0, -0.0, 1e-300, 0.25, 0.5, 1.0, -1.0])
        a = data.draw(arrays(np.float64, leading + (m,), elements=st.one_of(ties, self.VALUES)))
        got = linalg.row_sort(a)
        assert got.flags.c_contiguous
        assert bits(got + 0.0) == bits(np.sort(a, axis=-1) + 0.0)


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
        u = linalg.haar_unitary(stream(), 1, 1)
        assert abs(abs(u[0, 0, 0]) - 1.0) < 1e-12

    def test_unitarity(self):
        for m in (2, 3, 6):
            (u,) = linalg.haar_unitary(stream(master=m), m, 1)
            assert np.linalg.norm(u.conj().T @ u - np.eye(m), "fro") < 1e-10

    def test_first_moment_identity(self):
        # E |U_ij|^2 = 1/m for Haar measure
        u = linalg.haar_unitary(stream(5), 3, 100_000)
        assert abs(np.mean(np.abs(u[:, 0, 0]) ** 2) - 1.0 / 3.0) < 0.005

    def test_left_invariance_of_moments(self):
        # statistics of |(VU)_11|^2 for fixed V match the Haar identity
        s = stream(6)
        (v,) = linalg.haar_unitary(stream(1234), 3, 1)
        n = 20_000
        vals = np.abs((v @ linalg.haar_unitary(s, 3, n))[:, 0, 0]) ** 2
        stderr = vals.std() / math.sqrt(n)
        assert abs(vals.mean() - 1.0 / 3.0) < 4 * stderr

    def test_rejects_dimension_zero(self):
        with pytest.raises(ParameterError):
            linalg.haar_unitary(stream(), 0, 1)

    def test_stack_holds_the_sequential_draws(self):
        # a stack of 40 holds the unitaries of 40 stacks of one
        a, b = stream(7), stream(7)
        us = linalg.haar_unitary(a, 3, 40)
        assert us.shape == (40, 3, 3)
        assert np.array_equal(us, np.concatenate([linalg.haar_unitary(b, 3, 1) for _ in range(40)]))
        assert a.uniforms(1) == b.uniforms(1)  # and leaves the stream at the same place


class TestUnitaryConjugateDiagonal:
    def test_identity_returns_spectrum(self):
        lam = np.array([0.5, 0.3, 0.2])
        assert np.array_equal(linalg.unitary_conjugate_diagonal(np.eye(3), lam), lam)

    def test_maximally_mixed_is_invariant(self):
        (u,) = linalg.haar_unitary(stream(9), 4, 1)
        d = linalg.unitary_conjugate_diagonal(u, np.full(4, 0.25))
        assert d == pytest.approx(np.full(4, 0.25), abs=1e-12)

    def test_output_is_a_probability_vector(self):
        lam = np.array([0.7, 0.2, 0.1, 0.0])
        d = linalg.unitary_conjugate_diagonal(linalg.haar_unitary(stream(10), 4, 200), lam)
        assert np.abs(d.sum(axis=-1) - 1.0).max() < 1e-12
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
