import contextlib
import math
import random
import signal

import numpy as np
import pytest
from numpy.random import Philox
from scipy import stats as sps

from randcoh import mc
from randcoh.ensembles import EnsembleSpec, sample_diag_dirichlet
from randcoh.errors import ParameterError
from randcoh.randkit import _ERLANG_COLUMNS, _ERLANG_MAX_SHAPE, RngStream, SeedSpec


def stream(master=2024, index=0):
    return RngStream(SeedSpec(master, index))


def dirichlet(stream, alpha, *shape):
    """Symmetric Dirichlet(alpha) vectors along the last axis of shape,
    normalized Gamma(alpha) variates from one gammas call."""
    g = stream.gammas(alpha, math.prod(shape)).reshape(shape)
    return g / g.sum(axis=-1, keepdims=True)


class RoundByRoundStream(RngStream):
    """Test oracle: polar normals drawn in rejection rounds, each round
    requesting exactly one pair per normal still needed (the screening
    passes of RngStream.normals must reproduce it bit for bit), Erlang
    Gamma variates as a product loop per draw, and Marsaglia-Tsang Gamma
    variates and complex Gaussians computed by the textbook expressions on
    whole arrays (RngStream works in reused buffers and must give the same
    bits)."""

    def normals(self, n):
        out = np.empty(n, dtype=np.float64)
        filled = 0
        if self._spare_normal is not None and n > 0:
            out[0] = self._spare_normal
            self._spare_normal = None
            filled = 1
        while filled < n:
            npairs = (n - filled + 1) // 2
            u = self.uniforms(2 * npairs) * 2.0 - 1.0
            x = u[0::2]
            y = u[1::2]
            s = x * x + y * y
            ok = (s > 0.0) & (s < 1.0)
            if not ok.any():
                continue
            xs, ys, ss = x[ok], y[ok], s[ok]
            f = np.sqrt(-2.0 * np.log(ss) / ss)
            block = np.empty(2 * xs.size, dtype=np.float64)
            block[0::2] = f * xs
            block[1::2] = f * ys
            take = min(block.size, n - filled)
            out[filled:filled + take] = block[:take]
            filled += take
            if take < block.size:
                self._spare_normal = float(block[take])
        return out

    def complex_gaussians(self, n):
        nrm = self.normals(2 * n)
        return math.sqrt(0.5) * (nrm[0::2] + 1j * nrm[1::2])

    def gammas(self, shape, n):
        # integer shapes a <= _ERLANG_MAX_SHAPE: -ln prod (1 - U_j) over a
        # uniforms per draw, all of them drawn before any other draw's
        shapes = np.asarray(shape, dtype=np.float64)
        every = np.broadcast_to(shapes, (n,))
        erlang = [i for i in range(n) if every[i] <= _ERLANG_MAX_SHAPE and every[i] == int(every[i])]
        u = iter(self.uniforms(sum(int(every[i]) for i in erlang)))
        products = []
        for i in erlang:
            product = 1.0
            for _ in range(int(every[i])):
                product *= 1.0 - next(u)
            products.append(product)
        out = np.empty(n, dtype=np.float64)
        out[erlang] = -np.log(np.array(products))
        rest = np.setdiff1d(np.arange(n), erlang)
        if shapes.ndim == 1:
            out[rest] = self._textbook_marsaglia_tsang(shapes[rest], rest.size)
        elif rest.size:
            out[:] = self._textbook_marsaglia_tsang(shapes, n)
        return out

    def _textbook_marsaglia_tsang(self, shapes, n):
        per_draw = shapes.ndim == 1
        d = shapes - 1.0 / 3.0
        c = 1.0 / np.sqrt(9.0 * d)
        out = np.empty(n, dtype=np.float64)
        pending = np.arange(n)
        while pending.size:
            dk, ck = (d[pending], c[pending]) if per_draw else (d, c)
            x = self.normals(pending.size)
            u = self.uniforms(pending.size)
            t = 1.0 + ck * x
            v = t * t * t
            logv = np.log(np.where(v > 0.0, v, 1.0))
            accept = (v > 0.0) & ((np.log(u) < 0.5 * x * x + dk * (1.0 - v + logv))
                                  | (u < 1.0 - 0.0331 * x**4))
            out[pending[accept]] = (dk[accept] if per_draw else dk) * v[accept]
            pending = pending[~accept]
        return out


@contextlib.contextmanager
def time_limit(seconds):
    """Turn a hang into a failure: raise TimeoutError after seconds."""
    def expire(signum, frame):
        raise TimeoutError(f"call did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def philox_uniforms(master, index, count):
    raw = Philox(key=np.array([master, index], dtype=np.uint64)).random_raw(count)
    return (raw >> np.uint64(11)) * 2.0**-53


class TestSeedSpec:
    def test_rejects_out_of_range_master_seed(self):
        with pytest.raises(ParameterError):
            SeedSpec(-1)
        with pytest.raises(ParameterError):
            SeedSpec(2**64)

    def test_rejects_out_of_range_stream_index(self):
        with pytest.raises(ParameterError):
            SeedSpec(0, -1)
        with pytest.raises(ParameterError):
            SeedSpec(0, 2**32)

    @pytest.mark.parametrize("master,index", [(1.5, 0), (1.0, 0), (0, 2.5), (np.float64(3.0), 0)])
    def test_rejects_non_integer_seeds(self, master, index):
        # a float passes a range check, and the uint64 key cast would truncate it
        with pytest.raises(ParameterError):
            SeedSpec(master, index)

    def test_accepts_numpy_integers(self):
        a = RngStream(SeedSpec(np.uint64(2**64 - 1), np.int32(7))).uniforms(5)
        assert np.array_equal(a, philox_uniforms(2**64 - 1, 7, 5))

    @pytest.mark.parametrize("master,index,domain", [(0, 0, 1), (2024, 3, 4), (2**64 - 1, 2**32 - 1, 2**32 - 1),
                                                     (5, 7, np.int32(2))])
    def test_domain_is_the_high_word_of_the_second_key_half(self, master, index, domain):
        got = RngStream(SeedSpec(master, index, domain)).uniforms(9)
        assert np.array_equal(got, philox_uniforms(master, (int(domain) << 32) | index, 9))

    def test_domain_zero_is_the_key_without_a_domain(self):
        assert np.array_equal(RngStream(SeedSpec(9, 4, 0)).uniforms(9), RngStream(SeedSpec(9, 4)).uniforms(9))

    @pytest.mark.parametrize("domain", [-1, 2**32, 1.0, 2.5])
    def test_rejects_bad_domains(self, domain):
        with pytest.raises(ParameterError):
            SeedSpec(0, 0, domain)

    @pytest.mark.parametrize("args", [(True,), (False,), (0, True), (0, 0, True)])
    def test_rejects_bools(self, args):
        # a bool is an int to isinstance, and would key the stream of 0 or 1
        with pytest.raises(ParameterError):
            SeedSpec(*args)


class TestDeterminism:
    def test_same_seed_same_uniform_sequence(self):
        a = stream().uniforms(10_000)
        b = stream().uniforms(10_000)
        assert np.array_equal(a, b)

    def test_same_seed_same_normal_sequence(self):
        a = stream().normals(5_001)
        b = stream().normals(5_001)
        assert np.array_equal(a, b)

    def test_distinct_stream_indices_differ(self):
        a = stream(index=0).uniforms(100)
        b = stream(index=1).uniforms(100)
        assert not np.array_equal(a, b)

    def test_gamma_sequence_reproducible(self):
        a = stream(7).gammas(3.5, 1000)
        b = stream(7).gammas(3.5, 1000)
        assert np.array_equal(a, b)

    def test_streams_are_uncorrelated(self):
        n = 100_000
        a = stream(99, 0).uniforms(n)
        b = stream(99, 1).uniforms(n)
        assert abs(np.corrcoef(a, b)[0, 1]) < 0.01


class TestStreamLayout:
    SIZES = (0, 1, 2, 3, 7, 1000, 8192, 100_001)

    @pytest.mark.parametrize("master,index", [(0, 0), (2024, 3), (2**64 - 1, 2**32 - 1)])
    def test_uniforms_are_the_scaled_philox_outputs_across_refills(self, master, index):
        # a refill draws exactly a request's shortfall, so requests of
        # uniforms alone each refill their own size: among them 0, and sizes
        # either side of 4096
        sizes = (1, 4094, 1, 1, 5000, 3191, 4096, 0, 9000, 7)
        s = RngStream(SeedSpec(master, index))
        got = np.concatenate([s.uniforms(k) for k in sizes])
        assert np.array_equal(got, philox_uniforms(master, index, sum(sizes)))

    def test_normals_match_the_round_by_round_oracle(self):
        rnd = random.Random(4)
        for pattern in range(40):
            master, index = rnd.getrandbits(64), rnd.getrandbits(32)
            ours, oracle = RngStream(SeedSpec(master, index)), RoundByRoundStream(SeedSpec(master, index))
            for _ in range(rnd.randint(1, 8)):
                op, size = rnd.choice("nnug"), rnd.choice(self.SIZES)
                if op == "n":
                    a, b = ours.normals(size), oracle.normals(size)
                elif op == "u":
                    a, b = ours.uniforms(size), oracle.uniforms(size)
                else:
                    shape = rnd.choice((1.5, 1.0, 3.0, 3.5))
                    size = min(size, 8192)
                    a, b = ours.gammas(shape, size), oracle.gammas(shape, size)
                assert np.array_equal(a, b), (pattern, op, size)
                assert ours._spare_normal == oracle._spare_normal
            assert np.array_equal(ours.uniforms(5), oracle.uniforms(5))

    def test_short_lookahead_continues_exactly(self):
        # one pair per call: its lookahead of 4 pairs holds no accepted pair
        # with probability (1 - pi/4)^4 = 0.2%, so 3000 calls take that branch
        # that branch consumes the lookahead and then draws again
        class Counting(RngStream):
            consumptions = 0

            def uniforms(self, n):
                Counting.consumptions += 1
                return super().uniforms(n)

        ours, oracle = Counting(SeedSpec(5, 0)), RoundByRoundStream(SeedSpec(5, 0))
        for _ in range(3000):
            assert np.array_equal(ours.normals(2), oracle.normals(2))
        assert Counting.consumptions > 3000
        assert np.array_equal(ours.uniforms(5), oracle.uniforms(5))

    # 8192 polar pairs a pass: normals calls from 16 384 on take several
    # passes, whose lookaheads hold fewer accepted pairs than they need
    PASS_SIZES = (0, 1, 2, 3, 7, 8190, 16383, 16384, 16385, 40_001, 100_000)

    @pytest.mark.parametrize("spare", [False, True])
    def test_large_normals_calls_match_the_oracle(self, spare):
        # with spare, a 1-normal call leaves a normal cached first, so each
        # size is also drawn at the other parity of its pairs
        ours, oracle = stream(31, 2), RoundByRoundStream(SeedSpec(31, 2))
        for size in self.PASS_SIZES:
            if spare:
                assert np.array_equal(ours.normals(1), oracle.normals(1))
            assert np.array_equal(ours.normals(size), oracle.normals(size)), size
            assert ours._spare_normal == oracle._spare_normal
        assert np.array_equal(ours.uniforms(5), oracle.uniforms(5))

    TILES = {
        # one shape per draw, non-integer ones just above 1 among them
        "mixed": [5.0, 1.3, 2.0, 1.7, 1.0],
        # integer shapes on both sides of the Erlang cutoff
        "spanning": [_ERLANG_MAX_SHAPE + 1.0, _ERLANG_MAX_SHAPE, 3.5, _ERLANG_MAX_SHAPE - 1.0, 1.0],
    }

    @pytest.mark.parametrize("shape", [1.0, 2.0, 3.0, 3.5, 2e4, "mixed", "spanning"])
    def test_large_gamma_calls_match_the_oracle(self, shape):
        ours, oracle = stream(32, 1), RoundByRoundStream(SeedSpec(32, 1))
        for size in (0, 1, 2, 17, 16383, 16385, 40_001):
            shapes = np.resize(self.TILES[shape], size) if shape in self.TILES else shape
            assert np.array_equal(ours.gammas(shapes, size), oracle.gammas(shapes, size)), size
            assert ours._spare_normal == oracle._spare_normal
        assert np.array_equal(ours.uniforms(5), oracle.uniforms(5))

    def test_complex_gaussians_match_the_oracle(self):
        ours, oracle = stream(33, 0), RoundByRoundStream(SeedSpec(33, 0))
        for size in (0, 1, 3, 8192, 20_001):
            assert np.array_equal(ours.complex_gaussians(size), oracle.complex_gaussians(size))
            assert ours._spare_normal == oracle._spare_normal

    @pytest.mark.parametrize("method", ["normals", "complex_gaussians", "uniforms"])
    def test_negative_count_is_a_parameter_error(self, method):
        with pytest.raises(ParameterError):
            getattr(stream(), method)(-1)

    def test_negative_gamma_count_is_a_parameter_error(self):
        with pytest.raises(ParameterError):
            stream().gammas(2.0, -1)

    @pytest.mark.parametrize("shape", [2.0, 3.5, np.empty(0)])
    def test_no_gamma_draws_consume_nothing(self, shape):
        s = stream(34)
        assert s.gammas(shape, 0).shape == (0,)
        assert np.array_equal(s.uniforms(5), stream(34).uniforms(5))


class TestStandardNormal:
    def test_mean_over_1e6_draws(self):
        x = stream(1).normals(1_000_000)
        assert abs(x.mean()) < 0.004  # 4 / sqrt(N)

    def test_variance_over_1e6_draws(self):
        x = stream(2).normals(1_000_000)
        assert abs(x.var() - 1.0) < 0.01


class TestComplexGaussian:
    def test_second_moment(self):
        z = stream(3).complex_gaussians(1_000_000)
        assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01

    def test_mean_is_zero_componentwise(self):
        z = stream(4).complex_gaussians(1_000_000)
        assert abs(z.real.mean()) < 0.004
        assert abs(z.imag.mean()) < 0.004

    def test_modulus_squared_is_exponential(self):
        z = stream(5).complex_gaussians(100_000)
        d, _ = sps.kstest(np.abs(z) ** 2, sps.expon.cdf)
        assert d < 0.01


class TestGamma:
    def test_moments_shape_four(self):
        g = stream(10).gammas(4.0, 1_000_000)
        assert abs(g.mean() - 4.0) < 0.01
        assert abs(g.var() - 4.0) < 0.05

    def test_shape_one_is_exponential(self):
        g = stream(11).gammas(1.0, 100_000)
        d, _ = sps.kstest(g, sps.expon.cdf)
        assert d < 0.01

    def test_outputs_strictly_positive(self):
        assert stream(13).gammas(2.0, 50_000).min() > 0.0

    def test_rejects_nonpositive_shape(self):
        with pytest.raises(ParameterError):
            stream().gammas(0.0, 1)
        with pytest.raises(ParameterError):
            stream().gammas(-1.0, 5)

    @pytest.mark.parametrize("shape", [0.5, 1.0 - 2.0**-53])
    def test_rejects_shape_below_one(self, shape):
        # every variate the ensembles draw has an integer shape >= 1
        with pytest.raises(ParameterError):
            stream().gammas(shape, 1)

    def test_nan_shape_is_a_parameter_error(self):
        with time_limit(5), pytest.raises(ParameterError):
            stream().gammas(math.nan, 3)

    def test_infinite_shape_is_a_parameter_error(self):
        with pytest.raises(ParameterError):
            stream().gammas(math.inf, 3)


class TestGammaShapeArray:
    def test_scalar_shape_draws_are_pinned(self):
        # the draws of a scalar shape, at fixed seeds
        pinned = {
            (7, 0, 3.5): ["0x1.26843f754105bp+2", "0x1.42ea06e85883dp+1",
                          "0x1.279c0cfdd41e8p+0", "0x1.d61a3bc5ae671p-1"],
            # Erlang sums at 2, Marsaglia-Tsang at 5, above the cutoff
            (9, 1, 2.0): ["0x1.3e23c965fbfa3p+1", "0x1.03427cc3bc30ap+0",
                          "0x1.e3914d0c44b12p+0", "0x1.d664cb5bd031ep-2"],
            (9, 1, 5.0): ["0x1.1b1a014159655p+1", "0x1.482be00e1b5a8p+2",
                          "0x1.b2a9b79402b9dp+1", "0x1.a606e1d0c8c4bp+2"],
        }
        for (master, index, shape), values in pinned.items():
            got = stream(master, index).gammas(shape, 4)
            assert [float(x).hex() for x in got] == values

    @pytest.mark.parametrize("shape", [1.0, 2.0, float(_ERLANG_MAX_SHAPE), float(_ERLANG_MAX_SHAPE + 1),
                                       3.5, 20_000.0])
    def test_array_of_one_shape_draws_what_the_scalar_draws(self, shape):
        a, b = stream(20), stream(20)
        assert np.array_equal(a.gammas(np.full(3000, shape), 3000), b.gammas(shape, 3000))
        assert np.array_equal(a.uniforms(5), b.uniforms(5))

    def test_each_entry_follows_its_own_law(self):
        # shapes N, N-1, ..., 1 interleaved as in one draw of the Laguerre
        # model, Erlang sums and Marsaglia-Tsang draws among them; each
        # column must pass KS against its own Gamma CDF at the 1% level and
        # fail against the CDF of the next shape
        shapes = np.arange(max(8, 2 * _ERLANG_MAX_SHAPE), 0, -1, dtype=float)
        draws = 10_000
        g = stream(21).gammas(np.tile(shapes, draws), shapes.size * draws).reshape(draws, -1)
        critical = mc.ks_critical_value(draws, alpha=0.01)
        for column, shape in zip(g.T, shapes):
            assert mc.ks_statistic(column, lambda x: mc.gamma_cdf(x, shape)) < critical
            assert mc.ks_statistic(column, lambda x: mc.gamma_cdf(x, shape + 1.0)) > critical

    PATTERNS = {
        "erlang": [3.0, 2.0, 1.0, float(_ERLANG_MAX_SHAPE)],
        "marsaglia_tsang": [6.0, 1.5, 20_000.0],
        # the Laguerre shapes of (5, 5): one Marsaglia-Tsang column, then
        # eight Erlang columns
        "mixed": [5.0, 4.0, 3.0, 2.0, 1.0, 4.0, 3.0, 2.0, 1.0],
        # groups that are not one run of columns each
        "interleaved": [1.5, 2.0, 7.0, 1.0, 3.5],
    }

    @pytest.mark.parametrize("spare", [False, True])
    @pytest.mark.parametrize("name", PATTERNS)
    def test_pattern_draws_what_its_tiling_draws(self, name, spare):
        # row counts whose Marsaglia-Tsang normals fall on both sides of an
        # 8192-pair polar pass; with spare, a 1-normal call leaves a normal
        # cached before each draw
        pattern = np.array(self.PATTERNS[name])
        tsang = int(np.count_nonzero((pattern > _ERLANG_MAX_SHAPE) | (pattern != np.floor(pattern))))
        passes = (2 * 8192 // tsang + e for e in (-1, 0, 1)) if tsang else ()
        streams = stream(40, 2), stream(40, 2), RoundByRoundStream(SeedSpec(40, 2))
        for rows in (0, 1, 2, 17, 1000, *passes):
            tiled = np.tile(pattern, rows)
            if spare:
                normals = [s.normals(1) for s in streams]
                assert all(np.array_equal(x, normals[0]) for x in normals)
            draws = [streams[0].gammas(pattern, tiled.size)] + [s.gammas(tiled, tiled.size) for s in streams[1:]]
            assert all(np.array_equal(x, draws[0]) for x in draws), rows
            assert len({s._spare_normal for s in streams}) == 1
        after = [s.uniforms(5) for s in streams]
        assert all(np.array_equal(x, after[0]) for x in after)

    @pytest.mark.parametrize("p,n", [(2, 3), (4, 6), (5, 12), (3, 1), (0, 3)])
    def test_pattern_must_divide_the_count(self, p, n):
        with pytest.raises(ParameterError, match="divides"):
            stream().gammas(np.full(p, 2.0), n)

    @pytest.mark.parametrize("shapes", [
        [2.0, math.nan, 1.0],
        [2.0, math.inf, 1.0],
        [2.0, 0.0, 1.0],
        [2.0, -1.0, 1.0],
        [2.0, 1.0],
        [2.0, 1.0, 1.0, 1.0],
        [[2.0, 1.0, 1.0]],
        [2.0, 0.5, 1.0],
    ])
    def test_bad_shape_arrays_are_parameter_errors(self, shapes):
        with time_limit(5), pytest.raises(ParameterError):
            stream().gammas(np.array(shapes), 3)


class TestErlangColumns:
    """The Erlang products, formed by columns up to _ERLANG_COLUMNS shapes
    and by reduceat above, give the bits of reduceat at every width."""

    # the widest column loop, the narrowest reduceat, and one shape per draw
    WIDE = [list(np.resize([4, 1, 3, 2], width)) for width in (_ERLANG_COLUMNS, _ERLANG_COLUMNS + 1, 256)]

    @pytest.mark.parametrize("shapes", [[1], [1, 1, 1], [3, 2, 1], [4, 1, 2], [2, 2], [4, 3, 2, 1, 4, 3]] + WIDE)
    @pytest.mark.parametrize("rows", [1, 1000, 5461])
    def test_erlang_columns_are_the_reduceat_products(self, shapes, rows):
        counts = np.array(shapes)
        got = stream(31)._erlang(counts.astype(float), rows)
        factors = 1.0 - stream(31).uniforms(rows * counts.sum()).reshape(rows, -1)
        want = -np.log(np.multiply.reduceat(factors, np.cumsum(counts) - counts, axis=1))
        assert got.shape == (rows, counts.size)
        assert np.array_equal(got, want)


class TestDirichlet:
    def test_length_one_is_the_point_mass(self):
        assert dirichlet(stream(), 3.0, 1) == pytest.approx([1.0])

    def test_componentwise_mean(self):
        # one gammas(2.0, 300 000) block: its Erlang sums take two uniforms
        # a variate, so it holds the variates of 100 000 draws of three
        draws = dirichlet(stream(20), 2.0, 100_000, 3)
        assert np.abs(draws.mean(axis=0) - 1.0 / 3.0).max() < 0.005

    def test_marginal_is_beta(self):
        n = 3
        first = sample_diag_dirichlet(stream(21), EnsembleSpec(2, n), size=100_000)[:, 0]
        d, _ = sps.kstest(first, lambda x: sps.beta.cdf(x, n, n))
        assert d < 0.01

    def test_simplex_invariants(self):
        s = stream(22)
        for _ in range(1000):
            d = dirichlet(s, 1.5, 5)
            assert d.min() >= 0.0
            assert abs(d.sum() - 1.0) < 1e-12
