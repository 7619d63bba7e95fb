import math

import numpy as np
import pytest
from scipy import special, stats as sps

from randcoh import functionals, mc
from randcoh.ensembles import (
    EnsembleSpec,
    sample_diag_dirichlet,
    sample_isospectral_diagonal,
    sample_mixing_state,
    sample_wishart,
)
from randcoh.errors import ParameterError
from randcoh.functionals import harmonic
from randcoh.randkit import RngStream, SeedSpec


class TestWorkerSplit:
    def test_even_split(self):
        assert mc.worker_counts(12, 3) == [4, 4, 4]

    def test_remainder_goes_to_low_indices(self):
        assert mc.worker_counts(10, 4) == [3, 3, 2, 2]

    def test_more_workers_than_samples(self):
        assert mc.worker_counts(2, 5) == [1, 1, 0, 0, 0]


class TestChunks:
    def test_budget_sets_the_chunk_size(self):
        # (2, 2): 4 Ginibre entries per draw, so 1024 draws per chunk
        assert mc.chunk_sizes(2500, 4) == [1024, 1024, 452]
        assert mc.chunk_sizes(1024, 4) == [1024]
        assert mc.chunk_sizes(1000, 4) == [1000]
        assert mc.chunk_sizes(0, 4) == []

    def test_at_least_one_draw_per_chunk(self):
        assert mc.chunk_sizes(3, mc.CHUNK_ENTRIES * 2) == [1, 1, 1]


class TestDefaultWorkers:
    def test_follows_cpu_affinity(self, monkeypatch):
        monkeypatch.setattr(mc.os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 64)
        assert mc.default_workers() == 3

    def test_falls_back_to_cpu_count(self, monkeypatch):
        monkeypatch.delattr(mc.os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(mc.os, "cpu_count", lambda: 6)
        assert mc.default_workers() == 6
        monkeypatch.setattr(mc.os, "cpu_count", lambda: None)
        assert mc.default_workers() == 1


class TestRunningStats:
    def test_matches_numpy(self):
        rng = np.random.default_rng(0)
        data = rng.standard_normal(5000)
        stats = mc.RunningStats()
        for x in data:
            stats.update(float(x))
        assert stats.mean == pytest.approx(data.mean(), rel=1e-12)
        assert stats.variance == pytest.approx(data.var(ddof=1), rel=1e-10)
        assert stats.stderr == pytest.approx(data.std(ddof=1) / math.sqrt(data.size), rel=1e-10)

    def test_parallel_merge_equals_serial(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal(9001)
        serial = mc.RunningStats()
        for x in data:
            serial.update(float(x))
        merged = mc.RunningStats()
        for chunk in np.array_split(data, 7):
            part = mc.RunningStats()
            for x in chunk:
                part.update(float(x))
            merged.merge(part)
        assert merged.count == serial.count
        assert merged.mean == pytest.approx(serial.mean, rel=1e-10)
        assert merged.m2 == pytest.approx(serial.m2, rel=1e-10)

    def test_merge_is_associative(self):
        rng = np.random.default_rng(2)
        chunks = [rng.standard_normal(n) for n in (400, 700, 300)]

        def accumulate(data):
            s = mc.RunningStats()
            for x in data:
                s.update(float(x))
            return s

        a, b, c = (accumulate(ch) for ch in chunks)
        left = accumulate(chunks[0]).merge(accumulate(chunks[1])).merge(accumulate(chunks[2]))
        bc = accumulate(chunks[1]).merge(accumulate(chunks[2]))
        right = accumulate(chunks[0]).merge(bc)
        assert left.mean == pytest.approx(right.mean, rel=1e-12)
        assert left.m2 == pytest.approx(right.m2, rel=1e-12)

    def test_batch_matches_updates(self):
        data = np.random.default_rng(3).standard_normal(777) + 5.0
        serial = mc.RunningStats()
        for x in data:
            serial.update(float(x))
        batch = mc.RunningStats.of(data)
        assert batch.count == serial.count
        assert batch.mean == pytest.approx(serial.mean, rel=1e-14)
        assert batch.m2 == pytest.approx(serial.m2, rel=1e-12)
        assert mc.RunningStats.of([]) == mc.RunningStats()

    def test_merge_with_empty_is_identity(self):
        s = mc.RunningStats()
        s.update(1.0)
        s.update(3.0)
        s.merge(mc.RunningStats())
        assert (s.count, s.mean) == (2, 2.0)


class TestEstimatorConfig:
    def test_rejects_tiny_sample_count(self):
        with pytest.raises(ParameterError):
            mc.EstimatorConfig(EnsembleSpec(2, 2), "coherence", samples=1, master_seed=0)

    def test_rejects_unknown_quantity(self):
        with pytest.raises(ParameterError):
            mc.EstimatorConfig(EnsembleSpec(2, 2), "purity", samples=10, master_seed=0)

    def test_isospectral_needs_spectrum(self):
        with pytest.raises(ParameterError):
            mc.EstimatorConfig(EnsembleSpec(2, 2), "isospectral_diag_entropy", samples=10, master_seed=0)

    def test_spectrum_rejected_elsewhere(self):
        with pytest.raises(ParameterError):
            mc.EstimatorConfig(EnsembleSpec(2, 2), "coherence", samples=10, master_seed=0,
                               fixed_spectrum=(0.5, 0.5))


class TestEstimate:
    def test_bit_reproducible_for_fixed_worker_count(self):
        cfg = mc.EstimatorConfig(EnsembleSpec(2, 3), "coherence", samples=2000, master_seed=42, workers=2)
        a, b = mc.estimate(cfg), mc.estimate(cfg)
        assert (a.count, a.mean, a.m2) == (b.count, b.mean, b.m2)

    def test_inline_and_pooled_agree(self):
        # worker results depend only on (seed, index, count), not on where they ran
        base = dict(spec=EnsembleSpec(2, 3), quantity="coherence", samples=2000, master_seed=43)
        pooled = mc.estimate(mc.EstimatorConfig(workers=2, **base))
        counts = mc.worker_counts(2000, 2)
        inline = mc.RunningStats()
        for w, count in enumerate(counts):
            c, mean, m2 = mc._run_worker(("coherence", 2, 3, 1, 43, w, count, None))
            inline.merge(mc.RunningStats(c, mean, m2))
        assert pooled.mean == inline.mean
        assert pooled.m2 == inline.m2

    def test_worker_count_changes_only_stream_assignment(self):
        base = dict(spec=EnsembleSpec(2, 2), quantity="coherence", samples=4000, master_seed=44)
        one = mc.estimate(mc.EstimatorConfig(workers=1, **base))
        three = mc.estimate(mc.EstimatorConfig(workers=3, **base))
        gap = abs(one.mean - three.mean)
        assert gap < 5 * math.hypot(one.stderr, three.stderr)

    def test_degenerate_dimension_one(self):
        cfg = mc.EstimatorConfig(EnsembleSpec(1, 4), "entropy", samples=100, master_seed=7)
        stats = mc.estimate(cfg)
        assert stats.mean == 0.0
        assert stats.stderr == 0.0
        assert mc.compare(stats, cfg).passed

    def test_stderr_scales_like_inverse_root_n(self):
        base = dict(spec=EnsembleSpec(2, 2), quantity="entropy", master_seed=45)
        small = mc.estimate(mc.EstimatorConfig(samples=4000, workers=1, **base))
        big = mc.estimate(mc.EstimatorConfig(samples=16000, workers=1, **base))
        assert big.stderr * 2.0 == pytest.approx(small.stderr, rel=0.2)


def per_draw_reference(config):
    """The estimate one draw at a time: the single-state samplers, the
    functional on each draw, and a Welford update per value."""
    functional = {
        "entropy": functionals.von_neumann_entropy,
        "diag_entropy": lambda rho: functionals.shannon_entropy(rho.diagonal),
        "coherence": functionals.relative_entropy_of_coherence,
        "subentropy": lambda rho: functionals.subentropy(rho.spectrum),
    }
    merged = mc.RunningStats()
    for w, count in enumerate(mc.worker_counts(config.samples, config.workers)):
        stream = RngStream(SeedSpec(config.master_seed, w))
        stats = mc.RunningStats()
        for _ in range(count):
            if config.fixed_spectrum is not None:
                value = functionals.shannon_entropy(sample_isospectral_diagonal(stream, config.fixed_spectrum))
            else:
                value = functional[config.quantity](sample_mixing_state(stream, config.spec))
            stats.update(value)
        merged.merge(stats)
    return merged


class TestChunkedEstimateMatchesPerDrawLoop:
    # (2, 2) draws come 1024 to a chunk: 1000 is one partial chunk, 1024 one
    # full chunk, 2500 two full chunks and a partial one
    @pytest.mark.parametrize("quantity", ["entropy", "diag_entropy", "coherence", "subentropy"])
    @pytest.mark.parametrize("spec,samples,workers", [
        (EnsembleSpec(2, 2), 1000, 1),
        (EnsembleSpec(2, 2), 1024, 1),
        (EnsembleSpec(2, 2), 2500, 2),
        (EnsembleSpec(2, 2, k=3), 700, 1),
        (EnsembleSpec(1, 3), 300, 1),
        (EnsembleSpec(4, 5), 300, 1),
    ])
    def test_every_quantity(self, quantity, spec, samples, workers):
        config = mc.EstimatorConfig(spec, quantity, samples, master_seed=61, workers=workers)
        self.assert_close(mc.estimate(config), per_draw_reference(config))

    def test_isospectral(self):
        config = mc.EstimatorConfig(EnsembleSpec(3, 3), "isospectral_diag_entropy", 1200, master_seed=62,
                                    fixed_spectrum=(0.6, 0.3, 0.1))
        self.assert_close(mc.estimate(config), per_draw_reference(config))

    @staticmethod
    def assert_close(chunked, reference):
        assert chunked.count == reference.count
        assert chunked.mean == pytest.approx(reference.mean, rel=1e-12, abs=1e-300)
        assert chunked.m2 == pytest.approx(reference.m2, rel=1e-12, abs=1e-300)


class TestCompare:
    def test_coherence_three_by_four(self):
        cfg = mc.EstimatorConfig(EnsembleSpec(3, 4), "coherence", samples=20_000, master_seed=46, workers=2)
        report = mc.run_comparison(cfg)
        assert report.closed_form == 0.25
        assert report.passed

    def test_diag_entropy_mixing_order_two(self):
        cfg = mc.EstimatorConfig(EnsembleSpec(2, 2, k=2), "diag_entropy", samples=20_000,
                                 master_seed=47, workers=2)
        report = mc.run_comparison(cfg)
        assert report.closed_form == pytest.approx(harmonic(8) - harmonic(4), rel=1e-14)
        assert report.passed

    def test_rejects_degenerate_stats(self):
        cfg = mc.EstimatorConfig(EnsembleSpec(2, 2), "coherence", samples=10, master_seed=0)
        with pytest.raises(ParameterError):
            mc.compare(mc.RunningStats(count=1, mean=0.2), cfg)


class TestIncompleteGamma:
    def test_against_scipy_on_a_grid(self):
        for shape in (0.5, 1.0, 2.5, 4.0, 10.0, 30.0):
            for x in (1e-6, 0.1, 0.5, 1.0, 2.0, shape, shape + 1.0, 3.0 * shape, 80.0):
                assert mc.gamma_cdf(x, shape) == pytest.approx(
                    float(special.gammainc(shape, x)), abs=1e-12
                )

    def test_edge_values(self):
        assert mc.gamma_cdf(0.0, 3.0) == 0.0
        assert mc.gamma_cdf(-1.0, 3.0) == 0.0
        assert mc.gamma_cdf(1e4, 2.0) == 1.0

    def test_rejects_bad_shape(self):
        with pytest.raises(ParameterError):
            mc.gamma_cdf(1.0, 0.0)


class TestKolmogorovSmirnov:
    def test_one_sample_matches_scipy(self):
        rng = np.random.default_rng(5)
        values = rng.random(4000)
        ours = mc.ks_statistic(values, lambda x: min(max(x, 0.0), 1.0))
        theirs, _ = sps.kstest(values, "uniform")
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_two_sample_matches_scipy(self):
        rng = np.random.default_rng(6)
        a, b = rng.random(3000), rng.random(2000) ** 1.1
        assert mc.ks_two_sample(a, b) == pytest.approx(sps.ks_2samp(a, b).statistic, abs=1e-12)

    def test_critical_value_constant(self):
        # sqrt(-ln(0.005)/2) = 1.62762363071873
        assert mc.ks_critical_value(10_000) == pytest.approx(1.62762363071873 / 100.0, rel=1e-12)


class TestGammaMarginal:
    def test_wishart_diagonals_pass(self):
        stats = mc.gamma_marginal_test(2, 4, samples=100_000, master_seed=48)
        band = 1.95 / math.sqrt(100_000) * 1.5
        assert stats.shape == (2,)
        assert (stats < band).all()

    def test_null_self_test(self):
        # direct Gamma(n) draws against the Gamma(n) CDF stay in the band
        n, samples = 4, 100_000
        draws = RngStream(SeedSpec(49, 0)).gammas(float(n), samples)
        d = mc.ks_statistic(draws, lambda x: mc.gamma_cdf(x, float(n)))
        assert d < 1.95 / math.sqrt(samples) * 1.5

    def test_power_against_wrong_shape(self):
        n, samples = 4, 100_000
        draws = RngStream(SeedSpec(50, 0)).gammas(float(n), samples)
        d = mc.ks_statistic(draws, lambda x: mc.gamma_cdf(x, float(n + 1)))
        assert d > 1.95 / math.sqrt(samples) * 1.5

    def test_rejects_thin_samples(self):
        with pytest.raises(ParameterError):
            mc.gamma_marginal_test(2, 4, samples=10, master_seed=0)

    def test_diagonals_are_those_of_the_wishart_draws(self):
        stream = RngStream(SeedSpec(63, 0))
        diags = np.array([np.diagonal(sample_wishart(stream, 2, 3)).real for _ in range(1500)])
        expected = [mc.ks_statistic(diags[:, i], lambda x: mc.gamma_cdf(x, 3.0)) for i in range(2)]
        assert mc.gamma_marginal_test(2, 3, 1500, 63) == pytest.approx(expected, abs=1e-12)


class TestDirichletConsistency:
    def test_small_case_passes(self):
        d = mc.dirichlet_consistency_test(EnsembleSpec(2, 3), samples=20_000, master_seed=51)
        assert d < mc.ks_critical_value(20_000, n2=20_000)

    def test_samples_are_those_of_the_single_draw_samplers(self):
        spec = EnsembleSpec(2, 3, k=2)
        states, direct = RngStream(SeedSpec(64, 0)), RngStream(SeedSpec(64, 1))
        from_states = [sample_mixing_state(states, spec).diagonal[0] for _ in range(1100)]
        from_dirichlet = [sample_diag_dirichlet(direct, spec)[0] for _ in range(1100)]
        expected = mc.ks_two_sample(np.array(from_states), np.array(from_dirichlet))
        assert mc.dirichlet_consistency_test(spec, 1100, 64) == expected

    def test_dimension_one_is_exactly_consistent(self):
        assert mc.dirichlet_consistency_test(EnsembleSpec(1, 2), samples=500, master_seed=0) == 0.0


class TestEmpiricalConcentration:
    def test_fraction_within_bound(self):
        fraction, bound = mc.empirical_concentration(
            EnsembleSpec(3, 3), epsilon=0.2, samples=10_000, master_seed=52, workers=2
        )
        assert bound == 1.0  # vacuous at desk scale
        assert fraction <= bound

    def test_large_epsilon_has_empty_tail(self):
        # coherence lives in [0, ln m], so deviations beyond ln m are impossible
        fraction, _ = mc.empirical_concentration(
            EnsembleSpec(3, 3), epsilon=math.log(3.0), samples=2000, master_seed=53
        )
        assert fraction == 0.0

    def test_fraction_non_increasing_in_epsilon(self):
        fractions = [
            mc.empirical_concentration(EnsembleSpec(3, 3), eps, samples=4000, master_seed=54)[0]
            for eps in (0.05, 0.1, 0.2, 0.4)
        ]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))

    def test_hypothesis_guards(self):
        with pytest.raises(ParameterError):
            mc.empirical_concentration(EnsembleSpec(2, 2), 0.1, 100, 0)
        with pytest.raises(ParameterError):
            mc.empirical_concentration(EnsembleSpec(3, 3), 0.0, 100, 0)
