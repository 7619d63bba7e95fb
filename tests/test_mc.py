import ast
import itertools
import math
import os
import subprocess
import sys
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import special, stats as sps

from randcoh import ensembles, functionals, linalg, mc
from randcoh.closedforms import avg_coherence
from randcoh.ensembles import (
    DensityMatrix,
    EnsembleSpec,
    sample_diag_dirichlet,
    sample_isospectral_diagonal,
    sample_mixing_state,
)
from randcoh.errors import DomainError, ParameterError
from randcoh.functionals import harmonic
from randcoh.randkit import RngStream, SeedSpec
from test_ensembles import bartlett_factor, bartlett_reference


class TestChunks:
    @pytest.mark.usefixtures("chunks_of_4096")
    def test_budget_sets_the_chunk_size(self):
        # (2, 2): 4 Ginibre entries per draw, so 1024 draws per chunk
        assert mc.chunk_sizes(2500, 4) == [1024, 1024, 452]
        assert mc.chunk_sizes(1024, 4) == [1024]
        assert mc.chunk_sizes(1000, 4) == [1000]
        assert mc.chunk_sizes(0, 4) == []

    def test_default_budget(self):
        # 16 384 variates: 4096 draws of 4 entries, 120 states at m = 16
        assert mc.CHUNK_ENTRIES == 1 << 14
        assert mc.chunk_sizes(10_000, 4) == [4096, 4096, 1808]
        assert mc.chunk_sizes(400, 136) == [120, 120, 120, 40]

    def test_at_least_one_draw_per_chunk(self):
        assert mc.chunk_sizes(3, mc.CHUNK_ENTRIES * 2) == [1, 1, 1]

    def test_a_draw_of_no_variates_counts_as_one(self):
        # an orbit at m = 1 draws nothing: its plan is that of one variate
        # a draw, and the orbit key plans it
        assert mc.chunk_sizes(40_000, 0) == mc.chunk_sizes(40_000, 1) == [16_384, 16_384, 7232]
        config = mc.EstimatorConfig(EnsembleSpec(1, 1), "isospectral_diag_entropy", 40_000, master_seed=0,
                                    fixed_spectrum=(1.0,))
        assert mc._chunks(mc._draw_key(config)) == [(0, 16_384), (1, 16_384), (2, 7232)]

    @pytest.mark.usefixtures("chunks_of_4096")
    def test_chunks_stop_at_the_width_of_the_stream_index(self, monkeypatch):
        # a chunk index is a SeedSpec's 32-bit stream_index
        assert mc._MAX_CHUNKS == 2**32
        SeedSpec(0, mc._MAX_CHUNKS - 1)
        with pytest.raises(ParameterError):
            SeedSpec(0, mc._MAX_CHUNKS)
        monkeypatch.setattr(mc, "_MAX_CHUNKS", 3)
        assert mc.chunk_sizes(3 * 1024, 4) == [1024] * 3
        with pytest.raises(ParameterError, match="chunks"):
            mc.chunk_sizes(3 * 1024 + 1, 4)

    def test_a_job_of_more_chunks_than_stream_indices_is_refused(self):
        # these jobs need 2^32 + 1 chunks of states; the split is refused
        # before any list of that length is made
        def samples(spec):
            return mc._chunks(mc._draw_key(mc.EstimatorConfig(spec, "coherence", 10**6, master_seed=1)))[0][1] \
                * 2**32 + 1

        spec = EnsembleSpec(2, 2)
        with pytest.raises(ParameterError, match="chunks"):
            mc.estimate(mc.EstimatorConfig(spec, "coherence", samples(spec), master_seed=1))
        spec = EnsembleSpec(3, 3)
        with pytest.raises(ParameterError, match="chunks"):
            mc.empirical_concentration(spec, 0.1, samples(spec), master_seed=1)


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

    def test_batch_mean_is_numpys_mean_bit_for_bit(self):
        # the sum divided by the count is the division np.mean makes, after
        # the same pairwise sum, on both sides of its 8-entry unrolling and
        # of its 128-entry blocks
        rng = np.random.default_rng(17)
        for size in (1, 2, 7, 8, 9, 127, 128, 129, 1000, 4097, 20_000):
            values = rng.standard_normal(size) * 10.0 ** rng.integers(-8, 8, size)
            assert mc.RunningStats.of(values).mean.hex() == float(values.mean()).hex(), size

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

    @pytest.mark.parametrize("field,value", [("samples", 10.5), ("samples", 10.0), ("workers", 1.5),
                                             ("workers", 2.0)])
    def test_rejects_non_integer_counts(self, field, value):
        kwargs = {"samples": 10, "workers": 1, field: value}
        with pytest.raises(ParameterError):
            mc.EstimatorConfig(EnsembleSpec(2, 2), "coherence", master_seed=0, **kwargs)

    def test_rejects_bool_workers(self):
        # a bool is an int to isinstance, and would pass as 1
        with pytest.raises(ParameterError):
            mc.EstimatorConfig(EnsembleSpec(2, 2), "coherence", samples=10, master_seed=0, workers=True)

    def test_bool_master_seed_draws_nothing(self):
        config = mc.EstimatorConfig(EnsembleSpec(2, 2), "coherence", samples=10, master_seed=True)
        with pytest.raises(ParameterError, match="master_seed"):
            mc.estimate(config)

    @pytest.mark.parametrize("field", ["samples", "master_seed", "workers"])
    def test_concentration_rejects_bools(self, field):
        kwargs = {"samples": 10, "master_seed": 0, "workers": 1, field: True}
        with pytest.raises(ParameterError, match=field):
            mc.empirical_concentration(EnsembleSpec(3, 3), 0.2, **kwargs)

    def test_spectrum_rejected_elsewhere(self):
        with pytest.raises(ParameterError):
            mc.EstimatorConfig(EnsembleSpec(2, 2), "coherence", samples=10, master_seed=0,
                               fixed_spectrum=(0.5, 0.5))

    def test_spectrum_as_list_array_or_tuple_gives_one_report(self):
        # each is stored as the same tuple of floats, which the draw key hashes
        reports = [mc.run_comparison(mc.EstimatorConfig(EnsembleSpec(3, 3), "isospectral_diag_entropy", 2000,
                                                        master_seed=5, fixed_spectrum=lam))
                   for lam in ([0.6, 0.3, 0.1], np.array([0.6, 0.3, 0.1]), (0.6, 0.3, 0.1))]
        for report in reports:
            assert report.config.fixed_spectrum == (0.6, 0.3, 0.1)
            assert type(report.config.fixed_spectrum[0]) is float
            report.wall_time_ms = 0.0
        assert reports[0] == reports[1] == reports[2]

    @pytest.mark.parametrize("spectrum", [(0.5, 0.6), (1.5, -0.5), (math.nan, 1.0), [[0.5, 0.5]], ()])
    def test_spectrum_must_be_one_probability_vector(self, spectrum):
        with pytest.raises(DomainError):
            mc.EstimatorConfig(EnsembleSpec(2, 2), "isospectral_diag_entropy", samples=10, master_seed=0,
                               fixed_spectrum=spectrum)

    @pytest.mark.parametrize("spectrum", [(0.6, 0.3, 0.1), (1.0,)])
    def test_spectrum_length_must_be_m(self, spectrum):
        # the orbit draws at the spectrum's length, so any other m would be ignored
        with pytest.raises(ParameterError, match="spec.m"):
            mc.EstimatorConfig(EnsembleSpec(2, 2), "isospectral_diag_entropy", samples=10, master_seed=0,
                               fixed_spectrum=spectrum)


class TestEstimate:
    def test_bit_reproducible_for_fixed_worker_count(self):
        cfg = mc.EstimatorConfig(EnsembleSpec(2, 3), "coherence", samples=2000, master_seed=42, workers=2)
        a, b = mc.estimate(cfg), mc.estimate(cfg)
        assert (a.count, a.mean, a.m2) == (b.count, b.mean, b.m2)

    @pytest.mark.usefixtures("chunks_of_4096")
    def test_inline_and_pooled_agree(self):
        # chunk results depend only on (seed, chunk index, size), not on where
        # they ran.  A (2, 3) state is 3 variates, 1365 draws to a chunk, so
        # 3000 draws make three chunks, run on a real 2-worker pool
        config = mc.EstimatorConfig(EnsembleSpec(2, 3), "coherence", samples=3000, master_seed=43, workers=2)
        pooled = mc.estimate(config)
        chunks = list(enumerate(mc.chunk_sizes(3000, 3)))
        assert len(chunks) == 3
        inline = mc.RunningStats()
        for chunk in chunks:
            (part,) = mc._run_worker((config,), chunk)
            inline.merge(part)
        assert (pooled.count, pooled.mean, pooled.m2) == (inline.count, inline.mean, inline.m2)

    def test_worker_count_changes_only_stream_assignment(self):
        # streams are keyed by chunk, so no stream moves and the gap is 0
        base = dict(spec=EnsembleSpec(2, 2), quantity="coherence", samples=4000, master_seed=44)
        one = mc.estimate(mc.EstimatorConfig(workers=1, **base))
        three = mc.estimate(mc.EstimatorConfig(workers=3, **base))
        assert (one.count, one.mean, one.m2) == (three.count, three.mean, three.m2)

    # a state at m = 8 is m(m+1)/2 = 36 variates, 113 draws to a chunk; a
    # spectrum at m = 4 is 2m - 1 = 7 Gamma variates, 585 to a chunk; each
    # of those sizes makes three chunks.  An isospectral draw at m = 3 is the
    # m(m - 1) = 6 complex Gaussians of two Gram-Schmidt columns, 682 to a
    # chunk, so its 1000 samples make two
    @pytest.mark.usefixtures("chunks_of_4096")
    @pytest.mark.parametrize("quantity,spec,samples,spectrum", [
        ("entropy", EnsembleSpec(4, 8), 1500, None),
        ("diag_entropy", EnsembleSpec(8, 8), 300, None),
        ("coherence", EnsembleSpec(8, 8), 300, None),
        ("subentropy", EnsembleSpec(4, 8), 1500, None),
        ("isospectral_diag_entropy", EnsembleSpec(3, 3), 1000, (0.6, 0.3, 0.1)),
    ])
    def test_bit_identical_for_every_worker_count(self, quantity, spec, samples, spectrum):
        keys = []
        for workers in (1, 2, 3):
            config = mc.EstimatorConfig(spec, quantity, samples, master_seed=65, workers=workers,
                                        fixed_spectrum=spectrum)
            stats = mc.estimate(config)
            keys.append((stats.count, stats.mean, stats.m2))
        assert keys[0][0] == samples
        assert keys == [keys[0]] * 3

    def test_one_chunk_job_starts_no_pool(self, monkeypatch):
        def no_pool(*args, **kwargs):
            raise AssertionError("a one-chunk job started a process pool")

        monkeypatch.setattr(mc, "ProcessPoolExecutor", no_pool)
        # (2, 3): 1365 states to a chunk; (3, 3): 682
        stats = mc.estimate(mc.EstimatorConfig(EnsembleSpec(2, 3), "coherence", 600, master_seed=66, workers=4))
        assert stats.count == 600
        fraction, _ = mc.empirical_concentration(EnsembleSpec(3, 3), 0.1, 400, master_seed=66, workers=4)
        assert 0.0 <= fraction <= 1.0

    def test_degenerate_dimension_one(self):
        cfg = mc.EstimatorConfig(EnsembleSpec(1, 4), "entropy", samples=100, master_seed=7)
        stats = mc.estimate(cfg)
        assert stats.mean == 0.0
        assert stats.stderr == 0.0
        assert mc.compare(stats, cfg).passed

    @pytest.mark.parametrize("quantity", mc.QUANTITIES)
    @given(n=st.integers(1, 50), k=st.integers(1, 4), samples=st.integers(2, 50), seed=st.integers(0, 2**64 - 1))
    @example(n=2, k=2, samples=50, seed=8)
    @example(n=50, k=4, samples=50, seed=2**64 - 1)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_dimension_one_matches_every_closed_form(self, quantity, n, k, samples, seed):
        # a 1 x 1 state is [[1]]: every quantity is 0 up to rounding, within
        # the exact-match rule of compare
        spectrum = (1.0,) if quantity == "isospectral_diag_entropy" else None
        config = mc.EstimatorConfig(EnsembleSpec(1, n, k), quantity, samples, master_seed=seed,
                                    fixed_spectrum=spectrum)
        report = mc.run_comparison(config)
        assert abs(report.mc_mean - report.closed_form) <= 1e-12
        assert (report.z_score, report.passed) == (0.0, True)

    def test_stderr_scales_like_inverse_root_n(self):
        base = dict(spec=EnsembleSpec(2, 2), quantity="entropy", master_seed=45)
        small = mc.estimate(mc.EstimatorConfig(samples=4000, workers=1, **base))
        big = mc.estimate(mc.EstimatorConfig(samples=16000, workers=1, **base))
        assert big.stderr * 2.0 == pytest.approx(small.stderr, rel=0.2)


VERIFY_QUANTITIES = ("coherence", "entropy", "diag_entropy", "subentropy")


@pytest.mark.usefixtures("chunks_of_4096")
class TestRunComparisons:
    # samples that make at least three chunks of states and of spectra: a
    # state is m(m+1)/2 variates and a spectrum 2m - 1, so at m = 2 1365
    # draws of either make a chunk, at m = 4 409 states or 585 spectra, at
    # m = 8 113 states or 273 spectra
    SIZES = ((EnsembleSpec(2, 3), 3000), (EnsembleSpec(4, 8), 1300), (EnsembleSpec(8, 8), 600))

    @staticmethod
    def configs(workers):
        configs = []
        for spec, samples in TestRunComparisons.SIZES:
            configs += [mc.EstimatorConfig(spec, q, samples, master_seed=75, workers=workers)
                        for q in VERIFY_QUANTITIES]
        # jobs that must not join a family above: another seed, another
        # sample count, another spec (k = 2); and an isospectral job
        spec, samples = TestRunComparisons.SIZES[1]
        configs += [
            mc.EstimatorConfig(spec, "coherence", samples, master_seed=76, workers=workers),
            mc.EstimatorConfig(spec, "diag_entropy", samples + 1, master_seed=75, workers=workers),
            mc.EstimatorConfig(EnsembleSpec(4, 8, k=2), "entropy", samples, master_seed=75, workers=workers),
            mc.EstimatorConfig(EnsembleSpec(3, 3), "isospectral_diag_entropy", 1000, master_seed=75,
                               workers=workers, fixed_spectrum=(0.6, 0.3, 0.1)),
        ]
        return configs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bits_are_those_of_separate_estimates(self, workers, monkeypatch):
        configs = self.configs(workers)
        for config in configs[:12]:
            assert len(mc._chunks(mc._draw_key(config))) >= 3
        seen = {}
        compare = mc.compare

        def recording_compare(stats, config, wall_time_ms=0.0):
            seen[config] = (stats.count, stats.mean, stats.m2)
            return compare(stats, config, wall_time_ms)

        monkeypatch.setattr(mc, "compare", recording_compare)
        reports = mc.run_comparisons(configs)
        assert [r.config for r in reports] == configs
        for config, report in zip(configs, reports):
            alone = mc.estimate(config)
            assert seen[config] == (alone.count, alone.mean, alone.m2)
            assert (report.mc_mean, report.mc_stderr) == (alone.mean, alone.stderr)

    def test_each_chunk_of_a_family_is_drawn_once(self, monkeypatch):
        configs = self.configs(1)
        draws = {"state": 0, "spectrum": 0}

        def counted(name, sampler):
            def draw(*args, **kwargs):
                draws[name] += 1
                return sampler(*args, **kwargs)
            return draw

        monkeypatch.setattr(mc, "sample_mixing_state", counted("state", mc.sample_mixing_state))
        monkeypatch.setattr(mc, "sample_mixing_spectrum", counted("spectrum", mc.sample_mixing_spectrum))
        mc.run_comparisons(configs)

        def chunks(config):
            return len(mc._chunks(mc._draw_key(config)))

        # one draw per chunk of each family: the four verify jobs of a size
        # are a state family (coherence, diag_entropy at 0 and 2 of each
        # four) and a spectrum family (entropy, subentropy at 1 and 3); the
        # jobs after them, 12 and 13 states, 14 spectra, are families of one
        verify = configs[:12]
        assert draws["state"] == sum(chunks(c) for c in verify[0::4]) + chunks(configs[12]) \
            + chunks(configs[13])
        assert draws["spectrum"] == sum(chunks(c) for c in verify[1::4]) + chunks(configs[14])

    def test_a_call_shares_its_wall_time(self):
        # one chunk map draws both families, so all four reports carry its time
        reports = mc.run_comparisons(
            [mc.EstimatorConfig(EnsembleSpec(2, 3), q, 200, master_seed=77) for q in VERIFY_QUANTITIES])
        assert len({r.wall_time_ms for r in reports}) == 1
        assert reports[0].wall_time_ms > 0.0

    @given(data=st.data())
    @settings(max_examples=10, deadline=None, derandomize=True)
    def test_any_order_of_jobs_gives_the_bits_of_separate_estimates(self, data):
        # the chunk results of each config merge by its index in the call,
        # so reordering and repeating jobs moves no report and no bit
        configs = self.configs(1)
        repeats = data.draw(st.lists(st.sampled_from(configs), min_size=1, max_size=4))
        jobs = data.draw(st.permutations(configs + repeats))
        reports = mc.run_comparisons(jobs)
        assert [r.config for r in reports] == jobs
        for config, report in zip(jobs, reports):
            alone = mc.estimate(config)
            assert (report.mc_mean, report.mc_stderr) == (alone.mean, alone.stderr)

    def test_no_configs_give_no_reports(self):
        assert mc.run_comparisons([]) == []


def laguerre_shapes(spec):
    """A spectrum draw's Gamma shapes in the order the sampler draws them:
    the bidiagonal's diagonal kn, kn - 1, ..., kn - m + 1, then its
    sub-diagonal m - 1, ..., 1."""
    m, kn = spec.m, spec.env_dim
    return [kn - i for i in range(m)] + [m - 1 - i for i in range(m - 1)]


def single_spectrum(g, m):
    """One state's spectrum from its 2m - 1 Gamma variates: the eigenvalues
    of B B^T for the lower bidiagonal B with diagonal sqrt(g[:m]) and
    sub-diagonal sqrt(g[m:]), divided by the trace."""
    b = np.diag(np.sqrt(g[:m])) + np.diag(np.sqrt(g[m:]), -1)
    t = b @ b.T
    return linalg.clamp_spectrum(np.linalg.eigvalsh(t)[::-1] / np.trace(t))


def per_draw_reference(config):
    """The estimate one draw at a time: chunk c's draws from stream c of the
    job's domain, the
    functional on each draw, and a Welford update per value.  Isospectral
    diagonals come from the single-draw sampler.  A chunk of spectra draws
    its Gamma variates in one block, as the spectrum sampler lays them out,
    and each spectrum is then built on its own from its 2m - 1 variates.  A
    chunk of states draws its Gamma block and its normal block as the
    Bartlett sampler lays them out, and each state is then built on its own
    from its explicit triangle (bartlett_reference)."""
    functional = {
        "diag_entropy": lambda rho: functionals.shannon_entropy(rho.diagonal),
        "coherence": functionals.relative_entropy_of_coherence,
    }
    spectral = {"entropy": functionals.shannon_entropy, "subentropy": functionals.subentropy}
    spec = config.spec
    if config.quantity in spectral:
        entries = 2 * spec.m - 1
    elif config.fixed_spectrum is not None:
        entries = len(config.fixed_spectrum) * (len(config.fixed_spectrum) - 1)
    else:
        entries = spec.m * (spec.m + 1) // 2
    merged = mc.RunningStats()
    for chunk, count in enumerate(mc.chunk_sizes(config.samples, entries)):
        stream = RngStream(SeedSpec(config.master_seed, chunk, mc.STREAM_DOMAINS[mc.SAMPLERS[config.quantity]]))
        if config.quantity in spectral:
            g = stream.gammas(np.tile(laguerre_shapes(spec), count).astype(float), count * entries)
            values = [spectral[config.quantity](single_spectrum(draw, spec.m))
                      for draw in g.reshape(count, entries)]
        elif config.fixed_spectrum is not None:
            values = [functionals.shannon_entropy(sample_isospectral_diagonal(stream, config.fixed_spectrum, 1)[0])
                      for _ in range(count)]
        else:
            values = [functional[config.quantity](DensityMatrix(rho))
                      for rho in bartlett_reference(stream, spec, count)]
        stats = mc.RunningStats()
        for value in values:
            stats.update(value)
        merged.merge(stats)
    return merged


@pytest.mark.usefixtures("chunks_of_4096")
class TestChunkedEstimateMatchesPerDrawLoop:
    # states and spectra at m = 2 are both 3 variates and come 1365 to a
    # chunk: 1000 and 1024 are one partial chunk, 2500 one full chunk and a
    # partial one; (4, 5) states are 10 variates, 409 to a chunk
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

    # k*n >= 100 is where harmonic() switches to its Euler-Maclaurin branch;
    # at 5e4 draws one step kn -> kn + 1 moves the entropy, subentropy or
    # coherence closed form by 6 to 8 standard errors, so the same draws must
    # reject the neighbour.  The diagonal entropy moves by only about 2.8
    # standard errors per step, so its neighbour is kn + 3
    @pytest.mark.parametrize("quantity", ["entropy", "subentropy", "coherence", "diag_entropy"])
    @pytest.mark.parametrize("spec,seed", [(EnsembleSpec(4, 100), 73), (EnsembleSpec(4, 25, k=4), 74)])
    def test_asymptotic_harmonic_branch(self, quantity, spec, seed):
        cfg = mc.EstimatorConfig(spec, quantity, samples=50_000, master_seed=seed)
        stats = mc.estimate(cfg)
        assert mc.compare(stats, cfg).passed
        step = 3 if quantity == "diag_entropy" else 1
        neighbour = mc.EstimatorConfig(EnsembleSpec(spec.m, spec.env_dim + step), quantity, 50_000, seed)
        assert not mc.compare(stats, neighbour).passed

    def test_rejects_degenerate_stats(self):
        cfg = mc.EstimatorConfig(EnsembleSpec(2, 2), "coherence", samples=10, master_seed=0)
        with pytest.raises(ParameterError):
            mc.compare(mc.RunningStats(count=1, mean=0.2), cfg)


class TestIncompleteGamma:
    def test_against_scipy_on_a_grid(self):
        for shape in (1.0, 4.0, 10.0, 30.0):
            for x in (1e-6, 0.1, 0.5, 1.0, 2.0, shape, shape + 1.0, 3.0 * shape, 80.0):
                assert mc.gamma_cdf(x, shape) == pytest.approx(
                    float(special.gammainc(shape, x)), abs=1e-12
                )

    @pytest.mark.parametrize("shape", [1.0, 3.0, 50.0, 120.0, 200.0, 300.0])
    def test_array_against_scipy_across_the_branch_point(self, shape):
        # above shape 256: the P tail below x = shape, the Q tail from there
        edge = shape
        xs = np.concatenate([np.linspace(1e-9, 3.0 * shape + 40.0, 1201),
                             [np.nextafter(edge, 0.0), edge, np.nextafter(edge, np.inf)]])
        got = mc.gamma_cdf(xs, shape)
        assert got.shape == xs.shape
        assert np.abs(got - special.gammainc(shape, xs)).max() <= 1e-12

    def test_array_keeps_its_shape_and_matches_scalars(self):
        xs = np.array([[0.0, 0.5, 2.0], [3.0, 4.0, 9.0]])
        got = mc.gamma_cdf(xs, 3.0)
        assert got.shape == (2, 3)
        assert got.tolist() == [[mc.gamma_cdf(float(x), 3.0) for x in row] for row in xs]
        assert isinstance(mc.gamma_cdf(2.0, 3.0), float)

    def test_edge_values(self):
        assert mc.gamma_cdf(0.0, 3.0) == 0.0
        assert mc.gamma_cdf(-1.0, 3.0) == 0.0
        assert mc.gamma_cdf(1e4, 2.0) == 1.0

    def test_infinite_x_is_one(self):
        assert mc.gamma_cdf(math.inf, 3.0) == 1.0
        assert mc.gamma_cdf(np.array([-math.inf, 1.0, math.inf]), 3.0).tolist() == [
            0.0, mc.gamma_cdf(1.0, 3.0), 1.0]

    def test_nan_x_is_a_domain_error(self):
        with pytest.raises(DomainError):
            mc.gamma_cdf(math.nan, 3.0)
        with pytest.raises(DomainError):
            mc.gamma_cdf(np.array([1.0, math.nan]), 3.0)

    def test_rejects_bad_shape(self):
        with pytest.raises(ParameterError):
            mc.gamma_cdf(1.0, 0.0)

    @pytest.mark.parametrize("shape", [1, 2, 3, 8, 12, 30, 64, 100, 255, 256])
    def test_integer_shapes_take_the_finite_sum(self, monkeypatch, shape):
        # P = 1 - e^-x sum_{j<a} x^j/j! needs no tail loop, and is within a
        # few ulp of 1 of scipy, also where e^-x is subnormal or underflows
        def no_loop(*args):
            raise AssertionError("a shape up to 256 reached the tail loop")

        monkeypatch.setattr(mc, "_poisson_far_tail", no_loop)
        xs = np.concatenate([np.geomspace(1e-9, 3.0 * shape + 40.0, 2001), np.linspace(740.0, 760.0, 401)])
        assert np.abs(mc.gamma_cdf(xs, float(shape)) - special.gammainc(shape, xs)).max() <= 4e-15

    @pytest.mark.parametrize("shape", [257.0, 300.0, 1000.0, 2e3, 2e4, 2e5])
    def test_large_shapes_against_scipy(self, shape):
        # the far-side tail sums need about 8 sqrt(shape) terms near x = shape;
        # pmf(shape) = exp(shape log x - x - lgamma(shape + 1)) loses a few
        # ulp of shape log(shape) to the cancellation in its exponent
        spread = 8.0 * math.sqrt(shape)
        xs = np.concatenate([np.geomspace(1e-9, 3.0 * shape + 40.0, 2001), np.linspace(740.0, 760.0, 401),
                             np.linspace(shape - spread, shape + spread, 1001)])
        bound = 1e-12 if shape <= 1000 else 1e-9
        assert np.abs(mc.gamma_cdf(xs, shape) - special.gammainc(shape, xs)).max() <= bound

    @pytest.mark.parametrize("shape", [257, 300, 2000, 20_000])
    def test_large_shape_array_entries_are_their_scalar_calls(self, shape):
        # entries far from the shape stop after a few terms, those near it
        # after about 8 sqrt(shape); each keeps the sum it stops at
        xs = np.concatenate([shape + np.linspace(-8.0, 8.0, 33) * math.sqrt(shape), [1.0, 3.0 * shape]])
        assert mc.gamma_cdf(xs, shape).tolist() == [mc.gamma_cdf(float(x), shape) for x in xs]

    @pytest.mark.parametrize("shape", [30.5, 0.5, 3.000001, 256.5, 0, -3])
    def test_rejects_shapes_that_are_not_integers_from_one(self, shape):
        with pytest.raises(ParameterError):
            mc.gamma_cdf(1.0, shape)
        with pytest.raises(ParameterError):
            mc.gamma_cdf(np.array([1.0, 2.0]), shape)

    @pytest.mark.parametrize("shape", [True, np.True_])
    def test_rejects_bool_shapes(self, shape):
        # 3.0 is an integer shape, but True is not the shape 1
        with pytest.raises(ParameterError):
            mc.gamma_cdf(1.0, shape)

    @pytest.mark.parametrize("shape", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_shape(self, shape):
        with pytest.raises(ParameterError):
            mc.gamma_cdf(1.0, shape)
        with pytest.raises(ParameterError):
            mc.gamma_cdf(np.array([1.0, 2.0]), shape)

    def test_largest_shape_is_accurate_and_the_next_is_refused(self):
        shape = mc.GAMMA_CDF_MAX_SHAPE
        xs = shape + np.linspace(-8.0, 8.0, 41) * math.sqrt(shape)
        assert np.abs(mc.gamma_cdf(xs, shape) - special.gammainc(shape, xs)).max() <= 1e-9
        for above in (shape + 1, float(shape + 1), 2**53):
            with pytest.raises(ParameterError, match="integer in"):
                mc.gamma_cdf(xs, above)


class TestKolmogorovSmirnov:
    def test_one_sample_matches_scipy(self):
        rng = np.random.default_rng(5)
        values = rng.random(4000)
        ours = mc.ks_statistic(values, lambda x: np.clip(x, 0.0, 1.0))
        theirs, _ = sps.kstest(values, "uniform")
        assert ours == pytest.approx(theirs, abs=1e-12)

    def test_cdf_is_called_once_on_the_sorted_sample(self):
        calls = []

        def cdf(x):
            calls.append(x.copy())
            return np.clip(x, 0.0, 1.0)

        values = np.random.default_rng(7).random(50)
        mc.ks_statistic(values, cdf)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.sort(values))

    def test_rejects_a_cdf_that_is_not_an_array_map(self):
        with pytest.raises(ParameterError):
            mc.ks_statistic(np.array([0.2, 0.4, 0.6]), lambda x: 0.5)

    def test_a_stack_gives_exactly_the_statistics_of_its_columns(self):
        for width in (3, 12):
            draws = RngStream(SeedSpec(79, 0)).gammas(3.0, width * 1500).reshape(1500, width)
            for cdf in (lambda x: mc.gamma_cdf(x, 3.0), lambda x: mc.gamma_cdf(x, 4.0)):
                stacked = mc.ks_statistic(draws, cdf)
                assert stacked.shape == (width,)
                assert list(stacked) == [mc.ks_statistic(draws[:, i], cdf) for i in range(width)]
                # the bits of the whole-stack form: the grid broadcast
                # against the rows, and maxima along axis 0
                f = cdf(np.sort(draws, axis=0))
                grid = (np.arange(1, 1501) / 1500)[:, None]
                broadcast = np.maximum((grid - f).max(axis=0), (f - (grid - 1.0 / 1500)).max(axis=0))
                assert np.array_equal(stacked, broadcast)
        assert isinstance(mc.ks_statistic(draws[:, 0], lambda x: mc.gamma_cdf(x, 3.0)), float)

    def test_a_stack_calls_cdf_once(self):
        calls = []

        def cdf(x):
            calls.append(x.copy())
            return np.clip(x, 0.0, 1.0)

        values = np.random.default_rng(8).random((40, 4))
        mc.ks_statistic(values, cdf)
        assert len(calls) == 1
        assert np.array_equal(calls[0], np.sort(values, axis=0))

    @pytest.mark.parametrize("cdf", [lambda x: x[:, 0], lambda x: x.T, lambda x: 0.5])
    def test_a_stack_rejects_a_cdf_of_the_wrong_shape(self, cdf):
        with pytest.raises(ParameterError):
            mc.ks_statistic(np.random.default_rng(9).random((6, 3)), cdf)

    def test_two_sample_matches_scipy(self):
        rng = np.random.default_rng(6)
        a, b = rng.random(3000), rng.random(2000) ** 1.1
        assert mc.ks_two_sample(a, b) == pytest.approx(sps.ks_2samp(a, b).statistic, abs=1e-12)

    def test_critical_value_constant(self):
        # sqrt(-ln(0.005)/2) = 1.62762363071873
        assert mc.ks_critical_value(10_000) == pytest.approx(1.62762363071873 / 100.0, rel=1e-12)

    @pytest.mark.parametrize("args", [(100, 2.0), (100, 1.0), (100, 0.0), (100, -0.1), (100, math.nan),
                                      (0, 0.01), (-5, 0.01), (10.5, 0.01), (100, 0.01, 0)])
    def test_critical_value_rejects_bad_level_or_size(self, args):
        with pytest.raises(ParameterError):
            mc.ks_critical_value(*args)


class TestGammaMarginal:
    def test_wishart_diagonals_pass(self):
        # kn = 4 takes the finite Poisson sum, kn = 300 the far-side tails
        band = 1.95 / math.sqrt(100_000) * 1.5
        for spec in (EnsembleSpec(2, 4), EnsembleSpec(2, 100, 3)):
            stats = mc.diagonal_ks_tests(spec, samples=100_000, master_seed=48)[0]
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
            mc.diagonal_ks_tests(EnsembleSpec(2, 4), samples=10, master_seed=0)

    @pytest.mark.usefixtures("chunks_of_4096")
    def test_diagonals_are_those_of_the_wishart_draws(self):
        # W = L L^dagger for the Bartlett factors sample_mixing_state draws,
        # in its stacks of at most CHUNK_ENTRIES variates (3 per state at
        # m = 2), stack c from stream (63, ks_factors, c)
        spec = EnsembleSpec(2, 3)
        sizes = mc.chunk_sizes(1500, 3)
        assert len(sizes) == 2
        streams = [RngStream(SeedSpec(63, c, mc.STREAM_DOMAINS["ks_factors"])) for c in range(len(sizes))]
        diags = np.concatenate([
            np.diagonal(linalg.gram(bartlett_factor(stream, spec, size)), axis1=-2, axis2=-1).real
            for stream, size in zip(streams, sizes)])
        expected = [mc.ks_statistic(diags[:, i], lambda x: mc.gamma_cdf(x, 3.0)) for i in range(2)]
        assert mc.diagonal_ks_tests(spec, 1500, 63)[0] == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("seed", [81, 82, 83])
    def test_factors_of_the_next_size_fail(self, monkeypatch, seed):
        # states drawn at kn + 1 give Gamma(kn + 1) diagonals
        critical = mc.ks_critical_value(1000)
        assert (mc.diagonal_ks_tests(EnsembleSpec(4, 8), 1000, seed)[0] < critical).all()
        states = mc.sample_mixing_state
        monkeypatch.setattr(mc, "sample_mixing_state", lambda stream, spec, count: states(
            stream, EnsembleSpec(spec.m, spec.n + 1, spec.k), count))
        assert (mc.diagonal_ks_tests(EnsembleSpec(4, 8), 1000, seed)[0] > critical).all()

    def test_cost_does_not_grow_with_n(self, monkeypatch):
        # the Ginibre block would draw 2500 times as many variates at n = 20 000
        # as at n = 8; the Bartlett factor draws m(m+1)/2 whatever n is, and only
        # the Gamma rejection rate differs
        consumed = []
        uniforms = RngStream.uniforms

        def counted(stream, n):
            consumed[-1] += n
            return uniforms(stream, n)

        monkeypatch.setattr(RngStream, "uniforms", counted)
        for n in (8, 20_000):
            consumed.append(0)
            mc._wishart_diagonals(EnsembleSpec(3, n), 1000, 82)
        assert consumed[0] < 6 * 1000 * 3
        assert abs(consumed[1] - consumed[0]) <= 0.01 * consumed[0]

    def test_both_checks_read_one_stack(self, monkeypatch):
        spec = EnsembleSpec(3, 4, k=2)
        draws = []
        diagonals = mc._wishart_diagonals

        def counted(*args):
            draws.append(args)
            return diagonals(*args)

        monkeypatch.setattr(mc, "_wishart_diagonals", counted)
        mc.diagonal_ks_tests(spec, 1500, 65)
        assert draws == [(spec, 1500, 65)]

    def test_shared_path_rejects_thin_samples(self):
        with pytest.raises(ParameterError):
            mc.diagonal_ks_tests(EnsembleSpec(2, 4), samples=999, master_seed=0)

    def test_one_cdf_pass_for_every_diagonal_entry(self, monkeypatch):
        calls = []
        gamma_cdf = mc.gamma_cdf

        def counted(x, shape):
            calls.append(np.shape(x))
            return gamma_cdf(x, shape)

        monkeypatch.setattr(mc, "gamma_cdf", counted)
        assert mc.diagonal_ks_tests(EnsembleSpec(4, 8), 1000, 80)[0].shape == (4,)
        assert calls == [(1000, 4)]


class TestKsSubstreams:
    @pytest.mark.usefixtures("chunks_of_4096")
    def test_ks_diagonals_are_not_the_coherence_draws(self):
        # (3, 8): a state is 6 variates, 682 to a chunk; chunk 0 of the
        # coherence family draws from substream 0 of the seed
        spec = EnsembleSpec(3, 8)
        coherence_chunk = sample_mixing_state(RngStream(SeedSpec(5, 0)), spec, 682)
        low = bartlett_factor(RngStream(SeedSpec(5, 0)), spec, 682)
        norms = np.sum(low.real**2 + low.imag**2, axis=-1)
        assert np.array_equal(coherence_chunk.diagonal, norms / norms.sum(axis=-1, keepdims=True))
        diags = mc._wishart_diagonals(spec, 3000, 5)
        assert not np.isclose(diags[:682], norms, rtol=1e-6, atol=0.0).any()

    @pytest.mark.usefixtures("chunks_of_4096")
    @given(seed=st.integers(0, 2**64 - 1), chunks=st.integers(1, 3), tail=st.integers(0, 10**6))
    @example(seed=0, chunks=1, tail=0)
    @example(seed=2**64 - 1, chunks=3, tail=10**6)
    @settings(max_examples=30, deadline=None, derandomize=True)
    def test_chunk_c_of_a_ks_key_is_drawn_from_stream_c(self, seed, chunks, tail):
        # (3, 4, k=2): 682 factors or 1365 Dirichlet draws to a chunk; each
        # key gets chunks chunks, the last holding 1 + tail % size draws
        spec = EnsembleSpec(3, 4, k=2)
        draws = {
            "ks_factors": lambda stream, size: ensembles._row_norms(bartlett_factor(stream, spec, size)),
            "ks_dirichlet": lambda stream, size: sample_diag_dirichlet(stream, spec, size)[:, 0],
        }
        for sampler, draw in draws.items():
            size = mc._chunks((sampler, None, spec, seed, 10**6))[0][1]
            samples = size * (chunks - 1) + 1 + tail % size
            assert len(mc._chunks((sampler, None, spec, seed, samples))) == chunks
            expected = np.concatenate([draw(RngStream(SeedSpec(seed, c, mc.STREAM_DOMAINS[sampler])),
                                            min(size, samples - c * size)) for c in range(chunks)])
            assert np.array_equal(self.ks_sample(sampler, spec, samples, seed), expected), sampler

    @pytest.mark.usefixtures("chunks_of_4096")
    @pytest.mark.parametrize("spec", [EnsembleSpec(1, 2), EnsembleSpec(2, 3), EnsembleSpec(3, 4, k=2),
                                      EnsembleSpec(8, 9)])
    def test_ks_diagonals_are_the_states_samplers_own(self, spec):
        # the KS sample is the wishart_diagonal of the states sample_mixing_state
        # draws on stream (seed, ks_factors, c), and their diagonal is it
        # over its sum, bit for bit: at m = 2 the elementwise route the
        # estimates run, from m = 3 on the row norms of the factor
        size = mc.chunk_sizes(10**6, spec.m * (spec.m + 1) // 2)[0]
        samples = 2 * size + 7
        assert len(mc._chunks(("ks_factors", None, spec, 71, samples))) == 3
        states = [sample_mixing_state(RngStream(SeedSpec(71, c, mc.STREAM_DOMAINS["ks_factors"])), spec,
                                      min(size, samples - c * size)) for c in range(3)]
        expected = np.concatenate([state.wishart_diagonal for state in states])
        assert np.array_equal(mc._wishart_diagonals(spec, samples, 71), expected)
        for state in states:
            w = state.wishart_diagonal
            assert np.array_equal(w / linalg.row_sum(w, keepdims=True), state.diagonal)

    @staticmethod
    def ks_sample(sampler, spec, samples, seed):
        """The Wishart diagonals of the KS factors, or the direct Dirichlet
        sample of rho_00 that _dirichlet_ks compares them with."""
        if sampler == "ks_factors":
            return mc._wishart_diagonals(spec, samples, seed)
        compared = []
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "ks_two_sample", lambda a, b: compared.append(b) or 0.0)
            mc._dirichlet_ks(np.ones((samples, spec.m)), spec, seed)
        return compared[0]

    def test_stream_domains_are_distinct_and_in_range(self):
        tags = mc.STREAM_DOMAINS
        assert set(tags) == {"states", "spectra", "orbits", "ks_factors", "ks_dirichlet"}
        assert len(set(tags.values())) == len(tags)
        # states keep the key every stream had before domains existed
        assert tags["states"] == 0
        for tag in tags.values():
            RngStream(SeedSpec(1, 2**32 - 1, tag))


def drawn_uniforms(monkeypatch, runs):
    """The uniforms each of the named calls consumes, with each stream's
    uniforms recorded as they are drawn."""
    drawn = []
    uniforms = RngStream.uniforms

    def recorded(stream, n):
        out = uniforms(stream, n)
        drawn[-1].append(out)
        return out

    monkeypatch.setattr(RngStream, "uniforms", recorded)
    values = {}
    for name, run in runs.items():
        drawn.append([])
        run()
        values[name] = np.concatenate(drawn[-1])
    return values


class TestStreamDomains:
    # (2, 3) at 12 000 samples: states and spectra are both 3 variates,
    # 5461 to a chunk, so each family draws three chunks, and the KS sample
    # takes three stacks of factors; the isospectral job draws two chunks
    # of orbit draws (2730 to a chunk, 6 complex Gaussians each) at 5000
    # samples
    SPEC, SAMPLES, SEED = EnsembleSpec(2, 3), 12_000, 9

    def families(self):
        spec, samples, seed = self.SPEC, self.SAMPLES, self.SEED

        def estimates(*quantities, **kwargs):
            return lambda: mc.run_comparisons([mc.EstimatorConfig(spec, q, samples, master_seed=seed, **kwargs)
                                               for q in quantities])

        return {
            "states": estimates("coherence", "diag_entropy"),
            "spectra": estimates("entropy", "subentropy"),
            "orbits": lambda: mc.estimate(mc.EstimatorConfig(
                EnsembleSpec(3, 3), "isospectral_diag_entropy", 5000, master_seed=seed,
                fixed_spectrum=(0.6, 0.3, 0.1))),
            "ks": lambda: mc.diagonal_ks_tests(spec, samples, seed),
        }

    def test_verify_families_share_no_variate(self, monkeypatch):
        for config in (mc.EstimatorConfig(self.SPEC, "coherence", self.SAMPLES, master_seed=self.SEED),
                       mc.EstimatorConfig(self.SPEC, "entropy", self.SAMPLES, master_seed=self.SEED)):
            assert len(mc._chunks(mc._draw_key(config))) == 3
        values = drawn_uniforms(monkeypatch, self.families())
        # the KS factors and the direct Dirichlet draws, separately
        spec, samples, seed = self.SPEC, self.SAMPLES, self.SEED
        values.update(drawn_uniforms(monkeypatch, {
            "ks_factors": lambda: mc._wishart_diagonals(spec, samples, seed),
            "ks_dirichlet": lambda: mc._dirichlet_ks(np.ones((samples, spec.m)), spec, seed),
        }))
        assert values["ks"].size == values["ks_factors"].size + values["ks_dirichlet"].size
        del values["ks"]
        for a, b in itertools.combinations(values, 2):
            assert values[a].size > 10_000 and values[b].size > 10_000
            assert np.intersect1d(values[a], values[b]).size == 0, (a, b)

    @pytest.mark.parametrize("shared", [("states", "spectra"), ("states", "ks_factors"),
                                        ("spectra", "orbits"), ("ks_factors", "ks_dirichlet")])
    def test_two_domains_with_one_tag_share_variates(self, monkeypatch, shared):
        # what the test above looks for: give two samplers the same tag and
        # their streams, chunk for chunk, open with the same uniforms
        monkeypatch.setitem(mc.STREAM_DOMAINS, shared[1], mc.STREAM_DOMAINS[shared[0]])
        spec, samples, seed = self.SPEC, self.SAMPLES, self.SEED
        runs = {
            "states": self.families()["states"],
            "spectra": self.families()["spectra"],
            "orbits": self.families()["orbits"],
            "ks_factors": lambda: mc._wishart_diagonals(spec, samples, seed),
            "ks_dirichlet": lambda: mc._dirichlet_ks(np.ones((samples, spec.m)), spec, seed),
        }
        values = drawn_uniforms(monkeypatch, {name: runs[name] for name in shared})
        assert np.intersect1d(values[shared[0]], values[shared[1]]).size > 0


class TestPinnedStates:
    # (count, mean.hex(), m2.hex()) of three multi-chunk estimates in the
    # states domain, which keeps the key every stream had before domains
    # existed, at the chunk size of 4096 variates they were pinned at.  The
    # (2, 3) case draws its Bartlett diagonals, shapes 3 and 2, as Erlang
    # sums; the other two draw every Gamma variate by Marsaglia-Tsang
    PINNED = [
        ("coherence", EnsembleSpec(2, 3), 3000, 43, 3,
         (3000, "0x1.5222465ec32ffp-3", "0x1.9aa92e0f69b9bp+5")),
        ("diag_entropy", EnsembleSpec(4, 8), 1300, 75, 4,
         (1300, "0x1.573c34ff758ffp+0", "0x1.76874362107cfp+0")),
        ("coherence", EnsembleSpec(8, 16, 3), 500, 7, 5,
         (500, "0x1.25fb86a262b1bp-4", "0x1.211d56d844717p-4")),
    ]

    @pytest.mark.usefixtures("chunks_of_4096")
    @pytest.mark.parametrize("quantity,spec,samples,seed,chunks,pinned", PINNED)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_estimates_keep_their_bits(self, quantity, spec, samples, seed, chunks, pinned, workers):
        config = mc.EstimatorConfig(spec, quantity, samples, master_seed=seed, workers=workers)
        assert len(mc._chunks(mc._draw_key(config))) == chunks
        stats = mc.estimate(config)
        assert (stats.count, stats.mean.hex(), stats.m2.hex()) == pinned

    # the same for m = 2 diagonals (states domain, Bartlett shapes 6 and 5,
    # drawn by Marsaglia-Tsang) and m = 2 spectra (spectra domain, Laguerre
    # shapes 3, 2 and 1, drawn as Erlang sums), three chunks each
    PINNED_QUBITS = [
        ("diag_entropy", EnsembleSpec(2, 2, 3), 3000, 21,
         (3000, "0x1.4e47d1567d8a2p-1", "0x1.05859556a3ebap+3")),
        ("entropy", EnsembleSpec(2, 3), 3000, 22,
         (3000, "0x1.ce06f9556166fp-2", "0x1.0480257537387p+6")),
    ]

    @pytest.mark.usefixtures("chunks_of_4096")
    @pytest.mark.parametrize("quantity,spec,samples,seed,pinned", PINNED_QUBITS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_qubit_estimates_keep_their_bits(self, quantity, spec, samples, seed, pinned, workers):
        config = mc.EstimatorConfig(spec, quantity, samples, master_seed=seed, workers=workers)
        assert len(mc._chunks(mc._draw_key(config))) == 3
        stats = mc.estimate(config)
        assert (stats.count, stats.mean.hex(), stats.m2.hex()) == pinned

    # the same at the row widths where summing and sorting change method:
    # spectra of 7 entries (the widest that numpy sums left to right) and of
    # 8 (the first it sums its own way), 3-entry diagonals, 4-entry
    # diagonals and factor rows, and the (5, 5) Laguerre shapes 5, 4, 3, 2,
    # 1, 4, 3, 2, 1, which mix Marsaglia-Tsang and Erlang variates; three
    # chunks each
    PINNED_ROW_WIDTHS = [
        ("entropy", EnsembleSpec(7, 7), 900, 31,
         (900, "0x1.7539405b75ccdp+0", "0x1.2a8ada8601d52p+2")),
        ("entropy", EnsembleSpec(8, 8), 800, 32,
         (800, "0x1.96e1ae428688ap+0", "0x1.7f06a0b08bbd4p+1")),
        ("diag_entropy", EnsembleSpec(3, 4), 2000, 33,
         (2000, "0x1.059a34b113053p+0", "0x1.50d1d06825accp+3")),
        ("coherence", EnsembleSpec(4, 4, 2), 1000, 34,
         (1000, "0x1.7beab3f87b6f8p-3", "0x1.01c206464d32ep+2")),
        ("entropy", EnsembleSpec(5, 5), 1200, 35,
         (1200, "0x1.226d55a632b69p+0", "0x1.48f62da020eb0p+3")),
    ]

    @pytest.mark.usefixtures("chunks_of_4096")
    @pytest.mark.parametrize("quantity,spec,samples,seed,pinned", PINNED_ROW_WIDTHS)
    @pytest.mark.parametrize("workers", [1, 2])
    def test_row_width_estimates_keep_their_bits(self, quantity, spec, samples, seed, pinned, workers):
        config = mc.EstimatorConfig(spec, quantity, samples, master_seed=seed, workers=workers)
        assert len(mc._chunks(mc._draw_key(config))) == 3
        stats = mc.estimate(config)
        assert (stats.count, stats.mean.hex(), stats.m2.hex()) == pinned

    # the Gamma KS statistics (one per diagonal entry) and the Dirichlet
    # consistency statistic of three KS samples that fit one stack of
    # factors and one stack of Dirichlet draws at the default chunk size
    PINNED_KS = [
        (EnsembleSpec(4, 8), 81, ["0x1.0245a37e10680p-5", "0x1.340171e041850p-5",
                                  "0x1.397b8716c5180p-6", "0x1.af3a439ae0740p-7"], "0x1.1eb851eb851f0p-5"),
        (EnsembleSpec(2, 3), 11, ["0x1.3ad900d7d1ee0p-6", "0x1.374e269855120p-6"], "0x1.26e978d4fdf40p-5"),
        (EnsembleSpec(3, 4, 2), 5, ["0x1.0bbaf00a11c7cp-5", "0x1.593cbfbbe8510p-5",
                                    "0x1.164d158122a60p-6"], "0x1.c28f5c28f5c30p-5"),
    ]

    @pytest.mark.parametrize("spec,seed,gamma,dirichlet", PINNED_KS)
    def test_single_stack_ks_statistics_keep_their_bits(self, spec, seed, gamma, dirichlet):
        assert len(mc.chunk_sizes(1000, spec.m * (spec.m + 1) // 2)) == 1
        stats, d = mc.diagonal_ks_tests(spec, 1000, seed)
        assert ([float(s).hex() for s in stats], d.hex()) == (gamma, dirichlet)


class TestChunkWorkingSet:
    # the tracemalloc peak of one full chunk stays within BYTES_PER_VARIATE
    # per random variate plus a stack of m x m matrices for the chunk's
    # draws (complex Bartlett factors, real Laguerre tridiagonals; an orbit
    # draw holds the m x (m - 1) complex Gram-Schmidt columns).  Each
    # case is a chunk of about 16 000 variates: there, drawing the variates
    # in whole-array temporaries and checking and solving whole stacks
    # costs 75-120 bytes per variate over the stack
    BYTES_PER_VARIATE = 67

    # a concentration chunk is a coherence chunk of states, its tail counted
    @pytest.mark.parametrize("quantity,spec,spectrum,stack_itemsize", [
        ("entropy", EnsembleSpec(16, 32), None, 8),
        ("coherence", EnsembleSpec(16, 32), None, 16),
        ("coherence", EnsembleSpec(4, 8), None, 16),
        ("isospectral_diag_entropy", EnsembleSpec(3, 3), (0.6, 0.3, 0.1), 16),
        ("concentration", EnsembleSpec(16, 32), None, 16),
        ("subentropy", EnsembleSpec(2, 3), None, 8),
        ("subentropy", EnsembleSpec(8, 16, 3), None, 8),
        ("subentropy", EnsembleSpec(16, 32), None, 8),
    ])
    def test_peak_of_one_chunk(self, quantity, spec, spectrum, stack_itemsize):
        if quantity == "concentration":
            key = ("states", None, spec, 3, 10**6)
            worker = partial(mc._concentration_worker, key, avg_coherence(spec.m, spec.n, spec.k), 0.01)
        else:
            config = mc.EstimatorConfig(spec, quantity, 10**6, master_seed=3, fixed_spectrum=spectrum)
            key = mc._draw_key(config)
            worker = partial(mc._run_worker, (config,))
        # a spectrum is 2m - 1 variates, a state m(m+1)/2, an orbit draw m(m - 1)
        m = spec.m
        variates = {"spectra": 2 * m - 1, "states": m * (m + 1) // 2, "orbits": m * (m - 1)}[key[0]]
        size = mc._chunks(key)[0][1]
        assert size * variates > mc.CHUNK_ENTRIES - variates
        worker((0, size))  # first-call allocations are not the chunk's
        tracemalloc.start()
        try:
            worker((1, size))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= self.BYTES_PER_VARIATE * size * variates + size * m * m * stack_itemsize


class TestDirichletConsistency:
    def test_small_case_passes(self):
        d = mc.diagonal_ks_tests(EnsembleSpec(2, 3), samples=20_000, master_seed=51)[1]
        assert d < mc.ks_critical_value(20_000, n2=20_000)

    def test_samples_are_those_of_the_single_draw_samplers(self):
        # both sides as stacks of at most CHUNK_ENTRIES variates: m(m+1)/2
        # per state, m Gamma variates per Dirichlet draw (at m = 2 the 1100
        # draws are one stack on each side)
        spec = EnsembleSpec(2, 3, k=2)
        states = RngStream(SeedSpec(64, 0, mc.STREAM_DOMAINS["ks_factors"]))
        direct = RngStream(SeedSpec(64, 0, mc.STREAM_DOMAINS["ks_dirichlet"]))
        from_states = np.concatenate([sample_mixing_state(states, spec, size).diagonal[:, 0]
                                      for size in mc.chunk_sizes(1100, 3)])
        from_dirichlet = np.concatenate([sample_diag_dirichlet(direct, spec, size)[:, 0]
                                         for size in mc.chunk_sizes(1100, spec.m)])
        expected = mc.ks_two_sample(from_states, from_dirichlet)
        assert mc.diagonal_ks_tests(spec, 1100, 64)[1] == expected

    def test_dimension_one_is_exactly_consistent(self):
        # below the KS_MIN_SAMPLES that diagonal_ks_tests asks for; since
        # the check cannot fail at m = 1, diagonal_ks_tests does not run it
        spec = EnsembleSpec(1, 2)
        assert mc._dirichlet_ks(mc._wishart_diagonals(spec, 500, 0), spec, 0) == 0.0
        assert mc.diagonal_ks_tests(spec, 1000, 0)[1] is None


SRC = Path(__file__).resolve().parent.parent / "src"


def _callers(node: ast.AST, owner: str, name: str):
    """The function (or "<module>") around each name(...) call under node,
    the innermost one where functions nest."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            yield from _callers(child, getattr(child, "name", "<lambda>"), name)
            continue
        if isinstance(child, ast.Call) and name in (getattr(child.func, "id", None),
                                                    getattr(child.func, "attr", None)):
            yield owner
        yield from _callers(child, owner, name)


def _package_callers(name: str) -> list[str]:
    return [f"{path.stem}.{owner}" for path in sorted((SRC / "randcoh").glob("*.py"))
            for owner in _callers(ast.parse(path.read_text(encoding="utf-8")), "<module>", name)]


def test_only_draw_makes_a_stream():
    # one stream rule: chunk c of a draw key draws from stream (seed, domain,
    # c), and mc._draw is the one function that makes such a stream
    assert _package_callers("RngStream") == ["mc._draw"]


def test_one_route_for_every_sampled_state():
    # a sampled state is built only by DensityMatrix._from_bartlett, which
    # only sample_mixing_state calls, and mc reaches the Bartlett factors
    # through that sampler alone: it imports no private name of ensembles
    assert _package_callers("__new__") == ["ensembles._from_bartlett"]
    assert _package_callers("_from_bartlett") == ["ensembles.sample_mixing_state"]
    tree = ast.parse((SRC / "randcoh" / "mc.py").read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "ensembles" for alias in node.names]
    assert "sample_mixing_state" in imported
    assert not [name for name in imported if name.startswith("_")]


def test_one_chunk_map_per_estimator_call():
    # estimate, run_comparison and run_comparisons map their chunks through
    # _merged_stats, and empirical_concentration maps its own; nothing else
    # may start a second map (and a second pool) within one call
    assert _package_callers("_map_chunks") == ["mc._merged_stats", "mc.empirical_concentration"]


class TestLazyPool:
    def test_import_and_one_chunk_jobs_do_not_load_the_process_pool(self):
        code = ("import sys, randcoh, randcoh.cli\n"
                "randcoh.estimate(randcoh.EstimatorConfig(randcoh.EnsembleSpec(2, 2), 'coherence', 100, "
                "master_seed=1, workers=2))\n"
                "print(sorted(m for m in sys.modules if m.startswith(('concurrent', 'multiprocessing'))))")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(SRC), *filter(None, [env.get("PYTHONPATH")])])
        result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "[]"

    @pytest.mark.usefixtures("chunks_of_4096")
    def test_two_worker_pool_matches_one_worker_bit_for_bit(self, monkeypatch):
        # (3, 4): a state is 6 variates, 682 to a chunk, so 2000 draws make
        # three chunks, and two workers start one real pool
        started = []

        class Counted(mc.ProcessPoolExecutor):
            def __enter__(self):
                started.append(self)
                return super().__enter__()

        monkeypatch.setattr(mc, "ProcessPoolExecutor", Counted)
        base = dict(spec=EnsembleSpec(3, 4), quantity="coherence", samples=2000, master_seed=93)
        one = mc.estimate(mc.EstimatorConfig(workers=1, **base))
        assert started == []
        two = mc.estimate(mc.EstimatorConfig(workers=2, **base))
        assert len(started) == 1
        assert (two.count, two.mean, two.m2) == (one.count, one.mean, one.m2)


class TestEmpiricalConcentration:
    def test_fraction_within_bound(self):
        fraction, bound = mc.empirical_concentration(
            EnsembleSpec(3, 3), epsilon=0.2, samples=10_000, master_seed=52, workers=2
        )
        assert bound == 1.0  # vacuous at desk scale
        assert fraction <= bound

    def test_same_fraction_for_every_worker_count(self):
        # (3, 3): a state is 6 variates, 682 draws to a chunk, so 1500 draws
        # make three chunks
        fractions = [
            mc.empirical_concentration(EnsembleSpec(3, 3), 0.1, 1500, master_seed=67, workers=workers)[0]
            for workers in (1, 2, 3)
        ]
        assert fractions == [fractions[0]] * 3
        assert 0.0 < fractions[0] < 1.0

    @pytest.mark.usefixtures("chunks_of_4096")
    @pytest.mark.parametrize("workers", [1, 2])
    def test_tail_count_is_that_of_the_coherence_chunks(self, workers):
        # (3, 3): a state is 6 variates, 682 draws to a chunk, so 1500 draws
        # make three chunks, each drawn from its stream of the states domain
        # as the coherence estimate draws it
        spec, epsilon, samples, seed = EnsembleSpec(3, 3), 0.1, 1500, 68
        sizes = mc.chunk_sizes(samples, spec.m * (spec.m + 1) // 2)
        assert len(sizes) == 3
        center = avg_coherence(spec.m, spec.n, spec.k)
        exceed = 0
        for chunk, size in enumerate(sizes):
            states = sample_mixing_state(RngStream(SeedSpec(seed, chunk, mc.STREAM_DOMAINS["states"])), spec, size)
            deviations = np.abs(functionals.relative_entropy_of_coherence(states) - center)
            exceed += int(np.count_nonzero(deviations > epsilon))
        assert 0 < exceed < samples
        fraction, _ = mc.empirical_concentration(spec, epsilon, samples, seed, workers=workers)
        assert fraction == exceed / samples

    def test_bound_is_not_vacuous_at_large_kn(self):
        # at (3, 2e5) and epsilon = 0.2 the bound is 0.0032, so the observed
        # fraction has a real bound to stay under
        fraction, bound = mc.empirical_concentration(EnsembleSpec(3, 200_000), 0.2, 20_000, master_seed=75)
        assert bound == pytest.approx(0.0032, abs=1e-4)
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
        # a NaN or infinite epsilon makes every deviation test False: a silent pass
        for epsilon in (0.0, math.nan, math.inf):
            with pytest.raises(ParameterError):
                mc.empirical_concentration(EnsembleSpec(3, 3), epsilon, 100, 0)
        with pytest.raises(ParameterError):
            mc.empirical_concentration(EnsembleSpec(3, 3), 0.1, 100, 0, workers=0)
