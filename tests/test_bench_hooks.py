"""The traced benchmark run (bench/spans.py) wraps package functions at the
names their callers look them up by.  These tests keep those names in place
and check that the wrapped package still runs; bench/ is only read."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

from randcoh import mc
from randcoh.ensembles import EnsembleSpec

SPANS_PATH = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_span_target_is_an_attribute_of_its_owner(spans):
    missing = []
    for module_name, path, _ in spans.SPAN_TARGETS:
        owner = importlib.import_module(module_name)
        *outer, attr = path.split(".")
        for part in outer:
            owner = owner.__dict__[part]
        if attr not in owner.__dict__:
            missing.append(f"{module_name}.{path}")
    assert missing == []


def test_named_hooks_are_targets(spans):
    targets = {(module, path) for module, path, _ in spans.SPAN_TARGETS}
    for hook in ("sample_mixing_state", "RunningStats.update", "_run_worker", "_concentration_worker"):
        assert ("randcoh.mc", hook) in targets


@pytest.mark.usefixtures("chunks_of_4096")
def test_traced_estimate_runs_and_restores(spans, tmp_path):
    config = mc.EstimatorConfig(EnsembleSpec(2, 3), "coherence", 1500, master_seed=71)
    plain = mc.estimate(config)
    names = ("sample_mixing_state", "_run_worker", "ProcessPoolExecutor")
    originals = {name: getattr(mc, name) for name in names}
    rec = spans.Recorder(tmp_path)
    restore = spans.install(rec)
    try:
        traced = mc.estimate(config)
    finally:
        restore()
    assert (traced.count, traced.mean, traced.m2) == (plain.count, plain.mean, plain.m2)
    assert {name: getattr(mc, name) for name in originals} == originals
    totals = rec.totals()
    # (2, 3): a state is m(m+1)/2 = 3 variates, so 1365 draws per chunk and
    # 2 chunks; a draw consumes m Gamma variates and m(m-1)/2 complex
    # Gaussians, whose normals the oracle replay counts.  The m = 2 spectra
    # are solved from the factors' entries, without hermitian_eigenvalues,
    # and clamped once per chunk
    chunks = mc.chunk_sizes(1500, 3)
    assert "linalg.eig" not in totals
    assert totals["linalg.clamp"]["calls"] == len(chunks)
    assert totals["ensembles.state"]["calls"] == len(chunks)
    assert rec.counters["normals"] == replay(71, chunks, 2, 3).normals_drawn


def replay(seed, chunks, m, kn):
    """Replay each chunk's state draws, the gammas call and then the
    complex_gaussians call, on the round-by-round oracle stream, and count
    what the traced run counts."""
    from test_randkit import RoundByRoundStream

    class Counted(RoundByRoundStream):
        uniforms_consumed = normals_drawn = attempted_pairs = accepted_pairs = 0

        def uniforms(self, n):
            Counted.uniforms_consumed += n
            return super().uniforms(n)

        def normals(self, n):
            spare_before = self._spare_normal is not None
            u0 = Counted.uniforms_consumed
            out = super().normals(n)
            if n > 0:
                made = n - spare_before + (self._spare_normal is not None)
                Counted.accepted_pairs += made // 2
                Counted.attempted_pairs += (Counted.uniforms_consumed - u0) // 2
            Counted.normals_drawn += n
            return out

    for index, size in enumerate(chunks):
        stream = Counted(mc.SeedSpec(seed, index))
        stream.gammas(np.tile(np.arange(kn, kn - m, -1, dtype=float), size), m * size)
        stream.complex_gaussians(size * m * (m - 1) // 2)
    return Counted


@pytest.mark.usefixtures("chunks_of_4096")
def test_traced_uniform_count_is_what_the_oracle_consumes(spans, tmp_path):
    # the one-pass normals consume exactly the uniforms of the round-by-round
    # oracle, so the traced uniforms_per_sample and polar_accept_ratio are exact
    config = mc.EstimatorConfig(EnsembleSpec(2, 3), "coherence", 1500, master_seed=72)
    oracle = replay(72, mc.chunk_sizes(1500, 3), 2, 3)
    rec = spans.Recorder(tmp_path)
    restore = spans.install(rec)
    try:
        mc.estimate(config)
    finally:
        restore()
    assert rec.counters["uniforms"] == oracle.uniforms_consumed
    assert rec.counters["polar_attempted_pairs"] == oracle.attempted_pairs
    assert rec.counters["polar_accepted_pairs"] == oracle.accepted_pairs


def counted(monkeypatch, name):
    """Replace mc.name by a wrapper that records each chunk it is given."""
    calls = []
    worker = getattr(mc, name)

    def wrapper(*args):
        calls.append(args[-1])
        return worker(*args)

    monkeypatch.setattr(mc, name, wrapper)
    return calls


# the traced run times each worker span at these names, so every chunk of a
# job must pass through them; a job of several chunks at workers = 1 runs
# them inline, where the wrappers can count them
def test_concentration_runs_its_worker_once_per_chunk(monkeypatch):
    calls = counted(monkeypatch, "_concentration_worker")
    spec = EnsembleSpec(3, 3)
    mc.empirical_concentration(spec, 0.1, 6000, master_seed=5)
    assert calls == list(enumerate(mc.chunk_sizes(6000, spec.m * (spec.m + 1) // 2)))
    assert len(calls) == 3


def test_estimate_runs_its_worker_once_per_chunk(monkeypatch):
    calls = counted(monkeypatch, "_run_worker")
    mc.estimate(mc.EstimatorConfig(EnsembleSpec(3, 3), "entropy", 6000, master_seed=5))
    # a (3, 3) spectrum is 2m - 1 = 5 Gamma variates
    assert calls == list(enumerate(mc.chunk_sizes(6000, 5)))
    assert len(calls) == 2
