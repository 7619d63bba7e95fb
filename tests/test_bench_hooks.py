"""The traced benchmark run (bench/spans.py) wraps package functions at the
names their callers look them up by.  These tests keep those names in place
and check that the wrapped package still runs; bench/ is only read."""

import importlib
import importlib.util
from pathlib import Path

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
    # (2, 3): 6 Ginibre entries per draw, so 682 draws per chunk and 3 chunks
    chunks = len(mc.chunk_sizes(1500, 6))
    assert totals["linalg.eig"]["calls"] == chunks
    assert totals["ensembles.state"]["calls"] == chunks
    assert rec.counters["normals"] == 2 * 6 * 1500
