"""The one integer rule, errors.check_integer, at every entry that it guards."""

import numpy as np
import pytest

from randcoh import closedforms, functionals, linalg, mc
from randcoh.ensembles import (
    EnsembleSpec,
    sample_diag_dirichlet,
    sample_ginibre,
    sample_isospectral_diagonal,
    sample_mixing_spectrum,
    sample_mixing_state,
)
from randcoh.errors import ParameterError, check_integer
from randcoh.randkit import RngStream, SeedSpec

SPEC = EnsembleSpec(3, 4)


def stream():
    return RngStream(SeedSpec(1))


# (entry, call with the guarded argument set to v, parameter name, low, high)
GUARDED = [
    ("EnsembleSpec.m", lambda v: EnsembleSpec(v, 4), "m", 1, None),
    ("EnsembleSpec.n", lambda v: EnsembleSpec(1, v), "n", 1, None),
    ("EnsembleSpec.k", lambda v: EnsembleSpec(1, 4, v), "k", 1, None),
    ("SeedSpec.master_seed", lambda v: SeedSpec(v), "master_seed", 0, 2**64),
    ("SeedSpec.stream_index", lambda v: SeedSpec(1, v), "stream_index", 0, 2**32),
    ("SeedSpec.domain", lambda v: SeedSpec(1, 0, v), "domain", 0, 2**32),
    ("EstimatorConfig.samples", lambda v: mc.EstimatorConfig(SPEC, "coherence", v, 1), "samples", 2, None),
    ("EstimatorConfig.workers", lambda v: mc.EstimatorConfig(SPEC, "coherence", 10, 1, workers=v),
     "workers", 1, None),
    ("empirical_concentration.samples", lambda v: mc.empirical_concentration(SPEC, 0.2, v, 1),
     "samples", 1, None),
    ("empirical_concentration.workers", lambda v: mc.empirical_concentration(SPEC, 0.2, 10, 1, workers=v),
     "workers", 1, None),
    ("diagonal_ks_tests.samples", lambda v: mc.diagonal_ks_tests(SPEC, v, 1), "samples", mc.KS_MIN_SAMPLES, None),
    ("ks_critical_value.n", lambda v: mc.ks_critical_value(v), "n", 1, None),
    ("ks_critical_value.n2", lambda v: mc.ks_critical_value(10, n2=v), "n2", 1, None),
    ("chunk_sizes.count", lambda v: mc.chunk_sizes(v, 3), "count", 0, None),
    ("RngStream.uniforms", lambda v: stream().uniforms(v), "n", 0, None),
    ("RngStream.normals", lambda v: stream().normals(v), "n", 0, None),
    ("RngStream.complex_gaussians", lambda v: stream().complex_gaussians(v), "n", 0, None),
    ("RngStream.gammas", lambda v: stream().gammas(2.0, v), "n", 0, None),
    ("harmonic", lambda v: functionals.harmonic(v), "k", 1, None),
    ("eigen_density_m2", lambda v: closedforms.eigen_density_m2(v, 0.3), "n", 2, None),
    ("derivative_principle_density_m2", lambda v: closedforms.derivative_principle_density_m2(v, 0.3),
     "n", 2, None),
    ("sample_ginibre.m", lambda v: sample_ginibre(stream(), v, 3, 1), "m", 1, None),
    ("sample_ginibre.n", lambda v: sample_ginibre(stream(), 1, v, 1), "n", 1, None),
    ("sample_ginibre.size", lambda v: sample_ginibre(stream(), 2, 3, v), "size", 0, None),
    ("haar_unitary.m", lambda v: linalg.haar_unitary(stream(), v, 1), "m", 1, None),
    ("haar_unitary.size", lambda v: linalg.haar_unitary(stream(), 2, v), "size", 0, None),
    ("sample_mixing_state.size", lambda v: sample_mixing_state(stream(), SPEC, v), "size", 0, None),
    ("sample_mixing_spectrum.size", lambda v: sample_mixing_spectrum(stream(), SPEC, v), "size", 0, None),
    ("sample_diag_dirichlet.size", lambda v: sample_diag_dirichlet(stream(), SPEC, v), "size", 0, None),
    ("sample_isospectral_diagonal.size",
     lambda v: sample_isospectral_diagonal(stream(), (0.6, 0.3, 0.1), v), "size", 0, None),
]


def _refused_values(low, high):
    values = [("True", True), ("np.True_", np.True_), ("2.5", 2.5), ("'3'", "3"), ("low-1", low - 1)]
    return values if high is None else values + [("high", high)]


@pytest.mark.parametrize("call,name,value", [
    pytest.param(call, name, value, id=f"{entry}-{label}")
    for entry, call, name, low, high in GUARDED
    for label, value in _refused_values(low, high)
])
def test_every_guarded_entry_refuses_what_is_no_integer_in_range(call, name, value):
    with pytest.raises(ParameterError, match=rf"^{name}\b"):
        call(value)


@pytest.mark.parametrize("call,low,high", [
    pytest.param(call, low, high, id=entry) for entry, call, _, low, high in GUARDED
])
def test_every_guarded_entry_takes_its_bounds_as_plain_and_numpy_integers(call, low, high):
    # the smallest value the rule lets through, and at a bounded field the
    # largest, both as an int and as a numpy integer
    for value in (low, np.int64(low)) if high is None else (low, np.uint64(high - 1), high - 1):
        call(value)


def test_the_message_names_the_parameter_the_bound_and_the_value():
    with pytest.raises(ParameterError, match=r"^size must be an integer >= 0, got True$"):
        check_integer("size", True, 0)
    with pytest.raises(ParameterError, match=r"^domain must be an integer in \[0, 4294967296\), got 2\.5$"):
        check_integer("domain", 2.5, 0, 2**32)
