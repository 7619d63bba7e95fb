"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import math
import time

import numpy as np
import pytest
from numpy.polynomial import Chebyshev

from randcoh import closedforms as cf
from randcoh import linalg, mc
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
from randcoh.functionals import (
    EULER_GAMMA,
    harmonic,
    relative_entropy_of_coherence,
    shannon_entropy,
    subentropy,
)
from randcoh.randkit import RngStream, SeedSpec
from test_randkit import dirichlet

GRID = [(2, 2), (3, 4), (4, 4), (4, 8)]
N_GRID = 20_000
WORKERS = 2
SEED = 20_260_810


def report(criterion, ok, detail):
    print(f"[criterion {criterion:>2}] {'PASS' if ok else 'FAIL'} - {detail}")
    return ok


def grid_comparisons(quantity, seed, k=1):
    for m, n in GRID:
        config = mc.EstimatorConfig(
            spec=EnsembleSpec(m, n, k), quantity=quantity, samples=N_GRID,
            master_seed=seed, workers=WORKERS,
        )
        yield (m, n), mc.run_comparison(config)


def test_criterion_01_average_coherence():
    t0 = time.perf_counter()
    reports = dict(grid_comparisons("coherence", SEED + 1))
    elapsed = time.perf_counter() - t0
    ok = all(r.passed for r in reports.values()) and elapsed < 60.0
    zs = ", ".join(f"({m},{n}) z={r.z_score:+.2f}" for (m, n), r in reports.items())
    assert report(1, ok, f"coherence vs (m-1)/2n on the grid [{zs}] in {elapsed:.1f}s (< 60s)")


def test_criterion_02_average_subentropy():
    reports = dict(grid_comparisons("subentropy", SEED + 2))
    ok = all(r.passed for r in reports.values())
    zs = ", ".join(f"({m},{n}) z={r.z_score:+.2f}" for (m, n), r in reports.items())
    assert report(2, ok, f"subentropy vs 1+H_mn-H_m-H_n on the grid [{zs}]")


def test_criterion_03_average_diagonal_entropy_both_routes():
    details = []
    ok = True
    for m, n in GRID:
        spec = EnsembleSpec(m, n)
        config = mc.EstimatorConfig(spec=spec, quantity="diag_entropy", samples=N_GRID,
                                    master_seed=SEED + 3, workers=WORKERS)
        full = mc.run_comparison(config)

        # direct Dirichlet route, on an independent substream
        stream = RngStream(SeedSpec(SEED + 3, 999))
        direct = mc.RunningStats.of(shannon_entropy(sample_diag_dirichlet(stream, spec, N_GRID)))
        closed = cf.avg_diag_entropy(m, n)
        z_direct = (direct.mean - closed) / direct.stderr
        gap = abs(full.mc_mean - direct.mean)
        agree = gap <= 4.0 * math.hypot(full.mc_stderr, direct.stderr)
        ok &= full.passed and abs(z_direct) <= 4.0 and agree
        details.append(f"({m},{n}) z_full={full.z_score:+.2f} z_dir={z_direct:+.2f} agree={agree}")
    assert report(3, ok, f"diagonal entropy vs H_mn-H_n, both samplers [{'; '.join(details)}]")


def test_criterion_04_page_average_entropy():
    reports = dict(grid_comparisons("entropy", SEED + 4))
    ok = all(r.passed for r in reports.values())
    zs = ", ".join(f"({m},{n}) z={r.z_score:+.2f}" for (m, n), r in reports.items())
    assert report(4, ok, f"von Neumann entropy vs Page formula on the grid [{zs}]")


def test_criterion_05_mixing_ensembles():
    details = []
    ok = True
    for k, expected in ((2, 0.125), (3, 1.0 / 12.0)):
        config = mc.EstimatorConfig(
            spec=EnsembleSpec(2, 2, k=k), quantity="coherence", samples=N_GRID,
            master_seed=SEED + 5, workers=WORKERS,
        )
        r = mc.run_comparison(config)
        ok &= r.passed and r.closed_form == pytest.approx(expected, rel=1e-14)
        details.append(f"k={k} mean={r.mc_mean:.5f} cf={r.closed_form:.5f} z={r.z_score:+.2f}")
    assert report(5, ok, f"mixing-ensemble coherence vs (m-1)/2kn [{'; '.join(details)}]")


def test_criterion_06_isospectral_identity():
    spectra = [(1.0, 0.0), (0.5, 0.5), (0.6, 0.3, 0.1)]
    details = []
    ok = True
    for i, lam in enumerate(spectra):
        config = mc.EstimatorConfig(
            spec=EnsembleSpec(len(lam), len(lam)), quantity="isospectral_diag_entropy",
            samples=100_000, master_seed=SEED + 6 + i, workers=WORKERS,
            fixed_spectrum=lam,
        )
        r = mc.run_comparison(config)
        ok &= r.passed
        details.append(f"lam={lam} mean={r.mc_mean:.5f} cf={r.closed_form:.5f} z={r.z_score:+.2f}")
    assert report(6, ok, f"Haar-orbit diagonal entropy vs H_m-1+Q [{'; '.join(details)}]")


def test_criterion_07_wishart_diagonal_law():
    samples = 100_000
    critical = mc.ks_critical_value(samples, alpha=0.01)
    details = []
    ok = True
    for m, n in ((2, 4), (3, 5)):
        stats = mc.diagonal_ks_tests(EnsembleSpec(m, n), samples, SEED + 7)[0]
        ok &= bool((stats < critical).all())
        details.append(f"({m},{n}) max_KS={stats.max():.5f}")
    assert report(7, ok, f"Wishart diagonals vs Gamma(n,1), 1% critical value {critical:.5f} [{'; '.join(details)}]")


def test_criterion_08_derivative_principle_m2():
    xs = np.linspace(0.01, 0.99, 50)
    worst = 0.0
    for n in (2, 3, 6):
        for x in xs:
            worst = max(worst, abs(cf.eigen_density_m2(n, float(x))
                                   - cf.derivative_principle_density_m2(n, float(x))))
    ok = worst < 1e-10
    assert report(8, ok, f"derivative-principle density vs joint eigenvalue law, max diff {worst:.2e}")


def larger_eigenvalue_cdf(n):
    """CDF of the larger eigenvalue of an m = 2 induced state, integrated
    exactly from eigen_density_m2: on (0, 1) the density is a polynomial of
    degree 2n - 2, which interpolation at 2n - 1 nodes reproduces."""
    density = Chebyshev.interpolate(
        lambda xs: np.array([cf.eigen_density_m2(n, float(x)) for x in xs]), 2 * n - 2, domain=[0.0, 1.0])
    # the density is symmetric about 1/2, so the larger eigenvalue has twice
    # its mass on [1/2, 1)
    return 2.0 * density.integ(lbnd=0.5)


def joint_law_ks(larger_eigenvalues):
    """KS of the sampled larger eigenvalues of m = 2 induced states against
    the joint law, for n = 2, 3, 5: (pass, detail).  larger_eigenvalues(n,
    samples) draws them.  Each sample must pass at the 1% level and fail
    against the n + 1 law."""
    samples = 20_000
    critical = mc.ks_critical_value(samples, alpha=0.01)
    details = []
    ok = True
    for n in (2, 3, 5):
        cdf = larger_eigenvalue_cdf(n)
        assert cdf(1.0) == pytest.approx(1.0, abs=1e-12)
        larger = larger_eigenvalues(n, samples)
        d = mc.ks_statistic(larger, cdf)
        # power: the same draws must be told apart from the n + 1 law
        d_wrong = mc.ks_statistic(larger, larger_eigenvalue_cdf(n + 1))
        ok &= d < critical < d_wrong
        details.append(f"n={n} KS={d:.5f}, vs n+1 {d_wrong:.5f}")
    return ok, f"1% critical value {critical:.5f} [{'; '.join(details)}]"


def test_criterion_08_sampled_spectra_follow_the_joint_law():
    ok, detail = joint_law_ks(lambda n, samples: sample_mixing_state(
        RngStream(SeedSpec(SEED + 8, n)), EnsembleSpec(2, n), samples).spectrum[:, 0])
    assert report(8, ok, f"sampled m=2 larger eigenvalue vs the joint law, {detail}")


def test_criterion_08_ginibre_spectra_follow_the_joint_law():
    # the reference construction: Gram matrices of explicit 2 x n Ginibre blocks
    def larger(n, samples):
        w = linalg.gram(sample_ginibre(RngStream(SeedSpec(SEED + 8, n)), 2, n, samples))
        return linalg.hermitian_eigenvalues(w)[:, 0] / np.trace(w, axis1=-2, axis2=-1).real

    ok, detail = joint_law_ks(larger)
    assert report(8, ok, f"Ginibre-block m=2 larger eigenvalue vs the joint law, {detail}")


def test_criterion_08_laguerre_spectra_follow_the_joint_law():
    def larger(n, samples):
        stream = RngStream(SeedSpec(SEED + 8, 100 + n))
        return np.concatenate([sample_mixing_spectrum(stream, EnsembleSpec(2, n), c)[:, 0]
                               for c in mc.chunk_sizes(samples, 3)])

    ok, detail = joint_law_ks(larger)
    assert report(8, ok, f"Laguerre-model m=2 larger eigenvalue vs the joint law, {detail}")


def test_criterion_09_concentration_sanity():
    fraction, bound = mc.empirical_concentration(
        EnsembleSpec(3, 3), epsilon=0.2, samples=10_000, master_seed=SEED + 9, workers=WORKERS,
    )
    ok = fraction <= bound
    note = " (bound vacuous at desk scale)" if bound >= 1.0 else ""
    assert report(9, ok, f"tail fraction {fraction:.4f} <= bound {bound:.4f}{note}")


def test_criterion_10_property_suites():
    stream = RngStream(SeedSpec(SEED + 10, 0))
    checks = {}

    # (a) subentropy-entropy sandwich on 10^4 random spectra
    ok = True
    dims = (2, 3, 4, 6, 8)
    for i in range(10_000):
        lam = dirichlet(stream, 1.0, dims[i % len(dims)])
        q, s = subentropy(lam), shannon_entropy(lam)
        ok &= 0.0 <= q <= s + 1e-12 <= math.log(lam.size) + 2e-12
    checks["a:sandwich"] = ok

    # (b) continuity: a 1e-9 perturbation, and a near-tie against the tie
    ok = True
    for _ in range(200):
        lam = dirichlet(stream, 1.0, 4)
        bumped = lam.copy()
        bumped[0] += 1e-9
        bumped /= bumped.sum()
        ok &= abs(subentropy(bumped) - subentropy(lam)) < 1e-6
    ok &= abs(subentropy([0.5, 0.5 - 1e-9]) - subentropy([0.5, 0.5])) < 1e-6
    checks["b:continuity"] = ok

    # (c) uniform spectrum attains 1 + ln m - H_m
    checks["c:uniform"] = all(
        abs(subentropy(np.full(m, 1.0 / m)) - (1.0 + math.log(m) - harmonic(m))) < 1e-10
        for m in range(1, 17)
    )

    # (d) coherence nonnegative on 10^3 states, zero on diagonal states
    ok = bool((relative_entropy_of_coherence(sample_mixing_state(stream, EnsembleSpec(3, 4), 1000)) >= 0.0).all())
    for _ in range(50):
        diag = dirichlet(stream, 1.0, 4)
        ok &= relative_entropy_of_coherence(DensityMatrix(np.diag(diag).astype(complex))) == 0.0
    checks["d:coherence"] = ok

    # (e) Welford parallel merge equals the serial accumulator
    values = stream.normals(10_003)
    serial = mc.RunningStats()
    for x in values:
        serial.update(float(x))
    merged = mc.RunningStats()
    for chunk in np.array_split(values, 8):
        part = mc.RunningStats()
        for x in chunk:
            part.update(float(x))
        merged.merge(part)
    checks["e:welford"] = (
        merged.count == serial.count
        and abs(merged.mean - serial.mean) <= 1e-10 * max(1.0, abs(serial.mean))
        and abs(merged.m2 - serial.m2) <= 1e-10 * serial.m2
    )

    # (f) bit-reproducibility of every sampler under a fixed seed
    def twice(draw):
        return draw(RngStream(SeedSpec(1234, 5))), draw(RngStream(SeedSpec(1234, 5)))

    pairs = [
        twice(lambda s: sample_ginibre(s, 3, 4, 3)),
        twice(lambda s: sample_wishart(s, 3, 4, 3)),
        twice(lambda s: sample_mixing_state(s, EnsembleSpec(3, 4), 3).matrix),
        twice(lambda s: sample_mixing_state(s, EnsembleSpec(2, 3, k=2), 3).matrix),
        twice(lambda s: sample_diag_dirichlet(s, EnsembleSpec(3, 4), 3)),
        twice(lambda s: sample_isospectral_diagonal(s, np.array([0.6, 0.3, 0.1]), 3)),
        twice(lambda s: linalg.haar_unitary(s, 4, 3)),
        twice(lambda s: np.concatenate([s.normals(1), s.gammas(2.5, 1)])),
        twice(lambda s: s.complex_gaussians(1)),
        twice(lambda s: dirichlet(s, 2.0, 5)),
    ]
    checks["f:reproducible"] = all(np.array_equal(a, b) for a, b in pairs)

    ok = all(checks.values())
    summary = ", ".join(f"{name}={'ok' if good else 'FAIL'}" for name, good in checks.items())
    assert report(10, ok, f"property suites [{summary}]")


def test_criterion_11_subentropy_asymptotics():
    values = [cf.avg_subentropy(m, m) for m in (10, 100, 1000)]
    limit = 1.0 - EULER_GAMMA
    monotone = values[0] < values[1] < values[2] < limit
    tail = abs(values[2] - limit)
    ok = monotone and tail < 2e-3
    assert report(11, ok, f"avg subentropy at m=n=10,100,1000 -> {values} vs 1-gamma={limit:.6f}, "
                          f"|gap|={tail:.2e} < 2e-3")
