"""Parallel Monte Carlo estimation with streaming statistics.

Work is split across workers by a fixed rule (worker w takes the ceiling
share iff w < samples mod workers) and each worker owns the random stream
keyed by its index.  A worker evaluates its share in chunks of consecutive
draws, each drawn as one Ginibre block of at most CHUNK_ENTRIES entries and
evaluated as one stack of states.  A block holds exactly the matrices that
draw-by-draw sampling gives, so chunking changes no draw.  Each chunk is
reduced to (count, mean, m2) and merged in stream order; the per-worker
results merge in worker-index order.  The result is therefore
bit-identical across runs for fixed (master_seed, workers, samples),
whether the workers actually ran in parallel processes or inline.

The Kolmogorov-Smirnov helpers and the regularized incomplete-gamma CDF
live here so the distributional checks need nothing outside the package.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import closedforms, functionals
# every sampler the estimators use is looked up in this module's namespace,
# where the traced benchmark run (bench/spans.py) wraps it; sample_wishart
# stays listed there although no estimator calls it
from .ensembles import (  # noqa: F401
    EnsembleSpec,
    sample_diag_dirichlet,
    sample_ginibre,
    sample_isospectral_diagonal,
    sample_mixing_state,
    sample_wishart,
)
from .errors import ParameterError
from .randkit import RngStream, SeedSpec

QUANTITIES = ("entropy", "diag_entropy", "coherence", "subentropy", "isospectral_diag_entropy")

Z_PASS_THRESHOLD = 4.0

# Ginibre entries per chunk: bounds the arrays one chunk allocates (normals,
# the Ginibre block, the state stack) to a few hundred KiB at any (m, k*n)
CHUNK_ENTRIES = 1 << 12


@dataclass(frozen=True)
class EstimatorConfig:
    """One Monte Carlo run: which ensemble, which functional, how much work."""

    spec: EnsembleSpec
    quantity: str
    samples: int
    master_seed: int
    workers: int = 1
    fixed_spectrum: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.quantity not in QUANTITIES:
            raise ParameterError(f"unknown quantity {self.quantity!r}; expected one of {QUANTITIES}")
        if self.samples < 2:
            raise ParameterError(f"samples must be >= 2, got {self.samples}")
        if self.workers < 1:
            raise ParameterError(f"workers must be >= 1, got {self.workers}")
        if self.quantity == "isospectral_diag_entropy":
            if self.fixed_spectrum is None:
                raise ParameterError("isospectral_diag_entropy requires fixed_spectrum")
        elif self.fixed_spectrum is not None:
            raise ParameterError("fixed_spectrum is only meaningful for isospectral_diag_entropy")


@dataclass
class RunningStats:
    """Welford accumulator: count, mean and sum of squared deviations."""

    count: int = 0
    mean: float = 0.0
    m2: float = 0.0

    def update(self, x: float) -> None:
        self.count += 1
        delta = x - self.mean
        self.mean += delta / self.count
        self.m2 += delta * (x - self.mean)

    @classmethod
    def of(cls, values) -> "RunningStats":
        """Statistics of a batch of values, computed in two passes."""
        values = np.asarray(values, dtype=np.float64)
        if values.size == 0:
            return cls()
        mean = float(values.mean())
        return cls(values.size, mean, float(np.square(values - mean).sum()))

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two accumulators as if their samples were concatenated."""
        if other.count == 0:
            return self
        if self.count == 0:
            self.count, self.mean, self.m2 = other.count, other.mean, other.m2
            return self
        total = self.count + other.count
        delta = other.mean - self.mean
        self.mean += delta * other.count / total
        self.m2 += other.m2 + delta * delta * self.count * other.count / total
        self.count = total
        return self

    @property
    def variance(self) -> float:
        if self.count < 2:
            return 0.0
        return self.m2 / (self.count - 1)

    @property
    def stderr(self) -> float:
        if self.count < 2:
            return 0.0
        return math.sqrt(self.m2 / (self.count * (self.count - 1)))


@dataclass
class ComparisonReport:
    """MC mean vs closed form, with the z-score verdict."""

    config: EstimatorConfig
    mc_mean: float
    mc_stderr: float
    closed_form: float
    z_score: float
    passed: bool
    wall_time_ms: float = 0.0


def worker_counts(samples: int, workers: int) -> list[int]:
    """Deterministic split: worker w gets ceil(samples/workers) iff
    w < samples mod workers, else the floor."""
    base, rem = divmod(samples, workers)
    return [base + (1 if w < rem else 0) for w in range(workers)]


def chunk_sizes(count: int, entries_per_draw: int) -> list[int]:
    """Split count consecutive draws into chunks of at most CHUNK_ENTRIES
    Ginibre entries (at least one draw each), in stream order."""
    size = max(1, CHUNK_ENTRIES // entries_per_draw)
    full, rest = divmod(count, size)
    return [size] * full + ([rest] if rest else [])


def _make_evaluator(quantity: str, spec: EnsembleSpec, fixed_spectrum):
    """evaluate(stream, size): draw size samples, return their values."""
    if quantity == "isospectral_diag_entropy":
        lam = np.asarray(fixed_spectrum, dtype=np.float64)
        return lambda stream, size: functionals.shannon_entropy(sample_isospectral_diagonal(stream, lam, size))
    states = lambda stream, size: sample_mixing_state(stream, spec, size)
    if quantity == "entropy":
        return lambda stream, size: functionals.von_neumann_entropy(states(stream, size))
    if quantity == "diag_entropy":
        return lambda stream, size: functionals.shannon_entropy(states(stream, size).diagonal)
    if quantity == "coherence":
        return lambda stream, size: functionals.relative_entropy_of_coherence(states(stream, size))
    return lambda stream, size: functionals.subentropy(states(stream, size).spectrum)


def _run_worker(payload) -> tuple[int, float, float]:
    quantity, m, n, k, master_seed, worker_index, count, fixed_spectrum = payload
    stream = RngStream(SeedSpec(master_seed, worker_index))
    evaluate = _make_evaluator(quantity, EnsembleSpec(m, n, k), fixed_spectrum)
    # a Haar draw is one square Ginibre matrix, a state one m x kn block
    entries = m * k * n if fixed_spectrum is None else len(fixed_spectrum) ** 2
    stats = RunningStats()
    for size in chunk_sizes(count, entries):
        stats.merge(RunningStats.of(evaluate(stream, size)))
    return stats.count, stats.mean, stats.m2


def estimate(config: EstimatorConfig) -> RunningStats:
    """Draw config.samples states, evaluate the configured quantity on each,
    and return the merged streaming statistics."""
    spec = config.spec
    payloads = [
        (config.quantity, spec.m, spec.n, spec.k, config.master_seed, w, count, config.fixed_spectrum)
        for w, count in enumerate(worker_counts(config.samples, config.workers))
    ]
    if config.workers == 1:
        results = [_run_worker(payloads[0])]
    else:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            results = list(pool.map(_run_worker, payloads))
    merged = RunningStats()
    for count, mean, m2 in results:  # map() preserves worker-index order
        merged.merge(RunningStats(count, mean, m2))
    return merged


def closed_form_for(config: EstimatorConfig) -> float:
    """The exact ensemble average the configured quantity should reproduce."""
    spec = config.spec
    if config.quantity == "entropy":
        return closedforms.avg_entropy_page(spec.m, spec.env_dim)
    if config.quantity == "diag_entropy":
        return closedforms.avg_diag_entropy(spec.m, spec.n, spec.k)
    if config.quantity == "coherence":
        return closedforms.avg_coherence(spec.m, spec.n, spec.k)
    if config.quantity == "subentropy":
        return closedforms.avg_subentropy(spec.m, spec.env_dim)
    return closedforms.isospectral_avg_diag_entropy(config.fixed_spectrum)


def compare(stats: RunningStats, config: EstimatorConfig, wall_time_ms: float = 0.0) -> ComparisonReport:
    """Score the MC mean against the closed form; pass iff |z| <= 4."""
    if stats.count < 2:
        raise ParameterError(f"need at least 2 samples to compare, got {stats.count}")
    closed = closed_form_for(config)
    if abs(stats.mean - closed) <= 1e-12:
        # below float resolution the match is exact; degenerate runs whose
        # stderr is rounding dust must not fail on a meaningless z
        z = 0.0
    elif stats.stderr > 0.0:
        z = (stats.mean - closed) / stats.stderr
    else:
        z = math.inf
    return ComparisonReport(
        config=config,
        mc_mean=stats.mean,
        mc_stderr=stats.stderr,
        closed_form=closed,
        z_score=z,
        passed=abs(z) <= Z_PASS_THRESHOLD,
        wall_time_ms=wall_time_ms,
    )


def run_comparison(config: EstimatorConfig) -> ComparisonReport:
    """estimate + compare with wall time attached."""
    t0 = time.perf_counter()
    stats = estimate(config)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return compare(stats, config, wall_time_ms=elapsed_ms)


def _concentration_worker(payload) -> tuple[int, int]:
    m, n, k, epsilon, master_seed, worker_index, count = payload
    spec = EnsembleSpec(m, n, k)
    center = closedforms.avg_coherence(m, n, k)
    stream = RngStream(SeedSpec(master_seed, worker_index))
    exceed = 0
    for size in chunk_sizes(count, m * spec.env_dim):
        c = functionals.relative_entropy_of_coherence(sample_mixing_state(stream, spec, size))
        exceed += int(np.count_nonzero(np.abs(c - center) > epsilon))
    return count, exceed


def empirical_concentration(spec: EnsembleSpec, epsilon: float, samples: int,
                            master_seed: int, workers: int = 1) -> tuple[float, float]:
    """Observed tail fraction of |C(rho) - (m-1)/2kn| > epsilon, paired with
    the theoretical tail bound at the effective environment dimension."""
    if spec.m < 3:
        raise ParameterError(f"the tail bound requires m >= 3, got {spec.m}")
    if epsilon <= 0:
        raise ParameterError(f"epsilon must be positive, got {epsilon}")
    if samples < 1:
        raise ParameterError(f"samples must be >= 1, got {samples}")
    bound = closedforms.concentration_bound(spec.m, spec.env_dim, epsilon)
    payloads = [
        (spec.m, spec.n, spec.k, epsilon, master_seed, w, count)
        for w, count in enumerate(worker_counts(samples, workers))
    ]
    if workers == 1:
        results = [_concentration_worker(payloads[0])]
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_concentration_worker, payloads))
    total = sum(c for c, _ in results)
    exceed = sum(e for _, e in results)
    return exceed / total, bound


# -- incomplete gamma and Kolmogorov-Smirnov machinery ------------------------

_IGAM_EPS = 1e-15
_IGAM_MAX_ITER = 400


def gamma_cdf(x: float, shape: float) -> float:
    """Regularized lower incomplete gamma P(shape, x): the Gamma(shape, 1) CDF.

    Series expansion for x < shape + 1, Lentz continued fraction for the
    complementary function otherwise.
    """
    if shape <= 0:
        raise ParameterError(f"shape must be positive, got {shape}")
    if x <= 0.0:
        return 0.0
    log_prefactor = shape * math.log(x) - x - math.lgamma(shape)
    if x < shape + 1.0:
        # P(a, x) = x^a e^-x / Gamma(a) * sum_{k>=0} x^k / (a (a+1) ... (a+k))
        ap = shape
        term = 1.0 / shape
        total = term
        for _ in range(_IGAM_MAX_ITER):
            ap += 1.0
            term *= x / ap
            total += term
            if abs(term) < abs(total) * _IGAM_EPS:
                break
        return min(1.0, total * math.exp(log_prefactor))
    # Q(a, x) = x^a e^-x / Gamma(a) * 1/(x+1-a- 1(1-a)/(x+3-a- ...)) (Lentz)
    tiny = 1e-300
    b = x + 1.0 - shape
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in range(1, _IGAM_MAX_ITER + 1):
        an = -i * (i - shape)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < _IGAM_EPS:
            break
    return max(0.0, 1.0 - math.exp(log_prefactor) * h)


def ks_statistic(values: np.ndarray, cdf) -> float:
    """One-sample two-sided Kolmogorov-Smirnov statistic against cdf."""
    values = np.sort(np.asarray(values, dtype=np.float64))
    n = values.size
    if n < 1:
        raise ParameterError("KS statistic needs at least one sample")
    f = np.array([cdf(v) for v in values])
    grid = np.arange(1, n + 1) / n
    return float(max((grid - f).max(), (f - (grid - 1.0 / n)).max()))


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov statistic."""
    a = np.sort(np.asarray(a, dtype=np.float64))
    b = np.sort(np.asarray(b, dtype=np.float64))
    joint = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, joint, side="right") / a.size
    cdf_b = np.searchsorted(b, joint, side="right") / b.size
    return float(np.abs(cdf_a - cdf_b).max())


def ks_critical_value(n: int, alpha: float = 0.01, n2: int | None = None) -> float:
    """Asymptotic two-sided KS critical value at level alpha (one- or
    two-sample form)."""
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    if n2 is None:
        return c / math.sqrt(n)
    return c * math.sqrt((n + n2) / (n * n2))


def gamma_marginal_test(m: int, n: int, samples: int, master_seed: int) -> np.ndarray:
    """KS statistic of each Wishart diagonal entry against the Gamma(n, 1) CDF.

    Returns one statistic per diagonal index i = 0..m-1.
    """
    if m > n:
        raise ParameterError(f"requires m <= n, got m={m}, n={n}")
    if samples < 1000:
        raise ParameterError(f"need >= 1000 samples for a meaningful KS test, got {samples}")
    stream = RngStream(SeedSpec(master_seed, 0))
    # W_ii = sum_j |Z_ij|^2, so the diagonals need no Gram matrix
    blocks = (sample_ginibre(stream, m, n, size) for size in chunk_sizes(samples, m * n))
    diags = np.concatenate([np.sum(z.real**2 + z.imag**2, axis=-1) for z in blocks])
    cdf = lambda x: gamma_cdf(x, float(n))
    return np.array([ks_statistic(diags[:, i], cdf) for i in range(m)])


def dirichlet_consistency_test(spec: EnsembleSpec, samples: int, master_seed: int) -> float:
    """Two-sample KS statistic between the first diagonal entry of sampled
    states and the direct Dirichlet marginal sampler.

    The two samples come from distinct substreams (indices 0 and 1) of the
    same master seed so they are independent.
    """
    if samples < 2:
        raise ParameterError(f"samples must be >= 2, got {samples}")
    state_stream = RngStream(SeedSpec(master_seed, 0))
    dir_stream = RngStream(SeedSpec(master_seed, 1))
    from_states = np.concatenate([
        sample_mixing_state(state_stream, spec, size).diagonal[:, 0]
        for size in chunk_sizes(samples, spec.m * spec.env_dim)
    ])
    # batched gammas interleave their rejection rounds and would not
    # reproduce these draws, so the Dirichlet side stays draw by draw
    from_dirichlet = np.array(
        [sample_diag_dirichlet(dir_stream, spec)[0] for _ in range(samples)]
    )
    return ks_two_sample(from_states, from_dirichlet)


def default_workers() -> int:
    """Available parallelism: the CPUs this process may run on, where the
    platform reports its affinity, else the CPU count."""
    affinity = getattr(os, "sched_getaffinity", None)
    if affinity is not None:
        return len(affinity(0)) or 1
    return os.cpu_count() or 1
