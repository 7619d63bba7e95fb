"""Parallel Monte Carlo estimation with streaming statistics.

A job of `samples` draws is split into chunks by a fixed rule
(chunk_sizes: at most CHUNK_ENTRIES random variates per chunk, counted as
the draw consumes them, so the split depends only on the sampler and on
m).  Entropy and subentropy draw spectra of the Laguerre bidiagonal model
(sample_mixing_spectrum), coherence and diagonal entropy states from their
Bartlett factor (sample_mixing_state), and a fixed-spectrum orbit the
m - 1 Gram-Schmidt columns of a Haar unitary per draw
(sample_isospectral_diagonal); _chunks counts the variates of each, and
no draw's cost grows with k*n.  Every draw follows one rule: chunk c
draws from the random stream keyed (master_seed, domain, c), where the
domain names the sampler (STREAM_DOMAINS).  An estimate evaluates each
chunk as one stack and reduces it to (count, mean, m2); the chunk results
merge in chunk order.  The chunk is thus the unit of randomness as well
as the unit of work, and workers only schedule chunks: the same
(master_seed, samples) gives bit-identical results for any worker count,
whether the chunks ran inline or in a process pool; across BLAS kernels,
coherence can move in its last bit.  A call whose every family fits in
one chunk runs inline, and the process pool machinery is imported only
when a pool starts.

A chunk's working set grows with its variates, not with its matrix
stacks: the Gamma and normal samplers hold a few arrays of 8 bytes per
variate and screen in bounded passes, and the stacks are formed, checked
and solved in bounded blocks (linalg.row_blocks).  Its tracemalloc peak at
CHUNK_ENTRIES variates is 1.1-1.3 MB for spectra and states at m = 16,
states at (4, 8) and orbits at m = 3.

A draw key (sampler, fixed_spectrum, spec, master_seed, samples) fixes its
chunk plan (_chunks) and its draws (_draw), and _draw is the one place a
stream is made.  A job's key has the sampler of its quantity (SAMPLERS).
Jobs with one key form a family: run_comparisons draws each chunk of a
family once and evaluates every quantity of the family on that one stack.
One estimator call is one chunk map (_map_chunks) over the chunks of all
its families, on at most one pool.  empirical_concentration draws the
coherence estimate's states, chunk for chunk, and counts their tail; the
CLI's sample command prints the same states.  Each sampler draws in its
own stream domain, so the draw keys of one master seed share no variate.

The Kolmogorov-Smirnov helpers and the regularized incomplete-gamma CDF at
integer shapes up to GAMMA_CDF_MAX_SHAPE (those of the Wishart diagonals
that verify tests) live here so the distributional checks need nothing
outside the package; both work on arrays.  diagonal_ks_tests is the one
entry point of the two KS checks of the diagonal law.  Its Wishart
diagonals are the states sampler's own wishart_diagonal: the ks_factors
draw key draws states with sample_mixing_state, the code every estimate of
a state runs, so its cost does not grow with k*n either.  That key and
the direct Dirichlet sample's (ks_dirichlet) run inline.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from itertools import islice

import numpy as np

from . import closedforms, functionals
# every sampler the estimators use is looked up in this module's namespace,
# where the traced benchmark run (bench/spans.py) can wrap it; sample_wishart
# is imported only to be wrapped there, since nothing in this module calls it
from .ensembles import (  # noqa: F401
    EnsembleSpec,
    sample_diag_dirichlet,
    sample_isospectral_diagonal,
    sample_mixing_spectrum,
    sample_mixing_state,
    sample_wishart,
)
from .errors import DomainError, ParameterError
from .linalg import row_sum
from .randkit import RngStream, SeedSpec

# the sampler of each quantity, named as its stream domain (_draw calls it):
# spectra of the Laguerre model, states, or orbits of a fixed spectrum
SAMPLERS = {"entropy": "spectra", "diag_entropy": "states", "coherence": "states",
            "subentropy": "spectra", "isospectral_diag_entropy": "orbits"}
QUANTITIES = tuple(SAMPLERS)

Z_PASS_THRESHOLD = 4.0

# random variates (Gamma variates, complex Gaussians or Ginibre entries) per
# chunk: bounds the arrays one chunk allocates (the variates, the normals,
# a stack of Bartlett factors or Gram-Schmidt columns and the bounded
# blocks of linalg) to a working set of 1.1-1.3 MB (tracemalloc peak at
# m = 16), at any k*n
CHUNK_ENTRIES = 1 << 14

# below this many draws a Kolmogorov-Smirnov test says little
KS_MIN_SAMPLES = 1000

# the stream domain (SeedSpec.domain) of each sampler: the streams of one
# master seed are keyed (master_seed, domain, chunk), so no two draw keys
# share a stream.  States keep domain 0, whose key (master_seed, chunk)
# keeps their fixed-seed results
STREAM_DOMAINS = {"states": 0, "spectra": 1, "orbits": 2, "ks_factors": 3, "ks_dirichlet": 4}

# chunk indices are the 32-bit stream_index of a SeedSpec
_MAX_CHUNKS = 2**32


def _check_count(name: str, value, minimum: int) -> None:
    # a bool is an int to isinstance, and would pass as 0 or 1
    if isinstance(value, bool) or not (isinstance(value, (int, np.integer)) and value >= minimum):
        raise ParameterError(f"{name} must be an integer >= {minimum}, got {value!r}")


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
        _check_count("samples", self.samples, 2)
        _check_count("workers", self.workers, 1)
        if self.quantity == "isospectral_diag_entropy":
            if self.fixed_spectrum is None:
                raise ParameterError("isospectral_diag_entropy requires fixed_spectrum")
            lam = np.asarray(self.fixed_spectrum, dtype=np.float64)
            if lam.ndim != 1:
                raise DomainError(f"fixed_spectrum must be one probability vector, got shape {lam.shape}")
            functionals._validated_probabilities(lam)
            if lam.size != self.spec.m:
                raise ParameterError(f"fixed_spectrum has {lam.size} entries, spec.m is {self.spec.m}")
            # stored as a tuple: a list or an array would make the draw key unhashable
            object.__setattr__(self, "fixed_spectrum", tuple(lam.tolist()))
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
        # what values.mean() computes (the same pairwise sum over the same
        # count), without its Python wrapper
        mean = float(values.sum()) / values.size
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


def chunk_sizes(count: int, entries_per_draw: int) -> list[int]:
    """Split count consecutive draws, each consuming entries_per_draw random
    variates, into chunks of at most CHUNK_ENTRIES variates (at least one
    draw each), in stream order; a draw that consumes none (an orbit at
    m = 1) counts as one.  A split into more chunks than a stream key can
    index raises ParameterError before the list is made."""
    size = max(1, CHUNK_ENTRIES // max(1, entries_per_draw))
    full, rest = divmod(count, size)
    if full + bool(rest) > _MAX_CHUNKS:
        raise ParameterError(f"{count} draws make more than {_MAX_CHUNKS} chunks")
    return [size] * full + ([rest] if rest else [])


class ProcessPoolExecutor:
    """concurrent.futures.ProcessPoolExecutor, imported when the first pool
    starts, so that importing the package does not load multiprocessing.
    Entering it starts the real pool and returns it."""

    def __init__(self, **kwargs):
        from concurrent.futures import ProcessPoolExecutor as pool

        self._pool = pool(**kwargs)

    def __enter__(self):
        return self._pool.__enter__()

    def __exit__(self, *exc):
        return self._pool.__exit__(*exc)


def _map_chunks(fn, jobs: list[tuple[tuple, list]], workers: int) -> list[list]:
    """[fn(*args, chunk) for chunk in chunks] of each job (args, chunks), as
    one task list: inline when workers is 1 or every job fits in one chunk,
    else on one process pool whose workers each take a contiguous run of
    tasks.  Results come back per job, in chunk order, either way."""
    tasks = [(*args, chunk) for args, chunks in jobs for chunk in chunks]
    if workers == 1 or all(len(chunks) <= 1 for _, chunks in jobs):
        results = (fn(*task) for task in tasks)
    else:
        with ProcessPoolExecutor(max_workers=min(workers, len(tasks))) as pool:
            results = iter(list(pool.map(fn, *zip(*tasks), chunksize=math.ceil(len(tasks) / workers))))
    return [list(islice(results, len(chunks))) for _, chunks in jobs]


def _draw_key(config: EstimatorConfig) -> tuple:
    """What the configured job draws; jobs with equal keys draw identical
    stacks, chunk for chunk."""
    return (SAMPLERS[config.quantity], config.fixed_spectrum, config.spec, config.master_seed, config.samples)


def _chunks(key: tuple) -> list[tuple[int, int]]:
    """The chunks (index, size) of a draw key, split by the variates a draw
    consumes: 2m - 1 for a spectrum, m(m - 1) for an orbit, m for a
    Dirichlet draw, and m(m+1)/2 for a state or its Bartlett factor."""
    sampler, _, spec, _, samples = key
    m = spec.m
    factor = m * (m + 1) // 2
    variates = {"spectra": 2 * m - 1, "orbits": m * (m - 1), "states": factor, "ks_factors": factor, "ks_dirichlet": m}
    return list(enumerate(chunk_sizes(samples, variates[sampler])))


def _draw(key: tuple, index: int, size: int):
    """Draw chunk index, of size samples, of a draw key from its stream
    (master_seed, domain, index), the one place a stream is made: an array
    of diagonals, spectra or Wishart diagonals, or a DensityMatrix stack."""
    sampler, fixed_spectrum, spec, master_seed, _ = key
    stream = RngStream(SeedSpec(master_seed, index, STREAM_DOMAINS[sampler]))
    if sampler == "orbits":
        return sample_isospectral_diagonal(stream, fixed_spectrum, size)
    if sampler == "spectra":
        return sample_mixing_spectrum(stream, spec, size)
    if sampler == "ks_factors":
        return sample_mixing_state(stream, spec, size).wishart_diagonal
    if sampler == "ks_dirichlet":
        return sample_diag_dirichlet(stream, spec, size)
    return sample_mixing_state(stream, spec, size)


def _values(quantity: str, draws) -> np.ndarray:
    """The quantity of each draw of a stack made by _draw."""
    if quantity in ("entropy", "isospectral_diag_entropy"):
        return functionals.shannon_entropy(draws)
    if quantity == "subentropy":
        return functionals.subentropy(draws)
    if quantity == "diag_entropy":
        return functionals.shannon_entropy(draws.diagonal)
    return functionals.relative_entropy_of_coherence(draws)


def _run_worker(family: tuple[EstimatorConfig, ...], chunk: tuple[int, int]) -> list[RunningStats]:
    """Statistics of one chunk (index, size) of a family of jobs with one
    draw key: the chunk is drawn once, and each config's quantity is
    evaluated on it.  One RunningStats per config, in family order."""
    draws = _draw(_draw_key(family[0]), *chunk)
    return [RunningStats.of(_values(config.quantity, draws)) for config in family]


def _merged_stats(configs: list[EstimatorConfig]) -> list[RunningStats]:
    """The merged statistics of each config, in order: one chunk map over
    every chunk of every family, on as many workers as any config asks for."""
    families: dict[tuple, list[int]] = {}
    for i, config in enumerate(configs):
        families.setdefault(_draw_key(config), []).append(i)
    jobs = [((tuple(configs[i] for i in members),), _chunks(key)) for key, members in families.items()]
    merged = [RunningStats() for _ in configs]
    workers = max((config.workers for config in configs), default=1)
    for members, results in zip(families.values(), _map_chunks(_run_worker, jobs, workers)):
        for parts in results:
            for i, part in zip(members, parts):
                merged[i].merge(part)
    return merged


def estimate(config: EstimatorConfig) -> RunningStats:
    """Draw config.samples states, evaluate the configured quantity on each,
    and return the merged streaming statistics."""
    return _merged_stats([config])[0]


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


def run_comparisons(configs) -> list[ComparisonReport]:
    """estimate + compare for each config, one report per config in order.

    Configs with one draw key form a family, drawn once: every quantity of
    the family is evaluated on each of its chunks.  The chunks of all
    families run as one chunk map, on at most one pool and on none when
    each family fits in one chunk.  The statistics are bit for bit those of
    separate estimate calls, and every report carries the call's wall time.
    """
    configs = list(configs)
    t0 = time.perf_counter()
    stats = _merged_stats(configs)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    return [compare(s, config, wall_time_ms=elapsed_ms) for s, config in zip(stats, configs)]


def run_comparison(config: EstimatorConfig) -> ComparisonReport:
    """estimate + compare with wall time attached."""
    return run_comparisons([config])[0]


def _concentration_worker(key: tuple, center: float, epsilon: float, chunk: tuple[int, int]) -> int:
    """How many coherences of one chunk (index, size) of a states draw key
    deviate from center by more than epsilon."""
    return int(np.count_nonzero(np.abs(_values("coherence", _draw(key, *chunk)) - center) > epsilon))


def empirical_concentration(spec: EnsembleSpec, epsilon: float, samples: int,
                            master_seed: int, workers: int = 1) -> tuple[float, float]:
    """Observed tail fraction of |C(rho) - (m-1)/2kn| > epsilon, paired with
    the theoretical tail bound at the effective environment dimension.

    The bound is computed before any draw, so its checks of m and epsilon
    are the ones that apply here.  The coherences are, chunk for chunk,
    those of the coherence estimate of the same spec, seed and samples."""
    _check_count("samples", samples, 1)
    _check_count("workers", workers, 1)
    bound = closedforms.concentration_bound(spec.m, spec.env_dim, epsilon)
    key = ("states", None, spec, master_seed, samples)
    center = closedforms.avg_coherence(spec.m, spec.n, spec.k)
    exceed = sum(_map_chunks(_concentration_worker, [((key, center, epsilon), _chunks(key))], workers)[0])
    return exceed / samples, bound


# -- incomplete gamma and Kolmogorov-Smirnov machinery ------------------------

_IGAM_EPS = 1e-15
# integer shapes up to this one take the finite Poisson sum.  Where e^-x
# underflows (x > 745) the upper tail at shape 256 is below 1e-90, so the
# sum's forward recurrence from e^-x loses nothing that shows at 1e-15
_IGAM_POISSON_MAX_SHAPE = 256
# the largest shape gamma_cdf takes.  Up to it the far-side tail is within
# 1e-9 of scipy.special.gammainc on a +- 8 sqrt(a) (7.8e-10 at 10^6, 1.4e-9
# at 2*10^6, 2.7e-8 at 10^7), and a call costs about 8 sqrt(a) passes over
# x; near 2^53, a + k rounds and the loop need never end
GAMMA_CDF_MAX_SHAPE = 10**6


def gamma_cdf(x: float | np.ndarray, shape: int) -> float | np.ndarray:
    """Regularized lower incomplete gamma P(shape, x), the Gamma(shape, 1)
    CDF, at an integer shape: the Poisson(x) probability of at least shape
    events (Abramowitz & Stegun 6.5.13).

    x may be a scalar or an array; an array gives an array of the same
    shape whose entries are exactly their scalar calls, a scalar a float.
    A shape up to 256 takes the finite sum P = 1 - e^-x sum_{j<shape} x^j/j!,
    within 4e-15 of the exact value (absolutely: where P is tiny it has no
    relative accuracy), a larger one the far-side tail (_poisson_far_tail).
    P = 0 for x <= 0 and P = 1 at x = +inf; a NaN x raises DomainError, and
    a shape that is not an integer in [1, GAMMA_CDF_MAX_SHAPE] (3.0 is one,
    True is not) ParameterError.
    """
    if isinstance(shape, (bool, np.bool_)) or not (
            math.isfinite(shape) and 1 <= shape <= GAMMA_CDF_MAX_SHAPE and shape == int(shape)):
        raise ParameterError(f"shape must be an integer in [1, {GAMMA_CDF_MAX_SHAPE}], got {shape!r}")
    a = int(shape)
    xa = np.asarray(x, dtype=np.float64)
    if np.isnan(xa).any():
        raise DomainError("gamma_cdf is undefined at x = NaN")
    out = np.where(xa > 0.0, 1.0, 0.0)
    inner = np.flatnonzero((xa > 0.0) & (xa < math.inf))
    xs = xa.ravel()[inner]
    if a <= _IGAM_POISSON_MAX_SHAPE:
        out.ravel()[inner] = np.maximum(0.0, 1.0 - _poisson_head(xs, a))
    else:
        out.ravel()[inner] = _poisson_far_tail(xs, a)
    return float(out) if out.ndim == 0 else out


def _poisson_head(x: np.ndarray, a: int) -> np.ndarray:
    """e^-x sum_{j<a} x^j / j!, the Poisson(x) probability of fewer than a
    events, which is Q(a, x) at integer a; each term from the one before."""
    term = np.exp(-x)
    total = term.copy()
    for j in range(1, a):
        term *= x / j
        total += term
    return total


def _poisson_far_tail(x: np.ndarray, a: int) -> np.ndarray:
    """P(a, x) for finite x > 0 from the smaller Poisson(x) tail, the one on
    the far side of a: P = sum_{j>=a} pmf(j) where x < a, and 1 - Q with
    Q = sum_{j<a} pmf(j) elsewhere.  Each tail starts at its largest term,
    pmf(a) or pmf(a-1), and only decreases, so nothing overflows, a term
    that underflows leaves a tail below float resolution, and the Q sum
    ends at j = 0.  Each entry stops at its first term at or below
    _IGAM_EPS times its sum, and its sum is frozen there, so an entry of an
    array holds exactly what it holds alone."""
    below = x < a
    xp, xq = x[below], x[~below]
    n = xp.size
    # pmf(j) = e^-x x^j / j!; the P terms first, then the Q terms
    term = np.exp(np.concatenate([a * np.log(xp) - xp - math.lgamma(a + 1),
                                  (a - 1) * np.log(xq) - xq - math.lgamma(a)]))
    total = term.copy()
    ratio = np.empty(x.size)
    live = np.ones(x.size, dtype=bool)
    k = 0
    while live.any():
        k += 1
        np.divide(xp, a + k, out=ratio[:n])  # pmf(a+k) = pmf(a+k-1) x/(a+k)
        np.divide(a - k, xq, out=ratio[n:])  # pmf(a-1-k) = pmf(a-k) (a-k)/x
        term *= ratio
        live &= term > total * _IGAM_EPS
        np.add(total, term, out=total, where=live)
    out = np.empty(x.size)
    out[below], out[~below] = total[:n], 1.0 - total[n:]
    return out


def ks_statistic(values: np.ndarray, cdf) -> float | np.ndarray:
    """One-sample two-sided Kolmogorov-Smirnov statistic against cdf.

    values is one sample of shape (n,), which gives a float, or a stack of
    samples along axis 0, shape (n, m), which gives the m statistics of its
    columns.  cdf is called once, on the whole sample sorted along axis 0,
    and must return the array of CDF values, of the same shape.  The
    columns are scanned one at a time, since broadcasting the grid against
    short rows, and taking maxima along axis 0, costs per row.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim == 0 or values.shape[0] < 1:
        raise ParameterError("KS statistic needs at least one sample")
    values = np.sort(values, axis=0)
    n = values.shape[0]
    f = np.asarray(cdf(values), dtype=np.float64)
    if f.shape != values.shape:
        raise ParameterError(f"cdf must map the {values.shape} sample to an array of that shape, got {f.shape}")
    grid = np.arange(1, n + 1) / n
    below = grid - 1.0 / n
    d = np.array([np.maximum((grid - col).max(), (col - below).max())
                  for col in f.reshape(n, -1).T]).reshape(f.shape[1:])
    return float(d) if d.ndim == 0 else d


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
    two-sample form), for 0 < alpha < 1 and sample sizes >= 1."""
    if not 0.0 < alpha < 1.0:
        raise ParameterError(f"alpha must lie in (0, 1), got {alpha!r}")
    for size in (n,) if n2 is None else (n, n2):
        _check_count("KS sample size", size, 1)
    c = math.sqrt(-0.5 * math.log(alpha / 2.0))
    if n2 is None:
        return c / math.sqrt(n)
    return c * math.sqrt((n + n2) / (n * n2))


def diagonal_ks_tests(spec: EnsembleSpec, samples: int, master_seed: int) -> tuple[np.ndarray, float | None]:
    """The two KS checks of the diagonal law, on one draw of samples
    Wishart diagonals (_wishart_diagonals): the KS statistic of each entry
    W_ii, i = 0..m-1, against the Gamma(kn, 1) CDF, and the two-sample KS
    statistic of rho_00 = W_00 / tr W against the direct Dirichlet marginal
    sampler (_dirichlet_ks).  At m = 1 rho_00 is 1 in both samples, so the
    second check cannot fail: its sample is not drawn, and None stands for
    its statistic.  At least KS_MIN_SAMPLES samples are required."""
    if samples < KS_MIN_SAMPLES:
        raise ParameterError(f"need >= {KS_MIN_SAMPLES} samples for a meaningful KS test, got {samples}")
    diags = _wishart_diagonals(spec, samples, master_seed)
    return (ks_statistic(diags, lambda x: gamma_cdf(x, spec.env_dim)),
            _dirichlet_ks(diags, spec, master_seed) if spec.m > 1 else None)


def _wishart_diagonals(spec: EnsembleSpec, samples: int, master_seed: int) -> np.ndarray:
    """The (samples, m) stack of the diagonals W_ii ~ Gamma(kn, 1) of the
    states sample_mixing_state draws, their wishart_diagonal (m(m+1)/2
    variates per draw whatever kn is): the ks_factors draw key of
    master_seed, chunk for chunk."""
    key = ("ks_factors", None, spec, master_seed, samples)
    return np.concatenate([_draw(key, *chunk) for chunk in _chunks(key)])


def _dirichlet_ks(diags: np.ndarray, spec: EnsembleSpec, master_seed: int) -> float:
    """Two-sample KS statistic of rho_00 = W_00 / tr W over a diagonal stack,
    read without forming the states, against as many direct Dirichlet
    draws, the ks_dirichlet draw key of master_seed, so that the two
    samples are independent of each other and of every estimate."""
    key = ("ks_dirichlet", None, spec, master_seed, len(diags))
    from_dirichlet = np.concatenate([_draw(key, *chunk)[:, 0] for chunk in _chunks(key)])
    return ks_two_sample(diags[:, 0] / row_sum(diags), from_dirichlet)
