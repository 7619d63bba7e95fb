"""The benchmark's workloads: which user-facing calls one cycle makes.

A workload is a fixed list of calls; the workload seed only chooses the
master seed each call passes to the program.  Every cycle of a run repeats
the same calls with the same master seeds, so each repeat is also a
determinism check against the first (warm-up) cycle.

- draws-small: ``mc.run_comparison`` with workers=1 for coherence, entropy
  and diag_entropy at (m, n, k) = (2,2,1), (4,8,1), (2,2,3), plus the
  isospectral diagonal entropy on lambda = (0.6, 0.3, 0.1).  Small states,
  so the per-draw Python overhead dominates.
- spectra-large: the same estimator with workers=1 for subentropy, entropy
  and coherence at (16,32,1) and (8,16,3).  LAPACK ``eigvalsh`` and the
  O(m^2) divided-difference subentropy do most of the work.
- cli-battery: in-process ``cli.main`` with stdout captured and workers=2:
  ``verify`` at (2,3,1) and (4,8,1), then ``concentration`` at m=n=3,
  epsilon=0.2.  The only workload with process pools, Gamma rejection,
  the per-sample Wishart loop, scalar ``gamma_cdf``, KS and JSONL output.
"""

from __future__ import annotations

import contextlib
import io
import random
import time

import gates

SMALL_SIZES = ((2, 2, 1), (4, 8, 1), (2, 2, 3))
SMALL_QUANTITIES = ("coherence", "entropy", "diag_entropy")
ISO_SPECTRUM = (0.6, 0.3, 0.1)
LARGE_SIZES = ((16, 32, 1), (8, 16, 3))
LARGE_QUANTITIES = ("subentropy", "entropy", "coherence")
CLI_WORKERS = 2
KS_FLOOR = 1000  # the CLI runs its KS tests on max(samples, 1000) draws

# Monte Carlo samples per call: calls of a fraction of a second, so that a
# run repeats each call twenty times or more.  cli-battery keeps its pooled
# estimates short: while both CPUs of a 2-CPU host are busy, interference
# from other tenants is far larger, and its KS tests run 1000 draws anyway.
SAMPLES = {"draws-small": 1000, "spectra-large": 400, "cli-battery": 200}
NAMES = tuple(SAMPLES)


class EstimateCall:
    """One ``mc.run_comparison`` call."""

    def __init__(self, quantity, size, samples, master_seed, fixed_spectrum=None):
        from randcoh import EnsembleSpec, EstimatorConfig

        self.label = f"{quantity}{size}"
        self.draws = samples
        self.config = EstimatorConfig(EnsembleSpec(*size), quantity, samples, master_seed,
                                      workers=1, fixed_spectrum=fixed_spectrum)

    def run(self):
        from randcoh import run_comparison

        return run_comparison(self.config)

    def gate(self, checks, report, reference):
        entry = {"mean": report.mc_mean, "stderr": report.mc_stderr,
                 "closed_form": report.closed_form,
                 "verdict": "pass" if report.passed else "fail"}
        gates.gate_comparison(checks, entry, self.label)
        key = (report.mc_mean, report.mc_stderr)
        if reference is not None:
            gates.gate_same(checks, key, reference, self.label)
        return key


class CliCall:
    """One in-process ``randcoh`` command with stdout captured."""

    def __init__(self, command, m, n, samples, master_seed, extra=()):
        self.command, self.m = command, m
        self.label = f"{command}({m},{n},1)"
        self.argv = [command, "--m", str(m), "--n", str(n), *extra,
                     "--samples", str(samples), "--seed", str(master_seed),
                     "--workers", str(CLI_WORKERS)]
        if command == "verify":
            # four estimators, the Wishart-diagonal KS sample and the two
            # samples of the Dirichlet consistency test
            self.draws = 4 * samples + 3 * max(samples, KS_FLOOR)
        else:
            self.draws = samples

    def run(self):
        from randcoh import cli

        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(self.argv)
        return rc, buf.getvalue()

    def gate(self, checks, outcome, reference):
        rc, stdout = outcome
        results = gates.gate_cli(checks, self.command, self.m, rc, stdout, self.label)
        if reference is not None:
            gates.gate_same(checks, results, reference, self.label)
        return results


def build(workload: str, seed: int, samples: int | None = None) -> list:
    """The calls of one cycle; master seeds come from the workload seed."""
    rng = random.Random(f"{workload}/{seed}")
    n = samples or SAMPLES[workload]

    def master():
        return rng.getrandbits(63)

    if workload == "draws-small":
        calls = [EstimateCall(q, size, n, master()) for size in SMALL_SIZES for q in SMALL_QUANTITIES]
        calls.append(EstimateCall("isospectral_diag_entropy", (3, 3, 1), n, master(),
                                  fixed_spectrum=ISO_SPECTRUM))
        return calls
    if workload == "spectra-large":
        return [EstimateCall(q, size, n, master()) for size in LARGE_SIZES for q in LARGE_QUANTITIES]
    if workload == "cli-battery":
        return [CliCall("verify", 2, 3, n, master()),
                CliCall("verify", 4, 8, n, master()),
                CliCall("concentration", 3, 3, n, master(), extra=("--epsilon", "0.2"))]
    raise ValueError(f"unknown workload {workload!r}; expected one of {NAMES}")


def run_cycle(calls) -> list:
    """Run every call once; return (outcome, seconds) per call."""
    out = []
    for call in calls:
        t0 = time.perf_counter()
        outcome = call.run()
        out.append((outcome, time.perf_counter() - t0))
    return out


def gate_cycle(checks, calls, timed, references=None) -> list:
    """Gate a cycle's outcomes; return each call's determinism key."""
    refs = references or [None] * len(calls)
    return [call.gate(checks, outcome, ref) for call, (outcome, _), ref in zip(calls, timed, refs)]
