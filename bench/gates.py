"""Correctness gates applied to every call the benchmark times.

Each gate is one attempted check; the benchmark's ``failed`` count is the
number of gates that did not hold.  The gates are:

- verdict: every statistical result lies inside the gate's acceptance
  region and the program's own verdict agrees with the numbers it printed;
- strict JSON: every CLI line parses as JSON with NaN and Infinity rejected;
- finite: every mean, standard error, closed form and statistic is finite;
- determinism: a call repeated with the same master seed gives identical
  results.

The program's verdicts use a per-check level of 1% (KS) and |z| <= 4.  A
benchmark run makes a few dozen such checks and the benchmark is run
hundreds of times, so at those levels correct code would fail a run now
and then.  The verdict gate therefore re-derives pass/fail from the
printed statistic at a per-check level of GATE_ALPHA, which keeps the
chance of a false alarm over thousands of runs small, while a wrong closed
form or a broken sampler still misses by orders of magnitude.
"""

from __future__ import annotations

import json
import math
import statistics

GATE_ALPHA = 1e-6
PROGRAM_Z = 4.0  # the package's own pass threshold on |z|
DERIVATIVE_TOL = 1e-10  # the package's own pointwise tolerance


Z_GATE = statistics.NormalDist().inv_cdf(1.0 - GATE_ALPHA / 2.0)  # 4.89


def ks_gate(n: int, n2: int | None = None) -> float:
    """Asymptotic two-sided KS critical value at level GATE_ALPHA."""
    c = math.sqrt(-0.5 * math.log(GATE_ALPHA / 2.0))
    if n2 is None:
        return c / math.sqrt(n)
    return c * math.sqrt((n + n2) / (n * n2))


class Checks:
    """Tally of attempted and failed checks, keeping the first failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(what)
        return ok


def _reject_constant(token: str):
    raise ValueError(f"non-finite JSON constant {token}")


def strict_json(line: str):
    """The parsed line, or None when it is not strict JSON."""
    try:
        return json.loads(line, parse_constant=_reject_constant)
    except ValueError:
        return None


def _finite(*values) -> bool:
    return all(isinstance(v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)
               for v in values)


def gate_comparison(checks: Checks, entry: dict, label: str) -> None:
    """An MC mean against its closed form: {mean, stderr, closed_form, z, verdict}."""
    mean, stderr, closed = entry.get("mean"), entry.get("stderr"), entry.get("closed_form")
    if not checks.check(_finite(mean, stderr, closed), f"{label}: non-finite mean/stderr/closed form"):
        return
    diff = mean - closed
    z = 0.0 if abs(diff) <= 1e-12 else (diff / stderr if stderr > 0 else math.inf)
    program_pass = entry.get("verdict") == "pass"
    checks.check(abs(z) <= Z_GATE and program_pass == (abs(z) <= PROGRAM_Z),
                 f"{label}: z={z:.3g} verdict={entry.get('verdict')}")


def gate_ks(checks: Checks, entry: dict, label: str, two_sample: bool) -> None:
    """A KS record: {statistics | statistic, threshold, samples, verdict}."""
    stats = entry.get("statistics", [entry.get("statistic")])
    n = entry.get("samples")
    threshold = entry.get("threshold")
    if not checks.check(isinstance(n, int) and n > 0 and _finite(threshold, *stats),
                        f"{label}: malformed KS record"):
        return
    gate = ks_gate(n, n if two_sample else None)
    program_pass = entry.get("verdict") == "pass"
    checks.check(max(stats) < gate and program_pass == (max(stats) < threshold),
                 f"{label}: KS {max(stats):.4g} (gate {gate:.4g}) verdict={entry.get('verdict')}")


def gate_derivative(checks: Checks, entry: dict, label: str, m: int) -> None:
    if m == 2:
        diff = entry.get("max_abs_diff")
        checks.check(_finite(diff) and diff < DERIVATIVE_TOL and entry.get("verdict") == "pass",
                     f"{label}: derivative principle {entry}")
    else:
        checks.check(entry.get("verdict") == "skip", f"{label}: expected a skip for m={m}")


def gate_concentration(checks: Checks, entry: dict, label: str) -> None:
    frac, bound = entry.get("empirical_fraction"), entry.get("bound")
    checks.check(_finite(frac, bound) and 0.0 <= frac <= bound <= 1.0 and entry.get("verdict") == "pass",
                 f"{label}: concentration {entry}")


RECORD_KEYS = {"schema_version", "command", "parameters", "results", "seed", "wall_time_ms"}
VERIFY_RESULTS = ("coherence", "entropy", "diag_entropy", "subentropy",
                  "wishart_diagonal_gamma_ks", "diagonal_dirichlet_consistency_ks",
                  "derivative_principle_m2")


def gate_cli(checks: Checks, command: str, m: int, rc: int, stdout: str, label: str) -> list:
    """Gate one in-process CLI call; return its parsed records' results."""
    lines = stdout.splitlines()
    records = []
    for i, line in enumerate(lines):
        rec = strict_json(line)
        ok = (isinstance(rec, dict) and set(rec) == RECORD_KEYS and rec["command"] == command
              and isinstance(rec["results"], dict) and len(rec["results"]) == 1
              and all(isinstance(e, dict) for e in rec["results"].values()))
        if checks.check(ok, f"{label}: line {i} is not a strict JSON {command} record: {line[:120]}"):
            records.append(rec)
    expected = VERIFY_RESULTS if command == "verify" else ("concentration",)
    kinds = tuple(k for rec in records for k in rec["results"])
    if not checks.check(kinds == expected and len(records) == len(lines),
                        f"{label}: record kinds {kinds}"):
        return [rec["results"] for rec in records]
    program_pass = True
    for rec in records:
        (kind, entry), = rec["results"].items()
        where = f"{label}/{kind}"
        if kind in ("coherence", "entropy", "diag_entropy", "subentropy"):
            gate_comparison(checks, entry, where)
        elif kind == "wishart_diagonal_gamma_ks":
            gate_ks(checks, entry, where, two_sample=False)
        elif kind == "diagonal_dirichlet_consistency_ks":
            gate_ks(checks, entry, where, two_sample=True)
        elif kind == "derivative_principle_m2":
            gate_derivative(checks, entry, where, m)
        else:
            gate_concentration(checks, entry, where)
        program_pass &= entry.get("verdict") in ("pass", "skip")
    checks.check(rc == (0 if program_pass else 2), f"{label}: exit code {rc}")
    return [rec["results"] for rec in records]


def gate_same(checks: Checks, got, reference, label: str) -> None:
    """Determinism: a repeat of a call with the same seed matches exactly."""
    checks.check(got == reference, f"{label}: differs from the first run with the same seed")
