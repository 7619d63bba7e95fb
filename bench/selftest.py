"""Self-test of the benchmark's gates and exact counts.

    python3 bench/selftest.py

Shows that each correctness gate passes on real output and fails on output
corrupted in the way it guards against, and that two traced cycles of every
workload with the same seed give identical exact counts and span self times
that add up to the traced wall time.  Exits 1 if anything does not hold.
Takes about half a minute; the workloads run at reduced sample counts.
"""

from __future__ import annotations

import math
import shutil
import sys

import measure  # noqa: F401  (pins BLAS threads and puts src/ on sys.path first)
import gates
import spans
import workloads

TINY_SAMPLES = 60
SPOOL = measure.OUT_DIR / "selftest-spool"
results: list[tuple[bool, str]] = []


def expect(ok: bool, what: str) -> None:
    results.append((bool(ok), what))
    print(f"{'PASS' if ok else 'FAIL'}  {what}", flush=True)


def fails(gate, *args) -> bool:
    """True when the gate records a failed check on these inputs."""
    checks = gates.Checks()
    gate(checks, *args)
    return checks.failed > 0


def gate_selftests() -> None:
    from randcoh import EnsembleSpec, EstimatorConfig, closedforms, run_comparison

    config = EstimatorConfig(EnsembleSpec(2, 2), "coherence", 400, 11)
    report = run_comparison(config)
    entry = {"mean": report.mc_mean, "stderr": report.mc_stderr,
             "closed_form": report.closed_form, "verdict": "pass" if report.passed else "fail"}
    expect(not fails(gates.gate_comparison, entry, "real"), "verdict gate passes a real estimate")
    wrong = dict(entry, closed_form=closedforms.avg_coherence(2, 3))
    expect(fails(gates.gate_comparison, wrong, "wrong"), "verdict gate fails a wrong closed form")
    flipped = dict(entry, verdict="fail")
    expect(fails(gates.gate_comparison, flipped, "flip"), "verdict gate fails a verdict that contradicts z")
    expect(fails(gates.gate_comparison, dict(entry, mean=math.nan), "nan"), "finite gate fails a NaN mean")
    expect(fails(gates.gate_comparison, dict(entry, stderr=math.inf), "inf"), "finite gate fails an infinite stderr")

    ks = {"statistics": [0.01, 0.02], "threshold": 0.0421, "samples": 1000, "verdict": "pass"}
    expect(not fails(gates.gate_ks, ks, "ks", False), "KS gate passes a plausible record")
    expect(fails(gates.gate_ks, dict(ks, statistics=[0.01, 0.5], verdict="fail"), "ks", False),
           "KS gate fails a statistic far past its critical value")
    expect(fails(gates.gate_ks, dict(ks, statistics=[0.01, 0.05]), "ks", False),
           "KS gate fails a pass verdict above the program's own threshold")

    expect(gates.strict_json('{"mean": 0.25}') == {"mean": 0.25}, "strict JSON accepts a finite record")
    for bad in ('{"mean": NaN}', '{"mean": Infinity}', '{"mean": -Infinity}', '{"mean": 0.25'):
        expect(gates.strict_json(bad) is None, f"strict JSON rejects {bad}")

    cli_call = workloads.build("cli-battery", 3, samples=TINY_SAMPLES)[0]
    rc, stdout = cli_call.run()
    checks = gates.Checks()
    good = gates.gate_cli(checks, "verify", cli_call.m, rc, stdout, "verify")
    expect(checks.failed == 0 and checks.attempted > 7, "CLI gates pass a real verify run")
    lines = stdout.splitlines()
    corrupted = "\n".join([lines[0].replace('"stderr": ', '"stderr": NaN, "x": ', 1), *lines[1:]])
    expect(fails(gates.gate_cli, "verify", cli_call.m, rc, corrupted, "verify"),
           "CLI gates fail a record carrying a bare NaN")
    expect(fails(gates.gate_cli, "verify", cli_call.m, rc, "\n".join(lines[:-1]), "verify"),
           "CLI gates fail a verify run with a record missing")
    expect(fails(gates.gate_cli, "verify", cli_call.m, 2, stdout, "verify"),
           "CLI gates fail an exit code that contradicts the verdicts")

    again = gates.gate_cli(gates.Checks(), "verify", cli_call.m, *cli_call.run(), "verify")
    expect(not fails(gates.gate_same, again, good, "same"), "determinism gate passes a same-seed repeat")
    other = workloads.build("cli-battery", 4, samples=TINY_SAMPLES)[0]
    moved = gates.gate_cli(gates.Checks(), "verify", other.m, *other.run(), "verify")
    expect(fails(gates.gate_same, moved, good, "other"), "determinism gate fails results of another seed")


def traced(workload: str, seed: int, samples: int):
    calls = workloads.build(workload, seed, samples=samples)
    rec = spans.Recorder(SPOOL)
    timed, wall = measure.traced_cycle(calls, rec)
    checks = gates.Checks()
    workloads.gate_cycle(checks, calls, timed)
    totals = rec.totals()
    metrics = spans.layer_metrics(totals, rec.counters, sum(c.draws for c in calls), len(calls))
    accounted = sum(t["self_s"] for t in totals.values())
    return metrics, wall, accounted, checks


def count_selftests() -> None:
    for workload in workloads.NAMES:
        first, wall, accounted, checks = traced(workload, 5, TINY_SAMPLES)
        second, _, _, _ = traced(workload, 5, TINY_SAMPLES)
        expect(checks.failed == 0, f"{workload}: traced cycle passes its gates")
        expect(abs(accounted - wall) <= 1e-6 * wall,
               f"{workload}: span self times add to the traced wall ({accounted:.6f} vs {wall:.6f} s)")
        same = {k: (first[k], second[k]) for k in spans.EXACT_COUNTS}
        expect(all(a == b for a, b in same.values()), f"{workload}: exact counts repeat {same}")
        bigger, _, _, _ = traced(workload, 5, 2 * TINY_SAMPLES)
        expect(bigger["linalg.eig_calls"] != first["linalg.eig_calls"],
               f"{workload}: exact counts move when the work does")
    small, _, _, _ = traced("draws-small", 5, TINY_SAMPLES)
    expect(abs(small["randkit.polar_accept_ratio"] - math.pi / 4) < 0.01,
           f"polar accept ratio {small['randkit.polar_accept_ratio']:.4f} is near pi/4")
    cli, _, _, _ = traced("cli-battery", 5, TINY_SAMPLES)
    expect(cli["mc.pools_started"] == 9, f"cli-battery starts 4 pools per verify plus 1 ({cli['mc.pools_started']})")


def main() -> int:
    gate_selftests()
    try:
        count_selftests()
    finally:
        shutil.rmtree(SPOOL, ignore_errors=True)
    failed = [what for ok, what in results if not ok]
    print(f"{len(results) - len(failed)}/{len(results)} self-tests passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
