"""One benchmark run of one workload, in one process.

    python3 bench/measure.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/measure.py --workload NAME --seed N --probe

Normally started by ``bench/run.py``.  Prints one JSON line.  With
``--trace 0`` it times whole cycles with nothing wrapped; with ``--trace 1``
it alternates an untraced and a traced cycle and reports per-layer numbers.
``--probe`` imports the package, makes one small call of the workload and
exits: ``run.py`` times that from outside as the set-up time.  With
``--setup-probes N`` the run asks ``run.py`` for N probes spread over the
measured seconds, printing a ``probe`` line and pausing until run.py writes
a line back.
"""

from __future__ import annotations

import os

BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in BLAS_THREAD_VARS:  # must happen before numpy is imported
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import gates  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

OUT_DIR = ROOT / ".bench_build" / "bench"
PROBE_SAMPLES = 100
PROBE_REQUEST = "probe"


def environment(workload: str, seed: int) -> dict:
    import numpy

    import randcoh

    return {
        "workload": workload,
        "workload_seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "randcoh": randcoh.__version__,
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "start_method": multiprocessing.get_start_method(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
    }


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest pool child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def probe(workload: str, seed: int) -> None:
    # one small call stands in for a user's first call (for cli-battery the
    # concentration call, which starts a pool); run.py times it from outside
    call = workloads.build(workload, seed, samples=PROBE_SAMPLES)[-1 if workload == "cli-battery" else 0]
    call.run()


def request_probe() -> float:
    """Ask run.py for a set-up probe and wait, idle, until it is done."""
    t0 = time.perf_counter()
    print(PROBE_REQUEST, flush=True)
    sys.stdin.readline()
    return time.perf_counter() - t0


def measure(calls, seconds: float, checks, probes: int) -> dict:
    references = workloads.gate_cycle(checks, calls, workloads.run_cycle(calls))
    draws = sum(c.draws for c in calls)
    repeats = [[] for _ in calls]
    start, paused, asked = time.perf_counter(), 0.0, 0
    while not repeats[0] or time.perf_counter() - paused < start + seconds:
        timed = workloads.run_cycle(calls)
        workloads.gate_cycle(checks, calls, timed, references)
        for times, (_, s) in zip(repeats, timed):
            times.append(s)
        if asked < probes and time.perf_counter() - paused - start >= asked * seconds / probes:
            paused += request_probe()
            asked += 1
    for _ in range(asked, probes):
        request_probe()
    # Each call's fastest repeat: interference from other tenants of the
    # machine only ever adds time, and on a shared 2-CPU host it comes in
    # phases of seconds that a median over repeats does not average out.
    best = [min(times) for times in repeats]
    return {
        "metrics": {
            "us_per_sample": sum(best) / draws * 1e6,
            "call_s_p50": statistics.median(best),
            "peak_rss_mb": peak_rss_mb(),
            "check_pass_ratio": (checks.attempted - checks.failed) / checks.attempted,
        },
        "details": {
            "cycles": len(repeats[0]),
            "draws_per_cycle": draws,
            "call_s_best": {c.label: b for c, b in zip(calls, best)},
            "call_s_median": {c.label: statistics.median(t) for c, t in zip(calls, repeats)},
            "call_s_all": {c.label: t for c, t in zip(calls, repeats)},
        },
    }


def traced_cycle(calls, rec):
    restore = spans.install(rec)
    try:
        rec.open(rec.intern(spans.ROOT_SPAN))
        try:
            timed = workloads.run_cycle(calls)
        finally:
            wall = rec.close()
    finally:
        restore()
    return timed, wall


def measure_traced(calls, seconds: float, checks, spool: Path) -> dict:
    references = workloads.gate_cycle(checks, calls, workloads.run_cycle(calls))
    draws = sum(c.draws for c in calls)
    untraced, traced, per_cycle = [], [], []
    t_end = time.perf_counter() + seconds
    while not traced or time.perf_counter() < t_end:
        timed = workloads.run_cycle(calls)
        workloads.gate_cycle(checks, calls, timed, references)
        untraced.append(sum(s for _, s in timed))

        rec = spans.Recorder(spool)
        timed, wall = traced_cycle(calls, rec)
        workloads.gate_cycle(checks, calls, timed, references)
        traced.append(wall)
        totals = rec.totals()
        accounted = sum(t["self_s"] for t in totals.values())
        if abs(accounted - wall) > 1e-6 * wall:
            raise RuntimeError(f"span self times add to {accounted} s, traced wall is {wall} s")
        per_cycle.append(spans.layer_metrics(totals, rec.counters, draws, len(calls)))
        for name in spans.EXACT_COUNTS:
            checks.check(per_cycle[-1][name] == per_cycle[0][name],
                         f"{name} changed between traced cycles")

    metrics = {name: statistics.median(m[name] for m in per_cycle) for name in per_cycle[0]}
    metrics["trace_overhead"] = min(traced) / min(untraced) - 1.0
    last = rec.totals()
    return {
        "metrics": metrics,
        "details": {
            "traced_cycles": len(traced),
            "draws_per_cycle": draws,
            "calls_per_cycle": len(calls),
            # the accounting identity of the last traced cycle: per-span
            # wall-attributed self seconds add up to the traced wall time
            "wall_accounting_s": {
                "traced_wall": traced[-1],
                "spans": {n: t["self_s"] for n, t in sorted(last.items())},
                "busy": {n: t["busy_s"] for n, t in sorted(last.items())},
            },
        },
        "recorder": rec,
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", action="store_true")
    p.add_argument("--setup-probes", type=int, default=0,
                   help="set-up probes to request from run.py, spread over the run")
    args = p.parse_args(argv)

    import randcoh

    if Path(randcoh.__file__).resolve().parent != ROOT / "src" / "randcoh":
        raise SystemExit(f"imported randcoh from {randcoh.__file__}, not from this checkout")
    if args.probe:
        probe(args.workload, args.seed)
        return 0

    calls = workloads.build(args.workload, args.seed)
    checks = gates.Checks()
    report = {"environment": environment(args.workload, args.seed)}
    if args.trace:
        spool = OUT_DIR / f"spool-{os.getpid()}"
        shutil.rmtree(spool, ignore_errors=True)
        try:
            result = measure_traced(calls, args.seconds, checks, spool)
        finally:
            shutil.rmtree(spool, ignore_errors=True)
        span_file = OUT_DIR / f"spans-{args.workload}.json"
        result.pop("recorder").write(span_file)
        result["details"]["span_file"] = str(span_file.relative_to(ROOT))
    else:
        result = measure(calls, args.seconds, checks, args.setup_probes)
    report.update(result)
    report["checks"] = {"attempted": checks.attempted, "failed": checks.failed,
                        "failures": checks.failures}
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
