"""randcoh benchmark: one run of one workload.

    python3 bench/run.py --workload draws-small --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  Workloads: draws-small, spectra-large,
cli-battery (see bench/workloads.py).  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; the line before it is
the full report with the environment block and the per-run details.

--trace 0 reports the end-to-end metrics (us_per_sample, call_s_p50,
setup_s, peak_rss_mb, check_pass_ratio) with nothing wrapped.  --trace 1
reports the per-layer metrics from a separate, traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import measure

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEASURE = HERE / "measure.py"
SETUP_PROBES = 7  # spread over the run, so that they sample its whole span
RUN_LIMIT_S = 170.0  # every child is killed once the run has taken this long


def _kill(proc) -> None:
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def _run(args: list[str], deadline: float, on_probe=None) -> tuple[float, str]:
    """Run measure.py with args in its own process group and return (wall
    seconds, last stdout line).  Each time the child asks for a set-up probe
    it waits, idle, while on_probe runs.  At the deadline the group is
    killed."""
    # a fixed hash seed keeps dict and set layouts the same from run to run
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(MEASURE), *args], cwd=ROOT, env=env,
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    timer = threading.Timer(max(0.0, deadline - t0), _kill, (proc,))
    timer.start()
    last = ""
    try:
        for line in proc.stdout:
            if line.strip() == measure.PROBE_REQUEST:
                on_probe()
                proc.stdin.write("\n")
                proc.stdin.flush()
            else:
                last = line
        proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            _kill(proc)
            proc.wait()
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"bench: {MEASURE.name} {' '.join(args)} exited with {proc.returncode}")
    return wall, last


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "randcoh" / "__init__.py").is_file():
        print(f"bench: no package source at {ROOT / 'src' / 'randcoh'}; run from a randcoh checkout",
              file=sys.stderr)
        return 2

    deadline = time.perf_counter() + RUN_LIMIT_S
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    setup = []

    def probe():
        setup.append(_run([*common, "--probe"], deadline)[0])

    probes = 0 if args.trace else SETUP_PROBES
    if probes:
        _run([*common, "--probe"], deadline)  # compiles the package's bytecode; not timed
    _, out = _run([*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                   "--setup-probes", str(probes)], deadline, probe)
    report = json.loads(out)
    metrics = report.pop("metrics")
    if setup:
        metrics["setup_s"] = statistics.median(setup)
        report["details"]["setup_s_probes"] = setup
    # report exactly the metrics BENCHMARK.json lists for this mode
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"bench: run produced no value for {missing}")
    checks = report["checks"]
    print(json.dumps(report))
    print(json.dumps({
        "correct": checks["failed"] == 0,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
