"""Command-line front end.

Subcommands: estimate, verify, tables, concentration, sample.  Estimator
output is JSON-Lines (one record per line, schema_version 1); tables emit
CSV.  Exit codes: 0 pass, 1 usage or precondition error, 2 statistical
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time

import numpy as np

from . import closedforms, mc
from .ensembles import EnsembleSpec
from .errors import NumericalError, ParameterError, RandcohError
from .randkit import SeedSpec

SCHEMA_VERSION = 1
# the largest k*n at which verify's derivative_principle_m2 check compares
# two numbers at each of its 50 grid points: up to it, both m = 2 densities
# are normal floats on the whole grid.  Above it the ends of the grid
# underflow on both sides (to 0.0 from about k*n = 300), and from 506 the
# normaliser of eigen_density_m2 is subnormal, where it raises NumericalError
M2_DENSITY_MAX_ENV_DIM = 163
_LN2 = math.log(2.0)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the CLI contract reserves
    # 2 for statistical failures, so funnel every parse error through here
    def error(self, message):
        raise UsageError(message)


def _sig12(value):
    """Round floats to 12 significant digits, recursively."""
    if isinstance(value, float):
        return float(f"{value:.12g}")
    if isinstance(value, dict):
        return {k: _sig12(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_sig12(v) for v in value]
    return value


def _json_line(payload) -> str:
    """payload as one line of strict JSON, which has no NaN or infinities."""
    try:
        return json.dumps(_sig12(payload), separators=(", ", ": "), allow_nan=False)
    except ValueError as exc:
        raise NumericalError(f"refusing to write a non-finite number: {exc}") from exc


class _OutFile:
    """The --out file, opened for appending once per command, before anything
    is drawn or printed, and closed when the command ends.  Failing to open,
    write or close it (say, on a full disk) exits 1, and a file that the
    opening created is removed again if no record reached it."""

    def __init__(self, path: str):
        self.path, self._created = path, not os.path.exists(path)
        self._fh = self._io(open, path, "a", encoding="utf-8")

    def write(self, text: str) -> None:
        self._io(self._fh.write, text)

    def close(self) -> None:
        try:
            self._io(self._fh.close)
        finally:
            if self._created and os.path.getsize(self.path) == 0:
                os.remove(self.path)

    def _io(self, fn, *args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except OSError as exc:
            raise UsageError(f"cannot append to --out {self.path}: {exc.strerror}") from exc


def _emit(payload, out: _OutFile | None) -> None:
    line = _json_line(payload)
    print(line)
    if out is not None:
        out.write(line + "\n")


def _report(command: str, parameters: dict, seed: int, checks, out: _OutFile | None) -> int:
    """Print one record per (name, entry, wall_time_ms) check of checks, each
    as soon as its check is done, and return the exit code: 2 if some
    entry's verdict is "fail", else 0 (a "skip" counts for neither)."""
    failed = False
    for name, entry, wall_time_ms in checks:
        _emit({
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "parameters": parameters,
            "results": {name: entry},
            "seed": seed,
            "wall_time_ms": wall_time_ms,
        }, out)
        failed |= entry["verdict"] == "fail"
    return 2 if failed else 0


def _verdict(passed: bool) -> str:
    return "pass" if passed else "fail"


def _skip(reason: str) -> dict:
    return {"verdict": "skip", "reason": reason}


def _comparison_entry(report: mc.ComparisonReport) -> dict:
    return {
        "mean": report.mc_mean,
        "stderr": report.mc_stderr,
        "closed_form": report.closed_form,
        "z": report.z_score if math.isfinite(report.z_score) else None,
        "verdict": _verdict(report.passed),
    }


def cmd_estimate(args) -> int:
    spec = EnsembleSpec(args.m, args.n, args.k)
    quantity = args.quantity.replace("-", "_")
    config = mc.EstimatorConfig(
        spec=spec,
        quantity=quantity,
        samples=args.samples,
        master_seed=args.seed,
        workers=args.workers,
    )
    report = mc.run_comparison(config)
    entry = _comparison_entry(report)
    if args.bits:
        entry.update({key: entry[key] / _LN2 for key in ("mean", "stderr", "closed_form")})
    parameters = {
        "quantity": args.quantity,
        "m": args.m,
        "n": args.n,
        "k": args.k,
        "samples": args.samples,
        "workers": args.workers,
        "units": "bits" if args.bits else "nats",
    }
    return _report("estimate", parameters, args.seed, [(quantity, entry, report.wall_time_ms)], args.out)


def cmd_verify(args) -> int:
    spec = EnsembleSpec(args.m, args.n, args.k)
    # refused before anything is drawn or printed: the KS check's Gamma(kn)
    # CDF takes no larger shape
    if spec.env_dim > mc.GAMMA_CDF_MAX_SHAPE:
        raise ParameterError(f"verify needs k*n <= {mc.GAMMA_CDF_MAX_SHAPE}, got {spec.env_dim}")
    parameters = {"m": args.m, "n": args.n, "k": args.k, "samples": args.samples, "workers": args.workers}
    return _report("verify", parameters, args.seed, _verify_checks(spec, args), args.out)


def _verify_checks(spec: EnsembleSpec, args):
    """verify's checks as (name, entry, wall_time_ms), in record order, each
    run when the one before it has been printed."""
    # coherence and diag_entropy share their state draws, entropy and
    # subentropy their spectra: one run_comparisons call draws each once
    configs = [
        mc.EstimatorConfig(spec=spec, quantity=quantity, samples=args.samples,
                           master_seed=args.seed, workers=args.workers)
        for quantity in ("coherence", "entropy", "diag_entropy", "subentropy")
    ]
    for report in mc.run_comparisons(configs):
        yield report.config.quantity, _comparison_entry(report), report.wall_time_ms

    # distributional checks need a sample floor to mean anything
    ks_samples = max(args.samples, mc.KS_MIN_SAMPLES)

    # both checks read one stack of Wishart diagonals, so both records carry
    # the time of the pair
    t0 = time.perf_counter()
    stats, d = mc.diagonal_ks_tests(spec, ks_samples, args.seed)
    elapsed_ms = (time.perf_counter() - t0) * 1000.0
    threshold = mc.ks_critical_value(ks_samples)
    yield "wishart_diagonal_gamma_ks", {
        "statistics": [float(s) for s in stats],
        "threshold": threshold,
        "samples": ks_samples,
        "verdict": _verdict((stats < threshold).all()),
    }, elapsed_ms

    if d is None:
        entry = _skip("m = 1: rho_00 = 1 in both samples")
    else:
        threshold = mc.ks_critical_value(ks_samples, n2=ks_samples)
        entry = {"statistic": d, "threshold": threshold, "samples": ks_samples, "verdict": _verdict(d < threshold)}
    yield "diagonal_dirichlet_consistency_ks", entry, elapsed_ms

    t0 = time.perf_counter()
    if spec.m != 2:
        entry = _skip("m != 2")
    elif spec.env_dim > M2_DENSITY_MAX_ENV_DIM:
        entry = _skip(f"k*n > {M2_DENSITY_MAX_ENV_DIM}: the m = 2 densities underflow on the grid")
    else:
        xs = np.linspace(0.01, 0.99, 50)
        diffs = [abs(closedforms.eigen_density_m2(spec.env_dim, float(x))
                     - closedforms.derivative_principle_density_m2(spec.env_dim, float(x)))
                 for x in xs]
        max_diff = max(diffs)
        entry = {"max_abs_diff": max_diff, "grid_points": 50, "verdict": _verdict(max_diff < 1e-10)}
    yield "derivative_principle_m2", entry, (time.perf_counter() - t0) * 1000.0


def cmd_tables(args) -> int:
    m_list = _parse_int_list(args.m_list, "--m-list")
    n_list = _parse_int_list(args.n_list, "--n-list")
    if min(m_list + n_list) < 1:
        raise UsageError("every value of --m-list and --n-list must be >= 1")
    if min(m_list) > max(n_list):
        raise UsageError("no (m, n) pair of --m-list and --n-list has m <= n")
    print("m,n,avg_entropy,avg_diag_entropy,avg_coherence,avg_subentropy,max_subentropy,rel_err_S,rel_err_Q")
    for m in m_list:
        for n in n_list:
            if m > n:
                continue
            s_bar = closedforms.avg_entropy_page(m, n)
            q_bar = closedforms.avg_subentropy(m, n)
            q_max = closedforms.max_subentropy(m)
            cells = [
                str(m),
                str(n),
                f"{s_bar:.12g}",
                f"{closedforms.avg_diag_entropy(m, n):.12g}",
                f"{closedforms.avg_coherence(m, n):.12g}",
                f"{q_bar:.12g}",
                f"{q_max:.12g}",
            ]
            if m >= 2:
                cells.append(f"{(math.log(m) - s_bar) / math.log(m):.12g}")
                cells.append(f"{(q_max - q_bar) / q_max:.12g}")
            else:
                cells.extend(["", ""])
            print(",".join(cells))
    return 0


def cmd_concentration(args) -> int:
    spec = EnsembleSpec(args.m, args.n, args.k)
    t0 = time.perf_counter()
    fraction, bound = mc.empirical_concentration(
        spec, args.epsilon, args.samples, args.seed, workers=args.workers
    )
    entry = {
        "epsilon": args.epsilon,
        "empirical_fraction": fraction,
        "bound": bound,
        "bound_vacuous": bound >= 1.0,
        "verdict": _verdict(fraction <= bound),
    }
    parameters = {"m": args.m, "n": args.n, "k": args.k, "epsilon": args.epsilon,
                  "samples": args.samples, "workers": args.workers}
    return _report("concentration", parameters, args.seed,
                   [("concentration", entry, (time.perf_counter() - t0) * 1000.0)], args.out)


def cmd_sample(args) -> int:
    if args.count < 0:
        raise UsageError(f"--count must be >= 0, got {args.count}")
    # the states the coherence and diag-entropy estimates of this seed and
    # count average, chunk for chunk; a bad seed is refused even at --count 0
    SeedSpec(args.seed)
    key = ("states", None, EnsembleSpec(args.m, args.n, args.k), args.seed, args.count)
    for states in mc._drawn(key):
        if args.what == "state":
            # complex entries as [re, im] pairs
            rows = np.stack([states.matrix.real, states.matrix.imag], axis=-1).tolist()
        elif args.what == "diag":
            rows = states.diagonal.tolist()
        else:
            rows = states.spectrum.tolist()
        for row in rows:
            _emit(row, args.out)
    return 0


def _parse_int_list(raw: str, flag: str) -> list[int]:
    items = [s for s in raw.split(",") if s.strip()]
    if not items:
        raise UsageError(f"{flag} must contain at least one integer")
    try:
        return [int(s) for s in items]
    except ValueError as exc:
        raise UsageError(f"{flag} must be a comma-separated integer list: {exc}") from exc


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process."""
    parser = _Parser(prog="randcoh", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, samples=True):
        p.add_argument("--m", type=int, required=True, help="system dimension")
        p.add_argument("--n", type=int, required=True, help="environment dimension (m <= n)")
        p.add_argument("--k", type=int, default=1, help="mixing order (default 1)")
        p.add_argument("--seed", type=int, required=True, help="64-bit master seed")
        if samples:
            p.add_argument("--samples", type=int, required=True, help="Monte Carlo sample count")
            p.add_argument("--workers", type=int, default=1,
                           help="processes that evaluate the sample chunks; the results do not "
                                "depend on it (default 1: a pool pays only on jobs of a few "
                                "hundred ms or more)")
        p.add_argument("--out", type=str, default=None, help="also append JSONL records to this file")

    p_est = sub.add_parser("estimate", help="one MC estimate vs its closed form")
    p_est.add_argument("--quantity", required=True,
                       choices=["entropy", "diag-entropy", "coherence", "subentropy"])
    add_common(p_est)
    p_est.add_argument("--bits", action="store_true",
                       help="display entropies in bits (stored closed forms stay in nats)")
    p_est.set_defaults(func=cmd_estimate)

    p_ver = sub.add_parser("verify", help="full MC + distributional check suite")
    add_common(p_ver)
    p_ver.set_defaults(func=cmd_verify)

    p_tab = sub.add_parser("tables", help="closed-form tables as CSV")
    p_tab.add_argument("--m-list", required=True, help="comma-separated m values")
    p_tab.add_argument("--n-list", required=True, help="comma-separated n values")
    p_tab.set_defaults(func=cmd_tables)

    p_con = sub.add_parser("concentration", help="empirical tail fraction vs the theoretical bound")
    p_con.add_argument("--epsilon", type=float, required=True, help="deviation threshold (> 0)")
    add_common(p_con)
    p_con.set_defaults(func=cmd_concentration)

    p_sam = sub.add_parser("sample", help="dump sampled states or diagnostics as JSONL")
    p_sam.add_argument("--count", type=int, required=True, help="number of draws (>= 0)")
    p_sam.add_argument("--what", choices=["state", "diag", "spectrum"], default="state")
    add_common(p_sam, samples=False)
    p_sam.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not getattr(args, "out", None):
            return args.func(args)
        args.out = _OutFile(args.out)
        try:
            return args.func(args)
        finally:
            args.out.close()
    except (UsageError, RandcohError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
