"""In-memory span recorder for the traced benchmark run.

A span is one call of a wrapped function: its name, start, end and the
span that was open when it started.  Spans are appended to flat arrays in
memory and written out once, when the run ends.  A span's self time is its
duration minus the durations of its direct children; within one process
children run one after another, so the self times of every span under a
root add up to the root's duration exactly.

Wrappers replace a function at the name its caller looks it up by (a module
attribute or a class attribute), so nothing in the package changes.  They
are installed before a traced cycle and removed after it, so untraced
cycles run the package's own functions.

Process pools: ``randcoh.mc`` starts its pools with the ``fork`` method, so
the children inherit the installed wrappers and a copy of the recorder.  A
child resets its copy when its first task starts and, after every task,
writes its spans and totals to a spool file.  When the pool shuts down the
parent reads the spool back.  The children work in parallel, so their
summed self times can exceed the wall time the parent waited; each child
self time is scaled by (union of the task intervals) / (sum of the task
durations) before it is added to the wall-attributed totals, and the pool
span's own self time is its duration minus that union.  ``busy_s`` keeps
the unscaled sums.
"""

from __future__ import annotations

import functools
import json
import os
import pickle
import time
from array import array
from pathlib import Path

ROOT_SPAN = "bench.cycle"
WORKER_SPAN = "mc.worker"
POOL_SPAN = "mc.pool"

# (module, attribute path, span name).  Several targets may share a name;
# their self times add up under it.
SPAN_TARGETS = [
    ("randcoh.randkit", "RngStream.normals", "randkit.normals"),
    ("randcoh.randkit", "RngStream.gammas", "randkit.gamma"),
    ("randcoh.mc", "sample_mixing_state", "ensembles.state"),
    ("randcoh.mc", "sample_isospectral_diagonal", "ensembles.state"),
    ("randcoh.mc", "sample_diag_dirichlet", "ensembles.state"),
    ("randcoh.mc", "sample_wishart", "ensembles.wishart"),
    ("randcoh.linalg", "gram", "linalg.gram"),
    ("randcoh.linalg", "hermitian_eigenvalues", "linalg.eig"),
    ("randcoh.linalg", "clamp_spectrum", "linalg.clamp"),
    ("randcoh.linalg", "haar_unitary", "linalg.haar"),
    ("randcoh.linalg", "unitary_conjugate_diagonal", "linalg.haar"),
    ("randcoh.functionals", "shannon_entropy", "functionals.entropy"),
    ("randcoh.functionals", "von_neumann_entropy", "functionals.entropy"),
    ("randcoh.functionals", "relative_entropy_of_coherence", "functionals.coherence"),
    ("randcoh.functionals", "subentropy", "functionals.subentropy"),
    ("randcoh.closedforms", "avg_entropy_page", "closedforms"),
    ("randcoh.closedforms", "avg_diag_entropy", "closedforms"),
    ("randcoh.closedforms", "avg_coherence", "closedforms"),
    ("randcoh.closedforms", "avg_subentropy", "closedforms"),
    ("randcoh.closedforms", "isospectral_avg_diag_entropy", "closedforms"),
    ("randcoh.closedforms", "concentration_bound", "closedforms"),
    ("randcoh.closedforms", "eigen_density_m2", "closedforms"),
    ("randcoh.closedforms", "derivative_principle_density_m2", "closedforms"),
    ("randcoh.mc", "RunningStats.update", "mc.accumulate"),
    ("randcoh.mc", "RunningStats.merge", "mc.accumulate"),
    ("randcoh.mc", "gamma_cdf", "mc.gamma_cdf"),
    ("randcoh.mc", "ks_statistic", "mc.ks"),
    ("randcoh.mc", "ks_two_sample", "mc.ks"),
    ("randcoh.mc", "_run_worker", WORKER_SPAN),
    ("randcoh.mc", "_concentration_worker", WORKER_SPAN),
    ("randcoh.cli", "_emit", "cli.emit"),
]

_perf = time.perf_counter


def _union_length(intervals, lo: float, hi: float) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class Recorder:
    """Spans and counters of one process.  Not thread-safe: the package
    traces from one thread per process."""

    def __init__(self, spool_dir: Path):
        self.spool_dir = Path(spool_dir)
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.reset()

    def reset(self, child: bool = False) -> None:
        self.pid = os.getpid()
        self.child = child
        self.name_id = array("i")
        self.parent = array("i")
        self.proc = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[list] = []  # [span index, start, child seconds]
        self.self_s = [0.0] * len(self.names)
        self.busy_s = [0.0] * len(self.names)
        self.calls = [0] * len(self.names)
        self.counters: dict[str, float] = {}
        self.tasks: list[tuple[float, float]] = []

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.self_s.append(0.0)
            self.busy_s.append(0.0)
            self.calls.append(0)
        return nid

    def count(self, name: str, k: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def open(self, nid: int) -> None:
        t = _perf()
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.stack[-1][0] if self.stack else -1)
        self.proc.append(self.pid)
        self.start.append(t)
        self.end.append(t)
        self.stack.append([idx, t, 0.0])

    def close(self, extra_child_s: float = 0.0) -> float:
        t = _perf()
        idx, t0, child = self.stack.pop()
        self.end[idx] = t
        dur = t - t0
        nid = self.name_id[idx]
        own = dur - child - extra_child_s
        self.self_s[nid] += own
        self.busy_s[nid] += own
        self.calls[nid] += 1
        if self.stack:
            self.stack[-1][2] += dur
        return dur

    def span(self, name: str, fn):
        """fn wrapped so that each call records one span called name."""
        nid = self.intern(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()

        return wrapper

    # -- pool children ------------------------------------------------------

    def worker_span(self, fn):
        """Like span(WORKER_SPAN, fn); in a forked child the recorder starts
        afresh on the first task and writes itself to the spool after each."""
        nid = self.intern(WORKER_SPAN)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != self.pid:
                self.reset(child=True)
            self.open(nid)
            idx = len(self.start) - 1
            try:
                return fn(*args, **kwargs)
            finally:
                self.close()
                if self.child:
                    self.tasks.append((self.start[idx], self.end[idx]))
                    self._dump()

        return wrapper

    def _dump(self) -> None:
        self.spool_dir.mkdir(parents=True, exist_ok=True)
        path = self.spool_dir / f"{self.pid}.pkl"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump({
                "names": self.names,
                "name_id": self.name_id, "parent": self.parent, "proc": self.proc,
                "start": self.start, "end": self.end,
                "self_s": self.self_s, "calls": self.calls,
                "counters": self.counters, "tasks": self.tasks,
            }, fh, protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)

    def absorb_spool(self) -> float:
        """Merge the spool files of a finished pool into this recorder and
        return the wall time the children's tasks covered."""
        dumps = []
        for path in sorted(self.spool_dir.glob("*.pkl")):
            with open(path, "rb") as fh:
                dumps.append(pickle.load(fh))
            path.unlink()
        pool_idx, pool_t0 = self.stack[-1][0], self.stack[-1][1]
        now = _perf()
        tasks = [t for d in dumps for t in d["tasks"]]
        covered = _union_length(tasks, pool_t0, now)
        task_total = sum(b - a for a, b in tasks)
        scale = covered / task_total if task_total > 0 else 0.0
        for d in dumps:
            remap = [self.intern(n) for n in d["names"]]
            for j, s in enumerate(d["self_s"]):
                self.self_s[remap[j]] += s * scale
                self.busy_s[remap[j]] += s
                self.calls[remap[j]] += d["calls"][j]
            for k, v in d["counters"].items():
                self.count(k, v)
            offset = len(self.start)
            for i in range(len(d["start"])):
                p = d["parent"][i]
                self.name_id.append(remap[d["name_id"][i]])
                self.parent.append(pool_idx if p < 0 else p + offset)
                self.proc.append(d["proc"][i])
                self.start.append(d["start"][i])
                self.end.append(d["end"][i])
        return covered

    # -- results ------------------------------------------------------------

    def totals(self) -> dict:
        """Per span name: wall-attributed self seconds, busy seconds, calls."""
        return {
            name: {"self_s": self.self_s[i], "busy_s": self.busy_s[i], "calls": self.calls[i]}
            for i, name in enumerate(self.names)
            if self.calls[i]
        }

    def write(self, path: Path) -> None:
        """Write every recorded span to path as JSON."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({
                "names": self.names,
                "fields": ["name_id", "parent", "pid", "start_s", "end_s"],
                "name_id": list(self.name_id),
                "parent": list(self.parent),
                "pid": list(self.proc),
                "start_s": list(self.start),
                "end_s": list(self.end),
            }, fh, separators=(",", ":"))


def _resolve(module_name: str, path: str):
    import importlib

    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


def install(rec: Recorder):
    """Install every wrapper; return a function that removes them again."""
    import numpy as np
    from concurrent.futures import ProcessPoolExecutor

    from randcoh import linalg, mc, randkit

    saved = []

    def patch(owner, attr, new):
        saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    # counted behaviour, wrapped before the spans so that the counting sits
    # inside the span of the function it describes
    stream_cls = randkit.RngStream
    uniforms = stream_cls.uniforms
    normals = stream_cls.normals
    gammas = stream_cls.gammas
    clamp = linalg.clamp_spectrum
    clamp_tol = linalg.EIG_CLAMP

    @functools.wraps(uniforms)
    def counted_uniforms(stream, n):
        rec.count("uniforms", n)
        return uniforms(stream, n)

    @functools.wraps(normals)
    def counted_normals(stream, n):
        spare_before = stream._spare_normal is not None
        u0 = rec.counters.get("uniforms", 0)
        out = normals(stream, n)
        if n > 0:
            # every accepted polar pair yields two normals; the spare cached
            # on the stream is the only normal not handed out in this call
            made = n - spare_before + (stream._spare_normal is not None)
            rec.count("polar_accepted_pairs", made // 2)
            rec.count("polar_attempted_pairs", (rec.counters.get("uniforms", 0) - u0) // 2)
        rec.count("normals", n)
        return out

    @functools.wraps(gammas)
    def counted_gammas(stream, shape, n):
        z0 = rec.counters.get("normals", 0)
        out = gammas(stream, shape, n)
        rec.count("gamma_accepted", n)
        rec.count("gamma_candidates", rec.counters.get("normals", 0) - z0)
        return out

    @functools.wraps(clamp)
    def counted_clamp(values, *args, **kwargs):
        v = np.asarray(values, dtype=np.float64)
        if v.min() < 0.0:
            rec.count("clamped_eigs", int(np.count_nonzero((v < 0.0) & (v >= -clamp_tol))))
        return clamp(values, *args, **kwargs)

    patch(stream_cls, "uniforms", counted_uniforms)
    patch(stream_cls, "normals", counted_normals)
    patch(stream_cls, "gammas", counted_gammas)
    patch(linalg, "clamp_spectrum", counted_clamp)

    for module_name, path, name in SPAN_TARGETS:
        owner, attr = _resolve(module_name, path)
        fn = getattr(owner, attr)
        patch(owner, attr, rec.worker_span(fn) if name == WORKER_SPAN else rec.span(name, fn))

    pool_nid = rec.intern(POOL_SPAN)

    class TracedPool(ProcessPoolExecutor):
        def __enter__(self):
            rec.count("pools_started")
            rec.open(pool_nid)
            return super().__enter__()

        def __exit__(self, *exc):
            try:
                return super().__exit__(*exc)
            finally:
                rec.close(extra_child_s=rec.absorb_spool())

    patch(mc, "ProcessPoolExecutor", TracedPool)

    def restore():
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
        saved.clear()

    return restore


# Per-layer metrics: span names whose wall-attributed self time, in µs per
# Monte Carlo draw, makes up each ``*_us`` metric.  Spans not listed here
# (the benchmark's own cycle and the estimator's worker loop) make up
# ``unattributed_us``.
LAYER_US = {
    "randkit.normals_us": "randkit.normals",
    "randkit.gamma_us": "randkit.gamma",
    "ensembles.state_us": "ensembles.state",
    "ensembles.wishart_us": "ensembles.wishart",
    "linalg.gram_us": "linalg.gram",
    "linalg.eig_us": "linalg.eig",
    "linalg.clamp_us": "linalg.clamp",
    "linalg.haar_us": "linalg.haar",
    "functionals.subentropy_us": "functionals.subentropy",
    "functionals.entropy_us": "functionals.entropy",
    "functionals.coherence_us": "functionals.coherence",
    "mc.accumulate_us": "mc.accumulate",
    "mc.gamma_cdf_us": "mc.gamma_cdf",
    "mc.ks_us": "mc.ks",
    "cli.emit_us": "cli.emit",
}


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(totals: dict, counters: dict, draws: int, calls: int) -> dict:
    """Per-layer metrics of one traced cycle that made `draws` Monte Carlo
    draws in `calls` user-facing calls."""
    def self_s(name):
        return totals.get(name, {}).get("self_s", 0.0)

    def ncalls(name):
        return totals.get(name, {}).get("calls", 0)

    attributed = set(LAYER_US.values()) | {"closedforms", POOL_SPAN}
    out = {metric: self_s(name) / draws * 1e6 for metric, name in LAYER_US.items()}
    out.update({
        "randkit.uniforms_per_sample": _ratio(counters.get("uniforms", 0), draws),
        "randkit.polar_accept_ratio": _ratio(counters.get("polar_accepted_pairs", 0),
                                             counters.get("polar_attempted_pairs", 0)),
        "randkit.gamma_accept_ratio": _ratio(counters.get("gamma_accepted", 0),
                                             counters.get("gamma_candidates", 0)),
        "linalg.eig_calls": ncalls("linalg.eig"),
        "linalg.clamped_eigs": counters.get("clamped_eigs", 0),
        "closedforms.us_per_call": _ratio(self_s("closedforms"), ncalls("closedforms")) * 1e6,
        "mc.pools_started": counters.get("pools_started", 0),
        "mc.pool_s": self_s(POOL_SPAN) / calls,
        "mc.gamma_cdf_calls": ncalls("mc.gamma_cdf"),
        "cli.records": ncalls("cli.emit"),
        "unattributed_us": sum(t["self_s"] for n, t in totals.items() if n not in attributed) / draws * 1e6,
    })
    return out


# the per-layer counts that must repeat exactly between two traced runs
EXACT_COUNTS = ("randkit.uniforms_per_sample", "linalg.eig_calls", "mc.pools_started",
                "mc.gamma_cdf_calls", "cli.records")
