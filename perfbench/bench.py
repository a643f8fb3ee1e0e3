"""One benchmark run: set-up, timed closed loop, checks and metrics.

``run(...)`` returns the result document; ``run.py`` prints it.  With
``trace=False`` the metrics are the end-to-end ones.  With ``trace=True`` a
short untraced phase is followed by a traced phase, and the metrics are the
per-layer ones plus ``trace.overhead`` (traced over untraced time per pass).
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import tempfile
from pathlib import Path

import numpy as np
import scipy

import geoipm
import tracing
import workloads as W
from calibrate import SpeedClock

# share of the run the trace run spends untraced, to measure the overhead
UNTRACED_SHARE = 0.25
# error texts kept in the result file
MAX_FAILURES_KEPT = 20

UNITS = {
    "solve_s_p50": "s",
    "solve_s_tail": "s",
    "solves_per_s": "1/s",
    "ms_per_step": "ms",
    "newton_steps": "count",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jordan.eigh_per_step": "count/step",
    "jordan.eigvalsh_per_step": "count/step",
    "jordan.quad_rep_per_step": "count/step",
    "jordan.quad_rep_self_ms": "ms/step",
    "jordan.spectral_self_ms": "ms/step",
    "subspace.newton_direction_ms": "ms/call",
    "subspace.newton_direction_per_step": "count/step",
    "subspace.mu_candidates_ms": "ms/call",
    "subspace.feasible_point_ms": "ms/call",
    "geometry.step_ms": "ms/step",
    "solver.outer_iters": "count",
    "solver.hub_inf_frac": "ratio",
    "harness.generate_ms": "ms/instance",
    "harness.load_ms": "ms/instance",
    "trace.overhead": "ratio",
}
# counts that must repeat exactly from pass to pass and from run to run
EXACT = ("newton_steps", "jordan.eigh_per_step", "jordan.eigvalsh_per_step",
         "jordan.quad_rep_per_step", "subspace.newton_direction_per_step", "solver.outer_iters")


def _blas_threads() -> int | None:
    """Thread count the loaded OpenBLAS reports, or None if it cannot be asked."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return None
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def _commit(root: Path) -> str:
    """HEAD of the checkout when it is a git work tree, else 'unknown'."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def header(root: Path, workload: str, seed: int, trace: bool) -> dict:
    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": workload,
        "seed": seed,
        "trace": int(trace),
        "commit": _commit(root),
        "geoipm": geoipm.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": _blas_threads(),
        "blas_threads_env": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def _setup(wl, seed: int, count: int, workdir: Path, clock: SpeedClock):
    """Repeat the set-up (its median is reported); check it is deterministic."""
    timings = []
    fingerprints = None
    clock.tick(force=True)
    while len(timings) < W.SETUP_REPEATS or (
            sum(t.end - t.start for t in timings) < W.SETUP_MIN_S
            and len(timings) < W.SETUP_MAX_REPEATS):
        with tempfile.TemporaryDirectory(prefix="setup-", dir=workdir) as tmp:
            instances, timing = W.setup_once(wl, seed, count, Path(tmp), clock)
        clock.tick(force=True)
        prints = [inst.fingerprint for inst in instances]
        if fingerprints is not None and prints != fingerprints:
            raise RuntimeError("set-up is not deterministic: input fingerprints differ")
        fingerprints = prints
        timings.append(timing)
    return instances, timings


def _count_errors(log: W.PassLog, count: int) -> list:
    """Errors of the solves plus any count that differs from the first pass."""
    errors = [(r.instance, r.error) for r in log.results if r.error is not None]
    first = log.results[:count]
    for k, r in enumerate(log.results[count:]):
        ref = first[k % count]
        if ref.error is None and r.error is None and \
                (r.steps, r.outer, r.hub_inf) != (ref.steps, ref.outer, ref.hub_inf):
            errors.append((r.instance, "Newton-step or outer-iteration count differs "
                                       "from the first pass"))
    return errors


def _timing_metrics(wl, log: W.PassLog, setup, duration) -> dict:
    """Solve and set-up timings, from ``duration(start, end)`` of each interval.

    The solver is deterministic, so repeats of one instance differ only by
    machine noise: the percentiles count each solve with its instance's
    mean time over the passes (a failed solve counts as infinitely slow).
    """
    spans = np.array([duration(r.start, r.end) for r in log.results])
    times = np.where([r.error is None for r in log.results], spans, math.inf)
    ok = int(np.isfinite(times).sum())
    steps = sum(r.steps for r in log.results)
    per_instance = {}
    for r, t in zip(log.results, times):
        per_instance.setdefault(r.instance, []).append(t)
    times = np.array([np.mean(per_instance[r.instance]) for r in log.results])
    tail = float(np.percentile(times, W.TAIL_PERCENTILE[wl.name], method="lower"))
    return {
        "solve_s_p50": float(np.median(times)),
        "solve_s_tail": tail,
        "solves_per_s": ok / float(spans.sum()),
        "ms_per_step": 1000.0 * float(spans.sum()) / max(steps, 1),
        "setup_s": statistics.median(duration(t.start, t.end) for t in setup),
        "tail_samples_beyond": int((times > tail).sum()),
    }


def _end_to_end(wl, log: W.PassLog, setup, count: int, clock: SpeedClock) -> dict:
    scaled = _timing_metrics(wl, log, setup, clock.scaled)
    raw = _timing_metrics(wl, log, setup, clock.net)
    metrics = {k: scaled[k] for k in ("solve_s_p50", "solve_s_tail", "solves_per_s",
                                      "ms_per_step")}
    metrics["newton_steps"] = sum(r.steps for r in log.results[:count])
    metrics["setup_s"] = scaled["setup_s"]
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "metrics": metrics,
        "raw_wall": raw,
        "tail": {"percentile": W.TAIL_PERCENTILE[wl.name], "samples": len(log.results),
                 "samples_beyond": scaled["tail_samples_beyond"]},
    }


def _per_layer(untraced: W.PassLog, traced: W.PassLog, tracer, setup_timings, count: int,
               clock: SpeedClock) -> dict:
    prof = tracing.Profile(tracer)
    steps = sum(r.steps for r in traced.results)
    per_step = 1.0 / max(steps, 1)
    ms_step = 1000.0 * per_step

    def mean_ms(name: str, track: bool = True) -> float:
        calls = prof.calls(name, track=track)
        return 1000.0 * prof.total_s(name, track=track) / calls if calls else 0.0

    # per-pass counts must repeat exactly (solve ids number the traced solves)
    pass_counts = []
    for p in range(traced.passes):
        solves = list(range(p * count, (p + 1) * count))
        pass_counts.append((
            prof.lapack_calls("numpy.linalg.eigh", solves),
            prof.lapack_calls("numpy.linalg.eigvalsh", solves),
            prof.calls("jordan.quad_rep", solves=solves),
            prof.calls("subspace.newton_direction", solves=solves),
        ))
    generate = statistics.median(t.generate_s for t in setup_timings)
    load = statistics.median(t.load_s for t in setup_timings)
    metrics = {
        "jordan.eigh_per_step": prof.lapack_calls("numpy.linalg.eigh") * per_step,
        "jordan.eigvalsh_per_step": prof.lapack_calls("numpy.linalg.eigvalsh") * per_step,
        "jordan.quad_rep_per_step": prof.calls("jordan.quad_rep") * per_step,
        "jordan.quad_rep_self_ms": prof.self_s("jordan.quad_rep") * ms_step,
        "jordan.spectral_self_ms": prof.self_s(*tracing.SPECTRAL) * ms_step,
        "subspace.newton_direction_ms": mean_ms("subspace.newton_direction"),
        "subspace.newton_direction_per_step": prof.calls("subspace.newton_direction") * per_step,
        "subspace.mu_candidates_ms": mean_ms("subspace.mu_candidates"),
        "subspace.feasible_point_ms": mean_ms("subspace.feasible_point", track=False),
        "geometry.step_ms": prof.total_s("geometry.ray", "geometry.geodesic_point") * ms_step,
        "solver.outer_iters": sum(r.outer for r in traced.results[:count]),
        "solver.hub_inf_frac": sum(r.hub_inf for r in traced.results) * per_step,
        "harness.generate_ms": 1000.0 * generate / count,
        "harness.load_ms": 1000.0 * load / count,
        "trace.overhead": (_scaled_s(traced, clock) / traced.passes)
                          / (_scaled_s(untraced, clock) / untraced.passes),
    }
    errors = []
    if len(set(pass_counts)) > 1:
        errors.append((-1, f"per-pass call counts differ between traced passes: {pass_counts}"))
    return {"metrics": metrics, "pass_counts": pass_counts, "errors": errors}


def _scaled_s(log: W.PassLog, clock: SpeedClock) -> float:
    return sum(clock.scaled(r.start, r.end) for r in log.results)


def _finite(x):
    return x if not isinstance(x, float) or math.isfinite(x) else None


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        count: int = W.INSTANCES, outdir: Path | None = None) -> dict:
    """Set up, run the closed loop, check every solve; return the result document.

    The result, spans and set-up files go to ``outdir`` (default
    ``<root>/.perfbench_out``).
    """
    wl = W.WORKLOADS[workload]
    outdir = root / ".perfbench_out" if outdir is None else Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    head = header(root, workload, seed, trace)
    clock = SpeedClock()
    instances, setup_timings = _setup(wl, seed, count, outdir, clock)

    if not trace:
        log = W.run_passes(wl, instances, seconds, clock)
        errors = _count_errors(log, count)
        e2e = _end_to_end(wl, log, setup_timings, count, clock)
        metrics, logs = e2e["metrics"], [log]
        extra = {"tail": e2e["tail"], "raw_wall": e2e["raw_wall"]}
    else:
        untraced = W.run_passes(wl, instances, UNTRACED_SHARE * seconds, clock)
        tracer = tracing.Tracer()
        with tracing.traced(tracer):
            traced = W.run_passes(wl, instances, seconds - untraced.seconds, clock, tracer)
        tracer.save(outdir / f"{workload}-seed{seed}-spans.npz")
        layer = _per_layer(untraced, traced, tracer, setup_timings, count, clock)
        errors = _count_errors(untraced, count) + _count_errors(traced, count) + layer["errors"]
        # the traced passes must repeat the untraced counts
        if [(r.steps, r.outer) for r in traced.results[:count]] != \
                [(r.steps, r.outer) for r in untraced.results[:count]]:
            errors.append((-1, "traced and untraced passes took different step counts"))
        metrics, logs = layer["metrics"], [untraced, traced]
        extra = {"pass_counts": layer["pass_counts"]}

    results = [r for log in logs for r in log.results]
    attempted = len(results)
    failed = sum(1 for r in results if r.error is not None)
    first = logs[0].results[:count]
    doc = {
        "header": head,
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "failed_frac": failed / attempted,
        "metrics": {k: {"value": _finite(v), "unit": UNITS[k]} for k, v in metrics.items()},
        "exact": [k for k in EXACT if k in metrics],
        "passes": [log.passes for log in logs],
        "timed_s": [log.seconds for log in logs],
        "solve_s": [[r.end - r.start for r in log.results] for log in logs],
        "setup_s": [clock.net(t.start, t.end) for t in setup_timings],
        "solve_start": [[r.start for r in log.results] for log in logs],
        "speed_marks": list(clock.marks),
        "speed_chunks_s": list(clock.chunks),
        "counts": {
            "steps": [r.steps for r in first],
            "outer": [r.outer for r in first],
            "hub_inf": [r.hub_inf for r in first],
        },
        "fingerprints": [inst.fingerprint for inst in instances],
        "failures": [f"instance {i}: {e}" for i, e in errors[:MAX_FAILURES_KEPT]],
        **extra,
    }
    path = outdir / f"{workload}-seed{seed}-trace{int(trace)}.json"
    path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    return doc
