"""Experiment drivers: step-count comparison and centering convergence profiles.

Both drivers emit plain CSV (data only, no plotting) with pinned headers:

* ``fig3_steps.csv``: ``n,algo,trial,steps,errors`` per (instance, algorithm);
* ``fig3_mu_trace.csv``: ``step,mu`` for a representative long-step run;
* ``fig4_center.csv``: ``init_id,iter,delta,h_ub`` per centering iteration.

Both experiments run ``geoipm solve``'s default settings from mu0 = ``MU0``:
fig3 runs ``LongStepParams()`` and ``ShortStepParams(SHORT_BETA,
LongStepParams.eps, n)``, and fig4 runs ``center`` with its default step
fraction.  ``ExperimentConfig`` holds only the experiment's sizes.

Aggregation is sorted by (n, algo, trial), so output is deterministic
under the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .. import geometry, jordan, solver
from ..errors import GeoipmError, ProblemFormatError
from .generate import _size_error, generate_random_sdp
from .io import require_int, require_real, write_csv

__all__ = ["ExperimentConfig", "run_experiment_fig3", "run_experiment_fig4", "trial_seed"]

FIG3_STEPS_HEADER = "n,algo,trial,steps,errors"
FIG3_MU_HEADER = "step,mu"
FIG4_HEADER = "init_id,iter,delta,h_ub"

# fig3 and fig4 start and center at mu0 = 1, as geoipm solve does
MU0 = 1.0


@dataclass(frozen=True)
class ExperimentConfig:
    """Sizes of the experiments (defaults match the reported study).

    fig3 tracks each instance from ``MU0`` down to ``MU0 / mu_ratio``.
    fig4's initial points sit at the exact distances ``fig4_deltas`` from
    the point centered at ``MU0`` (geodesic perturbations preserve
    length), and each centering stops at ``h_ub <= fig4_eps``.  The sizes,
    ``seed >= 0``, ``fig4_eps > 0`` and ``fig4_deltas >= 0`` are checked
    here, before any directory is made or any solve runs.
    """

    seed: int = 0
    n_values: tuple = (10, 20, 30)
    trials: int = 20
    dim_l: int = 10
    mu_ratio: float = 1024.0
    fig4_n: int = 10
    fig4_deltas: tuple = (0.5, 2.0, 5.0, 8.0)
    fig4_eps: float = 1e-10

    def __post_init__(self):
        for name in ("seed", "trials", "dim_l", "fig4_n"):
            require_int(getattr(self, name), name)
        if self.seed < 0:
            raise ProblemFormatError(f"seed must be a non-negative integer, got {self.seed}")
        for name in ("mu_ratio", "fig4_eps"):
            object.__setattr__(self, name, require_real(getattr(self, name), name))
        for name, require in (("n_values", require_int), ("fig4_deltas", require_real)):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise ProblemFormatError(f"{name} must be a list, got {values!r}")
            object.__setattr__(self, name, tuple(require(v, name) for v in values))
        if self.trials < 1 or self.dim_l < 1 or not self.n_values:
            raise ProblemFormatError("experiment config needs positive counts")
        if self.mu_ratio <= 1.0:
            raise ProblemFormatError("need mu_ratio > 1")
        # a distance of 0 starts at the centre itself
        if self.fig4_eps <= 0.0 or min(self.fig4_deltas, default=0.0) < 0.0:
            raise ProblemFormatError("need fig4_eps > 0 and fig4_deltas >= 0")
        # every instance size, before any solve runs
        for n in self.n_values + (self.fig4_n,):
            error = _size_error(n, self.dim_l)
            if error is not None:
                raise ProblemFormatError(f"experiment size n={n}, dim_l={self.dim_l}: {error}")

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        if not isinstance(doc, dict):
            raise ProblemFormatError("experiment config must be a JSON object")
        known = {f.name for f in fields(cls)}
        unknown = set(doc) - known
        if unknown:
            raise ProblemFormatError(f"unknown experiment config keys: {sorted(unknown)}")
        try:
            return cls(**doc)
        except (TypeError, ValueError) as exc:
            raise ProblemFormatError(f"bad experiment config value: {exc}") from exc


def trial_seed(seed: int, n: int, trial: int) -> int:
    """Stable 64-bit per-trial seed derived from (seed, n, trial)."""
    ss = np.random.SeedSequence((int(seed), int(n), int(trial)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _fig3_trial(config: ExperimentConfig, n: int, trial: int):
    """One instance: oracle-center at MU0, run both algorithms down mu_ratio."""
    tseed = trial_seed(config.seed, n, trial)
    mu_f = MU0 / config.mu_ratio
    out = []
    trace_rows = None
    try:
        problem = generate_random_sdp(n, config.dim_l, tseed)
        w0 = solver.oracle_center(problem, MU0)
        params = solver.ShortStepParams(solver.SHORT_BETA, solver.LongStepParams.eps, n)
        _, strace = solver.shortstep(problem, w0, MU0, mu_f, params)
        out.append((n, "short", trial, strace.newton_steps, ""))
        _, ltrace = solver.longstep(problem, w0, MU0, mu_f, solver.LongStepParams())
        out.append((n, "long", trial, ltrace.newton_steps, ""))
        trace_rows = _mu_trace_rows(ltrace)
    except GeoipmError as exc:
        out.append((n, "failed", trial, "", str(exc).replace(",", ";")))
    return out, trace_rows


def _mu_trace_rows(trace: solver.SolverTrace):
    rows = [(0, MU0)]
    last = MU0
    for i, rec in enumerate(trace.records):
        if rec.mu != last:
            rows.append((i, rec.mu))
            last = rec.mu
    return rows


def run_experiment_fig3(config: ExperimentConfig, outdir) -> dict:
    """Newton-step totals for both algorithms over random instances.

    Writes ``fig3_steps.csv`` and ``fig3_mu_trace.csv`` (representative
    run: first trial of the largest n) and returns summary statistics
    keyed by (n, algo).
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    results = {(n, t): _fig3_trial(config, n, t) for n in config.n_values for t in range(config.trials)}

    # (n, algo, trial) is unique per row
    rows = sorted((row for out, _ in results.values() for row in out), key=lambda r: r[:3])
    write_csv(outdir / "fig3_steps.csv", FIG3_STEPS_HEADER, rows)

    representative = (max(config.n_values), 0)
    trace_rows = results[representative][1]
    if trace_rows is None:
        for key in sorted(results):
            if results[key][1] is not None:
                trace_rows = results[key][1]
                break
    write_csv(outdir / "fig3_mu_trace.csv", FIG3_MU_HEADER, trace_rows or [])

    summary = {}
    for n in config.n_values:
        for algo in ("short", "long"):
            steps = [r[3] for r in rows if r[0] == n and r[1] == algo and r[3] != ""]
            if steps:
                arr = np.array(steps, dtype=float)
                summary[(n, algo)] = (float(arr.mean()), float(arr.std()))
    for (n, algo), (mean, std) in sorted(summary.items()):
        print(f"fig3: n={n} {algo:5s} steps mean={mean:.2f} std={std:.3f}")
    return summary


def run_experiment_fig4(config: ExperimentConfig, outdir) -> Path:
    """Centering convergence from initial points at increasing distance.

    One fixed instance; per iteration the oracle distance delta and the
    computable bound h_ub are logged for each initial point.
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    tseed = trial_seed(config.seed, config.fig4_n, 0)
    problem = generate_random_sdp(config.fig4_n, config.dim_l, tseed)
    w_hat = solver.oracle_center(problem, MU0)
    rng = np.random.default_rng([int(config.seed), 13])
    rows = []
    for init_id, delta in enumerate(config.fig4_deltas):
        v = jordan.element(problem.cone, rng.standard_normal(problem.cone.dim))
        v = v / jordan.norm2(v)
        w0 = geometry.geodesic_point(geometry.ray(w_hat, v), float(delta))

        def observe(step, w, nd, _rows=rows, _id=init_id):
            _rows.append((_id, step, geometry.geodesic_distance(w, w_hat), nd.h_ub))

        solver.center(problem, w0, MU0, config.fig4_eps, observer=observe)
    path = outdir / "fig4_center.csv"
    write_csv(path, FIG4_HEADER, rows)
    return path
