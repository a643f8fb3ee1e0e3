"""Experiment drivers: step-count comparison and centering convergence profiles.

Both drivers emit plain CSV (data only, no plotting) with pinned headers:

* ``fig3_steps.csv``: ``n,algo,trial,steps,errors`` per (instance, algorithm);
* ``fig3_mu_trace.csv``: ``step,mu`` for a representative long-step run;
* ``fig4_center.csv``: ``init_id,iter,delta,h_ub`` per centering iteration.

Aggregation is sorted by (n, algo, trial), so output is deterministic
under the seed.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .. import geometry, jordan, solver
from ..errors import GeoipmError, ProblemFormatError
from .generate import generate_random_sdp
from .io import require_int, require_real, write_csv

__all__ = ["ExperimentConfig", "run_experiment_fig3", "run_experiment_fig4", "trial_seed"]

FIG3_STEPS_HEADER = "n,algo,trial,steps,errors"
FIG3_MU_HEADER = "step,mu"
FIG4_HEADER = "init_id,iter,delta,h_ub"


# the float fields of ExperimentConfig besides the tuple fig4_deltas
_REAL_FIELDS = (
    "mu_ratio", "mu0", "short_beta", "short_eps", "long_beta", "long_alpha", "long_eps", "gamma", "fig4_eps",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """Knobs for the experiment drivers (defaults match the reported study).

    ``mu0`` defaults to 1 and the centering runs both start and measure at
    it; fig4's initial points sit at the exact distances ``fig4_deltas``
    from the centered point (geodesic perturbations preserve length).
    """

    seed: int = 0
    n_values: tuple = (10, 20, 30)
    trials: int = 20
    dim_l: int = 10
    mu_ratio: float = 1024.0
    mu0: float = 1.0
    short_beta: float = 0.5
    short_eps: float = 1e-4
    long_beta: float = 100.0
    long_alpha: float = 10.0
    long_eps: float = 1e-4
    gamma: float = 0.5
    fig4_n: int = 10
    fig4_deltas: tuple = (0.5, 2.0, 5.0, 8.0)
    fig4_eps: float = 1e-10

    def __post_init__(self):
        for name in ("seed", "trials", "dim_l", "fig4_n"):
            require_int(getattr(self, name), name)
        object.__setattr__(self, "n_values", tuple(require_int(v, "n_values") for v in self.n_values))
        for name in _REAL_FIELDS:
            object.__setattr__(self, name, require_real(getattr(self, name), name))
        object.__setattr__(self, "fig4_deltas", tuple(require_real(v, "fig4_deltas") for v in self.fig4_deltas))
        if self.trials < 1 or self.dim_l < 1 or not self.n_values:
            raise ProblemFormatError("experiment config needs positive counts")
        if self.mu_ratio <= 1.0 or self.mu0 <= 0.0:
            raise ProblemFormatError("need mu_ratio > 1 and mu0 > 0")
        # ParameterError on a bad short-step (beta, eps); neither check depends on the rank
        solver.shortstep_params(self.short_beta, self.short_eps, 1)
        self.long_params()  # ParameterError on a bad (beta, alpha, eps, gamma)

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

    def long_params(self) -> solver.LongStepParams:
        return solver.LongStepParams(
            beta=self.long_beta, alpha=self.long_alpha, eps=self.long_eps, gamma=self.gamma
        )


def trial_seed(seed: int, n: int, trial: int) -> int:
    """Stable 64-bit per-trial seed derived from (seed, n, trial)."""
    ss = np.random.SeedSequence((int(seed), int(n), int(trial)))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


def _fig3_trial(config: ExperimentConfig, n: int, trial: int):
    """One instance: oracle-center at mu0, run both algorithms down mu_ratio."""
    tseed = trial_seed(config.seed, n, trial)
    mu_f = config.mu0 / config.mu_ratio
    out = []
    trace_rows = None
    try:
        problem = generate_random_sdp(n, config.dim_l, tseed)
        w0 = solver.oracle_center(problem, config.mu0)
        params = solver.shortstep_params(config.short_beta, config.short_eps, n)
        _, strace = solver.shortstep(problem, w0, config.mu0, mu_f, params)
        out.append((n, "short", trial, strace.newton_steps, ""))
        _, ltrace = solver.longstep(problem, w0, config.mu0, mu_f, config.long_params())
        out.append((n, "long", trial, ltrace.newton_steps, ""))
        trace_rows = _mu_trace_rows(ltrace, config.mu0)
    except GeoipmError as exc:
        out.append((n, "failed", trial, "", str(exc).replace(",", ";")))
    return out, trace_rows


def _mu_trace_rows(trace: solver.SolverTrace, mu0: float):
    rows = [(0, float(mu0))]
    last = float(mu0)
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

    rows = []
    for key in sorted(results):
        rows.extend(results[key][0])
    rows.sort(key=lambda r: (r[0], r[1], r[2]))
    write_csv(outdir / "fig3_steps.csv", FIG3_STEPS_HEADER, rows)

    representative = (max(config.n_values), 0)
    trace_rows = results.get(representative, (None, None))[1]
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
    w_hat = solver.oracle_center(problem, config.mu0)
    rng = np.random.default_rng([int(config.seed), 13])
    rows = []
    for init_id, delta in enumerate(config.fig4_deltas):
        v = jordan.element(problem.cone, rng.standard_normal(problem.cone.dim))
        v = v / jordan.norm2(v)
        w0 = geometry.geodesic_point(geometry.ray(w_hat, v), float(delta))

        def observe(step, w, nd, _rows=rows, _id=init_id):
            _rows.append((_id, step, geometry.geodesic_distance(w, w_hat), nd.h_ub))

        solver.center(problem, w0, config.mu0, config.fig4_eps,
                      gamma=config.gamma, observer=observe)
    path = outdir / "fig4_center.csv"
    write_csv(path, FIG4_HEADER, rows)
    return path
