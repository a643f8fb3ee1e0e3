"""Inputs, set-up, solve and correctness check of the benchmark workloads.

Every workload is a fixed family of eight instances drawn from ``BASE_SEED``.
The ``--seed`` of a run maps each instance through a random *orthogonal*
cone automorphism (a permutation of orthant coordinates, a rotation of each
second-order vector part, ``X -> U X U^T`` on each PSD block).  Such a map
fixes the identity and commutes with the spectral calculus, and the trackers
commute with it (acceptance criterion 8), so every seed solves the same path
in other coordinates: the step counts do not depend on the seed while the
numbers the program reads do.  Drawing fresh instances per seed instead
changes the work of a pass by about a third (sdp_cold at seeds 0..5 took
2338 to 4498 Newton steps), which would swamp every bound the benchmark sets.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from geoipm import jordan, solver, subspace
from geoipm.harness import generate_random_sdp, load_problem, save_problem
from geoipm.harness.experiments import trial_seed
from geoipm.jordan import ConeDescriptor, Orthant, Psd, SecondOrder
from geoipm.subspace import ConicProblem, OperatorForm

# pinned fig3 seed; the instance family every --seed rotates
BASE_SEED = 0
INSTANCES = 8
# CLI defaults of ``geoipm solve``
MU0 = 1.0
MU_F = MU0 / 1024.0
SHORT_BETA = 0.5
SHORT_EPS = 1e-4
# a solve passes only if its extracted pair meets this relative residual
RESIDUAL_TOL = 1e-8
# set-up is repeated (at least SETUP_REPEATS times and SETUP_MIN_S seconds)
# and its median reported, so that work moved into it shows
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 50

SDP_SIDE = 20
SDP_DIM_L = 10
MIXED_CONE = ConeDescriptor((Orthant(24),) + (SecondOrder(6),) * 6 + (Psd(6),) * 3)
MIXED_COLUMNS = 30
MIXED_ROWS = 4

# Solve-time percentile reported as ``solve_s_tail``.  The loop solves a
# fixed set of eight instances in whole passes, so the times fall into one
# cluster per instance.  The percentile is fixed, not derived from the
# sample count, and sits inside a cluster (the seventh of eight instances
# for sdp_short, the fifth for the others), so it does not jump when a
# faster program fits more passes into the run.  It keeps at least ten
# samples beyond it from 10 passes on for sdp_short and from 4 for the
# others; a 20 s run on a 2-core box gives about 20 and 3 to 5 passes.
TAIL_PERCENTILE = {"sdp_short": 80.0, "sdp_cold": 60.0, "mixed_op": 60.0}


def sdp_instance(t: int) -> ConicProblem:
    """fig3 instance ``t`` at the pinned seed: psd(20), dim L = 10, basis form."""
    return generate_random_sdp(SDP_SIDE, SDP_DIM_L, trial_seed(BASE_SEED, SDP_SIDE, t))


def mixed_instance(t: int) -> ConicProblem:
    """Strictly feasible operator-form instance on orthant(24) + 6 soc(6) + 3 psd(6).

    ``x0, s0 = exp(Gaussian)``, ``c = s0 + A y0``, ``g = B y0`` and
    ``b = A* x0 + B^T z0``, so ``(x0, s0)`` is an interior feasible pair.
    """
    cone = MIXED_CONE
    rng = np.random.default_rng([BASE_SEED, 123, t])
    x0 = jordan.exp(jordan.element(cone, rng.standard_normal(cone.dim)))
    s0 = jordan.exp(jordan.element(cone, rng.standard_normal(cone.dim)))
    cols = tuple(jordan.element(cone, rng.standard_normal(cone.dim)) for _ in range(MIXED_COLUMNS))
    B = rng.standard_normal((MIXED_ROWS, MIXED_COLUMNS))
    y0 = rng.standard_normal(MIXED_COLUMNS)
    z0 = rng.standard_normal(MIXED_ROWS)
    ay0 = np.sum([y * a.coords for y, a in zip(y0, cols)], axis=0)
    c = s0 + jordan.element(cone, ay0)
    b = np.array([jordan.inner(a, x0) for a in cols]) + B.T @ z0
    return ConicProblem(cone, OperatorForm(columns=cols, B=B, b=b, c=c, g=B @ y0))


@dataclass(frozen=True)
class Workload:
    name: str
    algo: str  # "short" or "long"
    make: Callable[[int], ConicProblem]  # instance t of the pinned family
    oracle_start: bool  # center at MU0 in set-up (else start at the identity)


WORKLOADS = {
    "sdp_short": Workload("sdp_short", "short", sdp_instance, oracle_start=True),
    "sdp_cold": Workload("sdp_cold", "long", sdp_instance, oracle_start=False),
    "mixed_op": Workload("mixed_op", "long", mixed_instance, oracle_start=False),
}


@dataclass(eq=False)
class Instance:
    index: int
    problem: ConicProblem
    w0: jordan.AlgebraElement
    fingerprint: str


@dataclass
class SetupTiming:
    start: float  # perf_counter at the start and the end of the set-up
    end: float
    generate_s: float
    load_s: float


def _rotate(problem: ConicProblem, seed: int, t: int) -> ConicProblem:
    rng = np.random.default_rng([int(seed), t])
    T = jordan.random_automorphism(problem.cone, rng, orthogonal=True)
    return subspace.transform_problem(problem, T)


def setup_once(wl: Workload, seed: int, count: int, workdir: Path, clock):
    """Generate, write, load and prepare the start points of ``count`` instances.

    The speed kernel may run between two start points (``oracle_center``
    makes the sdp_short set-up last seconds); its runs are taken out of the
    set-up time by ``SpeedClock.net``.
    """
    tic = time.perf_counter()
    problems = [_rotate(wl.make(t), seed, t) for t in range(count)]
    t_gen = time.perf_counter()
    loaded = []
    for t, problem in enumerate(problems):
        path = workdir / f"{wl.name}-{t}.json"
        save_problem(problem, path)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()[:16]
        loaded.append((load_problem(path), digest))
    t_load = time.perf_counter()
    instances = []
    for t, (problem, digest) in enumerate(loaded):
        if wl.oracle_start:
            w0 = solver.oracle_center(problem, MU0)
        else:
            w0 = jordan.identity(problem.cone)
        instances.append(Instance(t, problem, w0, digest))
        clock.tick()
    toc = time.perf_counter()
    return instances, SetupTiming(tic, toc, t_gen - tic, t_load - t_gen)


def params_for(wl: Workload, problem: ConicProblem):
    if wl.algo == "short":
        return solver.shortstep_params(SHORT_BETA, SHORT_EPS, problem.cone.rank)
    return solver.LongStepParams()


@dataclass
class SolveResult:
    instance: int
    start: float  # perf_counter around the timed solve
    end: float
    steps: int = 0
    outer: int = 0
    hub_inf: int = 0
    error: str | None = None


def solve(wl: Workload, inst: Instance, params):
    """One solve: the tracker from the workload's start, then feasible_point."""
    if wl.algo == "short":
        state, trace = solver.shortstep(inst.problem, inst.w0, MU0, MU_F, params)
    else:
        state, trace = solver.longstep(inst.problem, inst.w0, MU0, MU_F, params)
    pair = subspace.feasible_point(inst.problem, state.w, state.mu)
    return state, trace, pair


def check(wl: Workload, inst: Instance, params, state, trace, pair) -> str | None:
    """Why the solve's output is wrong, or None when every check holds."""
    problem = inst.problem
    if trace.status != solver.CONVERGED:
        return f"status {trace.status}"
    if not state.mu <= MU_F:
        return f"stopped at mu={state.mu!r} above mu_f={MU_F!r}"
    h_ub = subspace.newton_direction(problem, state.w, state.mu).h_ub
    if not h_ub <= params.eps:
        return f"h_ub={h_ub!r} above eps={params.eps!r} at the returned (w, mu)"
    if pair is None:
        return "no feasible pair (||d||_inf > 1)"
    x, s = pair
    if not (jordan.is_interior(x) and jordan.is_interior(s)):
        return "extracted pair is not interior"
    rp, rd = subspace.affine_residuals(problem, x, s)
    rel_p = rp / max(1.0, jordan.norm2(x))
    rel_d = rd / max(1.0, jordan.norm2(s))
    if not max(rel_p, rel_d) <= RESIDUAL_TOL:
        return f"relative affine residuals {rel_p:.3e} / {rel_d:.3e} above {RESIDUAL_TOL:g}"
    if wl.algo == "short":
        expected = params.m * params.outer_iterations(MU0, MU_F)
        if trace.newton_steps != expected:
            return f"{trace.newton_steps} Newton steps, expected m * outer = {expected}"
    return None


def solve_and_check(wl: Workload, inst: Instance, params, tracer=None) -> SolveResult:
    """Timed solve followed by the untimed check; failures are recorded, not raised.

    With a tracer, spans are recorded for the solve only, not for the check.
    """
    if tracer is not None:
        tracer.begin_solve()
    tic = time.perf_counter()
    try:
        state, trace, pair = solve(wl, inst, params)
    except Exception as exc:  # noqa: BLE001 - any error is a failed solve
        return SolveResult(inst.index, tic, time.perf_counter(),
                           error=f"{type(exc).__name__}: {exc}")
    finally:
        if tracer is not None:
            tracer.end_solve()
    result = SolveResult(
        inst.index,
        tic,
        time.perf_counter(),
        steps=trace.newton_steps,
        outer=len(trace.snapshots),
        hub_inf=sum(1 for rec in trace.records if math.isinf(rec.h_ub)),
    )
    try:
        result.error = check(wl, inst, params, state, trace, pair)
    except Exception as exc:  # noqa: BLE001 - a check that raises fails the solve
        result.error = f"check raised {type(exc).__name__}: {exc}"
    return result


@dataclass
class PassLog:
    """Solve results of the whole passes of one timed phase."""

    results: list = field(default_factory=list)
    passes: int = 0

    @property
    def seconds(self) -> float:
        """Timed wall time."""
        return sum(r.end - r.start for r in self.results)


def run_passes(wl: Workload, instances, seconds: float, clock, tracer=None) -> PassLog:
    """Closed loop: solve every instance in turn, in whole passes, until the
    timed wall time reaches ``seconds`` (at least one pass).  The speed
    kernel runs between solves, never inside the timed part."""
    log = PassLog()
    params = [params_for(wl, inst.problem) for inst in instances]
    clock.tick(force=True)
    while log.passes == 0 or log.seconds < seconds:
        for inst, prm in zip(instances, params):
            log.results.append(solve_and_check(wl, inst, prm, tracer))
            clock.tick()
        log.passes += 1
    clock.tick(force=True)
    return log
