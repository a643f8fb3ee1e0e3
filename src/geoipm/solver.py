"""Path-tracking algorithms driven by geodesic Newton updates.

Three entry points:

* ``shortstep`` conservatively tracks the central path: each outer
  iteration divides mu by a fixed factor k and re-centers with m full
  Newton steps; (k, m) come from ``shortstep_params``.
* ``center`` is a globally convergent recentering loop at fixed mu using
  damped steps t = gamma * t_max.
* ``longstep`` alternates recentering with aggressive mu decreases chosen
  so the computable divergence bound stays below beta.

All algorithms store a single interior variable w; the primal-dual pair is
implicitly (sqrt(mu) w, sqrt(mu) w^{-1}).  Convergence is always reported
through the computable bound h_ub, never the (unknown) true divergence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

from . import geometry, jordan, subspace
from .errors import IterationLimitError, OracleFailureError, ParameterError
from .jordan import AlgebraElement
from .subspace import ConicProblem

__all__ = [
    "CONVERGED",
    "ITERATION_CAP",
    "NUMERICAL_FAILURE",
    "ShortStepParams",
    "LongStepParams",
    "IterateState",
    "StepRecord",
    "OuterSnapshot",
    "SolverTrace",
    "shortstep_params",
    "shortstep",
    "center",
    "longstep",
    "oracle_center",
]

CONVERGED = "converged"
ITERATION_CAP = "iteration-cap"
NUMERICAL_FAILURE = "numerical-failure"

# configurable safety caps (see also LongStepParams)
DEFAULT_CENTER_CAP = 10_000
DEFAULT_OUTER_CAP = 1_000

# tolerance on h_ub and step fraction of the centering oracle
ORACLE_EPS = 1e-12
ORACLE_GAMMA = 0.5


@dataclass(frozen=True)
class ShortStepParams:
    """Derived short-step parameters: mu divisor k and inner step count m."""

    beta: float
    eps: float
    n: int
    m: int
    k: float
    zeta: float
    c: float

    def newton_step_budget(self, mu0: float, mu_f: float) -> int:
        """Worst-case Newton steps m * ceil(c^{-1} sqrt(n) log(mu0/mu_f))."""
        return self.m * math.ceil(math.sqrt(self.n) * math.log(mu0 / mu_f) / self.c)

    def outer_iterations(self, mu0: float, mu_f: float) -> int:
        """Exact outer-loop count ceil(log(mu0/mu_f) / log k)."""
        if mu0 <= mu_f:
            return 0
        return math.ceil(math.log(mu0 / mu_f) / math.log(self.k))


def shortstep_params(beta: float, eps: float, n: int) -> ShortStepParams:
    """Select (k, m) for rank n from a contraction target beta and tolerance eps.

    Requires 0 < beta <= 1/2 and 0 < eps < q_inv(beta).  m is the smallest
    integer with beta^(2^m) <= eps^2; k solves
    (1/2) log k = q_inv(zeta^2 / n) with zeta = q_inv(beta) - eps.
    """
    if not 0.0 < beta <= 0.5:
        raise ParameterError("beta must lie in (0, 1/2]")
    qb = geometry.q_inv(beta)
    if not 0.0 < eps < qb:
        raise ParameterError("eps must lie in (0, q_inv(beta))")
    if n < 1:
        raise ParameterError("rank must be positive")
    m = 1
    while beta ** (2 ** m) > eps * eps:
        m += 1
        if m > 64:  # pragma: no cover - unreachable for admissible inputs
            raise ParameterError("no admissible inner step count")
    zeta = qb - eps
    k = math.exp(2.0 * geometry.q_inv(zeta * zeta / n))
    c = 2.0 * geometry.q_inv(zeta * zeta)
    return ShortStepParams(beta=beta, eps=eps, n=n, m=m, k=k, zeta=zeta, c=c)


@dataclass(frozen=True)
class LongStepParams:
    """Long-step configuration (defaults follow the computational study)."""

    beta: float = 100.0  # divergence bound for mu-selection
    alpha: float = 10.0  # recentering tolerance
    eps: float = 1e-4  # final tolerance on h_ub
    gamma: float = 0.5  # step fraction of t_max
    max_newton: int = DEFAULT_CENTER_CAP  # per centering call
    max_outer: int = DEFAULT_OUTER_CAP
    clamp_mu_f: bool = False  # clamp mu-updates at mu_f instead of overshooting

    def __post_init__(self):
        if not self.beta > self.alpha > self.eps > 0.0:
            raise ParameterError("need beta > alpha > eps > 0")
        if not 0.0 < self.gamma < 1.0:
            raise ParameterError("gamma must lie in (0, 1)")


@dataclass(frozen=True, eq=False)
class IterateState:
    """Current interior scaling point and centering parameter."""

    w: AlgebraElement
    mu: float


@dataclass(frozen=True)
class StepRecord:
    """One executed Newton step."""

    outer: int
    mu: float
    h_ub: float
    h_lb: float
    norm_d: float
    norm_d_inf: float
    step: float
    elapsed: float


@dataclass(frozen=True, eq=False)
class OuterSnapshot:
    """Iterate after a recentering pass (used for feasible-point extraction)."""

    outer: int
    mu: float
    w: AlgebraElement


@dataclass(eq=False)
class SolverTrace:
    """Per-Newton-step log plus recentering snapshots and a final status."""

    records: list = field(default_factory=list)
    snapshots: list = field(default_factory=list)
    status: str = CONVERGED

    @property
    def newton_steps(self) -> int:
        return len(self.records)

    def mu_values(self) -> list:
        return [rec.mu for rec in self.records]


def shortstep(
    problem: ConicProblem,
    w0: AlgebraElement,
    mu0: float,
    mu_f: float,
    params: ShortStepParams,
) -> tuple:
    """Short-step tracker: divide mu by k, then take m full Newton steps.

    The step-count guarantee assumes w0 is (near) the centered point at
    mu0, e.g. the ``oracle_center`` of mu0.
    """
    if mu0 <= 0.0 or mu_f <= 0.0:
        raise ParameterError("mu values must be positive")
    w = w0
    trace = SolverTrace()
    mu = float(mu0)
    outer = 0
    while mu > mu_f:
        mu /= params.k
        outer += 1
        for _ in range(params.m):
            tic = time.perf_counter()
            nd = subspace.ScaledFrame(problem, w).newton(mu)
            w = _geodesic_step(nd, 1.0)
            trace.records.append(_step_record(outer, mu, nd, 1.0, tic))
        trace.snapshots.append(OuterSnapshot(outer=outer, mu=mu, w=w))
    trace.status = CONVERGED
    return IterateState(w=w, mu=mu), trace


def _step_record(outer: int, mu: float, nd: subspace.NewtonData, step: float, tic: float) -> StepRecord:
    """The record of a Newton step taken with length ``step``, timed from ``tic``."""
    return StepRecord(
        outer=outer,
        mu=mu,
        h_ub=nd.h_ub,
        h_lb=nd.h_lb,
        norm_d=nd.norm_d,
        norm_d_inf=nd.norm_d_inf,
        step=step,
        elapsed=time.perf_counter() - tic,
    )


def _geodesic_step(nd: subspace.NewtonData, t: float) -> AlgebraElement:
    """Q(w^{1/2}) exp(t d) from the frame of w and the cached spectrum of d."""
    return geometry.geodesic_point(geometry.GeodesicRay(nd.frame.w_half, nd.d_spectrum), t)


def center(
    problem: ConicProblem,
    w0: AlgebraElement,
    mu: float,
    eps: float,
    gamma: float = 0.5,
    cap: int = DEFAULT_CENTER_CAP,
    observer=None,
) -> tuple:
    """Recenter at fixed mu until the divergence bound h_ub drops below eps.

    Steps are t = gamma * t_max with 0 < gamma < 1, which never increases
    the divergence to the centered point; the loop is globally convergent.
    Exceeding ``cap`` raises IterationLimitError carrying the partial trace
    and iterate.
    """
    if eps <= 0.0 or mu <= 0.0:
        raise ParameterError("eps and mu must be positive")
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie in (0, 1)")
    trace = SolverTrace()
    frame = _center(subspace.ScaledFrame(problem, w0), mu, eps, gamma, cap, 0, trace, observer)
    trace.status = CONVERGED
    return frame.w, trace


def _center(
    frame: subspace.ScaledFrame, mu, eps, gamma, cap, outer, trace, observer
) -> subspace.ScaledFrame:
    """The loop of ``center`` on scaled frames; returns the frame of the last iterate."""
    steps = 0
    while True:
        tic = time.perf_counter()
        nd = frame.newton(mu)
        if observer is not None:
            observer(steps, frame.w, nd)
        if nd.h_ub <= eps:
            return frame
        if steps >= cap:
            trace.status = ITERATION_CAP
            raise IterationLimitError(
                f"centering did not reach h_ub <= {eps:g} within {cap} Newton steps",
                trace=trace,
                iterate=IterateState(w=frame.w, mu=mu),
            )
        t = gamma * nd.t_max
        frame = subspace.ScaledFrame(frame.problem, _geodesic_step(nd, t))
        steps += 1
        trace.records.append(_step_record(outer, mu, nd, t, tic))


def longstep(
    problem: ConicProblem,
    w0: AlgebraElement,
    mu0: float,
    mu_f: float,
    params: LongStepParams | None = None,
) -> tuple:
    """Globally convergent long-step tracker.

    Loop: recenter to alpha, then drop mu as far as the closed-form bound
    allows (h_ub <= beta); finish with a centering pass at eps.  mu is
    strictly decreasing across outer iterations.  The frame of each
    re-centred point serves both mu-selection and the next centering pass.
    """
    if params is None:
        params = LongStepParams()
    if mu0 <= 0.0 or mu_f <= 0.0:
        raise ParameterError("mu values must be positive")
    trace = SolverTrace()
    frame = subspace.ScaledFrame(problem, w0)
    mu = float(mu0)
    outer = 0
    while mu > mu_f:
        outer += 1
        if outer > params.max_outer:
            trace.status = ITERATION_CAP
            raise IterationLimitError(
                f"longstep exceeded {params.max_outer} outer iterations",
                trace=trace,
                iterate=IterateState(w=frame.w, mu=mu),
            )
        frame = _center(frame, mu, params.alpha, params.gamma, params.max_newton, outer, trace, None)
        trace.snapshots.append(OuterSnapshot(outer=outer, mu=mu, w=frame.w))
        mu_next = subspace.mu_candidates(frame, mu, params.beta)
        if params.clamp_mu_f:
            mu_next = max(mu_next, mu_f)
        mu = mu_next
    frame = _center(frame, mu, params.eps, params.gamma, params.max_newton, outer + 1, trace, None)
    trace.snapshots.append(OuterSnapshot(outer=outer + 1, mu=mu, w=frame.w))
    trace.status = CONVERGED
    return IterateState(w=frame.w, mu=mu), trace


def oracle_center(
    problem: ConicProblem,
    mu: float,
    warm: AlgebraElement | None = None,
    cap: int = 20_000,
) -> AlgebraElement:
    """High-accuracy centered point (test oracle for the central path).

    Runs ``center`` from the identity (or a warm start) to
    h_ub <= ``ORACLE_EPS``; sqrt(mu) * w and sqrt(mu) * w^{-1} approximate
    the central-path pair at mu.
    """
    start = warm if warm is not None else jordan.identity(problem.cone)
    try:
        w, _ = center(problem, start, mu, ORACLE_EPS, gamma=ORACLE_GAMMA, cap=cap)
    except IterationLimitError as exc:
        raise OracleFailureError(f"centering oracle failed at mu={mu:g}: {exc}") from exc
    return w
