"""Path-tracking algorithms driven by geodesic Newton updates.

Every tracker is one Newton loop under a mu schedule and a step rule:

* ``shortstep`` conservatively tracks the central path: each outer
  iteration divides mu by a fixed factor k and takes m full Newton steps;
  ``ShortStepParams`` derives (k, m) from (beta, eps, n).
* ``center`` is a globally convergent recentering loop at fixed mu using
  damped steps t = gamma * t_max.
* ``longstep`` alternates recentering with aggressive mu decreases chosen
  so the computable divergence bound stays below beta.

All algorithms store a single interior variable w; the primal-dual pair is
implicitly (sqrt(mu) w, sqrt(mu) w^{-1}).  Convergence is always reported
through the computable bound h_ub, never the (unknown) true divergence.

The loop (``_steps``) carries the problem in the ``ScaledFrame`` of the
current iterate, built once from the start, and steps frames
(``ScaledFrame.step``), so no stepped iterate is decomposed; w = T e is
formed only for the observer and where it is read (an ``OuterSnapshot``
keeps its frame's anchor).  It alone builds the step records and
snapshots.  ``shortstep`` and ``longstep`` return the ``NewtonData`` at
the (w, mu) they stop on, whose ``frame`` is the last frame.  The loop
runs with numpy's overflow, invalid and divide-by-zero flags raised, so a
floating-point failure, such as an anchor that overflows, is a
``NumericalFailureError`` that names mu, not a warning.  A
``GeoipmError`` raised while the loop steps, at a cap or by a numerical
failure of the frame, carries the partial trace, whose status is
ITERATION_CAP or NUMERICAL_FAILURE, and the last ``NewtonData`` built as
``iterate``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import geometry, jordan, subspace
from .errors import GeoipmError, IterationLimitError, NumericalFailureError, ParameterError
from .jordan import AlgebraElement
from .subspace import ConicProblem

__all__ = [
    "CONVERGED",
    "ITERATION_CAP",
    "NUMERICAL_FAILURE",
    "ShortStepParams",
    "LongStepParams",
    "StepRecord",
    "OuterSnapshot",
    "SolverTrace",
    "Result",
    "shortstep_params",
    "shortstep",
    "center",
    "longstep",
    "solve",
    "oracle_center",
]

CONVERGED = "converged"
ITERATION_CAP = "iteration-cap"
NUMERICAL_FAILURE = "numerical-failure"

# configurable safety caps (see also LongStepParams)
DEFAULT_CENTER_CAP = 10_000
DEFAULT_OUTER_CAP = 1_000

RESIDUAL_TOL = 1e-8  # the largest relative affine residual of a converged solve's pair

# tolerance on h_ub and step fraction of the centering oracle
ORACLE_EPS = 1e-12
ORACLE_GAMMA = 0.5

# the short-step contraction target that geoipm solve --algo short and fig3 run
SHORT_BETA = 0.5


@dataclass(frozen=True)
class ShortStepParams:
    """Short-step settings for rank n from a contraction target beta and
    tolerance eps, which derive the rest.

    Requires 0 < beta <= 1/2 and 0 < eps < q_inv(beta).  m is the smallest
    integer with beta^(2^m) <= eps^2, at most 11 (beta^(2^11) underflows to
    0); k solves (1/2) log k = q_inv(zeta^2 / n) with zeta = q_inv(beta) - eps;
    c = 2 q_inv(zeta^2).
    """

    beta: float
    eps: float
    n: int
    m: int = field(init=False)
    k: float = field(init=False)
    zeta: float = field(init=False)
    c: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.beta <= 0.5:
            raise ParameterError("beta must lie in (0, 1/2]")
        qb = geometry.q_inv(self.beta)
        if not 0.0 < self.eps < qb:
            raise ParameterError("eps must lie in (0, q_inv(beta))")
        if not jordan._is_integer(self.n) or self.n < 1:
            raise ParameterError(f"rank must be a positive integer, got {self.n!r}")
        m = 1
        while self.beta ** (2 ** m) > self.eps * self.eps:
            m += 1
        zeta = qb - self.eps
        k = math.exp(2.0 * geometry.q_inv(zeta * zeta / self.n))
        if not k > 1.0:
            raise ParameterError(f"rank {self.n} too large: the mu divisor k rounds to 1")
        for name, value in (("m", m), ("k", k), ("zeta", zeta), ("c", 2.0 * geometry.q_inv(zeta * zeta))):
            object.__setattr__(self, name, value)

    def _schedule(self, mu0: float, mu_f: float):
        """The mu of each outer phase: mu0 / k, divided by k again while above
        mu_f.  ParameterError once mu / k rounds back to mu (a subnormal mu
        with k near 1), where the schedule would never reach mu_f."""
        mu = float(mu0)
        while mu > mu_f:
            nxt = mu / self.k
            if not nxt < mu:
                raise ParameterError(f"mu_f={mu_f!r} is out of reach: mu / k rounds to mu={mu!r}")
            mu = nxt
            yield mu

    def newton_step_budget(self, mu0: float, mu_f: float) -> int:
        """Worst-case Newton steps m * ceil(c^{-1} sqrt(n) log(mu0/mu_f)); 0 when mu0 <= mu_f."""
        if mu0 <= mu_f:
            return 0
        return self.m * math.ceil(math.sqrt(self.n) * math.log(mu0 / mu_f) / self.c)

    def outer_iterations(self, mu0: float, mu_f: float) -> int:
        """The outer phases ``shortstep`` takes from mu0 down to mu_f."""
        return sum(1 for _ in self._schedule(mu0, mu_f))


# the older name of the constructor: the benchmark workloads, acceptance
# criteria 5, 6 and 11 and many unit tests call it, so removing it means
# editing the acceptance tests too
shortstep_params = ShortStepParams


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
        if not math.inf > self.beta > self.alpha > self.eps > 0.0:
            raise ParameterError("need finite beta > alpha > eps > 0")
        if not 0.0 < self.gamma < 1.0:
            raise ParameterError("gamma must lie in (0, 1)")
        _require_cap(self.max_newton, "max_newton")
        _require_cap(self.max_outer, "max_outer")


def _require_mu(message: str, *values: float) -> None:
    """ParameterError unless every value is positive and finite (NaN is not)."""
    if not all(0.0 < v < math.inf for v in values):
        raise ParameterError(message)


def _require_cap(cap: int, name: str) -> None:
    if not jordan._is_integer(cap):
        raise ParameterError(f"{name} must be an integer, got {cap!r}")
    if cap < 0:
        raise ParameterError(f"{name} must be non-negative, got {cap}")


@dataclass(frozen=True)
class StepRecord:
    """One executed Newton step.  ``h_ub``/``h_lb`` and ``norm_d_inf`` are
    exact when the step's rule read them (every damped step), else the norm
    bounds of ``NewtonData.record_bounds`` (a full step, which reads none
    and so decomposes neither g_w nor d); ``norm_d_inf`` is then
    ``norm_d``."""

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
    """Iterate after a recentering pass (used for feasible-point extraction),
    held as the anchor T of its frame: ``w = T e`` is formed when first read."""

    outer: int
    mu: float
    anchor: jordan.ConeAutomorphism = field(repr=False)

    @jordan._lazy
    def w(self) -> AlgebraElement:
        return self.anchor.point()


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
    mu0, e.g. the ``oracle_center`` of mu0, and ``params`` derived for the
    cone's rank (ParameterError otherwise).  A mu_f that the mu schedule
    cannot reach raises ParameterError before any step.  Returns the Newton
    data at the last iterate and the final mu, with the trace.
    """
    _require_mu("mu values must be positive and finite", mu0, mu_f)
    if params.n != problem.cone.rank:
        raise ParameterError(f"short-step parameters for rank {params.n} on a cone of rank {problem.cone.rank}")
    schedule = list(params._schedule(mu0, mu_f))  # a mu_f out of reach raises before any step
    trace = SolverTrace()
    nd = _steps(subspace.ScaledFrame(problem, w0), float(mu0), 0, trace, _full(0))  # returned if mu0 <= mu_f
    for outer, mu in enumerate(schedule, 1):
        nd = _steps(nd.frame, mu, outer, trace, _full(params.m))
    return nd, trace


def _steps(frame: subspace.ScaledFrame, mu, outer: int, trace: SolverTrace, rule, observer=None):
    """The Newton loop of every tracker: step ``frame`` at ``mu`` under ``rule``.

    ``rule(nd, steps)`` reads the Newton data at the current frame and gives
    the step length, None to stop on ``nd``, or raises IterationLimitError
    at its cap.  Each step appends its ``StepRecord``; a pass of an outer
    phase (``outer > 0``) ends on an ``OuterSnapshot``.  The loop runs with
    numpy's overflow, invalid and divide-by-zero flags raised, and such a
    floating-point failure becomes a NumericalFailureError naming ``mu``.
    A GeoipmError from the frame or the rule leaves with the trace, its
    status set, and the last Newton data built as ``iterate``.  Returns the
    data stopped on.
    """
    steps, nd = 0, None
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            while True:
                tic = time.perf_counter()
                nd = frame.newton(mu)
                if observer is not None:
                    observer(steps, frame.w, nd)
                t = rule(nd, steps)
                if t is None:
                    break
                frame = frame.step(nd, t)
                steps += 1
                h_ub, h_lb, norm_d_inf = nd.record_bounds()
                trace.records.append(
                    StepRecord(outer, mu, h_ub, h_lb, nd.norm_d, norm_d_inf, t, time.perf_counter() - tic)
                )
    except FloatingPointError as exc:
        trace.status = NUMERICAL_FAILURE
        raise NumericalFailureError(f"{exc} at mu={mu!r}", trace=trace, iterate=nd) from exc
    except GeoipmError as exc:
        trace.status = ITERATION_CAP if isinstance(exc, IterationLimitError) else NUMERICAL_FAILURE
        exc.trace, exc.iterate = trace, nd
        raise
    if outer:
        trace.snapshots.append(OuterSnapshot(outer=outer, mu=mu, anchor=frame.anchor))
    return nd


def _full(m: int):
    """The short-step rule: m full steps (t = 1); ``_full(0)`` takes none."""
    return lambda nd, steps: 1.0 if steps < m else None


def _damped(tol: float, gamma: float, cap: int):
    """The centering rule: t = gamma * t_max until h_ub <= tol, at most ``cap`` steps."""
    def rule(nd, steps):
        if nd.h_ub <= tol:
            return None
        if steps >= cap:
            raise IterationLimitError(f"centering did not reach h_ub <= {tol:g} within {cap} Newton steps")
        return gamma * nd.t_max
    return rule


def _exceeded(message: str):
    """A rule that stops the run at its first Newton data with IterationLimitError."""
    def rule(nd, steps):
        raise IterationLimitError(message)
    return rule


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
    _require_mu("eps and mu must be positive and finite", eps, mu)
    if not 0.0 < gamma < 1.0:
        raise ParameterError("gamma must lie in (0, 1)")
    _require_cap(cap, "cap")
    trace = SolverTrace()
    nd = _steps(subspace.ScaledFrame(problem, w0), mu, 0, trace, _damped(eps, gamma, cap), observer)
    return nd.w, trace


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
    Returns the Newton data that passed the final test, with the trace.
    """
    if params is None:
        params = LongStepParams()
    _require_mu("mu values must be positive and finite", mu0, mu_f)
    trace = SolverTrace()
    return _longstep(subspace.ScaledFrame(problem, w0), float(mu0), mu_f, params, trace), trace


def _longstep(frame: subspace.ScaledFrame, mu: float, mu_f, params: LongStepParams, trace) -> subspace.NewtonData:
    """The mu schedule of ``longstep`` on scaled frames; returns the final centering's data."""
    outer = 0
    while mu > mu_f:
        outer += 1
        rule = _damped(params.alpha, params.gamma, params.max_newton)
        if outer > params.max_outer:
            rule = _exceeded(f"longstep exceeded {params.max_outer} outer iterations")
        frame = _steps(frame, mu, outer, trace, rule).frame
        mu = subspace.mu_candidates(frame, mu, params.beta)
        if params.clamp_mu_f:
            mu = max(mu, mu_f)
    return _steps(frame, mu, outer + 1, trace, _damped(params.eps, params.gamma, params.max_newton))


@dataclass(frozen=True, eq=False)
class Result:
    """A checked ``solve``: the tracker's Newton data (on a failure, the error's
    ``iterate``), ``nd.pair()`` with its gap <x, s> and relative affine residuals
    (over max(1, ||x||) and max(1, ||s||)), and the error of a failed run or check."""

    trace: SolverTrace
    nd: subspace.NewtonData | None
    pair: tuple | None = None
    gap: float | None = None
    residuals: tuple | None = None
    error: GeoipmError | None = None

    @property
    def status(self) -> str:
        return self.trace.status


def solve(problem: ConicProblem, w0: AlgebraElement, mu0: float, mu_f: float, params) -> Result:
    """Run the tracker of ``params`` (``shortstep`` or ``longstep``) and check it:
    CONVERGED needs h_ub <= eps at the returned data and a pair within
    ``RESIDUAL_TOL``, else NUMERICAL_FAILURE with an error naming the check.
    A GeoipmError raised mid-run, or while the returned data are read,
    becomes a status; one raised before the loop raises."""
    track = {ShortStepParams: shortstep, LongStepParams: longstep}.get(type(params))
    if track is None:
        raise ParameterError(f"params must be ShortStepParams or LongStepParams, got {params!r}")
    try:
        nd, trace = track(problem, w0, mu0, mu_f, params)
    except GeoipmError as exc:
        if exc.trace is None:
            raise
        return Result(exc.trace, exc.iterate, error=exc)
    try:
        # the decompositions of g_w (a full step reads no bound) and of d
        # (the last data took no step) may first run here
        h_ub, pair = nd.h_ub, nd.pair()
    except GeoipmError as exc:
        trace.status = NUMERICAL_FAILURE
        exc.trace, exc.iterate = trace, nd
        return Result(trace, nd, error=exc)
    gap = residuals = failed = None
    if pair is not None:
        x, s = pair
        gap = subspace.duality_gap(x, s)
        rp, rd = subspace.affine_residuals(problem, x, s)
        residuals = (rp / max(1.0, jordan.norm2(x)), rd / max(1.0, jordan.norm2(s)))
    if not h_ub <= params.eps:
        failed = f"h_ub={h_ub!r} above eps={params.eps!r} at the returned (w, mu)"
    elif pair is None:
        failed = f"no feasible pair at the returned (w, mu): ||d||_inf={nd.norm_d_inf!r} above 1"
    elif not max(residuals) <= RESIDUAL_TOL:
        failed = f"relative affine residuals {residuals[0]:.3e} / {residuals[1]:.3e} above {RESIDUAL_TOL:g}"
    if failed is None:
        return Result(trace, nd, pair, gap, residuals)
    trace.status = NUMERICAL_FAILURE
    return Result(trace, nd, pair, gap, residuals, NumericalFailureError(failed, trace=trace, iterate=nd))


def oracle_center(
    problem: ConicProblem,
    mu: float,
    warm: AlgebraElement | None = None,
    cap: int = 20_000,
) -> AlgebraElement:
    """High-accuracy centered point (test oracle for the central path).

    Centers the identity (or a warm start) at mu to h_ub <= ``ORACLE_EPS``;
    sqrt(mu) * w and sqrt(mu) * w^{-1} approximate the central-path pair at
    mu.  A start far from the path (h_ub = inf at mu) whose scale-matched
    mu* (``subspace.scale_matched_mu``) lies above mu is first carried from
    mu* down to mu by ``longstep`` with ``clamp_mu_f``: a few long steps
    instead of the many short damped steps ``center`` takes at mu from
    there.  Those long steps carry the problem data down a scale of
    sqrt(mu*/mu), exact only to rounding at the scale each step took them,
    so their last iterate gets a fresh frame (one decomposition).  Every
    start then ends with ``center`` at mu with gamma ``ORACLE_GAMMA``, so
    any other start, such as a warm start near the path, is centered as by
    ``center`` alone.  ``cap`` bounds each centering pass; exceeding it
    raises IterationLimitError with the message ``centering oracle failed
    at mu=...: ...``, carrying the oracle's partial trace (status
    ITERATION_CAP, the steps of every pass) and, as ``iterate``, the last
    ``NewtonData`` of the pass that hit the cap.
    """
    _require_mu("mu must be positive and finite", mu)
    _require_cap(cap, "cap")
    start = warm if warm is not None else jordan.identity(problem.cone)
    frame = subspace.ScaledFrame(problem, start)
    mu_star = subspace.scale_matched_mu(frame)
    trace = SolverTrace()
    try:
        if mu < mu_star < math.inf and math.isinf(_steps(frame, mu, 0, trace, _full(0)).h_ub):
            params = LongStepParams(clamp_mu_f=True, max_newton=cap)
            frame = subspace.ScaledFrame(problem, _longstep(frame, mu_star, mu, params, trace).w)
        return _steps(frame, mu, 0, trace, _damped(ORACLE_EPS, ORACLE_GAMMA, cap)).w
    except IterationLimitError as exc:
        message = f"centering oracle failed at mu={mu:g}: {exc}"
        raise IterationLimitError(message, trace=trace, iterate=exc.iterate) from exc
