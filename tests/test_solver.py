"""Short-step, centering, and long-step algorithms plus the oracle."""

import dataclasses
import math

import numpy as np
import pytest

from geoipm import geometry as G
from geoipm import jordan as J
from geoipm import solver as V
from geoipm import subspace as S
from geoipm.errors import (
    DomainError,
    GeoipmError,
    IllConditionedBasisError,
    IterationLimitError,
    NumericalFailureError,
    ParameterError,
)
from geoipm.harness import generate
from geoipm.harness.experiments import trial_seed

from util import (
    FAMILIES,
    PSD6,
    assert_elem_close,
    no_interior_psd3,
    perturb_to_distance,
    perturb_to_divergence,
    random_basis_problem,
    random_interior,
)

ORTH1 = J.ConeDescriptor((J.Orthant(1),))


def scalar_problem(a=2.0, b=5.0):
    return S.ConicProblem(
        ORTH1, S.BasisForm(x0=J.element(ORTH1, [a]), s0=J.element(ORTH1, [b]), basis=())
    )


def test_shortstep_params_examples():
    p = V.shortstep_params(0.5, 1e-4, 100)
    assert p.m == 5  # (1/2)^32 <= 1e-8 < (1/2)^16
    assert 0.5 ** (2 ** p.m) <= p.eps ** 2 < 0.5 ** (2 ** (p.m - 1))
    zeta = G.q_inv(0.5) - 1e-4
    assert p.zeta == pytest.approx(zeta, rel=1e-12)
    assert p.k == pytest.approx(math.exp(2.0 * G.q_inv(zeta ** 2 / 100)), rel=1e-12)
    assert p.k == pytest.approx(1.1487, abs=2e-4)
    # parameter domain
    with pytest.raises(ParameterError):
        V.shortstep_params(0.5, G.q_inv(0.5), 10)  # eps >= q_inv(beta)
    with pytest.raises(ParameterError):
        V.shortstep_params(0.6, 1e-4, 10)
    with pytest.raises(ParameterError):
        V.shortstep_params(0.5, 0.0, 10)


def test_shortstep_settings_derive_their_schedule():
    """(m, k, zeta, c) are derived, never given: a hand-built k = 1 never
    ended, and m = 0 reported converged after no step."""
    with pytest.raises(TypeError):
        V.ShortStepParams(beta=0.5, eps=1e-4, n=3, m=1, k=1.0, zeta=0.1, c=0.1)
    p = V.ShortStepParams(0.5, 1e-4, 3)
    assert [f.name for f in dataclasses.fields(p) if f.init] == ["beta", "eps", "n"]
    assert p == V.shortstep_params(0.5, 1e-4, 3)
    with pytest.raises(ParameterError):
        V.ShortStepParams(0.5, 1e-4, 10 ** 40)  # k rounds to 1


def test_outer_iterations_count_the_phases_shortstep_takes():
    """At mu_f = k^-j the log formula ceil(log(mu0/mu_f) / log k) missed
    by one at 14 of these 30 rank-3 targets."""
    prob = generate.generate_random_sdp(3, 2, 0)
    params = V.shortstep_params(0.5, 1e-4, prob.cone.rank)
    w0 = V.oracle_center(prob, 1.0)
    for j in range(1, 31):
        mu_f = params.k ** -j
        _, trace = V.shortstep(prob, w0, 1.0, mu_f, params)
        assert len(trace.snapshots) == params.outer_iterations(1.0, mu_f), j
        assert trace.newton_steps == params.m * len(trace.snapshots)


def test_a_mu_f_out_of_reach_raises_before_any_step(monkeypatch):
    """Below the smallest normal double, mu / k rounds back to mu for k near
    1 (1e-323 at rank 24, 5.4e-323 at rank 1000), so the schedule stalled
    and ``outer_iterations`` never returned.  On orthant(30), k = 1.29 <
    4/3; ``shortstep`` and ``solve`` raise before they build a frame."""
    with pytest.raises(ParameterError):
        V.ShortStepParams(0.5, 1e-4, 1000).outer_iterations(1.0, 5e-324)
    cone = J.ConeDescriptor((J.Orthant(30),))
    prob = random_basis_problem(cone, 3, np.random.default_rng(3))
    params = V.ShortStepParams(0.5, 1e-4, cone.rank)
    assert params.k < 4.0 / 3.0

    def no_frame(*args):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(S.ScaledFrame, "__init__", no_frame)
    for run in (V.shortstep, V.solve):
        with pytest.raises(ParameterError, match="out of reach"):
            run(prob, J.identity(cone), 1.0, 5e-324, params)


def test_newton_step_budget_is_zero_without_a_mu_decrease():
    params = V.shortstep_params(0.5, 1e-4, 3)
    assert params.newton_step_budget(1.0, 1e10) == 0
    assert params.newton_step_budget(1.0, 1.0) == 0
    assert params.newton_step_budget(1.0, 0.5) > 0


@pytest.mark.parametrize("n", [2.5, 20.0, True])
def test_shortstep_rank_must_be_an_integer(n):
    with pytest.raises(ParameterError):
        V.shortstep_params(0.5, 1e-4, n)
    assert V.shortstep_params(0.5, 1e-4, np.int64(20)).n == 20


def test_shortstep_params_must_match_the_cone_rank():
    """Parameters derived for another rank take other (k, m): for rank 20
    on a rank-6 cone the run took 115 steps where rank-6 parameters take
    65.  They are refused before the loop, also through ``solve``."""
    prob = generate.generate_random_sdp(6, 3, 0)
    w0 = V.oracle_center(prob, 1.0)
    for run in (V.shortstep, V.solve):
        with pytest.raises(ParameterError):
            run(prob, w0, 1.0, 1.0 / 1024.0, V.shortstep_params(0.5, 1e-4, 20))
    result = V.solve(prob, w0, 1.0, 1.0 / 1024.0, V.shortstep_params(0.5, 1e-4, prob.cone.rank))
    assert result.status == V.CONVERGED


def test_shortstep_noop_when_mu_reached():
    prob = scalar_problem()
    params = V.shortstep_params(0.5, 1e-4, 1)
    w0 = J.element(ORTH1, [1.7])
    state, trace = V.shortstep(prob, w0, 1.0, 1.0, params)
    assert trace.newton_steps == 0
    assert state.mu == 1.0
    assert_elem_close(state.w, w0, 1e-15, "unchanged iterate")


def test_shortstep_counts_and_accuracy():
    rng = np.random.default_rng(0)
    prob = random_basis_problem(PSD6, 3, rng)
    n = prob.cone.rank
    params = V.shortstep_params(0.5, 1e-4, n)
    mu0, mu_f = 1.0, 1.0 / 256.0
    w0 = V.oracle_center(prob, mu0)
    state, trace = V.shortstep(prob, w0, mu0, mu_f, params)
    outers = params.outer_iterations(mu0, mu_f)
    assert trace.newton_steps == params.m * outers
    assert trace.newton_steps <= params.newton_step_budget(mu0, mu_f)
    assert state.mu <= mu_f
    w_hat = V.oracle_center(prob, state.mu, warm=state.w)
    assert G.geodesic_distance(state.w, w_hat) <= 1e-4


def test_center_returns_immediately_when_centered():
    prob = scalar_problem(a=2.0)
    mu = 0.36
    w_hat = J.element(ORTH1, [2.0 / math.sqrt(mu)])
    w, trace = V.center(prob, w_hat, mu, 1e-10)
    assert trace.newton_steps == 0
    assert_elem_close(w, w_hat, 1e-15, "already centered")


def test_center_matches_scalar_brute_force():
    # replicate the loop in plain floats for orthant(1) with L = {0}
    a, mu, gamma = 2.0, 0.49, 0.5
    prob = scalar_problem(a=a)
    w_ref = 0.2
    seq = []
    w = w_ref
    for _ in range(8):
        d = a / (w * math.sqrt(mu)) - 1.0
        h_lb = d * d / (1.0 + abs(d))
        t_max = 2.0 * (h_lb + min(d * d, 2.0)) / (d * d * (h_lb + 2.0))
        w = w * math.exp(gamma * t_max * d)
        seq.append(w)

    w_el = J.element(ORTH1, [w_ref])
    got = []
    for _ in range(8):
        nd = S.newton_direction(prob, w_el, mu)
        w_el = G.geodesic_point(G.ray(w_el, nd.d), gamma * nd.t_max)
        got.append(w_el.coords[0])
    assert np.allclose(got, seq, rtol=1e-12)
    # and the loop's fixed point is the closed-form centered value
    w_c, _ = V.center(prob, J.element(ORTH1, [w_ref]), mu, 1e-12, gamma=gamma)
    assert w_c.coords[0] == pytest.approx(a / math.sqrt(mu), rel=3e-6)


def test_center_converges_from_far_start_and_decreases_h():
    rng = np.random.default_rng(1)
    for cone in (FAMILIES["orthant"], FAMILIES["psd"]):
        prob = random_basis_problem(cone, 3, rng)
        mu = 1.0
        w_hat = V.oracle_center(prob, mu)
        w0 = perturb_to_distance(w_hat, rng, 5.0)
        hs = []
        w, trace = V.center(
            prob, w0, mu, 1e-8,
            observer=lambda i, w_el, nd: hs.append(G.divergence(w_el, w_hat)),
        )
        assert S.newton_direction(prob, w, mu).h_ub <= 1e-8
        for h_prev, h_next in zip(hs, hs[1:]):
            assert h_next <= h_prev + 1e-9
        assert G.geodesic_distance(w, w_hat) <= 1e-3


def test_center_cap_reports_trace():
    rng = np.random.default_rng(2)
    prob = random_basis_problem(PSD6, 3, rng)
    w0 = random_interior(PSD6, rng)
    # solve returns the cap of longstep's first centering pass as its status
    runs = (
        lambda: V.center(prob, w0, 1.0, 1e-12, cap=2),
        lambda: V.solve(prob, w0, 1.0, 1e-4, V.LongStepParams(max_newton=2)),
    )
    for run in runs:
        trace, nd, error = _outcome(run)
        assert type(error) is IterationLimitError and error.trace is trace
        assert trace.newton_steps == 2
        # the data at the iterate the cap stopped on, which failed the test
        assert isinstance(nd, S.NewtonData)
        assert nd.mu == 1.0 and nd.h_ub > 1e-12
        assert trace.status == V.ITERATION_CAP
    # gamma outside (0, 1) is rejected before any step (gamma = 0 never moves w)
    for gamma in (0.0, 1.0):
        with pytest.raises(ParameterError):
            V.center(prob, w0, 1.0, 1e-12, gamma=gamma, cap=2)


def _tracker_runs():
    """shortstep, center and longstep on one small SDP, each a call with no arguments."""
    prob = random_basis_problem(PSD6, 3, np.random.default_rng(3))
    centered = V.oracle_center(prob, 1.0)
    far = random_interior(PSD6, np.random.default_rng(5))
    params = V.shortstep_params(0.5, 1e-4, prob.cone.rank)
    return {
        "shortstep": lambda: V.shortstep(prob, centered, 1.0, 1.0 / 64.0, params),
        "center": lambda: V.center(prob, far, 1.0, 1e-10),
        "longstep": lambda: V.longstep(prob, J.identity(PSD6), 1.0, 1e-4),
        "solve-shortstep": lambda: V.solve(prob, centered, 1.0, 1.0 / 64.0, params),
        "solve-longstep": lambda: V.solve(prob, J.identity(PSD6), 1.0, 1e-4, V.LongStepParams()),
    }


def _outcome(run):
    """(trace, Newton data, error) of a run: the error a tracker raises and
    what it carries, or the fields of the ``Result`` that ``solve`` returns,
    whose data must be its error's iterate."""
    try:
        out = run()
    except GeoipmError as exc:
        return exc.trace, exc.iterate, exc
    if isinstance(out, V.Result):
        assert out.error is None or out.nd is out.error.iterate
        assert out.status is out.trace.status
        return out.trace, out.nd, out.error
    return out[1], out[0], None


def _fields(record):
    """A step record's fields but its wall time."""
    return dataclasses.astuple(record)[:-1]


@pytest.mark.parametrize("tracker", ["shortstep", "center", "longstep", "solve-shortstep", "solve-longstep"])
def test_failed_step_keeps_the_partial_trace(tracker, monkeypatch):
    """A step that fails after k steps: the error keeps its type and message,
    and carries the k records, the snapshots taken so far and the Newton
    data the failed step was given, at the mu the run had reached; ``solve``
    returns them as its ``Result``."""
    run = _tracker_runs()[tracker]
    full, _, error = _outcome(run)
    assert error is None and full.status == V.CONVERGED
    k = full.newton_steps // 2
    assert k >= 3
    given = []
    step = S.ScaledFrame.step

    def failing_step(frame, nd, t):
        given.append(nd)
        if len(given) > k:
            raise NumericalFailureError("injected")
        return step(frame, nd, t)

    monkeypatch.setattr(S.ScaledFrame, "step", failing_step)
    trace, nd, error = _outcome(run)
    assert type(error) is NumericalFailureError and str(error) == "injected"
    assert trace.status == V.NUMERICAL_FAILURE
    assert [_fields(r) for r in trace.records] == [_fields(r) for r in full.records[:k]]
    failed = full.records[k]
    assert nd is given[k] and nd.mu == failed.mu
    assert (failed.h_ub, failed.h_lb) == _recorded_bounds(tracker, nd)
    taken = [snap for snap in full.snapshots if snap.outer < failed.outer]
    assert [(snap.outer, snap.mu) for snap in trace.snapshots] == [(snap.outer, snap.mu) for snap in taken]
    for snap, ref in zip(trace.snapshots, taken):
        np.testing.assert_array_equal(snap.w.coords, ref.w.coords)
    assert bool(taken) == (tracker != "center")


def _recorded_bounds(tracker, nd):
    """The (h_ub, h_lb) a step record of ``tracker`` holds for its data: the
    norm bounds of a full step, whose rule reads no bound, else the exact
    bounds that the damped rule read."""
    if "shortstep" not in tracker:
        return nd.h_ub, nd.h_lb
    n = nd.norm_d
    return (n ** 2 / (1.0 - n) if n < 1.0 else math.inf), n ** 2 / (1.0 + n)


@pytest.mark.parametrize("tracker", ["shortstep", "center", "longstep"])
def test_step_records_bracket_the_exact_bounds(tracker, monkeypatch):
    """A full step records the norm bounds of its data, which bracket the
    exact bounds (||s||_inf <= ||s|| = ||d||); a damped step records the
    exact bounds, bitwise."""
    run = _tracker_runs()[tracker]
    given = []
    step = S.ScaledFrame.step

    def recording_step(frame, nd, t):
        given.append(nd)
        return step(frame, nd, t)

    monkeypatch.setattr(S.ScaledFrame, "step", recording_step)
    trace = _outcome(run)[0]
    assert len(given) == trace.newton_steps > 0
    for rec, nd in zip(trace.records, given):
        assert (rec.h_ub, rec.h_lb) == _recorded_bounds(tracker, nd)
        assert rec.h_ub >= nd.h_ub and rec.h_lb <= nd.h_lb
    if tracker == "shortstep":
        assert any(rec.h_ub > nd.h_ub for rec, nd in zip(trace.records, given))


def test_a_failure_reading_the_returned_bound_keeps_the_trace(monkeypatch):
    """A short-step run reads no bound, so ``solve`` first decomposes the
    last frame's g_w when it reads h_ub; a failure there comes back as the
    ``Result`` of a numerical failure with the whole trace, not as a raise."""
    run = _tracker_runs()["solve-shortstep"]
    full = _outcome(run)[0]

    def failing(cone, f):
        raise NumericalFailureError("injected")

    monkeypatch.setattr(J, "frame_eigenvalues", failing)
    trace, nd, error = _outcome(run)
    assert type(error) is NumericalFailureError and str(error) == "injected"
    assert trace.status == V.NUMERICAL_FAILURE and error.trace is trace
    assert isinstance(nd, S.NewtonData) and nd.mu == full.records[-1].mu
    assert [_fields(r) for r in trace.records] == [_fields(r) for r in full.records]
    assert [(snap.outer, snap.mu) for snap in trace.snapshots] == [(snap.outer, snap.mu) for snap in full.snapshots]


def test_a_lapack_failure_in_the_loop_keeps_the_trace(monkeypatch):
    """numpy's eigh raising LinAlgError inside the loop ends a longstep
    ``solve`` as a numerical failure whose ``Result`` holds every record up
    to the failed step.  The start takes one eigh and each step one more (of
    d), so failing the k-th call leaves k - 2 records."""
    run = _tracker_runs()["solve-longstep"]
    full = _outcome(run)[0]
    k = full.newton_steps // 2
    assert k >= 3
    calls = []
    eigh = np.linalg.eigh

    def failing(a):
        calls.append(a)
        if len(calls) == k:
            raise np.linalg.LinAlgError("injected")
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    trace, nd, error = _outcome(run)
    assert type(error) is NumericalFailureError and "injected" in str(error)
    assert trace.status == V.NUMERICAL_FAILURE and error.trace is trace
    assert len(calls) == k and isinstance(nd, S.NewtonData)
    assert [_fields(r) for r in trace.records] == [_fields(r) for r in full.records[: k - 2]]


def test_overflow_in_the_loop_is_a_numerical_failure():
    """A floating-point overflow while the loop steps ends the run as a
    NumericalFailureError that names mu and carries the trace and the last
    Newton data, not as a numpy warning or at the step cap."""
    prob = no_interior_psd3()
    result = V.solve(prob, J.identity(prob.cone), 1.0, 1.0 / 1024.0, V.LongStepParams())
    assert result.status == V.NUMERICAL_FAILURE
    assert isinstance(result.error, NumericalFailureError)
    assert str(result.error).endswith("at mu=1.0")
    assert 0 < result.trace.newton_steps < V.DEFAULT_CENTER_CAP
    assert result.error.trace is result.trace and result.error.iterate is result.nd


def test_shortstep_from_a_far_start_fails_with_its_trace():
    """From e, fig3 psd(20) trial 0 is far from the path at mu0 = 1: the
    first full step maps the basis to rank loss, and the error says how
    far the run got (nowhere) and at which mu; ``solve`` returns the same."""
    problem = generate.generate_random_sdp(20, 10, trial_seed(0, 20, 0))
    params = V.shortstep_params(0.5, 1e-4, 20)
    for run in (V.shortstep, V.solve):
        trace, nd, error = _outcome(lambda: run(problem, J.identity(problem.cone), 1.0, 1.0 / 1024.0, params))
        assert type(error) is IllConditionedBasisError
        assert trace.status == V.NUMERICAL_FAILURE
        assert trace.records == [] and trace.snapshots == []
        assert isinstance(nd, S.NewtonData) and nd.mu == 1.0 / params.k


def test_solve_checks_the_data_it_returns():
    """``shortstep`` with mu0 <= mu_f returns its start untested, and e is
    far from centered: h_ub fails eps.  A final eps of 9 stops ``longstep``
    where ||d||_inf = 1.18 > 1 and no pair exists.  Both runs end without
    an error raised, and ``solve`` reports each as the check it failed."""
    prob = random_basis_problem(FAMILIES["orthant"], 2, np.random.default_rng(79))
    e = J.identity(prob.cone)
    short = V.solve(prob, e, 1.0, 2.0, V.shortstep_params(0.5, 1e-4, prob.cone.rank))
    loose = V.solve(prob, e, 3.0, 3.0, V.LongStepParams(eps=9.0))
    assert short.nd.h_ub > 1e-4
    assert 1.0 < loose.nd.h_ub <= 9.0 and loose.pair is loose.residuals is None
    for result, check in ((short, "h_ub="), (loose, "no feasible pair")):
        assert result.status == V.NUMERICAL_FAILURE and result.trace.newton_steps == 0
        assert type(result.error) is NumericalFailureError and str(result.error).startswith(check)
        assert result.error.iterate is result.nd


def test_longstep_single_center_when_mu_reached():
    prob = scalar_problem()
    w0 = J.element(ORTH1, [1.0])
    state, trace = V.longstep(prob, w0, 0.5, 1.0)
    assert state.mu == 0.5
    assert all(rec.mu == 0.5 for rec in trace.records)
    assert S.newton_direction(prob, state.w, state.mu).h_ub <= 1e-4


def test_longstep_on_random_sdp():
    rng = np.random.default_rng(3)
    prob = random_basis_problem(PSD6, 3, rng)
    mu0, mu_f = 1.0, 1.0 / 256.0
    w0 = V.oracle_center(prob, mu0)
    state, trace = V.longstep(prob, w0, mu0, mu_f)
    assert state.mu <= mu_f
    assert S.newton_direction(prob, state.w, state.mu).h_ub <= 1e-4
    mus = trace.mu_values()
    assert all(m1 >= m2 for m1, m2 in zip(mus, mus[1:]))
    outer_mus = [snap.mu for snap in trace.snapshots]
    assert all(m1 > m2 for m1, m2 in zip(outer_mus, outer_mus[1:]))
    # dominance over shortstep on the same instance
    params = V.shortstep_params(0.5, 1e-4, prob.cone.rank)
    _, strace = V.shortstep(prob, w0, mu0, mu_f, params)
    assert trace.newton_steps < strace.newton_steps


def test_longstep_clamp_flag():
    rng = np.random.default_rng(4)
    prob = random_basis_problem(FAMILIES["orthant"], 2, rng)
    w0 = V.oracle_center(prob, 1.0)
    params = V.LongStepParams(clamp_mu_f=True)
    state, trace = V.longstep(prob, w0, 1.0, 0.25, params)
    assert state.mu == pytest.approx(0.25, rel=1e-12)
    # default overshoots below mu_f
    state2, _ = V.longstep(prob, w0, 1.0, 0.25)
    assert state2.mu < 0.25


def test_longstep_params_validation():
    with pytest.raises(ParameterError):
        V.LongStepParams(beta=1.0, alpha=10.0)
    with pytest.raises(ParameterError):
        V.LongStepParams(gamma=1.5)
    for beta in (math.inf, math.nan):
        with pytest.raises(ParameterError):
            V.LongStepParams(beta=beta)
    # solve takes the parameters of one of its trackers
    prob = scalar_problem()
    with pytest.raises(ParameterError):
        V.solve(prob, J.identity(ORTH1), 1.0, 0.5, None)


@pytest.mark.parametrize("beta", [1e200, 1e308])
def test_longstep_with_huge_beta(beta):
    rng = np.random.default_rng(3)
    prob = random_basis_problem(PSD6, 3, rng)
    mu_f = 1.0 / 256.0
    state, trace = V.longstep(prob, J.identity(prob.cone), 1.0, mu_f, V.LongStepParams(beta=beta))
    assert 0.0 < state.mu <= mu_f
    assert state.h_ub <= 1e-4
    outer_mus = [snap.mu for snap in trace.snapshots]
    assert all(m1 > m2 for m1, m2 in zip(outer_mus, outer_mus[1:]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, 0.0, -1.0])
def test_mu_must_be_positive_and_finite(bad):
    prob = scalar_problem()
    w0 = J.element(ORTH1, [1.0])
    params = V.shortstep_params(0.5, 1e-4, 1)
    calls = (
        lambda: V.shortstep(prob, w0, bad, 0.5, params),
        lambda: V.shortstep(prob, w0, 1.0, bad, params),
        lambda: V.longstep(prob, w0, bad, 0.5),
        lambda: V.longstep(prob, w0, 1.0, bad),
        lambda: V.center(prob, w0, bad, 1e-8),
        lambda: V.center(prob, w0, 1.0, bad),
        lambda: V.oracle_center(prob, bad),
    )
    for call in calls:
        with pytest.raises(ParameterError):
            call()
    with pytest.raises(DomainError):
        S.ScaledFrame(prob, w0).newton(bad)


def test_caps_must_be_non_negative():
    prob = scalar_problem()
    w0 = J.element(ORTH1, [1.0])
    for kwargs in ({"max_newton": -1}, {"max_outer": -3}):
        with pytest.raises(ParameterError):
            V.LongStepParams(**kwargs)
    with pytest.raises(ParameterError):
        V.center(prob, w0, 1.0, 1e-8, cap=-1)
    with pytest.raises(ParameterError):
        V.oracle_center(prob, 1.0, cap=-1)
    # a zero cap is a valid bound: a centred start needs no step
    V.LongStepParams(max_newton=0, max_outer=0)
    V.center(prob, V.oracle_center(prob, 1.0), 1.0, 1e-8, cap=0)


@pytest.mark.parametrize("bad", [2.5, 3.0, True])
def test_caps_must_be_integers(bad):
    prob = scalar_problem()
    w0 = J.element(ORTH1, [1.0])
    calls = (
        lambda: V.LongStepParams(max_newton=bad),
        lambda: V.LongStepParams(max_outer=bad),
        lambda: V.center(prob, w0, 1.0, 1e-8, cap=bad),
        lambda: V.oracle_center(prob, 1.0, cap=bad),
    )
    for call in calls:
        with pytest.raises(ParameterError):
            call()
    assert V.LongStepParams(max_newton=np.int64(5)).max_newton == 5


def test_oracle_center_closed_forms():
    mu = 0.64
    # L = {0}: the path is x0 / sqrt(mu)
    prob = scalar_problem(a=2.0, b=5.0)
    w_hat = V.oracle_center(prob, mu)
    # h_ub <= 1e-12 pins the point to within ~1e-6 in geodesic distance
    assert w_hat.coords[0] == pytest.approx(2.0 / math.sqrt(mu), rel=3e-6)
    assert S.newton_direction(prob, w_hat, mu).h_ub <= 1e-12
    # L = J: the dual is pinned instead and the path is sqrt(mu) s0^{-1}
    orth2 = J.ConeDescriptor((J.Orthant(2),))
    basis = (J.element(orth2, [1.0, 0.0]), J.element(orth2, [0.0, 1.0]))
    prob_full = S.ConicProblem(
        orth2, S.BasisForm(x0=J.element(orth2, [1.0, 1.0]), s0=J.element(orth2, [2.0, 8.0]), basis=basis)
    )
    w_hat = V.oracle_center(prob_full, mu)
    assert np.allclose(w_hat.coords, math.sqrt(mu) / np.array([2.0, 8.0]), rtol=3e-6)


def test_oracle_failure_signal():
    rng = np.random.default_rng(5)
    prob = random_basis_problem(PSD6, 3, rng)
    with pytest.raises(IterationLimitError):
        V.oracle_center(prob, 1.0, warm=random_interior(PSD6, rng), cap=1)


def test_oracle_cap_error_carries_its_trace():
    """The oracle's cap is an IterationLimitError that names the oracle and
    keeps the trace and iterate of the loop that hit it: from e this
    instance takes the long-step route from mu* = 331.6 down to 1, whose
    first centering pass stops after its one step."""
    prob = generate.generate_random_sdp(6, 3, 0)
    with pytest.raises(IterationLimitError) as info:
        V.oracle_center(prob, 1.0, cap=1)
    exc = info.value
    assert str(exc).startswith("centering oracle failed at mu=1: centering did not reach")
    assert exc.trace.status == V.ITERATION_CAP
    assert len(exc.trace.records) == 1
    assert isinstance(exc.iterate, S.NewtonData) and exc.iterate.mu > 1.0


def test_oracle_failure_of_its_fresh_frame_names_the_oracle():
    """fig3 psd(100) trial 1: the far phase carries e from mu* down to 1,
    and the fresh frame of its last iterate fails the interior test.  The
    DomainError keeps its type and eigenvalue, names the oracle, and
    carries the far phase's steps and its last Newton data."""
    prob = generate.generate_random_sdp(100, 10, trial_seed(0, 100, 1))
    with pytest.raises(DomainError) as info:
        V.oracle_center(prob, 1.0)
    exc = info.value
    assert str(exc).startswith("centering oracle failed at mu=1: scaling point must be interior")
    assert str(exc).endswith(f"(offending eigenvalue {exc.eigenvalue:.6g})")
    assert exc.trace.status == V.NUMERICAL_FAILURE
    # every far-phase step belongs to an outer iteration of the long steps
    assert exc.trace.newton_steps > 0 and all(rec.outer > 0 for rec in exc.trace.records)
    assert isinstance(exc.iterate, S.NewtonData) and exc.iterate.mu == 1.0


def _far_start_problems():
    """Every test family, plus the fig3 psd(20) instance of trial 0, each
    with a mu at which the identity is far from the path (h_ub = inf) and
    below the scale-matched mu*, so ``oracle_center`` takes its long-step
    route."""
    cases = []
    for i, (name, cone) in enumerate(sorted(FAMILIES.items())):
        prob = random_basis_problem(cone, 3, np.random.default_rng(40 + i))
        mu = 0.01 * S.scale_matched_mu(S.ScaledFrame(prob, J.identity(cone)))
        cases.append(pytest.param(prob, mu, id=name))
    fig3 = generate.generate_random_sdp(20, 10, trial_seed(0, 20, 0))
    cases.append(pytest.param(fig3, 1.0, id="fig3-psd20"))
    return cases


@pytest.mark.parametrize("prob, mu", _far_start_problems())
def test_oracle_center_from_far_start_matches_center(prob, mu):
    e = J.identity(prob.cone)
    frame = S.ScaledFrame(prob, e)
    assert math.isinf(frame.newton(mu).h_ub) and mu < S.scale_matched_mu(frame)
    w = V.oracle_center(prob, mu)
    assert S.newton_direction(prob, w, mu).h_ub <= V.ORACLE_EPS
    # plain center from the same start stays the reference
    w_ref, _ = V.center(prob, e, mu, 1e-12, gamma=0.5)
    assert J.norm2(w - w_ref) <= 1e-6 * J.norm2(w_ref)


def test_oracle_center_without_a_scale_matched_mu(monkeypatch):
    """orthant(2) with x0 = (0.01, 0.01), s0 = (10, 1) and L = span(1, -2):
    at e, g = P_{L-perp} x0 + P_L s0 = (1.612, -3.194) has trace -1.582, so
    ||d|| falls as mu grows and mu* = inf.  The oracle centres at mu
    without the long-step far phase."""
    cone = J.ConeDescriptor((J.Orthant(2),))
    form = S.BasisForm(
        x0=J.element(cone, [0.01, 0.01]), s0=J.element(cone, [10.0, 1.0]), basis=(J.element(cone, [1.0, -2.0]),)
    )
    prob = S.ConicProblem(cone, form)
    frame = S.ScaledFrame(prob, J.identity(cone))
    assert float(frame.g_f @ cone.frame_identity) == pytest.approx(-1.582, rel=1e-12)
    assert S.scale_matched_mu(frame) == math.inf

    def far_phase(*args):
        raise AssertionError("oracle_center took the far phase")

    monkeypatch.setattr(V, "_longstep", far_phase)
    w = V.oracle_center(prob, 1.0)
    assert S.newton_direction(prob, w, 1.0).h_ub <= V.ORACLE_EPS


def test_central_path_divergence_identity_quick():
    rng = np.random.default_rng(6)
    prob = random_basis_problem(PSD6, 3, rng)
    n = prob.cone.rank
    wa = V.oracle_center(prob, 1.0)
    wb = V.oracle_center(prob, 0.25, warm=wa)
    assert G.divergence(wa, wb) / n == pytest.approx(G.q_fn(0.5 * math.log(4.0)), abs=1e-6)


def test_mu_update_distance_bound():
    rng = np.random.default_rng(7)
    prob = random_basis_problem(FAMILIES["mixed"], 3, rng)
    n = prob.cone.rank
    mu = 1.0
    w_mu = V.oracle_center(prob, mu)
    for k in (2.0, 10.0, 100.0):
        w_k = V.oracle_center(prob, mu / k, warm=w_mu)
        lhs = G.geodesic_distance(w_mu, w_k) ** 2 / n
        assert lhs <= G.q_fn(0.5 * math.log(k)) + 1e-8


def test_quadratic_convergence_quick():
    rng = np.random.default_rng(8)
    prob = random_basis_problem(PSD6, 3, rng)
    mu = 1.0
    w_hat = V.oracle_center(prob, mu)
    w = perturb_to_divergence(w_hat, rng, 0.4)
    h = G.divergence(w, w_hat)
    assert 0.1 <= h <= 0.5
    while h >= 1e-10:
        nd = S.newton_direction(prob, w, mu)
        w = G.geodesic_point(G.ray(w, nd.d), 1.0)
        h_next = G.divergence(w, w_hat)
        assert h_next <= h * h + 1e-9
        h = h_next


def test_longstep_scale_invariance_quick():
    rng = np.random.default_rng(9)
    cone = FAMILIES["psd"]
    prob = random_basis_problem(cone, 3, rng)
    T = J.random_automorphism(cone, rng)
    w0 = random_interior(cone, rng)
    state, trace = V.longstep(prob, w0, 1.0, 1.0 / 64.0)
    prob_t = S.transform_problem(prob, T)
    state_t, trace_t = V.longstep(prob_t, J.apply_automorphism(T, w0), 1.0, 1.0 / 64.0)
    assert trace_t.newton_steps == trace.newton_steps
    assert state_t.mu == pytest.approx(state.mu, rel=1e-9)
    expected = J.apply_automorphism(T, state.w)
    assert J.norm2(state_t.w - expected) <= 1e-6 * max(1.0, J.norm2(expected))


def test_longstep_at_a_tiny_scale_takes_the_unscaled_steps():
    """The problem mapped by T_c = c I with c = 1e-12, tracked from c e,
    takes the steps of the problem tracked from e: the interior test of
    the start has no absolute floor."""
    prob = generate.generate_random_sdp(6, 3, 0)
    e = J.identity(prob.cone)
    c = 1e-12
    t_c = J.ConeAutomorphism.polar(prob.cone, [np.eye(6)], math.sqrt(c) * e)
    state, trace = V.longstep(prob, e, 1.0, 1.0 / 64.0)
    state_c, trace_c = V.longstep(S.transform_problem(prob, t_c), c * e, 1.0, 1.0 / 64.0)
    assert trace_c.newton_steps == trace.newton_steps == 28
    assert state_c.mu == pytest.approx(state.mu, rel=1e-12)
