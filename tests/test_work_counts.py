"""Work per Newton step: eigensolver calls, automorphism maps, projections.

The kernels make one pass over the runs of equal blocks, with one stacked
LAPACK call per run of PSD blocks, so the counts below hold for one psd
block and for a cone of several.  Each element is decomposed once per use.

A tracker decomposes its start w once (``ScaledFrame(problem, w)``: one
``eigh``, which gives the anchor T = Q(w^{1/2}) and the interior test) and
never decomposes or tests a stepped iterate.  Every frame, when it is
built, projects once for g_w.  Its one ``eigvalsh`` of g_w runs when a
bound is first read: every Newton call at that iterate reads
||d1 + d2||_inf off it; with ||d|| = ||d1 + d2|| that gives h_ub, and
``mu_candidates`` reads the same extreme eigenvalues.  d is decomposed, by
one ``eigh``, only when its spectrum is read: that ``eigh`` gives
||d||_inf and t_max, and the step map Q(exp(t d/2)) and the reset
representatives are mapped on it, so a call that only tests h_ub takes
none.  A step on data that have not decomposed d, with
max(1, |t|) ||d|| below the largest Taylor radius (0.996), forms its step
functions from the powers of d instead.  So a full step, whose rule reads
no bound and whose record holds the norm bounds, costs no ``eigh`` and no
``eigvalsh``; a damped step, whose rule reads h_ub and t_max, costs 1 of
each.

A step maps the basis once, by Q(exp(t d/2)), in the same pass over the
runs that forms the map and composes the anchor (``jordan.geodesic_step``);
every automorphism map, the step's and ``ConeAutomorphism.columns``, is
one ``jordan._map_run`` per run, which is what the tests count.  It works
in frame coordinates (PSD blocks as full matrices), so it gathers no svec
coordinates: ``_smat`` and ``_svec`` run only where an element enters or
leaves a run.  The basis spans the smaller of L and L-perp, whichever form
states the problem.  A fresh frame makes two anchor maps (T^{-1} on the
basis of L with x0, T* on s0, or T* on L-perp with s0 and T^{-1} on x0),
and so does the feasible pair (T and (T^{-1})*).  A Newton call projects
once more only when its d is read, and ``mu_candidates`` projects nothing.
Both trackers hand back the Newton data at their last iterate, so
``geoipm solve`` reads the final h_ub off it, which after full steps takes
the one ``eigvalsh`` of the last g_w, and decomposes only d for the
feasible pair.  No tracker forms an iterate T e: an outer snapshot keeps
its frame's anchor and forms ``w`` when read.  A geodesic ray decomposes
its base and its direction once each, and its points decompose nothing; the
divergence decomposes each argument once; a checked map such as ``sqrt``
tests the eigenvalues of the ``eigh`` it maps.
"""

import numpy as np
import pytest

from geoipm import geometry as G
from geoipm import jordan as J
from geoipm import solver as V
from geoipm import subspace as S
from geoipm.harness import cli, generate, io
from geoipm.harness.experiments import trial_seed

from util import PSD6, random_basis_problem, random_element, random_interior

# runs: 3 psd(6), 2 soc(4), orthant(3)
MULTI = J.ConeDescriptor((J.Psd(6),) * 3 + (J.SecondOrder(4),) * 2 + (J.Orthant(3),))

MU0 = 1.0
MU_F = MU0 / 1024.0


LAPACK = ((np.linalg, "eigh"), (np.linalg, "eigvalsh"))
# LAPACK, the automorphism maps (one ``_map_run`` per run of equal blocks
# each) and the interior test of a scaling point
KERNELS = LAPACK + ((J, "_map_run"), (J.Spectrum, "require_interior"))
# the svec gathers between element coordinates and PSD matrices
SVEC = ((J, "_smat"), (J, "_svec"))


def _counted(monkeypatch, run, targets=LAPACK):
    """Run ``run()`` with the ``(module, name)`` functions in ``targets``
    counted (numpy's eigh/eigvalsh by default); returns (result, counts)."""
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        def counted(*args, _fn=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    try:
        return run(), calls
    finally:
        monkeypatch.undo()


@pytest.fixture(scope="module")
def problem():
    return random_basis_problem(PSD6, 3, np.random.default_rng(17))


@pytest.fixture(scope="module")
def multi_problem():
    return random_basis_problem(MULTI, 3, np.random.default_rng(17))


def test_shortstep_full_steps_decompose_nothing(problem, multi_problem, monkeypatch):
    for prob in (problem, multi_problem):
        w0 = V.oracle_center(prob, MU0)
        params = V.shortstep_params(0.5, 1e-4, prob.cone.rank)
        runs = len(prob.cone.runs)
        (_, trace), calls = _counted(
            monkeypatch, lambda: V.shortstep(prob, w0, MU0, MU_F, params),
            KERNELS + ((S.ScaledFrame, "_project"),),
        )
        steps = trace.newton_steps
        assert steps > 0
        # the start: the eigh and interior test of w0 and two anchor maps; each
        # step: one map of the basis by the Taylor polynomials of d and, for
        # the new frame, the projection of its g_w; each step also projects
        # once for d; the returned Newton data are read off the last frame,
        # and no bound is read, so neither d nor g_w is decomposed
        assert max(rec.norm_d for rec in trace.records) < J._TAYLOR_RADII[-1]
        assert calls == {
            "eigh": 1, "eigvalsh": 0, "_map_run": (2 + steps) * runs,
            "require_interior": 1, "_project": 1 + 2 * steps,
        }, prob.cone
        (_, trace), gathers = _counted(
            monkeypatch, lambda: V.shortstep(prob, w0, MU0, MU_F, params), SVEC
        )
        # unpacking w0, x0 and s0 at the start; none per step, and none for
        # the outer snapshots, whose w is formed only when read
        assert gathers == {"_smat": 3, "_svec": 0}, prob.cone
        assert J.norm2(trace.snapshots[-1].w - trace.snapshots[-1].anchor.point()) == 0.0


def test_trackers_form_no_iterate(problem, multi_problem, monkeypatch):
    # the snapshots keep their frame's anchor, and the returned Newton data
    # form w only when it is read, so a tracker never forms T e
    for prob in (problem, multi_problem):
        w0 = V.oracle_center(prob, MU0)
        params = V.shortstep_params(0.5, 1e-4, prob.cone.rank)
        trackers = (
            lambda: V.shortstep(prob, w0, MU0, MU_F, params),
            lambda: V.longstep(prob, J.identity(prob.cone), MU0, MU_F),
        )
        for tracker in trackers:
            (_, trace), calls = _counted(monkeypatch, tracker, ((J.ConeAutomorphism, "point"),))
            assert trace.snapshots and calls == {"point": 0}, prob.cone


def test_longstep_decomposes_only_the_start(problem, multi_problem, monkeypatch):
    for prob in (problem, multi_problem):
        (_, trace), calls = _counted(
            monkeypatch, lambda: V.longstep(prob, J.identity(prob.cone), MU0, MU_F), KERNELS
        )
        steps = trace.newton_steps
        # one eigh of the start and one per step taken; one eigvalsh of g_w per
        # iterate, shared by every Newton call and mu_candidates call there
        # (17 steps on the psd(6) instance)
        assert calls == {
            "eigh": 1 + steps, "eigvalsh": 1 + steps, "_map_run": (2 + steps) * len(prob.cone.runs),
            "require_interior": 1,
        }, prob.cone


def test_centering_test_decomposes_no_direction(problem, monkeypatch):
    w = random_interior(PSD6, np.random.default_rng(5))
    _, calls = _counted(monkeypatch, lambda: S.ScaledFrame(problem, w).newton(0.7).h_ub)
    # the eigh of w and the eigvalsh of ||s||_inf; d is not decomposed
    assert calls == {"eigh": 1, "eigvalsh": 1}


def test_geometry_and_checked_maps_decompose_once(monkeypatch):
    rng = np.random.default_rng(3)
    w, z = random_interior(PSD6, rng), random_interior(PSD6, rng)
    d = random_element(PSD6, rng)

    def ray_and_two_points():
        r = G.ray(w, d)
        return G.geodesic_point(r, 0.5), G.geodesic_point(r, -1.0)

    for run in (ray_and_two_points, lambda: G.divergence(w, z)):
        _, calls = _counted(monkeypatch, run)
        assert calls == {"eigh": 2, "eigvalsh": 0}
    _, calls = _counted(monkeypatch, lambda: J.sqrt(w))
    assert calls == {"eigh": 1, "eigvalsh": 0}


def test_feasible_point_reuses_the_frame(problem, monkeypatch):
    nd, _ = V.longstep(problem, J.identity(problem.cone), MU0, MU_F)
    nd.norm_d_inf  # decompose d before counting, as a step taken from nd would
    pair, calls = _counted(monkeypatch, nd.pair)
    assert pair is not None
    assert calls["eigh"] == 0


def test_solve_reads_the_last_frame_of_longstep(problem, tmp_path, monkeypatch):
    path = tmp_path / "p.json"
    io.save_problem(problem, path)
    loaded = io.load_problem(path)
    trackers = {
        "long": lambda: V.longstep(loaded, J.identity(loaded.cone), MU0, MU_F),
        "short": lambda: V.shortstep(
            loaded, V.oracle_center(loaded, MU0), MU0, MU_F, V.shortstep_params(0.5, 1e-4, loaded.cone.rank)
        ),
    }
    for algo, tracker in trackers.items():
        argv = ["solve", "--input", str(path), "--algo", algo, "--feasible-out", str(tmp_path / "pair.json")]
        rc, cli_calls = _counted(monkeypatch, lambda: cli.solve_cli(argv), KERNELS)
        assert rc == 0
        _, calls = _counted(monkeypatch, tracker, KERNELS)
        # beyond the tracker (with the oracle's centering for short steps): the
        # eigh of the final d (||d||_inf and the pair) and the anchor maps T and
        # (T^{-1})* for x and s; h_ub is read off the returned Newton data,
        # whose g_w the last damped test of a long-step run has decomposed and
        # a short-step run, which reads no bound, has not
        extra = {name: cli_calls[name] - calls[name] for name in calls}
        eigvalsh = {"long": 0, "short": 1}[algo]
        assert extra == {"eigh": 1, "eigvalsh": eigvalsh, "_map_run": 2, "require_interior": 0}, algo


def test_operator_form_newton_quad_rep_calls(problem, monkeypatch):
    for prob in (S.as_operator_form(problem), problem):
        _, calls = _counted(
            monkeypatch, lambda: S.ScaledFrame(prob, J.identity(prob.cone)).newton(0.7), KERNELS
        )
        # T^{-1} and T* once each, one of them on the whole spanning set
        assert calls["_map_run"] == 2, type(prob.form).__name__


def test_frame_spans_the_smaller_side_whatever_the_form():
    # fig3 psd(20): N = 210 and dim L = 10, so L-perp has 200 dimensions; the
    # operator form states L-perp, and the basis form of the operator form's
    # dual spans it, yet every frame carries the 10 columns of the smaller
    # side, in frame coordinates (the full 20 x 20 matrix, 400 rows)
    problem = _fig3_instance(20)
    op = S.as_operator_form(problem)
    op_dual = op.dual()
    w = J.identity(problem.cone)
    for prob in (problem, op, problem.dual(), S.ConicProblem(op_dual.cone, op_dual.form)):
        assert S.ScaledFrame(prob, w).basis.shape == (400, 10), type(prob.form).__name__


def test_operator_form_complement_spans_symmetric_directions():
    # the complete-QR complement is taken in the N = 210 svec coordinates of
    # psd(20): 200 columns; in the 400 frame coordinates it would also span
    # the 190 antisymmetric directions (390 columns)
    problem = _fig3_instance(20)
    assert len(S.as_operator_form(problem).form.columns) == 200


def test_one_projection_per_newton_call(problem, monkeypatch):
    calls = []

    def counted(self, z, onto_lw, _fn=S.ScaledFrame._project):
        calls.append(1)
        return _fn(self, z, onto_lw)

    monkeypatch.setattr(S.ScaledFrame, "_project", counted)
    frame = S.ScaledFrame(problem, J.identity(problem.cone))
    nd = frame.newton(0.7)
    frame.newton(0.5).h_ub
    S.mu_candidates(frame, 0.5, 100.0)
    # g_w's projection only: the bounds and mu-selection project nothing
    assert len(calls) == 1
    nd.d_f, nd.d
    assert len(calls) == 2


def test_one_factorization_per_problem(monkeypatch):
    """A problem factors its N-row spanning set once, with one QR: the basis
    form at load, the operator form at first use.  The representation, the
    affine residuals, the dual and frames at e read that factor; a frame's
    own QR of its mapped span has D = 400 rows (fig3 psd(20), N = 210)."""
    problem = _fig3_instance(20)
    n = problem.cone.dim
    e = J.identity(problem.cone)
    calls = []
    for name in ("qr", "svd", "lstsq"):
        def counted(a, *args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            if n in np.shape(a):
                calls.append(_name)
            return _fn(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    for form in (problem.form, S.as_operator_form(problem).form):
        calls.clear()
        prob = S.ConicProblem(problem.cone, form)
        S.ScaledFrame(prob, e)
        S.affine_residuals(prob, prob.x0, prob.s0)
        S.ScaledFrame(prob.dual(), e)
        assert calls == ["qr"], type(form).__name__


@pytest.mark.parametrize("form", ["basis", "operator"])
def test_a_fresh_frame_makes_no_svd(monkeypatch, form):
    """The interior test of w is a fresh frame's one conditioning guard: a
    frame of a problem that has taken its rank test orthonormalizes its
    mapped span by one QR and makes no SVD."""
    problem = _fig3_instance(10)
    problem = S.as_operator_form(problem) if form == "operator" else problem
    problem._representation  # the problem's rank test, at load or first use
    w = random_interior(problem.cone, np.random.default_rng(7))
    _, calls = _counted(monkeypatch, lambda: S.ScaledFrame(problem, w), ((np.linalg, "svd"), (np.linalg, "qr")))
    assert calls == {"svd": 0, "qr": 1}


def _fig3_instance(n):
    return generate.generate_random_sdp(n, 10, trial_seed(0, n, 0))


def test_oracle_center_from_far_start_is_short(monkeypatch):
    calls = []

    def counted(self, mu, _fn=S.ScaledFrame.newton):
        calls.append(1)
        return _fn(self, mu)

    problem = _fig3_instance(20)
    monkeypatch.setattr(S.ScaledFrame, "newton", counted)
    V.oracle_center(problem, MU0)
    # long steps from the scale-matched mu*: 44 calls, where centering at
    # MU0 from the identity takes 354
    assert len(calls) <= 60


def test_oracle_center_converges_from_far_start_on_psd60():
    problem = _fig3_instance(60)
    w = V.oracle_center(problem, MU0)
    assert S.newton_direction(problem, w, MU0).h_ub <= V.ORACLE_EPS
