"""Work per Newton step on a single psd block: eigensolver and Q(w) kernel calls.

Each element is decomposed once per use.  Each iterate takes one ``eigh``
(w^{1/2}, w^{-1/2} and the interior test share it), and each Newton call
takes one ``eigvalsh`` for ||d1 + d2||_inf, which with ||d|| gives h_ub.
d is decomposed, by one ``eigh``, only when a step reads its spectrum:
that ``eigh`` gives ||d||_inf, t_max and the spectrum the geodesic step
maps exp(t lambda) on, so a call that only tests h_ub takes none.  A
geodesic ray decomposes its base and its direction once each, and its points
decompose nothing; the divergence decomposes each argument once; a checked
map such as ``sqrt`` tests the eigenvalues of the ``eigh`` it maps.
A Newton step in either problem form applies the ``quad_rep_columns``
kernel three times: once to the whole spanning set of L or L-perp (the
projector pair) and, through ``quad_rep``, once each for u_p and u_d.  A
frame projects once for g_w and once per ``newton(mu)``; ``mu_candidates``
reads g_w only.
"""

import numpy as np
import pytest

from geoipm import geometry as G
from geoipm import jordan as J
from geoipm import solver as V
from geoipm import subspace as S

from util import PSD6, random_basis_problem, random_element, random_interior

MU0 = 1.0
MU_F = MU0 / 1024.0


def _counted(monkeypatch, run):
    """Run ``run()`` with numpy's eigh/eigvalsh counted; returns (result, counts)."""
    calls = dict.fromkeys(("eigh", "eigvalsh"), 0)
    for name in calls:
        def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    try:
        return run(), calls
    finally:
        monkeypatch.undo()


@pytest.fixture(scope="module")
def problem():
    return random_basis_problem(PSD6, 3, np.random.default_rng(17))


def test_shortstep_two_eigh_one_eigvalsh_per_step(problem, monkeypatch):
    w0 = V.oracle_center(problem, MU0)
    params = V.shortstep_params(0.5, 1e-4, problem.cone.rank)
    (_, trace), calls = _counted(
        monkeypatch, lambda: V.shortstep(problem, w0, MU0, MU_F, params)
    )
    steps = trace.newton_steps
    assert steps > 0
    assert calls == {"eigh": 2 * steps, "eigvalsh": steps}


def test_longstep_one_decomposition_per_iterate(problem, monkeypatch):
    (_, trace), calls = _counted(
        monkeypatch, lambda: V.longstep(problem, J.identity(problem.cone), MU0, MU_F)
    )
    steps = trace.newton_steps
    # every centering pass ends with a Newton call that takes no step, and
    # each pass but the last is followed by one mu_candidates call
    passes = len(trace.snapshots)
    newton_calls = steps + passes
    # one eigh per iterate (the start and each step's result) and per step
    # taken; eigvalsh for ||s||_inf and in mu_candidates (35 and 34 here)
    assert calls["eigh"] == (steps + 1) + steps
    assert calls["eigvalsh"] == newton_calls + (passes - 1)


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
    state, _ = V.longstep(problem, J.identity(problem.cone), MU0, MU_F)
    nd = S.newton_direction(problem, state.w, state.mu)
    nd.norm_d_inf  # decompose d before counting, as a step taken from nd would
    pair, calls = _counted(
        monkeypatch, lambda: S.feasible_point(problem, state.w, state.mu, nd=nd)
    )
    assert pair is not None
    assert calls["eigh"] == 0


def test_operator_form_newton_quad_rep_calls(problem, monkeypatch):
    calls = []

    def counted(*args, _fn=J.quad_rep_columns, **kwargs):
        calls.append(1)
        return _fn(*args, **kwargs)

    monkeypatch.setattr(J, "quad_rep_columns", counted)
    for prob in (S.as_operator_form(problem), problem):
        calls.clear()
        S.ScaledFrame(prob, J.identity(prob.cone)).newton(0.7)
        # one for the whole spanning set, one each (through quad_rep) for u_p and u_d
        assert len(calls) == 3, prob.is_basis_form


def test_one_projection_per_newton_call(problem, monkeypatch):
    calls = []

    def counted(self, z, _fn=S.ScaledFrame._split):
        calls.append(1)
        return _fn(self, z)

    monkeypatch.setattr(S.ScaledFrame, "_split", counted)
    frame = S.ScaledFrame(problem, J.identity(problem.cone))
    frame.newton(0.7)
    frame.newton(0.5)
    S.mu_candidates(frame, 0.5, 100.0)
    assert len(calls) == 3
