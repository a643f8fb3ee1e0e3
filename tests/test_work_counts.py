"""Work per Newton step on a single psd block: eigensolver and Q(w) kernel calls.

Each iterate is decomposed once (w^{1/2}, w^{-1/2} and the interior test
share one ``eigh``) and each geodesic step takes one ``exp`` (one ``eigh``);
the two ``eigvalsh`` calls per Newton step are ||d||_inf and ||d1 + d2||_inf.
A Newton step in either problem form applies the ``quad_rep_columns``
kernel three times: once to the whole spanning set of L or L-perp (the
projector pair) and, through ``quad_rep``, once each for u_p and u_d.  A
frame projects once for g_w and once per ``newton(mu)``; ``mu_candidates``
reads g_w only.
"""

import numpy as np
import pytest

from geoipm import jordan as J
from geoipm import solver as V
from geoipm import subspace as S

from util import PSD6, random_basis_problem

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


def test_shortstep_two_eigh_two_eigvalsh_per_step(problem, monkeypatch):
    w0 = V.oracle_center(problem, MU0)
    params = V.shortstep_params(0.5, 1e-4, problem.cone.rank)
    (_, trace), calls = _counted(
        monkeypatch, lambda: V.shortstep(problem, w0, MU0, MU_F, params)
    )
    steps = trace.newton_steps
    assert steps > 0
    assert calls == {"eigh": 2 * steps, "eigvalsh": 2 * steps}


def test_longstep_one_decomposition_per_iterate(problem, monkeypatch):
    (_, trace), calls = _counted(
        monkeypatch, lambda: V.longstep(problem, J.identity(problem.cone), MU0, MU_F)
    )
    # one decomposition per iterate (the start and each step's result) plus one exp per step
    assert calls["eigh"] == 2 * trace.newton_steps + 1


def test_feasible_point_reuses_the_frame(problem, monkeypatch):
    state, _ = V.longstep(problem, J.identity(problem.cone), MU0, MU_F)
    nd = S.newton_direction(problem, state.w, state.mu)
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

    def counted(self, z, _fn=S.ProjectorPair._split):
        calls.append(1)
        return _fn(self, z)

    monkeypatch.setattr(S.ProjectorPair, "_split", counted)
    frame = S.ScaledFrame(problem, J.identity(problem.cone))
    frame.newton(0.7)
    frame.newton(0.5)
    S.mu_candidates(frame, 0.5, 100.0)
    assert len(calls) == 3
