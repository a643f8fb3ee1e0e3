"""Deep mu: both trackers carry the fig3 SDPs down to mu_f = 1e-8 and 1e-12.

Each run must end without error at mu <= mu_f with h_ub <= eps in the
frame the tracker returns, and the pair extracted in that frame must lie in
the affine sets to a stated relative residual.  ``shortstep`` starts from
the centering oracle at mu0 = 1, ``longstep`` from the identity; the fig3
instances are ``psd(20)``, dim L = 10, t = 0..3, plus the ``psd(60)``
instance of ``geoipm gen --n 60 --dim-l 10 --seed 5``.
"""

import functools

import pytest

from geoipm import jordan as J
from geoipm import solver as V
from geoipm import subspace as S
from geoipm.harness import generate
from geoipm.harness.experiments import trial_seed

MU0 = 1.0
# the largest relative affine residual of the extracted pair, per mu_f
RESIDUAL_TOL = {1e-8: 1e-9, 1e-12: 1e-8}
FIG3_CASES = [(f"fig3-t{t}", mu_f) for t in range(4) for mu_f in sorted(RESIDUAL_TOL)]


@functools.lru_cache(maxsize=None)
def _problem(name):
    if name == "gen60-seed5":
        return generate.generate_random_sdp(60, 10, 5)
    return generate.generate_random_sdp(20, 10, trial_seed(0, 20, int(name[-1])))


@functools.lru_cache(maxsize=None)
def _oracle_start(name):
    return V.oracle_center(_problem(name), MU0)


def _check(problem, state, eps, mu_f):
    assert state.mu <= mu_f
    assert state.h_ub <= eps
    pair = S.feasible_point(problem, state.w, state.mu, nd=state)
    assert pair is not None
    x, s = pair
    rp, rd = S.affine_residuals(problem, x, s)
    rel = max(rp / max(1.0, J.norm2(x)), rd / max(1.0, J.norm2(s)))
    assert rel <= RESIDUAL_TOL[mu_f]


@pytest.mark.parametrize("name, mu_f", FIG3_CASES + [("gen60-seed5", 1e-8)])
def test_shortstep_reaches_deep_mu(name, mu_f):
    problem = _problem(name)
    params = V.shortstep_params(0.5, 1e-4, problem.cone.rank)
    state, _ = V.shortstep(problem, _oracle_start(name), MU0, mu_f, params)
    _check(problem, state, params.eps, mu_f)


@pytest.mark.parametrize("name, mu_f", FIG3_CASES)
def test_longstep_reaches_deep_mu(name, mu_f):
    problem = _problem(name)
    params = V.LongStepParams()
    state, _ = V.longstep(problem, J.identity(problem.cone), MU0, mu_f, params)
    _check(problem, state, params.eps, mu_f)
