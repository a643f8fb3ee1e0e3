"""Deep mu and far starts: ``solve`` on the fig3 SDPs.

Deep mu: both trackers carry the fig3 SDPs down to mu_f = 1e-8 and 1e-12.
Each run must converge at mu <= mu_f, which means h_ub <= eps in the frame
the tracker returns and a pair extracted in that frame within
``solver.RESIDUAL_TOL`` of the affine sets; here the pair must also meet a
tighter relative residual per mu_f.  ``shortstep`` starts from the
centering oracle at mu0 = 1, ``longstep`` from the identity; the fig3
instances are ``psd(20)``, dim L = 10, t = 0..3, plus the ``psd(60)``
instance of ``geoipm gen --n 60 --dim-l 10 --seed 5``.

Far starts: ``longstep`` from the identity at its scale-matched mu* down to
mu_f = 1.
"""

import functools

import pytest

from geoipm import jordan as J
from geoipm import solver as V
from geoipm import subspace as S
from geoipm.errors import NumericalFailureError
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


def _check(result, mu_f):
    assert result.status == V.CONVERGED, result.error
    assert result.nd.mu <= mu_f
    assert max(result.residuals) <= RESIDUAL_TOL[mu_f]


@pytest.mark.parametrize("name, mu_f", FIG3_CASES + [("gen60-seed5", 1e-8)])
def test_shortstep_reaches_deep_mu(name, mu_f):
    problem = _problem(name)
    params = V.shortstep_params(0.5, 1e-4, problem.cone.rank)
    _check(V.solve(problem, _oracle_start(name), MU0, mu_f, params), mu_f)


@pytest.mark.parametrize("name, mu_f", FIG3_CASES)
def test_longstep_reaches_deep_mu(name, mu_f):
    problem = _problem(name)
    _check(V.solve(problem, J.identity(problem.cone), MU0, mu_f, V.LongStepParams()), mu_f)


@pytest.mark.parametrize("n, status, steps", [(20, V.CONVERGED, 27), (60, V.NUMERICAL_FAILURE, 57)])
def test_far_start_is_converged_only_with_its_pair(n, status, steps):
    """fig3 psd(n) trial 0 from e at mu* = scale_matched_mu (about 1.96e9
    at n = 60) to mu_f = 1: both runs stop with h_ub <= eps, but at n = 60
    the pair misses s0 + L-perp by 5.8e-8 relative, so the run is a
    numerical failure, not converged."""
    problem = generate.generate_random_sdp(n, 10, trial_seed(0, n, 0))
    e = J.identity(problem.cone)
    mu_star = S.scale_matched_mu(S.ScaledFrame(problem, e))
    params = V.LongStepParams(clamp_mu_f=True)
    result = V.solve(problem, e, mu_star, 1.0, params)
    assert result.status == status
    assert result.trace.newton_steps == steps
    assert result.nd.h_ub <= params.eps and result.pair is not None
    rel_p, rel_d = result.residuals
    assert rel_p <= V.RESIDUAL_TOL
    if status == V.CONVERGED:
        assert result.error is None and rel_d <= V.RESIDUAL_TOL
    else:
        assert rel_d == pytest.approx(5.8e-8, rel=0.05)
        assert isinstance(result.error, NumericalFailureError)
        assert str(result.error).startswith("relative affine residuals")
        assert result.error.trace is result.trace and result.error.iterate is result.nd
