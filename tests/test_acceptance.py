"""Acceptance criteria: one test per criterion, at the stated tolerances.

The conftest hook prints a visible [acceptance] PASS/FAIL line per test.
"""

import math

import numpy as np
import pytest

from geoipm import geometry as G
from geoipm import jordan as J
from geoipm import solver as V
from geoipm import subspace as S
from geoipm.harness import generate
from geoipm.harness.experiments import trial_seed

from util import (
    FAMILIES,
    assert_elem_close,
    lp_newton_oracle,
    perturb_to_distance,
    perturb_to_divergence,
    random_basis_problem,
    random_element,
    random_interior,
)


def test_criterion_1_algebra_identity_suite():
    """Quadratic-representation and orthogonal-automorphism identities,
    >= 50 random elements per cone family at relative tolerance 1e-10."""
    rng = np.random.default_rng(1001)
    for name, cone in FAMILIES.items():
        e = J.identity(cone)
        for _ in range(50):
            w = random_interior(cone, rng, spread=0.6)
            z = random_interior(cone, rng, spread=0.6)
            probe = random_element(cone, rng)
            T = J.random_automorphism(cone, rng)
            M = J.random_automorphism(cone, rng, orthogonal=True)

            # inverse operator: Q(w)^{-1} = Q(w^{-1})
            assert_elem_close(
                J.quad_rep(J.inverse(w), J.quad_rep(w, probe)), probe, 1e-10, f"{name} Q^-1"
            )
            # inverse image: (Q(w) z)^{-1} = Q(w^{-1}) z^{-1}
            assert_elem_close(
                J.inverse(J.quad_rep(w, z)),
                J.quad_rep(J.inverse(w), J.inverse(z)),
                1e-10,
                f"{name} (Qz)^-1",
            )
            # automorphism conjugation: Q(Tw) = T Q(w) T*
            assert_elem_close(
                J.quad_rep(J.apply_automorphism(T, w), probe),
                J.apply_automorphism(T, J.quad_rep(w, J.apply_adjoint(T, probe))),
                1e-10,
                f"{name} Q(Tw)",
            )
            # squaring: Q(w)^2 = Q(w^2)
            assert_elem_close(
                J.quad_rep(w, J.quad_rep(w, probe)),
                J.quad_rep(J.circ(w, w), probe),
                1e-10,
                f"{name} Q(w)^2",
            )
            # identity image: Q(w) e = w^2
            assert_elem_close(J.quad_rep(w, e), J.circ(w, w), 1e-10, f"{name} Q(w)e")
            # self-adjointness
            probe2 = random_element(cone, rng)
            lhs = J.inner(J.quad_rep(w, probe), probe2)
            rhs = J.inner(probe, J.quad_rep(w, probe2))
            assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(rhs))

            # orthogonal automorphisms: idempotents, spectra, exp all commute
            x = random_element(cone, rng)
            sd = J.spectral(x)
            mx = J.apply_automorphism(M, x)
            recon = J.zero(cone)
            for lam, f in zip(sd.eigenvalues, sd.frame):
                mf = J.apply_automorphism(M, f)
                assert_elem_close(J.circ(mf, mf), mf, 1e-10, f"{name} M idempotent")
                recon = recon + float(lam) * mf
            assert_elem_close(recon, mx, 1e-10, f"{name} M spectral map")
            assert_elem_close(
                J.exp(mx), J.apply_automorphism(M, J.exp(x)), 1e-10, f"{name} exp(Mx)"
            )
            assert_elem_close(J.apply_automorphism(M, e), e, 1e-10, f"{name} Me = e")


def test_criterion_2_central_path_divergence_identity():
    """(1/n) h between oracle-centered points at mu and mu/4 equals
    q(0.5 log 4) = 1/2 within 1e-6, on 5 random SDPs (n = 10, dim L = 10)."""
    expect = G.q_fn(0.5 * math.log(4.0))
    for seed in range(5):
        prob = generate.generate_random_sdp(10, 10, seed=2000 + seed)
        n = prob.cone.rank
        w_a = V.oracle_center(prob, 1.0)
        w_b = V.oracle_center(prob, 0.25, warm=w_a)
        got = G.divergence(w_a, w_b) / n
        assert abs(got - expect) <= 1e-6


def test_criterion_3_sandwich_bounds():
    """delta^2 <= h <= q(delta) with slack >= -1e-9 on 300 random pairs."""
    rng = np.random.default_rng(1003)
    for cone in FAMILIES.values():
        for _ in range(75):
            z0 = random_interior(cone, rng)
            z1 = random_interior(cone, rng)
            delta = G.geodesic_distance(z0, z1)
            h = G.divergence(z0, z1)
            assert h - delta ** 2 >= -1e-9
            assert G.q_fn(delta) - h >= -1e-9


def test_criterion_4_quadratic_convergence():
    """From 20 starts with oracle-measured h in [0.1, 0.5], full Newton
    steps satisfy h_{i+1} <= h_i^2 + 1e-9 down to h < 1e-10."""
    rng = np.random.default_rng(1004)
    instances = [
        generate.generate_random_sdp(8, 10, seed=4100),
        generate.generate_random_sdp(6, 10, seed=4200),
        random_basis_problem(FAMILIES["mixed"], 4, rng),
        random_basis_problem(FAMILIES["orthant"], 3, rng),
    ]
    starts = 0
    for prob in instances:
        mu = 1.0
        w_hat = V.oracle_center(prob, mu)
        for _ in range(5):
            target = float(rng.uniform(0.12, 0.48))
            w = perturb_to_divergence(w_hat, rng, target)
            h = G.divergence(w, w_hat)
            assert 0.1 <= h <= 0.5
            for _ in range(60):
                if h < 1e-10:
                    break
                nd = S.newton_direction(prob, w, mu)
                w = G.geodesic_point(G.ray(w, nd.d), 1.0)
                h_next = G.divergence(w, w_hat)
                assert h_next <= h * h + 1e-9
                h = h_next
            assert h < 1e-10
            starts += 1
    assert starts == 20


def test_criterion_5_shortstep_budget():
    """(beta, eps) = (1/2, 1e-4), n in {5, 10, 20}, mu0/mu_f = 1024,
    oracle-centered start: executed steps match the outer-loop formula,
    stay within the sqrt(n) budget, and the output is 1e-4-accurate."""
    mu0 = 1.0
    mu_f = mu0 / 1024.0
    for n, seed in ((5, 5100), (10, 5200), (20, 5300)):
        prob = generate.generate_random_sdp(n, 10, seed=seed)
        params = V.shortstep_params(0.5, 1e-4, n)
        w0 = V.oracle_center(prob, mu0)
        state, trace = V.shortstep(prob, w0, mu0, mu_f, params)
        outers = params.outer_iterations(mu0, mu_f)
        assert trace.newton_steps == params.m * outers
        assert trace.newton_steps <= params.newton_step_budget(mu0, mu_f)
        assert state.mu <= mu_f
        w_hat = V.oracle_center(prob, state.mu, warm=state.w)
        assert G.geodesic_distance(state.w, w_hat) <= 1e-4


def test_criterion_6_longstep_dominance():
    """Defaults (beta, alpha, eps, gamma) = (100, 10, 1e-4, 1/2): longstep
    beats shortstep on every instance, mu is monotone, shortstep counts are
    instance-independent, and the longstep per-n std-dev is below one
    (std computed over twenty instances, the reported sample size)."""
    mu0 = 1.0
    mu_f = mu0 / 1024.0
    long_params = V.LongStepParams(beta=100.0, alpha=10.0, eps=1e-4, gamma=0.5)
    for n in (10, 20, 30):
        short_counts = []
        long_counts = []
        params = V.shortstep_params(0.5, 1e-4, n)
        for trial in range(20):
            prob = generate.generate_random_sdp(n, 10, seed=6000 + 10 * n + trial)
            w0 = V.oracle_center(prob, mu0)
            state, ltrace = V.longstep(prob, w0, mu0, mu_f, long_params)
            long_counts.append(ltrace.newton_steps)
            mus = ltrace.mu_values()
            assert all(m1 >= m2 for m1, m2 in zip(mus, mus[1:]))
            outer_mus = [snap.mu for snap in ltrace.snapshots]
            assert all(m1 > m2 for m1, m2 in zip(outer_mus, outer_mus[1:]))
            assert state.mu <= mu_f
            if trial < 5:
                _, strace = V.shortstep(prob, w0, mu0, mu_f, params)
                assert ltrace.newton_steps < strace.newton_steps
                short_counts.append(strace.newton_steps)
        assert len(set(short_counts)) == 1
        assert float(np.std(long_counts)) < 1.0


def test_criterion_7_route_equivalence():
    """Basis and operator Newton directions agree to 1e-8 on 20 instances;
    the log-domain dense-solve oracle agrees to 1e-10 on 20 LP instances."""
    rng = np.random.default_rng(1007)
    families = list(FAMILIES.values())
    for i in range(20):
        cone = families[i % len(families)]
        prob = random_basis_problem(cone, 3, rng)
        op = S.as_operator_form(prob)
        w = random_interior(cone, rng)
        mu = float(rng.uniform(0.3, 2.0))
        nd_b = S.newton_direction(prob, w, mu)
        nd_o = S.newton_direction(op, w, mu)
        assert_elem_close(nd_b.d, nd_o.d, 1e-8, "route equivalence")

    orth = FAMILIES["orthant"]
    for _ in range(20):
        prob = random_basis_problem(orth, 3, rng)
        w = random_interior(orth, rng)
        mu = float(rng.uniform(0.3, 2.0))
        nd = S.newton_direction(prob, w, mu)
        assert_elem_close(nd.d, lp_newton_oracle(prob, w, mu), 1e-10, "LP log-domain")


def test_criterion_8_longstep_scale_invariance():
    """Full longstep runs commute with random cone automorphisms: final
    iterates match under T to 1e-6 relative, 5 instances per cone family."""
    for index, cone in enumerate(FAMILIES.values()):
        rng = np.random.default_rng(8000 + index)
        for trial in range(5):
            prob = random_basis_problem(cone, 3, rng)
            T = J.random_automorphism(cone, rng)
            w0 = random_interior(cone, rng)
            state, trace = V.longstep(prob, w0, 1.0, 1.0 / 128.0)
            state_t, trace_t = V.longstep(
                S.transform_problem(prob, T), J.apply_automorphism(T, w0), 1.0, 1.0 / 128.0
            )
            assert trace_t.newton_steps == trace.newton_steps
            assert state_t.mu == pytest.approx(state.mu, rel=1e-9)
            expected = J.apply_automorphism(T, state.w)
            err = J.norm2(state_t.w - expected) / max(1.0, J.norm2(expected))
            assert err <= 1e-6


def test_criterion_9_feasible_point_extraction():
    """On every longstep outer iterate with ||d||_inf <= 1 the extracted
    pair is feasible to 1e-8 / -1e-10 and the gap is positive and
    decreasing with mu."""
    prob = generate.generate_random_sdp(10, 10, seed=9000)
    w0 = J.identity(prob.cone)
    state, trace = V.longstep(prob, w0, 1.0, 1.0 / 1024.0)
    gaps = []
    extracted = 0
    for snap in trace.snapshots:
        nd = S.newton_direction(prob, snap.w, snap.mu)
        if nd.norm_d_inf > 1.0:
            continue
        pair = nd.pair()
        assert pair is not None
        x, s = pair
        rp, rd = S.affine_residuals(prob, x, s)
        assert rp <= 1e-8 and rd <= 1e-8
        assert J.min_eigenvalue(x) >= -1e-10
        assert J.min_eigenvalue(s) >= -1e-10
        gap = S.duality_gap(x, s)
        assert gap > 0.0
        gaps.append((snap.mu, gap))
        extracted += 1
    assert extracted >= 3
    for (mu1, g1), (mu2, g2) in zip(gaps, gaps[1:]):
        if mu2 < mu1:
            assert g2 < g1


def test_criterion_10_bound_correctness_and_derivative():
    """h_lb <= h <= h_ub with the (1+s)/(1-s) relative-error chain on 50
    oracle-centered draws; f'(0) = -(f(0) + ||d||^2) to 1e-5 relative."""
    rng = np.random.default_rng(1010)
    checked = 0
    while checked < 50:
        cone = list(FAMILIES.values())[checked % len(FAMILIES)]
        prob = random_basis_problem(cone, 3, rng)
        mu = float(rng.uniform(0.3, 2.0))
        w_hat = V.oracle_center(prob, mu)
        w = perturb_to_distance(w_hat, rng, float(rng.uniform(0.1, 0.9)))
        nd = S.newton_direction(prob, w, mu)
        h = G.divergence(w, w_hat)
        assert nd.h_lb <= h + 1e-9
        if math.isfinite(nd.h_ub):
            assert h <= nd.h_ub + 1e-9
            k = (1.0 + nd.sum_inf) / (1.0 - nd.sum_inf)
            assert nd.h_lb >= h / k - 1e-9
            assert nd.h_ub <= k * h + 1e-9

        r = G.ray(w, nd.d)
        step = 1e-5
        fd = (G.divergence_profile(r, step, w_hat) - G.divergence_profile(r, -step, w_hat)) / (
            2.0 * step
        )
        expect = -(h + nd.norm_d ** 2)
        assert abs(fd - expect) <= 1e-5 * max(1.0, abs(expect))
        checked += 1
    assert checked == 50


def _symmetric_runs(prob, w_short, w_long, mu_f):
    """Worst relative distance of the dual runs from w^{-1}, after checking
    that shortstep from ``w_short`` and longstep from ``w_long`` take the
    same steps on the problem and on its dual started from the inverses."""
    dual = prob.dual()
    params = V.shortstep_params(0.5, 1e-4, prob.cone.rank)
    worst = 0.0
    for run, w0 in (
        (lambda p, w: V.shortstep(p, w, 1.0, mu_f, params), w_short),
        (lambda p, w: V.longstep(p, w, 1.0, mu_f), w_long),
    ):
        state, trace = run(prob, w0)
        state_d, trace_d = run(dual, J.inverse(w0))
        assert trace_d.newton_steps == trace.newton_steps
        assert state_d.mu == pytest.approx(state.mu, rel=1e-9)
        w_inv = J.inverse(state.w)
        worst = max(worst, J.norm2(state_d.w - w_inv) / J.norm2(w_inv))
    return worst


def test_criterion_11_primal_dual_symmetry():
    """The dual problem (x0 <-> s0, L <-> L-perp) started from w0^{-1} takes
    the same steps under shortstep and longstep and returns w^{-1}: to 1e-8
    relative on every cone family, in both input forms, and to 5e-8 on the
    fig3 psd(20) instances t = 0..3 at mu_f = 1/1024, where cond(w) is about
    1e9."""
    mu_f = 1.0 / 1024.0
    for index, cone in enumerate(FAMILIES.values()):
        rng = np.random.default_rng(11000 + index)
        for _ in range(2):
            prob = random_basis_problem(cone, 3, rng)
            for p in (prob, S.as_operator_form(prob)):
                err = _symmetric_runs(p, V.oracle_center(p, 1.0), random_interior(cone, rng), mu_f)
                assert err <= 1e-8
    for t in range(4):
        prob = generate.generate_random_sdp(20, 10, trial_seed(0, 20, t))
        err = _symmetric_runs(prob, V.oracle_center(prob, 1.0), J.identity(prob.cone), mu_f)
        assert err <= 5e-8

