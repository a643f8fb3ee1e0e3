"""Shared test helpers: cone families, random data, independent oracles."""

from __future__ import annotations

import math

import numpy as np
import scipy.linalg

from geoipm import geometry, jordan
from geoipm.jordan import ConeDescriptor, Orthant, Psd, SecondOrder
from geoipm.subspace import BasisForm, ConicProblem, OperatorForm

ORTHANT8 = ConeDescriptor((Orthant(8),))
SOC6 = ConeDescriptor((SecondOrder(6),))
PSD6 = ConeDescriptor((Psd(6),))
MIXED = ConeDescriptor((Orthant(3), SecondOrder(4), Psd(3)))
FAMILIES = {"orthant": ORTHANT8, "soc": SOC6, "psd": PSD6, "mixed": MIXED}


def random_element(cone, rng, scale=1.0):
    return jordan.element(cone, scale * rng.standard_normal(cone.dim))


def random_interior(cone, rng, spread=0.8):
    return jordan.exp(random_element(cone, rng, spread))


def random_basis_problem(cone, dim_l, rng, spread=0.7):
    """Strictly feasible basis-form instance on an arbitrary cone."""
    x0 = jordan.exp(random_element(cone, rng, spread))
    s0 = jordan.exp(random_element(cone, rng, spread))
    basis = tuple(random_element(cone, rng) for _ in range(dim_l))
    return ConicProblem(cone, BasisForm(x0=x0, s0=s0, basis=basis))


def no_interior_psd3():
    """psd(3) in operator form with columns E_00 and I, b = (0, 1) and
    c = diag(1, 2, 3): the primal set {X psd : X_00 = 0, tr X = 1} has no
    interior, so damped steps at mu = 1 drive the frame's anchor to overflow."""
    cone = ConeDescriptor((Psd(3),))
    e00 = np.zeros((3, 3))
    e00[0, 0] = 1.0
    columns = (jordan.from_blocks(cone, [e00]), jordan.identity(cone))
    c = jordan.from_blocks(cone, [np.diag([1.0, 2.0, 3.0])])
    return ConicProblem(cone, OperatorForm(columns=columns, B=[], b=[0.0, 1.0], c=c, g=[]))


def assert_elem_close(a, b, rtol, what=""):
    err = jordan.norm2(a - b)
    ref = max(1.0, jordan.norm2(b))
    assert err <= rtol * ref, f"{what}: |a-b| = {err:.3e} > {rtol:.1e} * {ref:.3e}"


def assert_frame_close(a, b, rtol, what=""):
    """``assert_elem_close`` for frame coordinates, whose dot product is the
    trace inner product."""
    err = float(np.linalg.norm(a - b))
    ref = max(1.0, float(np.linalg.norm(b)))
    assert err <= rtol * ref, f"{what}: |a-b| = {err:.3e} > {rtol:.1e} * {ref:.3e}"


def rel_err(a, b):
    return jordan.norm2(a - b) / max(1.0, jordan.norm2(b))


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def lp_newton_oracle(problem, w, mu):
    """Log-domain Newton direction for orthant problems via a dense solve.

    Solves the linearized conditions w + w*d in x0/sqrt(mu) + L and
    1/w - d/w in s0/sqrt(mu) + L-perp directly in coordinates, without any
    of the package's projection machinery.
    """
    cone = problem.cone
    assert all(isinstance(b, Orthant) for b in cone.blocks)
    n = cone.dim
    f = problem.form
    ell = len(f.basis)
    if ell:
        q, _ = np.linalg.qr(np.column_stack([l.coords for l in f.basis]), mode="complete")
        U, V = q[:, :ell], q[:, ell:]
    else:
        U, V = np.zeros((n, 0)), np.eye(n)
    wv = w.coords
    sqrt_mu = math.sqrt(mu)
    top = V.T * wv  # V^T diag(w)
    bot = U.T / wv  # U^T diag(1/w)
    rhs_top = V.T @ (f.x0.coords / sqrt_mu - wv)
    rhs_bot = -(U.T @ (f.s0.coords / sqrt_mu - 1.0 / wv))
    d = np.linalg.solve(np.vstack([top, bot]), np.concatenate([rhs_top, rhs_bot]))
    return jordan.element(cone, d)


def fig1_point_oracle(w, d, t):
    """Geodesic point via the blockwise specialized closed forms.

    Orthant: exp(log w + t d); PSD: W^{1/2} expm(tD) W^{1/2} with scipy's
    Schur-based matrix functions; second-order: (2 z z^T - det(z) R) u with
    z = w^{1/2} and u = exp(t d) by eigenvalue replacement.
    """
    cone = w.cone
    out = np.empty(cone.dim)
    for blk, a, b in cone.spans:
        wc = w.coords[a:b]
        dc = t * d.coords[a:b]
        if isinstance(blk, Orthant):
            out[a:b] = np.exp(np.log(wc) + dc)
        elif isinstance(blk, Psd):
            W = jordan._smat(wc, blk.side)
            D = jordan._smat(dc, blk.side)
            root = scipy.linalg.sqrtm(W).real
            out[a:b] = jordan._svec(root @ scipy.linalg.expm(D) @ root)
        else:
            out[a:b] = _soc_fig1(wc, dc)
    return jordan.element(cone, out)


def _soc_fig1(wc, dc):
    # square root by eigenvalue replacement
    rw = np.linalg.norm(wc[1:])
    lam_p, lam_m = wc[0] + rw, wc[0] - rw
    uw = wc[1:] / rw if rw > 0 else np.eye(len(wc) - 1)[0] * 0.0
    z = np.empty_like(wc)
    z[0] = 0.5 * (math.sqrt(lam_p) + math.sqrt(lam_m))
    z[1:] = 0.5 * (math.sqrt(lam_p) - math.sqrt(lam_m)) * uw
    # exp(d) by eigenvalue replacement
    rd = np.linalg.norm(dc[1:])
    ud = dc[1:] / rd if rd > 0 else np.zeros(len(dc) - 1)
    u = np.empty_like(dc)
    u[0] = 0.5 * (math.exp(dc[0] + rd) + math.exp(dc[0] - rd))
    u[1:] = 0.5 * (math.exp(dc[0] + rd) - math.exp(dc[0] - rd)) * ud
    # Q(z) u = 2 (z.u) z - det(z) R u
    det_z = z[0] * z[0] - z[1:] @ z[1:]
    res = 2.0 * (z @ u) * z
    res[0] -= det_z * u[0]
    res[1:] += det_z * u[1:]
    return res


def m_map(T, w):
    """The orthogonal automorphism M = Q((Tw)^{-1/2}) T Q(w^{1/2}) as a callable."""
    tw = jordan.apply_automorphism(T, w)
    tw_inv_half = jordan.spectral_map(tw, lambda lam: lam ** -0.5)
    w_half = jordan.sqrt(w)

    def apply(x):
        return jordan.quad_rep(tw_inv_half, jordan.apply_automorphism(T, jordan.quad_rep(w_half, x)))

    return apply


def perturb_to_distance(w_hat, rng, delta):
    """Point at exact geodesic distance delta from w_hat (unit direction)."""
    v = random_element(w_hat.cone, rng)
    v = v / jordan.norm2(v)
    return geometry.geodesic_point(geometry.ray(w_hat, v), delta)


def perturb_to_divergence(w_hat, rng, h_target, rel=1e-6):
    """Point whose divergence to w_hat equals h_target (bisection on the ray)."""
    v = random_element(w_hat.cone, rng)
    v = v / jordan.norm2(v)
    r = geometry.ray(w_hat, v)
    hi = 1.0
    while geometry.divergence(geometry.geodesic_point(r, hi), w_hat) < h_target:
        hi *= 2.0
    lo = 0.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if geometry.divergence(geometry.geodesic_point(r, mid), w_hat) < h_target:
            lo = mid
        else:
            hi = mid
        if hi - lo <= rel * hi:
            break
    return geometry.geodesic_point(r, 0.5 * (lo + hi))
