"""Constraint data and the Newton machinery over scaled subspaces.

A conic problem pairs a cone with affine data in one of two forms:

* basis form: a pair (x0, s0) and an explicit basis of the subspace L, so
  the primal/dual affine sets are x0 + L and s0 + L-perp;
* operator form: maps/vectors (A, B, b, c, g) describing the same sets as
  ``s0 + L-perp = {c - Ay : By = g}`` and
  ``x0 + L = {x : A*x + B*z = b for some z}``.

Both forms reduce to representatives (x0, s0) and a spanning set of L
(basis form) or L-perp (operator form, the image of ker B under A).  For an
interior scaling point w the relevant subspaces are
``L_w = Q(w^{-1/2}) L`` and ``L_w_perp = Q(w^{1/2}) L-perp``.  The Newton
data at (w, mu) need one mu-free vector g_w and the projections onto them: with
``s = g_w/sqrt(mu) - e`` the Newton direction d is the reflection of s
across L_w_perp, split orthogonally as d = d1 - d2 across the two
subspaces.  This yields computable divergence bounds (h_lb, h_ub), a
guaranteed-descent step bound t_max, and mu-selection in closed form.
``ScaledFrame`` builds all of this that does not depend on mu once per w.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import jordan
from .errors import (
    DegenerateConstraintsError,
    DomainError,
    IllConditionedBasisError,
    ProblemFormatError,
)
from .jordan import AlgebraElement, ConeDescriptor

__all__ = [
    "BasisForm",
    "OperatorForm",
    "ConicProblem",
    "ScaledFrame",
    "NewtonData",
    "scaled_projections",
    "newton_direction",
    "mu_candidates",
    "feasible_point",
    "duality_gap",
    "as_operator_form",
    "transform_problem",
    "affine_residuals",
]

# relative tolerance of the load-time basis rank check
_BASIS_RANK_TOL = 1e-10
# rank-loss threshold of the orthonormalization of scaled spanning sets
_RANK_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class BasisForm:
    """Affine data (x0, s0, basis of L)."""

    x0: AlgebraElement
    s0: AlgebraElement
    basis: tuple

    def __post_init__(self):
        object.__setattr__(self, "basis", tuple(self.basis))


@dataclass(frozen=True, eq=False)
class OperatorForm:
    """Affine data (A, B, b, c, g); A is stored as a tuple of columns in J."""

    columns: tuple
    B: np.ndarray
    b: np.ndarray
    c: AlgebraElement
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        object.__setattr__(self, "B", np.atleast_2d(np.asarray(self.B, dtype=float)))
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float).reshape(-1))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=float).reshape(-1))


@dataclass(frozen=True, eq=False)
class ConicProblem:
    """A primal-dual pair over a symmetric cone (Slater assumed, not checked)."""

    cone: ConeDescriptor
    form: object

    def __post_init__(self):
        if isinstance(self.form, BasisForm):
            f = self.form
            jordan._same_cone(f.x0, f.s0)
            if f.x0.cone != self.cone:
                raise ProblemFormatError("x0 does not match the declared cone")
            for l in f.basis:
                if l.cone != self.cone:
                    raise ProblemFormatError("subspace basis element does not match the cone")
            self._check_basis_rank()
        elif isinstance(self.form, OperatorForm):
            f = self.form
            m = len(f.columns)
            for a in f.columns:
                if a.cone != self.cone:
                    raise ProblemFormatError("operator column does not match the cone")
            if f.c.cone != self.cone:
                raise ProblemFormatError("c does not match the declared cone")
            if f.B.size and f.B.shape[1] != m:
                raise ProblemFormatError("B must have one column per operator column")
            if f.b.shape[0] != m:
                raise ProblemFormatError("b must have one entry per operator column")
            d = f.B.shape[0] if f.B.size else 0
            if f.g.shape[0] != d:
                raise ProblemFormatError("g length must match the row count of B")
        else:
            raise ProblemFormatError(f"unsupported problem form: {type(self.form).__name__}")

    # ------------------------------------------------------------------
    @property
    def is_basis_form(self) -> bool:
        return isinstance(self.form, BasisForm)

    def _check_basis_rank(self) -> None:
        mat = self._basis_mc
        if mat.shape[1] == 0:
            return
        sv = np.linalg.svd(mat, compute_uv=False)
        if sv[-1] <= _BASIS_RANK_TOL * sv[0]:
            raise IllConditionedBasisError(
                f"subspace basis is numerically dependent (sigma_min/sigma_max = {sv[-1] / sv[0]:.3g})"
            )

    @functools.cached_property
    def _sqrt_metric(self) -> np.ndarray:
        return np.sqrt(jordan.metric_diag(self.cone))

    def _mc(self, x: AlgebraElement) -> np.ndarray:
        """Coordinates in which the dot product is the trace inner product."""
        return x.coords * self._sqrt_metric

    def _from_mc(self, v: np.ndarray) -> AlgebraElement:
        return jordan.element(self.cone, v / self._sqrt_metric)

    @functools.cached_property
    def _basis_mc(self) -> np.ndarray:
        """Metric coordinates of the basis of L (basis form), N x dim(L)."""
        f = self.form
        if not f.basis:
            return np.zeros((self.cone.dim, 0))
        return np.column_stack([self._mc(l) for l in f.basis])

    @functools.cached_property
    def _columns_mc(self) -> np.ndarray:
        """Metric coordinates of the operator columns, N x m."""
        f = self.form
        if not f.columns:
            return np.zeros((self.cone.dim, 0))
        return np.column_stack([self._mc(a) for a in f.columns])

    @functools.cached_property
    def _lperp_mc(self) -> np.ndarray:
        """Orthonormal basis of L-perp in metric coordinates.

        Basis form: full-space orthogonal complement of the basis of L (QR).
        Operator form: orthonormalized image of ker(B) under A.
        """
        if self.is_basis_form:
            mat = self._basis_mc
            ell = mat.shape[1]
            if ell == 0:
                return np.eye(self.cone.dim)
            q, _ = np.linalg.qr(mat, mode="complete")
            return q[:, ell:]
        f = self.form
        if f.B.size:
            nb = scipy.linalg.null_space(f.B)
        else:
            nb = np.eye(len(f.columns))
        span = self._columns_mc @ nb
        return _orthonormalize(span)

    @functools.cached_property
    def _representatives(self):
        """(x0, s0) representatives; direct for basis form, least-norm solves otherwise."""
        if self.is_basis_form:
            return self.form.x0, self.form.s0
        f = self.form
        m = len(f.columns)
        d = f.B.shape[0] if f.B.size else 0
        # A* x + B* z = b with unknown (x in metric coords, z)
        lhs = np.hstack([self._columns_mc.T, f.B.T.reshape(m, d)])
        sol, res, rank, _ = np.linalg.lstsq(lhs, f.b, rcond=None)
        if not np.allclose(lhs @ sol, f.b, atol=1e-8 * max(1.0, float(np.linalg.norm(f.b)))):
            raise DegenerateConstraintsError("primal affine set is empty (A*x + B*z = b unsolvable)")
        x0 = self._from_mc(sol[: self.cone.dim])
        if d:
            y, *_ = np.linalg.lstsq(f.B, f.g, rcond=None)
            if not np.allclose(f.B @ y, f.g, atol=1e-8 * max(1.0, float(np.linalg.norm(f.g)))):
                raise DegenerateConstraintsError("dual affine set is empty (By = g unsolvable)")
        else:
            y = np.zeros(m)
        s0 = f.c - self._from_mc(self._columns_mc @ y)
        return x0, s0

    @property
    def x0(self) -> AlgebraElement:
        return self._representatives[0]

    @property
    def s0(self) -> AlgebraElement:
        return self._representatives[1]


def _orthonormalize(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of ``cols`` (QR); rank loss raises.

    |R_jj| is the norm of column j after removing its components along the
    columns before it, so the rank test is the one Gram-Schmidt makes.
    """
    n, k = cols.shape
    q, r = np.linalg.qr(cols)
    if k > n or np.any(np.abs(np.diag(r)) <= _RANK_TOL * np.maximum(np.linalg.norm(cols, axis=0), 1.0)):
        raise IllConditionedBasisError("rank loss while orthonormalizing the scaled subspace basis")
    return q


class ScaledFrame:
    """Everything at one interior scaling point w that does not depend on mu.

    One spectral decomposition of w gives w^{1/2}, w^{-1/2} and the interior
    test.  The rest is built from them on first use: ``basis``, an
    orthonormal basis of L_w (basis form) or L_w_perp (operator form) from
    one ``jordan.quad_rep_columns`` call on the whole spanning set (the basis
    of L scaled by w^{-1/2}, or of L-perp scaled by w^{1/2}), which gives the
    orthogonal projections ``onto_lw`` and ``onto_lw_perp``; and the vector
    ``g_w = P_{L_w_perp} u_p + P_{L_w} u_d`` of the scaled representatives
    u_p = Q(w^{-1/2}) x0 and u_d = Q(w^{1/2}) s0.  ``newton(mu)`` needs g_w
    and one projection; ``mu_candidates`` needs g_w only.
    """

    def __init__(self, problem: ConicProblem, w: AlgebraElement):
        self.problem = problem
        self.w = w
        self.w_half, self.w_inv_half = jordan.interior_roots(w)

    @functools.cached_property
    def basis(self) -> np.ndarray:
        """Orthonormal columns in metric coordinates spanning L_w (basis form)
        or L_w_perp (operator form); rank loss raises."""
        problem = self.problem
        if problem.is_basis_form:
            root, span = self.w_inv_half, problem._basis_mc
        else:
            root, span = self.w_half, problem._lperp_mc
        # Q acts blockwise and the metric is one scalar per block, so Q keeps metric coordinates
        return _orthonormalize(jordan.quad_rep_columns(root, span))

    def _split(self, z: AlgebraElement) -> tuple:
        """Metric coordinates of (P_{L_w} z, P_{L_w_perp} z)."""
        zm = self.problem._mc(z)
        inside = self.basis @ (self.basis.T @ zm)
        rest = zm - inside
        return (inside, rest) if self.problem.is_basis_form else (rest, inside)

    def onto_lw(self, z: AlgebraElement) -> AlgebraElement:
        """Orthogonal projection onto L_w."""
        return self.problem._from_mc(self._split(z)[0])

    def onto_lw_perp(self, z: AlgebraElement) -> AlgebraElement:
        """Orthogonal projection onto L_w_perp."""
        return self.problem._from_mc(self._split(z)[1])

    @functools.cached_property
    def g_w(self) -> AlgebraElement:
        """``P_{L_w_perp} u_p + P_{L_w} u_d``, written as ``u_p + P_{L_w}(u_d - u_p)``."""
        x0, s0 = self.problem._representatives
        u_p = jordan.quad_rep(self.w_inv_half, x0)
        u_d = jordan.quad_rep(self.w_half, s0)
        return u_p + self.onto_lw(u_d - u_p)

    def newton(self, mu: float) -> "NewtonData":
        """Newton direction at (w, mu) with bounds, from one projection.

        With ``s = g_w/sqrt(mu) - e``: ``d2 = P_{L_w} s``, ``d1 = s - d2``
        and ``d = d1 - d2``, the reflection of s across L_w_perp; also
        ``||d1 + d2||_inf = ||s||_inf``.  These equal
        ``d1 = P_{L_w_perp}(u_p/sqrt(mu) - e)`` and
        ``d2 = P_{L_w}(u_d/sqrt(mu) - e)``, for both problem forms.
        ||s||_inf takes one ``eigvalsh``; d is decomposed only when the
        returned data is asked for its spectrum (see ``NewtonData``).
        """
        mu = float(mu)
        if mu <= 0.0:
            raise DomainError("mu must be positive")
        s = self.g_w / math.sqrt(mu) - jordan.identity(self.problem.cone)
        d2 = self.onto_lw(s)
        d1 = s - d2
        d = d1 - d2
        norm_d = jordan.norm2(d)
        sum_inf = jordan.norm_inf(s)
        h_lb = norm_d ** 2 / (1.0 + sum_inf)
        h_ub = norm_d ** 2 / (1.0 - sum_inf) if sum_inf < 1.0 else math.inf
        return NewtonData(
            d=d, d1=d1, d2=d2, norm_d=norm_d, sum_inf=sum_inf, h_lb=h_lb, h_ub=h_ub, frame=self
        )


def scaled_projections(problem: ConicProblem, w: AlgebraElement) -> ScaledFrame:
    """The frame of w with its basis built: its ``onto_lw``/``onto_lw_perp``
    project onto L_w = Q(w^{-1/2}) L and its orthogonal complement."""
    frame = ScaledFrame(problem, w)
    frame.basis  # build it now, so a rank loss raises here
    return frame


@dataclass(frozen=True, eq=False)
class NewtonData:
    """Newton direction with its orthogonal summands and derived bounds.

    ``d = d1 - d2`` with d1 in L_w_perp and d2 in L_w, the reflection of
    ``d1 + d2 = g_w/sqrt(mu) - e`` across L_w_perp; ``sum_inf`` is
    ||d1 + d2||_inf; ``h_lb``/``h_ub`` bound the divergence to the centered
    point (h_ub may be +inf); ``frame`` is the scaled frame of w the data was
    built from.  What needs the spectrum of d is derived on first read and
    cached, so a centering test that takes no step decomposes no d:
    ``d_spectrum``, the one decomposition of d, which the geodesic step maps
    exp(t lambda) on; ``norm_d_inf``; and ``t_max``, the guaranteed-descent
    step bound.
    """

    d: AlgebraElement
    d1: AlgebraElement
    d2: AlgebraElement
    norm_d: float
    sum_inf: float
    h_lb: float
    h_ub: float
    frame: ScaledFrame

    @functools.cached_property
    def d_spectrum(self) -> jordan.Spectrum:
        return jordan.Spectrum(self.d)

    @functools.cached_property
    def norm_d_inf(self) -> float:
        return float(np.abs(self.d_spectrum.eigenvalues).max())

    @functools.cached_property
    def t_max(self) -> float:
        return _t_max(self.norm_d, self.norm_d_inf, self.h_lb)

    @property
    def g_w(self) -> AlgebraElement:
        """The scaling vector used for mu-selection."""
        return self.frame.g_w


def newton_direction(problem: ConicProblem, w: AlgebraElement, mu: float) -> NewtonData:
    """Newton direction at (w, mu) with bounds (see ``ScaledFrame.newton``)."""
    return ScaledFrame(problem, w).newton(mu)


def _t_max(norm_d: float, norm_d_inf: float, h_lb: float) -> float:
    """Guaranteed-descent step bound: the divergence to the centered point
    does not increase for t in [0, t_max]; +inf when d = 0."""
    if norm_d == 0.0 or norm_d_inf == 0.0:
        return math.inf
    k = (norm_d / norm_d_inf) ** 2
    num = 2.0 * (h_lb + min(norm_d ** 2, 2.0 * k))
    den = norm_d_inf ** 2 * (h_lb + 2.0 * k)
    return num / den


def mu_candidates(frame: ScaledFrame, mu_cur: float, beta: float) -> float:
    """Smallest mu with h_ub(w, mu) <= beta, in closed form; mu_cur if
    h_ub(w, mu_cur) > beta.

    With ``a = g_w/sqrt(mu_cur)`` and ``r = sqrt(mu_cur/mu)`` the bound is
    ``||r a - e||^2 / min(r lmin, 2 - r lmax)`` (lmin, lmax the extreme
    eigenvalues of a), so h_ub <= beta holds exactly where the two convex
    quadratics ``||r a - e||^2 - beta r lmin`` and
    ``||r a - e||^2 - beta (2 - r lmax)`` are both <= 0: the feasible r
    form an interval.  When r = 1 lies in it, its upper end is the smaller
    of the two larger roots.  The second quadratic equals
    ``||r a - e||^2 > 0`` at the pole r = 2/lmax, so that root lies below
    the pole.  Only g_w of the frame is needed, so no Newton system is solved.
    """
    mu_cur = float(mu_cur)
    a = frame.g_w / math.sqrt(mu_cur)
    lam = jordan.eigenvalues(a)
    aa = jordan.inner(a, a)
    ta = jordan.trace(a)
    n = frame.problem.cone.rank
    # both quadratics read aa r^2 - p r + c
    p1, c1 = 2.0 * ta + beta * float(lam.min()), n
    p2, c2 = 2.0 * ta - beta * float(lam.max()), n - 2.0 * beta
    if aa - p1 + c1 > 0.0 or aa - p2 + c2 > 0.0:
        return mu_cur
    r = min(_larger_root(aa, p1, c1), _larger_root(aa, p2, c2))
    return mu_cur / (r * r)


def _larger_root(a: float, p: float, c: float) -> float:
    """Larger root of ``a r^2 - p r + c`` (a > 0, value <= 0 at r = 1),
    in the form that does not cancel."""
    sq = math.sqrt(max(p * p - 4.0 * a * c, 0.0))
    if p >= 0.0:
        return (p + sq) / (2.0 * a)
    return 2.0 * c / (p - sq)


def feasible_point(problem: ConicProblem, w: AlgebraElement, mu: float, nd: NewtonData | None = None):
    """Feasible (x, s) built from the Newton direction, or None.

    Available exactly when ||d||_inf <= 1; then
    x = sqrt(mu) Q(w^{1/2})(e + d) and s = sqrt(mu) Q(w^{-1/2})(e - d) are
    cone members lying in the primal/dual affine sets.  ``nd``, when given,
    is the Newton data at (w, mu); its frame supplies w^{1/2} and w^{-1/2}.
    """
    if nd is None:
        nd = ScaledFrame(problem, w).newton(mu)
    if nd.norm_d_inf > 1.0:
        return None
    sqrt_mu = math.sqrt(float(mu))
    e = jordan.identity(problem.cone)
    x = sqrt_mu * jordan.quad_rep(nd.frame.w_half, e + nd.d)
    s = sqrt_mu * jordan.quad_rep(nd.frame.w_inv_half, e - nd.d)
    return x, s


def duality_gap(x: AlgebraElement, s: AlgebraElement) -> float:
    """Objective gap <x, s> of a primal-dual pair."""
    return jordan.inner(x, s)


def as_operator_form(problem: ConicProblem) -> ConicProblem:
    """Convert a basis-form problem to the equivalent operator form.

    A's columns are an orthonormal basis of L-perp (full-space complement of
    the stacked basis, via QR), c = s0, b = A* x0, and B/g are empty.
    """
    if not problem.is_basis_form:
        return problem
    lperp = problem._lperp_mc
    cols = tuple(problem._from_mc(lperp[:, j]) for j in range(lperp.shape[1]))
    b = np.array([jordan.inner(a, problem.form.x0) for a in cols])
    form = OperatorForm(
        columns=cols,
        B=np.zeros((0, len(cols))),
        b=b,
        c=problem.form.s0,
        g=np.zeros(0),
    )
    return ConicProblem(problem.cone, form)


def transform_problem(problem: ConicProblem, T: jordan.ConeAutomorphism) -> ConicProblem:
    """Image of the problem under a cone automorphism.

    The primal set maps through T and the dual set through (T^{-1})*.
    """
    if problem.is_basis_form:
        f = problem.form
        form = BasisForm(
            x0=jordan.apply_automorphism(T, f.x0),
            s0=jordan.apply_inverse_adjoint(T, f.s0),
            basis=tuple(jordan.apply_automorphism(T, l) for l in f.basis),
        )
        return ConicProblem(problem.cone, form)
    f = problem.form
    form = OperatorForm(
        columns=tuple(jordan.apply_inverse_adjoint(T, a) for a in f.columns),
        B=f.B.copy(),
        b=f.b.copy(),
        c=jordan.apply_inverse_adjoint(T, f.c),
        g=f.g.copy(),
    )
    return ConicProblem(problem.cone, form)


def affine_residuals(problem: ConicProblem, x: AlgebraElement, s: AlgebraElement):
    """Distances of x to x0 + L and of s to s0 + L-perp (unscaled projections)."""
    frame = ScaledFrame(problem, jordan.identity(problem.cone))
    x0, s0 = problem._representatives
    rp = jordan.norm2(frame.onto_lw_perp(x - x0))
    rd = jordan.norm2(frame.onto_lw(s - s0))
    return rp, rd
