"""Constraint data and the Newton machinery over scaled subspaces.

A conic problem pairs a cone with affine data in one of two forms:

* basis form: a pair (x0, s0) and an explicit basis of the subspace L, so
  the primal/dual affine sets are x0 + L and s0 + L-perp;
* operator form: maps/vectors (A, B, b, c, g) describing the same sets as
  ``s0 + L-perp = {c - Ay : By = g}`` and
  ``x0 + L = {x : A*x + B*z = b for some z}``.

The forms are how problems are stated and stored; both reduce to one
representation: representatives (x0, s0), a side flag, and an orthonormal
basis of whichever of L and L-perp is smaller, all from one QR of the
spanning set the form gives (the basis of L, or the image of ker B under A,
which spans L-perp), complete when that set is the larger side.  So the
cost of a Newton step follows min(dim L, dim L-perp), not the form.  The
method is primal-dual symmetric, and ``ConicProblem.dual`` states the dual
problem (x0 <-> s0, L <-> L-perp) in the other form by handing over the
factor and the representation with the side flipped.

The Newton machinery works in the frame of the iterate w, where w is e: a
``ScaledFrame`` carries an anchor, a cone automorphism T with T e = w, and
the problem mapped by it, the primal set by T^{-1} and the dual set by T*.
So the relevant subspaces are ``L_w = T^{-1} L`` and
``L_w_perp = T* L-perp``, of which the frame holds the smaller; a frame
built from w takes T = Q(w^{1/2}), the scaling of the paper.  The Newton
data at (w, mu) need one mu-free vector g_w and the projections onto these
subspaces: with ``s = g_w/sqrt(mu) - e`` the Newton direction d is the
reflection of s across L_w_perp, split orthogonally as d = d1 - d2 across
the two subspaces.  This yields
computable divergence bounds (h_lb, h_ub), a guaranteed-descent step bound
t_max, and mu-selection in closed form.

A geodesic step ``Q(w^{1/2}) exp(t d)`` is taken in the frame
(``ScaledFrame.step``): the anchor takes on Q(exp(t d/2)), the subspace
basis is mapped by it, and the representatives reset to the points
``sqrt(mu)(e +- d)`` mapped along, all in one pass over the cone's runs
(``jordan.geodesic_step``), so the new iterate is never decomposed.  Each
frame builds g_w (its one projection) and the extreme eigenvalues of g_w
(its one ``eigvalsh``) with itself; d is formed only when read.  Only the
start of a run decomposes its w; the iterate w = T e is formed only where
it is read (a snapshot's ``w``, observers, a tracker's final data).

The frame holds its basis, representatives and Newton data in the frame
coordinates of ``jordan`` (PSD blocks as full matrices, second-order
blocks scaled by sqrt(2)), where the trace inner product is the dot
product and the anchor maps are plain products, so a step gathers no
coordinates and builds no ``AlgebraElement``; elements are packed only
where they are read.  The problem's own representation stays in the
N-dimensional coordinates in which the dot product is the trace inner
product (``ConicProblem._mc``): the complement of its factor must span only
symmetric directions.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import jordan
from .errors import (
    ConeMismatchError,
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
    "newton_direction",
    "mu_candidates",
    "scale_matched_mu",
    "feasible_point",
    "duality_gap",
    "as_operator_form",
    "transform_problem",
    "affine_residuals",
]

# rank test of a problem's spanning set: sigma_min/sigma_max of its QR factor R
_BASIS_RANK_TOL = 1e-10
# how far the lower bound b on that ratio must clear the tolerance to accept
# without the SVD: b above it caps cond(R) at k/b <= k 1e8, so the rounding
# of R^{-1} moves b by far less than this factor
_RANK_MARGIN = 100.0
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
    """Affine data (A, B, b, c, g); A is stored as a tuple of columns in J,
    and B = ``[]`` as a (0, m) array, with no rows."""

    columns: tuple
    B: np.ndarray
    b: np.ndarray
    c: AlgebraElement
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple(self.columns))
        B = np.asarray(self.B, dtype=float)
        B = B.reshape(0, len(self.columns)) if B.ndim == 1 and not B.size else np.atleast_2d(B)
        object.__setattr__(self, "B", B)
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
            self._factor  # the rank test runs at load
        elif isinstance(self.form, OperatorForm):
            f = self.form
            m = len(f.columns)
            for a in f.columns:
                if a.cone != self.cone:
                    raise ProblemFormatError("operator column does not match the cone")
            if f.c.cone != self.cone:
                raise ProblemFormatError("c does not match the declared cone")
            if f.B.shape[1] != m:
                raise ProblemFormatError("B must have one column per operator column")
            if f.b.shape[0] != m:
                raise ProblemFormatError("b must have one entry per operator column")
            if f.g.shape[0] != f.B.shape[0]:
                raise ProblemFormatError("g length must match the row count of B")
        else:
            raise ProblemFormatError(f"unsupported problem form: {type(self.form).__name__}")

    # ------------------------------------------------------------------
    @functools.cached_property
    def _sqrt_metric(self) -> np.ndarray:
        return np.sqrt(self.cone.metric_diag)

    def _mc(self, x: AlgebraElement) -> np.ndarray:
        """Coordinates in which the dot product is the trace inner product."""
        return x.coords * self._sqrt_metric

    def _from_mc(self, v: np.ndarray) -> AlgebraElement:
        return jordan._mk(self.cone, v / self._sqrt_metric)

    def _given_mc(self) -> np.ndarray:
        """Metric coordinates of the elements the form gives, N x k: the
        basis of L, or the operator columns (not kept: the factor is)."""
        f = self.form
        elems = f.basis if isinstance(f, BasisForm) else f.columns
        if not elems:
            return np.zeros((self.cone.dim, 0))
        return np.column_stack([self._mc(x) for x in elems])

    @functools.cached_property
    def _kernel_b(self) -> np.ndarray | None:
        """Orthonormal basis N_B of ker B; None when B has no rows."""
        return _null_space(self.form.B) if self.form.B.shape[0] else None

    @functools.cached_property
    def _factor(self) -> tuple:
        """The one factorization of the problem, ``(Q, R)`` of the basis of
        L or of M = A N_B, which spans L-perp; complete exactly when that
        set is the larger side, whose complement the representation spans."""
        cols = self._given_mc()
        if isinstance(self.form, OperatorForm) and self._kernel_b is not None:
            cols = cols @ self._kernel_b
        return _factorize(cols, complete=2 * cols.shape[1] > cols.shape[0])

    @functools.cached_property
    def _representation(self) -> "_Representation":
        """The one representation every projection reads: the
        representatives and the factor's span or, when the form gives the
        larger side, its complement.

        An operator form's A*x + B*z = b reads M* x = N_B^T b, so with
        M = Q R its least-norm x0 is Q R^{-T} N_B^T b; s0 is c - A y for the
        least-squares solution y of By = g, which must solve it.
        """
        f, (q, r) = self.form, self._factor
        k = r.shape[0]
        if isinstance(f, BasisForm):
            x0, s0, on_l = f.x0, f.s0, True
        else:
            nb, on_l = self._kernel_b, False
            rhs = f.b if nb is None else nb.T @ f.b
            x0 = self._from_mc(q[:, :k] @ np.linalg.solve(r.T, rhs))
            s0 = f.c
            if nb is not None:
                y, *_ = np.linalg.lstsq(f.B, f.g, rcond=None)
                tol = 1e-8 * max(1.0, float(np.linalg.norm(f.g)))
                if not np.allclose(f.B @ y, f.g, rtol=0.0, atol=tol):
                    raise DegenerateConstraintsError("dual affine set is empty (By = g unsolvable)")
                s0 = f.c - self._from_mc(self._given_mc() @ y)
        if 2 * k > self.cone.dim:
            return _Representation(x0, s0, not on_l, q[:, k:])
        return _Representation(x0, s0, on_l, q[:, :k])

    @functools.cached_property
    def _frame_span(self) -> np.ndarray:
        """The representation's spanning set in frame coordinates, D x k."""
        span = self._representation.span
        return jordan._unpack(self.cone, span.T / self._sqrt_metric).T

    @property
    def x0(self) -> AlgebraElement:
        return self._representation.x0

    @property
    def s0(self) -> AlgebraElement:
        return self._representation.s0

    def dual(self) -> "ConicProblem":
        """The dual problem, whose primal set is s0 + L-perp and whose dual
        set is x0 + L, stated in the other form.

        Basis form (x0, s0, basis of L) gives the operator form with A the
        basis, b = (<l_i, s0>), c = x0 and no B; an operator form gives the
        basis form (s0, x0, the orthonormal span Q of the image of ker(B)
        under A).  The dual takes over this problem's factor, with R = I for
        Q, and its representation with x0 and s0 swapped and the side
        flipped, so nothing is factorized again.
        """
        f, (q, r) = self.form, self._factor
        x0, s0, on_l, span = self._representation
        if isinstance(f, BasisForm):
            form = _operator_form(f.basis, f.s0, f.x0)
        else:
            basis = [self._from_mc(col) for col in q[:, : r.shape[0]].T]
            form = BasisForm(x0=s0, s0=x0, basis=basis)
            r = np.eye(len(basis))
        dual = ConicProblem.__new__(ConicProblem)
        # seed the caches that the lazy derivation would fill, before the
        # load-time rank test reads the factor
        dual.__dict__.update(_factor=(q, r), _representation=_Representation(s0, x0, not on_l, span))
        dual.__init__(self.cone, form)
        return dual


class _Representation(NamedTuple):
    """Representatives x0, s0 and an orthonormal basis, metric coordinates,
    of L (``on_l``) or of L-perp, whichever is the smaller."""

    x0: AlgebraElement
    s0: AlgebraElement
    on_l: bool
    span: np.ndarray


def _factorize(cols: np.ndarray, complete: bool) -> tuple:
    """``(Q, R)``, one QR of the spanning set ``cols`` (metric coordinates,
    N x k): the first k columns of Q span ``cols`` orthonormally and, when
    ``complete``, the last N - k its complement; R is k x k.

    Rank loss raises: sigma_min/sigma_max <= ``_BASIS_RANK_TOL`` on the
    singular values of R, which are those of ``cols`` up to rounding.  The
    bound ``b = 1/(||R||_F ||R^{-1}||_F)`` satisfies
    ``b <= sigma_min/sigma_max <= k b``, so a b well above the tolerance
    accepts without the SVD (see ``_ratio_bound``).
    """
    n, k = cols.shape
    if k > n:
        raise IllConditionedBasisError(
            f"subspace basis has {k} elements in a cone of dimension {n}, so they are dependent"
        )
    q, r = np.linalg.qr(cols, mode="complete" if complete else "reduced")
    r = r[:k]
    if k and not _ratio_bound(r) > _RANK_MARGIN * _BASIS_RANK_TOL:
        sv = np.linalg.svd(r, compute_uv=False)
        if sv[-1] <= _BASIS_RANK_TOL * sv[0]:
            raise IllConditionedBasisError(
                f"subspace basis is numerically dependent (sigma_min = {sv[-1]:.3g}, sigma_max = {sv[0]:.3g})"
            )
    return q, r


def _ratio_bound(r: np.ndarray) -> float:
    """``1/(||R||_F ||R^{-1}||_F)``, a lower bound on sigma_min/sigma_max of
    the square R; 0.0 when R is singular to working precision."""
    try:
        inv = np.linalg.inv(r)
    except np.linalg.LinAlgError:
        return 0.0
    # Python floats: a product that overflows reads inf, so the bound reads 0.0
    return 1.0 / (float(np.linalg.norm(r)) * float(np.linalg.norm(inv)))


def _project(basis: np.ndarray, on_l: bool, zm: np.ndarray, onto_l: bool) -> np.ndarray:
    """P_L zm (``onto_l``) or P_L-perp zm, for an orthonormal ``basis`` of L
    (``on_l``) or of L-perp, in coordinates where the dot product is the
    trace inner product."""
    inside = basis @ (basis.T @ zm)
    return inside if onto_l == on_l else zm - inside


def _orthonormalize(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of ``cols`` (QR); rank loss raises.

    |R_jj| is the norm of column j after removing its components along the
    columns before it, so the rank test is the one Gram-Schmidt makes.  It
    serves a frame's mapped span, which carries cond(w), up to about 1e11
    at mu = 1e-6 on fig3: the problem's ratio test would reject it.
    The basis is Fortran-ordered, so each column is contiguous.
    """
    q, r = np.linalg.qr(cols)
    if np.any(np.abs(np.diag(r)) <= _RANK_TOL * np.maximum(np.linalg.norm(cols, axis=0), 1.0)):
        raise IllConditionedBasisError("rank loss while orthonormalizing the scaled subspace basis")
    return np.asfortranarray(q)


def _cholesky_qr(cols: np.ndarray) -> np.ndarray:
    """Orthonormal basis of the span of well-conditioned ``cols`` (Cholesky QR).

    Orthogonality is lost as cond(cols)^2 times the rounding unit, so this
    serves the image of an orthonormal basis under a step map, whose
    condition number exp(t (lambda_max - lambda_min)) stays small.  Like
    ``cols`` from an anchor map, the basis is Fortran-ordered.  The basis is
    ``cols L^{-T}`` for the Cholesky factor L of the k x k Gram matrix,
    formed through the inverse of L: numpy has no triangular solve, and
    ``np.linalg.solve`` with the D right-hand sides costs several times more.
    """
    if cols.shape[1] == 0:
        return cols
    rows = cols.T
    try:
        chol = np.linalg.cholesky(rows @ cols)
    except np.linalg.LinAlgError as exc:
        raise IllConditionedBasisError("rank loss while stepping the scaled subspace basis") from exc
    return (np.linalg.inv(chol) @ rows).T


def _null_space(B: np.ndarray) -> np.ndarray:
    """Orthonormal basis of ker B: the right singular vectors past the
    numerical rank, which counts the singular values above
    ``s_max * eps * max(B.shape)``."""
    _, sv, vh = np.linalg.svd(B)
    tol = sv.max(initial=0.0) * np.finfo(float).eps * max(B.shape)
    return vh[np.count_nonzero(sv > tol) :].T


class ScaledFrame:
    """The problem in the frame of one interior point w, where w is e.

    The frame carries an anchor T, a ``jordan.ConeAutomorphism`` with
    T e = w, and the problem's representation mapped into it, in frame
    coordinates: ``basis``, an orthonormal basis (D x k, Fortran-ordered) of the
    anchored smaller side, L_w = T^{-1} L or its complement
    L_w_perp = T* L-perp as the side flag says, which gives the orthogonal
    projections onto L_w and L_w_perp; and the representatives ``u_p`` of
    T^{-1}(x0 + L) and ``u_d`` of T*(s0 + L-perp).  From them the frame
    builds, with itself, ``g_f = P_{L_w_perp} u_p + P_{L_w} u_d``, written
    as ``u_p + P_{L_w}(u_d - u_p)`` (one projection), and
    ``g_w_extremes``, its extreme eigenvalues (one ``eigvalsh``).  The
    frame of the dual problem at w^{-1} holds the same subspace with the
    sides swapped, so it reads -d where this one reads d.  ``newton(mu)``
    reads h_ub from these alone and projects once more only when d is read;
    ``mu_candidates`` and ``scale_matched_mu`` read g_f and its extreme
    eigenvalues, which do not depend on which T with T e = w the frame
    carries.  The elements ``w``, ``g_w``, ``onto_lw(z)`` and
    ``onto_lw_perp(z)`` are packed when read.

    ``ScaledFrame(problem, w)`` builds the anchor T = Q(w^{1/2}) from one
    decomposition of the given w, which must be an interior point of the
    problem's cone.  ``step`` moves the frame along a geodesic without
    decomposing the new iterate: only d is decomposed, the step's maps come
    from one pass over the runs (``jordan.geodesic_step``), and w = T e is
    formed only when ``w`` is read.
    """

    def __init__(self, problem: ConicProblem, w: AlgebraElement):
        if w.cone != problem.cone:
            raise ConeMismatchError("the scaling point lives on a different cone than the problem")
        spec = jordan.Spectrum(w).require_interior("scaling point must be interior")
        anchor = jordan.ConeAutomorphism.scaling(spec, np.sqrt)
        x0, s0, on_l, _ = problem._representation
        # the anchor maps x0 + L by T^{-1} and s0 + L-perp by T*; the
        # representative of the spanned side and the spanning set share one map call
        near, far = (x0, s0) if on_l else (s0, x0)
        cols = anchor.columns(np.column_stack((jordan.unpack(near), problem._frame_span)),
                              inverse=on_l, adjoint=not on_l)
        u_near, span = cols[:, 0], cols[:, 1:]
        u_far = anchor.columns(jordan.unpack(far), inverse=not on_l, adjoint=on_l)
        u_p, u_d = (u_near, u_far) if on_l else (u_far, u_near)
        self._set(problem, anchor, _orthonormalize(span), u_p, u_d)
        self.w = w

    def _set(self, problem, anchor, basis, u_p, u_d) -> None:
        self.problem, self.anchor, self.basis, self.u_p, self.u_d = problem, anchor, basis, u_p, u_d
        self._on_l = problem._representation.on_l
        self.g_f = u_p + self._project(u_d - u_p, True)
        lam = jordan.frame_eigenvalues(problem.cone, self.g_f)
        self.g_w_extremes = (float(lam.min()), float(lam.max()))

    @functools.cached_property
    def w(self) -> AlgebraElement:
        """The iterate T e."""
        return self.anchor.point()

    def step(self, nd: "NewtonData", t: float) -> "ScaledFrame":
        """The frame of the geodesic point T exp(t d), for the Newton data
        ``nd`` of this frame (Q(w^{1/2}) exp(t d) from a frame built at w);
        nothing but d is decomposed.

        The anchor takes on S = Q(exp(t d/2)), so the new point is
        T S e = T exp(t d).  The basis maps by S^{-1} (L_w) or S* = S
        (L_w_perp) and is orthonormalized again.  The representatives reset
        to S^{-1} x and S* s for x = sqrt(mu)(e + d) and s = sqrt(mu)(e - d),
        which lie in the anchored affine sets for every d the frame gives:
        ``sqrt(mu)(e + d) o exp(-t d)`` and ``sqrt(mu)(e - d) o exp(t d)``,
        spectral maps of d.  ``jordan.geodesic_step`` forms all of this but
        the orthonormalization in one pass over the runs; the new frame
        then builds its g_w.
        """
        anchor, span, u_p, u_d = jordan.geodesic_step(
            self.anchor, nd.d_spectrum, float(t), math.sqrt(nd.mu), self.basis, self._on_l
        )
        frame = ScaledFrame.__new__(ScaledFrame)
        frame._set(self.problem, anchor, _cholesky_qr(span), u_p, u_d)
        return frame

    def _project(self, z: np.ndarray, onto_lw: bool) -> np.ndarray:
        """P_{L_w} z (``onto_lw``) or P_{L_w_perp} z, frame coordinates."""
        return _project(self.basis, self._on_l, z, onto_lw)

    def onto_lw(self, z: AlgebraElement) -> AlgebraElement:
        """Orthogonal projection onto L_w."""
        return jordan.pack(z.cone, self._project(jordan.unpack(z), True))

    def onto_lw_perp(self, z: AlgebraElement) -> AlgebraElement:
        """Orthogonal projection onto L_w_perp."""
        return jordan.pack(z.cone, self._project(jordan.unpack(z), False))

    @property
    def g_w(self) -> AlgebraElement:
        """The scaling vector g_f as an element."""
        return jordan.pack(self.problem.cone, self.g_f)

    def newton(self, mu: float) -> "NewtonData":
        """Newton data at (w, mu); the bounds need no projection.

        With ``s = g_w/sqrt(mu) - e``, d is the reflection of s across
        L_w_perp, so ``||d|| = ||s||``, and ``||d1 + d2||_inf = ||s||_inf``
        is read off the extreme eigenvalues of g_w: h_lb and h_ub cost one
        vector operation.  d takes one projection when first read, and is
        decomposed only when its spectrum is read (see ``NewtonData``).
        On either side ``d1 = P_{L_w_perp}(u_p/sqrt(mu) - e)`` and
        ``d2 = P_{L_w}(u_d/sqrt(mu) - e)``.
        """
        mu = float(mu)
        if not 0.0 < mu < math.inf:
            raise DomainError(f"mu must be positive and finite, got {mu!r}")
        sqrt_mu = math.sqrt(mu)
        s = self.g_f / sqrt_mu - self.problem.cone.frame_identity
        norm_d = math.sqrt(float(s @ s))
        lmin, lmax = self.g_w_extremes
        sum_inf = max(lmax / sqrt_mu - 1.0, 1.0 - lmin / sqrt_mu)
        h_lb = norm_d ** 2 / (1.0 + sum_inf)
        h_ub = norm_d ** 2 / (1.0 - sum_inf) if sum_inf < 1.0 else math.inf
        return NewtonData(s_f=s, norm_d=norm_d, sum_inf=sum_inf, h_lb=h_lb, h_ub=h_ub, frame=self, mu=mu)


@dataclass(eq=False)
class NewtonData:
    """Newton direction with its orthogonal summands and derived bounds.

    ``s = d1 + d2 = g_w/sqrt(mu) - e``, held as frame coordinates ``s_f``;
    ``d = d1 - d2`` with d1 in L_w_perp and d2 in L_w is the reflection of
    s across L_w_perp, so ``norm_d`` is ||s||; ``sum_inf`` is ||s||_inf;
    ``h_lb``/``h_ub`` bound the divergence to the centered point (h_ub may
    be +inf); ``frame`` is the scaled frame of w the data was built from,
    ``w`` is read off it, and ``mu`` is the centering parameter.  The rest
    is derived on first read and cached, so a centering test that takes no
    step projects nothing and decomposes nothing: ``d_f``, the frame
    coordinates of d, from one projection of s; ``d_spectrum``, the one
    decomposition of d, which the geodesic step (``ScaledFrame.step``) maps
    on; ``norm_d_inf``; and ``t_max``, the guaranteed-descent step bound.  The elements ``d``,
    ``d1`` and ``d2`` (half the sum and difference of s and d) are packed
    when read.
    """

    s_f: np.ndarray
    norm_d: float
    sum_inf: float
    h_lb: float
    h_ub: float
    frame: ScaledFrame
    mu: float

    @functools.cached_property
    def d_f(self) -> np.ndarray:
        d2 = self.frame._project(self.s_f, True)
        return (self.s_f - d2) - d2

    @property
    def w(self) -> AlgebraElement:
        return self.frame.w

    def _pack(self, f: np.ndarray) -> AlgebraElement:
        return jordan.pack(self.frame.problem.cone, f)

    @property
    def d(self) -> AlgebraElement:
        return self._pack(self.d_f)

    @property
    def d1(self) -> AlgebraElement:
        return self._pack(0.5 * (self.s_f + self.d_f))

    @property
    def d2(self) -> AlgebraElement:
        return self._pack(0.5 * (self.s_f - self.d_f))

    @functools.cached_property
    def d_spectrum(self) -> jordan.Spectrum:
        return jordan.Spectrum.of_frame(self.frame.problem.cone, self.d_f)

    @functools.cached_property
    def norm_d_inf(self) -> float:
        return float(np.abs(self.d_spectrum.eigenvalues).max())

    @functools.cached_property
    def t_max(self) -> float:
        return _t_max(self.norm_d, self.norm_d_inf, self.h_lb)

    def pair(self):
        """Feasible (x, s), or None when ||d||_inf > 1: with the anchor T of
        the frame, x = sqrt(mu) T(e + d) and s = sqrt(mu) (T^{-1})*(e - d)
        are cone members in the primal and dual affine sets."""
        if self.norm_d_inf > 1.0:
            return None
        r, e, anchor = math.sqrt(self.mu), self.frame.problem.cone.frame_identity, self.frame.anchor
        x = anchor.columns(r * (e + self.d_f))
        s = anchor.columns(r * (e - self.d_f), inverse=True, adjoint=True)
        return self._pack(x), self._pack(s)


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
    h_ub(w, mu_cur) > beta, and never above it.

    With ``a = g_w/sqrt(mu_cur)`` and ``r = sqrt(mu_cur/mu)`` the bound is
    ``||r a - e||^2 / min(r lmin, 2 - r lmax)`` (lmin, lmax the extreme
    eigenvalues of a), so h_ub <= beta holds exactly where the two convex
    quadratics ``||r a - e||^2 - beta r lmin`` and
    ``||r a - e||^2 - beta (2 - r lmax)`` are both <= 0: the feasible r
    form an interval.  When r = 1 lies in it, its upper end is the smaller
    of the two larger roots.  The second quadratic equals
    ``||r a - e||^2 > 0`` at the pole r = 2/lmax, so that root lies below
    the pole.  Only g_w of the frame and its cached extreme eigenvalues are
    read, so no Newton system is solved and nothing is decomposed.
    """
    mu_cur = float(mu_cur)
    sqrt_mu = math.sqrt(mu_cur)
    cone = frame.problem.cone
    a = frame.g_f / sqrt_mu
    gmin, gmax = frame.g_w_extremes
    data = (float(a @ a), float(a @ cone.frame_identity), cone.rank, gmin / sqrt_mu, gmax / sqrt_mu, beta)
    r = _upper_ratio(*data, 1.0)
    if math.isnan(r):
        # from about beta = 1e150 the coefficients overflow; divided by beta
        # the quadratics keep their roots
        r = _upper_ratio(*data, 1.0 / beta)
    return mu_cur / (r * r)


def _upper_ratio(aa: float, ta: float, n: int, lmin: float, lmax: float, beta: float, scale: float) -> float:
    """The upper end r >= 1 of the interval where h_ub <= beta, from the
    quadratics of ``mu_candidates`` multiplied by ``scale``; 1.0 when r = 1
    lies outside it, and NaN when a coefficient overflows."""
    a, b = aa * scale, beta * scale
    # both quadratics read a r^2 - p r + c
    quadratics = (
        (2.0 * ta * scale + b * lmin, n * scale),
        (2.0 * ta * scale - b * lmax, n * scale - 2.0 * b),
    )
    if not all(math.isfinite(p * p - 4.0 * a * c) for p, c in quadratics):
        return math.nan
    if any(a - p + c > 0.0 for p, c in quadratics):
        return 1.0
    return max(1.0, min(_larger_root(a, p, c) for p, c in quadratics))


def scale_matched_mu(frame: ScaledFrame) -> float:
    """The mu that minimises ||d(w, mu)|| at the frame's w; +inf when tr g_w <= 0.

    ``||d|| = ||s||`` with ``s = r g_w - e`` and ``r = 1/sqrt(mu)``, and
    ``||r g_w - e||^2 = r^2 <g_w, g_w> - 2 r tr(g_w) + n`` is least at
    ``r = tr(g_w) / <g_w, g_w>``, so ``mu* = (<g_w, g_w> / tr(g_w))^2``.
    When tr(g_w) <= 0 the norm falls as r -> 0, that is as mu -> inf.
    """
    g = frame.g_f
    tr = float(g @ frame.problem.cone.frame_identity)
    if tr <= 0.0:
        return math.inf
    return (float(g @ g) / tr) ** 2


def _larger_root(a: float, p: float, c: float) -> float:
    """Larger root of ``a r^2 - p r + c`` (a > 0, value <= 0 at r = 1),
    in the form that does not cancel."""
    sq = math.sqrt(max(p * p - 4.0 * a * c, 0.0))
    if p >= 0.0:
        return (p + sq) / (2.0 * a)
    return 2.0 * c / (p - sq)


def feasible_point(problem: ConicProblem, w: AlgebraElement, mu: float):
    """``NewtonData.pair`` of a frame rebuilt from w.  Below about
    mu = 1e-6 that frame is wrong, so after a tracker read ``nd.pair()`` of
    the data it returns, as ``solver.solve`` does."""
    return ScaledFrame(problem, w).newton(mu).pair()


def duality_gap(x: AlgebraElement, s: AlgebraElement) -> float:
    """Objective gap <x, s> of a primal-dual pair."""
    return jordan.inner(x, s)


def as_operator_form(problem: ConicProblem) -> ConicProblem:
    """Convert a basis-form problem to the equivalent operator form.

    A's columns are an orthonormal basis of L-perp, from a complete QR of
    the basis; c = s0, b = A* x0, and B/g are empty.
    """
    if not isinstance(problem.form, BasisForm):
        return problem
    q, r = _factorize(problem._given_mc(), complete=True)
    lperp = q[:, r.shape[0] :]
    cols = tuple(problem._from_mc(lperp[:, j]) for j in range(lperp.shape[1]))
    return ConicProblem(problem.cone, _operator_form(cols, problem.form.x0, problem.form.s0))


def _operator_form(columns: tuple, x: AlgebraElement, c: AlgebraElement) -> OperatorForm:
    """The operator form (A, no B, b = (<a_i, x>), c) with A the ``columns``."""
    b = np.array([jordan.inner(a, x) for a in columns])
    return OperatorForm(columns=columns, B=np.zeros((0, len(columns))), b=b, c=c, g=np.zeros(0))


def transform_problem(problem: ConicProblem, T: jordan.ConeAutomorphism) -> ConicProblem:
    """Image of the problem under a cone automorphism.

    The primal set maps through T and the dual set through (T^{-1})*.
    """
    f = problem.form
    if isinstance(f, BasisForm):
        x0, *basis = T._apply((f.x0, *f.basis), False, False)
        form = BasisForm(x0=x0, s0=T._apply((f.s0,), True, True)[0], basis=basis)
    else:
        c, *columns = T._apply((f.c, *f.columns), True, True)
        form = OperatorForm(columns=columns, B=f.B.copy(), b=f.b.copy(), c=c, g=f.g.copy())
    return ConicProblem(problem.cone, form)


def affine_residuals(problem: ConicProblem, x: AlgebraElement, s: AlgebraElement):
    """Distances of x to x0 + L and of s to s0 + L-perp (unscaled projections)."""
    x0, s0, on_l, basis = problem._representation
    rp = _project(basis, on_l, problem._mc(x - x0), False)
    rd = _project(basis, on_l, problem._mc(s - s0), True)
    return float(np.linalg.norm(rp)), float(np.linalg.norm(rd))
