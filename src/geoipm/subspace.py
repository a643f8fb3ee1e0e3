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
built from w takes T = Q(w^{1/2}), the scaling of the paper, and the
interior test of that w is the frame's one conditioning guard.  The Newton
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
frame builds g_w (its one projection) with itself; the extreme eigenvalues
of g_w (its one ``eigvalsh``) and the spectrum of d (its one ``eigh``) are
formed only when read.  A step on data that have not formed the spectrum
of d maps its PSD blocks by Taylor polynomials of d, exact to the rounding
unit while max(1, |t|) ||d|| stays below 0.996, so a full Newton step,
whose rule reads no bound, decomposes nothing.  Only the start of a run decomposes
its w; the iterate w = T e is formed only where it is read (a snapshot's
``w``, observers, a tracker's final data).

The frame holds its basis, representatives and Newton data in the frame
coordinates of ``jordan`` (PSD blocks as full matrices, second-order
blocks scaled by sqrt(2)), where the trace inner product is the dot
product and the anchor maps are plain products, so a step gathers no
coordinates and builds no ``AlgebraElement``; elements are packed only
where they are read.  The problem's representation holds its basis in
frame coordinates too, converted once after the problem's QR, which every
frame maps and ``affine_residuals`` projects onto.  The QR itself runs in
the N-dimensional coordinates in which the dot product is the trace inner
product (``ConicProblem._given_mc``), so that the complement of its factor
spans only symmetric directions.
"""

from __future__ import annotations

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
from .jordan import AlgebraElement, ConeDescriptor, _lazy

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
            for name in ("B", "b", "g"):
                if not np.isfinite(getattr(f, name)).all():
                    raise ProblemFormatError(f"{name} contains non-finite values")
        else:
            raise ProblemFormatError(f"unsupported problem form: {type(self.form).__name__}")

    # ------------------------------------------------------------------
    @_lazy
    def _sqrt_metric(self) -> np.ndarray:
        return np.sqrt(self.cone.metric_diag)

    def _from_mc(self, v: np.ndarray) -> AlgebraElement:
        return jordan._mk(self.cone, v / self._sqrt_metric)

    def _given_mc(self) -> np.ndarray:
        """Metric coordinates, in which the dot product is the trace inner
        product, of the elements the form gives, N x k: the basis of L, or
        the operator columns (not kept: the factor is)."""
        f = self.form
        elems = f.basis if isinstance(f, BasisForm) else f.columns
        if not elems:
            return np.zeros((self.cone.dim, 0))
        return np.column_stack([x.coords * self._sqrt_metric for x in elems])

    @_lazy
    def _kernel_b(self) -> np.ndarray | None:
        """Orthonormal basis N_B of ker B; None when B has no rows."""
        return _null_space(self.form.B) if self.form.B.shape[0] else None

    @_lazy
    def _factor(self) -> tuple:
        """The one factorization of the problem, ``(Q, R)`` of the basis of
        L or of M = A N_B, which spans L-perp; complete exactly when that
        set is the larger side, whose complement the representation spans."""
        cols, what = self._given_mc(), "the basis vectors of L"
        if isinstance(self.form, OperatorForm):
            what = "the operator columns"
            if self._kernel_b is not None:
                cols, what = cols @ self._kernel_b, "the operator columns on ker B"
        return _factorize(cols, complete=2 * cols.shape[1] > cols.shape[0], what=what)

    @_lazy
    def _representation(self) -> "_Representation":
        """The one representation every projection reads: the
        representatives and the factor's span or, when the form gives the
        larger side, its complement, converted to frame coordinates.

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
        on_l, span = (not on_l, q[:, k:]) if 2 * k > self.cone.dim else (on_l, q[:, :k])
        return _Representation(x0, s0, on_l, jordan._unpack(self.cone, span.T / self._sqrt_metric).T)

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
        # seed the ``_lazy`` caches in the instance dict, before the
        # load-time rank test reads the factor
        dual.__dict__.update(_factor=(q, r), _representation=_Representation(s0, x0, not on_l, span))
        dual.__init__(self.cone, form)
        return dual


class _Representation(NamedTuple):
    """Representatives x0, s0 and an orthonormal basis ``span`` of L
    (``on_l``) or of L-perp, whichever is the smaller, in frame coordinates
    (D x k, Fortran-ordered): the basis every ``ScaledFrame`` maps."""

    x0: AlgebraElement
    s0: AlgebraElement
    on_l: bool
    span: np.ndarray


def _factorize(cols: np.ndarray, complete: bool, what: str) -> tuple:
    """``(Q, R)``, one QR of a problem's spanning set ``cols`` (N x k, metric
    coordinates): the first k columns of Q span ``cols`` orthonormally and,
    when ``complete``, the last N - k its complement; R is k x k.  It serves
    the problem's factor and ``as_operator_form``.

    Rank loss raises, naming the set as ``what``: sigma_min/sigma_max <=
    ``_BASIS_RANK_TOL`` on the singular values of R, which are those of
    ``cols`` up to rounding.  The rule is scale-free: scaling ``cols`` does
    not change its outcome.
    """
    n, k = cols.shape
    if k > n:
        raise IllConditionedBasisError(f"{what} are dependent: {k} vectors in a cone of dimension {n}")
    q, r = np.linalg.qr(cols, mode="complete" if complete else "reduced")
    r = r[:k]
    if k:
        sv = np.linalg.svd(r, compute_uv=False)
        if sv[-1] <= _BASIS_RANK_TOL * sv[0]:
            raise IllConditionedBasisError(
                f"{what} are numerically dependent (sigma_min = {sv[-1]:.3g}, sigma_max = {sv[0]:.3g})"
            )
    return q, r


def _project(basis: np.ndarray, on_l: bool, zm: np.ndarray, onto_l: bool) -> np.ndarray:
    """P_L zm (``onto_l``) or P_L-perp zm, for an orthonormal ``basis`` of L
    (``on_l``) or of L-perp, in coordinates where the dot product is the
    trace inner product."""
    inside = basis @ (basis.T @ zm)
    return inside if onto_l == on_l else zm - inside


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
    as ``u_p + P_{L_w}(u_d - u_p)`` (one projection); ``g_w_extremes``, its
    extreme eigenvalues (one ``eigvalsh``), are formed on first read, which
    a full Newton step never makes.  The frame of the dual problem at
    w^{-1} holds the same subspace with the sides swapped, so it reads -d
    where this one reads d.  ``newton(mu)`` reads ||d|| off g_f, h_ub off
    g_f and its extreme eigenvalues, and projects once more only when d is
    read; ``mu_candidates`` and ``scale_matched_mu`` read g_f and its
    extreme eigenvalues, which do not depend on which T with T e = w the
    frame carries.

    ``ScaledFrame(problem, w)`` builds the anchor T = Q(w^{1/2}) from one
    decomposition of the given w, which must pass the cone's interior test
    lambda_min > 1e-12 lambda_max, a ratio that no scaling of w changes.
    That test is the frame's one conditioning guard: on symmetric
    directions T^{-1} and T* have the singular values (lambda_i
    lambda_j)^{-1/2} and (lambda_i lambda_j)^{1/2}, so the mapped
    orthonormal span keeps sigma_min/sigma_max >= lambda_min/lambda_max,
    and one QR orthonormalizes it with no rank test.  ``step`` moves the
    frame along a geodesic without decomposing the new iterate: d is
    decomposed at most, the step's maps come from one pass over the runs
    (``jordan.geodesic_step``), and w = T e is formed only when ``w`` is
    read.
    """

    def __init__(self, problem: ConicProblem, w: AlgebraElement):
        if w.cone != problem.cone:
            raise ConeMismatchError("the scaling point lives on a different cone than the problem")
        spec = jordan.Spectrum(w).require_interior("scaling point must be interior")
        anchor = jordan.ConeAutomorphism.scaling(spec, np.sqrt)
        x0, s0, on_l, basis = problem._representation
        # the anchor maps x0 + L by T^{-1} and s0 + L-perp by T*; the
        # representative of the spanned side and the spanning set share one map call
        near, far = (x0, s0) if on_l else (s0, x0)
        cols = anchor.columns(np.column_stack((jordan.unpack(near), basis)),
                              inverse=on_l, adjoint=not on_l)
        u_near, span = cols[:, 0], cols[:, 1:]
        u_far = anchor.columns(jordan.unpack(far), inverse=not on_l, adjoint=on_l)
        u_p, u_d = (u_near, u_far) if on_l else (u_far, u_near)
        q, _ = np.linalg.qr(span)
        self._set(problem, anchor, np.asfortranarray(q), u_p, u_d)
        self.w = w

    def _set(self, problem, anchor, basis, u_p, u_d) -> None:
        self.problem, self.anchor, self.basis, self.u_p, self.u_d = problem, anchor, basis, u_p, u_d
        self._on_l = problem._representation.on_l
        self.g_f = u_p + self._project(u_d - u_p, True)

    @_lazy
    def w(self) -> AlgebraElement:
        """The iterate T e."""
        return self.anchor.point()

    @_lazy
    def g_w_extremes(self) -> tuple:
        """The least and the largest eigenvalue of g_w (one ``eigvalsh``)."""
        lam = jordan.frame_eigenvalues(self.problem.cone, self.g_f)
        return float(lam.min()), float(lam.max())

    def step(self, nd: "NewtonData", t: float) -> "ScaledFrame":
        """The frame of the geodesic point T exp(t d), for the Newton data
        ``nd`` of this frame (Q(w^{1/2}) exp(t d) from a frame built at w);
        nothing but d is decomposed, and d only when it must be.

        The anchor takes on S = Q(exp(t d/2)), so the new point is
        T S e = T exp(t d).  The basis maps by S^{-1} (L_w) or S* = S
        (L_w_perp) and is orthonormalized again.  The representatives reset
        to S^{-1} x and S* s for x = sqrt(mu)(e + d) and s = sqrt(mu)(e - d),
        which lie in the anchored affine sets for every d the frame gives:
        ``sqrt(mu)(e + d) o exp(-t d)`` and ``sqrt(mu)(e - d) o exp(t d)``,
        spectral maps of d.  ``jordan.geodesic_step`` forms all of this but
        the orthonormalization in one pass over the runs; the new frame
        then builds its g_f.

        The step maps on the spectrum of d when ``nd`` has formed it (a
        damped step's rule reads t_max), or when tau = max(1, |t|) ||d||
        lies beyond the largest Taylor radius (``jordan._TAYLOR_RADII``,
        0.996).  Otherwise, as on every full step, it maps on the expansion
        of d of the least order whose radius holds tau: ||d||, the Frobenius
        norm, bounds the spectral norm of every block, so the Taylor
        polynomials of the PSD blocks' step functions are exact to the
        rounding unit, and d is not decomposed.
        """
        t = float(t)
        spec = nd.__dict__.get("d_spectrum")
        if spec is None:
            order = jordan._taylor_order(max(1.0, abs(t)) * nd.norm_d)
            spec = jordan.Spectrum.of_frame(self.problem.cone, nd.d_f, order) if order else nd.d_spectrum
        anchor, span, u_p, u_d = jordan.geodesic_step(
            self.anchor, spec, t, math.sqrt(nd.mu), self.basis, self._on_l
        )
        frame = ScaledFrame.__new__(ScaledFrame)
        frame._set(self.problem, anchor, _cholesky_qr(span), u_p, u_d)
        return frame

    def _project(self, z: np.ndarray, onto_lw: bool) -> np.ndarray:
        """P_{L_w} z (``onto_lw``) or P_{L_w_perp} z, frame coordinates."""
        return _project(self.basis, self._on_l, z, onto_lw)

    def newton(self, mu: float) -> "NewtonData":
        """Newton data at (w, mu); the bounds need no projection.

        With ``s = g_w/sqrt(mu) - e``, d is the reflection of s across
        L_w_perp, so ``||d|| = ||s||``, and ``||d1 + d2||_inf = ||s||_inf``
        is read off the extreme eigenvalues of g_w, which the frame forms
        on first read: h_lb and h_ub then cost a few scalar operations.  d
        takes one projection when first read, and is decomposed only when
        its spectrum is read (see ``NewtonData``).  On either side
        ``d1 = P_{L_w_perp}(u_p/sqrt(mu) - e)`` and
        ``d2 = P_{L_w}(u_d/sqrt(mu) - e)``.
        """
        mu = float(mu)
        if not 0.0 < mu < math.inf:
            raise DomainError(f"mu must be positive and finite, got {mu!r}")
        s = self.g_f / math.sqrt(mu) - self.problem.cone.frame_identity
        return NewtonData(s_f=s, norm_d=math.sqrt(float(s @ s)), frame=self, mu=mu)


@dataclass(eq=False)
class NewtonData:
    """Newton direction with its orthogonal summands and derived bounds.

    ``s = d1 + d2 = g_w/sqrt(mu) - e``, held as frame coordinates ``s_f``;
    ``d = d1 - d2`` with d1 in L_w_perp and d2 in L_w is the reflection of
    s across L_w_perp, so ``norm_d`` is ||s||; ``frame`` is the scaled
    frame of w the data was built from, ``w`` is read off it, and ``mu`` is
    the centering parameter.  The rest is derived on first read and cached,
    so a centering test that takes no step projects nothing and decomposes
    no direction, and a full step decomposes nothing:
    ``sum_inf``, ||s||_inf, from the frame's extreme eigenvalues of g_w, and
    from it ``h_lb``/``h_ub``, which bound the divergence to the centered
    point (h_ub may be +inf); ``d_f``, the frame coordinates of d, from one
    projection of s; ``d_spectrum``, the one decomposition of d, which the
    geodesic step (``ScaledFrame.step``) maps on once it is formed;
    ``norm_d_inf``; and ``t_max``, the guaranteed-descent step bound.  The
    element ``d`` is packed when read.  ``record_bounds`` gives a step
    record its bounds.
    """

    s_f: np.ndarray
    norm_d: float
    frame: ScaledFrame
    mu: float

    @_lazy
    def sum_inf(self) -> float:
        lmin, lmax = self.frame.g_w_extremes
        sqrt_mu = math.sqrt(self.mu)
        return max(lmax / sqrt_mu - 1.0, 1.0 - lmin / sqrt_mu)

    @_lazy
    def h_lb(self) -> float:
        return self.norm_d ** 2 / (1.0 + self.sum_inf)

    @_lazy
    def h_ub(self) -> float:
        return self.norm_d ** 2 / (1.0 - self.sum_inf) if self.sum_inf < 1.0 else math.inf

    def record_bounds(self) -> tuple:
        """``(h_ub, h_lb, norm_d_inf)`` for a step record: the exact values
        once a reader has formed them, else the norm bounds, which decompose
        nothing.  ``||s||_inf <= ||s|| = ||d||`` gives
        ``norm_d^2 / (1 - norm_d)`` (+inf when norm_d >= 1), never below the
        exact h_ub, and ``norm_d^2 / (1 + norm_d)``, never above the exact
        h_lb; and ``||d||_inf <= ||d||`` gives norm_d."""
        n, n2 = self.norm_d, self.norm_d ** 2
        if "sum_inf" in self.__dict__:
            bounds = self.h_ub, self.h_lb
        else:
            bounds = (n2 / (1.0 - n) if n < 1.0 else math.inf), n2 / (1.0 + n)
        return bounds + ((self.norm_d_inf if "d_spectrum" in self.__dict__ else n),)

    @_lazy
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

    @_lazy
    def d_spectrum(self) -> jordan.Spectrum:
        return jordan.Spectrum.of_frame(self.frame.problem.cone, self.d_f)

    @_lazy
    def norm_d_inf(self) -> float:
        return float(np.abs(self.d_spectrum.eigenvalues).max())

    @_lazy
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
    the pole.  For beta >= 1, written beta = m 2^e with m in [1/2, 1), both
    quadratics are multiplied by 2^-e: a power of two commutes exactly with
    every product, sum, square root and quotient below, so the roots are
    those of the unscaled quadratics, and with beta 2^-e below 1 no
    coefficient overflows for any finite beta.  (Scaling up a beta below 1
    would overflow p^2 instead.)  Only g_w of the frame and its extreme
    eigenvalues, formed once per frame on first read, are read, so no Newton
    system is solved and no direction is decomposed.
    """
    mu_cur = float(mu_cur)
    sqrt_mu = math.sqrt(mu_cur)
    cone = frame.problem.cone
    a = frame.g_f / sqrt_mu
    gmin, gmax = frame.g_w_extremes
    lmin, lmax = gmin / sqrt_mu, gmax / sqrt_mu
    scale = math.ldexp(1.0, -math.frexp(beta)[1]) if beta >= 1.0 else 1.0
    aa, ta, n, b = float(a @ a) * scale, float(a @ cone.frame_identity) * scale, cone.rank * scale, beta * scale
    # both quadratics read aa r^2 - p r + c
    quadratics = ((2.0 * ta + b * lmin, n), (2.0 * ta - b * lmax, n - 2.0 * b))
    if any(aa - p + c > 0.0 for p, c in quadratics):
        return mu_cur
    r = max(1.0, min(_larger_root(aa, p, c) for p, c in quadratics))
    return mu_cur / (r * r)


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
    q, r = _factorize(problem._given_mc(), complete=True, what="the basis vectors of L")
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
    rp = _project(basis, on_l, jordan.unpack(x - x0), False)
    rd = _project(basis, on_l, jordan.unpack(s - s0), True)
    return float(np.linalg.norm(rp)), float(np.linalg.norm(rd))
