"""Constraint model, scaled projections, Newton directions, bounds, mu-selection."""

import math

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from geoipm import geometry as G
from geoipm import jordan as J
from geoipm import solver as V
from geoipm import subspace as S
from geoipm.harness import generate
from geoipm.errors import (
    ConeMismatchError,
    DegenerateConstraintsError,
    DomainError,
    IllConditionedBasisError,
    ProblemFormatError,
)

from util import (
    FAMILIES,
    PSD6,
    assert_elem_close,
    lp_newton_oracle,
    m_map,
    perturb_to_distance,
    perturb_to_divergence,
    random_basis_problem,
    random_element,
    random_interior,
)

ORTH1 = J.ConeDescriptor((J.Orthant(1),))
ORTH6 = J.ConeDescriptor((J.Orthant(6),))
SMALL_MIXED = J.ConeDescriptor((J.Orthant(3), J.SecondOrder(3), J.Psd(2)))


def _scaled_columns(scales):
    """Three random elements of orthant(3) + soc(3) + psd(2), scaled one by one."""
    rng = np.random.default_rng(0)
    return tuple(s * random_element(SMALL_MIXED, rng) for s in scales)


def _no_b_operator_problem(cone, cols, b=None):
    b = np.zeros(len(cols)) if b is None else b
    form = S.OperatorForm(columns=cols, B=[], b=b, c=J.identity(cone), g=[])
    return S.ConicProblem(cone, form)


def assert_x0_meets_the_primal_constraints(prob):
    """The operator form's x0 solves A*x + B*z = b, that is N_B^T (b - A* x0) = 0
    for an orthonormal basis N_B of ker B, to 1e-12 relative."""
    f = prob.form
    ax0 = np.array([J.inner(a, prob.x0) for a in f.columns])
    nb = scipy.linalg.null_space(f.B) if f.B.shape[0] else np.eye(len(f.columns))
    assert np.linalg.norm(nb.T @ (f.b - ax0)) <= 1e-12 * max(1.0, np.linalg.norm(f.b))


def scalar_problem(a=2.0, b=5.0):
    # orthant(1) with L = {0}: the centered point is x0/sqrt(mu) in closed form
    x0 = J.element(ORTH1, [a])
    s0 = J.element(ORTH1, [b])
    return S.ConicProblem(ORTH1, S.BasisForm(x0=x0, s0=s0, basis=()))


def test_basis_rank_check_at_load():
    rng = np.random.default_rng(0)
    l1 = random_element(ORTH6, rng)
    with pytest.raises(IllConditionedBasisError):
        S.ConicProblem(
            ORTH6,
            S.BasisForm(
                x0=J.identity(ORTH6), s0=J.identity(ORTH6), basis=(l1, 2.0 * l1)
            ),
        )
    # sigma_min/sigma_max = 3.8e-12: independent, but below the rank test's 1e-10
    e = J.identity(SMALL_MIXED)
    with pytest.raises(IllConditionedBasisError, match="numerically dependent"):
        S.ConicProblem(SMALL_MIXED, S.BasisForm(x0=e, s0=e, basis=_scaled_columns((1.0, 1.0, 1e-11))))


def test_scaled_projection_properties():
    rng = np.random.default_rng(1)
    for cone in FAMILIES.values():
        prob = random_basis_problem(cone, 3, rng)
        # w = e gives the projectors onto L and L-perp themselves
        proj = S.ScaledFrame(prob, J.identity(cone))
        for l in prob.form.basis:
            assert_elem_close(proj.onto_lw(l), l, 1e-10, "basis fixed by projector at e")
            assert J.norm2(proj.onto_lw_perp(l)) <= 1e-10 * J.norm2(l)
        w = random_interior(cone, rng)
        proj = S.ScaledFrame(prob, w)
        z = random_element(cone, rng)
        z2 = random_element(cone, rng)
        assert_elem_close(proj.onto_lw(z) + proj.onto_lw_perp(z), z, 1e-10, "complementary")
        assert abs(J.inner(proj.onto_lw(z), proj.onto_lw_perp(z2))) <= 1e-10
        # idempotent
        assert_elem_close(proj.onto_lw(proj.onto_lw(z)), proj.onto_lw(z), 1e-10, "idempotent")


def test_scaled_projections_rejects_boundary_w():
    rng = np.random.default_rng(2)
    prob = random_basis_problem(ORTH6, 2, rng)
    w = J.element(ORTH6, [1, 1, 1, 1, 1, 0])
    with pytest.raises(DomainError):
        S.ScaledFrame(prob, w)


# every entry point that builds a frame of a problem at a given point; the
# problem is psd(3) (dimension 6, rank 3)
FRAME_ENTRIES = {
    "ScaledFrame": lambda p, w: S.ScaledFrame(p, w),
    "newton_direction": lambda p, w: S.newton_direction(p, w, 1.0),
    "feasible_point": lambda p, w: S.feasible_point(p, w, 10.0),
    "longstep": lambda p, w: V.longstep(p, w, 1.0, 0.5),
    "shortstep": lambda p, w: V.shortstep(p, w, 1.0, 0.5, V.shortstep_params(0.5, 1e-4, 3)),
    "center": lambda p, w: V.center(p, w, 1.0, 1e-4),
    "oracle_center": lambda p, w: V.oracle_center(p, 1.0, warm=w),
    "solve": lambda p, w: V.solve(p, w, 1.0, 0.5, V.LongStepParams()),
}


@pytest.mark.parametrize("entry", sorted(FRAME_ENTRIES))
@pytest.mark.parametrize("size", [6, 9])
def test_a_point_on_another_cone_is_rejected(entry, size):
    """A point of orthant(6), whose frame coordinates have the length of
    psd(3)'s element coordinates, or of orthant(9), whose frame coordinates
    have the length of psd(3)'s, raises ConeMismatchError; an interior
    orthant(9) point must not yield Newton data or a feasible pair."""
    prob = generate.generate_random_sdp(3, 2, 0)
    other = J.ConeDescriptor((J.Orthant(size),))
    w = J.element(other, np.exp(0.3 * np.random.default_rng(5).standard_normal(size)))
    with pytest.raises(ConeMismatchError):
        FRAME_ENTRIES[entry](prob, w)


@pytest.mark.parametrize("size", [6, 9])
def test_transform_problem_rejects_a_map_on_another_cone(size):
    prob = generate.generate_random_sdp(3, 2, 0)
    other = J.ConeDescriptor((J.Orthant(size),))
    T = J.random_automorphism(other, np.random.default_rng(6))
    with pytest.raises(ConeMismatchError):
        S.transform_problem(prob, T)
    with pytest.raises(ConeMismatchError):
        S.transform_problem(S.as_operator_form(prob), T)


def test_rank_loss_in_operator_columns():
    col = J.element(ORTH6, [1.0, 0, 0, 0, 0, 0])
    form = S.OperatorForm(
        columns=(col, col), B=np.zeros((0, 2)), b=np.zeros(2), c=J.identity(ORTH6), g=np.zeros(0)
    )
    prob = S.ConicProblem(ORTH6, form)
    with pytest.raises(IllConditionedBasisError):
        S.ScaledFrame(prob, J.identity(ORTH6))
    # operator columns take the rank test of a basis, at first use: the
    # columns that a basis form rejects at load (test_basis_rank_check_at_load)
    prob = _no_b_operator_problem(SMALL_MIXED, _scaled_columns((1.0, 1.0, 1e-11)))
    with pytest.raises(IllConditionedBasisError, match="numerically dependent"):
        S.ScaledFrame(prob, J.identity(SMALL_MIXED))


def test_rank_test_takes_the_svd_only_when_the_bound_is_inconclusive(monkeypatch):
    """1/(||R||_F ||R^{-1}||_F) <= sigma_min/sigma_max decides a
    well-conditioned spanning set; a ratio near the tolerance takes the SVD."""
    well = S.as_operator_form(random_basis_problem(PSD6, 3, np.random.default_rng(3)))
    near = _no_b_operator_problem(SMALL_MIXED, _scaled_columns((1.0, 1.0, 1e-9)))
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
    S.ScaledFrame(S.ConicProblem(well.cone, well.form), J.identity(well.cone))
    assert calls == []
    # sigma_min/sigma_max is about 3.8e-10: independent, within a factor 4 of the tolerance
    S.ScaledFrame(near, J.identity(SMALL_MIXED))
    assert calls == [1]


def test_rank_test_ignores_the_scale_of_the_columns():
    """Columns of norm about 1e-13 span the same L-perp as the unscaled
    ones: they pass the rank test in both forms, and the operator form takes
    the same Newton direction."""
    e = J.identity(SMALL_MIXED)
    tiny = _scaled_columns((1e-13,) * 3)
    S.ConicProblem(SMALL_MIXED, S.BasisForm(x0=e, s0=e, basis=tiny))
    x0 = J.exp(random_element(SMALL_MIXED, np.random.default_rng(1), 0.5))
    w = random_interior(SMALL_MIXED, np.random.default_rng(2))
    directions = []
    for cols in (_scaled_columns((1.0,) * 3), tiny):
        prob = _no_b_operator_problem(SMALL_MIXED, cols, np.array([J.inner(a, x0) for a in cols]))
        assert_x0_meets_the_primal_constraints(prob)
        directions.append(S.newton_direction(prob, w, 0.7).d)
    assert_elem_close(directions[1], directions[0], 1e-10, "tiny columns")


def test_operator_form_row_count_of_b():
    """``[]`` states no B: (0, m), whatever m.  ``[[]]`` is one row of no
    columns, and zero rows of the wrong column count are rejected."""
    cols = _scaled_columns((1.0,) * 3)
    assert _no_b_operator_problem(SMALL_MIXED, cols).form.B.shape == (0, 3)
    e = J.identity(SMALL_MIXED)
    one_row = S.OperatorForm(columns=(), B=[[]], b=[], c=e, g=[0.0])
    assert S.ConicProblem(SMALL_MIXED, one_row).form.B.shape == (1, 0)
    bad = S.OperatorForm(columns=cols, B=np.zeros((0, 5)), b=np.zeros(3), c=e, g=[])
    with pytest.raises(ProblemFormatError, match="one column per operator column"):
        S.ConicProblem(SMALL_MIXED, bad)


def test_rank_loss_more_columns_than_dimension():
    # seven columns in a six-dimensional space are dependent whatever their values
    rng = np.random.default_rng(18)
    cols = tuple(random_element(ORTH6, rng) for _ in range(7))
    form = S.OperatorForm(
        columns=cols, B=np.zeros((0, 7)), b=np.zeros(7), c=J.identity(ORTH6), g=np.zeros(0)
    )
    with pytest.raises(IllConditionedBasisError):
        S.ScaledFrame(S.ConicProblem(ORTH6, form), J.identity(ORTH6))


def test_basis_longer_than_the_cone_dimension_is_rejected_at_load():
    # four vectors in a three-dimensional space are dependent whatever their values
    rng = np.random.default_rng(19)
    cone = J.ConeDescriptor((J.Orthant(3),))
    basis = tuple(random_element(cone, rng) for _ in range(4))
    with pytest.raises(IllConditionedBasisError, match="dimension 3"):
        S.ConicProblem(cone, S.BasisForm(x0=J.identity(cone), s0=J.identity(cone), basis=basis))


def _side_case(cone, case, rng):
    """A problem in basis or operator form with dim L = 2 or dim L-perp = 2
    ("large-L"), and its dim L.  The operator form states L-perp, so its
    given spanning set is the larger side exactly when L is small."""
    form, large_l = case
    dim_l = cone.dim - 2 if large_l else 2
    prob = random_basis_problem(cone, dim_l, rng)
    return (S.as_operator_form(prob) if form == "operator" else prob), dim_l


SIDE_CASES = {
    "basis": ("basis", False),
    "operator": ("operator", False),
    "basis-large-L": ("basis", True),
    "operator-large-L": ("operator", True),
}


@pytest.mark.parametrize("case", SIDE_CASES.values(), ids=SIDE_CASES.keys())
def test_stepped_frame_matches_the_frame_of_the_stepped_point(case):
    """A step in the frame lands on T exp(t d), which is Q(w^{1/2}) exp(t d)
    from a frame built at w, and the frame it gives reads the same Newton
    data and the same feasible pair as the frame built from that point,
    which is rotated against it.  Both sides of the frame run: it spans L or
    L-perp, whichever is smaller, as the form gives it or as its complement."""
    rng = np.random.default_rng(41)
    mu = 0.8
    for cone in FAMILIES.values():
        prob, dim_l = _side_case(cone, case, rng)
        w = perturb_to_divergence(V.oracle_center(prob, mu), rng, 0.3)
        frame = S.ScaledFrame(prob, w)
        assert frame.basis.shape[1] == min(dim_l, cone.dim - dim_l)
        for t in (1.0, 0.4):
            nd = frame.newton(mu)
            stepped = frame.step(nd, t)
            (exp_td,) = nd.d_spectrum.map(lambda lam: np.exp(t * lam))
            w_next = J.pack(cone, frame.anchor.columns(exp_td))
            assert_elem_close(stepped.w, w_next, 1e-10, "stepped point")
            if t == 1.0:
                assert_elem_close(w_next, G.geodesic_point(G.ray(frame.w, nd.d), t), 1e-10, "geodesic")
            fresh = S.ScaledFrame(prob, w_next)
            a, b = stepped.newton(mu), fresh.newton(mu)
            assert a.norm_d == pytest.approx(b.norm_d, rel=1e-8, abs=1e-12)
            assert a.sum_inf == pytest.approx(b.sum_inf, rel=1e-8, abs=1e-12)
            assert a.norm_d_inf == pytest.approx(b.norm_d_inf, rel=1e-8, abs=1e-12)
            assert stepped.g_w_extremes == pytest.approx(fresh.g_w_extremes, rel=1e-10)
            pair_a, pair_b = a.pair(), b.pair()
            assert pair_a is not None and pair_b is not None
            for p, q in zip(pair_a, pair_b):
                assert_elem_close(p, q, 1e-9, "feasible pair")
            frame = stepped



@pytest.mark.parametrize("form", ["basis", "operator"])
@pytest.mark.parametrize("full", [False, True], ids=["dim-L-0", "dim-L-N"])
def test_trivial_subspaces(form, full, capfd):
    """dim L = 0 fixes x = x0 and dim L = N fixes s = s0, so the centered
    point is x0/sqrt(mu) or sqrt(mu) s0^{-1}; the frame spans nothing, and
    the steps of both trackers, which have no basis to orthonormalize, write
    nothing."""
    rng = np.random.default_rng(43)
    capfd.readouterr()
    mu, mu_f = 0.6, 1.0 / 128.0
    for cone in FAMILIES.values():
        prob = random_basis_problem(cone, cone.dim if full else 0, rng)
        if form == "operator":
            prob = S.as_operator_form(prob)

        def center(m):
            return math.sqrt(m) * J.inverse(prob.s0) if full else prob.x0 / math.sqrt(m)

        frame = S.ScaledFrame(prob, center(mu))
        assert frame.basis.shape[1] == 0
        assert frame.newton(mu).norm_d <= 1e-12
        state, _ = V.longstep(prob, J.identity(cone), 1.0, mu_f)
        assert state.mu <= mu_f and state.h_ub <= 1e-4
        assert_elem_close(state.w, center(state.mu), 1e-2, "near the centered point")
        x, s = state.pair()
        rp, rd = S.affine_residuals(prob, x, s)
        assert rp <= 1e-12 * J.norm2(x) and rd <= 1e-12 * J.norm2(s)
        params = V.shortstep_params(0.5, 1e-4, cone.rank)
        _, trace = V.shortstep(prob, V.oracle_center(prob, 1.0), 1.0, mu_f, params)
        assert trace.newton_steps > 0
    assert capfd.readouterr() == ("", "")


def _null_space_cases():
    rng = np.random.default_rng(45)
    full = rng.standard_normal((3, 7))
    return {
        "full_row_rank": full,
        "repeated_row": np.vstack((full, full[1])),
        "single_row": rng.standard_normal((1, 5)),
        "more_rows_than_columns": rng.standard_normal((6, 4)),
    }


NULL_SPACE_CASES = _null_space_cases()


@pytest.mark.parametrize("B", NULL_SPACE_CASES.values(), ids=NULL_SPACE_CASES.keys())
def test_null_space_matches_the_reference(B):
    """The kernel of B that an operator form with B rows projects on: the
    same subspace as ``scipy.linalg.null_space``, with an orthonormal basis."""
    ref = scipy.linalg.null_space(B)
    got = S._null_space(B)
    assert got.shape == ref.shape
    assert np.abs(got.T @ got - np.eye(got.shape[1])).max(initial=0.0) <= 1e-12
    assert np.abs(got @ got.T - ref @ ref.T).max() <= 1e-12
    assert np.abs(B @ got).max(initial=0.0) <= 1e-12 * np.abs(B).max()


def test_cholesky_qr_matches_the_triangular_inverse_reference(capfd):
    """The step's orthonormalization against LAPACK's Cholesky factor and
    triangular inverse; it rejects dependent columns and hands back an
    empty basis untouched."""
    rng = np.random.default_rng(46)
    cols = np.asfortranarray(rng.standard_normal((40, 6)))
    chol, _ = scipy.linalg.lapack.dpotrf(cols.T @ cols, lower=1)
    chol_inv, _ = scipy.linalg.lapack.dtrtri(chol, lower=1)
    q = S._cholesky_qr(cols)
    assert q.flags.f_contiguous
    assert np.abs(q - cols @ chol_inv.T).max() <= 1e-13
    # the third column is the sum of the first two; the Gram matrix of these
    # integer columns is exact, so its last Cholesky pivot is exactly zero
    c1, c2 = np.array([1.0, 2.0, 2.0, 0.0]), np.array([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(IllConditionedBasisError):
        S._cholesky_qr(np.asfortranarray(np.column_stack((c1, c2, c1 + c2))))
    empty = np.zeros((40, 0), order="F")
    capfd.readouterr()
    assert S._cholesky_qr(empty) is empty
    assert capfd.readouterr() == ("", "")


@pytest.mark.parametrize("case", SIDE_CASES.values(), ids=SIDE_CASES.keys())
def test_dual_swaps_the_affine_sets(case):
    """The dual's primal set is s0 + L-perp and its dual set x0 + L, so
    ``dual().dual()`` states the same affine sets in the same form, and the
    dual's Newton direction at w^{-1} is -d."""
    rng = np.random.default_rng(44)
    for cone in FAMILIES.values():
        prob, dim_l = _side_case(cone, case, rng)
        dual = prob.dual()
        twice = dual.dual()
        # the dual's form data alone, as a problem file would restate them
        restated = S.ConicProblem(cone, dual.form)
        assert type(dual.form) is not type(prob.form) and type(twice.form) is type(prob.form)
        at_e = [S.ScaledFrame(p, J.identity(cone)) for p in (prob, dual, twice, restated)]
        assert [f.basis.shape[1] for f in at_e] == [min(dim_l, cone.dim - dim_l)] * 4
        for z in (random_element(cone, rng) for _ in range(3)):
            assert_elem_close(at_e[1].onto_lw(z), at_e[0].onto_lw_perp(z), 1e-10, "L of the dual")
            assert_elem_close(at_e[2].onto_lw(z), at_e[0].onto_lw(z), 1e-10, "L of the dual's dual")
            assert_elem_close(at_e[3].onto_lw(z), at_e[0].onto_lw_perp(z), 1e-10, "L restated")
        if case[0] == "operator":
            assert_x0_meets_the_primal_constraints(prob)
        for p, x0, s0 in (
            (dual, prob.s0, prob.x0),
            (restated, prob.s0, prob.x0),
            (twice, prob.x0, prob.s0),
            (prob, twice.x0, twice.s0),
        ):
            rp, rd = S.affine_residuals(p, x0, s0)
            assert rp <= 1e-10 * J.norm2(x0) and rd <= 1e-10 * J.norm2(s0)
        # the dual's direction at w^{-1} is -d
        w = random_interior(cone, rng)
        d = S.newton_direction(prob, w, 0.7).d
        assert_elem_close(S.newton_direction(dual, J.inverse(w), 0.7).d, -1.0 * d, 1e-10, "-d")


def test_newton_direction_scalar_closed_form():
    prob = scalar_problem(a=2.0)
    mu = 0.49
    # L = {0}: d = Q(w^{-1/2}) x0 / sqrt(mu) - e, and d2 = 0
    w = J.element(ORTH1, [1.3])
    nd = S.newton_direction(prob, w, mu)
    expect = 2.0 / (1.3 * math.sqrt(mu)) - 1.0
    assert nd.d.coords[0] == pytest.approx(expect, rel=1e-12)
    assert J.norm2(nd.d2) == 0.0
    # at the centered point w = x0/sqrt(mu) the direction vanishes
    w_hat = J.element(ORTH1, [2.0 / math.sqrt(mu)])
    nd = S.newton_direction(prob, w_hat, mu)
    assert nd.norm_d <= 1e-14
    assert nd.h_lb <= 1e-14 and nd.h_ub <= 1e-14


def test_newton_data_invariants():
    rng = np.random.default_rng(3)
    for cone in FAMILIES.values():
        prob = random_basis_problem(cone, 3, rng)
        w = random_interior(cone, rng)
        mu = float(rng.uniform(0.2, 3.0))
        nd = S.newton_direction(prob, w, mu)
        assert J.norm2(nd.d1 - nd.d2 - nd.d) <= 1e-10 * max(1.0, nd.norm_d)
        assert abs(J.inner(nd.d1, nd.d2)) <= 1e-10 * max(1.0, J.norm2(nd.d1) * J.norm2(nd.d2))
        ident = nd.frame.g_w / math.sqrt(mu) - J.identity(cone)
        assert J.norm2((nd.d1 + nd.d2) - ident) <= 1e-10
        if math.isfinite(nd.h_ub):
            assert nd.h_lb <= nd.h_ub + 1e-15
        assert nd.norm_d == pytest.approx(J.norm2(nd.d), rel=1e-12)
        assert nd.norm_d_inf == pytest.approx(np.abs(J.eigenvalues(nd.d)).max(), rel=1e-12)


def test_lp_log_domain_oracle():
    rng = np.random.default_rng(4)
    for _ in range(5):
        prob = random_basis_problem(ORTH6, 3, rng)
        w = random_interior(ORTH6, rng)
        mu = float(rng.uniform(0.3, 2.0))
        nd = S.newton_direction(prob, w, mu)
        d_oracle = lp_newton_oracle(prob, w, mu)
        assert_elem_close(nd.d, d_oracle, 1e-10, "log-domain Newton")


def test_route_equivalence_example():
    # random SDP with n = 6, dim L = 3: basis and operator forms agree
    rng = np.random.default_rng(5)
    prob = random_basis_problem(PSD6, 3, rng)
    op = S.as_operator_form(prob)
    for _ in range(3):
        w = random_interior(PSD6, rng)
        mu = float(rng.uniform(0.2, 2.0))
        nd_b = S.newton_direction(prob, w, mu)
        nd_o = S.newton_direction(op, w, mu)
        assert_elem_close(nd_b.d, nd_o.d, 1e-8, "route d")
        assert_elem_close(nd_b.d1, nd_o.d1, 1e-8, "route d1")
        assert_elem_close(nd_b.d2, nd_o.d2, 1e-8, "route d2")
        assert nd_b.h_lb == pytest.approx(nd_o.h_lb, rel=1e-7, abs=1e-10)


def test_route_equivalence_degenerate_subspace():
    # dim L = 0: the operator form's L-perp spans the whole space
    prob = scalar_problem(a=2.0)
    op = S.as_operator_form(prob)
    w = J.element(ORTH1, [1.3])
    mu = 0.49
    nd_b = S.newton_direction(prob, w, mu)
    nd_o = S.newton_direction(op, w, mu)
    assert_elem_close(nd_b.d, nd_o.d, 1e-10, "dim L = 0 route")


def test_operator_form_with_constrained_coefficients():
    # redundant columns killed by By = g reproduce the basis-form direction
    rng = np.random.default_rng(6)
    prob = random_basis_problem(ORTH6, 2, rng)
    op = S.as_operator_form(prob)
    base_cols = op.form.columns
    extra = tuple(random_element(ORTH6, rng) for _ in range(2))
    m = len(base_cols) + len(extra)
    B = np.zeros((2, m))
    B[0, m - 2] = 1.0
    B[1, m - 1] = 1.0
    b = np.concatenate([op.form.b, [J.inner(extra[0], prob.form.x0), J.inner(extra[1], prob.form.x0)]])
    form = S.OperatorForm(columns=base_cols + extra, B=B, b=b, c=op.form.c, g=np.zeros(2))
    op2 = S.ConicProblem(ORTH6, form)
    assert_x0_meets_the_primal_constraints(op2)
    w = random_interior(ORTH6, rng)
    mu = 0.8
    nd_b = S.newton_direction(prob, w, mu)
    nd_o = S.newton_direction(op2, w, mu)
    assert_elem_close(nd_b.d, nd_o.d, 1e-8, "operator route with B block")


def test_redundant_constraint_rows():
    # a duplicated but consistent row of B leaves the affine sets unchanged
    rng = np.random.default_rng(7)
    prob = random_basis_problem(ORTH6, 2, rng)
    op = S.as_operator_form(prob)
    m = len(op.form.columns)

    def with_rows(B, g):
        form = S.OperatorForm(columns=op.form.columns, B=B, b=op.form.b, c=op.form.c, g=g)
        return S.ConicProblem(ORTH6, form)

    B = np.zeros((2, m))
    B[0, 0] = 1.0
    B[1, 0] = 1.0  # duplicated row
    w = random_interior(ORTH6, rng)
    dup, one = with_rows(B, np.zeros(2)), with_rows(B[:1], np.zeros(1))
    nd_dup = S.newton_direction(dup, w, 0.7)
    nd_one = S.newton_direction(one, w, 0.7)
    assert_elem_close(nd_dup.d, nd_one.d, 1e-8, "redundant row of B")
    # ker B = {0} leaves x free: L is the whole space and x0 solves nothing
    free = with_rows(np.eye(m), np.ones(m))
    assert S.ScaledFrame(free, w).basis.shape[1] == 0
    for prob in (dup, one, free):
        assert_x0_meets_the_primal_constraints(prob)
    # the same rows with g = [0, 1] ask y_0 = 0 and y_0 = 1: the dual set is
    # empty; so it is with g = [1, 1 + 1e-6], whose least-squares residual
    # 5e-7 is far above the tolerance 1e-8 ||g||
    for g in ([0.0, 1.0], [1.0, 1.0 + 1e-6]):
        with pytest.raises(DegenerateConstraintsError):
            S.newton_direction(with_rows(B, np.array(g)), w, 0.7)


def test_step_bound_examples():
    # _t_max(norm_d, norm_d_inf, h_lb) is the one place NewtonData.t_max comes from
    # rank-one direction with unit eigenvalue: 2(1/2 + 1)/(1/2 + 2) = 1.2
    assert S._t_max(1.0, 1.0, 0.5) == pytest.approx(1.2, rel=1e-12)
    # rank-one direction with eigenvalue a -> 0: limit 2
    for a in (1e-3, 1e-5):
        assert S._t_max(a, a, a * a / (1 + a)) == pytest.approx(2.0, abs=5 * a)
    # k-fold equal magnitudes, small h_lb, ||d||_inf^2 <= 2: limit 1
    k = 7
    a = 1.2
    assert S._t_max(math.sqrt(k) * a, a, 0.0) == pytest.approx(1.0, rel=1e-12)
    # d = 0 sentinel
    assert S._t_max(0.0, 0.0, 0.0) == math.inf


def test_mu_candidates_centered_scalar():
    # centered scalar instance: g_w = sqrt(mu0) e, h_ub(r) = (r-1)^2 / min(r, 2-r)
    mu0 = 1.7
    prob = scalar_problem(a=2.0)
    w = J.element(ORTH1, [2.0 / math.sqrt(mu0)])
    beta = 0.25
    mu_star = S.mu_candidates(S.ScaledFrame(prob, w), mu0, beta)
    r = scipy.optimize.brentq(lambda r: (r - 1.0) ** 2 - beta * (2.0 - r), 1.0, 1.999999)
    assert mu_star == pytest.approx(mu0 / r ** 2, rel=1e-9)
    assert r == pytest.approx(1.390388, abs=1e-5)


def test_mu_candidates_closed_form_matches_h_ub():
    rng = np.random.default_rng(8)
    count = 0
    while count < 20:
        cone = list(FAMILIES.values())[count % len(FAMILIES)]
        prob = random_basis_problem(cone, 3, rng)
        mu = float(rng.uniform(0.3, 2.0))
        w_hat = V.oracle_center(prob, mu)
        w = perturb_to_distance(w_hat, rng, 0.3)
        nd = S.newton_direction(prob, w, mu)
        if not math.isfinite(nd.h_ub):
            continue
        lam = J.eigenvalues(nd.frame.g_w) / math.sqrt(mu)
        k = min(lam.min(), 2.0 - lam.max())
        closed = (
            J.inner(nd.frame.g_w, nd.frame.g_w) / mu
            - 2.0 * J.inner(nd.frame.g_w, J.identity(cone)) / math.sqrt(mu)
            + cone.rank
        ) / k
        assert closed == pytest.approx(nd.h_ub, rel=1e-9, abs=1e-9)
        # the selected mu sits on the boundary h_ub = beta
        mu_next = S.mu_candidates(nd.frame, mu, 100.0)
        if mu_next < mu:
            assert nd.frame.newton(mu_next).h_ub == pytest.approx(100.0, rel=1e-9)
        count += 1


@pytest.mark.parametrize("name", sorted(FAMILIES))
def test_scale_matched_mu_minimises_norm_d(name):
    cone = FAMILIES[name]
    rng = np.random.default_rng(41)
    prob = random_basis_problem(cone, 3, rng)
    for w in (J.identity(cone), random_interior(cone, rng)):
        frame = S.ScaledFrame(prob, w)
        mu_star = S.scale_matched_mu(frame)
        assert 0.0 < mu_star < math.inf
        best = frame.newton(mu_star).norm_d
        grid = [frame.newton(mu_star * 10.0 ** k).norm_d for k in np.linspace(-3.0, 3.0, 60)]
        assert best <= min(grid) * (1.0 + 1e-12)
        # the reflection keeps the norm: ||d|| = ||g_w/sqrt(mu) - e||
        nd = frame.newton(mu_star)
        assert nd.norm_d == pytest.approx(J.norm2(nd.d), rel=1e-12)


def test_newton_direction_vanishes_at_oracle_center():
    rng = np.random.default_rng(15)
    prob = random_basis_problem(PSD6, 3, rng)
    mu = 0.7
    w_hat = V.oracle_center(prob, mu)
    nd = S.newton_direction(prob, w_hat, mu)
    assert nd.norm_d <= 2e-6  # h_ub <= 1e-12 pins ||d|| to ~1e-6
    assert nd.h_lb <= 1e-12 and nd.h_ub <= 1e-12


def test_mu_candidates_monotone_and_pole_clamp():
    rng = np.random.default_rng(9)
    prob = random_basis_problem(PSD6, 3, rng)
    mu0 = 1.0
    w = V.oracle_center(prob, mu0)
    frame = S.ScaledFrame(prob, w)
    mu_b = S.mu_candidates(frame, mu0, 100.0)
    assert mu_b < mu0
    # huge beta clamps at the pole where the bound's denominator vanishes, also
    # where the quadratics' coefficients overflow
    lam_max = float(J.eigenvalues(frame.g_w).max())
    mu_pole = lam_max ** 2 / 4.0
    for beta in (1e18, 1e200, 1e308):
        mu_inf = S.mu_candidates(frame, mu0, beta)
        assert mu_inf == pytest.approx(mu_pole, rel=1e-6)
        assert mu_inf <= mu_b


def test_feasible_point_and_gap():
    prob = scalar_problem(a=2.0, b=3.0)
    mu = 0.81
    w_hat = J.element(ORTH1, [2.0 / math.sqrt(mu)])
    pair = S.feasible_point(prob, w_hat, mu)
    assert pair is not None
    x, s = pair
    assert_elem_close(x, math.sqrt(mu) * w_hat, 1e-12, "x = sqrt(mu) w")
    assert_elem_close(s, math.sqrt(mu) * J.inverse(w_hat), 1e-12, "s = sqrt(mu) w^{-1}")
    assert S.duality_gap(x, s) == pytest.approx(mu * prob.cone.rank, rel=1e-12)
    assert S.duality_gap(J.zero(ORTH1), J.zero(ORTH1)) == 0.0

    # far point: ||d||_inf > 1 -> no extraction
    w_far = J.element(ORTH1, [0.01])
    nd = S.newton_direction(prob, w_far, mu)
    assert nd.norm_d_inf > 1.0
    assert nd.pair() is None


def test_feasible_point_residuals_near_center():
    rng = np.random.default_rng(10)
    for cone in FAMILIES.values():
        prob = random_basis_problem(cone, 3, rng)
        mu = 0.9
        w_hat = V.oracle_center(prob, mu)
        w = perturb_to_distance(w_hat, rng, 0.2)
        pair = S.feasible_point(prob, w, mu)
        assert pair is not None
        x, s = pair
        rp, rd = S.affine_residuals(prob, x, s)
        assert rp <= 1e-8 and rd <= 1e-8
        assert J.min_eigenvalue(x) >= -1e-10
        assert J.min_eigenvalue(s) >= -1e-10
        assert S.duality_gap(x, s) > 0.0


def test_nt_coincidence():
    # with x = mu s^{-1} the scaling point is w and (d, -d) solves the
    # scaled-direction conditions of the classical primal-dual method
    rng = np.random.default_rng(11)
    for cone in FAMILIES.values():
        prob = random_basis_problem(cone, 3, rng)
        mu = float(rng.uniform(0.4, 1.8))
        s = random_interior(cone, rng)
        x = mu * J.inverse(s)
        w = x / math.sqrt(mu)
        # p = Q(x^{1/2}) (Q(x^{1/2}) s)^{-1/2}
        x_half = J.sqrt(x)
        p = J.quad_rep(x_half, J.spectral_map(J.quad_rep(x_half, s), lambda lam: lam ** -0.5))
        assert_elem_close(p, w, 1e-9, "scaling point")
        v = J.quad_rep(J.spectral_map(p, lambda lam: lam ** -0.5), x) / math.sqrt(mu)
        assert_elem_close(v, J.identity(cone), 1e-9, "v = e")
        nd = S.newton_direction(prob, w, mu)
        d = nd.d
        # affine memberships of the (d, -d) update
        w_half, w_inv_half = J.spectral_map_multi(w, (np.sqrt, lambda lam: lam ** -0.5))
        x_new = x + math.sqrt(mu) * J.quad_rep(w_half, d)
        s_new = s + math.sqrt(mu) * J.quad_rep(w_inv_half, -1.0 * d)
        rp, rd = S.affine_residuals(prob, x_new, s_new)
        assert rp <= 1e-9 * max(1.0, J.norm2(x_new))
        assert rd <= 1e-9 * max(1.0, J.norm2(s_new))


def test_direction_scale_invariance():
    rng = np.random.default_rng(12)
    for cone in FAMILIES.values():
        prob = random_basis_problem(cone, 3, rng)
        T = J.random_automorphism(cone, rng)  # non-orthogonal in general
        w = random_interior(cone, rng)
        mu = 0.7
        nd = S.newton_direction(prob, w, mu)
        prob_t = S.transform_problem(prob, T)
        tw = J.apply_automorphism(T, w)
        nd_t = S.newton_direction(prob_t, tw, mu)
        M = m_map(T, w)
        assert_elem_close(nd_t.d, M(nd.d), 1e-8, "d transforms by M")
        assert_elem_close(nd_t.d1, M(nd.d1), 1e-8, "d1 transforms by M")
        assert_elem_close(nd_t.d2, M(nd.d2), 1e-8, "d2 transforms by M")
        assert nd_t.h_lb == pytest.approx(nd.h_lb, rel=1e-8, abs=1e-12)
        if math.isfinite(nd.h_ub):
            assert nd_t.h_ub == pytest.approx(nd.h_ub, rel=1e-8, abs=1e-12)
        assert nd_t.t_max == pytest.approx(nd.t_max, rel=1e-8)
    # operator-form data transforms consistently as well
    rng = np.random.default_rng(16)
    cone = FAMILIES["psd"]
    prob = S.as_operator_form(random_basis_problem(cone, 3, rng))
    T = J.random_automorphism(cone, rng)
    w = random_interior(cone, rng)
    nd = S.newton_direction(prob, w, 0.9)
    nd_t = S.newton_direction(S.transform_problem(prob, T), J.apply_automorphism(T, w), 0.9)
    assert_elem_close(nd_t.d, m_map(T, w)(nd.d), 1e-8, "operator-form d transforms by M")


def test_descent_identities_quick():
    rng = np.random.default_rng(13)
    prob = random_basis_problem(PSD6, 3, rng)
    mu = 1.1
    w_hat = V.oracle_center(prob, mu)
    w = perturb_to_divergence(w_hat, rng, 0.4)
    nd = S.newton_direction(prob, w, mu)
    r = G.ray(w, nd.d)
    f0 = G.divergence(w, w_hat)
    step = 1e-5
    fp = G.divergence_profile(r, step, w_hat)
    fm = G.divergence_profile(r, -step, w_hat)
    fd1 = (fp - fm) / (2.0 * step)
    expect = -(f0 + nd.norm_d ** 2)
    assert fd1 == pytest.approx(expect, rel=1e-5)
    # even-derivative bound at m = 1: f''(0) <= ||d||_inf^2 f(0) + 2 ||d||^2
    step = 1e-4
    fd2 = (G.divergence_profile(r, step, w_hat) - 2.0 * f0 + G.divergence_profile(r, -step, w_hat)) / step ** 2
    assert fd2 <= nd.norm_d_inf ** 2 * f0 + 2.0 * nd.norm_d ** 2 + 1e-5
    # full Newton step contraction when ||d||_inf^2 <= 2
    assert nd.norm_d_inf ** 2 <= 2.0
    h1 = G.divergence(G.geodesic_point(r, 1.0), w_hat)
    assert h1 <= 0.5 * nd.norm_d_inf ** 2 * f0 + 1e-9
    # h <= 1/2 forces ||d|| <= 1
    assert nd.norm_d <= 1.0 + 1e-12
    # bound correctness against the oracle divergence
    assert nd.h_lb <= f0 + 1e-9
    if math.isfinite(nd.h_ub):
        assert f0 <= nd.h_ub + 1e-9


def test_descent_window_quick():
    rng = np.random.default_rng(14)
    prob = random_basis_problem(PSD6, 3, rng)
    mu = 0.6
    w_hat = V.oracle_center(prob, mu)
    w = perturb_to_distance(w_hat, rng, 1.5)
    nd = S.newton_direction(prob, w, mu)
    h0 = G.divergence(w, w_hat)
    r = G.ray(w, nd.d)
    for frac in (0.25, 0.5, 0.75, 1.0):
        ht = G.divergence(G.geodesic_point(r, frac * nd.t_max), w_hat)
        assert ht <= h0 + 1e-9
