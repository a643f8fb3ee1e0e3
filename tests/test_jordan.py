"""Algebra kernel: block products, spectral calculus, norms, automorphisms."""

import math

import numpy as np
import pytest

from geoipm import jordan as J
from geoipm.errors import ConeMismatchError, DomainError

from util import FAMILIES, MIXED, assert_elem_close, random_element, random_interior

ORTH2 = J.ConeDescriptor((J.Orthant(2),))
ORTH3 = J.ConeDescriptor((J.Orthant(3),))
SOC3 = J.ConeDescriptor((J.SecondOrder(3),))
PSD2 = J.ConeDescriptor((J.Psd(2),))
PSD1 = J.ConeDescriptor((J.Psd(1),))


def test_descriptor_rank_and_dim():
    assert ORTH3.rank == 3 and ORTH3.dim == 3
    assert SOC3.rank == 2 and SOC3.dim == 3
    assert PSD2.rank == 2 and PSD2.dim == 3
    assert MIXED.rank == 3 + 2 + 3
    assert MIXED.dim == 3 + 4 + 6


def test_descriptor_validation():
    with pytest.raises(ValueError):
        J.Orthant(0)
    with pytest.raises(ValueError):
        J.SecondOrder(1)
    with pytest.raises(ValueError):
        J.Psd(0)
    with pytest.raises(ValueError):
        J.ConeDescriptor(())


def test_element_validation():
    with pytest.raises(ValueError):
        J.element(ORTH3, [1.0, 2.0])


def test_circ_examples():
    x = J.element(ORTH3, [1, 2, 3])
    y = J.element(ORTH3, [4, 5, 6])
    assert np.allclose(J.circ(x, y).coords, [4, 10, 18])

    e = J.identity(SOC3)
    y = J.element(SOC3, [2, 3, 4])
    assert np.allclose(J.circ(e, y).coords, [2, 3, 4])

    X = J.from_blocks(PSD2, [np.diag([1.0, 2.0])])
    Y = J.from_blocks(PSD2, [np.array([[0.0, 1.0], [1.0, 0.0]])])
    assert np.allclose(J.to_blocks(J.circ(X, Y))[0], [[0.0, 1.5], [1.5, 0.0]])


def test_circ_commutative_and_mismatch():
    rng = np.random.default_rng(1)
    for cone in FAMILIES.values():
        x = random_element(cone, rng)
        y = random_element(cone, rng)
        assert_elem_close(J.circ(x, y), J.circ(y, x), 1e-14, "commutativity")
    with pytest.raises(ConeMismatchError):
        J.circ(J.identity(ORTH3), J.identity(SOC3))


def test_quad_rep_examples():
    rng = np.random.default_rng(2)
    for cone in FAMILIES.values():
        z = random_element(cone, rng)
        assert_elem_close(J.quad_rep(J.identity(cone), z), z, 1e-14, "Q(e)z = z")

    w = J.element(ORTH2, [2.0, 3.0])
    z = J.element(ORTH2, [1.0, 1.0])
    assert np.allclose(J.quad_rep(w, z).coords, [4.0, 9.0])

    W = J.from_blocks(PSD2, [np.diag([1.0, 2.0])])
    Z = J.from_blocks(PSD2, [np.ones((2, 2))])
    assert np.allclose(J.to_blocks(J.quad_rep(W, Z))[0], [[1.0, 2.0], [2.0, 4.0]])


def test_quad_rep_matches_defining_formula():
    rng = np.random.default_rng(3)
    cases = [(cone, random_element(cone, rng)) for cone in FAMILIES.values()]
    # degenerate blocks: a second-order w with zero vector part, and psd(1)
    cases.append((SOC3, J.element(SOC3, [1.7, 0.0, 0.0])))
    cases.append((PSD1, J.element(PSD1, [-0.8])))
    for cone, w in cases:
        for m in (0, 1, 5):
            Z = rng.standard_normal((cone.dim, m))
            cols = J.quad_rep_columns(w, Z)
            assert cols.shape == (cone.dim, m)
            for j in range(m):
                z = J.element(cone, Z[:, j])
                via_def = 2.0 * J.circ(w, J.circ(w, z)) - J.circ(J.circ(w, w), z)
                assert_elem_close(J.element(cone, cols[:, j]), via_def, 1e-12, "Q(w) on a column")
                assert_elem_close(J.quad_rep(w, z), via_def, 1e-12, "Q(w)z definition")
    # Q acts blockwise and the metric is one scalar per block, so Q maps
    # metric coordinates to metric coordinates (ScaledFrame.basis relies on it)
    root = np.sqrt(J.metric_diag(MIXED))
    w = random_element(MIXED, rng)
    Z = rng.standard_normal((MIXED.dim, 5))
    via_elements = [J.quad_rep(w, J.element(MIXED, Z[:, j])).coords * root for j in range(5)]
    via_kernel = J.quad_rep_columns(w, root[:, None] * Z)
    assert np.allclose(via_kernel, np.column_stack(via_elements), rtol=0, atol=1e-12)


def test_spectral_examples():
    x = J.element(SOC3, [3.0, 0.0, 4.0])
    assert sorted(J.eigenvalues(x).tolist()) == [-1.0, 7.0]

    sd = J.spectral(J.element(ORTH2, [5.0, 7.0]))
    assert np.allclose(sd.eigenvalues, [5.0, 7.0])
    assert np.allclose(sd.frame[0].coords, [1.0, 0.0])

    diag = J.from_blocks(PSD2, [np.diag([2.0, 9.0])])
    assert sorted(J.eigenvalues(diag).tolist()) == [2.0, 9.0]


def test_spectral_frame_properties():
    rng = np.random.default_rng(4)
    for cone in FAMILIES.values():
        x = J.element(cone, rng.uniform(-10, 10, cone.dim))
        sd = J.spectral(x)
        assert sd.eigenvalues.shape == (cone.rank,)
        recon = J.zero(cone)
        for lam, f in zip(sd.eigenvalues, sd.frame):
            recon = recon + float(lam) * f
            assert_elem_close(J.circ(f, f), f, 1e-10, "idempotent")
        assert J.norm2(recon - x) <= 1e-10 * max(1.0, J.norm2(x))
        for i, fi in enumerate(sd.frame):
            for fj in sd.frame[i + 1 :]:
                assert abs(J.inner(fi, fj)) < 1e-10
        total = J.zero(cone)
        for f in sd.frame:
            total = total + f
        assert_elem_close(total, J.identity(cone), 1e-10, "frame sums to identity")


def test_soc_degenerate_frame_is_deterministic():
    x = J.element(SOC3, [2.0, 0.0, 0.0])
    sd = J.spectral(x)
    assert np.allclose(sd.frame[0].coords, [0.5, 0.5, 0.0])
    assert np.allclose(sd.frame[1].coords, [0.5, -0.5, 0.0])


def test_spectral_map_examples():
    for cone in FAMILIES.values():
        assert_elem_close(J.exp(J.zero(cone)), J.identity(cone), 1e-15, "exp(0)")

    x = J.element(ORTH2, [1.5, 0.25])
    assert_elem_close(J.exp(J.log(x)), x, 1e-12, "exp/log round trip")

    inv = J.inverse(J.from_blocks(PSD2, [np.diag([2.0, 4.0])]))
    assert np.allclose(J.to_blocks(inv)[0], np.diag([0.5, 0.25]))


def test_integer_powers():
    rng = np.random.default_rng(11)
    for cone in FAMILIES.values():
        x = random_element(cone, rng)
        assert_elem_close(J.power(x, 2), J.circ(x, x), 1e-12, "x^2")
        assert_elem_close(J.power(x, 3), J.circ(x, J.circ(x, x)), 1e-11, "x^3")
        w = random_interior(cone, rng)
        assert_elem_close(J.power(w, -1), J.inverse(w), 1e-12, "x^-1")
    with pytest.raises(DomainError):
        J.power(J.element(ORTH2, [1.0, -1.0]), -2)


def test_quad_rep_inverse_identity():
    # (Q(w) z)^{-1} = Q(w^{-1}) z^{-1}
    rng = np.random.default_rng(5)
    for cone in FAMILIES.values():
        w = random_interior(cone, rng)
        z = random_interior(cone, rng)
        lhs = J.inverse(J.quad_rep(w, z))
        rhs = J.quad_rep(J.inverse(w), J.inverse(z))
        assert_elem_close(lhs, rhs, 1e-10, "(Q(w)z)^-1")


def test_spectral_map_domain_errors():
    x = J.element(ORTH2, [1.0, -2.0])
    for fn in (J.log, J.inverse, J.sqrt):
        with pytest.raises(DomainError) as exc:
            fn(x)
        assert exc.value.eigenvalue == -2.0
    # zero eigenvalue: fine for sqrt, not for log/inverse
    y = J.element(ORTH2, [1.0, 0.0])
    J.sqrt(y)
    with pytest.raises(DomainError):
        J.log(y)
    # rank-deficient psd(5): the smallest eigenvalue is zero up to rounding, of
    # either sign; the domain test and the map must read the same one
    psd5 = J.ConeDescriptor((J.Psd(5),))
    tiny = 1e-17 * J.identity(psd5)
    for seed in range(200):
        v = np.random.default_rng(seed).standard_normal((5, 4))
        x = J.from_blocks(psd5, [v @ v.T])
        for fn, arg in ((J.sqrt, x), (J.log, x + tiny), (J.inverse, x + tiny)):
            try:
                out = fn(arg)
            except DomainError:
                continue
            assert np.isfinite(out.coords).all(), (fn.__name__, seed)


def test_norms_examples():
    for cone in FAMILIES.values():
        n = cone.rank
        got = J.norms(J.identity(cone))
        assert got == pytest.approx((math.sqrt(n), 1.0, float(n)))

    assert J.norms(J.element(ORTH2, [3.0, -4.0])) == pytest.approx((5.0, 4.0, 7.0))

    got = J.norms(J.element(SOC3, [3.0, 0.0, 4.0]))
    assert got == pytest.approx((math.sqrt(50.0), 7.0, 8.0))


def test_inner_equals_trace_of_product():
    rng = np.random.default_rng(6)
    # PSD block: direct matrix-trace computation
    x = random_element(PSD2, rng)
    y = random_element(PSD2, rng)
    X, Y = J.to_blocks(x)[0], J.to_blocks(y)[0]
    assert J.inner(x, y) == pytest.approx(np.trace(X @ Y), rel=1e-12)
    # every block: <x, y> = tr(x o y) = sum of eigenvalues of x o y
    for cone in FAMILIES.values():
        a = random_element(cone, rng)
        b = random_element(cone, rng)
        assert J.inner(a, b) == pytest.approx(J.eigenvalues(J.circ(a, b)).sum(), abs=1e-10)
    # second-order blocks carry the factor two
    a = random_element(SOC3, rng)
    b = random_element(SOC3, rng)
    assert J.inner(a, b) == pytest.approx(2.0 * float(a.coords @ b.coords))


def test_interior_test_is_scale_relative():
    assert J.is_interior(J.element(ORTH2, [1e-6, 1.0]))
    assert not J.is_interior(J.element(ORTH2, [0.0, 1.0]))
    assert not J.is_interior(J.element(ORTH2, [-1e-3, 1.0]))


def test_automorphism_examples():
    rng = np.random.default_rng(7)
    for cone in FAMILIES.values():
        T = J.random_automorphism(cone, rng, orthogonal=True)
        x = random_element(cone, rng)
        y = random_element(cone, rng)
        assert J.inner(J.apply_automorphism(T, x), J.apply_automorphism(T, y)) == pytest.approx(
            J.inner(x, y), rel=1e-12, abs=1e-12
        )
        assert_elem_close(J.apply_automorphism(T, J.identity(cone)), J.identity(cone), 1e-12, "Te = e")

    G = np.diag([2.0, 1.0])
    T = J.ConeAutomorphism(PSD2, (J.PsdMap(G),))
    img = J.apply_automorphism(T, J.identity(PSD2))
    assert np.allclose(J.to_blocks(img)[0], np.diag([4.0, 1.0]))


def test_automorphism_adjoint_inverse_consistency():
    rng = np.random.default_rng(8)
    for cone in FAMILIES.values():
        T = J.random_automorphism(cone, rng)
        x = random_element(cone, rng)
        y = random_element(cone, rng)
        assert J.inner(J.apply_automorphism(T, x), y) == pytest.approx(
            J.inner(x, J.apply_adjoint(T, y)), rel=1e-10, abs=1e-10
        )
        assert_elem_close(J.apply_inverse(T, J.apply_automorphism(T, x)), x, 1e-10, "T^-1 T")
        assert_elem_close(
            J.apply_inverse_adjoint(T, J.apply_adjoint(T, x)), x, 1e-10, "(T^-1)* T*"
        )
        # maps the interior into the interior, invertibly
        w = random_interior(cone, rng)
        assert J.is_interior(J.apply_automorphism(T, w))
        assert J.is_interior(J.apply_inverse(T, w))


def test_orthogonal_flag_validation():
    with pytest.raises(ValueError):
        J.ConeAutomorphism(
            PSD2, (J.PsdMap(np.diag([2.0, 1.0])),), orthogonal=True
        )
    with pytest.raises(ValueError):
        J.ConeAutomorphism(
            ORTH2,
            (J.OrthantMap(perm=np.array([0, 1]), scale=np.array([2.0, 1.0])),),
            orthogonal=True,
        )


def test_q_of_automorphism_image():
    # Q(Tw) = T Q(w) T* as operators, on random probes
    rng = np.random.default_rng(9)
    for cone in FAMILIES.values():
        T = J.random_automorphism(cone, rng)
        w = random_element(cone, rng)
        z = random_element(cone, rng)
        lhs = J.quad_rep(J.apply_automorphism(T, w), z)
        rhs = J.apply_automorphism(T, J.quad_rep(w, J.apply_adjoint(T, z)))
        assert_elem_close(lhs, rhs, 1e-10, "Q(Tw) = T Q(w) T*")


def test_orthogonal_automorphism_commutes_with_exp():
    rng = np.random.default_rng(10)
    for cone in FAMILIES.values():
        M = J.random_automorphism(cone, rng, orthogonal=True)
        x = random_element(cone, rng)
        assert_elem_close(
            J.exp(J.apply_automorphism(M, x)),
            J.apply_automorphism(M, J.exp(x)),
            1e-12,
            "exp(Mx) = M exp(x)",
        )
        # frames map to frames: images are idempotent and reconstruct Mx
        sd = J.spectral(x)
        mx = J.apply_automorphism(M, x)
        recon = J.zero(cone)
        for lam, f in zip(sd.eigenvalues, sd.frame):
            mf = J.apply_automorphism(M, f)
            assert_elem_close(J.circ(mf, mf), mf, 1e-10, "M-image idempotent")
            recon = recon + float(lam) * mf
        assert_elem_close(recon, mx, 1e-10, "M-image spectral decomposition")
