"""Algebra kernel: block products, spectral calculus, norms, automorphisms."""

import functools
import math
import warnings

import numpy as np
import pytest
import scipy.linalg

from geoipm import jordan as J
from geoipm.errors import ConeMismatchError, DomainError, NumericalFailureError

from util import FAMILIES, MIXED, assert_elem_close, assert_frame_close, random_element, random_interior

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
    # an element names its cone's rank and dimension and its norm, sqrt(2) for e
    assert repr(J.identity(PSD2)) == "AlgebraElement(n=2, N=3, |x|=1.414)"


def test_descriptor_validation():
    with pytest.raises(ValueError):
        J.Orthant(0)
    with pytest.raises(ValueError):
        J.SecondOrder(1)
    with pytest.raises(ValueError):
        J.Psd(0)
    with pytest.raises(ValueError):
        J.ConeDescriptor(())
    with pytest.raises(TypeError, match="unsupported block kind"):
        J.ConeDescriptor((J.Orthant(2), 3))


@pytest.mark.parametrize("kind", [J.Orthant, J.SecondOrder, J.Psd])
def test_block_sizes_must_be_integers(kind):
    for bad in (2.5, 3.0, True, "3"):
        with pytest.raises(ValueError):
            kind(bad)
    blk = kind(np.int64(3))
    assert blk == kind(3) and type(blk.rank) is int and type(blk.dim) is int


def test_element_validation():
    with pytest.raises(ValueError, match="does not match cone dimension 3"):
        J.element(ORTH3, [1.0, 2.0])
    for cone, parts, message in (
        (MIXED, [np.ones(3), np.ones(4)], "expected 3 block parts, got 2"),
        (PSD2, [np.eye(3)], "must be a 2x2 matrix"),
        (SOC3, [np.ones(2)], "has length 2, expected 3"),
    ):
        with pytest.raises(ValueError, match=message):
            J.from_blocks(cone, parts)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_element_coordinates_must_be_finite(bad):
    with pytest.raises(ValueError):
        J.element(ORTH3, [1.0, bad, 2.0])
    with pytest.raises(ValueError):
        J.AlgebraElement(ORTH3, np.array([1.0, bad, 2.0]))
    with pytest.raises(ValueError):
        J.from_blocks(PSD2, [np.diag([bad, 1.0])])


def test_pack_trusts_its_frame_coordinates():
    """Internal results are not checked: an overflowing map still packs."""
    f = np.array([1.0, np.inf, np.nan])
    assert np.array_equal(J.pack(ORTH3, f).coords, f, equal_nan=True)


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
            for j in range(m):
                z = J.element(cone, Z[:, j])
                via_def = 2.0 * J.circ(w, J.circ(w, z)) - J.circ(J.circ(w, w), z)
                assert_elem_close(J.quad_rep(w, z), via_def, 1e-12, "Q(w)z definition")


# runs: orthant(5) (merged), 3 soc(4), 2 psd(3), 2 psd(1), soc(4)
REPEATS = J.ConeDescriptor(
    (J.Orthant(3), J.Orthant(2))
    + (J.SecondOrder(4),) * 3
    + (J.Psd(3),) * 2
    + (J.Psd(1),) * 2
    + (J.SecondOrder(4),)
)


def test_descriptor_runs():
    # element coordinates and shape, frame coordinates and shape, eigenvalues
    assert list(REPEATS.runs) == [
        (J.Orthant(5), 1, 0, 5, (1, 5), slice(0, 5), (1, 5), slice(0, 5)),
        (J.SecondOrder(4), 3, 5, 17, (3, 4), slice(5, 17), (3, 4), slice(5, 11)),
        (J.Psd(3), 2, 17, 29, (2, 6), slice(17, 35), (2, 3, 3), slice(11, 17)),
        (J.Psd(1), 2, 29, 31, (2, 1), slice(35, 37), (2, 1, 1), slice(17, 19)),
        (J.SecondOrder(4), 1, 31, 35, (1, 4), slice(37, 41), (1, 4), slice(19, 21)),
    ]
    assert REPEATS.runs[-1].stop == REPEATS.dim
    assert REPEATS.runs[-1].frame.stop == REPEATS.frame_dim
    assert REPEATS.runs[-1].lam.stop == REPEATS.rank


def test_pack_unpack_round_trip_and_inner_product():
    """Frame coordinates hold orthant entries and PSD diagonals as they are,
    second-order coordinates times sqrt(2) and PSD off-diagonals divided by
    it; the dot product of frame coordinates is the trace inner product."""
    rng = np.random.default_rng(37)
    for cone in list(FAMILIES.values()) + [REPEATS]:
        unscaled = np.zeros(cone.dim, dtype=bool)
        for blk, a, b in cone.spans:
            if isinstance(blk, J.Orthant):
                unscaled[a:b] = True
            elif isinstance(blk, J.Psd):
                iu = np.triu_indices(blk.side)
                unscaled[a:b] = iu[0] == iu[1]
        for _ in range(5):
            x = _repeats_element(rng) if cone is REPEATS else random_element(cone, rng)
            y = random_element(cone, rng)
            fx = J.unpack(x)
            assert fx.shape == (cone.frame_dim,)
            back = J.pack(cone, fx).coords
            assert np.array_equal(back[unscaled], x.coords[unscaled])
            # scaling by sqrt(2) and back is exact only to the last bit: v -> fl(v/sqrt(2))
            # maps neighbouring floats to one, so no rounding inverts it bitwise
            np.testing.assert_array_max_ulp(back, x.coords, maxulp=1)
            assert fx @ J.unpack(y) == pytest.approx(J.inner(x, y), rel=1e-14, abs=1e-14)
        assert np.array_equal(J.unpack(J.identity(cone)), cone.frame_identity)
        assert cone.frame_identity @ cone.frame_identity == pytest.approx(cone.rank, rel=1e-15)


def _repeats_element(rng):
    """A random element of REPEATS whose middle soc(4) block has a zero vector part."""
    c = rng.standard_normal(REPEATS.dim)
    c[10:13] = 0.0
    return J.element(REPEATS, c)


def _block_eigenvalues(x):
    """Per-block reference: eigvalsh (PSD), x0 +- ||x1|| (second-order), in block order."""
    out = []
    for blk, part in zip(x.cone.blocks, J.to_blocks(x)):
        if isinstance(blk, J.Psd):
            out.extend(np.linalg.eigvalsh(part))
        elif isinstance(blk, J.SecondOrder):
            r = math.sqrt(part[1:] @ part[1:])
            out.extend([part[0] + r, part[0] - r])
        else:
            out.extend(part)
    return np.array(out)


def test_run_kernels_match_blockwise_references():
    rng = np.random.default_rng(21)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for _ in range(3):
            w, x = _repeats_element(rng), _repeats_element(rng)
            Z = rng.standard_normal((REPEATS.dim, 4))
            for j in range(Z.shape[1]):
                z = J.element(REPEATS, Z[:, j])
                via_circ = 2.0 * J.circ(w, J.circ(w, z)) - J.circ(J.circ(w, w), z)
                assert_elem_close(J.quad_rep(w, z), via_circ, 1e-12, "Q(w) per run")

            sd = J.Spectrum(x)
            ref = _block_eigenvalues(x)
            assert np.allclose(sd.eigenvalues, ref, rtol=0, atol=1e-12)
            # eigh and eigvalsh may differ in the last digits
            assert np.allclose(sd.eigenvalues, J.eigenvalues(x), rtol=0, atol=1e-12)
            # the zero vector part: a double eigenvalue x0 of the middle soc(4),
            # read off the frame coordinates (x0 times sqrt(2), divided by it)
            assert sd.eigenvalues[7] == sd.eigenvalues[8] == J.pack(REPEATS, J.unpack(x)).coords[9]
            rebuilt = J.pack(REPEATS, sd.map(lambda lam: lam)[0])
            assert_elem_close(rebuilt, x, 1e-12, "map(identity) rebuilds x")

            recon = J.zero(REPEATS)
            total = J.zero(REPEATS)
            for i, (lam, f) in enumerate(zip(sd.eigenvalues, sd.frame)):
                assert_elem_close(J.circ(f, f), f, 1e-12, "idempotent")
                assert abs(J.inner(f, J.identity(REPEATS)) - 1.0) < 1e-12, "primitive"
                for g in sd.frame[i + 1 :]:
                    assert J.norm2(J.circ(f, g)) < 1e-12, "orthogonal"
                recon = recon + float(lam) * f
                total = total + f
            assert_elem_close(recon, x, 1e-12, "frame in eigenvalues order")
            assert_elem_close(total, J.identity(REPEATS), 1e-12, "frame sums to e")
            _assert_maps_match_blockwise(x, Z, rng)


def _assert_maps_match_blockwise(x, Z, rng):
    """``scale_and_map`` with a geodesic step's three functions matches, to
    1e-14, the same call on each block of x taken as its own cone: the three
    maps, and Q(y) and Q(y^{-1}) on the columns of Z.  Each function is
    called once per spectrum, on all the eigenvalues."""
    t, r = rng.uniform(0.2, 0.8), rng.uniform(0.5, 2.0)
    calls = []

    def counted(fn):
        return lambda lam: calls.append(lam.shape) or fn(lam)

    step = (
        counted(lambda lam: np.exp(0.5 * t * lam)),
        counted(lambda lam: r * (1.0 + lam) * np.exp(-t * lam)),
        counted(lambda lam: r * (1.0 - lam) * np.exp(t * lam)),
    )

    def images(cone, x_coords, Z):
        """The three maps, Q(y) Z and Q(y^{-1}) Z in element coordinates."""
        T, maps = J.Spectrum(J.element(cone, x_coords)).scale_and_map(*step)
        Zf = _to_frame(cone, Z)
        return [_from_frame(cone, F) for F in (np.column_stack(maps), T.columns(Zf), T.columns(Zf, inverse=True))]

    got = images(REPEATS, x.coords, Z)
    assert calls == [(REPEATS.rank,)] * 3
    for blk, a, b in REPEATS.spans:
        want = images(J.ConeDescriptor((blk,)), x.coords[a:b], Z[a:b])
        for g, w, what in zip(got, want, ("maps", "Q(y)", "Q(y^-1)")):
            tol = 1e-14 * max(1.0, np.abs(w).max())
            np.testing.assert_allclose(g[a:b], w, rtol=0, atol=tol, err_msg=f"{what} on {blk}")


def _to_frame(cone, Z):
    """Frame coordinates of the columns of an N x m coordinate matrix, D x m."""
    return np.column_stack([J.unpack(J.element(cone, z)) for z in Z.T])


def _from_frame(cone, F):
    """Element coordinates of the columns of a D x m frame-coordinate matrix."""
    return np.column_stack([J.pack(cone, f).coords for f in F.T])


# runs: 3 psd(6), 2 soc(4), orthant(3)
STEP_CONE = J.ConeDescriptor((J.Psd(6),) * 3 + (J.SecondOrder(4),) * 2 + (J.Orthant(3),))


def test_geodesic_step_matches_its_parts_bitwise():
    """The fused step routine gives bitwise what ``scale_and_map`` with the
    step's functions, the basis map ``columns`` and ``then`` give: the
    anchor's maps (with a permutation on the orthant run), the mapped basis
    on either side, and the reset representatives u_p and u_d; d has a
    second-order block with a zero vector part."""
    rng = np.random.default_rng(41)
    anchor = J.random_automorphism(STEP_CONE, rng)
    c = rng.standard_normal(STEP_CONE.dim)
    c[64:67] = 0.0  # the vector part of the first soc(4) block
    spec = J.Spectrum(J.element(STEP_CONE, c))
    basis = J._unpack(STEP_CONE, rng.standard_normal((5, STEP_CONE.dim))).T
    t, r = 0.37, 0.81
    move, (u_p, u_d) = spec.scale_and_map(
        lambda lam: np.exp(0.5 * t * lam),
        lambda lam: r * (1.0 + lam) * np.exp(-t * lam),
        lambda lam: r * (1.0 - lam) * np.exp(t * lam),
    )
    composed = anchor.then(move)
    assert anchor.maps[-1][2] is not None
    for inverse in (True, False):
        got_anchor, got_basis, got_p, got_d = J.geodesic_step(anchor, spec, t, r, basis, inverse)
        assert np.array_equal(got_basis, move.columns(basis, inverse=inverse, adjoint=not inverse)), inverse
        assert np.array_equal(got_p, u_p) and np.array_equal(got_d, u_d)
        for got, want in zip(got_anchor.maps, composed.maps):
            assert all(np.array_equal(g, w) for g, w in zip(got[:2], want[:2]))
            assert (got[2] is None) == (want[2] is None)
            assert want[2] is None or np.array_equal(got[2], want[2])


def test_taylor_radii_meet_their_tail_bounds():
    """Each radius rho_K is the largest float at which the tail bound of
    the order-K step polynomials, (K+2) tau^(K+1) / ((K+1)! (1 - tau)), is
    at most the rounding unit 2^-53; an order holds up to its radius."""
    unit = 2.0 ** -53

    def tail(order, tau):
        return (order + 2) * tau ** (order + 1) / (math.factorial(order + 1) * (1.0 - tau))

    radii = J._TAYLOR_RADII
    assert len(radii) == 20
    for order, rho in enumerate(radii, 1):
        assert tail(order, rho) <= unit < tail(order, np.nextafter(rho, 1.0)), order
        assert J._taylor_order(rho) == order
        assert J._taylor_order(np.nextafter(rho, 1.0)) == (order + 1) % 21
    # rounded to two significant digits, three for the largest
    stated = {1: 8.6e-9, 2: 5.5e-6, 4: 1.2e-3, 8: 0.054, 12: 0.27, 16: 0.66, 18: 0.88}
    for order, rho in stated.items():
        assert float(f"{radii[order - 1]:.2g}") == rho, order
    assert float(f"{radii[-1]:.3g}") == 0.996
    assert J._taylor_order(0.0) == 1 and J._taylor_order(1.0) == J._taylor_order(math.nan) == 0


def test_taylor_step_functions_of_a_psd_run():
    """The step functions an expansion forms on a PSD run are those of the
    eigendecomposition: exp(+-t D/2), r (I + D) exp(-t D) and
    r (I - D) exp(t D), at 1e-14, from the powers up to each order whose
    radius holds max(1, |t|) ||D||."""
    rng = np.random.default_rng(7)
    cone = J.ConeDescriptor((J.Psd(5),) * 2)
    f = J.unpack(random_element(cone, rng))
    for order in (1, 4, 12, 20):
        for t in (1.0, -0.3, 2.5):
            d = f * (J._TAYLOR_RADII[order - 1] / max(1.0, abs(t)) / np.linalg.norm(f))
            assert J._taylor_order(max(1.0, abs(t)) * np.linalg.norm(d)) <= order
            lam, (vecs,) = J._spectrum(cone, d, vectors=True)
            _, (powers,) = J._spectrum(cone, d, vectors=True, order=order)
            assert powers.shape == (order + 1, 2, 5, 5)
            got = np.tensordot(J._taylor_coefficients(t, 0.7, order), powers, 1)
            lam = lam.reshape(2, 5)
            for row, fn in zip(got, (lambda x: np.exp(0.5 * t * x), lambda x: np.exp(-0.5 * t * x),
                                     lambda x: 0.7 * (1.0 + x) * np.exp(-t * x),
                                     lambda x: 0.7 * (1.0 - x) * np.exp(t * x))):
                want = (vecs * fn(lam)[:, None, :]) @ vecs.transpose(0, 2, 1)
                assert np.abs(row - want).max() <= 1e-14, (order, t)


def test_anchor_scaling_is_the_quadratic_representation():
    rng = np.random.default_rng(31)
    cones = list(FAMILIES.values()) + [REPEATS]
    for cone in cones:
        # on REPEATS the middle soc(4) block has a zero vector part (equal eigenvalues)
        x = _repeats_element(rng) if cone is REPEATS else random_element(cone, rng)
        w = J.exp(x)
        T = J.ConeAutomorphism.scaling(J.Spectrum(w), np.sqrt)
        Z = rng.standard_normal((cone.dim, 3))
        half = np.column_stack([J.quad_rep(J.sqrt(w), J.element(cone, z)).coords for z in Z.T])
        Zf = _to_frame(cone, Z)
        assert np.allclose(_from_frame(cone, T.columns(Zf)), half, rtol=1e-12, atol=1e-12), cone
        assert np.allclose(_from_frame(cone, T.columns(Zf, adjoint=True)), half, rtol=1e-12, atol=1e-12), cone
        assert np.allclose(_from_frame(cone, T.columns(_to_frame(cone, half), inverse=True)), Z, rtol=1e-10, atol=1e-10), cone
        assert_elem_close(T.point(), w, 1e-12, "T e = w")


def test_anchor_composition_adjoints_and_point():
    rng = np.random.default_rng(32)
    for cone in list(FAMILIES.values()) + [REPEATS]:
        T = J.ConeAutomorphism.scaling(J.Spectrum(random_interior(cone, rng)), np.sqrt)
        S = J.ConeAutomorphism.scaling(J.Spectrum(random_element(cone, rng)), np.exp)
        TS = T.then(S)
        X = _to_frame(cone, rng.standard_normal((cone.dim, 2)))
        Y = _to_frame(cone, rng.standard_normal((cone.dim, 2)))
        assert np.allclose(TS.columns(X), T.columns(S.columns(X)), rtol=1e-12, atol=1e-12)
        assert np.allclose(TS.columns(TS.columns(X), inverse=True), X, rtol=1e-10, atol=1e-10)
        back = TS.columns(TS.columns(Y, adjoint=True), inverse=True, adjoint=True)
        assert np.allclose(back, Y, rtol=1e-10, atol=1e-10)
        # T* and (T^{-1})* are adjoint to T and T^{-1} in the trace inner
        # product, the dot product of frame coordinates
        assert np.allclose(TS.columns(X).T @ Y, X.T @ TS.columns(Y, adjoint=True))
        assert np.allclose(TS.columns(X, inverse=True).T @ Y, X.T @ TS.columns(Y, inverse=True, adjoint=True))
        e = J.identity(cone)
        assert_elem_close(TS.point(), J.pack(cone, TS.columns(J.unpack(e))), 1e-12, "T e")
        assert J.is_interior(TS.point())


def test_spectral_examples():
    x = J.element(SOC3, [3.0, 0.0, 4.0])
    assert sorted(J.eigenvalues(x).tolist()) == [-1.0, 7.0]

    sd = J.Spectrum(J.element(ORTH2, [5.0, 7.0]))
    assert np.allclose(sd.eigenvalues, [5.0, 7.0])
    assert np.allclose(sd.frame[0].coords, [1.0, 0.0])

    diag = J.from_blocks(PSD2, [np.diag([2.0, 9.0])])
    assert sorted(J.eigenvalues(diag).tolist()) == [2.0, 9.0]


def test_spectral_frame_properties():
    rng = np.random.default_rng(4)
    for cone in FAMILIES.values():
        x = J.element(cone, rng.uniform(-10, 10, cone.dim))
        sd = J.Spectrum(x)
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
    sd = J.Spectrum(x)
    assert np.allclose(sd.frame[0].coords, [0.5, 0.5, 0.0])
    assert np.allclose(sd.frame[1].coords, [0.5, -0.5, 0.0])


def test_spectral_map_examples():
    for cone in FAMILIES.values():
        assert_elem_close(J.exp(J.zero(cone)), J.identity(cone), 1e-15, "exp(0)")

    rng = np.random.default_rng(12)
    for cone in FAMILIES.values():
        x = random_element(cone, rng)
        assert_elem_close(J.exp(-x), J.inverse(J.exp(x)), 1e-12, "exp(-x) = exp(x)^-1")

    inv = J.inverse(J.from_blocks(PSD2, [np.diag([2.0, 4.0])]))
    assert np.allclose(J.to_blocks(inv)[0], np.diag([0.5, 0.25]))


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
    for fn in (J.inverse, J.sqrt):
        with pytest.raises(DomainError) as exc:
            fn(x)
        assert exc.value.eigenvalue == -2.0
    # zero eigenvalue: fine for sqrt, not for inverse
    y = J.element(ORTH2, [1.0, 0.0])
    J.sqrt(y)
    with pytest.raises(DomainError) as exc:
        J.inverse(y)
    assert exc.value.eigenvalue == 0.0
    # rank-deficient psd(5): the smallest eigenvalue is zero up to rounding, of
    # either sign; the domain test and the map must read the same one
    psd5 = J.ConeDescriptor((J.Psd(5),))
    tiny = 1e-17 * J.identity(psd5)
    for seed in range(200):
        v = np.random.default_rng(seed).standard_normal((5, 4))
        x = J.from_blocks(psd5, [v @ v.T])
        for fn, arg in ((J.sqrt, x), (J.inverse, x + tiny)):
            try:
                out = fn(arg)
            except DomainError:
                continue
            assert np.isfinite(out.coords).all(), (fn.__name__, seed)


def test_a_lapack_failure_is_a_numerical_failure(monkeypatch):
    """numpy's LinAlgError from either symmetric eigensolver, on the PSD run
    of a mixed cone, raises NumericalFailureError from the decomposition."""
    def failing(a):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(np.linalg, "eigh", failing)
    monkeypatch.setattr(np.linalg, "eigvalsh", failing)
    x = J.identity(MIXED)
    for decompose in (lambda: J.Spectrum(x), lambda: J.frame_eigenvalues(MIXED, J.unpack(x))):
        with pytest.raises(NumericalFailureError, match="injected") as exc:
            decompose()
        assert isinstance(exc.value.__cause__, np.linalg.LinAlgError)


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
    # norm2 is sqrt(<x, x>): sqrt(rank) at e, and the eigenvalues' 2-norm
    for cone in FAMILIES.values():
        assert J.norm2(J.identity(cone)) == pytest.approx(math.sqrt(cone.rank))
    assert J.norm2(J.element(ORTH2, [3.0, -4.0])) == pytest.approx(5.0)
    assert J.norm2(J.element(SOC3, [3.0, 0.0, 4.0])) == pytest.approx(math.sqrt(50.0))


def test_interior_test_is_scale_relative():
    assert J.is_interior(J.element(ORTH2, [1e-6, 1.0]))
    assert not J.is_interior(J.element(ORTH2, [0.0, 1.0]))
    assert not J.is_interior(J.element(ORTH2, [-1e-3, 1.0]))
    # the test is one ratio, with no absolute floor below small elements
    assert J.is_interior(J.element(ORTH2, [1e-14, 1e-13]))
    assert not J.is_interior(J.element(ORTH2, [1e-26, 1e-13]))
    assert not J.is_interior(J.element(ORTH2, [0.0, 1e-13]))


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

    p = J.from_blocks(PSD2, [np.diag([2.0, 1.0])])
    T = J.ConeAutomorphism.polar(PSD2, (np.eye(2),), p)
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
        X = J.unpack(x)
        assert_frame_close(T.columns(T.columns(X), inverse=True), X, 1e-10, "T^-1 T")
        assert_frame_close(
            T.columns(T.columns(X, adjoint=True), inverse=True, adjoint=True), X, 1e-10, "(T^-1)* T*"
        )
        # maps the interior into the interior, invertibly
        w = random_interior(cone, rng)
        assert J.is_interior(J.apply_automorphism(T, w))
        assert J.is_interior(J.pack(cone, T.columns(J.unpack(w), inverse=True)))


def test_block_maps_must_be_orthogonal_and_scaling_interior():
    # a map off orthogonal by 4e-6 is rejected too: its transpose is not its inverse
    for U in (np.diag([2.0, 1.0]), np.diag([1.0 + 4e-6, 1.0])):
        with pytest.raises(ValueError):
            J.ConeAutomorphism.polar(PSD2, (U,))
    with pytest.raises(ValueError):
        J.ConeAutomorphism.polar(SOC3, (np.array([[1.0, 1.0], [0.0, 1.0]]),))
    maps = (np.eye(2),)
    with pytest.raises(DomainError):
        J.ConeAutomorphism.polar(PSD2, maps, J.from_blocks(PSD2, [np.diag([1.0, 0.0])]))
    with pytest.raises(DomainError):
        J.ConeAutomorphism.polar(SOC3, (np.eye(2),), J.element(SOC3, [1.0, 1.0, 0.0]))
    with pytest.raises(ConeMismatchError):
        J.ConeAutomorphism.polar(PSD2, maps, J.identity(SOC3))


def test_automorphism_shapes_are_checked():
    for cone, ks, message in (
        (ORTH3, (), "one block map per cone block"),
        (ORTH3, ([0, 0, 2],), "must be a permutation"),
        (PSD2, (np.eye(3),), "incompatible with block"),
    ):
        with pytest.raises(ValueError, match=message):
            J.ConeAutomorphism.polar(cone, ks)
    T = J.ConeAutomorphism.polar(ORTH3, ([2, 0, 1],))
    for Z in (np.ones(4), np.ones((2, 3))):
        with pytest.raises(ValueError, match="with 3 rows"):
            T.columns(Z)


def _orthogonal(k, rng):
    return np.linalg.qr(rng.standard_normal((k, k)))[0]


def _boost_cone_and_map(rng):
    """A mixed cone with two second-order blocks, each boosted along a
    random axis with rapidity 0.9, then rotated; with the scaling point p."""
    cone = J.ConeDescriptor((J.SecondOrder(4), J.Orthant(2), J.SecondOrder(3)))
    parts = []
    for blk in cone.blocks:
        if isinstance(blk, J.SecondOrder):
            u = rng.standard_normal(blk.dim - 1)
            parts.append(np.concatenate(([0.0], 0.45 * u / np.linalg.norm(u))))
        else:
            parts.append(np.zeros(blk.dim))
    p = J.exp(J.from_blocks(cone, parts))
    maps = (_orthogonal(3, rng), [1, 0], _orthogonal(2, rng))
    return cone, J.ConeAutomorphism.polar(cone, maps, p), p


def test_second_order_boost_is_an_automorphism():
    rng = np.random.default_rng(12)
    cone, T, p = _boost_cone_and_map(rng)
    # a boost: the scaling has a nonzero vector part, so Q(p) mixes x0 into x1
    assert np.linalg.norm(p.coords[1:4]) > 0.4
    for _ in range(5):
        x = random_element(cone, rng)
        y = random_element(cone, rng)
        w = random_interior(cone, rng)
        assert J.inner(J.apply_automorphism(T, x), y) == pytest.approx(
            J.inner(x, J.apply_adjoint(T, y)), rel=1e-12, abs=1e-12
        )
        X = J.unpack(x)
        assert_frame_close(T.columns(T.columns(X), inverse=True), X, 1e-12, "T^-1 T")
        assert_frame_close(
            T.columns(T.columns(X, adjoint=True), inverse=True, adjoint=True), X, 1e-12, "(T^-1)* T*"
        )
        assert_elem_close(
            J.quad_rep(J.apply_automorphism(T, w), y),
            J.apply_automorphism(T, J.quad_rep(w, J.apply_adjoint(T, y))),
            1e-12,
            "Q(Tw) = T Q(w) T*",
        )
        assert J.is_interior(J.apply_automorphism(T, w))
        assert J.is_interior(J.pack(cone, T.columns(J.unpack(w), inverse=True)))
    # Te = p^2, which is not a multiple of e on a boosted block
    assert_elem_close(J.apply_automorphism(T, J.identity(cone)), J.circ(p, p), 1e-12, "Te")


def test_automorphism_reproduces_scalar_and_congruence_maps():
    """s * x[perm] (orthant), s * (x0, U x1) (second-order) and G X G^T (PSD),
    and their adjoints and inverses, as Q(p) k with p = sqrt(s), sqrt(s) e and
    the positive polar factor P of G = P O."""
    rng = np.random.default_rng(13)
    cone = J.ConeDescriptor((J.Orthant(4), J.SecondOrder(4), J.Psd(3)))
    perm = rng.permutation(4)
    s_orth = np.exp(rng.uniform(-0.7, 0.7, 4))
    U = _orthogonal(3, rng)
    s_soc = float(np.exp(rng.uniform(-0.7, 0.7)))
    G = rng.standard_normal((3, 3)) + 2.0 * np.eye(3)
    O, P = scipy.linalg.polar(G, side="left")
    Gi = np.linalg.inv(G)
    p = J.from_blocks(cone, [np.sqrt(s_orth), [math.sqrt(s_soc), 0.0, 0.0, 0.0], P])
    T = J.ConeAutomorphism.polar(cone, (perm, U, O), p)

    def reference(x, mode):
        xo, xs, X = J.to_blocks(x)
        orth = np.empty(4)
        if mode == "apply":
            orth = s_orth * xo[perm]
            soc = s_soc * np.concatenate(([xs[0]], U @ xs[1:]))
            psd = G @ X @ G.T
        elif mode == "adjoint":
            orth[perm] = s_orth * xo
            soc = s_soc * np.concatenate(([xs[0]], U.T @ xs[1:]))
            psd = G.T @ X @ G
        elif mode == "inverse":
            orth[perm] = xo / s_orth
            soc = np.concatenate(([xs[0]], U.T @ xs[1:])) / s_soc
            psd = Gi @ X @ Gi.T
        else:
            orth = xo[perm] / s_orth
            soc = np.concatenate(([xs[0]], U @ xs[1:])) / s_soc
            psd = Gi.T @ X @ Gi
        return J.from_blocks(cone, [orth, soc, psd])

    for _ in range(5):
        x = random_element(cone, rng)
        for mode, flags in APPLIES.items():
            got = T.columns(J.unpack(x), *flags)
            assert_frame_close(got, J.unpack(reference(x, mode)), 1e-12, mode)


# the (inverse, adjoint) flags of ``ConeAutomorphism.columns`` for T, T*,
# T^{-1} and (T^{-1})*
APPLIES = {
    "apply": (False, False),
    "adjoint": (False, True),
    "inverse": (True, False),
    "inverse_adjoint": (True, True),
}


def _k_reference(ks, x, transpose):
    """k (or k^T) applied block by block from the per-block maps ``ks``."""
    parts = []
    for blk, part, km in zip(x.cone.blocks, J.to_blocks(x), ks):
        if isinstance(blk, J.Orthant):
            if transpose:
                out = np.empty_like(part)
                out[km] = part
            else:
                out = part[km]
        elif isinstance(blk, J.SecondOrder):
            U = km.T if transpose else km
            out = np.concatenate((part[:1], U @ part[1:]))
        else:
            O = km.T if transpose else km
            out = O @ part @ O.T
        parts.append(out)
    return J.from_blocks(x.cone, parts)


def test_permutations_inside_a_merged_orthant_run():
    """REPEATS merges Orthant(3) and Orthant(2) into one run; each block
    carries its own permutation.  T = Q(p) k with a non-orthogonal p matches
    a per-block reference in all four maps, and its compositions with a step
    scaling (whose orthant run has no index), in both orders, and with a
    k whose permutations do not commute with these compose the per-run
    maps."""
    rng = np.random.default_rng(14)
    ks = [np.array([2, 0, 1]), np.array([1, 0])]
    for blk in REPEATS.blocks[2:]:
        ks.append(_orthogonal(blk.dim - 1 if isinstance(blk, J.SecondOrder) else blk.side, rng))
    p = random_interior(REPEATS, rng)
    p_inv = J.inverse(p)
    T = J.ConeAutomorphism.polar(REPEATS, ks, p)

    def reference(x, mode):
        if mode == "apply":
            return J.quad_rep(p, _k_reference(ks, x, False))
        if mode == "adjoint":
            return _k_reference(ks, J.quad_rep(p, x), True)
        if mode == "inverse":
            return _k_reference(ks, J.quad_rep(p_inv, x), True)
        return J.quad_rep(p_inv, _k_reference(ks, x, False))

    for _ in range(3):
        x = _repeats_element(rng)
        for mode, flags in APPLIES.items():
            got = T.columns(J.unpack(x), *flags)
            assert_frame_close(got, J.unpack(reference(x, mode)), 1e-12, mode)

    S = J.ConeAutomorphism.scaling(J.Spectrum(random_element(REPEATS, rng)), lambda lam: np.exp(0.35 * lam))
    X = _to_frame(REPEATS, rng.standard_normal((REPEATS.dim, 3)))
    K = J.ConeAutomorphism.polar(REPEATS, [np.array([1, 0, 2]), np.array([1, 0])] + ks[2:])
    close = functools.partial(np.testing.assert_allclose, rtol=1e-12, atol=1e-12)
    for outer, inner in ((T, S), (S, T), (T, K)):
        C = outer.then(inner)
        close(C.columns(X), outer.columns(inner.columns(X)))
        close(C.columns(X, adjoint=True), inner.columns(outer.columns(X, adjoint=True), adjoint=True))
        close(C.columns(X, inverse=True), inner.columns(outer.columns(X, inverse=True), inverse=True))
        both = dict(inverse=True, adjoint=True)
        close(C.columns(X, **both), outer.columns(inner.columns(X, **both), **both))
        assert_elem_close(C.point(), J.pack(REPEATS, outer.columns(inner.columns(REPEATS.frame_identity))), 1e-12, "C e")


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
        sd = J.Spectrum(x)
        mx = J.apply_automorphism(M, x)
        recon = J.zero(cone)
        for lam, f in zip(sd.eigenvalues, sd.frame):
            mf = J.apply_automorphism(M, f)
            assert_elem_close(J.circ(mf, mf), mf, 1e-10, "M-image idempotent")
            recon = recon + float(lam) * mf
        assert_elem_close(recon, mx, 1e-10, "M-image spectral decomposition")
