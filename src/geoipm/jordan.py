"""Euclidean Jordan-algebra kernel for symmetric cones.

Supported blocks are the nonnegative orthant, the second-order (Lorentz)
cone, and real symmetric PSD matrices; a cone is an ordered direct sum of
such blocks.  Elements are flat coordinate vectors:

* orthant block of size k: the k entries;
* second-order block of ambient dimension m+1: raw coordinates (x0, x1);
* PSD block of side k: scaled upper-triangle vectorization (row-major,
  off-diagonal entries multiplied by sqrt(2)) so the matrix trace inner
  product equals the coordinate dot product.

The algebra inner product is tr(x o y).  On orthant and PSD blocks this is
the plain coordinate dot product; on second-order blocks it is twice the
raw dot product, because the eigenvalues of (x0, x1) are x0 +- ||x1|| and
hence tr x = 2 x0.  ``metric_diag`` exposes the diagonal weights relating
the two, and all norms, projections and adjoints in this package are taken
with respect to this inner product.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Union

import numpy as np

from .errors import ConeMismatchError, DomainError, NumericalFailureError

__all__ = [
    "Orthant",
    "SecondOrder",
    "Psd",
    "BlockKind",
    "ConeDescriptor",
    "AlgebraElement",
    "Spectrum",
    "ConeAutomorphism",
    "OrthantMap",
    "SecondOrderMap",
    "PsdMap",
    "element",
    "identity",
    "zero",
    "from_blocks",
    "to_blocks",
    "metric_diag",
    "circ",
    "quad_rep",
    "quad_rep_columns",
    "spectral",
    "spectral_map",
    "spectral_map_multi",
    "interior_roots",
    "eigenvalues",
    "min_eigenvalue",
    "is_interior",
    "inner",
    "trace",
    "norms",
    "norm2",
    "norm_inf",
    "exp",
    "log",
    "sqrt",
    "inverse",
    "power",
    "apply_automorphism",
    "apply_adjoint",
    "apply_inverse",
    "apply_inverse_adjoint",
    "random_automorphism",
    "INTERIOR_EPS",
]

# Scale-relative strictness of the interior membership test.
INTERIOR_EPS = 1e-12


# --------------------------------------------------------------------------
# cone description
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Orthant:
    """Nonnegative orthant block of a given size."""

    size: int

    def __post_init__(self):
        if self.size < 1:
            raise ValueError("orthant block size must be >= 1")

    @property
    def rank(self) -> int:
        return self.size

    @property
    def dim(self) -> int:
        return self.size


@dataclass(frozen=True)
class SecondOrder:
    """Second-order (Lorentz) cone block; ``dim`` is the ambient dimension m+1."""

    dim: int

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError("second-order block needs ambient dimension >= 2")

    @property
    def rank(self) -> int:
        return 2


@dataclass(frozen=True)
class Psd:
    """Real symmetric PSD block of matrices with side ``side``."""

    side: int

    def __post_init__(self):
        if self.side < 1:
            raise ValueError("psd block side must be >= 1")

    @property
    def rank(self) -> int:
        return self.side

    @property
    def dim(self) -> int:
        return self.side * (self.side + 1) // 2


BlockKind = Union[Orthant, SecondOrder, Psd]


@dataclass(frozen=True)
class ConeDescriptor:
    """Ordered direct sum of cone blocks defining the algebra J."""

    blocks: tuple

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))
        if not self.blocks:
            raise ValueError("a cone needs at least one block")
        for blk in self.blocks:
            if not isinstance(blk, (Orthant, SecondOrder, Psd)):
                raise TypeError(f"unsupported block kind: {blk!r}")

    @functools.cached_property
    def rank(self) -> int:
        """Number of eigenvalues of an element (n)."""
        return sum(blk.rank for blk in self.blocks)

    @functools.cached_property
    def dim(self) -> int:
        """Vector-space dimension of the coordinate representation (N)."""
        return sum(blk.dim for blk in self.blocks)

    @functools.cached_property
    def spans(self) -> tuple:
        """Per-block (block, start, stop) coordinate spans."""
        out = []
        pos = 0
        for blk in self.blocks:
            out.append((blk, pos, pos + blk.dim))
            pos += blk.dim
        return tuple(out)


@functools.lru_cache(maxsize=None)
def metric_diag(cone: ConeDescriptor) -> np.ndarray:
    """Diagonal weights making ``(x * w) @ y`` equal tr(x o y)."""
    w = np.ones(cone.dim)
    for blk, a, b in cone.spans:
        if isinstance(blk, SecondOrder):
            w[a:b] = 2.0
    w.setflags(write=False)
    return w


# --------------------------------------------------------------------------
# elements
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element of J in the coordinate convention documented above."""

    cone: ConeDescriptor
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        if coords.shape != (self.cone.dim,):
            raise ValueError(
                f"coordinate length {coords.shape} does not match cone dimension {self.cone.dim}"
            )

    # vector-space structure ------------------------------------------------
    def __add__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_cone(self, other)
        return _mk(self.cone, self.coords + other.coords)

    def __sub__(self, other: "AlgebraElement") -> "AlgebraElement":
        _same_cone(self, other)
        return _mk(self.cone, self.coords - other.coords)

    def __neg__(self) -> "AlgebraElement":
        return _mk(self.cone, -self.coords)

    def __mul__(self, scalar: float) -> "AlgebraElement":
        return _mk(self.cone, self.coords * float(scalar))

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "AlgebraElement":
        return _mk(self.cone, self.coords / float(scalar))

    def __repr__(self) -> str:
        return f"AlgebraElement(n={self.cone.rank}, N={self.cone.dim}, |x|={norm2(self):.4g})"


def _mk(cone: ConeDescriptor, coords: np.ndarray) -> AlgebraElement:
    # internal constructor: trusts the (freshly computed) array
    coords = np.asarray(coords, dtype=float)
    coords.setflags(write=False)
    return AlgebraElement(cone, coords)


def element(cone: ConeDescriptor, coords) -> AlgebraElement:
    """Build an element from a coordinate array (copied and validated)."""
    arr = np.array(coords, dtype=float).reshape(-1)
    if arr.shape != (cone.dim,):
        raise ValueError(f"expected {cone.dim} coordinates, got {arr.shape[0]}")
    return _mk(cone, arr)


def zero(cone: ConeDescriptor) -> AlgebraElement:
    return _mk(cone, np.zeros(cone.dim))


@functools.lru_cache(maxsize=None)
def identity(cone: ConeDescriptor) -> AlgebraElement:
    """The algebra identity e (ones / (1, 0) / identity matrix per block)."""
    c = np.zeros(cone.dim)
    for blk, a, b in cone.spans:
        if isinstance(blk, Orthant):
            c[a:b] = 1.0
        elif isinstance(blk, SecondOrder):
            c[a] = 1.0
        else:
            c[a:b] = _svec(np.eye(blk.side))
    return _mk(cone, c)


def from_blocks(cone: ConeDescriptor, parts: Iterable) -> AlgebraElement:
    """Assemble an element from per-block data (PSD parts given as matrices)."""
    parts = list(parts)
    if len(parts) != len(cone.blocks):
        raise ValueError(f"expected {len(cone.blocks)} block parts, got {len(parts)}")
    c = np.zeros(cone.dim)
    for (blk, a, b), part in zip(cone.spans, parts):
        if isinstance(blk, Psd):
            mat = np.asarray(part, dtype=float)
            if mat.shape != (blk.side, blk.side):
                raise ValueError(f"psd part must be a {blk.side}x{blk.side} matrix")
            c[a:b] = _svec(0.5 * (mat + mat.T))
        else:
            vec = np.asarray(part, dtype=float).reshape(-1)
            if vec.shape[0] != blk.dim:
                raise ValueError(f"block part has length {vec.shape[0]}, expected {blk.dim}")
            c[a:b] = vec
    return _mk(cone, c)


def to_blocks(x: AlgebraElement) -> list:
    """Per-block data of an element (PSD blocks as symmetric matrices)."""
    out = []
    for blk, a, b in x.cone.spans:
        if isinstance(blk, Psd):
            out.append(_smat(x.coords[a:b], blk.side))
        else:
            out.append(x.coords[a:b].copy())
    return out


def _same_cone(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.cone != y.cone:
        raise ConeMismatchError("elements live on different cone descriptors")


# --------------------------------------------------------------------------
# scaled symmetric vectorization
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _triu_cache(k: int):
    iu = np.triu_indices(k)
    scale = np.where(iu[0] == iu[1], 1.0, math.sqrt(2.0))
    return iu, scale


def _svec(mat: np.ndarray) -> np.ndarray:
    """Scaled upper triangle of a k x k matrix, or of each in a (..., k, k) stack."""
    iu, scale = _triu_cache(mat.shape[-1])
    return mat[..., iu[0], iu[1]] * scale


def _smat(vec: np.ndarray, k: int) -> np.ndarray:
    """Inverse of ``_svec``: one matrix per vector in a (..., k(k+1)/2) stack."""
    iu, scale = _triu_cache(k)
    mat = np.zeros(vec.shape[:-1] + (k, k))
    vals = vec / scale
    mat[..., iu[0], iu[1]] = vals
    mat[..., iu[1], iu[0]] = vals
    return mat


def _eigh(mat: np.ndarray):
    try:
        return np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailureError(f"symmetric eigendecomposition failed: {exc}") from exc


def _eigvalsh(mat: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvalsh(mat)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - rare
        raise NumericalFailureError(f"symmetric eigenvalue solve failed: {exc}") from exc


# --------------------------------------------------------------------------
# products and quadratic representation
# --------------------------------------------------------------------------


def circ(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Jordan product x o y (commutative, generally non-associative)."""
    _same_cone(x, y)
    out = np.empty(x.cone.dim)
    for blk, a, b in x.cone.spans:
        xc = x.coords[a:b]
        yc = y.coords[a:b]
        if isinstance(blk, Orthant):
            out[a:b] = xc * yc
        elif isinstance(blk, SecondOrder):
            out[a] = xc @ yc
            out[a + 1 : b] = xc[0] * yc[1:] + yc[0] * xc[1:]
        else:
            X = _smat(xc, blk.side)
            Y = _smat(yc, blk.side)
            out[a:b] = _svec(0.5 * (X @ Y + Y @ X))
    return _mk(x.cone, out)


def quad_rep(w: AlgebraElement, z: AlgebraElement) -> AlgebraElement:
    """Quadratic representation Q(w)z = 2 w o (w o z) - (w o w) o z."""
    _same_cone(w, z)
    return _mk(w.cone, quad_rep_columns(w, z.coords[:, None])[:, 0])


def quad_rep_columns(w: AlgebraElement, Z: np.ndarray) -> np.ndarray:
    """Q(w) applied to every column of an N x m coordinate matrix, in one
    pass over the blocks.

    Blockwise closed forms: w^2 * z (orthant), 2(w.z)w - det(w) Rz with
    Rz = (z0, -z1) (second-order), and W Z W (PSD, one stacked product over
    the m columns).
    """
    if Z.ndim != 2 or Z.shape[0] != w.cone.dim:
        raise ValueError(f"expected an array with {w.cone.dim} rows, got shape {Z.shape}")
    out = np.empty(Z.shape)
    for blk, a, b in w.cone.spans:
        wc = w.coords[a:b]
        zc = Z[a:b]
        if isinstance(blk, Orthant):
            out[a:b] = (wc * wc)[:, None] * zc
        elif isinstance(blk, SecondOrder):
            det_w = wc[0] * wc[0] - wc[1:] @ wc[1:]
            s = 2.0 * (wc @ zc)
            out[a] = s * wc[0] - det_w * zc[0]
            out[a + 1 : b] = np.outer(wc[1:], s) + det_w * zc[1:]
        else:
            W = _smat(wc, blk.side)
            out[a:b] = _svec(W @ _smat(zc.T, blk.side) @ W).T
    return out


# --------------------------------------------------------------------------
# spectral calculus
# --------------------------------------------------------------------------


class Spectrum:
    """One decomposition of x = sum_i lambda_i e_i, read by every domain test
    and spectral map of x.

    ``blocks`` holds per block (block, start, stop, eigenvalues, data): the
    eigenvector matrix (PSD), the unit axis of the vector part (second-order)
    or None (orthant).  ``eigenvalues`` concatenates them blockwise; ``frame``,
    built on first read, holds the primitive idempotents e_i in that order.
    """

    def __init__(self, x: AlgebraElement):
        self.cone = x.cone
        self.blocks = []
        for blk, a, b in x.cone.spans:
            c = x.coords[a:b]
            if isinstance(blk, Orthant):
                self.blocks.append((blk, a, b, c, None))
            elif isinstance(blk, SecondOrder):
                r = float(np.linalg.norm(c[1:]))
                # eigenvalues coincide when the vector part vanishes; any unit axis is a valid
                # frame direction, so fix the first coordinate axis deterministically
                axis = c[1:] / r if r > 0.0 else np.eye(c.shape[0] - 1)[0]
                self.blocks.append((blk, a, b, np.array([c[0] + r, c[0] - r]), axis))
            else:
                lam, vecs = _eigh(_smat(c, blk.side))
                self.blocks.append((blk, a, b, lam, vecs))
        self.eigenvalues = np.concatenate([lam for _, _, _, lam, _ in self.blocks])

    @functools.cached_property
    def frame(self) -> tuple:
        """The primitive idempotents e_i, in ``eigenvalues`` order."""
        frame = []
        for blk, a, b, lam, data in self.blocks:
            for j in range(lam.shape[0]):
                f = np.zeros(self.cone.dim)
                if isinstance(blk, Orthant):
                    f[a + j] = 1.0
                elif isinstance(blk, SecondOrder):
                    f[a] = 0.5
                    f[a + 1 : b] = (0.5 if j == 0 else -0.5) * data
                else:
                    f[a:b] = _svec(np.outer(data[:, j], data[:, j]))
                frame.append(_mk(self.cone, f))
        return tuple(frame)

    def map(self, *fns) -> tuple:
        """sum_i f(lambda_i) e_i for each f in ``fns``; f takes an eigenvalue ndarray."""
        outs = [np.empty(self.cone.dim) for _ in fns]
        for blk, a, b, lam, data in self.blocks:
            for fn, out in zip(fns, outs):
                fv = np.asarray(fn(lam), dtype=float)
                if isinstance(blk, Orthant):
                    out[a:b] = fv
                elif isinstance(blk, SecondOrder):
                    fp, fm = fv
                    out[a] = 0.5 * (fp + fm)
                    out[a + 1 : b] = 0.5 * (fp - fm) * data
                else:
                    out[a:b] = _svec((data * fv) @ data.T)
        return tuple(_mk(self.cone, out) for out in outs)

    def require_interior(self, message: str) -> "Spectrum":
        """This spectrum if it passes the interior test, else DomainError."""
        if not _interior_spectrum(self.eigenvalues):
            raise DomainError(message, eigenvalue=float(self.eigenvalues.min()))
        return self

    def require_domain(self, name: str, lower_open: bool) -> "Spectrum":
        """This spectrum if all eigenvalues are > 0 (``lower_open``) or >= 0, else DomainError."""
        lam = self.eigenvalues
        bad = lam <= 0.0 if lower_open else lam < 0.0
        if bad.any():
            raise DomainError(f"{name} undefined for this element", eigenvalue=float(lam[bad][0]))
        return self


def spectral(x: AlgebraElement) -> Spectrum:
    """Full spectral decomposition x = sum_i lambda_i e_i."""
    return Spectrum(x)


def eigenvalues(x: AlgebraElement) -> np.ndarray:
    """All eigenvalues, concatenated blockwise (length = rank)."""
    out = []
    for blk, a, b in x.cone.spans:
        c = x.coords[a:b]
        if isinstance(blk, Orthant):
            out.append(c)
        elif isinstance(blk, SecondOrder):
            r = np.linalg.norm(c[1:])
            out.append(np.array([c[0] + r, c[0] - r]))
        else:
            out.append(_eigvalsh(_smat(c, blk.side)))
    return np.concatenate(out)


def min_eigenvalue(x: AlgebraElement) -> float:
    return float(eigenvalues(x).min())


def is_interior(x: AlgebraElement) -> bool:
    """Scale-relative strict positivity of all eigenvalues."""
    return _interior_spectrum(eigenvalues(x))


def _interior_spectrum(lam: np.ndarray) -> bool:
    lam_max = np.abs(lam).max() if lam.size else 0.0
    return bool(lam.min() > INTERIOR_EPS * max(1.0, lam_max))


def spectral_map(x: AlgebraElement, fn: Callable[[np.ndarray], np.ndarray]) -> AlgebraElement:
    """Apply a scalar function to the eigenvalues: sum_i f(lambda_i) e_i.

    ``fn`` must accept an ndarray of eigenvalues (numpy ufuncs qualify).
    """
    return spectral_map_multi(x, (fn,))[0]


def spectral_map_multi(x: AlgebraElement, fns) -> tuple:
    """Apply several scalar functions from a single decomposition of x."""
    return Spectrum(x).map(*fns)


def interior_roots(w: AlgebraElement) -> tuple:
    """(w^{1/2}, w^{-1/2}) from one decomposition; w must lie in int K.

    The interior test reads the eigenvalues of that same decomposition.
    """
    spec = Spectrum(w).require_interior("scaling point must be interior")
    return spec.map(np.sqrt, lambda lam: lam ** -0.5)


def exp(x: AlgebraElement) -> AlgebraElement:
    """Exponential map; lands in the interior of the cone."""
    return spectral_map(x, np.exp)


def log(x: AlgebraElement) -> AlgebraElement:
    """Logarithm; requires x in int K."""
    return Spectrum(x).require_domain("log", lower_open=True).map(np.log)[0]


def sqrt(x: AlgebraElement) -> AlgebraElement:
    """Square root; requires x in K."""
    return Spectrum(x).require_domain("sqrt", lower_open=False).map(np.sqrt)[0]


def inverse(x: AlgebraElement) -> AlgebraElement:
    """Inverse; requires x in int K."""
    return Spectrum(x).require_domain("inverse", lower_open=True).map(lambda lam: 1.0 / lam)[0]


def power(x: AlgebraElement, m: int) -> AlgebraElement:
    """Integer power x^m (negative m requires x in int K)."""
    spec = Spectrum(x)
    if m < 0:
        spec.require_domain("power", lower_open=True)
    return spec.map(lambda lam: lam ** float(m))[0]


# --------------------------------------------------------------------------
# inner product and norms
# --------------------------------------------------------------------------


def inner(x: AlgebraElement, y: AlgebraElement) -> float:
    """Trace inner product tr(x o y)."""
    _same_cone(x, y)
    return float(np.dot(x.coords * metric_diag(x.cone), y.coords))


def trace(x: AlgebraElement) -> float:
    """Trace of x (= sum of eigenvalues = <x, e>)."""
    return inner(x, identity(x.cone))


class Norms(NamedTuple):
    norm2: float
    norm_inf: float
    norm1: float


def norms(x: AlgebraElement) -> Norms:
    """(Frobenius-type, spectral-max, eigenvalue-absolute-sum) norms."""
    lam = eigenvalues(x)
    abs_lam = np.abs(lam)
    return Norms(
        norm2=math.sqrt(max(inner(x, x), 0.0)),
        norm_inf=float(abs_lam.max()),
        norm1=float(abs_lam.sum()),
    )


def norm2(x: AlgebraElement) -> float:
    return math.sqrt(max(inner(x, x), 0.0))


def norm_inf(x: AlgebraElement) -> float:
    return float(np.abs(eigenvalues(x)).max())


# --------------------------------------------------------------------------
# cone automorphisms
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OrthantMap:
    """x |-> scale * x[perm] on an orthant block."""

    perm: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=int)
        scale = np.asarray(self.scale, dtype=float)
        object.__setattr__(self, "perm", perm)
        object.__setattr__(self, "scale", scale)
        if sorted(perm.tolist()) != list(range(perm.shape[0])):
            raise ValueError("perm must be a permutation of 0..k-1")
        if scale.shape != perm.shape or (scale <= 0).any():
            raise ValueError("scale must be positive and match the permutation length")


@dataclass(frozen=True, eq=False)
class SecondOrderMap:
    """(x0, x1) |-> scale * (x0, U x1) with U orthogonal."""

    rotation: np.ndarray
    scale: float = 1.0

    def __post_init__(self):
        U = np.asarray(self.rotation, dtype=float)
        object.__setattr__(self, "rotation", U)
        if U.ndim != 2 or U.shape[0] != U.shape[1]:
            raise ValueError("rotation must be square")
        if not np.allclose(U.T @ U, np.eye(U.shape[0]), atol=1e-10):
            raise ValueError("rotation must be orthogonal")
        if self.scale <= 0:
            raise ValueError("scale must be positive")


@dataclass(frozen=True, eq=False)
class PsdMap:
    """X |-> G X G^T with invertible G."""

    factor: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.factor, dtype=float)
        object.__setattr__(self, "factor", G)
        if G.ndim != 2 or G.shape[0] != G.shape[1]:
            raise ValueError("factor must be square")
        if abs(np.linalg.det(G)) < 1e-300:
            raise ValueError("factor must be invertible")
        # cached inverse; not a dataclass field
        object.__setattr__(self, "factor_inv", np.linalg.inv(G))


BlockMap = Union[OrthantMap, SecondOrderMap, PsdMap]


@dataclass(frozen=True, eq=False)
class ConeAutomorphism:
    """Blockwise invertible linear map preserving the cone.

    With ``orthogonal`` set, the map additionally preserves the trace inner
    product (unit scalings, orthogonal PSD factors); such maps fix the
    identity and commute with the spectral calculus.
    """

    cone: ConeDescriptor
    maps: tuple
    orthogonal: bool = False

    def __post_init__(self):
        object.__setattr__(self, "maps", tuple(self.maps))
        if len(self.maps) != len(self.cone.blocks):
            raise ValueError("one block map per cone block required")
        for blk, bm in zip(self.cone.blocks, self.maps):
            if isinstance(blk, Orthant):
                ok = isinstance(bm, OrthantMap) and bm.perm.shape[0] == blk.size
            elif isinstance(blk, SecondOrder):
                ok = isinstance(bm, SecondOrderMap) and bm.rotation.shape[0] == blk.dim - 1
            else:
                ok = isinstance(bm, PsdMap) and bm.factor.shape[0] == blk.side
            if not ok:
                raise ValueError(f"block map {bm!r} incompatible with block {blk!r}")
        if self.orthogonal:
            for bm in self.maps:
                if isinstance(bm, OrthantMap) and not np.allclose(bm.scale, 1.0, atol=1e-12):
                    raise ValueError("orthogonal automorphisms need unit orthant scalings")
                if isinstance(bm, SecondOrderMap) and abs(bm.scale - 1.0) > 1e-12:
                    raise ValueError("orthogonal automorphisms need unit second-order scalings")
                if isinstance(bm, PsdMap) and not np.allclose(
                    bm.factor.T @ bm.factor, np.eye(bm.factor.shape[0]), atol=1e-10
                ):
                    raise ValueError("orthogonal automorphisms need orthogonal PSD factors")


def _check_compat(T: ConeAutomorphism, x: AlgebraElement) -> None:
    if T.cone != x.cone:
        raise ConeMismatchError("automorphism and element live on different cones")


def _apply_blocks(T: ConeAutomorphism, x: AlgebraElement, mode: str) -> AlgebraElement:
    out = np.empty(x.cone.dim)
    for (blk, a, b), bm in zip(x.cone.spans, T.maps):
        c = x.coords[a:b]
        if isinstance(bm, OrthantMap):
            s = bm.scale
            if mode == "apply":
                out[a:b] = s * c[bm.perm]
            elif mode == "adjoint":
                res = np.empty_like(c)
                res[bm.perm] = s * c
                out[a:b] = res
            elif mode == "inverse":
                res = np.empty_like(c)
                res[bm.perm] = c / s
                out[a:b] = res
            else:  # inverse adjoint
                out[a:b] = c[bm.perm] / s
        elif isinstance(bm, SecondOrderMap):
            U = bm.rotation
            s = bm.scale
            if mode == "apply":
                out[a] = s * c[0]
                out[a + 1 : b] = s * (U @ c[1:])
            elif mode == "adjoint":
                out[a] = s * c[0]
                out[a + 1 : b] = s * (U.T @ c[1:])
            elif mode == "inverse":
                out[a] = c[0] / s
                out[a + 1 : b] = (U.T @ c[1:]) / s
            else:
                out[a] = c[0] / s
                out[a + 1 : b] = (U @ c[1:]) / s
        else:
            X = _smat(c, bm.factor.shape[0])
            G = bm.factor
            Gi = bm.factor_inv
            if mode == "apply":
                out[a:b] = _svec(G @ X @ G.T)
            elif mode == "adjoint":
                out[a:b] = _svec(G.T @ X @ G)
            elif mode == "inverse":
                out[a:b] = _svec(Gi @ X @ Gi.T)
            else:
                out[a:b] = _svec(Gi.T @ X @ Gi)
    return _mk(x.cone, out)


def apply_automorphism(T: ConeAutomorphism, x: AlgebraElement) -> AlgebraElement:
    """Apply T to x blockwise."""
    _check_compat(T, x)
    return _apply_blocks(T, x, "apply")


def apply_adjoint(T: ConeAutomorphism, x: AlgebraElement) -> AlgebraElement:
    """Apply the adjoint T* (with respect to the trace inner product)."""
    _check_compat(T, x)
    return _apply_blocks(T, x, "adjoint")


def apply_inverse(T: ConeAutomorphism, x: AlgebraElement) -> AlgebraElement:
    """Apply T^{-1}."""
    _check_compat(T, x)
    return _apply_blocks(T, x, "inverse")


def apply_inverse_adjoint(T: ConeAutomorphism, x: AlgebraElement) -> AlgebraElement:
    """Apply (T^{-1})* = (T*)^{-1}."""
    _check_compat(T, x)
    return _apply_blocks(T, x, "inverse_adjoint")


def random_automorphism(
    cone: ConeDescriptor, rng: np.random.Generator, orthogonal: bool = False
) -> ConeAutomorphism:
    """Draw a random cone automorphism (orthogonal subgroup if requested).

    Non-orthogonal maps use log-uniform scalings / singular values in
    [e^-0.7, e^0.7] to keep conditioning mild.
    """
    maps = []
    for blk in cone.blocks:
        if isinstance(blk, Orthant):
            perm = rng.permutation(blk.size)
            scale = np.ones(blk.size) if orthogonal else np.exp(rng.uniform(-0.7, 0.7, blk.size))
            maps.append(OrthantMap(perm=perm, scale=scale))
        elif isinstance(blk, SecondOrder):
            U = _random_orthogonal(blk.dim - 1, rng)
            scale = 1.0 if orthogonal else float(np.exp(rng.uniform(-0.7, 0.7)))
            maps.append(SecondOrderMap(rotation=U, scale=scale))
        else:
            if orthogonal:
                G = _random_orthogonal(blk.side, rng)
            else:
                q1 = _random_orthogonal(blk.side, rng)
                q2 = _random_orthogonal(blk.side, rng)
                sv = np.exp(rng.uniform(-0.7, 0.7, blk.side))
                G = (q1 * sv) @ q2.T
            maps.append(PsdMap(factor=G))
    return ConeAutomorphism(cone=cone, maps=tuple(maps), orthogonal=orthogonal)


def _random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    if k == 0:
        return np.zeros((0, 0))
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))
