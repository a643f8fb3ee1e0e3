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
hence tr x = 2 x0.  ``ConeDescriptor.metric_diag`` holds the weights relating
the two, and all norms, projections and adjoints in this package are taken
with respect to this inner product.

Frame coordinates are the working layout of the Newton step: one flat
array of length ``ConeDescriptor.frame_dim`` per element, in which

* orthant blocks hold their entries as they are;
* second-order blocks hold their raw coordinates times sqrt(2);
* PSD blocks hold the full k x k matrix, row-major;

so the trace inner product is the plain dot product, the eigensolvers read
the PSD matrices in place, and every cone automorphism is a plain product
per run (``a * z``, gathered by a permutation where it has one, ``M z`` or
``P Z P^T``).  ``unpack`` and ``pack`` convert at the ``AlgebraElement``
boundary; ``Spectrum`` and ``ConeAutomorphism`` work in frame coordinates,
every decomposition is one call of ``_spectrum``, and the public functions
pack their results once.  A geodesic step may map on an expansion instead
of a spectrum, from the same call: the powers of its PSD matrices, which
give the step's functions as Taylor polynomials to the rounding unit.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
import numbers
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
    "element",
    "identity",
    "zero",
    "from_blocks",
    "to_blocks",
    "pack",
    "unpack",
    "circ",
    "quad_rep",
    "spectral_map",
    "spectral_map_multi",
    "eigenvalues",
    "frame_eigenvalues",
    "geodesic_step",
    "min_eigenvalue",
    "is_interior",
    "inner",
    "norm2",
    "exp",
    "sqrt",
    "inverse",
    "apply_automorphism",
    "apply_adjoint",
    "random_automorphism",
    "INTERIOR_EPS",
]

# The interior test: lambda_min > INTERIOR_EPS * max|lambda|, one ratio at
# every scale: x and c x (c > 0) pass or fail alike, up to rounding.
INTERIOR_EPS = 1e-12

_SQRT2 = math.sqrt(2.0)
# sum_i f_i e_i on a second-order block has raw coordinates 0.5 (f+ + f-, (f+ - f-) u),
# so its frame coordinates are these halves times sqrt(2)
_HALF_SQRT2 = 0.5 * _SQRT2


def _taylor_radius(order: int) -> float:
    """The largest tau in (0, 1) at which the tail bound of a geodesic
    step's Taylor polynomials of ``order`` K, (K+2) tau^(K+1) / ((K+1)!
    (1 - tau)), is at most the rounding unit 2^-53; by bisection on floats."""
    unit, scale = np.finfo(float).eps / 2.0, (order + 2) / math.factorial(order + 1)
    lo, hi = 0.0, 1.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo
        if scale * mid ** (order + 1) / (1.0 - mid) <= unit:
            lo = mid
        else:
            hi = mid


# The step functions of a PSD run of d with ||D|| <= tau / max(1, |t|),
# exp(+-t D/2), r (I + D) exp(-t D) and r (I - D) exp(t D), have terms of
# order j of norm at most (j + 1) tau^j / j!, so their Taylor polynomials of
# order K err by at most the tail bound of ``_taylor_radius``.  The radius of
# order K is _TAYLOR_RADII[K - 1]: 8.6e-9 at K = 1, 0.054 at 8, 0.996 at 20,
# where 19 matrix products form the powers; past that d is decomposed.
_TAYLOR_RADII = tuple(_taylor_radius(order) for order in range(1, 21))
_TAYLOR_DEGREES = np.arange(len(_TAYLOR_RADII) + 1)
_TAYLOR_INV_FACTORIALS = 1.0 / np.array([float(math.factorial(j)) for j in _TAYLOR_DEGREES])
_TAYLOR_SIGNS = (-1.0) ** _TAYLOR_DEGREES
_TAYLOR_HALVES = 0.5 ** _TAYLOR_DEGREES


def _taylor_order(tau: float) -> int:
    """The least order whose radius holds ``tau``; 0 beyond the largest (or
    for NaN), where the step decomposes d instead."""
    return bisect.bisect_left(_TAYLOR_RADII, tau) + 1 if tau <= _TAYLOR_RADII[-1] else 0


# --------------------------------------------------------------------------
# cone description
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class Orthant:
    """Nonnegative orthant block of a given size."""

    size: int

    def __post_init__(self):
        object.__setattr__(self, "size", _block_size(self.size, 1, "orthant block size must be >= 1"))

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
        object.__setattr__(self, "dim", _block_size(self.dim, 2, "second-order block needs ambient dimension >= 2"))

    @property
    def rank(self) -> int:
        return 2


@dataclass(frozen=True)
class Psd:
    """Real symmetric PSD block of matrices with side ``side``."""

    side: int

    def __post_init__(self):
        object.__setattr__(self, "side", _block_size(self.side, 1, "psd block side must be >= 1"))

    @property
    def rank(self) -> int:
        return self.side

    @property
    def dim(self) -> int:
        return self.side * (self.side + 1) // 2


BlockKind = Union[Orthant, SecondOrder, Psd]


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer: numpy integers are, bools are not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _block_size(size, least: int, message: str) -> int:
    """``size`` as an int; ValueError unless it is an integer of at least ``least``."""
    if not _is_integer(size):
        raise ValueError(f"block size must be an integer, got {size!r}")
    if size < least:
        raise ValueError(message)
    return int(size)


class _lazy:
    """The package's cached attribute: the first read stores the value in
    the instance dict under the attribute's name, which every later read
    finds.  Callers rely on that: ``ConicProblem.dual`` seeds the dict, and
    ``NewtonData.record_bounds`` tests it for a formed value.  Python's
    ``cached_property`` also takes a lock on every first read before 3.12,
    which the Newton step pays several times."""

    def __init__(self, fn):
        self.fn, self.__doc__ = fn, fn.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.fn(obj)
        return value


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

    @_lazy
    def rank(self) -> int:
        """Number of eigenvalues of an element (n)."""
        return sum(blk.rank for blk in self.blocks)

    @_lazy
    def dim(self) -> int:
        """Vector-space dimension of the coordinate representation (N)."""
        return sum(blk.dim for blk in self.blocks)

    @_lazy
    def spans(self) -> tuple:
        """Per-block (block, start, stop) coordinate spans."""
        out = []
        pos = 0
        for blk in self.blocks:
            out.append((blk, pos, pos + blk.dim))
            pos += blk.dim
        return tuple(out)

    @_lazy
    def runs(self) -> tuple:
        """The blocks as runs: maximal stretches of consecutive equal blocks.

        Consecutive orthant blocks of any size form one run of a single
        orthant block.  A run's element coordinates, frame coordinates and
        eigenvalues are one contiguous slice each, so its blocks are the
        rows of a free reshape (``Run.rows``, ``Run.view``, ``Run.values``),
        in block order.
        """
        out = []
        start = pos = eig = 0
        for key, group in itertools.groupby(self.blocks, lambda blk: Orthant if isinstance(blk, Orthant) else blk):
            group = list(group)
            if key is Orthant:
                blk, count = Orthant(sum(g.size for g in group)), 1
            else:
                blk, count = key, len(group)
            frame_shape = (count, blk.side, blk.side) if isinstance(blk, Psd) else (count, blk.dim)
            stop, size, rank = start + count * blk.dim, math.prod(frame_shape), count * blk.rank
            out.append(Run(blk, count, start, stop, (count, blk.dim),
                           slice(pos, pos + size), frame_shape, slice(eig, eig + rank)))
            start, pos, eig = stop, pos + size, eig + rank
        return tuple(out)

    @_lazy
    def metric_diag(self) -> np.ndarray:
        """Diagonal weights making ``(x * w) @ y`` equal tr(x o y)."""
        w = np.ones(self.dim)
        for run in self.runs:
            if isinstance(run.block, SecondOrder):
                w[run.start : run.stop] = 2.0
        w.setflags(write=False)
        return w

    @_lazy
    def identity(self) -> "AlgebraElement":
        """The algebra identity e, packed from ``frame_identity``."""
        return pack(self, self.frame_identity)

    @_lazy
    def frame_dim(self) -> int:
        """Length D of the frame coordinates (a PSD block of side k takes k^2)."""
        return self.runs[-1].frame.stop

    @_lazy
    def frame_identity(self) -> np.ndarray:
        """Frame coordinates of e (ones / (sqrt 2, 0) / identity matrix)."""
        f = np.zeros(self.frame_dim)
        for run in self.runs:
            E = run.view(f)
            if isinstance(run.block, Orthant):
                E[:] = 1.0
            elif isinstance(run.block, SecondOrder):
                E[:, 0] = _SQRT2
            else:
                E[:] = np.eye(run.block.side)
        f.setflags(write=False)
        return f


class Run(NamedTuple):
    """``count`` consecutive copies of ``block``, one block per row in each
    layout: element coordinates ``start:stop`` of ``shape`` (count, block
    dimension); frame coordinates ``frame`` of ``frame_shape``, (count, dim)
    or (count, k, k) for PSD blocks; and the eigenvalues ``lam`` of the
    cone's eigenvalue vector, (count, block rank).  Each method reads the
    last axis of an array and returns a view where that axis is contiguous."""

    block: BlockKind
    count: int
    start: int
    stop: int
    shape: tuple
    frame: slice
    frame_shape: tuple
    lam: slice

    def rows(self, coords: np.ndarray) -> np.ndarray:
        """The run's part of element coordinates ``coords`` (..., N): shape
        (..., *shape)."""
        return coords[..., self.start : self.stop].reshape(coords.shape[:-1] + self.shape)

    def view(self, f: np.ndarray) -> np.ndarray:
        """The run's part of frame coordinates ``f`` (..., D): shape
        (..., *frame_shape)."""
        return f[..., self.frame].reshape(f.shape[:-1] + self.frame_shape)

    def values(self, lam: np.ndarray) -> np.ndarray:
        """The run's part of eigenvalues ``lam`` (..., rank): shape
        (..., count, block rank)."""
        return lam[..., self.lam].reshape(lam.shape[:-1] + (self.count, self.block.rank))


# --------------------------------------------------------------------------
# elements
# --------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AlgebraElement:
    """An element of J in the coordinate convention documented above; the
    constructor checks for ``cone.dim`` finite coordinates (``_mk`` does not)."""

    cone: ConeDescriptor
    coords: np.ndarray

    def __post_init__(self):
        coords = np.asarray(self.coords, dtype=float)
        object.__setattr__(self, "coords", coords)
        if coords.shape != (self.cone.dim,):
            raise ValueError(
                f"coordinate length {coords.shape} does not match cone dimension {self.cone.dim}"
            )
        if not np.isfinite(coords).all():
            raise ValueError("element coordinates must be finite")

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
    x = object.__new__(AlgebraElement)
    object.__setattr__(x, "cone", cone)
    object.__setattr__(x, "coords", coords)
    return x


def element(cone: ConeDescriptor, coords) -> AlgebraElement:
    """Build an element from a read-only copy of a coordinate array."""
    arr = np.array(coords, dtype=float).reshape(-1)
    arr.setflags(write=False)
    return AlgebraElement(cone, arr)


def zero(cone: ConeDescriptor) -> AlgebraElement:
    return _mk(cone, np.zeros(cone.dim))


def identity(cone: ConeDescriptor) -> AlgebraElement:
    """The algebra identity e (ones / (1, 0) / identity matrix per block)."""
    return cone.identity


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
    return element(cone, c)


def to_blocks(x: AlgebraElement) -> list:
    """Per-block data of an element (PSD blocks as symmetric matrices)."""
    out = []
    for blk, a, b in x.cone.spans:
        if isinstance(blk, Psd):
            out.append(_smat(x.coords[a:b], blk.side))
        else:
            out.append(x.coords[a:b].copy())
    return out


def unpack(x: AlgebraElement) -> np.ndarray:
    """Frame coordinates of x (see the module docstring)."""
    return _unpack(x.cone, x.coords)


def pack(cone: ConeDescriptor, f: np.ndarray) -> AlgebraElement:
    """The element with frame coordinates ``f``; a PSD block reads the upper
    triangle of its matrix."""
    return _mk(cone, _pack(cone, f))


def _unpack(cone: ConeDescriptor, coords: np.ndarray) -> np.ndarray:
    """Frame coordinates of each row of ``coords`` (..., N): shape (..., D)."""
    out = np.empty(coords.shape[:-1] + (cone.frame_dim,))
    for run in cone.runs:
        part, rows = run.rows(coords), run.view(out)
        if isinstance(run.block, Orthant):
            rows[...] = part
        elif isinstance(run.block, SecondOrder):
            rows[...] = part * _SQRT2
        else:
            rows[...] = _smat(part, run.block.side)
    return out


def _pack(cone: ConeDescriptor, f: np.ndarray) -> np.ndarray:
    """Element coordinates of each row of frame coordinates ``f`` (..., D)."""
    out = np.empty(f.shape[:-1] + (cone.dim,))
    for run in cone.runs:
        part, rows = run.view(f), run.rows(out)
        if isinstance(run.block, Orthant):
            rows[...] = part
        elif isinstance(run.block, SecondOrder):
            rows[...] = part / _SQRT2
        else:
            rows[...] = _svec(part)
    return out


def _same_cone(x: AlgebraElement, y: AlgebraElement) -> None:
    if x.cone != y.cone:
        raise ConeMismatchError("elements live on different cone descriptors")


# --------------------------------------------------------------------------
# scaled symmetric vectorization
# --------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def _svec_gathers(k: int):
    """Index maps of side k: ``upper`` picks the upper triangle (row-major)
    from a flattened matrix, with weights ``scale``; ``full`` picks, for each
    entry of a flattened matrix, its triangle coordinate, with weights
    ``full_scale``."""
    iu = np.triu_indices(k)
    upper = iu[0] * k + iu[1]
    scale = np.where(iu[0] == iu[1], 1.0, math.sqrt(2.0))
    pos = np.empty((k, k), dtype=np.intp)
    pos[iu] = pos[iu[1], iu[0]] = np.arange(upper.shape[0])
    full = pos.ravel()
    return upper, scale, full, scale[full]


def _svec(mat: np.ndarray) -> np.ndarray:
    """Scaled upper triangle of a k x k matrix, or of each in a (..., k, k) stack."""
    k = mat.shape[-1]
    upper, scale, _, _ = _svec_gathers(k)
    return mat.reshape(mat.shape[:-2] + (k * k,))[..., upper] * scale


def _smat(vec: np.ndarray, k: int) -> np.ndarray:
    """Inverse of ``_svec``: one matrix per vector in a (..., k(k+1)/2) stack."""
    _, _, full, full_scale = _svec_gathers(k)
    return (vec[..., full] / full_scale).reshape(vec.shape[:-1] + (k, k))


def _row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot product of each row of a with the same row of b (a stacked matmul,
    which sums as ``a[i] @ b[i]`` does)."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


# --------------------------------------------------------------------------
# products and quadratic representation
# --------------------------------------------------------------------------


def circ(x: AlgebraElement, y: AlgebraElement) -> AlgebraElement:
    """Jordan product x o y (commutative, generally non-associative), per
    run on frame coordinates as ``quad_rep``: x y, (x . y, x0 y1 + y0 x1)
    with x raw, or (X Y + Y X)/2."""
    _same_cone(x, y)
    xf, yf = unpack(x), unpack(y)
    out = np.empty(yf.shape)
    for run in x.cone.runs:
        X, Y, O = _frame_block(run, xf), run.view(yf), run.view(out)
        if isinstance(run.block, Orthant):
            O[...] = X * Y
        elif isinstance(run.block, SecondOrder):
            O[:, 0] = _row_dots(X, Y)
            O[:, 1:] = X[:, :1] * Y[:, 1:] + Y[:, :1] * X[:, 1:]
        else:
            O[...] = 0.5 * (X @ Y + Y @ X)
    return pack(x.cone, out)


def quad_rep(w: AlgebraElement, z: AlgebraElement) -> AlgebraElement:
    """Quadratic representation Q(w)z = 2 w o (w o z) - (w o w) o z, for any w.

    Blockwise closed forms on the frame coordinates of z, one stacked
    operation per run: w^2 z (orthant), 2 (w.z) w - det(w) R z with
    R z = (z0, -z1) and w in raw coordinates (second-order), and W Z W (PSD).
    """
    _same_cone(w, z)
    zf = unpack(z)
    out = np.empty(zf.shape)
    wf = unpack(w)
    for run in w.cone.runs:
        W, Z, O = _frame_block(run, wf), run.view(zf), run.view(out)
        if isinstance(run.block, Orthant):
            O[...] = W * W * Z
        elif isinstance(run.block, SecondOrder):
            w0, w1 = W[:, 0], W[:, 1:]
            det_w = w0 * w0 - _row_dots(w1, w1)
            s = 2.0 * _row_dots(W, Z)
            O[:, 0] = s * w0 - det_w * Z[:, 0]
            O[:, 1:] = s[:, None] * w1 + det_w[:, None] * Z[:, 1:]
        else:
            O[...] = W @ Z @ W
    return pack(w.cone, out)


# --------------------------------------------------------------------------
# spectral calculus
# --------------------------------------------------------------------------


def _frame_block(run: Run, f: np.ndarray) -> np.ndarray:
    """The blocks of one run of frame coordinates ``f``, one per row: raw
    coordinates (orthant, second-order) or the k x k matrix in place (PSD)."""
    X = run.view(f)
    return X / _SQRT2 if isinstance(run.block, SecondOrder) else X


def _spectrum(cone: ConeDescriptor, f: np.ndarray, vectors: bool, order: int = 0) -> tuple:
    """The eigenvalues of the element with frame coordinates ``f``, one
    vector in block order, and per run, with ``vectors``, the frame data:
    the eigenvector matrices (PSD, one stacked ``eigh``; else ``eigvalsh``)
    or the unit axes of the vector parts (second-order), else None.  A
    LAPACK failure raises NumericalFailureError.  On a one-run cone the
    vector is that run's own array, not a copy (numpy's eigensolvers cannot
    write into a given array); several runs are concatenated.

    With an ``order`` K > 0 a PSD run is expanded, not decomposed: its
    frame data are the powers I, X, ..., X^K of its matrices, stacked
    (K + 1, count, k, k) from K - 1 products, and its eigenvalues, which
    nothing forms, read 0.  Orthant and second-order runs are read as
    without ``order``."""
    lams, datas = [], []
    for run in cone.runs:
        X, data = _frame_block(run, f), None
        if isinstance(run.block, Orthant):
            lam = X
        elif isinstance(run.block, SecondOrder):
            x0, x1 = X[:, 0], X[:, 1:]
            r = np.sqrt(_row_dots(x1, x1))
            lam = np.empty((len(r), 2))
            np.add(x0, r, out=lam[:, 0])
            np.subtract(x0, r, out=lam[:, 1])
            if vectors:
                # with no vector part the eigenvalues coincide and any unit axis
                # frames them: take the first coordinate axis
                data = np.zeros_like(x1)
                data[:, 0] = 1.0
                np.divide(x1, r[:, None], out=data, where=r[:, None] > 0.0)
        elif order:
            lam, data = np.zeros(X.shape[:-1]), np.empty((order + 1,) + X.shape)
            data[0], data[1] = np.eye(run.block.side), X
            for j in range(2, order + 1):
                np.matmul(data[j - 1], X, out=data[j])
        else:
            try:
                lam, data = np.linalg.eigh(X) if vectors else (np.linalg.eigvalsh(X), None)
            except np.linalg.LinAlgError as exc:
                raise NumericalFailureError(f"symmetric eigensolver failed: {exc}") from exc
        lams.append(lam.ravel())
        datas.append(data)
    return (lams[0] if len(lams) == 1 else np.concatenate(lams)), tuple(datas)


class Spectrum:
    """One decomposition of x = sum_i lambda_i e_i, read by every domain test
    and spectral map of x.

    ``Spectrum(x)`` decomposes an element and ``Spectrum.of_frame(cone, f)``
    the element with frame coordinates f; both read the frame coordinates.
    ``eigenvalues`` holds every eigenvalue, one vector in block order whose
    part of a run ``Run.values`` reads; ``runs`` holds per run of equal
    blocks the frame data: the stacked eigenvector matrices (PSD), the unit
    axes of the vector parts (second-order) or None (orthant).  ``frame``,
    built on first read, holds the primitive idempotents e_i in eigenvalue
    order.  ``map`` gives frame coordinates, and ``scale_and_map`` also a
    scaling Q(y) from the same pass.  ``order`` is 0, or the order of an
    expansion (``of_frame``).
    """

    order = 0

    def __init__(self, x: AlgebraElement):
        self.cone, (self.eigenvalues, self.runs) = x.cone, _spectrum(x.cone, unpack(x), vectors=True)

    @classmethod
    def of_frame(cls, cone: ConeDescriptor, f: np.ndarray, order: int = 0) -> "Spectrum":
        """The spectrum of the element with frame coordinates ``f``.  With an
        ``order`` K > 0 it is an expansion instead: its PSD runs hold the
        powers of their matrices up to X^K, not their eigenvectors (see
        ``_spectrum``), and it serves ``geodesic_step`` alone."""
        spec = cls.__new__(cls)
        spec.cone, spec.order = cone, order
        spec.eigenvalues, spec.runs = _spectrum(cone, f, vectors=True, order=order)
        return spec

    @_lazy
    def frame(self) -> tuple:
        """The primitive idempotents e_i, in ``eigenvalues`` order: the
        spectral maps of the unit vectors of eigenvalues."""
        out = np.empty((self.cone.rank, self.cone.frame_dim))
        for run, data in zip(self.cone.runs, self.runs):
            _run_maps(run, data, run.values(np.eye(self.cone.rank)), 0, run.view(out))
        return tuple(_mk(self.cone, c) for c in _pack(self.cone, out))

    def map(self, *fns) -> tuple:
        """Frame coordinates of sum_i f(lambda_i) e_i for each f in ``fns``; f
        acts elementwise on the ndarray of eigenvalues."""
        return self.scale_and_map(None, *fns)[1]

    def scale_and_map(self, fn, *fns) -> tuple:
        """(Q(y), ``map(*fns)``) from one pass over the runs, for
        y = sum_i fn(lambda_i) e_i with fn positive; Q(y) is a
        ``ConeAutomorphism`` (see ``ConeAutomorphism.scaling``), None when fn
        is None.  Each function is evaluated once, on the eigenvalue vector."""
        lam = self.eigenvalues
        lead = 0 if fn is None else 2
        # every value at once, f and 1/f ahead of the maps: one product per run
        v = np.empty((lead + len(fns), lam.shape[0]))
        if lead:
            v[0] = fn(lam)
            np.divide(1.0, v[0], out=v[1])
        for i, h in enumerate(fns, lead):
            v[i] = h(lam)
        out = np.empty((len(fns), self.cone.frame_dim))
        maps = [_run_maps(run, data, run.values(v), lead, run.view(out))
                for run, data in zip(self.cone.runs, self.runs)]
        return (ConeAutomorphism(self.cone, maps) if lead else None), tuple(out)

    def require_interior(self, message: str) -> "Spectrum":
        """This spectrum if it passes the interior test (``INTERIOR_EPS``), else
        DomainError naming the ratio lambda_min / max|lambda| that failed."""
        if not _interior_spectrum(self.eigenvalues):
            low, high = float(self.eigenvalues.min()), float(np.abs(self.eigenvalues).max())
            ratio = f"lambda_min / max|lambda| = {low / high if high else math.nan:.3g}"  # floats: no numpy flag
            raise DomainError(f"{message}: {ratio} not above INTERIOR_EPS = {INTERIOR_EPS:g}", eigenvalue=low)
        return self

    def require_domain(self, name: str, lower_open: bool) -> "Spectrum":
        """This spectrum if all eigenvalues are > 0 (``lower_open``) or >= 0, else DomainError."""
        lam = self.eigenvalues
        bad = lam <= 0.0 if lower_open else lam < 0.0
        if bad.any():
            raise DomainError(f"{name} undefined for this element", eigenvalue=float(lam[bad][0]))
        return self


def _run_maps(run: Run, data, vr: np.ndarray, lead: int, rows: np.ndarray):
    """One run of ``Spectrum.scale_and_map``: writes sum_i f(lambda_i) e_i
    for the values ``vr[lead:]`` of each f into ``rows`` and, with ``lead``
    (2), returns the run's maps (Q(y), Q(y^{-1}), None) for the values
    ``vr[0]`` of y and ``vr[1]`` of 1/y; else None.  On a PSD run that an
    expansion holds, ``data`` are the powers I, X, ..., X^K and ``vr`` the
    coefficients of each f in them, (f count, K + 1)."""
    if isinstance(run.block, Orthant):
        rows[...] = vr[lead:]
        if lead:
            square = vr[0] * vr[0]
            return square, 1.0 / square, None
    elif isinstance(run.block, SecondOrder):
        vp, vm = vr[lead:, ..., 0], vr[lead:, ..., 1]
        rows[..., 0] = _HALF_SQRT2 * (vp + vm)
        rows[..., 1:] = (_HALF_SQRT2 * (vp - vm))[..., None] * data
        if lead:
            both = _soc_quad_matrices(vr[:2], data)
            return both[0], both[1], None
    else:
        # V f V^T, or sum_j c_j X^j, for every f; the first two are the
        # factors of Q(y) and Q(y^{-1})
        if data.ndim == 4:
            prod = (vr @ data.reshape(len(data), -1)).reshape(vr.shape[:1] + data.shape[1:])
        else:
            prod = (data * vr[..., None, :]) @ np.ascontiguousarray(data.transpose(0, 2, 1))
        rows[...] = prod[lead:]
        if lead:
            return prod[0], prod[1], None
    return None


def geodesic_step(anchor: "ConeAutomorphism", spec: Spectrum, t: float, r: float,
                  basis: np.ndarray, inverse: bool) -> tuple:
    """The maps of one geodesic step from the frame of ``anchor`` T, in one
    pass over the runs, for S = Q(exp(t d/2)) on the spectrum ``spec`` of d:
    ``(T S, Z', u_p, u_d)`` with Z' the columns of ``basis`` (D x m) mapped
    by S^{-1} (``inverse``) or S*, and the frame coordinates of
    ``u_p = r (e + d) o exp(-t d)`` and ``u_d = r (e - d) o exp(t d)``.  The
    arithmetic is that of ``scale_and_map``, ``columns`` and ``then``.

    On an expansion of order K (``Spectrum.of_frame``), which needs
    max(1, |t|) ||d|| <= ``_TAYLOR_RADII[K - 1]``, a PSD run forms its four
    step functions as one product of their Taylor coefficients, 4 x (K + 1),
    with the stacked powers of its matrices, exact to the rounding unit;
    the other runs map their closed-form eigenvalues as on a spectrum."""
    cone, lam = anchor.cone, spec.eigenvalues
    taylor = _taylor_coefficients(t, r, spec.order) if spec.order else None
    expanded = [taylor is not None and isinstance(run.block, Psd) for run in cone.runs]
    if not all(expanded):
        v = np.empty((4, lam.shape[0]))
        v[0] = np.exp(0.5 * t * lam)
        np.divide(1.0, v[0], out=v[1])
        v[2] = r * (1.0 + lam) * np.exp(-t * lam)
        v[3] = r * (1.0 - lam) * np.exp(t * lam)
    reset = np.empty((2, cone.frame_dim))
    rows = basis.T
    mapped = np.empty(rows.shape)
    maps = []
    for run, data, a, by_taylor in zip(cone.runs, spec.runs, anchor.maps, expanded):
        s = _run_maps(run, data, taylor if by_taylor else run.values(v), 2, run.view(reset))
        _map_run(run.block, s, run.view(rows), run.view(mapped), inverse, not inverse)
        maps.append(_compose(run.block, a, s))
    return ConeAutomorphism(cone, maps), mapped.T, reset[0], reset[1]


def _taylor_coefficients(t: float, r: float, order: int) -> np.ndarray:
    """The coefficients of I, D, ..., D^order in the Taylor polynomials of
    exp(t D/2), exp(-t D/2), r (I + D) exp(-t D) and r (I - D) exp(t D),
    one row each: (t/2)^j / j!, (-t/2)^j / j!, r (-1)^j b_j and r b_j with
    b_j = t^j / j! - t^(j-1) / (j-1)! (b_0 = 1)."""
    n = order + 1
    a = t ** _TAYLOR_DEGREES[:n] * _TAYLOR_INV_FACTORIALS[:n]
    c = np.empty((4, n))
    np.multiply(a, _TAYLOR_HALVES[:n], out=c[0])
    np.multiply(c[0], _TAYLOR_SIGNS[:n], out=c[1])
    c[3, 0] = r * a[0]
    np.subtract(a[1:], a[:-1], out=c[3, 1:])
    c[3, 1:] *= r
    np.multiply(c[3], _TAYLOR_SIGNS[:n], out=c[2])
    return c


def eigenvalues(x: AlgebraElement) -> np.ndarray:
    """All eigenvalues, concatenated blockwise (length = rank)."""
    return frame_eigenvalues(x.cone, unpack(x))


def frame_eigenvalues(cone: ConeDescriptor, f: np.ndarray) -> np.ndarray:
    """All eigenvalues of the element with frame coordinates ``f``."""
    return _spectrum(cone, f, vectors=False)[0]


def min_eigenvalue(x: AlgebraElement) -> float:
    return float(eigenvalues(x).min())


def is_interior(x: AlgebraElement) -> bool:
    """Strict positivity of all eigenvalues relative to the largest
    magnitude (``INTERIOR_EPS``), with no absolute floor."""
    return _interior_spectrum(eigenvalues(x))


def _interior_spectrum(lam: np.ndarray) -> bool:
    return bool(lam.min() > INTERIOR_EPS * np.abs(lam).max())


def spectral_map(x: AlgebraElement, fn: Callable[[np.ndarray], np.ndarray]) -> AlgebraElement:
    """Apply a scalar function to the eigenvalues: sum_i f(lambda_i) e_i.

    ``fn`` must act elementwise on an ndarray of eigenvalues (numpy ufuncs
    qualify).
    """
    return spectral_map_multi(x, (fn,))[0]


def spectral_map_multi(x: AlgebraElement, fns) -> tuple:
    """Apply several scalar functions from a single decomposition of x."""
    return tuple(pack(x.cone, f) for f in Spectrum(x).map(*fns))


def exp(x: AlgebraElement) -> AlgebraElement:
    """Exponential map; lands in the interior of the cone."""
    return spectral_map(x, np.exp)


def sqrt(x: AlgebraElement) -> AlgebraElement:
    """Square root; requires x in K."""
    return pack(x.cone, Spectrum(x).require_domain("sqrt", lower_open=False).map(np.sqrt)[0])


def inverse(x: AlgebraElement) -> AlgebraElement:
    """Inverse; requires x in int K."""
    spec = Spectrum(x).require_domain("inverse", lower_open=True)
    return pack(x.cone, spec.map(lambda lam: 1.0 / lam)[0])


# --------------------------------------------------------------------------
# inner product and norms
# --------------------------------------------------------------------------


def inner(x: AlgebraElement, y: AlgebraElement) -> float:
    """Trace inner product tr(x o y)."""
    _same_cone(x, y)
    return float(np.dot(x.coords * x.cone.metric_diag, y.coords))


def norm2(x: AlgebraElement) -> float:
    return math.sqrt(max(inner(x, x), 0.0))


# --------------------------------------------------------------------------
# cone automorphisms
# --------------------------------------------------------------------------


class ConeAutomorphism:
    """A cone automorphism T, held as its per-run linear maps on frame
    coordinates, so that a product of automorphisms costs one small product
    per run.

    ``maps`` holds per run of equal blocks the triple (T, T^{-1}, index): on
    an orthant run positive vectors a with T x = a x[index] (T x = a x when
    the index is None); on a second-order run stacked raw-coordinate
    matrices M with T x = M x; on a PSD run stacked factors P with
    T X = P X P^T; the index is None on these.  The trace inner product is
    the dot product of frame coordinates, so T* and (T^{-1})* are the
    transposed maps; on an orthant run T and (T^{-1})* gather by the index,
    and T* and T^{-1} scatter.

    ``scaling`` gives Q(y) from a spectrum and ``polar`` the form Q(p) k,
    which every automorphism that maps each block to itself takes (polar
    decomposition, with p = (T e)^{1/2}).  ``then`` composes, and ``point``
    forms T e when it is read.
    """

    def __init__(self, cone: ConeDescriptor, maps):
        self.cone = cone
        self.maps = tuple(maps)

    @classmethod
    def scaling(cls, spec: Spectrum, fn: Callable[[np.ndarray], np.ndarray]) -> "ConeAutomorphism":
        """Q(y) for y = sum_i f(lambda_i) e_i on the spectrum of x; f must be
        positive.  T^{-1} = Q(y^{-1}) maps 1/f on the same spectrum."""
        return spec.scale_and_map(fn)[0]

    @classmethod
    def polar(cls, cone: ConeDescriptor, ks, p: AlgebraElement | None = None) -> "ConeAutomorphism":
        """T = Q(p) k.  ``ks`` is k, one orthogonal map per block: a
        permutation of the entries (orthant, T x = x[perm]), a rotation U of
        the vector part (second-order, (x0, U x1)) or a factor O (PSD,
        O X O^T); so k preserves the trace inner product and fixes e.  ``p``
        is an interior point (default e).  Then T* = k^T Q(p),
        T^{-1} = k^T Q(p^{-1}) and (T^{-1})* = Q(p^{-1}) k."""
        ks = tuple(ks)
        if len(ks) != len(cone.blocks):
            raise ValueError("one block map per cone block required")
        maps = []
        for run in cone.runs:
            parts = [(a - run.start, _block_map(blk, km)) for (blk, a, _), km in zip(cone.spans, ks)
                     if run.start <= a < run.stop]
            if isinstance(run.block, Orthant):
                ones = np.ones(run.shape)
                maps.append((ones, ones, np.concatenate([a + perm for a, perm in parts])))
            else:
                stack = np.stack([m for _, m in parts])
                maps.append((stack, stack.transpose(0, 2, 1), None))
        k = cls(cone, maps)
        if p is None:
            return k
        if p.cone != cone:
            raise ConeMismatchError("automorphism scaling lives on a different cone")
        spec = Spectrum(p).require_interior("automorphism scaling must be interior")
        return cls.scaling(spec, lambda lam: lam).then(k)

    def then(self, other: "ConeAutomorphism") -> "ConeAutomorphism":
        """The composition T S of this map T with ``other`` S applied first."""
        maps = [_compose(run.block, t, s) for run, t, s in zip(self.cone.runs, self.maps, other.maps)]
        return ConeAutomorphism(self.cone, maps)

    def point(self) -> AlgebraElement:
        """T e."""
        out = np.empty(self.cone.dim)
        for run, (t, _, _) in zip(self.cone.runs, self.maps):
            rows = run.rows(out)
            if isinstance(run.block, Orthant):
                rows[:] = t
            elif isinstance(run.block, SecondOrder):
                rows[:] = t[:, :, 0]
            else:
                rows[:] = _svec(t @ t.transpose(0, 2, 1))
        return _mk(self.cone, out)

    def columns(self, Z: np.ndarray, inverse: bool = False, adjoint: bool = False) -> np.ndarray:
        """T, T*, T^{-1} or (T^{-1})* (``inverse``, ``adjoint``) applied to
        frame coordinates: a vector (D,) or the columns of a (D, m) array."""
        D = self.cone.frame_dim
        if Z.shape[0] != D or Z.ndim > 2:
            raise ValueError(f"expected frame coordinates with {D} rows, got shape {Z.shape}")
        # one element per row, contiguous when Z is a vector or a Fortran-ordered
        # D x m array; the result is laid out alike
        R = Z.T.reshape(-1, D)
        out = np.empty(R.shape)
        for run, m in zip(self.cone.runs, self.maps):
            _map_run(run.block, m, run.view(R), run.view(out), inverse, adjoint)
        return out.T.reshape(Z.shape)

    def _apply(self, xs, inverse: bool, adjoint: bool) -> list:
        """T, T*, T^{-1} or (T^{-1})* of each element of ``xs``, from one map call."""
        if any(x.cone != self.cone for x in xs):
            raise ConeMismatchError("automorphism and element live on different cones")
        out = self.columns(_unpack(self.cone, np.stack([x.coords for x in xs])).T, inverse, adjoint)
        return [_mk(self.cone, c) for c in _pack(self.cone, out.T)]


def _compose(block: BlockKind, t_map: tuple, s_map: tuple) -> tuple:
    """One run of ``ConeAutomorphism.then``: the maps of T S from those of
    T and of S."""
    (t, t_inv, i_t), (s, s_inv, i_s) = t_map, s_map
    if not isinstance(block, Orthant):
        return t @ s, s_inv @ t_inv, None
    if i_t is None:
        return t * s, s_inv * t_inv, i_s
    # T S x = a_t a_s[i_t] x[i_s[i_t]]
    return t * s[..., i_t], s_inv[..., i_t] * t_inv, (i_t if i_s is None else i_s[i_t])


def _map_run(block: BlockKind, maps: tuple, Z: np.ndarray, O: np.ndarray, inverse: bool, adjoint: bool) -> None:
    """One run of ``ConeAutomorphism.columns``: writes the run's map T,
    T*, T^{-1} or (T^{-1})* of ``maps`` (T, T^{-1}, index) of the run's
    elements ``Z``, one per leading row, into ``O``."""
    t, t_inv, index = maps
    A = t_inv if inverse else t
    if isinstance(block, Orthant):
        if index is None:
            O[...] = A * Z
        elif inverse == adjoint:  # T and (T^{-1})* gather, T* and T^{-1} scatter
            O[...] = A * Z[..., index]
        else:
            O[..., index] = A * Z
        return
    if adjoint:
        A = A.transpose(0, 2, 1)
    if isinstance(block, SecondOrder):
        # M z for every element: the elements side by side, one product per block
        O[...] = (A @ Z.transpose(1, 2, 0)).transpose(2, 0, 1)
    else:
        # P Z P^T is symmetric but its rounding is not; without the
        # symmetrization, an antisymmetric part, which no map or
        # projection removes, drifts up from the rounding level step by step.
        # (numpy's stacked matmul is slower on transposed views, hence the copies)
        A = np.ascontiguousarray(A)
        Y = A @ Z @ np.ascontiguousarray(A.transpose(0, 2, 1))
        np.add(Y, Y.swapaxes(-1, -2), out=O)
        O *= 0.5


def _block_map(blk: BlockKind, data) -> np.ndarray:
    """k on one block, validated: the permutation (orthant), or the
    orthogonal matrix 1 (+) U acting on raw second-order coordinates, or the
    PSD factor O."""
    if isinstance(blk, Orthant):
        perm = np.asarray(data, dtype=int)
        if sorted(perm.tolist()) != list(range(blk.size)):
            raise ValueError(f"orthant block map must be a permutation of 0..{blk.size - 1}")
        return perm
    U = np.asarray(data, dtype=float)
    k = blk.dim - 1 if isinstance(blk, SecondOrder) else blk.side
    if U.shape != (k, k):
        raise ValueError(f"block map of shape {U.shape} incompatible with block {blk!r}")
    if not np.allclose(U.T @ U, np.eye(k), rtol=0.0, atol=1e-10):
        raise ValueError(f"block map of {blk!r} must be orthogonal")
    if isinstance(blk, Psd):
        return U
    M = np.eye(k + 1)
    M[1:, 1:] = U
    return M


def apply_automorphism(T: ConeAutomorphism, x: AlgebraElement) -> AlgebraElement:
    """Apply T to x."""
    return T._apply((x,), False, False)[0]


def apply_adjoint(T: ConeAutomorphism, x: AlgebraElement) -> AlgebraElement:
    """Apply the adjoint T* (with respect to the trace inner product)."""
    return T._apply((x,), False, True)[0]


def _soc_quad_matrices(f: np.ndarray, axis: np.ndarray) -> np.ndarray:
    """Raw-coordinate matrices of Q(y), one per second-order block of a run,
    for y with eigenvalues f = (f+, f-) on unit axes u: ``f`` is (..., count,
    2) and ``axis`` (count, m), so a leading axis of ``f`` gives several maps
    on the same axes from one call.

    Q(y) scales the directions (1, +-u) by f+^2 and f-^2 and the vector
    directions orthogonal to u by f+ f-; the spectral form keeps the small
    scale f-^2 exact where 2 y y^T - det(y) R would cancel.
    """
    fp, fm = f[..., 0], f[..., 1]
    fp2, fm2 = fp * fp, fm * fm
    a = 0.5 * (fp2 + fm2)
    b = 0.5 * (fp2 - fm2)
    g = fp * fm
    m = axis.shape[1]
    out = np.empty(f.shape[:-1] + (m + 1, m + 1))
    out[..., 0, 0] = a
    out[..., 0, 1:] = out[..., 1:, 0] = b[..., None] * axis
    out[..., 1:, 1:] = (a - g)[..., None, None] * (axis[:, :, None] * axis[:, None, :])
    diag = np.arange(1, m + 1)
    out[..., diag, diag] += g[..., None]
    return out


def random_automorphism(
    cone: ConeDescriptor, rng: np.random.Generator, orthogonal: bool = False
) -> ConeAutomorphism:
    """Draw a random cone automorphism T = Q(p) k.

    k draws per block a uniform permutation (orthant), rotation of the
    vector part (second-order) or orthogonal factor (PSD).  With
    ``orthogonal`` p = e, so T preserves the trace inner product and fixes
    e.  Otherwise p = exp(v), with the eigenvalues of v uniform in
    [-0.35, 0.35] (so Q(p) has eigenvalues in [e^-0.7, e^0.7]) and a random
    frame; on second-order blocks Q(p) is then a Lorentz boost.
    """
    ks = []
    for blk in cone.blocks:
        if isinstance(blk, Orthant):
            ks.append(rng.permutation(blk.size))
        elif isinstance(blk, SecondOrder):
            ks.append(_random_orthogonal(blk.dim - 1, rng))
        else:
            ks.append(_random_orthogonal(blk.side, rng))
    if orthogonal:
        return ConeAutomorphism.polar(cone, ks)
    logs = []
    for blk in cone.blocks:
        lam = rng.uniform(-0.35, 0.35, blk.rank)
        if isinstance(blk, Orthant):
            logs.append(lam)
        elif isinstance(blk, SecondOrder):
            u = rng.standard_normal(blk.dim - 1)
            half_gap = 0.5 * (lam[0] - lam[1]) / np.linalg.norm(u)
            logs.append(np.concatenate(([lam.mean()], half_gap * u)))
        else:
            q = _random_orthogonal(blk.side, rng)
            logs.append((q * lam) @ q.T)
    return ConeAutomorphism.polar(cone, ks, exp(from_blocks(cone, logs)))


def _random_orthogonal(k: int, rng: np.random.Generator) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((k, k)))
    return q * np.sign(np.diag(r))
