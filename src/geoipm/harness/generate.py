"""Random SDP instance generation.

Instances follow the standard recipe: the matrix logarithms of (x0, s0)
and a basis of the subspace L are drawn as symmetrized Gaussian matrices
(X <- randn(n, n), X <- (X + X^T)/2).  Generation is deterministic under
the seed.
"""

from __future__ import annotations

import numpy as np

from .. import jordan
from ..jordan import ConeDescriptor, Psd
from ..subspace import BasisForm, ConicProblem

__all__ = ["generate_random_sdp"]


def _sym_randn(n: int, rng: np.random.Generator) -> np.ndarray:
    X = rng.standard_normal((n, n))
    return 0.5 * (X + X.T)


def _size_error(n: int, dim_l: int) -> str | None:
    """Why psd(n) with dim L = dim_l is no instance size, or None when it is one."""
    if n < 2:
        return "matrix side must be >= 2"
    if not 1 <= dim_l < n * (n + 1) // 2:
        return "need 1 <= dim_l < n(n+1)/2"
    return None


def generate_random_sdp(n: int, dim_l: int, seed: int) -> ConicProblem:
    """Random PSD(n) instance with dim(L) = dim_l, deterministic under seed;
    a numerically dependent basis raises IllConditionedBasisError."""
    error = _size_error(n, dim_l)
    if error is not None:
        raise ValueError(error)
    cone = ConeDescriptor((Psd(n),))
    rng = np.random.default_rng([int(seed), 0])
    x0 = jordan.exp(jordan.from_blocks(cone, [_sym_randn(n, rng)]))
    s0 = jordan.exp(jordan.from_blocks(cone, [_sym_randn(n, rng)]))
    basis = tuple(jordan.from_blocks(cone, [_sym_randn(n, rng)]) for _ in range(dim_l))
    return ConicProblem(cone, BasisForm(x0=x0, s0=s0, basis=basis))
