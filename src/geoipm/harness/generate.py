"""Random SDP instance generation.

Instances follow the standard recipe: the matrix logarithms of (x0, s0)
and a basis of the subspace L are drawn as symmetrized Gaussian matrices
(X <- randn(n, n), X <- (X + X^T)/2).  Generation is deterministic under
the seed.
"""

from __future__ import annotations

import numpy as np

from .. import jordan
from ..errors import IllConditionedBasisError, NumericalFailureError
from ..jordan import ConeDescriptor, Psd
from ..subspace import BasisForm, ConicProblem

__all__ = ["generate_random_sdp"]

_MAX_RETRIES = 5


def _sym_randn(n: int, rng: np.random.Generator) -> np.ndarray:
    X = rng.standard_normal((n, n))
    return 0.5 * (X + X.T)


def generate_random_sdp(n: int, dim_l: int, seed: int) -> ConicProblem:
    """Random PSD(n) instance with dim(L) = dim_l, deterministic under seed.

    On (vanishingly rare) basis dependence the draw is retried with an
    incremented sub-seed, at most five times.
    """
    if n < 2:
        raise ValueError("matrix side must be >= 2")
    if not 1 <= dim_l < n * (n + 1) // 2:
        raise ValueError("need 1 <= dim_l < n(n+1)/2")
    cone = ConeDescriptor((Psd(n),))
    for attempt in range(_MAX_RETRIES + 1):
        rng = np.random.default_rng([int(seed), attempt])
        x0 = jordan.exp(jordan.from_blocks(cone, [_sym_randn(n, rng)]))
        s0 = jordan.exp(jordan.from_blocks(cone, [_sym_randn(n, rng)]))
        basis = tuple(jordan.from_blocks(cone, [_sym_randn(n, rng)]) for _ in range(dim_l))
        try:
            return ConicProblem(cone, BasisForm(x0=x0, s0=s0, basis=basis))
        except IllConditionedBasisError:
            continue
    raise NumericalFailureError(
        f"could not draw an independent subspace basis after {_MAX_RETRIES} retries"
    )
