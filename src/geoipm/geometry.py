"""Riemannian machinery on the cone interior.

Geodesics through w with direction d are parametrized as
``Q(w^{1/2}) exp(t d)``; the induced distance is
``delta(z0, z1) = || log Q(z0^{-1/2}) z1 ||``.  The divergence
``h(z0, z1) = <z0, z1^{-1}> + <z0^{-1}, z1> - 2n`` is a symmetrized
KL-type proximity proxy satisfying ``delta^2 <= h <= q(delta)`` for the
gauge ``q(t) = 2(cosh t - 1)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jordan
from .errors import DomainError
from .jordan import AlgebraElement

__all__ = [
    "GeodesicRay",
    "ray",
    "geodesic_point",
    "geodesic_distance",
    "q_fn",
    "q_inv",
    "divergence",
    "divergence_profile",
]


@dataclass(frozen=True, eq=False)
class GeodesicRay:
    """A geodesic t |-> Q(base^{1/2}) exp(t direction) with cached sqrt; ``spectrum``
    decomposes the direction once, so a point maps exp(t lambda) on it."""

    base_half: AlgebraElement
    spectrum: jordan.Spectrum


def ray(base: AlgebraElement, direction: AlgebraElement) -> GeodesicRay:
    """Build a geodesic ray; the base point must be interior."""
    jordan._same_cone(base, direction)
    (base_half,) = jordan.Spectrum(base).require_interior("geodesic base point must lie in int K").map(np.sqrt)
    return GeodesicRay(jordan.pack(base.cone, base_half), jordan.Spectrum(direction))


def geodesic_point(r: GeodesicRay, t: float) -> AlgebraElement:
    """Point Q(w^{1/2}) exp(t d) on the ray; always interior."""
    t = float(t)
    (exp_td,) = r.spectrum.map(lambda lam: np.exp(t * lam))
    return jordan.quad_rep(r.base_half, jordan.pack(r.base_half.cone, exp_td))


def geodesic_distance(z0: AlgebraElement, z1: AlgebraElement) -> float:
    """Affine-invariant distance || log Q(z0^{-1/2}) z1 ||."""
    jordan._same_cone(z0, z1)
    what = "geodesic_distance argument must lie in int K"
    (z0_inv_half,) = jordan.Spectrum(z0).require_interior(what).map(lambda lam: lam ** -0.5)
    jordan.Spectrum(z1).require_interior(what)
    lam = jordan.eigenvalues(jordan.quad_rep(jordan.pack(z0.cone, z0_inv_half), z1))
    if lam.min() <= 0.0:
        raise DomainError("scaled point left the cone interior", eigenvalue=float(lam.min()))
    # eigenvalue multiset of the log; the trace norm is the plain 2-norm here
    return float(np.linalg.norm(np.log(lam)))


def q_fn(t: float) -> float:
    """The gauge q(t) = 2(cosh t - 1) = 4 sinh(t/2)^2 (>= t^2)."""
    s = math.sinh(0.5 * float(t))
    return 4.0 * s * s


def q_inv(t: float) -> float:
    """Nonnegative inverse of the gauge, arccosh(1 + t/2), in stable log form."""
    t = float(t)
    if t < 0.0:
        raise DomainError("q_inv requires a nonnegative argument")
    return math.log1p(0.5 * t + math.sqrt(t + 0.25 * t * t))


def divergence(z0: AlgebraElement, z1: AlgebraElement) -> float:
    """Symmetrized divergence <z0, z1^{-1}> + <z0^{-1}, z1> - 2n."""
    jordan._same_cone(z0, z1)
    what = "divergence argument must lie in int K"
    z0_inv, z1_inv = (jordan.Spectrum(z).require_interior(what).map(lambda lam: 1.0 / lam)[0] for z in (z0, z1))
    # frame coordinates: the trace inner product is the dot product
    return float(jordan.unpack(z0) @ z1_inv + z0_inv @ jordan.unpack(z1)) - 2.0 * z0.cone.rank


def divergence_profile(r: GeodesicRay, t: float, z_ref: AlgebraElement) -> float:
    """Divergence between the ray point at t and a fixed interior reference.

    Strictly convex in t whenever the ray direction is nonzero.
    """
    return divergence(geodesic_point(r, t), z_ref)
