"""Hyperbolic geometry of the unit disk.

The Mobius involution interchanging 0 and z together with the
pseudohyperbolic and hyperbolic metrics, as scalars and as the array kernel
``rho_matrix`` / ``beta_matrix`` that every pairwise distance goes through,
and the one Euclidean point-to-segment kernel, ``segment_distances``.
Points are plain complex numbers; ``interior_value`` is the interior guard.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DegenerateInputError

# Points at least this close to the circle are rejected as "interior".
INTERIOR_GUARD = 1e-12
DEGENERATE_DENOMINATOR = 1e-14
# Points this close to 0 are folded into the origin-zero order of a product.
ORIGIN_FOLD = 1e-14
# rho is clamped here before it becomes beta: two interior points may round to rho = 1
RHO_CAP = 1.0 - 1e-16


def interior_value(z) -> complex:
    """z as a complex number; ValueError unless |z| < 1 - ``INTERIOR_GUARD``."""
    w = complex(z)
    if not abs(w) < 1.0 - INTERIOR_GUARD:
        raise ValueError(f"point must be interior (|z| < 1 - 1e-12), got |z| = {abs(w):.17g}")
    return w


def mobius(z, w) -> complex:
    """The involution (z - w) / (1 - conj(z) w) interchanging 0 and z.

    Holomorphic in w and an isometry of the pseudohyperbolic metric; the
    modulus agrees with the variant that conjugates w instead.
    """
    zz = interior_value(z)
    ww = complex(w)
    if abs(ww) > 1.0 + INTERIOR_GUARD:
        raise ValueError(f"second argument must satisfy |w| <= 1, got {abs(ww)}")
    den = 1.0 - zz.conjugate() * ww
    if abs(den) < DEGENERATE_DENOMINATOR:
        raise DegenerateInputError(f"mobius denominator {abs(den):.3e} below 1e-14")
    return (zz - ww) / den


def pseudo_distance(z, w) -> float:
    """Pseudohyperbolic distance rho(z, w) = |(z - w)/(1 - conj(z) w)|."""
    zz = interior_value(z)
    ww = interior_value(w)
    return abs((zz - ww) / (1.0 - zz.conjugate() * ww))


def hyper_distance(z, w) -> float:
    """Hyperbolic distance beta(z, w) = log((1 + rho)/(1 - rho)), rho clamped at ``RHO_CAP``."""
    return beta_from_rho(min(pseudo_distance(z, w), RHO_CAP))


def rho_matrix(points_a, points_b) -> np.ndarray:
    """Pseudohyperbolic distances |(a - b)/(1 - conj(b) a)|, a row per point of
    ``points_a`` and a column per point of ``points_b``; no interior guard."""
    a = np.asarray(points_a, dtype=np.complex128)[:, None]
    b = np.asarray(points_b, dtype=np.complex128)[None, :]
    return np.abs((a - b) / (1.0 - np.conj(b) * a))


def clamped_beta(rho: np.ndarray) -> np.ndarray:
    """Elementwise log((1 + rho)/(1 - rho)) of rho clamped at ``RHO_CAP``."""
    rho = np.minimum(rho, RHO_CAP)
    return np.log1p(rho) - np.log1p(-rho)


def beta_matrix(points_a, points_b) -> np.ndarray:
    """Hyperbolic distances ``clamped_beta(rho_matrix(points_a, points_b))``."""
    return clamped_beta(rho_matrix(points_a, points_b))


def segment_distances(p, starts, dvec, dd) -> np.ndarray:
    """Elementwise distance from p to the segment [start, start + dvec], with
    dd = |dvec|^2 > 0; operands broadcast."""
    diff = p - starts
    t = np.clip((diff * np.conj(dvec)).real / dd, 0.0, 1.0)
    return np.abs(diff - t * dvec)


def beta_from_rho(rho: float) -> float:
    if not 0.0 <= rho < 1.0:
        raise ValueError(f"rho must lie in [0, 1), got {rho}")
    # log1p keeps full precision for rho near 0 and near 1
    return math.log1p(rho) - math.log1p(-rho)


def rho_from_beta(beta: float) -> float:
    if beta < 0.0:
        raise ValueError(f"beta must be nonnegative, got {beta}")
    return math.tanh(beta / 2.0)
