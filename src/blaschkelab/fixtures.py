"""Deterministic fixtures: generator-backed zero sets and random instances.

Every random helper takes an explicit ``numpy`` generator so runs are
reproducible from a single seed.
"""

from __future__ import annotations

import math

import numpy as np

from .blaschke import SingularShiftSpec, ZeroList, singular_shift_zeros
from .carleson import DiscreteMeasure
from .geometry import rho_from_beta

# the atoms k of the singular-shift fixture run over |k| <= this span
SINGULAR_SHIFT_SPAN = 50


def geometric_zeros(n: int) -> ZeroList:
    """z_k = 1 - 2^-k for k = 1..n: the standard boundary-accumulating chain."""
    if n < 1:
        raise ValueError("need at least one zero")
    return ZeroList.from_points([1.0 - 2.0**-k for k in range(1, n + 1)])


def staged_measure() -> DiscreteMeasure:
    """Unit atoms at moduli 0.2, 0.5, 0.8: three truncation plateaus."""
    return DiscreteMeasure(
        (
            (0.2 + 0.0j, 1.0 + 0.0j),
            (0.5j, 1.0 + 0.0j),
            (-0.4 - 0.693j, 1.0 + 0.0j),
        )
    )


def singular_shift_fixture(alpha: complex) -> ZeroList:
    """Zeros of the shifted atomic singular function for |k| <= ``SINGULAR_SHIFT_SPAN``."""
    return singular_shift_zeros(SingularShiftSpec(alpha, -SINGULAR_SHIFT_SPAN, SINGULAR_SHIFT_SPAN))


def adversarial_pair(beta_gap: float = 3.0) -> tuple[ZeroList, ZeroList]:
    """A single zero displaced by a hyperbolic distance too large for one step."""
    target = rho_from_beta(beta_gap)
    return ZeroList.from_points([0.0j]), ZeroList.from_points([complex(target)])


def random_point(rng: np.random.Generator, r_max: float = 0.95) -> complex:
    # area-uniform in the Euclidean disk of radius r_max
    r = r_max * math.sqrt(rng.random())
    phi = 2.0 * math.pi * rng.random()
    return complex(r * math.cos(phi), r * math.sin(phi))


def random_zerolist(rng: np.random.Generator, n: int, r_max: float = 0.95) -> ZeroList:
    return ZeroList.from_points([random_point(rng, r_max) for _ in range(n)])


def displaced_point(
    rng: np.random.Generator, z: complex, beta_max: float, r_max: float = 0.95
) -> complex:
    """A point within hyperbolic distance beta_max of z, rejected back under r_max."""
    for _ in range(1000):
        rho = rho_from_beta(beta_max * rng.random())
        phi = 2.0 * math.pi * rng.random()
        w = rho * complex(math.cos(phi), math.sin(phi))
        out = (w + z) / (1.0 + z.conjugate() * w)
        if abs(out) <= r_max:
            return out
    raise RuntimeError("rejection sampling failed; loosen r_max")


def random_matched_pair(
    rng: np.random.Generator, n: int, beta_max: float, r_max: float = 0.95
) -> tuple[ZeroList, ZeroList]:
    """Two zero lists whose k-th points are within hyperbolic distance beta_max."""
    za = [random_point(rng, r_max) for _ in range(n)]
    zb = [displaced_point(rng, z, beta_max, r_max) for z in za]
    return ZeroList.from_points(za), ZeroList.from_points(zb)
