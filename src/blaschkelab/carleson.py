"""Carleson measures attached to zero sets.

The zero-displacement measure mu_b, a dyadic-box estimator standing in for
the Carleson norm (documented absolute-constant slack ``BOX_NORM_SLACK`` = 8),
the interpolation constant, hyperbolically-separated splitting, and the
modulus infimum away from the zero set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .blaschke import ZeroList, derivative_grid, evaluate_grid
from .errors import RegionEmptyError
from .geometry import INTERIOR_GUARD, _hyperbolic_disks, _sample_arcs, _uncovered_spans, beta_matrix, rho_matrix

#: Absolute-constant slack between the dyadic-box estimator and the duality
#: Carleson norm; every acceptance check involving the norm carries it.
BOX_NORM_SLACK = 8.0
# alpha_b's samples per full circle of its arcs
_PTS_PER_CIRCLE = 256


@dataclass(frozen=True)
class DiscreteMeasure:
    """Finitely many weighted atoms in the disk."""

    atoms: tuple[tuple[complex, complex], ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "atoms", tuple((complex(z), complex(w)) for z, w in self.atoms))
        for z, _ in self.atoms:
            if not abs(z) < 1.0:
                raise ValueError(f"atom must lie in the open disk, got |z| = {abs(z)}")

    def restricted(self, r: float) -> "DiscreteMeasure":
        return DiscreteMeasure(tuple((z, w) for z, w in self.atoms if abs(z) <= r))

    def to_json(self) -> dict:
        return {
            "atoms": [
                {"re": z.real, "im": z.imag, "w_re": w.real, "w_im": w.imag} for z, w in self.atoms
            ]
        }


def mu_b(zeros: ZeroList) -> DiscreteMeasure:
    """One atom of weight mult * (1 - |z|) per zero; the origin contributes m * 1."""
    atoms: list[tuple[complex, complex]] = []
    if zeros.m > 0:
        atoms.append((0.0j, complex(zeros.m)))
    for z, k in zeros.zeros:
        atoms.append((z, complex(k * (1.0 - abs(z)))))
    return DiscreteMeasure(tuple(atoms))


def box_carleson_norm(mu: DiscreteMeasure, max_depth: int) -> float:
    """sup over dyadic boxes of side 2^-d, d = 0..max_depth, of |mu|(Q) / side.

    Monotone nondecreasing in max_depth; for a finite measure the sup
    stabilizes once 2^-depth drops below min(1 - |z_j|).
    """
    if max_depth < 1:
        raise ValueError(f"max_depth must be at least 1, got {max_depth}")
    if not mu.atoms:
        return 0.0
    return _box_norm(np.array([a for a, _ in mu.atoms]), np.array([abs(v) for _, v in mu.atoms]), max_depth)


def _box_norm(z: np.ndarray, w: np.ndarray, max_depth: int) -> float:
    """``box_carleson_norm`` of the atoms z with the masses w >= 0."""
    depth_in = 1.0 - np.abs(z)
    angles = np.mod(np.angle(z), 2.0 * math.pi)
    best = 0.0
    for d in range(0, max_depth + 1):
        side = 2.0**-d
        mask = depth_in <= side
        if not np.any(mask):
            break
        n_arcs = int(np.ceil(2.0 * math.pi / side))
        idx = np.minimum((angles[mask] / side).astype(int), n_arcs - 1)
        # only the occupied arcs get a bin: at depth d there are ceil(2 pi 2^d) arcs
        masses = np.bincount(np.unique(idx, return_inverse=True)[1], weights=w[mask])
        best = max(best, float(masses.max()) / side)
    return best


def suggested_box_depth(mu: DiscreteMeasure) -> int:
    """Depth past which the box norm of this finite measure is stable."""
    return _stable_depth(np.array([abs(z) for z, _ in mu.atoms]))


def _stable_depth(moduli: np.ndarray) -> int:
    """``suggested_box_depth`` of atoms with these moduli."""
    gaps = 1.0 - moduli[moduli > 0.0]
    if not gaps.size:
        return 1
    return max(1, int(math.ceil(math.log2(1.0 / float(gaps.min())))) + 1)


@dataclass(frozen=True)
class InterpolationConstant:
    """min_n (1 - |z_n|^2) |b'(z_n)|, with the classical product identity cross-check."""

    value: float
    degenerate: bool
    derivative_route: float
    product_route: float


def interpolation_constant(zeros: ZeroList) -> InterpolationConstant:
    """Uniform separation constant of a simple zero list.

    Computed two independent ways: through |b'| at each zero and through the
    product of pseudohyperbolic distances; the routes agree to 1e-10 for
    nondegenerate input.  A repeated zero yields value 0 with the degenerate
    flag set.
    """
    if zeros.m > 1 or any(k > 1 for _, k in zeros.zeros):
        return InterpolationConstant(0.0, True, 0.0, 0.0)
    pts = zeros.expanded_points()
    if not pts:
        raise ValueError("empty zero list has no interpolation constant")
    rho = rho_matrix(pts, pts)
    np.fill_diagonal(rho, 1.0)
    product_value = float(rho.prod(axis=1).min())
    if product_value == 0.0:
        return InterpolationConstant(0.0, True, 0.0, 0.0)

    at = np.array(pts)
    deriv_route = float(((1.0 - np.abs(at) ** 2) * np.abs(derivative_grid(zeros, at))).min())
    if abs(deriv_route - product_value) > 1e-10 * max(1.0, product_value):
        raise AssertionError(
            f"independent routes disagree: derivative {deriv_route!r} vs product {product_value!r}"
        )
    return InterpolationConstant(product_value, False, deriv_route, product_value)


def separation_split(zeros: ZeroList, s: float) -> list[ZeroList]:
    """Greedy first-fit (by decreasing modulus) partition into classes that are
    pairwise hyperbolically separated by at least s.  Each class's row marks
    the points within s of a member (near[j, i] = beta(p_i, p_j) < s reads
    row i of beta); a point joins the first class whose row is clear at it."""
    if not s > 0.0:
        raise ValueError(f"separation must be positive, got {s}")
    pts = sorted(zeros.expanded_points(), key=lambda z: (-abs(z), math.atan2(z.imag, z.real)))
    near = beta_matrix(pts, pts).T < s
    classes: list[list[int]] = []
    blocked: list[np.ndarray] = []
    for i in range(len(pts)):
        for cls, row in zip(classes, blocked):
            if not row[i]:
                cls.append(i)
                row |= near[i]
                break
        else:
            classes.append([i])
            blocked.append(near[i].copy())
    return [ZeroList.from_points([pts[i] for i in cls]) for cls in classes]


@dataclass(frozen=True)
class AlphaEstimate:
    """The infimum of |b| over {beta(z, Z(b)) > r}, certified to lie in [lower, value]."""

    value: float
    lower: float
    r: float


def alpha_b(zeros: ZeroList, r: float) -> AlphaEstimate:
    """inf {|b(z)| : beta(z, Z(b)) > r} by the minimum modulus principle:
    b has no zeros there and |b| -> 1 at the circle, so the infimum is
    attained on the arcs bounding the union of the disks beta(z, a_k) <= r.
    ``value`` is the least |b| over their samples inside 1 - ``INTERIOR_GUARD``
    (``_PTS_PER_CIRCLE`` per full circle); ``RegionEmptyError`` if there are none.

    ``lower`` holds on the whole arcs.  Arc points within half an angular step
    D of a sample q on an arc (o, R) lie within delta = R D / (2 (1 - (|o| + R)^2))
    of it in rho, so each factor rho(p, a_j) is at least
    (rho(q, a_j) - delta) / (1 - delta rho(q, a_j)) where delta < rho(q, a_j),
    and at least tanh(r/2) anyway, p lying outside every disk.  ``lower`` is
    the least product of these bounds, less 8 (n + 1) eps relative.
    """
    if not r > 0.0:
        raise ValueError(f"threshold must be positive, got {r}")
    centers = np.array(zeros.expanded_points(), dtype=np.complex128)
    if centers.size == 0:
        raise ValueError("alpha functional needs at least one zero")
    o, rad = _hyperbolic_disks(centers[None, :], r)
    disk, a, b = _uncovered_spans(o, rad)
    o, rad = o.ravel()[disk], rad.ravel()[disk]
    pts, arc_ends = _sample_arcs(o, rad, a, b, _PTS_PER_CIRCLE)
    inside = np.abs(pts) < 1.0 - INTERIOR_GUARD
    if not inside.any():
        raise RegionEmptyError(f"the disks beta(z, Z) <= {r} cover |z| < 1 - {INTERIOR_GUARD}")
    value = float(np.abs(evaluate_grid(zeros, pts[inside])).min())
    sizes = np.diff(arc_ends, prepend=0)
    den = 1.0 - (np.abs(o) + rad) ** 2
    half_chord = 0.5 * rad * (b - a) / (sizes - 1)
    delta = np.repeat(np.divide(half_chord, den, out=np.full(den.shape, np.inf), where=den > 0.0), sizes)[:, None]
    rho = rho_matrix(pts, centers)
    near = delta < rho
    d = np.where(near, delta, 0.0)
    factors = np.maximum(np.where(near, (rho - d) / (1.0 - d * rho), 0.0), math.tanh(r / 2.0))
    lower = float(factors.prod(axis=1).min()) * (1.0 - 8.0 * (centers.size + 1) * float(np.finfo(float).eps))
    return AlphaEstimate(value, lower, r)
