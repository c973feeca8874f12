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
from .geometry import beta_from_rho, beta_matrix, clamped_beta, rho_from_beta, rho_matrix

#: Absolute-constant slack between the dyadic-box estimator and the duality
#: Carleson norm; every acceptance check involving the norm carries it.
BOX_NORM_SLACK = 8.0
# alpha_b's resolution: the hyperbolic cell of its sample rings, and the
# excluded band 1 - edge_gap < |z| < 1
_CELL_BETA = 0.1
_EDGE_GAP = 1e-4


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
    """Sampled infimum of |b| over {beta(z, Z(b)) > r}, with its resolution."""

    value: float
    r: float
    cell_beta: float
    edge_gap: float
    n_samples: int
    argmin: complex


def alpha_b(zeros: ZeroList, r: float) -> AlphaEstimate:
    """min |b| over a hyperbolically quasi-uniform sample of the far-from-zeros
    region, restricted to |z| <= 1 - ``_EDGE_GAP``: rings ``_CELL_BETA`` apart
    in beta, each sampled about every ``_CELL_BETA`` along it.

    An upper bound for the true infimum over the sampled region; nondecreasing
    in r at fixed resolution.
    """
    if not r > 0.0:
        raise ValueError(f"threshold must be positive, got {r}")
    pts = np.array(zeros.expanded_points())
    if pts.size == 0:
        raise ValueError("alpha functional needs at least one zero")
    cell_beta, edge_gap = _CELL_BETA, _EDGE_GAP
    beta_max = beta_from_rho(1.0 - edge_gap)
    n_rings = int(math.ceil(beta_max / cell_beta))
    best = math.inf
    best_at = 0.0j
    total = 0
    for i in range(n_rings + 1):
        beta_i = min(i * cell_beta, beta_max)
        rad = rho_from_beta(beta_i)
        n_i = max(8, int(math.ceil(2.0 * math.pi * math.sinh(beta_i) / cell_beta))) if beta_i > 0 else 1
        total += n_i
        ring = rad * np.exp(2j * math.pi * np.arange(n_i) / n_i)
        beta_to_set = clamped_beta(rho_matrix(ring, pts).min(axis=1))
        keep = ring[beta_to_set > r]
        if keep.size == 0:
            continue
        vals = np.abs(evaluate_grid(zeros, keep))
        j = int(vals.argmin())
        if vals[j] < best:
            best = float(vals[j])
            best_at = complex(keep[j])
    if not math.isfinite(best):
        raise RegionEmptyError(f"no sample point satisfies beta(z, Z) > {r} within |z| <= 1 - {edge_gap}")
    return AlphaEstimate(best, r, cell_beta, edge_gap, total, best_at)
