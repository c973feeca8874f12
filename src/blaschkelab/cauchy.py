"""Cauchy transforms of discrete and path measures on the circle.

The segment transform is stored in closed form as
Log(1 - z0 e^{-i theta}) - Log(1 - z1 e^{-i theta}); every use site applies
its own explicit factor of 2.  Principal branches suffice because each Log(1-w)
with w in the disk has imaginary part in (-pi/2, pi/2).  The difference of the
two Logs therefore lies in (-pi, pi), so it is the principal Log of the single
ratio (1 - z0 e^{-i theta}) / (1 - z1 e^{-i theta}): the grid kernel takes one
real log and one angle per node, and ``cauchy_segment_closed_form`` keeps the
two-Log form as the independent scalar route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blaschke import ZeroList, eval_boundary
from .errors import CardinalityError, GridTooCoarseError, IllConditionedBoundaryError
from .carleson import DiscreteMeasure
from .geometry import ORIGIN_FOLD, interior_value
from .gridfn import BoundaryGridFunction, circle_nodes, harmonic_conjugate

CIRCLE_SEGMENT_GUARD = 1e-8


@dataclass(frozen=True)
class PathMeasure:
    """A finite sum of directed segment measures [z0, z1] with density dz."""

    segments: tuple[tuple[complex, complex], ...] = ()

    def __post_init__(self):
        segs = tuple((interior_value(a), interior_value(b)) for a, b in self.segments)
        object.__setattr__(self, "segments", segs)

    @classmethod
    def from_pairs(cls, pairs: Sequence[tuple[complex, complex]]) -> "PathMeasure":
        return cls(tuple((complex(a), complex(b)) for a, b in pairs))

    def to_json(self) -> dict:
        return {
            "segments": [
                {"z0": {"re": a.real, "im": a.imag}, "z1": {"re": b.real, "im": b.imag}}
                for a, b in self.segments
            ]
        }


def cauchy_segment_closed_form(z0, z1, theta: float) -> complex:
    """Transform of one unit-density segment at one circle point."""
    a = interior_value(z0)
    b = interior_value(z1)
    w = complex(math.cos(-theta), math.sin(-theta))
    return complex(np.log(1.0 - a * w) - np.log(1.0 - b * w))


def _segment_grid(z0: complex, z1: complex, nodes_conj: np.ndarray) -> np.ndarray:
    """Log(1 - z0 w) - Log(1 - z1 w) at w = conj(nodes), as the principal Log of
    r = (1 - z0 w) / (1 - z1 w).

    Each term's imaginary part lies in (-pi/2, pi/2), so the difference lies in
    (-pi, pi), where Log r = log|r| + i arg r holds; r is never on the negative
    axis, so no branch choice is left.  A real log and an angle are several
    times cheaper than a complex log.
    """
    r = (1.0 - z0 * nodes_conj) / (1.0 - z1 * nodes_conj)
    return np.log(np.abs(r)) + 1j * np.angle(r)


def cauchy_on_circle(sigma: PathMeasure, n: int) -> BoundaryGridFunction:
    """Boundary trace of the path-measure transform on the uniform grid."""
    for a, b in sigma.segments:
        if abs(a) > 1.0 - CIRCLE_SEGMENT_GUARD or abs(b) > 1.0 - CIRCLE_SEGMENT_GUARD:
            raise IllConditionedBoundaryError(
                "segment endpoint within 1e-8 of the circle; transform is ill-conditioned"
            )
    nodes_conj = np.conj(circle_nodes(n))
    out = np.zeros(n, dtype=np.complex128)
    for a, b in sigma.segments:
        out += _segment_grid(a, b, nodes_conj)
    return BoundaryGridFunction(out)


def cauchy_measure_on_circle(mu: DiscreteMeasure, n: int) -> BoundaryGridFunction:
    """Boundary trace of the discrete-measure transform (atoms are interior, so
    no truncation is needed)."""
    for z, _ in mu.atoms:
        if abs(z) > 1.0 - CIRCLE_SEGMENT_GUARD:
            raise IllConditionedBoundaryError("atom within 1e-8 of the circle")
    nodes = circle_nodes(n)
    out = np.zeros(n, dtype=np.complex128)
    for z, w in mu.atoms:
        out += w / (nodes - z)
    return BoundaryGridFunction(out)


def _phase_or_convention(z: complex) -> complex:
    # the origin uses the convention z/|z| = |z|/z = -1
    if abs(z) < ORIGIN_FOLD:
        return -1.0 + 0.0j
    return z / abs(z)


def gamma_constant(pairs: Sequence[tuple[complex, complex]]) -> complex:
    """prod_k (z_k / z*_k) (|z*_k| / |z_k|), a unimodular constant."""
    out = 1.0 + 0.0j
    for z, zs in pairs:
        out *= _phase_or_convention(complex(z)) * _phase_or_convention(complex(zs)).conjugate()
    return out


def verify_intwin(
    b: ZeroList,
    b_star: ZeroList,
    pairing: Sequence[int] | None = None,
    n: int = 4096,
) -> float:
    """Max grid error of exp(2i Im C(sigma)) - e^{i gamma} b conj(b*).

    The pairing maps the k-th expanded zero of b to an expanded zero of b*;
    identity order by default.  Both products must be normalized.
    """
    if not b.is_normalized() or not b_star.is_normalized():
        raise ValueError("both products must be normalized (lambda = 1)")
    za = b.expanded_points()
    zb = b_star.expanded_points()
    if len(za) != len(zb):
        raise CardinalityError(f"zero counts differ: {len(za)} vs {len(zb)}")
    if pairing is None:
        pairing = range(len(za))
    if sorted(pairing) != list(range(len(zb))):
        raise CardinalityError("pairing is not a bijection onto the second zero list")
    pairs = [(za[k], zb[j]) for k, j in enumerate(pairing)]

    sigma = PathMeasure.from_pairs(pairs)
    c_sigma = cauchy_on_circle(sigma, n).samples
    lhs = np.exp(2j * c_sigma.imag)
    rhs = gamma_constant(pairs) * eval_boundary(b, n).samples * np.conj(eval_boundary(b_star, n).samples)
    return float(np.abs(lhs - rhs).max())


@dataclass(frozen=True)
class OuterReport:
    sup_v: float
    conjugation_residual: float
    closeness: float  # ||b - b* h|| on the grid
    exactness: float  # ||b e^v - b* h|| on the grid
    gamma: complex

    @property
    def functional_sup(self) -> float:
        """Sup norm of 2 Im C(sigma) - (log|h|)~; identical to the residual."""
        return self.conjugation_residual


@dataclass(frozen=True)
class OuterCorrection:
    h: BoundaryGridFunction
    v: BoundaryGridFunction
    report: OuterReport


def outer_correction(
    pairs: Sequence[tuple[complex, complex]], n: int, residual_tol: float = 1e-6
) -> OuterCorrection:
    """Invertible correction h = e^{-i gamma} e^{v + i v~} with v = -2 Re C(sigma).

    Because conj(C(sigma)) extends to a vanishing-at-0 Hardy function, the
    conjugate of v is exactly 2 Im C(sigma); the report carries the discrete
    residual of that identity, plus the grid norms of b - b* h (closeness) and
    b e^v - b* h (the exact identity behind the construction).
    """
    pairs = [(complex(a), complex(bb)) for a, bb in pairs]
    sigma = PathMeasure.from_pairs(pairs)
    c_sigma = cauchy_on_circle(sigma, n).samples
    v = BoundaryGridFunction(-2.0 * c_sigma.real)
    v_tilde = harmonic_conjugate(v).samples
    residual = float(np.abs(2.0 * c_sigma.imag - v_tilde).max())
    if residual > residual_tol:
        raise GridTooCoarseError(
            f"conjugation residual {residual:.3e} exceeds {residual_tol:.1e}; refine the grid"
        )
    gamma = gamma_constant(pairs)
    h = BoundaryGridFunction(np.conj(gamma) * np.exp(v.samples + 1j * v_tilde))

    b = ZeroList.from_points([a for a, _ in pairs])
    b_star = ZeroList.from_points([bb for _, bb in pairs])
    b_trace = eval_boundary(b, n).samples
    b_star_trace = eval_boundary(b_star, n).samples
    closeness = float(np.abs(b_trace - b_star_trace * h.samples).max())
    exactness = float(np.abs(b_trace * np.exp(v.samples) - b_star_trace * h.samples).max())
    report = OuterReport(
        sup_v=float(np.abs(v.samples).max()),
        conjugation_residual=residual,
        closeness=closeness,
        exactness=exactness,
        gamma=gamma,
    )
    return OuterCorrection(h=h, v=v, report=report)


def l2_truncation_convergence(mu: DiscreteMeasure, radii: Sequence[float], n: int = 4096) -> list[float]:
    """Grid L2 distances ||C(mu_r) - C(mu)||_2 for the given radii."""
    if any(r2 <= r1 for r1, r2 in zip(radii, radii[1:])):
        raise ValueError("radii must be increasing")
    full = cauchy_measure_on_circle(mu, n).samples
    parts = [cauchy_measure_on_circle(mu.restricted(r), n).samples for r in radii]
    return [float(np.sqrt(np.mean(np.abs(p - full) ** 2))) for p in parts]
