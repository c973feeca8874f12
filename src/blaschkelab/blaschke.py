"""Finite (partial) Blaschke products represented by their zero lists.

A product is lambda * z^m * prod_n [(conj(z_n)/|z_n|) (z_n - z)/(1 - conj(z_n) z)]^mult_n.
Everything here is exact for finite lists; "infinite" fixtures are generators
truncated by the caller.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import ConstructionExhaustedError, IllConditionedBoundaryError, ResolutionError
from .geometry import INTERIOR_GUARD, ORIGIN_FOLD, interior_value
from .gridfn import BoundaryGridFunction, circle_nodes

BOUNDARY_ZERO_GUARD = 1e-10
ZERO_HIT = 1e-14
RADIUS_SCAN_FLOOR = 1e-10
_JENSEN_GRID_CAP = 1 << 20
# the first quadrature grid of jensen_zero_count
_JENSEN_START_GRID = 1024
# floating_factorization: candidate gaps 1 - r shrink by this ratio, and each
# circle minimum is sampled at this many nodes
_SCAN_RATIO = 0.85
_CIRCLE_NODES = 4096


@dataclass(frozen=True)
class ZeroList:
    """Zeros with multiplicities, a unimodular normalization, and the origin order.

    ``zeros`` excludes 0; the zero at the origin is carried by ``m``.
    """

    zeros: tuple[tuple[complex, int], ...] = ()
    lam: complex = 1.0 + 0.0j
    m: int = 0

    def __post_init__(self):
        object.__setattr__(self, "zeros", tuple((complex(z), int(k)) for z, k in self.zeros))
        object.__setattr__(self, "lam", complex(self.lam))
        if not abs(abs(self.lam) - 1.0) <= 1e-12:
            raise ValueError(f"normalization must be unimodular, got |lambda| = {abs(self.lam)}")
        if self.m < 0:
            raise ValueError("origin order m must be nonnegative")
        for z, k in self.zeros:
            if k < 1:
                raise ValueError(f"multiplicity must be positive, got {k}")
            if abs(z) == 0.0:
                raise ValueError("zeros at the origin go into m, not the zero list")
            if not abs(z) < 1.0 - INTERIOR_GUARD:
                raise ValueError(f"zero must be interior (|z| < 1 - 1e-12), got |z| = {abs(z):.17g}")

    @classmethod
    def from_points(cls, points: Iterable[complex]) -> "ZeroList":
        """Build a list from raw points, folding near-origin points into m."""
        m = 0
        grouped: dict[complex, int] = {}
        for p in points:
            z = complex(p)
            if abs(z) < ORIGIN_FOLD:
                m += 1
            else:
                grouped[z] = grouped.get(z, 0) + 1
        return cls(tuple(grouped.items()), m=m)

    @property
    def degree(self) -> int:
        return self.m + sum(k for _, k in self.zeros)

    def expanded_points(self) -> list[complex]:
        """Zeros repeated by multiplicity; the origin zero first, m times."""
        pts: list[complex] = [0.0j] * self.m
        for z, k in self.zeros:
            pts.extend([z] * k)
        return pts

    def max_modulus(self) -> float:
        return max((abs(z) for z, _ in self.zeros), default=0.0)

    def is_normalized(self) -> bool:
        return abs(self.lam - 1.0) <= 1e-12

    def to_json(self) -> dict:
        return {
            "zeros": [{"re": z.real, "im": z.imag, "mult": k} for z, k in self.zeros],
            "lambda": {"re": self.lam.real, "im": self.lam.imag},
            "m": self.m,
        }

    @classmethod
    def from_json(cls, data: dict) -> "ZeroList":
        zeros = tuple((complex(e["re"], e["im"]), int(e["mult"])) for e in data["zeros"])
        lam = complex(data["lambda"]["re"], data["lambda"]["im"])
        return cls(zeros, lam, int(data["m"]))


@dataclass(frozen=True)
class SingularShiftSpec:
    """Parameters of the Mobius shift of the atomic singular function exp((z+1)/(z-1))."""

    alpha: complex
    k_min: int
    k_max: int

    def __post_init__(self):
        object.__setattr__(self, "alpha", complex(self.alpha))
        if self.alpha == 0:
            raise ValueError("shift parameter must be nonzero")
        if not abs(self.alpha) < 1.0:
            raise ValueError(f"shift parameter must be in the open disk, got |alpha| = {abs(self.alpha)}")
        if self.k_max < self.k_min:
            raise ValueError("empty index range")


def evaluate(b: ZeroList, z) -> complex:
    """Value of the product at an interior point; exact 0 within 1e-14 of a zero."""
    w = interior_value(z)
    if any(abs(w - zn) <= ZERO_HIT for zn, _ in b.zeros) or (b.m > 0 and abs(w) <= ZERO_HIT):
        return 0.0j
    return complex(evaluate_grid(b, w))


def _factor(zn: complex, w):
    """One normalized factor (conj(z_n)/|z_n|) (z_n - w)/(1 - conj(z_n) w)."""
    return (zn.conjugate() / abs(zn)) * (zn - w) / (1.0 - zn.conjugate() * w)


def evaluate_grid(b: ZeroList, points: np.ndarray) -> np.ndarray:
    """Vectorized product evaluation; callers keep points away from the poles."""
    w = np.asarray(points, dtype=np.complex128)
    out = np.full(w.shape, b.lam, dtype=np.complex128)
    # A simple zero skips the power, which would be a second full pass over
    # the array.  The factor is never bound to a name, so it is freed before
    # the next one is formed and the peak holds one factor at a time.
    if b.m > 0:
        out *= w if b.m == 1 else w**b.m
    for zn, k in b.zeros:
        out *= _factor(zn, w) if k == 1 else _factor(zn, w) ** k
    return out


def eval_boundary(b: ZeroList, grid_size: int) -> BoundaryGridFunction:
    """Boundary trace on the uniform circle grid.

    Zeros within 1e-10 of the circle make the trace ill-conditioned and raise.
    """
    if b.max_modulus() >= 1.0 - BOUNDARY_ZERO_GUARD:
        raise IllConditionedBoundaryError(
            f"a zero lies within 1e-10 of the circle (max |z_n| = {b.max_modulus():.17g})"
        )
    return BoundaryGridFunction(evaluate_grid(b, circle_nodes(grid_size)))


def derivative(b: ZeroList, z) -> complex:
    """Exact derivative of the finite product at an interior point."""
    return complex(derivative_grid(b, interior_value(z)))


def derivative_grid(b: ZeroList, points: np.ndarray) -> np.ndarray:
    """Vectorized derivative by the product rule, one factor at a time.

    Each factor f (w for the origin zero, else the normalized factor) takes
    the running value and derivative (val, der) to (val f, der f + val f'),
    once per unit of multiplicity.  Nothing is divided by a factor, so the
    result is exact at the zeros: 0 at a zero of order >= 2, and f' times the
    other factors at a simple one.
    """
    w = np.asarray(points, dtype=np.complex128)
    val = np.full(w.shape, b.lam, dtype=np.complex128)
    der = np.zeros(w.shape, dtype=np.complex128)
    for _ in range(b.m):
        der = der * w + val
        val = val * w
    for zn, k in b.zeros:
        pref = zn.conjugate() / abs(zn)
        den = 1.0 - zn.conjugate() * w
        f = pref * (zn - w) / den
        df = pref * (abs(zn) ** 2 - 1.0) / den**2
        for _ in range(k):
            der = der * f + val * df
            val = val * f
    return der


def jensen_zero_count(b: ZeroList, r: float) -> int:
    """Number of zeros in the disk of radius r, from circle quadrature of log|b|.

    The log-mean of a single normalized factor over the circle |z| = r is
    log max(|z_n|, r), so the quadrature equals n_r log r plus the log-moduli
    of the listed zeros outside; dividing out the tail isolates the count.
    The grid doubles from ``_JENSEN_START_GRID`` points until the value
    stabilizes within 0.25 of an integer.
    """
    if not 0.0 < r < 1.0:
        raise ValueError(f"radius must be in (0, 1), got {r}")
    tail = 0.0
    for z, k in b.zeros:
        if abs(abs(z) - r) <= 1e-6:
            raise ValueError(f"zero at |z| = {abs(z):.17g} too close to the circle |z| = {r}")
        if abs(z) >= r:
            tail += k * math.log(abs(z))

    n = _JENSEN_START_GRID
    prev_count = None
    while n <= _JENSEN_GRID_CAP:
        vals = evaluate_grid(b, r * circle_nodes(n))
        q = float(np.mean(np.log(np.abs(vals))))
        est = (q - tail) / math.log(r)
        count = round(est)
        if abs(est - count) < 0.25 and (prev_count is None or prev_count == count):
            if prev_count == count:
                return count
            prev_count = count
        else:
            prev_count = None
        n *= 2
    raise ResolutionError(
        f"quadrature did not stabilize within 0.25 of an integer below {_JENSEN_GRID_CAP} points"
    )


def singular_shift_zeros(spec: SingularShiftSpec) -> ZeroList:
    """Zeros of (alpha - s)/(1 - conj(alpha) s) for s(z) = exp((z+1)/(z-1)).

    Solving s(z) = alpha: z_k = (w_k + 1)/(w_k - 1) with w_k = Log alpha + 2 pi i k.
    """
    log_alpha = cmath.log(spec.alpha)
    points = []
    for k in range(spec.k_min, spec.k_max + 1):
        w = log_alpha + 2j * math.pi * k
        z = (w + 1.0) / (w - 1.0)
        s_val = cmath.exp((z + 1.0) / (z - 1.0))
        if abs(s_val - spec.alpha) >= 1e-10:
            raise ResolutionError(f"zero candidate for k = {k} misses the level by {abs(s_val - spec.alpha):.3e}")
        points.append(z)
    return ZeroList.from_points(points)


@dataclass(frozen=True)
class FloatingFactorization:
    """Result of the alternating-annuli factorization b = b1 * b2."""

    z1: ZeroList
    z2: ZeroList
    radii: tuple[float, ...]
    targets: tuple[float, ...]
    # (radius index k, factor name, target beta_k, sampled circle min)
    checks: tuple[tuple[int, str, float, float], ...]


def _circle_min(zeros: Sequence[tuple[complex, int]], r: float, m: int = 0) -> float:
    if not zeros and m == 0:
        return 1.0
    b = ZeroList(tuple(zeros), m=m)
    return float(np.abs(evaluate_grid(b, r * circle_nodes(_CIRCLE_NODES))).min())


def floating_factorization(b: ZeroList, beta_seq: Sequence[float]) -> FloatingFactorization:
    """Split the zeros into two products whose moduli clear the targets on
    alternating checkpoint circles.

    Radii are placed one at a time: candidate circles scan a geometric grid in
    1 - r (ratio ``_SCAN_RATIO``), and r_k is the first candidate where (a) the zeros at or below the
    previous radius clear sqrt(beta_k) on the circle |z| = r_k, and (b) the
    zeros at or beyond r_k clear sqrt(beta_{k-1}) on the previous circle.  The
    two square roots multiply into the full target for the annulus-excluded
    product, which each factor dominates.  Targets past the end of beta_seq
    repeat its last entry.
    """
    betas = list(beta_seq)
    if not betas:
        raise ValueError("need at least one target")
    if any(not 0.0 < t < 1.0 for t in betas):
        raise ValueError("targets must lie in (0, 1)")
    if any(b2 <= b1 for b1, b2 in zip(betas, betas[1:])):
        raise ValueError("targets must be strictly increasing")

    pts = [(z, k) for z, k in b.zeros]
    if not pts and b.m == 0:
        return FloatingFactorization(ZeroList(), ZeroList(), (), (), ())
    max_mod = b.max_modulus()
    moduli = sorted(abs(z) for z, _ in pts)

    def target(k: int) -> float:  # k is 1-based
        return betas[min(k - 1, len(betas) - 1)]

    def below(cut: float) -> list[tuple[complex, int]]:
        return [(z, k) for z, k in pts if abs(z) <= cut]

    def at_or_beyond(cut: float) -> list[tuple[complex, int]]:
        return [(z, k) for z, k in pts if abs(z) >= cut]

    radii: list[float] = []
    targets: list[float] = []
    while not radii or radii[-1] <= max_mod:
        k = len(radii) + 1
        beta_k = target(k)
        prev_r = radii[-1] if radii else 0.0
        prev_beta = targets[-1] if targets else None
        gap = 0.5 if not radii else (1.0 - prev_r) * _SCAN_RATIO
        found = None
        while gap >= RADIUS_SCAN_FLOOR:
            cand = 1.0 - gap
            if cand > prev_r and all(abs(cand - mod) > 1e-9 for mod in moduli):
                ok = _circle_min(below(prev_r), cand, m=b.m) > math.sqrt(beta_k) if radii else True
                if ok and prev_beta is not None:
                    ok = _circle_min(at_or_beyond(cand), prev_r) > math.sqrt(prev_beta)
                if ok:
                    found = cand
                    break
            gap *= _SCAN_RATIO
        if found is None:
            raise ConstructionExhaustedError(
                f"no radius below 1 - {RADIUS_SCAN_FLOOR} clears target {beta_k} at step {k}",
                radii_placed=len(radii),
            )
        radii.append(found)
        targets.append(beta_k)
        if len(radii) > 4 * (len(pts) + len(betas)) + 8:
            raise ConstructionExhaustedError("radius placement did not terminate", radii_placed=len(radii))

    # Annulus j = (r_j, r_{j+1}): j = 1,2 mod 4 belongs to b2, j = 3,0 mod 4 to b1.
    z1_pts: list[tuple[complex, int]] = []
    z2_pts: list[tuple[complex, int]] = []
    for z, k in pts:
        mod = abs(z)
        if mod <= radii[0]:
            z1_pts.append((z, k))
            continue
        j = max(i + 1 for i in range(len(radii)) if radii[i] < mod)
        (z2_pts if j % 4 in (1, 2) else z1_pts).append((z, k))

    z1 = ZeroList(tuple(z1_pts), m=b.m)
    z2 = ZeroList(tuple(z2_pts))

    checks: list[tuple[int, str, float, float]] = []
    for idx in range(1, len(radii) + 1):
        if idx >= 6 and idx % 4 == 2:
            checks.append(
                (idx, "b1", targets[idx - 1], _circle_min(tuple(z1.zeros), radii[idx - 1], m=z1.m))
            )
        elif idx >= 4 and idx % 4 == 0:
            checks.append((idx, "b2", targets[idx - 1], _circle_min(tuple(z2.zeros), radii[idx - 1])))
    return FloatingFactorization(z1, z2, tuple(radii), tuple(targets), tuple(checks))
