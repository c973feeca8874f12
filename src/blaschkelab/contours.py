"""Level-set contours of finite products and harmonic-measure machinery.

Level curves of |b| are extracted by marching squares; harmonic measure on a
component is computed by walk-on-spheres sampling (or exactly, by the arc
masses of a disk automorphism, for round-disk fixtures).  Difference
measures take coupled pairs of walkers: a pair close enough to meet steps in
maximally coupled balls and fuses when they land on one point, a pair too far
apart to meet takes two sphere jumps in mirrored directions.  The contour
logarithm reconstructs log(u/b) outside the curves from the cumulative
difference measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .blaschke import ZeroList, evaluate_grid
from .carleson import _box_norm, _stable_depth
from .errors import (
    AmbiguousTopologyError,
    AtlasInconsistencyError,
    ContourThroughZeroError,
    HypothesisViolationError,
)
from .geometry import beta_matrix, interior_value, rho_matrix, segment_distances
from .gridfn import winding_number

ORIGIN_CLEARANCE = 1e-6
# a point this close to an edge is on it: its rounded points lie within 1e-16
_ON_CURVE = 1e-15
# the level-set grid is pruned in square blocks of this many cells a side
_LEVEL_BLOCK = 8
# a pruned block's range of |b| misses the level by this fraction of it, far
# more than the rounding of b at the nodes and the centre and of the geometry
_LEVEL_SLACK = 1e-6
# a level-set curve's samples of |b| stay within this fraction of the level
_LEVEL_TOL = 0.1


@dataclass(frozen=True, eq=False)
class JordanCurveApprox:
    """A closed positively-oriented polyline in the disk, every edge of positive length.

    ``disk_center``/``disk_radius`` are set only for round-disk fixtures, where
    exact Poisson formulas are available.  They come together, the radius is
    finite and positive, and the points are those ``circle`` builds from them,
    bit for bit: the walks read a disk's edges off the angle about its centre.
    """

    points: np.ndarray = field(repr=False)
    component_id: int = 0
    enclosed_zeros: tuple[tuple[complex, int], ...] = ()
    disk_center: complex | None = None
    disk_radius: float | None = None

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.complex128).copy()
        if pts.size < 8:
            raise ValueError("polyline needs at least 8 points")
        if float(np.abs(pts).min()) <= ORIGIN_CLEARANCE:
            raise ValueError("curve passes through the 1e-6 neighborhood of 0")
        if float(np.abs(pts).max()) >= 1.0:
            raise ValueError("curve must stay in the open disk")
        ends = np.roll(pts, -1)
        if not np.all(np.abs(ends - pts) ** 2 > 0.0):  # an edge parameter would be 0/0
            raise ValueError("polyline has a zero-length edge (a repeated vertex)")
        area = 0.5 * float(np.sum(np.real(pts) * np.imag(ends) - np.real(ends) * np.imag(pts)))
        if area <= 0.0:
            raise ValueError("polyline must be positively oriented")
        if (self.disk_center is None) != (self.disk_radius is None):
            raise ValueError("disk_center and disk_radius are given together or not at all")
        if self.disk_center is not None:
            center, radius = complex(self.disk_center), float(self.disk_radius)
            if not (math.isfinite(radius) and radius > 0.0):
                raise ValueError(f"disk_radius must be finite and positive, got {radius}")
            if not np.array_equal(pts, _circle_points(center, radius, pts.size)):
                raise ValueError("disk fixture points must be disk_center + disk_radius exp(2 pi i k / n)")
            object.__setattr__(self, "disk_center", center)
            object.__setattr__(self, "disk_radius", radius)
        pts.flags.writeable = False
        ends.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "_ends", ends)
        object.__setattr__(
            self, "enclosed_zeros", tuple((complex(z), int(k)) for z, k in self.enclosed_zeros)
        )

    @classmethod
    def circle(cls, center: complex, radius: float, n: int = 256) -> "JordanCurveApprox":
        return cls(_circle_points(center, radius, n), disk_center=complex(center), disk_radius=float(radius))

    @property
    def is_disk_fixture(self) -> bool:
        return self.disk_center is not None

    @property
    def n_edges(self) -> int:
        return self.points.size

    def edge_starts(self) -> np.ndarray:
        return self.points

    def edge_ends(self) -> np.ndarray:
        return self._ends

    def edge_lengths(self) -> np.ndarray:
        return np.abs(self.edge_ends() - self.edge_starts())

    def total_zero_count(self) -> int:
        return sum(k for _, k in self.enclosed_zeros)

    def contains(self, z: complex) -> bool:
        """Whether z lies strictly inside: off the curve, with a nonzero winding number."""
        return bool(self._turns(complex(z), np.empty(self.n_edges))[1])

    @cached_property
    def _closed(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The vertices with the first repeated at the end, their squared
        moduli, and ``_ON_CURVE`` times the edge lengths."""
        v = np.append(self.points, self.points[0])
        return v, v.real * v.real + v.imag * v.imag, _ON_CURVE * self.edge_lengths()

    def _turns(self, z: complex, turn: np.ndarray) -> tuple[np.ndarray, int | None]:
        """Write into ``turn`` the angle steps about z between consecutive
        vertices, wrapped into (-pi, pi], so that they sum to 2 pi times the
        winding number.  Returns the squared distances from z to the closed
        vertices, and the winding number, or None when z lies on the curve: at
        a vertex or within ``_ON_CURVE`` of an edge.
        """
        v, _, cross_tol = self._closed
        a = v - z
        dist_sq = a.real * a.real + a.imag * a.imag
        angle = np.arctan2(a.imag, a.real)
        np.subtract(angle[1:], angle[:-1], out=turn)
        up, down = turn <= -math.pi, turn > math.pi
        turn[up] += 2.0 * math.pi
        turn[down] -= 2.0 * math.pi
        # z on an edge sees it at an obtuse angle; |Im conj(s - z)(e - z)| is its distance times |e - s|
        obtuse = np.flatnonzero(np.abs(turn) > 0.5 * math.pi)
        cross = (np.conj(a[obtuse]) * a[obtuse + 1]).imag
        if not dist_sq.min() > 0.0 or (np.abs(cross) <= cross_tol[obtuse]).any():
            return dist_sq, None
        return dist_sq, int(np.count_nonzero(up) - np.count_nonzero(down))

    def start_vertex(self) -> int:
        """Index of the splitting start point: minimal principal argument,
        ties by index (fixed for reproducibility)."""
        return int(np.argmin(np.angle(self.points)))

    @cached_property
    def _cell_index(self) -> "_CellIndex":
        """Nearest-edge cell index, built on the first polyline distance query."""
        return _CellIndex.build(self.points, self._ends)

    def to_json(self) -> dict:
        return {
            "component_id": self.component_id,
            "points": [{"re": p.real, "im": p.imag} for p in self.points],
            "enclosed_zeros": [{"re": z.real, "im": z.imag, "mult": k} for z, k in self.enclosed_zeros],
            "disk_center": None
            if self.disk_center is None
            else {"re": self.disk_center.real, "im": self.disk_center.imag},
            "disk_radius": self.disk_radius,
        }


def _circle_points(center: complex, radius: float, n: int) -> np.ndarray:
    """The n vertices center + radius exp(2 pi i k / n) of a disk fixture."""
    return center + radius * np.exp(2j * math.pi * np.arange(n) / n)


# ---------------------------------------------------------------------------
# marching squares


# cell corners: 0 = bottom-left, 1 = bottom-right, 2 = top-right, 3 = top-left;
# cell edges: 0 = bottom (0,1), 1 = right (1,2), 2 = top (2,3), 3 = left (3,0).
# case bit layout: 8*c0 + 4*c1 + 2*c2 + 1*c3 with c_i = (corner value > 0).
# _SEGMENTS[case, centre above the level] holds the cell's directed (entry edge,
# exit edge) pairs, -1 padded; nodes above the level sit on the left of every
# segment, so each crossing is entered from one cell and left into the other.
_SEGMENTS = np.full((16, 2, 2, 2), -1, dtype=np.int64)
for _case, _pair in {
    1: (3, 2), 14: (2, 3), 2: (2, 1), 13: (1, 2), 4: (1, 0), 11: (0, 1), 8: (0, 3), 7: (3, 0),
    3: (3, 1), 12: (1, 3), 6: (2, 0), 9: (0, 2),
}.items():
    _SEGMENTS[_case, :, 0] = _pair
# saddles, decided by the sample at the cell centre
_SEGMENTS[5] = [[(1, 0), (3, 2)], [(3, 0), (1, 2)]]
_SEGMENTS[10] = [[(0, 3), (2, 1)], [(0, 1), (2, 3)]]


def level_set_components(b: ZeroList, delta: float, resolution: int = 512) -> list[JordanCurveApprox]:
    """Closed polylines approximating the boundary of {|b| < delta}.

    The loops come from marching squares on a square of ``resolution`` x
    ``resolution`` cells (``_level_loops``) and are sorted by their lowest
    real, then imaginary, coordinate.  b is evaluated only on the blocks of
    cells whose Schwarz-Pick range of |b| can reach delta (``_level_values``),
    which gives the loops of a full-grid evaluation bit for bit.  Each curve's enclosed zeros are those
    it ``contains``; one evaluation of b on its points checks that it stays
    within ``_LEVEL_TOL`` times delta of the level and starts the Rouche
    count, ``gridfn.winding_number`` on the closed polyline, which evaluates b
    again only at the midpoints it inserts: b must wind once around the
    curve per enclosed zero.  The union of enclosed zeros must exhaust the
    zeros of b, else the topology at this resolution is ambiguous and the
    caller should perturb delta.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"level must be in (0, 1), got {delta}")
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2 (a grid with an interior node), got {resolution}")
    if b.degree == 0:
        return []

    # sampling square large enough that the level set cannot cross its edge
    r_box = max(0.5, (1.0 + b.max_modulus()) / 2.0)
    while True:
        circle = r_box * np.exp(2j * math.pi * np.arange(1024) / 1024)
        if float(np.abs(evaluate_grid(b, circle)).min()) > delta * 1.05:
            break
        r_box = 1.0 - 0.5 * (1.0 - r_box)
        if r_box > 1.0 - 1e-3:
            raise ValueError(f"delta = {delta} is too large: the level set reaches the circle")

    xs = np.linspace(-r_box, r_box, resolution + 1)
    vals = _level_values(b, xs, delta)
    if np.any(vals == 0.0):
        raise AmbiguousTopologyError("grid node exactly on the level; perturb delta")
    loops = _level_loops(b, delta, xs, vals)

    curves: list[JordanCurveApprox] = []
    zeros = ([(0j, b.m)] if b.m else []) + list(b.zeros)
    for cid, pts in enumerate(sorted(loops, key=lambda p: (p.real.min(), p.imag.min()))):
        on_curve = evaluate_grid(b, pts)
        if float(np.abs(np.abs(on_curve) - delta).max()) > _LEVEL_TOL * delta:
            raise AmbiguousTopologyError("curve samples stray from the level; refine the resolution")
        try:
            curve = JordanCurveApprox(pts, component_id=cid)
        except ValueError as exc:
            raise AmbiguousTopologyError(str(exc)) from exc
        ends = [pts.size + 1]
        (result,) = winding_number(
            [lambda w: evaluate_grid(b, w)], np.append(pts, pts[0]), np.append(on_curve, on_curve[0]), ends, ends
        )
        if isinstance(result, ContourThroughZeroError):
            raise AmbiguousTopologyError(str(result)) from result
        _, rouche = result
        # the curve is not shared yet: its zeros are set in place rather than by a second construction
        object.__setattr__(curve, "enclosed_zeros", tuple((z, k) for z, k in zeros if curve.contains(z)))
        if rouche != curve.total_zero_count():
            raise AmbiguousTopologyError(
                f"winding count {rouche} disagrees with enclosed zeros {curve.total_zero_count()}; perturb delta"
            )
        curves.append(curve)
    if len({z for curve in curves for z, _ in curve.enclosed_zeros}) < len(zeros):
        raise AmbiguousTopologyError("some zeros are enclosed by no curve at this resolution")
    return curves


def _nodes(xs: np.ndarray, rows, cols) -> np.ndarray:
    """The sampling grid's nodes xs[col] + i xs[row], formed only where they
    are read; each has the bits of the full grid xs[None, :] + 1j * xs[:, None]."""
    return xs[cols] + 1j * xs[rows]


def _level_loops(b: ZeroList, delta: float, xs: np.ndarray, vals: np.ndarray) -> list[np.ndarray]:
    """The closed crossing polylines of ``vals`` = |b| - delta on the grid of
    nodes xs[col] + i xs[row], each positively oriented, in the order of
    their first cell (row-major).

    Every cell's directed segments come from ``_SEGMENTS``; one batched
    evaluation of b at the saddle cells' centres picks their pairing.  A
    crossing is named 2 * (its edge's lower node) + (1 if the edge is
    vertical), so the segments form one successor map on crossings whose
    cycles are the loops; a level set that leaves the grid has an exit that
    is no entry.  Each loop starts at the entry of its first segment and
    runs forward, reversed as a whole if it turns clockwise.
    """
    n = xs.size - 1
    bits = (vals > 0.0).view(np.uint8)
    cases = (bits[:-1, :-1] << 3) | (bits[:-1, 1:] << 2) | (bits[1:, 1:] << 1) | bits[1:, :-1]
    cells = np.flatnonzero((cases > 0) & (cases < 15))
    case = cases.ravel()[cells]
    corner = cells + cells // n  # each cell's bottom-left node
    above = np.zeros(cells.size, dtype=np.int64)
    saddle = np.flatnonzero((case == 5) | (case == 10))
    if saddle.size:
        row, col = np.divmod(corner[saddle], n + 1)
        centre = (_nodes(xs, row, col) + _nodes(xs, row + 1, col + 1)) / 2.0
        above[saddle] = np.abs(evaluate_grid(b, centre)) - delta > 0.0
    segs = _SEGMENTS[case, above]
    cell, slot = np.nonzero(segs[:, :, 0] >= 0)
    # the crossing names of edges 0-3 relative to 2 * the bottom-left node
    edge_names = np.array([0, 3, 2 * n + 2, 1])
    entry = 2 * corner[cell] + edge_names[segs[cell, slot, 0]]
    exit_ = 2 * corner[cell] + edge_names[segs[cell, slot, 1]]
    order = np.argsort(entry)
    nxt = order[np.minimum(np.searchsorted(entry, exit_, sorter=order), entry.size - 1)]
    if not np.array_equal(entry[nxt], exit_):
        raise AmbiguousTopologyError("level set does not close up at this resolution; perturb delta")

    # each crossing is the entry of one segment; interpolate it from the lower node
    lo = entry >> 1
    hi = lo + np.where(entry & 1, n + 1, 1)
    v0, v1 = vals.ravel()[lo], vals.ravel()[hi]
    start, end = _nodes(xs, *np.divmod(lo, n + 1)), _nodes(xs, *np.divmod(hi, n + 1))
    points = start + np.clip(v0 / (v0 - v1), 0.0, 1.0) * (end - start)

    loops: list[np.ndarray] = []
    seen = np.zeros(entry.size, dtype=bool)
    nxt = nxt.tolist()
    for k in range(entry.size):
        if seen[k]:
            continue
        cycle = [k]
        while (j := nxt[cycle[-1]]) != k:
            cycle.append(j)
        seen[cycle] = True
        pts = points[cycle]
        area = 0.5 * float(np.sum(pts.real * np.roll(pts.imag, -1) - np.roll(pts.real, -1) * pts.imag))
        loops.append(pts[::-1] if area < 0.0 else pts)
    return loops


def _level_values(b: ZeroList, xs: np.ndarray, delta: float) -> np.ndarray:
    """|b| - delta at the nodes xs[col] + i xs[row] of the sampling grid that
    a crossing cell can read, and a value of the right sign (+-1) everywhere
    else.

    The cells are cut into blocks of ``_LEVEL_BLOCK`` x ``_LEVEL_BLOCK``.  A
    block inside the disk, with centre c and half-diagonal h, |c| + h < 1,
    lies within pseudo-hyperbolic distance rho = h / (1 - |c| (|c| + h)) < 1
    of c, so by Schwarz-Pick (rho(b(z), b(c)) <= rho(z, c)) |b| stays on it
    within [(|b(c)| - rho)/(1 - rho |b(c)|), (|b(c)| + rho)/(1 + rho |b(c)|)];
    a block in |z| >= 1 has |b| >= 1 > delta.  A block whose range misses
    delta by the fraction ``_LEVEL_SLACK`` of it has no crossing cell, and
    only the nodes of the other blocks are evaluated, in one call, so they
    keep the bits of a full-grid evaluation; only the nodes read are formed.
    """
    rows = cols = xs.size
    # the blocks' first and last node indices along each axis
    r_edge = np.append(np.arange(0, rows - 1, _LEVEL_BLOCK), rows - 1)
    c_edge = np.append(np.arange(0, cols - 1, _LEVEL_BLOCK), cols - 1)
    lo = _nodes(xs, r_edge[:-1, None], c_edge[None, :-1])
    hi = _nodes(xs, r_edge[1:, None], c_edge[None, 1:])
    centre, half = 0.5 * (lo + hi), 0.5 * np.abs(hi - lo)
    mod = np.abs(centre)
    gap = 1.0 - mod * (mod + half)
    # per block, the sign of |b| - delta, or 0 where it may change; first the blocks in |z| >= 1
    sign = (np.hypot(np.clip(0.0, lo.real, hi.real), np.clip(0.0, lo.imag, hi.imag)) >= 1.0).astype(float)
    inside = np.flatnonzero((gap > half) & (sign == 0.0))
    rho = half.ravel()[inside] / gap.ravel()[inside]
    x = np.abs(evaluate_grid(b, centre.ravel()[inside]))
    sign.ravel()[inside[(x + rho) / (1.0 + rho * x) < delta * (1.0 - _LEVEL_SLACK)]] = -1.0
    sign.ravel()[inside[(x - rho) / (1.0 - rho * x) > delta * (1.0 + _LEVEL_SLACK)]] = 1.0
    # a block's nodes, those on the edge with the next block going to the next block
    r_count, c_count = np.diff(np.append(r_edge[:-1], rows)), np.diff(np.append(c_edge[:-1], cols))
    read = np.repeat(np.repeat(sign == 0.0, r_count, axis=0), c_count, axis=1)
    # ... and read when the block before is kept too
    read[r_edge[1:-1]] |= read[r_edge[1:-1] - 1]
    read[:, c_edge[1:-1]] |= read[:, c_edge[1:-1] - 1]
    # the nodes are evaluated before the full-grid values exist, which keeps the peak memory down
    modulus = np.abs(evaluate_grid(b, _nodes(xs, *np.nonzero(read))))
    vals = np.repeat(np.repeat(sign, r_count, axis=0), c_count, axis=1)
    vals[read] = modulus - delta
    return vals


def arclength_carleson_norm(curves: Sequence[JordanCurveApprox]) -> float:
    """Dyadic-box norm of the polyline arclength measure (atoms at edge
    midpoints weighted by edge length), to its ``suggested_box_depth``."""
    if not curves:
        return 0.0
    mids = np.concatenate([0.5 * (c.edge_starts() + c.edge_ends()) for c in curves])
    lengths = np.concatenate([c.edge_lengths() for c in curves])
    # np.hypot rounds as the abs of a Python complex, which suggested_box_depth takes
    return _box_norm(mids, lengths, _stable_depth(np.hypot(mids.real, mids.imag)))


# ---------------------------------------------------------------------------
# harmonic measure


def harmonic_measure(
    z,
    curve: JordanCurveApprox,
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
    *,
    method: str,
    return_stragglers: bool = False,
):
    """Exit distribution over the curve's edges of Brownian motion from z.

    ``method`` is "exact" (Poisson integral; disk fixtures only) or "walk".
    Walks jump to a uniform point of the largest circle about the walker
    inside the curve (walk on spheres, the first jump from a shifted lattice,
    see ``_walk``) and absorb within the ``_ABSORB`` = 1e-4 band; a walker
    still out after ``_MAX_STEPS`` = 10,000 steps settles at its nearest edge.
    A source on the curve is not inside it.  With ``return_stragglers`` the
    result is (masses, stragglers), the count of such walkers.
    """
    z0 = interior_value(z)
    if not curve.contains(z0):
        raise ValueError("source point must lie strictly inside the curve")
    if method not in ("exact", "walk"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" and not curve.is_disk_fixture:
        raise ValueError("exact Poisson masses are only available for disk fixtures")
    if method == "exact":
        masses, stragglers = _poisson_edge_masses(z0, curve), 0
    else:
        masses, _, stragglers = _walk(z0, None, curve, n_samples, rng)
    return (masses, stragglers) if return_stragglers else masses


def harmonic_measure_paired(
    z_u,
    z_b,
    curve: JordanCurveApprox,
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
):
    """Exit masses of coupled walks from two sources, as (masses_u, masses_b,
    stragglers), the last the count of walkers still out at ``_MAX_STEPS``.

    While both walkers of a pair are out and apart, each step is one of two
    kinds, with r the smaller of their distances to the curve.  A pair closer
    than 2r steps uniformly in balls of radius r under a maximal coupling:
    whenever the two uniform laws allow, both land on the same point and the
    pair fuses, moving as one walker from then on, so its two tallies cancel
    in the difference measure.  A pair 2r or more apart cannot meet on this
    step, so each walker jumps to its own circle, the b-walker in the
    direction of the u-walker mirrored across the pair's bisector.  Each
    marginal is an unbiased walk (see ``_walk``).
    """
    zu = interior_value(z_u)
    zb = interior_value(z_b)
    for z0 in (zu, zb):
        if not curve.contains(z0):
            raise ValueError("both source points must lie strictly inside the curve")
    return _walk(zu, zb, curve, n_samples, rng)


def _poisson_edge_masses(z: complex, curve: JordanCurveApprox) -> np.ndarray:
    """Exact harmonic measure from z of each edge's arc of a disk fixture.

    With u = (w - c)/R on the unit circle and zeta = (z - c)/R, the disk
    automorphism phi(u) = (u - zeta)/(1 - conj(zeta) u) carries z to 0, where
    harmonic measure is normalized arclength: an arc's mass is the increment
    of arg phi along it over 2 pi.  Increments are taken mod 2 pi, not as
    principal values, since one arc can carry more than half the mass.
    """
    zeta = (z - curve.disk_center) / curve.disk_radius
    u = (curve.points - curve.disk_center) / curve.disk_radius
    turn = np.angle((u - zeta) / (1.0 - zeta.conjugate() * u))
    return np.mod(np.roll(turn, -1) - turn, 2.0 * math.pi) / (2.0 * math.pi)


# pairs walked at once
_WALK_CHUNK = 20_000
# a walker this close to the curve is absorbed at its nearest edge
_ABSORB = 1e-4
# steps after which a walker still out settles at its nearest edge
_MAX_STEPS = 10_000
# second generator of the rank-1 lattice of first steps
_INV_GOLDEN = 2.0 / (1.0 + math.sqrt(5.0))
# floor of |xb - xu| where _coupled_step normalizes the separation
_TINY = np.finfo(float).tiny


def _walk(
    zu: complex,
    zb: complex | None,
    curve: JordanCurveApprox,
    n_samples: int,
    rng: np.random.Generator | None,
) -> tuple[np.ndarray, np.ndarray | None, int]:
    """Edge masses of ``n_samples`` walkers from zu, each paired with a
    walker from zb (``None``: no partners, and no second mass vector), and
    the count of walkers still out after ``_MAX_STEPS`` steps, which settle
    at the nearest edge of their last position.  ``n_samples < 1`` raises
    ``ValueError``.

    Every step measures each walker's distance to the curve and absorbs the
    walkers within ``_ABSORB`` at their nearest edge.  A pair of live, unfused
    walkers then steps by ``_coupled_step``: with r = min(dist_u, dist_b), a
    coupled step in balls of radius r when the pair is closer than 2r, else
    one sphere jump each.  A fused pair or a lone walker jumps to a uniform
    point of its circle of radius dist (Muller's walk on spheres).  Every
    step is uniform on a ball or circle within the walker's distance, and
    its kind is chosen from the pre-step state alone, so each marginal keeps
    harmonic functions martingales and its exit law is the harmonic measure
    up to the absorb band.  A chunk's first step takes walker
    i's two uniforms from the lattice (i/m, i/phi mod 1) shifted by one random
    pair mod 1 (Cranley-Patterson), which leaves each walker's step uniform.

    The chunk's state is one (2, m) array of positions and one of live flags,
    row 0 the u-walkers and row 1 their partners, so each step gathers the
    live walkers once and tallies both mass vectors with one ``bincount``.
    Only what an answer reads is computed: the first step's distances come
    from one query per source, a disk fixture's nearest edges only for the
    absorbed walkers, and the directions only for the walkers that move.
    """
    if n_samples < 1:
        raise ValueError(f"n_samples must be at least 1, got {n_samples}")
    absorb, max_steps = _ABSORB, _MAX_STEPS
    if rng is None:
        rng = np.random.default_rng(0)
    n_edges = curve.n_edges
    masses = np.zeros(2 * n_edges)
    stragglers = 0
    # every walker starts at its source, so the first step's distances are the sources'
    src_dist, src_edge = _distance_to_curve(np.array([zu] if zb is None else [zu, zb]), curve)
    for done in range(0, n_samples, _WALK_CHUNK):
        m = min(_WALK_CHUNK, n_samples - done)
        i = np.arange(m)
        draws = np.mod(np.stack([i / m, i * _INV_GOLDEN]) + rng.random(2)[:, None], 1.0)
        pos = np.empty((2, m), dtype=np.complex128)
        pos[0], pos[1] = zu, zu if zb is None else zb
        alive = np.ones((2, m), dtype=bool)
        alive[1] = zb is not None  # the b-walker walks on its own
        fused = np.zeros(m, dtype=bool)  # the b-walker rides with the u-walker
        for step in range(max_steps + 1):
            keep = alive[0] | alive[1]
            n_keep = np.count_nonzero(keep)
            if n_keep == 0:
                break
            # drop finished pairs once they are half the arrays: each step then
            # costs at most twice its live pairs, and the copies stay a
            # geometric series
            if 2 * n_keep <= keep.size:
                pos, alive, fused = np.compress(keep, pos, axis=1), np.compress(keep, alive, axis=1), fused[keep]
            width = fused.size
            if step:
                draws = rng.random((2, width))
            # flat indices of the live walkers: the u-walkers' rows, then width + the b-walkers'
            live = np.flatnonzero(alive)
            if step == 0:
                dist, edge = src_dist[live // width], src_edge[live // width]
            elif curve.is_disk_fixture:
                rel = pos.ravel()[live] - curve.disk_center
                dist, edge = curve.disk_radius - np.abs(rel), None
            else:
                dist, edge = _distance_to_curve(pos.ravel()[live], curve)
            hit = dist < absorb
            if step == max_steps:
                # walkers still out at the step cap settle at their nearest edge
                u_live = live[: np.searchsorted(live, width)]
                stragglers += np.count_nonzero(~hit) + np.count_nonzero(~hit[: u_live.size] & fused[u_live])
                hit[:] = True
            if hit.any():
                out = live[hit]
                edge = _disk_edge(rel[hit], n_edges) if edge is None else edge[hit]
                # a b-walker's exit counts in the second half, and so does the exit of a fused pair's rider
                n_out_u = np.searchsorted(out, width)
                rider = edge[:n_out_u][fused[out[:n_out_u]]]
                masses += np.bincount(
                    np.concatenate([edge[:n_out_u], edge[n_out_u:] + n_edges, rider + n_edges]), minlength=2 * n_edges
                )
                alive.ravel()[out] = False
                live, dist = live[~hit], dist[~hit]

            n_u = np.searchsorted(live, width)
            paired = alive[::-1].ravel()[live]  # whether the partner, in the other row, is live
            solo = live[~paired]
            pos.ravel()[solo] += dist[~paired] * np.exp(2j * math.pi * draws[0].take(solo, mode="wrap"))
            ic = live[:n_u][paired[:n_u]]  # the same rows, in the same order, as the paired b-walkers
            if ic.size:
                du, db = dist[:n_u][paired[:n_u]], dist[n_u:][paired[n_u:]]
                dirs = np.exp(2j * math.pi * draws[0, ic])
                pos[0, ic], pos[1, ic], meet = _coupled_step(pos[0, ic], pos[1, ic], du, db, draws[1, ic], dirs)
                fused[ic[meet]] = True
                alive[1, ic[meet]] = False
    masses /= n_samples
    return masses[:n_edges], None if zb is None else masses[n_edges:], int(stragglers)


def _coupled_step(
    xu: np.ndarray, xb: np.ndarray, du: np.ndarray, db: np.ndarray, radial: np.ndarray, dirs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One step of each pair of walkers at distances du and db from the curve,
    chosen from the pre-step positions and distances only; r = min(du, db).

    A pair closer than 2r takes a maximally coupled ball step: X = xu +
    r sqrt(radial) dirs is uniform in B(xu, r).  Where X also lies in
    B(xb, r) the b-walker moves to X too (``meet``); elsewhere it moves to X
    reflected across the perpendicular bisector of xu xb, which maps B(xu, r)
    minus B(xb, r) onto B(xb, r) minus B(xu, r), so the b-walker is uniform
    in B(xb, r) as well.  Balls 2r or more apart cannot meet, so such a pair
    takes two sphere jumps instead: the u-walker to xu + du dirs, the
    b-walker to xb + db times dirs reflected the same way, each uniform on
    its own circle.  Returns the new positions and ``meet``.
    """
    r = np.minimum(du, db)
    sep = xb - xu
    gap = np.abs(sep)
    far = gap >= 2.0 * r
    ball = r * np.sqrt(radial)
    step = np.where(far, du, ball) * dirs
    step_b = np.where(far, db, ball) * dirs
    x = xu + step
    unit = sep / np.maximum(gap, _TINY)
    meet = (np.abs(x - xb) < r) & ~far
    return x, np.where(meet, x, xb + step_b - 2.0 * (step_b * np.conj(unit)).real * unit), meet


def _distance_to_curve(p: np.ndarray, curve: JordanCurveApprox) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point to the curve and the index of the nearest edge.

    Polylines answer from their cell index; the result, ties included, is
    bit-identical to the dense scan over every edge (``_dense_distance``).
    """
    if curve.is_disk_fixture:
        rel = p - curve.disk_center
        return curve.disk_radius - np.abs(rel), _disk_edge(rel, curve.n_edges)
    return curve._cell_index.query(p)


def _disk_edge(rel: np.ndarray, n_edges: int) -> np.ndarray:
    """The edge of a disk fixture's polyline at the angle of each rel = p - centre."""
    ang = np.mod(np.angle(rel), 2.0 * math.pi)
    return np.minimum((ang / (2.0 * math.pi) * n_edges).astype(np.int64), n_edges - 1)


def _dense_distance(p: np.ndarray, starts: np.ndarray, dvec: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Nearest edge of each point by a scan over every edge (first index on ties)."""
    d_all = segment_distances(p[:, None], starts[None, :], dvec[None, :], (np.abs(dvec) ** 2)[None, :])
    ne = d_all.argmin(axis=1)
    return d_all[np.arange(p.size), ne], ne


# a polyline of n edges gets about sqrt(n) x sqrt(n) cells, at most this many a side
_INDEX_MAX_SIDE = 64
# edge distances held at once while building or querying an index
_INDEX_BLOCK = 1 << 16
# candidate slack for rounding, relative to the coordinate scale
_INDEX_SLACK = 1e-12


@dataclass(frozen=True, eq=False)
class _CellIndex:
    """Uniform cells over a polyline's bounding box, each listing (CSR, edge
    order ascending) every edge that can be nearest to a point of the cell.

    Cell c with centre q and half-diagonal h keeps edge e when
    dist(q, e) <= dist(q, curve) + 2h (+ slack): a point p of the cell has
    dist(q, e) - h <= dist(p, e) and dist(p, curve) <= dist(q, curve) + h, so
    every edge nearest to p, ties included, is kept.  The slack covers the
    rounding of the computed distances and of the cell assignment, each a few
    ulps of the coordinate scale.  A query runs the dense route's
    elementwise formula on those candidates only, so its distances and first
    minimizing edges are the dense route's bits.  Points outside the box
    take the dense route.
    """

    starts: np.ndarray
    dvec: np.ndarray
    dd: np.ndarray
    corner: complex
    width: float
    height: float
    side: int
    ptr: np.ndarray  # (side * side + 1,) offsets into cand; cell ix + side * iy
    cand: np.ndarray  # int32 edge indices

    @classmethod
    def build(cls, starts: np.ndarray, ends: np.ndarray) -> "_CellIndex":
        dvec = ends - starts
        dd = np.abs(dvec) ** 2
        side = min(_INDEX_MAX_SIDE, math.isqrt(starts.size - 1) + 1)
        x0, x1 = float(starts.real.min()), float(starts.real.max())
        y0, y1 = float(starts.imag.min()), float(starts.imag.max())
        width, height = (x1 - x0) / side, (y1 - y0) / side
        cells = np.arange(side) + 0.5
        centres = ((x0 + cells * width)[None, :] + 1j * (y0 + cells * height)[:, None]).ravel()
        half_diag = 0.5 * math.hypot(width, height)
        scale = math.hypot(max(abs(x0), abs(x1)), max(abs(y0), abs(y1)))
        reach = 2.0 * half_diag + _INDEX_SLACK * (half_diag + scale)
        counts: list[np.ndarray] = []
        cand: list[np.ndarray] = []
        step = max(1, _INDEX_BLOCK // starts.size)
        for k in range(0, centres.size, step):
            d = segment_distances(centres[k : k + step, None], starts[None, :], dvec[None, :], dd[None, :])
            keep = d <= d.min(axis=1, keepdims=True) + reach
            counts.append(keep.sum(axis=1))
            cand.append(np.nonzero(keep)[1].astype(np.int32))
        ptr = np.concatenate([[0], np.cumsum(np.concatenate(counts))])
        return cls(starts, dvec, dd, complex(x0, y0), width, height, side, ptr, np.concatenate(cand))

    def query(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        fx = (p.real - self.corner.real) / self.width
        fy = (p.imag - self.corner.imag) / self.height
        inside = (fx >= 0.0) & (fx <= self.side) & (fy >= 0.0) & (fy <= self.side)
        dist = np.empty(p.size)
        ne = np.empty(p.size, dtype=np.int64)
        out = ~inside
        if np.any(out):
            dist[out], ne[out] = _dense_distance(p[out], self.starts, self.dvec)
        if not np.any(inside):
            return dist, ne
        idx = np.flatnonzero(inside)
        ix = np.minimum(fx[idx].astype(np.int64), self.side - 1)
        iy = np.minimum(fy[idx].astype(np.int64), self.side - 1)
        first = self.ptr[ix + self.side * iy]
        counts = self.ptr[ix + self.side * iy + 1] - first
        # blocks of about _INDEX_BLOCK candidates bound the temporaries
        csum = np.cumsum(counts)
        cuts = np.searchsorted(csum, np.arange(_INDEX_BLOCK, csum[-1], _INDEX_BLOCK), side="right")
        for a, b in zip([0, *cuts], [*cuts, idx.size]):
            if a < b:
                dist[idx[a:b]], ne[idx[a:b]] = self._nearest(p[idx[a:b]], first[a:b], counts[a:b])
        return dist, ne

    def _nearest(self, p: np.ndarray, first: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        seg = np.cumsum(counts) - counts  # each point's first slot in the flat arrays
        pos = np.arange(seg[-1] + counts[-1])
        edges = self.cand[pos + np.repeat(first - seg, counts)]
        d = segment_distances(np.repeat(p, counts), self.starts[edges], self.dvec[edges], self.dd[edges])
        # first minimizing candidate of each point; candidates ascend by edge
        d_min = np.repeat(np.minimum.reduceat(d, seg), counts)
        at = np.minimum.reduceat(np.where(d == d_min, pos, pos.size), seg)
        return d[at], edges[at]


# an atlas's per-curve mass totals lie this close to integers
_TOTAL_TOL = 1e-3


@dataclass(frozen=True, eq=False)
class HarmonicMeasureAtlas:
    """Per-curve edge masses of the zero measures of the products u and b.

    The masses are held as read-only copies, so what is cached from them and
    the two products (the zero counts, the contour-integral coefficients and
    the calibration constant of ``log_quotient_via_contour``) cannot go
    stale.  ``walk_stragglers`` counts the walkers that settled at the step
    cap.
    """

    u: ZeroList
    b: ZeroList
    curves: tuple[JordanCurveApprox, ...]
    nu_u: tuple[np.ndarray, ...]
    nu_b: tuple[np.ndarray, ...]
    walk_stragglers: int = 0

    def __post_init__(self):
        if not (len(self.curves) == len(self.nu_u) == len(self.nu_b)):
            raise ValueError("atlas tables must align with the curves")
        for name in ("nu_u", "nu_b"):
            masses = tuple(np.array(v, dtype=np.float64) for v in getattr(self, name))
            for v in masses:
                v.flags.writeable = False
            object.__setattr__(self, name, masses)
        object.__setattr__(self, "curves", tuple(self.curves))
        for c, mu, mb in zip(self.curves, self.nu_u, self.nu_b):
            if mu.shape != (c.n_edges,) or mb.shape != (c.n_edges,):
                raise ValueError("edge-mass vectors must have one entry per edge")

    def nu(self, i: int) -> np.ndarray:
        return self.nu_u[i] - self.nu_b[i]

    @cached_property
    def _counts(self) -> tuple[tuple[float, float], ...]:
        return tuple((self.u_count(i), self.b_count(i)) for i in range(len(self.curves)))

    @cached_property
    def _tables(self) -> list[tuple[complex, np.ndarray, float]]:
        """Per curve: const = sum(nu) + sum (c - nu conj(s/d)) M1, the real and
        imaginary parts of A = c - nu s/d and B = nu/d in vertex order, and
        sum(nu); c is the mass cumulated from the curve's ``start_vertex`` to
        each edge."""
        tables = []
        for i, curve in enumerate(self.curves):
            nu, order = self.nu(i), np.roll(np.arange(curve.n_edges), -curve.start_vertex())
            cum = np.empty(curve.n_edges)
            cum[order] = np.concatenate([[0.0], np.cumsum(nu[order])])[:-1]
            s, e = curve.edge_starts(), curve.edge_ends()
            coef = np.stack([cum - nu * (s / (e - s)), nu / (e - s)])
            const = nu.sum() + np.conj(coef[0]) @ np.log(np.conj(e) / np.conj(s))
            tables.append((complex(const), np.concatenate([coef.real, coef.imag]), float(nu.sum())))
        return tables

    @cached_property
    def _c1(self) -> complex:
        """C1 = Log(u/b)(r) minus the contour integrals at r, at the reference
        point r = (1 + max |vertex|)/2 on the real axis, beyond every vertex
        and so outside every curve."""
        ref = complex(0.5 * (1.0 + max(float(np.abs(c.points).max()) for c in self.curves)))
        direct = complex(np.log(evaluate_grid(self.u, np.array([ref]))[0] / evaluate_grid(self.b, np.array([ref]))[0]))
        return direct - _contour_integrals(self, ref, _edge_logs(self, ref))

    def u_count(self, i: int) -> float:
        return float(self.nu_u[i].sum())

    def b_count(self, i: int) -> float:
        return float(self.nu_b[i].sum())

    def validate_totals(self) -> None:
        for i, c in enumerate(self.curves):
            for name, total in (("u", self.u_count(i)), ("b", self.b_count(i))):
                if abs(total - round(total)) > _TOTAL_TOL:
                    raise AtlasInconsistencyError(
                        f"curve {c.component_id}: nu_{name} total {total} is not an integer within {_TOTAL_TOL}"
                    )


def build_atlas(
    u: ZeroList,
    b: ZeroList,
    curves: Sequence[JordanCurveApprox],
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
    *,
    method: str,
    paired: bool = False,
) -> HarmonicMeasureAtlas:
    """Sum the per-zero harmonic measures into the two edge-mass tables of an
    atlas bound to u and b.

    ``method`` is that of ``harmonic_measure``.  With ``paired=True`` (walk
    method, equal per-curve counts) the u- and b-zero walks are coupled
    pairs, which sharply reduces the variance of the difference measure.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    nu_u: list[np.ndarray] = []
    nu_b: list[np.ndarray] = []
    stragglers = 0
    for curve in curves:
        mu = np.zeros(curve.n_edges)
        mb = np.zeros(curve.n_edges)
        u_in = sorted((p for p in u.expanded_points() if curve.contains(p)), key=lambda w: (w.real, w.imag))
        b_in = sorted((p for p in b.expanded_points() if curve.contains(p)), key=lambda w: (w.real, w.imag))
        if paired and method == "walk" and len(u_in) == len(b_in):
            for pu, pb in zip(u_in, b_in):
                part_u, part_b, stuck = harmonic_measure_paired(pu, pb, curve, n_samples, rng)
                mu += part_u
                mb += part_b
                stragglers += stuck
        else:
            for sources, masses in ((u_in, mu), (b_in, mb)):
                for p in sources:
                    part, stuck = harmonic_measure(p, curve, n_samples, rng, method=method, return_stragglers=True)
                    masses += part
                    stragglers += stuck
        nu_u.append(mu)
        nu_b.append(mb)
    return HarmonicMeasureAtlas(u, b, tuple(curves), tuple(nu_u), tuple(nu_b), stragglers)


def split_zeros_by_contour(u: ZeroList, curves: Sequence[JordanCurveApprox]) -> tuple[ZeroList, ZeroList]:
    """u1: zeros strictly inside some curve and hyperbolically deeper than 1;
    u2: everything else."""
    deep: list[complex] = []
    rest: list[complex] = []
    for p in u.expanded_points():
        chosen = rest
        for c in curves:
            if c.contains(p):
                if float(beta_matrix([p], c.points).min()) > 1.0:
                    chosen = deep
                break
        chosen.append(p)
    return ZeroList.from_points(deep), ZeroList.from_points(rest)


def log_quotient_via_contour(u: ZeroList, b: ZeroList, atlas: HarmonicMeasureAtlas, z) -> complex:
    """A logarithm of u/b at an exterior point from the contour tables of an
    atlas built from u and b; ``ValueError`` for any other u or b.

    Evaluates C1 - sum_j int nu(arc from the start point) [dxi/(xi - z)
    + dconj(xi)/((1 - conj(xi) z) conj(xi))], with the cumulative mass linear
    within each edge, by closed-form edge integrals whose angles also give the
    winding number that rejects a point inside or on a curve.  Each curve's
    start point is its ``start_vertex``, of minimal principal argument.  C1
    is calibrated once per atlas, from its own u and b (``_c1``).
    """
    if u != atlas.u or b != atlas.b:
        raise ValueError("u and b must be the products the atlas was built from")
    w = interior_value(z)
    logs = _edge_logs(atlas, w)
    for c, (uc, bc) in zip(atlas.curves, atlas._counts):
        if abs(uc - bc) > 1e-3:
            raise HypothesisViolationError(
                f"curve {c.component_id}: zero counts differ (u: {uc}, b: {bc})"
            )
    return atlas._c1 + _contour_integrals(atlas, w, logs)


def _edge_logs(atlas: HarmonicMeasureAtlas, z: complex) -> list[np.ndarray]:
    """Per curve, the rows 2 Re L, 2 Re conj(M), Im conj(M), Im L over the
    edges [s, e] in vertex order, where L = Log((e - z)/(s - z)) and
    conj(M) = Log((1 - conj(z) e)/(1 - conj(z) s)): steps of log-moduli and
    angles between the vertices.  L's angle steps are those of
    ``JordanCurveApprox._turns``; M's need no wrap, as Re(1 - conj(z) v) > 0.
    Raises ``ValueError`` unless z lies outside every curve and on none.
    """
    logs = []
    for curve in atlas.curves:
        steps = np.empty((4, curve.n_edges))
        dist_sq, winding = curve._turns(z, steps[3])
        if winding != 0:
            raise ValueError("evaluation point must lie outside every curve")
        v, v_sq, _ = curve._closed
        zbar_v = v * z.conjugate()
        vals = np.empty((3, v.size))
        np.log(dist_sq, out=vals[0])
        np.log1p(abs(z) ** 2 * v_sq - 2.0 * zbar_v.real, out=vals[1])  # keeps its digits at small |z|
        np.arctan2(-zbar_v.imag, 1.0 - zbar_v.real, out=vals[2])
        np.subtract(vals[:, 1:], vals[:, :-1], out=steps[:3])
        logs.append(steps)
    return logs


def _contour_integrals(atlas: HarmonicMeasureAtlas, z: complex, logs: list[np.ndarray]) -> complex:
    """Minus the sum of the edge integrals at z, from ``_edge_logs(atlas, z)``.

    With c + nu t the mass on the edge [s, e = s + d], the kernels integrate
    to c L + nu (1 - (a/d) L) and c (M1 - M) - nu ((conj(s)/conj(d)) M1
    + (q/(z conj(d))) M), where a = s - z, q = 1 - z conj(s) and
    M1 = Log(conj(e)/conj(s)) (product integration on panels, Helsing &
    Ojala 2008).  Expanding a/d and q/z leaves const + A.L + z B.L
    - conj(A).M - conj(B).M / z; the last term tends to sum(nu) as z -> 0.
    """
    total = 0.0j
    for steps, (const, coef, nu_total) in zip(logs, atlas._tables):
        g = coef @ steps.T
        g = g[:2] + 1j * g[2:]  # A and B times each row of steps
        (a_l, a_m), (b_l, b_m) = (0.5 * g[:, :2] + 1j * g[:, :1:-1]).tolist()  # A.L, A.conj(M); B...
        total -= const + a_l + z * b_l - a_m.conjugate() - (b_m.conjugate() / z if z else -nu_total)
    return total


# an arc with at most this much mass is vacuous in ``trossos_check``
_MASS_FLOOR = 1e-9


@dataclass(frozen=True)
class ArcCheck:
    arc: tuple[int, int]
    diameter: float
    inf_modulus: float
    nu_mass: float
    bound: float
    slack: float
    skipped: bool


def trossos_check(
    u: ZeroList,
    curve: JordanCurveApprox,
    nu_curve: np.ndarray,
    arcs: Sequence[tuple[int, int]],
) -> list[ArcCheck]:
    """Per-arc check of diam_rho(L) >= (inf_L |u|)^(1 / nu(L)).

    ``nu_curve`` holds the per-edge masses of the harmonic-measure sum over
    the zeros of u inside the curve.  Arcs are (start, stop) vertex index
    ranges, wrapping; (a, a) denotes the whole closed curve.  Arcs with no
    mass (at most ``_MASS_FLOOR``) are vacuous and reported as skipped.
    """
    if nu_curve.shape != (curve.n_edges,):
        raise ValueError("nu vector must have one entry per edge")
    out: list[ArcCheck] = []
    n = curve.n_edges
    for a, b_idx in arcs:
        if not (0 <= a < n and 0 <= b_idx < n):
            raise ValueError(f"arc indices out of range: {(a, b_idx)}")
        if a == b_idx:
            idx = np.arange(a, a + n + 1) % n
        elif b_idx >= a:
            idx = np.arange(a, b_idx + 1) % n
        else:
            idx = np.arange(a, b_idx + 1 + n) % n
        pts = curve.points[idx]
        edge_idx = idx[:-1] if idx.size > 1 else idx[:0]
        mass = float(nu_curve[edge_idx].sum())
        if mass <= _MASS_FLOOR:
            out.append(ArcCheck((a, b_idx), 0.0, 0.0, mass, 0.0, 0.0, True))
            continue
        diam = float(rho_matrix(pts, pts).max())
        inf_mod = float(np.abs(evaluate_grid(u, pts)).min())
        bound = inf_mod ** (1.0 / mass)
        out.append(ArcCheck((a, b_idx), diam, inf_mod, mass, bound, diam - bound, False))
    return out
