"""Level-set contours of finite products and harmonic-measure machinery.

Level curves of |b| are extracted by marching squares; harmonic measure on a
component is computed by walk-on-spheres sampling (or the exact Poisson
integral for round-disk fixtures); the contour logarithm reconstructs
log(u/b) outside the curves from the cumulative difference measure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .blaschke import ZeroList, evaluate_grid
from .carleson import DiscreteMeasure, box_carleson_norm, suggested_box_depth
from .errors import (
    AmbiguousTopologyError,
    AtlasInconsistencyError,
    HypothesisViolationError,
)
from .geometry import as_complex, interior_value
from .gridfn import winding_number

ORIGIN_CLEARANCE = 1e-6
_GL8_NODES, _GL8_WEIGHTS = np.polynomial.legendre.leggauss(8)


@dataclass(frozen=True)
class JordanCurveApprox:
    """A closed positively-oriented polyline in the disk.

    ``disk_center``/``disk_radius`` are set only for round-disk fixtures, where
    exact Poisson formulas are available.
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
        area = 0.5 * float(np.sum(np.real(pts) * np.imag(np.roll(pts, -1)) - np.real(np.roll(pts, -1)) * np.imag(pts)))
        if area <= 0.0:
            raise ValueError("polyline must be positively oriented")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(
            self, "enclosed_zeros", tuple((complex(z), int(k)) for z, k in self.enclosed_zeros)
        )

    @classmethod
    def circle(
        cls,
        center: complex,
        radius: float,
        n: int = 256,
        component_id: int = 0,
        enclosed_zeros: Sequence[tuple[complex, int]] = (),
    ) -> "JordanCurveApprox":
        pts = center + radius * np.exp(2j * math.pi * np.arange(n) / n)
        return cls(pts, component_id, tuple(enclosed_zeros), disk_center=complex(center), disk_radius=float(radius))

    @property
    def is_disk_fixture(self) -> bool:
        return self.disk_center is not None

    @property
    def n_edges(self) -> int:
        return self.points.size

    def edge_starts(self) -> np.ndarray:
        return self.points

    def edge_ends(self) -> np.ndarray:
        return np.roll(self.points, -1)

    def edge_lengths(self) -> np.ndarray:
        return np.abs(self.edge_ends() - self.edge_starts())

    def total_zero_count(self) -> int:
        return sum(k for _, k in self.enclosed_zeros)

    def contains(self, z: complex) -> bool:
        vals = self.points - as_complex(z)
        if float(np.abs(vals).min()) == 0.0:
            return False
        try:
            return winding_number(vals) != 0
        except ValueError:
            # point hugging the polyline; refine by edge bisection once
            ref = np.empty(2 * self.points.size, dtype=np.complex128)
            ref[0::2] = self.points
            ref[1::2] = 0.5 * (self.points + np.roll(self.points, -1))
            return winding_number(ref - as_complex(z)) != 0

    def start_vertex(self) -> int:
        """Index of the splitting start point: minimal principal argument,
        ties by index (fixed for reproducibility)."""
        return int(np.argmin(np.angle(self.points)))

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


# ---------------------------------------------------------------------------
# marching squares


# cell corners: 0 = bottom-left, 1 = bottom-right, 2 = top-right, 3 = top-left;
# cell edges: 0 = bottom (0,1), 1 = right (1,2), 2 = top (2,3), 3 = left (3,0).
# case bit layout: 8*c0 + 4*c1 + 2*c2 + 1*c3 with c_i = (corner value > 0).
_CASE_SEGMENTS = {
    0: [], 15: [],
    1: [(3, 2)], 14: [(2, 3)],
    2: [(2, 1)], 13: [(1, 2)],
    4: [(1, 0)], 11: [(0, 1)],
    8: [(0, 3)], 7: [(3, 0)],
    3: [(3, 1)], 12: [(1, 3)],
    6: [(2, 0)], 9: [(0, 2)],
    5: None, 10: None,  # saddles: resolved by the cell-center sample
}
_EDGE_CORNERS = {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 0)}


def _cell_segments(case: int, center_positive: bool) -> list[tuple[int, int]]:
    if case not in (5, 10):
        return _CASE_SEGMENTS[case]
    if case == 5:
        # corners 1 and 3 positive; a positive center connects them
        return [(0, 3), (1, 2)] if center_positive else [(0, 1), (2, 3)]
    # corners 0 and 2 positive
    return [(0, 1), (2, 3)] if center_positive else [(0, 3), (1, 2)]


def _interp(p0: complex, p1: complex, v0: float, v1: float) -> complex:
    t = v0 / (v0 - v1)
    return p0 + min(max(t, 0.0), 1.0) * (p1 - p0)


def level_set_components(
    b: ZeroList, delta: float, resolution: int = 512, level_tol: float = 0.1
) -> list[JordanCurveApprox]:
    """Closed polylines approximating the boundary of {|b| < delta}.

    Each component's enclosed zeros are determined by winding counts; the
    union of enclosed zeros must exhaust the zeros of b, else the topology at
    this resolution is ambiguous and the caller should perturb delta.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"level must be in (0, 1), got {delta}")
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

    n = resolution
    xs = np.linspace(-r_box, r_box, n + 1)
    grid = xs[None, :] + 1j * xs[:, None]
    vals = np.abs(evaluate_grid(b, grid)) - delta
    if np.any(vals == 0.0):
        raise AmbiguousTopologyError("grid node exactly on the level; perturb delta")
    pos = vals > 0.0

    # cell corner indices: 0=(i,j) 1=(i,j+1) 2=(i+1,j+1) 3=(i+1,j)  (CCW in the plane)
    seg_list: list[tuple[tuple, tuple]] = []
    corner_off = [(0, 0), (0, 1), (1, 1), (1, 0)]
    cases = (
        pos[:-1, :-1].astype(int) * 8
        + pos[:-1, 1:].astype(int) * 4
        + pos[1:, 1:].astype(int) * 2
        + pos[1:, :-1].astype(int)
    )
    cells = np.argwhere((cases > 0) & (cases < 15))
    for i, j in cells:
        case = int(cases[i, j])
        corners = [(i + di, j + dj) for di, dj in corner_off]
        if case in (5, 10):
            cz = complex(grid[i, j] + grid[i + 1, j + 1]) / 2.0
            center_positive = bool(abs(complex(evaluate_grid(b, np.array([cz]))[0])) - delta > 0.0)
        else:
            center_positive = False
        for e_in, e_out in _cell_segments(case, center_positive):
            key_in = _edge_key(corners, e_in)
            key_out = _edge_key(corners, e_out)
            seg_list.append((key_in, key_out))

    # each interior crossing edge belongs to exactly two cells: link segments
    adj: dict[tuple, list[tuple]] = {}
    for a, bkey in seg_list:
        adj.setdefault(a, []).append(bkey)
        adj.setdefault(bkey, []).append(a)
    for key, nbrs in adj.items():
        if len(nbrs) != 2:
            raise AmbiguousTopologyError("level set does not close up at this resolution; perturb delta")

    def edge_point(key: tuple) -> complex:
        (i0, j0), (i1, j1) = key
        return complex(
            _interp(complex(grid[i0, j0]), complex(grid[i1, j1]), float(vals[i0, j0]), float(vals[i1, j1]))
        )

    visited: set[tuple] = set()
    loops: list[np.ndarray] = []
    for start in adj:
        if start in visited:
            continue
        loop_keys = [start]
        visited.add(start)
        prev, cur = None, start
        while True:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            if nxt == start:
                break
            loop_keys.append(nxt)
            visited.add(nxt)
            prev, cur = cur, nxt
        pts = np.array([edge_point(k) for k in loop_keys])
        area = 0.5 * float(np.sum(pts.real * np.roll(pts.imag, -1) - np.roll(pts.real, -1) * pts.imag))
        if area < 0.0:
            pts = pts[::-1]
        loops.append(pts)

    curves: list[JordanCurveApprox] = []
    remaining = {z: k for z, k in b.zeros}
    origin_left = b.m
    for cid, pts in enumerate(sorted(loops, key=lambda p: (p.real.min(), p.imag.min()))):
        enclosed: list[tuple[complex, int]] = []
        count_inside = 0
        if b.m > 0 and winding_number(pts - 0.0) != 0:
            enclosed.append((0.0j, b.m))
            count_inside += b.m
            origin_left = 0
        for z, k in list(remaining.items()):
            if winding_number(pts - z) != 0:
                enclosed.append((z, k))
                count_inside += k
                del remaining[z]
        on_curve = np.abs(evaluate_grid(b, pts))
        if float(np.abs(on_curve - delta).max()) > level_tol * delta:
            raise AmbiguousTopologyError("curve samples stray from the level; refine the resolution")
        try:
            curve = JordanCurveApprox(pts, component_id=cid, enclosed_zeros=tuple(enclosed))
        except ValueError as exc:
            raise AmbiguousTopologyError(str(exc)) from exc
        rouche = winding_number(evaluate_grid(b, pts))
        if rouche != count_inside:
            raise AmbiguousTopologyError(
                f"winding count {rouche} disagrees with enclosed zeros {count_inside}; perturb delta"
            )
        curves.append(curve)
    if remaining or origin_left:
        raise AmbiguousTopologyError("some zeros are enclosed by no curve at this resolution")
    return curves


def _edge_key(corners: list[tuple[int, int]], edge: int) -> tuple:
    a, bb = _EDGE_CORNERS[edge]
    ka, kb = corners[a], corners[bb]
    return (ka, kb) if ka <= kb else (kb, ka)


def arclength_carleson_norm(curves: Sequence[JordanCurveApprox], max_depth: int | None = None) -> float:
    """Dyadic-box norm of the polyline arclength measure (atoms at edge
    midpoints weighted by edge length)."""
    atoms: list[tuple[complex, complex]] = []
    for c in curves:
        mids = 0.5 * (c.edge_starts() + c.edge_ends())
        for mid, ln in zip(mids, c.edge_lengths()):
            if ln > 0.0:
                atoms.append((complex(mid), complex(ln)))
    if not atoms:
        return 0.0
    mu = DiscreteMeasure(tuple(atoms))
    return box_carleson_norm(mu, max_depth if max_depth is not None else suggested_box_depth(mu))


# ---------------------------------------------------------------------------
# harmonic measure


def harmonic_measure(
    z,
    curve: JordanCurveApprox,
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
    method: str = "auto",
    absorb: float = 1e-4,
    max_steps: int = 10_000,
) -> np.ndarray:
    """Exit distribution over the curve's edges of Brownian motion from z.

    ``method`` is "exact" (Poisson integral; disk fixtures only), "walk", or
    "auto" (exact when available).  Walks step half the distance to the
    boundary and absorb within the 1e-4 band.
    """
    z0 = interior_value(z)
    if not curve.contains(z0):
        raise ValueError("source point must lie strictly inside the curve")
    if method not in ("auto", "exact", "walk"):
        raise ValueError(f"unknown method {method!r}")
    if method == "exact" and not curve.is_disk_fixture:
        raise ValueError("exact Poisson masses are only available for disk fixtures")
    if method in ("auto", "exact") and curve.is_disk_fixture:
        return _poisson_edge_masses(z0, curve)
    if rng is None:
        rng = np.random.default_rng(0)
    return _walk_edge_masses(z0, curve, n_samples, rng, absorb, max_steps)


def _poisson_edge_masses(z: complex, curve: JordanCurveApprox) -> np.ndarray:
    center = curve.disk_center
    radius = curve.disk_radius
    w = (z - center) / radius
    r = abs(w)
    psi = math.atan2(w.imag, w.real)
    ang0 = np.angle(curve.edge_starts() - center)
    ang1 = np.angle(curve.edge_ends() - center)
    span = np.mod(ang1 - ang0, 2.0 * math.pi)
    half = 0.5 * span
    mid = ang0 + half
    # GL quadrature of the Poisson kernel over each angular span
    phi = mid[:, None] + half[:, None] * _GL8_NODES[None, :]
    kernel = (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(phi - psi) + r * r)
    return (kernel * _GL8_WEIGHTS[None, :]).sum(axis=1) * half / (2.0 * math.pi)


def _walk_edge_masses(
    z: complex,
    curve: JordanCurveApprox,
    n_samples: int,
    rng: np.random.Generator,
    absorb: float,
    max_steps: int,
) -> np.ndarray:
    masses = np.zeros(curve.n_edges)
    chunk = 20_000
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        pos = np.full(m, z, dtype=np.complex128)
        alive = np.ones(m, dtype=bool)
        nearest = np.zeros(m, dtype=np.int64)
        for _ in range(max_steps):
            idx = np.nonzero(alive)[0]
            if idx.size == 0:
                break
            p = pos[idx]
            dist, ne = _distance_to_curve(p, curve)
            nearest[idx] = ne
            hit = dist < absorb
            if np.any(hit):
                np.add.at(masses, ne[hit], 1.0)
                alive[idx[hit]] = False
                idx, p, dist = idx[~hit], p[~hit], dist[~hit]
            if idx.size:
                pos[idx] = p + 0.5 * dist * np.exp(2j * math.pi * rng.random(idx.size))
        if np.any(alive):
            # stragglers at the step cap settle at their nearest edge
            np.add.at(masses, nearest[alive], 1.0)
        done += m
    return masses / n_samples


def harmonic_measure_paired(
    z_u,
    z_b,
    curve: JordanCurveApprox,
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
    absorb: float = 1e-4,
    max_steps: int = 10_000,
    fuse_rel: float = 1e-5,
) -> tuple[np.ndarray, np.ndarray]:
    """Walk two sources with reflection-coupled steps.

    While both walkers are alive their jump radii are capped at half their
    separation and the second direction is the first reflected across the
    pair's bisector, so the log-separation drops at a constant rate per step;
    once the separation falls under ``fuse_rel`` of the local scale the pair is
    fused and moves identically, cancelling the noise of the difference tally.
    Each marginal remains an unbiased walk-on-spheres sample (the reflection
    axis depends only on pre-step positions, and a reflected uniform direction
    is uniform).
    """
    if rng is None:
        rng = np.random.default_rng(0)
    zu = interior_value(z_u)
    zb = interior_value(z_b)
    for z0 in (zu, zb):
        if not curve.contains(z0):
            raise ValueError("both source points must lie strictly inside the curve")
    masses_u = np.zeros(curve.n_edges)
    masses_b = np.zeros(curve.n_edges)
    chunk = 20_000
    done = 0
    while done < n_samples:
        m = min(chunk, n_samples - done)
        pos_u = np.full(m, zu, dtype=np.complex128)
        pos_b = np.full(m, zb, dtype=np.complex128)
        alive_u = np.ones(m, dtype=bool)
        alive_b = np.ones(m, dtype=bool)
        fused = np.zeros(m, dtype=bool)
        near_u = np.zeros(m, dtype=np.int64)
        near_b = np.zeros(m, dtype=np.int64)
        live = np.arange(m)  # chunk positions of the pairs held in the arrays
        for _ in range(max_steps):
            keep = alive_u | alive_b
            if not keep.any():
                break
            # drop finished pairs once they are half the arrays: each step then
            # costs at most twice its live pairs, and the copies stay a
            # geometric series (compacting on every step measured about 2 MB more
            # peak RSS on the contour-log benchmark)
            if 2 * np.count_nonzero(keep) <= keep.size:
                live, pos_u, pos_b, alive_u, alive_b, fused, near_u, near_b = (
                    x[keep] for x in (live, pos_u, pos_b, alive_u, alive_b, fused, near_u, near_b)
                )
            # a full draw per step keeps the stream of the uncompacted walk
            dirs = np.exp(2j * math.pi * rng.random(m)[live])
            # reflection axis from pre-step positions only, else the axis
            # correlates with the direction and biases the marginal
            sep = pos_u - pos_b
            abs_sep = np.abs(sep)
            d_hat = np.where(abs_sep > 0, sep, 1.0) / np.where(abs_sep > 0, abs_sep, 1.0)

            dist_u = np.full(live.size, np.inf)
            dist_b = np.full(live.size, np.inf)
            iu = np.nonzero(alive_u)[0]
            if iu.size:
                dist_u[iu], ne = _distance_to_curve(pos_u[iu], curve)
                near_u[iu] = ne
            ib = np.nonzero(alive_b & ~fused)[0]
            if ib.size:
                dist_b[ib], ne = _distance_to_curve(pos_b[ib], curve)
                near_b[ib] = ne

            hit_u = alive_u & (dist_u < absorb)
            if np.any(hit_u):
                np.add.at(masses_u, near_u[hit_u], 1.0)
                partner = hit_u & fused & alive_b
                if np.any(partner):
                    np.add.at(masses_b, near_u[partner], 1.0)
                    alive_b[partner] = False
                alive_u[hit_u] = False
            hit_b = alive_b & ~fused & (dist_b < absorb)
            if np.any(hit_b):
                np.add.at(masses_b, near_b[hit_b], 1.0)
                alive_b[hit_b] = False

            both = alive_u & alive_b & ~fused
            u_solo = alive_u & ~both
            b_solo = alive_b & ~fused & ~both
            if np.any(both):
                r = 0.5 * np.minimum(np.minimum(dist_u, dist_b), np.maximum(abs_sep, absorb))
                refl = dirs - 2.0 * (dirs * np.conj(d_hat)).real * d_hat
                pos_u[both] = pos_u[both] + r[both] * dirs[both]
                pos_b[both] = pos_b[both] + r[both] * refl[both]
                gap = np.abs(pos_u - pos_b)
                just = both & (gap <= fuse_rel * np.minimum(dist_u, dist_b))
                if np.any(just):
                    fused[just] = True
                    pos_b[just] = pos_u[just]
            if np.any(u_solo):
                pos_u[u_solo] = pos_u[u_solo] + 0.5 * dist_u[u_solo] * dirs[u_solo]
            if np.any(b_solo):
                pos_b[b_solo] = pos_b[b_solo] + 0.5 * dist_b[b_solo] * dirs[b_solo]
            live_fused = alive_u & fused
            if np.any(live_fused):
                pos_b[live_fused] = pos_u[live_fused]
        # stragglers at the step cap settle at their nearest edge
        for alive, near, masses in (
            (alive_u, near_u, masses_u),
            (alive_b & ~fused, near_b, masses_b),
            (alive_b & fused, near_u, masses_b),
        ):
            stuck = np.nonzero(alive)[0]
            if stuck.size:
                np.add.at(masses, near[stuck], 1.0)
        done += m
    return masses_u / n_samples, masses_b / n_samples


def _distance_to_curve(p: np.ndarray, curve: JordanCurveApprox) -> tuple[np.ndarray, np.ndarray]:
    """Distance from each point to the curve and the index of the nearest edge."""
    if curve.is_disk_fixture:
        rel = p - curve.disk_center
        dist = curve.disk_radius - np.abs(rel)
        ang = np.mod(np.angle(rel), 2.0 * math.pi)
        ne = np.minimum((ang / (2.0 * math.pi) * curve.n_edges).astype(np.int64), curve.n_edges - 1)
        return dist, ne
    starts = curve.edge_starts()
    dvec = curve.edge_ends() - starts
    dd = np.abs(dvec) ** 2
    diff = p[:, None] - starts[None, :]
    t = np.clip((diff * np.conj(dvec)[None, :]).real / dd[None, :], 0.0, 1.0)
    d_all = np.abs(diff - t * dvec[None, :])
    ne = d_all.argmin(axis=1)
    return d_all[np.arange(p.size), ne], ne


@dataclass
class HarmonicMeasureAtlas:
    """Per-curve edge masses of the zero measures of the two products."""

    curves: tuple[JordanCurveApprox, ...]
    nu_u: tuple[np.ndarray, ...]
    nu_b: tuple[np.ndarray, ...]
    _c1_cache: dict = field(default_factory=dict, repr=False)

    def __post_init__(self):
        if not (len(self.curves) == len(self.nu_u) == len(self.nu_b)):
            raise ValueError("atlas tables must align with the curves")
        for c, mu, mb in zip(self.curves, self.nu_u, self.nu_b):
            if mu.shape != (c.n_edges,) or mb.shape != (c.n_edges,):
                raise ValueError("edge-mass vectors must have one entry per edge")

    def nu(self, i: int) -> np.ndarray:
        return self.nu_u[i] - self.nu_b[i]

    def u_count(self, i: int) -> float:
        return float(self.nu_u[i].sum())

    def b_count(self, i: int) -> float:
        return float(self.nu_b[i].sum())

    def validate_totals(self, tol: float = 1e-3) -> None:
        for i, c in enumerate(self.curves):
            for name, total in (("u", self.u_count(i)), ("b", self.b_count(i))):
                if abs(total - round(total)) > tol:
                    raise AtlasInconsistencyError(
                        f"curve {c.component_id}: nu_{name} total {total} is not an integer within {tol}"
                    )

    def max_arc_mass(self, i: int) -> float:
        """Largest |nu| mass of any arc from the start vertex: the observed
        value of the boundedness hypothesis on the difference measure.
        Reported per fixture, never assumed."""
        start = self.curves[i].start_vertex()
        order = np.roll(np.arange(self.curves[i].n_edges), -start)
        cum = np.cumsum(self.nu(i)[order])
        return float(np.abs(cum).max())

    def to_json(self) -> dict:
        return {
            "curves": [c.to_json() for c in self.curves],
            "nu_u": [[float(x) for x in v] for v in self.nu_u],
            "nu_b": [[float(x) for x in v] for v in self.nu_b],
        }


def build_atlas(
    u: ZeroList,
    b: ZeroList,
    curves: Sequence[JordanCurveApprox],
    n_samples: int = 10_000,
    rng: np.random.Generator | None = None,
    method: str = "auto",
    paired: bool = False,
) -> HarmonicMeasureAtlas:
    """Sum the per-zero harmonic measures into the two edge-mass tables.

    With ``paired=True`` (walk method, equal per-curve counts) the u- and
    b-zero walks share random streams, which sharply reduces the variance of
    the difference measure.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    nu_u: list[np.ndarray] = []
    nu_b: list[np.ndarray] = []
    for curve in curves:
        mu = np.zeros(curve.n_edges)
        mb = np.zeros(curve.n_edges)
        u_in = sorted((p for p in u.expanded_points() if curve.contains(p)), key=lambda w: (w.real, w.imag))
        b_in = sorted((p for p in b.expanded_points() if curve.contains(p)), key=lambda w: (w.real, w.imag))
        if paired and method == "walk" and len(u_in) == len(b_in):
            for pu, pb in zip(u_in, b_in):
                part_u, part_b = harmonic_measure_paired(pu, pb, curve, n_samples, rng)
                mu += part_u
                mb += part_b
        else:
            for p in u_in:
                mu += harmonic_measure(p, curve, n_samples, rng, method)
            for p in b_in:
                mb += harmonic_measure(p, curve, n_samples, rng, method)
        nu_u.append(mu)
        nu_b.append(mb)
    return HarmonicMeasureAtlas(tuple(curves), tuple(nu_u), tuple(nu_b))


def split_zeros_by_contour(u: ZeroList, curves: Sequence[JordanCurveApprox]) -> tuple[ZeroList, ZeroList]:
    """u1: zeros strictly inside some curve and hyperbolically deeper than 1;
    u2: everything else."""
    deep: list[complex] = []
    rest: list[complex] = []
    for p in u.expanded_points():
        chosen = rest
        for c in curves:
            if c.contains(p):
                rho = np.abs((p - c.points) / (1.0 - np.conj(c.points) * p))
                beta = float((np.log1p(rho) - np.log1p(-rho)).min())
                if beta > 1.0:
                    chosen = deep
                break
        chosen.append(p)
    return ZeroList.from_points(deep), ZeroList.from_points(rest)


def place_representatives(atlas: HarmonicMeasureAtlas) -> ZeroList:
    """One representative per unit of nu_u mass: split each curve into unit-mass
    arcs from the fixed start vertex and take each arc's mass median."""
    atlas.validate_totals()
    reps: list[complex] = []
    for i, curve in enumerate(atlas.curves):
        total = atlas.u_count(i)
        n_k = round(total)
        if n_k == 0:
            continue
        start = curve.start_vertex()
        order = np.roll(np.arange(curve.n_edges), -start)
        masses = atlas.nu_u[i][order] * (n_k / total)
        starts = curve.edge_starts()[order]
        ends = curve.edge_ends()[order]
        cum = np.concatenate([[0.0], np.cumsum(masses)])
        for j in range(n_k):
            target = j + 0.5
            e = int(np.searchsorted(cum, target, side="right") - 1)
            e = min(e, curve.n_edges - 1)
            frac = (target - cum[e]) / masses[e] if masses[e] > 0 else 0.5
            reps.append(complex(starts[e] + frac * (ends[e] - starts[e])))
    return ZeroList.from_points(reps)


def log_quotient_via_contour(
    u: ZeroList,
    b: ZeroList,
    atlas: HarmonicMeasureAtlas,
    z,
    z_ref: complex | None = None,
    start_vertices: Sequence[int] | None = None,
) -> complex:
    """A logarithm of u/b at an exterior point from the contour tables.

    Discretizes C1 - sum_j int nu(arc from the start point) [dxi/(xi - z)
    + dconj(xi)/((1 - conj(xi) z) conj(xi))], with the cumulative mass linear
    within each edge and 8-point Gauss-Legendre per edge.  C1 is calibrated
    once per atlas (and per start-point choice) at a reference exterior point
    and then held fixed; the default start of each curve is its vertex of
    minimal principal argument.
    """
    w = interior_value(z)
    for c in atlas.curves:
        if c.contains(w):
            raise ValueError("evaluation point must lie outside every curve")
    for i, c in enumerate(atlas.curves):
        uc, bc = atlas.u_count(i), atlas.b_count(i)
        if abs(uc - bc) > 1e-3:
            raise HypothesisViolationError(
                f"curve {c.component_id}: zero counts differ (u: {uc}, b: {bc})"
            )

    starts = (
        tuple(int(s) for s in start_vertices)
        if start_vertices is not None
        else tuple(c.start_vertex() for c in atlas.curves)
    )
    if len(starts) != len(atlas.curves):
        raise ValueError("need one start vertex per curve")
    key = (starts, None if z_ref is None else complex(z_ref))
    if key not in atlas._c1_cache:
        ref = _default_reference(atlas) if z_ref is None else complex(z_ref)
        direct = complex(np.log(evaluate_grid(u, np.array([ref]))[0] / evaluate_grid(b, np.array([ref]))[0]))
        atlas._c1_cache[key] = direct - _contour_integrals(atlas, ref, starts)
    return atlas._c1_cache[key] + _contour_integrals(atlas, w, starts)


def _default_reference(atlas: HarmonicMeasureAtlas) -> complex:
    r = 0.5 * (1.0 + max(float(np.abs(c.points).max()) for c in atlas.curves))
    golden = 2.0 * math.pi * (1.0 - 1.0 / ((1.0 + math.sqrt(5.0)) / 2.0))
    for k in range(64):
        cand = r * complex(math.cos(k * golden), math.sin(k * golden))
        if all(not c.contains(cand) for c in atlas.curves):
            return cand
    raise ValueError("no exterior reference point found; pass z_ref explicitly")


def _contour_integrals(atlas: HarmonicMeasureAtlas, z: complex, starts: Sequence[int]) -> complex:
    total = 0.0j
    for i, curve in enumerate(atlas.curves):
        order = np.roll(np.arange(curve.n_edges), -int(starts[i]))
        nu_edges = atlas.nu(i)[order]
        edge_starts = curve.edge_starts()[order]
        d = (curve.edge_ends() - curve.edge_starts())[order]
        cum0 = np.concatenate([[0.0], np.cumsum(nu_edges)])[:-1]
        # t in (0, 1) along each edge; cumulative mass cum0 + t * nu_edge
        t = 0.5 * (_GL8_NODES + 1.0)
        wts = 0.5 * _GL8_WEIGHTS
        xi = edge_starts[:, None] + t[None, :] * d[:, None]
        nu_at = cum0[:, None] + t[None, :] * nu_edges[:, None]
        k1 = d[:, None] / (xi - z)
        k2 = np.conj(d)[:, None] / ((1.0 - np.conj(xi) * z) * np.conj(xi))
        total += -complex((nu_at * (k1 + k2) * wts[None, :]).sum())
    return total


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
    mass_floor: float = 1e-9,
) -> list[ArcCheck]:
    """Per-arc check of diam_rho(L) >= (inf_L |u|)^(1 / nu(L)).

    ``nu_curve`` holds the per-edge masses of the harmonic-measure sum over
    the zeros of u inside the curve.  Arcs are (start, stop) vertex index
    ranges, wrapping; (a, a) denotes the whole closed curve.  Arcs with no
    mass are vacuous and reported as skipped.
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
        if mass <= mass_floor:
            out.append(ArcCheck((a, b_idx), 0.0, 0.0, mass, 0.0, 0.0, True))
            continue
        rho = np.abs((pts[:, None] - pts[None, :]) / (1.0 - np.conj(pts)[None, :] * pts[:, None]))
        diam = float(rho.max())
        inf_mod = float(np.abs(evaluate_grid(u, pts)).min())
        bound = inf_mod ** (1.0 / mass)
        out.append(ArcCheck((a, b_idx), diam, inf_mod, mass, bound, diam - bound, False))
    return out
