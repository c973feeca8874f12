"""Certified polygonal paths between products with matched zeros.

The construction interpolates matched zeros linearly, splits [0, 1] so each
step moves every zero less than a caller-chosen hyperbolic amount, corrects
each step by an invertible outer factor, and certifies each resulting
segment for every s at once by Rouche's theorem: a pointwise inequality and
one winding count on the boundary of the hyperbolic unit-neighborhood of the
current zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .blaschke import ZeroList, _rational_product, eval_boundary, evaluate_grid
from .cauchy import PathMeasure, _segment_grid, cauchy_on_circle, gamma_constant
from .errors import CardinalityError, ContourThroughZeroError, RefinementExhaustedError
from .geometry import ORIGIN_FOLD
from .gridfn import BoundaryGridFunction, circle_nodes, harmonic_conjugate, winding_number

_PARTITION_CAP = 1 << 20
# step-size halvings of build_path's auto-refinement
_MAX_REFINEMENTS = 12
# the points per neighborhood circle of the certification, shared by
# build_path's start margin
_PTS_PER_CIRCLE = 256
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def interpolate_points(pairs: Sequence[tuple[complex, complex]], t: float) -> list[complex]:
    if t == 0.0:
        return [complex(a) for a, _ in pairs]
    if t == 1.0:
        return [complex(b) for _, b in pairs]
    return [complex(a) + t * (complex(b) - complex(a)) for a, b in pairs]


def _subchord_lengths(pairs: Sequence[tuple[complex, complex]], ts: np.ndarray) -> np.ndarray:
    """Hyperbolic lengths of each pair's chord piece over each subinterval.

    Returns an array of shape (n_pairs, n_intervals); the metric 2|dz|/(1-|z|^2)
    is integrated with 16-point Gauss-Legendre, which is ample for the smooth
    integrand of a chord between interior points.
    """
    a = np.array([complex(p) for p, _ in pairs])[:, None, None]
    d = np.array([complex(q) - complex(p) for p, q in pairs])[:, None, None]
    t0 = ts[:-1][None, :, None]
    half = 0.5 * (ts[1:] - ts[:-1])[None, :, None]
    nodes = t0 + half * (_GL_NODES[None, None, :] + 1.0)
    z = a + nodes * d
    integrand = 2.0 * np.abs(d) / (1.0 - np.abs(z) ** 2)
    return (integrand * _GL_WEIGHTS[None, None, :]).sum(axis=2) * half[:, :, 0]


def choose_partition(pairs: Sequence[tuple[complex, complex]], alpha: float) -> list[float]:
    """Partition of [0, 1] so every zero moves hyperbolically less than alpha
    within each subinterval, by doubling until the chord-length bound clears."""
    if not alpha > 0.0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if not pairs:
        return [0.0, 1.0]
    n = 1
    while n <= _PARTITION_CAP:
        ts = np.linspace(0.0, 1.0, n + 1)
        if float(_subchord_lengths(pairs, ts).max()) < alpha:
            return [float(t) for t in ts]
        n *= 2
    raise RefinementExhaustedError(f"no partition below {_PARTITION_CAP} intervals reaches alpha = {alpha}")


@dataclass(frozen=True)
class PathVertex:
    """One vertex b_t * exp(outer_log) of the polygonal path.

    The step factors ``PathStep.g_interior`` telescope, so outer_log is
    2 sum_k [Log(1 - conj(z_k(t)) w) - Log(1 - conj(z_k(0)) w)] - i phase over
    the ``chords`` (z_k(0), z_k(t)), computed on first read.  Each Log has
    imaginary part in (-pi/2, pi/2), so principal branches telescope exactly;
    ``phase`` is the running sum of the steps' arg(gamma_j), whose branch
    arg of the product of the gammas would lose past pi.
    """

    zeros_t: ZeroList
    t: float
    chords: tuple[tuple[complex, complex], ...]
    phase: float
    n_grid: int

    @cached_property
    def outer_log(self) -> BoundaryGridFunction:
        nodes = circle_nodes(self.n_grid)
        out = np.zeros(self.n_grid, dtype=np.complex128)
        for z0, zt in self.chords:
            if zt != z0:
                out += _segment_grid(zt.conjugate(), z0.conjugate(), nodes)
        return BoundaryGridFunction(2.0 * out - 1j * self.phase)

    def trace(self) -> np.ndarray:
        return eval_boundary(self.zeros_t, self.n_grid).samples * np.exp(self.outer_log.samples)


@dataclass(frozen=True)
class PathStep:
    """The outer-corrected step from vertex j to vertex j+1."""

    pairs: tuple[tuple[complex, complex], ...]
    gamma: complex  # gamma_constant(pairs)
    step_norm: float  # || b_{t_j} - b_{t_{j+1}} g_{j+1} || on the grid

    def g_interior(self, z: np.ndarray) -> np.ndarray:
        """The outer factor g, in closed form inside the disk and on the circle.

        g = conj(gamma) exp(-2 G(w)), where
        G(w) = sum_k [Log(1 - conj(a_k) w) - Log(1 - conj(b_k) w)] is the
        Hardy-space completion of conj(C(sigma)).  The exponent is an integer
        multiple of each Log, so the branch drops out and
        g = conj(gamma) R^2 with R = prod_k (1 - conj(b_k) w) / (1 - conj(a_k) w),
        a rational function with no log or exp.  On the circle it is the FFT
        route's h = e^{-i gamma + v + i v~} of ``outer_correction``, the
        independent cross-check.
        """
        r = _rational_product(1.0, [(1.0, b.conjugate(), 1.0, a.conjugate()) for a, b in self.pairs], z)
        return np.conj(self.gamma) * r * r

    def target(self, z: np.ndarray) -> np.ndarray:
        """b_{t_{j+1}} g, the end product times the step's outer factor, as
        one rational function.  One factor (1 - conj(b_k) w) of g = conj(gamma) R^2
        cancels b_{t_{j+1}}'s denominator, so over the pairs (a_k, b_k)
        b_{t_{j+1}} g = conj(gamma) prod_k (conj(b_k)/|b_k|) (b_k - w)(1 - conj(b_k) w) / (1 - conj(a_k) w)^2.
        A to-point within ``ORIGIN_FOLD`` of 0 is an origin zero of
        b_{t_{j+1}}: its end factor is w, as in ``evaluate_grid``, and its
        pair gives w (1 - conj(b_k) w)^2 / (1 - conj(a_k) w)^2."""
        scale = self.gamma.conjugate()
        factors: list[tuple[complex, ...]] = []
        for a, b in self.pairs:
            rest = (1.0, b.conjugate(), 1.0, a.conjugate())
            if abs(b) < ORIGIN_FOLD:
                factors += [(0.0, -1.0, 1.0, a.conjugate()), rest, (1.0, b.conjugate(), 1.0, 0.0)]
            else:
                scale *= b.conjugate() / abs(b)
                factors += [(b, 1.0, 1.0, a.conjugate()), rest]
        return _rational_product(scale, factors, z)


@dataclass
class PolygonalPath:
    """Vertices plus per-step data; certification is attached after the fact."""

    vertices: list[PathVertex]
    steps: list[PathStep]
    grid_size: int
    functional_sup: float  # sup of the accumulated 2 Im C(sigma) - (log|g|)~
    certification: "CertificationReport | None" = None

    def __post_init__(self):
        ts = [v.t for v in self.vertices]
        if len(ts) > 1:
            if ts[0] != 0.0 or ts[-1] != 1.0 or any(b <= a for a, b in zip(ts, ts[1:])):
                raise ValueError(f"vertex parameters must increase strictly from 0 to 1, got {ts}")

    @property
    def outer_log_total(self) -> BoundaryGridFunction:
        return self.vertices[-1].outer_log


def build_path(
    z: ZeroList,
    z_star: ZeroList,
    alpha: float | None = None,
    n_grid: int = 4096,
    functional_tol: float = 1e-6,
) -> PolygonalPath:
    """Build the polygonal path from z to the reordered z_star.

    The zero lists must already be matched: the k-th expanded point of z pairs
    with the k-th expanded point of z_star.  With alpha=None the step size
    starts at 0.5 and is halved, at most ``_MAX_REFINEMENTS`` = 12 times,
    until ``certify_path`` succeeds and every step norm is below half the
    observed margin constant.

    Step norms use the closed-form factor ``PathStep.g_interior``, and a
    vertex's outer_log (``PathVertex``) is computed when first read, within
    about 1e-12 of the per-step FFT route.  No step runs a Cauchy transform
    or FFT, so none raises ``GridTooCoarseError``; the FFT route cross-checks
    each completed round: sup |2 Im C(sigma_total) - (Re outer_log_total)~|
    must stay below ``functional_tol``.  Certification takes each step in
    one pass (see ``certify_path``).

    A round that provably fails that rule is dropped before it is finished
    or certified.  Let m0 be the start vertex's margin: the minimum over the
    groups of its neighborhood contours of min |b_{t_0}| (0 when a group hits
    a zero or cannot be resolved).  It comes from certification's per-step
    routine, for the vertex as a step with no target, which counts b_{t_0}
    alone, as every step does: m0 is segment 0's margin to the bit.
    eps_observed is the minimum of all the steps' margins, so
    eps_observed <= m0, and acceptance needs
    step_norm < eps_observed / 2 for every step.  A step with
    step_norm >= m0 / 2 therefore rejects the round, and the round stops at
    the first such step.  Vertex 0 is the same in every round, so m0 is
    computed once; the halving sequence, and the path returned, are those of
    building and certifying every round in full.
    """
    pts_a = z.expanded_points()
    pts_b = z_star.expanded_points()
    if len(pts_a) != len(pts_b):
        raise CardinalityError(f"total multiplicities differ: {len(pts_a)} vs {len(pts_b)}")
    pairs = list(zip(pts_a, pts_b))

    if all(a == b for a, b in pairs):
        vertex = PathVertex(z, 0.0, tuple(pairs), 0.0, n_grid)
        return PolygonalPath([vertex], [], n_grid, 0.0)

    if alpha is not None:
        return _build_once(pairs, alpha, n_grid, functional_tol)

    start = ZeroList.from_points(interpolate_points(pairs, 0.0))
    m0 = min(
        (0.0 if isinstance(r, ContourThroughZeroError) else r[0] for _, r, _ in _step_margins(start, None)),
        default=math.inf,
    )
    alphas: list[float] = []
    last_failures: tuple[str, ...] = ()
    alpha_cur = 0.5
    for _ in range(_MAX_REFINEMENTS + 1):
        alphas.append(alpha_cur)
        built = _build_once(pairs, alpha_cur, n_grid, functional_tol, start_margin=m0)
        if isinstance(built, str):
            last_failures = (built,)
        else:
            report = certify_path(built)
            eps = report.eps_observed
            if report.ok and all(s.step_norm < eps / 2.0 for s in built.steps):
                built.certification = report
                return built
            last_failures = report.failures + tuple(
                f"step {j}: norm {s.step_norm:.3e} >= eps_observed/2 = {eps / 2.0:.3e}"
                for j, s in enumerate(built.steps)
                if not s.step_norm < eps / 2.0
            )
        alpha_cur /= 2.0
    raise RefinementExhaustedError(
        f"step norms did not drop below half the observed margin within {_MAX_REFINEMENTS} halvings",
        alphas=tuple(alphas),
        last_failures=last_failures,
    )


def _build_once(
    pairs: list[tuple[complex, complex]],
    alpha: float,
    n_grid: int,
    functional_tol: float,
    start_margin: float = math.inf,
) -> PolygonalPath | str:
    """One round at step size alpha.  Returns, instead of the path, the reason
    the round is rejected once a step norm reaches ``start_margin / 2`` (the
    bound in ``build_path``); the default bound never rejects."""
    ts = choose_partition(pairs, alpha)
    nodes = circle_nodes(n_grid)
    start = from_pts = interpolate_points(pairs, 0.0)
    zeros = ZeroList.from_points(start)
    from_trace = eval_boundary(zeros, n_grid).samples
    phase = 0.0
    vertices = [PathVertex(zeros, 0.0, tuple(zip(start, start)), phase, n_grid)]
    steps: list[PathStep] = []
    for j, t1 in enumerate(ts[1:]):
        to_pts = interpolate_points(pairs, t1)
        step_pairs = tuple(zip(from_pts, to_pts))
        step = PathStep(step_pairs, gamma_constant(step_pairs), math.nan)
        zeros = ZeroList.from_points(to_pts)
        to_trace = eval_boundary(zeros, n_grid).samples
        step_norm = float(np.abs(from_trace - to_trace * step.g_interior(nodes)).max())
        if step_norm >= start_margin / 2.0:
            return f"step {j} of {len(ts) - 1}: norm {step_norm:.3e} >= m0/2 = {start_margin / 2.0:.3e}"
        phase += float(np.angle(step.gamma))
        vertices.append(PathVertex(zeros, t1, tuple(zip(start, to_pts)), phase, n_grid))
        steps.append(replace(step, step_norm=step_norm))
        from_pts, from_trace = to_pts, to_trace

    # Cross-check of the closed form: 2 Im C(sigma_total) - (log |g|)~.  Within
    # cauchy._SERIES_RADIUS, C(sigma_total) comes from power sums and one FFT,
    # while outer_log sums _segment_grid per chord, so two routes meet here.
    c_total = cauchy_on_circle(PathMeasure.from_pairs(pairs), n_grid).samples
    log_modulus = BoundaryGridFunction(vertices[-1].outer_log.samples.real)
    functional = float(np.abs(2.0 * c_total.imag - harmonic_conjugate(log_modulus).samples).max())
    if functional > functional_tol:
        raise RefinementExhaustedError(
            f"accumulated conjugation functional {functional:.3e} above {functional_tol:.1e}"
        )
    return PolygonalPath(vertices, steps, n_grid, functional)


# ---------------------------------------------------------------------------
# contours of hyperbolic unit neighborhoods and winding certification


def hyperbolic_circle_euclid(center: complex, beta_radius: float) -> tuple[complex, float]:
    """Euclidean center and radius of {z : beta(z, center) = beta_radius}."""
    rho = math.tanh(beta_radius / 2.0)
    ac2 = abs(center) ** 2
    den = 1.0 - rho * rho * ac2
    return center * (1.0 - rho * rho) / den, rho * (1.0 - ac2) / den


def _merge_mod_intervals(intervals: list[tuple[float, float]]) -> list[tuple[float, float]]:
    """Merge angle intervals on the circle; input half-widths are < pi."""
    two_pi = 2.0 * math.pi
    spans: list[tuple[float, float]] = []
    for a0, b0 in intervals:
        width = b0 - a0
        a = a0 % two_pi
        b = a + width
        if b <= two_pi:
            spans.append((a, b))
        else:
            spans.append((a, two_pi))
            spans.append((0.0, b - two_pi))
    spans.sort()
    merged: list[list[float]] = []
    for a, b in spans:
        if merged and a <= merged[-1][1] + 1e-12:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    # wrap-around join
    if len(merged) > 1 and merged[0][0] <= 1e-12 and merged[-1][1] >= two_pi - 1e-12:
        merged[0][0] = merged[-1][0] - two_pi
        merged.pop()
    return [(a, b) for a, b in merged]


def _uncovered_spans(disks: list[tuple[complex, float]]) -> list[tuple[complex, float, float, float]]:
    """The arcs bounding the union of Euclidean disks, as (center, radius,
    start angle, end angle); an uncovered circle is the span (0, 2 pi).

    Every arc runs counterclockwise on its own circle, so the union lies on
    its left, holes included: phase increments of f summed over all the arcs
    give the signed count of zeros of f in the union.  A disk within 1e-13
    of a kept earlier one is dropped, and so is a disk inside a larger one,
    or inside an equal one listed first.
    """
    two_pi = 2.0 * math.pi
    dist = [[abs(o2 - o) for o2, _ in disks] for o, _ in disks]
    uniq: list[int] = []
    for i, (_, r) in enumerate(disks):
        if not any(dist[i][j] < 1e-13 and abs(r - disks[j][1]) < 1e-13 for j in uniq):
            uniq.append(i)
    active = [
        i
        for i in uniq
        if not any(
            j != i and dist[i][j] + disks[i][1] <= disks[j][1] + 1e-15 and (disks[j][1], -j) > (disks[i][1], -i)
            for j in uniq
        )
    ]
    out = []
    for i in active:
        o, r = disks[i]
        covered = []
        for j in active:
            o2, r2 = disks[j]
            d = dist[i][j]
            if i == j or d >= r + r2 - 1e-15 or d + r2 <= r:
                continue
            phi = math.atan2((o2 - o).imag, (o2 - o).real)
            half = math.acos(min(1.0, max(-1.0, (d * d + r * r - r2 * r2) / (2.0 * d * r))))
            covered.append((phi - half, phi + half))
        if not covered:
            out.append((o, r, 0.0, two_pi))
            continue
        merged = _merge_mod_intervals(covered)
        for (_, b1), (a2, _) in zip(merged, merged[1:] + [(merged[0][0] + two_pi, 0.0)]):
            if a2 > b1 + 1e-12:
                out.append((o, r, b1, a2))
    return out


def _sample_arcs(spans: list[tuple[complex, float, float, float]], pts_per_circle: int) -> list[np.ndarray]:
    """Each span (center, radius, start, end) sampled with both of its ends,
    at ``pts_per_circle`` points per full circle; all the points of all the
    spans come from one array pass and one ``exp``."""
    two_pi = 2.0 * math.pi
    o, r, a, b = (np.array(col) for col in zip(*spans))
    n_pts = np.maximum(2, np.ceil(pts_per_circle * ((b - a) / two_pi)).astype(np.int64))
    sizes = n_pts + 1
    ends = np.cumsum(sizes)
    k = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
    theta = np.repeat(a, sizes) + np.repeat(b - a, sizes) * k / np.repeat(n_pts, sizes)
    pts = np.repeat(o, sizes) + np.repeat(r, sizes) * np.exp(1j * theta)
    return [pts[e - n : e] for e, n in zip(ends.tolist(), sizes.tolist())]


@dataclass(frozen=True)
class ContourGroup:
    """One connected component of the union of hyperbolic unit disks."""

    member_indices: tuple[int, ...]
    arcs: tuple[np.ndarray, ...]
    expected_count: int


def neighborhood_contours(centers: Sequence[complex]) -> list[ContourGroup]:
    """Boundary arcs of the hyperbolic unit neighborhood {beta(z, centers) <= 1},
    grouped by component: each runs counterclockwise on its own circle
    (``_uncovered_spans``), sampled at ``_PTS_PER_CIRCLE`` points per full
    circle, the arcs of all components in one pass (``_sample_arcs``)."""
    disks = [hyperbolic_circle_euclid(complex(c), 1.0) for c in centers]
    n = len(disks)
    parent = list(range(n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            oi, ri = disks[i]
            oj, rj = disks[j]
            if abs(oi - oj) <= ri + rj + 1e-12:
                parent[find(i)] = find(j)

    groups: dict[int, list[int]] = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    spans = [_uncovered_spans([disks[i] for i in members]) for members in groups.values()]
    arcs = iter(_sample_arcs([s for group in spans for s in group], _PTS_PER_CIRCLE) if n else ())
    return [
        ContourGroup(tuple(members), tuple(next(arcs) for _ in group), len(members))
        for members, group in zip(groups.values(), spans)
    ]


@dataclass(frozen=True)
class SampleCheck:
    segment: int
    group: int
    margin: float  # min |A| on the group's arcs, bisected points included
    slack: float  # min(|A| - |B - A|) over the group's arc samples
    count: int
    expected: int


@dataclass(frozen=True)
class CertificationReport:
    ok: bool
    failures: tuple[str, ...]
    eps_observed: float  # worst margin over all segments and groups
    eps_certified: float  # worst Rouche slack over all segments and groups
    checks: tuple[SampleCheck, ...]


def certify_path(path: PolygonalPath) -> CertificationReport:
    """Certify every segment of the path by Rouche's theorem.

    Step j's segment is f_s = A + s (B - A), s in [0, 1], with A = b_{t_j} and
    B = b_{t_{j+1}} g_{j+1}.  On each component of the hyperbolic unit
    neighborhood of Z(A), sampled on its boundary arcs, the step needs
    |B - A| < |A| at every sample (the Rouche slack min(|A| - |B - A|) is
    positive) and the winding count of A alone must equal the zeros of A
    there.  Then |f_s - A| <= s |B - A| < |A| on the arcs for every s at once,
    so each f_s has the zeros of A in each component (Henrici, Applied and
    Computational Complex Analysis vol. 1, 4.10); the inequality is checked
    at the samples, not between them.  A constant path certifies its one
    vertex the same way, as a step with B = A.

    Each step is one pass (``_step_margins``): A is evaluated once on the arcs
    of all its components, B once as the fused rational function
    ``PathStep.target``, and each component's count is one
    ``gridfn.winding_number`` call on A, which bisects an edge while the
    relative jump across it exceeds ``gridfn._ETA`` = 0.5 and caps a
    component's distinct boundary points at ``gridfn._MAX_PTS_PER_LOOP``.
    """
    checks: list[SampleCheck] = []
    failures: list[str] = []
    eps_observed = eps_certified = math.inf
    for j, step in enumerate(path.steps or [None]):
        for gi, (group, result, slack) in enumerate(_step_margins(path.vertices[j].zeros_t, step)):
            where = f"segment {j}, group {gi}"
            eps_certified = min(eps_certified, slack)
            if isinstance(result, ContourThroughZeroError):
                failures.append(f"{where}: {result}")
                eps_observed = 0.0
            else:
                margin, count = result
                eps_observed = min(eps_observed, margin)
                checks.append(SampleCheck(j, gi, margin, slack, count, group.expected_count))
                if margin <= 0.0:
                    failures.append(f"{where}: margin {margin:.3e} <= 0")
                if count != group.expected_count:
                    failures.append(f"{where}: count {count} != {group.expected_count}")
            if not slack > 0.0:
                failures.append(f"{where}: Rouche slack {slack:.3e} <= 0, |B - A| >= |A| on the arcs")
    return CertificationReport(not failures, tuple(failures), eps_observed, eps_certified, tuple(checks))


def _step_margins(
    zeros: ZeroList, step: PathStep | None
) -> list[tuple[ContourGroup, tuple[float, int] | ContourThroughZeroError, float]]:
    """Each group of the neighborhood contours of Z(A), A the product of
    ``zeros``, with the margin and winding count of A on it, or the
    ContourThroughZeroError of that count, and the Rouche slack
    min(|A| - |B - A|) over its arc samples, B = ``step.target``; a vertex is
    a step with B = A, whose slack is min |A|.

    A and B are evaluated once, on the arcs of all groups laid end to end.
    Each group's count is one ``gridfn.winding_number`` call on A's values: a
    sample on a zero of A gives (0.0, 0), and needing more than
    ``gridfn._MAX_PTS_PER_LOOP`` distinct points, or a phase sum not near an
    integer, gives the error.
    """
    groups = neighborhood_contours(zeros.expanded_points())
    if not groups:
        return []
    pts = np.concatenate([arc for group in groups for arc in group.arcs])
    a = evaluate_grid(zeros, pts)
    slack = np.abs(a) if step is None else np.abs(a) - np.abs(step.target(pts) - a)
    sizes = [sum(arc.size for arc in group.arcs) for group in groups]
    ends = np.cumsum(sizes)
    out = []
    for group, size, end, low in zip(groups, sizes, ends.tolist(), np.minimum.reduceat(slack, ends - sizes).tolist()):
        try:
            result = winding_number(lambda w: evaluate_grid(zeros, w), group.arcs, a[end - size : end])
        except ContourThroughZeroError as exc:
            result = exc
        out.append((group, result, low))
    return out
