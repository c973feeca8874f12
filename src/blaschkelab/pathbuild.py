"""Certified polygonal paths between products with matched zeros.

The construction interpolates matched zeros linearly, splits [0, 1] so each
step moves every zero less than a caller-chosen hyperbolic amount, corrects
each step by an invertible outer factor, and certifies the resulting segments
by modulus margins and winding counts on the boundary of the hyperbolic
unit-neighborhood of the current zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .blaschke import ZeroList, eval_boundary, evaluate_grid
from .cauchy import OuterCorrection, PathMeasure, cauchy_on_circle, outer_correction
from .errors import CardinalityError, ContourThroughZeroError, RefinementExhaustedError
from .geometry import as_complex
from .gridfn import BoundaryGridFunction, harmonic_conjugate, winding_number

_PARTITION_CAP = 1 << 20
# contour sampling of the certification, shared by build_path's start margin
_PTS_PER_CIRCLE = 256
_MAX_PTS_PER_LOOP = 1 << 16
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def interpolate_zeros(pairs: Sequence[tuple[complex, complex]], t: float) -> ZeroList:
    """Pointwise convex combination of the matched zeros at parameter t."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    return ZeroList.from_points(interpolate_points(pairs, t))


def interpolate_points(pairs: Sequence[tuple[complex, complex]], t: float) -> list[complex]:
    if t == 0.0:
        return [as_complex(a) for a, _ in pairs]
    if t == 1.0:
        return [as_complex(b) for _, b in pairs]
    return [as_complex(a) + t * (as_complex(b) - as_complex(a)) for a, b in pairs]


def _subchord_lengths(pairs: Sequence[tuple[complex, complex]], ts: np.ndarray) -> np.ndarray:
    """Hyperbolic lengths of each pair's chord piece over each subinterval.

    Returns an array of shape (n_pairs, n_intervals); the metric 2|dz|/(1-|z|^2)
    is integrated with 16-point Gauss-Legendre, which is ample for the smooth
    integrand of a chord between interior points.
    """
    a = np.array([as_complex(p) for p, _ in pairs])[:, None, None]
    d = np.array([as_complex(q) - as_complex(p) for p, q in pairs])[:, None, None]
    t0 = ts[:-1][None, :, None]
    half = 0.5 * (ts[1:] - ts[:-1])[None, :, None]
    nodes = t0 + half * (_GL_NODES[None, None, :] + 1.0)
    z = a + nodes * d
    integrand = 2.0 * np.abs(d) / (1.0 - np.abs(z) ** 2)
    return (integrand * _GL_WEIGHTS[None, None, :]).sum(axis=2) * half[:, :, 0]


def choose_partition(pairs: Sequence[tuple[complex, complex]], alpha: float) -> list[float]:
    """Partition of [0, 1] so every zero moves hyperbolically less than alpha
    within each subinterval, by doubling until the chord-length bound clears."""
    if alpha <= 0.0:
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
    """One vertex b_t * exp(outer_log) of the polygonal path."""

    zeros_t: ZeroList
    outer_log: BoundaryGridFunction
    t: float

    def trace(self) -> np.ndarray:
        return eval_boundary(self.zeros_t, self.outer_log.n).samples * np.exp(self.outer_log.samples)


@dataclass(frozen=True)
class PathStep:
    """The outer-corrected step from vertex j to vertex j+1."""

    pairs: tuple[tuple[complex, complex], ...]
    correction: OuterCorrection
    step_norm: float  # || b_{t_j} - b_{t_{j+1}} g_{j+1} || on the grid

    def g_interior(self, z: np.ndarray) -> np.ndarray:
        """The outer factor g evaluated inside the disk, in closed form.

        g = conj(gamma) exp(-2 G(w)), where
        G(w) = sum_k [Log(1 - conj(a_k) w) - Log(1 - conj(b_k) w)] is the
        Hardy-space completion of conj(C(sigma)).  The exponent is an integer
        multiple of each Log, so the branch drops out and
        g = conj(gamma) R^2 with R = prod_k (1 - conj(b_k) w) / (1 - conj(a_k) w),
        a rational function with no log or exp.  ``correction.h`` keeps the FFT
        route on the circle, the independent cross-check.
        """
        w = np.asarray(z, dtype=np.complex128)
        r = np.ones(w.shape, dtype=np.complex128)
        for a, b in self.pairs:
            r *= (1.0 - b.conjugate() * w) / (1.0 - a.conjugate() * w)
        return np.conj(self.correction.report.gamma) * r * r


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
    eta: float = 0.5,
    samples_per_segment: int = 5,
    max_refinements: int = 12,
    functional_tol: float = 1e-6,
) -> PolygonalPath:
    """Build the polygonal path from z to the reordered z_star.

    The zero lists must already be matched: the k-th expanded point of z pairs
    with the k-th expanded point of z_star.  With alpha=None the step size is
    halved until certification succeeds and every step norm is below half the
    observed margin constant.

    A round that provably fails that rule is dropped before it is finished
    or certified.  Let m0 be the start vertex's margin: the minimum over the
    groups of its neighborhood contours of min |b_{t_0}| (0 when a group hits
    a zero or cannot be resolved), computed exactly as ``certify_path``
    computes segment 0 at s = 0.  Segment 0 at s = 0 is one of the samples
    behind both eps_vertices and eps_observed, so
    eps_observed <= eps_vertices <= m0, and acceptance needs
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
        vertex = PathVertex(z, BoundaryGridFunction(np.zeros(n_grid)), 0.0)
        return PolygonalPath([vertex], [], n_grid, 0.0)

    if alpha is not None:
        return _build_once(pairs, alpha, n_grid, functional_tol)

    start = ZeroList.from_points(interpolate_points(pairs, 0.0))
    m0 = min(
        (0.0 if isinstance(r, ContourThroughZeroError) else r[0] for _, r in _vertex_margins(start, eta)),
        default=math.inf,
    )
    alphas: list[float] = []
    last_failures: tuple[str, ...] = ()
    alpha_cur = 0.5
    for _ in range(max_refinements + 1):
        alphas.append(alpha_cur)
        built = _build_once(pairs, alpha_cur, n_grid, functional_tol, start_margin=m0)
        if isinstance(built, str):
            last_failures = (built,)
        else:
            report = certify_path(built, eta=eta, samples_per_segment=samples_per_segment)
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
        f"step norms did not drop below half the observed margin within {max_refinements} halvings",
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
    outer_log = np.zeros(n_grid, dtype=np.complex128)
    v_sum = np.zeros(n_grid)
    vertices = [PathVertex(ZeroList.from_points(interpolate_points(pairs, 0.0)), BoundaryGridFunction(outer_log), 0.0)]
    steps: list[PathStep] = []
    for j, (t0, t1) in enumerate(zip(ts, ts[1:])):
        from_pts = interpolate_points(pairs, t0)
        to_pts = interpolate_points(pairs, t1)
        step_pairs = tuple(zip(from_pts, to_pts))
        oc = outer_correction(step_pairs, n_grid)
        if oc.report.closeness >= start_margin / 2.0:
            return f"step {j} of {len(ts) - 1}: norm {oc.report.closeness:.3e} >= m0/2 = {start_margin / 2.0:.3e}"
        outer_log = outer_log + oc.log_h()
        v_sum = v_sum + oc.v.samples
        vertices.append(PathVertex(ZeroList.from_points(to_pts), BoundaryGridFunction(outer_log), t1))
        steps.append(PathStep(step_pairs, oc, oc.report.closeness))

    # accumulated functional: 2 Im C(sigma_total) - (log |g|)~ telescopes
    c_total = cauchy_on_circle(PathMeasure.from_pairs(pairs), n_grid).samples
    conj_sum = harmonic_conjugate(BoundaryGridFunction(v_sum)).samples
    functional = float(np.abs(2.0 * c_total.imag - conj_sum).max())
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


def _union_boundary_loops(
    disks: list[tuple[complex, float]], pts_per_circle: int
) -> list[np.ndarray]:
    """Closed polylines bounding the union of Euclidean disks.

    Outer loops come out counterclockwise and holes clockwise, so signed
    winding numbers along all loops add up to counts over the union region.
    """
    two_pi = 2.0 * math.pi
    uniq: list[tuple[complex, float]] = []
    for o, r in disks:
        if not any(abs(o - o2) < 1e-13 and abs(r - r2) < 1e-13 for o2, r2 in uniq):
            uniq.append((o, r))
    active = []
    for i, (o, r) in enumerate(uniq):
        swallowed = False
        for j, (o2, r2) in enumerate(uniq):
            if i != j and abs(o - o2) + r <= r2 + 1e-15 and (r2, -j) > (r, -i):
                swallowed = True
                break
        if not swallowed:
            active.append((o, r))

    # uncovered arcs per circle
    arcs: list[tuple[int, float, float]] = []  # (circle index, start, end) CCW, end > start
    full_circles: list[int] = []
    for i, (o, r) in enumerate(active):
        covered: list[tuple[float, float]] = []
        for j, (o2, r2) in enumerate(active):
            if i == j:
                continue
            d = abs(o2 - o)
            if d >= r + r2 - 1e-15 or d + r2 <= r:
                continue
            phi = math.atan2((o2 - o).imag, (o2 - o).real)
            cos_half = (d * d + r * r - r2 * r2) / (2.0 * d * r)
            half = math.acos(min(1.0, max(-1.0, cos_half)))
            covered.append((phi - half, phi + half))
        if not covered:
            full_circles.append(i)
            continue
        merged = _merge_mod_intervals(covered)
        if len(merged) == 1 and merged[0][1] - merged[0][0] >= two_pi - 1e-12:
            continue  # circle covered by the union of the others
        for (a1, b1), (a2, _) in zip(merged, merged[1:] + [(merged[0][0] + two_pi, 0.0)]):
            if a2 > b1 + 1e-12:
                arcs.append((i, b1, a2))

    loops: list[np.ndarray] = []
    for i in full_circles:
        o, r = active[i]
        loops.append(o + r * np.exp(1j * two_pi * np.arange(pts_per_circle) / pts_per_circle))

    # splice arcs: the end of an arc is an entry point into the covering circle
    unused = set(range(len(arcs)))
    starts_by_circle: dict[int, list[tuple[float, int]]] = {}
    for idx, (ci, a, _) in enumerate(arcs):
        starts_by_circle.setdefault(ci, []).append((a % two_pi, idx))
    while unused:
        idx = min(unused)
        pieces: list[np.ndarray] = []
        while True:
            unused.discard(idx)
            ci, a, b = arcs[idx]
            o, r = active[ci]
            n_pts = max(2, int(math.ceil(pts_per_circle * (b - a) / two_pi)))
            angles = a + (b - a) * np.arange(n_pts) / n_pts
            pieces.append(o + r * np.exp(1j * angles))
            end_point = o + r * np.exp(1j * b)
            nxt = None
            best = math.inf
            for cj, (o2, r2) in enumerate(active):
                if cj == ci or cj not in starts_by_circle:
                    continue
                if abs(abs(end_point - o2) - r2) > 1e-9:
                    continue
                ang = math.atan2((end_point - o2).imag, (end_point - o2).real) % two_pi
                for a2, idx2 in starts_by_circle[cj]:
                    diff = abs((a2 - ang + math.pi) % two_pi - math.pi)
                    if diff < best:
                        best = diff
                        nxt = idx2
            if nxt is None or best > 1e-6:
                raise ContourThroughZeroError("could not splice union-boundary arcs; perturb the configuration")
            idx = nxt
            if idx not in unused:
                break
        loops.append(np.concatenate(pieces))
    return loops


@dataclass(frozen=True)
class ContourGroup:
    """One connected component of the union of hyperbolic unit disks."""

    member_indices: tuple[int, ...]
    loops: tuple[np.ndarray, ...]
    expected_count: int


def neighborhood_contours(
    centers: Sequence[complex], beta_radius: float = 1.0, pts_per_circle: int = _PTS_PER_CIRCLE
) -> list[ContourGroup]:
    """Boundary loops of {beta(z, centers) <= beta_radius}, grouped by component."""
    disks = [hyperbolic_circle_euclid(as_complex(c), beta_radius) for c in centers]
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
    out = []
    for members in groups.values():
        loops = _union_boundary_loops([disks[i] for i in members], pts_per_circle)
        out.append(ContourGroup(tuple(members), tuple(loops), len(members)))
    return out


def rouche_zero_count(
    f: Callable[[np.ndarray], np.ndarray],
    contour: np.ndarray,
    eta: float = 0.5,
    max_points: int = 1 << 17,
) -> int:
    """Zero count inside a closed polygonal contour by the argument principle,
    refined as the certification refines: an edge is bisected while the
    relative jump of f across it exceeds eta.  A sample on a zero of f raises
    ContourThroughZeroError, as does a count that needs more than
    ``max_points`` points."""
    pts = np.asarray(contour, dtype=np.complex128)
    low, count = _loop_margin_count(f, pts, f(pts), eta, max_points)
    if low == 0.0:
        raise ContourThroughZeroError("f vanishes at a contour sample")
    return count


@dataclass(frozen=True)
class SampleCheck:
    segment: int
    s: float
    group: int
    margin: float
    count: int
    expected: int


@dataclass(frozen=True)
class CertificationReport:
    ok: bool
    failures: tuple[str, ...]
    eps_observed: float   # worst margin over all segments, s-samples and groups
    eps_vertices: float   # worst margin of the vertex products alone
    checks: tuple[SampleCheck, ...]


def certify_path(
    path: PolygonalPath,
    eta: float = 0.5,
    samples_per_segment: int = 5,
    pts_per_circle: int = _PTS_PER_CIRCLE,
    max_pts_per_loop: int = _MAX_PTS_PER_LOOP,
) -> CertificationReport:
    """Certify every segment of the path by margins and winding counts.

    For each step j and each s in [0, 1], the function
    b_{t_j} + s (b_{t_{j+1}} g_{j+1} - b_{t_j}) is sampled on the boundary of
    the hyperbolic unit neighborhood of Z(b_{t_j}): its modulus on the sampled
    set must stay positive and its winding count on each component must equal
    the zeros of b_{t_j} there.  eta in (0, 1) caps the relative jump of f
    between consecutive contour samples (winding safety); smaller eta samples
    more densely.
    """
    if not 0.0 < eta < 1.0:
        raise ValueError(f"eta must lie in (0, 1), got {eta}")
    if samples_per_segment < 2 and path.steps:
        raise ValueError("need at least the two endpoint samples per segment")

    checks: list[SampleCheck] = []
    failures: list[str] = []
    eps_observed = math.inf
    eps_vertices = math.inf

    if not path.steps:
        # constant path: verify the single vertex against its own contours,
        # the segment function with A = B at s = 0
        vertex_margins = _vertex_margins(path.vertices[0].zeros_t, eta, pts_per_circle, max_pts_per_loop)
        for gi, (group, result) in enumerate(vertex_margins):
            if isinstance(result, ContourThroughZeroError):
                raise result
            margin, count = result
            eps_observed = min(eps_observed, margin)
            eps_vertices = min(eps_vertices, margin)
            checks.append(SampleCheck(0, 0.0, gi, margin, count, group.expected_count))
            if count != group.expected_count:
                failures.append(f"vertex group {gi}: count {count} != {group.expected_count}")
        return CertificationReport(not failures, tuple(failures), eps_observed, eps_vertices, tuple(checks))

    s_values = [float(s) for s in np.linspace(0.0, 1.0, samples_per_segment)]
    for j, step in enumerate(path.steps):
        zeros_from = path.vertices[j].zeros_t
        zeros_to = path.vertices[j + 1].zeros_t
        centers = zeros_from.expanded_points()
        groups = neighborhood_contours(centers, 1.0, pts_per_circle)

        def base(w: np.ndarray) -> np.ndarray:
            return evaluate_grid(zeros_from, w)

        def target(w: np.ndarray) -> np.ndarray:
            return evaluate_grid(zeros_to, w) * step.g_interior(w)

        for gi, group in enumerate(groups):
            results = _group_margin_count(base, target, group, s_values, eta, max_pts_per_loop)
            for s, result in zip(s_values, results):
                if isinstance(result, ContourThroughZeroError):
                    failures.append(f"segment {j}, s={s:.3f}, group {gi}: {result}")
                    eps_observed = 0.0
                    continue
                margin, count = result
                eps_observed = min(eps_observed, margin)
                if s == 0.0:
                    eps_vertices = min(eps_vertices, margin)
                checks.append(SampleCheck(j, s, gi, margin, count, group.expected_count))
                if margin <= 0.0:
                    failures.append(f"segment {j}, s={s:.3f}, group {gi}: margin {margin:.3e} <= 0")
                if count != group.expected_count:
                    failures.append(f"segment {j}, s={s:.3f}, group {gi}: count {count} != {group.expected_count}")
    return CertificationReport(not failures, tuple(failures), eps_observed, eps_vertices, tuple(checks))


def _vertex_margins(
    zeros: ZeroList,
    eta: float,
    pts_per_circle: int = _PTS_PER_CIRCLE,
    max_pts_per_loop: int = _MAX_PTS_PER_LOOP,
) -> list[tuple[ContourGroup, tuple[float, int] | ContourThroughZeroError]]:
    """Each group of the neighborhood contours of Z(b), with the margin and
    winding count of b itself on it: the segment function at s = 0, computed
    exactly as ``certify_path`` computes it for a segment starting at b."""
    groups = neighborhood_contours(zeros.expanded_points(), 1.0, pts_per_circle)
    return [
        (group, _group_margin_count(lambda w: evaluate_grid(zeros, w), None, group, (0.0,), eta, max_pts_per_loop)[0])
        for group in groups
    ]


def _group_margin_count(
    base: Callable[[np.ndarray], np.ndarray],
    target: Callable[[np.ndarray], np.ndarray] | None,
    group: ContourGroup,
    s_values: Sequence[float],
    eta: float,
    max_pts_per_loop: int,
) -> list[tuple[float, int] | ContourThroughZeroError]:
    """Min modulus over the group's loops plus the signed winding total, for
    each segment function f_s = A + s (B - A), A = base(w), B = target(w).

    f_s is affine in s, so A and B are evaluated once per loop and every
    s-sample is formed from them; s = 0 is A itself and never needs the
    target (None is allowed when s_values is (0.0,)).  Each s refines the loop
    on its own by ``_loop_margin_count``.  An s whose samples hit a zero of
    f_s gets (0.0, 0); one that needs more than ``max_pts_per_loop`` points
    gets its ContourThroughZeroError instead.  Either ends that s's scan of
    the remaining loops.
    """
    out: list[tuple[float, int] | ContourThroughZeroError] = [(math.inf, 0)] * len(s_values)
    for lp in group.loops:
        pts = np.asarray(lp)
        a = base(pts)
        b = None if all(s == 0.0 for s in s_values) else target(pts)
        for i, s in enumerate(s_values):
            if isinstance(out[i], ContourThroughZeroError) or out[i][0] == 0.0:
                continue
            f, vals = (base, a) if s == 0.0 else (_segment_fn(base, target, s), a + s * (b - a))
            try:
                low, count = _loop_margin_count(f, pts, vals, eta, max_pts_per_loop)
            except ContourThroughZeroError as exc:
                out[i] = exc
                continue
            out[i] = (0.0, 0) if low == 0.0 else (min(out[i][0], low), out[i][1] + count)
    return out


def _segment_fn(base, target, s: float) -> Callable[[np.ndarray], np.ndarray]:
    """f_s = A + s (B - A) with A = base(w), B = target(w)."""

    def f(w: np.ndarray) -> np.ndarray:
        a = base(w)
        return a + s * (target(w) - a)

    return f


def _loop_margin_count(
    f: Callable[[np.ndarray], np.ndarray], pts: np.ndarray, vals: np.ndarray, eta: float, max_pts: int
) -> tuple[float, int]:
    """Min |f| over a closed polyline and the winding number of f along it,
    given the values ``vals`` of f at its vertices ``pts``.

    An edge is bisected while the relative jump |f(p_{k+1}) - f(p_k)| / min(|f|)
    on it exceeds eta, which caps every phase increment at arcsin(eta) and
    makes the winding sum unambiguous; f is evaluated at the inserted
    midpoints only.  A sample on a zero of f gives (0.0, 0); needing more than
    ``max_pts`` points raises ContourThroughZeroError.
    """
    while True:
        mods = np.abs(vals)
        low = float(mods.min())
        if low == 0.0:
            return 0.0, 0
        nxt = np.roll(vals, -1)
        bad = np.nonzero(np.abs(nxt - vals) / np.minimum(mods, np.abs(nxt)) > eta)[0]
        if bad.size == 0:
            return low, winding_number(vals)
        if pts.size + bad.size > max_pts:
            raise ContourThroughZeroError(
                f"modulus {low:.3e} needs more than {max_pts} points for a safe winding count"
            )
        mids = 0.5 * (pts + np.roll(pts, -1))[bad]
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, f(mids))
