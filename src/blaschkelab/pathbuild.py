"""Certified polygonal paths between products with matched zeros.

The construction interpolates matched zeros linearly, splits [0, 1] so each
step moves every zero less than a caller-chosen hyperbolic amount, corrects
each step by an invertible outer factor, and certifies the resulting segments
by modulus margins and winding counts on the boundary of the hyperbolic
unit-neighborhood of the current zeros.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .blaschke import ZeroList, eval_boundary, evaluate_grid
from .cauchy import PathMeasure, _segment_grid, cauchy_on_circle, gamma_constant
from .errors import CardinalityError, ContourThroughZeroError, RefinementExhaustedError
from .gridfn import BoundaryGridFunction, circle_nodes, harmonic_conjugate

_PARTITION_CAP = 1 << 20
# step-size halvings of build_path's auto-refinement
_MAX_REFINEMENTS = 12
# the certification's settings, shared by build_path's start margin: the cap on
# the relative jump of f between consecutive contour samples (winding safety),
# the points per neighborhood circle and the distinct points per component
_ETA = 0.5
_PTS_PER_CIRCLE = 256
_MAX_PTS_PER_LOOP = 1 << 16
#: The s-samples of each certified segment, as Python floats (``path_moduli.csv`` prints them).
SEGMENT_S_SAMPLES = (0.0, 0.25, 0.5, 0.75, 1.0)
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
        w = np.asarray(z, dtype=np.complex128)
        r = np.ones(w.shape, dtype=np.complex128)
        for a, b in self.pairs:
            r *= (1.0 - b.conjugate() * w) / (1.0 - a.conjugate() * w)
        return np.conj(self.gamma) * r * r


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
    must stay below ``functional_tol``.

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
        vertex = PathVertex(z, 0.0, tuple(pairs), 0.0, n_grid)
        return PolygonalPath([vertex], [], n_grid, 0.0)

    if alpha is not None:
        return _build_once(pairs, alpha, n_grid, functional_tol)

    start = ZeroList.from_points(interpolate_points(pairs, 0.0))
    m0 = min(
        (0.0 if isinstance(r, ContourThroughZeroError) else r[0] for _, r in _vertex_margins(start)),
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

    # FFT cross-check of the closed form: 2 Im C(sigma_total) - (log |g|)~
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


def _boundary_arcs(disks: list[tuple[complex, float]], pts_per_circle: int) -> list[np.ndarray]:
    """The arcs bounding the union of Euclidean disks, each sampled with both
    of its ends; an uncovered circle is the arc (0, 2 pi).

    Every arc runs counterclockwise on its own circle, so the union lies on
    its left, holes included: phase increments of f summed over all the arcs
    give the signed count of zeros of f in the union.
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

    arcs: list[np.ndarray] = []
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
        spans = [(0.0, two_pi)]
        if covered:
            merged = _merge_mod_intervals(covered)
            gaps = zip(merged, merged[1:] + [(merged[0][0] + two_pi, 0.0)])
            spans = [(b1, a2) for (_, b1), (a2, _) in gaps if a2 > b1 + 1e-12]
        for a, b in spans:
            n_pts = max(2, math.ceil(pts_per_circle * ((b - a) / two_pi)))
            arcs.append(o + r * np.exp(1j * (a + (b - a) * np.arange(n_pts + 1) / n_pts)))
    return arcs


@dataclass(frozen=True)
class ContourGroup:
    """One connected component of the union of hyperbolic unit disks."""

    member_indices: tuple[int, ...]
    arcs: tuple[np.ndarray, ...]
    expected_count: int


def neighborhood_contours(centers: Sequence[complex]) -> list[ContourGroup]:
    """Boundary arcs of the hyperbolic unit neighborhood {beta(z, centers) <= 1},
    grouped by component: each runs counterclockwise on its own circle
    (``_boundary_arcs``), sampled at ``_PTS_PER_CIRCLE`` points per full circle."""
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
    out = []
    for members in groups.values():
        arcs = _boundary_arcs([disks[i] for i in members], _PTS_PER_CIRCLE)
        out.append(ContourGroup(tuple(members), tuple(arcs), len(members)))
    return out


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


def certify_path(path: PolygonalPath) -> CertificationReport:
    """Certify every segment of the path by margins and winding counts.

    For each step j and each s of ``SEGMENT_S_SAMPLES``, the function
    b_{t_j} + s (b_{t_{j+1}} g_{j+1} - b_{t_j}) is sampled on the boundary of
    the hyperbolic unit neighborhood of Z(b_{t_j}): its modulus on the sampled
    set must stay positive and its winding count on each component must equal
    the zeros of b_{t_j} there, summed over the component's boundary arcs.
    ``_ETA`` = 0.5 caps the relative jump of f between consecutive contour
    samples (winding safety), and ``_MAX_PTS_PER_LOOP`` caps a component's
    distinct boundary points (``_loop_margin_count``).
    """
    checks: list[SampleCheck] = []
    failures: list[str] = []
    eps_observed = math.inf
    eps_vertices = math.inf

    if not path.steps:
        # constant path: verify the single vertex against its own contours,
        # the segment function with A = B at s = 0
        for gi, (group, result) in enumerate(_vertex_margins(path.vertices[0].zeros_t)):
            if isinstance(result, ContourThroughZeroError):
                raise result
            margin, count = result
            eps_observed = min(eps_observed, margin)
            eps_vertices = min(eps_vertices, margin)
            checks.append(SampleCheck(0, 0.0, gi, margin, count, group.expected_count))
            if count != group.expected_count:
                failures.append(f"vertex group {gi}: count {count} != {group.expected_count}")
        return CertificationReport(not failures, tuple(failures), eps_observed, eps_vertices, tuple(checks))

    for j, step in enumerate(path.steps):
        zeros_from = path.vertices[j].zeros_t
        zeros_to = path.vertices[j + 1].zeros_t
        centers = zeros_from.expanded_points()
        groups = neighborhood_contours(centers)

        def base(w: np.ndarray) -> np.ndarray:
            return evaluate_grid(zeros_from, w)

        def target(w: np.ndarray) -> np.ndarray:
            return evaluate_grid(zeros_to, w) * step.g_interior(w)

        for gi, group in enumerate(groups):
            results = _group_margin_count(base, target, group, SEGMENT_S_SAMPLES)
            for s, result in zip(SEGMENT_S_SAMPLES, results):
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


def _vertex_margins(zeros: ZeroList) -> list[tuple[ContourGroup, tuple[float, int] | ContourThroughZeroError]]:
    """Each group of the neighborhood contours of Z(b), with the margin and
    winding count of b itself on it: the segment function at s = 0, computed
    exactly as ``certify_path`` computes it for a segment starting at b."""
    return [
        (group, _group_margin_count(lambda w: evaluate_grid(zeros, w), None, group, (0.0,))[0])
        for group in neighborhood_contours(zeros.expanded_points())
    ]


def _group_margin_count(
    base: Callable[[np.ndarray], np.ndarray],
    target: Callable[[np.ndarray], np.ndarray] | None,
    group: ContourGroup,
    s_values: Sequence[float],
) -> list[tuple[float, int] | ContourThroughZeroError]:
    """Min modulus over the group's arcs plus the winding total, for each
    segment function f_s = A + s (B - A), A = base(w), B = target(w).

    f_s is affine in s, so A and B are evaluated once per group and every
    s-sample is formed from them; s = 0 is A itself and never needs the
    target (None is allowed when s_values is (0.0,)).  Each s refines the
    arcs on its own by ``_loop_margin_count``.  An s whose samples hit a zero
    of f_s gets (0.0, 0); one that needs more than ``_MAX_PTS_PER_LOOP``
    distinct points, or whose phase sum is not near an integer, gets its
    ContourThroughZeroError instead.
    """
    pts = np.concatenate(group.arcs)
    a = base(pts)
    b = None if all(s == 0.0 for s in s_values) else target(pts)
    out: list[tuple[float, int] | ContourThroughZeroError] = []
    for s in s_values:
        f, vals = (base, a) if s == 0.0 else (_segment_fn(base, target, s), a + s * (b - a))
        try:
            out.append(_loop_margin_count(f, group.arcs, vals))
        except ContourThroughZeroError as exc:
            out.append(exc)
    return out


def _segment_fn(base, target, s: float) -> Callable[[np.ndarray], np.ndarray]:
    """f_s = A + s (B - A) with A = base(w), B = target(w)."""

    def f(w: np.ndarray) -> np.ndarray:
        a = base(w)
        return a + s * (target(w) - a)

    return f


def _loop_margin_count(
    f: Callable[[np.ndarray], np.ndarray], arcs: Sequence[np.ndarray], vals: np.ndarray
) -> tuple[float, int]:
    """Min |f| over arcs that together form closed curves, and the winding
    number of f along them, given the values ``vals`` of f at the arcs' points
    laid end to end.

    No edge joins one arc's last point to the next arc's first.  An edge is
    bisected while the relative jump |f(p_{k+1}) - f(p_k)| / min(|f|) on it
    exceeds ``_ETA``, which caps every phase increment at arcsin(eta) and makes
    the sum of the increments unambiguous; f is evaluated at the inserted
    midpoints only.  A sample on a zero of f gives (0.0, 0).  Needing more
    than ``_MAX_PTS_PER_LOOP`` distinct points (the arcs' shared ends count once), or a
    phase sum farther than 0.1 from an integer, raises ContourThroughZeroError.
    """
    eta, max_pts = _ETA, _MAX_PTS_PER_LOOP
    pts = np.concatenate(arcs)
    last = np.zeros(pts.size, dtype=bool)  # marks each arc's last point
    last[np.cumsum([arc.size for arc in arcs]) - 1] = True
    while True:
        mods = np.abs(vals)
        low = float(mods.min())
        if low == 0.0:
            return 0.0, 0
        edges = ~last[:-1]
        jump = np.abs(vals[1:] - vals[:-1]) / np.minimum(mods[:-1], mods[1:])
        bad = np.nonzero(edges & (jump > eta))[0]
        if bad.size == 0:
            total = float(np.angle(vals[1:][edges] / vals[:-1][edges]).sum() / (2.0 * np.pi))
            count = round(total)
            if abs(total - count) > 0.1:
                raise ContourThroughZeroError(f"phase sum {total} over the contour is not near an integer")
            return low, count
        if pts.size - len(arcs) + bad.size > max_pts:
            raise ContourThroughZeroError(
                f"modulus {low:.3e} needs more than {max_pts} points for a safe winding count"
            )
        mids = 0.5 * (pts[bad] + pts[bad + 1])
        pts = np.insert(pts, bad + 1, mids)
        vals = np.insert(vals, bad + 1, f(mids))
        last = np.insert(last, bad + 1, False)
