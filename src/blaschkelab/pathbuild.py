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

from .blaschke import ZeroList, _rational_product, check_boundary_clearance, eval_boundary, evaluate_grid
from .cauchy import PathMeasure, _segment_grid, cauchy_on_circle, gamma_constant
from .errors import CardinalityError, ContourThroughZeroError, RefinementExhaustedError
from .geometry import ORIGIN_FOLD, _hyperbolic_disks, _sample_arcs, _uncovered_spans
from .gridfn import BoundaryGridFunction, circle_nodes, harmonic_conjugate, winding_number

_PARTITION_CAP = 1 << 20
# step-size halvings of build_path's auto-refinement
_MAX_REFINEMENTS = 12
# the points per neighborhood circle of the certification, shared by
# build_path's start margin
_PTS_PER_CIRCLE = 256
# the arc points a certification block holds at most when its disks do not
# overlap: about 256 KB per complex temporary
_BLOCK_POINTS = 1 << 14
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
    step_norm: float  # max |b_{t_j} - b_{t_{j+1}} g_{j+1}| = max |1 - |g_{j+1}|| on the grid

    def g_interior(self, z: np.ndarray) -> np.ndarray:
        """The outer factor g, in closed form inside the disk and on the circle.

        g = conj(gamma) exp(-2 G(w)), where
        G(w) = sum_k [Log(1 - conj(a_k) w) - Log(1 - conj(b_k) w)] is the
        Hardy-space completion of conj(C(sigma)).  The exponent is an integer
        multiple of each Log, so the branch drops out and
        g = conj(gamma) R^2 with R = prod_k (1 - conj(b_k) w) / (1 - conj(a_k) w),
        a rational function with no log or exp.  On the circle it is the FFT
        route's h = e^{-i gamma + v + i v~} of ``outer_correction``, the
        independent cross-check; there |g| = b_{t_{j+1}} g / b_{t_j} gives the step norm.
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

    A step norm is max |1 - |g|| on the grid, g = ``PathStep.g_interior``, with
    no boundary trace (``_build_once``); a vertex's outer_log (``PathVertex``)
    is computed when first read, within about 1e-12 of the per-step FFT route.
    No step runs a Cauchy transform or FFT, so none raises ``GridTooCoarseError``;
    the FFT route cross-checks each completed round: sup |2 Im C(sigma_total) -
    (Re outer_log_total)~| must stay below ``functional_tol``.

    A round that provably fails that rule is dropped before it is finished
    or certified.  Let m0 be the start vertex's margin: the minimum over the
    groups of its neighborhood contours of min |b_{t_0}| (0 when a group hits
    a zero or cannot be resolved).  It comes from certification's routine
    ``_step_margins``, for the vertex as a one-step block with no target,
    which counts b_{t_0} alone, as every step does: m0 is segment 0's margin
    to the bit.
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
        (0.0 if isinstance(r, ContourThroughZeroError) else r[0] for *_, r, _ in _step_margins([start], [None])),
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
    bound in ``build_path``); the default bound never rejects.  On |w| = 1,
    1 - conj(z) w = w conj(w - z), so b_{t_{j+1}} g / b_{t_j} and |g| are both
    prod |b_k - w|^2 / |a_k - w|^2 over the pairs (a_k, b_k), conj(gamma) cancelling
    the unimodular constants (an origin zero's -1 and w too): a step norm is
    max |1 - |g||, with no trace.  ``check_boundary_clearance`` raises where one would."""
    ts = choose_partition(pairs, alpha)
    nodes = circle_nodes(n_grid)
    start = from_pts = interpolate_points(pairs, 0.0)
    zeros = ZeroList.from_points(start)
    check_boundary_clearance(zeros)
    phase = 0.0
    vertices = [PathVertex(zeros, 0.0, tuple(zip(start, start)), phase, n_grid)]
    steps: list[PathStep] = []
    for j, t1 in enumerate(ts[1:]):
        to_pts = interpolate_points(pairs, t1)
        step_pairs = tuple(zip(from_pts, to_pts))
        step = PathStep(step_pairs, gamma_constant(step_pairs), math.nan)
        zeros = ZeroList.from_points(to_pts)
        check_boundary_clearance(zeros)
        step_norm = float(np.abs(1.0 - np.abs(step.g_interior(nodes))).max())
        if step_norm >= start_margin / 2.0:
            return f"step {j} of {len(ts) - 1}: norm {step_norm:.3e} >= m0/2 = {start_margin / 2.0:.3e}"
        phase += float(np.angle(step.gamma))
        vertices.append(PathVertex(zeros, t1, tuple(zip(start, to_pts)), phase, n_grid))
        steps.append(replace(step, step_norm=step_norm))
        from_pts = to_pts

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


@dataclass(frozen=True, eq=False)
class ContourBlock:
    """The neighborhood contours of several zero sets, laid end to end: set
    by set, each set's components (groups) by their smallest member, each
    group's arcs disk by disk."""

    pts: np.ndarray  # every arc's samples
    arc_ends: np.ndarray  # the offset in pts after each arc
    group_ends: np.ndarray  # the offset in pts after each group
    group_set: np.ndarray  # the zero set of each group
    group_size: np.ndarray  # the members of each group, its expected count
    labels: np.ndarray  # [set, k]: the smallest member of the group of the set's k-th zero


def neighborhood_contours(o: np.ndarray, r: np.ndarray) -> ContourBlock:
    """Boundary arcs of the union of each row's disks (centres ``o``, radii
    ``r``, both of shape (sets, n)), grouped by component (disks within 1e-12
    of touching are joined), in one pass over all the rows: the arcs of
    ``geometry._uncovered_spans``, sampled by ``geometry._sample_arcs`` at
    ``_PTS_PER_CIRCLE`` points per full circle.  The rows of
    ``geometry._hyperbolic_disks(centers, 1.0)`` are the hyperbolic unit
    neighborhoods {beta(z, C) <= 1} of the rows C of ``centers``."""
    sets, n = r.shape
    diff = o[:, None, :] - o[:, :, None]
    near = np.hypot(diff.real, diff.imag) <= r[:, :, None] + r[:, None, :] + 1e-12
    labels = np.broadcast_to(np.arange(n), (sets, n))
    while not np.array_equal(nxt := np.where(near, labels[:, None, :], n).min(axis=2), labels):
        labels = nxt
    disk, a, b = _uncovered_spans(o, r)
    # a group is named by (set, smallest member); arcs go by group, its disks in order
    arc_key = (disk // n) * n + labels.ravel()[disk]
    order = np.lexsort((disk, arc_key))
    disk, a, b, arc_key = disk[order], a[order], b[order], arc_key[order]
    pts, arc_ends = _sample_arcs(o.ravel()[disk], r.ravel()[disk], a, b, _PTS_PER_CIRCLE)
    group_set, root = np.nonzero(labels == np.arange(n))
    group_key = group_set * n + root
    group_ends = np.append(0, arc_ends)[np.searchsorted(arc_key, group_key, side="right")]
    group_size = np.bincount((np.arange(sets)[:, None] * n + labels).ravel(), minlength=sets * n)[group_key]
    return ContourBlock(pts, arc_ends, group_ends, group_set, group_size, labels)


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
    vertex the same way, as a step with B = A.  The steps are taken in
    blocks (``_step_margins``).
    """
    checks: list[SampleCheck] = []
    failures: list[str] = []
    eps_observed = eps_certified = math.inf
    steps = path.steps or [None]
    for j, gi, expected, result, slack in _step_margins([v.zeros_t for v in path.vertices[: len(steps)]], steps):
        where = f"segment {j}, group {gi}"
        eps_certified = min(eps_certified, slack)
        if isinstance(result, ContourThroughZeroError):
            failures.append(f"{where}: {result}")
            eps_observed = 0.0
        else:
            margin, count = result
            eps_observed = min(eps_observed, margin)
            checks.append(SampleCheck(j, gi, margin, slack, count, expected))
            if margin <= 0.0:
                failures.append(f"{where}: margin {margin:.3e} <= 0")
            if count != expected:
                failures.append(f"{where}: count {count} != {expected}")
        if not slack > 0.0:
            failures.append(f"{where}: Rouche slack {slack:.3e} <= 0, |B - A| >= |A| on the arcs")
    return CertificationReport(not failures, tuple(failures), eps_observed, eps_certified, tuple(checks))


def _step_margins(
    zero_sets: Sequence[ZeroList], steps: Sequence[PathStep | None]
) -> list[tuple[int, int, int, tuple[float, int] | ContourThroughZeroError, float]]:
    """(step, group, expected count, result, slack) for each group of the
    neighborhood contours of each step's Z(A), A the product of its zero set:
    the margin and winding count of A on the group, or the
    ContourThroughZeroError of that count, and the Rouche slack
    min(|A| - |B - A|) over its arc samples, B = ``step.target``; a vertex
    is a step with B = A, whose slack is min |A|.  The zero sets must have
    equal sizes n, as a path's vertices do.

    The steps are taken in blocks of at most ``_BLOCK_POINTS`` / (n (P + 1))
    steps, P = ``_PTS_PER_CIRCLE``: a lone disk's circle has P + 1 points,
    so a block holds about ``_BLOCK_POINTS`` arc points or fewer.  Per block,
    one ``neighborhood_contours`` call lays out every group's arcs; A and B
    are evaluated once per step, on that step's arcs; the slacks are reduced
    per group; and one ``gridfn.winding_number`` call counts every group on
    A's values.
    """
    centers = np.array([z.expanded_points() for z in zero_sets], dtype=np.complex128).reshape(len(zero_sets), -1)
    n = centers.shape[1]
    if n == 0:
        return []
    o, r = _hyperbolic_disks(centers, 1.0)
    per_block = max(1, _BLOCK_POINTS // (n * (_PTS_PER_CIRCLE + 1)))
    out = []
    for lo in range(0, len(steps), per_block):
        block = neighborhood_contours(o[lo : lo + per_block], r[lo : lo + per_block])
        pts, group_set = block.pts, block.group_set
        a, b = np.empty_like(pts), np.empty_like(pts)
        step_ends = block.group_ends[np.searchsorted(group_set, np.arange(group_set[-1] + 1), side="right") - 1]
        begin = 0
        for k, end in enumerate(step_ends.tolist()):
            step, w = steps[lo + k], pts[begin:end]
            a[begin:end] = evaluate_grid(zero_sets[lo + k], w)
            b[begin:end] = a[begin:end] if step is None else step.target(w)
            begin = end
        slack = np.abs(a) - np.abs(b - a)
        starts = np.append(0, block.group_ends[:-1])
        evaluators = [lambda w, z=zero_sets[lo + k]: evaluate_grid(z, w) for k in range(step_ends.size)]
        results = winding_number([evaluators[k] for k in group_set.tolist()], pts, a, block.arc_ends, block.group_ends)
        first = np.searchsorted(group_set, group_set)
        out += zip(
            (lo + group_set).tolist(),
            (np.arange(group_set.size) - first).tolist(),
            block.group_size.tolist(),
            results,
            np.minimum.reduceat(slack, starts).tolist(),
        )
    return out
