"""Tests for partition choice, path construction and winding certification."""

import collections
import functools
import importlib.util
import math
import re
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest

from blaschkelab import geometry, gridfn, pathbuild
from blaschkelab.acceptance import path_certification_instances
from blaschkelab.blaschke import ZeroList, eval_boundary, evaluate_grid
from blaschkelab.cauchy import PathMeasure, cauchy_on_circle, gamma_constant, outer_correction
from blaschkelab.config import DEFAULT_TOLERANCES, RunConfig
from blaschkelab.errors import ContourThroughZeroError, IllConditionedBoundaryError, RefinementExhaustedError
from blaschkelab.fixtures import adversarial_pair, random_matched_pair, random_point
from blaschkelab.geometry import ORIGIN_FOLD, hyper_distance, rho_from_beta
from blaschkelab.gridfn import BoundaryGridFunction, circle_nodes, harmonic_conjugate
from blaschkelab.matching import bottleneck_match
from blaschkelab.pathbuild import (
    CertificationReport,
    SampleCheck,
    build_path,
    certify_path,
    choose_partition,
    interpolate_points,
)
from test_blaschke import reference_product


class TestInterpolation:
    def test_endpoints_exact(self):
        pairs = [(0.1 + 0.2j, -0.3j)]
        assert interpolate_points(pairs, 0.0) == [0.1 + 0.2j]
        assert interpolate_points(pairs, 1.0) == [-0.3j]

    def test_midpoint(self):
        zl = ZeroList.from_points(interpolate_points([(0.0j, 0.5 + 0j)], 0.5))
        assert zl.zeros == ((0.25 + 0j, 1),)

    def test_interior_preserved(self):
        rng = np.random.default_rng(0)
        za, zb = random_matched_pair(rng, 10, 2.0, 0.95)
        pairs = list(zip(za.expanded_points(), zb.expanded_points()))
        for t in np.linspace(0, 1, 7):
            assert all(abs(p) < 1 for p in interpolate_points(pairs, float(t)))


class TestChoosePartition:
    def test_stationary_pairs_single_interval(self):
        assert choose_partition([(0.3, 0.3)], 0.5) == [0.0, 1.0]

    def test_coarse_alpha_single_interval(self):
        alpha = hyper_distance(0.0, 0.5) + 0.1
        assert choose_partition([(0.0j, 0.5 + 0j)], alpha) == [0.0, 1.0]

    def test_fine_alpha_verified_directly(self):
        alpha = 0.25
        ts = choose_partition([(0.0j, 0.5 + 0j)], alpha)
        assert len(ts) > 2
        # direct verification: dense t-sampling of each subinterval
        for a, b in zip(ts, ts[1:]):
            samples = [0.5 * t for t in np.linspace(a, b, 20)]
            diam = max(
                hyper_distance(p, q) for i, p in enumerate(samples) for q in samples[i + 1 :]
            )
            assert diam < alpha

    def test_uniform_over_pairs(self):
        pairs = [(0.0j, 0.1 + 0j), (0.5, 0.8)]  # second pair moves much farther
        ts = choose_partition(pairs, 0.3)
        for a, b in zip(ts, ts[1:]):
            for z0, z1 in pairs:
                path = [z0 + t * (z1 - z0) for t in np.linspace(a, b, 10)]
                diam = max(
                    hyper_distance(p, q) for i, p in enumerate(path) for q in path[i + 1 :]
                )
                assert diam < 0.3

    def test_alpha_positive_required(self):
        with pytest.raises(ValueError):
            choose_partition([(0.1, 0.2)], 0.0)

    def test_nan_alpha_rejected(self):
        with pytest.raises(ValueError):
            choose_partition([(0.1, 0.2)], math.nan)


# ---------------------------------------------------------------------------
# the per-step scalar geometry and winding count that the block routes
# replaced, kept as their reference


def _hyperbolic_circle_euclid(center, beta_radius):
    """Euclidean center and radius of {z : beta(z, center) = beta_radius}."""
    rho = math.tanh(beta_radius / 2.0)
    ac2 = abs(center) ** 2
    den = 1.0 - rho * rho * ac2
    return center * (1.0 - rho * rho) / den, rho * (1.0 - ac2) / den


def _merge_mod_intervals(intervals):
    """Merge angle intervals on the circle; input half-widths are < pi."""
    two_pi = 2.0 * math.pi
    spans = []
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
    merged = []
    for a, b in spans:
        if merged and a <= merged[-1][1] + 1e-12:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    # wrap-around join
    if len(merged) > 1 and merged[0][0] <= 1e-12 and merged[-1][1] >= two_pi - 1e-12:
        _merge_mod_intervals.joins += 1
        merged[0][0] = merged[-1][0] - two_pi
        merged.pop()
    return [(a, b) for a, b in merged]


_merge_mod_intervals.joins = 0


def _scalar_spans(disks):
    """The arcs bounding the union of Euclidean disks, as (center, radius,
    start angle, end angle), one disk pair at a time."""
    two_pi = 2.0 * math.pi
    dist = [[abs(o2 - o) for o2, _ in disks] for o, _ in disks]
    uniq = []
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


def _scalar_sample_arcs(spans, pts_per_circle):
    """Each span sampled with both of its ends, the spans of one step in one array pass."""
    two_pi = 2.0 * math.pi
    o, r, a, b = (np.array(col) for col in zip(*spans))
    n_pts = np.maximum(2, np.ceil(pts_per_circle * ((b - a) / two_pi)).astype(np.int64))
    sizes = n_pts + 1
    ends = np.cumsum(sizes)
    k = np.arange(ends[-1]) - np.repeat(ends - sizes, sizes)
    theta = np.repeat(a, sizes) + np.repeat(b - a, sizes) * k / np.repeat(n_pts, sizes)
    pts = np.repeat(o, sizes) + np.repeat(r, sizes) * np.exp(1j * theta)
    return [pts[e - n : e] for e, n in zip(ends.tolist(), sizes.tolist())]


Group = collections.namedtuple("Group", "member_indices arcs expected_count")


def _scalar_contours(disks, pts_per_circle):
    """One step's groups by the scalar route: a union-find over the disk
    pairs, groups by their smallest member, each group's spans."""
    n = len(disks)
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(n):
        for j in range(i + 1, n):
            (oi, ri), (oj, rj) = disks[i], disks[j]
            if abs(oi - oj) <= ri + rj + 1e-12:
                parent[find(i)] = find(j)
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    spans = [_scalar_spans([disks[i] for i in members]) for members in groups.values()]
    arcs = iter(_scalar_sample_arcs([s for group in spans for s in group], pts_per_circle) if n else ())
    return [
        Group(tuple(members), tuple(next(arcs) for _ in group), len(members))
        for members, group in zip(groups.values(), spans)
    ]


def _unit_disks(centers):
    return [_hyperbolic_circle_euclid(complex(c), 1.0) for c in centers]


def _groups_of(block):
    """Each zero set's groups, read off a ``ContourBlock``."""
    arcs = np.split(block.pts, block.arc_ends[:-1])
    stops = np.searchsorted(block.arc_ends, block.group_ends, side="right").tolist()
    roots = [np.unique(row).tolist() for row in block.labels]
    out = [[] for _ in roots]
    for k, start, stop, size in zip(block.group_set.tolist(), [0] + stops[:-1], stops, block.group_size.tolist()):
        members = tuple(np.flatnonzero(block.labels[k] == roots[k][len(out[k])]).tolist())
        out[k].append(Group(members, tuple(arcs[start:stop]), size))
    return out


def _groups(centers):
    """The groups of one zero set's neighborhood contours."""
    disks = geometry._hyperbolic_disks(np.array(centers, dtype=complex).reshape(1, -1), 1.0)
    return _groups_of(pathbuild.neighborhood_contours(*disks))[0]


def _assert_same_groups(got, want):
    assert [(g.member_indices, g.expected_count, len(g.arcs)) for g in got] == [
        (g.member_indices, g.expected_count, len(g.arcs)) for g in want
    ]
    for g, h in zip(got, want):
        for arc, ref in zip(g.arcs, h.arcs):
            np.testing.assert_array_equal(arc, ref)


def _count(f, arcs, vals):
    """``winding_number`` on one group of arcs: its result, or its error raised."""
    ends = np.cumsum([arc.size for arc in arcs])
    (result,) = gridfn.winding_number([f], np.concatenate(arcs), vals, ends, ends[-1:])
    if isinstance(result, ContourThroughZeroError):
        raise result
    return result


def _reference_winding(f, arcs, vals, eta=0.5, max_pts=1 << 16):
    """(min |f|, winding count) over one group's arcs by the per-group route:
    bisect while a relative jump exceeds eta, raise past max_pts points or on
    a phase sum off an integer."""
    pts = np.concatenate(arcs)
    last = np.zeros(pts.size, dtype=bool)
    last[np.cumsum([arc.size for arc in arcs]) - 1] = True
    while True:
        mods = np.abs(vals)
        low = float(mods.min())
        if low == 0.0:
            return 0.0, 0
        edges = ~last[:-1]
        jump = np.abs(vals[1:] - vals[:-1]) / np.minimum(mods[:-1], mods[1:])
        bad = np.flatnonzero(edges & (jump > eta))
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


def _reference_step_margins(zeros, step):
    """One step's (group, result, slack) by the per-step route: scalar
    geometry, A and B once on the step's arcs, one count per group."""
    groups = _scalar_contours(_unit_disks(zeros.expanded_points()), pathbuild._PTS_PER_CIRCLE)
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
            result = _reference_winding(lambda w: evaluate_grid(zeros, w), group.arcs, a[end - size : end])
        except ContourThroughZeroError as exc:
            result = exc
        out.append((group, result, low))
    return out


def _reference_report(path):
    """``certify_path`` by the per-step route (``_reference_step_margins``)."""
    checks, failures = [], []
    eps_observed = eps_certified = math.inf
    for j, step in enumerate(path.steps or [None]):
        for gi, (group, result, slack) in enumerate(_reference_step_margins(path.vertices[j].zeros_t, step)):
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


def _polygon_margin_count(f, contour):
    """(min |f|, winding count) of f along a closed polygon, passed to the
    certification's refinement as one arc closed by repeating its first point."""
    pts = np.append(contour, contour[:1])
    return _count(f, [pts], f(pts))


class TestRoucheCount:
    def test_double_zero(self):
        contour = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
        assert _polygon_margin_count(lambda z: z**2, contour)[1] == 2

    def test_zero_free(self):
        contour = 0.3 * np.exp(2j * np.pi * np.arange(64) / 64)
        assert _polygon_margin_count(lambda z: z + 2.0, contour)[1] == 0

    def test_degree_five_product_near_circle(self):
        zl = ZeroList.from_points([0.6 * np.exp(2j * np.pi * k / 5) + 0.05 for k in range(5)])
        contour = 0.99 * np.exp(2j * np.pi * np.arange(256) / 256)
        assert _polygon_margin_count(lambda z: evaluate_grid(zl, z), contour)[1] == 5

    def test_through_zero_detected(self, monkeypatch):
        monkeypatch.setattr(gridfn, "_MAX_PTS_PER_LOOP", 2048)
        contour = 0.5 * np.exp(2j * np.pi * np.arange(32) / 32)
        assert _polygon_margin_count(lambda z: z - 0.5, contour) == (0.0, 0)

    def test_point_budget_exhausted(self, monkeypatch):
        # a zero 1e-7 off the contour needs far more than 64 points
        monkeypatch.setattr(gridfn, "_MAX_PTS_PER_LOOP", 64)
        contour = 0.5 * np.exp(2j * np.pi * np.arange(32) / 32)
        with pytest.raises(ContourThroughZeroError, match="needs more than 64 points"):
            _polygon_margin_count(lambda z: z - 0.5000001, contour)


def _arc_count(f, group):
    """(min |f|, winding count) of f along a group's boundary arcs."""
    return _count(f, group.arcs, f(np.concatenate(group.arcs)))


class TestNeighborhoodContours:
    def test_disjoint_centers_two_groups(self):
        groups = _groups([-0.6, 0.6])
        assert len(groups) == 2
        assert all(len(g.arcs) == 1 and g.expected_count == 1 for g in groups)

    def test_overlapping_pair_merges(self):
        groups = _groups([0.0, 0.1])
        assert len(groups) == 1
        assert groups[0].expected_count == 2
        # merged boundary: one uncovered arc on each circle, meeting end to start
        (a, b) = groups[0].arcs
        assert abs(a[-1] - b[0]) < 1e-9 and abs(b[-1] - a[0]) < 1e-9

    def test_euclid_circle_formula(self):
        o, r = geometry._hyperbolic_disks(np.zeros((1, 1), dtype=complex), 1.0)
        assert o[0, 0] == 0.0
        assert r[0, 0] == pytest.approx(rho_from_beta(1.0))
        # every disk has the scalar formula's bits, signed zeros included
        rng = np.random.default_rng(8)
        centers = np.array([[random_point(rng, 0.99) for _ in range(7)] for _ in range(50)])
        centers[0, :3] = [0.3, -0.4, complex(-0.0, -0.0)]
        o, r = geometry._hyperbolic_disks(centers, 1.0)
        for row_o, row_r, row_c in zip(o, r, centers):
            want = _unit_disks(row_c)
            assert [(x.real.hex(), x.imag.hex(), y.hex()) for x, y in zip(row_o, row_r)] == [
                (x.real.hex(), x.imag.hex(), y.hex()) for x, y in want
            ]

    def test_merged_contour_counts_zeros(self):
        centers = [0.0, 0.12 + 0.05j, -0.1 + 0.08j]
        zl = ZeroList.from_points(centers)
        groups = _groups(centers)
        assert len(groups) == 1
        assert _arc_count(lambda z: evaluate_grid(zl, z), groups[0])[1] == 3

    def test_ring_with_hole_signed_counting(self):
        # three centers whose unit disks form a ring around an uncovered origin:
        # the hole's arcs subtract whatever the ring does not contain
        r = 0.48
        centers = [r * np.exp(2j * np.pi * k / 3) for k in range(3)]
        groups = _groups(centers)
        assert len(groups) == 1
        disks = [_hyperbolic_circle_euclid(c, 1.0) for c in centers]
        assert all(abs(o) > rad for o, rad in disks)  # the origin lies in the hole
        assert len(groups[0].arcs) == 6  # three outer arcs and three hole arcs
        zl = ZeroList.from_points(centers)
        assert _arc_count(lambda z: evaluate_grid(zl, z), groups[0])[1] == 3
        assert _arc_count(lambda z: evaluate_grid(ZeroList(m=1), z), groups[0])[1] == 0
        assert _arc_count(lambda z: z - 2.0, groups[0])[1] == 0


def _reference_arcs(disks, pts_per_circle):
    """The arcs bounding the union of Euclidean disks, each sampled on its
    own with both of its ends: the library's first arc builder, kept as the
    reference for ``geometry._uncovered_spans`` and ``geometry._sample_arcs``."""
    two_pi = 2.0 * math.pi
    uniq = []
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

    arcs = []
    for i, (o, r) in enumerate(active):
        covered = []
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


def _assert_reference_arcs(centers):
    """Every group of the neighborhood contours of ``centers`` has, bit for bit,
    the arcs the reference builder gives its members' disks."""
    disks = [_hyperbolic_circle_euclid(complex(c), 1.0) for c in centers]
    for group in _groups(centers):
        ref = _reference_arcs([disks[i] for i in group.member_indices], pathbuild._PTS_PER_CIRCLE)
        assert len(group.arcs) == len(ref)
        for arc, ref_arc in zip(group.arcs, ref):
            np.testing.assert_array_equal(arc, ref_arc)


def _random_groups(count):
    """The groups of the unit neighborhoods of 1 to 11 random centers, each
    with its members' Euclidean disks; about a third have several members.
    The arcs take the library's ``_PTS_PER_CIRCLE``, which
    ``TestBoundaryArcs`` sets to 64."""
    for seed in range(count):
        rng = np.random.default_rng(300 + seed)
        centers = [random_point(rng, 0.9) for _ in range(int(rng.integers(1, 12)))]
        disks = [_hyperbolic_circle_euclid(c, 1.0) for c in centers]
        for group in _groups(centers):
            yield [disks[i] for i in group.member_indices], group


class TestBoundaryArcs:
    @pytest.fixture(autouse=True)
    def _coarse_circles(self, monkeypatch):
        monkeypatch.setattr(pathbuild, "_PTS_PER_CIRCLE", 64)

    def test_arc_points_on_own_circle_outside_the_others(self):
        n_arcs = 0
        for disks, group in _random_groups(40):
            for arc in group.arcs:
                on = [i for i, (o, r) in enumerate(disks) if np.abs(np.abs(arc - o) - r).max() <= 1e-12]
                assert len(on) == 1
                for j, (o, r) in enumerate(disks):
                    if j != on[0]:
                        assert np.abs(arc - o).min() >= r - 1e-12
                n_arcs += 1
        assert n_arcs > 80

    def test_each_arc_end_meets_one_start(self):
        for _, group in _random_groups(40):
            starts = np.array([arc[0] for arc in group.arcs])
            for arc in group.arcs:
                assert np.count_nonzero(np.abs(starts - arc[-1]) < 1e-9) == 1

    def test_lone_disk_one_full_circle(self):
        (group,) = _groups([0.3 - 0.2j])
        (arc,) = group.arcs
        o, r = _hyperbolic_circle_euclid(0.3 - 0.2j, 1.0)
        np.testing.assert_allclose(arc, o + r * np.exp(2j * np.pi * np.arange(65) / 64), rtol=0, atol=1e-15)

    def test_arcs_that_do_not_close_raise(self):
        half = 0.5 * np.exp(1j * np.pi * np.arange(65) / 64)  # phase sum 1/2 for f(z) = z
        with pytest.raises(ContourThroughZeroError, match="not near an integer"):
            _count(lambda z: z, [half], half)

    def test_arcs_equal_the_reference_builder_on_random_disk_sets(self, monkeypatch):
        # 600 disk sets of 1 to 40 disks and more, in blocks of five sets
        # with one size: repeated disks, disks inside others, externally
        # tangent pairs and neighbours straight to the right, whose covered
        # interval wraps past angle 0; sampled at every density in turn
        rng = np.random.default_rng(12)
        more_arcs = 0
        joins = _merge_mod_intervals.joins
        for batch in range(120):
            pts_per_circle = (16, 64, 256)[batch % 3]
            monkeypatch.setattr(pathbuild, "_PTS_PER_CIRCLE", pts_per_circle)
            n = int(rng.integers(1, 41))
            sets = []
            for _ in range(5):
                disks = [_hyperbolic_circle_euclid(random_point(rng, 0.9), 1.0) for _ in range(n)]
                o, r = disks[int(rng.integers(0, len(disks)))]
                if batch % 3 == 0:
                    disks.insert(int(rng.integers(0, len(disks) + 1)), (o, r))
                if batch % 4 == 1:
                    disks.append((o + 0.3 * r * np.exp(2j * np.pi * rng.random()), 0.5 * r))
                    disks.append((o, r * (1 + 1e-14)))
                if batch % 5 == 2:
                    r2 = r * rng.uniform(0.1, 1.5)
                    disks.append((o + (r + r2) * np.exp(2j * np.pi * rng.random()), r2))
                if batch % 2 == 1:
                    disks.append((o + r * rng.uniform(0.2, 1.5), r * rng.uniform(0.3, 1.0)))
                sets.append(disks)
            o = np.array([[c for c, _ in disks] for disks in sets])
            r = np.array([[rad for _, rad in disks] for disks in sets])
            for disks, got in zip(sets, _groups_of(pathbuild.neighborhood_contours(o, r))):
                _assert_same_groups(got, _scalar_contours(disks, pts_per_circle))
                for group in got:
                    ref = _reference_arcs([disks[i] for i in group.member_indices], pts_per_circle)
                    assert len(group.arcs) == len(ref)
                    for arc, ref_arc in zip(group.arcs, ref):
                        np.testing.assert_array_equal(arc, ref_arc)
                more_arcs += sum(len(g.arcs) for g in got) > len(disks)
        assert more_arcs > 100  # many unions leave more arcs than disks
        assert _merge_mod_intervals.joins - joins > 100

    def test_neighborhoods_equal_the_reference_builder(self):
        r = 0.48
        _assert_reference_arcs([r * np.exp(2j * np.pi * k / 3) for k in range(3)])  # the ring with a hole
        rng = np.random.default_rng(13)
        for _ in range(40):
            _assert_reference_arcs([random_point(rng, 0.9) for _ in range(int(rng.integers(1, 12)))])

    def test_winding_counts_zeros_in_the_union(self):
        rng = np.random.default_rng(9)
        for disks, group in _random_groups(40):
            pts = [random_point(rng, 0.95) for _ in range(40)]
            # keep zeros clear of the circles, beyond the sampled polygon's sag
            depth = [min(abs(p - o) - r for o, r in disks) for p in pts]
            zl = ZeroList.from_points([p for p, d in zip(pts, depth) if abs(d) > 0.01])
            inside = sum(1 for d in depth if d < -0.01)
            assert _arc_count(lambda z: evaluate_grid(zl, z), group)[1] == inside


class TestBuildPath:
    def test_constant_path(self):
        zl = ZeroList.from_points([0.3, -0.2j])
        path = build_path(zl, zl, n_grid=256)
        assert len(path.vertices) == 1
        np.testing.assert_array_equal(path.vertices[0].outer_log.samples, 0.0)
        report = certify_path(path)
        assert report.ok
        assert all(c.count == c.expected for c in report.checks)

    def test_single_pair_modulus_identity(self):
        za, zb = ZeroList.from_points([0.3]), ZeroList.from_points([0.4])
        path = build_path(za, zb, n_grid=1024)
        assert path.certification is not None and path.certification.ok
        # |b* g| = e^{v_total} on the circle, v_j = -2 Re C(sigma_j)
        v_total = sum(_step_v(s, 1024) for s in path.steps)
        final = path.vertices[-1].trace()
        np.testing.assert_allclose(np.abs(final), np.exp(v_total), atol=1e-10)

    def test_endpoint_fidelity(self):
        rng = np.random.default_rng(2)
        za, zb = random_matched_pair(rng, 4, 0.4, 0.85)
        pairing = bottleneck_match(za, zb)
        pts = zb.expanded_points()
        zb_ord = ZeroList.from_points([pts[j] for j in pairing.permutation])
        path = build_path(za, zb_ord, n_grid=1024)
        # the start half is structural: vertex 0's outer log is 0 by
        # construction, so its trace is eval_boundary(za) to the bit; it is
        # checked against the per-factor product instead
        np.testing.assert_array_equal(path.vertices[0].outer_log.samples, 0.0)
        np.testing.assert_array_equal(path.vertices[0].trace(), eval_boundary(za, 1024).samples)
        start_err = np.abs(path.vertices[0].trace() - reference_product(za, circle_nodes(1024))).max()
        # the end vertex against the FFT route's outer correction of the whole path
        pairs = list(zip(za.expanded_points(), zb_ord.expanded_points()))
        end_expected = eval_boundary(zb_ord, 1024).samples * outer_correction(pairs, 1024).h.samples
        end_err = np.abs(path.vertices[-1].trace() - end_expected).max()
        assert 0.0 < end_err < 1e-8 and 0.0 < start_err < 1e-13

    def test_telescoping_functional(self):
        rng = np.random.default_rng(3)
        za, zb = random_matched_pair(rng, 5, 0.4, 0.85)
        pairs = list(zip(za.expanded_points(), zb.expanded_points()))
        path = build_path(za, zb, alpha=0.2, n_grid=1024)
        # per-step functionals sum to the total functional on the grid
        total_c = cauchy_on_circle(PathMeasure.from_pairs(pairs), 1024).samples
        v_sum = sum(_step_v(s, 1024) for s in path.steps)
        lhs = 2.0 * total_c.imag - harmonic_conjugate(BoundaryGridFunction(v_sum)).samples
        per_step = np.zeros(1024)
        for s in path.steps:
            c_j = cauchy_on_circle(PathMeasure.from_pairs(list(s.pairs)), 1024).samples
            per_step = per_step + (2.0 * c_j.imag - harmonic_conjugate(BoundaryGridFunction(-2.0 * c_j.real)).samples)
        np.testing.assert_allclose(lhs, per_step, atol=1e-8)
        assert path.functional_sup < 1e-6

    def test_phase_branch_past_pi(self):
        # both zeros turn almost pi counterclockwise about the origin: the
        # step phases sum past -pi, where arg of their product would wrap
        za = ZeroList.from_points([0.5, -0.5])
        zb = ZeroList.from_points([-0.5 + 0.05j, 0.5 - 0.05j])
        pairs = list(zip(za.expanded_points(), zb.expanded_points()))
        path = build_path(za, zb, alpha=0.25, n_grid=1024)
        assert path.vertices[-1].phase < -1.9 * math.pi
        # logs are computed when first read; the build reads only the last
        assert all("outer_log" not in vars(v) for v in path.vertices[:-1])
        ref, logs = _fft_build_once(pairs, 0.25, 1024)
        assert [v.t for v in path.vertices] == [v.t for v in ref.vertices]
        for v, log in zip(path.vertices, logs):
            assert np.abs(v.outer_log.samples - log).max() <= 1e-11
        assert path.vertices[1].outer_log is path.vertices[1].outer_log

    def test_step_norms_below_half_margin(self):
        rng = np.random.default_rng(4)
        za, zb = random_matched_pair(rng, 6, 0.5, 0.9)
        pairing = bottleneck_match(za, zb)
        pts = zb.expanded_points()
        zb_ord = ZeroList.from_points([pts[j] for j in pairing.permutation])
        path = build_path(za, zb_ord, n_grid=1024)
        eps = path.certification.eps_observed
        assert eps > 0
        assert all(s.step_norm < eps / 2 for s in path.steps)

    def test_adversarial_single_step_fails(self):
        za, zs = adversarial_pair(3.0)
        path = build_path(za, zs, alpha=3.5, n_grid=512)
        assert len(path.steps) == 1
        report = certify_path(path)
        assert not report.ok
        # b_{t_0} alone counts its zeros; the step is too large for Rouche
        (failure,) = report.failures
        assert failure.startswith("segment 0, group 0: Rouche slack -") and report.eps_certified < 0.0
        assert report.checks[0].count == report.checks[0].expected


def _step_v(step, n_grid):
    """The step's log-modulus v_j = -2 Re C(sigma_j) on the grid."""
    return -2.0 * cauchy_on_circle(PathMeasure.from_pairs(list(step.pairs)), n_grid).samples.real


def _log_exp_g(step, w):
    """The outer factor by the log/exp route, conj(gamma) exp(-2 G(w))."""
    g_log = np.zeros(w.shape, dtype=np.complex128)
    for a, b in step.pairs:
        g_log += np.log(1.0 - a.conjugate() * w) - np.log(1.0 - b.conjugate() * w)
    return np.conj(step.gamma) * np.exp(-2.0 * g_log)


def _per_pair_g(step, w):
    """g = conj(gamma) R^2 with R multiplied one pair at a time, a division
    each: the route that ``g_interior``'s blocked kernel replaced."""
    r = np.ones(w.shape, dtype=np.complex128)
    for a, b in step.pairs:
        r = r * ((1.0 - b.conjugate() * w) / (1.0 - a.conjugate() * w))
    return np.conj(step.gamma) * r * r


def _random_step(n):
    rng = np.random.default_rng(n)
    za, zb = random_matched_pair(rng, n, beta_max=1.0, r_max=0.95)
    pairs = tuple(zip(za.expanded_points(), zb.expanded_points()))
    w = np.concatenate([circle_nodes(512), [random_point(rng, 0.99) for _ in range(300)]])
    return pathbuild.PathStep(pairs, gamma_constant(pairs), 0.0), w


def _target_step(n):
    """``_random_step``'s pairs with the first to-point folded into the
    origin and, from n = 3 on, the third to-point doubling the second."""
    step, w = _random_step(n)
    pairs = list(step.pairs)
    pairs[0] = (pairs[0][0], 4e-15 + 0j)
    if n >= 3:
        pairs[2] = (pairs[2][0], pairs[1][1])
    return pathbuild.PathStep(tuple(pairs), gamma_constant(pairs), 0.0), w


def _seeded_paths(count, alpha=0.5, n_grid=1024):
    for seed in range(count):
        rng = np.random.default_rng(100 + seed)
        za, zb = random_matched_pair(rng, int(rng.integers(1, 8)), 0.5, 0.9)
        pairing = bottleneck_match(za, zb)
        pts = zb.expanded_points()
        yield build_path(za, ZeroList.from_points([pts[j] for j in pairing.permutation]), alpha=alpha, n_grid=n_grid)


def _splice_loops(disks, pts_per_circle):
    """The union's boundary by the first route: its uncovered arcs (ends
    excluded) spliced into closed loops, outer loops counterclockwise and
    holes clockwise, each entered circle found by matching an arc's end to
    the nearest arc start on another circle."""
    two_pi = 2.0 * math.pi
    uniq = []
    for o, r in disks:
        if not any(abs(o - o2) < 1e-13 and abs(r - r2) < 1e-13 for o2, r2 in uniq):
            uniq.append((o, r))
    active = [
        (o, r)
        for i, (o, r) in enumerate(uniq)
        if not any(i != j and abs(o - o2) + r <= r2 + 1e-15 and (r2, -j) > (r, -i) for j, (o2, r2) in enumerate(uniq))
    ]
    arcs, loops = [], []
    for i, (o, r) in enumerate(active):
        covered = []
        for j, (o2, r2) in enumerate(active):
            d = abs(o2 - o)
            if i == j or d >= r + r2 - 1e-15 or d + r2 <= r:
                continue
            phi = math.atan2((o2 - o).imag, (o2 - o).real)
            half = math.acos(min(1.0, max(-1.0, (d * d + r * r - r2 * r2) / (2.0 * d * r))))
            covered.append((phi - half, phi + half))
        if not covered:
            loops.append(o + r * np.exp(1j * two_pi * np.arange(pts_per_circle) / pts_per_circle))
            continue
        merged = _merge_mod_intervals(covered)
        for (_, b1), (a2, _) in zip(merged, merged[1:] + [(merged[0][0] + two_pi, 0.0)]):
            if a2 > b1 + 1e-12:
                arcs.append((i, b1, a2))
    unused = set(range(len(arcs)))
    while unused:
        idx, pieces = min(unused), []
        while idx in unused:
            unused.discard(idx)
            ci, a, b = arcs[idx]
            o, r = active[ci]
            n_pts = max(2, int(math.ceil(pts_per_circle * (b - a) / two_pi)))
            pieces.append(o + r * np.exp(1j * (a + (b - a) * np.arange(n_pts) / n_pts)))
            end = o + r * np.exp(1j * b)
            best, idx = math.inf, None
            for idx2, (cj, a2, _) in enumerate(arcs):
                o2, r2 = active[cj]
                if cj == ci or abs(abs(end - o2) - r2) > 1e-9:
                    continue
                ang = math.atan2((end - o2).imag, (end - o2).real) % two_pi
                diff = abs((a2 % two_pi - ang + math.pi) % two_pi - math.pi)
                if diff < best:
                    best, idx = diff, idx2
            assert idx is not None and best <= 1e-6, "could not splice union-boundary arcs"
        loops.append(np.concatenate(pieces))
    return loops


def _sampled_winding(values):
    """Winding number about 0 of a closed sampled curve, the last point joined
    to the first: the sum of the wrapped phase steps, which must be near an
    integer.  Unlike ``gridfn.winding_number`` it never bisects, so the
    caller must sample densely enough for every step to stay below pi."""
    total = float(np.angle(np.roll(values, -1) / values).sum() / (2.0 * np.pi))
    assert abs(total - round(total)) <= 0.1, f"winding sum {total} not near an integer"
    return round(total)


def _reference_margin_count(f, loops, eta=0.5, max_pts_per_loop=1 << 16):
    """(min |f|, winding count) of f over closed loops by the first route:
    each loop refines its own copy, re-evaluating f on the whole loop after
    each bisection, and is counted by ``_sampled_winding``."""
    margin, total = math.inf, 0
    for pts in loops:
        vals = f(pts)
        while True:
            mods = np.abs(vals)
            if float(mods.min()) == 0.0:
                return 0.0, 0
            nxt = np.roll(vals, -1)
            bad = np.nonzero(np.abs(nxt - vals) / np.minimum(mods, np.abs(nxt)) > eta)[0]
            if bad.size == 0:
                break
            if pts.size + bad.size > max_pts_per_loop:
                raise ContourThroughZeroError(
                    f"modulus {mods.min():.3e} needs more than {max_pts_per_loop} points for a safe winding count"
                )
            pts = np.insert(pts, bad + 1, 0.5 * (pts + np.roll(pts, -1))[bad])
            vals = f(pts)
        margin = min(margin, float(np.abs(vals).min()))
        total += _sampled_winding(vals)
    return margin, total


def _step_loops(path, j, pts_per_circle=256):
    """Step j's products A = b_{t_j} and B = b_{t_{j+1}}, and each group of
    A's neighborhood contours with its boundary spliced into closed loops
    (``_splice_loops``).  Only the grouping comes from
    ``neighborhood_contours``; the loops take ``pts_per_circle``."""
    zeros_from, zeros_to = path.vertices[j].zeros_t, path.vertices[j + 1].zeros_t
    centers = zeros_from.expanded_points()
    disks = [_hyperbolic_circle_euclid(complex(c), 1.0) for c in centers]
    groups = _groups(centers)
    loops = [_splice_loops([disks[i] for i in group.member_indices], pts_per_circle) for group in groups]
    return zeros_from, zeros_to, groups, loops


def _reference_certify(path, eta=0.5, pts_per_circle=256, max_pts_per_loop=1 << 16, g=_log_exp_g):
    """Certification by the first route (``_step_loops``), with the library's
    rule: A = b_{t_j} counted by ``_reference_margin_count``, the Rouche
    slack min(|A| - |B g - A|) over the loops' points, B = b_{t_{j+1}} and
    g(step, w) by default the log/exp formula."""
    checks, failures = [], []
    eps_observed = eps_certified = math.inf
    for j, step in enumerate(path.steps):
        zeros_from, zeros_to, groups, loops = _step_loops(path, j, pts_per_circle)
        for gi, (group, group_loops) in enumerate(zip(groups, loops)):
            where = f"segment {j}, group {gi}"
            w = np.concatenate(group_loops)
            a = evaluate_grid(zeros_from, w)
            slack = float((np.abs(a) - np.abs(evaluate_grid(zeros_to, w) * g(step, w) - a)).min())
            eps_certified = min(eps_certified, slack)
            try:
                margin, count = _reference_margin_count(
                    lambda z: evaluate_grid(zeros_from, z), group_loops, eta, max_pts_per_loop
                )
            except ContourThroughZeroError as exc:
                failures.append(f"{where}: {exc}")
                eps_observed = 0.0
            else:
                eps_observed = min(eps_observed, margin)
                checks.append(SampleCheck(j, gi, margin, slack, count, group.expected_count))
                if margin <= 0.0:
                    failures.append(f"{where}: margin {margin:.3e} <= 0")
                if count != group.expected_count:
                    failures.append(f"{where}: count {count} != {group.expected_count}")
            if not slack > 0.0:
                failures.append(f"{where}: Rouche slack {slack:.3e} <= 0, |B - A| >= |A| on the arcs")
    return CertificationReport(not failures, tuple(failures), eps_observed, eps_certified, tuple(checks))


def _sampled_failures(path, s_count):
    """The (segment, group) pairs at which some f_s = A + s (B g - A), s in
    linspace(0, 1, s_count), hits a zero, cannot be resolved or miscounts on
    the spliced loops of ``_step_loops``, g by ``_per_pair_g``: a sampled
    check along s, independent of the Rouche inequality.  Each loop's s-rows
    share one evaluation; a row whose jumps exceed 0.5 is refined on its own
    by ``_reference_margin_count``."""
    s = np.linspace(0.0, 1.0, s_count)[:, None]
    out = set()
    for j, step in enumerate(path.steps):
        zeros_from, zeros_to, groups, loops = _step_loops(path, j)

        def row(w, k):
            a = evaluate_grid(zeros_from, w)
            return a + s[k, 0] * (evaluate_grid(zeros_to, w) * _per_pair_g(step, w) - a)

        for gi, (group, group_loops) in enumerate(zip(groups, loops)):
            ok, counts = np.ones(s_count, dtype=bool), np.zeros(s_count, dtype=np.int64)
            for pts in group_loops:
                a = evaluate_grid(zeros_from, pts)
                vals = a + s * (evaluate_grid(zeros_to, pts) * _per_pair_g(step, pts) - a)
                mods, nxt = np.abs(vals), np.roll(vals, -1, axis=1)
                ok &= mods.min(axis=1) > 0.0
                with np.errstate(divide="ignore", invalid="ignore"):
                    bisect = ok & (np.abs(nxt - vals) / np.minimum(mods, np.abs(nxt)) > 0.5).any(axis=1)
                    turns = np.angle(nxt / vals).sum(axis=1) / (2.0 * np.pi)
                plain = ok & ~bisect
                assert np.all(np.abs(turns[plain] - np.round(turns[plain])) <= 0.1)
                counts[plain] += np.round(turns[plain]).astype(np.int64)
                for k in np.flatnonzero(bisect):
                    try:
                        margin, count = _reference_margin_count(lambda w: row(w, k), [pts])
                    except ContourThroughZeroError:
                        margin, count = 0.0, 0
                    ok[k] &= margin > 0.0
                    counts[k] += count
            if not (ok.all() and np.all(counts == group.expected_count)):
                out.add((j, gi))
    return out


def _assert_same_report(got, ref):
    """Identical outcomes and checks; margins within 1e-12 relative, Rouche
    slacks within 1e-12 absolute (B's two routes and the loops' points
    differ in the last bits)."""
    assert (got.ok, got.failures) == (ref.ok, ref.failures)
    assert [(c.segment, c.group, c.count, c.expected) for c in got.checks] == [
        (c.segment, c.group, c.count, c.expected) for c in ref.checks
    ]
    for c, r in zip(got.checks, ref.checks):
        assert c.margin == pytest.approx(r.margin, rel=1e-12)
        assert c.slack == pytest.approx(r.slack, rel=0.0, abs=1e-12)
    assert got.eps_observed == pytest.approx(ref.eps_observed, rel=1e-12)
    assert got.eps_certified == pytest.approx(ref.eps_certified, rel=0.0, abs=1e-12)


class TestClosedFormKernels:
    def test_g_interior_matches_log_exp_inside(self):
        rng = np.random.default_rng(7)
        w = np.array([random_point(rng, 0.999) for _ in range(400)])
        for path in _seeded_paths(5):
            for step in path.steps:
                ref = _log_exp_g(step, w)
                assert np.max(np.abs(step.g_interior(w) - ref) / np.abs(ref)) <= 1e-12

    @pytest.mark.parametrize("n", [1, 10, 100, 200])
    def test_g_interior_matches_the_per_pair_product(self, n):
        step, w = _random_step(n)
        ref = _per_pair_g(step, w)
        # g = R^2 carries each pair's two factors twice: twice evaluate_grid's 1e-14
        assert np.max(np.abs(step.g_interior(w) - ref) / np.abs(ref)) <= 2e-14

    def test_g_interior_forty_digit_spot_check(self):
        step, w = _random_step(200)
        w = w[::14]
        with mpmath.workdps(40):
            exact = []
            for x in w:
                xx, r = mpmath.mpc(x), mpmath.mpc(1)
                for a, b in step.pairs:
                    r *= (1 - mpmath.conj(mpmath.mpc(b)) * xx) / (1 - mpmath.conj(mpmath.mpc(a)) * xx)
                exact.append(complex(mpmath.conj(mpmath.mpc(step.gamma)) * r * r))
        exact = np.array(exact)
        kernel = np.abs(step.g_interior(w) - exact) / np.abs(exact)
        per_pair = np.abs(_per_pair_g(step, w) - exact) / np.abs(exact)
        assert kernel.max() <= 2.0 * per_pair.max()

    @pytest.mark.parametrize("n", [1, 10, 100, 200])
    def test_target_matches_the_product_route(self, n):
        step, w = _target_step(n)
        ref = evaluate_grid(ZeroList.from_points([b for _, b in step.pairs]), w) * step.g_interior(w)
        assert np.max(np.abs(step.target(w) - ref) / np.abs(ref)) <= 2e-14

    def test_target_forty_digit_spot_check(self):
        step, w = _target_step(200)
        w = w[::14]
        with mpmath.workdps(40):
            exact = []
            for x in w:
                xx, v = mpmath.mpc(x), mpmath.conj(mpmath.mpc(step.gamma))
                for a, b in step.pairs:
                    aa, bb = mpmath.mpc(a), mpmath.mpc(b)
                    end = xx if abs(b) < ORIGIN_FOLD else mpmath.conj(bb) / abs(bb) * (bb - xx) / (1 - mpmath.conj(bb) * xx)
                    v *= end * ((1 - mpmath.conj(bb) * xx) / (1 - mpmath.conj(aa) * xx)) ** 2
                exact.append(complex(v))
        exact = np.array(exact)
        fused = np.abs(step.target(w) - exact) / np.abs(exact)
        ref = evaluate_grid(ZeroList.from_points([b for _, b in step.pairs]), w) * step.g_interior(w)
        route = np.abs(ref - exact) / np.abs(exact)
        assert fused.max() <= 2.0 * route.max()

    def test_g_interior_matches_fft_route_on_circle(self):
        for path in _seeded_paths(5):
            nodes = circle_nodes(path.grid_size)
            for step in path.steps:
                err = np.abs(step.g_interior(nodes) - outer_correction(step.pairs, path.grid_size).h.samples).max()
                assert err <= DEFAULT_TOLERANCES["outer_exactness"]

    @pytest.mark.parametrize(
        "settings",
        [{}, {"eta": 0.3, "pts_per_circle": 16}, {"eta": 0.3, "pts_per_circle": 16, "max_pts_per_loop": 40}],
        ids=["default", "bisecting", "point-cap"],
    )
    def test_certification_matches_reference_route(self, settings, monkeypatch):
        # the library reads each setting from its module constant
        constants = {
            "eta": (gridfn, "_ETA"),
            "pts_per_circle": (pathbuild, "_PTS_PER_CIRCLE"),
            "max_pts_per_loop": (gridfn, "_MAX_PTS_PER_LOOP"),
        }
        for name, value in settings.items():
            monkeypatch.setattr(*constants[name], value)
        za, zs = adversarial_pair(3.0)
        adversarial = build_path(za, zs, alpha=3.5, n_grid=512)
        for path in [*_seeded_paths(5, alpha=0.5), *_seeded_paths(5, alpha=0.25), adversarial]:
            got = certify_path(path)
            _assert_same_report(got, _reference_certify(path, **settings))
        assert not got.ok  # the adversarial step still fails


@functools.lru_cache(maxsize=1)
def _criterion_five_paths():
    """Criterion 5's auto-refined paths at its grid, built once."""
    return tuple(build_path(za, zb, n_grid=2048) for za, zb in path_certification_instances(RunConfig()))


class TestRoucheCertificate:
    def test_accepted_steps_hold_at_65_s_values(self):
        # every (segment, group) that certify_path accepts passes the sampled
        # rule at 65 s, g by the per-pair product; the adversarial step fails both
        za, zs = adversarial_pair(3.0)
        adversarial = build_path(za, zs, alpha=3.5, n_grid=1024)
        paths = [*_criterion_five_paths(), *_seeded_paths(5, alpha=0.5), *_seeded_paths(5, alpha=0.25), adversarial]
        n_accepted = 0
        for path in paths:
            report = certify_path(path)
            rejected = {tuple(map(int, re.match(r"segment (\d+), group (\d+):", f).groups())) for f in report.failures}
            accepted = {(c.segment, c.group) for c in report.checks} - rejected
            assert not accepted & _sampled_failures(path, 65)
            n_accepted += len(accepted)
        assert n_accepted > 2000
        assert not report.ok and _sampled_failures(adversarial, 65) == {(0, 0)}

    def test_margins_and_counts_are_the_segment_start_rows(self):
        # the s = 0 row A + 0 (B - A) of the five-sample rule is A to the bit,
        # so its margin and count are the report's, and eps_observed is their minimum
        for path in [*_seeded_paths(5, alpha=0.5), *_seeded_paths(5, alpha=0.25)]:
            report = certify_path(path)
            checks = iter(report.checks)
            for j, step in enumerate(path.steps):
                zeros = path.vertices[j].zeros_t

                def start_row(w):
                    a = evaluate_grid(zeros, w)
                    return a + 0.0 * (step.target(w) - a)

                for group in _groups(zeros.expanded_points()):
                    w = np.concatenate(group.arcs)
                    np.testing.assert_array_equal(start_row(w), evaluate_grid(zeros, w))
                    c = next(checks)
                    assert (c.margin, c.count) == _count(start_row, group.arcs, start_row(w))
            assert next(checks, None) is None
            assert report.eps_observed == min(c.margin for c in report.checks)

    def test_rouche_failures_are_reported(self):
        # a (segment, group) is reported exactly when |B g - A| >= |A| at an
        # arc sample, B g by the product route and the log/exp formula
        za, zs = adversarial_pair(3.0)
        paths = [*_seeded_paths(5, alpha=0.5), build_path(za, zs, alpha=3.5, n_grid=1024)]
        ratios = []
        for path in paths:
            report = certify_path(path)
            for j, step in enumerate(path.steps):
                zeros_from, zeros_to = path.vertices[j].zeros_t, path.vertices[j + 1].zeros_t
                for gi, group in enumerate(_groups(zeros_from.expanded_points())):
                    w = np.concatenate(group.arcs)
                    a = evaluate_grid(zeros_from, w)
                    ratio = float((np.abs(evaluate_grid(zeros_to, w) * _log_exp_g(step, w) - a) / np.abs(a)).max())
                    reported = [f for f in report.failures if f.startswith(f"segment {j}, group {gi}: Rouche slack")]
                    assert len(reported) == (ratio >= 1.0)
                    ratios.append(ratio)
        # one seeded step holds at every sampled s but is unproven; the adversarial one fails
        assert sum(r >= 1.0 for r in ratios) == 2
        assert ratios[-1] == pytest.approx(3.20, abs=0.005)


def _fft_build_once(pairs, alpha, n_grid, functional_tol=1e-6):
    """One round by the FFT route, as first written: every step runs
    ``outer_correction`` (Cauchy transform, FFT conjugation, two boundary
    traces) and the vertex logs accumulate the steps' -i gamma + v + i v~.
    Returns the path (steps carrying the same gamma, norms from the FFT
    factor) and the accumulated vertex logs."""
    ts = choose_partition(pairs, alpha)
    start = interpolate_points(pairs, 0.0)
    outer_log = np.zeros(n_grid, dtype=np.complex128)
    v_sum = np.zeros(n_grid)
    vertices = [pathbuild.PathVertex(ZeroList.from_points(start), 0.0, tuple(zip(start, start)), 0.0, n_grid)]
    logs, steps = [outer_log], []
    for t0, t1 in zip(ts, ts[1:]):
        from_pts, to_pts = interpolate_points(pairs, t0), interpolate_points(pairs, t1)
        step_pairs = tuple(zip(from_pts, to_pts))
        oc = outer_correction(step_pairs, n_grid)
        vt = harmonic_conjugate(oc.v).samples
        outer_log = outer_log + (oc.v.samples + 1j * (vt - np.angle(oc.report.gamma)))
        v_sum = v_sum + oc.v.samples
        vertices.append(pathbuild.PathVertex(ZeroList.from_points(to_pts), t1, (), math.nan, n_grid))
        logs.append(outer_log)
        steps.append(pathbuild.PathStep(step_pairs, oc.report.gamma, oc.report.closeness))
    c_total = cauchy_on_circle(PathMeasure.from_pairs(pairs), n_grid).samples
    functional = float(np.abs(2.0 * c_total.imag - harmonic_conjugate(BoundaryGridFunction(v_sum)).samples).max())
    assert functional <= functional_tol
    return pathbuild.PolygonalPath(vertices, steps, n_grid, functional), logs


def _reference_build(z, z_star, n_grid, eta=0.5, max_refinements=12, rounds=None):
    """Auto-refinement by the first route: every round is built in full by
    the FFT route and certified by ``_reference_certify``, with the
    closed-form g for speed, before the step-norm rule is applied.
    Returns the path, its vertex logs and the step sizes tried; each round's
    path is appended to ``rounds`` when a list is given."""
    pairs = list(zip(z.expanded_points(), z_star.expanded_points()))
    alphas = [0.5]
    for _ in range(max_refinements + 1):
        path, logs = _fft_build_once(pairs, alphas[-1], n_grid)
        if rounds is not None:
            rounds.append(path)
        report = _reference_certify(path, eta=eta, g=lambda step, w: step.g_interior(w))
        if report.ok and all(s.step_norm < report.eps_observed / 2.0 for s in path.steps):
            path.certification = report
            return path, logs, alphas
        alphas.append(alphas[-1] / 2.0)
    raise RefinementExhaustedError("reference refinement exhausted")


def _assert_matches_fft_route(got, ref, logs):
    """Same vertices and certification as the FFT route; step norms within
    1e-12, vertex logs within 1e-11 (round-off of the two routes) and
    margins within 1e-12 relative."""
    assert len(got.vertices) == len(ref.vertices)
    for v, w, log in zip(got.vertices, ref.vertices, logs):
        assert (v.t, v.zeros_t) == (w.t, w.zeros_t)
        assert np.abs(v.outer_log.samples - log).max() <= 1e-11
    assert [s.pairs for s in got.steps] == [s.pairs for s in ref.steps]
    assert [s.gamma for s in got.steps] == [s.gamma for s in ref.steps]
    np.testing.assert_allclose([s.step_norm for s in got.steps], [s.step_norm for s in ref.steps], rtol=0, atol=1e-12)
    assert got.functional_sup <= 1e-6
    _assert_same_report(got.certification, ref.certification)


def _auto_instances():
    """The criterion-5 instances at its grid, then five seeded ones."""
    for za, zb in path_certification_instances(RunConfig()):
        yield za, zb, 2048
    for seed in range(5):
        rng = np.random.default_rng(200 + seed)
        za, zb = random_matched_pair(rng, int(rng.integers(1, 8)), 0.5, 0.9)
        pts = zb.expanded_points()
        yield za, ZeroList.from_points([pts[j] for j in bottleneck_match(za, zb).permutation]), 1024


def test_criterion_five_vertices_have_the_reference_arcs():
    for path in _criterion_five_paths():
        for vertex in path.vertices:
            _assert_reference_arcs(vertex.zeros_t.expanded_points())


@functools.lru_cache(maxsize=None)
def _deck_paths(seed):
    """The paths of the path-certify benchmark deck at ``seed``: each
    instance matched, reordered and auto-refined as its operation does, and
    the adversarial one-step path."""
    workloads = sys.modules.get("bench_workloads")
    if workloads is None:
        path = Path(__file__).parents[1] / "benchmarks" / "workloads.py"
        spec = importlib.util.spec_from_file_location("bench_workloads", path)
        workloads = sys.modules["bench_workloads"] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(workloads)
    paths = []
    for op in workloads.path_deck(seed, dict(DEFAULT_TOLERANCES), {}):
        if op.func is workloads.adversarial_op:
            za, zb, alpha, grid = op.args
            paths.append(build_path(za, zb, alpha=alpha, n_grid=grid))
            continue
        za, zb, grid = op.args[:3]
        pts = zb.expanded_points()
        zb_ord = ZeroList.from_points([pts[j] for j in bottleneck_match(za, zb).permutation])
        paths.append(build_path(za, zb_ord, n_grid=grid))
    return tuple(paths)


def _block_test_paths():
    """Criterion 5's paths, the benchmark decks' paths at four seeds and a constant path."""
    zl = ZeroList.from_points([0.3, -0.2j, 0.3])
    yield build_path(zl, zl, n_grid=256)
    yield from _criterion_five_paths()
    for seed in (3, 7, 11, 19):
        yield from _deck_paths(seed)


class TestCertificationBlocks:
    """Certification takes its steps in blocks: one geometry pass, one
    sampling pass and one winding pass per block, against the per-step
    scalar route."""

    def test_every_step_has_the_per_step_groups(self):
        steps = 0
        for path in _block_test_paths():
            centers = np.array([v.zeros_t.expanded_points() for v in path.vertices])
            block = pathbuild.neighborhood_contours(*geometry._hyperbolic_disks(centers, 1.0))
            for vertex, got in zip(path.vertices, _groups_of(block)):
                disks = _unit_disks(vertex.zeros_t.expanded_points())
                _assert_same_groups(got, _scalar_contours(disks, pathbuild._PTS_PER_CIRCLE))
                steps += 1
        assert steps > 2000

    def test_reports_equal_the_per_step_route(self):
        n_paths = n_failed = 0
        for path in _block_test_paths():
            report = certify_path(path)
            assert report == _reference_report(path)
            n_paths += 1
            n_failed += not report.ok
        assert n_paths == 65 and n_failed == 4  # the decks' adversarial paths

    @pytest.mark.parametrize("budget", [1, 3000, 40_000, 1 << 30])
    def test_blocks_that_straddle_the_point_budget(self, budget, monkeypatch):
        # one step per block, blocks of a few steps that split the paths
        # anywhere, and whole paths in one block: the same margins
        monkeypatch.setattr(pathbuild, "_BLOCK_POINTS", budget)
        calls = []
        real = pathbuild.neighborhood_contours

        def counting(o, r):
            calls.append(len(r))
            return real(o, r)

        monkeypatch.setattr(pathbuild, "neighborhood_contours", counting)
        for path in _deck_paths(7):
            assert certify_path(path) == _reference_report(path)
        assert max(calls) == 1 if budget == 1 else max(calls) > 1
        if budget == 3000:
            assert len(set(calls)) > 3


class TestStartMarginBound:
    def test_auto_refine_matches_reference_route(self, monkeypatch):
        """Closed-form factors with the start-margin bound against the FFT
        route certifying every round in full."""
        margins, alphas = [], []
        real_build_once = pathbuild._build_once

        def spy(*args, **kwargs):
            alphas.append(args[1])
            margins.append(kwargs.get("start_margin"))
            return real_build_once(*args, **kwargs)

        monkeypatch.setattr(pathbuild, "_build_once", spy)
        for za, zb, grid in _auto_instances():
            ref, logs, ref_alphas = _reference_build(za, zb, grid)  # raising here fails the test
            margins.clear()
            alphas.clear()
            got = build_path(za, zb, n_grid=grid)
            _assert_matches_fft_route(got, ref, logs)
            assert alphas == ref_alphas
            # the bound is the certification's start-vertex margin, to the bit
            start = [c.margin for c in got.certification.checks if c.segment == 0]
            assert set(margins) == {min(start)}

    def test_certifies_only_rounds_the_bound_cannot_reject(self, monkeypatch):
        calls = []
        real_certify = pathbuild.certify_path

        def counting(*args, **kwargs):
            calls.append(1)
            return real_certify(*args, **kwargs)

        monkeypatch.setattr(pathbuild, "certify_path", counting)
        single = (ZeroList.from_points([0.3]), ZeroList.from_points([-0.6]), 256)
        n_rounds = n_certified = 0
        for za, zb, grid in list(_auto_instances())[20:] + [single]:
            rounds = []
            ref, _, _ = _reference_build(za, zb, grid, rounds=rounds)
            m0 = min(c.margin for c in ref.certification.checks if c.segment == 0)
            calls.clear()
            build_path(za, zb, n_grid=grid)
            assert len(calls) == sum(all(s.step_norm < m0 / 2.0 for s in r.steps) for r in rounds)
            n_rounds += len(rounds)
            n_certified += len(calls)
        assert (len(rounds), len(calls)) == (3, 1)  # 0.3 -> -0.6: one certification for three rounds
        assert n_certified < n_rounds

    def test_exhaustion_reports_alphas_and_last_failures(self, monkeypatch):
        monkeypatch.setattr(pathbuild, "_MAX_REFINEMENTS", 1)
        za, zb = ZeroList.from_points([0.3]), ZeroList.from_points([-0.6])
        with pytest.raises(RefinementExhaustedError, match="within 1 halvings") as info:
            build_path(za, zb, n_grid=256)
        assert info.value.alphas == (0.5, 0.25)
        (reason,) = info.value.last_failures
        assert re.fullmatch(r"step \d+ of 16: norm \S+ >= m0/2 = \S+", reason)


def _two_trace_norm(path, j):
    """Step j's norm by the route the identity replaced: both vertices'
    boundary traces, max |b_{t_j} - b_{t_{j+1}} g| on the grid."""
    n = path.grid_size
    a = eval_boundary(path.vertices[j].zeros_t, n).samples
    b = eval_boundary(path.vertices[j + 1].zeros_t, n).samples * path.steps[j].g_interior(circle_nodes(n))
    return float(np.abs(a - b).max())


# -0.1 -> 0.1 passes exactly through the origin at t = 1/2, beside 0.3i -> 0.35i
_THROUGH_ORIGIN = (ZeroList.from_points([-0.1, 0.3j]), ZeroList.from_points([0.1, 0.35j]))


class TestStepNormIdentity:
    """On the circle b_{t_{j+1}} g / b_{t_j} = |g|, so a step norm is
    max |1 - |g|| and the build evaluates no boundary trace."""

    def test_end_over_start_is_the_modulus_of_g(self):
        through = build_path(*_THROUGH_ORIGIN, n_grid=2048)
        assert [v.zeros_t.m for v in through.vertices if v.t == 0.5] == [1]
        n_steps = 0
        for path in [*_criterion_five_paths(), through]:
            n = path.grid_size
            for j, step in enumerate(path.steps):
                g = step.g_interior(circle_nodes(n))
                ratio = eval_boundary(path.vertices[j + 1].zeros_t, n).samples * g
                ratio = ratio / eval_boundary(path.vertices[j].zeros_t, n).samples
                assert np.abs(ratio.imag).max() <= 1e-13
                assert np.abs(ratio.real - np.abs(g)).max() <= 1e-13
                n_steps += 1
        assert n_steps > 500

    def test_step_norms_equal_the_two_trace_route(self):
        paths = [*_criterion_five_paths(), build_path(*_THROUGH_ORIGIN, n_grid=2048)]
        for alpha in (1.0, 0.25):
            paths += [*_seeded_paths(5, alpha=alpha), build_path(*_THROUGH_ORIGIN, alpha=alpha, n_grid=2048)]
        n_steps = 0
        for path in paths:
            for j, step in enumerate(path.steps):
                assert abs(step.step_norm - _two_trace_norm(path, j)) <= 1e-12
                n_steps += 1
        assert n_steps > 500

    @pytest.mark.parametrize(
        "pair",
        [([1 - 5e-11], [1 - 5e-11 - 1e-12j]), ([1 - 5e-11, 0.3j], [1 - 5e-11, 0.35j])],
        ids=["lone", "beside-a-moving-zero"],
    )
    @pytest.mark.parametrize("alpha", [None, 0.5])
    def test_a_zero_near_the_circle_raises_before_the_round(self, pair, alpha, monkeypatch):
        calls = []
        monkeypatch.setattr(pathbuild.PathStep, "g_interior", lambda *args: calls.append(args))
        za, zb = (ZeroList.from_points(p) for p in pair)
        with pytest.raises(IllConditionedBoundaryError) as info:
            build_path(za, zb, alpha=alpha, n_grid=1024)
        assert str(info.value) == "a zero lies within 1e-10 of the circle (max |z_n| = 0.99999999995)"
        assert calls == []
