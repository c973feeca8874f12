"""Tests for partition choice, path construction and winding certification."""

import math
import re

import numpy as np
import pytest

from blaschkelab import pathbuild
from blaschkelab.acceptance import path_certification_instances
from blaschkelab.blaschke import ZeroList, eval_boundary, evaluate_grid
from blaschkelab.cauchy import PathMeasure, cauchy_on_circle, outer_correction
from blaschkelab.config import DEFAULT_TOLERANCES, RunConfig
from blaschkelab.errors import ContourThroughZeroError, RefinementExhaustedError
from blaschkelab.fixtures import adversarial_pair, random_matched_pair, random_point
from blaschkelab.geometry import hyper_distance, rho_from_beta
from blaschkelab.gridfn import BoundaryGridFunction, circle_nodes, harmonic_conjugate, winding_number
from blaschkelab.matching import bottleneck_match
from blaschkelab.pathbuild import (
    CertificationReport,
    SampleCheck,
    build_path,
    certify_path,
    choose_partition,
    hyperbolic_circle_euclid,
    interpolate_points,
    neighborhood_contours,
)


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


def _polygon_margin_count(f, contour):
    """(min |f|, winding count) of f along a closed polygon, passed to the
    certification's refinement as one arc closed by repeating its first point."""
    pts = np.append(contour, contour[:1])
    return pathbuild._loop_margin_count(f, [pts], f(pts))


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
        monkeypatch.setattr(pathbuild, "_MAX_PTS_PER_LOOP", 2048)
        contour = 0.5 * np.exp(2j * np.pi * np.arange(32) / 32)
        assert _polygon_margin_count(lambda z: z - 0.5, contour) == (0.0, 0)

    def test_point_budget_exhausted(self, monkeypatch):
        # a zero 1e-7 off the contour needs far more than 64 points
        monkeypatch.setattr(pathbuild, "_MAX_PTS_PER_LOOP", 64)
        contour = 0.5 * np.exp(2j * np.pi * np.arange(32) / 32)
        with pytest.raises(ContourThroughZeroError, match="needs more than 64 points"):
            _polygon_margin_count(lambda z: z - 0.5000001, contour)


def _arc_count(f, group):
    """(min |f|, winding count) of f along a group's boundary arcs."""
    return pathbuild._group_margin_count(f, None, group, (0.0,))[0]


class TestNeighborhoodContours:
    def test_disjoint_centers_two_groups(self):
        groups = neighborhood_contours([-0.6, 0.6])
        assert len(groups) == 2
        assert all(len(g.arcs) == 1 and g.expected_count == 1 for g in groups)

    def test_overlapping_pair_merges(self):
        groups = neighborhood_contours([0.0, 0.1])
        assert len(groups) == 1
        assert groups[0].expected_count == 2
        # merged boundary: one uncovered arc on each circle, meeting end to start
        (a, b) = groups[0].arcs
        assert abs(a[-1] - b[0]) < 1e-9 and abs(b[-1] - a[0]) < 1e-9

    def test_euclid_circle_formula(self):
        center, radius = hyperbolic_circle_euclid(0.0, 1.0)
        assert center == 0.0
        assert radius == pytest.approx(rho_from_beta(1.0))

    def test_merged_contour_counts_zeros(self):
        centers = [0.0, 0.12 + 0.05j, -0.1 + 0.08j]
        zl = ZeroList.from_points(centers)
        groups = neighborhood_contours(centers)
        assert len(groups) == 1
        assert _arc_count(lambda z: evaluate_grid(zl, z), groups[0])[1] == 3

    def test_ring_with_hole_signed_counting(self):
        # three centers whose unit disks form a ring around an uncovered origin:
        # the hole's arcs subtract whatever the ring does not contain
        r = 0.48
        centers = [r * np.exp(2j * np.pi * k / 3) for k in range(3)]
        groups = neighborhood_contours(centers)
        assert len(groups) == 1
        disks = [hyperbolic_circle_euclid(c, 1.0) for c in centers]
        assert all(abs(o) > rad for o, rad in disks)  # the origin lies in the hole
        assert len(groups[0].arcs) == 6  # three outer arcs and three hole arcs
        zl = ZeroList.from_points(centers)
        assert _arc_count(lambda z: evaluate_grid(zl, z), groups[0])[1] == 3
        assert _arc_count(lambda z: evaluate_grid(ZeroList(m=1), z), groups[0])[1] == 0
        assert _arc_count(lambda z: z - 2.0, groups[0])[1] == 0


def _random_groups(count):
    """The groups of the unit neighborhoods of 1 to 11 random centers, each
    with its members' Euclidean disks; about a third have several members.
    The arcs take the library's ``_PTS_PER_CIRCLE``, which
    ``TestBoundaryArcs`` sets to 64."""
    for seed in range(count):
        rng = np.random.default_rng(300 + seed)
        centers = [random_point(rng, 0.9) for _ in range(int(rng.integers(1, 12)))]
        disks = [hyperbolic_circle_euclid(c, 1.0) for c in centers]
        for group in neighborhood_contours(centers):
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
        (group,) = neighborhood_contours([0.3 - 0.2j])
        (arc,) = group.arcs
        o, r = hyperbolic_circle_euclid(0.3 - 0.2j, 1.0)
        np.testing.assert_allclose(arc, o + r * np.exp(2j * np.pi * np.arange(65) / 64), rtol=0, atol=1e-15)

    def test_arcs_that_do_not_close_raise(self):
        half = 0.5 * np.exp(1j * np.pi * np.arange(65) / 64)  # phase sum 1/2 for f(z) = z
        with pytest.raises(ContourThroughZeroError, match="not near an integer"):
            pathbuild._loop_margin_count(lambda z: z, [half], half)

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
        start_err = np.abs(path.vertices[0].trace() - eval_boundary(za, 1024).samples).max()
        end_expected = eval_boundary(zb_ord, 1024).samples * np.exp(path.outer_log_total.samples)
        end_err = np.abs(path.vertices[-1].trace() - end_expected).max()
        assert max(start_err, end_err) < 1e-8

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
        assert any("count" in f or "margin" in f or "modulus" in f for f in report.failures)


def _step_v(step, n_grid):
    """The step's log-modulus v_j = -2 Re C(sigma_j) on the grid."""
    return -2.0 * cauchy_on_circle(PathMeasure.from_pairs(list(step.pairs)), n_grid).samples.real


def _log_exp_g(step, w):
    """The outer factor by the log/exp route, conj(gamma) exp(-2 G(w))."""
    g_log = np.zeros(w.shape, dtype=np.complex128)
    for a, b in step.pairs:
        g_log += np.log(1.0 - a.conjugate() * w) - np.log(1.0 - b.conjugate() * w)
    return np.conj(step.gamma) * np.exp(-2.0 * g_log)


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
        merged = pathbuild._merge_mod_intervals(covered)
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


def _reference_certify(
    path, eta=0.5, samples_per_segment=5, pts_per_circle=256, max_pts_per_loop=1 << 16, g=_log_exp_g
):
    """Certification by the first route: the neighborhood boundary spliced
    into closed loops (``_splice_loops``), every s refining its own copy of
    each loop and re-evaluating f on the whole loop after each bisection,
    counts by ``winding_number`` and g(step, w) by default the log/exp
    formula.  Only the grouping of the zeros comes from
    ``neighborhood_contours``; the loops take ``pts_per_circle``."""

    def margin_count(f, loops):
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
                        f"modulus {mods.min():.3e} needs more than {max_pts_per_loop} points "
                        "for a safe winding count"
                    )
                pts = np.insert(pts, bad + 1, 0.5 * (pts + np.roll(pts, -1))[bad])
                vals = f(pts)
            margin = min(margin, float(np.abs(vals).min()))
            total += winding_number(vals)
        return margin, total

    checks, failures = [], []
    eps_observed = eps_vertices = math.inf
    for j, step in enumerate(path.steps):
        zeros_from, zeros_to = path.vertices[j].zeros_t, path.vertices[j + 1].zeros_t
        centers = zeros_from.expanded_points()
        disks = [hyperbolic_circle_euclid(complex(c), 1.0) for c in centers]
        groups = neighborhood_contours(centers)

        def bracket(w, s):
            base = evaluate_grid(zeros_from, w)
            if s == 0.0:
                return base
            return base + s * (evaluate_grid(zeros_to, w) * g(step, w) - base)

        for gi, group in enumerate(groups):
            loops = _splice_loops([disks[i] for i in group.member_indices], pts_per_circle)
            for s in np.linspace(0.0, 1.0, samples_per_segment):
                s = float(s)
                try:
                    margin, count = margin_count(lambda w: bracket(w, s), loops)
                except ContourThroughZeroError as exc:
                    failures.append(f"segment {j}, s={s:.3f}, group {gi}: {exc}")
                    eps_observed = 0.0
                    continue
                eps_observed = min(eps_observed, margin)
                if s == 0.0:
                    eps_vertices = min(eps_vertices, margin)
                checks.append(SampleCheck(j, s, gi, margin, count, group.expected_count))
                if margin <= 0.0:
                    failures.append(f"segment {j}, s={s:.3f}, group {gi}: margin {margin:.3e} <= 0")
                if count != group.expected_count:
                    failures.append(f"segment {j}, s={s:.3f}, group {gi}: count {count} != {group.expected_count}")
    return CertificationReport(not failures, tuple(failures), eps_observed, eps_vertices, tuple(checks))


def _assert_same_report(got, ref):
    """Identical outcomes and checks; margins within 1e-12 relative."""
    assert (got.ok, got.failures) == (ref.ok, ref.failures)
    assert [(c.segment, c.s, c.group, c.count, c.expected) for c in got.checks] == [
        (c.segment, c.s, c.group, c.count, c.expected) for c in ref.checks
    ]
    for c, r in zip(got.checks, ref.checks):
        assert c.margin == pytest.approx(r.margin, rel=1e-12)
    assert got.eps_observed == pytest.approx(ref.eps_observed, rel=1e-12)
    assert got.eps_vertices == pytest.approx(ref.eps_vertices, rel=1e-12)


class TestClosedFormKernels:
    def test_g_interior_matches_log_exp_inside(self):
        rng = np.random.default_rng(7)
        w = np.array([random_point(rng, 0.999) for _ in range(400)])
        for path in _seeded_paths(5):
            for step in path.steps:
                ref = _log_exp_g(step, w)
                assert np.max(np.abs(step.g_interior(w) - ref) / np.abs(ref)) <= 1e-12

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
        constants = {"eta": "_ETA", "pts_per_circle": "_PTS_PER_CIRCLE", "max_pts_per_loop": "_MAX_PTS_PER_LOOP"}
        for name, value in settings.items():
            monkeypatch.setattr(pathbuild, constants[name], value)
        za, zs = adversarial_pair(3.0)
        paths = list(_seeded_paths(5, alpha=0.25)) + [build_path(za, zs, alpha=3.5, n_grid=512)]
        for path in paths:
            got = certify_path(path)
            _assert_same_report(got, _reference_certify(path, **settings))
        assert not got.ok  # the adversarial step still fails


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


def _reference_build(z, z_star, n_grid, eta=0.5, samples_per_segment=5, max_refinements=12, rounds=None):
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
        report = _reference_certify(
            path, eta=eta, samples_per_segment=samples_per_segment, g=lambda step, w: step.g_interior(w)
        )
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
            start = [c.margin for c in got.certification.checks if c.segment == 0 and c.s == 0.0]
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
            m0 = min(c.margin for c in ref.certification.checks if c.segment == 0 and c.s == 0.0)
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
