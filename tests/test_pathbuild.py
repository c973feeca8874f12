"""Tests for partition choice, path construction and winding certification."""

import math
import re

import numpy as np
import pytest

from blaschkelab import pathbuild
from blaschkelab.acceptance import path_certification_instances
from blaschkelab.blaschke import ZeroList, eval_boundary, evaluate_grid
from blaschkelab.cauchy import PathMeasure, cauchy_on_circle
from blaschkelab.config import DEFAULT_TOLERANCES, RunConfig
from blaschkelab.errors import ContourThroughZeroError, RefinementExhaustedError
from blaschkelab.fixtures import adversarial_pair, random_matched_pair, random_point
from blaschkelab.geometry import hyper_distance, rho_from_beta
from blaschkelab.gridfn import BoundaryGridFunction, circle_nodes, harmonic_conjugate, winding_number
from blaschkelab.matching import bottleneck_match
from blaschkelab.pathbuild import (
    build_path,
    certify_path,
    choose_partition,
    hyperbolic_circle_euclid,
    interpolate_points,
    interpolate_zeros,
    neighborhood_contours,
    rouche_zero_count,
)


class TestInterpolation:
    def test_endpoints_exact(self):
        pairs = [(0.1 + 0.2j, -0.3j)]
        assert interpolate_points(pairs, 0.0) == [0.1 + 0.2j]
        assert interpolate_points(pairs, 1.0) == [-0.3j]

    def test_midpoint(self):
        zl = interpolate_zeros([(0.0j, 0.5 + 0j)], 0.5)
        assert zl.zeros == ((0.25 + 0j, 1),)

    def test_interior_preserved(self):
        rng = np.random.default_rng(0)
        za, zb = random_matched_pair(rng, 10, 2.0, 0.95)
        pairs = list(zip(za.expanded_points(), zb.expanded_points()))
        for t in np.linspace(0, 1, 7):
            assert all(abs(p) < 1 for p in interpolate_points(pairs, float(t)))

    def test_range_checked(self):
        with pytest.raises(ValueError):
            interpolate_zeros([(0.1, 0.2)], 1.5)


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


class TestRoucheCount:
    def test_double_zero(self):
        contour = 0.5 * np.exp(2j * np.pi * np.arange(64) / 64)
        assert rouche_zero_count(lambda z: z**2, contour) == 2

    def test_zero_free(self):
        contour = 0.3 * np.exp(2j * np.pi * np.arange(64) / 64)
        assert rouche_zero_count(lambda z: z + 2.0, contour) == 0

    def test_degree_five_product_near_circle(self):
        rng = np.random.default_rng(1)
        zl = ZeroList.from_points([0.6 * np.exp(2j * np.pi * k / 5) + 0.05 for k in range(5)])
        contour = 0.99 * np.exp(2j * np.pi * np.arange(256) / 256)
        assert rouche_zero_count(lambda z: evaluate_grid(zl, z), contour) == 5

    def test_through_zero_detected(self):
        contour = 0.5 * np.exp(2j * np.pi * np.arange(32) / 32)
        with pytest.raises(ContourThroughZeroError):
            rouche_zero_count(lambda z: z - 0.5, contour, max_points=2048)


class TestNeighborhoodContours:
    def test_disjoint_centers_two_groups(self):
        groups = neighborhood_contours([-0.6, 0.6], beta_radius=1.0)
        assert len(groups) == 2
        assert all(len(g.loops) == 1 and g.expected_count == 1 for g in groups)

    def test_overlapping_pair_merges(self):
        groups = neighborhood_contours([0.0, 0.1], beta_radius=1.0)
        assert len(groups) == 1
        assert groups[0].expected_count == 2
        # merged boundary is a single outer loop
        assert len(groups[0].loops) == 1

    def test_euclid_circle_formula(self):
        center, radius = hyperbolic_circle_euclid(0.0, 1.0)
        assert center == 0.0
        assert radius == pytest.approx(rho_from_beta(1.0))

    def test_merged_contour_counts_zeros(self):
        centers = [0.0, 0.12 + 0.05j, -0.1 + 0.08j]
        zl = ZeroList.from_points(centers)
        groups = neighborhood_contours(centers, beta_radius=1.0)
        assert len(groups) == 1
        total = 0
        for loop in groups[0].loops:
            total += rouche_zero_count(lambda z: evaluate_grid(zl, z), loop)
        assert total == 3

    def test_ring_with_hole_signed_counting(self):
        # three centers arranged so their unit disks form a ring with a hole:
        # the hole loop must subtract whatever it does not enclose
        r = 0.48
        centers = [r * np.exp(2j * np.pi * k / 3) for k in range(3)]
        groups = neighborhood_contours(centers, beta_radius=1.0)
        assert len(groups) == 1
        loops = groups[0].loops
        zl = ZeroList.from_points(centers)
        total = sum(rouche_zero_count(lambda z: evaluate_grid(zl, z), lp) for lp in loops)
        assert total == 3
        if len(loops) > 1:
            # the hole exists: a function with all zeros in the hole nets zero
            hole_zero = ZeroList(m=1)  # zero at the origin, inside the hole
            net = sum(rouche_zero_count(lambda z: evaluate_grid(hole_zero, z), lp) for lp in loops)
            assert net == 0


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
        # |b* g| = e^{v_total} on the circle
        v_total = sum(s.correction.v.samples for s in path.steps)
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
        v_sum = sum(s.correction.v.samples for s in path.steps)
        lhs = 2.0 * total_c.imag - harmonic_conjugate(BoundaryGridFunction(v_sum)).samples
        per_step = np.zeros(1024)
        for s in path.steps:
            c_j = cauchy_on_circle(PathMeasure.from_pairs(list(s.pairs)), 1024).samples
            per_step = per_step + (2.0 * c_j.imag - harmonic_conjugate(s.correction.v).samples)
        np.testing.assert_allclose(lhs, per_step, atol=1e-8)
        assert path.functional_sup < 1e-6

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


def _log_exp_g(step, w):
    """The outer factor by the log/exp route, conj(gamma) exp(-2 G(w))."""
    g_log = np.zeros(w.shape, dtype=np.complex128)
    for a, b in step.pairs:
        g_log += np.log(1.0 - a.conjugate() * w) - np.log(1.0 - b.conjugate() * w)
    return np.conj(step.correction.report.gamma) * np.exp(-2.0 * g_log)


def _seeded_paths(count, alpha=0.5, n_grid=1024):
    for seed in range(count):
        rng = np.random.default_rng(100 + seed)
        za, zb = random_matched_pair(rng, int(rng.integers(1, 8)), 0.5, 0.9)
        pairing = bottleneck_match(za, zb)
        pts = zb.expanded_points()
        yield build_path(za, ZeroList.from_points([pts[j] for j in pairing.permutation]), alpha=alpha, n_grid=n_grid)


def _reference_certify(path, eta=0.5, samples_per_segment=5, pts_per_circle=256, max_pts_per_loop=1 << 16):
    """Certification by the first route: every s refines its own copy of each
    loop and re-evaluates f on the whole loop after each bisection, with g by
    the log/exp formula.  Returns the report's fields."""

    def margin_count(f, group):
        margin, total = math.inf, 0
        for lp in group.loops:
            pts = np.asarray(lp)
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
        groups = neighborhood_contours(zeros_from.expanded_points(), 1.0, pts_per_circle)

        def bracket(w, s):
            base = evaluate_grid(zeros_from, w)
            if s == 0.0:
                return base
            return base + s * (evaluate_grid(zeros_to, w) * _log_exp_g(step, w) - base)

        for gi, group in enumerate(groups):
            for s in np.linspace(0.0, 1.0, samples_per_segment):
                s = float(s)
                try:
                    margin, count = margin_count(lambda w: bracket(w, s), group)
                except ContourThroughZeroError as exc:
                    failures.append(f"segment {j}, s={s:.3f}, group {gi}: {exc}")
                    eps_observed = 0.0
                    continue
                eps_observed = min(eps_observed, margin)
                if s == 0.0:
                    eps_vertices = min(eps_vertices, margin)
                checks.append((j, s, gi, margin, count, group.expected_count))
                if margin <= 0.0:
                    failures.append(f"segment {j}, s={s:.3f}, group {gi}: margin {margin:.3e} <= 0")
                if count != group.expected_count:
                    failures.append(f"segment {j}, s={s:.3f}, group {gi}: count {count} != {group.expected_count}")
    return not failures, tuple(failures), eps_observed, eps_vertices, checks


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
                err = np.abs(step.g_interior(nodes) - step.correction.h.samples).max()
                assert err <= DEFAULT_TOLERANCES["outer_exactness"]

    @pytest.mark.parametrize(
        "settings",
        [{}, {"eta": 0.3, "pts_per_circle": 16}, {"eta": 0.3, "pts_per_circle": 16, "max_pts_per_loop": 40}],
        ids=["default", "bisecting", "point-cap"],
    )
    def test_certification_matches_reference_route(self, settings):
        za, zs = adversarial_pair(3.0)
        paths = list(_seeded_paths(5, alpha=0.25)) + [build_path(za, zs, alpha=3.5, n_grid=512)]
        for path in paths:
            got = certify_path(path, **settings)
            ok, failures, eps_observed, eps_vertices, checks = _reference_certify(path, **settings)
            assert (got.ok, got.failures) == (ok, failures)
            assert len(got.checks) == len(checks)
            for c, ref in zip(got.checks, checks):
                assert (c.segment, c.s, c.group, c.count, c.expected) == ref[:3] + ref[4:]
                assert c.margin == pytest.approx(ref[3], rel=1e-12)
            assert got.eps_observed == pytest.approx(eps_observed, rel=1e-12)
            assert got.eps_vertices == pytest.approx(eps_vertices, rel=1e-12)
        assert not got.ok  # the adversarial step still fails


def _reference_build(z, z_star, n_grid, eta=0.5, samples_per_segment=5, max_refinements=12, rounds=None):
    """Auto-refinement by the first route: every round is built in full and
    certified before the step-norm rule is applied.  Each round's path is
    appended to ``rounds`` when a list is given."""
    alpha = 0.5
    for _ in range(max_refinements + 1):
        path = build_path(z, z_star, alpha=alpha, n_grid=n_grid)
        if rounds is not None:
            rounds.append(path)
        report = certify_path(path, eta=eta, samples_per_segment=samples_per_segment)
        if report.ok and all(s.step_norm < report.eps_observed / 2.0 for s in path.steps):
            path.certification = report
            return path
        alpha /= 2.0
    raise RefinementExhaustedError("reference refinement exhausted")


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
        margins = []
        real_build_once = pathbuild._build_once

        def spy(*args, **kwargs):
            margins.append(kwargs.get("start_margin"))
            return real_build_once(*args, **kwargs)

        monkeypatch.setattr(pathbuild, "_build_once", spy)
        for za, zb, grid in _auto_instances():
            ref = _reference_build(za, zb, grid)  # raising here fails the test
            margins.clear()
            got = build_path(za, zb, n_grid=grid)
            assert len(got.vertices) == len(ref.vertices)
            for v, w in zip(got.vertices, ref.vertices):
                assert (v.t, v.zeros_t) == (w.t, w.zeros_t)
                np.testing.assert_array_equal(v.outer_log.samples, w.outer_log.samples)
            assert [s.step_norm for s in got.steps] == [s.step_norm for s in ref.steps]
            assert got.functional_sup == ref.functional_sup
            assert got.certification == ref.certification
            # the bound is the reference's start-vertex margin, to the bit
            start = [c.margin for c in ref.certification.checks if c.segment == 0 and c.s == 0.0]
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
            ref = _reference_build(za, zb, grid, rounds=rounds)
            m0 = min(c.margin for c in ref.certification.checks if c.segment == 0 and c.s == 0.0)
            calls.clear()
            build_path(za, zb, n_grid=grid)
            assert len(calls) == sum(all(s.step_norm < m0 / 2.0 for s in r.steps) for r in rounds)
            n_rounds += len(rounds)
            n_certified += len(calls)
        assert (len(rounds), len(calls)) == (3, 1)  # 0.3 -> -0.6: one certification for three rounds
        assert n_certified < n_rounds

    def test_exhaustion_reports_alphas_and_last_failures(self):
        za, zb = ZeroList.from_points([0.3]), ZeroList.from_points([-0.6])
        with pytest.raises(RefinementExhaustedError, match="within 1 halvings") as info:
            build_path(za, zb, n_grid=256, max_refinements=1)
        assert info.value.alphas == (0.5, 0.25)
        (reason,) = info.value.last_failures
        assert re.fullmatch(r"step \d+ of 16: norm \S+ >= m0/2 = \S+", reason)
