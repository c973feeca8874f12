"""Tests for level sets, harmonic measure, representatives and the contour log."""

import math
import warnings

import numpy as np
import pytest

from blaschkelab.blaschke import ZeroList, evaluate_grid
from blaschkelab.carleson import DiscreteMeasure, box_carleson_norm, suggested_box_depth
from blaschkelab.contours import (
    HarmonicMeasureAtlas,
    _contour_integrals,
    _distance_to_curve,
    JordanCurveApprox,
    arclength_carleson_norm,
    build_atlas,
    harmonic_measure,
    harmonic_measure_paired,
    level_set_components,
    log_quotient_via_contour,
    place_representatives,
    split_zeros_by_contour,
    trossos_check,
)
from blaschkelab.errors import AtlasInconsistencyError, HypothesisViolationError, VerificationError
from blaschkelab.geometry import hyper_distance, interior_value


class TestLevelSets:
    def test_monomial_circle(self):
        curves = level_set_components(ZeroList(m=1), 0.5, resolution=256)
        assert len(curves) == 1
        c = curves[0]
        assert c.enclosed_zeros == ((0j, 1),)
        perim = float(c.edge_lengths().sum())
        assert abs(perim - math.pi) / math.pi < 0.02
        radii = np.abs(c.points)
        assert np.abs(radii - 0.5).max() < 0.01

    def test_square_level(self):
        curves = level_set_components(ZeroList(m=2), 0.25, resolution=256)
        assert len(curves) == 1
        assert np.abs(np.abs(curves[0].points) - 0.5).max() < 0.01

    def test_two_far_zeros_split(self):
        zl = ZeroList.from_points([0.55, -0.55])
        curves = level_set_components(zl, 0.05, resolution=400)
        assert len(curves) == 2
        assert sorted(c.total_zero_count() for c in curves) == [1, 1]

    def test_level_accuracy_invariant(self):
        zl = ZeroList.from_points([0.3, -0.2 + 0.1j])
        for c in level_set_components(zl, 0.4, resolution=400):
            on_curve = np.abs(evaluate_grid(zl, c.points))
            assert np.abs(on_curve - 0.4).max() <= 0.1 * 0.4

    def test_curves_positively_oriented_and_clear_origin_rule(self):
        zl = ZeroList.from_points([0.4])
        curves = level_set_components(zl, 0.3, resolution=300)
        pts = curves[0].points
        area = 0.5 * float(np.sum(pts.real * np.roll(pts.imag, -1) - np.roll(pts.real, -1) * pts.imag))
        assert area > 0

    def test_delta_too_large(self):
        with pytest.raises(ValueError):
            level_set_components(ZeroList.from_points([0.2]), 0.97, resolution=128)


class TestArclengthNorm:
    def test_circle_value_vs_direct_boxes(self):
        c = JordanCurveApprox.circle(0.0, 0.5, n=128)
        got = arclength_carleson_norm([c])
        atoms = tuple(
            (complex(m), complex(l))
            for m, l in zip(0.5 * (c.edge_starts() + c.edge_ends()), c.edge_lengths())
        )
        mu = DiscreteMeasure(atoms)
        assert got == pytest.approx(box_carleson_norm(mu, suggested_box_depth(mu)), rel=1e-12)
        assert got > 0

    def test_empty(self):
        assert arclength_carleson_norm([]) == 0.0

    def test_homogeneity_under_doubling(self):
        c = JordanCurveApprox.circle(0.1, 0.3, n=64)
        base = arclength_carleson_norm([c])
        doubled = arclength_carleson_norm([c, c])
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)


class TestHarmonicMeasure:
    def test_center_uniform(self):
        c = JordanCurveApprox.circle(0.0, 0.4, n=64)
        masses = harmonic_measure(0.0, c, method="exact")
        assert masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert masses.max() - masses.min() < 1e-14

    def test_off_center_monte_carlo_matches_poisson(self):
        c = JordanCurveApprox.circle(0.0, 0.4, n=64)
        z = 0.12 + 0.07j
        exact = harmonic_measure(z, c, method="exact")
        rng = np.random.default_rng(42)
        n_walks = 40_000
        mc = harmonic_measure(z, c, n_samples=n_walks, rng=rng, method="walk")
        assert mc.sum() == pytest.approx(1.0, abs=1e-12)
        # sector-aggregated comparison within 3 standard errors
        ex8 = exact.reshape(8, -1).sum(axis=1)
        mc8 = mc.reshape(8, -1).sum(axis=1)
        stderr = np.sqrt(ex8 * (1 - ex8) / n_walks)
        assert np.all(np.abs(mc8 - ex8) <= 3.5 * stderr + 1e-4)

    def test_polyline_walk_total_mass(self):
        zl = ZeroList.from_points([0.3])
        curve = level_set_components(zl, 0.4, resolution=200)[0]
        rng = np.random.default_rng(1)
        masses = harmonic_measure(0.3, curve, n_samples=2000, rng=rng, method="walk")
        assert masses.sum() == pytest.approx(1.0, abs=1e-3)

    def test_source_outside_rejected(self):
        c = JordanCurveApprox.circle(0.0, 0.3, n=32)
        with pytest.raises(ValueError):
            harmonic_measure(0.8, c)

    def test_exact_needs_disk(self):
        zl = ZeroList.from_points([0.3])
        curve = level_set_components(zl, 0.4, resolution=200)[0]
        with pytest.raises(ValueError):
            harmonic_measure(0.3, curve, method="exact")

    def test_paired_marginals_unbiased(self):
        c = JordanCurveApprox.circle(0.0, 0.4, n=64)
        rng = np.random.default_rng(3)
        n_walks = 30_000
        mu, mb = harmonic_measure_paired(0.0, 0.1, c, n_samples=n_walks, rng=rng)
        ex_u = harmonic_measure(0.0, c, method="exact").reshape(8, -1).sum(axis=1)
        ex_b = harmonic_measure(0.1, c, method="exact").reshape(8, -1).sum(axis=1)
        se = np.sqrt(0.125 * 0.875 / n_walks)
        assert np.abs(mu.reshape(8, -1).sum(axis=1) - ex_u).max() < 4 * se
        assert np.abs(mb.reshape(8, -1).sum(axis=1) - ex_b).max() < 4 * se


class TestSplitZeros:
    def test_all_deep(self):
        zl = ZeroList.from_points([0.01 + 0.01j])
        curves = [JordanCurveApprox.circle(0.0, 0.6, n=128)]
        deep, rest = split_zeros_by_contour(zl, curves)
        assert deep.degree == 1 and rest.degree == 0

    def test_all_shallow(self):
        zl = ZeroList.from_points([0.55])
        curves = [JordanCurveApprox.circle(0.0, 0.6, n=128)]
        deep, rest = split_zeros_by_contour(zl, curves)
        assert deep.degree == 0 and rest.degree == 1

    def test_mixed_against_direct_distances(self):
        pts = [0.02, 0.3, 0.5, 0.8]
        zl = ZeroList.from_points(pts)
        curve = JordanCurveApprox.circle(0.0, 0.6, n=256)
        deep, rest = split_zeros_by_contour(zl, [curve])
        for p in pts:
            inside = abs(p) < 0.6
            beta = min(hyper_distance(p, q) for q in curve.points)
            expect_deep = inside and beta > 1.0
            assert (p in [abs(x) for x in deep.expanded_points()]) in (True, False)  # structural
            if expect_deep:
                assert complex(p) in deep.expanded_points()
            else:
                assert complex(p) in rest.expanded_points()


class TestAtlasAndRepresentatives:
    def test_totals_are_counts(self):
        u = ZeroList.from_points([0.1, -0.1])
        b = ZeroList.from_points([0.05j, -0.05j])
        circ = JordanCurveApprox.circle(0.0, 0.5, n=128)
        atlas = build_atlas(u, b, [circ], method="exact")
        assert atlas.u_count(0) == pytest.approx(2.0, abs=1e-9)
        assert atlas.b_count(0) == pytest.approx(2.0, abs=1e-9)
        assert atlas.nu(0).sum() == pytest.approx(0.0, abs=1e-9)
        atlas.validate_totals()

    def test_single_zero_single_representative(self):
        u = ZeroList.from_points([0.1])
        circ = JordanCurveApprox.circle(0.0, 0.5, n=128)
        atlas = build_atlas(u, ZeroList.from_points([0.1]), [circ], method="exact")
        reps = place_representatives(atlas)
        assert reps.degree == 1
        assert abs(abs(reps.expanded_points()[0]) - 0.5) < 0.01

    def test_double_zero_antipodal_representatives(self):
        u = ZeroList(m=2)
        circ = JordanCurveApprox.circle(0.0, 0.5, n=256)
        atlas = build_atlas(u, ZeroList(m=2), [circ], method="exact")
        reps = place_representatives(atlas)
        pts = reps.expanded_points()
        assert len(pts) == 2
        assert abs(pts[0] + pts[1]) < 0.02  # antipodal on the circle

    def test_representative_count_matches_mass(self):
        u = ZeroList.from_points([0.1, -0.15, 0.2j])
        circ = JordanCurveApprox.circle(0.0, 0.55, n=256)
        atlas = build_atlas(u, u, [circ], method="exact")
        assert place_representatives(atlas).degree == 3

    def test_inconsistent_totals_detected(self):
        circ = JordanCurveApprox.circle(0.0, 0.5, n=16)
        bad = HarmonicMeasureAtlas((circ,), (np.full(16, 1.3 / 16),), (np.zeros(16),))
        with pytest.raises(AtlasInconsistencyError):
            place_representatives(bad)


class TestLogQuotient:
    def test_equal_products_give_unity(self):
        u = ZeroList.from_points([0.1])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=256)
        atlas = build_atlas(u, u, [circ], method="exact")
        for z in (0.6, -0.7j, 0.5 + 0.5j):
            val = np.exp(log_quotient_via_contour(u, u, atlas, z))
            assert val == pytest.approx(1.0, abs=1e-9)

    def test_exact_disk_fixture(self):
        u = ZeroList(m=1)
        b = ZeroList.from_points([0.1])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=4096)
        atlas = build_atlas(u, b, [circ], method="exact")
        rng = np.random.default_rng(11)
        for _ in range(20):
            r = 0.45 + 0.5 * rng.random()
            z = r * np.exp(2j * np.pi * rng.random())
            val = np.exp(log_quotient_via_contour(u, b, atlas, z))
            ratio = evaluate_grid(u, np.array([z]))[0] / evaluate_grid(b, np.array([z]))[0]
            assert abs(val - ratio) < 1e-6

    def test_start_point_independence_after_exp(self):
        u = ZeroList(m=1)
        b = ZeroList.from_points([0.1])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=1024)
        atlas = build_atlas(u, b, [circ], method="exact")
        z = 0.55 + 0.3j
        l0 = log_quotient_via_contour(u, b, atlas, z)
        l1 = log_quotient_via_contour(u, b, atlas, z, start_vertices=[300])
        assert abs(np.exp(l0) - np.exp(l1)) < 1e-8

    def test_two_curve_atlas_uses_documented_starts(self):
        # the second curve encloses the origin, so its start vertex moves the
        # raw contour integral; each curve must start where it was told to
        u = ZeroList.from_points([0.5, 0.1])
        b = ZeroList.from_points([0.55, -0.05j])
        curves = [
            JordanCurveApprox.circle(0.5, 0.2, n=256, component_id=0),
            JordanCurveApprox.circle(0.0, 0.3, n=256, component_id=1),
        ]
        atlas = build_atlas(u, b, curves, method="exact")
        z, starts = 0.2 + 0.6j, (5, 40)
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            both = _contour_integrals(atlas, z, starts)
        one_by_one = sum(
            _contour_integrals(HarmonicMeasureAtlas((c,), (atlas.nu_u[i],), (atlas.nu_b[i],)), z, (s,))
            for i, (c, s) in enumerate(zip(curves, starts))
        )
        assert abs(both - one_by_one) < 1e-14

    def test_interior_point_rejected(self):
        u = ZeroList(m=1)
        circ = JordanCurveApprox.circle(0.0, 0.4, n=128)
        atlas = build_atlas(u, u, [circ], method="exact")
        with pytest.raises(ValueError):
            log_quotient_via_contour(u, u, atlas, 0.1)

    def test_count_mismatch_rejected(self):
        u = ZeroList.from_points([0.1, -0.1])
        b = ZeroList.from_points([0.1])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=128)
        atlas = build_atlas(u, b, [circ], method="exact")
        with pytest.raises(HypothesisViolationError):
            log_quotient_via_contour(u, b, atlas, 0.7)

    def test_count_mismatch_is_a_verification_error(self):
        u = ZeroList.from_points([0.1, -0.1])
        b = ZeroList.from_points([0.1])
        atlas = build_atlas(u, b, [JordanCurveApprox.circle(0.0, 0.4, n=128)], method="exact")
        with pytest.raises(VerificationError) as info:
            log_quotient_via_contour(u, b, atlas, 0.7)
        assert isinstance(info.value, HypothesisViolationError) and not isinstance(info.value, ValueError)
        assert info.value.to_json()["type"] == "HypothesisViolationError"


class TestArcDiameterInequality:
    def test_hand_example(self):
        u = ZeroList(m=1)
        circ = JordanCurveApprox.circle(0.0, 0.5, n=256)
        nu = harmonic_measure(0.0, circ, method="exact")
        checks = trossos_check(u, circ, nu, [(0, 0)])
        c = checks[0]
        assert not c.skipped
        assert c.nu_mass == pytest.approx(1.0, abs=1e-9)
        assert c.inf_modulus == pytest.approx(0.5, abs=1e-3)
        assert c.diameter == pytest.approx(0.8, abs=1e-3)
        assert c.slack >= 0

    def test_tiny_arc_skipped(self):
        u = ZeroList(m=1)
        circ = JordanCurveApprox.circle(0.0, 0.5, n=256)
        nu = np.zeros(256)
        checks = trossos_check(u, circ, nu, [(3, 5)])
        assert checks[0].skipped

    def test_random_arcs_nonnegative_slack(self):
        u = ZeroList.from_points([0.05, -0.03 + 0.04j])
        circ = JordanCurveApprox.circle(0.0, 0.5, n=256)
        nu = harmonic_measure(0.05, circ, method="exact") + harmonic_measure(
            -0.03 + 0.04j, circ, method="exact"
        )
        rng = np.random.default_rng(5)
        arcs = []
        for _ in range(25):
            a = int(rng.integers(0, 256))
            arcs.append((a, (a + int(rng.integers(10, 250))) % 256))
        for c in trossos_check(u, circ, nu, arcs):
            if not c.skipped:
                assert c.slack >= -1e-3


class TestArcMassDiagnostic:
    def test_max_arc_mass_reported(self):
        # the boundedness hypothesis on the difference measure is observed,
        # never assumed: for one zero each the prefix mass stays below 1
        u = ZeroList(m=1)
        b = ZeroList.from_points([0.1])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=256)
        atlas = build_atlas(u, b, [circ], method="exact")
        observed = atlas.max_arc_mass(0)
        assert 0.0 < observed < 1.0

    def test_equal_sources_have_zero_mass(self):
        u = ZeroList.from_points([0.1])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=128)
        atlas = build_atlas(u, u, [circ], method="exact")
        assert atlas.max_arc_mass(0) < 1e-12


def _reference_paired(z_u, z_b, curve, n_samples, rng, absorb=1e-4, max_steps=10_000, fuse_rel=1e-5):
    """The paired walk by the first route: every step runs over the whole
    chunk, dead pairs included."""
    zu = interior_value(z_u)
    zb = interior_value(z_b)
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
        for _ in range(max_steps):
            if not (np.any(alive_u) or np.any(alive_b)):
                break
            dirs = np.exp(2j * math.pi * rng.random(m))
            # reflection axis from pre-step positions only, else the axis
            # correlates with the direction and biases the marginal
            sep = pos_u - pos_b
            abs_sep = np.abs(sep)
            d_hat = np.where(abs_sep > 0, sep, 1.0) / np.where(abs_sep > 0, abs_sep, 1.0)

            dist_u = np.full(m, np.inf)
            dist_b = np.full(m, np.inf)
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



_THETA_24 = 2.0 * math.pi * np.arange(24) / 24


class TestPairedWalkCompaction:
    @pytest.mark.parametrize(
        "curve",
        [
            JordanCurveApprox.circle(0.0, 0.4, n=64),
            # a non-convex trefoil polyline, distances by the edge route
            JordanCurveApprox(0.05 + 0.4 * (1.0 + 0.3 * np.cos(3.0 * _THETA_24)) * np.exp(1j * _THETA_24)),
        ],
        ids=["disk", "polyline"],
    )
    def test_masses_equal_the_uncompacted_walk(self, curve):
        for seed in (3, 4):
            got = harmonic_measure_paired(0.0, 0.1, curve, n_samples=3000, rng=np.random.default_rng(seed))
            ref = _reference_paired(0.0, 0.1, curve, 3000, np.random.default_rng(seed))
            np.testing.assert_array_equal(got[0], ref[0])
            np.testing.assert_array_equal(got[1], ref[1])
