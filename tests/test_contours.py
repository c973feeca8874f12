"""Tests for level sets, harmonic measure, representatives and the contour log."""

import math
import warnings

import numpy as np
import pytest

from blaschkelab import contours
from blaschkelab.acceptance import contour_log_fixture_mc
from blaschkelab.blaschke import ZeroList, evaluate_grid
from blaschkelab.carleson import DiscreteMeasure, box_carleson_norm, suggested_box_depth
from blaschkelab.contours import (
    HarmonicMeasureAtlas,
    _contour_integrals,
    _coupled_step,
    _dense_distance,
    _distance_to_curve,
    _level_values,
    _poisson_edge_masses,
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

    @pytest.mark.parametrize(
        "zeros",
        [ZeroList(m=2), ZeroList(((0.3 + 0.2j, 2), (-0.5 + 0j, 1)), m=1), ZeroList.from_points([0.55, -0.55, 0.1j])],
        ids=["origin", "multiple", "simple"],
    )
    def test_row_blocks_equal_one_shot_evaluation(self, zeros, monkeypatch):
        xs = np.linspace(-0.9, 0.9, 513)
        grid = xs[None, :] + 1j * xs[:, None]
        np.testing.assert_array_equal(_level_values(zeros, grid, 0.3), np.abs(evaluate_grid(zeros, grid)) - 0.3)
        blocked = level_set_components(zeros, 0.3)
        monkeypatch.setattr(contours, "_LEVEL_BLOCK", 1 << 20)
        one_shot = level_set_components(zeros, 0.3)
        assert len(blocked) == len(one_shot)
        for c, d in zip(blocked, one_shot):
            np.testing.assert_array_equal(c.points, d.points)
            assert c.enclosed_zeros == d.enclosed_zeros

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


def _reference_distance(p, curve):
    """The first distance route: the disk formula for disk fixtures, else a
    dense points x edges scan (first edge on ties)."""
    if curve.is_disk_fixture:
        rel = p - curve.disk_center
        dist = curve.disk_radius - np.abs(rel)
        ang = np.mod(np.angle(rel), 2.0 * math.pi)
        ne = np.minimum((ang / (2.0 * math.pi) * curve.n_edges).astype(np.int64), curve.n_edges - 1)
        return dist, ne
    d_all = _dense_edge_distances(p, curve)
    ne = d_all.argmin(axis=1)
    return d_all[np.arange(p.size), ne], ne


def _dense_edge_distances(p, curve):
    """Distances from every point to every edge of the polyline."""
    starts = curve.points
    dvec = np.roll(curve.points, -1) - starts
    dd = np.abs(dvec) ** 2
    diff = p[:, None] - starts[None, :]
    t = np.clip((diff * np.conj(dvec)[None, :]).real / dd[None, :], 0.0, 1.0)
    return np.abs(diff - t * dvec[None, :])


def _reference_paired(z_u, z_b, curve, n_samples, rng, absorb=1e-4, max_steps=10_000, fuse_rel=1e-5):
    """The first paired walk, a statistical reference for the engine: half-distance
    steps, each direction reflected across the pair's bisector, fusion once the
    gap falls under ``fuse_rel`` of the local scale; every step runs over the
    whole chunk.  Distances by ``_distance_to_curve``, which ``TestCellIndex``
    pins to the dense scan."""
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


def _regular_polygon(n):
    # no disk metadata, so distances take the polyline route; symmetric
    # vertices give exact ties between edges
    return JordanCurveApprox(0.4 * np.exp(2j * math.pi * np.arange(n) / n))


def _level_set_curve():
    return level_set_components(ZeroList.from_points([0.3]), 0.4, resolution=200)[0]


def _query_points(curve, rng):
    v = curve.points
    mids = 0.5 * (v + np.roll(v, -1))
    normal = 1j * (np.roll(v, -1) - v) / np.abs(np.roll(v, -1) - v)
    centre = complex(v.mean())
    return np.concatenate([
        v,
        mids,
        mids + 1e-12 * normal,
        mids - 1e-12 * normal,
        v + 3e-13 * rng.standard_normal(v.size),
        [centre, centre + 1e-3, 0.5 * (v.real.min() + v.real.max()) + 0.5j * (v.imag.min() + v.imag.max())],
        centre + 0.05 * rng.standard_normal(200) * np.exp(2j * math.pi * rng.random(200)),
        rng.uniform(-0.95, 0.95, 2000) + 1j * rng.uniform(-0.95, 0.95, 2000),
        # outside the bounding box
        [1.5, -2.0j, 0.99 + 0.99j, v.real.max() + 1e-9, 1j * (v.imag.min() - 1e-9)],
    ])


_DISTANCE_CURVES = {
    "trefoil": lambda: JordanCurveApprox(
        0.05 + 0.4 * (1.0 + 0.3 * np.cos(3.0 * _THETA_24)) * np.exp(1j * _THETA_24)
    ),
    "level-set": _level_set_curve,
    "polyline-1024": lambda: JordanCurveApprox(JordanCurveApprox.circle(0.0, 0.4, n=1024).points),
    "polygon-16": lambda: _regular_polygon(16),
}


class TestCellIndex:
    @pytest.mark.parametrize("name", sorted(_DISTANCE_CURVES))
    def test_distances_equal_the_dense_scan(self, name):
        curve = _DISTANCE_CURVES[name]()
        p = _query_points(curve, np.random.default_rng(17))
        dist, ne = _distance_to_curve(p, curve)
        ref_dist, ref_ne = _reference_distance(p, curve)
        np.testing.assert_array_equal(dist, ref_dist)
        np.testing.assert_array_equal(ne, ref_ne)
        assert curve._cell_index is not None

    def test_polygon_fixture_has_exact_ties(self):
        curve = _regular_polygon(16)
        d_all = _dense_edge_distances(_query_points(curve, np.random.default_rng(17)), curve)
        tied = (d_all == d_all.min(axis=1, keepdims=True)).sum(axis=1) > 1
        assert tied.sum() >= 10

    def test_index_is_cached_and_compact(self):
        curve = _DISTANCE_CURVES["polyline-1024"]()
        index = curve._cell_index
        assert curve._cell_index is index
        assert index.side == 32
        assert index.cand.dtype == np.int32 and index.ptr[-1] == index.cand.size
        counts = np.diff(index.ptr)
        assert counts.size == 32 * 32 and counts.min() >= 1
        # ascending edge order within each cell
        cell_of = np.repeat(np.arange(counts.size), counts)
        assert np.all((np.diff(index.cand) > 0) | (np.diff(cell_of) > 0))

    def test_zero_length_edge_is_rejected(self):
        # a repeated vertex would make every distance 0/0
        pts = 0.4 * np.exp(2j * math.pi * np.arange(12) / 12)
        with pytest.raises(ValueError, match="zero-length edge"):
            JordanCurveApprox(np.insert(pts, 3, pts[3]))

    def test_edge_ends_are_a_read_only_roll(self):
        curve = _regular_polygon(16)
        np.testing.assert_array_equal(curve.edge_ends(), np.roll(curve.points, -1))
        with pytest.raises(ValueError):
            curve.edge_ends()[0] = 0.0


def _reference_walk(z, curve, n_samples, rng, absorb=1e-4, max_steps=10_000):
    """The first unpaired walk, a statistical reference for the engine:
    half-distance steps, distances as in ``_reference_paired``."""
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
            np.add.at(masses, nearest[alive], 1.0)
        done += m
    return masses / n_samples


def _lens_ratio(d, r):
    """|B(0, r) n B(d, r)| / (pi r^2)."""
    if d >= 2.0 * r:
        return 0.0
    return (2.0 * r * r * math.acos(d / (2.0 * r)) - 0.5 * d * math.sqrt(4.0 * r * r - d * d)) / (math.pi * r * r)


class TestCoupledStep:
    @pytest.mark.parametrize("d", [0.0, 0.07, 0.15, 0.25])
    def test_fusion_rate_is_the_lens_ratio_and_both_walkers_are_uniform(self, d):
        n, r = 200_000, 0.1
        rng = np.random.default_rng(31)
        xu = np.full(n, 0.2 + 0.1j)
        xb = xu + d * np.exp(0.7j)
        radial, angle = rng.random((2, n))
        new_u, new_b, meet = _coupled_step(xu, xb, np.full(n, r), radial, np.exp(2j * math.pi * angle))
        p = _lens_ratio(d, r)
        assert abs(meet.mean() - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n) + 1e-12
        np.testing.assert_array_equal(new_b[meet], new_u[meet])
        for new, centre in ((new_u, xu), (new_b, xb)):
            rel = new - centre
            assert np.abs(rel).max() <= r * (1.0 + 1e-12)
            # uniform in B(centre, r): coordinates of mean 0 and variance r^2 / 4,
            # |rel|^2 / r^2 uniform on [0, 1]
            assert abs(rel.real.mean()) < 4.0 * 0.5 * r / math.sqrt(n)
            assert abs(rel.imag.mean()) < 4.0 * 0.5 * r / math.sqrt(n)
            assert abs((np.abs(rel) ** 2).mean() / r**2 - 0.5) < 4.0 * math.sqrt(1.0 / 12.0 / n)


def _assert_arcs_and_modes_agree(got, exact, theta, n):
    """8 arc masses and Fourier modes 1..3 of the exit angle within 4 sigma of
    n independent walkers."""
    arcs, exact_arcs = got.reshape(8, -1).sum(axis=1), exact.reshape(8, -1).sum(axis=1)
    assert np.all(np.abs(arcs - exact_arcs) < 4.0 * np.sqrt(exact_arcs * (1.0 - exact_arcs) / n))
    for k in (1, 2, 3):
        for f in (np.cos(k * theta), np.sin(k * theta)):
            sigma = math.sqrt((exact @ f**2 - (exact @ f) ** 2) / n)
            assert abs(got @ f - exact @ f) < 4.0 * sigma


def _arc_blocks(masses, n_arcs=8):
    return np.array([blk.sum() for blk in np.array_split(masses, n_arcs)])


class TestWalkEngine:
    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_paired_marginals_match_poisson(self, seed):
        curve = JordanCurveApprox.circle(0.0, 0.4, n=256)
        theta = np.angle(0.5 * (curve.edge_starts() + curve.edge_ends()))
        n = 400_000
        z_u, z_b = 0.1 + 0.0j, -0.05 + 0.1j
        mu, mb = harmonic_measure_paired(z_u, z_b, curve, n_samples=n, rng=np.random.default_rng(seed))
        _assert_arcs_and_modes_agree(mu, _poisson_edge_masses(z_u, curve), theta, n)
        _assert_arcs_and_modes_agree(mb, _poisson_edge_masses(z_b, curve), theta, n)

    @pytest.mark.parametrize("name", ["trefoil", "level-set"])
    def test_matches_the_reference_loops(self, name):
        curve = _DISTANCE_CURVES[name]()
        z_u, z_b = (0.3 + 0.0j, 0.2 + 0.1j) if name == "level-set" else (0.05 + 0.02j, 0.15 - 0.05j)
        n_ref, n_new = 5_000, 20_000
        ref = (
            *_reference_paired(z_u, z_b, curve, n_ref, np.random.default_rng(1)),
            _reference_walk(z_u, curve, n_ref, np.random.default_rng(2)),
        )
        got = (
            *harmonic_measure_paired(z_u, z_b, curve, n_samples=n_new, rng=np.random.default_rng(3)),
            harmonic_measure(z_u, curve, n_samples=n_new, rng=np.random.default_rng(4), method="walk"),
        )
        for g, r in zip(got, ref):
            assert g.sum() == pytest.approx(1.0, abs=1e-12)
            g_arcs, r_arcs = _arc_blocks(g), _arc_blocks(r)
            p = (n_ref * r_arcs + n_new * g_arcs) / (n_ref + n_new)
            assert np.all(np.abs(g_arcs - r_arcs) < 4.0 * np.sqrt(p * (1.0 - p) * (1.0 / n_ref + 1.0 / n_new)))

    def test_lattice_shift_randomizes_each_first_step(self):
        # from the centre one sphere jump lands on the circle: a lone walker's
        # exit edge is its first-step angle, uniform only through the shift
        curve = JordanCurveApprox.circle(0.0, 0.4, n=64)
        edges = {
            int(np.argmax(harmonic_measure(0.0, curve, 1, np.random.default_rng(seed), "walk"))) for seed in range(200)
        }
        assert len(edges) > 48

    def test_equal_sources_fuse_at_once(self):
        curve = JordanCurveApprox.circle(0.0, 0.4, n=64)
        mu, mb = harmonic_measure_paired(0.1, 0.1, curve, n_samples=5000, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(mu, mb)

    def test_seeded_runs_repeat(self):
        # three chunks, the last one partial
        curve = JordanCurveApprox.circle(0.0, 0.4, n=64)
        run = lambda: harmonic_measure_paired(0.0, 0.1, curve, n_samples=45_000, rng=np.random.default_rng(5))
        first, again = run(), run()
        np.testing.assert_array_equal(first[0], again[0])
        np.testing.assert_array_equal(first[1], again[1])
        assert first[0].sum() == pytest.approx(1.0, abs=1e-12)


def _dense_route(p, curve):
    return _dense_distance(p, curve.edge_starts(), curve.edge_ends() - curve.edge_starts())


class TestIndexedWalks:
    """The engine on cell-index distances against the engine with
    ``_distance_to_curve`` replaced by the dense scan: the same bits."""

    @staticmethod
    def _both_routes(monkeypatch, run):
        indexed = run()
        with monkeypatch.context() as patch:
            patch.setattr(contours, "_distance_to_curve", _dense_route)
            dense = run()
        return indexed, dense

    @pytest.mark.parametrize("name", ["trefoil", "level-set"])
    def test_walk_masses_equal_the_dense_walk(self, name, monkeypatch):
        curve = _DISTANCE_CURVES[name]()
        z = 0.3 + 0.0j if name == "level-set" else 0.05 + 0.02j
        for seed in (5, 6):
            indexed, dense = self._both_routes(
                monkeypatch,
                lambda: (
                    harmonic_measure(z, curve, 400, np.random.default_rng(seed), "walk"),
                    *harmonic_measure_paired(z, z - 0.06j, curve, 400, np.random.default_rng(seed)),
                ),
            )
            for got, ref in zip(indexed, dense):
                np.testing.assert_array_equal(got, ref)

    def test_step_cap_stragglers_equal_the_dense_walk(self, monkeypatch):
        curve = _DISTANCE_CURVES["trefoil"]()
        indexed, dense = self._both_routes(
            monkeypatch,
            lambda: harmonic_measure_paired(
                0.05, 0.1, curve, 300, np.random.default_rng(8), absorb=1e-9, max_steps=5, return_stragglers=True
            ),
        )
        np.testing.assert_array_equal(indexed[0], dense[0])
        np.testing.assert_array_equal(indexed[1], dense[1])
        assert indexed[2] == dense[2] > 0


class TestWalkStragglers:
    def test_none_on_the_criterion_7_fixture(self):
        u, b, circ = contour_log_fixture_mc()
        atlas = build_atlas(u, b, [circ], n_samples=40_000, rng=np.random.default_rng(7), method="walk", paired=True)
        assert atlas.walk_stragglers == 0
        assert "walk_stragglers" not in atlas.to_json()

    def test_counted_at_the_step_cap(self):
        curve = JordanCurveApprox.circle(0.0, 0.4, n=64)
        mu, mb, stuck = harmonic_measure_paired(
            0.0, 0.1, curve, 1000, np.random.default_rng(1), max_steps=2, return_stragglers=True
        )
        assert 0 < stuck <= 2000
        assert mu.sum() == pytest.approx(1.0) and mb.sum() == pytest.approx(1.0)
        masses, solo = harmonic_measure(
            0.1, curve, 1000, np.random.default_rng(1), "walk", max_steps=2, return_stragglers=True
        )
        assert 0 < solo <= 1000 and masses.sum() == pytest.approx(1.0)
        assert harmonic_measure(0.1, curve, return_stragglers=True)[1] == 0
        # equal sources fuse on the first step, and a fused pair still out counts twice
        _, _, stuck = harmonic_measure_paired(
            0.1, 0.1, curve, 1000, np.random.default_rng(1), max_steps=1, return_stragglers=True
        )
        assert stuck == 2000

    @pytest.mark.parametrize("paired", [True, False])
    def test_atlas_sums_the_counts(self, paired, monkeypatch):
        counts = []

        def capped(fn):
            def run(*args, **kwargs):
                out = fn(*args, max_steps=2, **kwargs)
                counts.append(out[-1])
                return out

            return run

        for name in ("harmonic_measure", "harmonic_measure_paired"):
            monkeypatch.setattr(contours, name, capped(getattr(contours, name)))
        u = ZeroList.from_points([0.1, -0.1j])
        b = ZeroList.from_points([0.05, 0.12j])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=64)
        atlas = build_atlas(u, b, [circ], n_samples=500, rng=np.random.default_rng(2), method="walk", paired=paired)
        assert len(counts) == (2 if paired else 4)
        assert atlas.walk_stragglers == sum(counts) > 0


_BAD_WALK_ARGS = {
    "no-samples": {"n_samples": 0},
    "negative-samples": {"n_samples": -3},
    "zero-absorb": {"absorb": 0.0},
    "negative-absorb": {"absorb": -1e-4},
    "nan-absorb": {"absorb": float("nan")},
    "no-steps": {"max_steps": 0},
}


class TestWalkArguments:
    @pytest.mark.parametrize("case", sorted(_BAD_WALK_ARGS))
    def test_walk_rejects(self, case):
        curve = JordanCurveApprox.circle(0.0, 0.4, n=64)
        with pytest.raises(ValueError):
            harmonic_measure(0.1, curve, method="walk", **_BAD_WALK_ARGS[case])

    @pytest.mark.parametrize("case", sorted(_BAD_WALK_ARGS))
    def test_paired_walk_rejects(self, case):
        curve = JordanCurveApprox.circle(0.0, 0.4, n=64)
        with pytest.raises(ValueError):
            harmonic_measure_paired(0.1, -0.1, curve, **_BAD_WALK_ARGS[case])

    def test_exact_route_ignores_walk_arguments(self):
        curve = JordanCurveApprox.circle(0.0, 0.4, n=64)
        exact = harmonic_measure(0.1, curve)
        np.testing.assert_array_equal(harmonic_measure(0.1, curve, n_samples=0), exact)


class TestAtlasTables:
    def test_masses_are_read_only_copies(self):
        circ = JordanCurveApprox.circle(0.0, 0.4, n=16)
        mu, mb = np.full(16, 1.0 / 16), np.full(16, 1.0 / 16)
        atlas = HarmonicMeasureAtlas((circ,), (mu,), (mb,))
        mu[0] = 5.0
        assert atlas.nu_u[0][0] == 1.0 / 16
        for table in (atlas.nu_u[0], atlas.nu_b[0]):
            with pytest.raises(ValueError):
                table[0] = 0.0
        with pytest.raises(AttributeError):
            atlas.nu_u = (mb,)


def _uncached_integrals(atlas, z, starts):
    """The contour integrals with every node table rebuilt per point."""
    total = 0.0j
    for i, curve in enumerate(atlas.curves):
        order = np.roll(np.arange(curve.n_edges), -int(starts[i]))
        nu_edges = (atlas.nu_u[i] - atlas.nu_b[i])[order]
        edge_starts = curve.points[order]
        d = (np.roll(curve.points, -1) - curve.points)[order]
        cum0 = np.concatenate([[0.0], np.cumsum(nu_edges)])[:-1]
        t = 0.5 * (np.polynomial.legendre.leggauss(8)[0] + 1.0)
        wts = 0.5 * np.polynomial.legendre.leggauss(8)[1]
        xi = edge_starts[:, None] + t[None, :] * d[:, None]
        nu_at = cum0[:, None] + t[None, :] * nu_edges[:, None]
        k1 = d[:, None] / (xi - z)
        k2 = np.conj(d)[:, None] / ((1.0 - np.conj(xi) * z) * np.conj(xi))
        total += -complex((nu_at * (k1 + k2) * wts[None, :]).sum())
    return total


class TestCachedContourIntegrals:
    @pytest.mark.parametrize("case", ["exact-4096", "walk-256", "two-curves"])
    def test_log_quotient_equals_the_uncached_integral(self, case):
        if case == "two-curves":
            u = ZeroList.from_points([0.5, 0.1])
            b = ZeroList.from_points([0.55, -0.05j])
            curves = [
                JordanCurveApprox.circle(0.5, 0.2, n=256, component_id=0),
                JordanCurveApprox.circle(0.0, 0.3, n=256, component_id=1),
            ]
            atlas = build_atlas(u, b, curves, method="exact")
            start_sets = [None, (5, 40), (200, 0)]
        else:
            u, b = ZeroList(m=1), ZeroList.from_points([0.03 - 0.02j])
            n = 4096 if case == "exact-4096" else 256
            circ = JordanCurveApprox.circle(0.0, 0.4, n=n)
            if case == "exact-4096":
                atlas = build_atlas(u, b, [circ], method="exact")
            else:
                atlas = build_atlas(
                    u, b, [circ], n_samples=1000, rng=np.random.default_rng(2), method="walk", paired=True
                )
            start_sets = [None, (7,), (n - 1,)]
        z_ref = 0.7 - 0.65j
        rng = np.random.default_rng(23)
        points = [(0.45 + 0.5 * rng.random()) * np.exp(2j * math.pi * rng.random()) for _ in range(12)]
        points = [complex(z) for z in points if not any(c.contains(z) for c in atlas.curves)]
        direct = complex(np.log(evaluate_grid(u, np.array([z_ref]))[0] / evaluate_grid(b, np.array([z_ref]))[0]))
        for starts in start_sets:
            s = tuple(c.start_vertex() for c in atlas.curves) if starts is None else starts
            c1 = direct - _uncached_integrals(atlas, z_ref, s)
            for z in points:
                got = log_quotient_via_contour(u, b, atlas, z, z_ref=z_ref, start_vertices=starts)
                assert got == c1 + _uncached_integrals(atlas, z, s)
