"""Tests for zero-set measures, box norms, separation and the alpha functional."""

import math

import numpy as np
import pytest

from blaschkelab.blaschke import ZeroList
from blaschkelab.carleson import (
    AlphaEstimate,
    CarlesonBox,
    DiscreteMeasure,
    alpha_b,
    box_carleson_norm,
    interpolation_constant,
    minimum_separated_classes,
    mu_b,
    separation_split,
    suggested_box_depth,
)
from blaschkelab.errors import RegionEmptyError
from blaschkelab.fixtures import geometric_zeros, random_zerolist
from blaschkelab.geometry import hyper_distance, rho_from_beta


class TestMuB:
    def test_single_zero(self):
        m = mu_b(ZeroList.from_points([0.5]))
        assert m.atoms == ((0.5 + 0j, 0.5 + 0j),)

    def test_empty(self):
        assert mu_b(ZeroList()).atoms == ()

    def test_two_zero_total_variation(self):
        m = mu_b(ZeroList.from_points([0.5, 0.5j]))
        assert m.total_variation() == pytest.approx(1.0)

    def test_origin_weight(self):
        m = mu_b(ZeroList(m=2))
        assert m.atoms == ((0j, 2 + 0j),)


class TestBoxNorm:
    def test_single_atom_hand_value(self):
        # weight 0.5 at z = 0.5: the smallest covering box has side 0.5
        m = DiscreteMeasure(((0.5 + 0j, 0.5 + 0j),))
        val = box_carleson_norm(m, 6)
        assert 0.25 <= val <= 1.0
        assert val == pytest.approx(1.0)

    def test_empty(self):
        assert box_carleson_norm(DiscreteMeasure(), 4) == 0.0

    def test_homogeneity(self):
        rng = np.random.default_rng(0)
        atoms = tuple(
            (0.9 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random()), complex(rng.random()))
            for _ in range(12)
        )
        m = DiscreteMeasure(atoms)
        a = box_carleson_norm(m, 8)
        b = box_carleson_norm(m.scaled(3.0), 8)
        assert b == pytest.approx(3.0 * a, rel=1e-12)

    def test_monotone_in_depth_and_atoms(self):
        m = DiscreteMeasure(((0.9 + 0j, 1.0 + 0j), (0.5j, 0.25 + 0j)))
        vals = [box_carleson_norm(m, d) for d in range(1, 10)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        bigger = DiscreteMeasure(m.atoms + ((0.9 + 0j, 0.5 + 0j),))
        assert box_carleson_norm(bigger, 8) >= box_carleson_norm(m, 8)

    def test_stabilizes_past_suggested_depth(self):
        m = mu_b(geometric_zeros(8))
        d = suggested_box_depth(m)
        assert box_carleson_norm(m, d) == box_carleson_norm(m, d + 4)


class TestCarlesonBox:
    def test_membership(self):
        box = CarlesonBox(0.0, 0.5)
        assert box.contains(0.6 + 0.0j)
        assert not box.contains(0.3 + 0.0j)  # too deep
        assert not box.contains(0.6j)  # wrong angle

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            CarlesonBox(0.0, 7.0)


class TestInterpolationConstant:
    def test_hand_pair(self):
        out = interpolation_constant(ZeroList.from_points([0.0, 0.5]))
        assert out.value == pytest.approx(0.5, abs=1e-12)
        assert not out.degenerate

    def test_single_zero(self):
        assert interpolation_constant(ZeroList.from_points([0.3])).value == 1.0

    def test_repeated_zero_degenerate(self):
        out = interpolation_constant(ZeroList.from_points([0.5, 0.5]))
        assert out.degenerate and out.value == 0.0

    def test_two_routes_agree(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            zl = random_zerolist(rng, int(rng.integers(2, 9)), 0.9)
            if any(k > 1 for _, k in zl.zeros):
                continue
            out = interpolation_constant(zl)
            assert out.derivative_route == pytest.approx(out.product_route, abs=1e-10)


class TestSeparationSplit:
    @pytest.mark.parametrize("s", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_separation_rejected(self, s):
        with pytest.raises(ValueError, match="separation must be positive"):
            separation_split(ZeroList.from_points([0.3, 0.31, -0.5 + 0.1j]), s)

    def test_far_points_one_class(self):
        zl = ZeroList.from_points([0.0, 0.9])
        classes = separation_split(zl, 1.0)
        assert len(classes) == 1

    def test_duplicate_forces_split(self):
        zl = ZeroList.from_points([0.5, 0.5])
        assert len(separation_split(zl, 0.5)) >= 2

    def test_classes_are_separated_and_partition(self):
        rng = np.random.default_rng(2)
        zl = random_zerolist(rng, 14, 0.95)
        s = 0.8
        classes = separation_split(zl, s)
        got = sorted((p for c in classes for p in c.expanded_points()), key=lambda z: (z.real, z.imag))
        want = sorted(zl.expanded_points(), key=lambda z: (z.real, z.imag))
        assert got == want
        for c in classes:
            pts = c.expanded_points()
            for i in range(len(pts)):
                for j in range(i + 1, len(pts)):
                    assert hyper_distance(pts[i], pts[j]) >= s

    def test_geometric_chain_vs_brute_force(self):
        zl = geometric_zeros(10)
        pts = zl.expanded_points()
        greedy = len(separation_split(zl, 1.0))
        exact = minimum_separated_classes(pts, 1.0)
        assert exact == 2  # consecutive links conflict, next-nearest do not
        assert greedy == exact

    def test_random_instances_never_beat_brute_force(self):
        # first-fit is not optimal in general (the chain fixture above is the
        # case where brute force confirms it); greedy must never undercut
        rng = np.random.default_rng(7)
        for _ in range(30):
            zl = random_zerolist(rng, int(rng.integers(2, 11)), 0.97)
            greedy = len(separation_split(zl, 1.0))
            exact = minimum_separated_classes(zl.expanded_points(), 1.0)
            assert exact <= greedy <= zl.degree


class TestAlphaB:
    def test_monomial_matches_tanh(self):
        zl = ZeroList(m=1)
        for r in (0.5, 1.0, 2.0):
            est = alpha_b(zl, r, cell_beta=0.05, edge_gap=1e-2)
            assert est.value == pytest.approx(math.tanh(r / 2.0), abs=0.05)
            assert est.value >= rho_from_beta(r)  # sampled min cannot undershoot

    def test_nondecreasing_in_r(self):
        zl = ZeroList.from_points([0.2, -0.3 + 0.4j])
        vals = [alpha_b(zl, r, cell_beta=0.1, edge_gap=1e-3).value for r in (0.5, 1.0, 1.5, 2.0)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_small_r_near_zero_set(self):
        est = alpha_b(ZeroList(m=1), 0.05, cell_beta=0.02, edge_gap=5e-2)
        assert est.value < 0.06

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_threshold_rejected(self, r):
        with pytest.raises(ValueError, match="threshold must be positive"):
            alpha_b(ZeroList.from_points([0.3, 0.31, -0.5 + 0.1j]), r)

    def test_region_empty(self):
        with pytest.raises(RegionEmptyError):
            alpha_b(ZeroList(m=1), 25.0, cell_beta=0.5, edge_gap=1e-2)

    def test_reports_resolution(self):
        est = alpha_b(ZeroList(m=1), 0.5, cell_beta=0.2, edge_gap=1e-3)
        assert isinstance(est, AlphaEstimate)
        assert est.cell_beta == 0.2 and est.n_samples > 0
