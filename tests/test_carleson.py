"""Tests for zero-set measures, box norms, separation and the alpha functional."""

import math
import tracemalloc

import numpy as np
import pytest

from blaschkelab import carleson
from blaschkelab.blaschke import ZeroList, evaluate_grid
from blaschkelab.carleson import (
    AlphaEstimate,
    DiscreteMeasure,
    alpha_b,
    box_carleson_norm,
    interpolation_constant,
    mu_b,
    separation_split,
    suggested_box_depth,
)
from blaschkelab.errors import RegionEmptyError
from blaschkelab.fixtures import geometric_zeros, random_matched_pair, random_zerolist
from blaschkelab.geometry import beta_matrix, hyper_distance, interior_value, pseudo_distance, rho_from_beta

# interior zeros whose pseudohyperbolic distance rounds to 1 (beta ~ 37.4)
NEAR_ANTIPODES = (1.0 - 2e-12, -(1.0 - 2e-12))


def _dense_box_norm(mu, max_depth):
    """The box norm with one bin for every arc of every level, occupied or not."""
    z = np.array([a for a, _ in mu.atoms])
    w = np.array([abs(v) for _, v in mu.atoms])
    best = 0.0
    for d in range(0, max_depth + 1):
        side = 2.0**-d
        mask = 1.0 - np.abs(z) <= side
        if not np.any(mask):
            break
        n_arcs = int(np.ceil(2.0 * math.pi / side))
        idx = np.minimum((np.mod(np.angle(z[mask]), 2.0 * math.pi) / side).astype(int), n_arcs - 1)
        best = max(best, float(np.bincount(idx, weights=w[mask], minlength=n_arcs).max()) / side)
    return best


def _scalar_separation_split(zeros, s):
    """First-fit classes by scalar hyperbolic distances, one pair at a time."""
    pts = sorted(zeros.expanded_points(), key=lambda z: (-abs(z), math.atan2(z.imag, z.real)))
    classes = []
    for p in pts:
        for cls in classes:
            if all(hyper_distance(p, q) >= s for q in cls):
                cls.append(p)
                break
        else:
            classes.append([p])
    return [ZeroList.from_points(cls) for cls in classes]


def _identity_batch_zeros(seed, ops=25, n_max=200):
    """The zero lists the benchmark's identity-batch deck splits at ``seed``."""
    rng = np.random.default_rng((seed, 3))
    width = n_max // ops
    for k in range(ops):
        n = 1 + k * width + int(rng.integers(0, width))
        za, zb = random_matched_pair(rng, n, beta_max=1.0, r_max=0.95)
        rng.permutation(zb.degree)  # the deck's shuffle of the displaced zeros
        yield za


def minimum_separated_classes(points, s):
    """Brute-force minimum number of pairwise >= s separated classes (n <= ~12):
    the oracle of the greedy ``separation_split``."""
    n = len(points)
    if n == 0:
        return 0
    pts = [interior_value(p) for p in points]
    conflict = (beta_matrix(pts, pts) < s).tolist()

    def feasible(k: int) -> bool:
        color = [-1] * n

        def assign(i: int) -> bool:
            if i == n:
                return True
            # symmetry reduction: a fresh color may only be the next unused one
            limit = min(k - 1, max(color[:i], default=-1) + 1)
            for c in range(limit + 1):
                if any(color[j] == c and conflict[i][j] for j in range(i)):
                    continue
                color[i] = c
                if assign(i + 1):
                    return True
                color[i] = -1
            return False

        return assign(0)

    for k in range(1, n + 1):
        if feasible(k):
            return k
    return n


def _scalar_minimum_separated_classes(points, s):
    """Fewest s-separated classes by exhaustive colouring on scalar distances."""
    n = len(points)
    conflict = [[hyper_distance(points[i], points[j]) < s for j in range(n)] for i in range(n)]

    def colour(i, color, k):
        if i == n:
            return True
        for c in range(min(k - 1, max(color, default=-1) + 1) + 1):
            if not any(color[j] == c and conflict[i][j] for j in range(i)):
                if colour(i + 1, color + [c], k):
                    return True
        return False

    return next((k for k in range(1, n + 1) if colour(0, [], k)), 0)


class TestMuB:
    def test_single_zero(self):
        m = mu_b(ZeroList.from_points([0.5]))
        assert m.atoms == ((0.5 + 0j, 0.5 + 0j),)

    def test_empty(self):
        assert mu_b(ZeroList()).atoms == ()

    def test_two_zero_total_variation(self):
        m = mu_b(ZeroList.from_points([0.5, 0.5j]))
        assert sum(abs(w) for _, w in m.atoms) == pytest.approx(1.0)

    def test_origin_weight(self):
        m = mu_b(ZeroList(m=2))
        assert m.atoms == ((0j, 2 + 0j),)


class TestDiscreteMeasure:
    @pytest.mark.parametrize("z", [1.0, complex(math.nan, 0.0)])
    def test_rejects_atoms_off_the_open_disk(self, z):
        with pytest.raises(ValueError):
            DiscreteMeasure(((z, 1.0 + 0j),))


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
        b = box_carleson_norm(DiscreteMeasure(tuple((z, 3.0 * w) for z, w in m.atoms)), 8)
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

    def test_occupied_arcs_give_the_dense_norm(self):
        rng = np.random.default_rng(12)
        measures = [mu_b(geometric_zeros(8)), mu_b(geometric_zeros(25)), mu_b(ZeroList(m=2))]
        measures += [mu_b(random_zerolist(rng, int(rng.integers(1, 60)), 0.999)) for _ in range(20)]
        measures.append(DiscreteMeasure(((0.5 + 0j, 0.5 + 0j), (-0.9 + 0j, 1j), (0.99j, 0.25 + 0j))))
        for m in measures:
            for d in (1, 4, suggested_box_depth(m), suggested_box_depth(m) + 3):
                assert box_carleson_norm(m, d) == _dense_box_norm(m, d)

    def test_memory_follows_the_atoms_not_the_arcs(self):
        # depth 21 has 13.2 million arcs, 105 MB of float64 bins
        m = mu_b(ZeroList.from_points([1.0 - 1e-6, 0.5j, -0.3]))
        depth = suggested_box_depth(m)
        assert depth == 21
        tracemalloc.start()
        try:
            norm = box_carleson_norm(m, depth)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert norm == pytest.approx(1.0)
        assert peak < 4e6


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

    def test_product_route_equals_the_scalar_distances(self):
        rng = np.random.default_rng(31)
        for _ in range(40):
            pts = random_zerolist(rng, int(rng.integers(2, 201)), 0.95).expanded_points()
            want = min(
                math.prod(pseudo_distance(p, q) for j, q in enumerate(pts) if j != i) for i, p in enumerate(pts)
            )
            got = interpolation_constant(ZeroList.from_points(pts)).product_route
            assert got == pytest.approx(want, rel=1e-14, abs=0.0)


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

    def test_classes_equal_the_scalar_route(self):
        rng = np.random.default_rng(23)
        for k in range(200):
            pts = random_zerolist(rng, int(rng.integers(1, 201)), 0.97).expanded_points()
            zl = ZeroList.from_points(pts + pts[: k % 4])  # some lists carry repeated zeros
            s = float(rng.choice([0.3, 1.0, 2.5]))
            got = [c.to_json() for c in separation_split(zl, s)]
            assert got == [c.to_json() for c in _scalar_separation_split(zl, s)]
        for seed in (7, 12001, 12002):
            for zl in _identity_batch_zeros(seed):
                got = [c.to_json() for c in separation_split(zl, 1.0)]
                assert got == [c.to_json() for c in _scalar_separation_split(zl, 1.0)]

    def test_brute_force_equals_the_scalar_route(self):
        rng = np.random.default_rng(29)
        for _ in range(200):
            pts = random_zerolist(rng, int(rng.integers(1, 10)), 0.97).expanded_points()
            s = float(rng.choice([0.5, 1.0, 2.0]))
            assert minimum_separated_classes(pts, s) == _scalar_minimum_separated_classes(pts, s)

    def test_near_antipodes_are_separated(self):
        zl = ZeroList.from_points(NEAR_ANTIPODES)
        assert [c.degree for c in separation_split(zl, 1.0)] == [2]
        assert [c.degree for c in separation_split(zl, 40.0)] == [1, 1]
        assert minimum_separated_classes(list(NEAR_ANTIPODES), 1.0) == 1

    @pytest.mark.parametrize("bad", [1.0 - 1e-12, 1.5j])
    def test_brute_force_rejects_points_off_the_open_disk(self, bad):
        with pytest.raises(ValueError, match="interior"):
            minimum_separated_classes([0.3, bad], 1.0)

    def test_random_instances_never_beat_brute_force(self):
        # first-fit is not optimal in general (the chain fixture above is the
        # case where brute force confirms it); greedy must never undercut
        rng = np.random.default_rng(7)
        for _ in range(30):
            zl = random_zerolist(rng, int(rng.integers(2, 11)), 0.97)
            greedy = len(separation_split(zl, 1.0))
            exact = minimum_separated_classes(zl.expanded_points(), 1.0)
            assert exact <= greedy <= zl.degree


def _ring_scan(zeros, r, cell_beta, edge_gap):
    """min |b| over rings ``cell_beta`` apart in beta, each sampled about every
    ``cell_beta`` along it, of {beta(z, Z) > r, |z| <= 1 - edge_gap}: the
    library's former 2-D sampler, an independent upper bound of the infimum."""
    pts = np.array(zeros.expanded_points())
    beta_max = 2.0 * math.atanh(1.0 - edge_gap)
    best = math.inf
    for i in range(int(math.ceil(beta_max / cell_beta)) + 1):
        beta_i = min(i * cell_beta, beta_max)
        n_i = max(8, int(math.ceil(2.0 * math.pi * math.sinh(beta_i) / cell_beta))) if beta_i > 0 else 1
        ring = rho_from_beta(beta_i) * np.exp(2j * math.pi * np.arange(n_i) / n_i)
        keep = ring[beta_matrix(ring, pts).min(axis=1) > r]
        if keep.size:
            best = min(best, float(np.abs(evaluate_grid(zeros, keep)).min()))
    return best


def _alpha_instance(n):
    """n zeros of modulus at most 0.9, drawn with seed 11."""
    return random_zerolist(np.random.default_rng(11), n, r_max=0.9)


class TestAlphaB:
    def test_monomial_matches_tanh(self):
        # the region is |z| > tanh(r/2), where |z| has its infimum tanh(r/2)
        for r in (0.05, 0.5, 1.0, 2.0, 5.0):
            est = alpha_b(ZeroList(m=1), r)
            exact = math.tanh(r / 2.0)
            assert est.lower <= exact
            assert abs(est.value - exact) <= 4.0 * math.ulp(exact)

    @pytest.mark.parametrize("n", [3, 10, 20])
    def test_lower_below_the_ring_reference(self, n):
        zl = _alpha_instance(n)
        est = alpha_b(zl, 1.0)
        # the former defaults had edge_gap 1e-4, 14 times the samples and the
        # same minima on these instances; either is a second upper bound, a worse one here
        ring = _ring_scan(zl, 1.0, 0.1, 1e-3)
        assert est.lower <= est.value <= ring

    def test_lower_below_a_denser_pass(self, monkeypatch):
        rng = np.random.default_rng(43)
        cases = [(_alpha_instance(n), 1.0) for n in (3, 10, 20, 50)] + [(geometric_zeros(25), 1.0)]
        cases += [(random_zerolist(rng, int(rng.integers(1, 30)), 0.97), float(rng.uniform(0.1, 4.0))) for _ in range(20)]
        coarse = [alpha_b(zl, r) for zl, r in cases]
        monkeypatch.setattr(carleson, "_PTS_PER_CIRCLE", 16 * carleson._PTS_PER_CIRCLE)
        for (zl, r), est in zip(cases, coarse):
            dense = alpha_b(zl, r)
            assert est.lower <= dense.value <= est.value
            assert est.lower <= dense.lower

    def test_nondecreasing_in_r(self):
        # the region shrinks as r grows, so lower(r1) <= inf(r1) <= inf(r2) <= value(r2)
        rs = (0.25, 0.5, 1.0, 1.5, 2.0, 3.0)
        for zl in (ZeroList.from_points([0.2, -0.3 + 0.4j]), _alpha_instance(10)):
            ests = [alpha_b(zl, r) for r in rs]
            assert all(e1.lower <= e2.value for i, e1 in enumerate(ests) for e2 in ests[i + 1 :])

    def test_small_r_near_zero_set(self):
        est = alpha_b(ZeroList(m=1), 0.05)
        assert est.value < 0.06

    def test_far_threshold_keeps_the_order(self):
        # at r = 25 the arcs lie within 3e-11 of the circle, where an
        # unguarded triangle-inequality bound exceeds 1
        for zl in (ZeroList(m=1), _alpha_instance(3)):
            est = alpha_b(zl, 25.0)
            assert 0.0 <= est.lower <= est.value <= 1.0

    @pytest.mark.parametrize("r", [0.0, -1.0, math.nan])
    def test_nonpositive_or_nan_threshold_rejected(self, r):
        with pytest.raises(ValueError, match="threshold must be positive"):
            alpha_b(ZeroList.from_points([0.3, 0.31, -0.5 + 0.1j]), r)

    def test_no_zeros_rejected(self):
        with pytest.raises(ValueError, match="at least one zero"):
            alpha_b(ZeroList(), 1.0)

    def test_region_empty(self):
        # tanh(15) is within 2e-13 of 1: the one disk covers |z| < 1 - 1e-12
        with pytest.raises(RegionEmptyError):
            alpha_b(ZeroList(m=1), 30.0)

    def test_reports_the_interval(self):
        est = alpha_b(ZeroList(m=1), 0.5)
        assert isinstance(est, AlphaEstimate)
        assert (est.r, type(est.value), type(est.lower)) == (0.5, float, float)
