"""Tests for the bottleneck zero matching."""

import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from blaschkelab.blaschke import ZeroList
from blaschkelab.errors import CardinalityError
from blaschkelab.fixtures import random_point, random_zerolist
from blaschkelab.geometry import hyper_distance, mobius
from blaschkelab.matching import (
    Pairing,
    beta_matrix,
    bottleneck_match,
    brute_force_bottleneck,
    pairing_diagnostics,
)


class TestBottleneckMatch:
    def test_identical_lists_cost_zero(self):
        zl = ZeroList.from_points([0.3, -0.1 + 0.2j, 0.5j])
        p = bottleneck_match(zl, zl)
        assert p.cost == 0.0

    def test_ordered_two_point_example(self):
        za = ZeroList.from_points([0.1, 0.9])
        zb = ZeroList.from_points([0.15, 0.85])
        p = bottleneck_match(za, zb)
        want = max(hyper_distance(0.1, 0.15), hyper_distance(0.9, 0.85))
        assert p.cost == pytest.approx(want, abs=1e-15)
        # matched in order: crossing over would pay the huge 0.1 <-> 0.85 leg
        pts = zb.expanded_points()
        matched = [pts[j] for j in p.permutation]
        assert matched == [0.15 + 0j, 0.85 + 0j] or matched == [0.85 + 0j, 0.15 + 0j]
        assert p.cost == pytest.approx(brute_force_bottleneck([0.1, 0.9], [0.15, 0.85]), abs=1e-15)

    def test_random_instances_match_oracle(self):
        rng = np.random.default_rng(0)
        for _ in range(40):
            n = int(rng.integers(1, 8))
            za = random_zerolist(rng, n)
            zb = random_zerolist(rng, n)
            got = bottleneck_match(za, zb).cost
            want = brute_force_bottleneck(za.expanded_points(), zb.expanded_points())
            assert abs(got - want) <= 1e-12

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        za = random_zerolist(rng, 6)
        zb = random_zerolist(rng, 6)
        assert bottleneck_match(za, zb).cost == pytest.approx(bottleneck_match(zb, za).cost, abs=1e-14)

    def test_mobius_invariance(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(1, 6))
            za = random_zerolist(rng, n, 0.8)
            zb = random_zerolist(rng, n, 0.8)
            a = random_point(rng, 0.5)
            za_m = ZeroList.from_points([mobius(a, z) for z in za.expanded_points()])
            zb_m = ZeroList.from_points([mobius(a, z) for z in zb.expanded_points()])
            c0 = bottleneck_match(za, zb).cost
            c1 = bottleneck_match(za_m, zb_m).cost
            assert c1 == pytest.approx(c0, abs=1e-9)

    def test_threshold_monotonicity(self):
        # feasibility under a distance threshold is monotone: below the optimal
        # cost there is no perfect matching, at it there is
        from blaschkelab.matching import _has_perfect_matching

        rng = np.random.default_rng(3)
        za = random_zerolist(rng, 5)
        zb = random_zerolist(rng, 5)
        cost = bottleneck_match(za, zb).cost
        dist = beta_matrix(za.expanded_points(), zb.expanded_points())
        assert _has_perfect_matching(dist <= cost)
        below = dist[dist < cost]
        if below.size:
            assert not _has_perfect_matching(dist <= below.max())

    def test_multiplicities_expand(self):
        za = ZeroList(((0.3 + 0j, 2),))
        zb = ZeroList.from_points([0.31, 0.29])
        p = bottleneck_match(za, zb)
        assert len(p.permutation) == 2

    def test_size_mismatch(self):
        with pytest.raises(CardinalityError):
            bottleneck_match(ZeroList.from_points([0.1]), ZeroList.from_points([0.1, 0.2]))

    def test_empty(self):
        p = bottleneck_match(ZeroList(), ZeroList())
        assert p.permutation == () and p.cost == 0.0

    def test_deterministic_lexicographic_ties(self):
        # two zero-cost matchings exist; the lexicographically smallest wins
        za = ZeroList.from_points([0.2, -0.2])
        p = bottleneck_match(za, za)
        assert p.permutation == (0, 1)


class TestPairing:
    def test_bijection_enforced(self):
        with pytest.raises(ValueError):
            Pairing((0, 0), 0.1)

    def test_json_round_trip(self):
        p = Pairing((2, 0, 1), 0.5)
        assert Pairing.from_json(p.to_json()) == p


class TestDiagnostics:
    def test_identity_all_zero(self):
        zl = ZeroList.from_points([0.1, 0.4j])
        p = bottleneck_match(zl, zl)
        d = pairing_diagnostics(p, zl, zl)
        assert d.sup == 0.0
        assert all(x == 0.0 for x in d.displacements)
        assert all(a == b for (a, b) in d.path.segments)

    def test_single_pair_histogram(self):
        za, zb = ZeroList.from_points([0.2]), ZeroList.from_points([0.3])
        p = bottleneck_match(za, zb)
        d = pairing_diagnostics(p, za, zb, bins=1)
        assert sum(d.histogram_counts) == 1
        assert d.sup == pytest.approx(hyper_distance(0.2, 0.3))

    def test_stored_cost_validated(self):
        za, zb = ZeroList.from_points([0.2]), ZeroList.from_points([0.3])
        bad = Pairing((0,), 99.0)
        with pytest.raises(ValueError):
            pairing_diagnostics(bad, za, zb)


def test_import_leaves_scipy_sparse_unloaded():
    # scipy.sparse takes most of an eager import's time; matching loads it on first use
    src = str(Path(__file__).resolve().parents[1] / "src")
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import blaschkelab; "
        "from blaschkelab.blaschke import ZeroList; "
        "print('scipy.sparse' in sys.modules); "
        "blaschkelab.bottleneck_match(ZeroList.from_points([0.1, 0.2]), ZeroList.from_points([0.15, 0.25])); "
        "print('scipy.sparse' in sys.modules)"
    )
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True, check=True)
    assert out.stdout.split() == ["False", "True"]
