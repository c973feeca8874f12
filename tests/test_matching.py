"""Tests for the bottleneck zero matching."""

import math
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest

from blaschkelab import matching
from blaschkelab.blaschke import ZeroList
from blaschkelab.config import RunConfig
from blaschkelab.errors import CardinalityError
from blaschkelab.fixtures import random_matched_pair, random_point, random_zerolist
from blaschkelab.geometry import hyper_distance, mobius
from blaschkelab.matching import (
    Pairing,
    _lexicographically_smallest,
    _perfect_matching,
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
        from blaschkelab.matching import _perfect_matching

        rng = np.random.default_rng(3)
        za = random_zerolist(rng, 5)
        zb = random_zerolist(rng, 5)
        cost = bottleneck_match(za, zb).cost
        dist = beta_matrix(za.expanded_points(), zb.expanded_points())
        assert _perfect_matching(dist <= cost) is not None
        below = dist[dist < cost]
        if below.size:
            assert _perfect_matching(dist <= below.max()) is None

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


def _feasible(adj: np.ndarray) -> bool:
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import maximum_bipartite_matching

    return bool((maximum_bipartite_matching(csr_matrix(adj)) >= 0).all())


def _reference_lexicographically_smallest(adj: np.ndarray) -> list[int]:
    """The former route: one fresh maximum matching per candidate column of each row."""
    n = adj.shape[0]
    perm: list[int] = []
    free_cols = list(range(n))
    for row in range(n):
        for j in free_cols:
            if not adj[row, j]:
                continue
            rest = adj[np.ix_(range(row + 1, n), [c for c in free_cols if c != j])]
            if rest.shape[0] == 0 or _feasible(rest):
                perm.append(j)
                free_cols.remove(j)
                break
        else:
            raise AssertionError("no feasible column")
    return perm


def _threshold_graph(za: ZeroList, zb: ZeroList) -> tuple[np.ndarray, Pairing]:
    pairing = bottleneck_match(za, zb)
    return beta_matrix(za.expanded_points(), zb.expanded_points()) <= pairing.cost, pairing


def _with_multiplicities(rng, n: int) -> tuple[ZeroList, ZeroList]:
    """A matched pair of n >= 2 zeros per side whose lists repeat some of their zeros."""
    za, zb = random_matched_pair(rng, n, beta_max=1.0)
    pa, pb = za.expanded_points(), zb.expanded_points()
    k = max(1, n // 4)
    pa[-k:] = pa[:k]  # the first k zeros become double (or higher) zeros
    pb[-k:] = [pb[0]] * k
    a, b = ZeroList.from_points(pa), ZeroList.from_points(pb)
    assert any(m > 1 for _, m in a.zeros) and any(m > 1 for _, m in b.zeros)
    return a, b


def _enumeration_oracle(za: ZeroList, zb: ZeroList) -> tuple[int, ...]:
    """Lexicographically first permutation of optimal bottleneck cost (n <= 7)."""
    dist = beta_matrix(za.expanded_points(), zb.expanded_points())
    rows = np.arange(dist.shape[0])
    costs = {p: float(dist[rows, list(p)].max()) for p in permutations(range(dist.shape[0]))}
    best = min(costs.values())
    return next(p for p, c in costs.items() if c == best)


class TestLexicographicRefinement:
    """The alternating-cycle refinement against the per-candidate route it replaced."""

    def test_random_adjacency_matrices(self):
        # n from 1 to 40, densities from a bare (planted) permutation to the full matrix
        rng = np.random.default_rng(12)
        densities = np.linspace(0.0, 1.0, 11)
        for case in range(330):
            n = 1 + case % 40
            adj = rng.random((n, n)) < densities[case % 11]
            planted = rng.permutation(n)
            adj[np.arange(n), planted] = True
            want = _reference_lexicographically_smallest(adj)
            # the result must not depend on the starting perfect matching
            for start in (_perfect_matching(adj), planted):
                assert _lexicographically_smallest(adj, start).tolist() == want

    def test_criterion_3_instances(self):
        # the same stream as acceptance.check_matching_oracle; n <= 7, so the
        # enumeration oracle applies as well
        rng = np.random.default_rng((RunConfig().seed, 2))
        for _ in range(100):
            n = int(rng.integers(1, 8))
            za, zb = random_zerolist(rng, n), random_zerolist(rng, n)
            adj, pairing = _threshold_graph(za, zb)
            assert list(pairing.permutation) == _reference_lexicographically_smallest(adj)
            assert pairing.permutation == _enumeration_oracle(za, zb)

    @pytest.mark.parametrize("n", [1, 3, 17, 60, 120, 200])
    def test_matched_pairs(self, n):
        rng = np.random.default_rng((14, n))
        pairs = [random_matched_pair(rng, n, beta_max=1.0)] + ([_with_multiplicities(rng, n)] if n > 1 else [])
        for za, zb in pairs:
            adj, pairing = _threshold_graph(za, zb)
            assert list(pairing.permutation) == _reference_lexicographically_smallest(adj)

    def test_enumeration_oracle_small_n(self):
        rng = np.random.default_rng(15)
        for n in range(1, 8):
            for k in range(6):
                repeated = k >= 3 and n > 1
                za, zb = _with_multiplicities(rng, n) if repeated else random_matched_pair(rng, n, beta_max=1.0)
                pairing = bottleneck_match(za, zb)
                assert pairing.permutation == _enumeration_oracle(za, zb)
                assert pairing.cost == brute_force_bottleneck(za.expanded_points(), zb.expanded_points())


def _identity_batch_pairs(seed: int, ops: int = 25, n_max: int = 200):
    """The zero lists the benchmark's identity-batch deck matches at ``seed``."""
    rng = np.random.default_rng((seed, 3))
    width = n_max // ops
    for k in range(ops):
        n = 1 + k * width + int(rng.integers(0, width))
        za, zb = random_matched_pair(rng, n, beta_max=1.0, r_max=0.95)
        pb = zb.expanded_points()
        yield za, ZeroList.from_points([pb[j] for j in rng.permutation(len(pb))])


@pytest.mark.parametrize("seed", [7, 12001, 12002])
def test_identity_batch_decks_against_the_reference_route(seed):
    # the threshold search starts from the identity matching, not from a probe
    # of the complete graph; the refinement must not depend on that start
    for za, zb in _identity_batch_pairs(seed):
        adj, pairing = _threshold_graph(za, zb)
        assert list(pairing.permutation) == _reference_lexicographically_smallest(adj)


def test_feasibility_calls_stay_within_the_threshold_search(monkeypatch):
    # one Hopcroft-Karp per probe of the binary search; the search starts from
    # the identity and the refinement reuses the last feasible matching
    calls = []
    inner = matching.maximum_bipartite_matching

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(matching, "maximum_bipartite_matching", counted)
    rng = np.random.default_rng(16)
    za, zb = random_matched_pair(rng, 120, beta_max=1.0)
    bottleneck_match(za, zb)
    distinct = np.unique(beta_matrix(za.expanded_points(), zb.expanded_points())).size
    assert 1 <= len(calls) <= math.ceil(math.log2(distinct))


def test_threshold_search_probes_within_its_bound(monkeypatch):
    # from lambda_0: a gallop and a bisection of the last gap, 2 ceil(log2 M) + 1 probes at most
    calls = []
    inner = matching.maximum_bipartite_matching

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(matching, "maximum_bipartite_matching", counted)
    rng = np.random.default_rng(17)
    for k in range(60):
        za, zb = random_matched_pair(rng, int(rng.integers(2, 60)), beta_max=(0.3, 1.0, 3.0)[k % 3])
        calls.clear()
        bottleneck_match(za, zb)
        distinct = np.unique(beta_matrix(za.expanded_points(), zb.expanded_points())).size
        assert len(calls) <= 2 * math.ceil(math.log2(distinct)) + 1


class TestPairing:
    def test_bijection_enforced(self):
        with pytest.raises(ValueError):
            Pairing((0, 0), 0.1)


class TestDiagnostics:
    def test_identity_all_zero(self):
        zl = ZeroList.from_points([0.1, 0.4j])
        p = bottleneck_match(zl, zl)
        d = pairing_diagnostics(p, zl, zl)
        assert d.sup == 0.0
        assert all(x == 0.0 for x in d.displacements)
        assert all(a == b for (a, b) in d.path.segments)

    def test_single_pair_histogram(self, monkeypatch):
        monkeypatch.setattr(matching, "_HISTOGRAM_BINS", 1)
        za, zb = ZeroList.from_points([0.2]), ZeroList.from_points([0.3])
        p = bottleneck_match(za, zb)
        d = pairing_diagnostics(p, za, zb)
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
