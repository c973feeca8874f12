"""Bottleneck matching of two zero lists.

Finds the bijection minimizing the maximum hyperbolic displacement by a
threshold search over the distinct distances, one Hopcroft-Karp per probe
(Burkard, Dell'Amico & Martello 2009, ch. 6).  The optimum is at least, and
often, lambda_0 = max(max_i min_j beta_ij, max_j min_i beta_ij): probe it,
gallop up (1, 2, 4, ... values) while infeasible, bisect the last gap, then
pick the lexicographically smallest optimal permutation for reproducibility.
That refinement starts from the last feasible probe's matching (the identity,
a matching of the complete graph, when no probe was) and fixes the rows in
order: a row may take a smaller column exactly when the column's current row
reaches it along an alternating path of unfixed rows, so one reverse BFS per
row finds the smallest such column and the matching is rotated along that
cycle (the matching-reuse idea of Gabow & Tarjan 1988).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .blaschke import ZeroList
from .cauchy import PathMeasure
from .errors import CardinalityError
from .geometry import beta_matrix

#: Exact matching is practical up to this many expanded zeros.
MATCH_SIZE_CAP = 2000
# bins of the displacement histogram of pairing_diagnostics
_HISTOGRAM_BINS = 20


@dataclass(frozen=True)
class Pairing:
    """A bijection k -> permutation[k] together with its max displacement."""

    permutation: tuple[int, ...]
    cost: float

    def __post_init__(self):
        object.__setattr__(self, "permutation", tuple(int(i) for i in self.permutation))
        if sorted(self.permutation) != list(range(len(self.permutation))):
            raise ValueError("permutation is not a bijection")

    def to_json(self) -> dict:
        return {"perm": list(self.permutation), "cost": self.cost}


def maximum_bipartite_matching(graph) -> np.ndarray:
    """``scipy.sparse.csgraph.maximum_bipartite_matching`` with
    ``perm_type="column"`` (the column matched to each row, -1 if none),
    imported on first use (scipy.sparse would be most of the time of
    ``import blaschkelab``); a module attribute, so ``benchmarks/tracer.py``
    can count the calls."""
    from scipy.sparse.csgraph import maximum_bipartite_matching as match

    return match(graph, perm_type="column")


def _perfect_matching(adj: np.ndarray) -> np.ndarray | None:
    """Column matched to each row in a perfect matching of adj, or None."""
    from scipy.sparse import csr_matrix

    n = adj.shape[0]
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.count_nonzero(adj, axis=1), out=indptr[1:])
    indices = np.nonzero(adj)[1].astype(np.int32)
    graph = csr_matrix((np.ones(indices.size, dtype=bool), indices, indptr), shape=adj.shape)
    match = maximum_bipartite_matching(graph)
    return match if int((match >= 0).sum()) == n else None


def bottleneck_match(z: ZeroList, z_star: ZeroList) -> Pairing:
    """Exact min-max matching between the expanded zero lists; at most
    2 ceil(log2 M) + 1 feasibility probes for M distinct distances."""
    pts_a = z.expanded_points()
    pts_b = z_star.expanded_points()
    if len(pts_a) != len(pts_b):
        raise CardinalityError(f"total multiplicities differ: {len(pts_a)} vs {len(pts_b)}")
    n = len(pts_a)
    if n == 0:
        return Pairing((), 0.0)
    if n > MATCH_SIZE_CAP:
        raise CardinalityError(f"exact matching capped at {MATCH_SIZE_CAP} zeros, got {n}")

    dist = beta_matrix(pts_a, pts_b)
    values = np.unique(dist)
    lo = int(np.searchsorted(values, max(dist.min(axis=1).max(), dist.min(axis=0).max())))
    # every distance is finite, so the identity matches the complete graph
    hi, match = values.size - 1, np.arange(n)
    # gallop from lambda_0 (probe lo, lo + 1, lo + 3, ...) to a feasible probe or past hi, then bisect
    mid, step = lo, 1
    while lo < hi:
        probe = _perfect_matching(dist <= values[mid])
        if probe is None:
            lo, mid, step = mid + 1, mid + step, 2 * step
        else:
            hi, match, step = mid, probe, 0
        if not step or mid >= hi:
            mid = (lo + hi) // 2
    adj = dist <= values[lo]

    perm = _lexicographically_smallest(adj, match)
    cost = float(dist[np.arange(n), perm].max())
    return Pairing(tuple(perm), cost)


def _lexicographically_smallest(adj: np.ndarray, match: np.ndarray) -> np.ndarray:
    """Smallest permutation (row by row) among perfect matchings of adj,
    refined from any one of them, ``match`` (the column of each row)."""
    n = adj.shape[0]
    perm = np.array(match, dtype=np.intp)
    owner = np.empty(n, dtype=np.intp)  # row holding each column
    owner[perm] = np.arange(n)
    toward_r = np.empty(n, dtype=np.intp)  # BFS successor on the way to r
    for r in range(n):
        # columns below r's own that r is adjacent to and an unfixed row holds
        cols = np.flatnonzero(adj[r, : perm[r]])
        cols = cols[owner[cols] > r]
        if cols.size == 0:
            continue
        # reverse BFS over unfixed rows, x -> y when x can take y's column
        reached = np.zeros(n, dtype=bool)
        reached[: r + 1] = True
        frontier = np.array([r])
        while frontier.size and not reached[owner[cols[0]]]:
            rest = np.flatnonzero(~reached)
            hits = adj[np.ix_(rest, perm[frontier])]
            found = hits.any(axis=1)
            toward_r[rest[found]] = frontier[hits[found].argmax(axis=1)]
            frontier = rest[found]
            reached[frontier] = True
        cols = cols[reached[owner[cols]]]
        if cols.size == 0:
            continue
        cycle = [owner[cols[0]]]
        while cycle[-1] != r:
            cycle.append(toward_r[cycle[-1]])
        perm[cycle] = perm[cycle[1:] + cycle[:1]]
        owner[perm[cycle]] = cycle
    return perm


def brute_force_bottleneck(points_a: Sequence[complex], points_b: Sequence[complex]) -> float:
    """Minimum over all n! bijections of the max displacement (oracle, n <= 8)."""
    from itertools import permutations

    if len(points_a) != len(points_b):
        raise CardinalityError("lists differ in size")
    n = len(points_a)
    if n == 0:
        return 0.0
    if n > 8:
        raise ValueError("factorial oracle limited to n <= 8")
    dist = beta_matrix(points_a, points_b)
    best = math.inf
    rows = np.arange(n)
    for p in permutations(range(n)):
        best = min(best, float(dist[rows, list(p)].max()))
    return best


@dataclass(frozen=True)
class PairingDiagnostics:
    displacements: tuple[float, ...]
    sup: float
    histogram_counts: tuple[int, ...]
    histogram_edges: tuple[float, ...]
    path: PathMeasure


def pairing_diagnostics(p: Pairing, z: ZeroList, z_star: ZeroList) -> PairingDiagnostics:
    """Displacement histogram, sup, and the induced path measure of matched segments."""
    pts_a = z.expanded_points()
    pts_b = z_star.expanded_points()
    if len(pts_a) != len(pts_b) or len(pts_a) != len(p.permutation):
        raise CardinalityError("pairing size does not match the zero lists")
    dist = beta_matrix(pts_a, pts_b)
    disp = [float(dist[k, j]) for k, j in enumerate(p.permutation)]
    sup = max(disp, default=0.0)
    if abs(sup - p.cost) > 1e-12:
        raise ValueError(f"stored cost {p.cost} does not match recomputed sup {sup}")
    counts, edges = np.histogram(disp, bins=_HISTOGRAM_BINS, range=(0.0, max(sup, 1e-12)))
    path = PathMeasure.from_pairs([(pts_a[k], pts_b[j]) for k, j in enumerate(p.permutation)])
    return PairingDiagnostics(
        displacements=tuple(disp),
        sup=sup,
        histogram_counts=tuple(int(c) for c in counts),
        histogram_edges=tuple(float(e) for e in edges),
        path=path,
    )
