"""Bottleneck matching of two zero lists.

Finds the bijection minimizing the maximum hyperbolic displacement: sort the
pairwise distances, binary-search the smallest threshold whose bipartite graph
has a perfect matching, then pick the lexicographically smallest optimal
permutation for reproducibility.
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

    @classmethod
    def from_json(cls, data: dict) -> "Pairing":
        return cls(tuple(data["perm"]), float(data["cost"]))


def maximum_bipartite_matching(graph, perm_type: str = "row") -> np.ndarray:
    """``scipy.sparse.csgraph.maximum_bipartite_matching``, imported on first
    use (scipy.sparse would be most of the time of ``import blaschkelab``);
    a module attribute, so ``benchmarks/tracer.py`` can count the calls."""
    from scipy.sparse.csgraph import maximum_bipartite_matching as match

    return match(graph, perm_type=perm_type)


def _has_perfect_matching(adj: np.ndarray) -> bool:
    from scipy.sparse import csr_matrix

    n = adj.shape[0]
    graph = csr_matrix(adj)
    match = maximum_bipartite_matching(graph, perm_type="column")
    return int((match >= 0).sum()) == n


def bottleneck_match(z: ZeroList, z_star: ZeroList) -> Pairing:
    """Exact min-max matching between the expanded zero lists."""
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
    lo, hi = 0, values.size - 1
    if not _has_perfect_matching(dist <= values[hi]):
        raise AssertionError("complete bipartite graph must admit a perfect matching")
    while lo < hi:
        mid = (lo + hi) // 2
        if _has_perfect_matching(dist <= values[mid]):
            hi = mid
        else:
            lo = mid + 1
    threshold = float(values[lo])
    adj = dist <= threshold

    perm = _lexicographically_smallest(adj)
    cost = float(dist[np.arange(n), perm].max())
    return Pairing(tuple(perm), cost)


def _lexicographically_smallest(adj: np.ndarray) -> list[int]:
    """Smallest permutation (row by row) among perfect matchings of adj."""
    n = adj.shape[0]
    perm: list[int] = []
    free_cols = list(range(n))
    for row in range(n):
        chosen = None
        for j in free_cols:
            if not adj[row, j]:
                continue
            rest_cols = [c for c in free_cols if c != j]
            rest = adj[np.ix_(range(row + 1, n), rest_cols)]
            if rest.shape[0] == 0 or _has_perfect_matching(rest):
                chosen = j
                break
        if chosen is None:
            raise AssertionError("matching feasibility lost during lexicographic refinement")
        perm.append(chosen)
        free_cols.remove(chosen)
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


def pairing_diagnostics(p: Pairing, z: ZeroList, z_star: ZeroList, bins: int = 20) -> PairingDiagnostics:
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
    counts, edges = np.histogram(disp, bins=bins, range=(0.0, max(sup, 1e-12)))
    path = PathMeasure.from_pairs([(pts_a[k], pts_b[j]) for k, j in enumerate(p.permutation)])
    return PairingDiagnostics(
        displacements=tuple(disp),
        sup=sup,
        histogram_counts=tuple(int(c) for c in counts),
        histogram_edges=tuple(float(e) for e in edges),
        path=path,
    )
