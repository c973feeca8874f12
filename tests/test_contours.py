"""Tests for level sets, harmonic measure, atlases and the contour log."""

import cmath
import dataclasses
import itertools
import json
import math
import statistics
import warnings
from collections import Counter
from pathlib import Path

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
    _edge_logs,
    _integrals,
    _level_values,
    _poisson_edge_masses,
    JordanCurveApprox,
    arclength_carleson_norm,
    build_atlas,
    harmonic_measure,
    harmonic_measure_paired,
    level_set_components,
    log_quotient_via_contour,
    split_zeros_by_contour,
    trossos_check,
)
from blaschkelab.errors import (
    AmbiguousTopologyError,
    AtlasInconsistencyError,
    HypothesisViolationError,
    VerificationError,
)
from blaschkelab.fixtures import random_point
from blaschkelab.geometry import hyper_distance, interior_value, pseudo_distance
from blaschkelab.gridfn import BoundaryGridFunction


def _sampled_winding(values):
    """Winding number about 0 of a closed sampled curve, the last point joined
    to the first: the sum of the wrapped phase steps, which must be near an
    integer."""
    total = float(np.angle(np.roll(values, -1) / values).sum() / (2.0 * np.pi))
    assert abs(total - round(total)) <= 0.1, f"winding sum {total} not near an integer"
    return round(total)


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

    def test_rouche_count_bisects_a_coarse_curve(self, monkeypatch):
        # 10 vertices around one zero: a phase step of about 36 degrees moves b
        # by more than half its modulus, so the count must insert midpoints
        zl = ZeroList.from_points([0.3])
        calls, counts = [], []
        winding_number = contours.winding_number

        def spy_b(b, w):
            calls.append(np.array(w))
            return evaluate_grid(b, w)

        def spy_count(*args):
            results = winding_number(*args)
            counts.extend(result[1] for result in results)
            return results

        monkeypatch.setattr(contours, "evaluate_grid", spy_b)
        monkeypatch.setattr(contours, "winding_number", spy_count)
        (curve,) = level_set_components(zl, 0.2, resolution=8)
        p = curve.points
        mids = 0.5 * (p + np.roll(p, -1))
        assert any(np.isin(w, mids).all() for w in calls if w.ndim == 1)
        assert counts == [curve.total_zero_count()] and curve.enclosed_zeros == ((0.3 + 0j, 1),)

    @pytest.mark.parametrize("delta, resolution", [(0.2, 512), (0.5, 256), (0.05, 128)])
    def test_enclosure_matches_the_sampled_winding(self, delta, resolution):
        rng = np.random.default_rng(23)
        resolved = 0
        for _ in range(6):
            zl = ZeroList.from_points([random_point(rng, 0.8) for _ in range(8)])
            try:
                curves = level_set_components(zl, delta, resolution=resolution)
            except AmbiguousTopologyError:
                continue
            resolved += 1
            for c in curves:
                assert c.enclosed_zeros == tuple((z, k) for z, k in zl.zeros if _sampled_winding(c.points - z))
        assert resolved >= 4

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
    def test_pruned_grid_equals_the_full_grid(self, zeros, monkeypatch):
        # the crossing cells read the full grid's bits, and the curves follow
        xs = np.linspace(-0.9, 0.9, 513)
        pruned, full = _level_values(zeros, xs, 0.3), _full_grid_values(zeros, xs, 0.3)
        _assert_pruned_values_agree(pruned, full)
        assert np.count_nonzero(_evaluated(pruned)) < 0.5 * full.size
        got = level_set_components(zeros, 0.3)
        monkeypatch.setattr(contours, "_level_values", _full_grid_values)
        want = level_set_components(zeros, 0.3)
        assert len(got) == len(want)
        for c, d in zip(got, want):
            np.testing.assert_array_equal(c.points, d.points)
            assert c.enclosed_zeros == d.enclosed_zeros

    def test_delta_too_large(self):
        with pytest.raises(ValueError):
            level_set_components(ZeroList.from_points([0.2]), 0.97, resolution=128)


def _grid(xs):
    """The full sampling grid, node (i, j) = xs[j] + i xs[i]."""
    return xs[None, :] + 1j * xs[:, None]


def _full_grid_values(b, xs, delta):
    """The full-grid route, the reference for ``_level_values``: every node evaluated."""
    return np.abs(evaluate_grid(b, _grid(xs))) - delta


def _evaluated(vals):
    """The nodes ``_level_values`` evaluated: the others hold +-1 exactly."""
    return np.abs(vals) != 1.0


def _assert_pruned_values_agree(pruned, full):
    """Every node has the full grid's sign, every evaluated node its bits, and
    so does every corner of a cell that the level crosses."""
    np.testing.assert_array_equal(pruned > 0.0, full > 0.0)
    seen = _evaluated(pruned)
    np.testing.assert_array_equal(pruned[seen], full[seen])
    above = full > 0.0
    corners = (above[:-1, :-1], above[:-1, 1:], above[1:, :-1], above[1:, 1:])
    crossed = np.logical_or.reduce(corners) & ~np.logical_and.reduce(corners)
    needed = np.zeros(full.shape, dtype=bool)
    for rows, cols in itertools.product((slice(None, -1), slice(1, None)), repeat=2):
        needed[rows, cols] |= crossed
    np.testing.assert_array_equal(pruned[needed], full[needed])


def _random_level_case(rng):
    """A product with n in 1..13 zeros up to modulus 0.99, some repeated and
    some at the origin, a level in 0.01..0.7 and a resolution in 64..1024."""
    r_max = float(rng.choice([0.5, 0.8, 0.9, 0.95, 0.99]))
    pts = [random_point(rng, r_max) for _ in range(int(rng.integers(1, 14)))]
    if rng.random() < 0.3:
        pts.append(pts[0])
    if rng.random() < 0.2:
        pts += [0.0] * int(rng.integers(1, 3))
    delta = float(rng.choice([0.01, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7])) * (1.0 + 0.01 * rng.random())
    return ZeroList.from_points(pts), delta, int(rng.choice([64, 100, 128, 257, 512, 1024]))


class TestPrunedLevelGrid:
    """``_level_values`` evaluates b only on the blocks whose Schwarz-Pick
    range of |b| can reach the level; the full-grid route is the reference."""

    def test_matches_the_full_grid_on_random_products(self, monkeypatch):
        rng = np.random.default_rng(24)
        outcomes, fractions = Counter(), []
        for _ in range(40):
            b, delta, res = _random_level_case(rng)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                got = _outcome(level_set_components, b, delta, res)
                with monkeypatch.context() as m:
                    m.setattr(contours, "_level_values", _full_grid_values)
                    want = _outcome(level_set_components, b, delta, res)
            assert type(got) is type(want)
            if isinstance(got, tuple):
                assert got == want
                outcomes[got[0].__name__] += 1
            else:
                outcomes["curves"] += 1
                assert len(got) == len(want)
                for c, d in zip(got, want):
                    np.testing.assert_array_equal(c.points, d.points)
                    assert (c.component_id, c.enclosed_zeros) == (d.component_id, d.enclosed_zeros)
            # the sampling square of level_set_components: its corners lie beyond |z| = 1
            r_box = max(0.5, (1.0 + b.max_modulus()) / 2.0)
            xs = np.linspace(-r_box, r_box, res + 1)
            pruned = _level_values(b, xs, delta)
            with np.errstate(all="ignore"):
                _assert_pruned_values_agree(pruned, _full_grid_values(b, xs, delta))
            fractions.append(np.count_nonzero(_evaluated(pruned)) / pruned.size)
        assert outcomes["curves"] >= 25 and outcomes["AmbiguousTopologyError"] >= 1
        assert np.mean(fractions) < 0.5

    def test_blocks_beyond_the_circle_are_not_evaluated(self, monkeypatch):
        # the pole 1/conj(a) = 1.25 exp(i pi/4) lies in the square, in a block wholly in |z| >= 1
        a = 0.8 * cmath.exp(0.25j * math.pi)
        b = ZeroList.from_points([a, -0.3j])
        xs = np.linspace(-0.95, 0.95, 257)
        grid = _grid(xs)
        seen = []

        def recording(zeros, points):
            seen.append(np.array(points))
            return evaluate_grid(zeros, points)

        monkeypatch.setattr(contours, "evaluate_grid", recording)
        pruned = _level_values(b, xs, 0.2)
        nodes = seen[-1]
        assert nodes.size == np.count_nonzero(_evaluated(pruned))
        # a kept block reaches at most one block side (8 cells) beyond the circle
        assert np.abs(nodes).max() < 1.0 + 8 * math.sqrt(2.0) * (xs[1] - xs[0])
        assert np.all(pruned[np.abs(grid) >= 1.1] == 1.0)
        assert pruned[np.unravel_index(np.abs(grid - 1.0 / np.conj(a)).argmin(), grid.shape)] == 1.0
        with np.errstate(all="ignore"):
            _assert_pruned_values_agree(pruned, _full_grid_values(b, xs, 0.2))

    def test_partial_blocks_and_block_edges(self):
        # 8 does not divide the resolution: the last block of each axis is partial
        b = ZeroList(((0.3 + 0.2j, 2), (-0.5 + 0j, 1)), m=1)
        for res in (2, 9, 17, 61, 100):
            xs = np.linspace(-0.8, 0.8, res + 1)
            _assert_pruned_values_agree(_level_values(b, xs, 0.25), _full_grid_values(b, xs, 0.25))

    @pytest.mark.parametrize("resolution", [64, 100, 257, 512, 1024])
    def test_nodes_have_the_full_grid_bits(self, resolution):
        # the level stage forms only the nodes it reads, each from xs
        xs = np.linspace(-0.93, 0.93, resolution + 1)
        rows, cols = np.indices((resolution + 1, resolution + 1))
        grid = _grid(xs)
        nodes = contours._nodes(xs, rows, cols)
        np.testing.assert_array_equal(nodes.view(np.int64), grid.view(np.int64))
        some = np.random.default_rng(resolution).integers(0, grid.size, 1000)
        picked = contours._nodes(xs, *np.divmod(some, resolution + 1))
        np.testing.assert_array_equal(picked, grid.ravel()[some])

    def test_the_full_grid_is_never_formed(self, monkeypatch):
        # no evaluation or node array reaches the full grid's size
        sizes = []
        real = contours._nodes

        def recording(xs, rows, cols):
            nodes = real(xs, rows, cols)
            sizes.append(nodes.size)
            return nodes

        monkeypatch.setattr(contours, "_nodes", recording)
        level_set_components(ZeroList(((0.3 + 0.2j, 2), (-0.5 + 0j, 1)), m=1), 0.2)
        assert sizes and max(sizes) < 0.2 * 513**2

    def test_a_node_on_the_level_still_raises(self):
        # the square has side 1.5 and the node 0.5 has |z| = 0.5 exactly: no block
        # holding it can be pruned, so the vals == 0 check still sees it
        with pytest.raises(AmbiguousTopologyError, match="exactly on the level"):
            level_set_components(ZeroList(m=1), 0.5, resolution=24)


# ---------------------------------------------------------------------------
# the dict-based marching squares, the reference route for _level_loops: each
# segment joins two undirected crossing keys (sorted node pairs), every key
# must have two neighbours, and each loop is walked from its first key with a
# prev pointer, one product evaluation per saddle cell

_REF_CASE_SEGMENTS = {
    0: [], 15: [],
    1: [(3, 2)], 14: [(2, 3)],
    2: [(2, 1)], 13: [(1, 2)],
    4: [(1, 0)], 11: [(0, 1)],
    8: [(0, 3)], 7: [(3, 0)],
    3: [(3, 1)], 12: [(1, 3)],
    6: [(2, 0)], 9: [(0, 2)],
}
_REF_EDGE_CORNERS = {0: (0, 1), 1: (1, 2), 2: (2, 3), 3: (3, 0)}


def _ref_cell_segments(case, center_positive):
    if case == 5:
        # corners 1 and 3 positive; a positive center connects them
        return [(0, 3), (1, 2)] if center_positive else [(0, 1), (2, 3)]
    if case == 10:
        # corners 0 and 2 positive
        return [(0, 1), (2, 3)] if center_positive else [(0, 3), (1, 2)]
    return _REF_CASE_SEGMENTS[case]


def _ref_interp(p0, p1, v0, v1):
    t = v0 / (v0 - v1)
    return p0 + min(max(t, 0.0), 1.0) * (p1 - p0)


def _ref_edge_key(corners, edge):
    a, bb = _REF_EDGE_CORNERS[edge]
    ka, kb = corners[a], corners[bb]
    return (ka, kb) if ka <= kb else (kb, ka)


def _reference_loops(b, delta, xs, vals, saddles=None):
    """The loops of the dict-based route on the full grid of ``xs``;
    ``saddles`` (a Counter) tallies the saddle cells by (case, centre above
    the level)."""
    grid = _grid(xs)
    pos = vals > 0.0
    seg_list = []
    corner_off = [(0, 0), (0, 1), (1, 1), (1, 0)]
    cases = (
        pos[:-1, :-1].astype(int) * 8
        + pos[:-1, 1:].astype(int) * 4
        + pos[1:, 1:].astype(int) * 2
        + pos[1:, :-1].astype(int)
    )
    for i, j in np.argwhere((cases > 0) & (cases < 15)):
        case = int(cases[i, j])
        corners = [(i + di, j + dj) for di, dj in corner_off]
        center_positive = False
        if case in (5, 10):
            cz = complex(grid[i, j] + grid[i + 1, j + 1]) / 2.0
            center_positive = bool(abs(complex(evaluate_grid(b, np.array([cz]))[0])) - delta > 0.0)
            if saddles is not None:
                saddles[case, center_positive] += 1
        for e_in, e_out in _ref_cell_segments(case, center_positive):
            seg_list.append((_ref_edge_key(corners, e_in), _ref_edge_key(corners, e_out)))

    adj = {}
    for a, bkey in seg_list:
        adj.setdefault(a, []).append(bkey)
        adj.setdefault(bkey, []).append(a)
    for nbrs in adj.values():
        if len(nbrs) != 2:
            raise AmbiguousTopologyError("level set does not close up at this resolution; perturb delta")

    def edge_point(key):
        (i0, j0), (i1, j1) = key
        p0, p1 = complex(grid[i0, j0]), complex(grid[i1, j1])
        return complex(_ref_interp(p0, p1, float(vals[i0, j0]), float(vals[i1, j1])))

    visited = set()
    loops = []
    for start in adj:
        if start in visited:
            continue
        loop_keys = [start]
        visited.add(start)
        prev, cur = None, start
        while True:
            nxt = adj[cur][0] if adj[cur][0] != prev else adj[cur][1]
            if nxt == start:
                break
            loop_keys.append(nxt)
            visited.add(nxt)
            prev, cur = cur, nxt
        pts = np.array([edge_point(k) for k in loop_keys])
        area = 0.5 * float(np.sum(pts.real * np.roll(pts.imag, -1) - np.roll(pts.real, -1) * pts.imag))
        if area < 0.0:
            pts = pts[::-1]
        loops.append(pts)
    return loops


def _critical_values(b):
    """|b| at its critical points in the disk off the zeros: the roots of
    z prod_a (z - a)(1 - conj(a) z) b'/b, a polynomial."""
    poly = np.polynomial.Polynomial
    factors = [poly([-a, 1.0]) * poly([1.0, -np.conj(a)]) for a, _ in b.zeros]
    total = b.m * math.prod(factors, start=poly([1.0]))
    for i, (a, k) in enumerate(b.zeros):
        others = math.prod(factors[:i] + factors[i + 1 :], start=poly([1.0]))
        total = total + poly([0.0, k * (1.0 - abs(a) ** 2)]) * others
    roots = total.roots()
    return np.abs(evaluate_grid(b, roots[np.abs(roots) < 0.95]))


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the routes must raise alike
        return type(exc), str(exc)


def _assert_same_loops(got, want):
    assert type(got) is type(want)
    if isinstance(got, tuple):
        assert got == want
        return
    assert len(got) == len(want)
    for p, q in zip(got, want):
        np.testing.assert_array_equal(p, q)


def _opens_at_low_case_10(loop, b, delta, grid, vals):
    """Whether the loop's first cell (row-major) is a case-10 saddle, the
    corners 0 and 2 above the level, whose centre is below it."""
    xs = grid[0].real
    h = xs[1] - xs[0]
    mid = 0.5 * (loop + np.roll(loop, -1))  # each segment's midpoint lies inside its cell
    rows = np.floor((mid.imag - xs[0]) / h).astype(int).tolist()
    cols = np.floor((mid.real - xs[0]) / h).astype(int).tolist()
    i, j = min(zip(rows, cols))
    if (vals[i : i + 2, j : j + 2] > 0.0).tolist() != [[True, False], [False, True]]:
        return False
    centre = (grid[i, j] + grid[i + 1, j + 1]) / 2.0
    return bool(abs(evaluate_grid(b, np.array([centre]))[0]) - delta <= 0.0)


def _random_product(rng):
    pts, degree = [], rng.integers(1, 7)
    while len(pts) < degree:
        z = complex(*rng.uniform(-0.85, 0.85, 2))
        if abs(z) < 0.85:
            pts.append(z)
    return ZeroList.from_points(pts)


class TestMarchingSquares:
    def test_segments_keep_above_nodes_on_the_left(self):
        corners = np.array([0.0, 1.0, 1.0 + 1.0j, 1.0j])
        for case, above in itertools.product(range(16), (0, 1)):
            node_above = [(case >> (3 - c)) & 1 for c in range(4)]
            segs = [tuple(s) for s in contours._SEGMENTS[case, above] if s[0] >= 0]
            crossed = sorted(e for s in segs for e in s)
            assert crossed == [e for e in range(4) if node_above[e] != node_above[(e + 1) % 4]]
            for e_in, e_out in segs:
                mid_in = 0.5 * (corners[e_in] + corners[(e_in + 1) % 4])
                mid_out = 0.5 * (corners[e_out] + corners[(e_out + 1) % 4])
                for e in (e_in, e_out):
                    for c in (e, (e + 1) % 4):
                        left = ((corners[c] - mid_in) * np.conj(mid_out - mid_in)).imag > 0.0
                        assert left == bool(node_above[c])
                if case in (5, 10):
                    # the segment cuts off the corner its two edges share, which
                    # is on the side of the level opposite the centre
                    shared = ({e_in, (e_in + 1) % 4} & {e_out, (e_out + 1) % 4}).pop()
                    assert node_above[shared] != above

    def test_matches_the_reference_route_on_random_products(self, monkeypatch):
        rng = np.random.default_rng(9)
        saddles = Counter()
        outcomes = Counter()
        for k in range(200):
            b = _random_product(rng)
            res = int(rng.choice([4, 7, 16, 31, 64, 100, 128, 257, 512]))
            levels = _critical_values(b)
            levels = levels[(levels > 0.02) & (levels < 0.9)]
            if k % 2 and levels.size:
                delta = float(rng.choice(levels)) * (1.0 + float(rng.choice([0.0, 1e-12, -1e-9, 1e-6, -1e-3])))
            else:
                delta = float(rng.uniform(0.05, 0.7))
            got = _outcome(level_set_components, b, delta, res)
            with monkeypatch.context() as m:
                m.setattr(
                    contours, "_level_loops", lambda *args: _reference_loops(*args, saddles=saddles)
                )
                want = _outcome(level_set_components, b, delta, res)
            assert type(got) is type(want)
            if isinstance(got, tuple):
                assert got == want
                outcomes[got[0].__name__] += 1
                continue
            outcomes["curves"] += 1
            assert len(got) == len(want)
            for c, d in zip(got, want):
                np.testing.assert_array_equal(c.points, d.points)
                assert (c.component_id, c.enclosed_zeros) == (d.component_id, d.enclosed_zeros)
        assert set(saddles) == {(5, False), (5, True), (10, False), (10, True)}
        assert outcomes["curves"] > 100 and outcomes["AmbiguousTopologyError"] > 20

    def test_matches_the_reference_route_on_sign_fields(self):
        # random signs make saddles, one-node islands and, without a positive
        # border, level sets that leave the grid.  On a loop whose first cell
        # is a case-10 saddle with the centre below, the reference starts two
        # crossings further along; every other loop starts where it does
        rng = np.random.default_rng(4)
        b = ZeroList.from_points([0.3 - 0.2j, -0.4j])
        closed = rotated = 0
        for k in range(300):
            n = int(rng.integers(2, 40))
            xs = np.linspace(-0.9, 0.9, n + 1)
            grid = _grid(xs)
            vals = rng.choice([-1.0, 1.0], size=grid.shape) * rng.uniform(0.1, 1.0, size=grid.shape)
            if k % 2:
                vals[0, :] = vals[-1, :] = vals[:, 0] = vals[:, -1] = 1.0
            delta = float(rng.uniform(0.1, 0.9))
            got = _outcome(contours._level_loops, b, delta, xs, vals)
            want = _outcome(_reference_loops, b, delta, xs, vals)
            if isinstance(want, list):
                low = [_opens_at_low_case_10(q, b, delta, grid, vals) for q in want]
                want = [np.roll(q, 2) if r else q for q, r in zip(want, low)]
                rotated += sum(low)
            _assert_same_loops(got, want)
            closed += isinstance(got, list)
        assert 150 <= closed < 300
        assert rotated > 100

    def test_level_set_leaving_the_grid_does_not_close(self):
        xs = np.linspace(-0.9, 0.9, 5)
        vals = np.ones((5, 5))
        assert contours._level_loops(ZeroList(m=1), 0.5, xs, vals) == []
        vals[2, 2] = -1.0
        assert len(contours._level_loops(ZeroList(m=1), 0.5, xs, vals)) == 1
        vals[2, 4] = -1.0
        with pytest.raises(AmbiguousTopologyError, match="does not close up"):
            contours._level_loops(ZeroList(m=1), 0.5, xs, vals)

    def test_b_is_evaluated_once_per_curve(self, monkeypatch):
        zl = ZeroList.from_points([0.55, -0.55])
        seen = []

        def recording(b, points):
            seen.append(np.array(points))
            return evaluate_grid(b, points)

        monkeypatch.setattr(contours, "evaluate_grid", recording)
        curves = level_set_components(zl, 0.05, resolution=256)
        assert len(curves) == 2
        for c in curves:
            assert sum(p.shape == c.points.shape and np.array_equal(p, c.points) for p in seen) == 1


def _atom_route_norm(curves):
    """The arclength norm through a ``DiscreteMeasure`` of one (midpoint,
    length) atom per edge, the reference for the array route."""
    atoms = tuple(
        (complex(m), complex(l))
        for c in curves
        for m, l in zip(0.5 * (c.edge_starts() + c.edge_ends()), c.edge_lengths())
    )
    if not atoms:
        return 0.0
    mu = DiscreteMeasure(atoms)
    return box_carleson_norm(mu, suggested_box_depth(mu))


class TestArclengthNorm:
    def test_circle_value_vs_direct_boxes(self):
        c = JordanCurveApprox.circle(0.0, 0.5, n=128)
        got = arclength_carleson_norm([c])
        assert got == _atom_route_norm([c])
        assert got > 0

    def test_level_sets_equal_the_atom_route(self):
        rng = np.random.default_rng(12)
        resolved = 0
        for _ in range(12):
            b, delta, res = _random_level_case(rng)
            try:
                curves = level_set_components(b, delta, resolution=min(res, 512))
            except AmbiguousTopologyError:
                continue
            resolved += 1
            assert arclength_carleson_norm(curves) == _atom_route_norm(curves)
        assert resolved >= 8

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

    def test_contains_is_defined_on_and_next_to_every_edge(self):
        # off the vertices the edge angles sum to a multiple of 2 pi, so the
        # winding sum never fails to be near an integer, even on an edge
        rng = np.random.default_rng(8)
        tried = 0
        for _ in range(20):
            n = int(rng.integers(8, 40))
            curve = JordanCurveApprox(
                0.1 + rng.uniform(0.2, 0.6, n) * np.exp(1j * np.sort(rng.uniform(0.0, 2.0 * math.pi, n)))
            )
            v, e = curve.points, curve.edge_ends()
            on = v[:, None] + rng.random((n, 5)) * (e - v)[:, None]
            normal = (1j * (e - v) / np.abs(e - v))[:, None]
            for off in (0.0, 1e-300, 1e-17, -1e-17, 1e-15, -1e-15):
                for z in (on + off * normal).ravel():
                    if np.abs(v - z).min() > 0.0:
                        _sampled_winding(v - z)
                        assert curve.contains(z) in (True, False)
                        tried += 1
        assert tried > 10_000

    def test_vertices_and_rounded_edge_midpoints_are_not_inside(self):
        # a rounded midpoint lies up to 8e-17 off its edge; the winding count
        # alone put 125 of these 256 inside
        c = JordanCurveApprox.circle(0.0, 0.4, n=256)
        p = c.points
        assert not any(c.contains(z) for z in [*p, *(0.5 * (p + np.roll(p, -1)))])

    def test_source_on_an_edge_rejected(self):
        c = JordanCurveApprox.circle(0.0, 0.4, n=256)
        with pytest.raises(ValueError, match="strictly inside"):
            harmonic_measure(0.5 * (c.points[1] + c.points[2]), c, method="exact")

    def test_contains_agrees_with_the_winding_number_off_the_curve(self):
        rng = np.random.default_rng(17)
        n = 24
        star = JordanCurveApprox(
            0.1 + rng.uniform(0.2, 0.6, n) * np.exp(1j * np.sort(rng.uniform(0.0, 2.0 * math.pi, n)))
        )
        circle = JordanCurveApprox.circle(0.05, 0.4, n=256)
        inside = tried = 0
        for curve in (star, circle):
            v, e = curve.points, curve.edge_ends()
            # points anywhere near the curve, and points 1e-12 to 1e-3 to either side of an edge
            near = rng.uniform(-0.75, 0.75, (250, 2)) @ np.array([1.0, 1j])
            k = rng.integers(0, curve.n_edges, 250)
            side = (1j * (e - v) / np.abs(e - v))[k] * rng.choice([-1.0, 1.0], 250) * 10.0 ** rng.uniform(-12, -3, 250)
            for z in [*near, *(v[k] + rng.random(250) * (e - v)[k] + side)]:
                if _dense_distance(np.array([z]), v, e - v)[0][0] > 1e-13:
                    assert curve.contains(z) == (_sampled_winding(v - z) != 0)
                    inside += curve.contains(z)
                    tried += 1
        assert tried >= 1000 and 300 < inside < 700

    def test_source_outside_rejected(self):
        c = JordanCurveApprox.circle(0.0, 0.3, n=32)
        with pytest.raises(ValueError):
            harmonic_measure(0.8, c, method="exact")

    def test_exact_needs_disk(self):
        zl = ZeroList.from_points([0.3])
        curve = level_set_components(zl, 0.4, resolution=200)[0]
        with pytest.raises(ValueError):
            harmonic_measure(0.3, curve, method="exact")

    def test_paired_marginals_unbiased(self):
        c = JordanCurveApprox.circle(0.0, 0.4, n=64)
        rng = np.random.default_rng(3)
        n_walks = 30_000
        mu, mb, _ = harmonic_measure_paired(0.0, 0.1, c, n_samples=n_walks, rng=rng)
        ex_u = harmonic_measure(0.0, c, method="exact").reshape(8, -1).sum(axis=1)
        ex_b = harmonic_measure(0.1, c, method="exact").reshape(8, -1).sum(axis=1)
        se = np.sqrt(0.125 * 0.875 / n_walks)
        assert np.abs(mu.reshape(8, -1).sum(axis=1) - ex_u).max() < 4 * se
        assert np.abs(mb.reshape(8, -1).sum(axis=1) - ex_b).max() < 4 * se


def _gl8_edge_masses(z, curve):
    """The Poisson kernel integrated over each edge's angular span by 8-point
    Gauss-Legendre, a route independent of the closed form and accurate
    where the source stays within 0.9 of the radius, so the kernel is smooth
    on every edge."""
    nodes, weights = np.polynomial.legendre.leggauss(8)
    w = (z - curve.disk_center) / curve.disk_radius
    r, psi = abs(w), math.atan2(w.imag, w.real)
    ang0 = np.angle(curve.edge_starts() - curve.disk_center)
    half = 0.5 * np.mod(np.angle(curve.edge_ends() - curve.disk_center) - ang0, 2.0 * math.pi)
    phi = (ang0 + half)[:, None] + half[:, None] * nodes[None, :]
    kernel = (1.0 - r * r) / (1.0 - 2.0 * r * np.cos(phi - psi) + r * r)
    return (kernel * weights[None, :]).sum(axis=1) * half / (2.0 * math.pi)


class TestPoissonEdgeMasses:
    _CENTRE = 0.1 + 0.05j

    @pytest.mark.parametrize("n", [64, 256, 1024])
    def test_masses_sum_to_one_up_to_the_circle(self, n):
        # 8-point quadrature summed to 0.366 (n = 64) and 1.365 (n = 256) at 0.999 of the radius
        curve = JordanCurveApprox.circle(self._CENTRE, 0.4, n=n)
        for f in (0.0, 0.3, 0.9, 0.99, 0.999, 0.99999):
            for angle in (0.0, 0.77, 2.0 * math.pi * 5.5 / n, -2.5):
                masses = _poisson_edge_masses(self._CENTRE + f * 0.4 * cmath.exp(1j * angle), curve)
                assert masses.min() >= 0.0
                assert abs(masses.sum() - 1.0) < 1e-14

    def test_one_edge_can_carry_more_than_half(self):
        curve = JordanCurveApprox.circle(self._CENTRE, 0.4, n=64)
        towards = 0.5 * (curve.points[3] + curve.points[4]) - self._CENTRE
        masses = _poisson_edge_masses(self._CENTRE + 0.999 * 0.4 * towards / abs(towards), curve)
        assert masses[3] > 0.9 and int(np.argmax(masses)) == 3

    def test_equal_to_quadrature_away_from_the_circle(self):
        rng = np.random.default_rng(4)
        for n in (64, 256, 1024):
            curve = JordanCurveApprox.circle(self._CENTRE, 0.4, n=n)
            for _ in range(20):
                z = self._CENTRE + 0.9 * 0.4 * math.sqrt(rng.random()) * cmath.exp(2j * math.pi * rng.random())
                np.testing.assert_allclose(_poisson_edge_masses(z, curve), _gl8_edge_masses(z, curve), rtol=0, atol=1e-11)


class TestDiskFixtureMetadata:
    """A disk fixture's edges are read off the angle about its centre, so its
    metadata must describe its points exactly."""

    def test_circle_builds_a_disk_fixture(self):
        curve = JordanCurveApprox.circle(0.1 - 0.05j, 0.4, n=64)
        assert curve.is_disk_fixture and curve.disk_center == 0.1 - 0.05j and curve.disk_radius == 0.4
        again = JordanCurveApprox(curve.points, disk_center=0.1 - 0.05j, disk_radius=0.4)
        np.testing.assert_array_equal(_poisson_edge_masses(0.2, again), _poisson_edge_masses(0.2, curve))

    def test_vertices_off_the_metadata_rejected(self):
        # rotated by half an edge, the walks would tally every exit one edge off
        pts = 0.4 * np.exp(2j * math.pi * (np.arange(64) + 0.5) / 64)
        with pytest.raises(ValueError, match="disk fixture points"):
            JordanCurveApprox(pts, disk_center=0j, disk_radius=0.4)
        with pytest.raises(ValueError, match="disk fixture points"):
            JordanCurveApprox(JordanCurveApprox.circle(0.0, 0.4, n=64).points, disk_center=0j, disk_radius=0.41)

    @pytest.mark.parametrize("given", ["centre", "radius"])
    def test_half_the_metadata_rejected(self, given):
        pts = JordanCurveApprox.circle(0.0, 0.4, n=64).points
        meta = {"disk_center": 0j} if given == "centre" else {"disk_radius": 0.4}
        with pytest.raises(ValueError, match="together"):
            JordanCurveApprox(pts, **meta)

    def test_negative_radius_circle_rejected(self):
        # its points are positively oriented, and its walkers were all absorbed at once
        with pytest.raises(ValueError, match="finite and positive"):
            JordanCurveApprox.circle(0.0, -0.4, n=64)

    @pytest.mark.parametrize("radius", [-0.4, 0.0, math.inf, math.nan])
    def test_radius_must_be_finite_and_positive(self, radius):
        with pytest.raises(ValueError, match="finite and positive"):
            JordanCurveApprox(JordanCurveApprox.circle(0.0, 0.4, n=64).points, disk_center=0j, disk_radius=radius)


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

    def test_seeded_splits_equal_the_scalar_distances(self):
        rng = np.random.default_rng(13)
        n_deep = 0
        for _ in range(20):
            curves = [
                JordanCurveApprox.circle(complex(*rng.uniform(-0.15, 0.15, 2)), float(rng.uniform(0.5, 0.8)), n=128)
                for _ in range(int(rng.integers(1, 3)))
            ]
            zl = ZeroList.from_points([complex(*rng.uniform(-0.6, 0.6, 2)) for _ in range(12)])
            want_deep = []
            for p in zl.expanded_points():
                c = next((c for c in curves if c.contains(p)), None)
                if c is not None and min(hyper_distance(p, q) for q in c.points) > 1.0:
                    want_deep.append(p)
            deep, rest = split_zeros_by_contour(zl, curves)
            assert deep.expanded_points() == want_deep
            assert deep.degree + rest.degree == zl.degree
            n_deep += deep.degree
        assert 40 < n_deep < 200


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

    def test_inconsistent_totals_detected(self):
        circ = JordanCurveApprox.circle(0.0, 0.5, n=16)
        bad = HarmonicMeasureAtlas(ZeroList(m=1), ZeroList(), (circ,), (np.full(16, 1.3 / 16),), (np.zeros(16),))
        with pytest.raises(AtlasInconsistencyError):
            bad.validate_totals()



def _array_dataclass_pair(name):
    """Two equal-valued instances of a frozen dataclass with array fields."""
    if name == "BoundaryGridFunction":
        return BoundaryGridFunction(np.zeros(8)), BoundaryGridFunction(np.zeros(8))
    if name == "JordanCurveApprox":
        return JordanCurveApprox.circle(0.0, 0.4, n=64), JordanCurveApprox.circle(0.0, 0.4, n=64)
    if name == "_CellIndex":
        a, b = JordanCurveApprox.circle(0.0, 0.4, n=64), JordanCurveApprox.circle(0.0, 0.4, n=64)
        return a._cell_index, b._cell_index
    u, b = ZeroList(m=1), ZeroList.from_points([0.1])
    circ = JordanCurveApprox.circle(0.0, 0.4, n=64)
    return build_atlas(u, b, [circ], method="exact"), build_atlas(u, b, [circ], method="exact")


@pytest.mark.parametrize("name", ["BoundaryGridFunction", "JordanCurveApprox", "_CellIndex", "HarmonicMeasureAtlas"])
def test_array_dataclasses_compare_by_identity(name):
    # a generated __eq__ would compare the array fields and raise ValueError
    a, b = _array_dataclass_pair(name)
    assert a == a and a != b
    assert len({a, a, b}) == 2 and hash(a) == hash(a)

def _start_at(monkeypatch, starts):
    """Start each curve's contour integral at vertex ``starts[component_id]``."""
    monkeypatch.setattr(JordanCurveApprox, "start_vertex", lambda self: starts[self.component_id])


def _two_curves():
    """Two disjoint circles, component ids 0 and 1; the second encloses the origin."""
    circles = (JordanCurveApprox.circle(0.5, 0.2, n=256), JordanCurveApprox.circle(0.0, 0.3, n=256))
    return [dataclasses.replace(c, component_id=i) for i, c in enumerate(circles)]


def _reference_point(atlas):
    """The point where ``log_quotient_via_contour`` calibrates its constant."""
    return complex(0.5 * (1.0 + max(float(np.abs(c.points).max()) for c in atlas.curves)))


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

    def test_start_point_independence_after_exp(self, monkeypatch):
        u = ZeroList(m=1)
        b = ZeroList.from_points([0.1])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=1024)
        atlas = build_atlas(u, b, [circ], method="exact")
        z = 0.55 + 0.3j
        l0 = log_quotient_via_contour(u, b, atlas, z)
        _start_at(monkeypatch, (300,))
        l1 = log_quotient_via_contour(u, b, build_atlas(u, b, [circ], method="exact"), z)
        assert abs(np.exp(l0) - np.exp(l1)) < 1e-8

    def test_two_curve_atlas_uses_documented_starts(self, monkeypatch):
        # the second curve encloses the origin, so its start vertex moves the
        # raw contour integral; each curve must start at its own start vertex
        _start_at(monkeypatch, (5, 40))
        u = ZeroList.from_points([0.5, 0.1])
        b = ZeroList.from_points([0.55, -0.05j])
        curves = _two_curves()
        atlas = build_atlas(u, b, curves, method="exact")
        z = 0.2 + 0.6j
        with warnings.catch_warnings():
            warnings.simplefilter("error", np.exceptions.ComplexWarning)
            both = _contour_integrals(atlas, z, _edge_logs(atlas, z))
        one_by_one = 0.0j
        for i, c in enumerate(curves):
            single = HarmonicMeasureAtlas(u, b, (c,), (atlas.nu_u[i],), (atlas.nu_b[i],))
            one_by_one += _contour_integrals(single, z, _edge_logs(single, z))
        assert abs(both - one_by_one) < 1e-14
        assert abs(both - _uncached_integrals(atlas, z, (5, 40))) < 1e-13

    def test_atlas_is_bound_to_its_products(self):
        # an atlas answers only for its own products: a C1 calibrated on
        # u = 1j z and reused for u = z returns 1j u/b
        b = ZeroList.from_points([0.1])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=256)
        z = 0.6 + 0.2j
        atlas = build_atlas(ZeroList(m=1), b, [circ], method="exact")
        with pytest.raises(ValueError, match="built from"):
            log_quotient_via_contour(ZeroList(m=1, lam=1j), b, atlas, z)
        for u in (ZeroList(m=1), ZeroList(m=1, lam=1j)):
            own = atlas if u == atlas.u else build_atlas(u, b, [circ], method="exact")
            ratio = evaluate_grid(u, np.array([z]))[0] / evaluate_grid(b, np.array([z]))[0]
            # the exact route on 256 edges is 1e-5 off; the old answer was 1j u/b
            assert abs(np.exp(log_quotient_via_contour(u, b, own, z)) - ratio) < 1e-4

    def test_interior_point_rejected(self):
        u = ZeroList(m=1)
        circ = JordanCurveApprox.circle(0.0, 0.4, n=128)
        atlas = build_atlas(u, u, [circ], method="exact")
        with pytest.raises(ValueError):
            log_quotient_via_contour(u, u, atlas, 0.1)

    @pytest.mark.parametrize("n", [256, 4096])
    def test_points_on_the_curve_rejected(self, n):
        u = ZeroList(m=1)
        b = ZeroList.from_points([0.1])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=n)
        atlas = build_atlas(u, b, [circ], method="exact")
        pts = circ.points
        # every vertex, and every edge's midpoint and a point a third of the way
        # along it, each rounded to the nearest representable complex
        on_curve = [*pts, *(0.5 * (pts + np.roll(pts, -1))), *(pts + (np.roll(pts, -1) - pts) / 3.0)]
        for z in on_curve[:: max(1, n // 64)] + [0.5 * (pts[10] + pts[11])]:
            with pytest.raises(ValueError, match="outside every curve"):
                log_quotient_via_contour(u, b, atlas, z)
        # a point beside an edge's midpoint is still evaluated
        mid = 0.5 * (pts[10] + pts[11])
        assert np.isfinite(log_quotient_via_contour(u, b, atlas, mid * (1.0 + 1e-9)))

    def test_errors_keep_their_order(self):
        # products other than the atlas's, a point inside or on a curve, then
        # unequal counts
        u = ZeroList.from_points([0.1, -0.1])
        b = ZeroList.from_points([0.1])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=128)
        atlas = build_atlas(u, b, [circ], method="exact")
        for other_u, other_b in ((b, b), (u, u)):
            with pytest.raises(ValueError, match="built from"):
                log_quotient_via_contour(other_u, other_b, atlas, 0.1)
        for z in (0.1, circ.points[5]):
            with pytest.raises(ValueError, match="outside every curve"):
                log_quotient_via_contour(u, b, atlas, z)
        with pytest.raises(HypothesisViolationError):
            log_quotient_via_contour(u, b, atlas, 0.7)

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

    def test_unequal_zeros_outside_every_curve_rejected(self):
        # equal counts inside, but u/b keeps a zero and a pole outside the curve
        circ = JordanCurveApprox.circle(0.0, 0.4, n=1024)
        u, b = ZeroList.from_points([0.1, 0.8j]), ZeroList.from_points([0.12, 0.85j])
        atlas = build_atlas(u, b, [circ], method="exact")
        with pytest.raises(ValueError, match="outside every curve"):
            log_quotient_via_contour(u, b, atlas, 0.1)
        for z in (0.6 + 0.1j, -0.5j, 0.9, -0.45 + 0.3j):
            with pytest.raises(HypothesisViolationError, match="zeros outside every curve differ"):
                log_quotient_via_contour(u, b, atlas, z)
        # the origin counts as a zero outside too
        u, b = ZeroList(m=1), ZeroList(m=2)
        ring = JordanCurveApprox.circle(0.5, 0.2, n=256)
        with pytest.raises(HypothesisViolationError, match="outside"):
            log_quotient_via_contour(u, b, build_atlas(u, b, [ring], method="exact"), -0.5)

    def test_equal_zeros_outside_every_curve_cancel(self):
        circ = JordanCurveApprox.circle(0.0, 0.4, n=1024)
        u, b = ZeroList.from_points([0.1, -0.6]), ZeroList.from_points([0.12, -0.6])
        atlas = build_atlas(u, b, [circ], method="exact")
        for z in (0.6 + 0.1j, -0.5j, 0.9, -0.45 + 0.3j):
            ratio = evaluate_grid(u, np.array([z]))[0] / evaluate_grid(b, np.array([z]))[0]
            assert abs(np.exp(log_quotient_via_contour(u, b, atlas, z)) - ratio) < 1e-6

    def test_shared_zero_at_the_reference_point(self):
        # the calibration point (1 + max |vertex|)/2 is 0.7000000000000001 on
        # this circle and 1/2 without curves: a zero shared there cancels in u/b
        circ = JordanCurveApprox.circle(0.0, 0.4, 256)
        u, b = ZeroList.from_points([0.1, 0.7000000000000001]), ZeroList.from_points([0.12, 0.7000000000000001])
        atlas = build_atlas(u, b, [circ], method="exact")
        for z in (0.5, 0.9j, -0.6, -0.45 + 0.3j):
            ratio = evaluate_grid(u, np.array([z]))[0] / evaluate_grid(b, np.array([z]))[0]
            assert abs(np.exp(log_quotient_via_contour(u, b, atlas, z)) - ratio) < 1e-5
        u, b = ZeroList(((0.5, 1),), lam=1j), ZeroList.from_points([0.5])
        atlas = build_atlas(u, b, [], method="exact")
        for z in (0.0, 0.3, 0.6 + 0.1j):
            assert log_quotient_via_contour(u, b, atlas, z) == pytest.approx(0.5j * math.pi, abs=1e-15)

    def test_atlas_without_curves(self):
        # a product without zeros has no level curves; with the same zeros
        # outside every curve, L is log(lam_u / lam_b)
        curves = level_set_components(ZeroList(), 0.2)
        assert curves == []
        u, b = ZeroList.from_points([0.3, -0.2j]), ZeroList(((0.3, 1), (-0.2j, 1)), lam=1j)
        atlas = build_atlas(u, b, curves, method="exact")
        for z in (0.0, 0.6 + 0.1j, -0.9j):
            assert abs(np.exp(log_quotient_via_contour(u, b, atlas, z)) - (-1j)) < 1e-14
        u, b = ZeroList.from_points([0.3]), ZeroList.from_points([0.2])
        with pytest.raises(HypothesisViolationError, match="outside every curve"):
            log_quotient_via_contour(u, b, build_atlas(u, b, [], method="exact"), 0.5j)


_SERIES_CASES = ["circle-256", "circle-1024", "circle-4096", "walk-256", "off-centre", "two-curves", "equal-products"]


def _series_case(name):
    """(atlas, points) on which every curve is a disk fixture with q <= 0.9."""
    rng = np.random.default_rng(29)
    far = [cmath.rect(0.45 + 0.5 * rng.random(), 2.0 * math.pi * rng.random()) for _ in range(20)]
    u, b = ZeroList(m=1), ZeroList.from_points([0.1])
    if name.startswith("circle-"):
        return build_atlas(u, b, [JordanCurveApprox.circle(0.0, 0.4, n=int(name[7:]))], method="exact"), far
    if name == "walk-256":
        # 5,000 paired samples on 256 edges: more terms than edges, so the moments alias
        u, b, circ = contour_log_fixture_mc()
        atlas = build_atlas(u, b, [circ], n_samples=5_000, rng=np.random.default_rng(7), method="walk", paired=True)
        assert atlas._tables[0][3].shape[1] > circ.n_edges
        return atlas, far
    if name == "off-centre":
        circ = JordanCurveApprox.circle(0.5, 0.2, n=256)
        atlas = build_atlas(ZeroList.from_points([0.5]), ZeroList.from_points([0.55]), [circ], method="exact")
        return atlas, [0.0, 1e-12, 1e-9j, -0.3]
    if name == "two-curves":
        u, b = ZeroList.from_points([0.5, 0.1]), ZeroList.from_points([0.55, -0.05j])
        return build_atlas(u, b, _two_curves(), method="exact"), [0.2 + 0.6j, -0.7, 0.1 - 0.8j, -0.5 - 0.5j]
    return build_atlas(b, b, [JordanCurveApprox.circle(0.0, 0.4, n=256)], method="exact"), far


def _spy_edge_logs(monkeypatch):
    """Record every point that takes the edge-integral route."""
    direct = []
    edge_logs = contours._edge_logs
    monkeypatch.setattr(contours, "_edge_logs", lambda atlas, z: direct.append(z) or edge_logs(atlas, z))
    return direct


class TestFarFieldSeries:
    @pytest.mark.parametrize("name", _SERIES_CASES)
    def test_matches_the_edge_integrals(self, name, monkeypatch):
        atlas, points = _series_case(name)
        for z in map(complex, points):
            direct = _spy_edge_logs(monkeypatch)
            series = _integrals(atlas, z)
            assert direct == []
            monkeypatch.undo()
            assert abs(series - _contour_integrals(atlas, z, _edge_logs(atlas, z))) < 1e-14

    def test_equal_products_need_no_terms(self, monkeypatch):
        # every vertex weight is zero, so the tail bound has nothing to bound
        u = ZeroList.from_points([0.1])
        atlas = build_atlas(u, u, [JordanCurveApprox.circle(0.0, 0.4, n=256)], method="exact")
        ((const, _, _, alpha, scale),) = atlas._tables
        assert scale == 0.0 and alpha.shape == (2, 0)
        direct = _spy_edge_logs(monkeypatch)
        assert _integrals(atlas, 0.6 + 0.1j) == -const and direct == []

    def test_polylines_and_near_points_take_the_edge_integrals(self, monkeypatch):
        direct = _spy_edge_logs(monkeypatch)
        u, b = ZeroList(m=1), ZeroList.from_points([0.1])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=256)
        atlas = build_atlas(u, b, [circ], method="exact")
        log_quotient_via_contour(u, b, atlas, 0.6)
        assert direct == []  # neither the point nor the calibration
        # |zeta| = 0.4/|z| just above and just below 0.9
        for z, took_direct in ((0.4 / 0.9 * (1.0 - 1e-9), True), (0.4 / 0.9 * (1.0 + 1e-9), False)):
            direct.clear()
            log_quotient_via_contour(u, b, atlas, z)
            assert direct == ([z] if took_direct else [])
        # the interior, on-curve and beside-the-curve points of the tests above
        pts = circ.points
        mid = 0.5 * (pts[10] + pts[11])
        for z in (0.1, pts[5], mid, pts[3] + (pts[4] - pts[3]) / 3.0, mid * (1.0 + 1e-9)):
            direct.clear()
            try:
                log_quotient_via_contour(u, b, atlas, z)
            except ValueError:
                pass
            assert direct == [complex(z)]
        # a polyline takes the edge integrals everywhere, its calibration included
        poly = build_atlas(u, b, [JordanCurveApprox(circ.points)], method="walk", n_samples=200)
        direct.clear()
        log_quotient_via_contour(u, b, poly, 0.9)
        assert len(direct) == 2 and poly._tables[0][3] is None


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

    def test_diameter_equals_the_scalar_distances(self):
        u = ZeroList.from_points([0.05, -0.03 + 0.04j])
        circ = JordanCurveApprox.circle(0.1j, 0.6, n=64)
        nu = np.ones(64)
        rng = np.random.default_rng(6)
        arcs = [(int(a), int(rng.integers(0, 64))) for a in rng.integers(0, 64, 10)]
        for (a, b_idx), c in zip(arcs, trossos_check(u, circ, nu, arcs)):
            n = (b_idx - a) % 64 or 64
            pts = circ.points[np.arange(a, a + n + 1) % 64]
            assert c.diameter == pytest.approx(max(pseudo_distance(p, q) for p in pts for q in pts), abs=1e-15)


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
    @pytest.mark.parametrize("d", [0.0, 0.07, 0.15, 0.19])
    def test_fusion_rate_is_the_lens_ratio_and_both_walkers_are_uniform(self, d):
        n, r = 200_000, 0.1
        rng = np.random.default_rng(31)
        xu = np.full(n, 0.2 + 0.1j)
        xb = xu + d * np.exp(0.7j)
        radial, angle = rng.random((2, n))
        # the larger distance leaves the ball radius at the smaller one
        du, db = np.full(n, r), np.full(n, 1.5 * r)
        new_u, new_b, meet = _coupled_step(xu, xb, du, db, radial, np.exp(2j * math.pi * angle))
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

    @pytest.mark.parametrize("d", [0.2, 0.25, 0.6])
    def test_a_far_pair_jumps_to_its_own_circles(self, d):
        # balls of radius r = min(du, db) at least 2r apart cannot meet
        n = 200_000
        rng = np.random.default_rng(32)
        xu = np.full(n, 0.2 + 0.1j)
        xb = xu + d * np.exp(0.7j)
        du, db = np.full(n, 0.1), np.full(n, 0.13)
        radial, angle = rng.random((2, n))
        new_u, new_b, meet = _coupled_step(xu, xb, du, db, radial, np.exp(2j * math.pi * angle))
        assert not meet.any()
        for new, centre, dist in ((new_u, xu, du), (new_b, xb, db)):
            rel = new - centre
            np.testing.assert_allclose(np.abs(rel), dist, rtol=0, atol=1e-12)
            # uniform on the circle: coordinates of mean 0 and variance dist^2 / 2
            sigma = dist[0] / math.sqrt(2.0 * n)
            assert abs(rel.real.mean()) < 4.0 * sigma and abs(rel.imag.mean()) < 4.0 * sigma
        # the b-walker's direction is the u-walker's mirrored across the bisector
        unit = np.exp(0.7j)
        mirrored = (new_u - xu) / du - 2.0 * ((new_u - xu) / du * np.conj(unit)).real * unit
        np.testing.assert_allclose((new_b - xb) / db, mirrored, rtol=0, atol=1e-12)


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
        mu, mb, _ = harmonic_measure_paired(z_u, z_b, curve, n_samples=n, rng=np.random.default_rng(seed))
        _assert_arcs_and_modes_agree(mu, _poisson_edge_masses(z_u, curve), theta, n)
        _assert_arcs_and_modes_agree(mb, _poisson_edge_masses(z_b, curve), theta, n)

    @pytest.mark.parametrize(
        "z_u, z_b",
        # sources 2r apart, whose pairs start with sphere jumps; a source at
        # 0.95 of the radius, with a partner in coupling reach
        [(0.25, -0.25), (0.38, 0.36 + 0.01j)],
        ids=["apart", "near-the-circle"],
    )
    def test_paired_marginals_match_the_exact_masses(self, z_u, z_b):
        curve = JordanCurveApprox.circle(0.0, 0.4, n=256)
        theta = np.angle(0.5 * (curve.edge_starts() + curve.edge_ends()))
        n = 400_000
        mu, mb, _ = harmonic_measure_paired(z_u, z_b, curve, n_samples=n, rng=np.random.default_rng(14))
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
            *harmonic_measure_paired(z_u, z_b, curve, n_samples=n_new, rng=np.random.default_rng(3))[:2],
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
            int(np.argmax(harmonic_measure(0.0, curve, 1, np.random.default_rng(seed), method="walk"))) for seed in range(200)
        }
        assert len(edges) > 48

    def test_equal_sources_fuse_at_once(self):
        curve = JordanCurveApprox.circle(0.0, 0.4, n=64)
        mu, mb, _ = harmonic_measure_paired(0.1, 0.1, curve, n_samples=5000, rng=np.random.default_rng(9))
        np.testing.assert_array_equal(mu, mb)

    def test_seeded_runs_repeat(self):
        # three chunks, the last one partial
        curve = JordanCurveApprox.circle(0.0, 0.4, n=64)
        run = lambda: harmonic_measure_paired(0.0, 0.1, curve, n_samples=45_000, rng=np.random.default_rng(5))
        first, again = run(), run()
        np.testing.assert_array_equal(first[0], again[0])
        np.testing.assert_array_equal(first[1], again[1])
        assert first[0].sum() == pytest.approx(1.0, abs=1e-12)


_PINS = Path(__file__).resolve().parents[1] / "benchmarks" / "pins.json"


def _walk_route_error_x_sqrt_samples(seed, n_samples=5_000, n_points=50):
    """max |exp(L_walk) - u/b| sqrt(n) over exterior points, for u = z and one
    b zero of modulus <= 0.05, on the contour-log benchmark's walk circle."""
    rng = np.random.default_rng(seed)
    u, b = ZeroList(m=1), ZeroList.from_points([random_point(rng, 0.05)])
    points = [cmath.rect(0.45 + 0.5 * rng.random(), 2.0 * math.pi * rng.random()) for _ in range(n_points)]
    curve = JordanCurveApprox.circle(0.0, 0.4, n=256)
    atlas = build_atlas(
        u, b, [curve], n_samples=n_samples, rng=np.random.default_rng((seed, 1)), method="walk", paired=True
    )
    ratio = evaluate_grid(u, np.array(points)) / evaluate_grid(b, np.array(points))
    err = max(abs(np.exp(log_quotient_via_contour(u, b, atlas, z)) - q) for z, q in zip(points, ratio))
    return err * math.sqrt(n_samples)


class TestWalkRouteAtBenchmarkSize:
    def test_error_stays_under_the_benchmark_bound(self):
        bound = json.loads(_PINS.read_text())["statistical_bounds"]["walk_route_error_x_sqrt_samples"]
        errors = [_walk_route_error_x_sqrt_samples(seed) for seed in range(40)]
        assert max(errors) < bound
        # about 0.19 is observed
        assert statistics.median(errors) < 0.5


def _previous_engine(zu, zb, curve, n_samples, rng):
    """The walk engine before its steps were trimmed, the bit-for-bit
    reference for ``_walk``: every step queries every live walker's distance
    (nearest edges included, on disks too) and forms every row's direction,
    and the u- and b-walkers are separate arrays with three tallies.  Pairs
    2r apart take their sphere jumps here, and only the others reach
    ``_coupled_step``."""
    absorb, max_steps = contours._ABSORB, contours._MAX_STEPS
    n_edges = curve.n_edges
    masses_u = np.zeros(n_edges)
    masses_b = np.zeros(n_edges)
    stragglers = 0
    for done in range(0, n_samples, contours._WALK_CHUNK):
        m = min(contours._WALK_CHUNK, n_samples - done)
        i = np.arange(m)
        draws = np.mod(np.stack([i / m, i * contours._INV_GOLDEN]) + rng.random(2)[:, None], 1.0)
        pos_u = np.full(m, zu, dtype=np.complex128)
        pos_b = np.full(m, zu if zb is None else zb, dtype=np.complex128)
        alive_u = np.ones(m, dtype=bool)
        alive_b = np.full(m, zb is not None)
        fused = np.zeros(m, dtype=bool)
        for step in range(max_steps + 1):
            keep = alive_u | alive_b
            n_keep = np.count_nonzero(keep)
            if n_keep == 0:
                break
            if 2 * n_keep <= keep.size:
                pos_u, pos_b, alive_u, alive_b, fused = (x[keep] for x in (pos_u, pos_b, alive_u, alive_b, fused))
            if step:
                draws = rng.random((2, pos_u.size))
            iu = np.flatnonzero(alive_u)
            ib = np.flatnonzero(alive_b)
            dist, ne = _distance_to_curve(np.concatenate([pos_u[iu], pos_b[ib]]), curve)
            hit = dist < absorb
            if step == max_steps:
                stragglers += np.count_nonzero(~hit) + np.count_nonzero(~hit[: iu.size] & fused[iu])
                hit[:] = True
            hit_u, hit_b = hit[: iu.size], hit[iu.size :]
            ne_u = ne[: iu.size][hit_u]
            masses_u += np.bincount(ne_u, minlength=n_edges)
            masses_b += np.bincount(ne_u[fused[iu[hit_u]]], minlength=n_edges)
            masses_b += np.bincount(ne[iu.size :][hit_b], minlength=n_edges)
            alive_u[iu[hit_u]] = False
            alive_b[ib[hit_b]] = False
            iu, du, ib, db = iu[~hit_u], dist[: iu.size][~hit_u], ib[~hit_b], dist[iu.size :][~hit_b]
            dirs = np.exp(2j * math.pi * draws[0])
            paired_u, paired_b = alive_b[iu], alive_u[ib]
            ju, jb = iu[~paired_u], ib[~paired_b]
            pos_u[ju] += du[~paired_u] * dirs[ju]
            pos_b[jb] += db[~paired_b] * dirs[jb]
            ic = iu[paired_u]
            if ic.size:
                du, db = du[paired_u], db[paired_b]
                sep = pos_b[ic] - pos_u[ic]
                far = np.abs(sep) >= 2.0 * np.minimum(du, db)
                # pairs 2r apart: two sphere jumps, b's direction mirrored across the bisector
                jf = ic[far]
                unit = sep[far] / np.abs(sep[far])
                step_b = db[far] * dirs[jf]
                pos_u[jf] = pos_u[jf] + du[far] * dirs[jf]
                pos_b[jf] = pos_b[jf] + step_b - 2.0 * (step_b * np.conj(unit)).real * unit
                jn = ic[~far]
                pos_u[jn], pos_b[jn], meet = _coupled_step(
                    pos_u[jn], pos_b[jn], du[~far], db[~far], draws[1, jn], dirs[jn]
                )
                fused[jn[meet]] = True
                alive_b[jn[meet]] = False
    return masses_u / n_samples, None if zb is None else masses_b / n_samples, int(stragglers)


_ENGINE_CURVES = {
    "disk": lambda: JordanCurveApprox.circle(0.1 - 0.05j, 0.4, n=64),
    "polyline": lambda: _DISTANCE_CURVES["polyline-1024"](),
    "trefoil": _DISTANCE_CURVES["trefoil"],
    "level-set": _level_set_curve,
}


def _engine_source(curve):
    # off the centre, where one sphere jump would reach the curve
    z = complex(curve.points.mean()) + 0.08 - 0.03j
    assert curve.contains(z)
    return z


def _assert_same_walk(got, want):
    np.testing.assert_array_equal(got[0], want[0])
    if want[1] is None:
        assert got[1] is None
    else:
        np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]


class TestEngineAgainstThePreviousEngine:
    """``_walk`` against ``_previous_engine`` on the same generator state:
    the same masses and stragglers, bit for bit, and the same stream left."""

    @staticmethod
    def _both(zu, zb, curve, n, seed):
        rng_new, rng_old = np.random.default_rng(seed), np.random.default_rng(seed)
        got = contours._walk(zu, zb, curve, n, rng_new)
        want = _previous_engine(zu, zb, curve, n, rng_old)
        _assert_same_walk(got, want)
        assert rng_new.random() == rng_old.random()
        return got

    @pytest.mark.parametrize("name", sorted(_ENGINE_CURVES))
    @pytest.mark.parametrize("paired", [True, False], ids=["paired", "lone"])
    def test_same_masses(self, name, paired):
        curve = _ENGINE_CURVES[name]()
        z = _engine_source(curve)
        for n, seed in ((1, 1), (7, 2), (600, 3)):
            self._both(z, z + 0.05j if paired else None, curve, n, seed)

    @pytest.mark.parametrize("paired", [True, False], ids=["paired", "lone"])
    def test_a_partial_third_chunk(self, paired):
        curve = _ENGINE_CURVES["disk"]()
        self._both(0.1, -0.05 + 0.1j if paired else None, curve, 45_000, 5)

    @pytest.mark.parametrize("name", ["disk", "trefoil"])
    def test_equal_sources(self, name):
        curve = _ENGINE_CURVES[name]()
        z = _engine_source(curve)
        mu, mb, _ = self._both(z, z, curve, 900, 9)
        np.testing.assert_array_equal(mu, mb)

    @pytest.mark.parametrize("name", sorted(_ENGINE_CURVES))
    @pytest.mark.parametrize("cap", [0, 1, 2, 5])
    def test_stragglers_at_the_step_cap(self, name, cap, monkeypatch):
        monkeypatch.setattr(contours, "_MAX_STEPS", cap)
        curve = _ENGINE_CURVES[name]()
        z = _engine_source(curve)
        counts = [self._both(z, zb, curve, 500, 8)[2] for zb in (z + 0.05j, None, z)]
        assert min(counts) > 0


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
                    harmonic_measure(z, curve, 400, np.random.default_rng(seed), method="walk"),
                    *harmonic_measure_paired(z, z - 0.06j, curve, 400, np.random.default_rng(seed)),
                ),
            )
            for got, ref in zip(indexed, dense):
                np.testing.assert_array_equal(got, ref)

    def test_step_cap_stragglers_equal_the_dense_walk(self, monkeypatch):
        monkeypatch.setattr(contours, "_ABSORB", 1e-9)
        monkeypatch.setattr(contours, "_MAX_STEPS", 5)
        curve = _DISTANCE_CURVES["trefoil"]()
        indexed, dense = self._both_routes(
            monkeypatch,
            lambda: harmonic_measure_paired(0.05, 0.1, curve, 300, np.random.default_rng(8)),
        )
        np.testing.assert_array_equal(indexed[0], dense[0])
        np.testing.assert_array_equal(indexed[1], dense[1])
        assert indexed[2] == dense[2] > 0


class TestWalkStragglers:
    def test_none_on_the_criterion_7_fixture(self):
        u, b, circ = contour_log_fixture_mc()
        atlas = build_atlas(u, b, [circ], n_samples=40_000, rng=np.random.default_rng(7), method="walk", paired=True)
        assert atlas.walk_stragglers == 0

    def test_counted_at_the_step_cap(self, monkeypatch):
        monkeypatch.setattr(contours, "_MAX_STEPS", 2)
        curve = JordanCurveApprox.circle(0.0, 0.4, n=64)
        mu, mb, stuck = harmonic_measure_paired(0.0, 0.1, curve, 1000, np.random.default_rng(1))
        assert 0 < stuck <= 2000
        assert mu.sum() == pytest.approx(1.0) and mb.sum() == pytest.approx(1.0)
        masses, solo = harmonic_measure(0.1, curve, 1000, np.random.default_rng(1), method="walk", return_stragglers=True)
        assert 0 < solo <= 1000 and masses.sum() == pytest.approx(1.0)
        assert harmonic_measure(0.1, curve, method="exact", return_stragglers=True)[1] == 0
        # equal sources fuse on the first step, and a fused pair still out counts twice
        monkeypatch.setattr(contours, "_MAX_STEPS", 1)
        _, _, stuck = harmonic_measure_paired(0.1, 0.1, curve, 1000, np.random.default_rng(1))
        assert stuck == 2000

    @pytest.mark.parametrize("paired", [True, False])
    def test_atlas_sums_the_counts(self, paired, monkeypatch):
        monkeypatch.setattr(contours, "_MAX_STEPS", 2)
        counts = []

        def counted(fn):
            def run(*args, **kwargs):
                out = fn(*args, **kwargs)
                counts.append(out[-1])
                return out

            return run

        for name in ("harmonic_measure", "harmonic_measure_paired"):
            monkeypatch.setattr(contours, name, counted(getattr(contours, name)))
        u = ZeroList.from_points([0.1, -0.1j])
        b = ZeroList.from_points([0.05, 0.12j])
        circ = JordanCurveApprox.circle(0.0, 0.4, n=64)
        atlas = build_atlas(u, b, [circ], n_samples=500, rng=np.random.default_rng(2), method="walk", paired=paired)
        assert len(counts) == (2 if paired else 4)
        assert atlas.walk_stragglers == sum(counts) > 0


_BAD_WALK_ARGS = {
    "no-samples": {"n_samples": 0},
    "negative-samples": {"n_samples": -3},
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
        exact = harmonic_measure(0.1, curve, method="exact")
        np.testing.assert_array_equal(harmonic_measure(0.1, curve, n_samples=0, method="exact"), exact)


class TestAtlasTables:
    def test_masses_are_read_only_copies(self):
        circ = JordanCurveApprox.circle(0.0, 0.4, n=16)
        mu, mb = np.full(16, 1.0 / 16), np.full(16, 1.0 / 16)
        atlas = HarmonicMeasureAtlas(ZeroList(m=1), ZeroList.from_points([0.1]), (circ,), (mu,), (mb,))
        mu[0] = 5.0
        assert atlas.nu_u[0][0] == 1.0 / 16
        for table in (atlas.nu_u[0], atlas.nu_b[0]):
            with pytest.raises(ValueError):
                table[0] = 0.0
        with pytest.raises(AttributeError):
            atlas.nu_u = (mb,)


def _uncached_integrals(atlas, z, starts):
    """The contour integrals by 8-point Gauss-Legendre on every edge, with the
    node tables rebuilt per point: the former route, kept as the reference."""
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
    """The cached closed-form edge integrals against the Gauss-Legendre reference."""

    @pytest.mark.parametrize("case", ["exact-4096", "walk-256", "two-curves"])
    def test_log_quotient_equals_the_uncached_integral(self, case, monkeypatch):
        if case == "two-curves":
            u = ZeroList.from_points([0.5, 0.1])
            b = ZeroList.from_points([0.55, -0.05j])
            built = build_atlas(u, b, _two_curves(), method="exact")
            start_sets = [None, (5, 40), (200, 0)]
        else:
            u, b = ZeroList(m=1), ZeroList.from_points([0.03 - 0.02j])
            n = 4096 if case == "exact-4096" else 256
            circ = JordanCurveApprox.circle(0.0, 0.4, n=n)
            if case == "exact-4096":
                built = build_atlas(u, b, [circ], method="exact")
            else:
                built = build_atlas(
                    u, b, [circ], n_samples=1000, rng=np.random.default_rng(2), method="walk", paired=True
                )
            start_sets = [None, (7,), (n - 1,)]
        rng = np.random.default_rng(23)
        points = [(0.45 + 0.5 * rng.random()) * np.exp(2j * math.pi * rng.random()) for _ in range(12)]
        points = [complex(z) for z in points if not any(c.contains(z) for c in built.curves)]
        ref = _reference_point(built)
        direct = complex(np.log(evaluate_grid(u, np.array([ref]))[0] / evaluate_grid(b, np.array([ref]))[0]))
        for starts in start_sets:
            s = tuple(c.start_vertex() for c in built.curves) if starts is None else starts
            with monkeypatch.context() as patch:
                if starts is not None:
                    _start_at(patch, starts)
                atlas = HarmonicMeasureAtlas(u, b, built.curves, built.nu_u, built.nu_b)
                c1 = direct - _uncached_integrals(atlas, ref, s)
                for z in points:
                    got = log_quotient_via_contour(u, b, atlas, z)
                    assert abs(got - (c1 + _uncached_integrals(atlas, z, s))) < 1e-13

    def test_small_and_zero_evaluation_points(self, monkeypatch):
        # z = 0 takes the limit of the conj(B).M / z term; log1p keeps M's
        # digits as z -> 0
        _start_at(monkeypatch, (17,))
        u = ZeroList.from_points([0.5, 0.45])
        b = ZeroList.from_points([0.55, 0.5 + 0.05j])
        atlas = build_atlas(u, b, [JordanCurveApprox.circle(0.5, 0.2, n=256)], method="exact")
        for r in (0.0, 1e-12, 1e-9, 1e-4):
            for z in (r, r * 1j, -r * (0.6 + 0.8j)):
                got = _contour_integrals(atlas, z, _edge_logs(atlas, z))
                assert abs(got - _uncached_integrals(atlas, z, (17,))) < 1e-12

    def test_far_points_on_many_short_edges(self):
        # 1 - (a/d) L cancels most of its digits on edges short against |a|
        u, b = ZeroList(m=1), ZeroList.from_points([0.03 - 0.02j])
        atlas = build_atlas(u, b, [JordanCurveApprox.circle(0.0, 0.4, n=4096)], method="exact")
        starts = tuple(c.start_vertex() for c in atlas.curves)
        for k in range(16):
            z = 0.95 * np.exp(2j * math.pi * (k + 0.3) / 16)
            got = _contour_integrals(atlas, z, _edge_logs(atlas, z))
            assert abs(got - _uncached_integrals(atlas, z, starts)) < 1e-13

    def test_near_the_curve_no_worse_than_gauss_legendre(self):
        u, b = ZeroList(m=1), ZeroList.from_points([0.03 - 0.02j])
        atlas = build_atlas(u, b, [JordanCurveApprox.circle(0.0, 0.4, n=256)], method="exact")
        starts = tuple(c.start_vertex() for c in atlas.curves)
        ref = _reference_point(atlas)
        direct = complex(np.log(evaluate_grid(u, np.array([ref]))[0] / evaluate_grid(b, np.array([ref]))[0]))
        c1 = direct - _uncached_integrals(atlas, ref, starts)
        rng = np.random.default_rng(31)
        err_closed = err_gl8 = 0.0
        for _ in range(200):
            z = (0.401 + 0.099 * rng.random()) * np.exp(2j * math.pi * rng.random())
            ratio = evaluate_grid(u, np.array([z]))[0] / evaluate_grid(b, np.array([z]))[0]
            err_closed = max(err_closed, abs(np.exp(log_quotient_via_contour(u, b, atlas, z)) - ratio))
            err_gl8 = max(err_gl8, abs(np.exp(c1 + _uncached_integrals(atlas, z, starts)) - ratio))
        assert err_closed <= err_gl8
