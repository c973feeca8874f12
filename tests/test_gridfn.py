"""Tests for the circle-grid analysis kernels."""

import warnings

import numpy as np
import pytest

from blaschkelab import gridfn
from blaschkelab.errors import ContourThroughZeroError
from blaschkelab.gridfn import (
    BoundaryGridFunction,
    circle_nodes,
    harmonic_conjugate,
    winding_number,
)

N = 1024
THETA = 2 * np.pi * np.arange(N) / N


class TestCircleNodes:
    def test_shared_read_only_roots_of_unity(self):
        nodes = circle_nodes(N)
        assert circle_nodes(N) is nodes
        np.testing.assert_array_equal(nodes, np.exp(2j * np.pi * np.arange(N) / N))
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        with pytest.raises(ValueError):
            nodes *= 2.0
        with pytest.raises(ValueError):
            circle_nodes(4)


class TestHarmonicConjugate:
    def test_cos_to_sin_exact(self):
        out = harmonic_conjugate(BoundaryGridFunction(np.cos(THETA)))
        np.testing.assert_allclose(out.samples, np.sin(THETA), atol=1e-13)

    def test_constant_to_zero(self):
        out = harmonic_conjugate(BoundaryGridFunction(np.full(N, 3.7)))
        np.testing.assert_allclose(out.samples, 0.0, atol=1e-13)

    def test_sin_to_minus_cos(self):
        out = harmonic_conjugate(BoundaryGridFunction(np.sin(THETA)))
        np.testing.assert_allclose(out.samples, -np.cos(THETA), atol=1e-13)

    def test_double_conjugation(self):
        rng = np.random.default_rng(0)
        f = np.zeros(N)
        for k in range(1, 12):
            f += rng.standard_normal() * np.cos(k * THETA) + rng.standard_normal() * np.sin(k * THETA)
        f += 2.5
        twice = harmonic_conjugate(harmonic_conjugate(BoundaryGridFunction(f)))
        np.testing.assert_allclose(twice.samples, -(f - f.mean()), atol=1e-10)

    def test_rejects_complex(self):
        with pytest.raises(ValueError):
            harmonic_conjugate(BoundaryGridFunction(np.exp(1j * THETA)))


def _one_group(f, arcs, vals):
    """``winding_number`` on one group of arcs: its result, or its error raised."""
    ends = np.cumsum([arc.size for arc in arcs])
    (result,) = winding_number([f], np.concatenate(arcs), vals, ends, ends[-1:])
    if isinstance(result, ContourThroughZeroError):
        raise result
    return result


def _circle(radius, n):
    """The circle |z| = radius as one closed arc of n edges (first point repeated)."""
    return radius * np.exp(2j * np.pi * np.arange(n + 1) / n)


class TestWindingNumber:
    def test_circle(self):
        pts = _circle(1.0, N)
        assert _one_group(lambda z: z, [pts], pts) == (pytest.approx(1.0), 1)
        assert _one_group(lambda z: z**-2, [pts], pts**-2)[1] == -2

    def test_offset_no_winding(self):
        pts = _circle(1.0, N)
        assert _one_group(lambda z: 3.0 + z, [pts], 3.0 + pts) == (pytest.approx(2.0), 0)

    def test_through_zero_raises(self, monkeypatch):
        # a zero a third of the way along an edge: no midpoint lands on it, so
        # bisection runs into the point cap; a sample on the zero itself gives no count
        monkeypatch.setattr(gridfn, "_MAX_PTS_PER_LOOP", 256)
        pts = _circle(1.0, 64)
        zero = pts[5] + (pts[6] - pts[5]) / 3.0
        with pytest.raises(ContourThroughZeroError, match="needs more than 256 points"):
            _one_group(lambda z: z - zero, [pts], pts - zero)
        assert _one_group(lambda z: z - pts[5], [pts], pts - pts[5]) == (0.0, 0)

    def test_bisects_where_the_phase_steps_past_pi(self):
        # z^3 on 4 edges steps 3 pi / 2 per edge, so the wrapped phase sum
        # alone reads -1; only the inserted midpoints are evaluated
        pts, seen = _circle(0.5, 4), []

        def f(z):
            seen.append(z)
            return z**3

        low, count = _one_group(f, [pts], pts**3)
        assert count == 3 and low < 0.125
        mids = np.concatenate(seen)
        assert mids.size and np.abs(mids - pts[:, None]).min() > 0.0

    def test_bisects_within_arcs_without_warnings(self):
        # the circle as two half-circle arcs of 32 edges each, and a zero
        # near it: no edge joins the arcs' shared ends, so every midpoint is
        # a chord's, inside the circle; a zero sample returns before any division
        arcs = [np.exp(1j * np.pi * np.arange(33) / 32), np.exp(1j * np.pi * (1.0 + np.arange(33) / 32))]
        pts, zero, seen = np.concatenate(arcs), 0.97 * np.exp(0.3j), []

        def f(w):
            seen.append(w)
            return w - zero

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            low, count = _one_group(f, arcs, pts - zero)
            assert _one_group(lambda w: w - arcs[1][7], arcs, pts - arcs[1][7]) == (0.0, 0)
        assert count == 1 and 0.03 <= low < 0.031
        mids = np.concatenate(seen)
        assert mids.size and np.abs(mids).max() < 1.0 - 1e-6


def _product(zeros):
    return lambda w: np.prod(np.subtract.outer(w, np.asarray(zeros, dtype=complex)), axis=-1)


def _group_case(rng, kind):
    """One group of arcs on a circle and the function counted on it: a
    product of 0 to 3 zeros placed for the case ``kind``."""
    centre, radius = complex(*rng.uniform(-5.0, 5.0, 2)), rng.uniform(0.5, 2.0)
    n_edges = int(rng.integers(16, 200))
    zeros = [
        centre + radius * rng.uniform(0.0, 2.0) * np.exp(2j * np.pi * rng.random()) for _ in range(rng.integers(0, 4))
    ]
    if kind == "near":  # a zero just off the curve: the count bisects
        zeros.append(centre + radius * (1.0 + 1e-3) * np.exp(2j * np.pi * rng.random()))
    n = n_edges + 1
    theta = 2.0 * np.pi * np.arange(n) / n_edges
    if kind == "open":  # a half circle: the phase sum is off an integer
        theta = theta / 2.0
    pts = centre + radius * np.exp(1j * theta)
    if kind == "on":  # a zero on a sample
        zeros.append(pts[int(rng.integers(0, n))])
    cut = sorted(set(rng.integers(2, n - 2, size=int(rng.integers(0, 3))).tolist()))
    # arcs share their ends, as the contours' arcs do
    arcs = [pts[a : b + 1] for a, b in zip([0] + cut, cut + [n - 1])]
    return _product(zeros), arcs


def _lay_out(cases):
    """The groups end to end: their functions, points, values and offsets."""
    fs = [f for f, _ in cases]
    arcs = [arc for _, group in cases for arc in group]
    pts = np.concatenate(arcs)
    vals = np.concatenate([f(np.concatenate(group)) for f, group in cases])
    arc_ends = np.cumsum([arc.size for arc in arcs])
    group_ends = np.cumsum([sum(arc.size for arc in group) for _, group in cases])
    return fs, pts, vals, arc_ends, group_ends


class TestGroupedWinding:
    def test_groups_equal_per_group_calls(self, monkeypatch):
        # plain, bisecting, zero-sample, open and over-cap groups side by side
        monkeypatch.setattr(gridfn, "_MAX_PTS_PER_LOOP", 600)
        rng = np.random.default_rng(5)
        kinds = ["plain", "near", "on", "open"]
        seen = {k: 0 for k in ("count", "zero", "error")}
        for _ in range(40):
            cases = [_group_case(rng, kinds[int(rng.integers(0, 4))]) for _ in range(int(rng.integers(1, 12)))]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = winding_number(*_lay_out(cases))
            assert len(got) == len(cases)
            for result, case in zip(got, cases):
                (want,) = winding_number(*_lay_out([case]))
                if isinstance(want, ContourThroughZeroError):
                    assert type(result) is type(want) and str(result) == str(want)
                    seen["error"] += 1
                else:
                    assert result == want  # the margin to the bit
                    seen["zero" if want == (0.0, 0) else "count"] += 1
        assert min(seen.values()) > 20

    def test_a_bisecting_group_sees_only_its_own_midpoints(self):
        rng = np.random.default_rng(6)
        cases = [_group_case(rng, kind) for kind in ("plain", "near", "plain", "near", "on")]
        calls = [[] for _ in cases]

        def recorder(g, f):
            def f_seen(w):
                calls[g].append(w)
                return f(w)

            return f_seen

        fs, pts, vals, arc_ends, group_ends = _lay_out(cases)
        results = winding_number([recorder(g, f) for g, f in enumerate(fs)], pts, vals, arc_ends, group_ends)
        for g, (f, arcs) in enumerate(cases):
            (alone,) = winding_number([f], *_lay_out([(f, arcs)])[1:])
            assert results[g] == alone
            if g in (1, 3):
                # every midpoint lies on one of the group's own chords
                own = np.concatenate(arcs)
                mids = np.concatenate(calls[g])
                assert mids.size and np.abs(mids[:, None] - own[None, :]).min(axis=1).max() < np.abs(np.diff(own)).max()
            else:
                assert calls[g] == []

    def test_the_point_cap_holds_per_group(self, monkeypatch):
        # on a 16-gon, w^6 needs 129 points and w^12 257: two groups of 129
        # pass a cap of 200 side by side, and the third fails alone, in its place
        monkeypatch.setattr(gridfn, "_MAX_PTS_PER_LOOP", 200)
        circle = _circle(1.0, 16)
        cases = [(lambda w: w**6, [circle]), (lambda w: (w - 3.0) ** 6, [circle + 3.0]), (lambda w: w**12, [circle])]
        got = winding_number(*_lay_out(cases))
        assert [r[1] for r in got[:2]] == [6, 6]
        assert isinstance(got[2], ContourThroughZeroError) and "needs more than 200 points" in str(got[2])
        monkeypatch.setattr(gridfn, "_MAX_PTS_PER_LOOP", 257)
        assert winding_number(*_lay_out(cases[2:]))[0][1] == 12

    def test_only_bisecting_groups_are_refined(self, monkeypatch):
        # a jump-free group is counted in the first pass, or refused there
        # when its phase sum is off an integer, as the half circles' are
        rng = np.random.default_rng(7)
        cases = [_group_case(rng, ("plain", "near", "open")[k % 3]) for k in range(60)]
        refined = []
        real = gridfn._refined_count
        monkeypatch.setattr(gridfn, "_refined_count", lambda f, *rest: refined.append(f) or real(f, *rest))
        got = winding_number(*_lay_out(cases))
        bisecting = []
        for f, arcs in cases:
            vals = [f(arc) for arc in arcs]
            jumps = [np.abs(np.diff(v)) / np.minimum(np.abs(v[1:]), np.abs(v[:-1])) for v in vals]
            bisecting.append(max(float(j.max()) for j in jumps) > gridfn._ETA)
        assert refined == [f for (f, _), b in zip(cases, bisecting) if b]
        assert 0 < len(refined) < len(cases)
        off = [r for r, b in zip(got, bisecting) if not b and isinstance(r, ContourThroughZeroError)]
        assert len(off) > 10 and all("not near an integer" in str(r) for r in off)


class TestSerialization:
    def test_csv(self, tmp_path):
        f = BoundaryGridFunction(np.exp(1j * 2 * np.pi * np.arange(8) / 8))
        path = tmp_path / "f.csv"
        f.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "theta,re,im"
        assert len(rows) == 9
