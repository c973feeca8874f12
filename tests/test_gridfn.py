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


def _circle(radius, n):
    """The circle |z| = radius as one closed arc of n edges (first point repeated)."""
    return radius * np.exp(2j * np.pi * np.arange(n + 1) / n)


class TestWindingNumber:
    def test_circle(self):
        pts = _circle(1.0, N)
        assert winding_number(lambda z: z, [pts], pts) == (pytest.approx(1.0), 1)
        assert winding_number(lambda z: z**-2, [pts], pts**-2)[1] == -2

    def test_offset_no_winding(self):
        pts = _circle(1.0, N)
        assert winding_number(lambda z: 3.0 + z, [pts], 3.0 + pts) == (pytest.approx(2.0), 0)

    def test_through_zero_raises(self, monkeypatch):
        # a zero a third of the way along an edge: no midpoint lands on it, so
        # bisection runs into the point cap; a sample on the zero itself gives no count
        monkeypatch.setattr(gridfn, "_MAX_PTS_PER_LOOP", 256)
        pts = _circle(1.0, 64)
        zero = pts[5] + (pts[6] - pts[5]) / 3.0
        with pytest.raises(ContourThroughZeroError, match="needs more than 256 points"):
            winding_number(lambda z: z - zero, [pts], pts - zero)
        assert winding_number(lambda z: z - pts[5], [pts], pts - pts[5]) == (0.0, 0)

    def test_bisects_where_the_phase_steps_past_pi(self):
        # z^3 on 4 edges steps 3 pi / 2 per edge, so the wrapped phase sum
        # alone reads -1; only the inserted midpoints are evaluated
        pts, seen = _circle(0.5, 4), []

        def f(z):
            seen.append(z)
            return z**3

        low, count = winding_number(f, [pts], pts**3)
        assert count == 3 and low < 0.125
        mids = np.concatenate(seen)
        assert mids.size and np.abs(mids - pts[:, None]).min() > 0.0


def _rows_and_calls(zeros, arcs):
    """The k rows f_k(w) = w - zeros[k] on the arcs' points, and f returning
    all k rows at w, which records every w it is called with."""
    zeros = np.asarray(zeros)
    calls = []

    def f(w):
        calls.append(np.array(w))
        return w[None, :] - zeros[:, None]

    return f, calls, np.concatenate(arcs)[None, :] - zeros[:, None]


def _one_row(z, arcs):
    """A 1-D call on the row w - z: its result or its error's message."""
    pts = np.concatenate(arcs)
    try:
        return winding_number(lambda w: w - z, arcs, pts - z)
    except ContourThroughZeroError as exc:
        return str(exc)


def _as_compared(result):
    return str(result) if isinstance(result, ContourThroughZeroError) else result


class TestWindingRows:
    """k rows in one call give what k 1-D calls give, row by row."""

    # the circle |w| = 1 as two half-circle arcs of 32 edges each
    ARCS = [np.exp(1j * np.pi * np.arange(33) / 32), np.exp(1j * np.pi * (1.0 + np.arange(33) / 32))]

    def test_random_rows_equal_the_one_row_calls(self):
        rng = np.random.default_rng(4)
        pts = np.concatenate(self.ARCS)
        for _ in range(40):
            k = int(rng.integers(1, 7))
            zeros = 1.6 * rng.random(k) ** 0.5 * np.exp(2j * np.pi * rng.random(k))
            if rng.random() < 0.5:  # a row with an exact zero sample
                zeros[int(rng.integers(0, k))] = pts[int(rng.integers(0, pts.size))]
            f, _, vals = _rows_and_calls(zeros, self.ARCS)
            got = winding_number(f, self.ARCS, vals)
            assert [_as_compared(g) for g in got] == [_one_row(z, self.ARCS) for z in zeros]

    def test_only_the_bisecting_row_is_refined(self):
        # zero 1: inside, far from the circle; zero 2: near it, so its row
        # bisects; zero 3: outside; zero 4: on a sample
        zeros = [0.1 + 0.2j, 0.97 * np.exp(0.3j), -2.0, self.ARCS[1][7]]
        f, calls, vals = _rows_and_calls(zeros, self.ARCS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = winding_number(f, self.ARCS, vals)
        assert got == [_one_row(z, self.ARCS) for z in zeros]
        assert got[0][1] == 1 and got[1][1] == 1 and got[2] == (pytest.approx(1.0), 0) and got[3] == (0.0, 0)
        one_calls = []

        def one(w):
            one_calls.append(np.array(w))
            return w - zeros[1]

        winding_number(one, self.ARCS, np.concatenate(self.ARCS) - zeros[1])
        assert len(calls) == len(one_calls) > 0
        for w, w1 in zip(calls, one_calls):
            np.testing.assert_array_equal(w, w1)

    def test_a_row_past_the_point_cap_fails_alone(self, monkeypatch):
        # 128 distinct points allowed: the row whose zero sits a third of the
        # way along an edge keeps bisecting until it runs into the cap
        monkeypatch.setattr(gridfn, "_MAX_PTS_PER_LOOP", 128)
        arc = self.ARCS[0]
        zeros = [0.2j, arc[5] + (arc[6] - arc[5]) / 3.0, 3.0]
        f, calls, vals = _rows_and_calls(zeros, self.ARCS)
        got = winding_number(f, self.ARCS, vals)
        expected = [_one_row(z, self.ARCS) for z in zeros]
        assert [_as_compared(g) for g in got] == expected
        assert isinstance(got[1], ContourThroughZeroError) and "needs more than 128 points" in expected[1]
        assert got[0][1] == 1 and got[2][1] == 0

    def test_an_open_curve_fails_in_its_row(self):
        half = self.ARCS[:1]  # phase sum 1/2 for f(w) = w
        f, _, vals = _rows_and_calls([0.0, 5.0], half)
        got = winding_number(f, half, vals)
        assert str(got[0]) == _one_row(0.0, half) and "not near an integer" in str(got[0])
        assert got[1] == _one_row(5.0, half)


class TestSerialization:
    def test_csv(self, tmp_path):
        f = BoundaryGridFunction(np.exp(1j * 2 * np.pi * np.arange(8) / 8))
        path = tmp_path / "f.csv"
        f.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "theta,re,im"
        assert len(rows) == 9
