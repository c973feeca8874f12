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
            low, count = winding_number(f, arcs, pts - zero)
            assert winding_number(lambda w: w - arcs[1][7], arcs, pts - arcs[1][7]) == (0.0, 0)
        assert count == 1 and 0.03 <= low < 0.031
        mids = np.concatenate(seen)
        assert mids.size and np.abs(mids).max() < 1.0 - 1e-6


class TestSerialization:
    def test_csv(self, tmp_path):
        f = BoundaryGridFunction(np.exp(1j * 2 * np.pi * np.arange(8) / 8))
        path = tmp_path / "f.csv"
        f.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "theta,re,im"
        assert len(rows) == 9
