"""Tests for the circle-grid analysis kernels."""

import numpy as np
import pytest

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


class TestWindingNumber:
    def test_circle(self):
        assert winding_number(np.exp(1j * THETA)) == 1
        assert winding_number(np.exp(-2j * THETA)) == -2

    def test_offset_no_winding(self):
        assert winding_number(3.0 + np.exp(1j * THETA)) == 0

    def test_through_zero_raises(self):
        vals = np.exp(1j * THETA).copy()
        vals[5] = 0.0
        with pytest.raises(ValueError):
            winding_number(vals)


class TestSerialization:
    def test_json_round_trip(self):
        f = BoundaryGridFunction(np.exp(1j * THETA[:16]) if False else np.cos(THETA[:64]) + 0.5)
        g = BoundaryGridFunction.from_json(f.to_json())
        np.testing.assert_allclose(f.samples, g.samples)
        assert g.is_real

    def test_csv(self, tmp_path):
        f = BoundaryGridFunction(np.exp(1j * 2 * np.pi * np.arange(8) / 8))
        path = tmp_path / "f.csv"
        f.write_csv(path)
        rows = path.read_text().strip().splitlines()
        assert rows[0] == "theta,re,im"
        assert len(rows) == 9
