"""Tests for the disk geometry kernel."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blaschkelab.blaschke import ZeroList, evaluate_grid
from blaschkelab.errors import DegenerateInputError
from blaschkelab import matching
from blaschkelab.geometry import (
    RHO_CAP,
    beta_from_rho,
    beta_matrix,
    clamped_beta,
    hyper_distance,
    interior_value,
    mobius,
    pseudo_distance,
    rho_from_beta,
    rho_matrix,
)

EPS = np.finfo(float).eps
# interior points whose pseudohyperbolic distance rounds to 1
NEAR_ANTIPODES = (1.0 - 2e-12, -(1.0 - 2e-12))


def _random_disk_points(rng, n, r_max=0.999):
    r = r_max * np.sqrt(rng.random(n))
    phi = 2 * np.pi * rng.random(n)
    return r * np.exp(1j * phi)


class TestInteriorValue:
    def test_interior_accepted(self):
        assert interior_value(0.3 + 0.4j) == 0.3 + 0.4j
        assert type(interior_value(0.5)) is complex

    def test_near_boundary_rejected(self):
        with pytest.raises(ValueError):
            interior_value(1.0 - 1e-13)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.1), complex(0.1, math.nan)], ids=["real", "imag"])
    def test_nan_rejected(self, z):
        with pytest.raises(ValueError):
            interior_value(z)


class TestMobius:
    def test_at_zero_negates(self):
        assert mobius(0.0, 0.3 - 0.2j) == -(0.3 - 0.2j)

    def test_fixed_point(self):
        assert mobius(0.3 + 0.1j, 0.3 + 0.1j) == 0.0

    def test_hand_value(self):
        # (0.5 + 0.5) / (1 + 0.25)
        assert mobius(0.5, -0.5) == pytest.approx(0.8)

    def test_unimodular_on_circle(self):
        rng = np.random.default_rng(0)
        for z in _random_disk_points(rng, 20, 0.95):
            w = np.exp(2j * np.pi * rng.random())
            assert abs(mobius(z, w)) == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_denominator(self):
        # |z| < 1 - 1e-12 and |w| <= 1 + 1e-12 still leave 1 - conj(z) w
        # room to fall below 1e-14
        with pytest.raises(DegenerateInputError):
            mobius(1.0 - 1.005e-12, 1.0 + 1e-12)


class TestNormalizedMobius:
    """The normalized factor (conj(z)/|z|) (z - w)/(1 - conj(z) w) is the
    one-zero product."""

    def test_value_at_origin_is_modulus(self):
        assert evaluate_grid(ZeroList.from_points([0.5]), 0.0) == pytest.approx(0.5)
        assert evaluate_grid(ZeroList.from_points([0.5j]), 0.0) == pytest.approx(0.5)

    def test_hand_value_real(self):
        assert evaluate_grid(ZeroList.from_points([0.5]), 0.25) == pytest.approx((0.5 - 0.25) / (1 - 0.125))


class TestMetrics:
    def test_rho_from_origin(self):
        assert pseudo_distance(0.0, 0.5) == pytest.approx(0.5)

    def test_zero_iff_equal(self):
        assert pseudo_distance(0.3 + 0.2j, 0.3 + 0.2j) == 0.0

    def test_hand_values(self):
        assert pseudo_distance(0.5, -0.5) == pytest.approx(0.8)
        assert hyper_distance(0.0, 0.5) == pytest.approx(math.log(3.0))
        assert hyper_distance(0.5, -0.5) == pytest.approx(math.log(9.0))

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        pts = _random_disk_points(rng, 40, 0.99)
        for z, w in zip(pts[:20], pts[20:]):
            assert pseudo_distance(z, w) == pytest.approx(pseudo_distance(w, z), abs=1e-15)

    def test_triangle_inequality_bulk(self):
        rng = np.random.default_rng(2)
        trips = _random_disk_points(rng, 30_000, 0.999).reshape(3, -1)
        for a, b, c in zip(*trips):
            ab, bc, ac = hyper_distance(a, b), hyper_distance(b, c), hyper_distance(a, c)
            assert ac <= ab + bc + 1e-12

    def test_mobius_invariance_bulk(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            a, z, w = _random_disk_points(rng, 3, 0.98)
            lhs = pseudo_distance(mobius(a, z), mobius(a, w))
            assert lhs == pytest.approx(pseudo_distance(z, w), abs=1e-12)

    def test_round_trip(self):
        # beta -> rho loses digits once 1 - rho ~ eps; 1e-12 holds through beta = 10
        for beta in (0.0, 0.1, 1.0, 5.0, 10.0):
            assert beta_from_rho(rho_from_beta(beta)) == pytest.approx(beta, abs=1e-12)
        for rho in (0.0, 0.3, 0.9, 0.999):
            assert rho_from_beta(beta_from_rho(rho)) == pytest.approx(rho, abs=1e-12)


def _near_boundary_points(rng, n):
    return (1.0 - 10.0 ** -rng.uniform(1.0, 11.9, n)) * np.exp(2j * np.pi * rng.random(n))


class TestDistanceKernel:
    def test_near_antipodes_round_to_the_cap(self):
        z, w = NEAR_ANTIPODES
        assert pseudo_distance(z, w) == 1.0
        assert hyper_distance(z, w) == beta_from_rho(RHO_CAP)
        assert beta_matrix([z], [w])[0, 0] == pytest.approx(hyper_distance(z, w), rel=4 * EPS)
        with pytest.raises(ValueError, match="rho must lie"):
            beta_from_rho(1.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_scalar_and_kernel_agree_near_the_boundary(self, seed):
        # the routes round 1 - conj(b) a differently, so they agree to that
        # term's condition number, and beta to rho's through the log
        rng = np.random.default_rng(seed)
        a = np.concatenate([_near_boundary_points(rng, 60), NEAR_ANTIPODES, _random_disk_points(rng, 20)])
        b = np.concatenate([_near_boundary_points(rng, 40), NEAR_ANTIPODES])
        b[:30] = a[:30] * (1.0 - 10.0 ** -rng.uniform(2.0, 13.0, 30)) + 1e-13j
        rho, beta = rho_matrix(a, b), beta_matrix(a, b)
        assert rho.shape == beta.shape == (a.size, b.size)
        tol_rho = 8.0 * EPS / np.abs(1.0 - np.conj(b)[None, :] * a[:, None])
        for i, z in enumerate(a):
            for j, w in enumerate(b):
                r, h = pseudo_distance(z, w), hyper_distance(z, w)
                assert abs(rho[i, j] - r) <= tol_rho[i, j]
                rc = min(r, rho[i, j], RHO_CAP)
                assert abs(beta[i, j] - h) <= 2.0 * tol_rho[i, j] / ((1.0 - rc) * (1.0 + rc)) + 16.0 * EPS * h

    def test_diagonal_is_exactly_zero(self):
        pts = np.concatenate([_random_disk_points(np.random.default_rng(5), 50), NEAR_ANTIPODES])
        for m in (rho_matrix(pts, pts), beta_matrix(pts, pts)):
            assert np.all(np.diag(m) == 0.0)

    def test_beta_is_the_clamped_transform_of_rho(self):
        pts = np.concatenate([_random_disk_points(np.random.default_rng(6), 40), NEAR_ANTIPODES])
        rho = rho_matrix(pts, pts[::-1])
        np.testing.assert_array_equal(beta_matrix(pts, pts[::-1]), clamped_beta(rho))
        assert np.all(np.isfinite(clamped_beta(np.array([1.0, RHO_CAP, 0.0]))))
        assert matching.beta_matrix is beta_matrix


@settings(max_examples=200, deadline=None)
@given(
    st.complex_numbers(max_magnitude=0.97, allow_infinity=False, allow_nan=False),
    st.complex_numbers(max_magnitude=0.97, allow_infinity=False, allow_nan=False),
)
def test_metric_axioms_property(z, w):
    rho = pseudo_distance(z, w)
    assert 0.0 <= rho < 1.0
    assert rho == pytest.approx(pseudo_distance(w, z), abs=1e-14)
    beta = hyper_distance(z, w)
    assert beta >= 0.0
    assert rho_from_beta(beta) == pytest.approx(rho, abs=1e-12)


@settings(max_examples=200, deadline=None)
@given(
    st.complex_numbers(max_magnitude=0.9, allow_infinity=False, allow_nan=False),
    st.complex_numbers(max_magnitude=0.9, allow_infinity=False, allow_nan=False),
    st.complex_numbers(max_magnitude=0.9, allow_infinity=False, allow_nan=False),
)
def test_mobius_invariance_property(a, z, w):
    lhs = pseudo_distance(mobius(a, z), mobius(a, w))
    assert lhs == pytest.approx(pseudo_distance(z, w), abs=1e-11)
