"""Tests for the product representation and its structural operations."""

import math

import numpy as np
import pytest

from blaschkelab.blaschke import (
    SingularShiftSpec,
    ZeroList,
    blaschke_condition_sum,
    bloch_cnbp_tension,
    derivative,
    derivative_grid,
    eval_boundary,
    evaluate,
    evaluate_grid,
    floating_factorization,
    jensen_zero_count,
    little_bloch_seminorm,
    singular_shift_zeros,
)
from blaschkelab.errors import IllConditionedBoundaryError
from blaschkelab.fixtures import geometric_zeros, random_point, random_zerolist
from blaschkelab.gridfn import winding_number
from blaschkelab.matching import bottleneck_match


class TestZeroList:
    def test_rejects_origin_zero(self):
        with pytest.raises(ValueError):
            ZeroList(((0.0j, 1),))

    def test_rejects_non_unimodular_lambda(self):
        with pytest.raises(ValueError):
            ZeroList((), lam=0.5)

    def test_from_points_folds_origin(self):
        zl = ZeroList.from_points([0.0, 0.3, 0.3, 1e-16])
        assert zl.m == 2
        assert zl.zeros == ((0.3 + 0j, 2),)
        assert zl.degree == 4

    def test_json_round_trip(self):
        zl = ZeroList(((0.3 + 0.1j, 2),), lam=1j, m=1)
        assert ZeroList.from_json(zl.to_json()) == zl


class TestEvaluate:
    def test_identity_product(self):
        assert evaluate(ZeroList(m=1), 0.3) == pytest.approx(0.3)

    def test_normalized_factor_at_origin(self):
        assert evaluate(ZeroList.from_points([0.5]), 0.0) == pytest.approx(0.5)

    def test_two_zero_product_at_origin(self):
        assert evaluate(ZeroList.from_points([0.5, 0.5j]), 0.0) == pytest.approx(0.25)

    def test_origin_value_is_product_of_moduli(self):
        rng = np.random.default_rng(0)
        zl = random_zerolist(rng, 7, 0.9)
        expected = np.prod([abs(z) for z in zl.expanded_points()])
        assert abs(evaluate(zl, 0.0)) == pytest.approx(expected, rel=1e-12)

    def test_exact_zero_at_listed_zero(self):
        zl = ZeroList.from_points([0.4 + 0.2j])
        assert evaluate(zl, 0.4 + 0.2j) == 0.0

    def test_modulus_below_one_inside(self):
        rng = np.random.default_rng(1)
        zl = random_zerolist(rng, 5, 0.9)
        for _ in range(50):
            z = 0.98 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            assert abs(evaluate(zl, z)) < 1.0


class TestEvalBoundary:
    def test_monomial_grid_four(self):
        trace = eval_boundary(ZeroList(m=1), 8)
        np.testing.assert_allclose(trace.samples[[0, 2, 4, 6]], [1, 1j, -1, -1j], atol=1e-15)

    def test_unimodular_on_circle(self):
        rng = np.random.default_rng(2)
        zl = random_zerolist(rng, 12, 0.95)
        trace = eval_boundary(zl, 256)
        assert np.abs(np.abs(trace.samples) - 1.0).max() < 1e-10

    def test_winding_equals_degree(self):
        zl = ZeroList.from_points([0.5, 0.5j])
        assert winding_number(eval_boundary(zl, 512).samples) == 2

    def test_zero_near_circle_rejected(self):
        with pytest.raises(IllConditionedBoundaryError):
            eval_boundary(ZeroList(((1.0 - 1e-11 + 0j, 1),)), 64)


class TestDerivative:
    def test_identity(self):
        assert derivative(ZeroList(m=1), 0.7) == pytest.approx(1.0)

    def test_square(self):
        assert derivative(ZeroList(m=2), 0.5) == pytest.approx(1.0)

    def test_product_rule_at_origin_zero(self):
        zl = ZeroList.from_points([0.0, 0.5])
        assert abs(derivative(zl, 0.0)) == pytest.approx(0.5)

    def test_multiple_zero_gives_zero(self):
        zl = ZeroList.from_points([0.3, 0.3])
        assert derivative(zl, 0.3) == 0.0

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        zl = random_zerolist(rng, 6, 0.9)
        h = 1e-6
        for _ in range(20):
            z = 0.8 * math.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            if min(abs(z - w) for w in zl.expanded_points()) < 1e-2:
                continue
            fd = (evaluate(zl, z + h) - evaluate(zl, z - h)) / (2 * h)
            exact = derivative(zl, z)
            assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))


def _log_derivative_route(b, points):
    """The earlier derivative kernel: the product times its logarithmic
    derivative, with the scalar product rule at points within 1e-12 of a zero."""

    def product_rule(w):
        facs = [(w, 1.0 + 0.0j, b.m)] if b.m > 0 else []
        for zn, k in b.zeros:
            pref = zn.conjugate() / abs(zn)
            den = 1.0 - zn.conjugate() * w
            facs.append((pref * (zn - w) / den, pref * (abs(zn) ** 2 - 1.0) / den**2, k))
        vanishing = [(i, k) for i, (val, _, k) in enumerate(facs) if abs(val) <= 1e-14]
        if not vanishing:
            return b.lam * math.prod(val**k for val, _, k in facs) * sum(k * der / val for val, der, k in facs)
        if len(vanishing) == 1 and vanishing[0][1] == 1:
            j = vanishing[0][0]
            return b.lam * facs[j][1] * math.prod(val**k for i, (val, _, k) in enumerate(facs) if i != j)
        return 0.0j

    w = np.asarray(points, dtype=np.complex128)
    prod = np.full(w.shape, b.lam, dtype=np.complex128)
    logsum = np.zeros(w.shape, dtype=np.complex128)
    near_zero = np.zeros(w.shape, dtype=bool)
    if b.m > 0:
        near_zero |= np.abs(w) <= 1e-12
        prod = prod * w**b.m
        logsum += b.m / np.where(near_zero, 1.0, w)
    for zn, k in b.zeros:
        pref = zn.conjugate() / abs(zn)
        den = 1.0 - zn.conjugate() * w
        val = pref * (zn - w) / den
        tiny = np.abs(val) <= 1e-12
        near_zero |= tiny
        prod = prod * val**k
        logsum += k * (pref * (abs(zn) ** 2 - 1.0) / den**2) / np.where(tiny, 1.0, val)
    out = prod * logsum
    for idx in np.nonzero(near_zero)[0]:
        out[idx] = product_rule(w[idx])
    return out


def _seeded_product(seed):
    """Up to 8 zeros of multiplicity 1..3, an origin order 0..2 and a unimodular lambda."""
    rng = np.random.default_rng(seed)
    zeros = tuple((random_point(rng, 0.95), int(rng.integers(1, 4))) for _ in range(int(rng.integers(1, 9))))
    return ZeroList(zeros, lam=np.exp(2j * np.pi * rng.random()), m=int(rng.integers(0, 3))), rng


class TestDerivativeGrid:
    def test_matches_log_derivative_route(self):
        for seed in range(100):
            zl, rng = _seeded_product(seed)
            pts = np.array([random_point(rng, 0.99) for _ in range(200)] + zl.expanded_points())
            got, ref = derivative_grid(zl, pts), _log_derivative_route(zl, pts)
            at_zero = ref == 0.0
            np.testing.assert_array_equal(got[at_zero], 0.0)
            assert np.max(np.abs(got - ref)[~at_zero] / np.abs(ref[~at_zero])) <= 1e-13

    def test_exact_zero_at_multiple_zeros(self):
        zl = ZeroList(((0.3 + 0.2j, 2), (-0.5j, 3), (0.6, 1)), lam=1j, m=2)
        got = derivative_grid(zl, np.array([0.3 + 0.2j, -0.5j, 0.0]))
        np.testing.assert_array_equal(got, 0.0)
        assert derivative(zl, 0.0) == 0.0

    def test_product_rule_at_simple_zeros(self):
        # at a simple zero p, b'(p) is f_p'(p) = (conj(p)/|p|) / (|p|^2 - 1)
        # times the other factors at p; the origin factor w has derivative 1
        zl = ZeroList(((0.3 + 0.2j, 1), (-0.5j, 2), (0.6, 1)), lam=np.exp(0.7j), m=1)
        for p in (0.3 + 0.2j, 0.6 + 0j):
            rest = ZeroList(tuple((z, k) for z, k in zl.zeros if z != p), lam=zl.lam, m=zl.m)
            own = (p.conjugate() / abs(p)) / (abs(p) ** 2 - 1.0)
            assert derivative_grid(zl, np.array([p]))[0] == pytest.approx(own * evaluate(rest, p), rel=1e-13)
        at_origin = evaluate(ZeroList(zl.zeros, lam=zl.lam), 0.0)
        assert derivative_grid(zl, np.array([0.0]))[0] == pytest.approx(at_origin, rel=1e-13)


class TestConditionSum:
    def test_geometric_sum(self):
        zl = geometric_zeros(20)
        assert blaschke_condition_sum(zl) == pytest.approx(1.0 - 2.0**-20, rel=1e-14)

    def test_empty(self):
        assert blaschke_condition_sum(ZeroList()) == 0.0

    def test_single(self):
        assert blaschke_condition_sum(ZeroList.from_points([0.5])) == pytest.approx(0.5)

    def test_origin_counts_fully(self):
        assert blaschke_condition_sum(ZeroList(m=3)) == pytest.approx(3.0)


class TestJensenCount:
    def test_two_zero_example(self):
        zl = ZeroList.from_points([0.1, 0.2])
        assert jensen_zero_count(zl, 0.5) == 2
        assert jensen_zero_count(zl, 0.15) == 1

    def test_zero_free_disk(self):
        zl = ZeroList.from_points([0.8])
        assert jensen_zero_count(zl, 0.3) == 0

    def test_origin_order_counts(self):
        assert jensen_zero_count(ZeroList(m=2), 0.5) == 2

    def test_circle_through_zero_rejected(self):
        with pytest.raises(ValueError):
            jensen_zero_count(ZeroList.from_points([0.5]), 0.5 + 1e-8)

    def test_random_products(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            zl = random_zerolist(rng, int(rng.integers(1, 13)), 0.9)
            moduli = [abs(z) for z in zl.expanded_points()]
            r = 0.05 + 0.9 * rng.random()
            if any(abs(m - r) < 2e-6 for m in moduli):
                continue
            assert jensen_zero_count(zl, r) == sum(m < r for m in moduli)


class TestFloatingFactorization:
    def test_small_finite_set_single_radius(self):
        zl = ZeroList.from_points([0.3, 0.4j])
        out = floating_factorization(zl, (0.9,))
        assert out.z2.degree == 0
        assert out.z1.degree == zl.degree
        assert len(out.radii) == 1
        assert out.radii[0] > zl.max_modulus()

    def test_empty(self):
        out = floating_factorization(ZeroList(), (0.5,))
        assert out.z1.degree == out.z2.degree == 0
        assert out.radii == ()

    def test_geometric_fixture_checkpoints(self):
        zl = geometric_zeros(25)
        out = floating_factorization(zl, (0.5, 0.75, 0.875))
        # partition preserved as a multiset
        merged = sorted(out.z1.expanded_points() + out.z2.expanded_points(), key=abs)
        assert merged == sorted(zl.expanded_points(), key=abs)
        assert all(b > a for a, b in zip(out.radii, out.radii[1:]))
        assert out.checks, "expected at least one checkpoint circle"
        for idx, name, target, sampled in out.checks:
            assert sampled >= target, f"{name} at radius {idx}: {sampled} < {target}"

    def test_checkpoints_verified_independently(self):
        zl = geometric_zeros(18)
        out = floating_factorization(zl, (0.5, 0.75, 0.875))
        for idx, name, target, _ in out.checks:
            part = out.z1 if name == "b1" else out.z2
            r = out.radii[idx - 1]
            # denser, offset sampling than the constructor used
            pts = r * np.exp(2j * np.pi * (np.arange(8192) + 0.37) / 8192)
            assert float(np.abs(evaluate_grid(part, pts)).min()) >= target - 1e-9

    def test_deep_chain_exhausts_the_scan(self):
        # 30 octaves of zeros need one rung more than fits under the
        # 1 - 1e-10 cap at these targets; the error reports the progress
        from blaschkelab.errors import ConstructionExhaustedError
        with pytest.raises(ConstructionExhaustedError) as info:
            floating_factorization(geometric_zeros(30), (0.5, 0.75, 0.875))
        assert info.value.radii_placed >= 4

    def test_strictly_increasing_targets_required(self):
        with pytest.raises(ValueError):
            floating_factorization(ZeroList.from_points([0.5]), (0.8, 0.8))


class TestSeminorms:
    def test_little_bloch_monomial(self):
        assert little_bloch_seminorm(ZeroList(m=1), 0.9) == pytest.approx(0.19, abs=1e-12)

    def test_little_bloch_square(self):
        assert little_bloch_seminorm(ZeroList(m=2), 0.5) == pytest.approx(0.75, abs=1e-12)

    def test_finite_product_sweep_to_zero(self):
        zl = ZeroList.from_points([0.3, -0.2 + 0.4j])
        values = [little_bloch_seminorm(zl, r) for r in (0.9, 0.99, 0.999, 0.9999)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert values[-1] < 0.01

    def test_tension_self(self):
        zl = ZeroList.from_points([0.4, 0.2j])
        assert bloch_cnbp_tension(zl, zl, 0.7) <= 0.25 + 1e-12

    def test_tension_constant_vs_product(self):
        const = ZeroList()
        zl = ZeroList.from_points([0.5])
        pts = 0.8 * np.exp(2j * np.pi * np.arange(2048) / 2048)
        expected = float((1.0 - np.abs(evaluate_grid(zl, pts))).max())
        assert bloch_cnbp_tension(const, zl, 0.8) == pytest.approx(expected, rel=1e-12)

    def test_tension_monomials(self):
        assert bloch_cnbp_tension(ZeroList(m=1), ZeroList(m=1), 0.9) == pytest.approx(0.09, abs=1e-12)


class TestSingularShift:
    def test_k_zero_at_origin(self):
        zl = singular_shift_zeros(SingularShiftSpec(math.exp(-1.0), 0, 0))
        assert zl.m == 1 and not zl.zeros

    def test_level_set_definition(self):
        alpha = math.exp(-1.0)
        zl = singular_shift_zeros(SingularShiftSpec(alpha, -10, 10))
        for z in zl.expanded_points():
            assert abs(z) < 1.0
            s = np.exp((z + 1.0) / (z - 1.0))
            assert abs(s - alpha) < 1e-10

    def test_rejects_bad_alpha(self):
        with pytest.raises(ValueError):
            SingularShiftSpec(0.0, -1, 1)
        with pytest.raises(ValueError):
            SingularShiftSpec(1.5, -1, 1)

    def test_squared_parameter_displacement(self):
        beta = math.exp(-1.0)
        z_sq = singular_shift_zeros(SingularShiftSpec(beta**2, -15, 15))
        z_one = singular_shift_zeros(SingularShiftSpec(beta, -15, 15))
        pairing = bottleneck_match(z_sq, z_one)
        assert pairing.cost >= math.log(2.0) - 0.05
