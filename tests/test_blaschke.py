"""Tests for the product representation and its structural operations."""

import math

import mpmath
import numpy as np
import pytest

from blaschkelab.blaschke import (
    SingularShiftSpec,
    ZeroList,
    _circle_min,
    derivative,
    derivative_grid,
    eval_boundary,
    evaluate,
    evaluate_grid,
    floating_factorization,
    jensen_zero_count,
    singular_shift_zeros,
)
from blaschkelab.errors import IllConditionedBoundaryError
from blaschkelab.fixtures import geometric_zeros, random_point, random_zerolist
from blaschkelab.gridfn import circle_nodes
from blaschkelab.matching import bottleneck_match


class TestZeroList:
    def test_rejects_origin_zero(self):
        with pytest.raises(ValueError):
            ZeroList(((0.0j, 1),))

    def test_rejects_non_unimodular_lambda(self):
        with pytest.raises(ValueError):
            ZeroList((), lam=0.5)

    @pytest.mark.parametrize("zeros, lam", [(((math.nan, 1),), 1.0), (((0.3, 1),), math.nan), ((), complex(math.nan, 0.0))])
    def test_rejects_nan(self, zeros, lam):
        with pytest.raises(ValueError):
            ZeroList(zeros, lam=lam)

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
        # the sampled winding: wrapped phase steps between neighbouring nodes, summed
        vals = eval_boundary(zl, 512).samples
        assert np.angle(np.roll(vals, -1) / vals).sum() / (2.0 * np.pi) == pytest.approx(2.0, abs=0.1)

    def test_zero_near_circle_rejected(self):
        with pytest.raises(IllConditionedBoundaryError):
            eval_boundary(ZeroList(((1.0 - 1e-11 + 0j, 1),)), 64)



def power_sum_boundary_oracle(b: ZeroList, n: int) -> np.ndarray:
    """b on the n-grid from the power sums p_j of its nonzero zeros, with no
    factor formed: each factor is -(conj(z)/|z|) w exp(2i Im Log(1 - z conj(w)))
    on |w| = 1, so b = C w^deg exp(2i Im sum_j conj(p_j) w^j / j) with
    C = lam prod(-conj(z)/|z|)."""
    zeros = np.array([z for z, k in b.zeros for _ in range(k)], dtype=np.complex128)
    nodes = circle_nodes(n)
    m = np.arange(n)
    monomial = b.lam * np.prod(-np.conj(zeros) / np.abs(zeros)) * nodes[(b.degree * m) % n]
    if zeros.size == 0:
        return monomial
    n_terms = math.ceil(math.log(2.0**-53) / math.log(float(np.abs(zeros).max())))
    j = np.arange(1, n_terms + 1)
    power_sums = np.cumprod(np.tile(zeros, (n_terms, 1)), axis=0).sum(axis=1)
    series = (np.conj(power_sums) / j) @ nodes[np.outer(j, m) % n]  # w^j looked up mod n
    return monomial * np.exp(2j * series.imag)


def _oracle_products():
    rng = np.random.default_rng(31)
    return [
        ZeroList(((0.3 + 0.2j, 2), (-0.7j, 1)), lam=1j, m=1),
        random_zerolist(rng, 12, 0.95),
        ZeroList(random_zerolist(rng, 47, 0.95).zeros, lam=complex(np.exp(1j * rng.uniform(0, 2 * math.pi))), m=3),
    ]


class TestPowerSumOracle:
    """``eval_boundary`` multiplies factors; the oracle uses power sums only."""

    @pytest.mark.parametrize("k", range(3))
    def test_eval_boundary_matches_the_oracle(self, k):
        b = _oracle_products()[k]
        assert b.degree <= 50
        got = eval_boundary(b, 1024).samples
        assert np.abs(got - power_sum_boundary_oracle(b, 1024)).max() <= 1e-12

    def test_forty_digit_spot_check(self):
        # at the exact roots of unity, so the float nodes' rounding, amplified
        # by |b'| ~ sum (1 - |z|^2) / |w - z|^2, counts against eval_boundary;
        # at the float nodes themselves the blocked kernel's arithmetic is no
        # less accurate than the per-factor route's
        n = 1024
        nodes = circle_nodes(n)
        for b in (_oracle_products()[2], random_product(np.random.default_rng(37), 200)):
            got = eval_boundary(b, n).samples
            oracle = power_sum_boundary_oracle(b, n)
            per_factor = reference_product(b, nodes)
            with mpmath.workdps(40):
                for m in range(0, n, 97):
                    exact = _exact_product(b, mpmath.expjpi(mpmath.mpf(2 * m) / n))
                    assert abs(got[m] - exact) <= 1e-12
                    assert abs(oracle[m] - exact) <= 1e-13
                at_nodes = np.array([_exact_product(b, mpmath.mpc(w)) for w in nodes[::13]])
            err_per_factor = np.abs(per_factor[::13] - at_nodes).max()
            assert np.abs(got[::13] - at_nodes).max() <= 2.0 * err_per_factor


def _exact_product(b: ZeroList, w) -> complex:
    """b(w) in the working precision of mpmath, rounded to a complex."""
    exact = mpmath.mpc(b.lam) * w**b.m
    for z, k in b.zeros:
        zz = mpmath.mpc(z)
        exact *= (mpmath.conj(zz) / abs(zz) * (zz - w) / (1 - mpmath.conj(zz) * w)) ** k
    return complex(exact)


def _factor(zn: complex, w):
    """One normalized factor (conj(z_n)/|z_n|) (z_n - w)/(1 - conj(z_n) w)."""
    return (zn.conjugate() / abs(zn)) * (zn - w) / (1.0 - zn.conjugate() * w)


def reference_product(b: ZeroList, points) -> np.ndarray:
    """The product one normalized factor at a time, a division each: the
    per-factor route that ``evaluate_grid``'s blocked kernel replaced."""
    w = np.asarray(points, dtype=np.complex128)
    out = np.full(w.shape, b.lam, dtype=np.complex128)
    if b.m > 0:
        out = out * w**b.m
    for zn, k in b.zeros:
        out = out * _factor(zn, w) ** k
    return out


def random_product(rng: np.random.Generator, n: int) -> ZeroList:
    """A degree-n product with an origin zero (n > 1), a quarter of its zeros
    doubled and a random unimodular lambda."""
    m, doubled = (0 if n == 1 else 1 + n % 3), n // 4
    pts = random_zerolist(rng, n - m - doubled, 0.95).expanded_points()
    lam = complex(np.exp(1j * rng.uniform(0.0, 2.0 * math.pi)))
    return ZeroList(ZeroList.from_points(pts + pts[:doubled]).zeros, lam=lam, m=m)


def _bits(values: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(values, dtype=np.complex128).view(np.int64)


class TestRationalKernel:
    """``evaluate_grid`` divides once per block of factors, in chunks of points."""

    @pytest.mark.parametrize("n", [1, 10, 100, 200])
    def test_matches_the_per_factor_route(self, n):
        rng = np.random.default_rng(n)
        b = random_product(rng, n)
        w = np.concatenate([circle_nodes(512), [random_point(rng, 0.99) for _ in range(300)]])
        ref = reference_product(b, w)
        assert np.max(np.abs(evaluate_grid(b, w) - ref) / np.abs(ref)) <= 1e-14

    def test_same_bits_in_every_batch(self):
        rng = np.random.default_rng(41)
        b = random_product(rng, 40)  # three blocks of factors
        inside = 0.98 * np.sqrt(rng.random(1 << 15)) * np.exp(2j * math.pi * rng.random(1 << 15))
        w = np.concatenate([inside, circle_nodes(1 << 15)])
        whole = evaluate_grid(b, w)  # 2^16 points, sixteen chunks
        for size in (1, 2, 3, 4095, 4097):
            span = 300 if size < 4 else 3 * size
            batches = [evaluate_grid(b, w[i : i + size]) for i in range(0, span, size)]
            assert np.array_equal(_bits(np.concatenate(batches)), _bits(whole[:span]))
        scalar = np.array([evaluate(b, z) for z in w[:300]])
        assert np.array_equal(_bits(scalar), _bits(whole[:300]))

    def test_a_grid_row_has_the_bits_of_the_whole_grid(self):
        b = ZeroList(((0.3 + 0.2j, 2),))
        xs = np.linspace(-0.99, 0.99, 513)
        grid = xs[None, :] + 1j * xs[:, None]
        assert np.array_equal(_bits(evaluate_grid(b, grid)[-1]), _bits(evaluate_grid(b, grid[-1])))

    def test_zeros_next_to_the_circle_stay_finite(self):
        # three blocks of sixteen denominators of about 2e-12 at w = 1, each
        # block about 7e-188; their product would underflow
        b = ZeroList(((1.0 - 2e-12 + 0j, 48),))
        vals = evaluate_grid(b, circle_nodes(4096))
        assert np.all(np.isfinite(vals))
        assert np.abs(np.abs(vals) - 1.0).max() < 1e-9

    def test_a_block_at_the_level_set_corners_stays_finite(self):
        # the level-set square reaches |w| = 0.999 sqrt(2), outside the disk
        b = ZeroList(((0.9 + 0j, 16),))
        corners = 0.999 * np.array([1 + 1j, -1 + 1j, -1 - 1j, 1 - 1j])
        got = evaluate_grid(b, corners)
        assert np.all(np.isfinite(got))
        np.testing.assert_allclose(got, reference_product(b, corners), rtol=1e-13)

    def test_a_double_zero_hit_exactly_gives_zero(self):
        b = ZeroList(((0.3 + 0.2j, 2), (-0.5j, 1)), m=1)
        assert evaluate_grid(b, np.array([0.3 + 0.2j, 0.0j])).tolist() == [0.0, 0.0]


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

    def test_circle_min_bounds_the_sampled_minimum(self):
        # zeros off one ray: the bound stays below |b| on the whole circle
        rng = np.random.default_rng(29)
        circle = np.exp(2j * np.pi * (np.arange(8192) + 0.37) / 8192)
        for _ in range(60):
            zl = ZeroList(random_zerolist(rng, int(rng.integers(1, 9)), 0.95).zeros, m=int(rng.integers(0, 3)))
            r = float(rng.uniform(0.02, 0.98))
            sampled = float(np.abs(evaluate_grid(zl, r * circle)).min())
            assert _circle_min(zl.zeros, r, m=zl.m) <= sampled

    def test_circle_min_is_exact_when_the_zeros_share_an_argument(self):
        rng = np.random.default_rng(31)
        for _ in range(60):
            theta = float(rng.uniform(0.0, 2.0 * math.pi))
            r = float(rng.uniform(0.05, 0.95))
            moduli = [x for x in rng.uniform(0.02, 0.98, 6) if abs(x - r) > 0.05]
            zl = ZeroList(
                tuple((x * complex(math.cos(theta), math.sin(theta)), int(rng.integers(1, 3))) for x in moduli),
                m=int(rng.integers(0, 3)),
            )
            exact = abs(evaluate(zl, r * complex(math.cos(theta), math.sin(theta))))
            assert _circle_min(zl.zeros, r, m=zl.m) == pytest.approx(exact, rel=1e-14, abs=0.0)

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
