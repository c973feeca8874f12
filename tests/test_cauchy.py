"""Tests for the transform layer: closed forms against quadrature oracles,
the product identity, conjugation structure and outer corrections."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from blaschkelab import blaschke, cauchy
from blaschkelab.blaschke import ZeroList, eval_boundary
from blaschkelab.carleson import BOX_NORM_SLACK, DiscreteMeasure, box_carleson_norm, suggested_box_depth
from blaschkelab.cauchy import (
    _SERIES_RADIUS,
    OuterCorrection,
    OuterReport,
    PathMeasure,
    _pair_traces,
    _segment_grid,
    cauchy_measure_on_circle,
    cauchy_on_circle,
    cauchy_segment_closed_form,
    gamma_constant,
    l2_truncation_convergence,
    outer_correction,
    verify_intwin,
)
from blaschkelab.errors import CardinalityError, IllConditionedBoundaryError
from blaschkelab.fixtures import random_matched_pair, random_point, staged_measure
from blaschkelab.gridfn import BoundaryGridFunction, circle_nodes, harmonic_conjugate


def segment_quadrature_oracle(z0: complex, z1: complex, theta: float) -> complex:
    """Adaptive quadrature of the segment transform, independent of the Log form."""
    d = z1 - z0
    xi = complex(math.cos(theta), math.sin(theta))

    def integrand_re(t):
        return (d / (xi - (z0 + t * d))).real

    def integrand_im(t):
        return (d / (xi - (z0 + t * d))).imag

    re, _ = quad(integrand_re, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    im, _ = quad(integrand_im, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    return complex(re, im)


class TestTruncatedCauchy:
    """The discrete-measure transform on the grid: interior atoms sit at
    distance at least 1e-8 from every node, so nothing is truncated."""

    def test_unit_mass_at_origin(self):
        m = DiscreteMeasure(((0.0j, 1.0 + 0j),))
        got = cauchy_measure_on_circle(m, 64).samples
        np.testing.assert_allclose(got, np.conj(circle_nodes(64)), rtol=0.0, atol=1e-15)

    def test_symmetric_atoms_vs_direct_sum(self):
        a = 0.4
        m = DiscreteMeasure(((a + 0j, 1.0 + 0j), (-a + 0j, 1.0 + 0j)))
        xi = complex(circle_nodes(64)[16])  # theta = pi / 2
        oracle = 1.0 / (xi - a) + 1.0 / (xi + a)
        assert cauchy_measure_on_circle(m, 64).samples[16] == pytest.approx(oracle, abs=1e-15)


class TestSegmentClosedForm:
    def test_degenerate_segment(self):
        assert cauchy_segment_closed_form(0.3 + 0.1j, 0.3 + 0.1j, 1.0) == 0.0

    def test_hand_value(self):
        assert cauchy_segment_closed_form(0.0, 0.5, 0.0) == pytest.approx(math.log(2.0))

    def test_against_quadrature(self):
        rng = np.random.default_rng(1)
        for _ in range(12):
            z0, z1 = random_point(rng, 0.9), random_point(rng, 0.9)
            theta = 2 * math.pi * rng.random()
            got = cauchy_segment_closed_form(z0, z1, theta)
            want = segment_quadrature_oracle(z0, z1, theta)
            assert got == pytest.approx(want, abs=1e-10)

    def test_log_imaginary_parts_in_range(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            z0 = random_point(rng, 0.97)
            theta = 2 * math.pi * rng.random()
            term = np.log(1.0 - z0 * np.exp(-1j * theta))
            assert -math.pi / 2 < term.imag < math.pi / 2


class TestCauchyOnCircle:
    def test_empty(self):
        f = cauchy_on_circle(PathMeasure(), 16)
        np.testing.assert_array_equal(f.samples, 0.0)

    def test_single_segment_hand_values(self):
        f = cauchy_on_circle(PathMeasure(((0.0j, 0.5 + 0j),)), 8)
        for j in (0, 2, 4, 6):
            theta = 2 * math.pi * j / 8
            want = -np.log(1.0 - 0.5 * np.exp(-1j * theta))
            assert f.samples[j] == pytest.approx(want, abs=1e-14)

    def test_orientation_antisymmetry(self):
        sigma = PathMeasure(((0.1 + 0.2j, -0.4j), (0.3 + 0j, 0.2 + 0.5j)))
        f = cauchy_on_circle(sigma, 64).samples
        g = cauchy_on_circle(PathMeasure(tuple((b, a) for a, b in sigma.segments)), 64).samples
        np.testing.assert_allclose(f, -g, atol=1e-15)

    def test_linearity(self):
        s1 = PathMeasure(((0.1 + 0j, 0.2 + 0j),))
        s2 = PathMeasure(((0.0j, 0.3j),))
        both = PathMeasure(s1.segments + s2.segments)
        np.testing.assert_allclose(
            cauchy_on_circle(both, 32).samples,
            cauchy_on_circle(s1, 32).samples + cauchy_on_circle(s2, 32).samples,
            atol=1e-15,
        )

    def test_near_circle_rejected(self):
        with pytest.raises((IllConditionedBoundaryError, ValueError)):
            cauchy_on_circle(PathMeasure(((0.0j, 1.0 - 1e-9 + 0j),)), 16)


class TestOneLogSegmentKernel:
    """The grid kernel takes one Log of a ratio; the scalar closed form keeps
    the difference of two principal Logs as the independent route."""

    N = 512

    def _segments(self):
        rng = np.random.default_rng(12)
        theta = 2 * math.pi * np.arange(self.N) / self.N
        segs = []
        for i in range(60):
            r0, r1 = 1.0 - 10.0 ** rng.uniform(-6.0, 0.0, 2)
            p0, p1 = 2 * math.pi * rng.random(2)
            if i % 3 == 0:
                p0 = theta[rng.integers(self.N)]  # endpoint straight below a node
            z0, z1 = complex(r0 * np.exp(1j * p0)), complex(r1 * np.exp(1j * p1))
            if i % 4 == 1:
                z1 = -rng.uniform(0.1, 1.0) * z0  # segment through the origin
            if i % 5 == 2:
                z0 = 0j
            segs.append((z0, z1))
        return theta, segs

    def test_matches_scalar_two_log_route(self):
        # the two routes round 1 - z conj(w) differently, which the Log
        # amplifies by 1/|1 - z conj(w)|; away from that, 1e-13 flat
        theta, segs = self._segments()
        nodes_conj = np.conj(circle_nodes(self.N))
        for z0, z1 in segs:
            grid = cauchy_on_circle(PathMeasure(((z0, z1),)), self.N).samples
            scalar = np.array([cauchy_segment_closed_form(z0, z1, t) for t in theta])
            cond = 1.0 / np.abs(1.0 - z0 * nodes_conj) + 1.0 / np.abs(1.0 - z1 * nodes_conj)
            assert np.all(np.abs(grid - scalar) <= 1e-13 + 4.0 * np.finfo(float).eps * cond)

    def test_matches_two_logs_on_the_same_nodes(self):
        _, segs = self._segments()
        nodes_conj = np.conj(circle_nodes(self.N))
        for z0, z1 in segs:
            grid = cauchy_on_circle(PathMeasure(((z0, z1),)), self.N).samples
            two_logs = np.log(1.0 - z0 * nodes_conj) - np.log(1.0 - z1 * nodes_conj)
            assert np.abs(grid - two_logs).max() <= 1e-13



def per_segment_sum(segments, n: int) -> np.ndarray:
    """The transform as one ``_segment_grid`` per segment, the route that
    ``cauchy_on_circle`` keeps only beyond ``_SERIES_RADIUS``."""
    nodes_conj = np.conj(circle_nodes(n))
    out = np.zeros(n, dtype=np.complex128)
    for z0, z1 in segments:
        out += _segment_grid(z0, z1, nodes_conj)
    return out


def polar(r: float, phi: float) -> complex:
    return complex(r * math.cos(phi), r * math.sin(phi))


class TestPowerSeriesRoute:
    """Segments within ``_SERIES_RADIUS`` go through the power sums folded
    mod n and one FFT; they must agree with the per-segment kernel."""

    def _assert_routes_agree(self, segments, n: int):
        got = cauchy_on_circle(PathMeasure.from_pairs(segments), n).samples
        assert np.abs(got - per_segment_sum(segments, n)).max() <= 1e-13

    @pytest.mark.parametrize("n", [8, 16, 256])
    def test_folding_past_the_grid(self, n):
        # |z| = 0.95 needs J = 717 terms, so every residue mod n collects many
        rng = np.random.default_rng(20 + n)
        segments = [(polar(0.95, 2 * math.pi * rng.random()), random_point(rng, 0.9)) for _ in range(6)]
        self._assert_routes_agree(segments, n)

    def test_identity_batch_size(self):
        rng = np.random.default_rng(21)
        za, zb = random_matched_pair(rng, 200, 1.0, 0.95)
        self._assert_routes_agree(list(zip(za.expanded_points(), zb.expanded_points())), 4096)

    def test_segments_straddling_the_split(self):
        rng = np.random.default_rng(22)
        straddling = [
            (polar(0.995, 2 * math.pi * rng.random()), polar(0.5, 2 * math.pi * rng.random())) for _ in range(4)
        ]
        inner = [(random_point(rng, 0.9), random_point(rng, 0.9)) for _ in range(4)]
        self._assert_routes_agree(straddling + inner, 512)
        assert max(abs(z) for z in straddling[0]) > _SERIES_RADIUS
        # a segment beyond the split keeps the per-segment kernel's bits
        np.testing.assert_array_equal(
            cauchy_on_circle(PathMeasure(straddling[:1]), 512).samples, per_segment_sum(straddling[:1], 512)
        )

    def test_origin_endpoints_and_degenerate_segments(self):
        z = 0.6 - 0.3j
        self._assert_routes_agree([(0j, z), (0.2j, 0j), (z, z), (0j, 0j)], 64)
        np.testing.assert_array_equal(cauchy_on_circle(PathMeasure(((z, z),)), 64).samples, 0.0)

    def test_tiny_endpoints_beside_large_ones(self):
        # |z| = 0.95 sets J = 717, so the powers of |z| ~ 1e-3 pass through the
        # subnormal range long before the last block and are flushed to zero
        rng = np.random.default_rng(23)
        tiny = [
            (polar(1e-3 * (1 + rng.random()), 2 * math.pi * rng.random()), polar(1e-3, 2 * math.pi * rng.random()))
            for _ in range(40)
        ]
        large = [(polar(0.95, 2 * math.pi * rng.random()), random_point(rng, 0.5)) for _ in range(3)]
        self._assert_routes_agree(tiny + large, 1024)
        self._assert_routes_agree(tiny, 1024)

class TestGammaConstant:
    def test_equal_pairs(self):
        assert gamma_constant([(0.3 + 0.2j, 0.3 + 0.2j)]) == pytest.approx(1.0)

    def test_hand_value(self):
        assert gamma_constant([(0.5, 0.5j)]) == pytest.approx(-1j)

    def test_origin_convention(self):
        assert gamma_constant([(0.0, 0.3)]) == pytest.approx(-1.0)
        assert gamma_constant([(0.3, 0.0)]) == pytest.approx(-1.0)

    def test_unimodular(self):
        rng = np.random.default_rng(3)
        pairs = [(random_point(rng), random_point(rng)) for _ in range(15)]
        assert abs(abs(gamma_constant(pairs)) - 1.0) < 1e-12


def _count_kernel_calls(monkeypatch):
    """Counts of ``evaluate_grid`` and ``cauchy_on_circle`` calls from here on."""
    counts = {"evaluate_grid": 0, "cauchy_on_circle": 0}

    def counted(module, name):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted(blaschke, "evaluate_grid")
    counted(cauchy, "cauchy_on_circle")
    return counts


class TestProductIdentity:
    def test_identical_lists(self):
        zl = ZeroList.from_points([0.3, -0.2 + 0.4j])
        assert verify_intwin(zl, zl, n=256) < 1e-12

    def test_single_pair(self):
        err = verify_intwin(ZeroList.from_points([0.3]), ZeroList.from_points([0.4]), n=1024)
        assert err < 1e-8

    def test_origin_pair_convention(self):
        err = verify_intwin(ZeroList(m=1), ZeroList.from_points([0.5]), n=1024)
        assert err < 1e-12

    def test_random_instances(self):
        rng = np.random.default_rng(4)
        worst = 0.0
        for _ in range(10):
            za, zb = random_matched_pair(rng, int(rng.integers(1, 31)), 1.0, 0.95)
            worst = max(worst, verify_intwin(za, zb, n=4096))
        assert worst < 1e-8

    def test_respects_explicit_pairing(self):
        za = ZeroList.from_points([0.1, 0.6])
        zb = ZeroList.from_points([0.6, 0.1])
        assert verify_intwin(za, zb, pairing=[1, 0], n=512) < 1e-12

    def test_size_mismatch(self):
        with pytest.raises(CardinalityError):
            verify_intwin(ZeroList.from_points([0.1]), ZeroList.from_points([0.1, 0.2]))

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            verify_intwin(ZeroList(((0.3 + 0j, 1),), lam=1j), ZeroList.from_points([0.3]))

    @pytest.mark.parametrize(
        "make", [iter, tuple, np.array, lambda p: (j for j in p)], ids=["iter", "tuple", "array", "generator"]
    )
    def test_any_iterable_pairing_gives_the_lists_value(self, make):
        za = ZeroList.from_points([0.3, 0.5j, -0.2 + 0.1j])
        zb = ZeroList.from_points([0.31, 0.49j, -0.21 + 0.1j])
        want = verify_intwin(za, zb, [0, 1, 2], n=256)
        assert want < 1e-12
        assert verify_intwin(za, zb, make([0, 1, 2]), n=256) == want
        shuffled = ZeroList.from_points([-0.21 + 0.1j, 0.31, 0.49j])
        assert verify_intwin(za, shuffled, make([1, 2, 0]), n=256) < 1e-12
        with pytest.raises(CardinalityError):
            verify_intwin(za, zb, make([0, 0, 1]), n=256)

    @pytest.mark.parametrize("pairing", [[0.0, 1.0, 2.0], np.array([0.0, 1.0, 2.0]), [0, 1, "2"]])
    def test_non_integer_pairing_raises_before_evaluating(self, monkeypatch, pairing):
        counts = _count_kernel_calls(monkeypatch)
        za = ZeroList.from_points([0.3, 0.5j, -0.2 + 0.1j])
        with pytest.raises(TypeError, match="integer indices"):
            verify_intwin(za, za, pairing, n=256)
        assert counts == {"evaluate_grid": 0, "cauchy_on_circle": 0}


class TestOuterCorrection:
    def test_trivial_pairs(self):
        oc = outer_correction([(0.3 + 0.1j, 0.3 + 0.1j)], 256)
        np.testing.assert_allclose(oc.v.samples, 0.0, atol=1e-15)
        np.testing.assert_allclose(oc.h.samples, 1.0, atol=1e-14)
        assert oc.report.closeness < 1e-14

    def test_single_pair_identity(self):
        oc = outer_correction([(0.3, 0.4)], 4096)
        assert oc.report.exactness < 1e-8
        assert oc.report.functional_sup < 1e-8

    def test_closeness_equals_one_minus_exp_v(self):
        # |b| = 1 on the circle makes ||b - b* h|| = max |1 - e^v| exactly
        oc = outer_correction([(0.2, 0.35 + 0.1j)], 2048)
        want = float(np.abs(1.0 - np.exp(oc.v.samples)).max())
        assert oc.report.closeness == pytest.approx(want, abs=1e-10)

    def test_conjugate_structure(self):
        # v~ equals 2 Im C(sigma) because conj(C) extends holomorphically
        pairs = [(0.1 + 0.2j, 0.15 + 0.25j), (-0.3j, -0.2j)]
        sigma = PathMeasure.from_pairs(pairs)
        c = cauchy_on_circle(sigma, 2048).samples
        v = BoundaryGridFunction(-2.0 * c.real)
        vt = harmonic_conjugate(v).samples
        assert np.abs(vt - 2.0 * c.imag).max() < 1e-12

    def test_interior_extension_matches_grid(self):
        # h from the FFT route equals conj(gamma) exp(-2 G) sampled on the circle
        pairs = [(0.1, 0.3 + 0.2j)]
        oc = outer_correction(pairs, 1024)
        nodes = np.exp(2j * np.pi * np.arange(1024) / 1024)
        g_log = np.log(1.0 - np.conj(pairs[0][0]) * nodes) - np.log(1.0 - np.conj(pairs[0][1]) * nodes)
        direct = np.conj(oc.report.gamma) * np.exp(-2.0 * g_log)
        assert np.abs(direct - oc.h.samples).max() < 1e-11

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1e-6])
    def test_residual_tolerance_must_be_positive(self, tol):
        with pytest.raises(ValueError, match="residual tolerance"):
            outer_correction([(0.3, 0.4)], 256, residual_tol=tol)


def _unshared_verify_intwin(b, b_star, pairing, n):
    """The product identity as it was computed before the shared memo: C(sigma)
    and both traces evaluated here, b and b* as given."""
    za, zb = b.expanded_points(), b_star.expanded_points()
    pairs = [(za[k], zb[j]) for k, j in enumerate(pairing)]
    c_sigma = cauchy_on_circle(PathMeasure.from_pairs(pairs), n).samples
    lhs = np.exp(2j * c_sigma.imag)
    rhs = gamma_constant(pairs) * eval_boundary(b, n).samples * np.conj(eval_boundary(b_star, n).samples)
    return float(np.abs(lhs - rhs).max())


def _unshared_outer_correction(pairs, n):
    """``outer_correction`` as it was before the shared memo, every input
    evaluated in place (its residual guard left out)."""
    pairs = [(complex(a), complex(bb)) for a, bb in pairs]
    c_sigma = cauchy_on_circle(PathMeasure.from_pairs(pairs), n).samples
    v = BoundaryGridFunction(-2.0 * c_sigma.real)
    v_tilde = harmonic_conjugate(v).samples
    residual = float(np.abs(2.0 * c_sigma.imag - v_tilde).max())
    gamma = gamma_constant(pairs)
    h = BoundaryGridFunction(np.conj(gamma) * np.exp(v.samples + 1j * v_tilde))
    b_trace = eval_boundary(ZeroList.from_points([a for a, _ in pairs]), n).samples
    b_star_trace = eval_boundary(ZeroList.from_points([bb for _, bb in pairs]), n).samples
    report = OuterReport(
        sup_v=float(np.abs(v.samples).max()),
        conjugation_residual=residual,
        closeness=float(np.abs(b_trace - b_star_trace * h.samples).max()),
        exactness=float(np.abs(b_trace * np.exp(v.samples) - b_star_trace * h.samples).max()),
        gamma=gamma,
    )
    return OuterCorrection(h=h, v=v, report=report)


def _shuffled_instance(rng, n):
    """A matched pair with a repeated zero and an origin zero on each side
    (n >= 3), b* handed over shuffled, and the pairing that undoes the shuffle."""
    za, zb = random_matched_pair(rng, n, 1.0, 0.95)
    pa, pb = za.expanded_points(), zb.expanded_points()
    if n >= 3:
        pa[1], pb[1] = pa[0], pb[0]
        pa[2], pb[2] = 0.0j, 0.0j
    order = rng.permutation(n)
    b_star = ZeroList.from_points([pb[j] for j in order])
    shuffled = b_star.expanded_points()
    slots = {}
    for j, z in enumerate(shuffled):
        slots.setdefault(z, []).append(j)
    pairing = [slots[z].pop() for z in ZeroList.from_points(pb).expanded_points()]
    return ZeroList.from_points(pa), b_star, pairing


class TestSharedPairTraces:
    """``verify_intwin`` and ``outer_correction`` read C(sigma), gamma and both
    traces from one memo entry, keyed by the pairs' bytes and the grid."""

    def test_second_check_evaluates_nothing(self, monkeypatch):
        counts = _count_kernel_calls(monkeypatch)
        za, zb = random_matched_pair(np.random.default_rng(5), 6, 1.0, 0.95)
        verify_intwin(za, zb, n=512)
        outer_correction(list(zip(za.expanded_points(), zb.expanded_points())), 512)
        assert counts == {"evaluate_grid": 2, "cauchy_on_circle": 1}

    @pytest.mark.parametrize("change", ["grid", "pairs", "signed zero"])
    def test_other_inputs_evaluate_again(self, monkeypatch, change):
        counts = _count_kernel_calls(monkeypatch)
        za = ZeroList.from_points([0.3, -0.2 + 0.4j])
        zb = ZeroList.from_points([0.35, -0.25 + 0.4j])
        pairs = list(zip(za.expanded_points(), zb.expanded_points()))
        n = 512
        if change == "grid":
            n = 1024
        elif change == "pairs":
            pairs[1] = (pairs[1][0], -0.25 + 0.41j)
        else:
            pairs[0] = (complex(0.3, -0.0), pairs[0][1])
            assert pairs == list(zip(za.expanded_points(), zb.expanded_points()))
        verify_intwin(za, zb, n=512)
        outer_correction(pairs, n)
        assert counts == {"evaluate_grid": 4, "cauchy_on_circle": 2}

    @pytest.mark.parametrize("seed, n", [(0, 1), (1, 2), (2, 3), (3, 8), (4, 31), (5, 77), (6, 200)])
    def test_outer_correction_keeps_its_bits(self, seed, n):
        b, b_star, pairing = _shuffled_instance(np.random.default_rng(seed), n)
        pa, pb = b.expanded_points(), b_star.expanded_points()
        pairs = [(pa[k], pb[j]) for k, j in enumerate(pairing)]
        want = _unshared_outer_correction(pairs, 2048)
        for _ in range(2):  # a miss, then a hit
            got = outer_correction(pairs, 2048, residual_tol=1.0)
            np.testing.assert_array_equal(got.h.samples, want.h.samples)
            np.testing.assert_array_equal(got.v.samples, want.v.samples)
            assert got.report == want.report
        verify_intwin(b, b_star, pairing, n=2048)
        got = outer_correction(pairs, 2048, residual_tol=1.0)
        np.testing.assert_array_equal(got.h.samples, want.h.samples)
        assert got.report == want.report

    @pytest.mark.parametrize("seed, n", [(10, 1), (11, 3), (12, 9), (13, 40), (15, 120), (16, 200)])
    def test_verify_intwin_within_a_few_ulp(self, seed, n):
        # b* is now evaluated in the pairing's order: its factors multiply in
        # another order, which moves the unit-modulus terms in the last places
        # (at most 10 eps here, 14 eps on the identity-batch decks)
        b, b_star, pairing = _shuffled_instance(np.random.default_rng(seed), n)
        assert pairing != sorted(pairing) or n == 1
        want = _unshared_verify_intwin(b, b_star, pairing, 2048)
        got = verify_intwin(b, b_star, pairing, n=2048)
        assert want < 1e-12
        assert abs(got - want) <= 32 * np.finfo(float).eps
        assert verify_intwin(b, b_star, n=2048) == _unshared_verify_intwin(b, b_star, range(n), 2048)

    def test_arrays_are_read_only(self):
        pairs = [(0.3 + 0.1j, 0.35), (-0.5j, -0.45j)]
        c_sigma, gamma, b_trace, b_star_trace = _pair_traces(np.array(pairs, np.complex128).tobytes(), 256)
        assert gamma == gamma_constant(pairs)
        for arr in (c_sigma, b_trace, b_star_trace):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_near_circle_raises_on_both_calls(self):
        edge = 1.0 - 5e-9
        za, zb = ZeroList.from_points([0.3, edge]), ZeroList.from_points([0.31, edge * 1j])
        with pytest.raises(IllConditionedBoundaryError):
            verify_intwin(za, zb, n=256)
        with pytest.raises(IllConditionedBoundaryError):
            outer_correction(list(zip(za.expanded_points(), zb.expanded_points())), 256)
        assert _pair_traces.cache_info().currsize == 0


class TestTruncationConvergence:
    def test_past_all_atoms_exact_zero(self):
        vals = l2_truncation_convergence(staged_measure(), [0.95], n=512)
        assert vals == [0.0]

    def test_excluding_everything(self):
        m = staged_measure()
        full_norm = float(np.sqrt(np.mean(np.abs(cauchy_measure_on_circle(m, 512).samples) ** 2)))
        vals = l2_truncation_convergence(m, [0.05], n=512)
        assert vals[0] == pytest.approx(full_norm, rel=1e-12)

    def test_staged_plateaus(self):
        m = staged_measure()
        # radii straddling the atoms at 0.2, 0.5, 0.8
        vals = l2_truncation_convergence(m, [0.1, 0.3, 0.4, 0.6, 0.7, 0.9], n=1024)
        assert vals[1] == pytest.approx(vals[2], rel=1e-12)  # plateau between atoms
        assert vals[3] == pytest.approx(vals[4], rel=1e-12)
        assert vals[0] >= vals[1] >= vals[3] >= vals[5] == 0.0

    def test_requires_increasing_radii(self):
        with pytest.raises(ValueError):
            l2_truncation_convergence(staged_measure(), [0.5, 0.4])


class TestHardyNormBound:
    def test_l2_bound_with_box_slack(self):
        """||C(mu)||_2 <= (slack * box_norm)^(1/2) |mu|(D)^(1/2) over random measures.

        The duality Carleson norm is replaced by the dyadic box constant with
        the documented slack factor; ratios are reported in the failure
        message rather than silently clipped.
        """
        rng = np.random.default_rng(5)
        worst = 0.0
        report = []
        for _ in range(100):
            n = int(rng.integers(1, 15))
            atoms = tuple(
                (random_point(rng, 0.98), complex(rng.random()))
                for _ in range(n)
            )
            m = DiscreteMeasure(atoms)
            lhs = float(np.sqrt(np.mean(np.abs(cauchy_measure_on_circle(m, 1024).samples) ** 2)))
            box = box_carleson_norm(m, suggested_box_depth(m))
            bound = math.sqrt(BOX_NORM_SLACK * box) * math.sqrt(sum(abs(w) for _, w in m.atoms))
            ratio = lhs / bound
            worst = max(worst, ratio)
            if ratio > 1.0:
                report.append(f"ratio {ratio:.3f} for {n} atoms")
        assert worst <= 1.0, f"bound exceeded: worst ratio {worst:.3f}; findings: {report[:5]}"
