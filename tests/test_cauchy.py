"""Tests for the transform layer: closed forms against quadrature oracles,
the product identity, conjugation structure and outer corrections."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from blaschkelab.blaschke import ZeroList
from blaschkelab.carleson import BOX_NORM_SLACK, DiscreteMeasure, box_carleson_norm, suggested_box_depth
from blaschkelab.cauchy import (
    PathMeasure,
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
