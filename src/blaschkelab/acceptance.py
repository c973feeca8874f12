"""The acceptance suite: every shipped guarantee, runnable as one batch.

Each check returns a CheckResult; ``run_all`` executes the whole battery.
The CLI ``acceptance`` subcommand and the test suite both call into this
module, so the gate is a single code path.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .blaschke import ZeroList, eval_boundary, evaluate_grid, floating_factorization, jensen_zero_count
from .cauchy import l2_truncation_convergence, outer_correction, verify_intwin
from .config import RunConfig
from .contours import (
    JordanCurveApprox,
    build_atlas,
    harmonic_measure,
    log_quotient_via_contour,
    trossos_check,
)
from .fixtures import (
    adversarial_pair,
    geometric_zeros,
    random_matched_pair,
    random_zerolist,
    singular_shift_fixture,
    staged_measure,
)
from .gridfn import BoundaryGridFunction, harmonic_conjugate
from .matching import bottleneck_match, brute_force_bottleneck
from .pathbuild import build_path, certify_path


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float
    threshold: float
    detail: str = ""
    elapsed: float = 0.0

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (
            f"[{status}] {self.name}: value {self.value:.3e} vs threshold {self.threshold:.3e}"
            f" ({self.elapsed:.1f}s){' - ' + self.detail if self.detail else ''}"
        )

    def to_json(self) -> dict:
        return {
            "check_name": self.name,
            "status": "pass" if self.passed else "fail",
            "value": self.value,
            "threshold": self.threshold,
            "detail": self.detail,
        }


def _intwin_instances(config: RunConfig):
    rng = np.random.default_rng((config.seed, 1))
    for _ in range(100):
        n = int(rng.integers(1, 51))
        yield random_matched_pair(rng, n, beta_max=1.0, r_max=0.95)


def check_product_identity(config: RunConfig) -> CheckResult:
    """Max grid error of exp(2i Im C(sigma)) = e^{i gamma} b conj(b*)."""
    tol = config.tolerances["intwin"]
    t0 = time.perf_counter()
    worst = 0.0
    for za, zb in _intwin_instances(config):
        worst = max(worst, verify_intwin(za, zb, n=config.grid_size))
    elapsed = time.perf_counter() - t0
    passed = worst < tol and elapsed < 60.0
    return CheckResult(
        "product-identity (100 random instances, n <= 50)", passed, worst, tol,
        detail=f"runtime budget 60s", elapsed=elapsed,
    )


def check_outer_exactness(config: RunConfig) -> CheckResult:
    """||b e^v - b* h|| and the correction functional on the same instances."""
    tol = config.tolerances["outer_exactness"]
    t0 = time.perf_counter()
    worst = 0.0
    for za, zb in _intwin_instances(config):
        pairs = list(zip(za.expanded_points(), zb.expanded_points()))
        oc = outer_correction(pairs, config.grid_size)
        worst = max(worst, oc.report.exactness, oc.report.functional_sup)
    return CheckResult(
        "outer-correction exactness (same instances)", worst < tol, worst, tol,
        elapsed=time.perf_counter() - t0,
    )


def check_matching_oracle(config: RunConfig) -> CheckResult:
    """Bottleneck cost equals the factorial-enumeration oracle."""
    tol = config.tolerances["matching_cost"]
    rng = np.random.default_rng((config.seed, 2))
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 8))
        za = random_zerolist(rng, n)
        zb = random_zerolist(rng, n)
        cost = bottleneck_match(za, zb).cost
        oracle = brute_force_bottleneck(za.expanded_points(), zb.expanded_points())
        worst = max(worst, abs(cost - oracle))
    elapsed = time.perf_counter() - t0
    passed = worst <= tol and elapsed < 10.0
    return CheckResult(
        "bottleneck-matching optimality (100 instances, n <= 7)", passed, worst, tol,
        detail="runtime budget 10s", elapsed=elapsed,
    )


def check_jensen_counts(config: RunConfig) -> CheckResult:
    """Quadrature zero counts match the listed zeros exactly."""
    rng = np.random.default_rng((config.seed, 3))
    t0 = time.perf_counter()
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(1, 13))
        zeros = random_zerolist(rng, n, r_max=0.9)
        moduli = [abs(z) for z in zeros.expanded_points()]
        for _ in range(3):
            while True:
                r = 0.05 + 0.93 * rng.random()
                if all(abs(m - r) > 2e-6 for m in moduli):
                    break
            expected = sum(1 for m in moduli if m < r)
            if jensen_zero_count(zeros, r) != expected:
                mismatches += 1
    return CheckResult(
        "jensen zero counts (100 products x 3 radii)", mismatches == 0, float(mismatches), 0.0,
        elapsed=time.perf_counter() - t0,
    )


def path_certification_instances(config: RunConfig) -> list[tuple[ZeroList, ZeroList]]:
    """The 20 matched pairs of the path criterion, the target reordered by
    the bottleneck matching."""
    rng = np.random.default_rng((config.seed, 4))
    out = []
    for _ in range(20):
        n = int(rng.integers(1, 11))
        za, zb = random_matched_pair(rng, n, beta_max=0.5, r_max=0.9)
        pairing = bottleneck_match(za, zb)
        pts_b = zb.expanded_points()
        out.append((za, ZeroList.from_points([pts_b[j] for j in pairing.permutation])))
    return out


def check_path_certification(config: RunConfig) -> CheckResult:
    """Random paths certify; the one-giant-step fixture must not."""
    fid_tol = config.tolerances["endpoint_fidelity"]
    functional_tol = config.tolerances["path_functional"]
    t0 = time.perf_counter()
    failures: list[str] = []
    worst_fid = 0.0
    grid = min(config.grid_size, 2048)
    for i, (za, zb_ord) in enumerate(path_certification_instances(config)):
        try:
            path = build_path(za, zb_ord, n_grid=grid, functional_tol=functional_tol)
        except Exception as exc:  # noqa: BLE001 - any failure fails the gate
            failures.append(f"instance {i}: build failed: {exc}")
            continue
        if path.certification is None or not path.certification.ok:
            failures.append(f"instance {i}: certification failed")
            continue
        if path.certification.eps_observed <= 0.0:
            failures.append(f"instance {i}: nonpositive margin")
        start_err = float(np.abs(path.vertices[0].trace() - eval_boundary(za, grid).samples).max())
        end_expected = eval_boundary(zb_ord, grid).samples * np.exp(path.outer_log_total.samples)
        end_err = float(np.abs(path.vertices[-1].trace() - end_expected).max())
        worst_fid = max(worst_fid, start_err, end_err)
        if max(start_err, end_err) >= fid_tol:
            failures.append(f"instance {i}: endpoint fidelity {max(start_err, end_err):.2e}")

    z_adv, z_adv_star = adversarial_pair(3.0)
    bad_path = build_path(z_adv, z_adv_star, alpha=3.5, n_grid=1024)
    adv_report = certify_path(bad_path)
    if adv_report.ok:
        failures.append("adversarial one-step fixture unexpectedly certified")
    elapsed = time.perf_counter() - t0
    passed = not failures and elapsed < 300.0
    return CheckResult(
        "path certification (20 instances, n <= 10) + adversarial failure",
        passed, worst_fid, fid_tol,
        detail="; ".join(failures) if failures else "runtime budget 300s",
        elapsed=elapsed,
    )


def check_singular_shift_displacement(config: RunConfig) -> CheckResult:
    """Matched zero sets of the squared-parameter shift stay log 2 apart."""
    margin = config.tolerances["displacement_margin"]
    threshold = math.log(2.0) - margin
    t0 = time.perf_counter()
    beta = math.exp(-1.0)
    z_sq = singular_shift_fixture(beta**2)
    z_one = singular_shift_fixture(beta)
    pairing = bottleneck_match(z_sq, z_one)
    return CheckResult(
        "singular-shift displacement (|k| <= 50)", pairing.cost >= threshold, pairing.cost, threshold,
        detail="lower bound", elapsed=time.perf_counter() - t0,
    )


def contour_log_fixture_exact() -> tuple[ZeroList, ZeroList, JordanCurveApprox]:
    return ZeroList(m=1), ZeroList.from_points([0.1]), JordanCurveApprox.circle(0.0, 0.4, n=4096)


def contour_log_fixture_mc() -> tuple[ZeroList, ZeroList, JordanCurveApprox]:
    return ZeroList(m=1), ZeroList.from_points([0.04 + 0.03j]), JordanCurveApprox.circle(0.0, 0.4, n=256)


def _contour_log_error(u, b, atlas, rng, n_points: int, r_lo: float, r_hi: float) -> float:
    worst = 0.0
    for _ in range(n_points):
        r = r_lo + (r_hi - r_lo) * rng.random()
        phi = 2.0 * math.pi * rng.random()
        z = r * complex(math.cos(phi), math.sin(phi))
        val = np.exp(log_quotient_via_contour(u, b, atlas, z))
        ratio = evaluate_grid(u, np.array([z]))[0] / evaluate_grid(b, np.array([z]))[0]
        worst = max(worst, float(abs(val - ratio)))
    return worst


def check_contour_logarithm(config: RunConfig) -> CheckResult:
    """exp(L) reproduces u/b outside the curves: exact and Monte Carlo paths."""
    tol_exact = config.tolerances["contour_log_exact"]
    tol_mc = config.tolerances["contour_log_mc"]
    t0 = time.perf_counter()
    u, b, circ = contour_log_fixture_exact()
    atlas = build_atlas(u, b, [circ], method="exact")
    rng = np.random.default_rng((config.seed, 5))
    err_exact = _contour_log_error(u, b, atlas, rng, 50, 0.45, 0.95)

    u2, b2, circ2 = contour_log_fixture_mc()
    rng_walk = np.random.default_rng((config.seed, 7))
    atlas_mc = build_atlas(u2, b2, [circ2], n_samples=600_000, rng=rng_walk, method="walk", paired=True)
    rng2 = np.random.default_rng((config.seed, 6))
    err_mc = _contour_log_error(u2, b2, atlas_mc, rng2, 50, 0.55, 0.95)

    passed = err_exact < tol_exact and err_mc < tol_mc
    return CheckResult(
        "contour logarithm (exact disk + seed-fixed walks)", passed, max(err_exact, err_mc), tol_mc,
        detail=f"exact {err_exact:.2e} < {tol_exact:.0e}, mc {err_mc:.2e} < {tol_mc:.0e}",
        elapsed=time.perf_counter() - t0,
    )


def check_arc_diameter_inequality(config: RunConfig) -> CheckResult:
    """diam_rho(L) >= (inf_L |u|)^(1/nu(L)) on sampled arcs of the disk fixtures."""
    tol = config.tolerances["trossos_slack"]
    t0 = time.perf_counter()
    worst = math.inf

    u1 = ZeroList(m=1)
    circ1 = JordanCurveApprox.circle(0.0, 0.5, n=256)
    nu1 = harmonic_measure(0.0, circ1, method="exact")
    checks = trossos_check(u1, circ1, nu1, [(0, 0)])
    worst = min(worst, min(c.slack for c in checks if not c.skipped))

    u2 = ZeroList.from_points([0.1, -0.05 + 0.08j])
    circ2 = JordanCurveApprox.circle(0.0, 0.45, n=256)
    nu2 = harmonic_measure(0.1, circ2, method="exact") + harmonic_measure(-0.05 + 0.08j, circ2, method="exact")
    rng = np.random.default_rng((config.seed, 8))
    arcs = []
    for _ in range(40):
        a = int(rng.integers(0, 256))
        length = int(rng.integers(16, 256))
        arcs.append((a, (a + length) % 256))
    checks2 = trossos_check(u2, circ2, nu2, arcs)
    slacks = [c.slack for c in checks2 if not c.skipped]
    if slacks:
        worst = min(worst, min(slacks))
    return CheckResult(
        "hyperbolic arc-diameter inequality (disk fixtures)", worst >= -tol, worst, -tol,
        detail="minimum slack", elapsed=time.perf_counter() - t0,
    )


def check_floating_factorization(config: RunConfig) -> CheckResult:
    """Checkpoint circles of the geometric fixture clear their targets."""
    t0 = time.perf_counter()
    zeros = geometric_zeros(25)
    result = floating_factorization(zeros, (0.5, 0.75, 0.875))
    if not result.checks:
        return CheckResult(
            "floating factorization (geometric fixture)", False, 0.0, 0.0,
            detail="construction produced no checkpoints", elapsed=time.perf_counter() - t0,
        )
    worst = min(sampled - target for _, _, target, sampled in result.checks)
    return CheckResult(
        "floating factorization (geometric fixture)", worst >= 0.0, worst, 0.0,
        detail=f"{len(result.checks)} checkpoints over {len(result.radii)} radii",
        elapsed=time.perf_counter() - t0,
    )


def check_analysis_kernels(config: RunConfig) -> CheckResult:
    """Conjugation identities and truncation convergence."""
    tol = config.tolerances["kernel"]
    t0 = time.perf_counter()
    n = config.grid_size
    theta = 2.0 * np.pi * np.arange(n) / n
    cos_grid = BoundaryGridFunction(np.cos(theta))
    err_sin = float(np.abs(harmonic_conjugate(cos_grid).samples - np.sin(theta)).max())

    rng = np.random.default_rng((config.seed, 9))
    coeffs = rng.standard_normal(8)
    f = np.zeros(n)
    for k, c in enumerate(coeffs, start=1):
        f += c * np.cos(k * theta) + c * np.sin((k + 3) * theta)
    fg = BoundaryGridFunction(f)
    double = harmonic_conjugate(harmonic_conjugate(fg)).samples
    err_double = float(np.abs(double + (f - f.mean())).max())

    mu = staged_measure()
    radii = [0.1, 0.3, 0.6, 0.9]
    dists = l2_truncation_convergence(mu, radii, n=min(n, 2048))
    monotone = all(b <= a + 1e-12 for a, b in zip(dists, dists[1:]))
    exact_zero = dists[-1] == 0.0

    worst = max(err_sin, err_double)
    passed = worst < tol and monotone and exact_zero
    return CheckResult(
        "analysis kernels (conjugation + truncation)", passed, worst, tol,
        detail=f"truncation {['%.3e' % d for d in dists]}", elapsed=time.perf_counter() - t0,
    )


ALL_CHECKS = (
    check_product_identity,
    check_outer_exactness,
    check_matching_oracle,
    check_jensen_counts,
    check_path_certification,
    check_singular_shift_displacement,
    check_contour_logarithm,
    check_arc_diameter_inequality,
    check_floating_factorization,
    check_analysis_kernels,
)


def run_all(config: RunConfig) -> list[CheckResult]:
    results = []
    for check in ALL_CHECKS:
        result = check(config)
        results.append(result)
        print(result.line())
    return results
