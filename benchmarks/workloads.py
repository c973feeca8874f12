"""The three benchmark workloads: seeded decks of operations with answer gates.

A deck is a list of operations built from the seed before timing starts.  An
operation runs one instance end to end and returns the gate failures it found
(an empty list when every answer checks out); an exception counts as a failure
at the boundary in ``run.py``.  Library calls go through module attributes
(``pathbuild.build_path``), so the tracer's rebinding sees them.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from blaschkelab import blaschke, carleson, cauchy, contours, fixtures, matching, pathbuild
from blaschkelab.blaschke import ZeroList
from blaschkelab.contours import JordanCurveApprox
from blaschkelab.errors import AtlasInconsistencyError

Op = Callable[[], list]

# path-certify draws its pool from this pinned stream, criterion 5's way, and
# takes the seed only through symmetries and order (see path_deck).
PATH_POOL_STREAM = 1


# ---------------------------------------------------------------------------
# path-certify


def _disk_symmetry(rng: np.random.Generator):
    """A seeded rotation, with or without complex conjugation, of zero lists.

    Both are isometries of the hyperbolic metric that commute with linear
    interpolation of zeros, so partitions, margins and refinement rounds
    carry over while every input number changes.
    """
    rot = cmath.exp(2j * math.pi * rng.random())
    conj = bool(rng.integers(0, 2))

    def move(z: ZeroList) -> ZeroList:
        return ZeroList.from_points([rot * (p.conjugate() if conj else p) for p in z.expanded_points()])

    return move


def path_op(za: ZeroList, zb: ZeroList, grid: int, tol: dict) -> list:
    """bottleneck_match, reorder the target, build_path with auto-refine (which
    certifies), then criterion 5's margin and endpoint-fidelity gates."""
    pairing = matching.bottleneck_match(za, zb)
    pts_b = zb.expanded_points()
    zb_ord = ZeroList.from_points([pts_b[j] for j in pairing.permutation])
    path = pathbuild.build_path(za, zb_ord, n_grid=grid)
    cert = path.certification
    if cert is None or not cert.ok:
        return ["certification not ok"]
    failures = []
    if cert.eps_observed <= 0.0:
        failures.append(f"eps_observed {cert.eps_observed:.3e} <= 0")
    start_err = float(np.abs(path.vertices[0].trace() - blaschke.eval_boundary(za, grid).samples).max())
    end_expected = blaschke.eval_boundary(zb_ord, grid).samples * np.exp(path.outer_log_total.samples)
    end_err = float(np.abs(path.vertices[-1].trace() - end_expected).max())
    if max(start_err, end_err) >= tol["endpoint_fidelity"]:
        failures.append(f"endpoint fidelity {max(start_err, end_err):.3e}")
    return failures


def adversarial_op(za: ZeroList, zb: ZeroList, alpha: float, grid: int) -> list:
    """The one-giant-step fixture passes only when certification rejects it."""
    report = pathbuild.certify_path(pathbuild.build_path(za, zb, alpha=alpha, n_grid=grid))
    return ["adversarial one-step path certified"] if report.ok else []


def path_deck(seed: int, tol: dict, bounds: dict, pool: int = 10, grid: int = 2048) -> list[Op]:
    """``pool`` instances drawn as criterion 5 draws them (n uniform in 1..10,
    beta_max 0.5, r_max 0.9) from the pinned stream, plus the adversarial
    fixture (alpha 3.5, grid 1024).

    Instance cost is heavy-tailed (one criterion-5 instance alone runs 10
    rounds), so a deck drawn afresh per seed would make throughput depend on
    the draw more than on the code.  The seed therefore moves each instance
    by its own rotation and reflection and shuffles the order: every op's
    inputs are distributed exactly as criterion 5's, the tail stays in the
    deck, and a pass costs the same work on every seed.
    """
    pool_rng = np.random.default_rng(PATH_POOL_STREAM)
    rng = np.random.default_rng((seed, 1))
    ops: list[Op] = []
    for _ in range(pool):
        n = int(pool_rng.integers(1, 11))
        za, zb = fixtures.random_matched_pair(pool_rng, n, beta_max=0.5, r_max=0.9)
        move = _disk_symmetry(rng)
        ops.append(partial(path_op, move(za), move(zb), grid, tol))
    z_adv, z_adv_star = fixtures.adversarial_pair(3.0)
    move = _disk_symmetry(rng)
    ops.append(partial(adversarial_op, move(z_adv), move(z_adv_star), 3.5, 1024))
    return [ops[i] for i in rng.permutation(len(ops))]


# ---------------------------------------------------------------------------
# contour-log


@dataclass(frozen=True)
class ContourInstance:
    product: ZeroList  # part (a): seeded 8-zero product
    b: ZeroList  # part (b): one zero of modulus <= 0.05
    points: tuple[complex, ...]  # part (b): exterior evaluation points
    source: complex  # part (c): interior walk source
    walk_seed: tuple[int, ...]


@dataclass(frozen=True)
class ContourSizes:
    resolution: int = 512
    walk_samples: int = 5_000
    polyline_walkers: int = 128
    points: int = 50


# criterion 7's geometry: the circle |z| = 0.4, sampled at 4096 edges for the
# exact route and 256 for the walks; the polyline of part (c) has 1024 edges
# and no disk metadata, so its walks take the dense points x edges distance.
_RADIUS = 0.4
_EXACT_CIRCLE = JordanCurveApprox.circle(0.0, _RADIUS, n=4096)
_WALK_CIRCLE = JordanCurveApprox.circle(0.0, _RADIUS, n=256)
_POLY_CIRCLE = JordanCurveApprox.circle(0.0, _RADIUS, n=1024)
_POLYLINE = JordanCurveApprox(_POLY_CIRCLE.points)
_ARCS = 16


def contour_op(inst: ContourInstance, sizes: ContourSizes, tol: dict, bounds: dict) -> list:
    failures = []
    # (a) the CLI contour command
    product = inst.product
    curves = contours.level_set_components(product, 0.2, resolution=sizes.resolution)
    deep, shallow = contours.split_zeros_by_contour(product, curves)
    norm = contours.arclength_carleson_norm(curves)
    enclosed = sum(c.total_zero_count() for c in curves)
    if enclosed != product.degree or deep.degree + shallow.degree != product.degree:
        failures.append(f"level set encloses {enclosed}, splits {deep.degree}+{shallow.degree} of {product.degree}")
    if not 0.0 < norm < math.inf:
        failures.append(f"arclength box norm {norm}")

    # (b) contour logarithm of u/b by the exact and the paired-walk atlas
    u, b = ZeroList(m=1), inst.b
    rng = np.random.default_rng(inst.walk_seed)
    exact = contours.build_atlas(u, b, [_EXACT_CIRCLE], method="exact")
    walk = contours.build_atlas(
        u, b, [_WALK_CIRCLE], n_samples=sizes.walk_samples, rng=rng, method="walk", paired=True
    )
    try:
        exact.validate_totals()
        walk.validate_totals()
    except AtlasInconsistencyError as exc:
        failures.append(f"validate_totals: {exc}")
    err_exact = err_walk = 0.0
    for z in inst.points:
        ratio = blaschke.evaluate_grid(u, np.array([z]))[0] / blaschke.evaluate_grid(b, np.array([z]))[0]
        err_exact = max(err_exact, abs(np.exp(contours.log_quotient_via_contour(u, b, exact, z)) - ratio))
        err_walk = max(err_walk, abs(np.exp(contours.log_quotient_via_contour(u, b, walk, z)) - ratio))
    if err_exact >= tol["contour_log_exact"]:
        failures.append(f"exact-route error {err_exact:.3e}")
    walk_bound = bounds["walk_route_error_x_sqrt_samples"] / math.sqrt(sizes.walk_samples)
    if err_walk > walk_bound:
        failures.append(f"walk-route error {err_walk:.3e} > {walk_bound:.3e}")

    # (c) unpaired walks on the bare polyline against exact Poisson arc masses
    nu = contours.harmonic_measure(inst.source, _POLYLINE, n_samples=sizes.polyline_walkers, rng=rng, method="walk")
    exact_nu = contours.harmonic_measure(inst.source, _POLY_CIRCLE, method="exact")
    arcs = nu.reshape(_ARCS, -1).sum(axis=1)
    exact_arcs = exact_nu.reshape(_ARCS, -1).sum(axis=1)
    sigma = np.sqrt(exact_arcs * (1.0 - exact_arcs) / sizes.polyline_walkers)
    worst = float((np.abs(arcs - exact_arcs) / sigma).max())
    if worst > bounds["arc_mass_sigmas"]:
        failures.append(f"16-arc walk masses off by {worst:.2f} sigma")
    return failures


def contour_deck(seed: int, tol: dict, bounds: dict, ops: int = 8, sizes: ContourSizes = ContourSizes()) -> list[Op]:
    """``ops`` seeded instances; geometry is drawn from the seed, and each op
    reseeds its walks so every pass repeats the same work.

    A walk batch runs until its longest walk ends, so an op's cost moves with
    that maximum; eight smaller ops per deck average it out across seeds.
    """
    rng = np.random.default_rng((seed, 2))
    deck: list[Op] = []
    for i in range(ops):
        product = fixtures.random_zerolist(rng, 8, r_max=0.8)
        b = ZeroList.from_points([fixtures.random_point(rng, 0.05)])
        points = []
        for _ in range(sizes.points):
            r = 0.45 + 0.5 * rng.random()
            points.append(cmath.rect(r, 2.0 * math.pi * rng.random()))
        source = fixtures.random_point(rng, 0.2)
        inst = ContourInstance(product, b, tuple(points), source, (seed, 2, i))
        deck.append(partial(contour_op, inst, sizes, tol, bounds))
    return deck


# ---------------------------------------------------------------------------
# identity-batch


# Criterion 2 states outer_exactness as an absolute bound for n <= 50.  Both
# sides of b e^v = b* h have modulus e^v on the circle, so for larger n the
# residual ||b e^v - b* h|| is gated relative to that size, e^{max v}: measured
# at n up to 200 it stays near 2e-14 relative, while e^{max v} reaches 1e6.
OUTER_ABSOLUTE_N_MAX = 50


@dataclass(frozen=True)
class IdentityInstance:
    z: ZeroList
    z_star: ZeroList  # the displaced zeros, shuffled
    max_displacement: float  # of the generating pairing


def identity_op(inst: IdentityInstance, grid: int, tol: dict) -> list:
    failures = []
    pairing = matching.bottleneck_match(inst.z, inst.z_star)
    if pairing.cost > inst.max_displacement + tol["matching_cost"]:
        failures.append(f"match cost {pairing.cost!r} above generating displacement {inst.max_displacement!r}")
    intwin = cauchy.verify_intwin(inst.z, inst.z_star, list(pairing.permutation), n=grid)
    if intwin >= tol["intwin"]:
        failures.append(f"verify_intwin {intwin:.3e}")
    pa, pb = inst.z.expanded_points(), inst.z_star.expanded_points()
    oc = cauchy.outer_correction([(pa[k], pb[j]) for k, j in enumerate(pairing.permutation)], grid)
    scale = 1.0 if inst.z.degree <= OUTER_ABSOLUTE_N_MAX else max(1.0, math.exp(float(oc.v.samples.max())))
    exactness = oc.report.exactness / scale
    if max(exactness, oc.report.functional_sup) >= tol["outer_exactness"]:
        failures.append(
            f"outer exactness {oc.report.exactness:.3e} (over scale {scale:.3e}: {exactness:.3e}),"
            f" functional {oc.report.functional_sup:.3e}"
        )
    mu = carleson.mu_b(inst.z)
    norm = carleson.box_carleson_norm(mu, carleson.suggested_box_depth(mu))
    if not 0.0 < norm < math.inf:
        failures.append(f"box Carleson norm {norm}")
    carleson.interpolation_constant(inst.z)  # gated by not raising
    classes = carleson.separation_split(inst.z, 1.0)
    if sum(c.degree for c in classes) != inst.z.degree:
        failures.append("separation_split lost zeros")
    return failures


def identity_deck(seed: int, tol: dict, bounds: dict, ops: int = 25, n_max: int = 200, grid: int = 4096) -> list[Op]:
    """``ops`` seeded pairs with n uniform in 1..n_max (beta_max 1.0, r_max 0.95).

    n is drawn stratified, one draw from each of ``ops`` equal bands, so each
    n is still uniform while every deck holds the same spread of sizes.
    """
    rng = np.random.default_rng((seed, 3))
    width = n_max // ops
    deck: list[Op] = []
    for k in range(ops):
        n = 1 + k * width + int(rng.integers(0, width))
        za, zb = fixtures.random_matched_pair(rng, n, beta_max=1.0, r_max=0.95)
        pa, pb = za.expanded_points(), zb.expanded_points()
        displacement = float(matching.beta_matrix(pa, pb).diagonal().max())
        shuffled = ZeroList.from_points([pb[j] for j in rng.permutation(len(pb))])
        deck.append(partial(identity_op, IdentityInstance(za, shuffled, displacement), grid, tol))
    return [deck[i] for i in rng.permutation(len(deck))]


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[..., list[Op]]  # (seed, tol, bounds, **sizes) -> deck
    warmup_sizes: dict  # a small deck whose first op is the untimed warm-up
    passes: int  # fewest passes per measured run; each op counts at its median


# Passes are spread over at least 20 s at this commit, so that on a shared
# host each op gets samples from more than one interference phase.  The
# path-certify pass alone takes about 24 s, so it gets two.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("path-certify", path_deck, {"pool": 1}, passes=2),
        Workload(
            "contour-log",
            contour_deck,
            {"ops": 1, "sizes": ContourSizes(walk_samples=500, polyline_walkers=32, points=5)},
            passes=3,
        ),
        Workload("identity-batch", identity_deck, {"ops": 1, "n_max": 10}, passes=4),
    )
}
