"""Command-line front end.

Every subcommand reads JSON inputs, writes JSON/CSV outputs stamped with the
config hash, and returns exit code 0 (all checks passed), 1 (a verification
failed; details in the report, or in ``error.json`` when the computation
stopped before it could verify its result) or 2 (input or configuration
error).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import acceptance
from .blaschke import SingularShiftSpec, ZeroList, eval_boundary, singular_shift_zeros
from .carleson import BOX_NORM_SLACK, alpha_b, box_carleson_norm, interpolation_constant, mu_b
from .carleson import separation_split, suggested_box_depth
from .cauchy import outer_correction, verify_intwin
from .config import RunConfig
from .contours import arclength_carleson_norm, level_set_components, split_zeros_by_contour
from .errors import VerificationError
from .fixtures import adversarial_pair, geometric_zeros, staged_measure
from .geometry import beta_matrix, interior_value, rho_matrix
from .gridfn import circle_nodes
from .matching import bottleneck_match, pairing_diagnostics
from .pathbuild import SEGMENT_S_SAMPLES, build_path, certify_path


def _write_json(path: Path, config: RunConfig, payload: dict) -> None:
    doc = dict(config.stamp())
    doc.update(payload)
    path.write_text(json.dumps(doc, sort_keys=True, indent=1, allow_nan=False) + "\n")


def _bound_or_null(value: float) -> float | None:
    """An unbounded margin (nothing to certify) is written as JSON null."""
    return value if math.isfinite(value) else None


def _load_zeros(path: str) -> ZeroList:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return ZeroList.from_json(data)
    except (TypeError, KeyError) as exc:
        raise ValueError(f"{path} is not a zero list ({type(exc).__name__}: {exc})") from exc


def _cmd_eval(args, config: RunConfig, out: Path) -> int:
    zeros = _load_zeros(args.zeros)
    trace = eval_boundary(zeros, config.grid_size)
    trace.write_csv(out / "trace.csv")
    _write_json(out / "trace.json", config, {"trace": trace.to_json()})
    print(f"boundary trace on {config.grid_size} nodes -> {out / 'trace.csv'}")
    return 0


def _cmd_geom(args, config: RunConfig, out: Path) -> int:
    with open(args.points) as fh:
        data = json.load(fh)
    try:
        pts = [interior_value(complex(p["re"], p["im"])) for p in data["points"]]
    except (TypeError, KeyError) as exc:
        raise ValueError(f"{args.points} is not a points file ({type(exc).__name__}: {exc})") from exc
    payload = {"rho": rho_matrix(pts, pts).tolist(), "beta": beta_matrix(pts, pts).tolist()}
    _write_json(out / "distances.json", config, payload)
    print(f"pairwise distances for {len(pts)} points -> {out / 'distances.json'}")
    return 0


def _cmd_carleson(args, config: RunConfig, out: Path) -> int:
    zeros = _load_zeros(args.zeros)
    measure = mu_b(zeros)
    depth = args.depth if args.depth is not None else suggested_box_depth(measure)
    payload: dict = {
        "mu_b": measure.to_json(),
        "box_norm": box_carleson_norm(measure, depth),
        "box_depth": depth,
        "slack_constant": BOX_NORM_SLACK,
    }
    if all(k == 1 for _, k in zeros.zeros) and zeros.m <= 1:
        const = interpolation_constant(zeros)
        payload["interpolation_constant"] = const.value
        payload["degenerate"] = const.degenerate
    if args.sep is not None:
        classes = separation_split(zeros, args.sep)
        payload["separation_classes"] = [c.to_json() for c in classes]
    if args.alpha_r is not None:
        est = alpha_b(zeros, args.alpha_r)
        payload["alpha_b"] = {"value": est.value, "r": est.r, "cell_beta": est.cell_beta, "samples": est.n_samples}
    _write_json(out / "carleson.json", config, payload)
    print(f"carleson report -> {out / 'carleson.json'}")
    return 0


def _cmd_cauchy(args, config: RunConfig, out: Path) -> int:
    b = _load_zeros(args.zeros)
    b_star = _load_zeros(args.zeros_star)
    err = verify_intwin(b, b_star, n=config.grid_size)
    pairs = list(zip(b.expanded_points(), b_star.expanded_points()))
    functional_tol = config.tolerances["outer_functional"]
    # a looser stamped tolerance also loosens the conjugation-residual guard
    oc = outer_correction(pairs, config.grid_size, residual_tol=max(1e-6, functional_tol))
    oc.h.write_csv(out / "outer_h.csv")
    oc.v.write_csv(out / "outer_v.csv")
    tol = config.tolerances["intwin"]
    _write_json(
        out / "cauchy.json",
        config,
        {
            "intwin_error": err,
            "intwin_tolerance": tol,
            "outer": {
                "sup_v": oc.report.sup_v,
                "conjugation_residual": oc.report.conjugation_residual,
                "closeness": oc.report.closeness,
                "exactness": oc.report.exactness,
            },
        },
    )
    print(
        f"identity error {err:.3e} (tolerance {tol:.0e}), conjugation functional "
        f"{oc.report.functional_sup:.3e} (tolerance {functional_tol:.0e}) -> {out / 'cauchy.json'}"
    )
    return 0 if err < tol and oc.report.functional_sup < functional_tol else 1


def _cmd_match(args, config: RunConfig, out: Path) -> int:
    z = _load_zeros(args.zeros)
    z_star = _load_zeros(args.zeros_star)
    pairing = bottleneck_match(z, z_star)
    diag = pairing_diagnostics(pairing, z, z_star)
    _write_json(
        out / "pairing.json",
        config,
        {
            "pairing": pairing.to_json(),
            "displacements": list(diag.displacements),
            "histogram": {"counts": list(diag.histogram_counts), "edges": list(diag.histogram_edges)},
            "path_measure": diag.path.to_json(),
        },
    )
    print(f"bottleneck cost {pairing.cost:.6f} -> {out / 'pairing.json'}")
    return 0


def _cmd_path(args, config: RunConfig, out: Path) -> int:
    z = _load_zeros(args.zeros)
    z_star = _load_zeros(args.zeros_star)
    pairing = bottleneck_match(z, z_star)
    pts = z_star.expanded_points()
    z_star_ordered = ZeroList.from_points([pts[j] for j in pairing.permutation])
    path = build_path(
        z,
        z_star_ordered,
        alpha=args.alpha,
        n_grid=config.grid_size,
        functional_tol=config.tolerances["path_functional"],
    )
    report = path.certification or certify_path(path)
    path.certification = report
    _write_json(
        out / "path.json",
        config,
        {
            "vertices": [
                {"t": v.t, "zeros": v.zeros_t.to_json(), "outer_log": v.outer_log.to_json()}
                for v in path.vertices
            ],
            "step_norms": [s.step_norm for s in path.steps],
            "functional_sup": path.functional_sup,
            "certification": {
                "ok": report.ok,
                "eps_observed": _bound_or_null(report.eps_observed),
                "eps_vertices": _bound_or_null(report.eps_vertices),
                "failures": list(report.failures),
                "checks": [
                    {
                        "segment": c.segment,
                        "s": c.s,
                        "group": c.group,
                        "margin": c.margin,
                        "count": c.count,
                        "expected": c.expected,
                    }
                    for c in report.checks
                ],
            },
        },
    )
    # plot data: contour margins per (segment, s) and boundary moduli of the
    # segment functions at the certification s-samples
    with open(out / "path_margins.csv", "w") as fh:
        fh.write("segment,s,group,margin,count,expected\n")
        for c in report.checks:
            fh.write(f"{c.segment},{c.s!r},{c.group},{c.margin!r},{c.count},{c.expected}\n")
    with open(out / "path_moduli.csv", "w") as fh:
        fh.write("segment,s,min_modulus,max_modulus\n")
        nodes = circle_nodes(config.grid_size)
        for j, step in enumerate(path.steps):
            from_trace = eval_boundary(path.vertices[j].zeros_t, config.grid_size).samples
            to_trace = eval_boundary(path.vertices[j + 1].zeros_t, config.grid_size).samples * step.g_interior(nodes)
            for s in SEGMENT_S_SAMPLES:
                mods = np.abs(from_trace + s * (to_trace - from_trace))
                fh.write(f"{j},{s!r},{float(mods.min())!r},{float(mods.max())!r}\n")
    status = "certified" if report.ok else "CERTIFICATION FAILED"
    print(f"path with {len(path.vertices)} vertices: {status} -> {out / 'path.json'}")
    return 0 if report.ok else 1


def _cmd_contour(args, config: RunConfig, out: Path) -> int:
    zeros = _load_zeros(args.zeros)
    curves = level_set_components(zeros, args.level, resolution=args.resolution)
    deep, shallow = split_zeros_by_contour(zeros, curves)
    with open(out / "contour_points.csv", "w") as fh:
        fh.write("component,re,im\n")
        for c in curves:
            for p in c.points:
                fh.write(f"{c.component_id},{p.real!r},{p.imag!r}\n")
    _write_json(
        out / "contours.json",
        config,
        {
            "level": args.level,
            "curves": [c.to_json() for c in curves],
            "arclength_box_norm": arclength_carleson_norm(curves),
            "deep_zeros": deep.to_json(),
            "shallow_zeros": shallow.to_json(),
        },
    )
    print(f"{len(curves)} level-set components at |b| = {args.level} -> {out / 'contours.json'}")
    return 0


def _cmd_fixtures(args, config: RunConfig, out: Path) -> int:
    rng_note = {"seed": config.seed}
    if args.name == "singular-shift":
        zl = singular_shift_zeros(SingularShiftSpec(args.alpha, -args.span, args.span))
        _write_json(out / "fixture_singular_shift.json", config, {"zeros": zl.to_json(), **rng_note})
    elif args.name == "geometric":
        _write_json(out / "fixture_geometric.json", config, {"zeros": geometric_zeros(args.n).to_json()})
    elif args.name == "staged":
        _write_json(out / "fixture_staged.json", config, {"measure": staged_measure().to_json()})
    elif args.name == "adversarial":
        za, zs = adversarial_pair()
        _write_json(out / "fixture_adversarial.json", config, {"zeros": za.to_json(), "zeros_star": zs.to_json()})
    else:
        raise ValueError(f"unknown fixture {args.name!r}")
    print(f"fixture {args.name} -> {out}")
    return 0


def _cmd_acceptance(args, config: RunConfig, out: Path) -> int:
    results = acceptance.run_all(config)
    _write_json(out / "acceptance.json", config, {"checks": [r.to_json() for r in results]})
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed -> {out / 'acceptance.json'}")
    return 0 if not failed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blaschkelab",
        description="Blaschke products, Carleson measures, Cauchy transforms and certified polygonal paths",
    )
    parser.add_argument("--grid", type=int, default=4096, help="circle grid size (power of two >= 256)")
    parser.add_argument("--tol", action="append", default=[], metavar="NAME=VALUE", help="override a named tolerance")
    parser.add_argument("--seed", type=int, default=12345, help="seed for all Monte Carlo sampling")
    parser.add_argument("--out", type=str, default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="boundary trace of a zero list")
    p.add_argument("--zeros", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("geom", help="pairwise disk distances")
    p.add_argument("--points", required=True)
    p.set_defaults(func=_cmd_geom)

    p = sub.add_parser("carleson", help="measure norms, interpolation constant, splits")
    p.add_argument("--zeros", required=True)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--sep", type=float, default=None, help="separation split threshold")
    p.add_argument("--alpha-r", type=float, default=None, help="evaluate the modulus infimum at this radius")
    p.set_defaults(func=_cmd_carleson)

    p = sub.add_parser("cauchy", help="product identity and outer correction")
    p.add_argument("--zeros", required=True)
    p.add_argument("--zeros-star", required=True)
    p.set_defaults(func=_cmd_cauchy)

    p = sub.add_parser("match", help="bottleneck zero matching")
    p.add_argument("--zeros", required=True)
    p.add_argument("--zeros-star", required=True)
    p.set_defaults(func=_cmd_match)

    p = sub.add_parser("path", help="build and certify a polygonal path")
    p.add_argument("--zeros", required=True)
    p.add_argument("--zeros-star", required=True)
    p.add_argument("--alpha", type=float, default=None, help="fixed step size (default: auto-refine)")
    p.set_defaults(func=_cmd_path)

    p = sub.add_parser("contour", help="level-set components and zero splitting")
    p.add_argument("--zeros", required=True)
    p.add_argument("--level", type=float, required=True)
    p.add_argument("--resolution", type=int, default=512)
    p.set_defaults(func=_cmd_contour)

    p = sub.add_parser("fixtures", help="write shipped fixtures")
    p.add_argument("--name", required=True, choices=["singular-shift", "geometric", "staged", "adversarial"])
    p.add_argument("--alpha", type=complex, default=math.exp(-1.0))
    p.add_argument("--span", type=int, default=50)
    p.add_argument("--n", type=int, default=20)
    p.set_defaults(func=_cmd_fixtures)

    p = sub.add_parser("acceptance", help="run the full acceptance battery")
    p.set_defaults(func=_cmd_acceptance)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        tol_overrides = {}
        for item in args.tol:
            name, _, value = item.partition("=")
            tol_overrides[name] = float(value)
        config = RunConfig(grid_size=args.grid, tolerances=tol_overrides, seed=args.seed)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        try:
            return args.func(args, config, out)
        except VerificationError as exc:
            _write_json(out / "error.json", config, {"error": exc.to_json()})
            print(f"verification failed: {exc} -> {out / 'error.json'}", file=sys.stderr)
            return 1
    except (ValueError, OSError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
