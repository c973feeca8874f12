"""End-to-end tests of the command-line interface."""

import json
import math

import numpy as np
import pytest

from blaschkelab import blaschke, cauchy, pathbuild
from blaschkelab.blaschke import ZeroList
from blaschkelab.carleson import BOX_NORM_SLACK
from blaschkelab.cli import main
from blaschkelab.config import RunConfig
from blaschkelab.geometry import hyper_distance, pseudo_distance
from blaschkelab.gridfn import circle_nodes
from blaschkelab.matching import bottleneck_match

# interior points whose pseudohyperbolic distance rounds to 1
NEAR_ANTIPODES = (1.0 - 2e-12, -(1.0 - 2e-12))


def _write(path, payload):
    path.write_text(json.dumps(payload))
    return str(path)


@pytest.fixture
def zeros_file(tmp_path):
    return _write(
        tmp_path / "zeros.json",
        {"zeros": [{"re": 0.3, "im": 0.0, "mult": 1}], "lambda": {"re": 1.0, "im": 0.0}, "m": 0},
    )


@pytest.fixture
def zeros_star_file(tmp_path):
    return _write(
        tmp_path / "zeros_star.json",
        {"zeros": [{"re": 0.4, "im": 0.0, "mult": 1}], "lambda": {"re": 1.0, "im": 0.0}, "m": 0},
    )


class TestSubcommands:
    def test_eval(self, tmp_path, zeros_file):
        code = main(["--out", str(tmp_path), "--grid", "256", "eval", "--zeros", zeros_file])
        assert code == 0
        assert (tmp_path / "trace.csv").exists()
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["trace"]["n"] == 256
        assert "config_hash" in doc

    def test_geom(self, tmp_path):
        pts = _write(tmp_path / "pts.json", {"points": [{"re": 0.0, "im": 0.0}, {"re": 0.5, "im": 0.0}]})
        assert main(["--out", str(tmp_path), "geom", "--points", pts]) == 0
        doc = json.loads((tmp_path / "distances.json").read_text())
        assert doc["rho"][0][1] == pytest.approx(0.5)

    def test_geom_equals_the_scalar_distances(self, tmp_path):
        rng = np.random.default_rng(3)
        pts = [complex(z) for z in 0.97 * np.sqrt(rng.random(30)) * np.exp(2j * np.pi * rng.random(30))]
        pts += list(NEAR_ANTIPODES)
        path = _write(tmp_path / "pts.json", {"points": [{"re": z.real, "im": z.imag} for z in pts]})
        assert main(["--out", str(tmp_path), "geom", "--points", path]) == 0
        doc = json.loads((tmp_path / "distances.json").read_text())
        for name, scalar in (("rho", pseudo_distance), ("beta", hyper_distance)):
            got = np.array(doc[name])
            assert np.all(np.diag(got) == 0.0)
            want = np.array([[scalar(z, w) if i != j else 0.0 for j, w in enumerate(pts)] for i, z in enumerate(pts)])
            # the last two points are the near antipodes, where rho rounds to 1
            np.testing.assert_allclose(got[:-2, :-2], want[:-2, :-2], rtol=0.0, atol=1e-15 if name == "rho" else 1e-12)
            np.testing.assert_allclose(got[-2:, -2:], want[-2:, -2:], rtol=1e-15, atol=0.0)

    def test_carleson_separates_near_antipodes(self, tmp_path):
        zeros = {"zeros": [{"re": x, "im": 0.0, "mult": 1} for x in NEAR_ANTIPODES], "lambda": {"re": 1.0, "im": 0.0}, "m": 0}
        path = _write(tmp_path / "zeros.json", zeros)
        # a shallow box norm: the suggested depth (40) is not what this test is about
        assert main(["--out", str(tmp_path), "carleson", "--zeros", path, "--depth", "4", "--sep", "1.0"]) == 0
        doc = json.loads((tmp_path / "carleson.json").read_text())
        assert len(doc["separation_classes"]) == 1

    def test_carleson(self, tmp_path, zeros_file):
        code = main(
            ["--out", str(tmp_path), "carleson", "--zeros", zeros_file, "--sep", "1.0", "--alpha-r", "0.5"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "carleson.json").read_text())
        assert doc["interpolation_constant"] == 1.0
        assert doc["box_norm"] > 0
        assert doc["slack_constant"] == BOX_NORM_SLACK
        assert "slack_constant" not in doc["config"]
        # one zero at 0.3: the region is {rho(z, 0.3) > tanh(1/4)}, whose infimum of |b| is tanh(1/4)
        alpha = doc["alpha_b"]
        assert sorted(alpha) == ["lower", "r", "value"] and alpha["r"] == 0.5
        assert alpha["lower"] <= math.tanh(0.25) <= alpha["value"] + 4.0 * math.ulp(alpha["value"])

    def test_cauchy(self, tmp_path, zeros_file, zeros_star_file):
        code = main(
            ["--out", str(tmp_path), "--grid", "1024", "cauchy", "--zeros", zeros_file, "--zeros-star", zeros_star_file]
        )
        assert code == 0
        doc = json.loads((tmp_path / "cauchy.json").read_text())
        assert doc["intwin_error"] < 1e-8

    def test_cauchy_evaluates_each_trace_once(self, tmp_path, monkeypatch, zeros_file, zeros_star_file):
        # the identity check and the outer correction share C(sigma) and the traces
        counts = {"evaluate_grid": 0, "cauchy_on_circle": 0}
        for module, name in ((blaschke, "evaluate_grid"), (cauchy, "cauchy_on_circle")):

            def wrapper(*args, _original=getattr(module, name), _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)
        args = ["--out", str(tmp_path), "--grid", "1024", "cauchy", "--zeros", zeros_file, "--zeros-star", zeros_star_file]
        assert main(args) == 0
        assert counts == {"evaluate_grid": 2, "cauchy_on_circle": 1}

    def test_match(self, tmp_path, zeros_file, zeros_star_file):
        code = main(["--out", str(tmp_path), "match", "--zeros", zeros_file, "--zeros-star", zeros_star_file])
        assert code == 0
        doc = json.loads((tmp_path / "pairing.json").read_text())
        assert doc["pairing"]["perm"] == [0]

    def test_path_certifies(self, tmp_path, zeros_file, zeros_star_file):
        code = main(
            ["--out", str(tmp_path), "--grid", "1024", "path", "--zeros", zeros_file, "--zeros-star", zeros_star_file]
        )
        assert code == 0
        doc = json.loads((tmp_path / "path.json").read_text())
        assert doc["certification"]["ok"] is True
        header, *rows = (tmp_path / "path_moduli.csv").read_text().splitlines()
        assert header == "segment,min_modulus,max_modulus"
        assert [int(row.split(",")[0]) for row in rows] == list(range(len(doc["step_norms"])))
        for row, norm in zip(rows, doc["step_norms"]):
            _, low, high = (float(x) for x in row.split(","))
            # |A| = |b_t| = 1 on the circle and |B - A| <= the step norm
            assert 1.0 - norm - 1e-12 <= low <= 1.0 <= high <= 1.0 + norm + 1e-12
        header, *rows = (tmp_path / "path_margins.csv").read_text().splitlines()
        assert header == "segment,group,margin,slack,count,expected"
        assert [row.split(",") for row in rows] == [
            [str(c["segment"]), str(c["group"]), repr(c["margin"]), repr(c["slack"]), str(c["count"]), str(c["expected"])]
            for c in doc["certification"]["checks"]
        ]
        assert all(0.0 < c["slack"] <= c["margin"] for c in doc["certification"]["checks"])

    @pytest.mark.parametrize(
        "points",
        [
            ([0.3], [0.4]),
            ([0.3, -0.2 + 0.4j, 0.5 - 0.1j, -0.45j], [0.35 + 0.05j, -0.25 + 0.35j, 0.45 - 0.2j, -0.1 - 0.4j]),
        ],
    )
    def test_path_moduli_equal_the_segment_distances(self, tmp_path, points):
        # the boundary moduli of f_s = A + s (B - A), A = b_{t_j} and
        # B = b_{t_{j+1}} g, by both traces: min dist(0, [A, B]) and max(|A|, |B|)
        files = [
            _write(tmp_path / f"{name}.json", ZeroList.from_points(p).to_json())
            for name, p in zip(("zeros", "zeros_star"), points)
        ]
        assert main(["--out", str(tmp_path), "--grid", "1024", "path", "--zeros", files[0], "--zeros-star", files[1]]) == 0
        za, zb = (ZeroList.from_points(p) for p in points)
        pts = zb.expanded_points()
        zb_ord = ZeroList.from_points([pts[j] for j in bottleneck_match(za, zb).permutation])
        path = pathbuild.build_path(za, zb_ord, n_grid=1024)
        assert json.loads((tmp_path / "path.json").read_text())["step_norms"] == [s.step_norm for s in path.steps]
        header, *rows = (tmp_path / "path_moduli.csv").read_text().splitlines()
        assert len(rows) == len(path.steps) > 1
        nodes = circle_nodes(1024)
        for row, (j, step) in zip(rows, enumerate(path.steps)):
            a = blaschke.eval_boundary(path.vertices[j].zeros_t, 1024).samples
            b = blaschke.eval_boundary(path.vertices[j + 1].zeros_t, 1024).samples * step.g_interior(nodes)
            d, dd = b - a, np.abs(b - a) ** 2
            t = np.clip((-a * np.conj(d)).real / np.where(dd > 0.0, dd, 1.0), 0.0, 1.0)  # where B = A: |A|
            low, high = np.abs(a + t * d).min(), np.maximum(np.abs(a), np.abs(b)).max()
            got = [float(x) for x in row.split(",")]
            assert got[0] == j
            assert abs(got[1] - low) <= 1e-12 and abs(got[2] - high) <= 1e-12

    def test_contour(self, tmp_path, zeros_file):
        code = main(
            ["--out", str(tmp_path), "contour", "--zeros", zeros_file, "--level", "0.4", "--resolution", "200"]
        )
        assert code == 0
        doc = json.loads((tmp_path / "contours.json").read_text())
        assert len(doc["curves"]) == 1

    def test_fixtures(self, tmp_path):
        for name in ("singular-shift", "geometric", "staged", "adversarial"):
            assert main(["--out", str(tmp_path), "fixtures", "--name", name, "--n", "5", "--span", "3"]) == 0
        assert (tmp_path / "fixture_geometric.json").exists()


    def test_path_without_zeros_writes_standard_json(self, tmp_path):
        empty = _write(tmp_path / "empty.json", {"zeros": [], "lambda": {"re": 1.0, "im": 0.0}, "m": 0})
        code = main(["--out", str(tmp_path), "--grid", "256", "path", "--zeros", empty, "--zeros-star", empty])
        assert code == 0

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        doc = json.loads((tmp_path / "path.json").read_text(), parse_constant=reject)
        assert doc["certification"]["ok"] is True
        assert doc["certification"]["eps_observed"] is None
        assert doc["certification"]["eps_certified"] is None


class TestExitCodes:
    def test_match_size_mismatch_is_input_error(self, tmp_path, zeros_file):
        two = _write(
            tmp_path / "two.json",
            {
                "zeros": [{"re": 0.3, "im": 0.0, "mult": 1}, {"re": 0.1, "im": 0.2, "mult": 1}],
                "lambda": {"re": 1.0, "im": 0.0},
                "m": 0,
            },
        )
        assert main(["--out", str(tmp_path), "match", "--zeros", zeros_file, "--zeros-star", two]) == 2

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["--out", str(tmp_path), "eval", "--zeros", str(tmp_path / "absent.json")]) == 2

    def test_bad_grid_is_config_error(self, tmp_path, zeros_file):
        assert main(["--out", str(tmp_path), "--grid", "100", "eval", "--zeros", zeros_file]) == 2

    def test_adversarial_path_fails_certification(self, tmp_path):
        assert main(["--out", str(tmp_path), "fixtures", "--name", "adversarial"]) == 0
        doc = json.loads((tmp_path / "fixture_adversarial.json").read_text())
        za = _write(tmp_path / "za.json", doc["zeros"])
        zs = _write(tmp_path / "zs.json", doc["zeros_star"])
        code = main(
            ["--out", str(tmp_path), "--grid", "512", "path", "--zeros", za, "--zeros-star", zs, "--alpha", "3.5"]
        )
        assert code == 1
        report = json.loads((tmp_path / "path.json").read_text())
        assert report["certification"]["ok"] is False
        assert report["certification"]["failures"]

    def test_unresolved_level_set_writes_error_report(self, tmp_path, zeros_file):
        code = main(["--out", str(tmp_path), "contour", "--zeros", zeros_file, "--level", "0.01", "--resolution", "8"])
        assert code == 1
        doc = json.loads((tmp_path / "error.json").read_text())
        assert doc["error"]["type"] == "AmbiguousTopologyError"
        assert "config_hash" in doc

    def test_unpartitionable_path_writes_error_report(self, tmp_path, zeros_file):
        edge = _write(
            tmp_path / "edge.json",
            {"zeros": [{"re": 0.9999999, "im": 0.0, "mult": 1}], "lambda": {"re": 1.0, "im": 0.0}, "m": 0},
        )
        code = main(["--out", str(tmp_path), "--grid", "256", "path", "--zeros", zeros_file, "--zeros-star", edge])
        assert code == 1
        doc = json.loads((tmp_path / "error.json").read_text())
        assert doc["error"]["type"] == "RefinementExhaustedError"
        assert "no partition" in doc["error"]["message"]

    def test_halving_exhaustion_reports_alphas(self, tmp_path, monkeypatch, zeros_file):
        monkeypatch.setattr(pathbuild, "_MAX_REFINEMENTS", 1)
        far = _write(
            tmp_path / "far.json",
            {"zeros": [{"re": -0.6, "im": 0.0, "mult": 1}], "lambda": {"re": 1.0, "im": 0.0}, "m": 0},
        )
        code = main(["--out", str(tmp_path), "--grid", "256", "path", "--zeros", zeros_file, "--zeros-star", far])
        assert code == 1
        error = json.loads((tmp_path / "error.json").read_text())["error"]
        assert error["alphas"] == [0.5, 0.25]
        assert len(error["last_failures"]) == 1 and "m0/2" in error["last_failures"][0]

    @pytest.mark.parametrize(
        "override", ["intwn=1e-3", "intwin=nan", "intwin=inf", "intwin=-1"], ids=["unknown", "nan", "inf", "negative"]
    )
    def test_bad_tolerance_is_config_error(self, tmp_path, zeros_file, override):
        out = tmp_path / "out"
        assert main(["--out", str(out), "--tol", override, "eval", "--zeros", zeros_file]) == 2
        assert not out.exists()

    def test_nan_alpha_is_input_error(self, tmp_path, zeros_file, zeros_star_file):
        args = ["path", "--zeros", zeros_file, "--zeros-star", zeros_star_file, "--alpha", "nan"]
        code = main(["--out", str(tmp_path), "--grid", "256", *args])
        assert code == 2
        assert not (tmp_path / "error.json").exists()

    @pytest.mark.parametrize("flag", ["--sep", "--alpha-r"])
    def test_nan_carleson_threshold_is_input_error(self, tmp_path, flag):
        points = [(0.3, 0.0), (0.31, 0.0), (-0.5, 0.1)]
        zeros = [{"re": x, "im": y, "mult": 1} for x, y in points]
        payload = {"zeros": zeros, "lambda": {"re": 1.0, "im": 0.0}, "m": 0}
        path = _write(tmp_path / "three.json", payload)
        out = tmp_path / "out"
        assert main(["--out", str(out), "carleson", "--zeros", path, flag, "nan"]) == 2
        assert not (out / "carleson.json").exists()

    @pytest.mark.parametrize("resolution", ["0", "1"])
    def test_gridless_contour_resolution_is_input_error(self, tmp_path, zeros_file, resolution):
        args = ["contour", "--zeros", zeros_file, "--level", "0.4", "--resolution", resolution]
        code = main(["--out", str(tmp_path), *args])
        assert code == 2
        assert not (tmp_path / "error.json").exists()

    def test_zero_list_of_wrong_shape_is_input_error(self, tmp_path):
        bare = _write(tmp_path / "bare.json", [{"re": 0.3, "im": 0.0, "mult": 1}])
        assert main(["--out", str(tmp_path), "eval", "--zeros", bare]) == 2

    @pytest.mark.parametrize("points", [[1.0 - 1e-12], [0.2, 1.0 - 1e-12], [0.3j, 1.5]])
    def test_geom_point_on_or_past_the_guard_is_input_error(self, tmp_path, points):
        path = _write(tmp_path / "pts.json", {"points": [{"re": complex(z).real, "im": complex(z).imag} for z in points]})
        assert main(["--out", str(tmp_path), "geom", "--points", path]) == 2
        assert not (tmp_path / "distances.json").exists()

    def test_points_file_of_wrong_shape_is_input_error(self, tmp_path):
        bare = _write(tmp_path / "bare.json", [{"re": 0.1, "im": 0.0}])
        assert main(["--out", str(tmp_path), "geom", "--points", bare]) == 2

    @pytest.mark.parametrize(
        "command, zeros, lam",
        [("eval", math.nan, 1.0), ("match", math.nan, 1.0), ("carleson", 0.3, math.nan), ("match", 0.3, math.nan)],
        ids=["eval-nan-zero", "match-nan-zero", "carleson-nan-lambda", "match-nan-lambda"],
    )
    def test_nan_in_a_zeros_file_is_input_error(self, tmp_path, command, zeros, lam):
        payload = {"zeros": [{"re": zeros, "im": 0.0, "mult": 1}], "lambda": {"re": lam, "im": 0.0}, "m": 0}
        path = _write(tmp_path / "nan.json", payload)
        args = ["--zeros", path] + (["--zeros-star", path] if command == "match" else [])
        out = tmp_path / "out"
        assert main(["--out", str(out), "--grid", "256", command, *args]) == 2
        assert list(out.iterdir()) == []

    def test_path_functional_tolerance_is_read(self, tmp_path, zeros_file, zeros_star_file):
        args = ["path", "--zeros", zeros_file, "--zeros-star", zeros_star_file]
        code = main(["--out", str(tmp_path), "--grid", "1024", "--tol", "path_functional=1e-30", *args])
        assert code == 1
        error = json.loads((tmp_path / "error.json").read_text())["error"]
        assert error["type"] == "RefinementExhaustedError"
        assert "accumulated conjugation functional" in error["message"]
        assert not (tmp_path / "path.json").exists()

    def test_outer_functional_tolerance_is_read(self, tmp_path, zeros_file, zeros_star_file):
        args = ["cauchy", "--zeros", zeros_file, "--zeros-star", zeros_star_file]
        assert main(["--out", str(tmp_path), "--grid", "1024", *args]) == 0
        residual = json.loads((tmp_path / "cauchy.json").read_text())["outer"]["conjugation_residual"]
        assert 0.0 < residual
        override = f"outer_functional={residual}"
        assert main(["--out", str(tmp_path), "--grid", "1024", "--tol", override, *args]) == 1

    def test_outer_functional_tolerance_loosens_the_residual_guard(self, tmp_path):
        # at 0.92 -> 0.925 on 256 points the conjugation residual is about 4.5e-6,
        # above the 1e-6 floor of the guard but below the stamped 1e-4
        unit = {"re": 1.0, "im": 0.0}
        files = [
            _write(tmp_path / f"{name}.json", {"zeros": [{"re": x, "im": 0.0, "mult": 1}], "lambda": unit, "m": 0})
            for name, x in (("z", 0.92), ("z_star", 0.925))
        ]
        args = ["cauchy", "--zeros", files[0], "--zeros-star", files[1]]
        out = tmp_path / "out"
        assert main(["--out", str(out), "--grid", "256", "--tol", "outer_functional=1e-4", *args]) == 0
        residual = json.loads((out / "cauchy.json").read_text())["outer"]["conjugation_residual"]
        assert 1e-6 < residual < 1e-4
        assert main(["--out", str(tmp_path / "default"), "--grid", "256", *args]) == 1


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path, zeros_file):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            code = main(
                ["--out", str(d), "--seed", "77", "carleson", "--zeros", zeros_file, "--alpha-r", "0.5"]
            )
            assert code == 0
        assert (d1 / "carleson.json").read_bytes() == (d2 / "carleson.json").read_bytes()

    def test_tolerance_override_stamped(self, tmp_path, zeros_file):
        assert main(["--out", str(tmp_path), "--tol", "intwin=1e-3", "eval", "--zeros", zeros_file]) == 0
        doc = json.loads((tmp_path / "trace.json").read_text())
        assert doc["config"]["tolerances"]["intwin"] == 1e-3
        assert doc["config_hash"] != RunConfig().config_hash()

    def test_default_config_hash_unchanged(self):
        assert RunConfig().config_hash() == "755bd69deba26acd"

    def test_config_hash_stamped(self, tmp_path, zeros_file):
        assert main(["--out", str(tmp_path), "--seed", "5", "carleson", "--zeros", zeros_file]) == 0
        doc = json.loads((tmp_path / "carleson.json").read_text())
        assert doc["config"]["seed"] == 5
        assert len(doc["config_hash"]) == 16
        assert doc["artifact_version"]
