"""End-to-end tests of the command-line interface."""

import json

import pytest

from blaschkelab import cli
from blaschkelab.carleson import BOX_NORM_SLACK
from blaschkelab.cli import main


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

    def test_cauchy(self, tmp_path, zeros_file, zeros_star_file):
        code = main(
            ["--out", str(tmp_path), "--grid", "1024", "cauchy", "--zeros", zeros_file, "--zeros-star", zeros_star_file]
        )
        assert code == 0
        doc = json.loads((tmp_path / "cauchy.json").read_text())
        assert doc["intwin_error"] < 1e-8

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
        assert doc["certification"]["eps_vertices"] is None


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
        real = cli.build_path
        monkeypatch.setattr(cli, "build_path", lambda *args, **kwargs: real(*args, max_refinements=1, **kwargs))
        far = _write(
            tmp_path / "far.json",
            {"zeros": [{"re": -0.6, "im": 0.0, "mult": 1}], "lambda": {"re": 1.0, "im": 0.0}, "m": 0},
        )
        code = main(["--out", str(tmp_path), "--grid", "256", "path", "--zeros", zeros_file, "--zeros-star", far])
        assert code == 1
        error = json.loads((tmp_path / "error.json").read_text())["error"]
        assert error["alphas"] == [0.5, 0.25]
        assert len(error["last_failures"]) == 1 and "m0/2" in error["last_failures"][0]

    def test_zero_list_of_wrong_shape_is_input_error(self, tmp_path):
        bare = _write(tmp_path / "bare.json", [{"re": 0.3, "im": 0.0, "mult": 1}])
        assert main(["--out", str(tmp_path), "eval", "--zeros", bare]) == 2

    def test_points_file_of_wrong_shape_is_input_error(self, tmp_path):
        bare = _write(tmp_path / "bare.json", [{"re": 0.1, "im": 0.0}])
        assert main(["--out", str(tmp_path), "geom", "--points", bare]) == 2


class TestDeterminism:
    def test_byte_identical_outputs(self, tmp_path, zeros_file):
        d1, d2 = tmp_path / "a", tmp_path / "b"
        for d in (d1, d2):
            code = main(
                ["--out", str(d), "--seed", "77", "carleson", "--zeros", zeros_file, "--alpha-r", "0.5"]
            )
            assert code == 0
        assert (d1 / "carleson.json").read_bytes() == (d2 / "carleson.json").read_bytes()

    def test_config_hash_stamped(self, tmp_path, zeros_file):
        assert main(["--out", str(tmp_path), "--seed", "5", "carleson", "--zeros", zeros_file]) == 0
        doc = json.loads((tmp_path / "carleson.json").read_text())
        assert doc["config"]["seed"] == 5
        assert len(doc["config_hash"]) == 16
        assert doc["artifact_version"]
