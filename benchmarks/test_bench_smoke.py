"""Smoke test of the benchmark at tiny sizes.

Runs each workload on a one- or two-op deck, untraced and traced, and checks
the output contract, the tracer's clean-up and the answer gates.
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import workloads  # noqa: E402
from blaschkelab import cauchy, fixtures, matching  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())

TINY = {
    "path-certify": {"pool": 1},
    "contour-log": {
        "ops": 1,
        "sizes": workloads.ContourSizes(resolution=128, walk_samples=1000, polyline_walkers=64, points=5),
    },
    "identity-batch": {"ops": 2, "n_max": 10},
}


def tiny(name):
    w = workloads.WORKLOADS[name]
    return replace(w, build=partial(w.build, **TINY[name]))


def names_units(metrics):
    return {k: v["unit"] for k, v in metrics.items()}


def library_bindings():
    """Every (namespace, name) -> object binding the tracer may touch."""
    mods = [m for n, m in sys.modules.items() if n == "blaschkelab" or n.startswith("blaschkelab.")]
    out = {(m.__name__, k): v for m in mods for k, v in vars(m).items()}
    path_step = sys.modules["blaschkelab.pathbuild"].PathStep
    out[("PathStep", "g_interior")] = vars(path_step)["g_interior"]
    return out


@pytest.mark.parametrize("name", sorted(TINY))
def test_every_metric_printed_with_unit(name):
    result = run.measure(tiny(name), seed=3, seconds=0, trace=False)["result"]
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert names_units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())

    before = library_bindings()
    traced = run.measure(tiny(name), seed=3, seconds=0, trace=True)["result"]
    after = library_bindings()
    assert traced["correct"]
    assert names_units(traced["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items()), "a rebound name was not restored"


def test_traced_counts_repeat_and_reach_the_layers():
    runs = [run.measure(tiny("path-certify"), seed=5, seconds=0, trace=True)["result"]["metrics"] for _ in range(2)]
    counts = [{k: v["value"] for k, v in m.items() if v["unit"] == "count/pass"} for m in runs]
    assert counts[0] == counts[1]
    c = counts[0]
    assert c["pathbuild.rounds"] >= c["pathbuild.build_path.calls"] == 2
    assert c["blaschke.evaluate_grid.calls"] > 0 and c["pathbuild.PathStep.g_interior.calls"] > 0
    assert c["pathbuild.certify_path.failed"] >= 1  # the adversarial op


def test_wrong_answer_raises_fail_frac(monkeypatch):
    monkeypatch.setattr(sys.modules["blaschkelab.cauchy"], "verify_intwin", lambda *a, **k: 1.0)
    out = run.measure(tiny("identity-batch"), seed=3, seconds=0, trace=False)
    assert out["report"]["fail_frac"] == 1.0
    assert not out["result"]["correct"]
    assert out["result"]["failed"] == out["result"]["attempted"]


def test_outer_exactness_gate_above_n_50(monkeypatch):
    """Above criterion 2's n <= 50 the residual is gated relative to e^{max v},
    and a residual above the tolerance at that scale still fails the op."""
    tol, _ = run.check_pins()
    rng = np.random.default_rng(3)
    za, zb = fixtures.random_matched_pair(rng, 60, beta_max=1.0, r_max=0.95)
    displacement = float(matching.beta_matrix(za.expanded_points(), zb.expanded_points()).diagonal().max())
    inst = workloads.IdentityInstance(za, zb, displacement)
    assert workloads.identity_op(inst, 4096, tol) == []

    real = cauchy.outer_correction

    def inflated(*args, **kwargs):
        oc = real(*args, **kwargs)
        size = max(1.0, float(np.exp(oc.v.samples.max())))
        return replace(oc, report=replace(oc.report, exactness=10 * tol["outer_exactness"] * size))

    monkeypatch.setattr(cauchy, "outer_correction", inflated)
    [problem] = workloads.identity_op(inst, 4096, tol)
    assert problem.startswith("outer exactness")


def test_adversarial_op_fails_when_it_certifies(monkeypatch):
    pathbuild = sys.modules["blaschkelab.pathbuild"]
    real = pathbuild.certify_path
    monkeypatch.setattr(pathbuild, "certify_path", lambda p, **k: replace(real(p, **k), ok=True))
    deck = tiny("path-certify").build(3, *run.check_pins())
    problems = [run.run_op(op) for op in deck]
    assert ["adversarial one-step path certified"] in problems


def test_refuses_changed_tolerances(monkeypatch):
    monkeypatch.setitem(sys.modules["blaschkelab.config"].DEFAULT_TOLERANCES, "intwin", 1e-6)
    with pytest.raises(run.BenchmarkError, match="pinned"):
        run.measure(tiny("identity-batch"), seed=3, seconds=0, trace=False)


def test_fails_without_the_library(tmp_path):
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "benchmarks", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "contour-log", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
