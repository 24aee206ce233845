"""Self-tests of the benchmark: tracer robustness and output checks.

Run from the repository root with ``python3 -m pytest -q gfbench``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import run  # noqa: E402
from checks import CheckError  # noqa: E402
from tracer import Tracer  # noqa: E402


# ---------------------------------------------------------------------------
# tracer


def _fake_package(monkeypatch, name="fakegf"):
    """A package with two of the traced layers; every other target is missing."""
    gasket = types.ModuleType(f"{name}.gasket")

    def build_level(n, m):
        time.sleep(0.001)
        return (n, m)

    gasket.build_level = build_level
    cli = types.ModuleType(f"{name}.cli")

    def main(argv=None):
        cli.build_level(3, 2)  # the by-name import the tracer must reach
        return 0

    cli.main = main
    cli.build_level = build_level
    package = types.ModuleType(name)
    package.build_level = build_level
    for mod in (package, gasket, cli):
        monkeypatch.setitem(sys.modules, mod.__name__, mod)
    return package, gasket, cli


def test_missing_target_is_reported_not_fatal(monkeypatch):
    package, gasket, cli = _fake_package(monkeypatch)
    tracer = Tracer(package="fakegf")
    tracer.install()
    assert cli.main() == 0
    summary = tracer.summary()
    assert "measure.vertex_measure" in summary["missing"]
    assert "flow.evolve" in summary["missing"]
    assert "robin.BoundaryFunctional.prox" in summary["missing"]
    assert "gasket.build_level" not in summary["missing"]
    assert summary["counts"]["gasket.build_level.misses"] == 1


def test_every_binding_is_patched(monkeypatch):
    package, gasket, cli = _fake_package(monkeypatch)
    tracer = Tracer(package="fakegf")
    tracer.install()
    assert package.build_level is gasket.build_level is cli.build_level
    cli.main()
    package.build_level(3, 1)
    summary = tracer.summary()
    assert summary["calls"] == {"cli.main": 1, "gasket.build_level": 2}
    assert summary["spans"] == 3


def test_self_times_nonnegative_and_within_wall(monkeypatch):
    _, _, cli = _fake_package(monkeypatch)
    tracer = Tracer(package="fakegf")
    tracer.install()
    start = time.perf_counter()
    for _ in range(3):
        cli.main()
    wall = time.perf_counter() - start
    summary = tracer.summary()
    assert summary["min_self_s"] >= 0.0
    assert sum(summary["self_s"].values()) <= wall
    assert summary["self_s"]["gasket.build_level"] >= 0.003


def test_traced_child_self_times_within_wall(tmp_path):
    """A real traced CLI run: self times add up to at most its wall time."""
    config = {
        "N": 3, "m": 4, "spec": [{"kind": "power", "beta": 2.0, "p": 3.0}, "neumann", "dirichlet"],
        "tau": 0.1, "t_end": 0.5, "u0": {"kind": "harmonic", "boundary": [1.0, -0.5, 0.25]},
    }
    (tmp_path / "c.json").write_text(json.dumps(config))
    op = {
        "kind": "cli",
        "argv": ["evolve", "--config", str(tmp_path / "c.json"), "--out", str(tmp_path / "out")],
        "src": str(run.SRC),
    }
    (tmp_path / "op.json").write_text(json.dumps(op))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, str(HERE / "child.py"), str(tmp_path / "op.json"),
         str(tmp_path / "r.json"), "--trace"],
        env=run.child_env(), check=True, timeout=120,
    )
    wall = time.perf_counter() - start
    trace = json.loads((tmp_path / "r.json").read_text())["trace"]
    assert trace["missing"] == []
    assert trace["min_self_s"] >= 0.0
    assert sum(trace["self_s"].values()) <= trace["top_level_s"] + 1e-9 <= wall
    assert trace["counts"]["flow.steps"] == 5
    assert trace["counts"]["robin.prox.calls"] > 0
    assert trace["calls"]["energy.harmonic_extend"] == 4


@pytest.mark.parametrize("workload", ["verify-flow", "evolve-cli"])
def test_counts_repeat_between_traced_runs(tmp_path, workload):
    operation = run.Operation(workload, 7, tmp_path)
    first = operation.run(trace=True)
    second = operation.run(trace=True)
    assert first["ok"] and second["ok"], (first.get("error"), second.get("error"))
    assert run.repeated_counts(first) == run.repeated_counts(second)
    counts = run.repeated_counts(first)
    assert all(counts[k] > 0 for k in run.REPEATED_COUNTS)


# ---------------------------------------------------------------------------
# output checks


@pytest.fixture(scope="module")
def small_evolve(tmp_path_factory):
    """A real CLI trajectory at N=3, m=4 with the evolve-cli spec."""
    from gasketflow.cli import main

    tmp = tmp_path_factory.mktemp("evolve")
    op = run.make_op("evolve-cli", 0, tmp)
    op["config"].update(m=4)
    (tmp / "evolve.json").write_text(json.dumps(op["config"]))
    assert main(op["argv"]) == 0
    return op


def _rewrite(op, edit):
    path = Path(op["out"]) / "trajectory.csv"
    original = path.read_text()
    header, data = checks.read_csv(path)
    edit(data)
    rows = [",".join(header)] + [",".join(repr(float(x)) for x in row) for row in data]
    path.write_text("\n".join(rows) + "\n")
    return path, original


def test_checker_accepts_real_trajectory(small_evolve):
    summary = checks.check_evolve_cli(small_evolve, {})
    checks.compare_reference(summary, summary)


@pytest.mark.parametrize(
    "edit",
    [
        lambda d: d.__setitem__((5, 1), 0.9),  # p_3 leaves the box [-0.2, 0.5]
        lambda d: d.__setitem__((-1, 7), 5.0),  # sup norm grows
        lambda d: d.__setitem__((3, 3), np.nan),
        lambda d: d.__setitem__((2, 0), 0.5),  # time grid
    ],
    ids=["box", "sup-norm", "nan", "time"],
)
def test_checker_rejects_perturbed_trajectory(small_evolve, edit):
    path, original = _rewrite(small_evolve, edit)
    try:
        with pytest.raises(CheckError):
            checks.check_evolve_cli(small_evolve, {})
    finally:
        path.write_text(original)


def test_checker_rejects_truncated_trajectory(small_evolve):
    path = Path(small_evolve["out"]) / "trajectory.csv"
    original = path.read_text()
    path.write_text("".join(original.splitlines(keepends=True)[:-1]))
    try:
        with pytest.raises(CheckError):
            checks.check_evolve_cli(small_evolve, {})
    finally:
        path.write_text(original)


def test_reference_comparison_catches_drift(small_evolve):
    summary = checks.check_evolve_cli(small_evolve, {})
    drifted = json.loads(json.dumps(summary))
    drifted["last_sum"] *= 1 + 1e-4
    with pytest.raises(CheckError):
        checks.compare_reference(drifted, summary)
    rounded = json.loads(json.dumps(summary))
    rounded["last_sum"] *= 1 + 1e-9  # a correct solver rewrite may move roundoff
    checks.compare_reference(rounded, summary)


def test_lib_check_rejects_large_residual():
    op = run.make_op("evolve-lib", 0, Path("."))
    steps = op["steps"]
    good = {
        "states": steps + 1, "vertices": op["vertices"], "finite": True,
        "times": [0.0, op["params"]["t_end"]], "residuals": [1e-12] * steps,
        "l2": list(np.linspace(1.0, 0.5, steps + 1)), "boundary_last": [0.1, 0.2, 0.0, 0.3],
        "last_sum": 1.0, "last_max_abs": 0.5,
    }
    checks.check_evolve_lib(op, {"summary": good})
    bad = dict(good, residuals=[1e-12] * (steps - 1) + [1e-6])
    with pytest.raises(CheckError):
        checks.check_evolve_lib(op, {"summary": bad})


def test_wrong_output_counts_as_failed(tmp_path, monkeypatch):
    """The harness counts an operation whose output is wrong as failed and
    keeps it out of every timing."""
    real = checks.CHECKS["verify-flow"]

    def perturbed(op, result):
        path = Path(op["out"]) / "report.json"
        report = json.loads(path.read_text())
        report["reports"][0]["violations"] = 1
        report["violations"] = 1
        path.write_text(json.dumps(report))
        return real(op, result)

    monkeypatch.setitem(run.CHECKS, "verify-flow", perturbed)
    operation = run.Operation("verify-flow", 3, tmp_path)
    result = operation.run()
    assert not result["ok"] and "violations" in result["error"]
    line = run.report(
        "verify-flow",
        {"op": operation.op, "attempted": 1, "errors": [result["error"]], "untraced": [], "traced": []},
        trace=False,
    )
    assert line == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_run_ends_when_every_traced_operation_fails(tmp_path, monkeypatch):
    """A traced target that a refactor breaks must not keep the run going
    past its deadline; the run is reported incorrect instead."""

    class TracedFails:
        def __init__(self, name, seed, workdir):
            self.op = {"vertices": 1, "steps": 1}
            self.tries = 0

        def run(self, trace=False):
            self.tries += 1
            assert self.tries < 100, "the run did not stop at its deadline"
            time.sleep(0.01)
            if trace:
                return {"ok": False, "error": "exit code 1: traced target is a class"}
            return {"ok": True, "wall_s": 0.01, "setup_s": 0.005, "peak_rss_mb": 1.0}

    monkeypatch.setattr(run, "Operation", TracedFails)
    monkeypatch.setattr(run, "WORK", tmp_path)
    result = run.run_workload("verify-flow", 0, 0.1, trace=True)
    assert result["untraced"] and not result["traced"]
    line = run.report("verify-flow", result, trace=True)
    assert line["correct"] is False and line["failed"] == len(result["errors"]) > 0


def test_benchmark_json_matches_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.LAYER_METRICS)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
