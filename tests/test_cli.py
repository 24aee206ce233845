import json
from pathlib import Path

import numpy as np
import pytest

from gasketflow import cli

DATA = Path(__file__).parent / "data"


def run_cli(args):
    return cli.main([str(a) for a in args])


def read(path: Path) -> str:
    return path.read_text()


def manifest_without_timings(path: Path) -> dict:
    doc = json.loads(read(path))
    doc.pop("timings")
    return doc


# ---------------------------------------------------------------------------
# gasket


def test_gasket_level1_exports(tmp_path):
    assert run_cli(["gasket", "--n", 3, "--m", 1, "--out", tmp_path]) == 0
    coords = read(tmp_path / "coordinates.csv").splitlines()
    assert coords[0] == "index,x_1,x_2"
    assert len(coords) == 1 + 6
    graph = json.loads(read(tmp_path / "graph.json"))
    assert graph["N"] == 3 and graph["m"] == 1
    assert len(graph["vertices"]) == 6
    assert len(graph["edges"]) == 9
    masses = read(tmp_path / "masses.csv").splitlines()
    assert masses[0] == "index,mass"
    assert len(masses) == 1 + 6
    assert (tmp_path / "manifest.json").exists()


def test_gasket_level0_unit_distances(tmp_path):
    run_cli(["gasket", "--n", 3, "--m", 0, "--out", tmp_path])
    rows = read(tmp_path / "coordinates.csv").splitlines()[1:]
    pts = np.array([[float(x) for x in r.split(",")[1:]] for r in rows])
    assert len(pts) == 3
    for i in range(3):
        for j in range(i + 1, 3):
            assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(1.0, abs=1e-12)


def test_gasket_rejects_invalid_n(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["gasket", "--n", 1, "--m", 0, "--out", tmp_path])
    assert exc.value.code == 2


def test_gasket_bad_weights_is_usage_error(tmp_path):
    code = run_cli(
        ["gasket", "--n", 3, "--m", 1, "--weights", "0.5,0.5,0.5", "--out", tmp_path]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# extend


def test_extend_profile_is_flat_for_harmonic_data(tmp_path):
    assert (
        run_cli(
            ["extend", "--n", 3, "--m", 3, "--boundary", "1,0,0", "--out", tmp_path]
        )
        == 0
    )
    rows = read(tmp_path / "profile.csv").splitlines()
    assert rows[0] == "m,energy"
    energies = [float(r.split(",")[1]) for r in rows[1:]]
    assert len(energies) == 4
    for w in energies:
        assert w == pytest.approx(energies[0], rel=1e-12)
    values = read(tmp_path / "extension.csv").splitlines()
    assert len(values) == 1 + (3**4 + 3) // 2


def test_extend_wrong_boundary_length(tmp_path):
    code = run_cli(
        ["extend", "--n", 3, "--m", 2, "--boundary", "1,0", "--out", tmp_path]
    )
    assert code == 2


# ---------------------------------------------------------------------------
# evolve


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


BASE_EVOLVE = {
    "N": 3,
    "m": 1,
    "spec": ["neumann", "neumann", "neumann"],
    "tau": 0.1,
    "t_end": 0.3,
    "u0": {"kind": "values", "data": [1.0] * 6},
}


def test_evolve_constant_neumann(tmp_path):
    cfg = write_config(tmp_path, BASE_EVOLVE)
    out = tmp_path / "run"
    assert run_cli(["evolve", "--config", cfg, "--out", out]) == 0
    rows = read(out / "trajectory.csv").splitlines()
    assert rows[0] == "time," + ",".join(f"vertex_{i}" for i in range(6))
    assert len(rows) == 1 + 4
    for row in rows[1:]:
        cells = row.split(",")
        assert all(float(x) == pytest.approx(1.0, abs=1e-12) for x in cells[1:])


def test_evolve_dirichlet_sup_decreases(tmp_path):
    doc = dict(BASE_EVOLVE)
    doc.update(
        {
            "m": 2,
            "spec": ["dirichlet"] * 3,
            "u0": {"kind": "harmonic", "boundary": [1.0, 0.5, 0.25]},
            "t_end": 0.5,
        }
    )
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert run_cli(["evolve", "--config", cfg, "--out", out]) == 0
    rows = read(out / "trajectory.csv").splitlines()[1:]
    sups = [max(abs(float(x)) for x in r.split(",")[1:]) for r in rows]
    assert all(b <= a + 1e-12 for a, b in zip(sups, sups[1:]))
    assert sups[-1] < sups[0]


def test_evolve_reproducible_bitwise(tmp_path):
    doc = dict(BASE_EVOLVE)
    doc["u0"] = {"kind": "random", "seed": 11}
    doc["spec"] = [{"kind": "quadratic", "beta": 1.0}, "neumann", "dirichlet"]
    cfg = write_config(tmp_path, doc)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli(["evolve", "--config", cfg, "--out", out1]) == 0
    assert run_cli(["evolve", "--config", cfg, "--out", out2]) == 0
    assert read(out1 / "trajectory.csv") == read(out2 / "trajectory.csv")
    assert manifest_without_timings(out1 / "manifest.json") == manifest_without_timings(
        out2 / "manifest.json"
    )


def test_evolve_matches_golden_mixed_robin(tmp_path):
    out = tmp_path / "run"
    assert (
        run_cli(["evolve", "--config", DATA / "mixed_robin_config.json", "--out", out])
        == 0
    )
    got = read(out / "trajectory.csv")
    want = read(DATA / "golden_mixed_robin.csv")
    assert got == want


@pytest.mark.parametrize(
    "key, value",
    [
        ("N", "x"),
        ("N", 3.7),
        ("tau", "fast"),
        ("u0", {"kind": "values", "data": [float("nan")] * 15}),
        ("u0", {"kind": "harmonic", "boundary": 5}),
        ("spec", [{"kind": "quadratic", "beta": float("nan")}, "neumann", "dirichlet"]),
        ("spec", [{"kind": "power", "beta": 1.0, "p": float("nan")}, "neumann", "dirichlet"]),
    ],
)
def test_evolve_mistyped_config_is_usage_error(tmp_path, capsys, key, value):
    doc = json.loads(read(DATA / "mixed_robin_config.json"))
    doc[key] = value
    cfg = write_config(tmp_path, doc)
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "x").exists()


def test_evolve_nan_tol_flag_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x"
    args = ["evolve", "--config", DATA / "mixed_robin_config.json", "--out", out]
    assert run_cli(args + ["--tol", "nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tol" in err
    assert not out.exists()


def test_evolve_missing_key(tmp_path):
    doc = dict(BASE_EVOLVE)
    del doc["tau"]
    cfg = write_config(tmp_path, doc)
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "x"]) == 2


def test_evolve_invalid_json_reports_position(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"N": 3,\n "m": }')
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "broken.json:2" in err


def test_evolve_wrong_u0_length(tmp_path):
    doc = dict(BASE_EVOLVE)
    doc["u0"] = {"kind": "values", "data": [1.0, 2.0]}
    cfg = write_config(tmp_path, doc)
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "x"]) == 2


# ---------------------------------------------------------------------------
# poisson


def test_poisson_zero_source_dirichlet(tmp_path):
    doc = {
        "N": 3,
        "m": 2,
        "spec": ["dirichlet"] * 3,
        "f": {"kind": "values", "data": [0.0] * 15},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert run_cli(["poisson", "--config", cfg, "--out", out]) == 0
    rows = read(out / "solution.csv").splitlines()[1:]
    assert all(float(r.split(",")[1]) == 0.0 for r in rows)
    report = json.loads(read(out / "report.json"))
    assert report["kkt_residual"] <= 1e-10


def test_poisson_neumann_zero_mean_source(tmp_path):
    doc = {
        "N": 3,
        "m": 3,
        "spec": ["neumann"] * 3,
        "f": {"kind": "random", "seed": 2, "zero_mean": True},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert run_cli(["poisson", "--config", cfg, "--out", out]) == 0
    report = json.loads(read(out / "report.json"))
    assert report["kkt_residual"] <= 1e-9
    assert report["gauged"] is True


def test_poisson_quadratic_boundary_residuals(tmp_path):
    doc = {
        "N": 3,
        "m": 3,
        "spec": [{"kind": "quadratic", "beta": 2.0}] * 3,
        "f": {"kind": "random", "seed": 5, "zero_boundary": True},
    }
    cfg = write_config(tmp_path, doc)
    out = tmp_path / "run"
    assert run_cli(["poisson", "--config", cfg, "--out", out]) == 0
    report = json.loads(read(out / "report.json"))
    assert all(abs(r) <= 1e-6 for r in report["boundary_residuals"])


# ---------------------------------------------------------------------------
# verify


def test_verify_scalar_suite_passes(tmp_path):
    out = tmp_path / "v"
    assert (
        run_cli(
            ["verify", "--suite", "scalar", "--seed", 0, "--samples", 5000, "--out", out]
        )
        == 0
    )
    report = json.loads(read(out / "report.json"))
    assert report["violations"] == 0
    assert {r["property"] for r in report["reports"]} == {
        "scalar_clamp_contraction",
        "scalar_envelope_domination",
    }


def test_verify_locality_suite_passes(tmp_path):
    out = tmp_path / "v"
    assert (
        run_cli(
            ["verify", "--suite", "locality", "--seed", 1, "--samples", 30, "--out", out]
        )
        == 0
    )


def test_verify_reports_reproducible(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        run_cli(
            ["verify", "--suite", "energy", "--seed", 7, "--samples", 100, "--out", out]
        )
    assert read(out1 / "report.json") == read(out2 / "report.json")


def test_verify_flow_suite_passes(tmp_path):
    out = tmp_path / "v"
    assert (
        run_cli(["verify", "--suite", "flow", "--seed", 0, "--samples", 2, "--out", out])
        == 0
    )
    report = json.loads(read(out / "report.json"))
    assert report["violations"] == 0
    assert any(r["property"] == "positivity" for r in report["reports"])


def test_verify_unknown_suite(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "bogus", "--out", tmp_path])
    assert exc.value.code == 2
