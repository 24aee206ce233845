import functools
import hashlib
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import gasketflow
from gasketflow import cli, flow

DATA = Path(__file__).parent / "data"


def run_cli(args):
    return cli.main([str(a) for a in args])


def read(path: Path) -> str:
    return path.read_text()


def manifest_without_timings(path: Path) -> dict:
    doc = json.loads(read(path))
    doc.pop("timings")
    return doc


def test_cli_import_leaves_out_scipy_optimize():
    # a fresh interpreter: this one has imported scipy.optimize for the oracles
    src = str(Path(gasketflow.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    code = "import sys, gasketflow.cli; sys.exit('scipy.optimize' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, timeout=60
    )
    assert proc.returncode == 0


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


@pytest.mark.parametrize("has_resource", [True, False])
def test_manifest_records_wall_time_and_peak_memory(tmp_path, monkeypatch, has_resource):
    if not has_resource:
        monkeypatch.setattr(cli, "resource", None)
    assert run_cli(["gasket", "--n", 3, "--m", 1, "--out", tmp_path]) == 0
    timings = json.loads(read(tmp_path / "manifest.json"))["timings"]
    assert sorted(timings) == ["peak_rss_mb", "wall_s"] and timings["wall_s"] > 0
    if has_resource:
        # this interpreter has numpy and scipy loaded: tens of MiB, not KiB or GiB
        assert 10 < timings["peak_rss_mb"] < 4096
    else:
        assert timings["peak_rss_mb"] is None


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


@pytest.mark.parametrize("weights", ["0.5,0.5,0.5", "nan,0.5,0.5"])
def test_gasket_bad_weights_is_usage_error(tmp_path, weights):
    code = run_cli(
        ["gasket", "--n", 3, "--m", 1, "--weights", weights, "--out", tmp_path]
    )
    assert code == 2


@pytest.mark.parametrize("below", [None, "sub"], ids=["file", "file-sub"])
def test_out_that_cannot_be_a_directory_is_usage_error(tmp_path, capsys, below):
    taken = tmp_path / "taken"
    taken.write_text("keep\n")
    out = taken if below is None else taken / below
    assert run_cli(["gasket", "--n", 3, "--m", 1, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err
    assert taken.read_text() == "keep\n"


def test_gasket_over_memory_budget_is_usage_error(tmp_path, capsys):
    assert run_cli(["gasket", "--n", 20, "--m", 5, "--out", tmp_path / "x"]) == 2
    assert capsys.readouterr().err.startswith("error: level 5 of the 20-point gasket")
    assert not (tmp_path / "x").exists()


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


# sha256 of the gasket and extend exports; changing these bytes must be deliberate
EXPORT_DIGESTS = {
    "gasket": {
        "graph.json": "bb61d8bf503495cc99c5404667a9739f2a0c55d640abe4862f551c3bfca045af",
        "coordinates.csv": "2a0a0cd8ce1a0ab292ab2deb75556ed5defd762e801706b057cefd40380faff7",
        "masses.csv": "53a4e6646c70079dab318216570c1c62fbb1f7e054a7fbabd9124d7223a3a81b",
    },
    "extend": {
        "extension.csv": "459a86bfdc7170d733a029b6f0c3272961dde78cf254a64f68a23209c2fe2d27",
        "profile.csv": "657cd885c49364c330cb566c289301d6f4e1c54cd588e98b57d28c6f3cc1715c",
    },
}


@pytest.mark.parametrize(
    "args",
    [
        ["gasket", "--n", 3, "--m", 3, "--weights", "0.5,0.3,0.2"],
        ["extend", "--n", 4, "--m", 3, "--boundary", "1,0,0,3e-5"],
    ],
    ids=["gasket", "extend"],
)
def test_export_bytes_are_pinned(tmp_path, args):
    assert run_cli(args + ["--out", tmp_path]) == 0
    digests = {name: sha256(tmp_path / name) for name in EXPORT_DIGESTS[args[0]]}
    assert digests == EXPORT_DIGESTS[args[0]]


# sha256 of the flow-suite report.json at the default sample count, by seed;
# the flow runs as ensembles must reproduce the one-trajectory-at-a-time bytes
FLOW_REPORT_DIGESTS = {
    0: "64d51ae3da235b0e330dd3280a813c1f80d8d12657ea4f7d30dbd0e1bb315723",
    1: "e84b077984221b0dc1b1d866d81bd3841a066f05a6c7fcd1961e49f81653e898",
    2: "bac31dd255c53e1634a992fb4d853862235d533325589484eb5dc0167227f792",
}


@pytest.mark.parametrize("seed", sorted(FLOW_REPORT_DIGESTS))
def test_flow_report_bytes_are_pinned(tmp_path, seed):
    assert run_cli(["verify", "--suite", "flow", "--seed", seed, "--out", tmp_path]) == 0
    assert sha256(tmp_path / "report.json") == FLOW_REPORT_DIGESTS[seed]


#: level-4 runs of the golden evolve config and of the README poisson example,
#: by command: (config, output file, sha256 of that file).  The level-2 golden
#: factors a matrix small enough that a change in the order of SuperLU's
#: updates leaves its bytes alone; these outputs move with it.
SOLVER_PINS = {
    "evolve": (
        dict(json.loads((DATA / "mixed_robin_config.json").read_text()), m=4),
        "trajectory.csv",
        "8a259d1572ccd044adbd09c6ae6a2899a79e92092eccf0dc0d41e6e40cd66c88",
    ),
    "poisson": (
        {
            "N": 3,
            "m": 4,
            "spec": [{"kind": "quadratic", "beta": 2.0}] * 3,
            "f": {"kind": "random", "seed": 5, "zero_boundary": True, "zero_mean": False},
        },
        "solution.csv",
        "d56eb74fbb886741413b00b65e63331eca3bc7bfc2e3dcb5bd626aceb841c962",
    ),
}


@pytest.mark.parametrize("command", sorted(SOLVER_PINS))
def test_solver_output_bytes_are_pinned(tmp_path, command):
    config, output, digest = SOLVER_PINS[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert run_cli([command, "--config", path, "--out", tmp_path / "run"]) == 0
    assert sha256(tmp_path / "run" / output) == digest


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


@pytest.mark.parametrize("boundary", ["1,0", "nan,0,0"])
def test_extend_wrong_boundary_length(tmp_path, boundary):
    code = run_cli(
        ["extend", "--n", 3, "--m", 2, "--boundary", boundary, "--out", tmp_path]
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


def test_evolve_failure_writes_partial_trajectory(tmp_path, capsys):
    # one sweep is too few for the first step of this nonlinear spec
    doc = json.loads(read(DATA / "mixed_robin_config.json"))
    doc["spec"][0] = {"kind": "absolute_value", "beta": 1.0}
    ok, failed = tmp_path / "ok", tmp_path / "failed"
    assert run_cli(["evolve", "--config", write_config(tmp_path, doc), "--out", ok]) == 0
    doc["max_inner_iters"] = 1
    args = ["evolve", "--config", write_config(tmp_path, doc, "fail.json"), "--out", failed]
    assert run_cli(args) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 1: boundary solve did not reach tol=1e-09 in 1 sweeps")
    # the states before the failing step: the header and u0
    rows = read(failed / "trajectory.csv").splitlines()
    assert rows == read(ok / "trajectory.csv").splitlines()[:2]
    manifest = json.loads(read(failed / "manifest.json"))
    assert manifest["outputs"] == {"trajectory": "trajectory.csv"}
    failure = manifest["failure"]
    assert failure["step"] == 1 and failure["iterations"] == 1
    assert failure["residual"] > 1e-9
    assert f"residual={failure['residual']!r}" in err
    assert "failure" not in json.loads(read(ok / "manifest.json"))


def test_evolve_failure_at_a_later_step_keeps_the_rows_before_it(tmp_path, capsys):
    # the box ends hold the boundary exactly for two steps (one sweep each);
    # at step 3 it leaves them and one sweep is too few
    doc = {
        "N": 3, "m": 2, "spec": [{"kind": "box", "lower": -0.1, "upper": 0.1}] * 2 + ["dirichlet"],
        "tau": 0.1, "t_end": 0.5, "u0": {"kind": "values", "data": [1.0] * 15},
    }
    ok, failed = tmp_path / "ok", tmp_path / "failed"
    assert run_cli(["evolve", "--config", write_config(tmp_path, doc), "--out", ok]) == 0
    doc["max_inner_iters"] = 1
    args = ["evolve", "--config", write_config(tmp_path, doc, "fail.json"), "--out", failed]
    assert run_cli(args) == 1
    assert capsys.readouterr().err.startswith("error: step 3: boundary solve did not reach")
    # the header, u0 and the two steps made
    rows = read(failed / "trajectory.csv").splitlines()
    assert rows == read(ok / "trajectory.csv").splitlines()[:4]
    failure = json.loads(read(failed / "manifest.json"))["failure"]
    assert failure["step"] == 3 and failure["iterations"] == 1


@pytest.mark.filterwarnings("error")
def test_evolve_overflowing_u0_fails_fast(tmp_path, capsys):
    data = [1e300 if i % 2 else -1e300 for i in range(15)]
    doc = {
        "N": 3, "m": 2, "spec": [{"kind": "absolute_value", "beta": 1.0}] * 3,
        "tau": 0.1, "t_end": 0.2, "u0": {"kind": "values", "data": data},
    }
    out = tmp_path / "run"
    assert run_cli(["evolve", "--config", write_config(tmp_path, doc), "--out", out]) == 1
    assert "step 1: boundary residual is not finite" in capsys.readouterr().err
    assert read(out / "trajectory.csv").splitlines()[1] == ",".join(["0.0", *map(repr, data)])
    assert len(read(out / "trajectory.csv").splitlines()) == 2
    failure = json.loads(read(out / "manifest.json"))["failure"]
    assert failure["step"] == 1 and failure["iterations"] < 10


def test_evolve_memory_is_flat_in_the_step_count(tmp_path):
    # each row is written as its step is made, so 38 more steps hold no
    # more states; the untraced first run fills the graph cache
    doc = {
        "N": 3, "m": 7, "spec": [{"kind": "absolute_value", "beta": 1.0}, "neumann", "dirichlet"],
        "tau": 0.01, "u0": {"kind": "random", "seed": 0},
    }
    peaks = {}
    for steps, traced in ((2, False), (2, True), (40, True)):
        doc["t_end"] = steps * doc["tau"]
        args = ["evolve", "--config", write_config(tmp_path, doc), "--out", tmp_path / str(steps)]
        if traced:
            tracemalloc.start()
        assert run_cli(args) == 0
        if traced:
            peaks[steps] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
    vertices = len(read(tmp_path / "40" / "trajectory.csv").split("\n", 1)[0].split(",")) - 1
    assert peaks[40] - peaks[2] < 38 * vertices * 8 / 4


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
        # no key: the value is the whole file, here bytes that are not UTF-8
        (None, b'{"N": 3, \xff}'),
        # the kinds that fix p take beta alone
        ("spec", [{"kind": "quadratic", "beta": 1.0, "p": 3}, "neumann", "dirichlet"]),
        ("spec", [{"kind": "absolute_value", "beta": 1.0, "p": 2}, "neumann", "dirichlet"]),
    ],
)
def test_evolve_mistyped_config_is_usage_error(tmp_path, capsys, key, value):
    if key is None:
        cfg = tmp_path / "config.json"
        cfg.write_bytes(value)
    else:
        doc = json.loads(read(DATA / "mixed_robin_config.json"))
        doc[key] = value
        cfg = write_config(tmp_path, doc)
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "functional",
    [
        {"kind": "quadratic", "beta": True},
        {"kind": "box", "lower": False, "upper": True},
        {"kind": "power", "beta": 1.0, "p": True},
        {"kind": "plq", "kappa": 1.0, "breakpoints": [[True, 1.0]]},
    ],
    ids=["quadratic", "box", "power", "plq"],
)
def test_boolean_spec_parameter_is_usage_error(tmp_path, capsys, functional):
    doc = json.loads(read(DATA / "mixed_robin_config.json"))
    doc["spec"][0] = functional
    out = tmp_path / "x"
    assert run_cli(["evolve", "--config", write_config(tmp_path, doc), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "bad spec" in err and "boolean" in err
    assert not out.exists()


#: nonlinear problems whose outputs at tol 1e-3 differ from those at the default 1e-9
RERUN_CONFIGS = {
    "evolve": dict(
        json.loads(read(DATA / "mixed_robin_config.json")),
        spec=[{"kind": "absolute_value", "beta": 1.0}, "neumann", "dirichlet"],
    ),
    "poisson": {
        "N": 3,
        "m": 2,
        "spec": [
            {"kind": "absolute_value", "beta": 0.1},
            {"kind": "power", "beta": 1.0, "p": 1.5},
            "neumann",
        ],
        "f": {"kind": "random", "seed": 0},
    },
}


#: the override flags of each rerun case, by test id
RERUN_FLAGS = {"None": [], "1e-3": ["--tol", "1e-3"], "seed-5": ["--seed", "5"]}


@pytest.mark.parametrize("flags", list(RERUN_FLAGS.values()), ids=list(RERUN_FLAGS))
@pytest.mark.parametrize(
    "command, output", [("evolve", "trajectory.csv"), ("poisson", "solution.csv")]
)
def test_manifest_config_reruns_bitwise(tmp_path, command, output, flags):
    doc = RERUN_CONFIGS[command]
    if "--seed" in flags and command == "evolve":  # the poisson source is random already
        doc = dict(doc, u0={"kind": "random", "seed": 11})
    first, second = tmp_path / "first", tmp_path / "second"
    args = [command, "--config", write_config(tmp_path, doc), "--out", first, *flags]
    assert run_cli(args) == 0
    config = json.loads(read(first / "manifest.json"))["config"]
    rerun = write_config(tmp_path, config, "rerun.json")
    assert run_cli([command, "--config", rerun, "--out", second]) == 0
    assert (first / output).read_bytes() == (second / output).read_bytes()


def test_evolve_nan_tol_flag_is_usage_error(tmp_path, capsys):
    out = tmp_path / "x"
    args = ["evolve", "--config", DATA / "mixed_robin_config.json", "--out", out]
    assert run_cli(args + ["--tol", "nan"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tol" in err
    assert not out.exists()


@pytest.mark.parametrize("flag, config_tol", [("nan", None), ("-1", None), (None, -1)])
def test_poisson_bad_tol_is_usage_error(tmp_path, capsys, flag, config_tol):
    doc = {
        "N": 3,
        "m": 2,
        "spec": [{"kind": "absolute_value", "beta": 1.0}, "neumann", "dirichlet"],
        "f": {"kind": "random", "seed": 0},
    }
    if config_tol is not None:
        doc["tol"] = config_tol
    out = tmp_path / "x"
    args = ["poisson", "--config", write_config(tmp_path, doc), "--out", out]
    if flag is not None:
        args += ["--tol", flag]
    assert run_cli(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tol" in err
    assert not out.exists()


POISSON_ABS = {
    "N": 3,
    "m": 2,
    "spec": [{"kind": "absolute_value", "beta": 1.0}, "neumann", "dirichlet"],
    "f": {"kind": "random", "seed": 0},
}


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("evolve", "weight", [0.5, 0.3, 0.2]),
        ("evolve", "f", {"kind": "random", "seed": 1}),
        ("poisson", "max_inner_iters", 1),
        ("poisson", "tau", 0.1),
        ("poisson", "u0", {"kind": "random", "seed": 1}),
        # "outer.key": the value replaces the outer object, whose kind does not read key
        ("evolve", "u0.seed", {"kind": "harmonic", "boundary": [1.0, -0.5, 0.25], "seed": 4}),
        ("evolve", "u0.zero_mean", {"kind": "harmonic", "boundary": [1.0, -0.5, 0.25], "zero_mean": True}),
        ("evolve", "u0.boundary", {"kind": "random", "seed": 1, "boundary": [1.0, 0.0, 0.0]}),
        ("evolve", "u0.seed", {"kind": "values", "data": [0.0] * 15, "seed": 3}),
        ("poisson", "f.seed", {"kind": "harmonic", "boundary": [1.0, 0.0, 0.0], "seed": 2, "zero_mean": True}),
        ("poisson", "f.data", {"kind": "random", "seed": 0, "data": [0.0] * 15}),
    ],
)
def test_unread_config_key_is_usage_error(tmp_path, capsys, command, key, value):
    if command == "evolve":
        doc = json.loads(read(DATA / "mixed_robin_config.json"))
    else:
        doc = dict(POISSON_ABS)
    outer, _, key = key.rpartition(".")
    doc[outer or key] = value
    out = tmp_path / "x"
    assert run_cli([command, "--config", write_config(tmp_path, doc), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"unknown key {key!r}" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "u0, flag, expected",
    [
        ({"kind": "random"}, None, 0),
        ({"kind": "random", "seed": 11}, None, 11),
        ({"kind": "random", "seed": 11}, 5, 5),
        ({"kind": "harmonic", "boundary": [1.0, -0.5, 0.25]}, 5, None),
    ],
    ids=["random-default", "random-config", "random-flag", "harmonic-flag"],
)
def test_manifest_records_drawn_seed(tmp_path, u0, flag, expected):
    doc = json.loads(read(DATA / "mixed_robin_config.json"))
    doc["u0"] = u0
    out = tmp_path / "x"
    args = ["evolve", "--config", write_config(tmp_path, doc), "--out", out]
    if flag is not None:
        args += ["--seed", flag]
    assert run_cli(args) == 0
    manifest = json.loads(read(out / "manifest.json"))
    assert manifest["seed"] == expected
    # the echoed u0 carries the seed drawn; a harmonic one carries no seed
    # key, which would make a rerun exit 2
    assert manifest["config"]["u0"] == (u0 if expected is None else dict(u0, seed=expected))


@pytest.mark.parametrize(
    "key, value", [("zero_boundary", "no"), ("zero_mean", 1), ("zero_boundary", None)]
)
def test_poisson_source_flags_must_be_booleans(tmp_path, capsys, key, value):
    doc = dict(POISSON_ABS, f={"kind": "random", "seed": 0, key: value})
    out = tmp_path / "x"
    assert run_cli(["poisson", "--config", write_config(tmp_path, doc), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"f.{key} must be true or false" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("evolve", "spec", ["neumann", {"kind": "quadratic", "beta": -1.0}, "dirichlet"]),
        ("evolve", "weights", [0.5, 0.5]),
        ("evolve", "tau", 0.0),
        ("evolve", "u0", None),
        ("poisson", "f", {"kind": "random", "seed": 0, "zero_mean": "yes"}),
    ],
    ids=["bad-spec", "bad-weights", "bad-tau", "missing-u0", "non-boolean-zero-mean"],
)
def test_config_errors_come_before_the_graph_build(tmp_path, monkeypatch, command, key, value):
    def build_level(n, m):
        raise AssertionError("the graph was built before the config was checked")

    monkeypatch.setattr(cli, "build_level", build_level)
    doc = dict(BASE_EVOLVE if command == "evolve" else POISSON_ABS, **{key: value})
    if value is None:
        del doc[key]
    out = tmp_path / "x"
    assert run_cli([command, "--config", write_config(tmp_path, doc), "--out", out]) == 2
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
    assert report["interior_residual"] <= 1e-9
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


def test_poisson_failure_writes_report(tmp_path, monkeypatch, capsys):
    # one sweep is too few for this weakly damped nonlinear spec
    one_sweep = functools.partial(flow.poisson_solve, max_inner_iters=1)
    monkeypatch.setattr(cli, "poisson_solve", one_sweep)
    doc = {
        "N": 3,
        "m": 3,
        "spec": [
            {"kind": "absolute_value", "beta": 0.01},
            "neumann",
            {"kind": "quadratic", "beta": 0.01},
        ],
        "f": {"kind": "random", "seed": 0},
    }
    out = tmp_path / "failed"
    assert run_cli(["poisson", "--config", write_config(tmp_path, doc), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: boundary solve did not reach tol=1e-09 in 1 sweeps")
    assert sorted(p.name for p in out.iterdir()) == ["manifest.json", "report.json"]
    report = json.loads(read(out / "report.json"))
    assert report["iterations"] == 1 and report["kkt_residual"] > 1e-9
    assert f"residual={report['kkt_residual']!r}" in err
    manifest = json.loads(read(out / "manifest.json"))
    assert manifest["outputs"] == {"report": "report.json"}
    assert manifest["failure"] == {"iterations": 1, "residual": report["kkt_residual"]}
    assert manifest["config"]["f"] == {"kind": "random", "seed": 0}


def test_poisson_incompatible_neumann_source_is_usage_error(tmp_path, capsys):
    doc = {"N": 3, "m": 2, "spec": ["neumann"] * 3, "f": {"kind": "random", "seed": 1}}
    out = tmp_path / "x"
    assert run_cli(["poisson", "--config", write_config(tmp_path, doc), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: pure Neumann problem needs a mu-mean-zero source")
    assert not out.exists()


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


@pytest.mark.parametrize(
    "suite, flag, value",
    [
        ("flow", "--samples", 0),
        ("flow", "--samples", -2),
        ("scalar", "--samples", -5),
        ("scalar", "--seed", -1),
    ],
)
def test_verify_bad_flags_are_usage_errors(tmp_path, capsys, suite, flag, value):
    out = tmp_path / "v"
    assert run_cli(["verify", "--suite", suite, flag, value, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("samples, expected", [(None, 3), (2, 2)])
def test_verify_manifest_records_sample_count(tmp_path, samples, expected):
    out = tmp_path / "v"
    args = ["verify", "--suite", "flow", "--out", out]
    if samples is not None:
        args += ["--samples", samples]
    assert run_cli(args) == 0
    manifest = json.loads(read(out / "manifest.json"))
    assert manifest["config"] == {"suite": "flow", "samples": expected}


def test_verify_unknown_suite(tmp_path):
    with pytest.raises(SystemExit) as exc:
        run_cli(["verify", "--suite", "bogus", "--out", tmp_path])
    assert exc.value.code == 2
