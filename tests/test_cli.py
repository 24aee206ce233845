import contextlib
import functools
import hashlib
import io
import json
import math
import os
import reprlib
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import gasketflow
from gasketflow import ConvergenceError, build_level, cli, flow, harmonic_function
from gasketflow.verify import SUITE_NAMES

from oracles import strict_json

DATA = Path(__file__).parent / "data"


def run_cli(args):
    return cli.main([str(a) for a in args])


def read(path: Path) -> str:
    return path.read_text()


def manifest_without_timings(path: Path) -> dict:
    doc = json.loads(read(path))
    doc.pop("timings")
    return doc


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a fresh interpreter that imports this gasketflow:
    this one has imported gasketflow.cli and scipy.optimize long before."""
    src = str(Path(gasketflow.__file__).parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=60,
    )


def _cli_import_loads(module: str) -> bool:
    """Whether ``import gasketflow.cli`` loads ``module``."""
    code = f"import sys, gasketflow.cli; sys.exit({module!r} in sys.modules)"
    return _fresh_python(code).returncode != 0


def test_cli_import_leaves_out_scipy_optimize():
    assert not _cli_import_loads("scipy.optimize")


def test_cli_import_leaves_out_orjson():
    # only the CSV writer needs it, so verify and the library never load it
    assert not _cli_import_loads("orjson")


def test_cli_import_freezes_the_import_heap_and_only_it():
    code = """if True:
        import gc, weakref
        import gasketflow
        assert gc.get_freeze_count() == 0, "import gasketflow froze the heap"
        enabled = gc.isenabled()
        import gasketflow.cli
        assert gc.get_freeze_count() > 0, "import gasketflow.cli froze nothing"
        assert gc.isenabled() == enabled, "the collector was switched"

        class Node:
            pass

        node = Node()
        node.self = node
        ref = weakref.ref(node)
        del node
        gc.collect()
        assert ref() is None, "a cycle made after the freeze was not freed"
    """
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr


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
    assert sorted(timings) == ["peak_rss_mb", "wall_s", "write_s"]
    assert 0 < timings["write_s"] < timings["wall_s"]
    if has_resource:
        # this interpreter has numpy and scipy loaded: tens of MiB, not KiB or GiB
        assert 10 < timings["peak_rss_mb"] < 4096
    else:
        assert timings["peak_rss_mb"] is None
    # verify writes no CSV, so its manifest has no write time
    out = tmp_path / "verify"
    assert run_cli(["verify", "--suite", "scalar", "--samples", 10, "--out", out]) == 0
    assert sorted(json.loads(read(out / "manifest.json"))["timings"]) == ["peak_rss_mb", "wall_s"]


# ---------------------------------------------------------------------------
# the CSV float format: every float as repr spells it


def joined_reprs(x: np.ndarray) -> str:
    return ",".join(map(repr, x.tolist()))


@settings(max_examples=200, deadline=None)
@given(arrays(np.float64, st.integers(0, 40), elements=st.floats(width=64)))
@example(np.array([1e-5, -2e-7, np.nan, np.inf, 1e20]))  # every value spelled by repr
@example(np.array([1e-300]))
def test_reprs_match_repr_on_any_floats(x):
    # st.floats draws subnormals, -0.0, nan and both infinities
    assert cli._reprs(x) == joined_reprs(x)


def test_reprs_match_repr_on_random_bits_and_scales():
    rng = np.random.default_rng(0)
    bits = rng.integers(0, 2**64, size=50_000, dtype=np.uint64).view(np.float64)
    scaled = rng.uniform(-1.0, 1.0, 50_000) * 10.0 ** rng.integers(-8, 20, 50_000)
    for x in (bits, scaled, rng.uniform(-1.0, 1.0, 50_000)):
        assert cli._reprs(x) == joined_reprs(x)


def test_reprs_match_repr_at_the_edges_of_the_orjson_range():
    big = np.finfo(np.float64).max
    ends = [1e-4, 1e16, -1e-4, -1e16]
    near = [np.nextafter(e, to) for e in ends for to in (0.0, 2 * e)]
    x = np.array([*ends, *near, 5e-324, -5e-324, big, -big, 0.0, -0.0, 3e-5, np.nan, np.inf, -np.inf])
    assert cli._reprs(x) == joined_reprs(x)


def test_reprs_match_repr_when_every_value_is_spelled_by_repr():
    rng = np.random.default_rng(1)
    x = rng.uniform(-1.0, 1.0, 1000) * np.where(np.arange(1000) % 2, 1e-7, 1e20)
    text = cli._reprs(x)
    assert text == joined_reprs(x)
    assert all("e" in field for field in text.split(","))


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


def test_gasket_weight_that_is_not_a_number_is_usage_error(tmp_path, capsys):
    args = ["gasket", "--n", 3, "--m", 1, "--weights", "1,x"]
    _assert_usage_error(args, tmp_path / "x", capsys, "--weights: could not convert")


def _one_argparse_error(capsys, *args) -> str:
    """The one ``error:`` line argparse prints when it refuses ``args``."""
    with pytest.raises(SystemExit) as exc:
        run_cli(args)
    assert exc.value.code == 2
    (line,) = [line for line in capsys.readouterr().err.splitlines() if "error:" in line]
    return line


def test_gasket_rejects_negative_m(tmp_path, capsys):
    line = _one_argparse_error(capsys, "gasket", "--n", 3, "--m", -1, "--out", tmp_path / "x")
    assert line == "gasketflow: error: --m must be >= 0"
    assert not (tmp_path / "x").exists()


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


# sha256 of the locality-suite report.json at the default sample count, by seed
LOCALITY_REPORT_DIGESTS = {
    0: "501b3adebdd7a5447eafdaebad4891271b09d66818b6f38caf44365c2468fb42",
    1: "c02885244cab07dfea8868efd6dac17bb787096bd66faf66120d2d6a28ac74f1",
    2: "41b26e41065a1ce198e0a72271e324269a2c25eecb86d866c0ffb060bf5533c4",
}


@pytest.mark.parametrize("seed", sorted(LOCALITY_REPORT_DIGESTS))
def test_locality_report_bytes_are_pinned(tmp_path, seed):
    assert run_cli(["verify", "--suite", "locality", "--seed", seed, "--out", tmp_path]) == 0
    assert sha256(tmp_path / "report.json") == LOCALITY_REPORT_DIGESTS[seed]


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


@pytest.mark.parametrize(
    "command, changes",
    # a plq without kinks at kappa 2 is the pinned quadratic at beta 2
    [("evolve", {}), ("poisson", {}), ("poisson", {"spec": [{"kind": "plq", "kappa": 2.0}] * 3})],
    ids=["evolve", "poisson", "poisson-plq"],
)
def test_solver_output_bytes_are_pinned(tmp_path, command, changes):
    config, output, digest = SOLVER_PINS[command]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(dict(config, **changes)))
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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("m, boundary", [(2, "1e308,0,0"), (0, "1.7e308,-1.7e308,1.7e308")])
def test_extend_whose_energy_profile_overflows_is_usage_error(tmp_path, capsys, m, boundary):
    # the extension is finite, but its squared differences overflow
    args = ["extend", "--n", 3, "--m", m, "--boundary", boundary]
    _assert_usage_error(args, tmp_path / "x", capsys, "error: --boundary [", "energy overflows")


def test_boundary_that_starts_with_a_minus_needs_the_equals_spelling(tmp_path, capsys):
    out = tmp_path / "x"
    assert run_cli(["extend", "--n", 3, "--m", 1, "--boundary=-1,0,0", "--out", out]) == 0
    rows = read(out / "extension.csv").splitlines()[1:]
    expected = harmonic_function(build_level(3, 1), [-1.0, 0.0, 0.0]).values
    assert [float(row.split(",")[1]) for row in rows] == expected.tolist()
    # after a space, argparse reads "-1,0,0" as an option, not as the value
    args = ["extend", "--n", 3, "--m", 1, "--boundary", "-1,0,0", "--out", tmp_path / "y"]
    assert _one_argparse_error(capsys, *args).endswith("--boundary: expected one argument")
    assert not (tmp_path / "y").exists()


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


def test_evolve_with_1e300_steps_reports_its_first_step(tmp_path, capsys, monkeypatch):
    # a config only the trajectory field budget refuses; without the budget
    # only the states a run holds get a time, so the first step runs and its
    # failure is reported like any other
    monkeypatch.setattr(cli, "MAX_TRAJECTORY_FIELDS", math.inf)
    doc = json.loads(read(DATA / "mixed_robin_config.json"))
    doc["spec"][0] = {"kind": "absolute_value", "beta": 1.0}
    doc.update(tau=1e-300, t_end=1.0, max_inner_iters=1)
    out = tmp_path / "run"
    assert run_cli(["evolve", "--config", write_config(tmp_path, doc), "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error: step 1: ")
    assert json.loads(read(out / "manifest.json"))["failure"]["step"] == 1
    assert len(read(out / "trajectory.csv").splitlines()) == 2


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


#: an evolve config whose first step overflows: its residual is inf
OVERFLOW_DOC = {
    "N": 3, "m": 2, "spec": [{"kind": "absolute_value", "beta": 1.0}] * 3,
    "tau": 0.1, "t_end": 0.2,
    "u0": {"kind": "values", "data": [1e300 if i % 2 else -1e300 for i in range(15)]},
}


@pytest.mark.filterwarnings("error")
def test_evolve_overflowing_u0_fails_fast(tmp_path, capsys):
    doc = OVERFLOW_DOC
    data = doc["u0"]["data"]
    out = tmp_path / "run"
    assert run_cli(["evolve", "--config", write_config(tmp_path, doc), "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: step 1: boundary residual is not finite")
    assert len(err.splitlines()) == 1
    assert read(out / "trajectory.csv").splitlines()[1] == ",".join(["0.0", *map(repr, data)])
    assert len(read(out / "trajectory.csv").splitlines()) == 2
    failure = json.loads(read(out / "manifest.json"))["failure"]
    assert failure["step"] == 1 and failure["iterations"] < 10


def test_json_outputs_write_non_finite_floats_as_null(tmp_path):
    # about a quarter of the sample pairs have both boundaries moved onto
    # the box or {0}, so even 20 samples give these reports finite slacks
    out = tmp_path / "verify"
    args = ["verify", "--suite", "perturbed", "--samples", 20, "--seed", 0, "--out", out]
    assert run_cli(args) == 0
    report = strict_json(read(out / "report.json"))
    slack = {r["property"]: r["max_slack"] for r in report["reports"]}
    for name in ("submodularity", "sup_clamp"):
        for spec in ("box", "dirichlet"):
            assert slack[f"{name}[{spec}]"] is not None
    strict_json(read(out / "manifest.json"))
    out = tmp_path / "overflow"
    assert run_cli(["evolve", "--config", write_config(tmp_path, OVERFLOW_DOC), "--out", out]) == 1
    assert strict_json(read(out / "manifest.json"))["failure"]["residual"] is None


def test_infinite_box_end_is_written_null_and_reruns(tmp_path):
    # the golden spec with Neumann and Dirichlet spelled as boxes: the
    # manifest echoes the box R as null ends, which read back as unbounded
    doc = json.loads(read(DATA / "mixed_robin_config.json"))
    doc["spec"][1:] = [
        {"kind": "box", "lower": -float("inf"), "upper": float("inf")},
        {"kind": "box", "lower": 0, "upper": 0},
    ]
    first, second = tmp_path / "first", tmp_path / "second"
    assert run_cli(["evolve", "--config", write_config(tmp_path, doc), "--out", first]) == 0
    config = strict_json(read(first / "manifest.json"))["config"]
    assert config["spec"][1] == {"kind": "box", "lower": None, "upper": None}
    assert run_cli(["evolve", "--config", write_config(tmp_path, config), "--out", second]) == 0
    golden = (DATA / "golden_mixed_robin.csv").read_bytes()
    assert (first / "trajectory.csv").read_bytes() == (second / "trajectory.csv").read_bytes() == golden


def test_evolve_memory_is_flat_in_the_step_count(tmp_path):
    # each row is written as its step is made, so 38 more steps hold no
    # more states; the untraced first run makes the imports and first-call
    # allocations that neither traced run should count
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


def test_write_csv_memory_is_flat_in_the_row_count(tmp_path):
    # rows are formatted a block at a time, so sixteen times the rows hold
    # less extra memory than the column itself
    rng = np.random.default_rng(0)
    peaks = {}
    for rows in (2**16, 2**20):
        column = rng.standard_normal(rows)
        tracemalloc.start()
        cli._write_csv(tmp_path / f"{rows}.csv", ["vertex", "value"], column)
        peaks[rows] = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    assert peaks[2**20] - peaks[2**16] < 2**20 * 8


#: the golden config's text, where a value is one json.dumps cannot write
#: or the parser cannot read
GOLDEN_TEXT = read(DATA / "mixed_robin_config.json")


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
        # integers past the float range where a number is wanted
        pytest.param("tau", 10**400, id="tau-1e400"),
        pytest.param("tol", -(10**400), id="tol--1e400"),
        pytest.param("weights", [10**400, 0.3, 0.2], id="weights-1e400"),
        pytest.param("u0", {"kind": "values", "data": [10**400] * 15}, id="data-1e400"),
        pytest.param("u0", {"kind": "harmonic", "boundary": [0, 10**400, 0]}, id="boundary-1e400"),
        *(
            pytest.param("spec", [functional, "neumann", "dirichlet"], id=f"spec-{name}-1e400")
            for name, functional in {
                "beta": {"kind": "quadratic", "beta": 10**400},
                "p": {"kind": "power", "beta": 1.0, "p": 10**400},
                "lower": {"kind": "box", "lower": -(10**400), "upper": 1.0},
                "upper": {"kind": "box", "lower": -1.0, "upper": 10**400},
                "breakpoints": {"kind": "plq", "kappa": 1.0, "breakpoints": [[0.5, 10**400]]},
            }.items()
        ),
        # past the parser's limits: more digits than int() reads, nesting
        # deeper than the stack, and breakpoints the parser reads but that
        # are nested deeper than a recursive walk of them could go
        pytest.param(
            None, GOLDEN_TEXT.replace('"tau": 0.1', '"tau": ' + "9" * 5000).encode(),
            id="None-tau-of-5000-digits",
        ),
        pytest.param(
            None, b'{"N": ' + b"[" * 10_000 + b"]" * 10_000 + b"}", id="None-N-nested-10000-deep"
        ),
        pytest.param(
            None,
            GOLDEN_TEXT.replace(
                '{"kind": "quadratic", "beta": 1.0}',
                '{"kind": "plq", "kappa": 1.0, "breakpoints": ' + "[" * 700 + "]" * 700 + "}",
            ).encode(),
            id="None-breakpoints-nested-700-deep",
        ),
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


@pytest.mark.parametrize("n", [2_000_000, 10**300, 10**400], ids=["2e6", "1e300", "1e400"])
def test_a_spec_of_the_wrong_length_is_refused_before_uniform_weights(tmp_path, capsys, n):
    # uniform weights are N floats; the 3-entry spec is refused first, so
    # they are never built
    doc = json.loads(GOLDEN_TEXT)
    del doc["weights"]
    doc["N"] = n
    cfg = write_config(tmp_path, doc)
    tracemalloc.start()
    try:
        code = run_cli(["evolve", "--config", cfg, "--out", tmp_path / "x"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    assert capsys.readouterr().err.endswith(f"spec must have {reprlib.repr(n)} entries, got 3\n")
    assert peak < 2**20


HUGE = 10**3999  # 4000 digits, under int()'s 4300-digit limit
LONG_KIND = "k" * 10_000


@pytest.mark.parametrize(
    "key, value",
    [
        ("tau", HUGE),
        ("tau", [0.1] * 100_000),
        ("tau", LONG_KIND),
        ("t_end", -HUGE),
        ("N", HUGE),
        ("N", -HUGE),
        ("m", [0] * 100_000),
        ("weights", LONG_KIND),
        ("u0", {"kind": LONG_KIND}),
        ("spec", [{"kind": "quadratic", "beta": HUGE}, "neumann", "dirichlet"]),
        ("spec", [{"kind": LONG_KIND}, "neumann", "dirichlet"]),
        ("spec", [LONG_KIND, "neumann", "dirichlet"]),
        ("spec", [[0.1] * 100_000, "neumann", "dirichlet"]),
        ("spec", [{"kind": "quadratic", "beta": [True] * 100_000}, "neumann", "dirichlet"]),
    ],
    ids=[
        "tau-4000-digits",
        "tau-100000-entries",
        "tau-10000-chars",
        "t_end-minus-4000-digits",
        "N-4000-digits",
        "N-minus-4000-digits",
        "m-100000-entries",
        "weights-10000-chars",
        "u0-kind-10000-chars",
        "spec-beta-4000-digits",
        "spec-kind-10000-chars",
        "spec-string-10000-chars",
        "spec-entry-100000-entries",
        "spec-beta-100000-booleans",
    ],
)
def test_a_huge_value_is_refused_in_one_short_error_line(tmp_path, capsys, key, value):
    # the message names the value by an abbreviated repr, not whole
    doc = json.loads(GOLDEN_TEXT)
    doc[key] = value
    cfg = write_config(tmp_path, doc)
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert len(err.encode()) <= 300, err[:300]
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
RERUN_FLAGS = {
    "None": [],
    "1e-3": ["--tol", "1e-3"],
    "seed-5": ["--seed", "5"],
    "seed-5-1e-3": ["--seed", "5", "--tol", "1e-3"],
}


@pytest.mark.parametrize("flags", list(RERUN_FLAGS.values()), ids=list(RERUN_FLAGS))
@pytest.mark.parametrize(
    "command, output", [("evolve", "trajectory.csv"), ("poisson", "solution.csv")]
)
def test_manifest_config_reruns_bitwise(tmp_path, command, output, flags):
    doc = RERUN_CONFIGS[command]
    if "--seed" in flags and command == "evolve":  # the poisson source is random already
        # from a random u0 the evolve spec writes the same bytes at both tols
        doc = dict(doc, spec=RERUN_CONFIGS["poisson"]["spec"], u0={"kind": "random", "seed": 11})
    first, second = tmp_path / "first", tmp_path / "second"
    config_path = write_config(tmp_path, doc)
    args = [command, "--config", config_path, "--out", first, *flags]
    assert run_cli(args) == 0
    config = json.loads(read(first / "manifest.json"))["config"]
    rerun = write_config(tmp_path, config, "rerun.json")
    assert run_cli([command, "--config", rerun, "--out", second]) == 0
    assert (first / output).read_bytes() == (second / output).read_bytes()
    if "--tol" in flags:  # the case can see a rerun that lost its tol
        default, at = tmp_path / "default", flags.index("--tol")
        without_tol = flags[:at] + flags[at + 2 :]
        assert run_cli([command, "--config", config_path, "--out", default, *without_tol]) == 0
        assert (first / output).read_bytes() != (default / output).read_bytes()


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


def test_poisson_zero_tol_is_refused_before_the_graph_build(tmp_path, monkeypatch, capsys):
    def build_level(n, m):
        raise AssertionError("the graph was built before tol was checked")

    monkeypatch.setattr(cli, "build_level", build_level)
    cfg, out = write_config(tmp_path, POISSON_ABS), tmp_path / "x"
    assert run_cli(["poisson", "--config", cfg, "--out", out, "--tol", "0"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {cfg}: tol")
    assert not out.exists()


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


def test_evolve_missing_key(tmp_path, capsys):
    # the message names the config once
    for key in ("tau", "t_end"):
        doc = dict(BASE_EVOLVE)
        del doc[key]
        cfg = write_config(tmp_path, doc)
        assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "x"]) == 2
        assert capsys.readouterr().err == f"error: {cfg}: missing required key {key!r}\n"


def test_evolve_invalid_json_reports_position(tmp_path, capsys):
    cfg = tmp_path / "broken.json"
    cfg.write_text('{"N": 3,\n "m": }')
    assert run_cli(["evolve", "--config", cfg, "--out", tmp_path / "x"]) == 2
    err = capsys.readouterr().err
    assert "broken.json:2" in err


def test_config_that_cannot_be_read_is_usage_error(tmp_path, capsys):
    args = ["evolve", "--config", tmp_path]  # a directory
    _assert_usage_error(args, tmp_path / "x", capsys, f"error: cannot read config {tmp_path}")


def test_config_that_is_not_a_json_object_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "list.json"
    cfg.write_text(json.dumps([BASE_EVOLVE]))
    args = ["evolve", "--config", cfg]
    _assert_usage_error(args, tmp_path / "x", capsys, f"error: {cfg}: expected a JSON object")


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
    report = strict_json(read(out / "report.json"))
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


def _solve_started(*args):
    """A stand-in for ``flow._Operator``, to show a refusal comes before the solve."""
    raise AssertionError("the solve started")


def test_poisson_incompatible_neumann_source_is_usage_error(tmp_path, monkeypatch, capsys):
    # neumann grows at slope 0 both ways: any nonzero mean outgrows it
    monkeypatch.setattr(flow, "_Operator", _solve_started)
    doc = {"N": 3, "m": 2, "spec": ["neumann"] * 3, "f": {"kind": "random", "seed": 1}}
    out = tmp_path / "x"
    assert run_cli(["poisson", "--config", write_config(tmp_path, doc), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no minimizer: ") and len(err.splitlines()) == 1
    assert not out.exists()


#: a source with mean 0.0155 at (3,2), uniform measure
NO_MINIMIZER = {"N": 3, "m": 2, "f": {"kind": "random", "seed": 0}, "tol": 1e-3}
ABSOLUTE = {"kind": "absolute_value", "beta": 0.001}
UNBOUNDED_ABOVE = {"kind": "box", "lower": -1.0, "upper": None}


@pytest.mark.parametrize(
    "spec",
    [[ABSOLUTE] * 3, [UNBOUNDED_ABOVE] * 3, [UNBOUNDED_ABOVE, "neumann", ABSOLUTE]],
    ids=["absolute-0.001", "box-unbounded-above", "mixed"],
)
def test_poisson_source_that_outgrows_the_penalties_is_usage_error(
    tmp_path, monkeypatch, capsys, spec
):
    # along the constants the objective falls like (sum of slopes - 0.0155) s
    monkeypatch.setattr(flow, "_Operator", _solve_started)
    out = tmp_path / "x"
    doc = dict(NO_MINIMIZER, spec=spec)
    assert run_cli(["poisson", "--config", write_config(tmp_path, doc), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: no minimizer: the source has mean 0.0154")
    assert "toward +inf" in err and len(err.splitlines()) == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "spec",
    [
        [{"kind": "absolute_value", "beta": 0.01}] * 3,  # slopes 0.03 > 0.0155
        [{"kind": "box", "lower": None, "upper": 1.0}] * 3,  # bounded toward +inf
    ],
    ids=["absolute-0.01", "box-bounded-above"],
)
def test_poisson_source_within_the_penalties_slopes_solves(tmp_path, spec):
    out = tmp_path / "run"
    doc = dict(NO_MINIMIZER, spec=spec)
    assert run_cli(["poisson", "--config", write_config(tmp_path, doc), "--out", out]) == 0
    assert json.loads(read(out / "report.json"))["kkt_residual"] <= 1e-3


@pytest.mark.parametrize("key, value", [("tau", 1e-320), ("t_end", 1e308)])
def test_evolve_step_count_that_overflows_is_usage_error(tmp_path, capsys, key, value):
    # t_end / tau is inf: one error line, not an OverflowError traceback
    doc = dict(json.loads(read(DATA / "mixed_robin_config.json")), **{key: value})
    out = tmp_path / "x"
    assert run_cli(["evolve", "--config", write_config(tmp_path, doc), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not a finite step count" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_evolve_trajectory_over_the_field_budget_is_refused_before_the_build(
    tmp_path, capsys
):
    # 2**63 / 0.1 steps pass every config check; trajectory.csv would grow
    # by V + 1 = 16 fields a step until the process is killed
    doc = dict(json.loads(read(DATA / "mixed_robin_config.json")), t_end=2**63)
    out = tmp_path / "x"
    started = time.perf_counter()
    assert run_cli(["evolve", "--config", write_config(tmp_path, doc), "--out", out]) == 2
    assert time.perf_counter() - started < 1.0
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "trajectory.csv would hold" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


def test_trajectory_field_budget_admits_the_golden_and_the_benchmark(tmp_path, monkeypatch):
    # (steps + 1)(V + 1): the golden's 6 rows of 16 fields, and the evolve
    # benchmark's 31 rows of 29,527 at (3, 9)
    assert cli._trajectory_fields(3, 2, 5) == 6 * 16
    assert cli._trajectory_fields(3, 9, 30) == 31 * 29_527 <= cli.MAX_TRAJECTORY_FIELDS
    config = str(DATA / "mixed_robin_config.json")
    monkeypatch.setattr(cli, "MAX_TRAJECTORY_FIELDS", 6 * 16)
    assert run_cli(["evolve", "--config", config, "--out", tmp_path / "at"]) == 0
    monkeypatch.setattr(cli, "MAX_TRAJECTORY_FIELDS", 6 * 16 - 1)
    assert run_cli(["evolve", "--config", config, "--out", tmp_path / "over"]) == 2
    assert not (tmp_path / "over").exists()


def test_evolve_t_end_off_the_grid_below_one_is_usage_error(tmp_path, capsys):
    # 3.5 steps of 1e-10: off the grid by half a step, which is 5e-11, so
    # the multiple must be checked relative to t_end
    doc = dict(json.loads(read(DATA / "mixed_robin_config.json")), tau=1e-10, t_end=3.5e-10)
    out = tmp_path / "x"
    assert run_cli(["evolve", "--config", write_config(tmp_path, doc), "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not an integer multiple of tau" in err
    assert len(err.splitlines()) == 1
    assert not out.exists()


#: weights that pass MeasureWeights but whose level-3 masses underflow to 0,
#: and finite boundary values whose harmonic extension overflows
UNDERFLOWING_WEIGHTS = [1e-200, 0.5, 0.5]
OVERFLOWING_BOUNDARY = [1.7e308, -1.7e308, 1.7e308]
OVERFLOWING_HARMONIC = {"kind": "harmonic", "boundary": OVERFLOWING_BOUNDARY}


def _config_args(tmp_path, command, **changes):
    """The evolve or poisson argv, without ``--out``, of a known config
    with ``changes`` applied."""
    base = json.loads(read(DATA / "mixed_robin_config.json"))
    doc = dict(base if command == "evolve" else POISSON_ABS, **changes)
    return [command, "--config", write_config(tmp_path, doc)]


def _assert_usage_error(args, out, capsys, *phrases):
    assert run_cli([*args, "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    assert all(phrase in err for phrase in phrases), err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("weights, m", [(UNDERFLOWING_WEIGHTS, 3), ([1e-170, 0.5, 0.5], 2)])
@pytest.mark.parametrize("command", ["gasket", "evolve", "poisson"])
def test_weights_whose_masses_underflow_are_usage_error(tmp_path, capsys, command, weights, m):
    # a level-m cell mass is a product of m weights
    if command == "gasket":
        args = ["gasket", "--n", 3, "--m", m, "--weights", ",".join(map(repr, weights))]
    else:
        args = _config_args(tmp_path, command, m=m, weights=weights)
    phrases = (str(tuple(weights)), f"level-{m} vertex mass underflows to 0")
    _assert_usage_error(args, tmp_path / "x", capsys, *phrases)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["extend", "evolve", "poisson"])
def test_harmonic_data_whose_extension_overflows_is_usage_error(tmp_path, capsys, command):
    # corner differences of 3.4e308 overflow; numpy's warning is silenced
    if command == "extend":
        boundary = ",".join(map(repr, OVERFLOWING_BOUNDARY))
        args = ["extend", "--n", 3, "--m", 2, "--boundary", boundary]
    else:
        key = "u0" if command == "evolve" else "f"
        args = _config_args(tmp_path, command, **{key: OVERFLOWING_HARMONIC})
    phrase = "the harmonic extension to level 2 overflows"
    _assert_usage_error(args, tmp_path / "x", capsys, phrase)


# ---------------------------------------------------------------------------
# every config ends in exit 0, 1 or 2

#: JSON scalars of every type, the edges of the number range among them
FUZZ_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-2, 6)
    | st.just(2**63)
    | st.sampled_from([10**400, -(10**400)])
    | st.floats()
    | st.sampled_from([1e308, 1e-320, 0.1, 0.05, 1e-12])
    | st.text(max_size=4)
)
FUZZ_JSON = st.recursive(
    FUZZ_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


def _mostly(good, bad):
    """``good`` three draws in four, else ``bad``."""
    return st.integers(0, 3).flatmap(lambda k: good if k else bad)


FUZZ_NUMBERS = _mostly(st.floats(-2.0, 2.0), FUZZ_SCALARS)
FUZZ_POSITIVE = _mostly(st.floats(1e-3, 2.0), FUZZ_SCALARS)
FUZZ_LIST = st.lists(FUZZ_NUMBERS, max_size=3)


def _fuzz_object(kinds, fields):
    """A dict with a kind, known or not, and any of ``fields``."""
    return st.fixed_dictionaries(
        {"kind": st.sampled_from(kinds) | FUZZ_SCALARS},
        optional={key: value | FUZZ_JSON for key, value in fields.items()},
    )


FUZZ_FUNCTIONAL = _mostly(
    st.sampled_from(["neumann", "dirichlet", "zero"])
    | st.builds(lambda beta: {"kind": "quadratic", "beta": beta}, FUZZ_POSITIVE)
    | st.builds(lambda beta: {"kind": "absolute_value", "beta": beta}, FUZZ_POSITIVE)
    | st.builds(
        lambda beta, p: {"kind": "power", "beta": beta, "p": p}, FUZZ_POSITIVE, st.floats(1.0, 4.0)
    )
    | st.builds(
        lambda lower, upper: {"kind": "box", "lower": lower, "upper": upper},
        _mostly(st.floats(-2.0, 0.0), FUZZ_SCALARS),
        _mostly(st.floats(0.0, 2.0), FUZZ_SCALARS),
    )
    | st.builds(
        lambda kappa, kinks: {"kind": "plq", "kappa": kappa, "breakpoints": kinks},
        FUZZ_POSITIVE,
        st.lists(st.lists(FUZZ_POSITIVE, min_size=2, max_size=2), max_size=3),
    ),
    # bad spec objects: unknown kinds, missing or stray keys, any values
    st.just("nope")
    | _fuzz_object(
        ["quadratic", "absolute_value", "power", "box", "plq"],
        {key: FUZZ_NUMBERS for key in ("beta", "p", "lower", "upper", "kappa")}
        | {"breakpoints": st.lists(FUZZ_LIST, max_size=3)},
    ),
)
FUZZ_FLAGS = {"zero_mean": st.booleans(), "zero_boundary": st.booleans()}
FUZZ_VERTEX_DATA = _mostly(
    st.fixed_dictionaries(
        {"kind": st.just("random"), "seed": st.integers(0, 9)}, optional=FUZZ_FLAGS
    )
    | st.fixed_dictionaries(
        {"kind": st.just("harmonic"), "boundary": st.lists(FUZZ_NUMBERS, min_size=3, max_size=3)},
        optional=FUZZ_FLAGS,
    )
    | st.fixed_dictionaries(
        {"kind": st.just("values"), "data": st.lists(FUZZ_NUMBERS, min_size=15, max_size=15)},
        optional=FUZZ_FLAGS,
    ),
    _fuzz_object(
        ["values", "harmonic", "random"],
        {"data": FUZZ_LIST, "boundary": FUZZ_LIST, "seed": FUZZ_SCALARS} | FUZZ_FLAGS,
    ),
)
#: the values a mutated key mostly takes, for the configs below at N = 3, m = 2
FUZZ_VALUES = {
    "N": st.integers(2, 6),
    "m": st.integers(0, 3),
    "weights": _mostly(
        st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3).map(
            lambda w: [x / sum(w) for x in w]
        ),
        st.lists(FUZZ_NUMBERS, min_size=2, max_size=4),
    ),
    "spec": _mostly(
        st.lists(FUZZ_FUNCTIONAL, min_size=3, max_size=3),
        st.lists(FUZZ_FUNCTIONAL, min_size=2, max_size=4),
    ),
    "tol": st.sampled_from([1e-3, 1e-12, 1e-300, 0.5]),
    "tau": st.sampled_from([0.05, 0.1, 0.25, 0.3, 1e-320, 1e308]),
    "t_end": st.sampled_from([0.1, 0.5, 1.0, 1e-320, 1e308]),
    "max_inner_iters": st.integers(1, 5) | st.just(2**63),
    "u0": FUZZ_VERTEX_DATA,
    "f": FUZZ_VERTEX_DATA,
    "unread": FUZZ_JSON,
}
FUZZ_BASES = {
    "evolve": (json.loads(read(DATA / "mixed_robin_config.json")), cli._EVOLVE_KEYS),
    "poisson": (POISSON_ABS, cli._POISSON_KEYS),
}
DELETE = object()


@st.composite
def fuzzed_configs(draw):
    """A known evolve or poisson config with one or two of its keys, or an
    unread key, set to new values or deleted."""
    command = draw(st.sampled_from(sorted(FUZZ_BASES)))
    base, keys = FUZZ_BASES[command]
    doc = json.loads(json.dumps(base))
    mutable = st.sampled_from(sorted(keys | {"unread"}))
    for key in draw(st.lists(mutable, min_size=1, max_size=2, unique=True)):
        value = draw(_mostly(FUZZ_VALUES[key], FUZZ_JSON | st.just(DELETE)))
        if value is DELETE:
            doc.pop(key, None)
        else:
            doc[key] = value
    return command, doc


def _positive_number(value) -> bool:
    return (
        not isinstance(value, bool)
        and isinstance(value, (int, float))
        and math.isfinite(value)
        and value > 0
    )


@settings(max_examples=300, deadline=None, derandomize=True)
@given(fuzzed_configs())
@example(("evolve", dict(FUZZ_BASES["evolve"][0], tau=1e-320)))
@example(("evolve", dict(FUZZ_BASES["evolve"][0], t_end=1e308)))
@example(("evolve", dict(RERUN_CONFIGS["evolve"], max_inner_iters=1)))
@example(("evolve", dict(FUZZ_BASES["evolve"][0], m=3, weights=UNDERFLOWING_WEIGHTS)))
@example(("poisson", dict(POISSON_ABS, m=3, weights=UNDERFLOWING_WEIGHTS)))
@example(("evolve", dict(FUZZ_BASES["evolve"][0], u0=OVERFLOWING_HARMONIC)))
@example(("poisson", dict(POISSON_ABS, f=OVERFLOWING_HARMONIC)))
def test_every_config_ends_in_exit_0_1_or_2(case):
    command, doc = case
    for key, limit in (("N", 6), ("m", 3)):
        value = doc.get(key)
        assume(isinstance(value, bool) or not isinstance(value, int) or value <= limit)
    tau, t_end = doc.get("tau"), doc.get("t_end")
    if command == "evolve" and _positive_number(tau) and _positive_number(t_end):
        # how many steps a config may ask for is an open question: nothing
        # bounds a finite step count, so long runs are left out; an infinite
        # one is refused and stays in
        assume(not (math.isfinite(t_end / tau) and t_end / tau > 50))
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = write_config(Path(tmp), doc), Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli([command, "--config", cfg, "--out", out])
        assert code in (0, 1, 2)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: "), lines
            assert not out.exists()
        else:
            manifest = json.loads(read(out / "manifest.json"))
            assert ("failure" in manifest) == (code == 1)


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
    # the energy check on the two-point gasket at level 0
    assert {r["property"] for r in report["reports"]} == {
        "energy_clamp_contraction[n=2,m=0]",
        "energy_envelope_domination[n=2,m=0]",
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


#: one run of each command; verify runs every suite
BUILD_RUNS = {
    "gasket": lambda tmp: ["gasket", "--n", 3, "--m", 3],
    "extend": lambda tmp: ["extend", "--n", 3, "--m", 3, "--boundary=1,-0.5,0.25"],
    "evolve": lambda tmp: ["evolve", "--config", DATA / "mixed_robin_config.json"],
    "poisson": lambda tmp: ["poisson", "--config", write_config(tmp, POISSON_ABS)],
} | {
    f"verify-{suite}": lambda tmp, suite=suite: ["verify", "--suite", suite, "--samples", 2]
    for suite in SUITE_NAMES
}


@pytest.mark.parametrize("run", BUILD_RUNS.values(), ids=list(BUILD_RUNS))
def test_a_run_builds_each_graph_once(tmp_path, monkeypatch, run):
    # nothing keeps a graph between calls, so a second build of one (N, m)
    # in a run would be a second full build
    original, builds = gasketflow.gasket.build_level, []

    def counted(n, m):
        builds.append((n, m))
        return original(n, m)

    for name, module in list(sys.modules.items()):
        if name == "gasketflow" or name.startswith("gasketflow."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    assert run_cli([*run(tmp_path), "--out", tmp_path / "out"]) == 0
    assert builds and len(builds) == len(set(builds)), builds


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


def test_convergence_error_out_of_verify_exits_1(tmp_path, monkeypatch, capsys):
    # evolve and poisson report their own failures; a verify suite's
    # reaches main's ConvergenceError branch
    def failing(*args, **kwargs):
        raise ConvergenceError("step 1: boundary solve did not converge", residual=0.5, iterations=3)

    monkeypatch.setattr(cli, "run_suite", failing)
    out = tmp_path / "v"
    assert run_cli(["verify", "--suite", "flow", "--out", out]) == 1
    err = capsys.readouterr().err
    assert err == "error: step 1: boundary solve did not converge (residual=0.5)\n"
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
