"""Output checks, one per workload.

Each check reads what one operation produced, raises :class:`CheckError` on
anything wrong and otherwise returns a small summary of numbers.  Solver
outputs are compared with roundoff tolerance (10 x the solver tolerance, or
a relative 1e-6 against the stored reference), so a correct rewrite of a
solver still passes.  The vertex order is the canonical lexicographic order
of the weight vectors, so for N=3 the corners p_1, p_2, p_3 are the
vertices ``V - 1``, ``2**m`` and ``0``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from workloads import (
    TOL,
    VERIFY_SAMPLES,
    VERIFY_SPECS,
    vertex_count,
)

#: relative and absolute tolerance against the stored seed-0 summaries
REF_RTOL = 1e-6
REF_ATOL = 1e-9
SLACK = 10 * TOL

FLOW_PROPERTIES = (
    "domination_by_neumann",
    "domination_of_dirichlet",
    "energy_decay",
    "l2_contraction",
    "mean_conservation",
    "order_preservation",
    "positivity",
    "sup_contraction",
)


class CheckError(Exception):
    pass


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckError(message)


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header and float body of a CSV written by the gasketflow CLI."""
    text = path.read_text()
    header, _, body = text.partition("\n")
    columns = header.split(",")
    _require(body.endswith("\n"), f"{path.name}: missing final newline")
    rows = body.count("\n")
    values = np.array(body.replace("\n", ",").split(",")[:-1], dtype=np.float64)
    _require(
        values.size == rows * len(columns),
        f"{path.name}: ragged rows ({values.size} values, {rows} rows)",
    )
    return columns, values.reshape(rows, len(columns))


def _finite(name: str, values: np.ndarray) -> None:
    _require(bool(np.all(np.isfinite(values))), f"{name}: non-finite values")


def check_evolve_cli(op: dict, result: dict) -> dict:
    cfg = op["config"]
    m, steps = cfg["m"], op["steps"]
    nv = vertex_count(cfg["N"], m)
    header, data = read_csv(Path(op["out"]) / "trajectory.csv")
    _require(
        header == ["time"] + [f"vertex_{i}" for i in range(nv)],
        "trajectory.csv: wrong header",
    )
    _require(data.shape == (steps + 1, nv + 1), f"trajectory.csv: shape {data.shape}")
    _finite("trajectory.csv", data)
    times, u = data[:, 0], data[:, 1:]
    _require(
        np.allclose(times, np.arange(steps + 1) * cfg["tau"], rtol=0, atol=1e-12),
        "trajectory.csv: wrong time grid",
    )
    corners = [nv - 1, 2**m, 0]
    _require(
        np.allclose(u[0, corners], cfg["u0"]["boundary"], rtol=0, atol=1e-12),
        "trajectory.csv: u0 misses its boundary values",
    )
    box = cfg["spec"][2]
    p3 = u[1:, 0]
    _require(
        bool(np.all((p3 >= box["lower"] - SLACK) & (p3 <= box["upper"] + SLACK))),
        "trajectory.csv: box constraint violated at p_3",
    )
    sup = np.max(np.abs(u), axis=1)
    _require(
        bool(np.all(np.diff(sup) <= SLACK)), "trajectory.csv: sup norm increased"
    )
    last = u[-1]
    return {
        "sup": sup.tolist(),
        "last_sum": float(last.sum()),
        "last_corners": last[corners].tolist(),
    }


def check_poisson_deep(op: dict, result: dict) -> dict:
    cfg = op["config"]
    m = cfg["m"]
    nv = vertex_count(cfg["N"], m)
    out = Path(op["out"])
    report = json.loads((out / "report.json").read_text())
    _require(report["kkt_residual"] <= SLACK, f"kkt_residual {report['kkt_residual']}")
    residuals = report["boundary_residuals"]
    _require(len(residuals) == cfg["N"], "report.json: wrong boundary_residuals length")
    _require(all(r <= SLACK for r in residuals), f"boundary residuals {residuals}")
    _require(report["iterations"] >= 1, "report.json: no iterations")
    header, data = read_csv(out / "solution.csv")
    _require(header == ["vertex", "value"], "solution.csv: wrong header")
    _require(data.shape == (nv, 2), f"solution.csv: shape {data.shape}")
    _require(bool(np.all(data[:, 0] == np.arange(nv))), "solution.csv: vertex column")
    u = data[:, 1]
    _finite("solution.csv", u)
    _require(abs(u[0]) <= SLACK, "solution.csv: Dirichlet corner p_3 is not 0")
    return {
        "sum": float(u.sum()),
        "max_abs": float(np.max(np.abs(u))),
        "corners": u[[nv - 1, 2**m]].tolist(),
    }


def check_verify_flow(op: dict, result: dict) -> dict:
    report = json.loads((Path(op["out"]) / "report.json").read_text())
    _require(report["suite"] == "flow", "report.json: wrong suite")
    _require(report["violations"] == 0, f"{report['violations']} violations")
    samples = {r["property"]: r["samples"] for r in report["reports"]}
    expected = {p: VERIFY_SAMPLES * VERIFY_SPECS for p in FLOW_PROPERTIES}
    expected["mean_conservation"] = VERIFY_SAMPLES
    _require(samples == expected, f"report.json: samples {samples}")
    _require(
        all(r["violations"] == 0 for r in report["reports"]),
        "report.json: a property reports violations",
    )
    return {"samples": samples}


def check_evolve_lib(op: dict, result: dict) -> dict:
    s = result["summary"]
    p = op["params"]
    steps = op["steps"]
    _require(s["states"] == steps + 1, f"{s['states']} states")
    _require(s["vertices"] == op["vertices"], f"{s['vertices']} vertices")
    _require(s["finite"], "non-finite or misshaped state")
    _require(
        math.isclose(s["times"][1], p["t_end"], rel_tol=1e-12),
        f"trajectory ends at {s['times'][1]}",
    )
    _require(len(s["residuals"]) == steps, "one residual per step expected")
    worst = max(s["residuals"])
    _require(worst <= SLACK, f"step residual {worst}")
    _require(
        bool(np.all(np.diff(s["l2"]) <= SLACK)), "weighted L2 norm increased"
    )
    _require(abs(s["boundary_last"][2]) <= SLACK, "Dirichlet corner p_3 is not 0")
    return {
        "l2": s["l2"][-1],
        "last_sum": s["last_sum"],
        "last_max_abs": s["last_max_abs"],
        "boundary_last": s["boundary_last"],
    }


CHECKS = {
    "evolve-cli": check_evolve_cli,
    "poisson-deep": check_poisson_deep,
    "verify-flow": check_verify_flow,
    "evolve-lib": check_evolve_lib,
}


def compare_reference(summary, reference, where: str = "summary") -> None:
    """Equal structure, numbers within REF_RTOL / REF_ATOL."""
    if isinstance(reference, dict):
        _require(
            isinstance(summary, dict) and summary.keys() == reference.keys(),
            f"{where}: keys differ from the reference",
        )
        for key in reference:
            compare_reference(summary[key], reference[key], f"{where}.{key}")
    elif isinstance(reference, list):
        _require(
            isinstance(summary, list) and len(summary) == len(reference),
            f"{where}: length differs from the reference",
        )
        for i, (a, b) in enumerate(zip(summary, reference)):
            compare_reference(a, b, f"{where}[{i}]")
    else:
        _require(
            math.isclose(summary, reference, rel_tol=REF_RTOL, abs_tol=REF_ATOL),
            f"{where}: {summary!r} differs from the reference {reference!r}",
        )
