"""Command-line front end.

Subcommands: gasket (build + export a graph), extend (harmonic extension
dump), evolve (implicit flow trajectory), poisson (stationary Robin solve),
verify (property-check suites).  Every command is a pure function of its
configuration and seed: outputs are byte-reproducible, and each run writes
a manifest echoing the configuration (wall-clock timings in the manifest
are the only non-reproducible bytes).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from . import __version__
from .energy import EnergyForm, energy_profile, harmonic_function
from .errors import ConfigError, ConvergenceError, GasketflowError
from .flow import FlowConfig, evolve, poisson_solve
from .gasket import VertexFunction, build_level, vertex_coordinates
from .measure import MeasureWeights, vertex_measure
from .robin import RobinSpec
from .verify import SUITE_NAMES, run_suite


def _fmt(x) -> str:
    """Shortest round-trip decimal form; keeps golden files stable."""
    return repr(float(x))


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _write_json(path: Path, obj) -> None:
    _write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def _write_csv(path: Path, header: list[str], rows) -> None:
    """Write one line per row as it is produced, never the whole file at once."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _write_manifest(out_dir: Path, command: str, config, seed, outputs: dict, started: float) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": config,
        "seed": seed,
        # paths are relative to the manifest so reruns compare bitwise
        "outputs": {k: str(Path(v).relative_to(out_dir)) for k, v in outputs.items()},
        "timings": {"wall_s": time.perf_counter() - started},
    }
    _write_json(out_dir / "manifest.json", manifest)


def _load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return cfg


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return cfg[key]


def _integer(value, what: str) -> int:
    # bool is an int subclass, and a JSON float such as 3.7 must not truncate
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def _number(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{what} must be finite, got {value!r}")
    return float(value)


def _numbers(value, what: str, count: int) -> np.ndarray:
    if not isinstance(value, list):
        raise ConfigError(f"{what} must be a list of {count} numbers, got {value!r}")
    if len(value) != count:
        raise ConfigError(f"{what} must have {count} entries, got {len(value)}")
    return np.array([_number(x, f"{what} entry") for x in value])


def _parse_problem(cfg: dict, where: str):
    """Common (graph, form, measure, spec) block of evolve/poisson configs."""
    n = _integer(_require(cfg, "N", where), f"{where}: N")
    m = _integer(_require(cfg, "m", where), f"{where}: m")
    if n < 2:
        raise ConfigError(f"{where}: N must be >= 2, got {n}")
    if m < 0:
        raise ConfigError(f"{where}: m must be >= 0, got {m}")
    graph = build_level(n, m)
    weights_cfg = cfg.get("weights")
    try:
        weights = (
            MeasureWeights.uniform(n)
            if weights_cfg is None
            else MeasureWeights(tuple(_numbers(weights_cfg, f"{where}: weights", n)))
        )
    except ValueError as exc:
        raise ConfigError(f"{where}: bad weights: {exc}") from exc
    try:
        spec = RobinSpec.from_json(_require(cfg, "spec", where))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad spec: {exc}") from exc
    if spec.n != n:
        raise ConfigError(f"{where}: spec must have {n} entries, got {spec.n}")
    return graph, EnergyForm(graph), vertex_measure(graph, weights), spec


def _parse_vertex_data(obj, graph, where: str, seed_override=None) -> VertexFunction:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = obj["kind"]
    if kind == "values":
        data = _numbers(_require(obj, "data", where), f"{where}.data", graph.vertex_count)
        return VertexFunction(graph, data)
    if kind == "harmonic":
        boundary = _numbers(_require(obj, "boundary", where), f"{where}.boundary", graph.n)
        return harmonic_function(graph, boundary)
    if kind == "random":
        seed = seed_override if seed_override is not None else obj.get("seed", 0)
        if _integer(seed, f"{where}.seed") < 0:
            raise ConfigError(f"{where}.seed must be >= 0, got {seed}")
        # PCG64 via numpy default_rng; uniform on [-1, 1)
        rng = np.random.default_rng(seed)
        return VertexFunction(graph, rng.uniform(-1.0, 1.0, graph.vertex_count))
    raise ConfigError(f"{where}.kind must be values|harmonic|random, got {kind!r}")


def _parse_weights_flag(raw: str | None, n: int) -> MeasureWeights:
    if raw is None:
        return MeasureWeights.uniform(n)
    try:
        weights = MeasureWeights(tuple(float(x) for x in raw.split(",")))
    except ValueError as exc:
        raise ConfigError(f"--weights: {exc}") from exc
    if weights.n != n:
        raise ConfigError(f"--weights must have {n} entries, got {weights.n}")
    return weights


# ---------------------------------------------------------------------------
# subcommands


def cmd_gasket(args) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    graph = build_level(args.n, args.m)
    weights = _parse_weights_flag(args.weights, args.n)
    measure = vertex_measure(graph, weights)

    _write_json(out / "graph.json", graph.to_json_dict())
    coords = vertex_coordinates(graph)
    header = ["index"] + [f"x_{k + 1}" for k in range(graph.n - 1)]
    rows = (
        [str(i)] + [_fmt(c) for c in coords[i]] for i in range(graph.vertex_count)
    )
    _write_csv(out / "coordinates.csv", header, rows)
    _write_csv(
        out / "masses.csv",
        ["index", "mass"],
        ([str(i), _fmt(m)] for i, m in enumerate(measure.masses)),
    )
    config = {"N": args.n, "m": args.m, "weights": list(weights.weights)}
    _write_manifest(
        out,
        "gasket",
        config,
        None,
        {"graph": out / "graph.json", "coordinates": out / "coordinates.csv", "masses": out / "masses.csv"},
        started,
    )
    return 0


def cmd_extend(args) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    try:
        boundary = [float(x) for x in args.boundary.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--boundary: {exc}") from exc
    if len(boundary) != args.n:
        raise ConfigError(f"--boundary must have {args.n} entries, got {len(boundary)}")
    graph = build_level(args.n, args.m)
    u = harmonic_function(graph, boundary)
    _write_csv(
        out / "extension.csv",
        ["vertex", "value"],
        ([str(i), _fmt(v)] for i, v in enumerate(u.values)),
    )
    profile = energy_profile(u)
    _write_csv(
        out / "profile.csv",
        ["m", "energy"],
        ([str(m), _fmt(w)] for m, w in enumerate(profile)),
    )
    config = {"N": args.n, "m": args.m, "boundary": boundary}
    _write_manifest(
        out,
        "extend",
        config,
        None,
        {"extension": out / "extension.csv", "profile": out / "profile.csv"},
        started,
    )
    return 0


def _trajectory_csv(trajectory) -> tuple[list[str], Iterator[list[str]]]:
    nv = trajectory.graph.vertex_count
    header = ["time"] + [f"vertex_{i}" for i in range(nv)]
    rows = (
        [_fmt(t)] + [_fmt(x) for x in state.values]
        for t, state in zip(trajectory.times, trajectory.states)
    )
    return header, rows


def cmd_evolve(args) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    cfg = _load_config(args.config)
    graph, form, measure, spec = _parse_problem(cfg, args.config)
    tol = args.tol if args.tol is not None else _number(cfg.get("tol", 1e-9), f"{args.config}: tol")
    try:
        flow_cfg = FlowConfig(
            tau=_number(_require(cfg, "tau", args.config), "tau"),
            t_end=_number(_require(cfg, "t_end", args.config), "t_end"),
            tol=tol,
            max_inner_iters=_integer(cfg.get("max_inner_iters", 100_000), "max_inner_iters"),
        )
        flow_cfg.n_steps
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: {exc}") from exc
    u0 = _parse_vertex_data(
        _require(cfg, "u0", args.config), graph, f"{args.config}:u0", args.seed
    )
    trajectory = evolve(form, measure, spec, u0, flow_cfg)
    header, rows = _trajectory_csv(trajectory)
    _write_csv(out / "trajectory.csv", header, rows)
    seed = args.seed if args.seed is not None else cfg.get("u0", {}).get("seed")
    _write_manifest(
        out, "evolve", cfg, seed, {"trajectory": out / "trajectory.csv"}, started
    )
    return 0


def cmd_poisson(args) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    cfg = _load_config(args.config)
    graph, form, measure, spec = _parse_problem(cfg, args.config)
    tol = args.tol if args.tol is not None else _number(cfg.get("tol", 1e-9), f"{args.config}: tol")
    f = _parse_vertex_data(
        _require(cfg, "f", args.config), graph, f"{args.config}:f", args.seed
    )
    if cfg.get("f", {}).get("zero_boundary"):
        vals = f.values.copy()
        vals[list(graph.boundary)] = 0.0
        f = VertexFunction(graph, vals)
    if cfg.get("f", {}).get("zero_mean"):
        vals = f.values - float(np.sum(measure.masses * f.values))
        f = VertexFunction(graph, vals)
    u, report = poisson_solve(form, measure, spec, f, tol=tol)
    _write_csv(
        out / "solution.csv",
        ["vertex", "value"],
        ([str(i), _fmt(v)] for i, v in enumerate(u.values)),
    )
    _write_json(out / "report.json", report.to_dict())
    seed = args.seed if args.seed is not None else cfg.get("f", {}).get("seed")
    _write_manifest(
        out,
        "poisson",
        cfg,
        seed,
        {"solution": out / "solution.csv", "report": out / "report.json"},
        started,
    )
    return 0


def cmd_verify(args) -> int:
    started = time.perf_counter()
    out = Path(args.out)
    result = run_suite(args.suite, seed=args.seed or 0, sample_count=args.samples)
    _write_json(out / "report.json", result)
    _write_manifest(
        out,
        "verify",
        {"suite": args.suite, "samples": args.samples},
        args.seed or 0,
        {"report": out / "report.json"},
        started,
    )
    return 0 if result["violations"] == 0 else 1


# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gasketflow",
        description=(
            "Build gasket graphs, run implicit Robin-boundary flows and "
            "Poisson solves, and verify their qualitative properties."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gasket", help="build a level-m graph and export it")
    p.add_argument("--n", type=int, required=True, help="number of boundary points (>= 2)")
    p.add_argument("--m", type=int, required=True, help="refinement level (>= 0)")
    p.add_argument("--weights", help="comma-separated measure weights (default uniform)")
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_gasket)

    p = sub.add_parser("extend", help="harmonic extension of boundary data")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--boundary", required=True, help="comma-separated boundary values")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extend)

    p = sub.add_parser("evolve", help="run the implicit flow from a JSON config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="override the random-u0 seed")
    p.add_argument("--tol", type=float, help="override the solver tolerance")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("poisson", help="solve the stationary Robin problem")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, help="override the random-source seed")
    p.add_argument("--tol", type=float, help="override the solver tolerance")
    p.set_defaults(func=cmd_poisson)

    p = sub.add_parser("verify", help="run a property-check suite")
    p.add_argument("--suite", required=True, choices=SUITE_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, help="override the suite sample count")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "n", None) is not None and args.n < 2:
        parser.error("--n must be >= 2")
    if getattr(args, "m", None) is not None and args.m < 0:
        parser.error("--m must be >= 0")
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: {exc} (residual={exc.residual})", file=sys.stderr)
        return 1
    except GasketflowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
