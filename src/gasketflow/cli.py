"""Command-line front end.

Subcommands: gasket (build + export a graph), extend (harmonic extension
dump), evolve (implicit flow trajectory), poisson (stationary Robin solve),
verify (property-check suites).  Every command is a pure function of its
configuration and seed: outputs are byte-reproducible.  ``main`` owns the
run protocol: it times the command and, once the outputs are written,
writes ``manifest.json`` echoing the configuration, with a ``--tol``
override recorded as ``config.tol`` and the seed of a random ``u0`` / ``f``
as its ``seed`` (the manifest's ``timings``, wall clock, peak memory and
the time spent writing CSV rows, are the only non-reproducible bytes).
Every CSV float is spelled exactly as Python's ``repr`` spells it.
Invalid input exits 2 with an ``error:`` message and writes nothing; that
includes a config that is not UTF-8, a boolean where a spec parameter
wants a number, and an ``--out`` that cannot be a directory.  Only the
contents of ``u0`` / ``f``, the level-m vertex masses (which can underflow
to 0), a harmonic extension and the energy profile ``extend`` writes (both
can overflow) are checked after the graph is built.  Evolve writes each
``trajectory.csv`` row as its step is made.  When a step's boundary solve
does not converge, the rows written are the states before it; the command
records the failing step, its residual and its sweep count under
``failure`` in the manifest, and exits 1.  When a poisson boundary solve
does not converge, the command writes ``report.json`` with the sweep count
and residual it stopped at, records them under ``failure`` and exits 1.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import itertools
import json
import math
import sys
import time
from dataclasses import asdict
from pathlib import Path

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import __version__
from .energy import EnergyForm, energy_profile, harmonic_function
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainMismatchError,
    ResourceLimitError,
)
from .flow import FlowConfig, _check_solver_controls, evolve, poisson_solve
from .gasket import VertexFunction, build_level, vertex_coordinates
from .measure import MeasureWeights, VertexMeasure, mean, vertex_measure
from .robin import RobinSpec
from .verify import DEFAULT_SAMPLES, SUITE_NAMES, run_suite

# Move the import heap (~41,000 containers) into the permanent generation,
# so neither later collections nor interpreter exit re-scan it.
gc.freeze()


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _finite_or_null(obj):
    """``obj`` with each inf and nan float replaced by None, which JSON
    spells ``null``."""
    if isinstance(obj, dict):
        return {key: _finite_or_null(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return list(map(_finite_or_null, obj))
    return None if isinstance(obj, float) and not math.isfinite(obj) else obj


def _write_json(path: Path, obj) -> None:
    """Strict JSON: a non-finite float is written as ``null``."""
    text = json.dumps(_finite_or_null(obj), indent=2, sort_keys=True, allow_nan=False)
    _write_text(path, text + "\n")


def _reprs(values: np.ndarray) -> str:
    """The float64 ``values``, comma-separated, each spelled as ``repr``
    spells it: the shortest text that reads back to the same float.

    orjson prints the same digits, and the same text for ±0 and for
    1e-4 <= |x| < 1e16.  It spells the rest otherwise (``1e16`` for
    ``1e+16``, ``null`` for nan and inf), so those go through ``repr``.
    It is imported here, so commands that write no CSV never load it.
    """
    import orjson

    magnitude = np.abs(values)
    odd = ~((magnitude >= 1e-4) & (magnitude < 1e16)) & (values != 0)
    text = orjson.dumps(values[~odd], option=orjson.OPT_SERIALIZE_NUMPY)[1:-1].decode()
    if not odd.any():
        return text
    fields = np.empty(values.size, dtype=object)
    fields[~odd] = text.split(",")
    fields[odd] = list(map(repr, values[odd].tolist()))
    return ",".join(fields.tolist())


#: seconds spent formatting and writing CSV rows in this command, once it
#: has written a row; ``main`` records them as the manifest's ``write_s``
_csv_timings: dict[str, float] = {}


@contextlib.contextmanager
def _timed_rows():
    started = time.perf_counter()
    try:
        yield
    finally:
        elapsed = time.perf_counter() - started
        _csv_timings["write_s"] = _csv_timings.get("write_s", 0.0) + elapsed


def _open_csv(path: Path, header: list[str]):
    path.parent.mkdir(parents=True, exist_ok=True)
    fh = open(path, "w", newline="\n")
    fh.write(",".join(header) + "\n")
    return fh


@contextlib.contextmanager
def _csv_writer(path: Path, header: list[str]):
    """Write the header and yield a function that writes each row, a 1-D
    float64 array, as it is produced.  Every value is spelled as ``repr``
    spells it (``_reprs``): the shortest round-trip form keeps golden files
    stable."""
    with _open_csv(path, header) as fh:

        def write(row: np.ndarray) -> None:
            with _timed_rows():
                fh.write(_reprs(row) + "\n")

        yield write


#: rows ``_write_csv`` formats at a time, so that a deep level's columns
#: are never all held as text at once
_CSV_BLOCK = 2**16


def _write_csv(path: Path, header: list[str], *columns) -> None:
    """Write one row per index i: i, then entry i of each float64 column,
    spelled as by ``_csv_writer``."""
    columns = [np.asarray(c, dtype=np.float64) for c in columns]
    with _open_csv(path, header) as fh, _timed_rows():
        for start in range(0, len(columns[0]), _CSV_BLOCK):
            fields = [_reprs(c[start : start + _CSV_BLOCK]).split(",") for c in columns]
            fh.writelines(f"{i},{','.join(row)}\n" for i, row in enumerate(zip(*fields), start))


def _load_config(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON ({exc.msg})"
        ) from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"{path}: expected a JSON object")
    return cfg


#: top-level config keys each command reads; any other key is an error
_PROBLEM_KEYS = {"N", "m", "weights", "spec", "tol"}
_EVOLVE_KEYS = _PROBLEM_KEYS | {"tau", "t_end", "max_inner_iters", "u0"}
_POISSON_KEYS = _PROBLEM_KEYS | {"f"}


def _reject_unknown_keys(cfg: dict, known: set[str], where: str) -> None:
    unknown = sorted(set(cfg) - known)
    if unknown:
        raise ConfigError(
            f"{where}: unknown key {', '.join(map(repr, unknown))}; "
            f"expected keys are {', '.join(sorted(known))}"
        )


def _require(cfg: dict, key: str, where: str):
    if key not in cfg:
        raise ConfigError(f"{where}: missing required key {key!r}")
    return cfg[key]


def _integer(value, what: str, minimum: int | None = None) -> int:
    # bool is an int subclass, and a JSON float such as 3.7 must not truncate
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ConfigError(f"{what} must be >= {minimum}, got {value}")
    return value


def _boolean(value, what: str) -> bool:
    if not isinstance(value, bool):
        raise ConfigError(f"{what} must be true or false, got {value!r}")
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


def _comma_list(raw: str, flag: str) -> list[float]:
    """A comma-separated flag as the JSON list it stands for."""
    try:
        return [float(x) for x in raw.split(",")]
    except ValueError as exc:
        raise ConfigError(f"{flag}: {exc}") from exc


def _weights(values, n: int, what: str) -> MeasureWeights:
    """Uniform weights for ``None``, else the checked list of ``n``."""
    if values is None:
        return MeasureWeights.uniform(n)
    try:
        return MeasureWeights(tuple(_numbers(values, what, n)))
    except ValueError as exc:
        raise ConfigError(f"{what}: {exc}") from exc


def _measure(graph, weights: MeasureWeights, what: str) -> VertexMeasure:
    """``vertex_measure``; weights whose masses underflow are a ConfigError."""
    try:
        return vertex_measure(graph, weights)
    except ValueError as exc:  # a level-m cell mass is a product of m weights
        raise ConfigError(
            f"{what} {weights.weights}: a level-{graph.level} vertex mass underflows to 0"
        ) from exc


def _harmonic(graph, boundary: list[float], what: str) -> VertexFunction:
    """``harmonic_function``; an extension that overflows is a ConfigError."""
    # the error line reports the overflow (past it, inf - inf is nan)
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            return harmonic_function(graph, boundary)
        except ValueError as exc:
            raise ConfigError(
                f"{what} {boundary}: the harmonic extension to level {graph.level} overflows"
            ) from exc


def _load_problem(args, keys: set[str]):
    """The evolve/poisson config and its tol, N, m, weights and spec.

    A ``--tol`` flag is written into the config, so the manifest echoes
    the tolerance the solver used.
    """
    where = args.config
    cfg = _load_config(where)
    _reject_unknown_keys(cfg, keys, where)
    if args.tol is not None:
        cfg["tol"] = args.tol
    tol = _number(cfg.get("tol", 1e-9), f"{where}: tol")
    try:  # before the graph is built
        _check_solver_controls(tol)
    except ConfigError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    n = _integer(_require(cfg, "N", where), f"{where}: N", 2)
    m = _integer(_require(cfg, "m", where), f"{where}: m", 0)
    weights = _weights(cfg.get("weights"), n, f"{where}: weights")
    try:
        spec = RobinSpec.from_json(_require(cfg, "spec", where))
    except ValueError as exc:
        raise ConfigError(f"{where}: bad spec: {exc}") from exc
    if spec.n != n:
        raise ConfigError(f"{where}: spec must have {n} entries, got {spec.n}")
    return cfg, tol, n, m, weights, spec


#: keys each vertex-data kind reads
_VERTEX_DATA_KEYS = {
    "values": {"kind", "data"},
    "harmonic": {"kind", "boundary"},
    "random": {"kind", "seed"},
}


def _parse_vertex_data(
    obj, n: int, m: int, where: str, seed_override=None, flags=()
) -> tuple[VertexFunction, int | None]:
    """The function on the level-m graph that an evolve ``u0`` or poisson
    ``f`` object describes, and the seed drawn for it (None unless its kind
    is random), which is written into ``obj``.

    ``flags`` are the boolean keys the object may carry besides its kind's.
    """
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{where}: expected an object with a 'kind' key")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in _VERTEX_DATA_KEYS:
        raise ConfigError(f"{where}.kind must be values|harmonic|random, got {kind!r}")
    _reject_unknown_keys(obj, _VERTEX_DATA_KEYS[kind] | set(flags), where)
    for key in flags:
        _boolean(obj.get(key, False), f"{where}.{key}")
    if kind == "random":
        seed = seed_override if seed_override is not None else obj.get("seed", 0)
        obj["seed"] = _integer(seed, f"{where}.seed", 0)
    graph = build_level(n, m)
    if kind == "values":
        data = _numbers(_require(obj, "data", where), f"{where}.data", graph.vertex_count)
        return VertexFunction(graph, data), None
    if kind == "harmonic":
        boundary = _numbers(_require(obj, "boundary", where), f"{where}.boundary", n)
        return _harmonic(graph, boundary.tolist(), f"{where}.boundary"), None
    # PCG64 via numpy default_rng; uniform on [-1, 1)
    rng = np.random.default_rng(seed)
    return VertexFunction(graph, rng.uniform(-1.0, 1.0, graph.vertex_count)), seed


# ---------------------------------------------------------------------------
# subcommands: each writes its outputs into ``out`` and returns its manifest
# entries (config, seed, {output name: file name in out}) and its exit code


def cmd_gasket(args, out: Path):
    graph = build_level(args.n, args.m)
    raw = None if args.weights is None else _comma_list(args.weights, "--weights")
    weights = _weights(raw, args.n, "--weights")
    measure = _measure(graph, weights, "--weights")

    _write_json(out / "graph.json", graph.to_json_dict())
    coords = vertex_coordinates(graph)
    header = ["index"] + [f"x_{k + 1}" for k in range(graph.n - 1)]
    _write_csv(out / "coordinates.csv", header, *coords.T)
    _write_csv(out / "masses.csv", ["index", "mass"], measure.masses)
    config = {"N": args.n, "m": args.m, "weights": list(weights.weights)}
    outputs = {"graph": "graph.json", "coordinates": "coordinates.csv", "masses": "masses.csv"}
    return {"config": config, "seed": None, "outputs": outputs}, 0


def cmd_extend(args, out: Path):
    raw = _comma_list(args.boundary, "--boundary")
    boundary = _numbers(raw, "--boundary", args.n).tolist()
    u = _harmonic(build_level(args.n, args.m), boundary, "--boundary")
    with np.errstate(over="ignore"):  # the error line reports the overflow
        profile = energy_profile(u)
    overflows = [m for m, e in enumerate(profile) if not math.isfinite(e)]
    if overflows:
        raise ConfigError(f"--boundary {boundary}: the level-{overflows[0]} energy overflows")
    _write_csv(out / "extension.csv", ["vertex", "value"], u.values)
    _write_csv(out / "profile.csv", ["m", "energy"], profile)
    config = {"N": args.n, "m": args.m, "boundary": boundary}
    outputs = {"extension": "extension.csv", "profile": "profile.csv"}
    return {"config": config, "seed": None, "outputs": outputs}, 0


#: the most fields (times and vertex values) ``evolve`` may write to
#: ``trajectory.csv``; 2**31 fields is about 40 GB of CSV
MAX_TRAJECTORY_FIELDS = 2**31


def _trajectory_fields(n: int, m: int, n_steps: int) -> int:
    """Fields of an evolve ``trajectory.csv``: n_steps + 1 rows of a time
    and V = N + C(N,2)(N^m - 1)/(N - 1) vertex values."""
    return (n_steps + 1) * (n + n * (n**m - 1) // 2 + 1)


def _report_failure(exc: ConvergenceError) -> None:
    print(f"error: {exc} (residual={exc.residual})", file=sys.stderr)


def cmd_evolve(args, out: Path):
    cfg, tol, n, m, weights, spec = _load_problem(args, _EVOLVE_KEYS)
    tau = _number(_require(cfg, "tau", args.config), f"{args.config}: tau")
    t_end = _number(_require(cfg, "t_end", args.config), f"{args.config}: t_end")
    try:
        flow_cfg = FlowConfig(
            tau=tau,
            t_end=t_end,
            tol=tol,
            max_inner_iters=_integer(cfg.get("max_inner_iters", 100_000), "max_inner_iters"),
        )
    except ConfigError as exc:
        raise ConfigError(f"{args.config}: {exc}") from exc
    # before the graph is built; the build refuses every m past 64 itself
    fields = _trajectory_fields(n, m, flow_cfg.n_steps) if m <= 64 else 0
    if fields > MAX_TRAJECTORY_FIELDS:
        raise ResourceLimitError(
            f"{args.config}: trajectory.csv would hold {fields} fields "
            f"({flow_cfg.n_steps + 1} rows); the limit is {MAX_TRAJECTORY_FIELDS}"
        )
    u0, seed = _parse_vertex_data(
        _require(cfg, "u0", args.config), n, m, f"{args.config}:u0", args.seed
    )
    graph = u0.graph
    measure = _measure(graph, weights, f"{args.config}: weights")
    header = ["time"] + [f"vertex_{i}" for i in range(graph.vertex_count)]
    manifest = {"config": cfg, "seed": seed, "outputs": {"trajectory": "trajectory.csv"}}
    steps = itertools.count()  # the step of the next row, u0's being 0
    with _csv_writer(out / "trajectory.csv", header) as write:

        def sink(state: VertexFunction) -> None:
            write(np.concatenate(([next(steps) * flow_cfg.tau], state.values)))

        sink(u0)
        try:
            evolve(EnergyForm(graph), measure, spec, u0, flow_cfg, sink)
        except ConvergenceError as exc:
            _report_failure(exc)
            manifest["failure"] = {
                "step": next(steps),
                "residual": exc.residual,
                "iterations": exc.iterations,
            }
            return manifest, 1
    return manifest, 0


def cmd_poisson(args, out: Path):
    cfg, tol, n, m, weights, spec = _load_problem(args, _POISSON_KEYS)
    f_cfg = _require(cfg, "f", args.config)
    f, seed = _parse_vertex_data(
        f_cfg, n, m, f"{args.config}:f", args.seed, ("zero_boundary", "zero_mean")
    )
    graph = f.graph
    measure = _measure(graph, weights, f"{args.config}: weights")
    if f_cfg.get("zero_boundary", False):
        vals = f.values.copy()
        vals[list(graph.boundary)] = 0.0
        f = VertexFunction(graph, vals)
        del vals  # f holds its own copy; one is enough through the solve
    if f_cfg.get("zero_mean", False):
        f = VertexFunction(graph, f.values - mean(measure, f))
    try:
        u, report = poisson_solve(EnergyForm(graph), measure, spec, f, tol=tol)
    except ConvergenceError as exc:
        # no solution to write: the report holds where the solve stopped
        _report_failure(exc)
        failure = {"residual": exc.residual, "iterations": exc.iterations}
        report = {"iterations": exc.iterations, "kkt_residual": exc.residual}
        _write_json(out / "report.json", report)
        outputs = {"report": "report.json"}
        return {"config": cfg, "seed": seed, "outputs": outputs, "failure": failure}, 1
    _write_csv(out / "solution.csv", ["vertex", "value"], u.values)
    _write_json(out / "report.json", asdict(report))
    outputs = {"solution": "solution.csv", "report": "report.json"}
    return {"config": cfg, "seed": seed, "outputs": outputs}, 0


def cmd_verify(args, out: Path):
    samples = DEFAULT_SAMPLES[args.suite] if args.samples is None else args.samples
    result = run_suite(args.suite, seed=args.seed, sample_count=samples)
    _write_json(out / "report.json", result)
    config = {"suite": args.suite, "samples": samples}
    manifest = {"config": config, "seed": args.seed, "outputs": {"report": "report.json"}}
    return manifest, 0 if result["violations"] == 0 else 1


def _peak_rss_mb() -> float | None:
    """This process's peak resident set size so far in MiB, None where the
    platform does not report it."""
    if resource is None:
        return None
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10  # B / KiB


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
    p.add_argument("--boundary", required=True, help="comma-separated boundary values; a "
                   "list that starts with a minus needs the = spelling, --boundary=-1,0,0")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extend)

    for name, func, help_, data in (
        ("evolve", cmd_evolve, "run the implicit flow from a JSON config", "u0"),
        ("poisson", cmd_poisson, "solve the stationary Robin problem", "source"),
    ):
        p = sub.add_parser(name, help=help_)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, help=f"override the random-{data} seed")
        p.add_argument("--tol", type=float, help="override the solver tolerance")
        p.set_defaults(func=func)

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
    started = time.perf_counter()
    _csv_timings.clear()
    out = Path(args.out)
    try:
        # output paths are relative to the manifest so reruns compare bitwise
        entries, code = args.func(args, out)
        _write_json(out / "manifest.json", {
            "command": args.command,
            "version": __version__,
            **entries,
            "timings": {
                "wall_s": time.perf_counter() - started,
                "peak_rss_mb": _peak_rss_mb(),
                **_csv_timings,
            },
        })
        return code
    # on these command paths a DomainMismatchError can only come from the
    # input, e.g. a poisson source whose mean outgrows the boundary penalties
    except (ConfigError, ResourceLimitError, DomainMismatchError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # configs are read (or refused) before any output is written, so this is
    # an --out that cannot hold the outputs, e.g. an existing file
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        _report_failure(exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
