"""Benchmark harness for gasketflow.

Usage::

    python3 gfbench/run.py --workload evolve-cli --seed 0 --seconds 30 --trace 0

Run from the root of a source checkout; nothing needs installing, the
children import ``gasketflow`` from ``src/``.  The harness makes the
workload's inputs from ``--seed`` (see ``workloads.py``), then runs one
operation at a time, each in a fresh child process, until ``--seconds``
have passed.  Every operation's output is checked (``checks.py``); a failed
operation is counted and timed nowhere.

The children run with the OpenBLAS and OpenMP pools pinned to one thread
and ``GASKETFLOW_THREADS`` unset, so a child and the waiting harness never
ask for more than the two cores of the development VM.

``--trace 0`` reports the end-to-end metrics, medians over the run's
operations:

``wall_s``
    child spawn to exit;
``setup_s``
    child spawn until ``import gasketflow`` returns, from
    ``time.monotonic`` stamps taken by the harness and the child;
``peak_rss_mb``
    the child's own peak RSS, from the ``os.wait4`` rusage of that child;
``vertex_steps_per_s``
    vertices x implicit steps of one operation over the median ``wall_s``.

``error_rate`` (failed over attempted operations) is printed with them and
carried by the ``attempted`` and ``failed`` fields of the result line; it is
not a listed metric because it is 0 on a correct program.

``--trace 1`` alternates untraced and traced operations and reports the
per-layer metrics of ``tracer.py`` (medians over the traced operations)
plus ``trace.overhead_s``, the traced minus the untraced median wall time.
Work counts must repeat exactly across the traced operations of a run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Earlier lines give
each metric by name with its unit, and the child environment with the
Python, numpy, scipy and OpenBLAS versions.

``--record-reference`` runs one operation at seed 0 and stores its summary
in ``reference.json``; runs at seed 0 compare against it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import numpy as np

from checks import CHECKS, CheckError, compare_reference
from workloads import WORKLOADS, make_op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".gfbench_work"
REFERENCE = HERE / "reference.json"
REFERENCE_SEED = 0
OP_TIMEOUT_S = 120.0

PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

#: (name, unit) of every end-to-end metric
END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("vertex_steps_per_s", "1/s"),
)

#: (name, unit) of every per-layer metric, in report order
LAYER_METRICS = (
    ("gasket.build_level.self_s", "s"),
    ("gasket.build_level.misses", "count"),
    ("gasket.build_level.maxrss_mb", "MiB"),
    ("measure.vertex_measure.self_s", "s"),
    ("energy.harmonic_extend.self_s", "s"),
    ("energy.harmonic_extend.calls", "count"),
    ("energy.stiffness_matrix.self_s", "s"),
    ("energy.stiffness_matrix.calls", "count"),
    ("flow.factorizations_per_operator", "count"),
    ("flow.evolve.self_s", "s"),
    ("flow.poisson_solve.self_s", "s"),
    ("flow.steps", "count"),
    ("flow.inner_iters", "count"),
    ("flow.max_residual", "1"),
    ("robin.prox.calls", "count"),
    ("robin.perturbed_energy.self_s", "s"),
    ("verify.run_suite.self_s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.bytes_written", "B"),
    ("trace.unattributed_s", "s"),
    ("trace.overhead_s", "s"),
)

#: counts that must repeat exactly between traced operations of one seed
REPEATED_COUNTS = (
    "flow.steps",
    "flow.inner_iters",
    "robin.prox.calls",
    "energy.stiffness_matrix.calls",
    "gasket.build_level.misses",
    "cli.bytes_written",
)


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("GASKETFLOW_THREADS", "PYTHONPATH")}
    env.update(PINNED)
    env["PYTHONHASHSEED"] = "0"
    return env


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": metadata.version("scipy"),
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "child_env": {**PINNED, "GASKETFLOW_THREADS": "unset"},
    }


class Operation:
    """One workload operation, spawned and checked as often as needed."""

    def __init__(self, name: str, seed: int, workdir: Path):
        self.name = name
        self.workdir = workdir
        self.op = make_op(name, seed, workdir)
        self.op["src"] = str(SRC)
        self.op_path = workdir / "op.json"
        self.op_path.write_text(json.dumps(self.op))
        self.result_path = workdir / "result.json"
        self.stderr_path = workdir / "stderr.txt"
        self.reference = None
        if seed == REFERENCE_SEED and REFERENCE.exists():
            self.reference = json.loads(REFERENCE.read_text()).get(name)

    def _spawn(self, trace: bool) -> tuple[float, float, int, float, bool]:
        """Run one child; return its start and wall time, exit code, peak
        RSS in MiB and whether it was killed for taking too long."""
        argv = [sys.executable, str(HERE / "child.py"), str(self.op_path), str(self.result_path)]
        if trace:
            argv.append("--trace")
        with open(self.stderr_path, "wb") as err:
            start = time.monotonic()
            proc = subprocess.Popen(
                argv, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, stderr=err
            )
            killed = threading.Event()

            def kill():
                killed.set()
                proc.kill()

            timer = threading.Timer(OP_TIMEOUT_S, kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            wall = time.monotonic() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return start, wall, proc.returncode, usage.ru_maxrss / 1024.0, killed.is_set()

    def run(self, trace: bool = False) -> dict:
        """Spawn, time and check one operation.

        Returns ``{"ok": False, "error": ...}`` for a failed operation, and
        otherwise its times, peak RSS, output summary and trace summary.
        """
        out = Path(self.op.get("out", self.workdir / "out"))
        shutil.rmtree(out, ignore_errors=True)
        self.result_path.unlink(missing_ok=True)
        start, wall, rc, peak_mb, timed_out = self._spawn(trace)
        if rc != 0:
            tail = self.stderr_path.read_text(errors="replace").strip().splitlines()[-3:]
            why = "timed out" if timed_out else f"exit code {rc}"
            return {"ok": False, "error": f"{why}: {' | '.join(tail)}"}
        try:
            result = json.loads(self.result_path.read_text())
            summary = CHECKS[self.name](self.op, result)
            if self.reference is not None:
                compare_reference(summary, self.reference)
        except (CheckError, OSError, ValueError, KeyError, TypeError) as exc:
            return {"ok": False, "error": f"check failed: {type(exc).__name__}: {exc}"}
        written = sum(
            p.stat().st_size for p in out.glob("*") if p.name != "manifest.json"
        ) if out.exists() else 0
        return {
            "ok": True,
            "wall_s": wall,
            "setup_s": result["imported"] - start,
            "peak_rss_mb": peak_mb,
            "summary": summary,
            "trace": result["trace"],
            "bytes_written": written,
        }


def warm_up() -> None:
    """Compile the sources and load the imports once, untimed."""
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC), str(HERE)],
        env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL, check=True,
    )
    subprocess.run(
        [sys.executable, "-c", "import sys; sys.path.insert(0, sys.argv[1]); import gasketflow.cli", str(SRC)],
        env=child_env(), cwd=ROOT, check=True,
    )


def layer_metrics(traced: list[dict], untraced: list[dict]) -> dict:
    """Per-layer values: medians of times over traced operations, counts
    from the first (they must repeat, which the caller checks)."""
    med = statistics.median

    def self_s(name):
        return med([r["trace"]["self_s"].get(name, 0.0) for r in traced])

    first = traced[0]["trace"]
    counts = first["counts"]
    calls = first["calls"]
    values = {
        "gasket.build_level.self_s": self_s("gasket.build_level"),
        "gasket.build_level.misses": counts.get("gasket.build_level.misses", 0),
        "gasket.build_level.maxrss_mb": med(
            [r["trace"]["maxrss_kb"].get("gasket.build_level", 0) / 1024.0 for r in traced]
        ),
        "measure.vertex_measure.self_s": self_s("measure.vertex_measure"),
        "energy.harmonic_extend.self_s": self_s("energy.harmonic_extend"),
        "energy.harmonic_extend.calls": calls.get("energy.harmonic_extend", 0),
        "energy.stiffness_matrix.self_s": self_s("energy.stiffness_matrix"),
        "energy.stiffness_matrix.calls": calls.get("energy.stiffness_matrix", 0),
        "flow.factorizations_per_operator": counts.get("flow.factorizations_per_operator", 0.0),
        "flow.evolve.self_s": self_s("flow.evolve"),
        "flow.poisson_solve.self_s": self_s("flow.poisson_solve"),
        "flow.steps": counts.get("flow.steps", 0),
        "flow.inner_iters": counts.get("flow.inner_iters", 0),
        "flow.max_residual": max(r["trace"]["max_residual"] for r in traced),
        "robin.prox.calls": counts.get("robin.prox.calls", 0),
        "robin.perturbed_energy.self_s": self_s("robin.perturbed_energy"),
        "verify.run_suite.self_s": self_s("verify.run_suite"),
        "cli.main.self_s": self_s("cli.main"),
        "cli.bytes_written": traced[0]["bytes_written"],
        "trace.unattributed_s": med([r["wall_s"] - r["trace"]["top_level_s"] for r in traced]),
        "trace.overhead_s": med([r["wall_s"] for r in traced]) - med([r["wall_s"] for r in untraced]),
    }
    return values


def repeated_counts(result: dict) -> dict:
    counts = dict(result["trace"]["counts"])
    counts["energy.stiffness_matrix.calls"] = result["trace"]["calls"].get("energy.stiffness_matrix", 0)
    counts["cli.bytes_written"] = result["bytes_written"]
    return {k: counts.get(k, 0) for k in REPEATED_COUNTS}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{name}-{os.getpid()}"
    workdir.mkdir()
    try:
        operation = Operation(name, seed, workdir)
        untraced: list[dict] = []
        traced: list[dict] = []
        errors: list[str] = []
        attempted = 0
        started = time.monotonic()
        deadline = started + seconds
        while True:
            done = untraced and (traced or not trace)
            # an operation that would mostly run past the deadline is not
            # started, so a run lasts about --seconds whatever the op length;
            # past it, a run that has no result of some kind yet gets at
            # least four tries, and report() marks what is missing
            per_op = (time.monotonic() - started) / max(attempted, 1)
            if time.monotonic() + per_op / 2 >= deadline and (done or attempted >= 4):
                break
            if attempted >= 4 and not untraced:
                break  # nothing succeeds; stop instead of spinning
            with_trace = trace and attempted % 2 == 1
            result = operation.run(trace=with_trace)
            attempted += 1
            if not result["ok"]:
                errors.append(result["error"])
            elif with_trace:
                traced.append(result)
            else:
                untraced.append(result)
        return {
            "op": operation.op,
            "attempted": attempted,
            "errors": errors,
            "untraced": untraced,
            "traced": traced,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(name: str, run: dict, trace: bool) -> dict:
    """Print the metrics by name and return the result line's object."""
    untraced, traced, errors = run["untraced"], run["traced"], run["errors"]
    attempted, failed = run["attempted"], len(errors)
    correct = failed == 0
    for error in errors:
        print(f"{name}: FAILED {error}")
    print(f"{name}: {attempted} operations, {failed} failed, error_rate {failed / attempted:.4g} (1)")
    metrics = {}
    if untraced:
        walls = [r["wall_s"] for r in untraced]
        wall = statistics.median(walls)
        print(
            f"{name}: wall_s over {len(walls)} untraced operations: median {wall:.4f} s "
            f"[{' '.join(f'{w:.3f}' for w in walls)}]"
        )
        op = run["op"]
        values = {
            "wall_s": wall,
            "setup_s": statistics.median(r["setup_s"] for r in untraced),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in untraced),
            "vertex_steps_per_s": op["vertices"] * op["steps"] / wall,
        }
        metrics = {m: (values[m], unit) for m, unit in END_TO_END}
    if trace:
        if traced:
            counts = [repeated_counts(r) for r in traced]
            if any(c != counts[0] for c in counts):
                correct = False
                print(f"{name}: FAILED work counts differ between traced runs: {counts}")
            missing = traced[0]["trace"]["missing"]
            if missing:
                print(f"{name}: tracer targets missing from the package: {', '.join(missing)}")
            values = layer_metrics(traced, untraced)
            metrics = {m: (values[m], unit) for m, unit in LAYER_METRICS}
        else:
            correct = False
            metrics = {}
    for metric, (value, unit) in metrics.items():
        print(f"{name}: {metric} = {value:.6g} {unit}")
    return {
        "correct": correct and bool(untraced),
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def record_reference(name: str) -> None:
    stored = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"reference-{name}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        operation = Operation(name, REFERENCE_SEED, workdir)
        operation.reference = None
        result = operation.run()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not result["ok"]:
        raise SystemExit(f"{name}: {result['error']}")
    stored[name] = result["summary"]
    REFERENCE.write_text(json.dumps(stored, indent=1, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=REFERENCE_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "gasketflow" / "__init__.py").is_file():
        print(f"error: no gasketflow sources under {SRC}", file=sys.stderr)
        return 2
    warm_up()
    if args.record_reference:
        record_reference(args.workload)
        return 0
    print(json.dumps({"environment": environment()}))
    run = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    result = report(args.workload, run, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
