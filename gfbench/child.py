"""One benchmark operation in a fresh interpreter.

Usage: ``python3 child.py OP.json RESULT.json [--trace]``

Imports ``gasketflow`` from the ``src`` directory named in the operation,
records ``time.monotonic()`` when the import returns (the harness took the
same clock just before the spawn), optionally installs the tracer, runs the
operation and writes a JSON result.  The exit code is the operation's.
"""

from __future__ import annotations

import json
import sys
import time


def _lib_summary(params: dict) -> dict:
    """Run the evolve-lib operation through the library API and summarize
    its trajectory."""
    import numpy as np

    import gasketflow as gf

    n = params["N"]
    graph = gf.build_level(n, params["m"])
    measure = gf.vertex_measure(graph, gf.MeasureWeights.uniform(n))
    spec = gf.RobinSpec.from_json(params["spec"])
    rng = np.random.default_rng(params["u0_seed"])
    u0 = gf.VertexFunction(graph, rng.uniform(-1.0, 1.0, graph.vertex_count))
    config = gf.FlowConfig(tau=params["tau"], t_end=params["t_end"], tol=params["tol"])
    trajectory = gf.evolve(gf.EnergyForm(graph), measure, spec, u0, config)

    masses = measure.masses
    boundary = list(graph.boundary)
    finite = True
    l2 = []
    for state in trajectory.states:
        values = state.values
        finite = finite and values.shape == (graph.vertex_count,) and bool(
            np.all(np.isfinite(values))
        )
        l2.append(float(np.sqrt(np.sum(masses * values * values))))
    last = trajectory.states[-1].values
    return {
        "states": len(trajectory.states),
        "vertices": graph.vertex_count,
        "finite": finite,
        "times": [float(trajectory.times[0]), float(trajectory.times[-1])],
        "residuals": [d.residual for d in trajectory.diagnostics],
        "l2": l2,
        "boundary_last": [float(last[i]) for i in boundary],
        "last_sum": float(np.sum(last)),
        "last_max_abs": float(np.max(np.abs(last))),
    }


def main(argv: list[str]) -> int:
    op_path, result_path = argv[0], argv[1]
    with open(op_path) as fh:
        op = json.load(fh)
    sys.path.insert(0, op["src"])
    import gasketflow  # noqa: F401  (the timed import)

    imported = time.monotonic()
    import gasketflow.cli

    tracer = None
    if "--trace" in argv[2:]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    summary = None
    if op["kind"] == "cli":
        rc = gasketflow.cli.main(op["argv"])
    else:
        summary = _lib_summary(op["params"])
        rc = 0
    result = {
        "imported": imported,
        "rc": rc,
        "summary": summary,
        "trace": tracer.summary() if tracer else None,
    }
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
