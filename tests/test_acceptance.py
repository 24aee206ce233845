"""Acceptance suite: every exit criterion at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.

Criterion 2 asserts, among the true level-m inequalities, the lattice
EQUALITY energy(max(u,v)) + energy(min(u,v)) = energy(u) + energy(v) for
random pairs at a fixed level.  That equality holds only for the limit
energy; at any fixed level the left side falls short by the exact defect
inner((v-u)^+, (v-u)^-) <= 0 whenever an edge is crossed by a sign change
of v - u (see README, "Known failing check").  The check is kept as stated
and fails by design; the provable submodular inequality and the defect
identity are covered in tests/test_energy.py.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest

from gasketflow import (
    EnergyForm,
    FlowConfig,
    MeasureWeights,
    Power,
    RobinSpec,
    SampleConfig,
    VertexFunction,
    batch_energy,
    build_level,
    builtin_specs,
    check_energy_inequalities,
    check_locality,
    cli,
    energy,
    evolve,
    harmonic_extend,
    harmonic_function,
    mean,
    normal_derivative,
    poisson_solve,
    restrict,
    vertex_measure,
)

N = 3
LEVEL = 3
TAU = 0.05
T_END = 1.0
SOLVER_TOL = 1e-9
FLOW_TOL = 1e-7


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"\n[acceptance] {label}: FAIL")
        raise
    print(f"\n[acceptance] {label}: PASS")


def _graph_form_measure(n=N, m=LEVEL):
    g = build_level(n, m)
    return g, EnergyForm(g), vertex_measure(g, MeasureWeights.uniform(n))


# ---------------------------------------------------------------------------
# 1. scalar inequality suite


def test_criterion_1_scalar_inequalities():
    with criterion("criterion 1 (scalar inequalities, 1e5 samples, <5s)"):
        start = time.perf_counter()
        # the energy of the two-point gasket at level 0 is (u_0 - u_1)^2
        form = EnergyForm(build_level(2, 0))
        reports = check_energy_inequalities(form, SampleConfig(seed=101, sample_count=100_000))
        elapsed = time.perf_counter() - start
        for r in reports:
            assert r.violations == 0, r
            assert r.max_slack <= 1e-12
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# 2. energy identities at fixed levels


def test_criterion_2_energy_identities():
    with criterion("criterion 2 (lattice equality + level-m inequalities, 1e-12)"):
        start = time.perf_counter()
        worst_defect = 0.0
        for m in (1, 2, 3):
            form = EnergyForm(build_level(3, m))
            cfg = SampleConfig(seed=200 + m, sample_count=1000)
            for r in check_energy_inequalities(form, cfg):
                assert r.violations == 0, r

            rng = np.random.default_rng(250 + m)
            nv = form.graph.vertex_count
            u = rng.uniform(-1, 1, (1000, nv))
            v = rng.uniform(-1, 1, (1000, nv))
            lhs = batch_energy(form, np.maximum(u, v)) + batch_energy(form, np.minimum(u, v))
            rhs = batch_energy(form, u) + batch_energy(form, v)
            gap = np.abs(lhs - rhs) / np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            worst_defect = max(worst_defect, float(gap.max()))
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f}s"
        print(
            f"\n[acceptance]   criterion 2 detail: clamp-contraction OK, "
            f"envelope-domination OK, lattice-equality max relative defect "
            f"= {worst_defect:.3e} (equality holds only for the limit energy)"
        )
        assert worst_defect <= 1e-12, (
            "fixed-level lattice equality fails as expected; "
            "see the module docstring and README"
        )


# ---------------------------------------------------------------------------
# 3. harmonic extension preserves energy; midpoint rule


def test_criterion_3_harmonic_extension():
    with criterion("criterion 3 (extension preserves energy, midpoint rule, 1e-12)"):
        for n in (3, 4):
            for m in range(4):
                g = build_level(n, m)
                form = EnergyForm(g)
                fine_form = EnergyForm(build_level(n, m + 1))
                rng = np.random.default_rng(300 + 10 * n + m)
                for _ in range(100):
                    u = VertexFunction(g, rng.uniform(-1, 1, g.vertex_count))
                    w0 = energy(form, u)
                    w1 = energy(fine_form, harmonic_extend(form, u))
                    assert abs(w1 - w0) <= 1e-12 * max(1.0, w0)
        ext = harmonic_function(build_level(3, 1), [1.0, 0.0, 0.0])
        labels = (tuple(row) for row in ext.graph.weights.tolist())
        by_weights = dict(zip(labels, ext.values))
        assert abs(by_weights[(1, 1, 0)] - 0.4) <= 1e-12
        assert abs(by_weights[(1, 0, 1)] - 0.4) <= 1e-12
        assert abs(by_weights[(0, 1, 1)] - 0.2) <= 1e-12


# ---------------------------------------------------------------------------
# 4. energy monotonicity in the level


def test_criterion_4_energy_monotonicity():
    with criterion("criterion 4 (restriction energies nondecreasing, -1e-12)"):
        g = build_level(3, 4)
        rng = np.random.default_rng(400)
        for _ in range(100):
            u = VertexFunction(g, rng.uniform(-1, 1, g.vertex_count))
            values = [
                energy(EnergyForm(build_level(3, m)), restrict(u, m)) for m in range(5)
            ]
            for prev, nxt in zip(values, values[1:]):
                assert nxt >= prev - 1e-12 * max(1.0, abs(nxt))


# ---------------------------------------------------------------------------
# 5 + 6. flow ensemble: contraction, positivity, order, sup-contractivity


@pytest.fixture(scope="module")
def flow_ensemble():
    g, form, measure = _graph_form_measure()
    config = FlowConfig(tau=TAU, t_end=T_END, tol=SOLVER_TOL)
    ensemble = {}
    start = time.perf_counter()
    roles = ("u", "v", "abs_u", "above_u")
    u0s = []
    for pair in range(20):
        rng = np.random.default_rng((500, pair))
        u0 = rng.uniform(-1, 1, g.vertex_count)
        v0 = rng.uniform(-1, 1, g.vertex_count)
        gap = np.abs(rng.uniform(-1, 1, g.vertex_count))
        u0s += [u0, v0, np.abs(u0), u0 + gap]
    for name, spec in sorted(builtin_specs(N).items()):
        # one (80, V) ensemble per spec; each member equals its solo run
        runs = evolve(form, measure, spec, np.array(u0s), config).values
        ensemble[name] = [dict(zip(roles, case)) for case in runs.reshape(20, 4, *runs.shape[1:])]
    return {
        "graph": g,
        "measure": measure,
        "cases": ensemble,
        "elapsed": time.perf_counter() - start,
    }


def test_criterion_5_l2_contraction(flow_ensemble):
    with criterion("criterion 5 (weighted-L2 contraction, 20 pairs x specs, <2min)"):
        masses = flow_ensemble["measure"].masses
        for name, cases in flow_ensemble["cases"].items():
            for case in cases:
                dist = np.sqrt(((case["u"] - case["v"]) ** 2 * masses).sum(axis=1))
                worst = float(np.max(np.diff(dist)))
                assert worst <= 10 * SOLVER_TOL, (name, worst)
        assert flow_ensemble["elapsed"] < 120.0, flow_ensemble["elapsed"]


def test_criterion_6_positivity_order_sup(flow_ensemble):
    with criterion("criterion 6 (positivity, order, sup-contractivity, 1e-7)"):
        for name, cases in flow_ensemble["cases"].items():
            for case in cases:
                assert case["abs_u"].min() >= -FLOW_TOL, name
                assert float(np.max(case["u"] - case["above_u"])) <= FLOW_TOL, name
                sups = np.max(np.abs(case["u"] - case["v"]), axis=1)
                assert float(np.max(np.diff(sups))) <= FLOW_TOL, name


# ---------------------------------------------------------------------------
# 7. domination sandwich


def test_criterion_7_sandwich():
    with criterion("criterion 7 (sandwich between plain and pinned flows, 1e-7)"):
        g, form, measure = _graph_form_measure()
        config = FlowConfig(tau=TAU, t_end=T_END, tol=SOLVER_TOL)
        neumann = RobinSpec.neumann(N)
        dirichlet = RobinSpec.dirichlet(N)
        specs = builtin_specs(N)
        for name in ("quadratic", "absolute_value", "mixed"):
            spec = specs[name]
            for pair in range(10):
                rng = np.random.default_rng((700, pair))
                u0 = rng.uniform(-1, 1, g.vertex_count)
                v0 = np.abs(u0) + np.abs(rng.uniform(-1, 1, g.vertex_count))

                def run(vals, sp):
                    return evolve(
                        form, measure, sp, VertexFunction(g, vals), config
                    ).values_matrix()

                mid_u = run(u0, spec)
                neu_v = run(v0, neumann)
                assert float(np.max(np.abs(mid_u) - neu_v)) <= FLOW_TOL, name

                dir_u = run(u0, dirichlet)
                mid_v = run(v0, spec)
                assert float(np.max(np.abs(dir_u) - mid_v)) <= FLOW_TOL, name


# ---------------------------------------------------------------------------
# 8. Robin stationarity of the Poisson solve


def test_criterion_8_robin_optimality():
    with criterion("criterion 8 (Robin boundary condition of the solve, 1e-6)"):
        g, form, measure = _graph_form_measure()
        beta = 2.0
        spec = RobinSpec.uniform(Power(beta, 2.0), N)
        rng = np.random.default_rng(800)
        raw = rng.uniform(-1, 1, g.vertex_count)
        raw[list(g.boundary)] = 0.0  # keeps the discrete condition exact
        u, _ = poisson_solve(form, measure, spec, VertexFunction(g, raw))
        for i in range(N):
            p = g.boundary[i]
            residual = abs(normal_derivative(u, i) + beta * u.values[p])
            assert residual <= 1e-6, (i, residual)


# ---------------------------------------------------------------------------
# 9. level independence of the harmonic boundary sums


def test_criterion_9_normal_derivative_constancy():
    with criterion("criterion 9 (harmonic boundary sums level-independent, 1e-10)"):
        for m in range(5):
            u = harmonic_function(build_level(3, m), [1.0, 0.0, 0.0])
            assert abs(normal_derivative(u, 0) - 2.0) <= 1e-10


# ---------------------------------------------------------------------------
# 10. mean conservation of the plain flow


def test_criterion_10_neumann_mean_conservation():
    with criterion("criterion 10 (plain-flow mean conserved, 1e-9)"):
        g, form, measure = _graph_form_measure()
        rng = np.random.default_rng(1000)
        u0 = VertexFunction(g, rng.uniform(-1, 1, g.vertex_count))
        traj = evolve(
            form, measure, RobinSpec.neumann(N), u0, FlowConfig(TAU, T_END, SOLVER_TOL)
        )
        means = [mean(measure, s) for s in traj.states]
        drift = max(abs(x - means[0]) for x in means)
        assert drift <= 1e-9, drift


# ---------------------------------------------------------------------------
# 11. locality of the perturbed energy


def test_criterion_11_locality():
    with criterion("criterion 11 (additivity on disjoint supports, exact)"):
        form = EnergyForm(build_level(3, 2))
        specs = builtin_specs(3)
        for name in ("neumann", "dirichlet", "quadratic", "absolute_value", "mixed"):
            report = check_locality(
                form, specs[name], SampleConfig(seed=1100, sample_count=100), name
            )
            assert report.violations == 0, report


# ---------------------------------------------------------------------------
# 12. bitwise reproducibility of CLI runs


def test_criterion_12_determinism(tmp_path):
    with criterion("criterion 12 (bitwise reproducible outputs)"):
        config = {
            "N": 3,
            "m": 2,
            "weights": [0.5, 0.3, 0.2],
            "spec": [{"kind": "quadratic", "beta": 1.0}, "neumann", "dirichlet"],
            "tau": 0.1,
            "t_end": 0.5,
            "u0": {"kind": "random", "seed": 12},
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert cli.main(["evolve", "--config", str(cfg_path), "--out", str(out)]) == 0
            outs.append(out)
        first = (outs[0] / "trajectory.csv").read_bytes()
        second = (outs[1] / "trajectory.csv").read_bytes()
        assert first == second

        reports = []
        for sub in ("va", "vb"):
            out = tmp_path / sub
            assert (
                cli.main(
                    [
                        "verify",
                        "--suite",
                        "energy",
                        "--seed",
                        "3",
                        "--samples",
                        "200",
                        "--out",
                        str(out),
                    ]
                )
                == 0
            )
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]

        manifests = []
        for out in outs:
            doc = json.loads((out / "manifest.json").read_text())
            doc.pop("timings")
            manifests.append(doc)
        assert manifests[0] == manifests[1]
