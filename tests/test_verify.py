from dataclasses import asdict
from fractions import Fraction

import numpy as np
import pytest

from gasketflow import (
    CheckReport,
    ConfigError,
    EnergyForm,
    Ensemble,
    RobinSpec,
    SampleConfig,
    batch_energy,
    batch_perturbed_energy,
    build_level,
    builtin_specs,
    check_energy_inequalities,
    check_flow_properties,
    check_locality,
    check_perturbed_criteria,
    run_suite,
)
from gasketflow import cli, verify
from gasketflow.verify import (
    SUITE_NAMES,
    _clamped_pair,
    _envelope_pair,
    _relative_slack,
    _with_feasible_boundary,
)

from oracles import edge_pairs, flow_properties_reference, strict_json


def test_scalar_trivial_tuple_holds_with_equality():
    # all-zero data collapses both clamped pairs onto the data itself
    f, s = _clamped_pair(np.array([0.0]), np.array([0.0]), np.array([1.0]))
    assert f[0] == 0.0 and s[0] == 0.0
    c, d = _envelope_pair(np.array([0.0]), np.array([0.0]))
    assert c[0] == 0.0 and d[0] == 0.0


def test_scalar_worked_example():
    # (a, b) = ((1, -1), (2, 0)), alpha = 1: clamp contraction holds
    a = np.array([1.0, -1.0])
    b = np.array([2.0, 0.0])
    alpha = np.array([1.0, 1.0])
    f, s = _clamped_pair(a, b, alpha)
    lhs = (f[0] - f[1]) ** 2 + (s[0] - s[1]) ** 2
    rhs = (a[0] - a[1]) ** 2 + (b[0] - b[1]) ** 2
    assert lhs <= rhs + 1e-15
    # the two-point gasket at level 0 has this energy, which the scalar suite checks
    form = EnergyForm(build_level(2, 0))
    assert batch_energy(form, f) + batch_energy(form, s) == lhs
    assert batch_energy(form, a) + batch_energy(form, b) == rhs


def test_scalar_suite_clean():
    form = EnergyForm(build_level(2, 0))
    reports = check_energy_inequalities(form, SampleConfig(seed=1, sample_count=20_000))
    assert [r.property for r in reports] == [
        "energy_clamp_contraction[n=2,m=0]",
        "energy_envelope_domination[n=2,m=0]",
    ]
    for r in reports:
        assert r.violations == 0
        assert r.samples == 20_000
        assert r.max_slack <= 1e-12


def test_energy_suite_clean():
    for m in (1, 2):
        form = EnergyForm(build_level(3, m))
        reports = check_energy_inequalities(form, SampleConfig(seed=m, sample_count=300))
        for r in reports:
            assert r.violations == 0, r


def test_energy_inequality_equal_inputs_are_tight():
    # u = v makes the clamped pair reproduce (u, v)
    form = EnergyForm(build_level(3, 1))
    g = form.graph
    rng = np.random.default_rng(0)
    u = rng.uniform(-1, 1, g.vertex_count)
    alpha = 0.7
    low = 0.5 * (u + u - alpha)
    high = 0.5 * (u + u + alpha)
    first = np.minimum(np.maximum(u, low), high)
    second = np.maximum(np.minimum(u, high), low)
    np.testing.assert_allclose(first, u, atol=1e-15)
    np.testing.assert_allclose(second, u, atol=1e-15)


def test_perturbed_criteria_clean():
    form = EnergyForm(build_level(3, 2))
    reports = check_perturbed_criteria(form, SampleConfig(seed=2, sample_count=150))
    names = {r.property for r in reports}
    assert any(name.startswith("submodularity[") for name in names)
    assert any(name.startswith("positive_part[") for name in names)
    assert any(name.startswith("sup_clamp[") for name in names)
    assert any(name.startswith("envelope_domination[") for name in names)
    for r in reports:
        assert r.violations == 0, r


@pytest.mark.parametrize("name", ["box", "dirichlet", "mixed"])
def test_feasible_boundary_gives_half_the_samples_finite_energy(name):
    # one coin per sample: the boundary of about half the rows is moved
    # onto the domain, so the finite branches are checked on that many
    graph = build_level(3, 2)
    spec = builtin_specs(3)[name]
    rng = np.random.default_rng(0)
    u = _with_feasible_boundary(rng.uniform(-1.0, 1.0, (1000, graph.vertex_count)), spec, graph, rng)
    assert np.sum(np.isfinite(batch_perturbed_energy(EnergyForm(graph), spec, u))) >= 450


def test_locality_clean_across_specs():
    form = EnergyForm(build_level(3, 2))
    for name in ("neumann", "dirichlet", "quadratic", "mixed"):
        report = check_locality(
            form, builtin_specs(3)[name], SampleConfig(seed=3, sample_count=60), name
        )
        assert report.violations == 0, report
        assert report.samples == 60


def test_locality_also_clean_at_level_one():
    form = EnergyForm(build_level(3, 1))
    report = check_locality(
        form, RobinSpec.dirichlet(3), SampleConfig(seed=4, sample_count=40)
    )
    assert report.violations == 0


def _shared_vertex(graph, rng):
    # no edge has u != 0 at one end and v != 0 at the other
    mask = np.arange(graph.vertex_count) == graph.vertex_count // 2
    return mask, mask


def _joining_edge(graph, rng):
    # a random edge, u on one end and v on the other, in either orientation
    k = int(rng.integers(graph.edge_arrays[0].size))
    ends = [np.arange(graph.vertex_count) == e[k] for e in graph.edge_arrays]
    return tuple(ends if rng.random() < 0.5 else ends[::-1])


@pytest.mark.parametrize("name", ["neumann", "dirichlet", "quadratic", "mixed"])
@pytest.mark.parametrize(
    "masks, joined",
    [
        pytest.param(_shared_vertex, True, id="shared-vertex"),
        pytest.param(_joining_edge, True, id="joining-edge"),
        pytest.param(verify._subtree_masks, False, id="sampler"),
    ],
)
def test_locality_exact_part_flags_every_pair_the_rational_identity_flags(
    monkeypatch, masks, joined, name
):
    # replay the suite's draws (masks, then u, then v, per sample) and
    # decide sum (Du + Dv)^2 = sum Du^2 + sum Dv^2 in exact rationals; the
    # boolean check on the supports must flag (slack inf) every pair that
    # fails it
    graph, spec, cfg = build_level(3, 2), builtin_specs(3)[name], SampleConfig(5, 40)
    slacks, report_of = [], verify._report

    def keep_slack(label, slack, seed):
        slacks.append(slack)
        return report_of(label, slack, seed)

    monkeypatch.setattr(verify, "_subtree_masks", masks)
    monkeypatch.setattr(verify, "_report", keep_slack)
    report = check_locality(EnergyForm(graph), spec, cfg, name)

    def energy(values):
        return sum((values[i] - values[j]) ** 2 for i, j in edge_pairs(graph))

    rng = np.random.default_rng(cfg.seed)
    fails = []
    for _ in range(cfg.sample_count):
        mask_a, mask_b = masks(graph, rng)
        u = [Fraction(x) for x in rng.uniform(-1.0, 1.0, graph.vertex_count) * mask_a]
        v = [Fraction(x) for x in rng.uniform(-1.0, 1.0, graph.vertex_count) * mask_b]
        fails.append(energy([a + b for a, b in zip(u, v)]) != energy(u) + energy(v))
    assert np.all(slacks[0][fails] == np.inf)
    assert all(fails) if joined else not any(fails)
    if joined:
        assert report.violations == report.samples == cfg.sample_count
        assert report.max_slack == np.inf
    else:
        assert report.violations == 0, report


def test_flow_properties_clean_small():
    cfg = SampleConfig(seed=0, sample_count=2)
    reports = check_flow_properties(cfg)
    names = {r.property for r in reports}
    assert {
        "positivity",
        "order_preservation",
        "sup_contraction",
        "l2_contraction",
        "energy_decay",
        "domination_by_neumann",
        "domination_of_dirichlet",
        "mean_conservation",
    } <= names
    for r in reports:
        assert r.violations == 0, r


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_flow_properties_equal_the_per_call_reference(seed):
    # the ensembles reproduce the one-evolve-per-trajectory loop bit for bit
    cfg = SampleConfig(seed=seed, sample_count=3)
    got = [asdict(r) for r in check_flow_properties(cfg)]
    assert got == [asdict(r) for r in flow_properties_reference(cfg)]


def test_flow_properties_mask_and_anchor_each_reduction(monkeypatch):
    # Every trajectory is the crafted stack: a constant state whose mu-mean
    # moves from 1 to 1.5 and partly back to 1.2, under an energy that goes
    # from finite to infinite.  A rise out of a finite energy is a
    # violation, and the mean drifts by 0.5 from the first step; masking by
    # the later energy, or measuring against the last step, reads otherwise.
    levels = np.array([1.0, 1.5, 1.2, 1.2, 1.2, 1.2])
    energy = np.array([1.0, 0.5, np.inf, np.inf, np.inf, np.inf])

    def crafted_evolve(form, measure, spec, initial, config):
        assert config.n_steps + 1 == len(levels)
        shape = (len(initial), len(levels), initial.shape[1])
        return Ensemble(form.graph, None, np.broadcast_to(levels[None, :, None], shape), [])

    monkeypatch.setattr(verify, "evolve", crafted_evolve)
    monkeypatch.setattr(
        verify, "batch_perturbed_energy",
        lambda form, spec, stack: np.broadcast_to(energy, stack.shape[:2]),
    )
    reports = {r.property: r for r in check_flow_properties(SampleConfig(seed=0, sample_count=2))}
    decay = reports["energy_decay"]
    assert decay.max_slack == np.inf
    assert decay.violations == decay.samples == 2 * len(builtin_specs(3))
    conservation = reports["mean_conservation"]
    assert conservation.max_slack == pytest.approx(0.5, abs=1e-12)  # the total mass is 1
    assert conservation.violations == conservation.samples == 2


def test_flow_properties_do_not_depend_on_the_block_size(monkeypatch):
    # blocks of 2 pairs split 5 pairs into ensembles of 2, 2 and 1
    cfg = SampleConfig(seed=4, sample_count=5)
    whole = [asdict(r) for r in check_flow_properties(cfg)]
    monkeypatch.setattr(verify, "FLOW_PAIRS_PER_ENSEMBLE", 2)
    assert [asdict(r) for r in check_flow_properties(cfg)] == whole


def test_reports_are_reproducible():
    form = EnergyForm(build_level(2, 0))
    a = check_energy_inequalities(form, SampleConfig(seed=9, sample_count=5000))
    b = check_energy_inequalities(form, SampleConfig(seed=9, sample_count=5000))
    assert [asdict(r) for r in a] == [asdict(r) for r in b]


def test_report_schema():
    report = CheckReport("demo", 10, 0, -1.0, 3)
    assert set(asdict(report)) == {
        "property",
        "samples",
        "violations",
        "max_slack",
        "seed",
    }


def test_relative_slack_inf_semantics():
    inf = float("inf")
    slack = _relative_slack(np.array([1.0, inf, inf, 1.0]), np.array([inf, inf, 1.0, 1.0]))
    assert slack[0] == -inf  # finite <= inf
    assert slack[1] == -inf  # inf <= inf passes
    assert slack[2] == inf  # inf <= finite fails
    assert slack[3] == 0.0


#: small sample counts that keep each suite under a second
JSON_READY_SAMPLES = {"scalar": 1000, "energy": 50, "perturbed": 20, "locality": 5, "flow": 1}


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_run_suite_json_ready(tmp_path, name):
    # a max_slack of -inf (no finite sample pair) would be spelled null, so
    # the report is strict JSON
    result = run_suite(name, seed=0, sample_count=JSON_READY_SAMPLES[name])
    cli._write_json(tmp_path / "report.json", result)
    parsed = strict_json((tmp_path / "report.json").read_text())
    assert parsed["suite"] == name
    assert parsed["violations"] == 0


def test_run_suite_rejects_unknown_name():
    with pytest.raises(ValueError):
        run_suite("bogus")


def test_sample_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        SampleConfig(seed=-1)
    with pytest.raises(ConfigError):
        SampleConfig(sample_count=0)


def test_run_suite_rejects_zero_samples():
    # 0 is not "use the default": the flow suite would otherwise run 3 pairs
    with pytest.raises(ConfigError):
        run_suite("flow", sample_count=0)
