import json
from dataclasses import asdict

import numpy as np
import pytest

from gasketflow import (
    CheckReport,
    ConfigError,
    EnergyForm,
    RobinSpec,
    SampleConfig,
    build_level,
    builtin_specs,
    check_energy_inequalities,
    check_flow_properties,
    check_locality,
    check_perturbed_criteria,
    check_scalar_inequalities,
    run_suite,
)
from gasketflow import verify
from gasketflow.verify import _clamped_pair, _envelope_pair, _relative_slack

from oracles import flow_properties_reference


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


def test_scalar_suite_clean():
    reports = check_scalar_inequalities(SampleConfig(seed=1, sample_count=20_000))
    assert [r.property for r in reports] == [
        "scalar_clamp_contraction",
        "scalar_envelope_domination",
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


def test_flow_properties_do_not_depend_on_the_block_size(monkeypatch):
    # blocks of 2 pairs split 5 pairs into ensembles of 2, 2 and 1
    cfg = SampleConfig(seed=4, sample_count=5)
    whole = [asdict(r) for r in check_flow_properties(cfg)]
    monkeypatch.setattr(verify, "FLOW_PAIRS_PER_ENSEMBLE", 2)
    assert [asdict(r) for r in check_flow_properties(cfg)] == whole


def test_reports_are_reproducible():
    a = check_scalar_inequalities(SampleConfig(seed=9, sample_count=5000))
    b = check_scalar_inequalities(SampleConfig(seed=9, sample_count=5000))
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


def test_run_suite_json_ready():
    result = run_suite("scalar", seed=0, sample_count=1000)
    text = json.dumps(result)
    parsed = json.loads(text)
    assert parsed["suite"] == "scalar"
    assert parsed["violations"] == 0
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
