import numpy as np
import pytest

from gasketflow import (
    DomainMismatchError,
    MeasureWeights,
    VertexFunction,
    build_level,
    harmonic_extend,
    l2_inner,
    l2_norm,
    mean,
    vertex_measure,
)
from gasketflow.energy import EnergyForm

from oracles import vertex_labels


def test_weights_validation():
    with pytest.raises(ValueError):
        MeasureWeights((0.5, 0.5, 0.5))  # sum != 1
    with pytest.raises(ValueError):
        MeasureWeights((1.0, 0.0))  # zero entry
    with pytest.raises(ValueError):
        MeasureWeights((1.2, -0.2))
    with pytest.raises(ValueError):
        MeasureWeights((float("nan"), 0.5, 0.5))
    with pytest.raises(ValueError):
        MeasureWeights((float("inf"), 0.5, 0.5))
    w = MeasureWeights.uniform(4)
    assert sum(w.weights) == pytest.approx(1.0, abs=1e-15)


def test_uniform_level0_masses():
    g = build_level(3, 0)
    measure = vertex_measure(g, MeasureWeights.uniform(3))
    np.testing.assert_allclose(measure.masses, 1.0 / 3.0, atol=1e-15)


def test_uniform_level1_mass_table():
    g = build_level(3, 1)
    measure = vertex_measure(g, MeasureWeights.uniform(3))
    for i in range(g.vertex_count):
        if i in g.boundary:
            assert measure.masses[i] == pytest.approx(1.0 / 9.0, abs=1e-15)
        else:
            assert measure.masses[i] == pytest.approx(2.0 / 9.0, abs=1e-15)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_boundary_mass_closed_form(m):
    # one incident cell of mass (1/3)^m, split three ways
    g = build_level(3, m)
    measure = vertex_measure(g, MeasureWeights.uniform(3))
    expected = (1.0 / 3.0) ** m / 3.0
    for i in g.boundary:
        assert measure.masses[i] == pytest.approx(expected, rel=1e-12)


def test_boundary_mass_vanishes_with_level():
    masses = []
    for m in range(5):
        g = build_level(3, m)
        measure = vertex_measure(g, MeasureWeights.uniform(3))
        masses.append(measure.masses[g.boundary[0]])
    assert all(b / a == pytest.approx(1.0 / 3.0, rel=1e-12) for a, b in zip(masses, masses[1:]))


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("m", [0, 1, 2, 3, 4, 5])
def test_total_mass_one_random_weights(n, m):
    rng = np.random.default_rng(10 * n + m)
    for _ in range(10):
        raw = rng.uniform(0.1, 1.0, n)
        weights = MeasureWeights(tuple(raw / raw.sum()))
        g = build_level(n, m)
        measure = vertex_measure(g, weights)
        assert float(measure.masses.sum()) == pytest.approx(1.0, abs=1e-12)
        assert np.all(measure.masses > 0)


def test_nonuniform_weights_distribute_by_word_product():
    weights = MeasureWeights((0.5, 0.3, 0.2))
    g = build_level(3, 1)
    measure = vertex_measure(g, weights)
    # boundary vertex p_1 only touches the cell with word (0,), mass 0.5/3
    assert measure.masses[g.boundary[0]] == pytest.approx(0.5 / 3.0, rel=1e-12)
    # the midpoint between p_1 and p_2 touches cells (0,) and (1,)
    mid = vertex_labels(g).index((1, 1, 0))
    assert measure.masses[mid] == pytest.approx((0.5 + 0.3) / 3.0, rel=1e-12)


def test_l2_inner_examples():
    g = build_level(3, 1)
    measure = vertex_measure(g, MeasureWeights.uniform(3))
    ones = VertexFunction(g, np.ones(g.vertex_count))
    assert l2_inner(measure, ones, ones) == pytest.approx(1.0, abs=1e-12)

    indicator = np.zeros(g.vertex_count)
    indicator[g.boundary[0]] = 1.0
    ind = VertexFunction(g, indicator)
    assert l2_inner(measure, ind, ind) == pytest.approx(1.0 / 9.0, rel=1e-12)


def test_l2_inner_positive_definite():
    g = build_level(3, 2)
    measure = vertex_measure(g, MeasureWeights.uniform(3))
    rng = np.random.default_rng(0)
    u = VertexFunction(g, rng.uniform(-1, 1, g.vertex_count))
    assert l2_inner(measure, u, u) > 0
    zero = VertexFunction(g, np.zeros(g.vertex_count))
    assert l2_inner(measure, zero, zero) == 0.0
    assert l2_norm(measure, u) == pytest.approx(np.sqrt(l2_inner(measure, u, u)))


def test_mass_conserved_under_refinement():
    # the constant 1 extends to the constant 1 and keeps unit mass
    g = build_level(3, 2)
    form = EnergyForm(g)
    measure_fine = vertex_measure(build_level(3, 3), MeasureWeights.uniform(3))
    ones = VertexFunction(g, np.ones(g.vertex_count))
    ext = harmonic_extend(form, ones)
    fine_ones = VertexFunction(ext.graph, np.ones(ext.graph.vertex_count))
    assert l2_inner(measure_fine, ext, fine_ones) == pytest.approx(1.0, abs=1e-12)


def test_mean_is_unit_pairing():
    g = build_level(3, 2)
    measure = vertex_measure(g, MeasureWeights.uniform(3))
    rng = np.random.default_rng(1)
    u = VertexFunction(g, rng.uniform(-1, 1, g.vertex_count))
    ones = VertexFunction(g, np.ones(g.vertex_count))
    assert mean(measure, u) == pytest.approx(l2_inner(measure, u, ones), rel=1e-13)


def test_measure_graph_mismatch():
    g1 = build_level(3, 1)
    g2 = build_level(3, 2)
    measure = vertex_measure(g1, MeasureWeights.uniform(3))
    u = VertexFunction(g2, np.zeros(g2.vertex_count))
    with pytest.raises(DomainMismatchError):
        l2_inner(measure, u, u)
    with pytest.raises(DomainMismatchError):
        vertex_measure(g1, MeasureWeights.uniform(4))
