import importlib
import itertools

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from gasketflow import (
    DomainMismatchError,
    EnergyForm,
    MeasureWeights,
    VertexFunction,
    batch_energy,
    build_level,
    energy,
    energy_profile,
    harmonic_extend,
    harmonic_function,
    inner,
    restrict,
    stiffness_matrix,
    vertex_measure,
)
import gasketflow.gasket as gasket_mod
from gasketflow.energy import _extension_matrix
from gasketflow.gasket import _ancestor_corners, _cell_edges

from oracles import energy_reference, min_energy_extension, vertex_labels


def _form(n, m):
    return EnergyForm(build_level(n, m))


def _fn(n, m, values):
    return VertexFunction(build_level(n, m), values)


def _random_fn(n, m, seed, scale=1.0):
    g = build_level(n, m)
    rng = np.random.default_rng(seed)
    return VertexFunction(g, rng.uniform(-scale, scale, g.vertex_count))


def _boundary_unit(n, m, i=0):
    g = build_level(n, m)
    vals = np.zeros(g.vertex_count)
    vals[g.boundary[i]] = 1.0
    return VertexFunction(g, vals)


def test_unit_corner_energy_level0():
    # two unit edges meet p_1, so the sum of squared differences is 2
    assert energy(_form(3, 0), _boundary_unit(3, 0)) == pytest.approx(2.0, abs=1e-15)


def test_constant_has_zero_energy():
    for m in range(4):
        g = build_level(3, m)
        u = VertexFunction(g, np.full(g.vertex_count, 3.7))
        assert energy(EnergyForm(g), u) == 0.0


def test_harmonic_extension_of_corner_data_has_same_energy():
    form1 = _form(3, 1)
    u = harmonic_function(build_level(3, 1), [1.0, 0.0, 0.0])
    assert energy(form1, u) == pytest.approx(2.0, abs=1e-12)


def test_energy_matches_reference_loop():
    form = _form(3, 3)
    u = _random_fn(3, 3, 11)
    assert energy(form, u) == pytest.approx(
        energy_reference(form, u.values), rel=1e-13
    )


def test_renormalization_is_exact_power():
    for m in range(9):
        assert _form(3, m).renormalization == (5.0 / 3.0) ** m
    assert _form(4, 2).renormalization == 1.5**2


def test_inner_polarization():
    form = _form(3, 2)
    for seed in range(5):
        u = _random_fn(3, 2, seed)
        assert inner(form, u, u) == pytest.approx(2.0 * energy(form, u), rel=1e-13)


def test_inner_against_constant_vanishes():
    form = _form(3, 2)
    g = form.graph
    u = _random_fn(3, 2, 3)
    c = VertexFunction(g, np.full(g.vertex_count, 2.5))
    assert inner(form, u, c) == pytest.approx(0.0, abs=1e-12)


def test_inner_level0_cross_term():
    form = _form(3, 0)
    u = _boundary_unit(3, 0, 0)
    v = _boundary_unit(3, 0, 1)
    assert inner(form, u, v) == pytest.approx(-2.0, abs=1e-15)


def test_inner_bilinear_symmetric():
    form = _form(3, 2)
    u, v, w = (_random_fn(3, 2, s) for s in (1, 2, 3))
    g = form.graph
    assert inner(form, u, v) == pytest.approx(inner(form, v, u), rel=1e-13)
    uv = VertexFunction(g, 2.0 * u.values + v.values)
    assert inner(form, uv, w) == pytest.approx(
        2.0 * inner(form, u, w) + inner(form, v, w), rel=1e-12, abs=1e-12
    )


def test_stiffness_matrix_reproduces_energy():
    form = _form(3, 3)
    k = stiffness_matrix(form)
    u = _random_fn(3, 3, 5)
    assert float(u.values @ (k @ u.values)) == pytest.approx(
        energy(form, u), rel=1e-12
    )


@pytest.mark.parametrize(
    "n, m, weights", [(3, 4, (0.5, 0.3, 0.2)), (4, 3, None), (5, 2, None)]
)
def test_stiffness_and_resolvent_are_exactly_symmetric(n, m, weights):
    # flow._Operator takes A_IB as A_BI^T, which needs bitwise symmetry
    form = _form(n, m)
    w = MeasureWeights.uniform(n) if weights is None else MeasureWeights(weights)
    masses = vertex_measure(form.graph, w).masses
    k = stiffness_matrix(form)
    resolvent = (2.0 * k + sp.diags(masses / 0.01)).tocsr()
    for a in (k, resolvent):
        assert (a != a.T).nnz == 0


def test_batch_energy_matches_scalar():
    form = _form(3, 2)
    rng = np.random.default_rng(0)
    mat = rng.uniform(-1, 1, (8, form.graph.vertex_count))
    batched = batch_energy(form, mat)
    for row, expected in zip(mat, batched):
        assert energy(form, VertexFunction(form.graph, row)) == pytest.approx(
            float(expected), rel=1e-13
        )


def test_batch_energy_and_harmonic_function_check_their_lengths():
    with pytest.raises(DomainMismatchError, match="expected 6 columns, got 7"):
        batch_energy(_form(3, 1), np.zeros((2, 7)))
    with pytest.raises(DomainMismatchError, match=r"expected 3 boundary values, got shape \(2,\)"):
        harmonic_function(build_level(3, 2), [1.0, 0.0])


def test_graph_mismatch_raises():
    form = _form(3, 1)
    u = _random_fn(3, 2, 0)
    with pytest.raises(DomainMismatchError):
        energy(form, u)
    with pytest.raises(DomainMismatchError):
        inner(form, u, u)


# ---------------------------------------------------------------------------
# harmonic extension


def test_extension_matrix_closed_form():
    # stationarity of the per-cell quadratic gives (1 + [t=i] + [t=j])/(n+2)
    for n in (2, 3, 4, 5, 8, 11):
        rule = _extension_matrix(n)
        for row, (i, j) in enumerate(itertools.combinations(range(n), 2)):
            for t in range(n):
                expected = (1.0 + (t == i) + (t == j)) / (n + 2)
                assert rule[row, t] == pytest.approx(expected, abs=1e-14)


def test_extension_constant():
    form = _form(3, 1)
    g = form.graph
    u = VertexFunction(g, np.full(g.vertex_count, 1.25))
    ext = harmonic_extend(form, u)
    assert np.all(ext.values == 1.25)


def test_midpoint_rule_regression():
    # corner data (1, 0, 0): adjacent midpoints 0.4, opposite midpoint 0.2
    u = harmonic_function(build_level(3, 1), [1.0, 0.0, 0.0])
    g = u.graph
    values = dict(zip(vertex_labels(g), u.values))
    assert values[(2, 0, 0)] == pytest.approx(1.0, abs=1e-15)
    assert values[(1, 1, 0)] == pytest.approx(0.4, abs=1e-12)
    assert values[(1, 0, 1)] == pytest.approx(0.4, abs=1e-12)
    assert values[(0, 1, 1)] == pytest.approx(0.2, abs=1e-12)


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_extension_preserves_energy(n, m):
    rng = np.random.default_rng(100 * n + m)
    g = build_level(n, m)
    form = EnergyForm(g)
    fine_form = EnergyForm(build_level(n, m + 1))
    for _ in range(5):
        u = VertexFunction(g, rng.uniform(-1, 1, g.vertex_count))
        ext = harmonic_extend(form, u)
        w_coarse = energy(form, u)
        w_fine = energy(fine_form, ext)
        assert abs(w_fine - w_coarse) <= 1e-12 * max(1.0, w_coarse)


@pytest.mark.parametrize("n, m", [(3, 0), (3, 1), (4, 0)])
def test_extension_matches_global_minimizer(n, m):
    rng = np.random.default_rng(17)
    g = build_level(n, m)
    form = EnergyForm(g)
    u_vals = rng.uniform(-1, 1, g.vertex_count)
    ext = harmonic_extend(form, VertexFunction(g, u_vals))
    oracle_vals, oracle_energy = min_energy_extension(n, m, u_vals)
    np.testing.assert_allclose(ext.values, oracle_vals, atol=1e-11)
    assert energy(EnergyForm(build_level(n, m + 1)), ext) == pytest.approx(
        oracle_energy, rel=1e-11, abs=1e-12
    )


def test_harmonic_function_constant_boundary():
    u = harmonic_function(build_level(3, 3), [1.0, 1.0, 1.0])
    assert np.all(u.values == 1.0)


def test_harmonic_function_maximum_principle():
    u = harmonic_function(build_level(3, 2), [1.0, 0.0, 0.0])
    assert u.values[u.graph.boundary[0]] == 1.0
    assert np.all(u.values >= -1e-15)
    assert np.all(u.values <= 1.0 + 1e-15)


def test_harmonic_function_energy_constant_in_level():
    w0 = energy(_form(3, 0), harmonic_function(build_level(3, 0), [1.0, -0.5, 0.25]))
    for m in range(1, 5):
        u = harmonic_function(build_level(3, m), [1.0, -0.5, 0.25])
        assert energy(_form(3, m), u) == pytest.approx(w0, rel=1e-12)


# ---------------------------------------------------------------------------
# profiles and monotonicity


def test_profile_of_constant_is_zero():
    g = build_level(3, 3)
    u = VertexFunction(g, np.full(g.vertex_count, 4.0))
    assert energy_profile(u) == [0.0] * 4


def test_profile_of_harmonic_function_is_flat():
    u = harmonic_function(build_level(3, 4), [1.0, 0.0, 0.0])
    profile = energy_profile(u)
    for w in profile:
        assert w == pytest.approx(profile[0], rel=1e-12)


def test_profile_nondecreasing_random():
    for seed in range(20):
        u = _random_fn(3, 3, seed)
        profile = energy_profile(u)
        diffs = np.diff(profile)
        assert np.all(diffs >= -1e-12 * np.maximum(1.0, np.abs(profile[1:])))


def test_profile_strictly_increasing_for_generic_data():
    u = _random_fn(3, 3, 123)
    diffs = np.diff(energy_profile(u))
    assert np.all(diffs > 1e-6)


PROFILE_RUNGS = (
    [(2, 0), (2, 10)]
    + [(3, m) for m in range(10)]
    + [(4, m) for m in range(7)]
    + [(5, 4), (6, 3), (8, 1), (12, 1)]
)


def _profile_data(g, rng):
    """Uniform random, harmonic, huge random and constant data on g."""
    return [
        rng.uniform(-1.0, 1.0, g.vertex_count),
        harmonic_function(g, rng.normal(size=g.n)).values,
        rng.uniform(-1.0, 1.0, g.vertex_count) * 1e150,
        np.full(g.vertex_count, 0.3),
    ]


@pytest.mark.parametrize("n, top", PROFILE_RUNGS)
def test_profile_is_bitwise_the_restricted_energies(n, top):
    # energy_profile walks up the cell tree; the reference builds each level
    g = build_level(n, top)
    rng = np.random.default_rng(100 * n + top)
    for values in _profile_data(g, rng):
        u = VertexFunction(g, values)
        expected = [energy(_form(n, m), restrict(u, m)) for m in range(top + 1)]
        assert energy_profile(u) == expected


@pytest.mark.parametrize("n, top", PROFILE_RUNGS)
def test_walked_cell_edges_are_each_levels_edges_in_order(n, top):
    # the restriction keeps vertex order, so the level-m cell edges in the
    # top level's indices map onto level m's edge arrays, order and all
    g = build_level(n, top)
    for m in range(top):
        coarse = build_level(n, m)
        fine_index = restrict(VertexFunction(g, np.arange(g.vertex_count)), m).values
        coarse_index = np.full(g.vertex_count, -1)
        coarse_index[fine_index.astype(np.intp)] = np.arange(coarse.vertex_count)
        ei, ej = _cell_edges(_ancestor_corners(g.cell_corners, top - m))
        assert np.array_equal(coarse_index[ei], coarse.edge_arrays[0])
        assert np.array_equal(coarse_index[ej], coarse.edge_arrays[1])


def test_profile_builds_no_graph(monkeypatch):
    # gasketflow.energy the attribute is the energy function, not the module
    energy_mod = importlib.import_module("gasketflow.energy")
    u = _random_fn(3, 4, 5)

    def refuse(n, m):
        raise AssertionError(f"energy_profile built level {m}")

    monkeypatch.setattr(gasket_mod, "build_level", refuse)
    monkeypatch.setattr(energy_mod, "build_level", refuse)
    profile = energy_profile(u)
    assert len(profile) == 5 and profile[-1] == energy(_form(3, 4), u)


def test_monotonicity_against_full_energy():
    for seed in range(10):
        u = _random_fn(3, 4, seed)
        full = energy(_form(3, 4), u)
        for m in range(4):
            part = energy(_form(3, m), restrict(u, m))
            assert part <= full + 1e-12 * max(1.0, full)


# ---------------------------------------------------------------------------
# lattice structure at a fixed level


def _lattice_sides(form, u, v):
    g = form.graph
    upper = VertexFunction(g, np.maximum(u.values, v.values))
    lower = VertexFunction(g, np.minimum(u.values, v.values))
    lhs = energy(form, upper) + energy(form, lower)
    rhs = energy(form, u) + energy(form, v)
    return lhs, rhs


def test_lattice_submodularity_random():
    form = _form(3, 2)
    for seed in range(50):
        rng = np.random.default_rng(seed)
        nv = form.graph.vertex_count
        u = VertexFunction(form.graph, rng.uniform(-1, 1, nv))
        v = VertexFunction(form.graph, rng.uniform(-1, 1, nv))
        lhs, rhs = _lattice_sides(form, u, v)
        assert lhs <= rhs + 1e-12 * max(1.0, rhs)


def test_lattice_defect_identity():
    # lhs - rhs equals the semi-inner product of the positive and negative
    # parts of v - u, exactly; the equality form holds only when no edge
    # is crossed by a sign change of v - u
    form = _form(3, 2)
    g = form.graph
    for seed in range(20):
        rng = np.random.default_rng(seed)
        u = VertexFunction(g, rng.uniform(-1, 1, g.vertex_count))
        v = VertexFunction(g, rng.uniform(-1, 1, g.vertex_count))
        w = v.values - u.values
        pos = VertexFunction(g, np.maximum(w, 0.0))
        neg = VertexFunction(g, np.maximum(-w, 0.0))
        lhs, rhs = _lattice_sides(form, u, v)
        defect = inner(form, pos, neg)
        assert defect <= 1e-15
        assert lhs - rhs == pytest.approx(defect, rel=1e-10, abs=1e-12)


def test_lattice_equality_for_comparable_pair():
    # v = u + c never crosses u, so the lattice relation is an equality
    form = _form(3, 2)
    g = form.graph
    u = _random_fn(3, 2, 5)
    v = VertexFunction(g, u.values + 0.75)
    lhs, rhs = _lattice_sides(form, u, v)
    assert lhs == pytest.approx(rhs, rel=1e-13)


def _subtree_split_function(g, seed):
    """Positive on the first corner subtree, negative on the second."""
    rng = np.random.default_rng(seed)
    owners = [set() for _ in range(g.vertex_count)]
    words = itertools.product(range(g.n), repeat=g.level)
    for word, cell in zip(words, g.cell_corners.tolist()):
        for v in cell:
            owners[v].add(word[0])
    vals = np.zeros(g.vertex_count)
    for i, own in enumerate(owners):
        if own == {0}:
            vals[i] = rng.uniform(0.5, 1.0)
        elif own == {1}:
            vals[i] = -rng.uniform(0.5, 1.0)
    return VertexFunction(g, vals)


def test_disjoint_support_decomposition():
    # with no edge joining the positive and negative supports the energy
    # splits, and matches the energy of |u|
    g = build_level(3, 2)
    form = EnergyForm(g)
    u = _subtree_split_function(g, 9)
    pos = VertexFunction(g, np.maximum(u.values, 0.0))
    neg = VertexFunction(g, np.maximum(-u.values, 0.0))
    absu = VertexFunction(g, np.abs(u.values))
    assert inner(form, pos, neg) == pytest.approx(0.0, abs=1e-15)
    total = energy(form, pos) + energy(form, neg)
    assert energy(form, u) == pytest.approx(total, rel=1e-13)
    assert energy(form, absu) == pytest.approx(total, rel=1e-13)


def test_absolute_value_is_contraction_not_identity():
    form = _form(3, 2)
    u = _random_fn(3, 2, 21)
    absu = VertexFunction(form.graph, np.abs(u.values))
    assert energy(form, absu) <= energy(form, u) + 1e-12


# ---------------------------------------------------------------------------
# Lipschitz composition


def _soft_shrink(t, eps):
    return np.sign(t) * np.maximum(np.abs(t) - eps, 0.0)


@pytest.mark.parametrize(
    "h",
    [
        lambda t: np.clip(t, -0.3, 0.4),
        lambda t: _soft_shrink(t, 0.25),
        np.abs,
    ],
    ids=["clamp", "soft_shrink", "abs"],
)
def test_unit_lipschitz_composition_contracts(h):
    form = _form(3, 3)
    for seed in range(10):
        u = _random_fn(3, 3, seed)
        hu = VertexFunction(form.graph, h(u.values))
        assert energy(form, hu) <= energy(form, u) + 1e-12


@settings(max_examples=50, deadline=None)
@given(
    scale=st.floats(0.0, 3.0, allow_nan=False),
    seed=st.integers(0, 10_000),
)
def test_lipschitz_scaling_bound(scale, seed):
    # h(t) = scale * t has Lipschitz constant scale, so energies scale by
    # scale^2; sampled form of the composition bound
    form = _form(3, 2)
    u = _random_fn(3, 2, seed)
    scaled = VertexFunction(form.graph, scale * u.values)
    bound = scale * scale * energy(form, u)
    assert energy(form, scaled) <= bound + 1e-9 * max(1.0, bound)
