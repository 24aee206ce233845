import itertools
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import gasketflow.gasket as gasket_mod
from gasketflow import (
    DomainMismatchError,
    EnergyForm,
    FlowConfig,
    MeasureWeights,
    ResourceLimitError,
    RobinSpec,
    VertexFunction,
    advance,
    backward_euler_step,
    batch_perturbed_energy,
    build_level,
    energy,
    evolve,
    harmonic_extend,
    inner,
    l2_inner,
    l2_norm,
    mean,
    perturbed_energy,
    poisson_solve,
    restrict,
    simplex_vertices,
    vertex_coordinates,
    vertex_measure,
)

from oracles import address_points, brute_force_points, edge_pairs, vertex_labels


@pytest.mark.parametrize(
    "m, verts, cells, edges",
    [(0, 3, 1, 3), (1, 6, 3, 9), (2, 15, 9, 27)],
)
def test_counts_n3(m, verts, cells, edges):
    g = build_level(3, m)
    assert g.vertex_count == verts
    assert len(g.cell_corners) == cells
    assert len(edge_pairs(g)) == edges
    # closed form for n=3: (3^(m+1) + 3) / 2 vertices, 3^(m+1) edges
    assert g.vertex_count == (3 ** (m + 1) + 3) // 2
    assert len(edge_pairs(g)) == 3 ** (m + 1)


def test_level0_boundary_is_everything():
    g = build_level(3, 0)
    assert sorted(g.boundary) == [0, 1, 2]
    cells = [tuple(c) for c in g.cell_corners.tolist()]
    assert cells == [(2, 1, 0)] or set(cells[0]) == {0, 1, 2}


@pytest.mark.parametrize("n, m", [(3, 1), (3, 2), (3, 3), (4, 1), (4, 2), (5, 2), (2, 5)])
def test_vertices_match_contraction_enumeration(n, m):
    points, cells, edges = brute_force_points(n, m)
    g = build_level(n, m)
    assert address_points(g) == points
    assert len(g.cell_corners) == len(cells)
    assert len(edge_pairs(g)) == len(edges)


@pytest.mark.parametrize("n, m", [(3, 4), (3, 5), (4, 3), (4, 4), (4, 5), (2, 6)])
def test_no_duplicate_addresses(n, m):
    g = build_level(n, m)
    labels = vertex_labels(g)
    keys = set(labels)
    assert len(keys) == g.vertex_count
    # corner collection is exactly the vertex set
    collected = {labels[i] for cell in g.cell_corners.tolist() for i in cell}
    assert collected == keys


@pytest.mark.parametrize("n", [3, 4])
def test_nested_levels(n):
    for m in range(4):
        fine_labels = set(vertex_labels(build_level(n, m + 1)))
        for weights in vertex_labels(build_level(n, m)):
            assert tuple(2 * w for w in weights) in fine_labels


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cell_tree_index_maps_match_weights(n):
    # the index maps come from cell-tree arithmetic; check them on the weights
    for m in range(3):
        coarse = build_level(n, m)
        coarse_labels = vertex_labels(coarse)
        fine = build_level(n, m + 1)
        fine_labels = vertex_labels(fine)
        children = fine.cell_corners.tolist()
        for c, cell in enumerate(coarse.cell_corners.tolist()):
            # child i keeps corner i; the midpoint of corners i and j is
            # corner j of child i and corner i of child j
            for i in range(n):
                wi = coarse_labels[cell[i]]
                assert fine_labels[children[c * n + i][i]] == tuple(2 * w for w in wi)
            for i, j in itertools.combinations(range(n), 2):
                mid = children[c * n + i][j]
                assert mid == children[c * n + j][i]
                wi, wj = coarse_labels[cell[i]], coarse_labels[cell[j]]
                assert fine_labels[mid] == tuple(a + b for a, b in zip(wi, wj))
        for big in range(m, m + 3):
            # restricting the vertex-index function gives each vertex's fine index
            g_big = build_level(n, big)
            indices = VertexFunction(g_big, np.arange(g_big.vertex_count))
            idx = restrict(indices, m).values.astype(np.intp)
            big_labels = vertex_labels(g_big)
            for weights, k in zip(coarse_labels, idx.tolist()):
                scaled = tuple(w * 2 ** (big - m) for w in weights)
                assert big_labels[k] == scaled


@pytest.mark.parametrize("n, mmax", [(3, 8), (4, 5), (5, 4), (2, 10)])
def test_vertex_dedupe_matches_np_unique(n, mmax):
    # corner i of the cell with word w weighs sum_k 2**(m-1-k) e_{w_k} + e_i;
    # np.unique(axis=0) is the reference for the sorted vertices and the inverse
    for m in range(mmax + 1):
        g = build_level(n, m)
        words = np.array(list(itertools.product(range(n), repeat=m)), dtype=np.int64)
        base = np.zeros((n**m, n), dtype=np.int64)
        for k in range(m):
            base[np.arange(n**m), words[:, k]] += 2 ** (m - 1 - k)
        corners = (base[:, None, :] + np.eye(n, dtype=np.int64)).reshape(-1, n)
        weights, inverse = np.unique(corners, axis=0, return_inverse=True)
        assert g.weights.dtype == weights.dtype and np.array_equal(g.weights, weights)
        assert g.cell_corners.dtype == inverse.dtype
        assert np.array_equal(g.cell_corners, inverse.reshape(-1, n))


@pytest.mark.parametrize("n, mmax", [(3, 5), (4, 4)])
def test_cell_incidence_counts(n, mmax):
    for m in range(1, mmax + 1):
        g = build_level(n, m)
        incidence = [0] * g.vertex_count
        for cell in g.cell_corners.tolist():
            for v in cell:
                incidence[v] += 1
        for i, count in enumerate(incidence):
            expected = 1 if i in g.boundary else 2
            assert count == expected, (n, m, i)


def test_edges_sorted_irreflexive():
    edges = edge_pairs(build_level(3, 3))
    for a, b in edges:
        assert a < b
    assert len(set(edges)) == len(edges)


@pytest.mark.parametrize("m", [0, 1, 2, 3, 4])
def test_edge_lengths(m):
    g = build_level(3, m)
    coords = vertex_coordinates(g)
    for a, b in edge_pairs(g):
        assert np.linalg.norm(coords[a] - coords[b]) == pytest.approx(
            0.5**m, abs=1e-12
        )


def test_vertex_order_is_lexicographic():
    g = build_level(3, 2)
    keys = vertex_labels(g)
    assert keys == sorted(keys)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_simplex_has_unit_edges(n):
    pts = simplex_vertices(n)
    assert pts.shape == (n, n - 1)
    assert np.allclose(pts[0], 0.0)
    for i in range(n):
        for j in range(i + 1, n):
            assert np.linalg.norm(pts[i] - pts[j]) == pytest.approx(1.0, abs=1e-12)


def test_embed_corners_and_midpoint():
    # corner vertices map to the simplex points exactly
    pts = simplex_vertices(3)
    g = build_level(3, 2)
    coords, labels = vertex_coordinates(g), vertex_labels(g)
    for i in range(3):
        weights = tuple(4 if j == i else 0 for j in range(3))
        np.testing.assert_allclose(coords[labels.index(weights)], pts[i])
    # n = 2 is the unit interval: the level-1 midpoint sits at 1/2
    g = build_level(2, 1)
    midpoint = vertex_coordinates(g)[vertex_labels(g).index((1, 1))]
    assert midpoint[0] == pytest.approx(0.5)


def test_restrict_constant_and_indicator():
    g2 = build_level(3, 2)
    ones = VertexFunction(g2, np.ones(g2.vertex_count))
    down = restrict(ones, 1)
    assert np.all(down.values == 1.0)

    p1 = g2.boundary[0]
    vals = np.zeros(g2.vertex_count)
    vals[p1] = 1.0
    down = restrict(VertexFunction(g2, vals), 1)
    g1 = build_level(3, 1)
    expected = np.zeros(g1.vertex_count)
    expected[g1.boundary[0]] = 1.0
    np.testing.assert_array_equal(down.values, expected)


def test_restrict_matches_rescaling_oracle():
    rng = np.random.default_rng(7)
    g2 = build_level(3, 2)
    u = VertexFunction(g2, rng.uniform(-1, 1, g2.vertex_count))
    down = restrict(u, 1)
    g1 = build_level(3, 1)
    assert down.graph == g1
    labels1, labels2 = vertex_labels(g1), vertex_labels(g2)
    for i, weights in enumerate(labels1):
        doubled = tuple(2 * w for w in weights)
        j = next(k for k, fine in enumerate(labels2) if fine == doubled)
        assert down.values[i] == u.values[j]
    # the surviving addresses are exactly those with even weights
    survivors = {tuple(2 * w for w in weights) for weights in labels1}
    for weights in labels2:
        even = all(w % 2 == 0 for w in weights)
        assert (weights in survivors) == even


def test_restrict_rejects_finer_target():
    g1 = build_level(3, 1)
    u = VertexFunction(g1, np.zeros(g1.vertex_count))
    with pytest.raises(DomainMismatchError, match="^cannot restrict a level-1 function to level 2$"):
        restrict(u, 2)


def test_restrict_rejects_negative_level():
    # the level check comes before the walk up the cell tree
    g2 = build_level(3, 2)
    u = VertexFunction(g2, np.zeros(g2.vertex_count))
    with pytest.raises(ValueError, match="^m must be >= 0, got -1$"):
        restrict(u, -1)


def test_build_level_argument_errors():
    with pytest.raises(ValueError):
        build_level(1, 2)
    with pytest.raises(ValueError):
        build_level(3, -1)


def test_simplex_vertices_needs_two_points():
    with pytest.raises(ValueError, match="n must be >= 2, got 1"):
        simplex_vertices(1)


# Every entry point that takes objects on a graph refuses, by one check in
# gasket.py, an object on another graph and a spec or weights of another
# length.  The graphs (3, 0) and (2, 1) have three vertices each, so only
# the graph check can tell them apart.


def _objects():
    """The form, measure and a function on (3, 0), and the measure and a
    function on (2, 1)."""
    on, off = build_level(3, 0), build_level(2, 1)
    return SimpleNamespace(
        form=EnergyForm(on),
        measure=vertex_measure(on, MeasureWeights.uniform(3)),
        u=VertexFunction(on, np.arange(3.0)),
        off_measure=vertex_measure(off, MeasureWeights.uniform(2)),
        off_u=VertexFunction(off, np.arange(3.0)),
    )


STEP = FlowConfig(0.1, 0.1)
NEUMANN, DIRICHLET = RobinSpec.neumann(3), RobinSpec.dirichlet(3)
OFF_GRAPH = {
    "energy": lambda d: energy(d.form, d.off_u),
    "inner": lambda d: inner(d.form, d.u, d.off_u),
    "harmonic_extend": lambda d: harmonic_extend(d.form, d.off_u),
    "perturbed_energy": lambda d: perturbed_energy(d.form, NEUMANN, d.off_u),
    "l2_inner": lambda d: l2_inner(d.measure, d.off_u, d.u),
    "l2_norm": lambda d: l2_norm(d.measure, d.off_u),
    "mean": lambda d: mean(d.measure, d.off_u),
    "advance measure": lambda d: next(
        advance(d.form, d.off_measure, NEUMANN, d.u.values[None], STEP)
    ),
    "evolve measure": lambda d: evolve(d.form, d.off_measure, NEUMANN, d.u, STEP),
    "evolve u0": lambda d: evolve(d.form, d.measure, NEUMANN, d.off_u, STEP),
    "backward_euler_step": lambda d: backward_euler_step(d.form, d.measure, NEUMANN, d.off_u, 0.1),
    "poisson_solve measure": lambda d: poisson_solve(d.form, d.off_measure, DIRICHLET, d.u),
    "poisson_solve f": lambda d: poisson_solve(d.form, d.measure, DIRICHLET, d.off_u),
}


@pytest.mark.parametrize("call", OFF_GRAPH.values(), ids=list(OFF_GRAPH))
def test_an_object_on_another_graph_is_refused(call):
    message = r"^Vertex(Function|Measure) on GasketGraph\(n=2, level=1,"
    with pytest.raises(DomainMismatchError, match=message):
        call(_objects())


SPEC_4 = RobinSpec.neumann(4)
WRONG_ARITY = {
    "batch_perturbed_energy": lambda d: batch_perturbed_energy(d.form, SPEC_4, d.u.values),
    "perturbed_energy": lambda d: perturbed_energy(d.form, SPEC_4, d.u),
    "vertex_measure": lambda d: vertex_measure(d.form.graph, MeasureWeights.uniform(4)),
    "advance": lambda d: next(advance(d.form, d.measure, SPEC_4, d.u.values[None], STEP)),
    "evolve": lambda d: evolve(d.form, d.measure, SPEC_4, d.u, STEP),
    "poisson_solve": lambda d: poisson_solve(d.form, d.measure, SPEC_4, d.u),
}


@pytest.mark.parametrize("call", WRONG_ARITY.values(), ids=list(WRONG_ARITY))
def test_a_spec_or_weights_of_another_length_is_refused(call):
    message = r"^(RobinSpec|MeasureWeights) has 4 entries, graph has n=3$"
    with pytest.raises(DomainMismatchError, match=message):
        call(_objects())


def test_resource_limit(monkeypatch):
    monkeypatch.setattr(gasket_mod, "MAX_CORNER_BYTES", 8 * 3**5)
    build_level.cache_clear()
    try:
        gasket_mod.build_level(3, 3)  # its corner array is exactly the budget
        with pytest.raises(ResourceLimitError):
            gasket_mod.build_level(3, 4)
    finally:
        build_level.cache_clear()


def test_resource_limit_counts_corner_bytes():
    # (20, 5) has only 3.2 million cells, but its (cells, 20, 20) int64
    # corner array would take 10 GB
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError):
            build_level(20, 5)
        with pytest.raises(ResourceLimitError):
            build_level(3, 10**9)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


def test_vertex_function_validation():
    g = build_level(3, 1)
    with pytest.raises(DomainMismatchError):
        VertexFunction(g, np.zeros(5))
    with pytest.raises(ValueError):
        VertexFunction(g, np.full(g.vertex_count, np.nan))
    u = VertexFunction(g, np.zeros(g.vertex_count))
    with pytest.raises(ValueError):
        u.values[0] = 1.0  # read-only


def test_json_export_schema():
    g = build_level(3, 1)
    d = g.to_json_dict()
    assert set(d) == {"N", "m", "vertices", "cells", "edges", "boundary"}
    assert d["N"] == 3 and d["m"] == 1
    assert len(d["vertices"]) == 6
    assert all(len(c) == 3 for c in d["cells"])
    assert sorted(map(tuple, d["edges"])) == edge_pairs(g)
