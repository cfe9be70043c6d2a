import gc
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ORACLE_SHAPES
from oracles import bellman_ford
from pickopt import (ValidationError, VariantMismatchError, WarehouseLayout,
                     build_auxiliary_graph, build_graph)


def test_counts_one_block_two_aisles():
    g = build_graph(WarehouseLayout(2, 1, 2, 1, 2))
    assert g.n_vertices == 8
    assert len(g.edges) == 8
    assert len(list(g.arcs())) == 16


def test_counts_two_blocks_one_aisle():
    g = build_graph(WarehouseLayout(1, 2, 1, 1, 2))
    assert g.n_artificial == 3
    assert g.n_picking == 2
    assert len(g.edges) == 4


def test_counts_two_blocks_three_aisles():
    layout = WarehouseLayout(3, 2, 4, 1, 2)
    g = build_graph(layout)
    assert len(g.subaisles) == 6
    assert g.n_picking == 24
    assert len(g.edges) - sum(len(sub.edge_ids) for sub in g.subaisles) == 3 * 2


@given(na=st.integers(1, 4), nb=st.integers(1, 3), m=st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_count_formulas(na, nb, m):
    layout = WarehouseLayout(na, nb, m, 1, 2)
    g = build_graph(layout)
    assert g.n_artificial == na * (nb + 1)
    assert g.n_picking == na * nb * m
    assert len(g.edges) == na * nb * (m + 1) + (nb + 1) * (na - 1)
    assert len(list(g.arcs())) == 2 * len(g.edges)
    assert len(g.reduced_edges) == na * nb + (nb + 1) * (na - 1)
    # subaisle chains partition the picking locations
    seen = set()
    for sub in g.subaisles:
        assert g.north_of(sub.locs[0]) == sub.head
        assert g.south_of(sub.locs[-1]) == sub.tail
        for v in sub.locs:
            assert v not in seen
            seen.add(v)
            assert g.subaisle_of(v) == sub.index
    assert seen == set(g.picking_vertices)


def test_rejects_degenerate_layouts():
    with pytest.raises(ValidationError):
        WarehouseLayout(0, 1, 1)
    with pytest.raises(ValidationError):
        WarehouseLayout(1, 0, 1)
    with pytest.raises(ValidationError):
        WarehouseLayout(1, 1, 1, loc_spacing=0)
    for bad in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            WarehouseLayout(1, 1, 1, loc_spacing=bad)
        with pytest.raises(ValidationError, match="finite"):
            WarehouseLayout(1, 1, 1, aisle_spacing=bad)


def test_origin_is_top_left():
    g = build_graph(WarehouseLayout(3, 2, 2, 1, 2))
    assert g.origin == 0
    assert g.subaisles[0].head == g.origin


def test_chain_spacing_and_neighbors():
    layout = WarehouseLayout(2, 1, 3, 2, 5)
    g = build_graph(layout)
    sub = g.subaisles[1]
    chain = (sub.head, *sub.locs, sub.tail)
    for u, v in zip(chain, chain[1:]):
        assert g.edge_length[g.edge_id(u, v)] == 2
    assert g.q_west(g.artificial_vertex(0, 1)) == g.origin
    assert g.q_east(g.origin) == g.artificial_vertex(0, 1)
    assert (sub.head, sub.tail) == (g.artificial_vertex(0, 1), g.artificial_vertex(1, 1))


def test_shortest_distance_examples():
    g = build_graph(WarehouseLayout(2, 1, 2, 1, 2))
    v11 = g.subaisles[0].locs[0]
    assert g.shortest_distances_from(5)[5] == 0
    assert g.shortest_distances_from(g.origin)[v11] == 1
    assert g.shortest_distances_from(g.origin)[g.artificial_vertex(0, 1)] == 2


@given(na=st.integers(1, 3), nb=st.integers(1, 2), m=st.integers(1, 3))
@settings(max_examples=20, deadline=None)
def test_shortest_distance_matches_bellman_ford(na, nb, m):
    g = build_graph(WarehouseLayout(na, nb, m, 1, 2))
    independent = bellman_ford(g, g.origin)
    mine = g.shortest_distances_from(g.origin)
    assert list(mine) == independent
    # symmetry on a sample pair
    u, v = 0, g.n_vertices - 1
    assert g.shortest_distances_from(u)[v] == g.shortest_distances_from(v)[u]


def test_delta_queries_consistent():
    g = build_graph(WarehouseLayout(2, 1, 1, 1, 2))
    S = {g.origin, g.subaisles[0].locs[0]}
    for u, v in g.delta_plus(S):
        assert u in S and v not in S
    outside = set(range(g.n_vertices)) - S
    assert sorted((v, u) for u, v in g.delta_plus(S)) == sorted(g.delta_plus(outside))
    inside = set(g.artificial_vertices)
    for u, v in g.eta_plus(inside):
        raise AssertionError("no reduced arc leaves the full artificial set")


def test_single_block_auxiliary_star():
    g = build_graph(WarehouseLayout(2, 1, 2, 1, 2))
    aux = build_auxiliary_graph(g)
    star = [e for e in aux.edges if e.in_e2]
    assert len(star) == 3  # one per artificial location besides the origin
    independent = bellman_ford(g, g.origin)
    for e in star:
        other = e.v if e.u == g.origin else e.u
        assert e.length == independent[other]
    # the parallel copy of the first subaisle edge comes last
    assert [e for e in aux.edges if e.parallel] == [aux.edges[-1]]
    parallel = aux.edges[-1]
    assert (parallel.u, parallel.v) == (g.origin, g.subaisles[0].tail)
    assert parallel.length == g.layout.subaisle_length


def test_two_block_auxiliary_structure():
    layout = WarehouseLayout(2, 2, 1, 1, 2)
    g = build_graph(layout)
    aux = build_auxiliary_graph(g)
    assert len(aux.copy_of) == 2
    e2 = [e for e in aux.edges if e.in_e2]
    assert len(e2) == 4
    for e in e2:
        assert e.length == layout.subaisle_length
    # copies join their originals at distance zero
    for cp, orig in aux.copy_of.items():
        connector = [e for e in aux.edges if {e.u, e.v} == {cp, orig}]
        assert len(connector) == 1 and connector[0].length == 0
    # return edges reach every vertex including the copies
    e3_targets = {e.v if e.u == g.origin else e.u for e in aux.edges if e.in_e3}
    assert e3_targets == set(aux.vertices) - {g.origin}
    # south set: copies plus the bottom cross aisle
    bottoms = {g.artificial_vertex(2, a) for a in range(2)}
    assert aux.south_set == frozenset(aux.copy_of) | bottoms


def test_auxiliary_lengths_are_shortest_paths():
    layout = WarehouseLayout(3, 2, 2, 1, 2)
    g = build_graph(layout)
    aux = build_auxiliary_graph(g)
    dist_from = {}
    for e in aux.edges:
        u = aux.copy_of.get(e.u, e.u)
        v = aux.copy_of.get(e.v, e.v)
        if u not in dist_from:
            dist_from[u] = bellman_ford(g, u)
        assert e.length == dist_from[u][v]


def test_incident_matches_a_full_edge_scan():
    for shape in ORACLE_SHAPES + [(10, 2, 15)]:
        g = build_graph(WarehouseLayout(*shape))
        aux = g.auxiliary()
        for w in aux.vertices:
            assert list(aux.incident(w)) == [e for e in aux.edges if w in (e.u, e.v)]


def test_three_blocks_have_no_auxiliary_graph():
    g = build_graph(WarehouseLayout(2, 3, 1, 1, 2))
    with pytest.raises(VariantMismatchError, match="3 blocks"):
        build_auxiliary_graph(g)
    with pytest.raises(VariantMismatchError):
        g.auxiliary()


def test_cached_auxiliary_graph_makes_no_reference_cycle():
    gc.disable()
    try:
        g = build_graph(WarehouseLayout(2, 2, 1, 1, 2))
        g.auxiliary()
        ref = weakref.ref(g)
        del g
        assert ref() is None
    finally:
        gc.enable()
