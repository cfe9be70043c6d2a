import gc
import json
import random
import weakref

import numpy as np
import pytest

from conftest import ORACLE_SHAPES, make_suite, shared_graph
from oracles import (blind_solve, mask_no_artificial_uturn, mask_single_traversal,
                     route_oracle, scanned_walk_space)
from pickopt import (Instance, MAX_ORACLE_EDGES, OracleSizeError, Order, Pick, Solution,
                     ValidationError, WalkSpace, WarehouseLayout, batching_to_solution,
                     build_graph, build_model, capacity_feasible_partitions, check_feasible,
                     cw2_batching, encode_walk_PG, generate_instance, load_solution,
                     make_oracle_estimator, save_solution, seed_batching, solve_exact,
                     solve_no_reversal_exact, validate_solution, walk_space)
from pickopt.exact import _cycle_space, _subset_tables
from pickopt.layout import connected_components

LAYOUT = WarehouseLayout(2, 1, 2, 1, 2)
THREE_BLOCK_SHAPES = [(1, 3, 1), (1, 3, 2)]  # |E| = 6 and 9


def test_route_oracle_spec_examples():
    g = shared_graph(LAYOUT)
    v11 = g.subaisles[0].locs[0]
    v21 = g.subaisles[1].locs[0]
    assert route_oracle(g, set()).length(g) == 2  # cheapest out-and-back
    assert route_oracle(g, {v11}).length(g) == 2
    assert route_oracle(g, {v11, v21}).length(g) == 8


def test_route_oracle_walks_are_valid():
    g = shared_graph(LAYOUT)
    required = {g.subaisles[0].locs[1], g.subaisles[1].locs[0]}
    walk = route_oracle(g, required)
    walk.validate(g, frozenset(required))
    assert all(m in (1, 2) for _, m in walk.edge_mult)


def test_route_oracle_deterministic_tie_break():
    g = shared_graph(LAYOUT)
    w1 = route_oracle(g, {g.subaisles[0].locs[0]})
    w2 = route_oracle(g, {g.subaisles[0].locs[0]})
    assert w1.edge_mult == w2.edge_mult


def test_walk_space_matches_full_scan():
    # aisle spacing 2 makes edge lengths non-uniform
    for shape in ORACLE_SHAPES + THREE_BLOCK_SHAPES:
        g = build_graph(WarehouseLayout(*shape, 1, 2))
        space = WalkSpace(g)
        ref = scanned_walk_space(g)
        for name in ("mult", "lengths", "ok", "visited"):
            got, want = getattr(space, name), getattr(ref, name)
            assert got.dtype == want.dtype, (shape, name)
            assert np.array_equal(got, want), (shape, name)
        assert np.array_equal(space.mask_no_reversal(), ref.no_reversal), shape
        assert np.array_equal(mask_single_traversal(space, g), ref.single_traversal), shape
        assert np.array_equal(mask_no_artificial_uturn(space, g),
                              ref.no_artificial_uturn), shape


def test_subset_tables_count_components():
    # 2x3x1 and 3x2x1 have 16 and 18 edges, past the oracle bound
    rng = random.Random(17)
    for shape in ORACLE_SHAPES + THREE_BLOCK_SHAPES + [(2, 3, 1), (3, 2, 1)]:
        g = build_graph(WarehouseLayout(*shape))
        m = len(g.edges)
        tern, touch, size, components = _subset_tables(g, np.array(_cycle_space(g)))
        for subset in (rng.randrange(1 << m) for _ in range(300)):
            edges = [g.edges[e] for e in range(m) if (subset >> e) & 1]
            ends = {v for edge in edges for v in edge}
            assert components[subset] == len(connected_components(edges)), (shape, subset)
            assert touch[subset] == sum(1 << v for v in ends)
            assert size[subset] == len(edges)
            assert tern[subset] == sum(3 ** (m - 1 - e) for e in range(m) if (subset >> e) & 1)


def test_walk_space_cache_releases_graphs():
    graphs = [build_graph(WarehouseLayout(1 + k % 3, 1, 1, 1, 1 + k)) for k in range(20)]
    refs = [weakref.ref(g) for g in graphs]
    for g in graphs:
        assert walk_space(g) is walk_space(g)
    assert walk_space(build_graph(g.layout)) is not walk_space(g)
    del graphs, g
    gc.collect()
    assert all(r() is None for r in refs)


def test_oracle_bound_enforced():
    big = WarehouseLayout(3, 2, 2, 1, 2)  # |E| = 24
    g = shared_graph(big)
    assert len(g.edges) > MAX_ORACLE_EDGES
    with pytest.raises(OracleSizeError):
        walk_space(g)


def test_optimal_walks_fit_the_multiplicity_cap():
    # optimal walks never need undirected multiplicity above 2, and the
    # oracle space never stores more
    suite = make_suite(10, master_seed=77)
    for instance, graph in suite:
        sol = solve_exact(instance, graph)
        for walk in sol.walks:
            assert all(m <= 2 for _, m in walk.edge_mult)


def test_solve_exact_one_order():
    inst = generate_instance(LAYOUT, 1, 5, seed=0)
    g = shared_graph(LAYOUT)
    sol = solve_exact(inst, g)
    assert len(sol.batching) == inst.pickers
    assert sol.batching[0] == (0,)
    validate_solution(inst, g, sol)


def test_partitions_respect_capacity():
    sizes = {0: 5, 1: 4, 2: 3}
    parts = list(capacity_feasible_partitions([0, 1, 2], sizes, 8, 3))
    for partition in parts:
        for batch in partition:
            assert sum(sizes[o] for o in batch) <= 8
        # canonical: batches sorted by smallest member
        mins = [min(b) for b in partition]
        assert mins == sorted(mins)
    assert all({0, 1} != set(b) for p in parts for b in p)  # 5+4 > 8


def test_partitions_leave_nothing_for_the_collector():
    sizes = dict.fromkeys(range(6), 1)
    gc.collect()
    gc.disable()
    try:
        parts = list(capacity_feasible_partitions(range(6), sizes, 6, 6))
        assert gc.collect() == 0
    finally:
        gc.enable()
    # every set partition of six orders (Bell number 203), all in one batch first
    assert len(parts) == 203 and len(set(parts)) == 203
    assert parts[0] == ((0, 1, 2, 3, 4, 5),) and parts[-1] == tuple((o,) for o in range(6))


def test_solve_exact_matches_blind_enumeration():
    suite = make_suite(15, master_seed=31)
    for instance, graph in suite:
        sol = solve_exact(instance, graph)
        assert sol.total == blind_solve(instance, graph)


def test_empty_picker_departs():
    inst = generate_instance(LAYOUT, 1, 5, seed=0)
    inst = Instance(inst.layout, inst.orders, inst.capacity, pickers=2)
    g = shared_graph(LAYOUT)
    sol = solve_exact(inst, g)
    assert len(sol.walks) == 2
    assert sol.batching[1] == ()
    assert sol.walks[1].length(g) == 2  # cheapest out-and-back


def test_exact_order_bound():
    inst = generate_instance(LAYOUT, 7, 5, seed=1)
    with pytest.raises(OracleSizeError):
        solve_exact(inst, shared_graph(LAYOUT))


def test_no_reversal_subaisle_one_only():
    layout = WarehouseLayout(2, 1, 1, 1, 5)  # wide aisle spacing
    order = Order(0, 1, (Pick(0, 0, 0, 0),))
    inst = Instance(layout, (order,), 8, 1)
    g = shared_graph(layout)
    sol = solve_no_reversal_exact(inst, g)
    d = (layout.locs_per_subaisle + 1) * layout.loc_spacing
    assert sol.total == 2 * d  # down and back up


def test_no_reversal_walks_fully_traverse():
    suite = make_suite(10, master_seed=55)
    for instance, graph in suite:
        sol = solve_no_reversal_exact(instance, graph)
        for walk in sol.walks:
            mult = dict(walk.edge_mult)
            for sub in graph.subaisles:
                values = {mult.get(e, 0) for e in sub.edge_ids}
                assert len(values) == 1, "subaisle entered but not fully traversed"


def test_two_no_reversal_solves_on_one_graph_build_the_mask_once(monkeypatch):
    graph = build_graph(LAYOUT)
    space = walk_space(graph)
    built = []
    real_ones = np.ones

    def counted_ones(*args, **kwargs):  # the mask starts as every walk allowed
        built.append(args)
        return real_ones(*args, **kwargs)

    monkeypatch.setattr(np, "ones", counted_ones)
    instance = generate_instance(LAYOUT, 3, 10, seed=4)
    first = solve_no_reversal_exact(instance, graph)
    mask = space.mask_no_reversal()
    assert solve_no_reversal_exact(instance, graph) == first
    assert built == [(len(space.mult),)]
    assert space.mask_no_reversal() is mask and not mask.flags.writeable
    # a space that is never asked for the mask does not make it
    assert walk_space(build_graph(WarehouseLayout(2, 1, 1, 1, 2)))._no_reversal is None


def test_every_exact_route_on_one_graph_is_queried_once(monkeypatch):
    # the solvers, the oracle estimator and batching_to_solution all route
    # through the graph's walk space, which keeps each answer per pick set
    graph = build_graph(LAYOUT)
    queried = []
    real_query = WalkSpace.query

    def counted_query(self, required, mask=None):
        queried.append((frozenset(required), mask is not None))
        return real_query(self, required, mask)

    monkeypatch.setattr(WalkSpace, "query", counted_query)
    for seed in range(3):
        for n_orders in (2, 4):
            instance = generate_instance(LAYOUT, n_orders, 10, seed=seed)
            for _ in range(2):
                solve_exact(instance, graph)
                solve_no_reversal_exact(instance, graph)
                for batching in (seed_batching, cw2_batching):
                    batches = batching(instance, make_oracle_estimator(graph), graph).batches
                    batching_to_solution(instance, graph, batches)
    assert len(queried) == len(set(queried))
    assert {no_reversal for _, no_reversal in queried} == {False, True}


def test_a_route_through_a_non_picking_location_is_refused_and_not_kept():
    graph = build_graph(LAYOUT)
    space = walk_space(graph)
    picks = frozenset({graph.subaisles[0].locs[0], graph.origin})
    for no_reversal in (False, True):
        for _ in range(2):
            with pytest.raises(ValidationError,
                               match=f"required vertex {graph.origin} is not a picking location"):
                space.route(picks, no_reversal)
    with pytest.raises(ValidationError, match="is not a picking location"):
        make_oracle_estimator(graph)(picks)
    assert space._routes == ({}, {})
    # a pick set of picking locations is kept, once for each kind of walk
    locs = frozenset(graph.subaisles[1].locs)
    assert space.route(locs) == space.query(locs)
    assert space.route(locs, True) == space.query(locs, space.mask_no_reversal())
    assert space._routes == ({locs: space.query(locs)},
                             {locs: space.query(locs, space.mask_no_reversal())})


def test_no_reversal_at_least_exact():
    suite = make_suite(10, master_seed=56)
    for instance, graph in suite:
        assert solve_no_reversal_exact(instance, graph).total >= solve_exact(instance, graph).total


def test_no_reversal_exact_on_three_blocks():
    # the no-reversal mask assumes no block count: the full scan's rule is
    # the reference, and the P_U arc model accepts every optimal walk
    references = {}
    for instance, graph in make_suite(24, shapes=THREE_BLOCK_SHAPES, master_seed=313):
        if graph not in references:
            references[graph] = scanned_walk_space(graph).no_reversal
        sol = solve_no_reversal_exact(instance, graph)
        assert sol.total == blind_solve(instance, graph, mask=references[graph])
        model = build_model(instance, graph, "P_U")
        report = check_feasible(model, encode_walk_PG(model, instance, graph, sol))
        assert report.satisfied, report.violations[:4]


def test_no_reversal_empty_picker_departure():
    # an idle picker may turn around inside a cross aisle, so the cheapest
    # no-reversal departure is the horizontal out-and-back here
    inst = generate_instance(LAYOUT, 1, 5, seed=0)
    inst = Instance(inst.layout, inst.orders, inst.capacity, pickers=2)
    g = shared_graph(LAYOUT)
    sol = solve_no_reversal_exact(inst, g)
    assert sol.walks[1].length(g) == 2 * LAYOUT.aisle_spacing
    chain_edges = {e for sub in g.subaisles for e in sub.edge_ids}
    assert not chain_edges & {e for e, _ in sol.walks[1].edge_mult}


def test_export_model_writes_files(tmp_path):
    from pickopt import build_model, export_model

    inst = generate_instance(LAYOUT, 2, 5, seed=1)
    g = shared_graph(LAYOUT)
    model = build_model(inst, g, "P_basic")
    for fmt in ("lp", "mps", "json"):
        path = tmp_path / f"m.{fmt}"
        export_model(model, fmt, path)
        again = tmp_path / f"m2.{fmt}"
        export_model(model, fmt, again)
        assert path.read_bytes() == again.read_bytes()


def test_walk_space_and_walks_price_alike_at_fractional_spacings():
    # loc_spacing * V + aisle_spacing * H everywhere: a matrix product of
    # edge lengths and a Python sum of them differ in the last bit here
    rng = random.Random(23)
    for spacings in [(0.1, 0.7), (0.3, 1.7), (0.7, 0.3)]:
        for shape in [(1, 1, 2), (1, 2, 1), (2, 1, 1), (2, 1, 2)]:
            layout = WarehouseLayout(*shape, *spacings)
            g = build_graph(layout)
            space = walk_space(g)
            assert space.lengths.tolist() == [space.walk(j).length(g)
                                              for j in range(len(space.mult))]
            base = generate_instance(layout, 3, 10, seed=rng.randrange(1000))
            inst = Instance(layout, base.orders, base.capacity, base.pickers + 1)
            best = solve_exact(inst, g).total
            sizes = {o.id: o.size for o in inst.orders}
            for partition in capacity_feasible_partitions(inst.order_ids, sizes,
                                                          inst.capacity, inst.pickers):
                assert best <= batching_to_solution(inst, g, partition).total


def test_validate_solution_requires_a_walk_for_every_picker():
    g = shared_graph(LAYOUT)
    orders = (Order(0, 1, (Pick(0, 0, 0, 0),)), Order(1, 1, (Pick(1, 0, 1, 0),)))
    one = solve_exact(Instance(LAYOUT, orders, 8, 1), g)
    assert len(one.walks) == 1
    with pytest.raises(ValidationError, match="1 walks for 2 pickers"):
        validate_solution(Instance(LAYOUT, orders, 8, 2), g, one)


def test_solution_round_trip(tmp_path):
    inst = generate_instance(LAYOUT, 3, 10, seed=13)
    g = shared_graph(LAYOUT)
    sol = solve_exact(inst, g)
    path = tmp_path / "sol.json"
    save_solution(sol, g, path)
    again = load_solution(path, g)
    assert again == sol
    save_solution(again, g, tmp_path / "sol2.json")
    assert (tmp_path / "sol2.json").read_bytes() == path.read_bytes()


def test_load_solution_takes_batches_in_any_order(tmp_path):
    inst = generate_instance(LAYOUT, 4, 10, seed=0)
    g = shared_graph(LAYOUT)
    sol = solve_exact(inst, g)
    assert len(sol.walks) == 2
    path = tmp_path / "sol.json"
    save_solution(sol, g, path)
    doc = json.loads(path.read_text())
    doc["batches"].reverse()
    path.write_text(json.dumps(doc))
    assert load_solution(path, g) == sol


def test_order_ids_must_be_ints(tmp_path):
    base = generate_instance(LAYOUT, 2, 5, seed=3)
    inst = Instance(LAYOUT, base.orders, base.capacity, 1)
    g = shared_graph(LAYOUT)
    sol = solve_exact(inst, g)
    assert sol.batching == ((0, 1),)
    path = tmp_path / "sol.json"
    save_solution(sol, g, path)
    doc = json.loads(path.read_text())
    for orders, wrong in (([False, True], r"orders\[0\]: wrong type bool"),
                          ([0.0, 1], r"orders\[0\]: wrong type float"),
                          ([0, [1]], r"orders\[1\]: wrong type list")):
        doc["batches"][0]["orders"] = orders
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"^solution\.batches\[0\]\." + wrong):
            load_solution(path, g)
        hand_made = Solution((tuple(orders),), sol.walks, sol.total)
        with pytest.raises(ValidationError, match="unknown order id"):
            validate_solution(inst, g, hand_made)


@pytest.mark.parametrize("text,match", [
    ("{oops", "invalid JSON"),
    ("[1]", "not a JSON object"),
    ('{"batches": [], "total": 0}', "format: missing field"),
    ('{"format": 1, "batches": [], "total": 0}', "format: wrong type int"),
    ('{"format": "pickopt-instance-v1", "batches": [], "total": 0}', "format: expected"),
    ('{"format": "pickopt-solution-v1", "total": 0}', "batches: missing field"),
    ('{"format": "pickopt-solution-v1", "batches": {}, "total": 0}', "batches: wrong type dict"),
    ('{"format": "pickopt-solution-v1", "batches": []}', "total: missing field"),
    ('{"format": "pickopt-solution-v1", "batches": [], "total": "9"}', "total: wrong type str"),
    ('{"format": "pickopt-solution-v1", "batches": [], "total": true}', "total: wrong type bool"),
    ('{"format": "pickopt-solution-v1", "batches": [1], "total": 0}',
     r"batches\[0\]: not a JSON object"),
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": 0}], "total": 0}',
     r"batches\[0\]\.orders: missing field"),
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": "0", "orders": [], "walk": []}],'
     ' "total": 0}', r"batches\[0\]\.picker: wrong type str"),
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": 0, "orders": [0], "walk": 1}],'
     ' "total": 0}', r"batches\[0\]\.walk: wrong type int"),
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": 0, "orders": [0],'
     ' "walk": [{"u": 0, "v": 1}]}], "total": 2}', r"batches\[0\]\.walk\[0\]\.count: missing field"),
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": 0, "orders": [0],'
     ' "walk": [{"u": 0, "v": 1, "count": "2"}]}], "total": 2}',
     r"batches\[0\]\.walk\[0\]\.count: wrong type str"),
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": 0, "orders": [0],'
     ' "walk": [[0, 1, 2]]}], "total": 2}', r"batches\[0\]\.walk\[0\]: not a JSON object"),
    # vertex -1 is not vertex 7, whose edge to 6 exists; the graph has 8 vertices
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": 0, "orders": [0],'
     ' "walk": [{"u": -1, "v": 6, "count": 2}]}], "total": 2}', "no edge between -1 and 6"),
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": 0, "orders": [0],'
     ' "walk": [{"u": 8, "v": 6, "count": 2}]}], "total": 2}', "no edge between 8 and 6"),
    # a walk uses an edge once or twice, each edge in one entry
    *[('{"format": "pickopt-solution-v1", "batches": [{"picker": 0, "orders": [0],'
       ' "walk": [{"u": 0, "v": 4, "count": %d}]}], "total": 2}' % count,
       r"batches\[0\]\.walk\[0\]\.count: %d is not 1 or 2" % count) for count in (-2, 0, 7)],
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": 0, "orders": [0], "walk":'
     ' [{"u": 0, "v": 4, "count": 1}, {"u": 4, "v": 0, "count": 1}]}], "total": 2}',
     r"batches\[0\]\.walk\[1\]: edge \(4, 0\) is already in the walk"),
    # one batch per picker, the pickers numbered from 0
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": 0, "orders": [0], "walk": []},'
     ' {"picker": 0, "orders": [1], "walk": []}], "total": 0}',
     r"batches\[1\]\.picker: picker 0 already has solution\.batches\[0\]"),
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": 0, "orders": [0], "walk": []},'
     ' {"picker": 2, "orders": [1], "walk": []}], "total": 0}',
     r"batches\[1\]\.picker: 2 is not one of the pickers 0\.\.1 of 2 batches"),
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": -1, "orders": [0],'
     ' "walk": []}], "total": 0}', r"batches\[0\]\.picker: -1 is not one of the pickers 0\.\.0"),
    # the total is the walks' length sum
    ('{"format": "pickopt-solution-v1", "batches": [{"picker": 0, "orders": [0],'
     ' "walk": [{"u": 0, "v": 4, "count": 2}]}], "total": -999}',
     "solution.total: -999 is not the walks' length sum 2"),
])
def test_load_solution_rejects_malformed_files(tmp_path, text, match):
    path = tmp_path / "sol.json"
    path.write_text(text)
    with pytest.raises(ValidationError, match=match):
        load_solution(path, shared_graph(LAYOUT))


def test_all_oracle_shapes_within_bound():
    for shape in ORACLE_SHAPES:
        g = shared_graph(WarehouseLayout(*shape, 1, 2))
        assert len(g.edges) <= MAX_ORACLE_EDGES
