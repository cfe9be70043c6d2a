import gc
import random
import weakref

import numpy as np
import pytest

from conftest import ORACLE_SHAPES, make_suite, shared_graph
from oracles import blind_solve, brute_force_bin_pack, scanned_walk_space
from pickopt import (Instance, MAX_ORACLE_EDGES, OracleSizeError, Order, Pick,
                     ValidationError, WalkSpace, WarehouseLayout, bin_pack_exact,
                     build_graph, capacity_feasible_partitions,
                     first_fit_decreasing, generate_instance, load_solution,
                     route_oracle, save_solution, solve_exact,
                     solve_no_reversal_exact, validate_solution, walk_space)
from pickopt.exact import _space_cache

LAYOUT = WarehouseLayout(2, 1, 2, 1, 2)


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
    for shape in ORACLE_SHAPES:
        g = build_graph(WarehouseLayout(*shape, 1, 2))
        space = WalkSpace(g)
        ref = scanned_walk_space(g)
        for name in ("mult", "lengths", "ok", "visited"):
            got, want = getattr(space, name), getattr(ref, name)
            assert got.dtype == want.dtype, (shape, name)
            assert np.array_equal(got, want), (shape, name)
        assert np.array_equal(space.mask_no_reversal(), ref.no_reversal), shape
        assert np.array_equal(space.mask_single_traversal(), ref.single_traversal), shape
        assert np.array_equal(space.mask_no_artificial_uturn(),
                              ref.no_artificial_uturn), shape


def test_walk_space_cache_releases_graphs():
    gc.collect()
    before = len(_space_cache)
    graphs = [build_graph(WarehouseLayout(1 + k % 3, 1, 1, 1, 1 + k)) for k in range(20)]
    refs = [weakref.ref(g) for g in graphs]
    for g in graphs:
        walk_space(g)
    assert len(_space_cache) == before + 20
    del graphs, g
    gc.collect()
    assert all(r() is None for r in refs)
    assert len(_space_cache) == before


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
    assert sol.total == 2 * layout.subaisle_length  # down and back up


def test_no_reversal_walks_fully_traverse():
    suite = make_suite(10, master_seed=55)
    for instance, graph in suite:
        sol = solve_no_reversal_exact(instance, graph)
        for walk in sol.walks:
            mult = walk.mult
            for sub in graph.subaisles:
                values = {mult.get(e, 0) for e in sub.edge_ids}
                assert len(values) == 1, "subaisle entered but not fully traversed"


def test_no_reversal_at_least_exact():
    suite = make_suite(10, master_seed=56)
    for instance, graph in suite:
        assert solve_no_reversal_exact(instance, graph).total >= solve_exact(instance, graph).total


def test_no_reversal_empty_picker_departure():
    # an idle picker may turn around inside a cross aisle, so the cheapest
    # no-reversal departure is the horizontal out-and-back here
    inst = generate_instance(LAYOUT, 1, 5, seed=0)
    inst = Instance(inst.layout, inst.orders, inst.capacity, pickers=2)
    g = shared_graph(LAYOUT)
    sol = solve_no_reversal_exact(inst, g)
    assert sol.walks[1].length(g) == 2 * LAYOUT.aisle_spacing
    mult = sol.walks[1].mult
    assert all(g.edge_subaisle[e] is None for e in mult)


def test_export_model_writes_files(tmp_path):
    from pickopt import build_basic, export_model

    inst = generate_instance(LAYOUT, 2, 5, seed=1)
    g = shared_graph(LAYOUT)
    model = build_basic(inst, g)
    for fmt in ("lp", "mps", "json"):
        path = tmp_path / f"m.{fmt}"
        export_model(model, fmt, path)
        again = tmp_path / f"m2.{fmt}"
        export_model(model, fmt, again)
        assert path.read_bytes() == again.read_bytes()


def test_bin_pack_examples():
    assert bin_pack_exact([3, 3, 3], 8) == 2
    assert bin_pack_exact([5, 4, 3], 8) == 2
    assert bin_pack_exact([8, 8, 8], 8) == 3
    with pytest.raises(ValidationError, match="infeasible"):
        bin_pack_exact([9], 8)


def test_bin_pack_matches_brute_force():
    rng = random.Random(17)
    for _ in range(25):
        sizes = [1 + rng.randrange(8) for _ in range(1 + rng.randrange(12))]
        assert bin_pack_exact(sizes, 8) == brute_force_bin_pack(sizes, 8)


def test_bin_pack_ffd_is_upper_bound():
    rng = random.Random(18)
    for _ in range(20):
        sizes = [1 + rng.randrange(8) for _ in range(10)]
        assert bin_pack_exact(sizes, 8) <= first_fit_decreasing(sizes, 8)


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
