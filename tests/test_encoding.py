import random
from dataclasses import replace

import pytest

from conftest import make_suite, shared_graph, single_batch
from oracles import every_gamma_cut_holds, route_oracle
from pickopt import (EncodingError, Instance, ModelOptions, Order, Pick, Solution,
                     Walk, WarehouseLayout, build_model, check_feasible,
                     encode_walk_PF, encode_walk_PG, generate_instance, orient_walk,
                     solve_exact, solve_no_reversal_exact)
from routes import (MIDDLE_BAND, R_S1, R_S2, arrivals, encode_best_s_shape,
                    eq75_value, s_shape_candidates)

LAYOUT = WarehouseLayout(2, 1, 2, 1, 2)


def test_orientation_is_balanced():
    g = shared_graph(LAYOUT)
    inst = generate_instance(LAYOUT, 3, 10, seed=21)
    sol = solve_exact(inst, g)
    for walk in sol.walks:
        arcs = orient_walk(g, walk)
        for v in range(g.n_vertices):
            outs = sum(1 for (a, b) in arcs if a == v)
            ins = sum(1 for (a, b) in arcs if b == v)
            assert outs == ins
        # each undirected traversal appears exactly once per direction
        for e, m in walk.edge_mult:
            u, v = g.edges[e]
            assert ((u, v) in arcs) + ((v, u) in arcs) == m


def test_encode_basic_and_pg_feasible_with_objective():
    suite = make_suite(8, master_seed=301)
    for inst, g in suite:
        sol = solve_exact(inst, g)
        for kind in ("P_basic", "P_G"):
            model = build_model(inst, g, kind)
            a = encode_walk_PG(model, inst, g, sol)
            report = check_feasible(model, a)
            assert report.satisfied, (kind, report.violations[:3])
            assert model.objective_value(a.values) == sol.total


def test_encode_pg_satisfies_every_gamma_cut():
    suite = make_suite(8, master_seed=302)
    for inst, g in suite:
        sol = solve_exact(inst, g)
        model = build_model(inst, g, "P_G")
        a = encode_walk_PG(model, inst, g, sol)
        assert every_gamma_cut_holds(g, inst, a)


def test_full_downward_traversal_sets_gamma():
    layout = WarehouseLayout(2, 1, 1, 1, 2)
    g = shared_graph(layout)
    sub = g.subaisles[1]
    order = Order(0, 1, (Pick(1, 0, 0, 0),))
    inst = Instance(layout, (order,), 8, 1)
    # walk around the whole block: every subaisle fully traversed once
    mult = {eid: 1 for eid in range(len(g.edges))}
    walk = Walk(tuple(sorted(mult.items())))
    sol = Solution(((0,),), (walk,), walk.length(g))
    model = build_model(inst, g, "P_G")
    a = encode_walk_PG(model, inst, g, sol)
    assert check_feasible(model, a).satisfied
    down = a.get(f"g_0_{sub.head}_{sub.tail}")
    up = a.get(f"g_0_{sub.tail}_{sub.head}")
    assert down + up == 1  # traversed once, in one direction


def test_empty_batch_picker_encoding():
    inst = generate_instance(LAYOUT, 1, 5, seed=0)
    inst = Instance(inst.layout, inst.orders, inst.capacity, pickers=2)
    g = shared_graph(LAYOUT)
    sol = solve_exact(inst, g)
    model = build_model(inst, g, "P_G")
    a = encode_walk_PG(model, inst, g, sol)
    assert check_feasible(model, a).satisfied
    assert a.get("z_0_1") == 0


def test_encode_pf_flow_balances():
    suite = make_suite(6, master_seed=303)
    for inst, g in suite:
        sol = solve_exact(inst, g)
        model = build_model(inst, g, "P_F")
        a = encode_walk_PF(model, inst, g, sol)
        assert check_feasible(model, a).satisfied
        assert model.objective_value(a.values) == sol.total
        # commodity flow out of its source equals the visit flag
        for t in range(inst.pickers):
            for v0 in g.artificial_vertices:
                nbrs = [v if u == v0 else u for u, v, _, _ in g.reduced_edges if v0 in (u, v)]
                out = sum(a.get(f"s_{t}_{v0}_{v0}_{w}") for w in nbrs)
                into = sum(a.get(f"s_{t}_{v0}_{w}_{v0}") for w in nbrs)
                assert out - into == a.get(f"y_{t}_{v0}")


def test_projection_between_pg_and_pf():
    # dropping the flow block of a P_F encoding leaves a P_G-feasible point
    # satisfying every enumerated gamma cut; adding flows to a P_G encoding
    # is exactly encode_walk_PF
    inst = generate_instance(LAYOUT, 2, 10, seed=44)
    g = shared_graph(LAYOUT)
    sol = solve_exact(inst, g)
    mf = build_model(inst, g, "P_F")
    af = encode_walk_PF(mf, inst, g, sol)
    mg = build_model(inst, g, "P_G")
    from pickopt import VariableAssignment

    projected = VariableAssignment(
        {k: v for k, v in af.values.items() if not k.startswith("s_")})
    assert check_feasible(mg, projected).satisfied
    assert every_gamma_cut_holds(g, inst, projected)


def test_encode_no_reversal_into_PU_kind():
    suite = make_suite(6, master_seed=304, shapes=[(2, 1, 1), (1, 2, 1), (2, 2, 1)])
    for inst, g in suite:
        sol = solve_no_reversal_exact(inst, g)
        model = build_model(inst, g, "P_U")
        a = encode_walk_PG(model, inst, g, sol)
        assert check_feasible(model, a).satisfied, check_feasible(model, a).violations[:4]


def test_encode_rejects_broken_walks():
    g = shared_graph(LAYOUT)
    inst = generate_instance(LAYOUT, 1, 5, seed=0)
    model = build_model(inst, g, "P_basic")
    # odd-degree support: single edge once
    walk = Walk(((0, 1),))
    sol = Solution(((0,),), (walk,), walk.length(g))
    with pytest.raises(EncodingError):
        encode_walk_PG(model, inst, g, sol)
    # does not cover the picks
    far = Walk(((len(g.edges) - 1, 2),))
    sol2 = Solution(((0,),), (far,), far.length(g))
    with pytest.raises(EncodingError):
        encode_walk_PG(model, inst, g, sol2)
    # a total that is not the walk length sum
    with pytest.raises(EncodingError, match="total"):
        encode_walk_PG(model, inst, g, replace(solve_exact(inst, g), total=1000))
    # two orders on one trolley that holds only the larger of them
    pair = generate_instance(LAYOUT, 2, 5, seed=0)
    small = Instance(LAYOUT, pair.orders, max(o.size for o in pair.orders), pickers=2)
    both = route_oracle(g, frozenset().union(*small.all_pick_vertices(g).values()))
    idle = route_oracle(g, ())
    sol3 = Solution(((0, 1), ()), (both, idle), both.length(g) + idle.length(g))
    with pytest.raises(EncodingError, match="capacity"):
        encode_walk_PG(build_model(small, g, "P_basic"), small, g, sol3)


def test_pu2_route_encodings():
    rng = random.Random(3)
    for (na, locs) in [(2, 1), (1, 2), (3, 1), (2, 2)]:
        layout = WarehouseLayout(na, 2, locs, 1, 2)
        g = shared_graph(layout)
        n = layout.n_aisles
        for _ in range(25):
            chosen = [v for sub in g.subaisles for v in sub.locs if rng.random() < 0.5]
            if not chosen:
                continue
            inst = single_batch(layout, g, chosen)
            model = build_model(inst, g, "P_U2", ModelOptions(cross_aisle_bound=True))
            subs = {g.subaisle_of(v) for v in chosen}
            K2 = [i for i in subs if i >= n]
            route, a = encode_best_s_shape(model, g, inst, 0, [0])
            assert check_feasible(model, a).satisfied
            assert model.objective_value(a.values) == route.total_length
            if K2:
                assert eq75_value(model, g, a, 0) == 2


def test_best_s_shape_of_an_absent_kind_is_an_encoding_error():
    # order 0 has no block-1 subaisle, so no r_S1 route exists
    layout = WarehouseLayout(5, 2, 2, 1, 3)
    g = shared_graph(layout)
    inst = generate_instance(layout, 3, 10, seed=9)
    assert all(g.subaisle_of(v) >= layout.n_aisles
               for v in inst.all_pick_vertices(g)[0])
    model = build_model(inst, g, "P_U2")
    with pytest.raises(EncodingError, match="r_S1"):
        encode_best_s_shape(model, g, inst, 0, [0], kind="r_S1")


def test_r_s1_routes_that_enter_a_middle_location_three_times_do_not_encode():
    # the auxiliary graph has two vertices at each middle cross-aisle
    # location, the original and its copy, each of tour degree 2
    layout = WarehouseLayout(3, 2, 1, 1, 2)
    g = shared_graph(layout)
    inst = generate_instance(layout, 3, 10, seed=5)
    subs = sorted({g.subaisle_of(v) for v in inst.all_pick_vertices(g)[0]})
    assert subs == [0, 1, 2, 4]
    routes = s_shape_candidates(g, [0, 1, 2], [4])
    assert {(r.kind, r.total_length, arrivals(r, 3, MIDDLE_BAND, 1)) for r in routes} == {
        (R_S1, 20, 3), (R_S2, 20, 2)}
    assert sum(r.kind == R_S1 for r in routes) == 5
    single = Instance(layout, inst.orders[:1], inst.capacity, 1)
    model = build_model(single, g, "P_U2")
    with pytest.raises(EncodingError, match="no conflict-free lane assignment"):
        encode_best_s_shape(model, g, single, 0, [0], kind=R_S1)
    route, a = encode_best_s_shape(model, g, single, 0, [0], kind=R_S2)
    assert check_feasible(model, a).satisfied
    assert model.objective_value(a.values) == route.total_length == 20
