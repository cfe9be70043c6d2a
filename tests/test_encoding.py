import random
from itertools import combinations

import pytest

from conftest import make_suite, shared_graph
from pickopt import (EncodingError, Instance, Order, Pick, Solution, Walk,
                     WarehouseLayout, build_auxiliary_graph, build_basic,
                     build_model, build_PF, build_PG, build_PU2, check_feasible,
                     encode_walk_PF, encode_walk_PG,
                     eq75_value, generate_instance, orient_walk, solve_exact,
                     solve_no_reversal_exact)
from pickopt.encoding import encode_best_s_shape
from pickopt.layout import TWO_BLOCK

LAYOUT = WarehouseLayout(2, 1, 2, 1, 2)


def all_gamma_cuts_satisfied(graph, instance, assignment):
    """Exhaustive enumeration of the reduced-graph connectivity family."""
    s = graph.origin
    others = [v for v in graph.artificial_vertices if v != s]
    for t in range(instance.pickers):
        for r in range(2, len(others) + 1):
            for S in combinations(others, r):
                sset = set(S)
                boundary = graph.eta_plus(sset)
                lhs = sum(assignment.get(f"g_{t}_{u}_{v}") for u, v in boundary)
                for u0 in S:
                    if assignment.get(f"y_{t}_{u0}") == 1 and lhs < 1:
                        return False
    return True


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
        for build in (build_basic, build_PG):
            model = build(inst, g)
            a = encode_walk_PG(model, inst, g, sol)
            report = check_feasible(model, a)
            assert report.satisfied, (build.__name__, report.violations[:3])
            assert model.objective_value(a.values) == sol.total


def test_encode_pg_satisfies_every_gamma_cut():
    suite = make_suite(8, master_seed=302)
    for inst, g in suite:
        sol = solve_exact(inst, g)
        model = build_PG(inst, g)
        a = encode_walk_PG(model, inst, g, sol)
        assert all_gamma_cuts_satisfied(g, inst, a)


def test_full_downward_traversal_sets_gamma():
    layout = WarehouseLayout(2, 1, 1, 1, 2)
    g = shared_graph(layout)
    sub = g.subaisles[1]
    order = Order(0, 1, (Pick(1, 0, 0, 0),))
    inst = Instance(layout, (order,), 8, 1)
    # walk around the whole block: every subaisle fully traversed once
    mult = {eid: 1 for eid in range(len(g.edges))}
    walk = Walk(0, tuple(sorted(mult.items())))
    sol = Solution(((0,),), (walk,), walk.length(g))
    model = build_PG(inst, g)
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
    model = build_PG(inst, g)
    a = encode_walk_PG(model, inst, g, sol)
    assert check_feasible(model, a).satisfied
    assert a.get("z_0_1") == 0


def test_encode_pf_flow_balances():
    suite = make_suite(6, master_seed=303)
    for inst, g in suite:
        sol = solve_exact(inst, g)
        model = build_PF(inst, g)
        a = encode_walk_PF(model, inst, g, sol)
        assert check_feasible(model, a).satisfied
        assert model.objective_value(a.values) == sol.total
        # commodity flow out of its source equals the visit flag
        for t in range(inst.pickers):
            for v0 in g.artificial_vertices:
                out = sum(a.get(f"s_{t}_{v0}_{u}_{v}") for u, v in g.eta_plus([v0]))
                into = sum(a.get(f"s_{t}_{v0}_{u}_{v}") for u, v in g.eta_minus([v0]))
                assert out - into == a.get(f"y_{t}_{v0}")


def test_projection_between_pg_and_pf():
    # dropping the flow block of a P_F encoding leaves a P_G-feasible point
    # satisfying every enumerated gamma cut; adding flows to a P_G encoding
    # is exactly encode_walk_PF
    inst = generate_instance(LAYOUT, 2, 10, seed=44)
    g = shared_graph(LAYOUT)
    sol = solve_exact(inst, g)
    mf = build_PF(inst, g)
    af = encode_walk_PF(mf, inst, g, sol)
    mg = build_PG(inst, g)
    from pickopt import VariableAssignment

    projected = VariableAssignment(
        {k: v for k, v in af.values.items() if not k.startswith("s_")})
    assert check_feasible(mg, projected).satisfied
    assert all_gamma_cuts_satisfied(g, inst, projected)


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
    model = build_basic(inst, g)
    # odd-degree support: single edge once
    walk = Walk(0, ((0, 1),))
    sol = Solution(((0,),), (walk,), walk.length(g))
    with pytest.raises(EncodingError):
        encode_walk_PG(model, inst, g, sol)
    # does not cover the picks
    far = Walk(0, ((len(g.edges) - 1, 2),))
    sol2 = Solution(((0,),), (far,), far.length(g))
    with pytest.raises(EncodingError):
        encode_walk_PG(model, inst, g, sol2)


def _single_batch_instance(layout, g, chosen):
    picks = tuple(
        Pick(g.subaisles[g.subaisle_of(v)].aisle, g.subaisles[g.subaisle_of(v)].block,
             g.subaisles[g.subaisle_of(v)].locs.index(v), 0)
        for v in sorted(chosen))
    return Instance(layout, (Order(0, 1, picks),), 8, 1)


def test_pu2_route_encodings():
    rng = random.Random(3)
    for (na, locs) in [(2, 1), (1, 2), (3, 1), (2, 2)]:
        layout = WarehouseLayout(na, 2, locs, 1, 2)
        g = shared_graph(layout)
        aux = build_auxiliary_graph(g, TWO_BLOCK)
        n = layout.n_aisles
        for _ in range(25):
            chosen = [v for sub in g.subaisles for v in sub.locs if rng.random() < 0.5]
            if not chosen:
                continue
            inst = _single_batch_instance(layout, g, chosen)
            model = build_PU2(inst, aux, with_cross_aisle_bound=True)
            subs = {g.subaisle_of(v) for v in chosen}
            K2 = [i for i in subs if i >= n]
            route, a = encode_best_s_shape(model, aux, inst, 0, [0])
            assert check_feasible(model, a).satisfied
            assert model.objective_value(a.values) == route.total_length
            if K2:
                assert eq75_value(model, aux, a, 0) == 2


def test_best_s_shape_of_an_absent_kind_is_an_encoding_error():
    # order 0 has no block-1 subaisle, so no r_S1 route exists
    layout = WarehouseLayout(5, 2, 2, 1, 3)
    g = shared_graph(layout)
    aux = build_auxiliary_graph(g, TWO_BLOCK)
    inst = generate_instance(layout, 3, 10, seed=9)
    assert all(g.subaisle_of(v) >= layout.n_aisles
               for v in inst.pick_vertices(g, inst.order_by_id(0)))
    model = build_PU2(inst, aux)
    with pytest.raises(EncodingError, match="r_S1"):
        encode_best_s_shape(model, aux, inst, 0, [0], kind="r_S1")
