import pytest

from conftest import shared_graph
from oracles import depart_loop, subaisle_cycle
from pickopt import (Instance, Order, Pick, SeparationError,
                     ValidationError, VariableAssignment, WarehouseLayout, build_model,
                     check_feasible, cut_to_row, generate_instance,
                     order_components, separate_connectivity, solve_exact,
                     encode_walk_PG)
from pickopt.model import lp_terms

LAYOUT = WarehouseLayout(2, 1, 2, 1, 2)
LAYOUT2B = WarehouseLayout(2, 2, 1, 1, 2)


def lhs_value(model, row, assignment):
    return sum(coef * assignment.get(model.var_name(pos)) for pos, coef in row.coeffs)


# -- order components --------------------------------------------------------


def non_origin_sets(comps):
    return [S for S, has_origin in comps if not has_origin]


def test_components_origin_adjacent():
    g = shared_graph(LAYOUT)
    comps = order_components(g, {g.subaisles[0].locs[0]})
    assert len(comps) == 1
    assert comps[0][1] is True  # contains the origin
    assert non_origin_sets(comps) == []


def test_components_far_subaisle():
    g = shared_graph(WarehouseLayout(1, 2, 1, 1, 2))
    pick = g.subaisles[1].locs[0]
    comps = order_components(g, {pick})
    sets = non_origin_sets(comps)
    assert len(sets) == 1
    sub = g.subaisles[1]
    assert sets[0] == frozenset({sub.head, sub.tail, *sub.locs})


def test_components_merge_through_shared_vertex():
    g = shared_graph(LAYOUT2B)
    # picks in both blocks of aisle 1: subaisles share the middle vertex
    picks = {g.subaisles[1].locs[0], g.subaisles[3].locs[0]}
    comps = order_components(g, picks)
    assert len(comps) == 1


def test_components_two_separate():
    g = shared_graph(WarehouseLayout(3, 1, 2, 1, 2))
    picks = {g.subaisles[0].locs[0], g.subaisles[2].locs[0]}
    comps = order_components(g, picks)
    assert len(comps) == 2
    assert len(non_origin_sets(comps)) == 1  # only the far aisle


# -- separation on candidate assignments -------------------------------------


def test_connected_support_yields_no_cuts():
    inst = generate_instance(LAYOUT, 2, 5, seed=3)
    g = shared_graph(LAYOUT)
    sol = solve_exact(inst, g)
    model = build_model(inst, g, "P_basic")
    a = encode_walk_PG(model, inst, g, sol)
    assert separate_connectivity(g, "P_basic", a, inst) == []


def test_disconnected_component_yields_one_violated_cut():
    order = Order(0, 1, (Pick(1, 0, 0, 0),))
    inst = Instance(LAYOUT, (order,), 8, 1)
    g = shared_graph(LAYOUT)
    model = build_model(inst, g, "P_basic")
    values = depart_loop(0, g) | subaisle_cycle(0, g, g.subaisles[1])
    values["z_0_0"] = 1
    a = VariableAssignment(values)
    cuts = separate_connectivity(g, "P_basic", a, inst)
    assert len(cuts) == 1
    cut = cuts[0]
    assert cut.family == "bs4"
    assert g.origin not in cut.vertex_set
    row = cut_to_row(cut, model, g)
    assert lhs_value(model, row, a) < row.rhs + 0  # violated: lhs < 0 means < y


def test_two_components_two_cuts():
    layout = WarehouseLayout(3, 1, 1, 1, 2)
    order = Order(0, 1, (Pick(1, 0, 0, 0), Pick(2, 0, 0, 0)))
    inst = Instance(layout, (order,), 8, 1)
    g = shared_graph(layout)
    values = depart_loop(0, g)
    values |= subaisle_cycle(0, g, g.subaisles[1])
    values |= subaisle_cycle(0, g, g.subaisles[2])
    values["z_0_0"] = 1
    cuts = separate_connectivity(g, "P_basic", VariableAssignment(values), inst)
    assert len(cuts) == 2
    assert [c.picker for c in cuts] == [0, 0]
    assert cuts == sorted(cuts, key=lambda c: (c.picker, min(c.vertex_set)))


def test_fractional_assignment_rejected():
    inst = generate_instance(LAYOUT, 1, 5, seed=0)
    g = shared_graph(LAYOUT)
    a = VariableAssignment({"x_0_0_4": 0.5})
    with pytest.raises(SeparationError):
        separate_connectivity(g, "P_basic", a, inst)


def test_impf8_support_uses_gamma():
    order = Order(0, 1, (Pick(1, 0, 0, 0),))
    inst = Instance(LAYOUT, (order,), 8, 1)
    g = shared_graph(LAYOUT)
    model = build_model(inst, g, "P_G")
    sub = g.subaisles[1]
    values = depart_loop(0, g) | subaisle_cycle(0, g, sub)
    values[f"g_0_{sub.head}_{sub.tail}"] = 1
    values[f"g_0_{sub.tail}_{sub.head}"] = 1
    values["z_0_0"] = 1
    a = VariableAssignment(values)
    cuts = separate_connectivity(g, "P_G", a, inst)
    assert len(cuts) == 1
    assert cuts[0].family == "impf8"
    assert cuts[0].vertex_set == {sub.head, sub.tail}
    row = cut_to_row(cuts[0], model, g)
    assert lhs_value(model, row, a) < 0


def test_isolated_anchored_vertex_is_its_own_component():
    # the far subaisle is walked in x but carries no gamma arcs, so its
    # anchored artificial vertices touch no impf8 support arc
    order = Order(0, 1, (Pick(1, 0, 0, 0),))
    inst = Instance(LAYOUT, (order,), 8, 1)
    g = shared_graph(LAYOUT)
    model = build_model(inst, g, "P_G")
    sub = g.subaisles[1]
    values = depart_loop(0, g) | subaisle_cycle(0, g, sub)
    values["z_0_0"] = 1
    a = VariableAssignment(values)
    cuts = separate_connectivity(g, "P_G", a, inst)
    assert [c.vertex_set for c in cuts] == [{sub.head}, {sub.tail}]
    for cut in cuts:
        assert cut.anchor_vertex in cut.vertex_set
        row = cut_to_row(cut, model, g)
        assert lhs_value(model, row, a) < row.rhs


def test_tspo5_cut_has_coefficient_two():
    order = Order(0, 1, (Pick(1, 0, 0, 0),))
    inst = Instance(LAYOUT, (order,), 8, 1)
    g = shared_graph(LAYOUT)
    aux = g.auxiliary()
    model = build_model(inst, g, "P_U1")
    sub = g.subaisles[1]

    def edge_name(u, v):
        for e in aux.edges:
            if {e.u, e.v} == {u, v}:
                return f"x_0_{e.u}_{e.v}"
        raise AssertionError

    # disconnected 2-cycle is impossible on binary edges; use a triangle of
    # the far subaisle with the return edge to its head
    values = {
        edge_name(sub.head, sub.tail): 1,
        f"y_0_{sub.head}": 1, f"y_0_{sub.tail}": 1,
        "z_0_0": 1,
    }
    # close the far component with the star edges would touch the origin, so
    # instead mark only the far edge; the support component misses the origin
    a = VariableAssignment(values)
    cuts = separate_connectivity(g, "P_U1", a, inst)
    assert len(cuts) == 1
    row = cut_to_row(cuts[0], model, g)
    y_coef = [c for _, c in row.coeffs if c == -2]
    assert y_coef == [-2]


def test_PU1_cut_counts_the_parallel_edge():
    # vertices 0, 1 on the top cross aisle, 2, 3 on the bottom one; the
    # parallel edge xt_0 joins the origin 0 to the first tail 2
    layout = WarehouseLayout(2, 1, 1, 1, 2)
    inst = Instance(layout, (Order(0, 1, (Pick(1, 0, 0, 0),)),), 8, 1)
    g = shared_graph(layout)
    model = build_model(inst, g, "P_U1")
    names = [v.name for v in model.variables]

    def cut_lines(values):
        cuts = separate_connectivity(g, "P_U1", VariableAssignment(values), inst)
        rows = [cut_to_row(cut, model, g) for cut in cuts]
        return [f"{' '.join(lp_terms(r.coeffs, names))} {r.sense} {r.rhs}" for r in rows]

    assert cut_lines({"x_0_2_3": 1, "y_0_2": 1, "y_0_3": 1}) == [
        "x_0_0_2 + x_0_1_3 + x_0_0_3 + xt_0 - 2 y_0_2 >= 0"]
    assert cut_lines({"x_0_0_2": 1, "xt_0": 1, "y_0_2": 1}) == []


def test_unknown_kind_rejected():
    inst = generate_instance(LAYOUT, 1, 5, seed=0)
    g = shared_graph(LAYOUT)
    with pytest.raises(ValidationError):
        separate_connectivity(g, "P_F", VariableAssignment({}), inst)


def test_iterate_until_no_cuts_terminates():
    """Simulated branch-and-cut loop: disconnected candidate, then the
    optimal encoding; at most 20 iterations, finishing connected."""
    inst = generate_instance(LAYOUT, 2, 5, seed=8)
    g = shared_graph(LAYOUT)
    model = build_model(inst, g, "P_G")
    sol = solve_exact(inst, g)
    final = encode_walk_PG(model, inst, g, sol)

    # candidate 1: per picker, depart loop plus one cycle per picked subaisle
    values = {}
    picks = inst.all_pick_vertices(g)
    for t, orders in enumerate(sol.batching):
        values |= depart_loop(t, g)
        subs = {g.subaisle_of(v) for oid in orders for v in picks[oid]}
        for i in sorted(subs):
            sub = g.subaisles[i]
            values |= subaisle_cycle(t, g, sub)
            values[f"g_{t}_{sub.head}_{sub.tail}"] = 1
            values[f"g_{t}_{sub.tail}_{sub.head}"] = 1
            for v in sub.locs:
                values[f"a_{t}_{v}"] = 1
                values[f"b_{t}_{v}"] = 1
        for oid in orders:
            values[f"z_{oid}_{t}"] = 1
    candidates = [VariableAssignment(values), final]

    iterations = 0
    added = []
    while True:
        iterations += 1
        assert iterations <= 20
        current = candidates[min(iterations, len(candidates)) - 1]
        cuts = separate_connectivity(g, "P_G", current, inst)
        if not cuts:
            break
        for cut in cuts:
            row = cut_to_row(cut, model, g)
            added.append(row)
            assert lhs_value(model, row, current) < 0, "emitted cut not violated"
    # the final candidate satisfies the whole model including the added cuts
    report = check_feasible(model, final)
    assert report.satisfied
    assert iterations <= 20
