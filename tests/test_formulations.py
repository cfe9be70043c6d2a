import pytest

from conftest import shared_graph
from pickopt import (Instance, ModelOptions, Order, Pick, UnsupportedFamilyError,
                     ValidationError, VariantMismatchError, WarehouseLayout,
                     build_auxiliary_graph, build_basic, build_model,
                     build_no_reversal, build_PF, build_PG, build_PU1,
                     build_PU2, build_single_traversing,
                     build_strengthened_cuts, build_subaisle_cuts,
                     build_symmetry_breaking, build_artificial_vertex_reversal,
                     check_feasible, generate_instance, validate_options,
                     VariableAssignment)
from pickopt.layout import SINGLE_BLOCK, TWO_BLOCK

LAYOUT = WarehouseLayout(2, 1, 2, 1, 2)


def one_order_instance(layout=LAYOUT, picks=((0, 0, 0, 0),), size=1, pickers=1):
    order = Order(0, size, tuple(Pick(*p) for p in picks))
    return Instance(layout, (order,), 8, pickers)


def test_basic_variable_and_row_counts():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    m = build_basic(inst, g)
    counts = m.variable_counts()
    assert counts == {"x": 16, "y": 8, "z": 1}
    groups = m.group_counts()
    assert groups["bs6"] == 1  # one per order
    assert groups["bs7"] == 1  # one per picker
    assert groups["bs4"] == 0 and "bs4" in m.lazy_groups
    assert groups["bs1"] == 1
    assert groups["bs5"] == g.n_vertices


def test_basic_row_counts_scale_with_orders_and_pickers():
    inst = generate_instance(LAYOUT, 4, 5, seed=11)
    g = shared_graph(LAYOUT)
    m = build_basic(inst, g)
    groups = m.group_counts()
    assert groups["bs6"] == len(inst.orders)
    assert groups["bs7"] == inst.pickers


def test_subaisle_cut_row_counts():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    m = build_basic(inst, g)
    build_subaisle_cuts(m, inst, g)
    groups = m.group_counts()
    # per picker and subaisle with two locations: chain rows 1, links 2
    assert groups["sub1"] == 1 * 2  # (locs-1) per subaisle, two subaisles
    assert groups["sub2"] == 2 * 2
    assert groups["sub3"] == 1 * 2
    assert groups["sub4"] == 2 * 2
    assert groups["sub5"] == 1  # one pick, one order, one picker


def test_zero_assignment_violates_the_assignment_rows():
    from pickopt import VariableAssignment, check_feasible

    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    m = build_basic(inst, g)
    report = check_feasible(m, VariableAssignment({}))
    assert "bs6" in report.groups()


def test_capacity_overrun_reports_bs7():
    from pickopt import VariableAssignment, check_feasible

    inst = one_order_instance(size=8)
    g = shared_graph(LAYOUT)
    m = build_basic(inst, g)
    # z doubled onto the single picker through a second phantom order is not
    # possible; instead overload via a fractional-free direct overrun
    inst2 = Instance(LAYOUT, (Order(0, 8, inst.orders[0].picks),
                              Order(1, 1, inst.orders[0].picks)), 8, 1)
    m2 = build_basic(inst2, g)
    a = VariableAssignment({"z_0_0": 1, "z_1_0": 1})
    report = check_feasible(m2, a)
    assert "bs7" in report.groups()


def test_gamma_count_and_equalities():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    m = build_PG(inst, g)
    assert m.variable_counts()["g"] == inst.pickers * 2 * len(g.reduced_edges)
    for row in m.rows_in_group("impf4") + m.rows_in_group("impf5"):
        assert row.sense == "="
    assert "impf8" in m.lazy_groups
    assert m.group_counts()["impf8"] == 0


def test_PF_is_compact_with_flow_counts():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    m = build_PF(inst, g)
    assert not m.lazy_groups
    n_arcs = 2 * len(g.reduced_edges)
    assert m.variable_counts()["s"] == inst.pickers * g.n_artificial * n_arcs
    # commodity conservation rows exist for every commodity
    assert m.group_counts()["impcf1"] == inst.pickers * g.n_artificial
    assert m.group_counts()["impcf3"] == inst.pickers * g.n_artificial
    assert m.group_counts()["impcf4"] == inst.pickers * g.n_artificial * n_arcs


def test_aisle_cut_has_two_boundary_arcs():
    inst = one_order_instance(picks=((0, 0, 1, 0),))
    g = shared_graph(LAYOUT)
    m = build_basic(inst, g)
    rows = build_strengthened_cuts(m, inst, g, "aisle")
    assert len(rows) == 1
    # two arc terms plus the z term
    assert len(rows[0].coeffs) == 3


def test_basic_cut_single_far_subaisle():
    layout = WarehouseLayout(1, 2, 1, 1, 2)
    inst = one_order_instance(layout, picks=((0, 1, 0, 0),))
    g = shared_graph(layout)
    m = build_basic(inst, g)
    rows = build_strengthened_cuts(m, inst, g, "basic")
    assert len(rows) == 1  # one non-origin component, one picker


def test_basic_cut_origin_component_dropped():
    inst = one_order_instance(picks=((0, 0, 0, 0),))  # subaisle at the origin
    g = shared_graph(LAYOUT)
    m = build_basic(inst, g)
    rows = build_strengthened_cuts(m, inst, g, "basic")
    assert rows == []


def test_single_traversing_counts_and_blocks():
    inst = one_order_instance(pickers=3)
    g = shared_graph(LAYOUT)
    m = build_basic(inst, g)
    build_subaisle_cuts(m, inst, g)
    rows = build_single_traversing(m, inst, g)
    assert len(rows) == 3  # one per picker for the single pick

    layout2 = WarehouseLayout(2, 2, 1, 1, 2)
    inst2 = one_order_instance(layout2, picks=((0, 0, 0, 0),))  # first subaisle
    g2 = shared_graph(layout2)
    m2 = build_basic(inst2, g2)
    build_subaisle_cuts(m2, inst2, g2)
    assert build_single_traversing(m2, inst2, g2) == []  # first subaisle exempt

    layout3 = WarehouseLayout(1, 3, 1, 1, 2)
    inst3 = one_order_instance(layout3, picks=((0, 2, 0, 0),))
    g3 = shared_graph(layout3)
    m3 = build_basic(inst3, g3)
    build_subaisle_cuts(m3, inst3, g3)
    with pytest.raises(UnsupportedFamilyError):
        build_single_traversing(m3, inst3, g3)


def test_no_reversal_ties():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    m = build_PG(inst, g)
    rows = build_no_reversal(m, inst, g)
    # per subaisle and direction: locs+1 tied arcs
    assert len(rows) == 2 * 2 * 3
    for row in rows:
        assert row.sense == "=" and len(row.coeffs) == 2


def test_artificial_vertex_reversal_rows():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    m = build_basic(inst, g)
    rows = build_artificial_vertex_reversal(m, inst, g)
    assert len(rows) == 2  # tails only in a 1-block layout

    layout2 = WarehouseLayout(2, 2, 1, 1, 2)
    inst2 = one_order_instance(layout2)
    g2 = shared_graph(layout2)
    m2 = build_basic(inst2, g2)
    rows2 = build_artificial_vertex_reversal(m2, inst2, g2)
    # four tails plus two interior heads (block-2 subaisles)
    assert len(rows2) == 4 + 2


def test_symmetry_breaking_fix_count():
    inst = generate_instance(LAYOUT, 3, 5, seed=2)
    inst = Instance(inst.layout, inst.orders, inst.capacity, 3)
    g = shared_graph(LAYOUT)
    m = build_basic(inst, g)
    rows = build_symmetry_breaking(m, inst)
    fixes = [r for r in rows if r.group == "col_fix"]
    assert len(fixes) == 3  # z_{1,2}, z_{1,3}, z_{2,3} in 1-based terms


def test_symmetry_rows_with_orders_out_of_id_order():
    # z is declared in the listed order, so a rank-ordered row is unsorted
    base = generate_instance(LAYOUT, 5, 5, seed=4)
    inst = Instance(base.layout, tuple(reversed(base.orders)), base.capacity, 3)
    g = shared_graph(LAYOUT)
    m, reference = build_basic(inst, g), build_basic(inst, g)
    rows = build_symmetry_breaking(m, inst)
    expected, unsorted = [], 0
    ranked = sorted(inst.orders, key=lambda o: o.id)
    for r, o in enumerate(ranked, start=1):
        for t in range(inst.pickers):
            if t >= r:
                expected.append(reference.add_row(f"col_fix_o{o.id}_t{t}", "col_fix",
                                                  [(reference.var("z", o.id, t), 1)], "=", 0))
        for t in range(1, min(r, inst.pickers)):
            coeffs = [(reference.var("z", o.id, t), 1)]
            coeffs += [(reference.var("z", o2.id, t - 1), -1) for o2 in ranked[:r - 1]]
            unsorted += coeffs != sorted(coeffs)
            expected.append(reference.add_row(f"col_link_o{o.id}_t{t}", "col_link",
                                              coeffs, "<=", 0))
    # 3 fixing rows and 7 linking rows, 6 of them unsorted as built
    assert list(rows) == expected and (len(expected), unsorted) == (10, 6)
    assert m.constraints == reference.constraints


def test_symmetry_allows_canonical_batchings():
    # every partition, relabeled with batches sorted by smallest order id,
    # satisfies the fixing and linking rows
    from pickopt import capacity_feasible_partitions
    from pickopt.model import VariableAssignment

    inst = generate_instance(LAYOUT, 4, 5, seed=9)
    T = inst.pickers
    g = shared_graph(LAYOUT)
    m = build_basic(inst, g)
    rows = build_symmetry_breaking(m, inst)
    sizes = {o.id: o.size for o in inst.orders}
    for partition in capacity_feasible_partitions(inst.order_ids, sizes, inst.capacity, T):
        values = {}
        for t, batch in enumerate(partition):
            for o in batch:
                values[f"z_{o}_{t}"] = 1
        a = VariableAssignment(values)
        for row in rows:
            lhs = sum(coef * a.get(m.var_name(pos)) for pos, coef in row.coeffs)
            if row.sense == "=":
                assert lhs == row.rhs, row.name
            else:
                assert lhs <= row.rhs, row.name


def test_PU1_degree_and_cover_rows():
    inst = one_order_instance(picks=((1, 0, 0, 0),))
    g = shared_graph(LAYOUT)
    aux = build_auxiliary_graph(g, SINGLE_BLOCK)
    m = build_PU1(inst, aux)
    assert "tspo5" in m.lazy_groups
    # degree rows: all artificial vertices except origin and first tail
    assert m.group_counts()["tspo4"] == g.n_artificial - 2
    for row in m.rows_in_group("tspo4"):
        assert row.sense == "="
        y_terms = [c for _, c in row.coeffs if c == -2]
        assert y_terms == [-2]
    cover = m.rows_in_group("tspo2")
    assert len(cover) == 1  # the picked subaisle
    assert m.group_counts()["tspo1"] == 1
    assert m.group_counts()["tspo3"] == 1


def test_PU2_rows_and_cross_aisle_bound():
    layout = WarehouseLayout(2, 2, 1, 1, 2)
    inst = one_order_instance(layout, picks=((0, 1, 0, 0),), pickers=1)
    g = shared_graph(layout)
    aux = build_auxiliary_graph(g, TWO_BLOCK)
    m = build_PU2(inst, aux, with_cross_aisle_bound=True)
    assert m.group_counts()["less2con"] == inst.pickers
    # degree rows for every auxiliary vertex besides the origin, copies included
    assert m.group_counts()["tspt3"] == g.n_artificial + len(aux.copies) - 1
    assert "tspt4" in m.lazy_groups
    for cp in aux.copies:
        assert m.has_var("y", 0, cp)


def test_PU2_rejects_a_tour_ending_at_a_copy():
    # copy 11 has degree 1 and copy 10 degree 3; without degree rows at the
    # copies this candidate is feasible, cut-free and costs 10, below the
    # no-reversal optimum of 12
    layout = WarehouseLayout(2, 2, 1, 1, 2)
    inst = generate_instance(layout, 4, 10, seed=126)
    g = shared_graph(layout)
    m = build_PU2(inst, build_auxiliary_graph(g, TWO_BLOCK))
    names = ("x_0_0_2 x_0_2_10 x_0_10_4 x_0_4_5 x_0_11_5 xt_0_0_10 "
             "y_0_2 y_0_4 y_0_5 z_0_0 z_1_0 z_2_0 z_3_0").split()
    candidate = VariableAssignment({name: 1 for name in names})
    report = check_feasible(m, candidate)
    assert not report.satisfied
    assert {"tspt3_t0_u10", "tspt3_t0_u11"} <= {v.row for v in report.violations}


def test_variant_mismatch_errors():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    aux = build_auxiliary_graph(g, SINGLE_BLOCK)
    with pytest.raises(VariantMismatchError):
        build_PU2(inst, aux)
    layout2 = WarehouseLayout(2, 2, 1, 1, 2)
    g2 = shared_graph(layout2)
    aux2 = build_auxiliary_graph(g2, TWO_BLOCK)
    with pytest.raises(VariantMismatchError):
        build_PU1(inst, aux2)


def test_option_compatibility_matrix():
    inst = one_order_instance()
    with pytest.raises(UnsupportedFamilyError):
        validate_options("P_U1", ModelOptions(cross_aisle_bound=True), inst)
    with pytest.raises(UnsupportedFamilyError):
        validate_options("P_U1", ModelOptions(aisle_cuts=True), inst)
    with pytest.raises(UnsupportedFamilyError):
        validate_options("P_basic", ModelOptions(single_traversing=True), inst)
    validate_options("P_basic",
                     ModelOptions(single_traversing=True, subaisle_cuts=True), inst)
    with pytest.raises(VariantMismatchError):
        validate_options("P_U2", ModelOptions(), inst)
    with pytest.raises(ValidationError):
        validate_options("P_X", ModelOptions(), inst)


def test_build_model_dispatch_and_determinism():
    inst = generate_instance(LAYOUT, 2, 5, seed=4)
    g = shared_graph(LAYOUT)
    from pickopt import write_lp

    for kind in ("P_basic", "P_A", "P_G", "P_F", "P_U", "P_U1"):
        m1 = build_model(inst, g, kind)
        m2 = build_model(inst, g, kind)
        assert write_lp(m1) == write_lp(m2)
        assert m1.kind == kind
    opts = ModelOptions(aisle_cuts=True, basic_cuts=True, single_traversing=True,
                        artificial_vertex_reversal=True, column_inequalities=True)
    inst2 = Instance(inst.layout, inst.orders, inst.capacity, 2)
    m = build_model(inst2, g, "P_G", opts)
    groups = m.group_counts()
    for g_name in ("aisle_cut", "sitr", "avr", "col_fix"):
        assert g_name in groups
