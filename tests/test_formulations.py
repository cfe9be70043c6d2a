import gc
import weakref
from dataclasses import fields
from itertools import product

import pytest

from conftest import shared_graph
from pickopt import (ALL_KINDS, CutRequest, Instance, ModelOptions, Order, Pick, PickoptError,
                     UnsupportedFamilyError, ValidationError, VariantMismatchError,
                     WarehouseLayout, build_graph, build_model, check_feasible, cut_to_row,
                     generate_instance, validate_options, VariableAssignment, write_lp,
                     walk_space, write_model_json, write_mps)
from pickopt.formulations import _Rows, _improved_core
from pickopt.separation import FAMILIES, FAMILY_OF_KIND

LAYOUT = WarehouseLayout(2, 1, 2, 1, 2)


def one_order_instance(layout=LAYOUT, picks=((0, 0, 0, 0),), size=1, pickers=1):
    order = Order(0, size, tuple(Pick(*p) for p in picks))
    return Instance(layout, (order,), 8, pickers)


def test_basic_variable_and_row_counts():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    m = build_model(inst, g, "P_basic")
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
    m = build_model(inst, g, "P_basic")
    groups = m.group_counts()
    assert groups["bs6"] == len(inst.orders)
    assert groups["bs7"] == inst.pickers


def test_subaisle_cut_row_counts():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    m = build_model(inst, g, "P_basic", ModelOptions(subaisle_cuts=True))
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
    m = build_model(inst, g, "P_basic")
    report = check_feasible(m, VariableAssignment({}))
    assert "bs6" in report.groups()


def test_capacity_overrun_reports_bs7():
    from pickopt import VariableAssignment, check_feasible

    inst = one_order_instance(size=8)
    g = shared_graph(LAYOUT)
    m = build_model(inst, g, "P_basic")
    # z doubled onto the single picker through a second phantom order is not
    # possible; instead overload via a fractional-free direct overrun
    inst2 = Instance(LAYOUT, (Order(0, 8, inst.orders[0].picks),
                              Order(1, 1, inst.orders[0].picks)), 8, 1)
    m2 = build_model(inst2, g, "P_basic")
    a = VariableAssignment({"z_0_0": 1, "z_1_0": 1})
    report = check_feasible(m2, a)
    assert "bs7" in report.groups()


def test_gamma_count_and_equalities():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    m = build_model(inst, g, "P_G")
    assert m.variable_counts()["g"] == inst.pickers * 2 * len(g.reduced_edges)
    for row in m.rows_in_group("impf4") + m.rows_in_group("impf5"):
        assert row.sense == "="
    assert "impf8" in m.lazy_groups
    assert m.group_counts()["impf8"] == 0


def test_PF_is_compact_with_flow_counts():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    m = build_model(inst, g, "P_F")
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
    rows = build_model(inst, g, "P_basic", ModelOptions(aisle_cuts=True)).rows_in_group("aisle_cut")
    assert len(rows) == 1
    # two arc terms plus the z term
    assert len(rows[0].coeffs) == 3


def test_basic_cut_single_far_subaisle():
    layout = WarehouseLayout(1, 2, 1, 1, 2)
    inst = one_order_instance(layout, picks=((0, 1, 0, 0),))
    g = shared_graph(layout)
    rows = build_model(inst, g, "P_basic", ModelOptions(basic_cuts=True)).rows_in_group("basic_cut")
    assert len(rows) == 1  # one non-origin component, one picker


def test_basic_cut_origin_component_dropped():
    inst = one_order_instance(picks=((0, 0, 0, 0),))  # subaisle at the origin
    g = shared_graph(LAYOUT)
    rows = build_model(inst, g, "P_basic", ModelOptions(basic_cuts=True)).rows_in_group("basic_cut")
    assert rows == []


def test_single_traversing_counts_and_blocks():
    inst = one_order_instance(pickers=3)
    g = shared_graph(LAYOUT)
    options = ModelOptions(subaisle_cuts=True, single_traversing=True)
    rows = build_model(inst, g, "P_basic", options).rows_in_group("sitr")
    assert len(rows) == 3  # one per picker for the single pick

    layout2 = WarehouseLayout(2, 2, 1, 1, 2)
    inst2 = one_order_instance(layout2, picks=((0, 0, 0, 0),))  # first subaisle
    g2 = shared_graph(layout2)
    # first subaisle exempt
    assert build_model(inst2, g2, "P_basic", options).rows_in_group("sitr") == []

    layout3 = WarehouseLayout(1, 3, 1, 1, 2)
    inst3 = one_order_instance(layout3, picks=((0, 2, 0, 0),))
    g3 = shared_graph(layout3)
    with pytest.raises(UnsupportedFamilyError):
        build_model(inst3, g3, "P_basic", options)


def test_no_reversal_ties():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    m = build_model(inst, g, "P_U")
    rows = m.rows_in_group("norev1") + m.rows_in_group("norev2")
    # per subaisle and direction: locs+1 tied arcs
    assert len(rows) == 2 * 2 * 3
    for row in rows:
        assert row.sense == "=" and len(row.coeffs) == 2


def test_artificial_vertex_reversal_rows():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    options = ModelOptions(artificial_vertex_reversal=True)
    rows = build_model(inst, g, "P_basic", options).rows_in_group("avr")
    assert len(rows) == 2  # tails only in a 1-block layout

    layout2 = WarehouseLayout(2, 2, 1, 1, 2)
    inst2 = one_order_instance(layout2)
    g2 = shared_graph(layout2)
    rows2 = build_model(inst2, g2, "P_basic", options).rows_in_group("avr")
    # four tails plus two interior heads (block-2 subaisles)
    assert len(rows2) == 4 + 2


def test_symmetry_breaking_fix_count():
    inst = generate_instance(LAYOUT, 3, 5, seed=2)
    inst = Instance(inst.layout, inst.orders, inst.capacity, 3)
    g = shared_graph(LAYOUT)
    fixes = build_model(inst, g, "P_basic",
                        ModelOptions(column_inequalities=True)).rows_in_group("col_fix")
    assert len(fixes) == 3  # z_{1,2}, z_{1,3}, z_{2,3} in 1-based terms


def test_symmetry_rows_with_orders_out_of_id_order():
    # z is declared in the listed order, so a rank-ordered row is unsorted
    base = generate_instance(LAYOUT, 5, 5, seed=4)
    inst = Instance(base.layout, tuple(reversed(base.orders)), base.capacity, 3)
    g = shared_graph(LAYOUT)
    m = build_model(inst, g, "P_basic", ModelOptions(column_inequalities=True))
    reference = build_model(inst, g, "P_basic")
    rows = m.constraints[len(reference.constraints):]
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
    m = build_model(inst, g, "P_basic", ModelOptions(column_inequalities=True))
    rows = m.rows_in_group("col_fix") + m.rows_in_group("col_link")
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
    m = build_model(inst, g, "P_U1")
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
    aux = g.auxiliary()
    m = build_model(inst, g, "P_U2", ModelOptions(cross_aisle_bound=True))
    assert m.group_counts()["less2con"] == inst.pickers
    # degree rows for every auxiliary vertex besides the origin, copies included
    assert m.group_counts()["tspt3"] == g.n_artificial + len(aux.copy_of) - 1
    assert "tspt4" in m.lazy_groups
    for cp in aux.copy_of:
        assert m.has_var("y", 0, cp)


def test_PU2_rejects_a_tour_ending_at_a_copy():
    # copy 11 has degree 1 and copy 10 degree 3; without degree rows at the
    # copies this candidate is feasible, cut-free and costs 10, below the
    # no-reversal optimum of 12
    layout = WarehouseLayout(2, 2, 1, 1, 2)
    inst = generate_instance(layout, 4, 10, seed=126)
    g = shared_graph(layout)
    m = build_model(inst, g, "P_U2")
    names = ("x_0_0_2 x_0_2_10 x_0_10_4 x_0_4_5 x_0_11_5 xt_0_0_10 "
             "y_0_2 y_0_4 y_0_5 z_0_0 z_1_0 z_2_0 z_3_0").split()
    candidate = VariableAssignment({name: 1 for name in names})
    report = check_feasible(m, candidate)
    assert not report.satisfied
    assert {"tspt3_t0_u10", "tspt3_t0_u11"} <= {v.row for v in report.violations}


def test_variant_mismatch_errors():
    inst = one_order_instance()
    g = shared_graph(LAYOUT)
    with pytest.raises(VariantMismatchError):
        build_model(inst, g, "P_U2")
    layout2 = WarehouseLayout(2, 2, 1, 1, 2)
    with pytest.raises(VariantMismatchError):
        build_model(one_order_instance(layout2), shared_graph(layout2), "P_U1")


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


def _error(call, *args):
    try:
        call(*args)
    except PickoptError as exc:
        return type(exc), str(exc)


def test_build_model_builds_exactly_what_validate_options_accepts():
    n = len(fields(ModelOptions))
    refused = 0
    for blocks in (1, 2, 3):
        layout = WarehouseLayout(1, blocks, 1, 1, 2)
        inst, g = one_order_instance(layout), shared_graph(layout)
        for kind, mask in product(ALL_KINDS, range(1 << n)):
            options = ModelOptions(*(bool(mask >> i & 1) for i in range(n)))
            error = _error(validate_options, kind, options, inst)
            refused += error is not None
            # build_model raises what validate_options raises and builds the rest
            assert _error(build_model, inst, g, kind, options) == error
    assert refused == 1914  # of 3 * 7 * 128 combinations, so 774 build


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


def _exports(model):
    return write_lp(model), write_mps(model), write_model_json(model)


def _cut(model, pickers, graph) -> CutRequest:
    """A cut request of the model's lazy family for its last picker, around
    its last anchor vertex."""
    family = FAMILY_OF_KIND[model.kind]
    anchor = max(FAMILIES[family].anchors(graph))
    return CutRequest(picker=pickers - 1, vertex_set=frozenset({anchor}), family=family,
                      anchor_vertex=anchor)


def test_builds_on_a_shared_graph_match_builds_on_fresh_graphs():
    # every accepted (kind, option set) on one graph per layout, picker and
    # order counts interleaved, with cut rows added to earlier models between
    # builds: the blocks the graph keeps must not depend on the build that
    # compiled them
    n = len(fields(ModelOptions))
    built = 0
    for shape in ((2, 1, 1, 1, 2), (2, 2, 1, 1, 2)):
        layout = WarehouseLayout(*shape)
        shared = build_graph(layout)
        orders = [generate_instance(layout, k, 10, seed=k).orders for k in range(1, 9)]
        earlier = []
        for kind, mask in product(ALL_KINDS, range(1 << n)):
            options = ModelOptions(*(bool(mask >> i & 1) for i in range(n)))
            try:
                validate_options(kind, options, one_order_instance(layout))
            except PickoptError:
                continue
            instance = Instance(layout, orders[built % 8], 8, 1 + built % 3)
            model = build_model(instance, shared, kind, options)
            assert _exports(model) == _exports(
                build_model(instance, build_graph(layout), kind, options)), (kind, options)
            if earlier:
                cut_to_row(_cut(*earlier[-1], shared), earlier[-1][0], shared)
            if kind in FAMILY_OF_KIND:
                earlier.append((model, instance.pickers))
            built += 1
    assert built == 614


def test_dropping_a_graph_frees_its_compiled_blocks():
    # with the cycle collector off, a reference cycle would keep them too;
    # the graph's walk space goes with it
    gc.disable()
    try:
        graph = build_graph(WarehouseLayout(2, 2, 1, 1, 2))
        instance = one_order_instance(graph.layout)
        for kind in ("P_basic", "P_A", "P_G", "P_F", "P_U"):
            build_model(instance, graph, kind,
                        ModelOptions(aisle_cuts=True, artificial_vertex_reversal=True))
        arc_builders = {"_arc_tables", "_basic_core", "_improved_core", "_subaisle_chains",
                        "_gamma_rows", "_flow_rows", "_no_reversal_rows", "_reversal_rows",
                        "_aisle_cut_arcs"}
        assert {build.__name__ for build in graph._derived} == arc_builders
        # a tour kind keeps only the auxiliary graph, built once per graph
        build_model(instance, graph, "P_U2", ModelOptions(cross_aisle_bound=True))
        aux = graph.auxiliary()
        build_model(instance, graph, "P_U2")
        assert graph.auxiliary() is aux
        core = graph.derived(_improved_core)
        build_model(instance, graph, "P_G")
        assert graph.derived(_improved_core) is core  # compiled once per graph
        refs = [weakref.ref(graph), weakref.ref(aux), weakref.ref(walk_space(graph))]
        assert {build.__name__ for build in graph._derived} == arc_builders | {
            "build_auxiliary_graph", "_build_walk_space"}
        compiled = [block for value in graph._derived.values()
                    for block in (value if isinstance(value, tuple) else (value,))
                    if isinstance(block, _Rows)]
        assert len(compiled) == 11  # two cores of three blocks, five single blocks
        refs += map(weakref.ref, compiled)
        del graph, aux, core, compiled
        assert all(ref() is None for ref in refs)
    finally:
        gc.enable()


def test_tour_builds_keep_no_compiled_rows_on_the_graph():
    for kind, shape in (("P_U1", (3, 1, 2, 1, 2)), ("P_U2", (2, 2, 1, 1, 2))):
        graph = build_graph(WarehouseLayout(*shape))
        options = ModelOptions(cross_aisle_bound=kind == "P_U2")
        build_model(generate_instance(graph.layout, 3, 8, seed=1), graph, kind, options)
        assert [build.__name__ for build in graph._derived] == ["build_auxiliary_graph"], kind
