"""Builders for every integer programming formulation of the problem.

Model kinds
-----------

========  ==================================================================
P_basic   arc-space batching + routing model with a lazy connectivity family
P_A       P_basic plus the subaisle cuts
P_G       reduced-graph connectivity via gamma variables (lazy family on
          the reduced graph) plus the subaisle cuts
P_F       compact variant of P_G: connectivity by multicommodity flows
P_U       P_G restricted by the no-reversal equalities
P_U1      undirected TSP model on the single-block auxiliary graph
P_U2      undirected TSP model on the two-block auxiliary graph
========  ==================================================================

Constraint groups carry short stable labels (``bs4``, ``sub5``, ``impf8``,
``tspo5`` and so on) so tests and the CLI can count rows per family; lazy
exponential families are declared with zero initial rows and filled by
separation.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional

from .errors import UnsupportedFamilyError, ValidationError, VariantMismatchError
from .instance import Instance
from .layout import (SINGLE_BLOCK, TWO_BLOCK, AuxEdge, AuxiliaryGraph, PickingGraph,
                     build_auxiliary_graph)
from .model import BINARY, CONTINUOUS, EQ, GE, LE, LinearModel
from .separation import FAMILIES, FAMILY_OF_KIND, order_components

P_BASIC = "P_basic"
P_A = "P_A"
P_G = "P_G"
P_F = "P_F"
P_U = "P_U"
P_U1 = "P_U1"
P_U2 = "P_U2"

ARC_KINDS = (P_BASIC, P_A, P_G, P_F, P_U)
TSP_KINDS = (P_U1, P_U2)
ALL_KINDS = ARC_KINDS + TSP_KINDS

GROUP_DESCRIPTIONS = {
    "bs1": "every picker departs from the origin",
    "bs2": "assigned picks are left by an arc",
    "bs3": "arc use marks the vertex visited",
    "bs4": "connectivity (lazy, exponential)",
    "bs5": "arc flow conservation",
    "bs6": "each order assigned to exactly one picker",
    "bs7": "trolley capacity",
    "sub1": "alpha chain monotone from the north",
    "sub2": "alpha forces the downward arc",
    "sub3": "beta chain monotone from the south",
    "sub4": "beta forces the upward arc",
    "sub5": "cover: alpha or beta at every assigned pick",
    "impf1": "every picker departs from the origin",
    "impf2": "assigned picks are left by an arc",
    "impf3": "arc use marks the artificial vertex visited",
    "impf4": "gamma equals x on westbound cross-aisle arcs",
    "impf5": "gamma equals x on eastbound cross-aisle arcs",
    "impf6_5": "downward gamma forces alpha at the last location",
    "impf6": "downward gamma forces the last downward arc",
    "impf7_5": "upward gamma forces beta at the first location",
    "impf7": "upward gamma forces the first upward arc",
    "impf8": "reduced-graph connectivity (lazy, exponential)",
    "impf9": "arc flow conservation",
    "impf10": "each order assigned to exactly one picker",
    "impf11": "trolley capacity",
    "impcf1": "commodity leaves its source artificial vertex",
    "impcf2": "commodity flow conservation",
    "impcf3": "commodity arrives at the origin",
    "impcf4": "flow only on traversed reduced arcs",
    "aisle_cut": "strengthened connectivity on single subaisles",
    "basic_cut": "strengthened connectivity on order components",
    "sitr": "single traversing restriction",
    "norev1": "no-reversal ties on downward arcs",
    "norev2": "no-reversal ties on upward arcs",
    "avr": "no U-turn at an artificial vertex without onward arcs",
    "col_fix": "symmetry: order can only seed its own or earlier picker",
    "col_link": "symmetry: picker used only after its predecessor",
    "tspo0": "departure uses a graph edge",
    "tspo1": "origin degree is exactly two",
    "tspo2": "picked subaisles are traversed",
    "tspo3": "degree with the parallel edge at the first subaisle tail",
    "tspo4": "tour degree equalities",
    "tspo5": "two-connectivity (lazy, exponential)",
    "tspo6": "each order assigned to exactly one picker",
    "tspo7": "trolley capacity",
    "tspt0": "departure uses a movement edge",
    "tspt1": "origin degree is exactly two",
    "tspt2": "picked subaisles are traversed",
    "tspt3": "tour degree equalities",
    "tspt4": "two-connectivity (lazy, exponential)",
    "tspt5": "each order assigned to exactly one picker",
    "tspt6": "trolley capacity",
    "less2con": "second cross aisle passed at most twice",
}


@dataclass(frozen=True)
class ModelOptions:
    """Optional row families layered on top of a formulation kind."""

    subaisle_cuts: bool = False
    aisle_cuts: bool = False
    basic_cuts: bool = False
    single_traversing: bool = False
    artificial_vertex_reversal: bool = False
    column_inequalities: bool = False
    cross_aisle_bound: bool = False

    def enabled(self) -> tuple[str, ...]:
        return tuple(f.name for f in fields(self) if getattr(self, f.name))


def validate_options(kind: str, options: ModelOptions, instance: Instance) -> None:
    """Enforce the option compatibility matrix."""
    if kind not in ALL_KINDS:
        raise ValidationError(f"unknown formulation kind {kind!r}")
    blocks = instance.layout.n_blocks
    if kind == P_U1 and blocks != 1:
        raise VariantMismatchError("P_U1 requires a single-block layout")
    if kind == P_U2 and blocks != 2:
        raise VariantMismatchError("P_U2 requires a two-block layout")
    if options.cross_aisle_bound and kind != P_U2:
        raise UnsupportedFamilyError("cross_aisle_bound is only defined for P_U2")
    arc_only = ("aisle_cuts", "basic_cuts", "artificial_vertex_reversal", "subaisle_cuts")
    for name in arc_only:
        if getattr(options, name) and kind in TSP_KINDS:
            raise UnsupportedFamilyError(f"{name} is not defined for {kind}")
    if options.single_traversing:
        if kind in TSP_KINDS:
            raise UnsupportedFamilyError("single_traversing is not defined for TSP kinds")
        if blocks > 2:
            raise UnsupportedFamilyError(
                "single traversing constraints are only valid for 1- or 2-block layouts")
        if kind == P_BASIC and not options.subaisle_cuts:
            raise UnsupportedFamilyError(
                "single_traversing needs the alpha/beta variables of the subaisle cuts")


def _orders_by_subaisle(instance: Instance, graph: PickingGraph) -> list[list[int]]:
    """Sorted ids of the orders with a pick in each subaisle, by subaisle index."""
    by_sub: list[set[int]] = [set() for _ in graph.subaisles]
    for o in instance.orders:
        for v in instance.pick_vertices(graph, o):
            by_sub[graph.subaisle_of(v)].add(o.id)
    return [sorted(ids) for ids in by_sub]


def _new_model(kind: str) -> LinearModel:
    """An empty model of one kind, with its lazy connectivity family declared."""
    model = LinearModel(f"pickopt_{kind}", kind=kind)
    family = FAMILY_OF_KIND.get(kind)
    if family is not None:
        model.declare_lazy_group(family, GROUP_DESCRIPTIONS[family])
    return model


def _declare_assignment(model: LinearModel, instance: Instance) -> None:
    for o in instance.orders:
        for t in range(instance.pickers):
            model.add_variable(BINARY, ("z", o.id, t))


def _assignment_rows(model: LinearModel, instance: Instance, assign: str,
                     capacity: str) -> None:
    """Each order goes to one picker; each picker's load fits the trolley."""
    T = instance.pickers
    for o in instance.orders:
        model.add_row(f"{assign}_o{o.id}", assign,
                      [(model.var("z", o.id, t), 1) for t in range(T)], EQ, 1)
    for t in range(T):
        model.add_row(f"{capacity}_t{t}", capacity,
                      [(model.var("z", o.id, t), o.size) for o in instance.orders],
                      LE, instance.capacity)


# -- arc-space core --------------------------------------------------------


def _declare_arc_core(model: LinearModel, instance: Instance, graph: PickingGraph) -> None:
    T = instance.pickers
    for t in range(T):
        for u, v in graph.arcs():
            pos = model.add_variable(BINARY, ("x", t, u, v))
            model.set_objective_coeff(pos, graph.arc_length(u, v))
    for t in range(T):
        for v in range(graph.n_vertices):
            model.add_variable(BINARY, ("y", t, v))
    _declare_assignment(model, instance)


def _arc_core_rows(model: LinearModel, instance: Instance, graph: PickingGraph,
                   labels: dict[str, str], ydef_vertices) -> None:
    """Rows shared by P_basic and P_G, with per-kind group labels."""
    T = instance.pickers
    s = graph.origin
    picks = instance.all_pick_vertices(graph)

    for t in range(T):
        coeffs = [(model.var("x", t, s, v), 1) for v, _ in graph.adjacency[s]]
        model.add_row(f"{labels['depart']}_t{t}", labels["depart"], coeffs, GE, 1)

    for t in range(T):
        for o in instance.orders:
            for u in sorted(picks[o.id]):
                coeffs = [(model.var("x", t, u, v), 1) for v, _ in graph.adjacency[u]]
                coeffs.append((model.var("z", o.id, t), -1))
                model.add_row(f"{labels['cover']}_t{t}_o{o.id}_v{u}",
                              labels["cover"], coeffs, GE, 0)

    for t in range(T):
        for u in ydef_vertices:
            if u == s:
                continue
            for v, _ in graph.adjacency[u]:
                model.add_row(
                    f"{labels['ydef']}_t{t}_v{u}_{v}", labels["ydef"],
                    [(model.var("y", t, u), 1), (model.var("x", t, u, v), -1)], GE, 0)

    for t in range(T):
        for v in range(graph.n_vertices):
            coeffs = [(model.var("x", t, v, u), 1) for u, _ in graph.adjacency[v]]
            coeffs += [(model.var("x", t, u, v), -1) for u, _ in graph.adjacency[v]]
            model.add_row(f"{labels['flow']}_t{t}_v{v}", labels["flow"], coeffs, EQ, 0)

    _assignment_rows(model, instance, labels["assign"], labels["capacity"])


def _basic_model(kind: str, instance: Instance, graph: PickingGraph) -> LinearModel:
    model = _new_model(kind)
    _declare_arc_core(model, instance, graph)
    labels = {"depart": "bs1", "cover": "bs2", "ydef": "bs3", "flow": "bs5",
              "assign": "bs6", "capacity": "bs7"}
    _arc_core_rows(model, instance, graph, labels, range(graph.n_vertices))
    return model


def build_basic(instance: Instance, graph: PickingGraph) -> LinearModel:
    """Arc-space model: routing, batching and a lazy connectivity family."""
    return _basic_model(P_BASIC, instance, graph)


def build_subaisle_cuts(model: LinearModel, instance: Instance, graph: PickingGraph) -> list:
    """Append the subaisle cut rows, declaring alpha/beta when missing."""
    T = instance.pickers
    for t in range(T):
        for v in graph.picking_vertices:
            if not model.has_var("a", t, v):
                model.add_variable(BINARY, ("a", t, v))
                model.add_variable(BINARY, ("b", t, v))
    rows = []
    picks = instance.all_pick_vertices(graph)
    for t in range(T):
        for sub in graph.subaisles:
            for v in sub.locs[:-1]:
                rows.append(model.add_row(
                    f"sub1_t{t}_v{v}", "sub1",
                    [(model.var("a", t, v), 1), (model.var("a", t, graph.south_of(v)), -1)],
                    GE, 0))
            for v in sub.locs:
                rows.append(model.add_row(
                    f"sub2_t{t}_v{v}", "sub2",
                    [(model.var("x", t, graph.north_of(v), v), 1), (model.var("a", t, v), -1)],
                    GE, 0))
            for v in sub.locs[1:]:
                rows.append(model.add_row(
                    f"sub3_t{t}_v{v}", "sub3",
                    [(model.var("b", t, v), 1), (model.var("b", t, graph.north_of(v)), -1)],
                    GE, 0))
            for v in sub.locs:
                rows.append(model.add_row(
                    f"sub4_t{t}_v{v}", "sub4",
                    [(model.var("x", t, graph.south_of(v), v), 1), (model.var("b", t, v), -1)],
                    GE, 0))
    for t in range(T):
        for o in instance.orders:
            for v in sorted(picks[o.id]):
                rows.append(model.add_row(
                    f"sub5_t{t}_o{o.id}_v{v}", "sub5",
                    [(model.var("a", t, v), 1), (model.var("b", t, v), 1),
                     (model.var("z", o.id, t), -1)],
                    GE, 0))
    return rows


def build_PA(instance: Instance, graph: PickingGraph) -> LinearModel:
    model = _basic_model(P_A, instance, graph)
    build_subaisle_cuts(model, instance, graph)
    return model


def _gamma_rows(model: LinearModel, instance: Instance, graph: PickingGraph) -> None:
    """Declare gamma over the reduced arcs and link it to x, alpha, beta."""
    T = instance.pickers
    for t in range(T):
        for u, v, _, _ in graph.reduced_edges:
            model.add_variable(BINARY, ("g", t, u, v))
            model.add_variable(BINARY, ("g", t, v, u))

    for t in range(T):
        for v in graph.artificial_vertices:
            w = graph.q_west(v)
            if w is not None:
                model.add_row(f"impf4_t{t}_v{v}", "impf4",
                              [(model.var("x", t, v, w), 1), (model.var("g", t, v, w), -1)],
                              EQ, 0)
            e = graph.q_east(v)
            if e is not None:
                model.add_row(f"impf5_t{t}_v{v}", "impf5",
                              [(model.var("x", t, v, e), 1), (model.var("g", t, v, e), -1)],
                              EQ, 0)
        for sub in graph.subaisles:
            f, l = sub.head, sub.tail
            n_l = graph.north_of(l)
            s_f = graph.south_of(f)
            model.add_row(f"impf6_5_t{t}_i{sub.index}", "impf6_5",
                          [(model.var("a", t, n_l), 1), (model.var("g", t, f, l), -1)],
                          GE, 0)
            model.add_row(f"impf6_t{t}_i{sub.index}", "impf6",
                          [(model.var("x", t, n_l, l), 1), (model.var("g", t, f, l), -1)],
                          GE, 0)
            model.add_row(f"impf7_5_t{t}_i{sub.index}", "impf7_5",
                          [(model.var("b", t, s_f), 1), (model.var("g", t, l, f), -1)],
                          GE, 0)
            model.add_row(f"impf7_t{t}_i{sub.index}", "impf7",
                          [(model.var("x", t, s_f, f), 1), (model.var("g", t, l, f), -1)],
                          GE, 0)


def _improved_model(kind: str, instance: Instance, graph: PickingGraph) -> LinearModel:
    """The arc-space core with subaisle cuts and gamma, shared by P_G, P_F and P_U."""
    model = _new_model(kind)
    _declare_arc_core(model, instance, graph)
    build_subaisle_cuts(model, instance, graph)
    labels = {"depart": "impf1", "cover": "impf2", "ydef": "impf3", "flow": "impf9",
              "assign": "impf10", "capacity": "impf11"}
    _arc_core_rows(model, instance, graph, labels, graph.artificial_vertices)
    _gamma_rows(model, instance, graph)
    return model


def build_PG(instance: Instance, graph: PickingGraph) -> LinearModel:
    """Improved formulation: subaisle cuts plus reduced-graph connectivity."""
    return _improved_model(P_G, instance, graph)


def build_PF(instance: Instance, graph: PickingGraph) -> LinearModel:
    """Compact formulation: connectivity by one flow per artificial vertex."""
    model = _improved_model(P_F, instance, graph)

    T = instance.pickers
    reduced_arcs = list(graph.reduced_arcs())
    s = graph.origin
    # (arc, +1) for each reduced arc leaving a vertex, (arc, -1) for each entering it
    net_arcs = {u: [(arc, 1) for arc in graph.eta_plus([u])]
                + [(arc, -1) for arc in graph.eta_minus([u])]
                for u in graph.artificial_vertices}
    flow = {(t, v0): {arc: model.add_variable(CONTINUOUS, ("s", t, v0) + arc)
                      for arc in reduced_arcs}
            for t in range(T) for v0 in graph.artificial_vertices}

    for t in range(T):
        for v0 in graph.artificial_vertices:
            f = flow[t, v0]
            net = {u: [(f[arc], c) for arc, c in net_arcs[u]] for u in graph.artificial_vertices}
            y = model.var("y", t, v0)
            model.add_row(f"impcf1_t{t}_c{v0}", "impcf1", net[v0] + [(y, -1)], EQ, 0)
            for u in graph.artificial_vertices:
                if u not in (s, v0):
                    model.add_row(f"impcf2_t{t}_c{v0}_u{u}", "impcf2", net[u], EQ, 0)
            model.add_row(f"impcf3_t{t}_c{v0}", "impcf3", net[s] + [(y, 1)], EQ, 0)
            for u, v in reduced_arcs:
                model.add_row(f"impcf4_t{t}_c{v0}_{u}_{v}", "impcf4",
                              [(f[u, v], 1), (model.var("g", t, u, v), -1)], LE, 0)
    return model


def build_strengthened_cuts(model: LinearModel, instance: Instance, graph: PickingGraph,
                            family: str) -> list:
    """Aisle cuts (one subaisle per set) or basic cuts (order components)."""
    T = instance.pickers
    rows = []
    if family == "aisle":
        for sub, order_ids in zip(graph.subaisles, _orders_by_subaisle(instance, graph)):
            if not order_ids:
                continue
            arcs = graph.delta_plus(sub.locs)
            for o in order_ids:
                for t in range(T):
                    coeffs = [(model.var("x", t, u, v), 1) for u, v in arcs]
                    coeffs.append((model.var("z", o, t), -1))
                    rows.append(model.add_row(
                        f"aisle_cut_t{t}_o{o}_i{sub.index}", "aisle_cut", coeffs, GE, 0))
        return rows
    if family == "basic":
        for o in instance.orders:
            comps = order_components(graph, instance.pick_vertices(graph, o))
            for k, (vertex_set, contains_origin) in enumerate(comps.components):
                if contains_origin:
                    continue
                arcs = graph.delta_plus(vertex_set)
                for t in range(T):
                    coeffs = [(model.var("x", t, u, v), 1) for u, v in arcs]
                    coeffs.append((model.var("z", o.id, t), -1))
                    rows.append(model.add_row(
                        f"basic_cut_t{t}_o{o.id}_k{k}", "basic_cut", coeffs, GE, 0))
        return rows
    raise ValidationError(f"unknown strengthened-cut family {family!r}")


def build_single_traversing(model: LinearModel, instance: Instance,
                            graph: PickingGraph) -> list:
    """No subaisle is fully traversed both ways; block-2 layouts exempt
    the first subaisle."""
    blocks = instance.layout.n_blocks
    if blocks > 2:
        raise UnsupportedFamilyError(
            "single traversing constraints are only valid for 1- or 2-block layouts")
    exempt: frozenset[int] = frozenset()
    if blocks == 2:
        exempt = frozenset(graph.subaisles[0].locs)
    rows = []
    picks = instance.all_pick_vertices(graph)
    for t in range(instance.pickers):
        for o in instance.orders:
            for v in sorted(picks[o.id]):
                if v in exempt:
                    continue
                rows.append(model.add_row(
                    f"sitr_t{t}_o{o.id}_v{v}", "sitr",
                    [(model.var("a", t, v), 1), (model.var("b", t, v), 1)], LE, 1))
    return rows


def build_no_reversal(model: LinearModel, instance: Instance, graph: PickingGraph) -> list:
    """Tie every vertical arc of a subaisle to one traversal variable per
    direction, so a picker entering a subaisle crosses it completely."""
    rows = []
    for t in range(instance.pickers):
        for sub in graph.subaisles:
            w_dn = model.add_variable(BINARY, ("w", t, sub.index, "dn"))
            w_up = model.add_variable(BINARY, ("w", t, sub.index, "up"))
            for v in sub.locs + (sub.tail,):
                rows.append(model.add_row(
                    f"norev1_t{t}_i{sub.index}_v{v}", "norev1",
                    [(model.var("x", t, graph.north_of(v), v), 1), (w_dn, -1)], EQ, 0))
            for v in (sub.head,) + sub.locs:
                rows.append(model.add_row(
                    f"norev2_t{t}_i{sub.index}_v{v}", "norev2",
                    [(model.var("x", t, graph.south_of(v), v), 1), (w_up, -1)], EQ, 0))
    return rows


def build_artificial_vertex_reversal(model: LinearModel, instance: Instance,
                                     graph: PickingGraph) -> list:
    """Forbid touching an artificial vertex only to turn around there.

    At the tail of each subaisle (and at interior-cross-aisle heads) the
    walk may use both vertical arcs of the last chain edge only if it also
    uses some other arc at that vertex.
    """
    rows = []

    def corner_row(t, sub_index, corner, chain_nbr, tag):
        others = [u for u, _ in graph.adjacency[corner] if u != chain_nbr]
        coeffs = [(model.var("x", t, chain_nbr, corner), 1),
                  (model.var("x", t, corner, chain_nbr), 1)]
        for u in others:
            coeffs.append((model.var("x", t, u, corner), -1))
            coeffs.append((model.var("x", t, corner, u), -1))
        return model.add_row(f"avr_{tag}_t{t}_i{sub_index}", "avr", coeffs, LE, 1)

    for t in range(instance.pickers):
        for sub in graph.subaisles:
            rows.append(corner_row(t, sub.index, sub.tail, graph.north_of(sub.tail), "l"))
            if sub.block >= 1:  # head sits on an interior cross aisle
                rows.append(corner_row(t, sub.index, sub.head, graph.south_of(sub.head), "f"))
    return rows


def build_symmetry_breaking(model: LinearModel, instance: Instance) -> list:
    """Column inequalities over the order-to-picker assignment matrix.

    With orders ranked by id and pickers ordered, order of rank r may only
    go to pickers 1..r, and picker t can be used by rank r only if some
    earlier rank uses picker t-1.  Batches sorted by smallest order id
    always satisfy these rows, so at least one optimal batching survives.
    """
    T = instance.pickers
    ranked = sorted(instance.orders, key=lambda o: o.id)
    rows = []
    for r, o in enumerate(ranked, start=1):
        for t in range(T):
            if t + 1 > r:
                rows.append(model.add_row(
                    f"col_fix_o{o.id}_t{t}", "col_fix",
                    [(model.var("z", o.id, t), 1)], EQ, 0))
        for t in range(1, min(r, T)):
            coeffs = [(model.var("z", o.id, t), 1)]
            for o2 in ranked[:r - 1]:
                coeffs.append((model.var("z", o2.id, t - 1), -1))
            rows.append(model.add_row(
                f"col_link_o{o.id}_t{t}", "col_link", coeffs, LE, 0))
    return rows


# -- TSP-style no-reversal models -------------------------------------------


def _build_tour(instance: Instance, aux: AuxiliaryGraph, kind: str, labels: dict[str, str],
                departure: list[AuxEdge], lead: Optional[int] = None,
                crossing: Optional[list[AuxEdge]] = None) -> LinearModel:
    """Undirected TSP model on an auxiliary graph, shared by P_U1 and P_U2.

    Per picker: a departure row over ``departure``, the origin degree, the
    cover rows, the degree rows (``lead`` first, under its own group) and,
    given ``crossing`` edges, the second-cross-aisle bound.
    """
    graph = aux.graph
    model = _new_model(kind)
    T = instance.pickers
    s = graph.origin

    x: list[list[int]] = []
    for t in range(T):
        x.append([])
        for e in aux.edges:
            pos = model.add_variable(BINARY, e.var_index(t))
            model.set_objective_coeff(pos, e.length)
            x[t].append(pos)
    for t in range(T):
        for v in aux.vertices:
            model.add_variable(BINARY, ("y", t, v))
    _declare_assignment(model, instance)

    orders_by_sub = _orders_by_subaisle(instance, graph)
    degree_vertices = [u for u in aux.vertices if u not in (s, lead)]
    if lead is not None:
        degree_vertices.insert(0, lead)

    def edge_sum(t, edges):
        return [(x[t][e.id], 1) for e in edges]

    for t in range(T):
        model.add_row(f"{labels['depart']}_t{t}", labels["depart"],
                      edge_sum(t, departure), GE, 1)
        model.add_row(f"{labels['origin']}_t{t}", labels["origin"],
                      edge_sum(t, aux.incident(s)), EQ, 2)
        for sub, order_ids in zip(graph.subaisles, orders_by_sub):
            traversal = x[t][aux.e_of_subaisle[sub.index]]
            for o in order_ids:
                model.add_row(f"{labels['cover']}_t{t}_i{sub.index}_o{o}", labels["cover"],
                              [(traversal, 1), (model.var("z", o, t), -1)], GE, 0)
        for u in degree_vertices:
            if u == lead:
                group, name = labels["lead"], f"{labels['lead']}_t{t}"
            else:
                group, name = labels["degree"], f"{labels['degree']}_t{t}_u{u}"
            model.add_row(name, group,
                          edge_sum(t, aux.incident(u)) + [(model.var("y", t, u), -2)], EQ, 0)
        if crossing is not None:
            model.add_row(f"less2con_t{t}", "less2con", edge_sum(t, crossing), LE, 2)

    _assignment_rows(model, instance, labels["assign"], labels["capacity"])
    return model


def build_PU1(instance: Instance, aux: AuxiliaryGraph) -> LinearModel:
    """Undirected TSP model for single-block no-reversal routing."""
    if aux.variant != SINGLE_BLOCK:
        raise VariantMismatchError("build_PU1 needs a single_block auxiliary graph")
    labels = {"depart": "tspo0", "origin": "tspo1", "cover": "tspo2", "lead": "tspo3",
              "degree": "tspo4", "assign": "tspo6", "capacity": "tspo7"}
    departure = [e for e in aux.incident(aux.graph.origin) if e.in_e1]
    return _build_tour(instance, aux, P_U1, labels, departure,
                       lead=aux.graph.subaisles[0].tail)


def build_PU2(instance: Instance, aux: AuxiliaryGraph,
              with_cross_aisle_bound: bool = False) -> LinearModel:
    """Undirected TSP model for two-block no-reversal routing."""
    if aux.variant != TWO_BLOCK:
        raise VariantMismatchError("build_PU2 needs a two_block auxiliary graph")
    labels = {"depart": "tspt0", "origin": "tspt1", "cover": "tspt2", "degree": "tspt3",
              "assign": "tspt5", "capacity": "tspt6"}
    departure = [e for e in aux.incident(aux.graph.origin) if not e.in_e3]
    crossing = aux.delta(aux.south_set) if with_cross_aisle_bound else None
    return _build_tour(instance, aux, P_U2, labels, departure, crossing=crossing)


# -- top-level dispatcher ----------------------------------------------------


def build_model(instance: Instance, graph: PickingGraph, kind: str,
                options: Optional[ModelOptions] = None) -> LinearModel:
    """Build a formulation with optional row families, validating flags."""
    options = options or ModelOptions()
    validate_options(kind, options, instance)

    if kind in TSP_KINDS:
        aux = build_auxiliary_graph(graph, FAMILIES[FAMILY_OF_KIND[kind]].aux_variant)
    if kind == P_U1:
        model = build_PU1(instance, aux)
    elif kind == P_U2:
        model = build_PU2(instance, aux, with_cross_aisle_bound=options.cross_aisle_bound)
    elif kind == P_BASIC:
        model = build_basic(instance, graph)
        if options.subaisle_cuts:
            build_subaisle_cuts(model, instance, graph)
    elif kind == P_A:
        model = build_PA(instance, graph)
    elif kind == P_G:
        model = build_PG(instance, graph)
    elif kind == P_F:
        model = build_PF(instance, graph)
    elif kind == P_U:
        model = _improved_model(P_U, instance, graph)
        build_no_reversal(model, instance, graph)
    else:  # pragma: no cover - validate_options already rejected it
        raise ValidationError(f"unknown formulation kind {kind!r}")

    if kind in ARC_KINDS:
        if options.aisle_cuts:
            build_strengthened_cuts(model, instance, graph, "aisle")
        if options.basic_cuts:
            build_strengthened_cuts(model, instance, graph, "basic")
        if options.single_traversing:
            build_single_traversing(model, instance, graph)
        if options.artificial_vertex_reversal:
            build_artificial_vertex_reversal(model, instance, graph)
    if options.column_inequalities:
        build_symmetry_breaking(model, instance)
    model.meta["kind"] = kind
    model.meta["options"] = sorted(options.enabled())
    return model
