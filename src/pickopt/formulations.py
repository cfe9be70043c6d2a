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

Nearly every variable and row belongs to a per-picker family.  Variables
are declared in bulk so that picker t's copy of a variable sits
``t * stride`` positions after picker 0's: picker-major, with the family's
size per picker as stride, except z, which is picker-minor with stride 1.
Each per-picker row family is built once, for picker 0, as a block of rows
whose terms carry their family's stride; :func:`_emit` shifts the block for
every picker and appends all copies through one ``add_rows``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import accumulate, chain, repeat
from operator import add, itemgetter, mod
from typing import Optional

from .errors import UnsupportedFamilyError, ValidationError, VariantMismatchError
from .instance import Instance
from .layout import (SINGLE_BLOCK, TWO_BLOCK, AuxEdge, AuxiliaryGraph, PickingGraph,
                     build_auxiliary_graph)
from .model import BINARY, CONTINUOUS, EQ, GE, LE, ConstraintView, LinearModel
from .separation import FAMILIES, FAMILY_OF_KIND, order_components

_POSITION = itemgetter(0)

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


# -- per-picker blocks ---------------------------------------------------------
#
# A per-picker block is a list of picker 0's rows ``(name, group, terms,
# sense, rhs)``: the name holds one ``%d`` for the picker and each term is
# ``(position, coefficient, stride)``.


def _family(model: LinearModel, index: tuple, keys, step: int = 1) -> dict:
    """Picker 0's position of each variable of a family, by key: ``index``
    names picker 0's first variable, and ``keys`` name picker 0's variables
    in declaration order, ``step`` positions apart."""
    first = model.var(*index)
    return dict(zip(keys, range(first, first + step * len(keys), step)))


def _emit(model: LinearModel, pickers: int, *blocks: list) -> int:
    """Append each block's rows for pickers 0 to ``pickers - 1``, block by
    block and picker by picker, through one ``add_rows``; returns the index
    of the first row appended.  Each row's terms are sorted once, for picker
    0: families hold disjoint ranges of positions, so every shifted copy
    stays sorted."""
    names, groups, senses, rhs, ends, positions, coefs = [], [], [], [], [], [], []
    for block in blocks:
        if not block:
            continue
        b_names, b_groups, b_terms, b_senses, b_rhs = zip(*block)
        b_terms = [sorted(terms, key=_POSITION) for terms in b_terms]
        b_ends = list(accumulate(map(len, b_terms)))
        b_positions, b_coefs, b_strides = zip(*chain.from_iterable(b_terms)) \
            if b_ends[-1] else ((), (), ())
        for t in range(pickers):
            names += map(mod, b_names, repeat(t))
            ends += map(add, b_ends, repeat(len(positions)))
            if t:
                b_positions = list(map(add, b_positions, b_strides))
            positions += b_positions
        groups += b_groups * pickers
        senses += b_senses * pickers
        rhs += b_rhs * pickers
        coefs += b_coefs * pickers
    return model.add_rows(names, groups, senses, rhs, ends, positions, coefs)


def _assignment_indices(instance: Instance) -> list[tuple]:
    return [("z", o.id, t) for o in instance.orders for t in range(instance.pickers)]


def _orders(model: LinearModel, instance: Instance) -> dict:
    """Picker 0's position of z by order id; picker t's is t after it."""
    return {o.id: model.var("z", o.id, 0) for o in instance.orders}


def _assignment_rows(model: LinearModel, instance: Instance, assign: str,
                     capacity: str) -> None:
    """Each order goes to one picker; each picker's load fits the trolley."""
    T = instance.pickers
    orders = instance.orders
    O = len(orders)
    z = _orders(model, instance)
    # O rows of T terms, one per order, then T rows of O terms, one per picker
    model.add_rows([f"{assign}_o{o.id}" for o in orders] + [f"{capacity}_t{t}" for t in range(T)],
                   [assign] * O + [capacity] * T, [EQ] * O + [LE] * T,
                   [1] * O + [instance.capacity] * T,
                   [T * k for k in range(1, O + 1)] + [O * (T + k) for k in range(1, T + 1)],
                   [z[o.id] + t for o in orders for t in range(T)]
                   + [z[o.id] + t for t in range(T) for o in orders],
                   [1] * (O * T) + [o.size for o in orders] * T)


# -- arc-space core --------------------------------------------------------


def _alpha_beta_indices(instance: Instance, graph: PickingGraph) -> list[tuple]:
    return [(family, t, v) for t in range(instance.pickers)
            for v in graph.picking_vertices for family in ("a", "b")]


def _declare_arc_core(model: LinearModel, instance: Instance, graph: PickingGraph,
                      more: tuple = ()) -> None:
    """Declare x, y and z, then the binaries indexed by ``more``, in one call."""
    T = instance.pickers
    arcs = graph.arcs()
    first = model.add_variables(BINARY, [("x", t, u, v) for t in range(T) for u, v in arcs]
                                + [("y", t, v) for t in range(T) for v in range(graph.n_vertices)]
                                + _assignment_indices(instance) + list(more))
    lengths = [length for length in graph.edge_length for _ in (0, 1)]  # by arc
    model.set_objective_coeffs(range(first, first + T * len(arcs)), lengths * T)


def _arcs(model: LinearModel, graph: PickingGraph) -> tuple[dict, int]:
    """Picker 0's position of x by arc, and the stride of x."""
    arcs = graph.arcs()
    return _family(model, ("x", 0, *arcs[0]), arcs), len(arcs)


def _vertices(model: LinearModel, graph: PickingGraph) -> tuple[dict, int]:
    """Picker 0's position of y by vertex, and the stride of y."""
    return _family(model, ("y", 0, 0), range(graph.n_vertices)), graph.n_vertices


def _gamma(model: LinearModel, graph: PickingGraph) -> tuple[dict, int]:
    """Picker 0's position of gamma by reduced arc, and the stride of gamma."""
    reduced_arcs = graph.reduced_arcs()
    return _family(model, ("g", 0, *reduced_arcs[0]), reduced_arcs), len(reduced_arcs)


def _alpha_beta(model: LinearModel, graph: PickingGraph) -> tuple[dict, dict, int]:
    """Picker 0's positions of alpha and beta by picking vertex, declared in
    pairs, and their stride."""
    picking = graph.picking_vertices
    return (_family(model, ("a", 0, picking[0]), picking, 2),
            _family(model, ("b", 0, picking[0]), picking, 2), 2 * len(picking))


def _arc_core_rows(model: LinearModel, instance: Instance, graph: PickingGraph,
                   labels: dict[str, str], ydef_vertices) -> None:
    """Rows shared by P_basic and P_G, with per-kind group labels."""
    s = graph.origin
    picks = instance.all_pick_vertices(graph)
    x, X = _arcs(model, graph)
    y, Y = _vertices(model, graph)
    z = _orders(model, instance)
    adjacency = graph.adjacency

    depart, cover, ydef, flow = labels["depart"], labels["cover"], labels["ydef"], labels["flow"]
    departs = [(f"{depart}_t%d", depart, [(x[s, v], 1, X) for v, _ in adjacency[s]], GE, 1)]
    covers = [(f"{cover}_t%d_o{o.id}_v{u}", cover,
               [(x[u, v], 1, X) for v, _ in adjacency[u]] + [(z[o.id], -1, 1)], GE, 0)
              for o in instance.orders for u in sorted(picks[o.id])]
    ydefs = [(f"{ydef}_t%d_v{u}_{v}", ydef, [(y[u], 1, Y), (x[u, v], -1, X)], GE, 0)
             for u in ydef_vertices if u != s for v, _ in adjacency[u]]
    flows = [(f"{flow}_t%d_v{v}", flow, [(x[v, u], 1, X) for u, _ in adjacency[v]]
              + [(x[u, v], -1, X) for u, _ in adjacency[v]], EQ, 0)
             for v in range(graph.n_vertices)]
    _emit(model, instance.pickers, departs, covers, ydefs, flows)

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


def build_subaisle_cuts(model: LinearModel, instance: Instance,
                        graph: PickingGraph) -> ConstraintView:
    """Append the subaisle cut rows, declaring alpha/beta when missing."""
    if not model.has_var("a", 0, graph.picking_vertices[0]):
        model.add_variables(BINARY, _alpha_beta_indices(instance, graph))
    x, X = _arcs(model, graph)
    a, b, AB = _alpha_beta(model, graph)
    z = _orders(model, instance)
    north, south = graph.north_of, graph.south_of
    chains = []
    for sub in graph.subaisles:
        chains += [(f"sub1_t%d_v{v}", "sub1", [(a[v], 1, AB), (a[south(v)], -1, AB)], GE, 0)
                   for v in sub.locs[:-1]]
        chains += [(f"sub2_t%d_v{v}", "sub2", [(x[north(v), v], 1, X), (a[v], -1, AB)], GE, 0)
                   for v in sub.locs]
        chains += [(f"sub3_t%d_v{v}", "sub3", [(b[v], 1, AB), (b[north(v)], -1, AB)], GE, 0)
                   for v in sub.locs[1:]]
        chains += [(f"sub4_t%d_v{v}", "sub4", [(x[south(v), v], 1, X), (b[v], -1, AB)], GE, 0)
                   for v in sub.locs]
    picks = instance.all_pick_vertices(graph)
    covers = [(f"sub5_t%d_o{o.id}_v{v}", "sub5",
               [(a[v], 1, AB), (b[v], 1, AB), (z[o.id], -1, 1)], GE, 0)
              for o in instance.orders for v in sorted(picks[o.id])]
    return model.constraints_from(_emit(model, instance.pickers, chains, covers))


def build_PA(instance: Instance, graph: PickingGraph) -> LinearModel:
    model = _basic_model(P_A, instance, graph)
    build_subaisle_cuts(model, instance, graph)
    return model


def _gamma_rows(model: LinearModel, instance: Instance, graph: PickingGraph) -> None:
    """Link gamma over the reduced arcs to x, alpha, beta."""
    T = instance.pickers
    g, G = _gamma(model, graph)
    x, X = _arcs(model, graph)
    a, b, AB = _alpha_beta(model, graph)

    rows = []
    for v in graph.artificial_vertices:
        w = graph.q_west(v)
        if w is not None:
            rows.append((f"impf4_t%d_v{v}", "impf4", [(x[v, w], 1, X), (g[v, w], -1, G)], EQ, 0))
        e = graph.q_east(v)
        if e is not None:
            rows.append((f"impf5_t%d_v{v}", "impf5", [(x[v, e], 1, X), (g[v, e], -1, G)], EQ, 0))
    for sub in graph.subaisles:
        f, l, i = sub.head, sub.tail, sub.index
        n_l = graph.north_of(l)
        s_f = graph.south_of(f)
        rows += [
            (f"impf6_5_t%d_i{i}", "impf6_5", [(a[n_l], 1, AB), (g[f, l], -1, G)], GE, 0),
            (f"impf6_t%d_i{i}", "impf6", [(x[n_l, l], 1, X), (g[f, l], -1, G)], GE, 0),
            (f"impf7_5_t%d_i{i}", "impf7_5", [(b[s_f], 1, AB), (g[l, f], -1, G)], GE, 0),
            (f"impf7_t%d_i{i}", "impf7", [(x[s_f, f], 1, X), (g[l, f], -1, G)], GE, 0),
        ]
    _emit(model, T, rows)


def _improved_model(kind: str, instance: Instance, graph: PickingGraph) -> LinearModel:
    """The arc-space core with subaisle cuts and gamma, shared by P_G, P_F and P_U."""
    model = _new_model(kind)
    gammas = [("g", t, u, v) for t in range(instance.pickers) for u, v in graph.reduced_arcs()]
    _declare_arc_core(model, instance, graph, _alpha_beta_indices(instance, graph) + gammas)
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
    reduced_arcs = graph.reduced_arcs()
    s = graph.origin
    first = model.add_variables(CONTINUOUS, [("s", t, v0, u, v) for t in range(T)
                                             for v0 in graph.artificial_vertices
                                             for u, v in reduced_arcs])
    S = graph.n_artificial * len(reduced_arcs)  # commodities x reduced arcs
    y, Y = _vertices(model, graph)
    g, G = _gamma(model, graph)
    # (arc, +1) for each reduced arc leaving a vertex, (arc, -1) for each entering it
    net_arcs = {u: [(arc, 1) for arc in graph.eta_plus([u])]
                + [(arc, -1) for arc in graph.eta_minus([u])]
                for u in graph.artificial_vertices}

    rows = []
    for k, v0 in enumerate(graph.artificial_vertices):
        # picker 0's flow of commodity v0, by reduced arc
        f = dict(zip(reduced_arcs, range(first + k * len(reduced_arcs), first + S)))
        net = {u: [(f[arc], c, S) for arc, c in net_arcs[u]] for u in graph.artificial_vertices}
        rows.append((f"impcf1_t%d_c{v0}", "impcf1", net[v0] + [(y[v0], -1, Y)], EQ, 0))
        rows += [(f"impcf2_t%d_c{v0}_u{u}", "impcf2", net[u], EQ, 0)
                 for u in graph.artificial_vertices if u not in (s, v0)]
        rows.append((f"impcf3_t%d_c{v0}", "impcf3", net[s] + [(y[v0], 1, Y)], EQ, 0))
        rows += [(f"impcf4_t%d_c{v0}_{u}_{v}", "impcf4", [(f[u, v], 1, S), (g[u, v], -1, G)],
                  LE, 0) for u, v in reduced_arcs]
    _emit(model, T, rows)
    return model


def build_strengthened_cuts(model: LinearModel, instance: Instance, graph: PickingGraph,
                            family: str) -> ConstraintView:
    """Aisle cuts (one subaisle per set) or basic cuts (order components)."""
    if family == "aisle":
        cuts = [(f"aisle_cut_t%d_o{o}_i{sub.index}", "aisle_cut", graph.delta_plus(sub.locs), o)
                for sub, order_ids in zip(graph.subaisles, _orders_by_subaisle(instance, graph))
                for o in order_ids]
    elif family == "basic":
        cuts = [(f"basic_cut_t%d_o{o.id}_k{k}", "basic_cut", graph.delta_plus(vertex_set), o.id)
                for o in instance.orders
                for k, (vertex_set, contains_origin) in enumerate(
                    order_components(graph, instance.pick_vertices(graph, o)).components)
                if not contains_origin]
    else:
        raise ValidationError(f"unknown strengthened-cut family {family!r}")
    x, X = _arcs(model, graph)
    z = _orders(model, instance)
    # one block per cut, so that the pickers of a cut are consecutive rows
    blocks = [[(name, group, [(x[arc], 1, X) for arc in arcs] + [(z[o], -1, 1)], GE, 0)]
              for name, group, arcs, o in cuts]
    return model.constraints_from(_emit(model, instance.pickers, *blocks))


def build_single_traversing(model: LinearModel, instance: Instance,
                            graph: PickingGraph) -> ConstraintView:
    """No subaisle is fully traversed both ways; block-2 layouts exempt
    the first subaisle."""
    blocks = instance.layout.n_blocks
    if blocks > 2:
        raise UnsupportedFamilyError(
            "single traversing constraints are only valid for 1- or 2-block layouts")
    exempt: frozenset[int] = frozenset()
    if blocks == 2:
        exempt = frozenset(graph.subaisles[0].locs)
    a, b, AB = _alpha_beta(model, graph)
    picks = instance.all_pick_vertices(graph)
    rows = [(f"sitr_t%d_o{o.id}_v{v}", "sitr", [(a[v], 1, AB), (b[v], 1, AB)], LE, 1)
            for o in instance.orders for v in sorted(picks[o.id]) if v not in exempt]
    return model.constraints_from(_emit(model, instance.pickers, rows))


def build_no_reversal(model: LinearModel, instance: Instance,
                      graph: PickingGraph) -> ConstraintView:
    """Tie every vertical arc of a subaisle to one traversal variable per
    direction, so a picker entering a subaisle crosses it completely."""
    traversals = [(sub.index, direction) for sub in graph.subaisles for direction in ("dn", "up")]
    first = model.add_variables(BINARY, [("w", t, *key) for t in range(instance.pickers)
                                         for key in traversals])
    w, W = dict(zip(traversals, range(first, first + len(traversals)))), len(traversals)
    x, X = _arcs(model, graph)
    rows = []
    for sub in graph.subaisles:
        i = sub.index
        rows += [(f"norev1_t%d_i{i}_v{v}", "norev1",
                  [(x[graph.north_of(v), v], 1, X), (w[i, "dn"], -1, W)], EQ, 0)
                 for v in sub.locs + (sub.tail,)]
        rows += [(f"norev2_t%d_i{i}_v{v}", "norev2",
                  [(x[graph.south_of(v), v], 1, X), (w[i, "up"], -1, W)], EQ, 0)
                 for v in (sub.head,) + sub.locs]
    return model.constraints_from(_emit(model, instance.pickers, rows))


def build_artificial_vertex_reversal(model: LinearModel, instance: Instance,
                                     graph: PickingGraph) -> ConstraintView:
    """Forbid touching an artificial vertex only to turn around there.

    At the tail of each subaisle (and at interior-cross-aisle heads) the
    walk may use both vertical arcs of the last chain edge only if it also
    uses some other arc at that vertex.
    """
    x, X = _arcs(model, graph)

    def corner_row(sub_index, corner, chain_nbr, tag):
        terms = [(x[chain_nbr, corner], 1, X), (x[corner, chain_nbr], 1, X)]
        for u, _ in graph.adjacency[corner]:
            if u != chain_nbr:
                terms += [(x[u, corner], -1, X), (x[corner, u], -1, X)]
        return (f"avr_{tag}_t%d_i{sub_index}", "avr", terms, LE, 1)

    rows = []
    for sub in graph.subaisles:
        rows.append(corner_row(sub.index, sub.tail, graph.north_of(sub.tail), "l"))
        if sub.block >= 1:  # head sits on an interior cross aisle
            rows.append(corner_row(sub.index, sub.head, graph.south_of(sub.head), "f"))
    return model.constraints_from(_emit(model, instance.pickers, rows))


def build_symmetry_breaking(model: LinearModel, instance: Instance) -> ConstraintView:
    """Column inequalities over the order-to-picker assignment matrix.

    With orders ranked by id and pickers ordered, order of rank r may only
    go to pickers 1..r, and picker t can be used by rank r only if some
    earlier rank uses picker t-1.  Batches sorted by smallest order id
    always satisfy these rows, so at least one optimal batching survives.
    """
    T = instance.pickers
    ranked = sorted(instance.orders, key=lambda o: o.id)
    names, groups, senses, terms = [], [], [], []
    for r, o in enumerate(ranked, start=1):
        for t in range(r, T):
            names.append(f"col_fix_o{o.id}_t{t}")
            groups.append("col_fix")
            senses.append(EQ)
            terms.append([(model.var("z", o.id, t), 1)])
        for t in range(1, min(r, T)):
            names.append(f"col_link_o{o.id}_t{t}")
            groups.append("col_link")
            senses.append(LE)
            row = [(model.var("z", o.id, t), 1)]
            row += [(model.var("z", o2.id, t - 1), -1) for o2 in ranked[:r - 1]]
            terms.append(sorted(row, key=_POSITION))
    flat = list(chain.from_iterable(terms))
    first = model.add_rows(names, groups, senses, [0] * len(names),
                           list(accumulate(map(len, terms))),
                           [pos for pos, _ in flat], [coef for _, coef in flat])
    return model.constraints_from(first)


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

    first = model.add_variables(BINARY, [e.var_index(t) for t in range(T) for e in aux.edges]
                                + [("y", t, v) for t in range(T) for v in aux.vertices]
                                + _assignment_indices(instance))
    model.set_objective_coeffs(range(first, first + T * len(aux.edges)),
                               [e.length for e in aux.edges] * T)
    E = len(aux.edges)
    y, Y = _family(model, ("y", 0, aux.vertices[0]), aux.vertices), len(aux.vertices)
    z = _orders(model, instance)

    orders_by_sub = _orders_by_subaisle(instance, graph)
    degree_vertices = [u for u in aux.vertices if u not in (s, lead)]
    if lead is not None:
        degree_vertices.insert(0, lead)

    def edge_sum(edges):
        return [(first + e.id, 1, E) for e in edges]

    rows = [(f"{labels['depart']}_t%d", labels["depart"], edge_sum(departure), GE, 1),
            (f"{labels['origin']}_t%d", labels["origin"], edge_sum(aux.incident(s)), EQ, 2)]
    for sub, order_ids in zip(graph.subaisles, orders_by_sub):
        traversal = (first + aux.e_of_subaisle[sub.index], 1, E)
        rows += [(f"{labels['cover']}_t%d_i{sub.index}_o{o}", labels["cover"],
                  [traversal, (z[o], -1, 1)], GE, 0) for o in order_ids]
    for u in degree_vertices:
        if u == lead:
            group, name = labels["lead"], f"{labels['lead']}_t%d"
        else:
            group, name = labels["degree"], f"{labels['degree']}_t%d_u{u}"
        rows.append((name, group, edge_sum(aux.incident(u)) + [(y[u], -2, Y)], EQ, 0))
    if crossing is not None:
        rows.append(("less2con_t%d", "less2con", edge_sum(crossing), LE, 2))
    _emit(model, T, rows)

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
