"""The integer programming formulations of the problem, built by :func:`build_model`.

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

:func:`build_model` is the only builder: it checks a kind and a
:class:`ModelOptions` against the instance with :func:`validate_options`,
builds the kind, then appends the row families the options ask for (the
cutting planes and restrictions of the paper).  Constraint groups carry
short stable labels (``bs4``, ``sub5``, ``impf8``, ``tspo5`` and so on) so
tests and the CLI can count rows per family; lazy exponential families are
declared with zero initial rows, described in ``separation.FAMILIES``, and
filled by separation.

Nearly every variable and row belongs to a per-picker family, and the
model keeps picker 0's copy of each.  A variable family is declared once
for every picker with :meth:`~pickopt.model.LinearModel.add_variable_copies`:
picker t's copy of a variable sits ``t`` strides after picker 0's,
picker-major with the family's size per picker as stride, except z, which
is picker-minor with stride 1.  Its name is the family, ``_``, the picker
and a tail (z's ends with the picker).  Rows come in blocks of picker 0's
rows whose terms name a variable family and an offset in it, and whose
names are kept split where the picker goes.

The arc kinds' variable families and the row blocks that depend on the
graph alone (routing, subaisle, gamma, flow, no-reversal and corner rows)
are made, and so checked, once per :class:`~pickopt.layout.PickingGraph`
and kept with it (:meth:`~pickopt.layout.PickingGraph.derived`); the
blocks that depend on the orders (covers, assignment and capacity, cuts,
single-traversing rows and column inequalities) are made by each build, as
are all of a tour kind's rows (P_U1, P_U2): few depend on the graph alone,
and a tour kind is rarely built twice on one graph.  A build hands every
block, with the family bases of its picker and order counts, to one
:meth:`~pickopt.model.LinearModel.add_row_blocks`, which checks only what
depends on the model and the bases.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import accumulate, chain, compress, repeat
from operator import add
from typing import Mapping, NamedTuple, Optional

from .errors import UnsupportedFamilyError, ValidationError, VariantMismatchError
from .instance import Instance
from .layout import PickingGraph
from .model import (BINARY, CONTINUOUS, EQ, GE, LE, LinearModel, RowBlock, VariableFamily,
                    var_name)
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

# Variable families, numbered in the order a build declares them, so that
# terms sorted by family and offset are sorted by position.  X is the edge
# family (x over the arcs, or the auxiliary edges of P_U1 and P_U2) and Y
# the vertex family; alpha and beta (AB) are declared in pairs; a model has
# flows (S) or traversals (W), never both.
X, Y, Z, AB, G, S, W = range(7)


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
        return tuple(compress(_OPTIONS, map(getattr, repeat(self), _OPTIONS)))


_OPTIONS, _NO_OPTIONS = tuple(f.name for f in fields(ModelOptions)), ModelOptions()


def validate_options(kind: str, options: ModelOptions, instance: Instance) -> None:
    """Enforce the option compatibility matrix: the one check that a kind,
    an option set and the instance's layout fit together."""
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


def _orders_by_subaisle(graph: PickingGraph, picks: Mapping) -> list[list[int]]:
    """Sorted ids of the orders with a pick in each subaisle, by subaisle index."""
    by_sub: list[set[int]] = [set() for _ in graph.subaisles]
    for order_id, vertices in picks.items():
        for v in vertices:
            by_sub[graph.subaisle_of(v)].add(order_id)
    return [sorted(ids) for ids in by_sub]


def _new_model(kind: str) -> LinearModel:
    """An empty model of one kind, with its lazy connectivity family declared."""
    model = LinearModel(f"pickopt_{kind}", kind=kind)
    family = FAMILY_OF_KIND.get(kind)
    if family is not None:
        model.declare_lazy_group(family, FAMILIES[family].description)
    return model


# -- row blocks ----------------------------------------------------------------


def _compile(rows, per_picker: bool = True) -> RowBlock:
    """A block of rows ``(name, group, terms, sense, rhs)`` whose terms are
    ``(family, offset, coefficient)`` in (family, offset) order, stored for
    every picker, each name with one ``%d`` where the picker goes, or, when
    ``per_picker`` is false, once.  The model refuses a row whose terms
    come in any other order."""
    # transposed by slicing one flat tuple, whose slices the block keeps:
    # ``zip(*rows)`` would make an iterator per row or term, and a
    # collection of the young objects with it
    flat = tuple(chain.from_iterable(rows))
    terms = flat[2::5]
    flat_terms = tuple(chain.from_iterable(chain.from_iterable(terms)))
    heads, tails = flat[0::5], None
    if per_picker:
        parts = tuple(chain.from_iterable(map(str.partition, heads, repeat("%d"))))
        heads, tails = parts[0::3], parts[2::3]
    return RowBlock(heads, tails, flat[1::5], flat[3::5], flat[4::5], accumulate(map(len, terms)),
                    flat_terms[0::3], flat_terms[1::3], flat_terms[2::3])


def _assignment_family(instance: Instance) -> VariableFamily:
    """z, picker-minor: ``z_<order id>_<picker>``, order k's z for picker t
    at ``k * T + t`` after the first."""
    heads = [f"z_{o.id}_" for o in instance.orders]
    return VariableFamily(heads, [""] * len(heads), True)


def _assignment_rows(instance: Instance, assign: str, capacity: str) -> RowBlock:
    """Each order goes to one picker; each picker's load fits the trolley.
    Order k's z for picker t has offset ``k * T + t``."""
    T = instance.pickers
    orders = instance.orders
    O = len(orders)
    # O rows of T terms, one per order, then T rows of O terms, one per picker
    return RowBlock([f"{assign}_o{o.id}" for o in orders]
                 + [f"{capacity}_t{t}" for t in range(T)], None,
                 [assign] * O + [capacity] * T, [EQ] * O + [LE] * T,
                 [1] * O + [instance.capacity] * T,
                 [T * k for k in range(1, O + 1)] + [O * (T + k) for k in range(1, T + 1)],
                 [Z] * (2 * O * T),
                 list(range(O * T)) + [k * T + t for t in range(T) for k in range(O)],
                 [1] * (O * T) + [o.size for o in orders] * T)


# -- arc-space kinds -------------------------------------------------------


class _ArcTables(NamedTuple):
    """A picking graph's offsets of x by arc, the sorted offsets of the arcs
    leaving each vertex, alpha's offset by picking vertex (beta's is one
    more), gamma's offset by reduced arc, the length of each arc, and by
    family the :class:`~pickopt.model.VariableFamily` it is declared by,
    checked once per graph (None for z and the flows)."""

    x: dict
    out: list
    alpha: dict
    gamma: dict
    lengths: list
    names: tuple


def _arc_tables(graph: PickingGraph) -> _ArcTables:
    arcs = graph.arcs()
    out: list[list[int]] = [[] for _ in range(graph.n_vertices)]
    for offset, (u, _) in enumerate(arcs):
        out[u].append(offset)
    reduced_arcs = graph.reduced_arcs()
    # name tails: a vertex's is _v, an arc's _u_v, a traversal's _i_dn or _i_up
    vertex = [f"_{v}" for v in range(graph.n_vertices)]
    picking = [vertex[v] for v in graph.picking_vertices]
    traversals = [f"_{i}_{direction}" for i, direction in _traversals(graph)]
    names = (_family("x_", [vertex[u] + vertex[v] for u, v in arcs]), _family("y_", vertex),
             None, VariableFamily(["a_", "b_"] * len(picking),
                                  list(chain.from_iterable(zip(picking, picking))), False),
             _family("g_", [vertex[u] + vertex[v] for u, v in reduced_arcs]), None,
             _family("w_", traversals))
    return _ArcTables(
        dict(zip(arcs, range(len(arcs)))), out,
        dict(zip(graph.picking_vertices, range(0, 2 * graph.n_picking, 2))),
        dict(zip(reduced_arcs, range(len(reduced_arcs)))),
        [graph.layout.loc_spacing] * (2 * graph.n_chain_edges)
        + [graph.layout.aisle_spacing] * (len(arcs) - 2 * graph.n_chain_edges), names)


def _flow_family(graph: PickingGraph) -> VariableFamily:
    """The flows, named ``s_<picker>_v0_u_v``: commodity v0 on reduced arc
    (u, v), commodity-major."""
    names = graph.derived(_arc_tables).names
    vertex, gamma = names[Y].tails, names[G].tails
    return _family("s_", [vertex[v0] + tail for v0 in graph.artificial_vertices for tail in gamma])


def _family(head: str, tails: list[str]) -> VariableFamily:
    """One head's variables, side by side."""
    return VariableFamily([head] * len(tails), tails, False)


def _arc_core(graph: PickingGraph, depart: str, ydef: str, flow: str,
              ydef_vertices) -> tuple[RowBlock, RowBlock, RowBlock]:
    """The departure, y-definition and flow-conservation rows shared by
    P_basic and P_G, with per-kind group labels."""
    x = graph.derived(_arc_tables).x
    s = graph.origin
    adjacency = graph.adjacency
    departs = [(f"{depart}_t%d", depart, sorted((X, x[s, v], 1) for v, _ in adjacency[s]),
                GE, 1)]
    ydefs = [(f"{ydef}_t%d_v{u}_{v}", ydef, [(X, x[u, v], -1), (Y, u, 1)], GE, 0)
             for u in ydef_vertices if u != s for v, _ in adjacency[u]]
    flows = [(f"{flow}_t%d_v{v}", flow, sorted([(X, x[v, u], 1) for u, _ in adjacency[v]]
                                               + [(X, x[u, v], -1) for u, _ in adjacency[v]]),
              EQ, 0) for v in range(graph.n_vertices)]
    return _compile(departs), _compile(ydefs), _compile(flows)


def _basic_core(graph: PickingGraph) -> tuple[RowBlock, RowBlock, RowBlock]:
    return _arc_core(graph, "bs1", "bs3", "bs5", range(graph.n_vertices))


def _improved_core(graph: PickingGraph) -> tuple[RowBlock, RowBlock, RowBlock]:
    return _arc_core(graph, "impf1", "impf3", "impf9", graph.artificial_vertices)


def _subaisle_chains(graph: PickingGraph) -> RowBlock:
    """The subaisle cuts' chain rows: alpha and beta propagate along each
    subaisle and are bounded by its vertical arcs."""
    tables = graph.derived(_arc_tables)
    x, a = tables.x, tables.alpha
    north, south = graph.north_of, graph.south_of
    rows = []
    for sub in graph.subaisles:
        rows += [(f"sub1_t%d_v{v}", "sub1", [(AB, a[v], 1), (AB, a[south(v)], -1)], GE, 0)
                 for v in sub.locs[:-1]]
        rows += [(f"sub2_t%d_v{v}", "sub2", [(X, x[north(v), v], 1), (AB, a[v], -1)], GE, 0)
                 for v in sub.locs]
        rows += [(f"sub3_t%d_v{v}", "sub3", [(AB, a[north(v)] + 1, -1), (AB, a[v] + 1, 1)],
                  GE, 0) for v in sub.locs[1:]]
        rows += [(f"sub4_t%d_v{v}", "sub4", [(X, x[south(v), v], 1), (AB, a[v] + 1, -1)], GE, 0)
                 for v in sub.locs]
    return _compile(rows)


def _gamma_rows(graph: PickingGraph) -> RowBlock:
    """Link gamma over the reduced arcs to x, alpha, beta."""
    tables = graph.derived(_arc_tables)
    x, a, g = tables.x, tables.alpha, tables.gamma
    rows = []
    for v in graph.artificial_vertices:
        w = graph.q_west(v)
        if w is not None:
            rows.append((f"impf4_t%d_v{v}", "impf4", [(X, x[v, w], 1), (G, g[v, w], -1)], EQ, 0))
        e = graph.q_east(v)
        if e is not None:
            rows.append((f"impf5_t%d_v{v}", "impf5", [(X, x[v, e], 1), (G, g[v, e], -1)], EQ, 0))
    for sub in graph.subaisles:
        f, l, i = sub.head, sub.tail, sub.index
        n_l = graph.north_of(l)
        s_f = graph.south_of(f)
        rows += [
            (f"impf6_5_t%d_i{i}", "impf6_5", [(AB, a[n_l], 1), (G, g[f, l], -1)], GE, 0),
            (f"impf6_t%d_i{i}", "impf6", [(X, x[n_l, l], 1), (G, g[f, l], -1)], GE, 0),
            (f"impf7_5_t%d_i{i}", "impf7_5", [(AB, a[s_f] + 1, 1), (G, g[l, f], -1)], GE, 0),
            (f"impf7_t%d_i{i}", "impf7", [(X, x[s_f, f], 1), (G, g[l, f], -1)], GE, 0),
        ]
    return _compile(rows)


def _flow_rows(graph: PickingGraph) -> RowBlock:
    """P_F's connectivity: one flow per artificial vertex to the origin."""
    reduced_arcs = graph.reduced_arcs()
    s = graph.origin
    # (offset, +1) for each reduced arc leaving a vertex, (offset, -1) for
    # each entering it, in offset order
    net_arcs: list[list[tuple[int, int]]] = [[] for _ in graph.artificial_vertices]
    for i, (u, v) in enumerate(reduced_arcs):
        net_arcs[u].append((i, 1))
        net_arcs[v].append((i, -1))

    rows = []
    for k, v0 in enumerate(graph.artificial_vertices):
        # picker 0's flow of commodity v0 on the reduced arc at offset i is at k * R + i
        first = k * len(reduced_arcs)
        net = {u: [(S, first + i, c) for i, c in net_arcs[u]] for u in graph.artificial_vertices}
        rows.append((f"impcf1_t%d_c{v0}", "impcf1", [(Y, v0, -1)] + net[v0], EQ, 0))
        rows += [(f"impcf2_t%d_c{v0}_u{u}", "impcf2", net[u], EQ, 0)
                 for u in graph.artificial_vertices if u not in (s, v0)]
        rows.append((f"impcf3_t%d_c{v0}", "impcf3", [(Y, v0, 1)] + net[s], EQ, 0))
        rows += [(f"impcf4_t%d_c{v0}_{u}_{v}", "impcf4", [(G, i, -1), (S, first + i, 1)],
                  LE, 0) for i, (u, v) in enumerate(reduced_arcs)]
    return _compile(rows)


def _traversals(graph: PickingGraph) -> list[tuple]:
    """P_U's traversal keys: subaisle index and direction, ``w``'s order."""
    return [(sub.index, direction) for sub in graph.subaisles for direction in ("dn", "up")]


def _no_reversal_rows(graph: PickingGraph) -> RowBlock:
    """Tie every vertical arc of a subaisle to one traversal variable per
    direction, so a picker entering a subaisle crosses it completely."""
    x = graph.derived(_arc_tables).x
    w = dict(zip(_traversals(graph), range(2 * len(graph.subaisles))))
    rows = []
    for sub in graph.subaisles:
        i = sub.index
        rows += [(f"norev1_t%d_i{i}_v{v}", "norev1",
                  [(X, x[graph.north_of(v), v], 1), (W, w[i, "dn"], -1)], EQ, 0)
                 for v in sub.locs + (sub.tail,)]
        rows += [(f"norev2_t%d_i{i}_v{v}", "norev2",
                  [(X, x[graph.south_of(v), v], 1), (W, w[i, "up"], -1)], EQ, 0)
                 for v in (sub.head,) + sub.locs]
    return _compile(rows)


def _reversal_rows(graph: PickingGraph) -> RowBlock:
    """Forbid touching an artificial vertex only to turn around there.

    At the tail of each subaisle (and at interior-cross-aisle heads) the
    walk may use both vertical arcs of the last chain edge only if it also
    uses some other arc at that vertex.
    """
    x = graph.derived(_arc_tables).x

    def corner_row(sub_index, corner, chain_nbr, tag):
        terms = [(X, x[chain_nbr, corner], 1), (X, x[corner, chain_nbr], 1)]
        for u, _ in graph.adjacency[corner]:
            if u != chain_nbr:
                terms += [(X, x[u, corner], -1), (X, x[corner, u], -1)]
        return (f"avr_{tag}_t%d_i{sub_index}", "avr", sorted(terms), LE, 1)

    rows = []
    for sub in graph.subaisles:
        rows.append(corner_row(sub.index, sub.tail, graph.north_of(sub.tail), "l"))
        if sub.block >= 1:  # head sits on an interior cross aisle
            rows.append(corner_row(sub.index, sub.head, graph.south_of(sub.head), "f"))
    return _compile(rows)


def _aisle_cut_arcs(graph: PickingGraph) -> tuple[list[int], ...]:
    """Sorted offsets of x on the arcs leaving each subaisle's locations."""
    x = graph.derived(_arc_tables).x
    return tuple(sorted(x[arc] for arc in graph.delta_plus(sub.locs)) for sub in graph.subaisles)


def _cut_rows(group: str, cuts: list, pickers: int, n_arcs: int) -> RowBlock:
    """One row per cut and picker, the pickers of a cut consecutive: the
    cut's arcs cover the order if the picker takes it.  A cut is ``(name,
    sorted x offsets, order rank)``, its name with a ``%d`` for the picker."""
    names, ends, families, offsets, coefs = [], [], [], [], []
    for name, arcs, k in cuts:
        head, _, tail = name.partition("%d")
        for t in range(pickers):
            names.append(head + str(t) + tail)
            offsets += map(add, arcs, repeat(t * n_arcs))
            offsets.append(k * pickers + t)
            families += [X] * len(arcs)
            families.append(Z)
            coefs += [1] * len(arcs)
            coefs.append(-1)
            ends.append(len(offsets))
    return RowBlock(names, None, [group] * len(names), [GE] * len(names), [0] * len(names),
                 ends, families, offsets, coefs)


def _arc_model(kind: str, instance: Instance, graph: PickingGraph, picks: Mapping,
               options: ModelOptions) -> tuple[LinearModel, list[int], list]:
    """An arc-space kind with its arc-space options: the model with its
    variables declared, each family's base, and the row blocks to store."""
    T = instance.pickers
    orders = instance.orders
    tables = graph.derived(_arc_tables)
    x, out, a, names = tables.x, tables.out, tables.alpha, list(tables.names)
    improved = kind in (P_G, P_F, P_U)
    alpha_beta = improved or kind == P_A or options.subaisle_cuts

    model = _new_model(kind)
    names[Z] = _assignment_family(instance)
    binary = [X, Y, Z] + [AB] * alpha_beta + [G] * improved + [W] * (kind == P_U)
    bases = [0] * 7
    for family, base in zip(binary, model.add_variable_copies(
            BINARY, map(names.__getitem__, binary), T)):
        bases[family] = base
    if kind == P_F:
        bases[S], = model.add_variable_copies(CONTINUOUS, [graph.derived(_flow_family)], T)
    model.set_objective_coeffs(range(T * len(x)), tables.lengths * T)

    if improved:
        labels = ("impf2", "impf10", "impf11")
        depart, ydef, flow = graph.derived(_improved_core)
    else:
        labels = ("bs2", "bs6", "bs7")
        depart, ydef, flow = graph.derived(_basic_core)
    # each picking vertex of each order, with picker 0's z of the order: the
    # arcs leaving it cover the order if the picker takes it
    at = [(k * T, o.id, v) for k, o in enumerate(orders) for v in sorted(picks[o.id])]
    arcs, n, tails = [out[v] for _, _, v in at], len(at), [f"_o{o}_v{v}" for _, o, v in at]
    covers = RowBlock([f"{labels[0]}_t"] * n, tails, [labels[0]] * n, [GE] * n, [0] * n,
                      accumulate([len(arc) + 1 for arc in arcs]),
                      chain.from_iterable([[X] * len(arc) + [Z] for arc in arcs]),
                      chain.from_iterable([arc + [z] for arc, (z, _, _) in zip(arcs, at)]),
                      chain.from_iterable([[1] * len(arc) + [-1] for arc in arcs]))
    assignment = _assignment_rows(instance, labels[1], labels[2])
    subaisle = []
    if alpha_beta:  # and so do alpha and beta at the vertex
        subaisle = [graph.derived(_subaisle_chains), RowBlock(
            ["sub5_t"] * n, tails, ["sub5"] * n, [GE] * n, [0] * n, range(3, 3 * n + 1, 3),
            [Z, AB, AB] * n, chain.from_iterable([(z, a[v], a[v] + 1) for z, _, v in at]),
            [-1, 1, 1] * n)]
    if improved:
        blocks = subaisle + [depart, covers, ydef, flow, assignment, graph.derived(_gamma_rows)]
        if kind == P_F:
            blocks.append(graph.derived(_flow_rows))
        elif kind == P_U:
            blocks.append(graph.derived(_no_reversal_rows))
    else:
        blocks = [depart, covers, ydef, flow, assignment] + subaisle

    rank = {o.id: k for k, o in enumerate(orders)}
    if options.aisle_cuts:
        cuts = [(f"aisle_cut_t%d_o{o}_i{sub.index}", offsets, rank[o])
                for sub, offsets, order_ids in zip(graph.subaisles, graph.derived(_aisle_cut_arcs),
                                                   _orders_by_subaisle(graph, picks))
                for o in order_ids]
        blocks.append(_cut_rows("aisle_cut", cuts, T, len(x)))
    if options.basic_cuts:
        cuts = [(f"basic_cut_t%d_o{o.id}_k{k}",
                 sorted(x[arc] for arc in graph.delta_plus(vertex_set)), rank[o.id])
                for o in orders
                for k, (vertex_set, contains_origin) in enumerate(
                    order_components(graph, picks[o.id]))
                if not contains_origin]
        blocks.append(_cut_rows("basic_cut", cuts, T, len(x)))
    if options.single_traversing:
        # no subaisle is fully traversed both ways; block-2 layouts exempt
        # the first subaisle
        exempt = frozenset(graph.subaisles[0].locs) if instance.layout.n_blocks == 2 else ()
        blocks.append(_compile(((f"sitr_t%d_o{o.id}_v{v}", "sitr",
                                 [(AB, a[v], 1), (AB, a[v] + 1, 1)], LE, 1)
                                for o in orders for v in sorted(picks[o.id]) if v not in exempt)))
    if options.artificial_vertex_reversal:
        blocks.append(graph.derived(_reversal_rows))
    return model, bases, blocks


def _symmetry_rows(instance: Instance) -> RowBlock:
    """Column inequalities over the order-to-picker assignment matrix.

    With orders ranked by id and pickers ordered, order of rank r may only
    go to pickers 1..r, and picker t can be used by rank r only if some
    earlier rank uses picker t-1.  Batches sorted by smallest order id
    always satisfy these rows, so at least one optimal batching survives.
    """
    T = instance.pickers
    z = {o.id: k * T for k, o in enumerate(instance.orders)}  # picker 0's offset
    ranked = sorted(instance.orders, key=lambda o: o.id)
    rows = []
    for r, o in enumerate(ranked, start=1):
        rows += [(f"col_fix_o{o.id}_t{t}", "col_fix", [(Z, z[o.id] + t, 1)], EQ, 0)
                 for t in range(r, T)]
        rows += [(f"col_link_o{o.id}_t{t}", "col_link", sorted([(Z, z[o.id] + t, 1)]
                  + [(Z, z[o2.id] + t - 1, -1) for o2 in ranked[:r - 1]]), LE, 0)
                 for t in range(1, min(r, T))]
    return _compile(rows, per_picker=False)


# -- TSP-style no-reversal models -------------------------------------------


def _tour_model(kind: str, instance: Instance, graph: PickingGraph, picks: Mapping,
                cross_aisle_bound: bool) -> tuple[LinearModel, list[int], list]:
    """Undirected TSP model on the graph's auxiliary graph: P_U1 on the
    single-block graph, P_U2 on the two-block one.

    Per picker: a departure row, the origin degree, the cover rows, the
    degree rows (P_U1's first subaisle tail first, under its own group)
    and, for P_U2 with ``cross_aisle_bound``, the second-cross-aisle bound.
    Returns the model with its variables declared, each family's base, and
    the row blocks to store: the tour's rows, compiled by this build, and
    the assignment rows.
    """
    aux = graph.auxiliary()
    T = instance.pickers
    s = graph.origin
    if kind == P_U1:
        depart, origin, cover, degree, assign, capacity = (
            "tspo0", "tspo1", "tspo2", "tspo4", "tspo6", "tspo7")
        departure = [e for e in aux.incident(s) if e.in_e1]
        lead = graph.subaisles[0].tail
    else:
        depart, origin, cover, degree, assign, capacity = (
            "tspt0", "tspt1", "tspt2", "tspt3", "tspt5", "tspt6")
        departure = [e for e in aux.incident(s) if not e.in_e3]
        lead = None

    model = _new_model(kind)
    # an edge's name head is its index's first part and "_", and its tail
    # the parts after the picker: var_name(("", u, v)) is "_u_v"
    indices = [e.var_index(0) for e in aux.edges]
    bases = model.add_variable_copies(BINARY, [
        ([index[0] + "_" for index in indices], [var_name(("",) + index[2:]) for index in indices],
         False),
        (["y_"] * len(aux.vertices), [f"_{v}" for v in aux.vertices], False),
        _assignment_family(instance)], T)
    model.set_objective_coeffs(range(T * len(aux.edges)), [e.length for e in aux.edges] * T)

    y = dict(zip(aux.vertices, range(len(aux.vertices))))

    def edge_sum(edges):
        return [(X, e.id, 1) for e in edges]

    def degree_row(name, group, u):
        return (name, group, edge_sum(aux.incident(u)) + [(Y, y[u], -2)], EQ, 0)

    rank = {o.id: k for k, o in enumerate(instance.orders)}
    rows = [(f"{depart}_t%d", depart, edge_sum(departure), GE, 1),
            (f"{origin}_t%d", origin, edge_sum(aux.incident(s)), EQ, 2)]
    rows += [(f"{cover}_t%d_i{sub.index}_o{o}", cover,
              [(X, aux.e_of_subaisle[sub.index], 1), (Z, rank[o] * T, -1)], GE, 0)
             for sub, order_ids in zip(graph.subaisles, _orders_by_subaisle(graph, picks))
             for o in order_ids]
    if lead is not None:
        rows.append(degree_row("tspo3_t%d", "tspo3", lead))
    rows += [degree_row(f"{degree}_t%d_u{u}", degree, u)
             for u in aux.vertices if u not in (s, lead)]
    if cross_aisle_bound:
        south = aux.south_set
        crossing = [e for e in aux.edges if (e.u in south) != (e.v in south)]
        rows.append(("less2con_t%d", "less2con", edge_sum(crossing), LE, 2))
    return model, bases, [_compile(rows), _assignment_rows(instance, assign, capacity)]


# -- the builder -------------------------------------------------------------


def build_model(instance: Instance, graph: PickingGraph, kind: str,
                options: Optional[ModelOptions] = None) -> LinearModel:
    """Build a formulation with the optional row families ``options`` asks
    for, after :func:`validate_options` accepts them."""
    options = options or _NO_OPTIONS
    validate_options(kind, options, instance)
    picks = instance.all_pick_vertices(graph)

    # validate_options refuses every arc-space family for the TSP kinds
    if kind in TSP_KINDS:
        model, bases, blocks = _tour_model(kind, instance, graph, picks,
                                           options.cross_aisle_bound)
    else:
        model, bases, blocks = _arc_model(kind, instance, graph, picks, options)
    if options.column_inequalities:
        blocks.append(_symmetry_rows(instance))
    model.add_row_blocks(blocks, instance.pickers, bases)
    model.meta["kind"] = kind
    model.meta["options"] = sorted(options.enabled())
    return model
