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
from .layout import PickingGraph
from .model import BINARY, CONTINUOUS, EQ, GE, LE, LinearModel
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
        model.declare_lazy_group(family, FAMILIES[family].description)
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


def _emit(model: LinearModel, pickers: int, *blocks: list) -> None:
    """Append each block's rows for pickers 0 to ``pickers - 1``, block by
    block and picker by picker, through one ``add_rows``.  Each row's terms
    are sorted once, for picker 0: families hold disjoint ranges of
    positions, so every shifted copy stays sorted."""
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
    model.add_rows(names, groups, senses, rhs, ends, positions, coefs)


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


def _basic_model(kind: str, instance: Instance, graph: PickingGraph,
                 subaisle_cuts: bool) -> LinearModel:
    """Arc-space model: routing, batching and a lazy connectivity family,
    then the subaisle cuts if asked for."""
    model = _new_model(kind)
    _declare_arc_core(model, instance, graph,
                      _alpha_beta_indices(instance, graph) if subaisle_cuts else ())
    labels = {"depart": "bs1", "cover": "bs2", "ydef": "bs3", "flow": "bs5",
              "assign": "bs6", "capacity": "bs7"}
    _arc_core_rows(model, instance, graph, labels, range(graph.n_vertices))
    if subaisle_cuts:
        _subaisle_rows(model, instance, graph)
    return model


def _subaisle_rows(model: LinearModel, instance: Instance, graph: PickingGraph) -> None:
    """Append the subaisle cut rows over the declared alpha and beta."""
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
    _emit(model, instance.pickers, chains, covers)


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
    _subaisle_rows(model, instance, graph)
    labels = {"depart": "impf1", "cover": "impf2", "ydef": "impf3", "flow": "impf9",
              "assign": "impf10", "capacity": "impf11"}
    _arc_core_rows(model, instance, graph, labels, graph.artificial_vertices)
    _gamma_rows(model, instance, graph)
    return model


def _flow_rows(model: LinearModel, instance: Instance, graph: PickingGraph) -> None:
    """P_F's connectivity: one flow per artificial vertex to the origin."""
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


def _strengthened_rows(model: LinearModel, instance: Instance, graph: PickingGraph,
                       group: str) -> None:
    """Aisle cuts (one subaisle per set), else basic cuts (order components)."""
    if group == "aisle_cut":
        cuts = [(f"aisle_cut_t%d_o{o}_i{sub.index}", graph.delta_plus(sub.locs), o)
                for sub, order_ids in zip(graph.subaisles, _orders_by_subaisle(instance, graph))
                for o in order_ids]
    else:
        cuts = [(f"basic_cut_t%d_o{o.id}_k{k}", graph.delta_plus(vertex_set), o.id)
                for o in instance.orders
                for k, (vertex_set, contains_origin) in enumerate(
                    order_components(graph, instance.pick_vertices(graph, o)))
                if not contains_origin]
    x, X = _arcs(model, graph)
    z = _orders(model, instance)
    # one block per cut, so that the pickers of a cut are consecutive rows
    blocks = [[(name, group, [(x[arc], 1, X) for arc in arcs] + [(z[o], -1, 1)], GE, 0)]
              for name, arcs, o in cuts]
    _emit(model, instance.pickers, *blocks)


def _single_traversing_rows(model: LinearModel, instance: Instance,
                            graph: PickingGraph) -> None:
    """No subaisle is fully traversed both ways; block-2 layouts exempt
    the first subaisle."""
    exempt: frozenset[int] = frozenset()
    if instance.layout.n_blocks == 2:
        exempt = frozenset(graph.subaisles[0].locs)
    a, b, AB = _alpha_beta(model, graph)
    picks = instance.all_pick_vertices(graph)
    rows = [(f"sitr_t%d_o{o.id}_v{v}", "sitr", [(a[v], 1, AB), (b[v], 1, AB)], LE, 1)
            for o in instance.orders for v in sorted(picks[o.id]) if v not in exempt]
    _emit(model, instance.pickers, rows)


def _no_reversal_rows(model: LinearModel, instance: Instance, graph: PickingGraph) -> None:
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
    _emit(model, instance.pickers, rows)


def _reversal_rows(model: LinearModel, instance: Instance, graph: PickingGraph) -> None:
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
    _emit(model, instance.pickers, rows)


def _symmetry_rows(model: LinearModel, instance: Instance) -> None:
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
    model.add_rows(names, groups, senses, [0] * len(names), list(accumulate(map(len, terms))),
                   [pos for pos, _ in flat], [coef for _, coef in flat])


# -- TSP-style no-reversal models -------------------------------------------


def _tour_model(kind: str, instance: Instance, graph: PickingGraph,
                cross_aisle_bound: bool) -> LinearModel:
    """Undirected TSP model on the graph's auxiliary graph: P_U1 on the
    single-block graph, P_U2 on the two-block one.

    Per picker: a departure row, the origin degree, the cover rows, the
    degree rows (P_U1's first subaisle tail first, under its own group)
    and, for P_U2 with ``cross_aisle_bound``, the second-cross-aisle bound.
    """
    aux = graph.auxiliary()
    model = _new_model(kind)
    T = instance.pickers
    s = graph.origin
    if kind == P_U1:
        labels = {"depart": "tspo0", "origin": "tspo1", "cover": "tspo2", "lead": "tspo3",
                  "degree": "tspo4", "assign": "tspo6", "capacity": "tspo7"}
        departure = [e for e in aux.incident(s) if e.in_e1]
        lead = graph.subaisles[0].tail
    else:
        labels = {"depart": "tspt0", "origin": "tspt1", "cover": "tspt2", "degree": "tspt3",
                  "assign": "tspt5", "capacity": "tspt6"}
        departure = [e for e in aux.incident(s) if not e.in_e3]
        lead = None

    first = model.add_variables(BINARY, [e.var_index(t) for t in range(T) for e in aux.edges]
                                + [("y", t, v) for t in range(T) for v in aux.vertices]
                                + _assignment_indices(instance))
    model.set_objective_coeffs(range(first, first + T * len(aux.edges)),
                               [e.length for e in aux.edges] * T)
    E = len(aux.edges)
    y, Y = _family(model, ("y", 0, aux.vertices[0]), aux.vertices), len(aux.vertices)
    z = _orders(model, instance)

    def edge_sum(edges):
        return [(first + e.id, 1, E) for e in edges]

    def degree(u):
        return edge_sum(aux.incident(u)) + [(y[u], -2, Y)]

    rows = [(f"{labels['depart']}_t%d", labels["depart"], edge_sum(departure), GE, 1),
            (f"{labels['origin']}_t%d", labels["origin"], edge_sum(aux.incident(s)), EQ, 2)]
    for sub, order_ids in zip(graph.subaisles, _orders_by_subaisle(instance, graph)):
        traversal = (first + aux.e_of_subaisle[sub.index], 1, E)
        rows += [(f"{labels['cover']}_t%d_i{sub.index}_o{o}", labels["cover"],
                  [traversal, (z[o], -1, 1)], GE, 0) for o in order_ids]
    if lead is not None:
        rows.append((f"{labels['lead']}_t%d", labels["lead"], degree(lead), EQ, 0))
    rows += [(f"{labels['degree']}_t%d_u{u}", labels["degree"], degree(u), EQ, 0)
             for u in aux.vertices if u not in (s, lead)]
    if cross_aisle_bound:
        rows.append(("less2con_t%d", "less2con", edge_sum(aux.delta(aux.south_set)), LE, 2))
    _emit(model, T, rows)

    _assignment_rows(model, instance, labels["assign"], labels["capacity"])
    return model


# -- the builder -------------------------------------------------------------


def build_model(instance: Instance, graph: PickingGraph, kind: str,
                options: Optional[ModelOptions] = None) -> LinearModel:
    """Build a formulation with the optional row families ``options`` asks
    for, after :func:`validate_options` accepts them."""
    options = options or ModelOptions()
    validate_options(kind, options, instance)

    if kind in TSP_KINDS:
        model = _tour_model(kind, instance, graph, options.cross_aisle_bound)
    elif kind in (P_BASIC, P_A):
        model = _basic_model(kind, instance, graph, kind == P_A or options.subaisle_cuts)
    else:
        model = _improved_model(kind, instance, graph)
        if kind == P_F:
            _flow_rows(model, instance, graph)
        elif kind == P_U:
            _no_reversal_rows(model, instance, graph)

    # validate_options refuses every arc-space family for the TSP kinds
    if options.aisle_cuts:
        _strengthened_rows(model, instance, graph, "aisle_cut")
    if options.basic_cuts:
        _strengthened_rows(model, instance, graph, "basic_cut")
    if options.single_traversing:
        _single_traversing_rows(model, instance, graph)
    if options.artificial_vertex_reversal:
        _reversal_rows(model, instance, graph)
    if options.column_inequalities:
        _symmetry_rows(model, instance)
    model.meta["kind"] = kind
    model.meta["options"] = sorted(options.enabled())
    return model
