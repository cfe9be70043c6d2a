"""Integral separation of the lazy connectivity families.

``FAMILY_OF_KIND`` maps each formulation to its family, and ``FAMILIES``
describes each family once: its anchor vertices, the edges its cuts count
(with the picker's variable for leaving either end), its anchor coefficient
and the description a model export carries.  The two tour families live on
the picking graph's auxiliary graph (:meth:`PickingGraph.auxiliary`), so they
share one entry.  Separation, cut rows and the model builder all read that
table.

Candidate assignments must be integral (the branch-and-cut procedure this
feeds separates at integral nodes only).  For each picker, the support
multigraph of the family's edge variables is searched from the origin;
every connected component away from the origin that contains an anchored
vertex yields one cut request, anchored at its smallest-index visited vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .errors import SeparationError, ValidationError
from .instance import Instance
from .layout import PickingGraph, connected_components
from .model import GE, Constraint, LinearModel, VariableAssignment, var_name

FAMILY_OF_KIND = {
    "P_basic": "bs4",
    "P_A": "bs4",
    "P_G": "impf8",
    "P_U": "impf8",
    "P_U1": "tspo5",
    "P_U2": "tspt4",
}


@dataclass(frozen=True)
class Family:
    """A lazy connectivity family.  A picker who visits an anchor vertex in a
    set S away from the origin leaves S: the variables for leaving S along
    ``edges`` sum to at least ``-anchor_coeff`` times the anchor's ``y``
    (once on arcs, twice on a tour)."""

    anchors: Callable  # graph -> anchor vertices
    edges: Callable  # (graph, picker) -> [(u, v, index leaving u, index leaving v)]
    anchor_coeff: int
    description: str  # the model's ``lazy_groups`` entry


def _graph_arcs(graph: PickingGraph, t: int) -> list:
    return [(u, v, ("x", t, u, v), ("x", t, v, u)) for u, v in graph.edges]


def _reduced_arcs(graph: PickingGraph, t: int) -> list:
    return [(u, v, ("g", t, u, v), ("g", t, v, u)) for u, v, _, _ in graph.reduced_edges]


def _tour_edges(graph: PickingGraph, t: int) -> list:
    # an undirected tour edge has one variable, whichever end is inside
    return [(e.u, e.v, index, index)
            for e in graph.auxiliary().edges for index in (e.var_index(t),)]


_TOUR = Family(lambda graph: graph.auxiliary().vertices, _tour_edges, -2,
               "two-connectivity (lazy, exponential)")

# picking locations only anchor the full arc-space family
FAMILIES = {
    "bs4": Family(lambda graph: range(graph.n_vertices), _graph_arcs, -1,
                  "connectivity (lazy, exponential)"),
    "impf8": Family(lambda graph: graph.artificial_vertices, _reduced_arcs, -1,
                    "reduced-graph connectivity (lazy, exponential)"),
    "tspo5": _TOUR,
    "tspt4": _TOUR,
}


@dataclass(frozen=True)
class CutRequest:
    picker: int
    vertex_set: frozenset[int]
    family: str
    anchor_vertex: Optional[int] = None


def order_components(graph: PickingGraph,
                     picks: Iterable[int]) -> tuple[tuple[frozenset[int], bool], ...]:
    """Components of the artificial subgraph spanned by an order's subaisles,
    each as ``(vertex set, contains_origin)``.

    Non-origin component sets are augmented with the interior picking
    locations of every subaisle whose both endpoints lie inside.
    """
    picks = frozenset(picks)
    if not picks:
        raise ValidationError("order has no picks")
    sub_ids = {graph.subaisle_of(v) for v in picks}
    if None in sub_ids:
        raise ValidationError("picks must be picking locations")

    v0: set[int] = set()
    for i in sub_ids:
        sub = graph.subaisles[i]
        v0.add(sub.head)
        v0.add(sub.tail)
    edges = [(u, v) for u, v, _, _ in graph.reduced_edges if u in v0 and v in v0]
    components = []
    for comp in connected_components(edges, v0):
        contains_origin = graph.origin in comp
        full = set(comp)
        if not contains_origin:
            for sub in graph.subaisles:
                if sub.head in comp and sub.tail in comp:
                    full.update(sub.locs)
        components.append((frozenset(full), contains_origin))
    return tuple(components)


def separate_connectivity(graph: PickingGraph, kind: str, assignment: VariableAssignment,
                          instance: Instance) -> list[CutRequest]:
    """Connectivity cuts violated by an integral candidate assignment, by
    picker and then by smallest vertex, the order in which
    :func:`connected_components` yields the components."""
    if not assignment.is_integral():
        raise SeparationError(
            "fractional assignment rejected: separation runs on integral candidates only")
    name = FAMILY_OF_KIND.get(kind)
    if name is None:
        raise ValidationError(f"formulation {kind!r} has no lazy connectivity family")
    family = FAMILIES[name]
    anchors = family.anchors(graph)
    values = assignment.values

    cuts: list[CutRequest] = []
    for t in range(instance.pickers):
        support = [(u, v) for u, v, out_u, out_v in family.edges(graph, t)
                   if values.get(var_name(out_u)) or values.get(var_name(out_v))]
        anchored = {v for v in anchors if values.get(var_name(("y", t, v))) == 1}
        for comp in connected_components(support, anchored):
            hits = comp & anchored
            if hits and graph.origin not in comp:
                cuts.append(CutRequest(picker=t, vertex_set=frozenset(comp),
                                       family=name, anchor_vertex=min(hits)))
    return cuts


def cut_to_row(cut: CutRequest, model: LinearModel, graph: PickingGraph) -> Constraint:
    """Materialize a cut request as a constraint row on the model.

    The row counts every edge leaving ``cut.vertex_set`` by the variable for
    leaving it from inside.
    """
    family = FAMILIES.get(cut.family)
    if family is None:
        raise ValidationError(f"unknown cut family {cut.family!r}")
    t = cut.picker
    S = cut.vertex_set
    name = f"{cut.family}_t{t}_c{model.group_counts().get(cut.family, 0)}"
    coeffs = [(model.var(*(out_u if u in S else out_v)), 1)
              for u, v, out_u, out_v in family.edges(graph, t) if (u in S) != (v in S)]
    coeffs.append((model.var("y", t, cut.anchor_vertex), family.anchor_coeff))
    return model.add_row(name, cut.family, coeffs, GE, 0)
