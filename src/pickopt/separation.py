"""Integral separation of the lazy connectivity families.

``FAMILY_OF_KIND`` maps each formulation to its family, and ``FAMILIES``
describes each family once: its anchor vertices, the edges its cuts count
(with the picker's variable for leaving either end), its anchor coefficient
and the auxiliary graph it lives on.  Separation, cut rows and the model
builders all read that table.

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
from .layout import (SINGLE_BLOCK, TWO_BLOCK, AuxiliaryGraph, PickingGraph,
                     build_auxiliary_graph, connected_components)
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

    anchors: Callable  # (graph, aux) -> anchor vertices
    edges: Callable  # (graph, aux, picker) -> [(u, v, index leaving u, index leaving v)]
    anchor_coeff: int
    aux_variant: Optional[str] = None  # the auxiliary graph the family lives on

    def aux_graph(self, graph: PickingGraph) -> Optional[AuxiliaryGraph]:
        """The auxiliary graph the family lives on, or None for arc families."""
        if self.aux_variant is None:
            return None
        return build_auxiliary_graph(graph, self.aux_variant)


def _graph_arcs(graph: PickingGraph, aux, t: int) -> list:
    return [(u, v, ("x", t, u, v), ("x", t, v, u)) for u, v in graph.edges]


def _reduced_arcs(graph: PickingGraph, aux, t: int) -> list:
    return [(u, v, ("g", t, u, v), ("g", t, v, u)) for u, v, _, _ in graph.reduced_edges]


def _tour_edges(graph: PickingGraph, aux: AuxiliaryGraph, t: int) -> list:
    # an undirected tour edge has one variable, whichever end is inside
    return [(e.u, e.v, index, index) for e in aux.edges for index in (e.var_index(t),)]


# picking locations only anchor the full arc-space family
FAMILIES = {
    "bs4": Family(lambda graph, aux: range(graph.n_vertices), _graph_arcs, -1),
    "impf8": Family(lambda graph, aux: graph.artificial_vertices, _reduced_arcs, -1),
    "tspo5": Family(lambda graph, aux: aux.vertices, _tour_edges, -2, SINGLE_BLOCK),
    "tspt4": Family(lambda graph, aux: aux.vertices, _tour_edges, -2, TWO_BLOCK),
}


@dataclass(frozen=True)
class CutRequest:
    picker: int
    vertex_set: frozenset[int]
    family: str
    anchor_vertex: Optional[int] = None

    def sort_key(self):
        return (self.picker, min(self.vertex_set))


@dataclass(frozen=True)
class OrderComponents:
    """Connected components of the reduced subgraph induced by one order."""

    components: tuple[tuple[frozenset[int], bool], ...]  # (vertex set, contains_origin)

    def non_origin_sets(self) -> list[frozenset[int]]:
        return [S for S, has_origin in self.components if not has_origin]


def order_components(graph: PickingGraph, picks: Iterable[int]) -> OrderComponents:
    """Components of the artificial subgraph spanned by an order's subaisles.

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
    return OrderComponents(tuple(components))


def separate_connectivity(graph: PickingGraph, kind: str, assignment: VariableAssignment,
                          instance: Instance,
                          aux: Optional[AuxiliaryGraph] = None) -> list[CutRequest]:
    """Connectivity cuts violated by an integral candidate assignment."""
    if not assignment.is_integral():
        raise SeparationError(
            "fractional assignment rejected: separation runs on integral candidates only")
    name = FAMILY_OF_KIND.get(kind)
    if name is None:
        raise ValidationError(f"formulation {kind!r} has no lazy connectivity family")
    family = FAMILIES[name]
    if aux is None:
        aux = family.aux_graph(graph)
    anchors = family.anchors(graph, aux)
    values = assignment.values

    cuts: list[CutRequest] = []
    for t in range(instance.pickers):
        support = [(u, v) for u, v, out_u, out_v in family.edges(graph, aux, t)
                   if values.get(var_name(out_u)) or values.get(var_name(out_v))]
        anchored = {v for v in anchors if values.get(var_name(("y", t, v))) == 1}
        for comp in connected_components(support, anchored):
            hits = comp & anchored
            if hits and graph.origin not in comp:
                cuts.append(CutRequest(picker=t, vertex_set=frozenset(comp),
                                       family=name, anchor_vertex=min(hits)))
    return sorted(cuts, key=CutRequest.sort_key)


def cut_to_row(cut: CutRequest, model: LinearModel, graph: PickingGraph,
               aux: Optional[AuxiliaryGraph] = None,
               name: Optional[str] = None) -> Constraint:
    """Materialize a cut request as a constraint row on the model.

    The row counts every edge leaving ``cut.vertex_set`` by the variable for
    leaving it from inside.  A family on an auxiliary graph builds that graph
    when ``aux`` is not given.
    """
    family = FAMILIES.get(cut.family)
    if family is None:
        raise ValidationError(f"unknown cut family {cut.family!r}")
    if aux is None:
        aux = family.aux_graph(graph)
    t = cut.picker
    S = cut.vertex_set
    if name is None:
        name = f"{cut.family}_t{t}_c{model.group_counts().get(cut.family, 0)}"
    coeffs = [(model.var(*(out_u if u in S else out_v)), 1)
              for u, v, out_u, out_v in family.edges(graph, aux, t) if (u in S) != (v in S)]
    coeffs.append((model.var("y", t, cut.anchor_vertex), family.anchor_coeff))
    return model.add_row(name, cut.family, coeffs, GE, 0)
