"""Integral separation of the lazy connectivity families.

Candidate assignments must be integral (the branch-and-cut procedure this
feeds separates at integral nodes only).  For each picker, the support
multigraph of the relevant variables is searched from the origin; every
connected component away from the origin that contains an anchored vertex
yields one cut request, anchored at its smallest-index visited vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

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


def _require_integral(assignment: VariableAssignment) -> None:
    if not assignment.is_integral():
        raise SeparationError(
            "fractional assignment rejected: separation runs on integral candidates only")


def separate_connectivity(graph: PickingGraph, kind: str, assignment: VariableAssignment,
                          instance: Instance,
                          aux: Optional[AuxiliaryGraph] = None) -> list[CutRequest]:
    """Connectivity cuts violated by an integral candidate assignment."""
    _require_integral(assignment)
    family = FAMILY_OF_KIND.get(kind)
    if family is None:
        raise ValidationError(f"formulation {kind!r} has no lazy connectivity family")
    if family in ("tspo5", "tspt4") and aux is None:
        aux = build_auxiliary_graph(
            graph, SINGLE_BLOCK if family == "tspo5" else TWO_BLOCK)

    # picking locations only anchor the full arc-space family
    if family == "bs4":
        vertices = range(graph.n_vertices)
    elif family == "impf8":
        vertices = graph.artificial_vertices
    else:
        vertices = aux.vertices

    def value(*index):
        return assignment.get(var_name(index))

    cuts: list[CutRequest] = []
    for t in range(instance.pickers):
        support: list[tuple[int, int]] = []
        if family == "bs4":
            for u, v in graph.edges:
                if value("x", t, u, v) or value("x", t, v, u):
                    support.append((u, v))
        elif family == "impf8":
            for u, v, _, _ in graph.reduced_edges:
                if value("g", t, u, v) or value("g", t, v, u):
                    support.append((u, v))
        else:
            for e in aux.edges:
                if value(*e.var_index(t)):
                    support.append((e.u, e.v))

        anchored = {v for v in vertices if value("y", t, v) == 1}
        for comp in connected_components(support, anchored):
            hits = comp & anchored
            if hits and graph.origin not in comp:
                cuts.append(CutRequest(picker=t, vertex_set=frozenset(comp),
                                       family=family, anchor_vertex=min(hits)))
    return sorted(cuts, key=CutRequest.sort_key)


def cut_to_row(cut: CutRequest, model: LinearModel, graph: PickingGraph,
               aux: Optional[AuxiliaryGraph] = None,
               name: Optional[str] = None) -> Constraint:
    """Materialize a cut request as a constraint row on the model."""
    t = cut.picker
    S = cut.vertex_set
    if name is None:
        name = f"{cut.family}_t{t}_c{len(model.rows_in_group(cut.family))}"

    if cut.family == "bs4":
        coeffs = [(model.var("x", t, u, v), 1) for u, v in graph.delta_plus(S)]
        coeffs.append((model.var("y", t, cut.anchor_vertex), -1))
        return model.add_row(name, cut.family, coeffs, GE, 0)

    if cut.family == "impf8":
        coeffs = [(model.var("g", t, u, v), 1) for u, v in graph.eta_plus(S)]
        coeffs.append((model.var("y", t, cut.anchor_vertex), -1))
        return model.add_row(name, cut.family, coeffs, GE, 0)

    if cut.family in ("tspo5", "tspt4"):
        if aux is None:
            raise ValidationError(f"{cut.family} cut needs the auxiliary graph")
        coeffs = [(model.var(*e.var_index(t)), 1) for e in aux.delta(S)]
        coeffs.append((model.var("y", t, cut.anchor_vertex), -2))
        return model.add_row(name, cut.family, coeffs, GE, 0)

    raise ValidationError(f"unknown cut family {cut.family!r}")
