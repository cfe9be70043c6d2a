"""Warehouse geometry, the sparse picking graph and auxiliary graphs.

Conventions used throughout the package:

* The warehouse has ``n_aisles`` vertical picking aisles and ``n_blocks``
  blocks, hence ``n_blocks + 1`` horizontal cross aisles (numbered top to
  bottom starting at 0) and ``n_aisles * n_blocks`` subaisles.
* Subaisle indices are block-major: subaisle ``i = block * n_aisles + aisle``,
  so index 0 is the topmost left subaisle.
* Artificial locations (subaisle endpoints) come first in the vertex
  numbering: vertex ``cross * n_aisles + aisle``.  The origin is vertex 0,
  the top left artificial location.  Picking locations follow, chain by
  chain from north to south: :meth:`WarehouseLayout.location` numbers
  them, ``n_aisles * (n_blocks + 1) + subaisle * locs_per_subaisle + slot``.
* Every subaisle is modelled as a single chain of picking locations; picks
  on either side of the aisle map to the same chain vertex.
* One length rule: a single step costs its spacing as it stands,
  ``loc_spacing`` vertically (endpoints included), ``aisle_spacing``
  between neighbouring artificial locations; every longer length is
  :func:`_price` of its vertical and horizontal step counts.  So are a
  subaisle (``locs_per_subaisle + 1`` vertical steps), a walk, an auxiliary
  edge from the origin (the shortest walk it stands for) and the S-shape
  estimate of :mod:`pickopt.heuristics`.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, TypeVar

from .errors import ValidationError, VariantMismatchError

_T = TypeVar("_T")


@dataclass(frozen=True)
class WarehouseLayout:
    n_aisles: int
    n_blocks: int
    locs_per_subaisle: int
    loc_spacing: float = 1
    aisle_spacing: float = 2

    def __post_init__(self):
        for name in ("n_aisles", "n_blocks", "locs_per_subaisle"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 1:
                raise ValidationError(f"layout.{name} must be an integer >= 1, got {value!r}")
        for name in ("loc_spacing", "aisle_spacing"):
            value = getattr(self, name)
            # a bool is an int, but no file can hold it; NaN fails every comparison
            if (not isinstance(value, (int, float)) or isinstance(value, bool)
                    or not 0 < value < math.inf):
                raise ValidationError(f"layout.{name} must be a finite number > 0, got {value!r}")
            if isinstance(value, float) and value.is_integer():
                # 2.0 and 2 are one layout: store the int, so that files and
                # reports print the same bytes for both spellings
                object.__setattr__(self, name, int(value))

    def location(self, aisle: int, block: int, slot: int) -> int:
        """Vertex of picking location ``slot`` of the subaisle at ``aisle``
        in ``block``; the caller checks the coordinates."""
        n = self.n_aisles
        return n * (self.n_blocks + 1) + (block * n + aisle) * self.locs_per_subaisle + slot


def _price(layout: WarehouseLayout, vertical, horizontal):
    """Length of a walk with ``vertical`` chain-edge and ``horizontal``
    cross-aisle traversals, on ints and numpy arrays alike: the one place a
    spacing is multiplied by a step count."""
    return layout.loc_spacing * vertical + layout.aisle_spacing * horizontal


@dataclass(frozen=True)
class Subaisle:
    """One subaisle chain: head (north endpoint), picking locations, tail."""

    index: int
    block: int
    aisle: int
    head: int
    tail: int
    locs: tuple[int, ...]
    edge_ids: tuple[int, ...]  # chain edges, north to south


class PickingGraph:
    """Sparse graph of a rectangular warehouse.

    Immutable after construction; values derived from the graph alone
    (:meth:`derived`) are cached internally, invisible to callers.
    """

    def __init__(self, layout: WarehouseLayout):
        self.layout = layout
        n, q, m = layout.n_aisles, layout.n_blocks, layout.locs_per_subaisle

        self.n_artificial = n * (q + 1)
        self.n_picking = n * q * m
        self.n_vertices = self.n_artificial + self.n_picking
        self.origin = 0

        subaisles = []
        edges: list[tuple[int, int]] = []
        north: dict[int, int] = {}
        south: dict[int, int] = {}
        vertex_subaisle: dict[int, int] = {}

        for b in range(q):
            for a in range(n):
                i = b * n + a
                head = b * n + a
                tail = (b + 1) * n + a
                locs = tuple(layout.location(a, b, k) for k in range(m))
                for v in locs:
                    vertex_subaisle[v] = i
                chain = (head,) + locs + (tail,)
                eids = []
                for u, v in zip(chain, chain[1:]):
                    eids.append(len(edges))
                    edges.append((u, v))
                    south[u] = v
                    north[v] = u
                subaisles.append(Subaisle(i, b, a, head, tail, locs, tuple(eids)))

        for c in range(q + 1):
            for a in range(n - 1):
                edges.append((c * n + a, c * n + a + 1))

        self.edges = tuple(edges)
        self.n_chain_edges = n * q * (m + 1)  # ids below it: chain edges, loc_spacing long
        self.subaisles = tuple(subaisles)
        self._north = north
        self._south = south
        self._vertex_subaisle = vertex_subaisle

        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n_vertices)]
        for eid, (u, v) in enumerate(self.edges):
            adj[u].append((v, eid))
            adj[v].append((u, eid))
        self.adjacency = tuple(tuple(sorted(lst)) for lst in adj)

        # Reduced graph: artificial locations only, one edge per subaisle plus
        # the cross-aisle edges.  Hosts the gamma connectivity variables.
        d_sub = _price(layout, m + 1, 0)
        reduced = [(sub.head, sub.tail, d_sub, sub.index) for sub in self.subaisles]
        reduced += [(u, v, layout.aisle_spacing, None) for u, v in edges[self.n_chain_edges:]]
        self.reduced_edges = tuple(reduced)
        self._arcs = tuple(arc for u, v in self.edges for arc in ((u, v), (v, u)))
        self._reduced_arcs = tuple(arc for u, v, _, _ in reduced for arc in ((u, v), (v, u)))

        self._derived: dict = {}

    # -- vertex helpers -------------------------------------------------

    def artificial_vertex(self, cross: int, aisle: int) -> int:
        n, q = self.layout.n_aisles, self.layout.n_blocks
        if not (0 <= cross <= q and 0 <= aisle < n):
            raise ValidationError(f"artificial location ({cross}, {aisle}) out of range")
        return cross * n + aisle

    def is_artificial(self, v: int) -> bool:
        return v < self.n_artificial

    @property
    def artificial_vertices(self) -> range:
        return range(self.n_artificial)

    @property
    def picking_vertices(self) -> range:
        return range(self.n_artificial, self.n_vertices)

    def subaisle_of(self, v: int) -> Optional[int]:
        """Subaisle index of a picking location, None for artificial ones."""
        return self._vertex_subaisle.get(v)

    def north_of(self, v: int) -> int:
        return self._north[v]

    def south_of(self, v: int) -> int:
        return self._south[v]

    def q_west(self, v: int) -> Optional[int]:
        c, a = divmod(v, self.layout.n_aisles)
        return self.artificial_vertex(c, a - 1) if a >= 1 else None

    def q_east(self, v: int) -> Optional[int]:
        c, a = divmod(v, self.layout.n_aisles)
        return self.artificial_vertex(c, a + 1) if a < self.layout.n_aisles - 1 else None

    # -- arc views -------------------------------------------------------

    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Directed arcs: each edge replaced by its two orientations."""
        return self._arcs

    def edge_id(self, u: int, v: int) -> int:
        if 0 <= u < self.n_vertices:  # a negative u would index from the end
            for w, eid in self.adjacency[u]:
                if w == v:
                    return eid
        raise ValidationError(f"no edge between {u} and {v}")

    def delta_plus(self, s_set: Iterable[int]) -> list[tuple[int, int]]:
        """Arcs leaving the vertex set."""
        inside = set(s_set)
        out = []
        for u, v in self.edges:
            if (u in inside) != (v in inside):
                out.append((u, v) if u in inside else (v, u))
        return out

    def reduced_arcs(self) -> tuple[tuple[int, int], ...]:
        return self._reduced_arcs

    # -- derived values --------------------------------------------------

    def derived(self, build: Callable[[PickingGraph], _T]) -> _T:
        """``build(self)``, made on the first call with ``build`` and kept
        with the graph, which is immutable: the auxiliary graph, the walk
        space of :mod:`pickopt.exact`, and the row blocks
        :mod:`pickopt.formulations` compiles from the graph alone.  A
        derived value must hold no reference to the graph, so that dropping
        the graph frees it without the cycle collector."""
        value = self._derived.get(build)
        if value is None:
            value = self._derived[build] = build(self)
        return value

    def auxiliary(self) -> AuxiliaryGraph:
        """The layout's auxiliary no-reversal graph, built on first use."""
        return self.derived(build_auxiliary_graph)


def build_graph(layout: WarehouseLayout) -> PickingGraph:
    """Build the sparse picking graph for a layout.

    Counts follow directly from the construction: ``n_aisles * (n_blocks+1)``
    artificial locations, ``locs_per_subaisle`` picking locations per
    subaisle, ``locs_per_subaisle + 1`` vertical edges per subaisle and
    ``n_aisles - 1`` edges per cross aisle.
    """
    return PickingGraph(layout)


def connected_components(edges: Iterable[tuple[int, int]],
                         vertices: Iterable[int] = ()) -> list[set[int]]:
    """Components of the undirected graph on ``vertices`` and the edges'
    endpoints, ordered by their smallest vertex."""
    adj: defaultdict[int, list[int]] = defaultdict(list, {v: [] for v in vertices})
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    comps = []
    for start in sorted(adj):
        if start in seen:
            continue
        comp = {start}
        stack = [start]
        while stack:
            for v in adj[stack.pop()]:
                if v not in comp:
                    comp.add(v)
                    stack.append(v)
        seen |= comp
        comps.append(comp)
    return comps


@dataclass(frozen=True)
class AuxEdge:
    """Edge of an auxiliary no-reversal graph.

    ``in_e1``, ``in_e2`` and ``in_e3`` tell which of the graph's edge sets
    hold the edge, and ``parallel`` marks the single-block copy of the first
    subaisle edge.  ``AuxiliaryGraph.e_of_subaisle`` names the edge of each
    subaisle's first traversal.
    """

    id: int
    u: int
    v: int
    length: float
    in_e1: bool = False
    in_e2: bool = False
    in_e3: bool = False
    parallel: bool = False

    def var_index(self, picker: int) -> tuple:
        """Index of the picker's tour variable on this edge: ``("xt", picker)``
        for the single-block parallel edge, family ``xt`` for the two-block
        return edges (E3), ``x`` otherwise."""
        if self.parallel:
            return ("xt", picker)
        return ("xt" if self.in_e3 else "x", picker, self.u, self.v)


@dataclass(frozen=True)
class AuxiliaryGraph:
    """Auxiliary undirected graph for the no-reversal TSP formulations.

    The block count decides its shape; :meth:`PickingGraph.auxiliary` holds
    the one a picking graph has, and the auxiliary graph keeps no reference
    back to it.

    Single block (P_U1): vertices are the artificial locations, edge set is
    the reduced graph plus a star of return edges from the origin, and last
    a parallel copy of the first subaisle edge (``AuxEdge.parallel``).

    Two block (P_U2): the second (middle) cross aisle is doubled.  Copies
    sit at the same physical position as their originals, are joined to
    them by zero-length edges and carry the second cross aisle's second
    pass and the second traversal of each subaisle.

    An edge from the origin stands for the shortest walk to its other end
    and is priced by the walk rule, :func:`_price`, so that a tour and the
    walk it encodes have one length.
    """

    vertices: tuple[int, ...]
    copy_of: dict[int, int]
    edges: tuple[AuxEdge, ...]
    e_of_subaisle: dict[int, int]
    south_set: frozenset[int]
    _incident: dict[int, tuple[AuxEdge, ...]] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        incident: dict[int, list[AuxEdge]] = {v: [] for v in self.vertices}
        for e in self.edges:
            incident[e.u].append(e)
            incident[e.v].append(e)
        object.__setattr__(self, "_incident",
                           {v: tuple(edges) for v, edges in incident.items()})

    def incident(self, w: int) -> tuple[AuxEdge, ...]:
        return self._incident.get(w, ())


def build_auxiliary_graph(graph: PickingGraph) -> AuxiliaryGraph:
    """Construct the auxiliary graph of a picking graph: the single-block
    graph on one block, the two-block graph on two.  Prefer
    :meth:`PickingGraph.auxiliary`, which builds it once per graph."""
    blocks = graph.layout.n_blocks
    if blocks == 1:
        return _build_single_block(graph)
    if blocks == 2:
        return _build_two_block(graph)
    raise VariantMismatchError(
        f"auxiliary graphs exist for 1- and 2-block layouts, layout has {blocks} blocks")


def _from_origin(layout: WarehouseLayout, v: int):
    """Length of the shortest walk from the origin to artificial location
    ``v`` on cross aisle c and aisle a: c subaisles south, a steps east."""
    c, a = divmod(v, layout.n_aisles)
    return _price(layout, c * (layout.locs_per_subaisle + 1), a)


def _build_single_block(graph: PickingGraph) -> AuxiliaryGraph:
    layout = graph.layout
    s = graph.origin
    edges: list[AuxEdge] = []
    index: dict[frozenset, int] = {}
    e_of_subaisle: dict[int, int] = {}

    for u, v, length, sub in graph.reduced_edges:
        eid = index[frozenset((u, v))] = len(edges)
        edges.append(AuxEdge(eid, u, v, length, in_e1=True))
        if sub is not None:
            e_of_subaisle[sub] = eid
    # E2, a star from the origin; a star edge along an E1 edge is that edge
    for v in graph.artificial_vertices:
        if v != s:
            eid = index.get(frozenset((s, v)))
            if eid is None:
                edges.append(AuxEdge(len(edges), s, v, _from_origin(layout, v), in_e2=True))
            else:
                edges[eid] = replace(edges[eid], in_e2=True)
    # last, so the tour variables keep their order
    edges.append(AuxEdge(len(edges), s, graph.subaisles[0].tail,
                         edges[e_of_subaisle[0]].length, parallel=True))

    return AuxiliaryGraph(
        vertices=tuple(graph.artificial_vertices),
        copy_of={},
        edges=tuple(edges),
        e_of_subaisle=e_of_subaisle,
        south_set=frozenset(),
    )


def _build_two_block(graph: PickingGraph) -> AuxiliaryGraph:
    layout = graph.layout
    n = layout.n_aisles
    s = graph.origin
    d_sub = _price(layout, layout.locs_per_subaisle + 1, 0)

    top = [graph.artificial_vertex(0, a) for a in range(n)]
    mid = [graph.artificial_vertex(1, a) for a in range(n)]
    bot = [graph.artificial_vertex(2, a) for a in range(n)]
    copies = [graph.n_vertices + a for a in range(n)]
    copy_of = {copies[a]: mid[a] for a in range(n)}

    edges: list[AuxEdge] = []
    e_of_subaisle: dict[int, int] = {}

    def add(u, v, length, **flags) -> int:
        eid = len(edges)
        edges.append(AuxEdge(eid, u, v, length, **flags))
        return eid

    # E1: neighboring vertices, with the copy row standing in for the second
    # pass of the middle cross aisle and hosting the block-2 verticals.
    for row in (top, mid, copies, bot):
        for a in range(n - 1):
            add(row[a], row[a + 1], layout.aisle_spacing, in_e1=True)
    for a in range(n):
        eid = add(top[a], mid[a], d_sub, in_e1=True)
        e_of_subaisle[a] = eid
        add(mid[a], copies[a], 0, in_e1=True)
        eid = add(copies[a], bot[a], d_sub, in_e1=True)
        e_of_subaisle[n + a] = eid
    # E2: second traversal of each subaisle.
    for a in range(n):
        add(copies[a], top[a], d_sub, in_e2=True)
        add(mid[a], bot[a], d_sub, in_e2=True)
    # E3: return edges from the origin to everything else, copies included.
    for v in top + mid + bot:
        if v != s:
            add(s, v, _from_origin(layout, v), in_e3=True)
    for a in range(n):
        add(s, copies[a], _from_origin(layout, mid[a]), in_e3=True)

    return AuxiliaryGraph(
        vertices=tuple(top + mid + bot + copies),
        copy_of=copy_of,
        edges=tuple(edges),
        e_of_subaisle=e_of_subaisle,
        south_set=frozenset(copies + bot),
    )
