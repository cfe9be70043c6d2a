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
  chain from north to south.
* Every subaisle is modelled as a single chain of picking locations; picks
  on either side of the aisle map to the same chain vertex.
* Distances: vertically adjacent locations (including the artificial
  endpoints) are ``loc_spacing`` apart, horizontally adjacent artificial
  locations are ``aisle_spacing`` apart.  A full subaisle therefore has
  length ``(locs_per_subaisle + 1) * loc_spacing``.
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from dataclasses import dataclass, field, replace
from typing import Iterable, Optional

from .errors import ValidationError, VariantMismatchError


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
            if not isinstance(value, int) or value < 1:
                raise ValidationError(f"layout.{name} must be an integer >= 1, got {value!r}")
        for name in ("loc_spacing", "aisle_spacing"):
            if getattr(self, name) <= 0:
                raise ValidationError(f"layout.{name} must be > 0")

    @property
    def n_subaisles(self) -> int:
        return self.n_aisles * self.n_blocks

    @property
    def subaisle_length(self):
        return (self.locs_per_subaisle + 1) * self.loc_spacing


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

    @property
    def chain(self) -> tuple[int, ...]:
        return (self.head,) + self.locs + (self.tail,)


class PickingGraph:
    """Sparse graph of a rectangular warehouse.

    Immutable after construction; shortest-path results are cached
    internally but the cache is invisible to callers.
    """

    def __init__(self, layout: WarehouseLayout):
        self.layout = layout
        n, q, m = layout.n_aisles, layout.n_blocks, layout.locs_per_subaisle

        self.n_artificial = n * (q + 1)
        self.n_picking = n * q * m
        self.n_vertices = self.n_artificial + self.n_picking
        self.origin = 0

        coords = []
        for c in range(q + 1):
            for a in range(n):
                coords.append((a * layout.aisle_spacing, c * layout.subaisle_length))

        subaisles = []
        edges: list[tuple[int, int]] = []
        edge_length: list = []
        edge_subaisle: list[Optional[int]] = []
        north: dict[int, int] = {}
        south: dict[int, int] = {}
        vertex_subaisle: dict[int, int] = {}

        pick_base = self.n_artificial
        for b in range(q):
            for a in range(n):
                i = b * n + a
                head = b * n + a
                tail = (b + 1) * n + a
                locs = tuple(pick_base + i * m + k for k in range(m))
                for k, v in enumerate(locs):
                    x = a * layout.aisle_spacing
                    y = b * layout.subaisle_length + (k + 1) * layout.loc_spacing
                    coords.append((x, y))
                    vertex_subaisle[v] = i
                chain = (head,) + locs + (tail,)
                eids = []
                for u, v in zip(chain, chain[1:]):
                    eids.append(len(edges))
                    edges.append((u, v))
                    edge_length.append(layout.loc_spacing)
                    edge_subaisle.append(i)
                    south[u] = v
                    north[v] = u
                subaisles.append(Subaisle(i, b, a, head, tail, locs, tuple(eids)))

        horizontal_ids = []
        for c in range(q + 1):
            for a in range(n - 1):
                horizontal_ids.append(len(edges))
                edges.append((c * n + a, c * n + a + 1))
                edge_length.append(layout.aisle_spacing)
                edge_subaisle.append(None)

        self.coords = tuple(coords)
        self.edges = tuple(edges)
        self.edge_length = tuple(edge_length)
        self.edge_subaisle = tuple(edge_subaisle)
        self.subaisles = tuple(subaisles)
        self.horizontal_edge_ids = tuple(horizontal_ids)
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
        reduced = []
        for sub in self.subaisles:
            reduced.append((sub.head, sub.tail, layout.subaisle_length, sub.index))
        for c in range(q + 1):
            for a in range(n - 1):
                reduced.append((c * n + a, c * n + a + 1, layout.aisle_spacing, None))
        self.reduced_edges = tuple(reduced)
        self._arcs = tuple(arc for u, v in self.edges for arc in ((u, v), (v, u)))
        self._reduced_arcs = tuple(arc for u, v, _, _ in reduced for arc in ((u, v), (v, u)))

        self._sp_cache: dict[int, tuple] = {}

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

    def q_north(self, v: int) -> Optional[int]:
        c, a = divmod(v, self.layout.n_aisles)
        return self.artificial_vertex(c - 1, a) if c >= 1 else None

    def q_south(self, v: int) -> Optional[int]:
        c, a = divmod(v, self.layout.n_aisles)
        return self.artificial_vertex(c + 1, a) if c < self.layout.n_blocks else None

    def q_west(self, v: int) -> Optional[int]:
        c, a = divmod(v, self.layout.n_aisles)
        return self.artificial_vertex(c, a - 1) if a >= 1 else None

    def q_east(self, v: int) -> Optional[int]:
        c, a = divmod(v, self.layout.n_aisles)
        return self.artificial_vertex(c, a + 1) if a < self.layout.n_aisles - 1 else None

    def slot_vertex(self, aisle: int, block: int, slot: int, side: int) -> int:
        """Map a pick coordinate to its chain vertex.

        Both sides of an aisle share one chain, so ``side`` only gets
        validated.
        """
        lay = self.layout
        if not (0 <= aisle < lay.n_aisles):
            raise ValidationError(f"coordinate out of range: aisle {aisle}")
        if not (0 <= block < lay.n_blocks):
            raise ValidationError(f"coordinate out of range: block {block}")
        if not (0 <= slot < lay.locs_per_subaisle):
            raise ValidationError(f"coordinate out of range: slot {slot}")
        if side not in (0, 1):
            raise ValidationError(f"coordinate out of range: side {side}")
        sub = self.subaisles[block * lay.n_aisles + aisle]
        return sub.locs[slot]

    # -- arc views -------------------------------------------------------

    def arcs(self) -> tuple[tuple[int, int], ...]:
        """Directed arcs: each edge replaced by its two orientations."""
        return self._arcs

    def arc_length(self, u: int, v: int):
        eid = self.edge_id(u, v)
        return self.edge_length[eid]

    def edge_id(self, u: int, v: int) -> int:
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

    def delta_minus(self, s_set: Iterable[int]) -> list[tuple[int, int]]:
        return [(v, u) for u, v in self.delta_plus(s_set)]

    def reduced_arcs(self) -> tuple[tuple[int, int], ...]:
        return self._reduced_arcs

    def eta_plus(self, s_set: Iterable[int]) -> list[tuple[int, int]]:
        """Reduced-graph arcs leaving the vertex set."""
        inside = set(s_set)
        out = []
        for u, v, _, _ in self.reduced_edges:
            if (u in inside) != (v in inside):
                out.append((u, v) if u in inside else (v, u))
        return out

    def eta_minus(self, s_set: Iterable[int]) -> list[tuple[int, int]]:
        return [(v, u) for u, v in self.eta_plus(s_set)]

    # -- metrics ---------------------------------------------------------

    def shortest_distances_from(self, source: int):
        cached = self._sp_cache.get(source)
        if cached is not None:
            return cached
        dist = [None] * self.n_vertices
        dist[source] = 0
        heap = [(0, source)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist[u]:
                continue
            for v, eid in self.adjacency[u]:
                nd = d + self.edge_length[eid]
                if dist[v] is None or nd < dist[v]:
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        result = tuple(dist)
        self._sp_cache[source] = result
        return result


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


def shortest_distance(graph: PickingGraph, u: int, v: int):
    """Exact shortest-path length between two vertices."""
    if not (0 <= u < graph.n_vertices and 0 <= v < graph.n_vertices):
        raise ValidationError(f"vertex out of range: {u if u >= graph.n_vertices else v}")
    return graph.shortest_distances_from(u)[v]


SINGLE_BLOCK = "single_block"
TWO_BLOCK = "two_block"


@dataclass(frozen=True)
class AuxEdge:
    """Edge of an auxiliary no-reversal graph.

    ``in_e1``, ``in_e2`` and ``in_e3`` tell which of the variant's edge sets
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

    Single block: vertices are the artificial locations, edge set is the
    reduced graph plus a star of return edges from the origin, and last a
    parallel copy of the first subaisle edge (``AuxEdge.parallel``).

    Two block: the second (middle) cross aisle is doubled.  Copies sit at
    the same physical position as their originals, are joined to them by
    zero-length edges and carry the second cross aisle's second pass and
    the second traversal of each subaisle.
    """

    variant: str
    graph: PickingGraph
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

    @property
    def copies(self) -> tuple[int, ...]:
        return tuple(sorted(self.copy_of))

    def base_vertex(self, v: int) -> int:
        return self.copy_of.get(v, v)

    def incident(self, w: int) -> tuple[AuxEdge, ...]:
        return self._incident.get(w, ())

    def delta(self, s_set: Iterable[int]) -> list[AuxEdge]:
        inside = set(s_set)
        return [e for e in self.edges if (e.u in inside) != (e.v in inside)]


def build_auxiliary_graph(graph: PickingGraph, variant: str) -> AuxiliaryGraph:
    """Construct the auxiliary graph for the requested variant."""
    layout = graph.layout
    if variant == SINGLE_BLOCK:
        if layout.n_blocks != 1:
            raise VariantMismatchError(
                f"single_block auxiliary graph needs 1 block, layout has {layout.n_blocks}")
        return _build_single_block(graph)
    if variant == TWO_BLOCK:
        if layout.n_blocks != 2:
            raise VariantMismatchError(
                f"two_block auxiliary graph needs 2 blocks, layout has {layout.n_blocks}")
        return _build_two_block(graph)
    raise ValidationError(f"unknown auxiliary graph variant {variant!r}")


def _build_single_block(graph: PickingGraph) -> AuxiliaryGraph:
    s = graph.origin
    dist = graph.shortest_distances_from(s)
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
                edges.append(AuxEdge(len(edges), s, v, dist[v], in_e2=True))
            else:
                edges[eid] = replace(edges[eid], in_e2=True)
    # last, so the tour variables keep their order
    edges.append(AuxEdge(len(edges), s, graph.subaisles[0].tail, graph.layout.subaisle_length,
                         parallel=True))

    return AuxiliaryGraph(
        variant=SINGLE_BLOCK,
        graph=graph,
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
    d_sub = layout.subaisle_length
    dist = graph.shortest_distances_from(s)

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
            add(s, v, dist[v], in_e3=True)
    for a in range(n):
        add(s, copies[a], dist[mid[a]], in_e3=True)

    return AuxiliaryGraph(
        variant=TWO_BLOCK,
        graph=graph,
        vertices=tuple(top + mid + bot + copies),
        copy_of=copy_of,
        edges=tuple(edges),
        e_of_subaisle=e_of_subaisle,
        south_set=frozenset(copies + bot),
    )
