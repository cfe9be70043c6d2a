"""Serpentine (S-shape) routes for two-block no-reversal routing, and their
encoding into the two-block TSP model P_U2.

Test support: the routes show that every serpentine is a feasible P_U2
point at its own length, and they are the reference that the closed-form
estimate in :mod:`pickopt.heuristics` is checked against.

Routes are built as explicit move sequences over three horizontal bands
(top, middle, bottom cross aisle) plus full vertical subaisle traversals,
closing with a single shortest-path return leg to the origin.  Two route
kinds exist:

* ``r_S1`` sweeps the block-1 subaisles except a designated one, then the
  block-2 subaisles, and finishes by ascending the designated subaisle.
* ``r_S2`` sweeps all block-1 subaisles first, then all block-2 subaisles.

Parity transits (an extra traversal to reach or leave the lower block)
are inserted at the current aisle, which never adds horizontal distance.
The resulting vertical excess over ``|K1 cup K2| * d`` is 0 when both
sweep sizes are even, d when exactly one is odd, and 2d when both are
odd, matching the no-reversal optimum when the first subaisle is swept.

A route is measured in whole units: ``V`` subaisle traversals and ``H``
aisle steps.  It is priced step by step, ``V * (locs_per_subaisle + 1)``
steps along subaisles at ``loc_spacing`` and ``H`` at ``aisle_spacing``,
as a walk is; the closed-form estimate must give the same float for the
same route.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from pickopt import (EncodingError, Instance, LinearModel, PickingGraph,
                     UnsupportedFamilyError, ValidationError, VariableAssignment)

R_S1 = "r_S1"
R_S2 = "r_S2"

TOP_BAND = "top"
MIDDLE_BAND = "middle"
BOTTOM_BAND = "bottom"

_STAR_BLOCKS = {TOP_BAND: 0, MIDDLE_BAND: 1, BOTTOM_BAND: 2}


@dataclass(frozen=True)
class SShapeRoute:
    kind: str
    visits: tuple[int, ...]  # subaisle indices in traversal order
    i0: Optional[int]
    vertical_length: float
    total_length: float
    steps: tuple


class _Builder:
    """Collects moves and traversals, tracking band, aisle and unit counts."""

    def __init__(self, graph: PickingGraph):
        layout = graph.layout
        if layout.n_blocks != 2:
            raise UnsupportedFamilyError("S-shape routes are defined for 2-block layouts")
        self.graph = graph
        self.n = layout.n_aisles
        self.band = TOP_BAND
        self.aisle = 0
        self.steps: list = []
        self.visits: list[int] = []
        self.vertical = 0  # subaisle traversals
        self.horizontal = 0  # aisle steps
        self.traversals: dict[int, int] = {}

    def to_aisle(self, a: int) -> None:
        if a == self.aisle:
            return
        self.steps.append(("move", self.band, self.aisle, a))
        self.horizontal += abs(a - self.aisle)
        self.aisle = a

    def _traverse(self, sub_index: int, down: bool, from_band: str, to_band: str) -> None:
        if self.band != from_band:
            raise ValidationError(
                f"route construction error: traversal from {from_band} while at {self.band}")
        count = self.traversals.get(sub_index, 0)
        if count >= 2:
            raise ValidationError(f"subaisle {sub_index} traversed more than twice")
        self.traversals[sub_index] = count + 1
        self.steps.append(("vert", sub_index, "down" if down else "up", count))
        self.visits.append(sub_index)
        self.vertical += 1
        self.band = to_band

    def down_block1(self, aisle: int) -> None:
        self.to_aisle(aisle)
        self._traverse(aisle, True, TOP_BAND, MIDDLE_BAND)

    def up_block1(self, aisle: int) -> None:
        self.to_aisle(aisle)
        self._traverse(aisle, False, MIDDLE_BAND, TOP_BAND)

    def down_block2(self, aisle: int) -> None:
        self.to_aisle(aisle)
        self._traverse(self.n + aisle, True, MIDDLE_BAND, BOTTOM_BAND)

    def up_block2(self, aisle: int) -> None:
        self.to_aisle(aisle)
        self._traverse(self.n + aisle, False, BOTTOM_BAND, MIDDLE_BAND)

    def star_home(self) -> None:
        if self.band == TOP_BAND and self.aisle == 0:
            return
        self.steps.append(("star", self.band, self.aisle))
        self.vertical += _STAR_BLOCKS[self.band]
        self.horizontal += self.aisle
        self.band = TOP_BAND
        self.aisle = 0

    def route(self, kind: str, i0: Optional[int]) -> SShapeRoute:
        layout = self.graph.layout
        vertical = layout.loc_spacing * (self.vertical * (layout.locs_per_subaisle + 1))
        return SShapeRoute(kind, tuple(self.visits), i0, vertical,
                           vertical + layout.aisle_spacing * self.horizontal,
                           tuple(self.steps))


def _split_sets(graph: PickingGraph, K1: Iterable[int], K2: Iterable[int]):
    n = graph.layout.n_aisles
    k1 = sorted(set(K1))
    k2 = sorted(set(K2))
    for i in k1:
        if not (0 <= i < n):
            raise ValidationError(f"K1 entry {i} is not a block-1 subaisle index")
    for i in k2:
        if not (n <= i < 2 * n):
            raise ValidationError(f"K2 entry {i} is not a block-2 subaisle index")
    return k1, [i - n for i in k2]  # aisles


def _sweep_block1(b: _Builder, aisles: list[int]) -> None:
    down = True
    for a in aisles:
        if down:
            b.down_block1(a)
        else:
            b.up_block1(a)
        down = not down


def _sweep_block2(b: _Builder, aisles: list[int], direction: str,
                  fix_parity: bool = True) -> None:
    order = aisles if direction == "lr" else list(reversed(aisles))
    down = True
    for a in order:
        if down:
            b.down_block2(a)
        else:
            b.up_block2(a)
        down = not down
    if fix_parity and b.band == BOTTOM_BAND:
        b.up_block2(b.aisle)


def _transit_aisle(b: _Builder, k2: list[int], direction: str, transit: str) -> int:
    # the sweep entry and the current aisle bound the same horizontal detour,
    # so both transits cost the same; which one the TSP model can represent
    # depends on the pick pattern
    if transit == "entry":
        return k2[0] if direction == "lr" else k2[-1]
    return b.aisle


def _build_r_s1(graph: PickingGraph, k1: list[int], k2: list[int],
                i0: int, direction: str, transit: str) -> SShapeRoute:
    b = _Builder(graph)
    rest = [a for a in k1 if a != i0]
    _sweep_block1(b, rest)
    if k2:
        if b.band == TOP_BAND:
            b.down_block1(_transit_aisle(b, k2, direction, transit))
        _sweep_block2(b, k2, direction)
    elif b.band == TOP_BAND:
        b.down_block1(b.aisle)
    b.up_block1(i0)
    b.star_home()
    return b.route(R_S1, i0)


def _build_r_s2(graph: PickingGraph, k1: list[int], k2: list[int],
                direction: str, transit: str) -> SShapeRoute:
    b = _Builder(graph)
    _sweep_block1(b, k1)
    if k2:
        if b.band == TOP_BAND:
            b.down_block1(_transit_aisle(b, k2, direction, transit))
        # the return leg is a shortest path anyway, so an odd sweep may end
        # at the bottom and go straight home
        _sweep_block2(b, k2, direction, fix_parity=False)
    b.star_home()
    return b.route(R_S2, None)


def s_shape_variants(graph: PickingGraph, K1: Iterable[int], K2: Iterable[int],
                     kind: str, i0: Optional[int] = None) -> list[SShapeRoute]:
    """All constructions of one kind: sweep directions times transit choices."""
    k1, k2_aisles = _split_sets(graph, K1, K2)
    if not k1 and not k2_aisles:
        raise ValidationError("S-shape route needs at least one subaisle to visit")
    directions = ("lr", "rl")
    transits = ("entry", "current") if k2_aisles else ("current",)

    routes: list[SShapeRoute] = []
    seen: set[tuple] = set()
    if kind == R_S1:
        if not k1:
            raise ValidationError("r_S1 is undefined when K1 is empty")
        first = min(k1) if i0 is None else i0
        if first not in k1:
            raise ValidationError(f"i0 = {first} is not in K1")
        builds = [_build_r_s1(graph, k1, k2_aisles, first, d, tr)
                  for d in directions for tr in transits]
    elif kind == R_S2:
        builds = [_build_r_s2(graph, k1, k2_aisles, d, tr)
                  for d in directions for tr in transits]
    else:
        raise ValidationError(f"unknown S-shape kind {kind!r}")
    for route in builds:
        if route.steps not in seen:
            seen.add(route.steps)
            routes.append(route)
    return routes


def evaluate_s_shape(graph: PickingGraph, K1: Iterable[int], K2: Iterable[int],
                     kind: str, i0: Optional[int] = None) -> SShapeRoute:
    """Construct the requested S-shape route and measure it exactly."""
    routes = s_shape_variants(graph, K1, K2, kind, i0)
    return min(routes, key=lambda r: r.total_length)


def arrivals(route: SShapeRoute, n_aisles: int, band: str, aisle: int) -> int:
    """How often the route's moves and traversals enter the cross-aisle
    location at ``band`` and ``aisle``; the return leg is not counted."""
    count = 0
    for step in route.steps:
        if step[0] == "move":
            _, on, src, dst = step
            passed = range(src + 1, dst + 1) if dst > src else range(dst, src)
            count += on == band and aisle in passed
        elif step[0] == "vert":
            _, sub, direction, _ = step
            ends = (TOP_BAND, MIDDLE_BAND) if sub < n_aisles else (MIDDLE_BAND, BOTTOM_BAND)
            end = ends[1] if direction == "down" else ends[0]
            count += end == band and sub % n_aisles == aisle
    return count


def s_shape_candidates(graph: PickingGraph, K1: Iterable[int],
                       K2: Iterable[int]) -> list[SShapeRoute]:
    """Every constructed route variant: r_S1 for each anchor choice, r_S2."""
    k1, _ = _split_sets(graph, K1, K2)
    routes = []
    for i0 in k1:
        routes.extend(s_shape_variants(graph, K1, K2, R_S1, i0=i0))
    routes.extend(s_shape_variants(graph, K1, K2, R_S2))
    return routes


# -- S-shape routes into the two-block TSP model ------------------------------

_TOPROW, _MIDROW, _MID2ROW, _BOTROW = "T", "M", "M2", "B"


class _AuxResolver:
    """Resolve route steps to auxiliary edges by depth-first search.

    Every pass through the middle cross aisle occupies either the original
    row or the copy row; verticals come in a primary and a copy variant
    that start or end on different rows.  Which lane each pass takes is a
    small combinatorial choice, searched deterministically (primary and
    lane-keeping options first).  Subaisles with picks that the route
    traverses only once are pinned to their primary edge so the cover rows
    hold.
    """

    def __init__(self, graph: PickingGraph, required_primary: frozenset[int]):
        if graph.layout.n_blocks != 2:
            raise EncodingError("route encoding needs a two-block layout")
        self.aux = aux = graph.auxiliary()
        n = graph.layout.n_aisles
        self.n = n
        self.rows = {
            _TOPROW: [graph.artificial_vertex(0, a) for a in range(n)],
            _MIDROW: [graph.artificial_vertex(1, a) for a in range(n)],
            _BOTROW: [graph.artificial_vertex(2, a) for a in range(n)],
        }
        copy_back = {orig: cp for cp, orig in aux.copy_of.items()}
        self.rows[_MID2ROW] = [copy_back[self.rows[_MIDROW][a]] for a in range(n)]
        self.move_edge: dict[frozenset, int] = {}
        self.star_edge: dict[int, int] = {}
        for e in aux.edges:
            if e.in_e3:
                other = e.v if e.u == graph.origin else e.u
                self.star_edge[other] = e.id
            else:
                self.move_edge[frozenset((e.u, e.v))] = e.id
        self.required_primary = required_primary

    def vertex(self, row: str, a: int) -> int:
        return self.rows[row][a]

    def _edge(self, row_a: str, a: int, row_b: str, b: int) -> int:
        return self.move_edge[frozenset((self.vertex(row_a, a), self.vertex(row_b, b)))]

    def solve(self, steps, traversal_totals: dict[int, int]) -> set[int]:
        """Assign lanes and variants; returns the used edge set."""
        units: list = []
        for step in steps:
            if step[0] == "move":
                _, band, src, dst = step
                direction = 1 if dst > src else -1
                for a in range(src, dst, direction):
                    units.append(("hop", band, a, a + direction))
            elif step[0] == "vert":
                units.append(("vert", step[1], step[2]))
            else:
                units.append(("star",))

        used: set[int] = set()
        degree: dict[int, int] = {}
        out: Optional[set[int]] = None

        def take(eid: int) -> bool:
            # a tour visits every auxiliary vertex at most once: degree cap 2
            if eid in used:
                return False
            edge = self.aux.edges[eid]
            if degree.get(edge.u, 0) >= 2 or degree.get(edge.v, 0) >= 2:
                return False
            used.add(eid)
            degree[edge.u] = degree.get(edge.u, 0) + 1
            degree[edge.v] = degree.get(edge.v, 0) + 1
            return True

        def untake(eid: int) -> None:
            used.discard(eid)
            edge = self.aux.edges[eid]
            degree[edge.u] -= 1
            degree[edge.v] -= 1

        def attempt(edges: list[int], k: int, row: str, aisle: int) -> bool:
            """Take the edges and search on from unit k; undo them on failure."""
            taken = []
            for eid in edges:
                if not take(eid):
                    break
                taken.append(eid)
            else:
                if rec(k, row, aisle):
                    return True
            for eid in taken:
                untake(eid)
            return False

        def connector_options(row: str, a: int):
            """(edges_to_take, resulting_row) alternatives from a middle row."""
            yield [], row
            other = _MID2ROW if row == _MIDROW else _MIDROW
            yield [self._edge(row, a, other, a)], other

        def rec(k: int, row: str, aisle: int) -> bool:
            nonlocal out
            if k == len(units):
                if row == _TOPROW and aisle == 0:
                    out = set(used)
                    return True
                return False
            unit = units[k]
            if unit[0] == "hop":
                _, band, a, b = unit
                if band in (TOP_BAND, BOTTOM_BAND):
                    need = _TOPROW if band == TOP_BAND else _BOTROW
                    return row == need and attempt([self._edge(need, a, need, b)], k + 1, need, b)
                if row not in (_MIDROW, _MID2ROW):
                    return False
                return any(attempt(pre + [self._edge(lane, a, lane, b)], k + 1, lane, b)
                           for pre, lane in connector_options(row, a))
            if unit[0] == "vert":
                _, sub, direction = unit
                a = sub % self.n
                block1 = sub < self.n
                variants = ["primary", "copy"]
                if sub in self.required_primary and traversal_totals[sub] == 1:
                    variants = ["primary"]
                for variant in variants:
                    if block1:
                        lane = _MIDROW if variant == "primary" else _MID2ROW
                        eid = self._edge(_TOPROW, a, lane, a)
                        ends = (_TOPROW, lane) if direction == "down" else (lane, _TOPROW)
                    else:
                        lane = _MID2ROW if variant == "primary" else _MIDROW
                        eid = self._edge(lane, a, _BOTROW, a)
                        ends = (lane, _BOTROW) if direction == "down" else (_BOTROW, lane)
                    start_row, end_row = ends
                    if row == start_row:
                        pre = []
                    elif row in (_MIDROW, _MID2ROW) and start_row in (_MIDROW, _MID2ROW):
                        pre = [self._edge(row, aisle, start_row, aisle)]
                    else:
                        continue
                    if attempt(pre + [eid], k + 1, end_row, a):
                        return True
                return False
            # star: one return edge home, optionally switching middle lane first
            star_options = (connector_options(row, aisle)
                            if row in (_MIDROW, _MID2ROW) else [([], row)])
            for pre, lane in star_options:
                eid = self.star_edge.get(self.vertex(lane, aisle))
                if eid is not None and attempt(pre + [eid], k + 1, _TOPROW, 0):
                    return True
            return False

        if not rec(0, _TOPROW, 0):
            raise EncodingError("route admits no conflict-free lane assignment")
        return out


def encode_route_PU2(model: LinearModel, graph: PickingGraph, instance: Instance,
                     route: SShapeRoute, picker: int,
                     order_ids: Iterable[int]) -> VariableAssignment:
    """Encode one picker's S-shape route into the two-block TSP model."""
    order_ids = sorted(order_ids)
    picks = instance.all_pick_vertices(graph)
    picked_subs = {graph.subaisle_of(v) for o in order_ids for v in picks[o]}
    totals: dict[int, int] = {}
    for step in route.steps:
        if step[0] == "vert":
            totals[step[1]] = totals.get(step[1], 0) + 1
    resolver = _AuxResolver(graph, frozenset(picked_subs))
    used = resolver.solve(route.steps, totals)
    aux = graph.auxiliary()

    assignment = VariableAssignment()
    degree: dict[int, int] = {}
    for eid in sorted(used):
        e = aux.edges[eid]
        assignment.set(model.var_name(model.var(*e.var_index(picker))), 1)
        degree[e.u] = degree.get(e.u, 0) + 1
        degree[e.v] = degree.get(e.v, 0) + 1
    for v in aux.vertices:
        if v != graph.origin and degree.get(v, 0):
            assignment.set(model.var_name(model.var("y", picker, v)), 1)
    for o in order_ids:
        assignment.set(model.var_name(model.var("z", o, picker)), 1)
    return assignment


def encode_best_s_shape(model: LinearModel, graph: PickingGraph, instance: Instance,
                        picker: int, order_ids: Iterable[int],
                        kind: Optional[str] = None):
    """Cheapest serpentine route for one batch, encoded into the TSP model.

    Equal-length route variants are tried in order, since not every route
    encodes.  The auxiliary graph holds each middle cross-aisle location
    twice, as the original vertex and its copy, and a tour enters each
    vertex once; so a route that arrives at one middle location three
    times (see :func:`arrivals`) has no lane assignment.  On some batches
    every minimum-length ``r_S1`` route does.  With ``kind`` the search is
    limited to one route kind.  Returns ``(route, assignment)``.
    """
    order_ids = sorted(order_ids)
    picks = instance.all_pick_vertices(graph)
    subs = {graph.subaisle_of(v) for o in order_ids for v in picks[o]}
    n = graph.layout.n_aisles
    K1 = sorted(i for i in subs if i < n)
    K2 = sorted(i for i in subs if i >= n)
    candidates = [r for r in s_shape_candidates(graph, K1, K2)
                  if kind is None or r.kind == kind]
    if not candidates:
        raise EncodingError(f"no serpentine route of kind {kind!r} covers this batch")
    candidates.sort(key=lambda r: (r.total_length, r.kind,
                                   r.i0 if r.i0 is not None else -1))
    best_length = candidates[0].total_length
    last_error = None
    for route in candidates:
        if route.total_length > best_length:
            break
        try:
            return route, encode_route_PU2(model, graph, instance, route, picker, order_ids)
        except EncodingError as exc:
            last_error = exc
    raise EncodingError(
        f"no minimum-length serpentine route is representable: {last_error}")


def eq75_value(model: LinearModel, graph: PickingGraph, assignment: VariableAssignment,
               picker: int):
    """Value of the second-cross-aisle crossing sum for one picker."""
    aux = graph.auxiliary()
    south = aux.south_set
    return sum(assignment.get(model.var_name(model.var(*e.var_index(picker))))
               for e in aux.edges if (e.u in south) != (e.v in south))
