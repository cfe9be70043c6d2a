"""Encode walks and routes into formulation variable space.

Arc-space encodings orient each walk deterministically: multiplicity-2
edges contribute both directed arcs, and the multiplicity-1 subgraph
(whose degrees are all even) is decomposed into cycles, each oriented
consistently.  The resulting arc set is balanced at every vertex, so flow
conservation holds, and the auxiliary variables are filled in by the
prefix rules: alpha marks locations reachable from the north endpoint by
used downward arcs, beta the mirror image, gamma marks cross-aisle arcs
and fully traversed subaisles, and the flow variables route one unit from
every visited artificial vertex to the origin inside the gamma support.
"""

from __future__ import annotations

from collections import deque
from typing import Iterable, Optional

from .errors import EncodingError
from .exact import Solution, Walk
from .instance import Instance
from .layout import TWO_BLOCK, AuxiliaryGraph, PickingGraph
from .model import LinearModel, VariableAssignment
from .sshape import BOTTOM_BAND, SShapeRoute, TOP_BAND


def orient_walk(graph: PickingGraph, walk: Walk) -> frozenset[tuple[int, int]]:
    """Deterministic arc orientation of a walk; each directed arc once."""
    arcs: set[tuple[int, int]] = set()
    single_adj: dict[int, list[tuple[int, int]]] = {}
    for e, m in walk.edge_mult:
        u, v = graph.edges[e]
        if m == 2:
            arcs.add((u, v))
            arcs.add((v, u))
        elif m == 1:
            single_adj.setdefault(u, []).append((v, e))
            single_adj.setdefault(v, []).append((u, e))
        else:
            raise EncodingError(f"walk multiplicity {m} out of range on edge {e}")

    used: set[int] = set()
    for start in sorted(single_adj):
        for _, seed in sorted(single_adj[start]):
            if seed in used:
                continue
            # trace the cycle through the seed edge, smallest neighbor first
            u = start
            while True:
                nxt = None
                for v, e in sorted(single_adj[u]):
                    if e not in used:
                        nxt = (v, e)
                        break
                if nxt is None:
                    break
                v, e = nxt
                used.add(e)
                arcs.add((u, v))
                u = v
                if u == start:
                    break
    return frozenset(arcs)


def _chain_flags(graph: PickingGraph, arcs: frozenset) -> tuple[dict, dict, dict, dict]:
    """Per-location alpha/beta and per-subaisle full-traversal flags."""
    alpha: dict[int, bool] = {}
    beta: dict[int, bool] = {}
    full_down: dict[int, bool] = {}
    full_up: dict[int, bool] = {}
    for sub in graph.subaisles:
        ok = True
        for v in sub.locs:
            ok = ok and (graph.north_of(v), v) in arcs
            alpha[v] = ok
        full_down[sub.index] = ok and (graph.north_of(sub.tail), sub.tail) in arcs
        ok = True
        for v in reversed(sub.locs):
            ok = ok and (graph.south_of(v), v) in arcs
            beta[v] = ok
        full_up[sub.index] = ok and (graph.south_of(sub.head), sub.head) in arcs
    return alpha, beta, full_down, full_up


def _gamma_arcs(graph: PickingGraph, arcs: frozenset,
                full_down: dict, full_up: dict) -> set[tuple[int, int]]:
    gamma: set[tuple[int, int]] = set()
    for u, v, _, sub in graph.reduced_edges:
        if sub is None:
            if (u, v) in arcs:
                gamma.add((u, v))
            if (v, u) in arcs:
                gamma.add((v, u))
        else:
            if full_down[sub]:
                gamma.add((u, v))
            if full_up[sub]:
                gamma.add((v, u))
    return gamma


def _validate_solution_for_encoding(instance: Instance, graph: PickingGraph,
                                    solution: Solution) -> None:
    if len(solution.batching) != instance.pickers:
        raise EncodingError("solution picker count does not match the instance")
    for t, orders in enumerate(solution.batching):
        required = frozenset().union(
            frozenset(), *(instance.pick_vertices(graph, instance.order_by_id(o))
                           for o in orders))
        try:
            solution.walks[t].validate(graph, required)
        except Exception as exc:
            raise EncodingError(f"picker {t}: {exc}") from exc


def encode_walk_PG(model: LinearModel, instance: Instance, graph: PickingGraph,
                   solution: Solution) -> VariableAssignment:
    """Encode a solution into any arc-space model (P_basic, P_A, P_G, P_U).

    Fills exactly the variables the model declares; the objective value of
    the result equals the summed walk length.
    """
    _validate_solution_for_encoding(instance, graph, solution)
    assignment = VariableAssignment()
    has_alpha = model.has_var("a", 0, graph.subaisles[0].locs[0])
    has_gamma = model.has_var("g", 0, graph.reduced_edges[0][0], graph.reduced_edges[0][1])
    has_w = model.has_var("w", 0, 0, "dn")

    for t in range(instance.pickers):
        walk = solution.walks[t]
        arcs = orient_walk(graph, walk)
        for u, v in sorted(arcs):
            assignment.set(model.var_name(model.var("x", t, u, v)), 1)
        visited = walk.visited(graph)
        for v in sorted(visited):
            if v != graph.origin:
                assignment.set(model.var_name(model.var("y", t, v)), 1)
        alpha, beta, full_down, full_up = _chain_flags(graph, arcs)
        if has_alpha:
            for v, flag in sorted(alpha.items()):
                if flag:
                    assignment.set(model.var_name(model.var("a", t, v)), 1)
            for v, flag in sorted(beta.items()):
                if flag:
                    assignment.set(model.var_name(model.var("b", t, v)), 1)
        if has_gamma:
            for u, v in sorted(_gamma_arcs(graph, arcs, full_down, full_up)):
                assignment.set(model.var_name(model.var("g", t, u, v)), 1)
        if has_w:
            for sub in graph.subaisles:
                if full_down[sub.index]:
                    assignment.set(model.var_name(model.var("w", t, sub.index, "dn")), 1)
                if full_up[sub.index]:
                    assignment.set(model.var_name(model.var("w", t, sub.index, "up")), 1)
        for o in solution.batching[t]:
            assignment.set(model.var_name(model.var("z", o, t)), 1)
    return assignment


def encode_walk_PF(model: LinearModel, instance: Instance, graph: PickingGraph,
                   solution: Solution) -> VariableAssignment:
    """P_G encoding plus one unit of flow per visited artificial vertex,
    routed to the origin inside the gamma support."""
    assignment = encode_walk_PG(model, instance, graph, solution)
    s = graph.origin
    for t in range(instance.pickers):
        gamma_out: dict[int, list[int]] = {}
        for u, v, _, _ in graph.reduced_edges:
            for a, b in ((u, v), (v, u)):
                if assignment.get(model.var_name(model.var("g", t, a, b))) == 1:
                    gamma_out.setdefault(a, []).append(b)
        for v0 in graph.artificial_vertices:
            if assignment.get(model.var_name(model.var("y", t, v0))) != 1:
                continue
            # BFS from v0 to the origin along gamma arcs
            parent: dict[int, int] = {v0: v0}
            queue = deque([v0])
            while queue and s not in parent:
                u = queue.popleft()
                for v in sorted(gamma_out.get(u, ())):
                    if v not in parent:
                        parent[v] = u
                        queue.append(v)
            if s not in parent:
                raise EncodingError(
                    f"picker {t}: no gamma path from artificial vertex {v0} to the origin")
            v = s
            while v != v0:
                u = parent[v]
                assignment.set(model.var_name(model.var("s", t, v0, u, v)), 1)
                v = u
    return assignment


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

    def __init__(self, aux: AuxiliaryGraph, required_primary: frozenset[int]):
        if aux.variant != TWO_BLOCK:
            raise EncodingError("route encoding needs a two_block auxiliary graph")
        self.aux = aux
        graph = aux.graph
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


def encode_route_PU2(model: LinearModel, aux: AuxiliaryGraph, instance: Instance,
                     route: SShapeRoute, picker: int,
                     order_ids: Iterable[int]) -> VariableAssignment:
    """Encode one picker's S-shape route into the two-block TSP model."""
    graph = aux.graph
    order_ids = sorted(order_ids)
    picked_subs: set[int] = set()
    for o in order_ids:
        for v in instance.pick_vertices(graph, instance.order_by_id(o)):
            picked_subs.add(graph.subaisle_of(v))
    totals: dict[int, int] = {}
    for step in route.steps:
        if step[0] == "vert":
            totals[step[1]] = totals.get(step[1], 0) + 1
    resolver = _AuxResolver(aux, frozenset(picked_subs))
    used = resolver.solve(route.steps, totals)

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


def encode_best_s_shape(model: LinearModel, aux: AuxiliaryGraph, instance: Instance,
                        picker: int, order_ids: Iterable[int],
                        kind: Optional[str] = None):
    """Cheapest serpentine route for one batch, encoded into the TSP model.

    Equal-length route variants are tried in order; the construction
    guarantees an optimal serpentine exists but not that every variant has
    a conflict-free lane assignment.  With ``kind`` the search is limited
    to one route kind.  Returns ``(route, assignment)``.
    """
    from .sshape import s_shape_candidates

    graph = aux.graph
    order_ids = sorted(order_ids)
    subs = set()
    for o in order_ids:
        for v in instance.pick_vertices(graph, instance.order_by_id(o)):
            subs.add(graph.subaisle_of(v))
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
            return route, encode_route_PU2(model, aux, instance, route, picker, order_ids)
        except EncodingError as exc:
            last_error = exc
    raise EncodingError(
        f"no minimum-length serpentine route is representable: {last_error}")


def eq75_value(model: LinearModel, aux: AuxiliaryGraph, assignment: VariableAssignment,
               picker: int):
    """Value of the second-cross-aisle crossing sum for one picker."""
    total = 0
    for e in aux.delta(aux.south_set):
        total += assignment.get(model.var_name(model.var(*e.var_index(picker))))
    return total
