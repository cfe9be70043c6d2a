"""Encode walks into formulation variable space.

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

from .errors import EncodingError, ValidationError
from .exact import Solution, Walk, validate_solution
from .instance import Instance
from .layout import PickingGraph
from .model import LinearModel, VariableAssignment


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


def _walk_values(graph: PickingGraph, walk: Walk) -> tuple:
    """What the encoders set from one walk, each part in the order it is
    set: its arcs; the vertices it visits, the origin aside; the locations
    flagged alpha and beta; its full traversals, ``(subaisle, "dn")`` or
    ``(subaisle, "up")``; and its gamma arcs, the cross-aisle arcs it uses
    and the reduced arc of each subaisle it fully traverses."""
    arcs = orient_walk(graph, walk)
    alpha, beta, traversed = [], [], []
    north, south = graph.north_of, graph.south_of
    for sub in graph.subaisles:
        # the locations reached from the head by downward arcs, and from the
        # tail by upward ones; a run on past the far end fully traverses
        for v in sub.locs:
            if (north(v), v) not in arcs:
                break
            alpha.append(v)
        else:
            if (north(sub.tail), sub.tail) in arcs:
                traversed.append((sub.index, "dn"))
        for v in reversed(sub.locs):
            if (south(v), v) not in arcs:
                break
            beta.append(v)
        else:
            if (south(sub.head), sub.head) in arcs:
                traversed.append((sub.index, "up"))
    full = set(traversed)
    gamma = [arc for u, v, _, sub in graph.reduced_edges
             for arc, way in (((u, v), "dn"), ((v, u), "up"))
             if (arc in arcs if sub is None else (sub, way) in full)]
    visited = walk.visited(graph) - {graph.origin}
    return sorted(arcs), sorted(visited), sorted(alpha), sorted(beta), traversed, sorted(gamma)


def _encode(model: LinearModel, instance: Instance, graph: PickingGraph,
            solution: Solution) -> tuple[VariableAssignment, list[tuple]]:
    """The arc-space encoding of ``solution`` and each picker's
    :func:`_walk_values`."""
    if len(solution.batching) != instance.pickers:
        raise EncodingError("solution picker count does not match the instance")
    try:
        validate_solution(instance, graph, solution)
    except ValidationError as exc:
        raise EncodingError(str(exc)) from exc
    assignment = VariableAssignment()
    has_alpha = model.has_var("a", 0, graph.subaisles[0].locs[0])
    has_gamma = model.has_var("g", 0, graph.reduced_edges[0][0], graph.reduced_edges[0][1])
    has_w = model.has_var("w", 0, 0, "dn")

    var, name = model.var, model.var_name
    per_picker = []
    for t in range(instance.pickers):
        values = _walk_values(graph, solution.walks[t])
        per_picker.append(values)
        arcs, visited, alpha, beta, traversed, gamma = values
        names = [name(var("x", t, u, v)) for u, v in arcs]
        names += [name(var("y", t, v)) for v in visited]
        if has_alpha:
            names += [name(var("a", t, v)) for v in alpha]
            names += [name(var("b", t, v)) for v in beta]
        if has_gamma:
            names += [name(var("g", t, u, v)) for u, v in gamma]
        if has_w:
            names += [name(var("w", t, i, way)) for i, way in traversed]
        names += [name(var("z", o, t)) for o in solution.batching[t]]
        for n in names:
            assignment.set(n, 1)
    return assignment, per_picker


def encode_walk_PG(model: LinearModel, instance: Instance, graph: PickingGraph,
                   solution: Solution) -> VariableAssignment:
    """Encode a solution into any arc-space model (P_basic, P_A, P_G, P_U).

    Fills exactly the variables the model declares; the objective value of
    the result equals the summed walk length.  A solution that
    :func:`pickopt.exact.validate_solution` rejects, or whose picker count
    differs from the instance's, raises :class:`EncodingError`.
    """
    return _encode(model, instance, graph, solution)[0]


def encode_walk_PF(model: LinearModel, instance: Instance, graph: PickingGraph,
                   solution: Solution) -> VariableAssignment:
    """P_G encoding plus one unit of flow per visited artificial vertex,
    routed to the origin inside the gamma support."""
    assignment, per_picker = _encode(model, instance, graph, solution)
    s = graph.origin
    for t, (_, visited, _, _, _, gamma) in enumerate(per_picker):
        gamma_out: dict[int, list[int]] = {}
        for u, v in gamma:  # sorted, so each list is too
            gamma_out.setdefault(u, []).append(v)
        for v0 in visited:
            if not graph.is_artificial(v0):
                continue
            # BFS from v0 to the origin along gamma arcs
            parent: dict[int, int] = {v0: v0}
            queue = deque([v0])
            while queue and s not in parent:
                u = queue.popleft()
                for v in gamma_out.get(u, ()):
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
