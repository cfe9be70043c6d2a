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


def encode_walk_PG(model: LinearModel, instance: Instance, graph: PickingGraph,
                   solution: Solution) -> VariableAssignment:
    """Encode a solution into any arc-space model (P_basic, P_A, P_G, P_U).

    Fills exactly the variables the model declares; the objective value of
    the result equals the summed walk length.  A solution that
    :func:`pickopt.exact.validate_solution` rejects, or whose picker count
    differs from the instance's, raises :class:`EncodingError`.
    """
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
