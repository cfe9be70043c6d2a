"""Desk-scale exact solvers used as ground-truth oracles.

The routing oracle holds every edge multiplicity vector in ``{0,1,2}^|E|``
with even degrees everywhere (each directed arc is traversed at most once by
an optimal walk, so undirected multiplicity 2 suffices), and answers
minimum-walk queries by masking those vectors.  It builds them without
scanning all ``3^|E|``: a vector has even degrees exactly when the edges of
multiplicity 1 form an even subgraph, so each member of the cycle space is
combined with every choice of 0 or 2 on the remaining edges.  Whether a
vector's support is connected is counted, not searched: the members of the
cycle space inside a support S number ``2^(|S| - |V(S)| + c(S))``, which
gives its component count c(S).  The tests check the result against the
full scan.  The oracle is bounded at ``|E| <= 14`` and the bound is
enforced, never silently relaxed.

Ties are always broken by the lexicographically smallest multiplicity
vector so results are reproducible byte for byte.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain, repeat
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import OracleSizeError, ValidationError
from .instance import Instance, _expect, canonical_json_bytes, read_json
from .layout import PickingGraph, _price, build_graph, connected_components

MAX_ORACLE_EDGES = 14

FORMAT_SOLUTION = "pickopt-solution-v1"


@dataclass(frozen=True)
class Walk:
    """Closed-walk support of one picker: edge id -> multiplicity in {1,2}."""

    edge_mult: tuple[tuple[int, int], ...]

    def length(self, graph: PickingGraph):
        """Priced as :class:`WalkSpace` prices its rows, so both agree to
        the last bit."""
        n_chain = graph.n_chain_edges
        vertical = horizontal = 0
        for e, m in self.edge_mult:
            if e < n_chain:
                vertical += m
            else:
                horizontal += m
        return _price(graph.layout, vertical, horizontal)

    def visited(self, graph: PickingGraph) -> frozenset[int]:
        out = set()
        for e, m in self.edge_mult:
            if m:
                u, v = graph.edges[e]
                out.add(u)
                out.add(v)
        return frozenset(out)

    def validate(self, graph: PickingGraph, required: frozenset[int] = frozenset()) -> None:
        degree = [0] * graph.n_vertices
        for e, m in self.edge_mult:
            if m not in (1, 2):
                raise ValidationError(f"walk multiplicity {m} out of range on edge {e}")
            u, v = graph.edges[e]
            degree[u] += m
            degree[v] += m
        if any(d % 2 for d in degree):
            raise ValidationError("walk has an odd-degree vertex, not a closed walk")
        if not self.edge_mult:
            raise ValidationError("walk is empty, pickers must depart from the origin")
        if degree[graph.origin] == 0:
            raise ValidationError("walk does not touch the origin")
        # the support touches the origin, so one component means connected
        if len(connected_components(graph.edges[e] for e, _ in self.edge_mult)) > 1:
            raise ValidationError("walk support is disconnected from the origin")
        missing = required - self.visited(graph)
        if missing:
            raise ValidationError(f"walk misses required locations {sorted(missing)}")


@dataclass(frozen=True)
class Solution:
    """Batching plus one walk per batch; total is the summed walk length."""

    batching: tuple[tuple[int, ...], ...]
    walks: tuple[Walk, ...]
    total: float


def validate_solution(instance: Instance, graph: PickingGraph, solution: Solution) -> None:
    """One walk per batch and at least one per picker, since every picker
    departs (a heuristic may add batches); each batch fits the trolley and
    its walk covers its picks; every order is batched once; the total is
    the walk length sum."""
    if len(solution.batching) != len(solution.walks):
        raise ValidationError("solution needs one walk per batch")
    if len(solution.walks) < instance.pickers:
        raise ValidationError(f"solution has {len(solution.walks)} walks for "
                              f"{instance.pickers} pickers, each of whom departs")
    sizes = {o.id: o.size for o in instance.orders}
    picks = instance.all_pick_vertices(graph)
    seen: set[int] = set()
    for t, orders in enumerate(solution.batching):
        load = 0
        required = set()
        for oid in orders:
            # a bool or a float would pass the lookup as its equal int
            if not isinstance(oid, int) or isinstance(oid, bool) or oid not in sizes:
                raise ValidationError(f"unknown order id {oid!r}")
            if oid in seen:
                raise ValidationError(f"order {oid} assigned twice")
            seen.add(oid)
            load += sizes[oid]
            required |= picks[oid]
        if load > instance.capacity:
            raise ValidationError(f"picker {t} exceeds capacity")
        solution.walks[t].validate(graph, frozenset(required))
    if len(seen) != len(sizes):
        raise ValidationError("solution does not batch every order")
    total = sum(w.length(graph) for w in solution.walks)
    if total != solution.total:
        raise ValidationError("solution total does not equal the walk length sum")


# -- solution files ---------------------------------------------------------


def solution_to_dict(solution: Solution, graph: PickingGraph) -> dict:
    batches = []
    for t, orders in enumerate(solution.batching):
        walk = solution.walks[t]
        batches.append({
            "picker": t,
            "orders": list(orders),
            "walk": [
                {"u": graph.edges[e][0], "v": graph.edges[e][1], "count": m}
                for e, m in walk.edge_mult
            ],
            "length": walk.length(graph),
        })
    return {"format": FORMAT_SOLUTION, "total": solution.total, "batches": batches}


def save_solution(solution: Solution, graph: PickingGraph, path) -> None:
    Path(path).write_bytes(canonical_json_bytes(solution_to_dict(solution, graph)))


def load_solution(path, graph: PickingGraph) -> Solution:
    """Read a solution file written by :func:`save_solution`.  Its batches
    belong to pickers 0 to n-1, one each; every walk entry is an edge of
    ``graph``, at most once per walk, with multiplicity 1 or 2; and the
    total is the walks' length sum."""
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValidationError("solution: not a JSON object")
    if _expect(doc, "format", str, "solution") != FORMAT_SOLUTION:
        raise ValidationError(f"format: expected {FORMAT_SOLUTION!r}")
    batches = _expect(doc, "batches", list, "solution")
    total = _expect(doc, "total", (int, float), "solution")
    loaded: dict[int, tuple] = {}  # picker -> (batch index, orders, walk)
    for k, bdoc in enumerate(batches):
        where = f"solution.batches[{k}]"
        if not isinstance(bdoc, dict):
            raise ValidationError(f"{where}: not a JSON object")
        picker = _expect(bdoc, "picker", int, where)
        orders = _expect(bdoc, "orders", list, where)
        for j, oid in enumerate(orders):
            if not isinstance(oid, int) or isinstance(oid, bool):
                raise ValidationError(f"{where}.orders[{j}]: wrong type {type(oid).__name__}")
        mult: dict[int, int] = {}
        for j, entry in enumerate(_expect(bdoc, "walk", list, where)):
            at = f"{where}.walk[{j}]"
            if not isinstance(entry, dict):
                raise ValidationError(f"{at}: not a JSON object")
            u, v, count = (_expect(entry, key, int, at) for key in ("u", "v", "count"))
            if count not in (1, 2):
                raise ValidationError(f"{at}.count: {count} is not 1 or 2")
            eid = graph.edge_id(u, v)
            if eid in mult:
                raise ValidationError(f"{at}: edge ({u}, {v}) is already in the walk")
            mult[eid] = count
        if not 0 <= picker < len(batches):
            raise ValidationError(f"{where}.picker: {picker} is not one of the "
                                  f"pickers 0..{len(batches) - 1} of {len(batches)} batches")
        if picker in loaded:
            raise ValidationError(f"{where}.picker: picker {picker} already has "
                                  f"solution.batches[{loaded[picker][0]}]")
        loaded[picker] = (k, tuple(orders), Walk(tuple(sorted(mult.items()))))
    batching = tuple(loaded[t][1] for t in range(len(batches)))
    walks = tuple(loaded[t][2] for t in range(len(batches)))
    walk_sum = sum(walk.length(graph) for walk in walks)
    if walk_sum != total:
        raise ValidationError(f"solution.total: {total} is not the walks' length sum {walk_sum}")
    return Solution(batching, walks, total)


# -- the enumeration engine --------------------------------------------------


def _cycle_space(graph: PickingGraph) -> list[int]:
    """Edge bitmasks of every even-degree subgraph: the cycle space over GF(2).

    Each edge outside a BFS spanning forest closes one fundamental cycle,
    and the XOR of each subset of those cycles is one even subgraph.
    """
    root_path: dict[int, int] = {}  # vertex -> tree edges back to its root
    tree = 0
    for root in range(graph.n_vertices):
        if root in root_path:
            continue
        root_path[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v, eid in graph.adjacency[u]:
                if v not in root_path:
                    root_path[v] = root_path[u] ^ (1 << eid)
                    tree |= 1 << eid
                    queue.append(v)
    patterns = [0]
    for eid, (u, v) in enumerate(graph.edges):
        if not (tree >> eid) & 1:
            cycle = (1 << eid) ^ root_path[u] ^ root_path[v]
            patterns += [p ^ cycle for p in patterns]
    return patterns


def _subset_tables(graph: PickingGraph, patterns: np.ndarray):
    """Tables over every edge subset S of ``graph``, edge e being bit e of
    the index: the base-3 weight (the sum of ``3^(|E|-1-e)``), the mask of
    the vertices S touches, the number of edges, and the number of
    connected components of the subgraph (V(S), S).

    The even subgraphs inside S are the cycle space of (V(S), S), of
    dimension ``|S| - |V(S)| + c(S)``, so counting the ``patterns`` (the
    cycle space of the graph) inside S gives c(S).  The tables double once
    per edge, and the count is a subset-sum pass.
    """
    m = len(graph.edges)
    tern = touch = size = n_touched = np.zeros(1, dtype=np.int64)
    for e, (u, v) in enumerate(graph.edges):
        new_ends = 2 - ((touch >> u) & 1) - ((touch >> v) & 1)
        n_touched = np.concatenate((n_touched, n_touched + new_ends))
        touch = np.concatenate((touch, touch | (1 << u) | (1 << v)))
        tern = np.concatenate((tern, tern + 3 ** (m - 1 - e)))
        size = np.concatenate((size, size + 1))
    inside = np.zeros(1 << m, dtype=np.int64)
    inside[patterns] = 1
    for e in range(m):
        halves = inside.reshape(-1, 2, 1 << e)
        halves[:, 1] += halves[:, 0]
    # a power of two, so the exponent is exact
    dimension = np.frexp(inside.astype(np.float64))[1] - 1
    return tern, touch, size, n_touched - size + dimension


class WalkSpace:
    """All even-degree multiplicity vectors of a small picking graph.

    A row is even exactly when its edges of multiplicity 1 form a member
    of the cycle space, so the rows are each such pattern with every
    choice of 0 or 2 on the other edges.  A row is ``ok`` when its support
    touches the origin and is connected, which the component count of
    :func:`_subset_tables` decides.  Rows of ``mult`` are sorted by their
    base-3 code, the order in which a scan of ``{0,1,2}^|E|`` would meet
    them, so the smallest feasible index is the lexicographically smallest
    vector.  :meth:`route` is the package's one way to an exact route.
    """

    def __init__(self, graph: PickingGraph):
        m = len(graph.edges)
        if m > MAX_ORACLE_EDGES:
            raise OracleSizeError(
                f"|E| = {m} exceeds the desk-scale oracle bound "
                f"|E| <= {MAX_ORACLE_EDGES}")
        # the graph itself is not kept: the graph keeps its space, and a
        # value it derives holds no reference back
        self.n_vertices = graph.n_vertices
        self.n_artificial = graph.n_artificial
        self.subaisles = graph.subaisles
        self.n_edges = m

        patterns = np.array(_cycle_space(graph), dtype=np.int64)
        tern, touch, size, components = _subset_tables(graph, patterns)
        # each row as two edge masks: multiplicity 1 and multiplicity 2
        odd, two = patterns, np.zeros_like(patterns)
        for e in range(m):
            free = (odd >> e) & 1 == 0
            odd = np.concatenate((odd, odd[free]))
            two = np.concatenate((two, two[free] | (1 << e)))
        order = np.argsort(tern[odd] + 2 * tern[two])
        odd, two = odd[order], two[order]
        codes = (odd | (two << m)).astype("<i8")
        bits = np.unpackbits(codes.view(np.uint8).reshape(-1, 8), axis=1, bitorder="little")
        self.mult = (bits[:, :m] + 2 * bits[:, m:2 * m]).astype(np.int8)

        chain = (1 << graph.n_chain_edges) - 1
        vertical = size[odd & chain] + 2 * size[two & chain]
        horizontal = size[odd & ~chain] + 2 * size[two & ~chain]
        self.lengths = _price(graph.layout, vertical, horizontal)  # ints at int spacings

        support = odd | two
        touches_origin = (touch[support] >> graph.origin) & 1 == 1
        self.ok = touches_origin & (components[support] == 1)
        self.visited = np.where(touches_origin, touch[support], 0)
        self._no_reversal: Optional[np.ndarray] = None
        self._routes: tuple[dict, dict] = ({}, {})  # by no_reversal: pick set -> index

    # -- queries -----------------------------------------------------------

    def route(self, picks: Iterable[int], no_reversal: bool = False) -> int:
        """Index of the cheapest walk that visits every location of
        ``picks``, among those that fully traverse each subaisle they enter
        if ``no_reversal``; kept per pick set, so at most two per set of
        picking locations.  A pick set that holds anything but picking
        locations raises :class:`ValidationError` and is not kept."""
        picks = frozenset(picks)
        kept = self._routes[no_reversal]
        index = kept.get(picks)
        if index is None:
            for v in picks:
                if not self.n_artificial <= v < self.n_vertices:
                    raise ValidationError(f"required vertex {v} is not a picking location")
            mask = self.mask_no_reversal() if no_reversal else None
            index = kept[picks] = self.query(picks, mask)
        return index

    def query(self, required: Iterable[int], mask: Optional[np.ndarray] = None) -> int:
        req_bits = 0
        for v in required:
            if not (0 <= v < self.n_vertices):
                raise ValidationError(f"required vertex {v} not in graph")
            req_bits |= 1 << v
        feasible = self.ok & ((self.visited & req_bits) == req_bits)
        if mask is not None:
            feasible = feasible & mask
        idxs = np.flatnonzero(feasible)
        if idxs.size == 0:
            raise ValidationError("no feasible walk covers the required locations")
        j = idxs[int(np.argmin(self.lengths[idxs]))]
        return int(j)

    def walk(self, index: int) -> Walk:
        row = self.mult[index]
        return Walk(tuple((e, int(row[e])) for e in range(self.n_edges) if row[e]))

    def length(self, index: int):
        return self.lengths[index].item()

    # -- restriction mask ----------------------------------------------------

    def mask_no_reversal(self) -> np.ndarray:
        """Walks that traverse each subaisle they enter, read-only: made once."""
        if self._no_reversal is None:
            ok = np.ones(len(self.mult), dtype=bool)
            for sub in self.subaisles:
                block = self.mult[:, list(sub.edge_ids)]
                ok &= (block == block[:, :1]).all(axis=1)
            ok.flags.writeable = False
            self._no_reversal = ok
        return self._no_reversal


def _build_walk_space(graph: PickingGraph) -> WalkSpace:
    # the derived-value key: ``WalkSpace`` is looked up per call, so a
    # subclass installed in its place builds the spaces the graph keeps
    return WalkSpace(graph)


def walk_space(graph: PickingGraph) -> WalkSpace:
    """The graph's walk space, built on first use and kept with the graph."""
    return graph.derived(_build_walk_space)


# -- batching enumeration ----------------------------------------------------


def capacity_feasible_partitions(order_ids: Sequence[int], sizes: dict[int, int],
                                 capacity: int, max_blocks: int) -> Iterator[tuple]:
    """All partitions into at most ``max_blocks`` capacity-feasible batches.

    Orders are placed in id order, so blocks appear sorted by their smallest
    order id: the canonical representative of each partition orbit.
    """
    yield from _placements(sorted(order_ids), 0, sizes, capacity, max_blocks, [], [])


def _placements(order_ids: list[int], k: int, sizes: dict[int, int], capacity: int,
                max_blocks: int, parts: list[list[int]], loads: list[int]) -> Iterator[tuple]:
    """Every way to place orders ``k`` onward into ``parts`` (whose loads are
    ``loads``) or into new blocks; ``parts`` and ``loads`` are restored after
    each partition is yielded.  The state travels as arguments, so the
    recursion leaves no reference cycle behind."""
    if k == len(order_ids):
        yield tuple(map(tuple, parts))
        return
    o = order_ids[k]
    for i in range(len(parts)):
        if loads[i] + sizes[o] <= capacity:
            parts[i].append(o)
            loads[i] += sizes[o]
            yield from _placements(order_ids, k + 1, sizes, capacity, max_blocks, parts, loads)
            parts[i].pop()
            loads[i] -= sizes[o]
    if len(parts) < max_blocks:
        parts.append([o])
        loads.append(sizes[o])
        yield from _placements(order_ids, k + 1, sizes, capacity, max_blocks, parts, loads)
        parts.pop()
        loads.pop()


MAX_EXACT_ORDERS = 6


def _solve_by_enumeration(instance: Instance, graph: Optional[PickingGraph],
                          no_reversal: bool) -> Solution:
    if len(instance.orders) > MAX_EXACT_ORDERS:
        raise OracleSizeError(
            f"{len(instance.orders)} orders exceed the exact-solver bound "
            f"{MAX_EXACT_ORDERS} (partition enumeration)")
    graph = graph or build_graph(instance.layout)
    space = walk_space(graph)

    sizes = {o.id: o.size for o in instance.orders}
    T = instance.pickers
    route = _router(instance, graph, no_reversal)
    idle = space.length(route(()))

    def evaluate(partition):
        # the sum _route_batches reports: the batches, then idle departures
        lengths = map(space.length, map(route, partition))
        return sum(chain(lengths, repeat(idle, T - len(partition)))), partition

    partitions = list(capacity_feasible_partitions(
        list(instance.order_ids), sizes, instance.capacity, T))
    if not partitions:
        raise ValidationError("no capacity-feasible batching exists for this picker count")

    best_cost, best_partition = min(map(evaluate, partitions))
    return _route_batches(instance, graph, space, best_partition, route)


def _router(instance: Instance, graph: PickingGraph, no_reversal: bool = False):
    """Walk index of a batch's cheapest route, by its pick set."""
    picks = instance.all_pick_vertices(graph)
    route = walk_space(graph).route
    return lambda batch: route(frozenset().union(*(picks[o] for o in batch)), no_reversal)


def _route_batches(instance: Instance, graph: PickingGraph, space: WalkSpace,
                   batches: Sequence[tuple[int, ...]], route) -> Solution:
    """Route batch t for picker t; pickers beyond the batches get the
    route of an empty batch, the minimal departure walk."""
    batching = tuple(batches) + ((),) * (instance.pickers - len(batches))
    walks = tuple(space.walk(route(batch)) for batch in batching)
    solution = Solution(batching, walks, sum(w.length(graph) for w in walks))
    validate_solution(instance, graph, solution)
    return solution


def solve_exact(instance: Instance, graph: Optional[PickingGraph] = None) -> Solution:
    """Exact optimum by canonical partition enumeration over the oracle."""
    return _solve_by_enumeration(instance, graph, False)


def solve_no_reversal_exact(instance: Instance,
                            graph: Optional[PickingGraph] = None) -> Solution:
    """Exact optimum over walks that fully traverse every entered subaisle."""
    return _solve_by_enumeration(instance, graph, True)


def batching_to_solution(instance: Instance, graph: PickingGraph,
                         batches: Sequence[Iterable[int]]) -> Solution:
    """Route every batch of a (possibly heuristic) batching with the oracle.

    A heuristic may use more pickers than the bin-packing minimum; any
    spare pickers up to the instance count get the minimal departure walk.
    An empty batch or an unknown order id raises ``ValidationError``.
    """
    ordered = [tuple(sorted(b)) for b in batches]
    ids = set(instance.order_ids)
    for i, batch in enumerate(ordered):
        if not batch or not ids.issuperset(batch):
            raise ValidationError(f"batch {i} {list(batch)} is empty or holds an unknown order id")
    ordered.sort(key=lambda b: b[0])
    return _route_batches(instance, graph, walk_space(graph), ordered, _router(instance, graph))


__all__ = [
    "MAX_ORACLE_EDGES", "MAX_EXACT_ORDERS", "Walk", "Solution",
    "WalkSpace", "walk_space", "solve_exact",
    "solve_no_reversal_exact", "capacity_feasible_partitions",
    "validate_solution", "solution_to_dict", "save_solution", "load_solution",
    "batching_to_solution",
]
