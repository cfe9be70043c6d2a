"""Desk-scale exact solvers used as ground-truth oracles.

The routing oracle holds every edge multiplicity vector in ``{0,1,2}^|E|``
with even degrees everywhere (each directed arc is traversed at most once by
an optimal walk, so undirected multiplicity 2 suffices), and answers
minimum-walk queries by masking those vectors.  It builds them without
scanning all ``3^|E|``: a vector has even degrees exactly when the edges of
multiplicity 1 form an even subgraph, so each member of the cycle space is
combined with every choice of 0 or 2 on the remaining edges.  The tests
check the result against the full scan.  The oracle is bounded at
``|E| <= 14`` and the bound is enforced, never silently relaxed.

Ties are always broken by the lexicographically smallest multiplicity
vector so results are reproducible byte for byte.
"""

from __future__ import annotations

import json
import math
import weakref
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import OracleSizeError, UnsupportedFamilyError, ValidationError
from .instance import Instance, _expect, read_json
from .layout import PickingGraph, build_graph, connected_components

MAX_ORACLE_EDGES = 14

FORMAT_SOLUTION = "pickopt-solution-v1"


@dataclass(frozen=True)
class Walk:
    """Closed-walk support of one picker: edge id -> multiplicity in {1,2}."""

    picker: int
    edge_mult: tuple[tuple[int, int], ...]

    @property
    def mult(self) -> dict[int, int]:
        return dict(self.edge_mult)

    def length(self, graph: PickingGraph):
        return sum(graph.edge_length[e] * m for e, m in self.edge_mult)

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
    """Batching plus one walk per picker; total is the summed walk length."""

    batching: tuple[tuple[int, ...], ...]
    walks: tuple[Walk, ...]
    total: float


def validate_solution(instance: Instance, graph: PickingGraph, solution: Solution) -> None:
    if len(solution.batching) != len(solution.walks):
        raise ValidationError("solution needs one walk per picker")
    seen: set[int] = set()
    for t, orders in enumerate(solution.batching):
        load = 0
        required = set()
        for oid in orders:
            order = instance.order_by_id(oid)
            if oid in seen:
                raise ValidationError(f"order {oid} assigned twice")
            seen.add(oid)
            load += order.size
            required |= instance.pick_vertices(graph, order)
        if load > instance.capacity:
            raise ValidationError(f"picker {t} exceeds capacity")
        solution.walks[t].validate(graph, frozenset(required))
    if seen != set(instance.order_ids):
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
    doc = solution_to_dict(solution, graph)
    Path(path).write_bytes((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode("ascii"))


def load_solution(path, graph: PickingGraph) -> Solution:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise ValidationError("solution: not a JSON object")
    if _expect(doc, "format", str, "solution") != FORMAT_SOLUTION:
        raise ValidationError(f"format: expected {FORMAT_SOLUTION!r}")
    batches = _expect(doc, "batches", list, "solution")
    total = _expect(doc, "total", (int, float), "solution")
    for k, bdoc in enumerate(batches):
        where = f"solution.batches[{k}]"
        if not isinstance(bdoc, dict):
            raise ValidationError(f"{where}: not a JSON object")
        _expect(bdoc, "picker", int, where)
        _expect(bdoc, "orders", list, where)
        for j, entry in enumerate(_expect(bdoc, "walk", list, where)):
            if not isinstance(entry, dict):
                raise ValidationError(f"{where}.walk[{j}]: not a JSON object")
            for key in ("u", "v", "count"):
                _expect(entry, key, int, f"{where}.walk[{j}]")
    walks = []
    batching = []
    for bdoc in sorted(batches, key=lambda b: b["picker"]):
        mult: dict[int, int] = {}
        for entry in bdoc["walk"]:
            eid = graph.edge_id(entry["u"], entry["v"])
            mult[eid] = mult.get(eid, 0) + entry["count"]
        walks.append(Walk(bdoc["picker"], tuple(sorted(mult.items()))))
        batching.append(tuple(bdoc["orders"]))
    return Solution(tuple(batching), tuple(walks), total)


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


class WalkSpace:
    """All even-degree multiplicity vectors of a small picking graph.

    Rows of ``mult`` are sorted by their base-3 code, the order in which a
    scan of ``{0,1,2}^|E|`` would meet them, so the smallest feasible index
    is the lexicographically smallest vector.
    """

    def __init__(self, graph: PickingGraph):
        m = len(graph.edges)
        if m > MAX_ORACLE_EDGES:
            raise OracleSizeError(
                f"|E| = {m} exceeds the desk-scale oracle bound "
                f"{MAX_ORACLE_EDGES} (3^|E| enumeration)")
        # the graph itself is not kept: the walk-space cache holds spaces
        # weakly keyed by their graph, and a strong reference would pin it
        self.n_vertices = graph.n_vertices
        self.subaisles = graph.subaisles
        self.adjacency = graph.adjacency
        self.n_edges = m

        lengths = np.array(graph.edge_length, dtype=np.float64)
        self._integral = all(float(x).is_integer() for x in graph.edge_length)
        if self._integral:
            lengths = lengths.astype(np.int64)

        rows = []
        for pattern in _cycle_space(graph):
            # edges of the parity pattern carry 1, every other edge
            # independently 0 or 2
            odd = [(pattern >> e) & 1 == 1 for e in range(m)]
            free = [e for e in range(m) if not odd[e]]
            codes = np.arange(1 << len(free), dtype=np.int64)
            block = np.zeros((len(codes), m), dtype=np.int8)
            block[:, odd] = 1
            for k, e in enumerate(free):
                block[:, e] = 2 * ((codes >> k) & 1)
            rows.append(block)
        mult = np.concatenate(rows)
        powers = 3 ** np.arange(m - 1, -1, -1, dtype=np.int64)
        self.mult = mult[np.argsort(mult @ powers)]
        self.lengths = self.mult.astype(lengths.dtype) @ lengths

        # support flags by bitmask closure from the origin: ``reach`` grows
        # by the ends of every used edge that touches it until it is stable
        used = self.mult > 0
        ends = np.array([(1 << u) | (1 << v) for u, v in graph.edges], dtype=np.int64)
        support = np.bitwise_or.reduce(np.where(used, ends, 0), axis=1)
        reach = np.full(len(self.mult), 1 << graph.origin, dtype=np.int64)
        while True:
            before = reach.copy()
            for e in range(m):
                reach[used[:, e] & ((reach & ends[e]) != 0)] |= ends[e]
            if (reach == before).all():
                break
        touches_origin = (support >> graph.origin) & 1 == 1
        self.ok = touches_origin & (reach == support)
        self.visited = np.where(touches_origin, support, 0)

    # -- queries -----------------------------------------------------------

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

    def walk(self, index: int, picker: int = 0) -> Walk:
        row = self.mult[index]
        pairs = tuple((e, int(row[e])) for e in range(self.n_edges) if row[e])
        return Walk(picker, pairs)

    def length(self, index: int):
        value = self.lengths[index]
        return int(value) if self._integral else float(value)

    # -- restriction masks ---------------------------------------------------

    def mask_no_reversal(self) -> np.ndarray:
        """Walks where every entered subaisle is traversed completely."""
        ok = np.ones(len(self.mult), dtype=bool)
        for sub in self.subaisles:
            cols = list(sub.edge_ids)
            block = self.mult[:, cols]
            ok &= (block == block[:, :1]).all(axis=1)
        return ok

    def mask_single_traversal(self, exempt: frozenset[int] = frozenset()) -> np.ndarray:
        """No subaisle (outside ``exempt``) is fully traversed twice."""
        bad = np.zeros(len(self.mult), dtype=bool)
        for sub in self.subaisles:
            if sub.index in exempt:
                continue
            cols = list(sub.edge_ids)
            bad |= (self.mult[:, cols] == 2).all(axis=1)
        return ~bad

    def mask_no_artificial_uturn(self) -> np.ndarray:
        """No walk turns around at an artificial vertex it uses for nothing else."""
        bad = np.zeros(len(self.mult), dtype=bool)

        def corner(vertex: int, chain_edge: int):
            others = [eid for _, eid in self.adjacency[vertex] if eid != chain_edge]
            here = self.mult[:, chain_edge] == 2
            if others:
                here = here & (self.mult[:, others] == 0).all(axis=1)
            return here

        for sub in self.subaisles:
            bad |= corner(sub.tail, sub.edge_ids[-1])
            if sub.block >= 1:
                bad |= corner(sub.head, sub.edge_ids[0])
        return ~bad


_space_cache: "weakref.WeakKeyDictionary[PickingGraph, WalkSpace]" = weakref.WeakKeyDictionary()


def walk_space(graph: PickingGraph) -> WalkSpace:
    space = _space_cache.get(graph)
    if space is None:
        space = WalkSpace(graph)
        _space_cache[graph] = space
    return space


def route_oracle(graph: PickingGraph, required: Iterable[int],
                 mask: Optional[np.ndarray] = None, picker: int = 0) -> Walk:
    """Minimum-length closed walk from the origin covering ``required``.

    ``required`` may be empty; the result is then the minimal departure
    walk (cheapest out-and-back from the origin).
    """
    required = frozenset(required)
    for v in required:
        if v >= graph.n_vertices or graph.is_artificial(v):
            raise ValidationError(f"required vertex {v} is not a picking location")
    space = walk_space(graph)
    return space.walk(space.query(required, mask), picker)


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
                          mask_fn) -> Solution:
    if len(instance.orders) > MAX_EXACT_ORDERS:
        raise OracleSizeError(
            f"{len(instance.orders)} orders exceed the exact-solver bound "
            f"{MAX_EXACT_ORDERS} (partition enumeration)")
    graph = graph or build_graph(instance.layout)
    space = walk_space(graph)
    mask = mask_fn(space) if mask_fn is not None else None

    sizes = {o.id: o.size for o in instance.orders}
    T = instance.pickers
    route = _router(instance, graph, space, mask)
    departure_len = space.length(route(()))

    def evaluate(partition):
        cost = sum(space.length(route(batch)) for batch in partition)
        cost += (T - len(partition)) * departure_len
        return cost, partition

    partitions = list(capacity_feasible_partitions(
        list(instance.order_ids), sizes, instance.capacity, T))
    if not partitions:
        raise ValidationError("no capacity-feasible batching exists for this picker count")

    best_cost, best_partition = min(map(evaluate, partitions))
    return _route_batches(instance, graph, space, best_partition, route)


def _router(instance: Instance, graph: PickingGraph, space: WalkSpace,
            mask: Optional[np.ndarray] = None):
    """Walk index of a batch's cheapest route, memoized by its pick set."""
    picks = instance.all_pick_vertices(graph)
    memo: dict[frozenset, int] = {}

    def route(batch: tuple[int, ...]) -> int:
        req = frozenset().union(*(picks[o] for o in batch))
        idx = memo.get(req)
        if idx is None:
            idx = memo[req] = space.query(req, mask)
        return idx
    return route


def _route_batches(instance: Instance, graph: PickingGraph, space: WalkSpace,
                   batches: Sequence[tuple[int, ...]], route) -> Solution:
    """Route batch t for picker t; pickers beyond the batches get the
    route of an empty batch, the minimal departure walk."""
    batching = tuple(batches) + ((),) * (instance.pickers - len(batches))
    walks = tuple(space.walk(route(batch), picker=t) for t, batch in enumerate(batching))
    solution = Solution(batching, walks, sum(w.length(graph) for w in walks))
    validate_solution(instance, graph, solution)
    return solution


def solve_exact(instance: Instance, graph: Optional[PickingGraph] = None) -> Solution:
    """Exact optimum by canonical partition enumeration over the oracle."""
    return _solve_by_enumeration(instance, graph, None)


def solve_no_reversal_exact(instance: Instance,
                            graph: Optional[PickingGraph] = None) -> Solution:
    """Exact optimum over walks that fully traverse every entered subaisle."""
    if instance.layout.n_blocks > 2:
        raise UnsupportedFamilyError(
            "no-reversal routing is implemented for 1- and 2-block layouts")
    return _solve_by_enumeration(instance, graph, WalkSpace.mask_no_reversal)


# -- bin packing --------------------------------------------------------------


MAX_EXACT_BINPACK = 20


def first_fit_decreasing(sizes: Sequence[int], capacity: int) -> int:
    bins: list[int] = []
    for s in sorted(sizes, reverse=True):
        for i, load in enumerate(bins):
            if load + s <= capacity:
                bins[i] += s
                break
        else:
            bins.append(s)
    return len(bins)


def bin_pack_exact(sizes: Sequence[int], capacity: int) -> int:
    """Optimal bin count by branch and bound (FFD upper, sum lower bound)."""
    sizes = list(sizes)
    for s in sizes:
        if s > capacity:
            raise ValidationError(f"order of size {s} exceeds capacity {capacity}, infeasible")
        if s < 1:
            raise ValidationError("order sizes must be >= 1")
    if not sizes:
        return 0
    lower = math.ceil(sum(sizes) / capacity)
    upper = first_fit_decreasing(sizes, capacity)
    if upper == lower:
        return upper
    if len(sizes) > MAX_EXACT_BINPACK:
        raise OracleSizeError(
            f"{len(sizes)} sizes exceed the exact bin-packing bound {MAX_EXACT_BINPACK}")

    items = sorted(sizes, reverse=True)
    best = upper

    def dfs(k: int, bins: list[int]) -> None:
        nonlocal best
        if best == lower:
            return
        if k == len(items):
            best = min(best, len(bins))
            return
        if len(bins) >= best:
            return
        item = items[k]
        tried = set()
        for i in range(len(bins)):
            if bins[i] + item <= capacity and bins[i] not in tried:
                tried.add(bins[i])
                bins[i] += item
                dfs(k + 1, bins)
                bins[i] -= item
        if len(bins) + 1 < best:
            bins.append(item)
            dfs(k + 1, bins)
            bins.pop()

    dfs(0, [])
    return best


def batching_to_solution(instance: Instance, graph: PickingGraph,
                         batches: Sequence[Iterable[int]]) -> Solution:
    """Route every batch of a (possibly heuristic) batching with the oracle.

    A heuristic may use more pickers than the bin-packing minimum; any
    spare pickers up to the instance count get the minimal departure walk.
    """
    space = walk_space(graph)
    ordered = sorted((tuple(sorted(b)) for b in batches), key=lambda b: b[0])
    return _route_batches(instance, graph, space, ordered, _router(instance, graph, space))


__all__ = [
    "MAX_ORACLE_EDGES", "MAX_EXACT_ORDERS", "Walk", "Solution",
    "WalkSpace", "walk_space", "route_oracle", "solve_exact",
    "solve_no_reversal_exact", "bin_pack_exact", "first_fit_decreasing",
    "capacity_feasible_partitions",
    "validate_solution", "solution_to_dict", "save_solution", "load_solution",
    "batching_to_solution",
]
