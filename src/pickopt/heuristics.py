"""Batching heuristics and the serpentine distance estimator.

Both heuristics take a distance estimator, a callable from a frozenset of
pick vertices to a route length, so they can run against the serpentine
estimate (fast, the experimental setup) or against the exact routing
oracle (for apples-to-apples comparisons on tiny instances).

The serpentine estimate is a closed form on one and two blocks alike: it
counts the subaisle traversals ``V`` and aisle steps ``H`` of the cheapest
S-shape route and prices ``V * (locs_per_subaisle + 1)`` chain steps and
``H`` aisle steps as a walk is priced (:mod:`pickopt.layout`).  On two
blocks a route is ``r_S1``, which sweeps block 1 except an anchor subaisle,
then block 2, and ascends the anchor last, or ``r_S2``, which sweeps block
1 and then block 2.  The estimate builds no route; the tests check it
against constructed routes priced step by step.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .errors import UnsupportedFamilyError, ValidationError
from .exact import walk_space
from .instance import Instance
from .layout import PickingGraph, _price, build_graph

Estimator = Callable[[frozenset], float]


@dataclass(frozen=True)
class Batching:
    """A capacity-feasible partition of the orders."""

    batches: tuple[frozenset[int], ...]


def validate_batching(instance: Instance, batching: Batching) -> None:
    seen: set[int] = set()
    sizes = {o.id: o.size for o in instance.orders}
    for i, batch in enumerate(batching.batches):
        if not isinstance(batch, frozenset) or not batch or not batch <= sizes.keys():
            raise ValidationError(f"batch {i} {batch!r} is not a nonempty frozenset "
                                  "of the instance's order ids")
        load = sum(sizes[o] for o in batch)
        if load > instance.capacity:
            raise ValidationError("batch exceeds capacity")
        if batch & seen:
            raise ValidationError("order batched twice")
        seen |= batch
    if seen != set(instance.order_ids):
        raise ValidationError("batching does not cover all orders")


def _canonical(batches: Iterable[frozenset]) -> tuple[frozenset, ...]:
    return tuple(sorted((frozenset(b) for b in batches), key=min))


def s_shape_estimate(graph: PickingGraph, picks: Iterable[int]):
    """Serpentine route length estimate for one batch of picks.

    Empty pick sets cost zero (no departure is counted in estimation
    mode).  Single-block layouts: one vertical traversal per picked
    subaisle, one more if their number is odd, plus twice the distance to
    the rightmost picked aisle.  Two-block layouts: the length of the
    cheapest ``r_S1`` or ``r_S2`` route, counted without building one (see
    :func:`_two_block_units`).
    """
    picks = frozenset(picks)
    if not picks:
        return 0
    layout = graph.layout
    chain = layout.locs_per_subaisle + 1  # chain steps of one traversal
    subs = sorted({graph.subaisle_of(v) for v in picks})
    if None in subs:
        raise ValidationError("picks must be picking locations")
    if layout.n_blocks == 1:
        rightmost = max(graph.subaisles[i].aisle for i in subs)
        return _price(layout, (len(subs) + len(subs) % 2) * chain, 2 * rightmost)
    if layout.n_blocks == 2:
        n = layout.n_aisles
        k1 = [i for i in subs if i < n]
        k2 = [i - n for i in subs if i >= n]
        return min(_price(layout, v * chain, h) for v, h in _two_block_units(k1, k2))
    raise UnsupportedFamilyError("serpentine estimation supports 1- and 2-block layouts")


def _two_block_units(k1: list[int], k2: list[int]) -> list[tuple[int, int]]:
    """``(V, H)`` of the shortest ``r_S1`` (if ``k1``) and ``r_S2`` routes.

    ``k1`` and ``k2`` are the sorted picked aisles of blocks 1 and 2.  All
    variants of a kind make the same traversals, so ``V`` depends only on
    the kind and the parities of ``|k1|`` and ``|k2|``; for a fixed ``V``
    the length grows with ``H``, so the fewest aisle steps win.  The steps
    follow from where the sweeps end: block 1 is swept left to right from
    aisle 0, block 2 in either direction, both transit choices cost the
    same, and the route returns to aisle 0.
    """
    n1, n2 = len(k1), len(k2)

    def steps(end1: int, goal: int) -> int:
        # from the end of the block-1 sweep, through block 2, to ``goal``
        if not k2:
            return end1 + abs(end1 - goal)
        lo, hi = k2[0], k2[-1]
        return end1 + hi - lo + min(abs(end1 - lo) + abs(hi - goal),
                                    abs(end1 - hi) + abs(lo - goal))

    units = []
    if k1:
        # r_S1 ascends its anchor i0 last, after a sweep of the other
        # block-1 aisles.  Its steps depend on i0 through terms
        # |x - i0| + i0, which never fall as i0 grows, and the anchor at
        # the largest aisle mirrors the one at the second largest; so the
        # leftmost anchor is cheapest, and the sweep ends at the largest.
        units.append((n1 + n1 % 2 + n2 + n2 % 2,
                      steps(k1[-1] if n1 > 1 else 0, k1[0]) + k1[0]))
    # r_S2 transits to block 2 after an even block-1 sweep, and goes home
    # from the middle cross aisle after an even block-2 sweep, from the
    # bottom after an odd one
    v2 = n1 + 1 - n1 % 2 + n2 + 1 + n2 % 2 if k2 else n1 + n1 % 2
    units.append((v2, steps(k1[-1] if k1 else 0, 0)))
    return units


def make_s_shape_estimator(graph: PickingGraph) -> Estimator:
    cache: dict[frozenset, float] = {}

    def estimate(picks: frozenset):
        value = cache.get(picks)
        if value is None:
            value = s_shape_estimate(graph, picks)
            cache[picks] = value
        return value

    return estimate


def make_oracle_estimator(graph: PickingGraph) -> Estimator:
    """Exact minimum walk length of each pick set, as the graph's walk
    space routes and keeps it."""

    def estimate(picks: frozenset):
        if not picks:
            return 0
        space = walk_space(graph)
        return space.length(space.route(picks))

    return estimate


def _distinct_subaisles(graph: PickingGraph, picks: frozenset) -> int:
    return len({graph.subaisle_of(v) for v in picks})


def seed_batching(instance: Instance, distance_estimator: Estimator = None,
                  graph: PickingGraph = None) -> Batching:
    """Two-phase seed construction.

    Seed rule: the unassigned order spanning the most distinct subaisles
    (ties to the smallest id).  Addition rule: the unassigned order that
    fits and increases the estimated route length the least (ties to the
    smallest id), until nothing fits.
    """
    graph = graph or build_graph(instance.layout)
    estimate = distance_estimator or make_s_shape_estimator(graph)
    picks = instance.all_pick_vertices(graph)
    sizes = {o.id: o.size for o in instance.orders}

    remaining = sorted(instance.order_ids)
    batches: list[frozenset[int]] = []
    while remaining:
        seed = max(remaining, key=lambda o: (_distinct_subaisles(graph, picks[o]), -o))
        batch = [seed]
        load = sizes[seed]
        batch_picks = picks[seed]
        remaining.remove(seed)
        while True:
            candidates = [o for o in remaining if load + sizes[o] <= instance.capacity]
            if not candidates:
                break
            base = estimate(batch_picks)
            best = min(candidates,
                       key=lambda o: (estimate(batch_picks | picks[o]) - base, o))
            batch.append(best)
            load += sizes[best]
            batch_picks = batch_picks | picks[best]
            remaining.remove(best)
        batches.append(frozenset(batch))
    result = Batching(_canonical(batches))
    validate_batching(instance, result)
    return result


def cw2_batching(instance: Instance, distance_estimator: Estimator = None,
                 graph: PickingGraph = None) -> Batching:
    """Savings batching, recomputing variant.

    Savings of merging two batches: the sum of their separate estimated
    lengths minus the estimate of the merged pick set.  The best strictly
    positive feasible merge is applied and savings are recomputed against
    the merged batches until no improving merge remains.  Ties break on
    the smallest (min order id, min order id) pair.  A pair's saving never
    changes while both batches live, so it is priced once, and a merge
    prices only the pairs of the merged batch.
    """
    graph = graph or build_graph(instance.layout)
    estimate = distance_estimator or make_s_shape_estimator(graph)
    picks = instance.all_pick_vertices(graph)
    sizes = {o.id: o.size for o in instance.orders}

    # live batches by their smallest order id: orders, pick set, load
    batches = {o: (frozenset([o]), picks[o], sizes[o]) for o in sorted(instance.order_ids)}
    # (min a, min b) with min a < min b -> strictly positive saving
    savings: dict[tuple[int, int], float] = {}

    def price(a: int, b: int) -> None:
        _, picks_a, load_a = batches[a]
        _, picks_b, load_b = batches[b]
        if load_a + load_b > instance.capacity:
            return
        saving = estimate(picks_a) + estimate(picks_b) - estimate(picks_a | picks_b)
        if saving > 0:
            savings[a, b] = saving

    ids = list(batches)
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            price(a, b)
    while savings:
        a, b = min(savings, key=lambda pair: (-savings[pair], pair))
        orders_a, picks_a, load_a = batches.pop(a)
        orders_b, picks_b, load_b = batches.pop(b)
        savings = {pair: v for pair, v in savings.items() if a not in pair and b not in pair}
        batches[a] = (orders_a | orders_b, picks_a | picks_b, load_a + load_b)
        for c in batches:
            if c != a:
                price(min(a, c), max(a, c))
    result = Batching(_canonical(orders for orders, _, _ in batches.values()))
    validate_batching(instance, result)
    return result
