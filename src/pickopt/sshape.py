"""Serpentine (S-shape) routes for two-block no-reversal routing.

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
aisle steps.  Its length is ``route_length(layout, V, H)``, i.e.
``V * d + H * s``, the one rule that the closed-form estimate in
:mod:`pickopt.heuristics` also applies, so both give the same float for the
same route.  The explicit construction is kept for encoding a route into a
model (:func:`pickopt.encoding.encode_best_s_shape`) and as the reference
the estimate is tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .errors import UnsupportedFamilyError, ValidationError
from .layout import PickingGraph, WarehouseLayout

R_S1 = "r_S1"
R_S2 = "r_S2"

TOP_BAND = "top"
MIDDLE_BAND = "middle"
BOTTOM_BAND = "bottom"

_STAR_BLOCKS = {TOP_BAND: 0, MIDDLE_BAND: 1, BOTTOM_BAND: 2}


def route_length(layout: WarehouseLayout, vertical: int, horizontal: int):
    """Length of ``vertical`` subaisle traversals and ``horizontal`` aisle steps."""
    return vertical * layout.subaisle_length + horizontal * layout.aisle_spacing


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
        return SShapeRoute(kind, tuple(self.visits), i0,
                           self.vertical * layout.subaisle_length,
                           route_length(layout, self.vertical, self.horizontal),
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


def s_shape_candidates(graph: PickingGraph, K1: Iterable[int],
                       K2: Iterable[int]) -> list[SShapeRoute]:
    """Every constructed route variant: r_S1 for each anchor choice, r_S2."""
    k1, _ = _split_sets(graph, K1, K2)
    routes = []
    for i0 in k1:
        routes.extend(s_shape_variants(graph, K1, K2, R_S1, i0=i0))
    routes.extend(s_shape_variants(graph, K1, K2, R_S2))
    return routes
