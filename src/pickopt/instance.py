"""Problem instances: orders, generation, JSON persistence.

Instance files use the ``pickopt-instance-v1`` JSON schema::

    {
      "format": "pickopt-instance-v1",
      "layout": {"aisles": 2, "blocks": 1, "locs_per_subaisle": 2,
                 "loc_spacing": 1, "aisle_spacing": 2},
      "capacity": 8,
      "pickers": 2,                      # optional, defaults to bin packing
      "orders": [
        {"id": 0, "size": 3,
         "picks": [{"aisle": 0, "block": 0, "slot": 1, "side": 0}]}
      ]
    }

Generation follows a two-level draw: the number of picks of an order is
``1 + Poisson(delta / 5)`` (so the mean grows with the profile parameter
delta), pick coordinates are sampled uniformly without replacement over
all slots, and the order size is ``ceil(picks / 2)`` baskets clamped to
the trolley capacity.  Everything is driven by a single seeded generator,
so instances are reproducible bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .errors import OracleSizeError, ValidationError
from .layout import PickingGraph, WarehouseLayout, build_graph

FORMAT_INSTANCE = "pickopt-instance-v1"

DEFAULT_CAPACITY = 8
PICKS_PER_BASKET = 2


@dataclass(frozen=True)
class Pick:
    aisle: int
    block: int
    slot: int
    side: int

    def as_dict(self) -> dict:
        return {"aisle": self.aisle, "block": self.block, "slot": self.slot, "side": self.side}


@dataclass(frozen=True)
class Order:
    id: int
    size: int
    picks: tuple[Pick, ...]


def _require_int(value, where: str) -> None:
    # a bool is an int to Python but not an integer of the schema
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError(f"{where}: wrong type {type(value).__name__}")


@dataclass(frozen=True)
class Instance:
    """Orders on a layout.  Making one checks that there is an order, that
    the capacity, the picker count and every order id, size and pick
    coordinate are integers in range, and that every order fits the trolley,
    has a pick and an id of its own; it names an order ``orders[k]``, k its
    position.  It resolves each order's picks to their vertices, once."""

    layout: WarehouseLayout
    orders: tuple[Order, ...]
    capacity: int
    pickers: int
    _picks: dict[int, frozenset[int]] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        _require_int(self.capacity, "capacity")
        _require_int(self.pickers, "pickers")
        if self.capacity < 1:
            raise ValidationError("capacity must be >= 1")
        if self.pickers < 1:
            raise ValidationError("pickers must be >= 1")
        if not self.orders:
            raise ValidationError("orders: must not be empty")
        lay = self.layout
        bounds = (("aisle", lay.n_aisles), ("block", lay.n_blocks),
                  ("slot", lay.locs_per_subaisle), ("side", 2))
        picks: dict[int, frozenset[int]] = {}
        for k, o in enumerate(self.orders):
            _require_int(o.id, f"orders[{k}].id")
            _require_int(o.size, f"orders[{k}].size")
            if o.id in picks:
                raise ValidationError(f"orders[{k}].id: duplicate order id {o.id}")
            if o.size < 1:
                raise ValidationError(f"orders[{k}].size: must be >= 1")
            if o.size > self.capacity:
                raise ValidationError(f"orders[{k}].size: order exceeds capacity")
            if not o.picks:
                raise ValidationError(f"orders[{k}].picks: order has no picks")
            for j, p in enumerate(o.picks):
                for name, bound in bounds:
                    value = getattr(p, name)
                    # _require_int inlined: a call per coordinate is a
                    # measurable share of making an instance
                    if not isinstance(value, int) or isinstance(value, bool):
                        raise ValidationError(
                            f"orders[{k}].picks[{j}].{name}: wrong type {type(value).__name__}")
                    if not 0 <= value < bound:
                        raise ValidationError(
                            f"orders[{k}].picks[{j}].{name}: coordinate out of range")
            # both sides of an aisle share one chain vertex
            picks[o.id] = frozenset(lay.location(p.aisle, p.block, p.slot) for p in o.picks)
        object.__setattr__(self, "_picks", picks)

    @property
    def order_ids(self) -> tuple[int, ...]:
        return tuple(o.id for o in self.orders)

    def all_pick_vertices(self, graph: PickingGraph) -> Mapping[int, frozenset[int]]:
        """Order id -> the vertices of its picks on ``graph``, a read-only
        view; the graph must be one of the instance's layout."""
        if graph.layout != self.layout:
            raise ValidationError(
                f"graph of layout {graph.layout} is not the instance's {self.layout}")
        return MappingProxyType(self._picks)


def generate_instance(layout: WarehouseLayout, n_orders: int, delta: int, seed: int,
                      capacity: int = DEFAULT_CAPACITY) -> Instance:
    """Generate a random instance, deterministic for a fixed seed."""
    if n_orders < 1:
        raise ValidationError("n_orders must be >= 1")
    if delta < 1:
        raise ValidationError("delta must be >= 1")
    if capacity < 1:
        raise ValidationError("capacity must be >= 1")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be an integer >= 0, got {seed!r}")
    rng = np.random.default_rng(seed)

    n, q, m = layout.n_aisles, layout.n_blocks, layout.locs_per_subaisle
    n_slots = n * q * m * 2
    orders = []
    for oid in range(n_orders):
        n_picks = 1 + int(rng.poisson(delta / 5.0))
        n_picks = min(n_picks, n_slots)
        chosen = rng.choice(n_slots, size=n_picks, replace=False)
        picks = []
        for code in sorted(int(c) for c in chosen):
            side = code % 2
            slot = (code // 2) % m
            aisle = (code // (2 * m)) % n
            block = code // (2 * m * n)
            picks.append(Pick(aisle, block, slot, side))
        size = min(capacity, max(1, math.ceil(n_picks / PICKS_PER_BASKET)))
        orders.append(Order(oid, size, tuple(picks)))

    pickers = bin_pack_exact([o.size for o in orders], capacity)
    return Instance(layout=layout, orders=tuple(orders), capacity=capacity, pickers=pickers)


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


def _lower_bound(sizes: list[int], capacity: int) -> int:
    """Martello and Toth's bound L2, never below ``ceil(sum / capacity)``.

    For each k from 0 to ``capacity / 2``: every item above ``capacity - k``
    needs a bin of its own, so does every item above ``capacity / 2``, and
    the items from k to ``capacity / 2`` open more bins once they overflow
    the room left in the second kind of bin.
    """
    best = 0
    for k in {0} | {s for s in sizes if 2 * s <= capacity}:
        alone = sum(s > capacity - k for s in sizes)
        big = [s for s in sizes if 2 * s > capacity >= s + k]
        small = sum(s for s in sizes if k <= s and 2 * s <= capacity)
        spill = small - (len(big) * capacity - sum(big))
        best = max(best, alone + len(big) + max(0, -(-spill // capacity)))
    return best


def bin_pack_exact(sizes: Sequence[int], capacity: int) -> int:
    """Optimal bin count by branch and bound (FFD upper, L2 lower bound)."""
    sizes = list(sizes)
    for s in sizes:
        if s > capacity:
            raise ValidationError(f"order of size {s} exceeds capacity {capacity}, infeasible")
        if s < 1:
            raise ValidationError("order sizes must be >= 1")
    if not sizes:
        return 0
    lower = _lower_bound(sizes, capacity)
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


# -- JSON persistence ----------------------------------------------------


def instance_to_dict(instance: Instance) -> dict:
    lay = instance.layout
    return {
        "format": FORMAT_INSTANCE,
        "layout": {
            "aisles": lay.n_aisles,
            "blocks": lay.n_blocks,
            "locs_per_subaisle": lay.locs_per_subaisle,
            "loc_spacing": lay.loc_spacing,
            "aisle_spacing": lay.aisle_spacing,
        },
        "capacity": instance.capacity,
        "orders": [
            {"id": o.id, "size": o.size, "picks": [p.as_dict() for p in o.picks]}
            for o in instance.orders
        ],
        "pickers": instance.pickers,
    }


def canonical_json_bytes(doc: dict) -> bytes:
    """The bytes of ``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``.

    With ``indent`` set, ``json`` encodes through a chain of Python
    generators, one per nesting level.  This writer appends the same text
    to one list, and formats ints and strings directly.
    """
    out: list[str] = []
    _write_json(doc, "\n", out)
    out.append("\n")
    return "".join(out).encode("ascii")


def _write_json(value, newline: str, out: list[str]) -> None:
    if type(value) is int:
        out.append(repr(value))
    elif isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif isinstance(value, dict) and value:
        inner = newline + "  "
        sep = "{"
        for key in sorted(value):
            out.append(sep + inner + encode_basestring_ascii(key) + ": ")
            _write_json(value[key], inner, out)
            sep = ","
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)) and value:
        inner = newline + "  "
        sep = "["
        for item in value:
            out.append(sep + inner)
            _write_json(item, inner, out)
            sep = ","
        out.append(newline + "]")
    else:
        # empty containers and the other scalars; json refuses anything else
        out.append(json.dumps(value))


def save_instance(instance: Instance, path) -> None:
    Path(path).write_bytes(canonical_json_bytes(instance_to_dict(instance)))


def _expect(doc: dict, key: str, types, where: str):
    if key not in doc:
        raise ValidationError(f"{where}.{key}: missing field")
    value = doc[key]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ValidationError(f"{where}.{key}: wrong type {type(value).__name__}")
    return value


def instance_from_dict(doc: dict) -> Instance:
    if not isinstance(doc, dict):
        raise ValidationError("instance: not a JSON object")
    if doc.get("format") != FORMAT_INSTANCE:
        raise ValidationError(f"format: expected {FORMAT_INSTANCE!r}, got {doc.get('format')!r}")
    lay_doc = _expect(doc, "layout", dict, "instance")
    layout = WarehouseLayout(
        n_aisles=_expect(lay_doc, "aisles", int, "layout"),
        n_blocks=_expect(lay_doc, "blocks", int, "layout"),
        locs_per_subaisle=_expect(lay_doc, "locs_per_subaisle", int, "layout"),
        loc_spacing=_expect(lay_doc, "loc_spacing", (int, float), "layout"),
        aisle_spacing=_expect(lay_doc, "aisle_spacing", (int, float), "layout"),
    )
    capacity = _expect(doc, "capacity", int, "instance")
    orders_doc = _expect(doc, "orders", list, "instance")
    orders = []
    for k, odoc in enumerate(orders_doc):
        where = f"orders[{k}]"
        if not isinstance(odoc, dict):
            raise ValidationError(f"{where}: not an object")
        oid = _expect(odoc, "id", int, where)
        size = _expect(odoc, "size", int, where)
        picks_doc = _expect(odoc, "picks", list, where)
        picks = []
        for j, pdoc in enumerate(picks_doc):
            pwhere = f"{where}.picks[{j}]"
            if not isinstance(pdoc, dict):
                raise ValidationError(f"{pwhere}: not an object")
            picks.append(Pick(*(_expect(pdoc, key, int, pwhere)
                                for key in ("aisle", "block", "slot", "side"))))
        orders.append(Order(oid, size, tuple(picks)))

    if "pickers" in doc:
        pickers = _expect(doc, "pickers", int, "instance")
        return Instance(layout=layout, orders=tuple(orders), capacity=capacity, pickers=pickers)
    # the instance checks its picks before bin packing, whose size bound
    # (exit 3) must not mask a bad coordinate (exit 2)
    instance = Instance(layout=layout, orders=tuple(orders), capacity=capacity, pickers=1)
    return replace(instance, pickers=bin_pack_exact([o.size for o in orders], capacity))


def read_json(path):
    """The document in a JSON file; a file that is not JSON text is a
    validation error."""
    try:
        return json.loads(Path(path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"invalid JSON in {path}: {exc}") from exc


def load_instance(path) -> Instance:
    return instance_from_dict(read_json(path))


def instance_graph(instance: Instance) -> PickingGraph:
    return build_graph(instance.layout)
