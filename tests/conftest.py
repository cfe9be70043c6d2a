import os
import random
import sys
from pathlib import Path

import pytest
from hypothesis import settings

# HYPOTHESIS_PROFILE=ci runs every property test on the same examples, with
# no deadline, so that a slow or unlucky host cannot fail a run
settings.register_profile("ci", derandomize=True, deadline=None)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "default"))

sys.path.insert(0, str(Path(__file__).parent))

from pickopt import Instance, Order, Pick, WarehouseLayout, build_graph, generate_instance

# layout shapes whose sparse graph stays within the oracle bound |E| <= 14
ORACLE_SHAPES = [
    (1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
    (2, 1, 1), (2, 1, 2), (2, 2, 1), (3, 1, 1), (3, 1, 2),
]

_GRAPH_CACHE = {}


def shared_graph(layout: WarehouseLayout):
    key = (layout.n_aisles, layout.n_blocks, layout.locs_per_subaisle,
           layout.loc_spacing, layout.aisle_spacing)
    if key not in _GRAPH_CACHE:
        _GRAPH_CACHE[key] = build_graph(layout)
    return _GRAPH_CACHE[key]


def single_batch(layout: WarehouseLayout, graph, chosen) -> Instance:
    """One picker and one order that picks every vertex in ``chosen``."""
    subs = [graph.subaisles[graph.subaisle_of(v)] for v in sorted(chosen)]
    picks = tuple(Pick(sub.aisle, sub.block, sub.locs.index(v), 0)
                  for sub, v in zip(subs, sorted(chosen)))
    return Instance(layout, (Order(0, 1, picks),), 8, 1)


def make_suite(count: int, shapes=None, master_seed: int = 2024,
               max_orders: int = 5):
    """Seeded random instances over desk-scale layouts."""
    rng = random.Random(master_seed)
    shapes = shapes or ORACLE_SHAPES
    suite = []
    k = 0
    while len(suite) < count:
        na, nb, m = shapes[rng.randrange(len(shapes))]
        layout = WarehouseLayout(na, nb, m, 1, rng.choice((1, 2)))
        n_orders = 1 + rng.randrange(max_orders)
        delta = rng.choice((5, 10, 20))
        instance = generate_instance(layout, n_orders, delta, seed=k)
        suite.append((instance, shared_graph(layout)))
        k += 1
    return suite


@pytest.fixture(scope="session")
def acceptance_suite():
    return make_suite(100)


@pytest.fixture(scope="session")
def suite_solutions(acceptance_suite):
    from pickopt import solve_exact

    return [solve_exact(instance, graph) for instance, graph in acceptance_suite]
