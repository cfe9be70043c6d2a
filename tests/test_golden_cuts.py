"""Separation pinned across commits.

Each digest is the sha256 of the cut requests that ``separate_connectivity``
returns on seeded random 0/1 candidates, and of the rows that ``cut_to_row``
makes of them (name, coefficients by variable name, sense, right-hand side),
for one formulation kind over one seeded instance.  The instances are those
of the golden exports plus the one-aisle layouts, where the origin has a
single departure edge.  A change to a family's anchors, the edges its cuts
count, its anchor coefficient or the row names changes a digest.
"""

import hashlib
import json
import random

import pytest

from conftest import shared_graph
from pickopt import (VariableAssignment, WarehouseLayout, build_model, cut_to_row,
                     generate_instance, separate_connectivity)

# label -> (layout arguments, orders, delta, instance seed)
SHAPES = {
    "3x1x2": ((3, 1, 2, 1, 2), 4, 10, 5),
    "2x2x1": ((2, 2, 1, 1, 1), 4, 10, 126),
    "1x1x2": ((1, 1, 2, 1, 2), 3, 10, 7),
    "1x2x1": ((1, 2, 1, 1, 2), 3, 10, 7),
}
KINDS_BY_BLOCKS = {
    1: ("P_basic", "P_A", "P_G", "P_U", "P_U1"),
    2: ("P_basic", "P_A", "P_G", "P_U", "P_U2"),
}
CASES = [(kind, shape) for shape, (args, *_) in SHAPES.items()
         for kind in KINDS_BY_BLOCKS[args[1]]]
CANDIDATES = 200
DENSITIES = (0.05, 0.15, 0.3, 0.5)

# recorded before the families were described by one table
GOLDEN = {
    "P_basic:3x1x2":
        "71b9c107b63a8329b95eff79a4c38a7f5df4ffbf5823cb5970a826cb29ddddb5",
    "P_A:3x1x2":
        "53126c3170f93f6c1a80d78d61e2ed75b21fd8857463ce2f9925b19850218957",
    "P_G:3x1x2":
        "cbbf94b5134e1fabad81c0767c7d37bd78d9360ea3f140ef03655f7691785d4c",
    "P_U:3x1x2":
        "686a09a193b732ffeef3e4cb4f2faa2f33b36467275db66e70e20a1b0720cb2a",
    "P_U1:3x1x2":
        "e4a45ba1a2eee6c1a0478792c33b135aa4529c571dafbdfb58b0c929c5b1e3d3",
    "P_basic:2x2x1":
        "537e821d00561452099327805c42da53e3a2ac5ff77db46bc9b30e9421ec0342",
    "P_A:2x2x1":
        "bce5757f7cb466b44c6252bb179f6e53366058a0a9e5bb6c5e8729063033b146",
    "P_G:2x2x1":
        "d93b3338e55daa95c55f3dabdada93f6ad3aef2bac1ba20c363d88e365501918",
    "P_U:2x2x1":
        "19915c91c39d37fd453c1be9f975ee473c5de1014075843ea6075d911d599209",
    "P_U2:2x2x1":
        "d755746462fd1977f00827e7e4f587064cfc6bbe288771580916f22bea41ec80",
    "P_basic:1x1x2":
        "bfeccef33f16cb68465617c8247bcf903c043766b21329a3538e63de1a5c41dc",
    "P_A:1x1x2":
        "027eb59afa1472de496d4a7054fd7ee9b56a17918a1d721a8c60190058d6ec41",
    "P_G:1x1x2":
        "bbf888f3a6ccfc71ef7e4c3c12896b927090c60faa5087521cdc26e428a3cbe2",
    "P_U:1x1x2":
        "77815caded537d71e58332e4a372a3b2e7a1485bfeb986bea6bf56bf1d0f5226",
    "P_U1:1x1x2":
        "1c3c24ab2ac038c783169efcc0e39331dd82224a7b0cb0d7181c93353dad8e27",
    "P_basic:1x2x1":
        "79ed3fd2f87b78016ae6eaadb20a0bb17f1fca219432edc545a5198337d31bbd",
    "P_A:1x2x1":
        "891ba52c87b1532c02cc19f2ed822c72ff1f6ddb7265bf48316df0e40e48db21",
    "P_G:1x2x1":
        "c66bae7557efc2dc87138ed7056a4480981d450d5b73311624f120a53eeb4044",
    "P_U:1x2x1":
        "c7ed32bfb5f2a23527483c369aab0ef8a79e96a1624c8934d065ff4f4c7fea54",
    "P_U2:1x2x1":
        "3c1b0c44bb16f38eea9167798a499c29378245e755402490e19e57cd795a6863",
}


def setup(kind, shape):
    args, n_orders, delta, seed = SHAPES[shape]
    layout = WarehouseLayout(*args)
    graph = shared_graph(layout)
    instance = generate_instance(layout, n_orders, delta, seed=seed)
    return instance, graph, build_model(instance, graph, kind)


def candidates(model, label):
    """Seeded 0/1 candidates over every model variable."""
    rng = random.Random(label)
    names = [v.name for v in model.variables]
    for k in range(CANDIDATES):
        density = DENSITIES[k % len(DENSITIES)]
        yield VariableAssignment({name: 1 for name in names if rng.random() < density})


def row_record(model, row):
    return [row.name, [[model.var_name(pos), coef] for pos, coef in row.coeffs],
            row.sense, row.rhs]


def separation_record(kind, shape):
    instance, graph, model = setup(kind, shape)
    record = []
    for assignment in candidates(model, f"{kind}:{shape}"):
        cuts = separate_connectivity(graph, kind, assignment, instance)
        rows = [cut_to_row(cut, model, graph) for cut in cuts]
        record.append([[[c.picker, sorted(c.vertex_set), c.family, c.anchor_vertex]
                        for c in cuts],
                       [row_record(model, row) for row in rows]])
    return record


@pytest.mark.parametrize("kind,shape", CASES, ids=[f"{k}:{s}" for k, s in CASES])
def test_golden_cut_digest(kind, shape):
    record = separation_record(kind, shape)
    assert any(cuts for cuts, _ in record), "no candidate yields a cut"
    digest = hashlib.sha256(json.dumps(record).encode()).hexdigest()
    assert digest == GOLDEN[f"{kind}:{shape}"]

