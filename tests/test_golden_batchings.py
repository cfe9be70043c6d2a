"""Batchings pinned across commits.

Each digest is the sha256 of the ``seed_batching`` and ``cw2_batching``
batches of one seeded instance under one distance estimator: the serpentine
estimate on two-block layouts (the constructed-route minimum), the
one-block serpentine closed form, and the exact routing oracle on every
``ORACLE_SHAPES`` layout.  A change to an estimate, a tie-break or the order
in which merges are applied changes a digest.
"""

import hashlib
import json

import pytest

from conftest import ORACLE_SHAPES, shared_graph
from pickopt import (WarehouseLayout, cw2_batching, generate_instance,
                     make_oracle_estimator, make_s_shape_estimator, seed_batching)

# label -> (layout arguments, orders, delta, instance seed, capacity, estimator factory);
# the oracle instances get capacity 3, so that their orders need several batches
CASES = {
    **{f"sshape:10x2x15:{seed}": ((10, 2, 15), 20, 10, seed, 8, make_s_shape_estimator)
       for seed in (1, 2, 3)},
    **{f"sshape:20x2x30:{seed}": ((20, 2, 30), 50, 10, seed, 8, make_s_shape_estimator)
       for seed in (1, 2, 3)},
    **{f"sshape:10x1x15:{seed}": ((10, 1, 15), 20, 10, seed, 8, make_s_shape_estimator)
       for seed in (1, 2, 3)},
    **{f"oracle:{na}x{nb}x{m}": ((na, nb, m), 6, 10, 40 + k, 3, make_oracle_estimator)
       for k, (na, nb, m) in enumerate(ORACLE_SHAPES)},
    # instances where cw2 meets equal savings whose pairs order differently
    # by (min a, min b) than by (min b, min a)
    "ties:10x2x15": ((10, 2, 15), 20, 5, 2, 8, make_s_shape_estimator),
    "ties:10x1x15": ((10, 1, 15), 20, 5, 3, 8, make_s_shape_estimator),
    "ties:4x2x2:spacing-1-1": ((4, 2, 2, 1, 1), 20, 5, 1, 8, make_s_shape_estimator),
}

# recorded before the two-block closed form and the cached cw2 savings
GOLDEN = {
    "oracle:1x1x1":
        "6ea52fa1c99342257944bc764aead7c18f022e01876d4025a0497a54f4dcfcc9",
    "oracle:1x1x2":
        "f9c949e4f9630b73ea7e1aa6af3f9ed0355be3bedbde211b787fd4d850651c85",
    "oracle:1x2x1":
        "ccc4a1466751757d2c2aee594bef3c5def7f9abb1a3af82a63bbc9ce4c66f2dd",
    "oracle:1x2x2":
        "a1028f9258dcba7759fcf4574e37d437da10df57de095153d9e9947e7d134365",
    "oracle:2x1x1":
        "1c3d6aff6785eff5f663ee273be08565bd7366c6e129853ff017f5fa13dc7935",
    "oracle:2x1x2":
        "9849e7e5d2bfb1d30ef690ad57cb7116dacdd5b268f344445541cff431532025",
    "oracle:2x2x1":
        "b42a63d7ad4a928f3652d5aaed62674643ef3037c5b67b1b777e5b8b6dbe41e3",
    "oracle:3x1x1":
        "ffd74cb580c4ec1b42e7e2989dae245eec26554439ac5202ab678064d23fad22",
    "oracle:3x1x2":
        "6aa7511a53b31190b670a02780e58f8da759afc73f8cdfaafe6778bd949aefd6",
    "sshape:10x1x15:1":
        "555bc330c3d04a7f5ac59e2f901f1c35f6177046fce57dbc903334736034d455",
    "sshape:10x1x15:2":
        "d2e560ba1182903f40ef88abc2c4383d39703a005ddb9d839052ef224433051c",
    "sshape:10x1x15:3":
        "0d670c725eeb7e49705e3171bb0e451a3c0b27cfd09f582513bbbd293954b555",
    "sshape:10x2x15:1":
        "c6a882cbfe333ba5596a44d3120fbad833a80ea570d321b595a114a39f51ce1f",
    "sshape:10x2x15:2":
        "d5ead23d1f3155b66dcda19ec28bdcb6cae5250dbb1e3b7f18bc245404edb513",
    "sshape:10x2x15:3":
        "4865ba756847e31a083c49b7b7d5996e74fa20abccdfcb2e34f108fcd3d5a957",
    "sshape:20x2x30:1":
        "9d7b20ff30f574860472f89d21fe88f36d754d04553bbb7ba333dafe4944ce2a",
    "sshape:20x2x30:2":
        "d38a2405885a75cd75bf0b48f14281b928fc13d811bd7aaeb72bb6dbec0e29a6",
    "sshape:20x2x30:3":
        "1d34219e2b6f7638f92468c6a60a25b5720c64cadec98acdbf0dc23f74c9205b",
    "ties:10x1x15":
        "7fcff6812ccb064ab5f020187bc4182f6d7f13819c2a5d2c77ca6e465dc12e16",
    "ties:10x2x15":
        "fa003f7a240aeda6adbc87185ef0c66b2688c393fa82d052221d9b6a79221fb3",
    "ties:4x2x2:spacing-1-1":
        "b968803c6d71b48225b314a5adee361cb1fece0730c62cc3984e956ce5fec3bb",
}


def batching_digest(label: str) -> str:
    shape, n_orders, delta, seed, capacity, factory = CASES[label]
    layout = WarehouseLayout(*shape)
    graph = shared_graph(layout)
    instance = generate_instance(layout, n_orders, delta, seed=seed, capacity=capacity)
    batches = [[sorted(b) for b in algo(instance, factory(graph), graph).batches]
               for algo in (seed_batching, cw2_batching)]
    return hashlib.sha256(json.dumps(batches).encode()).hexdigest()


@pytest.mark.parametrize("label", sorted(CASES))
def test_batching_matches_golden_digest(label):
    assert batching_digest(label) == GOLDEN[label]
