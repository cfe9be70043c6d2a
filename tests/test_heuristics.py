import itertools
import random

import pytest

from conftest import ORACLE_SHAPES, make_suite, shared_graph
from oracles import route_oracle
from pickopt import (Batching, Instance, Order, Pick, UnsupportedFamilyError,
                     ValidationError, WarehouseLayout, batching_to_solution,
                     cw2_batching, generate_instance, make_oracle_estimator,
                     make_s_shape_estimator, s_shape_estimate, seed_batching,
                     solve_exact, validate_batching)
from pickopt.heuristics import _two_block_units
from routes import R_S1, R_S2, s_shape_candidates

LAYOUT = WarehouseLayout(2, 1, 2, 1, 2)


def test_estimate_empty_is_zero():
    g = shared_graph(LAYOUT)
    assert s_shape_estimate(g, frozenset()) == 0


def test_estimate_single_block_even():
    g = shared_graph(LAYOUT)
    picks = {g.subaisles[0].locs[0], g.subaisles[1].locs[0]}
    d = (LAYOUT.locs_per_subaisle + 1) * LAYOUT.loc_spacing
    assert s_shape_estimate(g, picks) == 2 * d + 2 * LAYOUT.aisle_spacing


def test_estimate_single_block_odd_adds_one_traversal():
    g = shared_graph(LAYOUT)
    picks = {g.subaisles[0].locs[0]}
    assert s_shape_estimate(g, picks) == 2 * (LAYOUT.locs_per_subaisle + 1) * LAYOUT.loc_spacing


SPACINGS = [(1, 2), (0.5, 1.5), (0.3, 1.7), (0.1, 0.3)]


def assert_estimate_matches_candidates(g, subaisles):
    # the estimate counts what the constructed routes measure, to the last
    # bit, and so does its count for each route kind
    n = g.layout.n_aisles
    picks = {g.subaisles[i].locs[-1] for i in subaisles}
    K1 = [i for i in subaisles if i < n]
    K2 = [i for i in subaisles if i >= n]
    routes = s_shape_candidates(g, K1, K2)
    expected = min(r.total_length for r in routes)
    assert s_shape_estimate(g, picks) == expected, (g.layout, subaisles)
    kinds = ([R_S1] if K1 else []) + [R_S2]
    layout = g.layout
    for kind, (v, h) in zip(kinds, _two_block_units(K1, [i - n for i in K2])):
        shortest = min(r.total_length for r in routes if r.kind == kind)
        priced = (layout.loc_spacing * (v * (layout.locs_per_subaisle + 1))
                  + layout.aisle_spacing * h)
        assert priced == shortest, (layout, subaisles, kind)


def test_estimate_two_block_matches_candidates():
    for spacing in SPACINGS:
        for n_aisles, locs in itertools.product((2, 3, 4), (1, 2)):
            g = shared_graph(WarehouseLayout(n_aisles, 2, locs, *spacing))
            subaisles = range(2 * n_aisles)
            for size in range(1, 2 * n_aisles + 1):
                for chosen in itertools.combinations(subaisles, size):
                    assert_estimate_matches_candidates(g, chosen)
    rng = random.Random(12)
    for k in range(300):
        g = shared_graph(WarehouseLayout(20, 2, 30, *SPACINGS[k % len(SPACINGS)]))
        density = rng.random()
        chosen = [i for i in range(40) if rng.random() < density] or [rng.randrange(40)]
        assert_estimate_matches_candidates(g, chosen)


def test_estimate_rejects_three_blocks():
    g = shared_graph(WarehouseLayout(1, 3, 1, 1, 2))
    with pytest.raises(UnsupportedFamilyError):
        s_shape_estimate(g, {g.subaisles[0].locs[0]})


def test_estimate_is_no_reversal_optimal_single_block():
    # single batch: the serpentine closed form equals the restricted oracle
    from pickopt import walk_space

    g = shared_graph(LAYOUT)
    space = walk_space(g)
    rng = random.Random(9)
    for _ in range(20):
        picks = {v for sub in g.subaisles for v in sub.locs if rng.random() < 0.5}
        if not picks:
            continue
        oracle = space.length(space.query(frozenset(picks), space.mask_no_reversal()))
        assert s_shape_estimate(g, picks) == oracle


def test_all_orders_fit_one_trolley():
    orders = tuple(Order(i, 1, (Pick(0, 0, 0, 0),)) for i in range(3))
    inst = Instance(LAYOUT, orders, 8, 1)
    for algo in (seed_batching, cw2_batching):
        batching = algo(inst)
        assert len(batching.batches) == 1


def test_identical_orders_merge():
    picks = (Pick(1, 0, 1, 0),)
    orders = (Order(0, 4, picks), Order(1, 4, picks))
    inst = Instance(LAYOUT, orders, 8, 1)
    assert len(seed_batching(inst).batches) == 1
    assert len(cw2_batching(inst).batches) == 1


def test_cwii_no_positive_savings_keeps_singletons():
    # orders on opposite far corners with enough capacity pressure removed
    layout = WarehouseLayout(3, 1, 1, 1, 2)
    orders = (Order(0, 8, (Pick(0, 0, 0, 0),)), Order(1, 8, (Pick(2, 0, 0, 0),)))
    inst = Instance(layout, orders, 8, 2)
    batching = cw2_batching(inst)
    assert len(batching.batches) == 2


def test_batchings_valid_and_deterministic():
    suite = make_suite(8, master_seed=71)
    for inst, g in suite:
        for algo in (seed_batching, cw2_batching):
            b1 = algo(inst, graph=g)
            b2 = algo(inst, graph=g)
            assert b1 == b2
            validate_batching(inst, b1)


TWO_ORDERS = Instance(LAYOUT, (Order(0, 1, (Pick(0, 0, 0, 0),)),
                               Order(1, 1, (Pick(1, 0, 1, 0),))), 8, 1)


def test_validate_batching_refuses_an_unknown_order_id():
    batching = Batching((frozenset({0, 1}), frozenset({99})))
    with pytest.raises(ValidationError, match=r"^batch 1 frozenset\(\{99\}\)"):
        validate_batching(TWO_ORDERS, batching)


def test_validate_batching_refuses_a_batch_that_is_no_frozenset():
    with pytest.raises(ValidationError, match=r"^batch 0 \(0, 1\)"):
        validate_batching(TWO_ORDERS, Batching(((0, 1),)))


def test_batching_to_solution_refuses_an_empty_batch():
    with pytest.raises(ValidationError, match=r"^batch 1 \[\] is empty"):
        batching_to_solution(TWO_ORDERS, shared_graph(LAYOUT), [(0, 1), ()])


def test_batching_to_solution_refuses_an_unknown_order_id():
    with pytest.raises(ValidationError, match=r"^batch 0 \[1, 99\]"):
        batching_to_solution(TWO_ORDERS, shared_graph(LAYOUT), [(99, 1), (0,)])


def test_heuristic_never_beats_exact():
    suite = make_suite(10, master_seed=72)
    for inst, g in suite:
        exact_total = solve_exact(inst, g).total
        for algo in (seed_batching, cw2_batching):
            batching = algo(inst, graph=g)
            solution = batching_to_solution(inst, g, batching.batches)
            assert solution.total >= exact_total


def test_estimator_injection():
    inst = generate_instance(LAYOUT, 3, 10, seed=15)
    g = shared_graph(LAYOUT)
    with_oracle = seed_batching(inst, make_oracle_estimator(g), graph=g)
    with_sshape = seed_batching(inst, make_s_shape_estimator(g), graph=g)
    validate_batching(inst, with_oracle)
    validate_batching(inst, with_sshape)


def test_seed_rule_prefers_most_subaisles():
    orders = (
        Order(0, 1, (Pick(0, 0, 0, 0),)),
        Order(1, 1, (Pick(0, 0, 0, 0), Pick(1, 0, 0, 0))),
    )
    inst = Instance(LAYOUT, orders, 8, 1)
    g = shared_graph(LAYOUT)
    # seed pick happens first; with capacity 2 both land in one batch anyway,
    # so force separation by capacity
    orders = (Order(0, 8, (Pick(0, 0, 0, 0),)),
              Order(1, 8, (Pick(0, 0, 0, 0), Pick(1, 0, 0, 0))))
    inst = Instance(LAYOUT, orders, 8, 2)
    batching = seed_batching(inst, graph=g)
    assert Batching((frozenset({0}), frozenset({1}))) == batching


def test_oracle_estimator_prices_pick_sets_as_the_route_oracle():
    rng = random.Random(17)
    for shape in ORACLE_SHAPES:
        g = shared_graph(WarehouseLayout(*shape, 1, 2))
        estimate = make_oracle_estimator(g)
        assert estimate(frozenset()) == 0
        locs = list(g.picking_vertices)
        for _ in range(8):
            picks = frozenset(rng.sample(locs, rng.randint(1, len(locs))))
            assert estimate(picks) == route_oracle(g, picks).length(g), (shape, picks)
        with pytest.raises(ValidationError, match="not a picking location"):
            estimate(frozenset({locs[0], g.origin}))
