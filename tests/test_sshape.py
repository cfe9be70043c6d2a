import random

import pytest

from conftest import shared_graph
from pickopt import (UnsupportedFamilyError, ValidationError, WarehouseLayout,
                     walk_space)
from routes import (R_S1, R_S2, evaluate_s_shape, s_shape_candidates,
                    s_shape_variants)

LAYOUT2 = WarehouseLayout(2, 2, 1, 1, 2)
LAYOUT3 = WarehouseLayout(3, 2, 1, 1, 2)


def test_parity_table_with_first_subaisle():
    layout = WarehouseLayout(4, 2, 1, 1, 2)
    g = shared_graph(layout)
    d = (layout.locs_per_subaisle + 1) * layout.loc_spacing
    cases = [
        ([0, 1], [4, 5], 0),
        ([0, 1, 2], [4, 5], d),
        ([0, 1], [4, 5, 6], d),
        ([0, 1, 2], [4, 5, 6], 2 * d),
    ]
    for K1, K2, excess in cases:
        route = evaluate_s_shape(g, K1, K2, R_S1)
        assert route.vertical_length - (len(K1) + len(K2)) * d == excess
        # every variant pays the same vertical price
        for variant in s_shape_variants(g, K1, K2, R_S1):
            assert variant.vertical_length - (len(K1) + len(K2)) * d == excess


def test_r_s1_visits_anchor_last():
    g = shared_graph(LAYOUT3)
    route = evaluate_s_shape(g, [0, 1, 2], [3], R_S1)
    assert route.i0 == 0
    assert route.visits[-1] == 0
    route2 = evaluate_s_shape(g, [0, 1, 2], [3], R_S1, i0=2)
    assert route2.visits[-1] == 2


def test_r_s1_requires_block1():
    g = shared_graph(LAYOUT2)
    with pytest.raises(ValidationError):
        evaluate_s_shape(g, [], [2], R_S1)
    with pytest.raises(ValidationError):
        evaluate_s_shape(g, [], [], R_S2)


def test_kind_and_index_validation():
    g = shared_graph(LAYOUT2)
    with pytest.raises(ValidationError):
        evaluate_s_shape(g, [0], [2], "weird")
    with pytest.raises(ValidationError):
        evaluate_s_shape(g, [2], [0], R_S1)  # sets swapped
    with pytest.raises(UnsupportedFamilyError):
        evaluate_s_shape(shared_graph(WarehouseLayout(2, 1, 1, 1, 2)), [0], [], R_S1)


def test_total_length_includes_horizontal():
    g = shared_graph(LAYOUT2)
    route = evaluate_s_shape(g, [0, 1], [2, 3], R_S1)
    assert route.total_length >= route.vertical_length
    assert route.total_length == route.vertical_length + 2 * LAYOUT2.aisle_spacing


def test_minimum_matches_no_reversal_oracle():
    mismatches = []
    for (na, locs, ls, As) in [(1, 1, 1, 2), (1, 2, 1, 2), (2, 1, 1, 2),
                               (2, 1, 2, 3), (2, 1, 1, 1), (2, 1, 3, 1)]:
        layout = WarehouseLayout(na, 2, locs, ls, As)
        g = shared_graph(layout)
        n = layout.n_aisles
        space = walk_space(g)
        rng = random.Random(50 + na * 7 + locs)
        for _ in range(30):
            picks = {v for sub in g.subaisles for v in sub.locs if rng.random() < 0.45}
            if not picks:
                continue
            subs = sorted({g.subaisle_of(v) for v in picks})
            K1 = [i for i in subs if i < n]
            K2 = [i for i in subs if i >= n]
            best = min(r.total_length for r in s_shape_candidates(g, K1, K2))
            oracle = space.length(space.query(frozenset(picks), space.mask_no_reversal()))
            if best != oracle:
                mismatches.append(((na, locs, ls, As), sorted(picks), best, oracle))
    assert not mismatches, mismatches


def test_candidates_cover_all_anchors():
    g = shared_graph(LAYOUT3)
    routes = s_shape_candidates(g, [0, 2], [4])
    anchors = {r.i0 for r in routes if r.kind == R_S1}
    assert anchors == {0, 2}
    assert any(r.kind == R_S2 for r in routes)
