"""Cross-checks of the single-block TSP model against the walk oracle, and of
an exported model, solved outside pickopt, against the exact solver."""

import random
from fractions import Fraction
from operator import eq, ge, le

import numpy as np
import pytest

from conftest import ORACLE_SHAPES, shared_graph, single_batch
from oracles import enumerate_PU1_minimum, parse_lp, parse_mps
from pickopt import (WarehouseLayout, build_model, generate_instance, solve_exact,
                     solve_no_reversal_exact, write_lp, write_mps)


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


def _solve_mps(text):
    """The optimum of a free-MPS model by ``scipy.optimize.milp``, rounded
    to integers, and its parsed columns and rows."""
    from scipy import optimize

    columns, rows = parse_mps(text)
    names = list(columns)
    matrix = np.zeros((len(rows), len(names)))
    row_of = {name: i for i, (name, _, _) in enumerate(rows)}
    for k, name in enumerate(names):
        for row, coef in columns[name]["rows"].items():
            matrix[row_of[row], k] = coef
    rhs = np.array([float(rhs) for _, _, rhs in rows])
    senses = [sense for _, sense, _ in rows]
    lower = np.where([sense in "EG" for sense in senses], rhs, -np.inf)
    upper = np.where([sense in "EL" for sense in senses], rhs, np.inf)
    column = [columns[name] for name in names]
    result = optimize.milp(
        [float(c["cost"]) for c in column],
        constraints=optimize.LinearConstraint(matrix, lower, upper),
        integrality=[int(c["integral"]) for c in column],
        bounds=optimize.Bounds([float(c["lb"]) for c in column],
                               [np.inf if c["ub"] is None else float(c["ub"]) for c in column]))
    assert result.success, result.message
    return {name: Fraction(round(value)) for name, value in zip(names, result.x)}, columns, rows


def test_exported_model_solves_to_oracle_optimum():
    # P_F is compact, with no lazy family, so its export alone is the model:
    # its optimum, read back from the MPS text and solved outside pickopt,
    # is the oracle's.  Every layout at 4 orders (one picker), and two with
    # 6 orders and 2 pickers; 3 pickers take seconds to solve
    pytest.importorskip("scipy.optimize")
    holds = {"L": le, "E": eq, "G": ge}
    for shape, orders in [(shape, 4) for shape in ORACLE_SHAPES] + [((2, 1, 1), 6),
                                                                     ((1, 2, 1), 6)]:
        layout = WarehouseLayout(*shape)
        instance = generate_instance(layout, orders, 10, seed=1)
        assert instance.pickers == (1 if orders == 4 else 2)
        graph = shared_graph(layout)
        point, columns, rows = _solve_mps(write_mps(build_model(instance, graph, "P_F")))
        objective = sum(column["cost"] * point[name] for name, column in columns.items())
        assert objective == solve_exact(instance, graph).total, shape
        for row, sense, rhs in rows:
            lhs = sum(column["rows"].get(row, 0) * point[name] for name, column in columns.items())
            assert holds[sense](lhs, rhs), (shape, row)
