import random
import re
from fractions import Fraction
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import shared_graph
from oracles import (fraction_feasibility, fraction_objective, parse_lp, reference_lp,
                     reference_model_json, reference_mps)
from test_golden_exports import export_models
import pickopt.model
from pickopt import (ALL_KINDS, LinearModel, ModelOptions, ValidationError,
                     VariableAssignment, WarehouseLayout, build_model, check_feasible,
                     encode_walk_PF, encode_walk_PG, generate_instance, solve_exact, write_lp,
                     write_mps, write_model_json)
from pickopt.formulations import ARC_KINDS
from pickopt.model import (BINARY, CONTINUOUS, EQ, GE, INTEGER, LE, Constraint, RowBlock,
                           Variable)


def tiny_model():
    m = LinearModel("tiny", kind="test")
    x = m.add_variable(BINARY, ("x", 0))
    y = m.add_variable(INTEGER, ("y", 0))
    s = m.add_variable(CONTINUOUS, ("s", 0))
    m.set_objective_coeff(x, 2)
    m.set_objective_coeff(s, 1)
    m.add_row("r1", "grp", [(x, 1), (y, 1)], GE, 1)
    m.add_row("r2", "grp", [(y, 1), (s, -1)], LE, 3)
    m.add_row("r3", "other", [(x, 1)], EQ, 1)
    return m


def test_duplicate_names_rejected():
    m = LinearModel("dup")
    m.add_variable(BINARY, ("x", 0))
    # a repeated index would repeat the name and re-point var("x", 0)
    with pytest.raises(ValidationError, match="duplicate variable name x_0"):
        m.add_variable(BINARY, ("x", 0))
    assert m.var("x", 0) == 0 and len(m.variables) == 1
    m.add_row("r", "g", [(0, 1)], GE, 0)
    with pytest.raises(ValidationError):
        m.add_row("r", "g", [(0, 1)], GE, 0)


def test_names_follow_the_index():
    m = LinearModel("names")
    cases = [(("x", 0, 3, 4), "x_0_3_4"), (("w", 1, 2, "dn"), "w_1_2_dn"),
             (("xt", 0), "xt_0"), (("s", 2, 0, 10, 11), "s_2_0_10_11")]
    for index, name in cases:
        assert m.var_name(m.add_variable(BINARY, index)) == name
        assert m.var_name(m.var(*index)) == name
    # ("x", "0_1") and ("x", 0, 1) would both be named x_0_1
    with pytest.raises(ValidationError, match="'_'"):
        m.add_variable(BINARY, ("x", "0_1"))
    with pytest.raises(ValidationError, match="undeclared"):
        m.var("x", 9)


def test_distinct_indices_with_one_name_are_refused():
    # ("x", "7") and ("x", 7) are both named x_7; a solver would merge them
    for first, second in ((("x", "7"), ("x", 7)), (("x", -1), ("x", "-1"))):
        m = LinearModel("one name")
        m.add_variable(BINARY, first)
        with pytest.raises(ValidationError, match=f"duplicate variable name {m.var_name(0)}"):
            m.add_variable(BINARY, second)
        with pytest.raises(ValidationError, match="duplicate variable name x_7"):
            m.add_variables(BINARY, ["x_7", "x_7"])
        assert m.variable_names() == [m.var_name(0)]
        assert m.var(*first) == m.var(*second) == 0


def test_variables_are_declared_by_name():
    m = LinearModel("names")
    assert m.add_variables(BINARY, ["x_0_1", "w_1_2_dn", "xt_0"]) == 0
    assert m.add_variables(CONTINUOUS, ["s_0"], lb=-1) == 3
    assert [m.var("x", 0, 1), m.var("w", 1, 2, "dn"), m.var("xt", 0), m.var("s", 0)] == [0, 1, 2, 3]
    assert m.has_var("w", 1, 2, "dn") and not m.has_var("w", 1, 2, "up")
    assert m.variable_counts() == {"x": 1, "w": 1, "xt": 1, "s": 1}
    with pytest.raises(ValidationError, match="not a str"):
        m.add_variables(BINARY, [("y", 0)])
    # an index that would not split back into its parts finds nothing
    for lookup in (m.var, m.has_var):
        with pytest.raises(ValidationError, match="'_'"):
            lookup("x", "0_1")
    assert len(m.variables) == 4


def test_add_row_sums_and_sorts_repeated_positions():
    m = LinearModel("merge")
    x, y, z = (m.add_variable(CONTINUOUS, ("v", k)) for k in range(3))
    row = m.add_row("r", "g", [(z, 2), (x, 1), (z, 0.5), (y, 3), (y, -3), (x, 4)], LE, 1)
    # y's coefficients sum to zero and the term is kept
    assert row.coeffs == ((x, 5), (y, 0), (z, 2.5))
    assert m.add_row("s", "g", [(z, 1), (x, -1)], GE, 0).coeffs == ((x, -1), (z, 1))
    assert m.add_row("empty", "g", [], EQ, 0).coeffs == ()
    assert m.add_row("gen", "g", ((p, 1) for p in (y, x)), EQ, 0).coeffs == ((x, 1), (y, 1))
    # repeated positions sum in the order given: 0.3 + 0.2 + 0.1 != 0.1 + 0.2 + 0.3
    order = m.add_row("order", "g", [(y, 0.3), (x, 1), (y, 0.2), (y, 0.1)], EQ, 0)
    assert order.coeffs == ((x, 1), (y, 0.3 + 0.2 + 0.1))
    assert 0.3 + 0.2 + 0.1 != 0.1 + 0.2 + 0.3


@pytest.mark.parametrize("pos", [-1, 3, 9])
def test_add_row_rejects_undeclared_positions(pos):
    m = LinearModel("bad")
    for k in range(3):
        m.add_variable(BINARY, ("x", k))
    with pytest.raises(ValidationError, match=f"variable position {pos} not declared"):
        m.add_row("r", "g", [(1, 1), (pos, 1), (0, 1)], GE, 0)
    with pytest.raises(ValidationError, match="bad sense"):
        m.add_row("r", "g", [(0, 1)], "<", 0)
    # a rejected row leaves no trace
    assert m.constraints == [] and m.group_counts() == {}
    m.add_row("r", "g", [(0, 1)], GE, 0)


def test_variables_and_rows_are_immutable():
    m = tiny_model()
    with pytest.raises(AttributeError):
        m.variables[0].ub = 5
    with pytest.raises(AttributeError):
        m.constraints[0].rhs = 0
    assert Variable("x_0", BINARY) == ("x_0", BINARY, 0, None)
    assert Constraint("r1", "grp", ((0, 1), (1, 1)), GE, 1) == m.constraints[0]


def test_group_counts_and_lazy():
    m = tiny_model()
    m.declare_lazy_group("lazy_grp", "demo")
    counts = m.group_counts()
    assert counts == {"grp": 2, "other": 1, "lazy_grp": 0}
    m.add_row("late", "lazy_grp", [(0, 1)], GE, 0)
    m.add_row("r4", "grp", [(1, 1)], LE, 5)
    assert list(m.group_counts().items()) == [("grp", 3), ("other", 1), ("lazy_grp", 1)]
    assert {g: len(m.rows_in_group(g)) for g in m.group_counts()} == m.group_counts()


def test_check_feasible_reports_violations():
    m = tiny_model()
    report = check_feasible(m, VariableAssignment({}))
    assert not report.satisfied
    names = [v.row for v in report.violations]
    assert "r1" in names and "r3" in names
    ok = check_feasible(m, VariableAssignment({"x_0": 1, "y_0": 2, "s_0": 0}))
    assert ok.satisfied


def test_check_feasible_without_reported_violations_still_fails():
    m = LinearModel("one-row")
    x = m.add_variable(CONTINUOUS, ("x", 0))
    m.add_row("r", "g", [(x, 1)], GE, 1)
    report = check_feasible(m, VariableAssignment({}), max_report=0)
    assert not report.satisfied
    assert report.violations == () and report.checked_rows == 1
    assert check_feasible(m, VariableAssignment({"x_0": 1}), max_report=0).satisfied


def test_check_feasible_is_exact_rational():
    m = LinearModel("frac")
    x = m.add_variable(CONTINUOUS, ("x", 0))
    m.add_row("r", "g", [(x, Fraction(1, 3))], EQ, Fraction(1, 3))
    assert check_feasible(m, VariableAssignment({"x_0": 1})).satisfied
    bad = check_feasible(m, VariableAssignment({"x_0": Fraction(2, 3)}))
    assert not bad.satisfied


def test_domain_violations():
    m = tiny_model()
    report = check_feasible(m, VariableAssignment({"x_0": Fraction(1, 2), "y_0": 1}))
    assert any(v.group == "domain" for v in report.violations)
    report2 = check_feasible(m, VariableAssignment({"x_0": 2, "y_0": 1}))
    assert any(v.group == "domain" for v in report2.violations)


def test_assignment_integrality():
    a = VariableAssignment({"x": 1, "y": 2})
    assert a.is_integral()
    a.set("z", Fraction(1, 2))
    assert not a.is_integral()
    # a value is stored exact: an int when integral, else a Fraction
    for value, stored in ((1, 1), (1.0, 1), (Fraction(4, 2), 2), (True, 1),
                          (0.5, Fraction(1, 2)), (Fraction(1, 2), Fraction(1, 2))):
        a.set("v", value)
        assert type(a.get("v")) is type(stored) and a.get("v") == stored, value
    assert a.get("missing") == 0 and type(a.get("missing")) is int
    for bad, error in ((None, TypeError), (float("nan"), ValueError),
                       (float("inf"), OverflowError)):
        with pytest.raises(error):
            a.set("v", bad)


def test_numpy_values_are_stored_as_python_ints():
    # a solver's vector arrives as numpy scalars; an integral one must not
    # read as fractional to the domain check
    m = LinearModel("one-row")
    x = m.add_variable(BINARY, ("x", 0))
    m.add_row("r", "g", [(x, 1)], GE, 1)
    for value in (np.int64(1), np.int32(1), np.uint8(1), np.float64(1.0)):
        a = VariableAssignment({"x_0": value})
        assert type(a.get("x_0")) is int, value
        assert check_feasible(m, a).satisfied, value


def test_numpy_integers_become_ints_without_a_fraction(monkeypatch):
    # no Fraction is built for a numpy integer: with none to build, the
    # values are still stored as Python ints
    monkeypatch.setattr(pickopt.model, "Fraction", None)
    values = {"a": np.int64(-3), "b": np.int32(7), "c": np.uint8(255), "d": np.int64(2 ** 62)}
    stored = VariableAssignment(values).values
    assert stored == {"a": -3, "b": 7, "c": 255, "d": 2 ** 62}
    assert all(type(value) is int for value in stored.values())


def test_assignment_refuses_text():
    # Fraction would parse each of these; text is not a number
    a = VariableAssignment({"x": 1})
    for text in ("1", " 1 ", "3/1", "1/2", "x", b"1"):
        with pytest.raises(TypeError, match="not a number"):
            a.set("x", text)
        with pytest.raises(TypeError):
            VariableAssignment({"y": text})
    assert dict(a.items()) == {"x": 1}


def _first_difference(text: str, reference: str):
    """None for equal texts, else the first line where they differ and that
    line in each: a failure names a line instead of diffing megabytes."""
    lines, expected = text.splitlines(), reference.splitlines()
    for k, (line, want) in enumerate(zip(lines, expected)):
        if line != want:
            return k, line, want
    return None if text == reference else (min(len(lines), len(expected)), "", "")


def test_lp_matches_a_row_by_row_reference():
    cases = {**export_models(), **_odd_models()}
    for key, models in cases.items():
        for model in models:
            assert _first_difference(write_lp(model), reference_lp(model)) is None, key
            assert _first_difference(write_mps(model), reference_mps(model)) is None, key


def test_lp_deterministic_and_parseable():
    m = tiny_model()
    text1 = write_lp(m)
    text2 = write_lp(m)
    assert text1 == text2
    variables, rows = parse_lp(text1)
    assert {"x_0", "y_0", "s_0"} <= variables
    assert rows == ["r1", "r2", "r3"]
    assert "Binaries" in text1 and "Generals" in text1


def test_mps_deterministic_and_structured():
    m = tiny_model()
    text = write_mps(m)
    assert text == write_mps(m)
    assert text.startswith("NAME")
    assert "ROWS" in text and "COLUMNS" in text and "ENDATA" in text
    assert " BV BND" in text  # binary bound
    assert "'INTORG'" in text and "'INTEND'" in text


def test_model_json_round_trip_counts():
    import json

    m = tiny_model()
    doc = json.loads(write_model_json(m))
    assert doc["format"] == "pickopt-model-v1"
    assert len(doc["variables"]) == len(m.variables)
    assert len(doc["constraints"]) == len(m.constraints)
    assert [c["name"] for c in doc["constraints"]] == ["r1", "r2", "r3"]


def test_exact_fractions_export_as_their_floats():
    # a Fraction prints as the float nearest to it, and one that is whole
    # as an int, in LP, MPS and JSON alike
    def model(third, half, two):
        m = LinearModel("exact", kind="test")
        s = m.add_variable(CONTINUOUS, ("s", 0), lb=third, ub=half)
        x = m.add_variable(BINARY, ("x", 0))
        m.set_objective_coeff(s, third)
        m.set_objective_coeff(x, two)
        m.add_row("r", "g", [(s, third), (x, two)], GE, half)
        return m

    exact = model(Fraction(1, 3), Fraction(5, 2), Fraction(6, 3))
    plain = model(1 / 3, 2.5, 2)
    for write in (write_lp, write_mps, write_model_json):
        assert write(exact) == write(plain), write.__name__
    assert "0.3333333333333333" in write_model_json(exact)


def test_objective_value():
    m = tiny_model()
    val = m.objective_value({"x_0": Fraction(1), "s_0": Fraction(3)})
    assert val == 5


def test_objective_coefficients_add_up():
    m = LinearModel("sum")
    m.add_variables(BINARY, [f"x_{k}" for k in range(4)])
    m.set_objective_coeffs([2, 0], [1, 0])  # a zero adds no term
    assert m.objective == {2: 1}
    m.set_objective_coeffs([1, 2, 1], [2, 3, 0.5])  # repeats within and across calls
    assert m.objective == {2: 4, 1: 2.5}
    m.set_objective_coeffs([3, 0], [-1, 7])
    assert list(m.objective.items()) == [(2, 4), (1, 2.5), (3, -1), (0, 7)]
    m.set_objective_coeffs([1], [1])  # no repeat within the call, one across calls
    assert list(m.objective.items()) == [(2, 4), (1, 3.5), (3, -1), (0, 7)]
    for before in ({}, {3: 1}):  # repeats in a call on positions new to the objective
        m.objective = dict(before)
        m.set_objective_coeffs([1, 2, 0, 1, 2], [2, 0, 3, 0.5, 1])
        assert list(m.objective.items()) == list(before.items()) + [(1, 2.5), (0, 3), (2, 1)]


@pytest.mark.parametrize("pos", [-1, 5, True])
def test_objective_positions_must_be_declared_variables(pos):
    m = LinearModel("objective")
    m.add_variable(BINARY, ("x", 0))
    with pytest.raises(ValidationError, match=f"objective position {pos!r} is not"):
        m.set_objective_coeffs([0, pos], [2, 3])
    with pytest.raises(ValidationError, match=f"objective position {pos!r} is not"):
        m.set_objective_coeff(pos, 3)
    assert m.objective == {}
    assert "obj: 0" in write_lp(m)


@pytest.mark.parametrize("value", [0.0, -0.0, 1.0, 0.5, 1e300, 2.0 ** 60, -3.0, 1 / 3,
                                   np.float64(3.0), np.float64(0.25)])
def test_assignment_values_are_exact(value):
    stored = VariableAssignment({"x_0": value}).get("x_0")
    exact = Fraction(value)
    expected = exact.numerator if exact.denominator == 1 else exact
    assert stored == expected and type(stored) is type(expected)


def test_non_finite_assignment_values_raise():
    with pytest.raises(OverflowError):
        VariableAssignment({"x_0": float("inf")})
    with pytest.raises(OverflowError):
        VariableAssignment().set("x_0", float("-inf"))
    with pytest.raises(ValueError):
        VariableAssignment({"x_0": float("nan")})


def _random_assignment(rng, model, mode):
    """Values for about a third of the declared variables, plus one name the
    model does not declare."""
    pools = {
        "integral": [0, 1, 1, 1, 2],
        "fractional": [Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7), 0.25, 1],
        "negative": [-1, -3, Fraction(-1, 2), 0, 1],
        "out of bounds": [2, 7, -1, 1, 0],
    }
    values = {v.name: rng.choice(pools[mode]) for v in model.variables if rng.random() < 0.35}
    values["q_9"] = 1
    return VariableAssignment(values)


def test_check_feasible_matches_a_fraction_evaluator():
    rng = random.Random(17)
    satisfied = 0
    for spacing in ((1, 2), (0.5, 1.5)):
        for shape in ((3, 1, 2), (2, 2, 1)):
            layout = WarehouseLayout(*shape, *spacing)
            graph = shared_graph(layout)
            instance = generate_instance(layout, 3, 10, seed=5)
            solution = solve_exact(instance, graph)
            for kind in ALL_KINDS:
                if (kind, layout.n_blocks) in (("P_U1", 2), ("P_U2", 1)):
                    continue
                model = build_model(instance, graph, kind)
                candidates = [_random_assignment(rng, model, mode)
                              for mode in ("integral", "fractional", "negative", "out of bounds")
                              for _ in range(2)]
                if kind in ("P_basic", "P_G"):
                    candidates.append(encode_walk_PG(model, instance, graph, solution))
                elif kind == "P_F":
                    candidates.append(encode_walk_PF(model, instance, graph, solution))
                for assignment in candidates:
                    expected = fraction_feasibility(model, assignment.values)
                    for max_report in (10, 10 ** 6):
                        report = check_feasible(model, assignment, max_report)
                        found = [(v.row, v.group, v.lhs, v.sense, v.rhs) for v in report.violations]
                        assert found == expected[:max_report]
                        assert (report.satisfied, report.checked_rows) == \
                            (not expected, len(model.constraints))
                        assert all(type(v.lhs) is Fraction and type(v.rhs) is Fraction
                                   for v in report.violations)
                    satisfied += report.satisfied
                    value = model.objective_value(assignment.values)
                    assert type(value) is Fraction
                    assert value == fraction_objective(model, assignment.values)
    # the encoded optima of P_basic, P_G and P_F at both spacings and both shapes
    assert satisfied == 12


def _odd_models():
    """Models at the edges of the JSON layout: no variables or rows, a row
    with no terms, an unbounded continuous variable with a float lower bound,
    and text that ``json`` escapes.  A non-finite number is rejected when it
    is added (``test_non_finite_numbers_are_rejected``)."""
    empty = LinearModel("empty")
    no_terms = LinearModel("no-terms", kind="test")
    x = no_terms.add_variable(BINARY, ("x", 0))
    no_terms.add_row("nothing", "g", [], LE, 0)
    no_terms.add_row("something", "g", [(x, 1)], GE, 0.25)
    continuous = LinearModel("continuous")
    s = continuous.add_variable(CONTINUOUS, ("s", 0), lb=-1.5)
    t = continuous.add_variable(INTEGER, ("t", 0), lb=2, ub=7.0)
    continuous.set_objective_coeff(s, 0.1)
    continuous.set_objective_coeff(t, -3)
    continuous.add_row("mix", "g", [(s, 1e-7), (t, 2.0)], EQ, 1e20)
    quoted = LinearModel('say "\\" in Zürich \u2603', kind="q\"k",
                         meta={"note": 'tab\there "é"', "nested": {"ü": [1, 2.5, None]}})
    q = quoted.add_variable(BINARY, ("q", 0))
    quoted.declare_lazy_group("l\u00e4zy", 'a "lazy" group')
    quoted.add_row('row "1" \\ ø', 'grüp', [(q, 1)], GE, 1)
    return {"empty": [empty], "no-terms": [no_terms], "continuous": [continuous],
            "quoted": [quoted], "tiny": [tiny_model()]}


def test_model_json_matches_json_dumps():
    cases = {**export_models(), **_odd_models()}
    assert sum(1 for key in cases if key.endswith("fractional-spacing")) == 7
    for key, models in cases.items():
        assert models, key
        for model in models:
            assert write_model_json(model) == reference_model_json(model), key


# -- the column store: bulk fill, checks and views ---------------------------------


def _random_rows(rng, n_vars, n_rows):
    """Rows as ``(name, group, terms, sense, rhs)``: unsorted terms, repeated
    positions, repeats whose coefficients cancel, float coefficients and
    empty rows."""
    rows = []
    for k in range(n_rows):
        terms = [(rng.randrange(n_vars), rng.choice([1, -1, 2, 0.5, 0.1, 3.25]))
                 for _ in range(0 if k % 7 == 3 else rng.randrange(1, 6))]
        if terms and k % 5 == 1:
            pos, coef = terms[0]
            terms.append((pos, -coef))  # sums to zero, or merges with a third repeat
        rows.append((f"r{k}", rng.choice(["g1", "g2", "g3"]), terms,
                     rng.choice([LE, EQ, GE]), rng.choice([0, 1, -2, 0.25])))
    return rows


def _variables(m, n_vars):
    m.add_variables(BINARY, [f"x_{k}" for k in range(n_vars // 2)])
    m.add_variables(CONTINUOUS, [f"s_{k}" for k in range(n_vars - n_vars // 2)], lb=-1.5, ub=4)
    positions = range(0, n_vars, 3)
    m.set_objective_coeffs(positions, ([1, 0.5, 2] * n_vars)[:len(positions)])


def _exports(m):
    return write_lp(m), write_mps(m), write_model_json(m)


def _canonical(terms):
    """The terms sorted by position, the coefficients of a repeated position
    summed in the order given: the row ``add_row`` stores."""
    merged = {}
    for pos, coef in terms:
        merged[pos] = merged.get(pos, 0) + coef
    return sorted(merged.items()) if len(merged) < len(terms) else sorted(terms)


def test_add_rows_equals_add_row_one_at_a_time():
    rng = random.Random(23)
    for n_rows in (0, 1, 5, 60):
        rows = _random_rows(rng, 12, n_rows)
        bulk, single = LinearModel("m", kind="k"), LinearModel("m", kind="k")
        for m in (bulk, single):
            _variables(m, 12)
        # add_rows takes canonical rows only; add_row takes the raw ones
        ends, positions, coefs = [], [], []
        for _, _, raw, _, _ in rows:
            terms = _canonical(raw)
            positions += [pos for pos, _ in terms]
            coefs += [coef for _, coef in terms]
            ends.append(len(positions))
        assert bulk.add_rows([r[0] for r in rows], [r[1] for r in rows], [r[3] for r in rows],
                             [r[4] for r in rows], ends, positions, coefs) == 0
        for row in rows:
            single.add_row(*row)
        assert bulk.constraints == single.constraints == list(single.constraints)
        assert bulk.variables == single.variables
        assert bulk.group_counts() == single.group_counts()
        assert _exports(bulk) == _exports(single)
        for constraint in bulk.constraints:
            positions = [pos for pos, _ in constraint.coeffs]
            assert positions == sorted(set(positions))
    # the last batch has empty rows and kept terms whose coefficients cancel
    assert any(not row.coeffs for row in bulk.constraints)
    assert any(coef == 0 for row in bulk.constraints for _, coef in row.coeffs)
    # its raw rows, unsorted and with repeats, are rejected in bulk
    raw = LinearModel("raw")
    _variables(raw, 12)
    terms = [term for row in rows for term in row[2]]
    with pytest.raises(ValidationError, match="strictly increase"):
        raw.add_rows([r[0] for r in rows], [r[1] for r in rows], [r[3] for r in rows],
                     [r[4] for r in rows], list(accumulate(len(r[2]) for r in rows)),
                     [pos for pos, _ in terms], [coef for _, coef in terms])
    assert raw.constraints == []


def _rejections():
    """Calls that must raise ValidationError, by what is wrong."""
    inf, nan = float("inf"), float("nan")
    return {
        "bad sense": lambda m: m.add_rows(["n1", "n2"], ["g", "g"], [GE, "=>"], [0, 0], [1, 2],
                                          [0, 1], [1, 1]),
        "name repeated in the call": lambda m: m.add_rows(["n", "n"], ["g", "g"], [GE, GE],
                                                          [0, 0], [1, 2], [0, 1], [1, 1]),
        "name in the model": lambda m: m.add_row("r1", "g", [(0, 1)], GE, 0),
        "negative position": lambda m: m.add_rows(["n1", "n2"], ["g", "g"], [GE, GE], [0, 0],
                                                  [1, 2], [0, -1], [1, 1]),
        "undeclared position": lambda m: m.add_row("n", "g", [(0, 1), (3, 1)], GE, 0),
        "positions out of order": lambda m: m.add_rows(["n1", "n2"], ["g", "g"], [GE, GE],
                                                       [0, 0], [2, 4], [0, 2, 2, 1], [1] * 4),
        "position repeated": lambda m: m.add_rows(["n1", "n2"], ["g", "g"], [GE, GE], [0, 0],
                                                  [2, 4], [0, 2, 1, 1], [1] * 4),
        "ends past the terms": lambda m: m.add_rows(["n"], ["g"], [GE], [0], [3], [0, 1], [1, 1]),
        "infinite coefficient": lambda m: m.add_row("n", "g", [(0, inf)], GE, 0),
        "NaN coefficient": lambda m: m.add_rows(["n1", "n2"], ["g", "g"], [GE, GE], [0, 0],
                                                [1, 2], [0, 1], [1, nan]),
        "infinite right-hand side": lambda m: m.add_row("n", "g", [(0, 1)], LE, inf),
        "text coefficient": lambda m: m.add_row("n", "g", [(0, "1")], LE, 1),
        "text coefficient to merge": lambda m: m.add_row("n", "g", [(1, 1), (0, "1"), (1, 1)],
                                                         LE, 1),
        "infinite objective": lambda m: m.set_objective_coeff(0, -inf),
        "NaN objective": lambda m: m.set_objective_coeffs([0, 1], [1, nan]),
        "infinite bound": lambda m: m.add_variables(CONTINUOUS, ["u_0"], ub=inf),
        "NaN bound": lambda m: m.add_variable(CONTINUOUS, ("u", 0), lb=nan),
        "lower bound above upper bound": lambda m: m.add_variables(INTEGER, ["u_0"], lb=5, ub=2),
        "'_' in a text index part": lambda m: m.add_variable(BINARY, ("u", "1_2")),
        "index repeated in the call": lambda m: m.add_variables(BINARY, ["u_0", "u_0"]),
        "index in the model": lambda m: m.add_variables(BINARY, ["u_0", "x_0"]),
        "fewer objective coefficients than positions":
            lambda m: m.set_objective_coeffs([0, 1], [1]),
        "more objective coefficients than positions":
            lambda m: m.set_objective_coeffs([0], [1, 2]),
        "NUL in a variable name": lambda m: m.add_variables(BINARY, ["u_0", "u\x00_1"]),
        "float position": lambda m: m.add_row("n", "g", [(1.0, 1)], GE, 0),
        "text position": lambda m: m.add_row("n", "g", [("0", 1)], GE, 0),
        "numpy position": lambda m: m.add_rows(["n1", "n2"], ["g", "g"], [GE, GE], [0, 0],
                                               [1, 2], [0, np.int64(1)], [1, 1]),
        "float row end": lambda m: m.add_rows(["n1", "n2"], ["g", "g"], [GE, GE], [0, 0],
                                              [1, 2.0], [0, 1], [1, 1]),
        "text row end": lambda m: m.add_rows(["n1", "n2"], ["g", "g"], [GE, GE], [0, 0],
                                             ["1", 2], [0, 1], [1, 1]),
        "binary lower bound below 0": lambda m: m.add_variables(BINARY, ["u_0"], lb=-1),
        "binary lower bound of 1": lambda m: m.add_variables(BINARY, ["u_0"], lb=1),
        "binary upper bound of 2": lambda m: m.add_variable(BINARY, ("u", 0), ub=2),
        "binary upper bound of 0.5": lambda m: m.add_variables(BINARY, ["u_0", "u_1"], ub=0.5),
    }


@pytest.mark.parametrize("case", list(_rejections()))
def test_a_rejected_call_leaves_the_model_unchanged(case):
    m = tiny_model()
    before = (len(m.variables), len(m.constraints), m.group_counts(), dict(m.objective),
              _exports(m))
    with pytest.raises(ValidationError):
        _rejections()[case](m)
    assert (len(m.variables), len(m.constraints), m.group_counts(), dict(m.objective),
            _exports(m)) == before
    # the model still takes the rows and variables the call would have added
    m.add_variables(BINARY, ["u_0", "u_1"])
    m.add_rows(["n", "n1", "n2"], ["g"] * 3, [GE] * 3, [0] * 3, [1, 2, 3], [0, 1, 2], [1] * 3)


def test_non_finite_numbers_are_rejected():
    m = LinearModel("inf")
    s = m.add_variable(CONTINUOUS, ("s", 0))
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(ValidationError, match="right-hand side is not a finite number"):
            m.add_row("r", "g", [(s, 1)], LE, bad)
        with pytest.raises(ValidationError, match="row r: coefficient is not a finite number"):
            m.add_row("r", "g", [(s, bad)], LE, 0)
        with pytest.raises(ValidationError, match="objective coefficient"):
            m.set_objective_coeff(s, bad)
        with pytest.raises(ValidationError, match="bound is not a finite number"):
            m.add_variable(CONTINUOUS, ("t", 0), ub=bad)
    # every finite number is taken, however large
    m.add_row("big", "g", [(s, 10 ** 400), (s, Fraction(10 ** 400, 3))], LE, 1e308)
    m.set_objective_coeff(s, 10 ** 400)
    assert check_feasible(m, VariableAssignment({"s_0": 0})).satisfied


def test_positions_row_ends_and_binary_bounds_are_refused_by_name():
    m = tiny_model()
    with pytest.raises(ValidationError, match="row n: variable position 1.0 is not an int"):
        m.add_row("n", "g", [(1.0, 1)], GE, 0)
    with pytest.raises(ValidationError, match="row n2: row end 2.0 is not an int"):
        m.add_rows(["n1", "n2"], ["g", "g"], [GE, GE], [0, 0], [1, 2.0], [0, 1], [1, 1])
    with pytest.raises(ValidationError, match="row n2: variable position 'a' is not an int"):
        m.add_rows(["n1", "n2"], ["g", "g"], [GE, GE], [0, 0], [1, 2], [0, "a"], [1, 1])
    with pytest.raises(ValidationError, match="binary variable bounds are 0 and 1, not -1"):
        m.add_variables(BINARY, ["y_1"], lb=-1)
    # a binary's bounds may be given as they are, 0 and 1
    m.add_variables(BINARY, ["y_1", "y_2"], lb=0.0, ub=1)
    assert m.variables[-1] == Variable("y_2", BINARY, 0.0, 1)


def test_views_are_read_only_sequences():
    m = tiny_model()
    rows = m.constraints
    assert len(rows) == 3 and rows[-1] == rows[2] == Constraint("r3", "other", ((0, 1),), EQ, 1)
    assert rows[1:] == [rows[1], rows[2]] and rows[::-1][0].name == "r3"
    assert rows == list(rows) and rows == m.constraints and rows != list(rows)[:2]
    assert [v.name for v in m.variables[-2:]] == ["y_0", "s_0"]
    assert m.variables[0] == Variable("x_0", BINARY, 0, 1)
    with pytest.raises(IndexError):
        rows[3]
    with pytest.raises(TypeError):
        rows[0] = rows[1]
    with pytest.raises(AttributeError):
        m.variables.append(m.variables[0])
    with pytest.raises(TypeError):
        hash(rows)
    m.add_row("r4", "grp", [(1, 1)], LE, 5)
    assert len(rows) == 4 and rows[-1].name == "r4"  # a view reads the model as it is now
    assert m.rows_in_group("grp") == [rows[0], rows[1], rows[3]]


def test_check_feasible_sums_float_coefficients_exactly():
    m = LinearModel("float")
    x = m.add_variable(INTEGER, ("x", 0))
    y = m.add_variable(INTEGER, ("y", 0))
    m.add_row("tenths", "g", [(x, 0.1), (y, 0.2)], LE, 0.30000000000000004)
    m.add_row("exact", "g", [(x, 0.5), (y, 0.25)], EQ, 1)
    values = VariableAssignment({"x_0": 1, "y_0": 2})
    # 0.1 + 2 * 0.2 in exact binary fractions exceeds 0.30000000000000004
    assert [v.row for v in check_feasible(m, values).violations] == ["tenths"]
    assert fraction_feasibility(m, values.values)[0][0] == "tenths"


def test_building_a_model_keeps_few_objects_for_the_collector():
    import gc

    layout = WarehouseLayout(3, 1, 2, 1, 2)
    instance = generate_instance(layout, 8, 10, seed=19)
    assert instance.pickers == 3
    graph = shared_graph(layout)
    build_model(instance, graph, "P_G")  # warm every lazy cache
    gc.collect()
    before = len(gc.get_objects())
    model = build_model(instance, graph, "P_G")
    gc.collect()
    assert len(model.constraints) > 300
    assert len(gc.get_objects()) - before < 100


# -- row blocks: copy 0 stored, every copy checked and written -----------------------


def _many_picker_models():
    """Every kind with every option its layout takes, at 12 pickers, so that
    copy numbers reach two digits and copy 1's names begin copy 10's and
    copy 11's: the arc kinds and P_U1 on one block, and P_U2 and P_basic
    (for the corner rows at an interior cross aisle) on two."""
    arc = ModelOptions(subaisle_cuts=True, aisle_cuts=True, basic_cuts=True,
                       single_traversing=True, artificial_vertex_reversal=True,
                       column_inequalities=True)
    models = []
    for shape, kinds, tour in (((3, 1, 2, 1, 2), ARC_KINDS, "P_U1"),
                               ((2, 2, 1, 1, 2), ("P_basic",), "P_U2")):
        layout = WarehouseLayout(*shape)
        instance = generate_instance(layout, 48, 10, seed=0)
        assert instance.pickers == 12
        graph = shared_graph(layout)
        models += [build_model(instance, graph, kind, arc) for kind in kinds]
        models.append(build_model(instance, graph, tour, ModelOptions(
            column_inequalities=True, cross_aisle_bound=tour == "P_U2")))
    return models


def test_writers_match_their_references_with_many_pickers():
    for model in _many_picker_models():
        assert _first_difference(write_lp(model), reference_lp(model)) is None, model.kind
        assert _first_difference(write_model_json(model), reference_model_json(model)) is None, \
            model.kind
        assert _first_difference(write_mps(model), reference_mps(model)) is None, model.kind
        assert "_t11_" in write_lp(model), model.kind


def test_counting_rows_and_variables_expands_no_terms(monkeypatch):
    # perfbench's tracer counts both after every build
    layout = WarehouseLayout(3, 1, 2, 1, 2)
    model = build_model(generate_instance(layout, 8, 10, seed=19), shared_graph(layout), "P_F")
    rows, variables = sum(model.group_counts().values()), len(model.variable_names())

    def refuse(*args):
        raise AssertionError("a count expanded the rows")

    for name in ("_row", "_locate"):
        monkeypatch.setattr(LinearModel, name, refuse)
    assert (len(model.constraints), len(model.variables)) == (rows, variables)
    assert rows > 300


def _family_model():
    """x for 3 copies of 2 entries, copy after copy (positions 0-5); z for
    3 copies of 2 entries, interleaved (6-11); s, of no family (12); one
    row and one block of rows."""
    m = LinearModel("copies", kind="test")
    assert m.add_variable_copies(BINARY, [(["x_"] * 2, ["_a", "_b"], False),
                                          (["z_1_", "z_2_"], ["", ""], True)], 3) == [0, 6]
    assert m.add_variable(CONTINUOUS, ("s", 0), ub=4) == 12
    m.set_objective_coeffs([0, 2, 4], [1, 2, 3])
    m.add_row("c_1", "cut", [(12, 1), (3, 2)], GE, 1)
    # x_0_a, z_1_0 and s by family and offset: x from 0, z from 6, s at 12
    m.add_row_blocks([RowBlock(["cover_t"], ["_o1"], ["cover"], [GE], [0], [3], [0, 1, 0],
                               [0, 0, 12], [1, -1, 1])], 3, [0, 6])
    return m


def _block(heads, tails, groups, senses, rhs, ends, positions, coefs):
    """A block whose terms are given by position: family 0, at base 0."""
    return RowBlock(heads, tails, groups, senses, rhs, ends, [0] * len(positions), positions,
                    coefs)


def test_variable_copies_are_named_and_placed():
    m = _family_model()
    assert m.variable_names() == ["x_0_a", "x_0_b", "x_1_a", "x_1_b", "x_2_a", "x_2_b",
                                  "z_1_0", "z_1_1", "z_1_2", "z_2_0", "z_2_1", "z_2_2", "s_0"]
    assert [m.var("x", 1, "b"), m.var("z", 2, 1), m.var("s", 0)] == [3, 10, 12]
    # copy t's row is on copy t of x_?_a and z_1_? and on s in every copy
    assert list(m.constraints)[1:] == [
        Constraint(f"cover_t{t}_o1", "cover", ((2 * t, 1), (6 + t, -1), (12, 1)), GE, 0)
        for t in range(3)]
    assert m.group_counts() == {"cut": 1, "cover": 3}
    assert m.rows_in_group("cover") == list(m.constraints)[1:]


def _block_rejections():
    """Calls on ``_family_model()`` that must raise ValidationError."""
    def block(heads, tails, ends, positions, copies, groups=None):
        return lambda m: m.add_row_blocks([_block(heads, tails, groups or ["g"] * len(heads),
                                                  [GE] * len(heads), [0] * len(heads), ends,
                                                  positions, [1] * len(positions))], copies, (0,))

    valid = _block(["v_"], [""], ["g"], [GE], [0], [1], [0], [1])

    return {
        # copy 3 of x_0_a would be position 6, which z_1_0 holds
        "last copy in the next family": block(["r_"], [""], [1], [0], 4),
        # copy 4 of z_2_0 would be position 13, which nothing holds
        "last copy past every variable": block(["r_"], [""], [1], [9], 5),
        # x_0_a moves by 2 a copy and x_1_b stays at 3: 0 < 3 and 2 < 3, but 4 > 3
        "terms out of order at the last copy only": block(["r_"], [""], [2], [0, 3], 3),
        # z_1_0 moves by 1 a copy and z_1_1 stays at 7: 6 < 7, but 7 = 7
        "a term on another's position at the last copy only": block(["r_"], [""], [2], [6, 7],
                                                                     2),
        "terms out of order in copy 0": block(["r_"], [""], [2], [6, 0], 2),
        "undeclared position in copy 0": block(["r_"], [""], [1], [13], 2),
        # copy 10 of row r is named r10, as copy 0 of row r1 is
        "names repeated across copies": block(["r", "r1"], ["", ""], [0, 0], [], 11),
        "a name already in the model": block(["c_"], [""], [0], [], 2),
        "a name of the model's block": block(["cover_t"], ["_o1"], [0], [], 1),
        "NUL in a head": block(["r\x00"], [""], [0], [], 2),
        "NUL in a tail": block(["r_"], ["_\x00"], [0], [], 2),
        "no copies": block(["r_"], [""], [0], [], 0),
        "a head that is no str": block([7], [""], [0], [], 2),
        "heads and tails of different lengths": block(["r_", "q_"], [""], [0, 0], [], 2),
        "bad sense": lambda m: m.add_row_blocks(
            [_block(["r_"], [""], ["g"], ["=<"], [0], [0], [], [])], 2, (0,)),
        "infinite coefficient": lambda m: m.add_row_blocks(
            [_block(["r_"], [""], ["g"], [GE], [0], [1], [0], [float("inf")])], 2, (0,)),
        "a float offset": block(["r_"], [""], [1], [1.0], 2),
        "a float row end": block(["r_", "q_"], ["", ""], [1.0, 1], [0], 2),
        "a float family base": lambda m: m.add_row_blocks([valid], 2, (0.0,)),
        # a bool adds as an int, but is no position, offset, end or base
        "a bool position": lambda m: m.add_row("r", "g", [(True, 1)], GE, 0),
        "a bool offset": block(["r_"], [""], [1], [True], 2),
        "a bool row end": block(["r_", "q_"], ["", ""], [True, 1], [0], 2),
        "a bool family base": lambda m: m.add_row_blocks([valid], 2, (True,)),
        "a bool family": lambda m: m.add_row_blocks(
            [RowBlock(["r_"], [""], ["g"], [GE], [0], [1], [False], [0], [1])], 2, (0,)),
        "a negative family": lambda m: m.add_row_blocks(
            [RowBlock(["r_"], [""], ["g"], [GE], [0], [1], [-1], [0], [1])], 2, (0, 6)),
        "a family with no base": lambda m: m.add_row_blocks(
            [RowBlock(["r_"], [""], ["g"], [GE], [0], [1], [1], [0], [1])], 2, (0,)),
        "a block with fewer groups than rows": lambda m: m.add_row_blocks(
            [_block(["r_", "q_"], ["", ""], ["g"], [GE, GE], [0, 0], [0, 0], [], [])], 2, (0,)),
        "a block whose ends pass its terms": lambda m: m.add_row_blocks(
            [_block(["r_"], [""], ["g"], [GE], [0], [2], [0], [1])], 2, (0,)),
        "families and offsets of different lengths": lambda m: m.add_row_blocks(
            [RowBlock(["r_"], [""], ["g"], [GE], [0], [1], [0, 0], [0], [1])], 2, (0,)),
        # every block of a call is checked before any is stored
        "a bad block after a good one": lambda m: m.add_row_blocks(
            [valid, _block(["r_"], [""], ["g"], [GE], [0], [1], [13], [1])], 2, (0,)),
        "a bad once block after a good one": lambda m: m.add_row_blocks(
            [valid, _block(["c_1"], None, ["g"], [GE], [0], [0], [], [])], 2, (0,)),
        "ends of a later block below 0": lambda m: m.add_row_blocks(
            [valid, _block(["r_", "q_"], ["", ""], ["g", "g"], [GE, GE], [0, 0], [-1, 0], [], [])],
            2, (0,)),
        "NUL in a row stored once": lambda m: m.add_row("c\x002", "g", [(0, 1)], GE, 0),
        "a row named as MPS names the objective": lambda m: m.add_row(
            "COST", "g", [(0, 1)], GE, 0),
        "a block row named as LP labels the objective": lambda m: m.add_row_blocks(
            [valid, _block(["obj"], None, ["g"], [GE], [0], [0], [], [])], 2, (0,)),
        # copy t of a head that is a proper prefix of another, or of a tail
        # that starts with a digit, could read as another copy's name
        "a head that prefixes a head of the model": block(["cover"], ["_x"], [0], [], 2),
        "a head that a head of the model prefixes": block(["cover_t1"], ["_x"], [0], [], 2),
        "a head that prefixes a head of the call": block(["r", "r_"], ["", ""], [0, 0], [], 2),
        "a tail that starts with a digit": block(["r_"], ["7_a"], [0], [], 2),
        "a repeated head and tail in the call": block(["r_", "r_"], ["_a", "_a"], [0, 0], [], 2),
        "a head and tail of the model's block": block(["cover_t"], ["_o1"], [0], [], 2),
        "a full name of a copy of the model's block": lambda m: m.add_row(
            "cover_t2_o1", "g", [(0, 1)], GE, 0),
        "a once block's name of a copy of its call's block": lambda m: m.add_row_blocks(
            [_block(["r_1_a"], None, ["g"], [GE], [0], [0], [], []),
             _block(["r_"], ["_a"], ["g"], [GE], [0], [0], [], [])], 2, (0,)),
        "a variable head that prefixes a head of the model": lambda m: m.add_variable_copies(
            BINARY, [(["z_1"], ["_q"], False)], 2),
        "a variable tail that starts with a digit": lambda m: m.add_variable_copies(
            BINARY, [(["q_"], ["0"], True)], 2),
        "a variable head and tail of the model's family": lambda m: m.add_variable_copies(
            BINARY, [(["q_"], [""], False), (["z_2_"], [""], False)], 2),
        "a full variable name of a copy of the model's family": lambda m: m.add_variables(
            BINARY, ["q_0", "z_2_1"]),
        "NUL in a variable family's head": lambda m: m.add_variable_copies(
            BINARY, [(["q\x00"], ["_1"], False)], 2),
        "a variable family's name in the model": lambda m: m.add_variable_copies(
            BINARY, [(["q_"], ["_1"], False), (["x_"] * 2, ["_c", "_a"], False)], 2),
        "a variable family with no copies": lambda m: m.add_variable_copies(
            BINARY, [(["q_"], ["_1"], False)], 0),
        "variable heads and tails of different lengths": lambda m: m.add_variable_copies(
            BINARY, [(["q_", "r_"], ["_1"], False)], 2),
        "a variable family's tail that is no str": lambda m: m.add_variable_copies(
            BINARY, [(["q_"], [1], True)], 2),
        "a variable family's heads as one str": lambda m: m.add_variable_copies(
            BINARY, [("q_", ["_1", "_2"], False)], 2),
    }


@pytest.mark.parametrize("case", list(_block_rejections()))
def test_a_rejected_block_leaves_the_model_unchanged(case):
    m = _family_model()
    before = (len(m.variables), len(m.constraints), m.group_counts(), dict(m.objective),
              _exports(m))
    with pytest.raises(ValidationError):
        _block_rejections()[case](m)
    assert (len(m.variables), len(m.constraints), m.group_counts(), dict(m.objective),
            _exports(m)) == before


@pytest.mark.parametrize("case, reason", [
    ("a head that prefixes a head of the model",
     "row name head 'cover' is a prefix of head 'cover_t', so a copy's number would not read "
     "back from its name"),
    ("a head that a head of the model prefixes", "row name head 'cover_t' is a prefix of head "
                                                 "'cover_t1'"),
    ("a head that prefixes a head of the call", "row name head 'r' is a prefix of head 'r_'"),
    ("a tail that starts with a digit", "row name tail '7_a' starts with a digit, so a copy's "
                                        "number would not read back from its name"),
    ("a repeated head and tail in the call", "duplicate row name r_0_a"),
    ("a head and tail of the model's block", "duplicate row name cover_t0_o1"),
    ("a full name of a copy of the model's block", "duplicate row name cover_t2_o1"),
    ("a once block's name of a copy of its call's block", "duplicate row name r_1_a"),
    ("a variable head that prefixes a head of the model", "variable name head 'z_1' is a prefix "
                                                          "of head 'z_1_'"),
    ("a variable tail that starts with a digit", "variable name tail '0' starts with a digit"),
    ("a variable head and tail of the model's family", "duplicate variable name z_2_0"),
    ("a full variable name of a copy of the model's family", "duplicate variable name z_2_1"),
])
def test_copied_names_are_refused_with_their_reason(case, reason):
    with pytest.raises(ValidationError, match=f"^{re.escape(reason)}"):
        _block_rejections()[case](_family_model())


# name parts over an alphabet with digits, so that copies' names often meet
_PARTS = st.text(alphabet="ab_019", max_size=3)


def _numbered(known):
    """Names that read as a known head, a number, maybe with a leading zero
    or past the copies, and its tail."""
    return st.builds(lambda part, t, zero: part[0] + "0" * zero + str(t) + part[1],
                     st.sampled_from(known), st.integers(0, 13), st.booleans())


@settings(max_examples=300, deadline=None)
@given(st.data(), st.sampled_from(["row", "variable"]))
def test_copied_names_are_checked_by_their_heads_and_tails(data, namespace):
    # the check by heads and tails refuses a call exactly when a head is a
    # proper prefix of another, a tail starts with a digit, or joining every
    # name the model would hold finds one twice
    m = LinearModel("names")
    names, heads, known = [], set(), []  # every joined name, copied head and head-tail pair
    for _ in range(data.draw(st.integers(1, 4), label="calls")):
        # copies of one digit, and of two, where a leading zero fits in
        copies = data.draw(st.integers(1, 3) | st.integers(9, 12), label="copies")
        # new heads and tails, some split around a digit of a name the
        # model holds, so that a copy may take it
        split = [(name[:i], name[i + 1:]) for name in names for i, c in enumerate(name)
                 if c in "019"]
        entries = data.draw(st.lists(st.tuples(_PARTS, _PARTS) | st.sampled_from(split)
                                     if split else st.tuples(_PARTS, _PARTS), max_size=3),
                            label="heads and tails")
        size = len(entries)
        new_heads, new_tails = [head for head, _ in entries], [tail for _, tail in entries]
        pairs = known + list(zip(new_heads, new_tails))
        full = data.draw(st.lists(st.one_of(_PARTS, _numbered(pairs)) if pairs else _PARTS,
                                  max_size=3), label="full names")
        if namespace == "variable":  # full names and copies come in separate calls
            if data.draw(st.booleans(), label="full names only"):
                new_heads, new_tails, copies = [], [], 1
            else:
                full = []
        joined = full + [head + str(t) + tail for head, tail in zip(new_heads, new_tails)
                         for t in range(copies)]
        every_head = heads | set(new_heads) if copies > 1 else heads
        rule = copies == 1 or (not any(tail[:1] in "0123456789" for tail in new_tails if tail)
                               and not any(a != b and b.startswith(a)
                                           for a in every_head for b in every_head))
        accepted = rule and len(set(names + joined)) == len(names) + len(joined)
        before = (m.variable_names(), [row.name for row in m.constraints])
        if namespace == "row":
            call = lambda: m.add_row_blocks(  # noqa: E731
                [_block(full, None, ["g"] * len(full), [GE] * len(full), [0] * len(full),
                        [0] * len(full), [], []),
                 _block(new_heads, new_tails, ["g"] * size, [GE] * size, [0] * size, [0] * size,
                        [], [])], copies, (0,))
        elif full:
            call = lambda: m.add_variables(BINARY, full)  # noqa: E731
        else:
            interleaved = data.draw(st.booleans(), label="interleaved")
            call = lambda: m.add_variable_copies(  # noqa: E731
                BINARY, [(new_heads, new_tails, interleaved)], copies)
        if accepted:
            call()
            names += joined
            if copies > 1:
                heads, known = every_head, pairs
        else:
            with pytest.raises(ValidationError):
                call()
            assert (m.variable_names(), [row.name for row in m.constraints]) == before
        held = m.variable_names() if namespace == "variable" else [r.name for r in m.constraints]
        assert sorted(held) == sorted(names)


def test_a_full_name_is_a_copys_only_under_its_number():
    # copy t is named with str(t): no leading zero, and t below the copies
    m = LinearModel("m")
    m.add_row_blocks([_block(["r_"], ["_a"], ["g"], [GE], [0], [0], [], [])], 11, (0,))
    m.add_rows(["r_01_a", "r_00_a", "r_11_a", "r_10", "r_10_ab", "r__a"], ["g"] * 6, [GE] * 6,
               [0] * 6, [0] * 6, [], [])
    for name in ("r_0_a", "r_7_a", "r_10_a"):
        with pytest.raises(ValidationError, match=f"duplicate row name {name}$"):
            m.add_row(name, "g", [], GE, 0)
    assert len(m.constraints) == 17


def test_lookups_see_variables_declared_after_the_first():
    m = _family_model()
    assert m.var("z", 1, 2) == 8 and not m.has_var("q", 0)
    m.add_variable_copies(BINARY, [(["q_"], ["_b"], False)], 2)
    m.add_variable(INTEGER, ("u", 1))
    assert [m.var("q", 1, "b"), m.var("u", 1), m.var("x", 2, "a")] == [14, 15, 4]
    assert m.has_var("q", 0, "b") and not m.has_var("q", 2, "b")


def test_a_build_keeps_no_name_of_a_copy():
    # a build keeps copy 0's name of each copied row and variable, and
    # builds no table of positions by name until a lookup asks for one
    layout = WarehouseLayout(3, 1, 2, 1, 2)
    instance = generate_instance(layout, 6, 10, seed=8)
    assert instance.pickers > 1
    for kind in ("P_G", "P_F"):
        model = build_model(instance, shared_graph(layout), kind)
        rows, variables = model._row_names, model._variable_names
        assert len(rows.full) + len(rows.zeros) == len(model._heads) < len(model.constraints)
        assert len(variables.full) == 0
        assert len(variables.zeros) * instance.pickers == len(model.variables)
        assert model._lookup == {}
        assert model.var("y", 1, shared_graph(layout).origin) > 0
        assert len(model._lookup) == len(model.variables)


def test_check_reads_no_copy_a_block_lacks():
    # a block of 2 copies on a family of 2 copies, in a model whose other
    # block has 3: only copies 0 and 1 of its rows are checked, though copy
    # 2 of the family, past every variable, is not there to read
    blocked, flat = LinearModel("m"), LinearModel("m")
    for m in (blocked, flat):
        m.add_variable_copies(INTEGER, [(["x_"], ["_a"], False)], 3)
        m.add_variable_copies(INTEGER, [(["y_"], ["_b"], False)], 2)
    blocked.add_row_blocks([_block(["r_"], [""], ["g"], [LE], [1], [1], [0], [1]),
                            _block(["s_"], [""], ["g"], [GE], [1], [2], [0, 3], [1, -1])], 2,
                           (0,))
    blocked.add_row_blocks([_block(["q_"], [""], ["h"], [EQ], [1], [1], [0], [2])], 3, (0,))
    for t in range(2):
        flat.add_row(f"r_{t}", "g", [(t, 1)], LE, 1)
    for t in range(2):
        flat.add_row(f"s_{t}", "g", [(t, 1), (3 + t, -1)], GE, 1)
    for t in range(3):
        flat.add_row(f"q_{t}", "h", [(t, 2)], EQ, 1)
    assert blocked.constraints == flat.constraints
    rng = random.Random(3)
    for _ in range(50):
        assignment = VariableAssignment({name: rng.choice([0, 1, 2, Fraction(1, 2)])
                                         for name in flat.variable_names()})
        assert check_feasible(blocked, assignment, 10 ** 6) == \
            check_feasible(flat, assignment, 10 ** 6)


def test_row_copies_equal_their_rows_added_copy_by_copy():
    rng = random.Random(29)
    coefs = [1, -1, 2, 0.5, 0.1, -3.25]
    for copies in (1, 2, 3, 11, 12):
        blocked, flat = LinearModel("m", kind="k"), LinearModel("m", kind="k")
        for m in (blocked, flat):
            m.add_variables(INTEGER, ["u_0", "u_1"])
            m.add_variable_copies(BINARY, [(["x_"] * 4, [f"_{k}" for k in range(4)], False)],
                                  copies)
            m.add_variable_copies(CONTINUOUS, [([f"z_{k}_" for k in range(3)], [""] * 3, True)],
                                  copies)
            m.add_variables(BINARY, ["v_0"])
            m.add_variables(CONTINUOUS, ["w_0"], lb=-1, ub=2)
            m.set_objective_coeffs([0, 2, 3], [1, 0.5, -2])
        z = 2 + 4 * copies
        # each term's copy-0 position and its move per copy: u, v and w stay,
        # x moves by its 4 entries and z by 1; sorted in copy 0, sorted in all
        terms = [(0, 0), (1, 0)] + [(2 + k, 4) for k in range(4)] \
            + [(z + k * copies, 1) for k in range(3)] \
            + [(z + 3 * copies, 0), (z + 3 * copies + 1, 0)]
        for round_ in range(3):
            rows = [(f"b{round_}r{i}_t", f"_k{i}", rng.choice(["g1", "g2"]),
                     sorted(rng.sample(terms, rng.randrange(0, 7))),
                     rng.choice([LE, EQ, GE]), rng.choice([0, 1, -2, 0.25]))
                    for i in range(rng.randrange(0, 9))]
            picked = [[(pos, rng.choice(coefs)) for pos, _ in row[3]] for row in rows]
            block = _block([r[0] for r in rows], [r[1] for r in rows], [r[2] for r in rows],
                           [r[4] for r in rows], [r[5] for r in rows],
                           list(accumulate(map(len, picked))),
                           [pos for row in picked for pos, _ in row],
                           [coef for row in picked for _, coef in row])
            # a cut on u, then the block, in one call
            blocked.add_row_blocks([_block([f"cut{round_}"], None, ["cut"], [LE], [0], [2],
                                           [0, z + 3 * copies], [1, -1]), block], copies, (0,))
            flat.add_row(f"cut{round_}", "cut", [(0, 1), (z + 3 * copies, -1)], LE, 0)
            for t in range(copies):
                moved = [[(pos + t * shift, coef) for (pos, shift), (_, coef) in zip(r[3], p)]
                         for r, p in zip(rows, picked)]
                flat.add_rows([r[0] + str(t) + r[1] for r in rows], [r[2] for r in rows],
                              [r[4] for r in rows], [r[5] for r in rows],
                              list(accumulate(map(len, moved))),
                              [pos for row in moved for pos, _ in row],
                              [coef for row in moved for _, coef in row])
            for m in (blocked, flat):
                m.add_row(f"late{round_}", "cut", [(z + 3 * copies, 1), (2, -1)], LE, 0)
        assert blocked.constraints == flat.constraints
        assert blocked.group_counts() == flat.group_counts()
        for group in ("g1", "g2", "cut"):
            assert blocked.rows_in_group(group) == flat.rows_in_group(group)
        assert _exports(blocked) == _exports(flat)
        assert write_lp(blocked) == reference_lp(blocked)
        assert write_model_json(blocked) == reference_model_json(blocked)
        assert _first_difference(write_mps(blocked), reference_mps(blocked)) is None, copies
        for mode in ("integral", "fractional", "negative", "out of bounds"):
            assignment = _random_assignment(rng, flat, mode)
            assert check_feasible(blocked, assignment, 10 ** 6) == \
                check_feasible(flat, assignment, 10 ** 6)


def _expanded(block, copies, bases, moves):
    """Every copy's rows of ``block`` as ``add_row`` takes them, copy after
    copy: copy t of row i of a copied block is named ``head + str(t) +
    tail``, and each term on a position in ``moves`` moves by its step t
    times.  A block stored once has one copy, named by its heads."""
    once = block.tails is None
    rows = []
    for t in range(1 if once else copies):
        for i, (start, end) in enumerate(zip([0, *block.ends], block.ends)):
            terms = [(bases[family] + offset, coef) for family, offset, coef in
                     zip(block.families[start:end], block.offsets[start:end],
                         block.coefs[start:end])]
            terms = [(pos if once else pos + t * moves.get(pos, 0), coef) for pos, coef in terms]
            name = block.heads[i] if once else block.heads[i] + str(t) + block.tails[i]
            rows.append((name, block.groups[i], terms, block.senses[i], block.rhs[i]))
    return rows


def test_a_model_of_mixed_copy_counts_equals_its_flat_twin():
    # calls of one, three and two copies, blocks stored once among copied
    # ones, then cuts by add_row; every writer test elsewhere builds each
    # model with one copy count
    rng = random.Random(41)
    blocked, flat = LinearModel("mixed", kind="k"), LinearModel("mixed", kind="k")
    for m in (blocked, flat):
        m.add_variables(INTEGER, ["u_0", "u_1"])
        # x: 3 copies side by side (2-7); z: 3 copies interleaved (8-13);
        # w: one copy (14); then s (15)
        assert m.add_variable_copies(BINARY, [(["x_"] * 2, ["_a", "_b"], False)], 3) == [2]
        assert m.add_variable_copies(INTEGER, [(["z_1_", "z_2_"], ["", ""], True)], 3) == [8]
        assert m.add_variable_copies(BINARY, [(["w_"], ["_c"], False)], 1) == [14]
        m.add_variables(CONTINUOUS, ["s_0"], lb=-1, ub=2)
        m.set_objective_coeffs([0, 2, 5, 8, 14, 15], [1, 2, 0.5, -1, 3, 1])
    bases = (0, 2, 8, 14)  # family 0 by position, then x, z and w
    moves = {2: 2, 3: 2, 8: 1, 11: 1}  # copy 0 of x and z, and each one's step
    calls = [
        (1, [RowBlock(["a_"], ["_1"], ["g1"], [LE], [1], [2], [1, 3], [0, 0], [1, -1]),
             RowBlock(["lone"], None, ["g2"], [GE], [0], [2], [0, 0], [1, 14], [2, 0.5])]),
        (3, [RowBlock(["b_", "c_"], ["_x", ""], ["g1", "g3"], [GE, EQ], [0, 1], [3, 4],
                      [0, 1, 2, 2], [0, 1, 0, 3], [1, -2, 1, 1]),
             RowBlock(["mid"], None, ["g2"], [LE], [3], [2], [1, 0], [0, 15], [1, 1]),
             RowBlock(["d_"], ["_y"], ["g3"], [LE], [0.5], [2], [1, 0], [0, 15], [0.25, -1])]),
        (1, [RowBlock(["e_"], ["_z"], ["g1"], [EQ], [1], [1], [3], [0], [1])]),
        (2, [RowBlock(["f_"], [""], ["g2"], [GE], [-1], [2], [1, 2], [1, 3], [3, -1]),
             RowBlock(["tail"], None, ["g3"], [LE], [2], [1], [0], [7], [1])]),
    ]
    for copies, blocks in calls:
        blocked.add_row_blocks(blocks, copies, bases)
        for block in blocks:
            for row in _expanded(block, copies, bases, moves):
                flat.add_row(*row)
    for m in (blocked, flat):
        m.add_row("cut1", "cut", [(7, 1), (0, -1)], LE, 0)
        m.add_row("cut2", "cut", [(13, 1), (14, 1), (1, 1)], GE, 1)
    assert len(blocked.constraints) == 18
    assert blocked._segments != flat._segments  # the blocks are stored by copy 0
    assert _first_difference(write_lp(blocked), reference_lp(blocked)) is None
    assert _first_difference(write_mps(blocked), reference_mps(blocked)) is None
    assert write_model_json(blocked) == reference_model_json(blocked)
    assert _exports(blocked) == _exports(flat)
    assert blocked.constraints == flat.constraints
    assert blocked.group_counts() == flat.group_counts()
    for group in ("g1", "g2", "g3", "cut"):
        assert blocked.rows_in_group(group) == flat.rows_in_group(group)
    for mode in ("integral", "fractional", "negative", "out of bounds"):
        for _ in range(10):
            assignment = _random_assignment(rng, flat, mode)
            assert check_feasible(blocked, assignment, 10 ** 6) == \
                check_feasible(flat, assignment, 10 ** 6)


def test_rows_may_not_take_the_objectives_names():
    # MPS names the objective's row COST and LP labels it obj, so a row of
    # either name would be read as a second objective
    for name in ("COST", "obj"):
        m = tiny_model()
        with pytest.raises(ValidationError, match=f"row name {name} is the objective's name"):
            m.add_row(name, "g", [(0, 1)], GE, 0)
        with pytest.raises(ValidationError, match=f"row name {name} "):
            m.add_rows(["r4", name], ["g", "g"], [GE, GE], [0, 0], [0, 0], [], [])
    m.add_row("cost", "g", [(0, 1)], GE, 0)
    m.add_row("Obj", "g", [(0, 1)], GE, 0)


def _whole_family_model():
    """Families of 12 copies of 2 entries, side by side unless noted, with
    a column for each case ``write_mps`` must not write by substitution
    and one it may: c has a cost that differs by copy (0-23), o has copy 1
    in a row stored once (24-47), f has copy 2 as a fixed term of a block
    (48-71), z and w are interleaved (72-95), e, whose names are under 10
    characters, is written whole (96-119), and h moves in a block of 3
    copies (120-143).  Then s, of no family (144)."""
    m = LinearModel("whole", kind="test")
    bases = m.add_variable_copies(BINARY, [
        (["c", "c"], ["a", "b"], False), (["o", "o"], ["a", "b"], False),
        (["f", "f"], ["a", "b"], False), (["z", "w"], ["", ""], True),
        (["e", "e"], ["a", "b"], False), (["h", "h"], ["a", "b"], False)], 12)
    assert bases == [0, 24, 48, 72, 96, 120]
    m.add_variables(CONTINUOUS, ["s"], ub=3)
    m.set_objective_coeffs([2 * t for t in range(12)] + [96 + 2 * t for t in range(12)]
                           + [144], list(range(1, 13)) + [1] * 12 + [2])
    m.add_row("once", "g", [(26, 1), (144, -1)], LE, 0)
    # row r: copy t of c, o, f, z, w and e; row q: f's copy 2 in every
    # copy, then e
    m.add_row_blocks([RowBlock(["r", "q"], ["", "_x"], ["g", "g"], [GE, LE], [1, 0], [6, 8],
                               [0, 1, 2, 3, 3, 4, 0, 4], [0, 0, 0, 0, 12, 0, 53, 1],
                               [1, 2, -1, 0.5, 4, 1, 1, -3])], 12, bases)
    m.add_row_blocks([RowBlock(["s"], ["_h"], ["g"], [EQ], [2], [1], [5], [0], [1])], 3, bases)
    return m


def test_mps_writes_a_family_by_substitution_only_where_every_entry_moves():
    m = _whole_family_model()
    text = write_mps(m)
    assert _first_difference(text, reference_mps(m)) is None
    # every name is padded to 10 characters, in copies 10 and 11 too
    assert "    e10a        r10         1\n" in text
    assert "    e11b        q11_x       -3\n" in text
    assert "    RHS         r11         1\n" in text
    assert "    c10a        COST        11\n" in text
    assert "    e10a        COST        1\n    e10a        r10         1\n" in text
    assert "    z10         r10         0.5\n    z11         r11         0.5\n" in text
    assert "    f2b         q0_x        1\n    f2b         q1_x        1\n" in text
    assert "    o1a         once        1\n    o1a         r1          2\n" in text


def test_a_nul_in_a_group_is_written_as_json_writes_it():
    # a NUL marks where the copy's number goes only in the writers' text of
    # copy 0, and json escapes a NUL in a group
    m = _family_model()
    m.add_row("odd", "odd\x00group", [(1, 1)], LE, 1)
    m.add_row_blocks([_block(["odd_"], ["_row"], ["grp\x00"], [EQ], [1], [1], [6], [1])], 3,
                     (0,))
    assert write_model_json(m) == reference_model_json(m)
    assert write_lp(m) == reference_lp(m)
    assert "odd_2_row" in write_lp(m) and "\\u0000" in write_model_json(m)


def test_blocks_with_no_rows_take_no_place():
    # empty blocks of either kind between, before and after others
    m = _family_model()
    empty_copies = _block([], [], [], [], [], [], [], [])
    empty_once = _block([], None, [], [], [], [], [], [])
    m.add_row_blocks([empty_copies, empty_once, _block(["a"], None, ["g"], [GE], [0], [1], [0],
                                                       [1]),
                      empty_copies, _block(["b_"], [""], ["g"], [GE], [0], [1], [0], [1]),
                      empty_once, empty_copies], 2, (0,))
    m.add_row_blocks([empty_once], 3, (0,))
    assert [row.name for row in m.constraints][-3:] == ["a", "b_0", "b_1"]
    assert [row.coeffs for row in m.constraints][-3:] == [((0, 1),), ((0, 1),), ((2, 1),)]
    assert write_lp(m) == reference_lp(m)

