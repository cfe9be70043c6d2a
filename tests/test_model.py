import random
from fractions import Fraction
from itertools import accumulate

import pytest

from conftest import shared_graph
from oracles import (fraction_feasibility, fraction_objective, parse_lp,
                     reference_model_json)
from test_golden_exports import export_models
from pickopt import (ALL_KINDS, LinearModel, ValidationError, VariableAssignment,
                     WarehouseLayout, build_model, check_feasible, encode_walk_PF,
                     encode_walk_PG, generate_instance, solve_exact, write_lp, write_mps,
                     write_model_json)
from pickopt.model import BINARY, CONTINUOUS, EQ, GE, INTEGER, LE, Constraint, Variable


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
    with pytest.raises(ValidationError, match="duplicate variable index"):
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
    assert Variable("x_0", BINARY, ("x", 0)) == ("x_0", BINARY, ("x", 0), 0, None)
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


def test_assignment_refuses_text():
    # Fraction would parse each of these; text is not a number
    a = VariableAssignment({"x": 1})
    for text in ("1", " 1 ", "3/1", "1/2", "x", b"1"):
        with pytest.raises(TypeError, match="not a number"):
            a.set("x", text)
        with pytest.raises(TypeError):
            VariableAssignment({"y": text})
    assert dict(a.items()) == {"x": 1}


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
    m.add_variables(BINARY, [("x", k) for k in range(4)])
    m.set_objective_coeffs([2, 0], [1, 0])  # a zero adds no term
    assert m.objective == {2: 1}
    m.set_objective_coeffs([1, 2, 1], [2, 3, 0.5])  # repeats within and across calls
    assert m.objective == {2: 4, 1: 2.5}
    m.set_objective_coeffs([3, 0], [-1, 7])
    assert list(m.objective.items()) == [(2, 4), (1, 2.5), (3, -1), (0, 7)]


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
    m.add_variables(BINARY, [("x", k) for k in range(n_vars // 2)])
    m.add_variables(CONTINUOUS, [("s", k) for k in range(n_vars - n_vars // 2)], lb=-1.5, ub=4)
    m.set_objective_coeffs(range(0, n_vars, 3), [1, 0.5, 2] * n_vars)


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
        "infinite bound": lambda m: m.add_variables(CONTINUOUS, [("u", 0)], ub=inf),
        "NaN bound": lambda m: m.add_variable(CONTINUOUS, ("u", 0), lb=nan),
        "'_' in a text index part": lambda m: m.add_variables(BINARY, [("u", 0), ("u", "1_2")]),
        "index repeated in the call": lambda m: m.add_variables(BINARY, [("u", 0), ("u", 0)]),
        "index in the model": lambda m: m.add_variables(BINARY, [("u", 0), ("x", 0)]),
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
    m.add_variables(BINARY, [("u", 0), ("u", 1)])
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


def test_views_are_read_only_sequences():
    m = tiny_model()
    rows = m.constraints
    assert len(rows) == 3 and rows[-1] == rows[2] == Constraint("r3", "other", ((0, 1),), EQ, 1)
    assert rows[1:] == [rows[1], rows[2]] and rows[::-1][0].name == "r3"
    assert rows == list(rows) and rows == m.constraints and rows != list(rows)[:2]
    assert [v.name for v in m.variables[-2:]] == ["y_0", "s_0"]
    assert m.variables[0] == Variable("x_0", BINARY, ("x", 0), 0, 1)
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
