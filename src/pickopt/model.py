"""Solver-agnostic linear integer models.

A :class:`LinearModel` is an ordered collection of typed variables, named
constraint rows grouped into stable families, and a sparse minimization
objective.  A variable is addressed by its index tuple, and its name is
derived from that tuple by :func:`var_name`, the only naming rule.  Models
are exported to CPLEX-LP, free MPS or a JSON sidecar; no LP relaxations
are solved here.

Feasibility checks and exports are exact, with no tolerances anywhere: they
compute in plain ``int`` arithmetic, and a ``Fraction`` is built only for a
value that is not an ``int``, such as a float objective coefficient at
fractional spacing or a fractional candidate value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Iterable, Optional

from .errors import ValidationError

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

LE, EQ, GE = "<=", "=", ">="

LP_FORMAT = "lp"
MPS_FORMAT = "mps"
JSON_FORMAT = "json"


def _exact(c):
    """``c`` itself when it is an ``int``, else ``c`` as a ``Fraction``, which
    is exact for every float; an integral value becomes an ``int``."""
    if type(c) is int:
        return c
    if type(c) is not Fraction:
        c = Fraction(c)
    return c.numerator if c.denominator == 1 else c


_NAME_FORMATS = tuple("_".join(["%s"] * n) for n in range(8))


def var_name(index: tuple) -> str:
    """Name of the variable with this index: its parts joined by ``_``,
    so ``("x", 0, 3, 4)`` is ``x_0_3_4``.  An index has at most 7 parts."""
    return _NAME_FORMATS[len(index)] % index


@dataclass(frozen=True)
class Variable:
    name: str
    kind: str
    index: tuple
    lb: float = 0
    ub: Optional[float] = None  # None = +inf (binary gets 1 implicitly)


@dataclass(frozen=True)
class Constraint:
    name: str
    group: str
    coeffs: tuple[tuple[int, float], ...]  # (variable position, coefficient)
    sense: str
    rhs: float


class LinearModel:
    """Ordered variables + grouped rows + minimize objective."""

    def __init__(self, name: str, kind: Optional[str] = None, meta: Optional[dict] = None):
        self.name = name
        self.kind = kind
        self.meta = dict(meta or {})
        self.variables: list[Variable] = []
        self._by_index: dict[tuple, int] = {}
        self.constraints: list[Constraint] = []
        self._row_names: set[str] = set()
        self.objective: dict[int, float] = {}
        self.lazy_groups: dict[str, str] = {}  # group name -> short description

    # -- construction ----------------------------------------------------

    def add_variable(self, kind: str, index: tuple, lb=0, ub=None) -> int:
        """Declare a variable; its name is ``var_name(index)``.

        Text parts of the index may not contain ``_``, so distinct indices
        always get distinct names.
        """
        name = var_name(index)
        if name.count("_") != len(index) - 1:
            raise ValidationError(f"variable index {index} has a part containing '_'")
        pos = len(self.variables)
        if self._by_index.setdefault(index, pos) != pos:
            raise ValidationError(f"duplicate variable index {index}")
        if kind == BINARY:
            ub = 1
        self.variables.append(Variable(name, kind, index, lb, ub))
        return pos

    def var(self, *index) -> int:
        """Position of the variable with the given index tuple."""
        try:
            return self._by_index[tuple(index)]
        except KeyError:
            raise ValidationError(f"undeclared variable index {index}") from None

    def has_var(self, *index) -> bool:
        return tuple(index) in self._by_index

    def var_name(self, pos: int) -> str:
        return self.variables[pos].name

    def add_row(self, name: str, group: str, coeffs: Iterable[tuple[int, float]],
                sense: str, rhs) -> Constraint:
        if sense not in (LE, EQ, GE):
            raise ValidationError(f"bad sense {sense!r}")
        if name in self._row_names:
            raise ValidationError(f"duplicate row name {name}")
        merged: dict[int, float] = {}
        for pos, coef in coeffs:
            if not (0 <= pos < len(self.variables)):
                raise ValidationError(f"row {name}: variable position {pos} not declared")
            merged[pos] = merged.get(pos, 0) + coef
        row = Constraint(name, group, tuple(sorted(merged.items())), sense, rhs)
        self.constraints.append(row)
        self._row_names.add(name)
        return row

    def declare_lazy_group(self, group: str, description: str) -> None:
        self.lazy_groups[group] = description

    def set_objective_coeff(self, pos: int, coef) -> None:
        if coef:
            self.objective[pos] = self.objective.get(pos, 0) + coef

    # -- inspection --------------------------------------------------------

    def group_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for row in self.constraints:
            counts[row.group] = counts.get(row.group, 0) + 1
        for group in self.lazy_groups:
            counts.setdefault(group, 0)
        return counts

    def rows_in_group(self, group: str) -> list[Constraint]:
        return [row for row in self.constraints if row.group == group]

    def variable_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for v in self.variables:
            counts[v.index[0]] = counts.get(v.index[0], 0) + 1
        return counts

    def objective_value(self, values: dict[str, Fraction]) -> Fraction:
        total = 0
        for pos, coef in sorted(self.objective.items()):
            val = values.get(self.variables[pos].name)
            if val:
                total += _exact(coef) * _exact(val)
        return Fraction(total)


@dataclass(frozen=True)
class Violation:
    row: str
    group: str
    lhs: Fraction
    sense: str
    rhs: Fraction


@dataclass(frozen=True)
class FeasibilityReport:
    satisfied: bool
    violations: tuple[Violation, ...]
    checked_rows: int

    def groups(self) -> tuple[str, ...]:
        return tuple(v.group for v in self.violations)


class VariableAssignment:
    """Mapping from declared variable names to rational values."""

    def __init__(self, values: Optional[dict] = None):
        self.values: dict[str, Fraction] = {}
        for name, val in (values or {}).items():
            self.set(name, val)

    def set(self, name: str, value) -> None:
        self.values[name] = Fraction(value)

    def get(self, name: str) -> Fraction:
        return self.values.get(name, Fraction(0))

    def is_integral(self) -> bool:
        return all(v.denominator == 1 for v in self.values.values())

    def items(self):
        return self.values.items()


def check_feasible(model: LinearModel, assignment: VariableAssignment,
                   max_report: int = 10) -> FeasibilityReport:
    """Exact satisfaction check of every enumerated row plus variable domains.

    Missing variables count as zero.  The first ``max_report`` violations
    are returned with their row names; ``satisfied`` counts every violation,
    reported or not.
    """
    values = assignment.values
    violations: list[Violation] = []
    violated = 0

    def note(name, group, lhs, sense, rhs):
        nonlocal violated
        violated += 1
        if len(violations) < max_report:
            violations.append(Violation(name, group, Fraction(lhs), sense, Fraction(rhs)))

    # the assignment by variable position, integral values as ints; sums
    # need exact terms, while comparing an int, float or Fraction is exact
    x = [0] * len(model.variables)
    for pos, v in enumerate(model.variables):
        val = values.get(v.name)
        if val is None:
            continue
        val = x[pos] = _exact(val)
        if v.kind in (BINARY, INTEGER) and type(val) is not int:
            note(f"domain({v.name})", "domain", val, EQ, 0)
        if val < v.lb:
            note(f"bound({v.name})", "domain", val, GE, v.lb)
        if v.ub is not None and val > v.ub:
            note(f"bound({v.name})", "domain", val, LE, v.ub)

    for row in model.constraints:
        lhs = 0
        for pos, coef in row.coeffs:
            val = x[pos]
            if val:
                lhs += _exact(coef) * val
        rhs = row.rhs
        ok = lhs <= rhs if row.sense == LE else lhs >= rhs if row.sense == GE else lhs == rhs
        if not ok:
            note(row.name, row.group, lhs, row.sense, rhs)

    return FeasibilityReport(not violated, tuple(violations), len(model.constraints))


# -- exporters -------------------------------------------------------------


def _num(x) -> str:
    c = _exact(x)
    return str(c) if type(c) is int else repr(float(c))


def lp_terms(pairs, names) -> list[str]:
    """LP-format terms (``x_0``, ``- 2 y_1``) of ``(position, coefficient)``
    pairs, with ``names`` indexed by position."""
    parts = []
    for pos, coef in pairs:
        c = _exact(coef)
        sign = "-" if c < 0 else "+"
        mag = -c if c < 0 else c
        if mag == 1:
            parts.append(f"{sign} {names[pos]}")
        else:
            parts.append(f"{sign} {_num(mag)} {names[pos]}")
    if parts and parts[0].startswith("+ "):
        parts[0] = parts[0][2:]
    return parts


def _wrap(prefix: str, parts: list[str], per_line: int = 8) -> list[str]:
    if not parts:
        return [f"{prefix} 0"]
    lines = []
    for k in range(0, len(parts), per_line):
        chunk = " ".join(parts[k:k + per_line])
        lines.append(f"{prefix} {chunk}" if k == 0 else f"   {chunk}")
    return lines


def write_lp(model: LinearModel) -> str:
    names = [v.name for v in model.variables]
    out = [f"\\ {model.name}"]
    out.append("Minimize")
    obj = sorted(model.objective.items())
    out.extend(_wrap(" obj:", lp_terms(obj, names)))
    out.append("Subject To")
    for row in model.constraints:
        sense = row.sense if row.sense != EQ else "="
        parts = lp_terms(row.coeffs, names)
        lines = _wrap(f" {row.name}:", parts)
        lines[-1] += f" {sense} {_num(row.rhs)}"
        out.extend(lines)
    bounds = []
    for v in model.variables:
        if v.kind != BINARY and (_exact(v.lb) != 0 or v.ub is not None):
            hi = "+inf" if v.ub is None else _num(v.ub)
            bounds.append(f" {_num(v.lb)} <= {v.name} <= {hi}")
    if bounds:
        out.append("Bounds")
        out.extend(bounds)
    binaries = [v.name for v in model.variables if v.kind == BINARY]
    if binaries:
        out.append("Binaries")
        out.extend(_wrap(" ", binaries))
    generals = [v.name for v in model.variables if v.kind == INTEGER]
    if generals:
        out.append("Generals")
        out.extend(_wrap(" ", generals))
    out.append("End")
    return "\n".join(out) + "\n"


def write_mps(model: LinearModel) -> str:
    """Free MPS: names may exceed the eight characters of fixed-field MPS."""
    out = [f"NAME          {model.name[:60]}"]
    out.append("ROWS")
    out.append(" N  COST")
    sense_tag = {LE: "L", EQ: "E", GE: "G"}
    for row in model.constraints:
        out.append(f" {sense_tag[row.sense]}  {row.name}")

    # column-major entries
    col_entries: list[list[tuple[str, str]]] = [[] for _ in model.variables]
    for pos, coef in sorted(model.objective.items()):
        col_entries[pos].append(("COST", _num(coef)))
    for row in model.constraints:
        for pos, coef in row.coeffs:
            col_entries[pos].append((row.name, _num(coef)))

    out.append("COLUMNS")
    integer_open = False
    marker = 0
    for v, entries in zip(model.variables, col_entries):
        is_int = v.kind in (BINARY, INTEGER)
        if is_int and not integer_open:
            out.append(f"    MARKER{marker:04d}  'MARKER'                 'INTORG'")
            marker += 1
            integer_open = True
        if not is_int and integer_open:
            out.append(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'")
            marker += 1
            integer_open = False
        for row_name, coef in entries:
            out.append(f"    {v.name:<10}  {row_name:<10}  {coef}")
    if integer_open:
        out.append(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'")

    out.append("RHS")
    for row in model.constraints:
        if _exact(row.rhs) != 0:
            out.append(f"    RHS         {row.name:<10}  {_num(row.rhs)}")
    out.append("BOUNDS")
    for v in model.variables:
        if v.kind == BINARY:
            out.append(f" BV BND         {v.name}")
        else:
            if _exact(v.lb) != 0:
                out.append(f" LO BND         {v.name}  {_num(v.lb)}")
            if v.ub is not None:
                out.append(f" UP BND         {v.name}  {_num(v.ub)}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


FORMAT_MODEL = "pickopt-model-v1"


def model_to_dict(model: LinearModel) -> dict:
    return {
        "format": FORMAT_MODEL,
        "name": model.name,
        "kind": model.kind,
        "meta": model.meta,
        "lazy_groups": dict(sorted(model.lazy_groups.items())),
        "variables": [
            {"name": v.name, "kind": v.kind, "lb": v.lb, "ub": v.ub}
            for v in model.variables
        ],
        "objective": {model.var_name(pos): coef for pos, coef in sorted(model.objective.items())},
        "constraints": [
            {
                "name": row.name,
                "group": row.group,
                "coeffs": {model.var_name(pos): coef for pos, coef in row.coeffs},
                "sense": row.sense,
                "rhs": row.rhs,
            }
            for row in model.constraints
        ],
    }


def write_model_json(model: LinearModel) -> str:
    return json.dumps(model_to_dict(model), indent=1, sort_keys=False) + "\n"


def export_model(model: LinearModel, fmt: str, path) -> None:
    """Write the model to disk; byte output is deterministic per model."""
    fmt = fmt.lower()
    if fmt == LP_FORMAT:
        text = write_lp(model)
    elif fmt == MPS_FORMAT:
        text = write_mps(model)
    elif fmt == JSON_FORMAT:
        text = write_model_json(model)
    else:
        raise ValidationError(f"unknown export format {fmt!r}")
    Path(path).write_text(text)
