"""Solver-agnostic linear integer models.

A :class:`LinearModel` is an ordered collection of typed variables, named
constraint rows grouped into stable families, and a sparse minimization
objective.  A variable is addressed by its index tuple, and its name is
derived from that tuple by :func:`var_name`, the only naming rule.  Models
are exported to CPLEX-LP, free MPS or a JSON sidecar; no LP relaxations
are solved here.  Variables and rows are immutable named tuples.

The writers format each distinct number once per call.  The JSON writer
lays the document out field by field and sends only its small head through
``json.dumps``, yet its bytes are exactly ``json.dumps(doc, indent=1)`` plus
a newline, where ``doc`` holds the same fields as plain dicts and lists.

Feasibility checks and exports are exact, with no tolerances anywhere: they
compute in plain ``int`` arithmetic, and a ``Fraction`` is built only for a
value that is not an ``int``, such as a float objective coefficient at
fractional spacing or a fractional candidate value.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

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


_POSITION = itemgetter(0)
_NAME_FORMATS = tuple("_".join(["%s"] * n) for n in range(8))


def var_name(index: tuple) -> str:
    """Name of the variable with this index: its parts joined by ``_``,
    so ``("x", 0, 3, 4)`` is ``x_0_3_4``.  An index has at most 7 parts."""
    return _NAME_FORMATS[len(index)] % index


class Variable(NamedTuple):
    name: str
    kind: str
    index: tuple
    lb: float = 0
    ub: Optional[float] = None  # None = +inf (binary gets 1 implicitly)


class Constraint(NamedTuple):
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
        self._group_rows: dict[str, int] = {}  # rows per group, in order of first row
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
        """Append a row.  Its terms are sorted by position; the coefficients of
        a repeated position are summed, and a term summing to zero is kept."""
        if sense not in (LE, EQ, GE):
            raise ValidationError(f"bad sense {sense!r}")
        if name in self._row_names:
            raise ValidationError(f"duplicate row name {name}")
        terms = sorted(coeffs, key=_POSITION)
        if terms:
            for pos in (terms[0][0], terms[-1][0]):
                if not (0 <= pos < len(self.variables)):
                    raise ValidationError(f"row {name}: variable position {pos} not declared")
            if len(dict(terms)) < len(terms):
                merged: dict[int, float] = {}
                for pos, coef in terms:
                    merged[pos] = merged.get(pos, 0) + coef
                terms = merged.items()
        row = Constraint(name, group, tuple(terms), sense, rhs)
        self.constraints.append(row)
        self._row_names.add(name)
        self._group_rows[group] = self._group_rows.get(group, 0) + 1
        return row

    def declare_lazy_group(self, group: str, description: str) -> None:
        self.lazy_groups[group] = description

    def set_objective_coeff(self, pos: int, coef) -> None:
        if coef:
            self.objective[pos] = self.objective.get(pos, 0) + coef

    # -- inspection --------------------------------------------------------

    def group_counts(self) -> dict[str, int]:
        """Rows per group, in order of each group's first row, then every
        lazy group with no row."""
        counts = dict(self._group_rows)
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


class _Memo(dict):
    """``fn`` of each distinct key, computed once.  Equal keys share an
    entry, so ``fn`` must depend on the key's value alone: ``_num`` and
    ``_lp_sign`` give ``1``, ``1.0`` and ``Fraction(1)`` the same text."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def _lp_sign(coef) -> str:
    """The text before a name in an LP term: ``+ ``, ``- ``, ``+ 2 ``, ..."""
    c = _exact(coef)
    text = "- " if c < 0 else "+ "
    return text if abs(c) == 1 else text + _num(abs(c)) + " "


def _lp_terms(pairs, names, signs: _Memo) -> list[str]:
    parts = [signs[coef] + names[pos] for pos, coef in pairs]
    if parts and parts[0][0] == "+":
        parts[0] = parts[0][2:]
    return parts


def lp_terms(pairs, names) -> list[str]:
    """LP-format terms (``x_0``, ``- 2 y_1``) of ``(position, coefficient)``
    pairs, with ``names`` indexed by position."""
    return _lp_terms(pairs, names, _Memo(_lp_sign))


def _wrap(prefix: str, parts: list[str], per_line: int = 8) -> list[str]:
    if len(parts) <= per_line:
        return [f"{prefix} {' '.join(parts) or '0'}"]
    lines = []
    for k in range(0, len(parts), per_line):
        chunk = " ".join(parts[k:k + per_line])
        lines.append(f"{prefix} {chunk}" if k == 0 else f"   {chunk}")
    return lines


def write_lp(model: LinearModel) -> str:
    names = [v.name for v in model.variables]
    signs = _Memo(_lp_sign)
    nums = _Memo(_num)
    out = [f"\\ {model.name}"]
    out.append("Minimize")
    obj = sorted(model.objective.items())
    out.extend(_wrap(" obj:", _lp_terms(obj, names, signs)))
    out.append("Subject To")
    for row in model.constraints:
        lines = _wrap(f" {row.name}:", _lp_terms(row.coeffs, names, signs))
        lines[-1] += f" {row.sense} {nums[row.rhs]}"
        out.extend(lines)
    bounds = []
    for v in model.variables:
        if v.kind != BINARY and (_exact(v.lb) != 0 or v.ub is not None):
            hi = "+inf" if v.ub is None else nums[v.ub]
            bounds.append(f" {nums[v.lb]} <= {v.name} <= {hi}")
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
    nums = _Memo(_num)
    out = [f"NAME          {model.name[:60]}"]
    out.append("ROWS")
    out.append(" N  COST")
    sense_tag = {LE: "L", EQ: "E", GE: "G"}
    for row in model.constraints:
        out.append(f" {sense_tag[row.sense]}  {row.name}")

    # column-major entries: each row's padded name and the coefficient
    col_entries: list[list[str]] = [[] for _ in model.variables]
    for pos, coef in sorted(model.objective.items()):
        col_entries[pos].append(f"{'COST':<10}  {nums[coef]}")
    for row in model.constraints:
        label = f"{row.name:<10}  "
        for pos, coef in row.coeffs:
            col_entries[pos].append(label + nums[coef])

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
        column = f"    {v.name:<10}  "
        out.extend([column + entry for entry in entries])
    if integer_open:
        out.append(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'")

    out.append("RHS")
    for row in model.constraints:
        if _exact(row.rhs) != 0:
            out.append(f"    RHS         {row.name:<10}  {nums[row.rhs]}")
    out.append("BOUNDS")
    for v in model.variables:
        if v.kind == BINARY:
            out.append(f" BV BND         {v.name}")
        else:
            if _exact(v.lb) != 0:
                out.append(f" LO BND         {v.name}  {nums[v.lb]}")
            if v.ub is not None:
                out.append(f" UP BND         {v.name}  {nums[v.ub]}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


FORMAT_MODEL = "pickopt-model-v1"


def _json_num(x) -> str:
    """A number, or ``None``, as ``json.dumps`` writes it."""
    if type(x) is int:
        return int.__repr__(x)
    if type(x) is float and x - x == 0:
        return float.__repr__(x)
    return json.dumps(x)


def _json_block(items: list[str], opening: str, closing: str) -> str:
    """A non-empty list or object whose items are already indented, or the
    empty one, as ``json.dumps(..., indent=1)`` lays it out."""
    if not items:
        return opening + closing.lstrip()
    return opening + "\n" + ",\n".join(items) + "\n" + closing


def write_model_json(model: LinearModel) -> str:
    """The model as a JSON document, laid out as ``json.dumps(doc, indent=1)``
    plus a newline.  Only the head goes through ``json.dumps``; variables,
    objective and rows are written field by field, each name quoted once."""
    head = json.dumps({
        "format": FORMAT_MODEL,
        "name": model.name,
        "kind": model.kind,
        "meta": model.meta,
        "lazy_groups": dict(sorted(model.lazy_groups.items())),
    }, indent=1)
    quoted = _Memo(encode_basestring_ascii)  # kinds, groups and senses
    names = [encode_basestring_ascii(v.name) for v in model.variables]
    variables = [
        f'  {{\n   "name": {name},\n   "kind": {quoted[v.kind]},\n'
        f'   "lb": {_json_num(v.lb)},\n   "ub": {_json_num(v.ub)}\n  }}'
        for name, v in zip(names, model.variables)]
    objective = [f"  {names[pos]}: {_json_num(coef)}"
                 for pos, coef in sorted(model.objective.items())]
    keys = [f"    {name}: " for name in names]
    constraints = []
    for row in model.constraints:
        # str(c) is int.__repr__(c) for an int, nearly every coefficient
        terms = ",\n".join([keys[pos] + (str(coef) if type(coef) is int else _json_num(coef))
                            for pos, coef in row.coeffs])
        coeffs = "{\n" + terms + "\n   }" if terms else "{}"
        constraints.append(
            f'  {{\n   "name": {encode_basestring_ascii(row.name)},\n'
            f'   "group": {quoted[row.group]},\n   "coeffs": {coeffs},\n'
            f'   "sense": {quoted[row.sense]},\n   "rhs": {_json_num(row.rhs)}\n  }}')
    return (head[:-2] + ',\n "variables": ' + _json_block(variables, "[", " ]")
            + ',\n "objective": ' + _json_block(objective, "{", " }")
            + ',\n "constraints": ' + _json_block(constraints, "[", " ]") + "\n}\n")


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
