"""Solver-agnostic linear integer models.

A :class:`LinearModel` is an ordered collection of typed variables, named
constraint rows grouped into stable families, and a sparse minimization
objective.  Variables are keyed by name: ``model.var(*index)`` finds the
variable named :func:`var_name` of its index, the only naming rule, so
``var("x", 0, 3, 4)`` finds ``x_0_3_4``.  Models are exported to CPLEX-LP,
free MPS or a JSON sidecar; no LP relaxations are solved here.

A model stores columns, not objects.  Variables are four parallel lists
(names, kinds, lower and upper bounds) and a table of positions by name;
no index tuple is kept.  Rows are in compressed sparse row form: names,
groups, senses and right-hand sides per row, each row's end offset, and
one flat list each of term positions and coefficients.
:meth:`LinearModel.add_variables` declares a whole family by name and
:meth:`LinearModel.add_rows` appends many rows at once; ``add_variable``
and ``add_row`` are their one-item cases.  The rows are canonical CSR:
within each row the positions strictly increase.  ``add_rows`` takes only
such rows and rejects any other; ``add_row`` is the one place a row is
sorted by position and a repeated position merged.  Every check runs
before anything is stored, so a rejected call leaves the model as it was.
``model.variables`` and ``model.constraints`` are read-only views that
build :class:`Variable` and :class:`Constraint` named tuples on access;
the writers and the feasibility check read the columns directly.

The writers format each distinct number once per call.  The JSON writer
lays the document out field by field and sends only its small head through
``json.dumps``, yet its bytes are exactly ``json.dumps(doc, indent=1)`` plus
a newline, where ``doc`` holds the same fields as plain dicts and lists.

Feasibility checks and exports are exact, with no tolerances anywhere: they
compute in plain ``int`` arithmetic, and a ``Fraction`` is built only for a
value that is not an ``int``, such as a float objective coefficient at
fractional spacing.  A :class:`VariableAssignment` holds each value as an
``int`` or, when it is not integral, a ``Fraction``; ``set`` is the one
place a value is converted.  Every coefficient, right-hand side and bound
is a finite number.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice, repeat
from json.encoder import encode_basestring_ascii
from math import isfinite
from operator import add, is_not, itemgetter, lt, mul
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .errors import ValidationError

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

LE, EQ, GE = "<=", "=", ">="
_SENSES = frozenset((LE, EQ, GE))
_PLAIN = frozenset((int, float))
_INT_OR_NONE = frozenset((int, type(None)))
_INT = frozenset((int,))
_STR = frozenset((str,))

LP_FORMAT = "lp"
MPS_FORMAT = "mps"
JSON_FORMAT = "json"


def _exact(c):
    """``c`` itself when it is an ``int``, else ``c`` as a ``Fraction``, which
    is exact for every float; an integral value, numpy's too, becomes an ``int``."""
    if type(c) is int:
        return c
    if isinstance(c, float) and c.is_integer():  # numpy's float64 too; int() is exact
        return int(c)
    if type(c) is not Fraction:
        c = Fraction(c)
    return int(c.numerator) if c.denominator == 1 else c


def _is_finite(value) -> bool:
    if isinstance(value, (int, Fraction)):
        return True
    try:
        return isfinite(value)
    except TypeError:  # not a number
        return False


def _nonfinite_at(values) -> Optional[int]:
    """Position of the first value that is not a finite number, or None.
    An infinity or NaN makes the sum infinite or NaN, so a finite sum
    clears every value at once."""
    try:
        total = sum(values)
        if isinstance(total, (int, Fraction)) or isfinite(total):
            return None
    except (OverflowError, TypeError):  # a huge Fraction, or not a number
        pass
    return next((k for k, value in enumerate(values) if not _is_finite(value)), None)


def _require_finite(value, what: str) -> None:
    if not _is_finite(value):
        raise ValidationError(f"{what} is not a finite number: {value!r}")


def _require_finite_coefs(names: list[str], ends: list[int], coefs: list) -> None:
    k = _nonfinite_at(coefs)
    if k is not None:
        raise ValidationError(f"row {names[bisect_right(ends, k)]}: coefficient "
                              f"is not a finite number: {coefs[k]!r}")


_POSITION = itemgetter(0)
_NAME_FORMATS = tuple("_".join(["%s"] * n) for n in range(8))


def var_name(index: tuple) -> str:
    """Name of the variable with this index: its parts joined by ``_``,
    so ``("x", 0, 3, 4)`` is ``x_0_3_4``.  An index has at most 7 parts."""
    return _NAME_FORMATS[len(index)] % index


def _indexed_name(index: tuple) -> str:
    """``var_name(index)``, refused when a text part holds ``_``: then the
    name would not split back into the index, and ``("x", "0_1")`` would
    name ``("x", 0, 1)``'s variable."""
    name = var_name(index)
    # joining adds len(index) - 1 underscores, so any more come from a part
    if name.count("_") != len(index) - 1:
        raise ValidationError(f"variable index {index} has a part containing '_'")
    return name


class Variable(NamedTuple):
    name: str
    kind: str
    lb: float = 0
    ub: Optional[float] = None  # None = +inf (binary gets 1 implicitly)


class Constraint(NamedTuple):
    name: str
    group: str
    coeffs: tuple[tuple[int, float], ...]  # (variable position, coefficient)
    sense: str
    rhs: float


class _View(Sequence):
    """A read-only sequence over a model's columns, however many there are
    when it is read; items are built on access."""

    __slots__ = ("_model",)
    __hash__ = None

    def __init__(self, model: "LinearModel"):
        self._model = model

    def __len__(self) -> int:
        return self._count()

    def __getitem__(self, key):
        if isinstance(key, slice):
            return [self._item(i) for i in range(self._count())[key]]
        return self._item(range(self._count())[key])

    def __iter__(self):
        return map(self._item, range(self._count()))

    def __eq__(self, other):
        if isinstance(other, _View):
            other = list(other)
        return list(self) == other


class VariableView(_View):
    """``model.variables``: each variable as a :class:`Variable`."""

    __slots__ = ()

    def _count(self) -> int:
        return len(self._model._names)

    def _item(self, pos: int) -> Variable:
        m = self._model
        return Variable(m._names[pos], m._kinds[pos], m._lbs[pos], m._ubs[pos])


class ConstraintView(_View):
    """``model.constraints``: each row as a :class:`Constraint`."""

    __slots__ = ()

    def _count(self) -> int:
        return len(self._model._row_names)

    def _item(self, row: int) -> Constraint:
        return self._model._row(row)


class LinearModel:
    """Ordered variables + grouped rows + minimize objective, stored as columns."""

    def __init__(self, name: str, kind: Optional[str] = None, meta: Optional[dict] = None):
        self.name = name
        self.kind = kind
        self.meta = dict(meta or {})
        # variable columns, by position
        self._names: list[str] = []
        self._kinds: list[str] = []
        self._lbs: list = []
        self._ubs: list = []
        self._by_name: dict[str, int] = {}
        # row columns; row i's terms are _positions and _coefs over
        # [_row_ends[i - 1], _row_ends[i]), from 0 for the first row
        self._row_names: list[str] = []
        self._groups: list[str] = []
        self._senses: list[str] = []
        self._rhs: list = []
        self._row_ends: list[int] = []
        self._positions: list[int] = []
        self._coefs: list = []
        self._row_name_set: set[str] = set()
        self._group_rows: dict[str, int] = {}  # rows per group, in order of first row
        self.objective: dict[int, float] = {}
        self.lazy_groups: dict[str, str] = {}  # group name -> short description

    @property
    def variables(self) -> VariableView:
        return VariableView(self)

    @property
    def constraints(self) -> ConstraintView:
        return ConstraintView(self)

    # -- construction ----------------------------------------------------

    def add_variables(self, kind: str, names: Iterable[str], lb=0, ub=None) -> int:
        """Declare one variable per name, all of one kind and with the same
        bounds, and return the position of the first.  Names are unique
        within a model; :meth:`var` finds a variable named by
        :func:`var_name`."""
        names = list(names)
        _require_finite(lb, "variable lower bound")
        if ub is not None:
            _require_finite(ub, "variable upper bound")
        if not _STR.issuperset(map(type, names)):
            bad = next(name for name in names if type(name) is not str)
            raise ValidationError(f"variable name {bad!r} is not a str")
        first = len(self._names)
        positions = dict(zip(names, range(first, first + len(names))))
        if len(positions) < len(names) or not self._by_name.keys().isdisjoint(positions):
            seen = set(self._by_name)
            bad = next(name for name in names if name in seen or seen.add(name))
            raise ValidationError(f"duplicate variable name {bad}")
        if kind == BINARY:
            ub = 1
        self._by_name.update(positions)
        self._names += names
        self._kinds += [kind] * len(names)
        self._lbs += [lb] * len(names)
        self._ubs += [ub] * len(names)
        return first

    def add_variable(self, kind: str, index: tuple, lb=0, ub=None) -> int:
        """Declare a variable; its name is ``var_name(index)``, and a text
        part of ``index`` may not contain ``_``."""
        return self.add_variables(kind, [_indexed_name(index)], lb, ub)

    def var(self, *index) -> int:
        """Position of the variable named ``var_name(index)``."""
        try:
            return self._by_name[_indexed_name(index)]
        except KeyError:
            raise ValidationError(f"undeclared variable index {index}") from None

    def has_var(self, *index) -> bool:
        return _indexed_name(index) in self._by_name

    def var_name(self, pos: int) -> str:
        return self._names[pos]

    def variable_names(self) -> list[str]:
        """Every variable's name, by position."""
        return list(self._names)

    def add_rows(self, names: list[str], groups: list[str], senses: list[str], rhs: list,
                 ends: list[int], positions: list[int], coefs: list) -> int:
        """Append canonical rows given as columns and return the index of the
        first.

        Row ``i`` is named ``names[i]`` and has the terms ``positions[k]``,
        ``coefs[k]`` for ``k`` from ``ends[i - 1]`` (0 for the first row) up
        to ``ends[i]``.  Within a row the positions must strictly increase;
        :meth:`add_row` sorts and merges a row that is not yet canonical.
        """
        n = len(names)
        if not (len(groups) == len(senses) == len(rhs) == len(ends) == n):
            raise ValidationError("row columns differ in length")
        if len(positions) != len(coefs) or (ends[-1] if ends else 0) != len(positions) \
                or (ends and ends[0] < 0) or sorted(ends) != list(ends):
            raise ValidationError("row ends do not fit the terms")
        if not _SENSES.issuperset(senses):
            bad = next(sense for sense in senses if sense not in _SENSES)
            raise ValidationError(f"bad sense {bad!r}")
        new_names = set(names)
        if len(new_names) < n or not self._row_name_set.isdisjoint(new_names):
            seen = set(self._row_name_set)
            bad = next(name for name in names if name in seen or seen.add(name))
            raise ValidationError(f"duplicate row name {bad}")
        declared = len(self._names)
        if positions and (min(positions) < 0 or max(positions) >= declared):
            k = next(k for k, pos in enumerate(positions) if not 0 <= pos < declared)
            raise ValidationError(f"row {names[bisect_right(ends, k)]}: variable position "
                                  f"{positions[k]} not declared")
        # one pass over neighbouring terms; a row's last term need not
        # precede the next row's first
        ascending = list(map(lt, positions, islice(positions, 1, None)))
        ascending.append(True)
        for end in ends:
            ascending[end - 1] = True
        if False in ascending:
            k = ascending.index(False)
            raise ValidationError(f"row {names[bisect_right(ends, k)]}: term positions do not "
                                  f"strictly increase ({positions[k]} then {positions[k + 1]})")
        _require_finite_coefs(names, ends, coefs)
        k = _nonfinite_at(rhs)
        if k is not None:
            raise ValidationError(f"row {names[k]}: right-hand side "
                                  f"is not a finite number: {rhs[k]!r}")

        first = len(self._row_names)
        offset = len(self._positions)
        self._row_names += names
        self._row_name_set |= new_names
        self._groups += groups
        self._senses += senses
        self._rhs += rhs
        self._row_ends += map(add, ends, repeat(offset))
        self._positions += positions
        self._coefs += coefs
        counts = self._group_rows
        for group, rows in Counter(groups).items():  # in order of first row
            counts[group] = counts.get(group, 0) + rows
        return first

    def add_row(self, name: str, group: str, coeffs: Iterable[tuple[int, float]],
                sense: str, rhs) -> Constraint:
        """Append one row of ``(position, coefficient)`` terms and return it.

        This is where a row is made canonical: its terms are sorted by
        position, and the coefficients of a repeated position are summed in
        input order; a term summing to zero is kept.  The row is then checked
        and stored by :meth:`add_rows`.
        """
        terms = sorted(coeffs, key=_POSITION)
        if len(dict(terms)) < len(terms):
            _require_finite_coefs([name], [len(terms)], [coef for _, coef in terms])
            merged: dict[int, float] = {}
            for pos, coef in terms:
                merged[pos] = merged.get(pos, 0) + coef
            terms = merged.items()
        return self._row(self.add_rows([name], [group], [sense], [rhs], [len(terms)],
                                       [pos for pos, _ in terms], [coef for _, coef in terms]))

    def _row(self, row: int) -> Constraint:
        start, end = (self._row_ends[row - 1] if row else 0), self._row_ends[row]
        return Constraint(self._row_names[row], self._groups[row],
                          tuple(zip(self._positions[start:end], self._coefs[start:end])),
                          self._senses[row], self._rhs[row])

    def declare_lazy_group(self, group: str, description: str) -> None:
        self.lazy_groups[group] = description

    def set_objective_coeffs(self, positions: Iterable[int], coefs: Iterable) -> None:
        """Add each coefficient to its position's objective coefficient; a
        zero adds no term.  A position is an ``int`` of a declared variable."""
        positions, coefs = list(positions), list(coefs)
        declared = len(self._names)
        if positions and (not _INT.issuperset(map(type, positions))
                          or min(positions) < 0 or max(positions) >= declared):
            bad = next(pos for pos in positions if type(pos) is not int or not 0 <= pos < declared)
            raise ValidationError(f"objective position {bad!r} is not a declared variable position")
        k = _nonfinite_at(coefs)
        if k is not None:
            raise ValidationError(f"objective coefficient at position {positions[k]} "
                                  f"is not a finite number: {coefs[k]!r}")
        objective = self.objective
        for pos, coef in compress(zip(positions, coefs), coefs):
            objective[pos] = objective.get(pos, 0) + coef

    def set_objective_coeff(self, pos: int, coef) -> None:
        self.set_objective_coeffs([pos], [coef])

    # -- inspection --------------------------------------------------------

    def group_counts(self) -> dict[str, int]:
        """Rows per group, in order of each group's first row, then every
        lazy group with no row."""
        counts = dict(self._group_rows)
        for group in self.lazy_groups:
            counts.setdefault(group, 0)
        return counts

    def rows_in_group(self, group: str) -> list[Constraint]:
        return [self._row(i) for i, g in enumerate(self._groups) if g == group]

    def variable_counts(self) -> dict[str, int]:
        """Variables per family, the part of a name before its first ``_``."""
        return dict(Counter(name.partition("_")[0] for name in self._names))

    def objective_value(self, values: dict) -> Fraction:
        """The objective at exact values by name, such as a
        :class:`VariableAssignment`'s ``values``."""
        total = 0
        for pos, coef in sorted(self.objective.items()):
            val = values.get(self._names[pos])
            if val:
                total += _exact(coef) * val
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
    """Mapping from declared variable names to exact values: an ``int`` for
    an integral value, else a ``Fraction``."""

    def __init__(self, values: Optional[dict] = None):
        self.values: dict[str, int | Fraction] = {}
        for name, val in (values or {}).items():
            self.set(name, val)

    def set(self, name: str, value) -> None:
        """Store ``value`` exactly; the one place a value is normalised.
        Text is not a number, though ``Fraction`` would parse it: a ``str``
        or ``bytes`` value raises ``TypeError``, and a value ``Fraction``
        cannot take raises its ``TypeError`` or ``ValueError``."""
        if isinstance(value, (str, bytes)):
            raise TypeError(f"{value!r} is text, not a number")
        self.values[name] = _exact(value)

    def get(self, name: str) -> int | Fraction:
        return self.values.get(name, 0)

    def is_integral(self) -> bool:
        return Fraction not in map(type, self.values.values())

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

    # the assignment by variable position; its values are exact, and
    # comparing an int, float or Fraction is exact
    names = model._names
    x = [0] * len(names)
    given = list(map(values.get, names))
    for pos in compress(range(len(names)), map(is_not, given, repeat(None))):
        val = x[pos] = given[pos]
        name, lb, ub = names[pos], model._lbs[pos], model._ubs[pos]
        if model._kinds[pos] in (BINARY, INTEGER) and type(val) is not int:
            note(f"domain({name})", "domain", val, EQ, 0)
        if val < lb:
            note(f"bound({name})", "domain", val, GE, lb)
        if ub is not None and val > ub:
            note(f"bound({name})", "domain", val, LE, ub)

    # every row's left-hand side as a difference of prefix sums over all
    # terms; a float coefficient makes the sums floats, so they are summed
    # again with every coefficient exact
    positions = model._positions
    prefix = list(accumulate(map(mul, model._coefs, map(x.__getitem__, positions)), initial=0))
    if type(prefix[-1]) not in (int, Fraction):
        prefix = list(accumulate(map(mul, map(_exact, model._coefs),
                                     map(x.__getitem__, positions)), initial=0))
    before = 0
    for row, end, sense, rhs in zip(count(), model._row_ends, model._senses, model._rhs):
        lhs = prefix[end] - before
        before = prefix[end]
        if not (lhs <= rhs if sense == LE else lhs >= rhs if sense == GE else lhs == rhs):
            note(model._row_names[row], model._groups[row], lhs, sense, rhs)

    return FeasibilityReport(not violated, tuple(violations), len(model._row_names))


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


def _row_spans(model: LinearModel):
    """Each row's first term and the end of its terms, by row."""
    ends = model._row_ends
    return zip(chain((0,), ends), ends)


def write_lp(model: LinearModel) -> str:
    names = model._names
    signs = _Memo(_lp_sign)
    nums = _Memo(_num)
    out = [f"\\ {model.name}"]
    out.append("Minimize")
    obj = sorted(model.objective.items())
    out.extend(_wrap(" obj:", _lp_terms(obj, names, signs)))
    out.append("Subject To")
    # every term's text in one pass over the columns, then each row's first
    # term without its "+ "
    terms = list(map(add, map(signs.__getitem__, model._coefs),
                     map(names.__getitem__, model._positions)))
    ends = model._row_ends
    starts = [0, *ends][:-1]
    for k in compress(starts, map(lt, starts, ends)):
        if terms[k][0] == "+":
            terms[k] = terms[k][2:]
    bodies = map(" ".join, map(terms.__getitem__, map(slice, starts, ends)))
    for name, start, end, body, sense, rhs in zip(model._row_names, starts, ends, bodies,
                                                  model._senses, map(nums.__getitem__, model._rhs)):
        if 0 < end - start <= 8:
            out.append(f" {name}: {body} {sense} {rhs}")
        else:  # no term, or one line per 8 terms
            lines = _wrap(f" {name}:", terms[start:end])
            lines[-1] += f" {sense} {rhs}"
            out += lines
    bounds = []
    for name, kind, lb, ub in zip(names, model._kinds, model._lbs, model._ubs):
        if kind != BINARY and (_exact(lb) != 0 or ub is not None):
            hi = "+inf" if ub is None else nums[ub]
            bounds.append(f" {nums[lb]} <= {name} <= {hi}")
    if bounds:
        out.append("Bounds")
        out.extend(bounds)
    binaries = [name for name, kind in zip(names, model._kinds) if kind == BINARY]
    if binaries:
        out.append("Binaries")
        out.extend(_wrap(" ", binaries))
    generals = [name for name, kind in zip(names, model._kinds) if kind == INTEGER]
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
    out += [f" {sense_tag[sense]}  {name}" for sense, name in zip(model._senses, model._row_names)]

    # column-major entries: the column's padded name, each row's padded
    # name and the coefficient
    columns = [f"    {name:<10}  " for name in model._names]
    col_entries: list[list[str]] = [[] for _ in model._names]
    for pos, coef in sorted(model.objective.items()):
        col_entries[pos].append(f"{columns[pos]}{'COST':<10}  {nums[coef]}")
    labels = [f"{name:<10}  " for name in model._row_names]
    term_labels = chain.from_iterable(map(repeat, labels, (end - start for start, end
                                                             in _row_spans(model))))
    lines = map(add, map(add, map(columns.__getitem__, model._positions), term_labels),
                map(nums.__getitem__, model._coefs))
    for pos, line in zip(model._positions, lines):
        col_entries[pos].append(line)

    out.append("COLUMNS")
    integer_open = False
    marker = 0
    for kind, entries in zip(model._kinds, col_entries):
        is_int = kind in (BINARY, INTEGER)
        if is_int and not integer_open:
            out.append(f"    MARKER{marker:04d}  'MARKER'                 'INTORG'")
            marker += 1
            integer_open = True
        if not is_int and integer_open:
            out.append(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'")
            marker += 1
            integer_open = False
        out += entries
    if integer_open:
        out.append(f"    MARKER{marker:04d}  'MARKER'                 'INTEND'")

    out.append("RHS")
    for name, rhs in zip(model._row_names, model._rhs):
        if _exact(rhs) != 0:
            out.append(f"    RHS         {name:<10}  {nums[rhs]}")
    out.append("BOUNDS")
    for name, kind, lb, ub in zip(model._names, model._kinds, model._lbs, model._ubs):
        if kind == BINARY:
            out.append(f" BV BND         {name}")
        else:
            if _exact(lb) != 0:
                out.append(f" LO BND         {name}  {nums[lb]}")
            if ub is not None:
                out.append(f" UP BND         {name}  {nums[ub]}")
    out.append("ENDATA")
    return "\n".join(out) + "\n"


FORMAT_MODEL = "pickopt-model-v1"


def _json_num(x) -> str:
    """A number, or ``None``, as ``json.dumps`` writes it; any other exact
    number, such as a ``Fraction``, as ``_num`` writes it.  Every number a
    model holds is finite."""
    if type(x) is int:
        return int.__repr__(x)
    if type(x) is float:
        return float.__repr__(x)
    return "null" if x is None else _num(x)


def _json_texts(values: list):
    """Each value as ``_json_num`` writes it.  When every value is an int or
    None, equal values print alike, so each distinct value is formatted once."""
    if _INT_OR_NONE.issuperset(map(type, values)):
        return map(_Memo(_json_num).__getitem__, values)
    return map(_json_num, values)


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
    names = list(map(encode_basestring_ascii, model._names))
    variables = [
        f'  {{\n   "name": {name},\n   "kind": {quoted[kind]},\n'
        f'   "lb": {lb},\n   "ub": {ub}\n  }}'
        for name, kind, lb, ub in zip(names, model._kinds, _json_texts(model._lbs),
                                      _json_texts(model._ubs))]
    objective = [f"  {names[pos]}: {_json_num(coef)}"
                 for pos, coef in sorted(model.objective.items())]
    keys = [f"    {name}: " for name in names]
    coefs = model._coefs
    # str is int.__repr__ on an int and float.__repr__ on a float, as json
    # writes them; every coefficient is finite
    coef_texts = map(str if _PLAIN.issuperset(map(type, coefs)) else _json_num, coefs)
    terms = list(map(add, map(keys.__getitem__, model._positions), coef_texts))
    constraints = []
    for name, group, (start, end), sense, rhs in zip(model._row_names, model._groups,
                                                     _row_spans(model), model._senses,
                                                     _json_texts(model._rhs)):
        coeffs = "{\n" + ",\n".join(terms[start:end]) + "\n   }" if end > start else "{}"
        constraints.append(
            f'  {{\n   "name": {encode_basestring_ascii(name)},\n'
            f'   "group": {quoted[group]},\n   "coeffs": {coeffs},\n'
            f'   "sense": {quoted[sense]},\n   "rhs": {rhs}\n  }}')
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
