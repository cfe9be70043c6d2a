"""Solver-agnostic linear integer models.

A :class:`LinearModel` is an ordered collection of typed variables, named
constraint rows grouped into stable families, and a sparse minimization
objective.  Variables are keyed by name: ``model.var(*index)`` finds the
variable named :func:`var_name` of its index, the only naming rule, so
``var("x", 0, 3, 4)`` finds ``x_0_3_4``.  Models are exported to CPLEX-LP,
free MPS or a JSON sidecar; no LP relaxations are solved here.

A model stores columns, not objects.  Variables are four parallel lists
(names, kinds, lower and upper bounds) and a table of positions by name,
filled from the first variable not in it by the first lookup that misses.
:meth:`LinearModel.add_variables` declares variables by their names, and
:meth:`LinearModel.add_variable_copies` families (:class:`VariableFamily`)
for each of several copies (a picker's, in the formulations): copy t of
entry k is named ``heads[k] + str(t) + tails[k]``, copies side by side or
interleaved.  A binary variable's bounds are 0 and 1.  Rows have one way
in, :meth:`LinearModel.add_row_blocks`, which takes blocks of canonical
rows (:class:`RowBlock`), each stored once or with copy 0 standing for
every copy; ``add_rows`` adds one block stored once, and ``add_row`` one
row, the one place a row is sorted and a repeated position merged.  The
model keeps copy 0's rows in compressed sparse row form (names split in
heads and tails, groups, senses, right-hand sides and end offsets per row,
and term positions, shifts and coefficients) and each block's rows and
copies; a run of blocks of one copy each is one segment.

A copy's number must read back from its name: among the copied names of a
namespace no head is a proper prefix of another and no tail starts with an
ASCII digit (:mod:`pickopt.naming`).  Each check runs where what it reads
is known.  A block or family checks all that depends on it alone when it
is made, and cannot change after: numbers, ends, senses and its names by
themselves; so a formulation's blocks kept with a graph are checked once
per graph.  ``add_row_blocks`` and ``add_variable_copies`` check what
depends on the model, the copies and the bases, for every copy before
anything is stored, so a rejected call leaves the model as it was: names
against each other and the namespace, families and bases, and positions
on copy 0 and the last copy, which bound every copy between, since a
term's position is linear in the copy.

``model.variables`` and ``model.constraints`` are read-only views that
build :class:`Variable` and :class:`Constraint` named tuples on access.
The feasibility check sums copy 0's terms once per copy, each read at its
position in copy t.  The writers write copy 0's rows once, with a NUL where
a copy's number goes, and each copy by putting its number there;
``write_mps`` writes so the columns of a family that only moving terms
touch and the bounds of a family side by side.  So no name part may hold a
NUL, and no row may be named ``COST`` or ``obj``, the objective's names in
MPS and LP.  A block of one copy is stored under its rows' full names, copy
0's names, which it keeps; when no block has more than one copy the writers
take copy 0's texts as they are (``_copied``).  The writers format each
distinct number once per call, and the JSON writer's bytes are exactly
``json.dumps(doc, indent=1)`` plus a newline.

Feasibility checks and exports are exact, with no tolerances anywhere: they
compute in plain ``int`` arithmetic, and a ``Fraction`` is built only for a
value that is not an ``int``.  A :class:`VariableAssignment` holds each
value as an ``int`` or, when it is not integral, a ``Fraction``; ``set`` is
the one place a value is converted.  Every coefficient, right-hand side and
bound is a finite number.
"""

from __future__ import annotations

import json
from bisect import bisect_left, bisect_right
from collections import Counter, namedtuple
from collections.abc import Sequence
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, compress, count, islice, repeat
from json.encoder import encode_basestring_ascii
from math import inf, isfinite
from numbers import Integral
from operator import add, ge, is_not, itemgetter, lt, methodcaller, mul, ne, not_, sub
from pathlib import Path
from typing import Iterable, NamedTuple, Optional

from .errors import ValidationError
from .naming import COPY as _COPY, Namespace, parts

BINARY = "binary"
INTEGER = "integer"
CONTINUOUS = "continuous"

LE, EQ, GE = "<=", "=", ">="
_SENSES = frozenset((LE, EQ, GE))
_INTEGRAL = frozenset((BINARY, INTEGER))
_PLAIN = frozenset((int, float))
_INT_OR_NONE = frozenset((int, type(None)))
_INT = frozenset((int,))
# the objective's row in MPS and its label in LP, which no row may take
_OBJECTIVE_NAMES = frozenset(("COST", "obj"))

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
    if isinstance(c, Integral):  # numpy's integers too
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
        if type(total) is int or isinstance(total, Fraction) or isfinite(total):
            return None
    except (OverflowError, TypeError):  # a huge Fraction, or not a number
        pass
    return next((k for k, value in enumerate(values) if not _is_finite(value)), None)


def _not_int_at(values) -> Optional[int]:
    """Position of the first value that is not an ``int`` (a ``bool`` is not), or None."""
    if _INT.issuperset(map(type, values)):
        return None
    return next(k for k, value in enumerate(values) if type(value) is not int)


def _require_finite(value, what: str) -> None:
    if not _is_finite(value):
        raise ValidationError(f"{what} is not a finite number: {value!r}")


def _descent(ends: list[int], positions: list[int]) -> Optional[int]:
    """The first term whose position does not precede the next term's in its
    row, or None.  A fall from one term to the next is no descent where the
    next term begins a row, at one of ``ends``."""
    falls = set(compress(range(1, len(positions)),
                         map(ge, positions, islice(positions, 1, None))))
    falls.difference_update(ends)
    return min(falls) - 1 if falls else None


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
    name = _NAME_FORMATS[len(index)] % index  # var_name(index), without a call
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
        return self._model._n_rows

    def _item(self, row: int) -> Constraint:
        return self._model._row(row)


class _Family(NamedTuple):
    """Variables declared for every copy: copy t of entry k sits at ``first
    + k * step + t * stride`` and is named ``heads[k] + str(t) + tails[k]``."""

    first: int
    step: int
    stride: int
    copies: int
    heads: list
    tails: list

    def names(self, number: str) -> list[str]:
        """Copy 0's names with ``number`` where the copy's number goes."""
        return list(map(number.join, zip(self.heads, self.tails)))


# family 0: every variable that is not copy 0 of a family; it is the same
# variable in every copy of a row block
_NO_FAMILY = _Family(0, 0, 0, inf, [], [])

class _BlockSlots:  # a RowBlock's slots, which it fills once
    __slots__ = ("heads", "tails", "groups", "senses", "rhs", "ends", "families", "offsets",
                 "coefs", "names", "distinct", "numbered", "counts", "__weakref__")


class RowBlock(_BlockSlots):
    """Rows as :meth:`LinearModel.add_row_blocks` takes them: names, split
    in ``heads[i]`` and ``tails[i]`` where a copy's number goes (tails None
    for a block stored once), groups, senses, right-hand sides, each row's
    end offset, and each term's family, offset and coefficient, the term
    being on the variable at its family's base plus its offset.  It checks,
    when made, all that depends on it alone: columns of one length, ``int``
    ends rising from 0 to its terms, ``int`` offsets and families (none
    negative), senses, finite numbers and its names by themselves.  It keeps
    them as tuples, with what :func:`~pickopt.naming.parts` gives and each
    group's rows, and cannot change."""

    __slots__ = ()

    def __new__(cls, heads, tails, groups, senses, rhs, ends, families, offsets, coefs):
        columns = (tuple(heads), None if tails is None else tuple(tails), tuple(groups),
                   tuple(senses), tuple(rhs), tuple(ends), tuple(families), tuple(offsets),
                   tuple(coefs))
        heads, tails, groups, senses, rhs, ends, families, offsets, coefs = columns
        n, terms = len(heads), len(offsets)
        if not len(groups) == len(senses) == len(rhs) == len(ends) == n \
                or not (tails is None or len(tails) == n):
            raise ValidationError("row columns differ in length")
        if not len(families) == len(coefs) == terms or (ends[-1] if n else 0) != terms:
            raise ValidationError("row ends do not fit the terms")
        names, distinct, numbered = parts("row", heads, tails, _OBJECTIVE_NAMES)
        if not _INT.issuperset(map(type, ends + offsets)):
            k = _not_int_at(ends)
            if k is not None:
                raise ValidationError(f"row {names[k]}: row end {ends[k]!r} is not an int")
            k = _not_int_at(offsets)
            raise ValidationError(f"row {names[bisect_right(ends, k)]}: variable "
                                  f"position {offsets[k]!r} is not an int")
        used = set(families)  # a family equal to an int one is that one
        if not _INT.issuperset(map(type, used)) or (used and min(used) < 0):
            raise ValidationError("a term's family has no base")
        if (ends and ends[0] < 0) or tuple(sorted(ends)) != ends:
            raise ValidationError("row ends do not fit the terms")
        if not _SENSES.issuperset(senses):
            bad = next(sense for sense in senses if sense not in _SENSES)
            raise ValidationError(f"bad sense {bad!r}")
        k = _nonfinite_at(coefs + rhs)
        if k is not None:
            row, what, value = (bisect_right(ends, k), "coefficient", coefs[k]) if k < terms \
                else (k - terms, "right-hand side", rhs[k - terms])
            raise ValidationError(f"row {names[row]}: {what} is not a finite number: {value!r}")
        block = object.__new__(_BlockSlots)  # then made a RowBlock, which refuses changes
        block.heads, block.tails, block.groups, block.senses, block.rhs, block.ends, \
            block.families, block.offsets, block.coefs = columns
        block.names, block.distinct, block.numbered = names, distinct, numbered
        distinct = tuple(dict.fromkeys(groups)) if n and groups.count(groups[0]) < n else groups[:1]
        block.counts = tuple(zip(distinct, map(groups.count, distinct)))
        block.__class__ = cls
        return block

    def __setattr__(self, name, value=None):
        raise AttributeError(f"a RowBlock is checked when made and cannot change: {name}")

    __delattr__ = __setattr__


class VariableFamily(namedtuple("VariableFamily",
                                "heads tails interleaved names distinct numbered")):
    """A family of variables as :meth:`LinearModel.add_variable_copies`
    takes it, made from ``(heads, tails, interleaved)``: copy t of entry k
    is named ``heads[k] + str(t) + tails[k]``, the copies side by side or
    interleaved.  It checks its names by themselves when it is made, and
    keeps what :func:`~pickopt.naming.parts` gives."""

    __slots__ = ()

    def __new__(cls, heads, tails, interleaved: bool):
        if isinstance(heads, str) or isinstance(tails, str):
            raise ValidationError("variable name heads and tails are lists, not one str")
        heads, tails = tuple(heads), tuple(tails)
        if len(heads) != len(tails):
            raise ValidationError("variable name heads and tails differ in length")
        return tuple.__new__(cls, (heads, tails, bool(interleaved),
                                   *parts("variable", heads, tails)))

    _make = classmethod(lambda cls, iterable: cls(*tuple(iterable)[:3]))  # and so _replace


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
        self._variable_names = Namespace("variable")
        # positions by name, in position order: each variable from the first
        # not in it on, filled by the first lookup that misses
        self._lookup: dict[str, int] = {}
        # the families declared for every copy, after family 0
        self._families: list[_Family] = [_NO_FAMILY]
        # copy 0's rows: row i's terms are _positions, _shifts and _coefs over
        # [_ends[i - 1], _ends[i]), from 0 for the first row; copy t of row i
        # is named _heads[i] + str(t) + _tails[i], or _heads[i] if its tail is
        # None, which marks a row of a block of one copy
        self._heads: list[str] = []
        self._tails: list[Optional[str]] = []
        self._groups: list[str] = []
        self._senses: list[str] = []
        self._rhs: list = []
        self._ends: list[int] = []
        self._positions: list[int] = []
        self._shifts: list[int] = []
        self._coefs: list = []
        # each block's copy-0 rows [start, stop) and copies, in row order, and
        # its first row among every copy's rows; a run of blocks of one copy
        # each, such as blocks stored once, is one segment
        self._segments: list[tuple[int, int, int]] = []
        self._segment_starts: list[int] = []
        self._n_rows = 0
        self._row_names = Namespace("row")
        self._group_rows: Counter[str] = Counter()  # rows per group, in order of first row
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
        within a model and hold no NUL; :meth:`var` finds a variable named
        by :func:`var_name`."""
        names = list(names)
        return self._declare(kind, names, lb, ub, [parts("variable", names, None)[0]], [], 1)

    def _declare(self, kind: str, names: list[str], lb, ub, full: list, copied: list,
                 copies: int) -> int:
        """Declare variables named ``names``: the ``full`` and ``copied``
        names :meth:`~pickopt.naming.Namespace.check` takes."""
        _require_finite(lb, "variable lower bound")
        if ub is not None:
            _require_finite(ub, "variable upper bound")
        if kind == BINARY and (lb != 0 or ub not in (None, 1)):
            raise ValidationError(f"binary variable bounds are 0 and 1, not {lb!r} and {ub!r}")
        if ub is not None and lb > ub:
            raise ValidationError(f"variable lower bound {lb!r} is above its upper bound {ub!r}")
        ub = 1 if kind == BINARY else ub
        checked = self._variable_names.check(full, copied, copies)
        first = len(self._names)
        self._variable_names.add(*checked)
        self._names += names
        self._kinds += [kind] * len(names)
        self._lbs += [lb] * len(names)
        self._ubs += [ub] * len(names)
        return first

    def add_variable_copies(self, kind: str, families: Iterable, copies: int) -> list[int]:
        """Declare families of variables, with bounds 0 and none, for each of
        ``copies`` copies, one family after another, and return the position
        of each one's first.  A family is a :class:`VariableFamily`, or the
        ``(heads, tails, interleaved)`` that makes one.  Its copies sit one
        after another, copy t of entry k at ``first + t * len(tails) + k``,
        or, ``interleaved``, at ``first + k * copies + t``; a row term on
        copy 0 of one moves with the copy.  With more than one copy, the
        model's families' names keep the naming rule."""
        if type(copies) is not int or copies < 1:
            raise ValidationError(f"a variable family needs one copy or more, not {copies!r}")
        families = [family if type(family) is VariableFamily else VariableFamily(*family)
                    for family in families]
        numbers = list(map(str, range(copies)))
        names: list[str] = []
        declared = []
        for family in families:
            first, n = len(self._names) + len(names), len(family.tails)
            if family.interleaved:
                names += [t.join(pair) for pair in zip(family.heads, family.tails) for t in numbers]
            else:
                names += family.names  # copy 0's, joined once
                for number in numbers[1:]:
                    names += map(number.join, zip(family.heads, family.tails))
            step, stride = (copies, 1) if family.interleaved else (1, n)
            declared.append(_Family(first, step, stride, copies, family.heads, family.tails))
        # with one copy, the names are full names
        self._declare(kind, names, 0, None, [] if copies > 1 else [f.names for f in families],
                      families if copies > 1 else [], copies)
        self._families += declared
        return [family.first for family in declared]

    def add_variable(self, kind: str, index: tuple, lb=0, ub=None) -> int:
        """Declare a variable; its name is ``var_name(index)``, and a text
        part of ``index`` may not contain ``_``."""
        return self.add_variables(kind, [_indexed_name(index)], lb, ub)

    def _filled(self) -> dict[str, int]:
        """The table of positions by name, with every variable in it."""
        lookup = self._lookup
        if len(lookup) < len(self._names):
            lookup.update(zip(islice(self._names, len(lookup), None), count(len(lookup))))
        return lookup

    def var(self, *index) -> int:
        """Position of the variable named ``var_name(index)``."""
        name = _indexed_name(index)
        try:
            return self._lookup[name]
        except KeyError:
            pos = self._filled().get(name)
        if pos is None:
            raise ValidationError(f"undeclared variable index {index}")
        return pos

    def has_var(self, *index) -> bool:
        name = _indexed_name(index)
        return name in self._lookup or name in self._filled()

    def var_name(self, pos: int) -> str:
        return self._names[pos]

    def variable_names(self) -> list[str]:
        """Every variable's name, by position."""
        return list(self._names)

    def add_rows(self, names: list[str], groups: list[str], senses: list[str], rhs: list,
                 ends: list[int], positions: list[int], coefs: list) -> int:
        """Append canonical rows given as columns, stored once, and return the
        index of the first.  Row ``i`` is named ``names[i]`` and has the terms
        ``positions[k]``, ``coefs[k]`` for ``k`` from ``ends[i - 1]`` (0 for
        the first row) up to ``ends[i]``, the positions strictly increasing;
        :meth:`add_row` sorts and merges a row that is not yet canonical."""
        return self.add_row_blocks([RowBlock(names, None, groups, senses, rhs, ends,
                                             [0] * len(positions), positions, coefs)], 1, (0,))

    def add_row_blocks(self, blocks: Iterable[RowBlock], copies: int,
                       bases: Sequence[int]) -> int:
        """Append blocks of canonical rows and return the index of the first
        row; every copy of every block is checked before any is stored.

        A term of a block is on the variable at ``bases[family] + offset``,
        bases being ``int``.  A block whose tails are None is stored once;
        any other gives ``copies`` copies, one after another, copy t of row
        i named ``heads[i] + str(t) + tails[i]``, with a term on copy 0 of a
        variable of :meth:`add_variable_copies` on its copy t, which must
        exist.  A block checked itself when made; this checks what depends
        on the model, the copies and the bases, the naming rule among them.
        """
        if type(copies) is not int or copies < 1:
            raise ValidationError(f"a row block needs one copy or more, not {copies!r}")
        if not _INT.issuperset(map(type, bases)):
            raise ValidationError(f"family base {bases[_not_int_at(bases)]!r} is not an int")
        # copy 0's rows of every block, and each block's copies and first
        # term; with one copy, every block is stored once, under full names
        heads, tails, groups, senses, rhs, ends, positions, coefs = [], [], [], [], [], [], [], []
        full, copied, placed = [], [], []
        for block in blocks:
            n_copies = 1 if block.tails is None else copies
            if n_copies == 1:
                full.append(block.names)
            else:
                copied.append(block)
            heads += block.heads if n_copies > 1 else block.names
            tails += block.tails if n_copies > 1 else repeat(None, len(block.heads))
            placed.append((n_copies, len(positions), block))
            groups += block.groups
            senses += block.senses
            rhs += block.rhs
            ends += map(add, block.ends, repeat(len(positions)))
            try:
                positions += map(add, map(bases.__getitem__, block.families), block.offsets)
            except IndexError:
                raise ValidationError("a term's family has no base") from None
            coefs += block.coefs
        checked = self._row_names.check(full, copied, copies)

        def row_name(term: int, t: int = 0) -> str:
            row = bisect_right(ends, term)
            return heads[row] if tails[row] is None else heads[row] + str(t) + tails[row]

        declared = len(self._names)
        if positions and (min(positions) < 0 or max(positions) >= declared):
            k = next(k for k, pos in enumerate(positions) if not 0 <= pos < declared)
            raise ValidationError(f"row {row_name(k)}: variable position {positions[k]} "
                                  f"not declared")
        k = _descent(ends, positions)
        if k is not None:
            raise ValidationError(f"row {row_name(k)}: term positions do not strictly "
                                  f"increase ({positions[k]} then {positions[k + 1]})")
        shifts = [0] * len(positions)
        if copied:
            # a term moves by its family's stride in each copy, so its
            # positions are linear in the copy: copy 0 and the last copy bound
            # every copy between
            family_at = [0] * declared  # each copy-0 position's family
            for k, family in enumerate(self._families[1:], 1):
                end = family.first + len(family.tails) * family.step
                family_at[family.first:end:family.step] = repeat(k, len(family.tails))
            at = list(map(family_at.__getitem__, positions))
            for n_copies, first, block in placed:  # a block stored once stays put
                if n_copies == 1:
                    at[first:first + len(block.offsets)] = repeat(0, len(block.offsets))
            short = [family.copies < copies for family in self._families]
            if True in short and True in map(short.__getitem__, at):
                k = list(map(short.__getitem__, at)).index(True)
                raise ValidationError(f"row {row_name(k)}: variable {self._names[positions[k]]} "
                                      f"has fewer than {copies} copies")
            shifts = list(map([family.stride for family in self._families].__getitem__, at))
            last = list(map(add, positions, map(mul, shifts, repeat(copies - 1))))
            k = _descent(ends, last)
            if k is not None:
                raise ValidationError(f"row {row_name(k, copies - 1)}: term positions do not "
                                      f"strictly increase ({last[k]} then {last[k + 1]})")

        first = self._n_rows
        self._heads += heads
        self._tails += tails
        self._groups += groups
        self._senses += senses
        self._rhs += rhs
        self._ends += map(add, ends, repeat(len(self._positions)))
        self._positions += positions
        self._shifts += shifts
        self._coefs += coefs
        stop = len(self._heads) - len(heads)
        counts = self._group_rows  # rows per group, in order of first row
        for n_copies, _, block in placed:
            start, stop = stop, stop + len(block.heads)
            if start < stop and n_copies == 1 and self._segments and self._segments[-1][2] == 1:
                self._segments[-1] = (self._segments[-1][0], stop, 1)  # one-copy runs are joined
            elif start < stop:
                self._segments.append((start, stop, n_copies))
                self._segment_starts.append(self._n_rows)
            self._n_rows += (stop - start) * n_copies
            for group, rows in block.counts:
                counts[group] += rows * n_copies
        self._row_names.add(*checked)
        return first

    def add_row(self, name: str, group: str, coeffs: Iterable[tuple[int, float]],
                sense: str, rhs) -> Constraint:
        """Append one row of ``(position, coefficient)`` terms and return it.
        This is where a row is made canonical: its terms are sorted by
        position, and the coefficients of a repeated position are summed in
        input order; a term summing to zero is kept."""
        terms = sorted(coeffs, key=_POSITION)
        if len(dict(terms)) < len(terms):
            k = _nonfinite_at([coef for _, coef in terms])
            if k is not None:
                raise ValidationError(f"row {name}: coefficient is not a finite number: "
                                      f"{terms[k][1]!r}")
            merged: dict[int, float] = {}
            for pos, coef in terms:
                merged[pos] = merged.get(pos, 0) + coef
            terms = merged.items()
        positions, coefs = [pos for pos, _ in terms], [coef for _, coef in terms]
        self.add_rows([name], [group], [sense], [rhs], [len(terms)], positions, coefs)
        return Constraint(name, group, tuple(zip(positions, coefs)), sense, rhs)

    def _locate(self, row: int) -> tuple[int, int]:
        """A row's copy-0 row and its copy."""
        k = bisect_right(self._segment_starts, row) - 1
        start, stop, _ = self._segments[k]
        t, i = divmod(row - self._segment_starts[k], stop - start)
        return start + i, t

    def _row_name(self, i: int, t: int) -> str:
        """Copy t's name of copy-0 row i."""
        tail = self._tails[i]
        return self._heads[i] if tail is None else self._heads[i] + str(t) + tail

    def _row(self, row: int) -> Constraint:
        i, t = self._locate(row)
        start, end = (self._ends[i - 1] if i else 0), self._ends[i]
        positions = self._positions[start:end]
        if t:
            positions = map(add, positions, map(mul, self._shifts[start:end], repeat(t)))
        return Constraint(self._row_name(i, t), self._groups[i],
                          tuple(zip(positions, self._coefs[start:end])),
                          self._senses[i], self._rhs[i])

    def declare_lazy_group(self, group: str, description: str) -> None:
        self.lazy_groups[group] = description

    def set_objective_coeffs(self, positions: Iterable[int], coefs: Iterable) -> None:
        """Add each coefficient to its position's objective coefficient; a
        zero adds no term.  A position is an ``int`` of a declared variable,
        and there is one coefficient per position."""
        declared = len(self._names)
        # a range's positions are declared ints if its first and last are
        ranged = type(positions) is range and (not positions or 0 <= min(
            positions[0], positions[-1]) and max(positions[0], positions[-1]) < declared)
        positions, coefs = list(positions), list(coefs)
        if len(positions) != len(coefs):
            raise ValidationError(f"{len(positions)} objective positions "
                                  f"but {len(coefs)} coefficients")
        if positions and not ranged and (not _INT.issuperset(map(type, positions))
                          or min(positions) < 0 or max(positions) >= declared):
            bad = next(pos for pos in positions if type(pos) is not int or not 0 <= pos < declared)
            raise ValidationError(f"objective position {bad!r} is not a declared variable position")
        k = _nonfinite_at(coefs)
        if k is not None:
            raise ValidationError(f"objective coefficient at position {positions[k]} "
                                  f"is not a finite number: {coefs[k]!r}")
        objective = self.objective
        before = len(objective)
        if not before or objective.keys().isdisjoint(positions):
            # one pass, which keeps each term if no position repeats
            objective.update(compress(zip(positions, coefs), coefs))
            if len(objective) - before == len(coefs) - coefs.count(0):
                return
            for pos in list(islice(objective, before, None)):
                del objective[pos]
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
        groups, locate = self._groups, self._locate
        return [self._row(row) for row in range(self._n_rows) if groups[locate(row)[0]] == group]

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
        cannot take raises what ``Fraction`` raises: ``TypeError`` for what
        is not a number, ``ValueError`` for NaN and ``OverflowError`` for
        an infinity."""
        if type(value) is not int:
            if isinstance(value, (str, bytes)):
                raise TypeError(f"{value!r} is text, not a number")
            value = _exact(value)
        self.values[name] = value

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
        if model._kinds[pos] in _INTEGRAL and type(val) is not int:
            note(f"domain({name})", "domain", val, EQ, 0)
        if val < lb:
            note(f"bound({name})", "domain", val, GE, lb)
        if ub is not None and val > ub:
            note(f"bound({name})", "domain", val, LE, ub)

    # every copy-0 row's left-hand side in copy t, as a difference of prefix
    # sums over copy 0's terms read in copy t: x_t, copied from x once, holds
    # each family of more than t copies' copy t where its copy 0 is.  A float
    # coefficient makes the sums floats, so they are summed again with every
    # coefficient exact.  Copy t keeps the failures of the blocks with more
    # than t copies, which read only families with more than t copies, and
    # checks no row after the last such block
    ends, positions, coefs = model._ends, model._positions, model._coefs
    segments = model._segments
    most = max([copies for _, _, copies in segments]) if _copied(model) else 1
    exact = None
    x_t = x
    failed = []  # (copy-0 row, copy, left-hand side)
    for t in range(most):
        if t == 1:
            x_t = list(x)
        for family in model._families[1:] if t else ():
            if family.copies > t:
                first, step, moved = family.first, family.step, t * family.stride
                end = first + len(family.tails) * step
                x_t[first:end:step] = x[first + moved:end + moved:step]
        prefix = list(accumulate(map(mul, coefs, map(x_t.__getitem__, positions)), initial=0))
        if type(prefix[-1]) not in (int, Fraction):
            exact = exact or list(map(_exact, coefs))
            prefix = list(accumulate(map(mul, exact, map(x_t.__getitem__, positions)), initial=0))
        checked = max([stop for _, stop, copies in segments if copies > t]) if t else len(ends)
        for i, start, end, sense, rhs in zip(range(checked), chain((0,), ends), ends,
                                             model._senses, model._rhs):
            lhs = prefix[end] - prefix[start]
            if not (lhs <= rhs if sense == LE else lhs >= rhs if sense == GE else lhs == rhs):
                failed.append((i, t, lhs))
    # each failure of a copy its block has, in row order
    firsts = [start for start, _, _ in segments] if failed else []
    kept = []
    for i, t, lhs in failed:
        k = bisect_right(firsts, i) - 1
        start, stop, copies = segments[k]
        if t < copies:
            kept.append((model._segment_starts[k] + t * (stop - start) + i - start, i, t, lhs))
    for _, i, t, lhs in sorted(kept):
        note(model._row_name(i, t), model._groups[i], lhs, model._senses[i], model._rhs[i])

    return FeasibilityReport(not violated, tuple(violations), model._n_rows)


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


def _copied(model: LinearModel) -> bool:
    """Whether a block has more than one copy.  If not, every row is stored
    once, under its name, and the writers' text of copy 0's rows is every
    row's text."""
    return model._n_rows > len(model._heads)


def _templates(model: LinearModel, texts: list[str], template) -> list[str]:
    """``texts`` by variable position, with copy 0 of every family declared
    for every copy given as ``template(family)`` makes it, each text with a
    ``_COPY`` where the copy's number goes; ``texts`` itself when no block
    has more than one copy."""
    if not _copied(model):
        return texts
    texts = list(texts)
    for family in model._families[1:]:
        end = family.first + len(family.tails) * family.step
        texts[family.first:end:family.step] = template(family)
    return texts


def _row_templates(model: LinearModel) -> list[str]:
    """Each copy-0 row's name, with a ``_COPY`` where a copy's number goes
    in a block of more than one copy."""
    if not _copied(model):
        return model._heads
    return [head if tail is None else head + _COPY + tail
            for head, tail in zip(model._heads, model._tails)]


def _numbered(template, copies: int) -> Iterable[str]:
    """Each of ``copies`` copies' text: copy t's is ``template(d)``, the text
    for numbers of t's d digits, with t where each ``_COPY`` is."""
    for d in range(1, len(str(copies - 1)) + 1):
        text = template(d)
        numbers = range(10 ** (d - 1) if d > 1 else 0, min(copies, 10 ** d))
        yield from map(text.replace, repeat(_COPY), map(str, numbers))


def _copies(model: LinearModel, rows: list[str], separator: str) -> Iterable[str]:
    """The text of every row, block by block, from each copy-0 row's text:
    a block's copy-0 rows joined by ``separator``, with each copy's number
    where a ``_COPY`` is.  A row stored once is its block's copy 0, and
    only its terms on copy 0 of a family hold a ``_COPY``."""
    if not _copied(model):
        yield from rows
        return
    for start, stop, copies in model._segments:
        text = separator.join(rows[start:stop])
        yield from _numbered(lambda d: text, copies)


def write_lp(model: LinearModel) -> str:
    names = model._names
    signs = _Memo(_lp_sign)
    nums = _Memo(_num)
    out = [f"\\ {model.name}"]
    out.append("Minimize")
    obj = sorted(model.objective.items())
    out.extend(_wrap(" obj:", _lp_terms(obj, names, signs)))
    out.append("Subject To")
    # every term's text in one pass over copy 0's rows, then each row's
    # first term without its "+ "
    templates = _templates(model, names, methodcaller("names", _COPY))
    terms = list(map(add, map(signs.__getitem__, model._coefs),
                     map(templates.__getitem__, model._positions)))
    ends = model._ends
    starts = [0, *ends][:-1]
    for k in compress(starts, map(lt, starts, ends)):
        if terms[k][0] == "+":
            terms[k] = terms[k][2:]
    bodies = map(" ".join, map(terms.__getitem__, map(slice, starts, ends)))
    row_names = _row_templates(model)
    rows = []
    for name, start, end, body, sense, rhs in zip(row_names, starts, ends, bodies,
                                                  model._senses, map(nums.__getitem__, model._rhs)):
        if 0 < end - start <= 8:
            rows.append(f" {name}: {body} {sense} {rhs}")
        else:  # no term, or one line per 8 terms
            lines = _wrap(f" {name}:", terms[start:end])
            lines[-1] += f" {sense} {rhs}"
            rows.append("\n".join(lines))
    out += _copies(model, rows, "\n")
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


_MARKER = "    MARKER{:04d}  'MARKER'                 '{}'"


def _mps_columns(model: LinearModel, labels: _Memo, nums: _Memo) -> list[str]:
    """The COLUMNS lines: in each column its objective entry, then its entry
    in each row, in row order; INTORG and INTEND markers around integer
    columns.  ``labels[d]`` holds each copy-0 row's padded name for numbers
    of d digits.

    A family is written whole when it is side by side, no fixed term is on
    any of its copies, every block with a term on it has its copies, and
    each entry has one objective text in every copy.  Then each copy's
    lines are copy 0's with the copy's number put in every name, and copy
    0's are written once.  Every other column is written term by term, from
    its own terms in each copy."""
    names, families = model._names, model._families
    positions, shifts, coefs, ends = model._positions, model._shifts, model._coefs, model._ends
    family_at = [0] * len(names)  # each variable's family, in every copy
    for k, family in enumerate(families[1:], 1):
        size = len(family.tails) * family.copies
        family_at[family.first:family.first + size] = repeat(k, size)
    costs = [None] * len(names)
    for pos, coef in model.objective.items():
        costs[pos] = nums[coef]
    term_families = list(map(family_at.__getitem__, positions))
    # family 0 has step 0, and an interleaved family step ``copies``
    whole = [family.step == 1 for family in families]
    for k in set(compress(term_families, map(not_, shifts))):  # fixed terms
        whole[k] = False
    segments = [(ends[start - 1] if start else 0, ends[stop - 1], copies)
                for start, stop, copies in model._segments]
    for first, end, copies in segments:
        for k in set(term_families[first:end]):
            whole[k] = whole[k] and families[k].copies == copies
    for k, family in enumerate(families):
        if whole[k]:
            n = len(family.tails)
            whole[k] = costs[family.first:family.first + n] * family.copies \
                == costs[family.first:family.first + n * family.copies]
    moved = list(map(whole.__getitem__, term_families))
    # each term's row name, padded for numbers of d digits, and coefficient
    counts = list(map(sub, ends, chain((0,), ends)))
    coef_texts = list(map(nums.__getitem__, model._coefs))
    suffixes = _Memo(lambda d: list(map(add, chain.from_iterable(map(repeat, labels[d], counts)),
                                        coef_texts)))

    # every line and its column, to be sorted by column: a marker comes first
    # in its column, then the objective entry, then the rows in order
    integral = list(map(_INTEGRAL.__contains__, model._kinds))
    keys = list(compress(count(), map(ne, integral + [False], [False] + integral)))
    lines = [_MARKER.format(marker, "INTORG" if pos < len(names) and integral[pos] else "INTEND")
             for marker, pos in enumerate(keys)]
    column = _Memo(lambda pos: f"    {names[pos]:<10}  ")
    objective = sorted(model.objective)
    costed = [pos for pos in objective if not whole[family_at[pos]]]
    keys += costed
    lines += [column[pos] + "COST        " + costs[pos] for pos in costed]
    for first, end, copies in segments:
        picked = list(compress(range(first, end), map(not_, moved[first:end])))
        if not picked:
            continue
        placed = list(map(positions.__getitem__, picked))
        moves = list(map(shifts.__getitem__, picked))
        for t, number in enumerate(map(str, range(copies))):
            if t:
                placed = list(map(add, placed, moves))
            keys += placed
            lines += map(add, map(column.__getitem__, placed),
                         map(str.replace, map(suffixes[len(number)].__getitem__, picked),
                             repeat(_COPY), repeat(number)))

    # copy 0's lines of the families written whole, in column order
    def copy0_columns(d: int) -> list[Optional[str]]:
        texts = [None] * len(names)
        for family in compress(families, whole):
            texts[family.first:family.first + len(family.tails)] = [
                f"    {name.ljust(11 - d)}  " for name in family.names(_COPY)]
        return texts

    def copy0_lines(d: int) -> list[str]:
        texts = cost_texts + list(map(suffixes[d].__getitem__, picked))
        return list(map(add, map(columns[d].__getitem__, placed), map(texts.__getitem__, order)))

    columns = _Memo(copy0_columns)
    picked = list(compress(count(), moved))
    placed = [pos for pos in objective if columns[1][pos] is not None]
    cost_texts = ["COST        " + costs[pos] for pos in placed]
    placed += map(positions.__getitem__, picked)
    order = sorted(range(len(placed)), key=placed.__getitem__)
    placed = list(map(placed.__getitem__, order))
    templates = _Memo(copy0_lines)
    for family in compress(families, whole):
        n = len(family.tails)
        lo, hi = bisect_left(placed, family.first), bisect_left(placed, family.first + n)
        if lo < hi:
            keys += range(family.first, family.first + n * family.copies, n)
            lines += _numbered(lambda d: "\n".join(templates[d][lo:hi]), family.copies)
    return list(map(lines.__getitem__, sorted(range(len(keys)), key=keys.__getitem__)))


def write_mps(model: LinearModel) -> str:
    """Free MPS: names may exceed the eight characters of fixed-field MPS.

    Rows and right-hand sides are written as ``write_lp`` writes rows, copy
    0's lines of each block once and each copy by putting its number in;
    the columns of a family written whole likewise (see ``_mps_columns``).
    A name is padded to 10 characters, so a text for copies whose numbers
    have d digits pads a name holding a ``_COPY`` to 11 - d."""
    nums = _Memo(_num)
    rows = _row_templates(model)
    labels = _Memo(lambda d: [name.ljust(11 - d) + "  " for name in rows])
    out = [f"NAME          {model.name[:60]}", "ROWS", " N  COST"]
    tags = {LE: " L  ", EQ: " E  ", GE: " G  "}
    out += _copies(model, list(map(add, map(tags.__getitem__, model._senses), rows)), "\n")
    out.append("COLUMNS")
    out += _mps_columns(model, labels, nums)
    out.append("RHS")
    rhs = list(map(nums.__getitem__, model._rhs))
    for start, stop, copies in model._segments:
        given = [i for i in range(start, stop) if rhs[i] != "0"]
        if given:
            out += _numbered(lambda d: "\n".join([f"    RHS         {labels[d][i]}{rhs[i]}"
                                                   for i in given]), copies)
    out.append("BOUNDS")
    out += _mps_bounds(model, nums)
    out.append("ENDATA")
    return "\n".join(out) + "\n"


def _mps_bounds(model: LinearModel, nums: _Memo) -> Iterable[str]:
    """The BOUNDS lines, by position.  A family side by side is written as
    the ROWS are, copy 0's lines once and each copy by putting its number
    in: its bounds are 0 and none, so only a binary one has lines."""
    def each(start: int, stop: int) -> Iterable[str]:
        for name, kind, lb, ub in zip(*(column[start:stop] for column in (
                model._names, model._kinds, model._lbs, model._ubs))):
            if kind == BINARY:
                yield f" BV BND         {name}"
            else:
                if _exact(lb) != 0:
                    yield f" LO BND         {name}  {nums[lb]}"
                if ub is not None:
                    yield f" UP BND         {name}  {nums[ub]}"

    done = 0  # the variables before this position are written
    for family in model._families[1:]:
        if family.step == 1 and family.tails:
            yield from each(done, family.first)
            done = family.first + len(family.tails) * family.copies
            if model._kinds[family.first] == BINARY:
                text = "\n".join([f" BV BND         {name}" for name in family.names(_COPY)])
                yield from _numbered(lambda d: text, family.copies)
    yield from each(done, len(model._names))


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


def _json_name(head: str, tail: Optional[str]) -> str:
    """``head``, or ``head + _COPY + tail``, quoted as ``json`` quotes it, with
    the ``_COPY`` put in after quoting, which would escape it."""
    if tail is None:
        return encode_basestring_ascii(head)
    return encode_basestring_ascii(head)[:-1] + _COPY + encode_basestring_ascii(tail)[1:]


def _json_keys(family: _Family) -> list[str]:
    return [f"    {_json_name(head, tail)}: " for head, tail in zip(family.heads, family.tails)]


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
    templates = _templates(model, keys, _json_keys)
    coefs = model._coefs
    # str is int.__repr__ on an int and float.__repr__ on a float, as json
    # writes them; every coefficient is finite
    coef_texts = map(str if _PLAIN.issuperset(map(type, coefs)) else _json_num, coefs)
    terms = list(map(add, map(templates.__getitem__, model._positions), coef_texts))
    ends = model._ends
    row_names = map(_json_name, model._heads, model._tails)
    rows = []
    for name, group, start, end, sense, rhs in zip(row_names, model._groups, chain((0,), ends),
                                                   ends, model._senses, _json_texts(model._rhs)):
        coeffs = "{\n" + ",\n".join(terms[start:end]) + "\n   }" if end > start else "{}"
        rows.append(
            f'  {{\n   "name": {name},\n'
            f'   "group": {quoted[group]},\n   "coeffs": {coeffs},\n'
            f'   "sense": {quoted[sense]},\n   "rhs": {rhs}\n  }}')
    constraints = list(_copies(model, rows, ",\n"))
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
