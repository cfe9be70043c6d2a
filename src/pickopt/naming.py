"""The names of a model's rows or variables, checked without a table of
every copy's names.

A name is full, or the name of copy t of a head and a tail, ``head +
str(t) + tail``, one of several copies (a picker's, in the formulations).
A copy's number must read back from its name: among the copied names of a
namespace no head is a proper prefix of another and no tail starts with an
ASCII digit, so a name reads in at most one way as a copied head,
``str(t)`` and a tail.  Then copies are unique when their heads and tails
are, and a full name is a copy's only when it reads as one, its number
without a leading zero and below its copies.  :func:`parts` checks one
block's or family's names by themselves, once, when it is made; a
:class:`Namespace` checks them against each other and the names it holds,
and hashes only full names and each copied name's copy 0.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import chain
from typing import Iterable, Optional

from .errors import ValidationError

# where a copy's number goes in the text the model's writers make of a
# block's copy 0; no name part may hold one
COPY = "\x00"

# a tail that starts with a digit, among tails each after a COPY
_NUMBERED_TAIL = re.compile(COPY + "[0-9]")


def parts(what: str, heads, tails, reserved: frozenset = frozenset()) -> tuple:
    """The full names ``heads`` (tails None), or copy 0's names ``head + "0"
    + tail``, with the distinct heads, sorted, and the first tail that
    breaks the rule (starts with a digit), if any; refused when a part is no
    str or holds a NUL, a full name is ``reserved`` or a name repeats."""
    try:  # a NUL in a head or a tail is in copy 0's name
        names = tuple(heads) if tails is None else tuple(map("0".join, zip(heads, tails)))
        joined = "".join(names)
    except TypeError:
        bad = next(part for part in chain(heads, tails or ()) if type(part) is not str)
        raise ValidationError(f"{what} name {bad!r} is not a str") from None
    if COPY in joined:
        bad = next(part for part in chain(heads, tails or ()) if COPY in part)
        raise ValidationError(f"{what} name part {bad!r} holds a NUL")
    distinct, numbered = (), None
    if tails is None:
        if not reserved.isdisjoint(names):
            bad = next(name for name in names if name in reserved)
            raise ValidationError(f"{what} name {bad} is the objective's name in an export")
    else:
        distinct = tuple(sorted(set(heads)))
        if _NUMBERED_TAIL.search(COPY + COPY.join(tails)):
            numbered = next(tail for tail in tails if _NUMBERED_TAIL.match(COPY + tail))
    if len(set(names)) < len(names):
        raise ValidationError(f"duplicate {what} name {_repeated(names, set())}")
    return names, distinct, numbered


def _repeated(names: Iterable[str], seen: set) -> str:
    """The first of ``names`` in ``seen`` or before it in ``names``."""
    return next(name for name in names if name in seen or seen.add(name))


class Namespace:
    """The names of one namespace, the rows' or the variables': each full
    name, and each copied name's copy 0, ``head + "0" + tail``, with its
    copies."""

    __slots__ = ("what", "full", "zeros", "heads")

    def __init__(self, what: str):
        self.what = what
        self.full: set[str] = set()
        self.zeros: dict[str, int] = {}  # copy 0's name -> copies
        self.heads: tuple[str, ...] = ()  # every copied head once, sorted

    def check(self, full: list[tuple], copied: list, copies: int) -> tuple:
        """Refuse the ``full`` names, sequences :func:`parts` checked, and
        those of ``copies`` copies of each of ``copied``, with the ``names``,
        ``distinct`` and ``numbered`` of :func:`parts`, that break the rule
        or name anything twice; return what :meth:`add` takes."""
        new_full = set().union(*full)
        if len(new_full) < sum(map(len, full)) or not self.full.isdisjoint(new_full):
            raise ValidationError(f"duplicate {self.what} name "
                                  f"{_repeated(chain.from_iterable(full), set(self.full))}")
        new_zeros, every_head = {}, self.heads
        if copied:
            bad = next((p.numbered for p in copied if p.numbered is not None), None)
            if bad is not None:
                raise ValidationError(f"{self.what} name tail {bad!r} starts with a digit, so "
                                      f"a copy's number would not read back from its name")
            new_heads = set().union(*[p.distinct for p in copied]).difference(self.heads)
            if new_heads:
                every_head = tuple(sorted(new_heads.union(self.heads)))
                # a head that prefixes another prefixes the next one in order
                prefixes = list(map(str.startswith, every_head[1:], every_head))
                if True in prefixes:
                    k = prefixes.index(True)
                    raise ValidationError(f"{self.what} name head {every_head[k]!r} is a prefix "
                                          f"of head {every_head[k + 1]!r}, so a copy's number "
                                          f"would not read back from its name")
            # a name reads one way, so copies share a name only if copy 0s do
            zeros = [p.names for p in copied]
            new_zeros = dict.fromkeys(chain.from_iterable(zeros), copies)
            if len(new_zeros) < sum(map(len, zeros)) or not self.zeros.keys().isdisjoint(new_zeros):
                raise ValidationError(f"duplicate {self.what} name "
                                      f"{_repeated(chain.from_iterable(zeros), set(self.zeros))}")
        # new full names against every copy, the model's against new copies
        bad = every_head and (
            self._copy_name(chain.from_iterable(full), every_head, new_zeros)
            or new_zeros and self._copy_name(sorted(self.full), every_head, new_zeros))
        if bad:
            raise ValidationError(f"duplicate {self.what} name {bad}")
        return new_full, new_zeros, every_head

    def _copy_name(self, names: Iterable[str], heads: tuple, zeros: dict) -> Optional[str]:
        """The first of ``names`` that is a copy's name under ``zeros`` or
        this namespace's, with ``heads`` every copied head, or None."""
        for name in names:
            # the one head it may start with is the last head not after it
            head = heads[bisect_right(heads, name) - 1]
            if not name.startswith(head):
                continue
            rest = name[len(head):]
            number = rest[:len(rest) - len(rest.lstrip("0123456789"))]
            if number[:1] == "0" and number != "0":
                continue  # str(t) has no leading zero
            zero = head + "0" + rest[len(number):]
            copies = zeros.get(zero) or self.zeros.get(zero)
            if number and copies and len(number) <= len(str(copies)) and int(number) < copies:
                return name
        return None

    def add(self, full: set[str], zeros: dict, heads: tuple) -> None:
        """Keep what :meth:`check` returned."""
        if self.full:
            self.full |= full
        else:  # the namespace's first full names: the new set is the set
            self.full = full
        if zeros:
            if self.zeros:
                self.zeros.update(zeros)
            else:
                self.zeros = zeros
            self.heads = heads
