"""The names of a model's rows or variables, checked without a table of
every copy's names.

A name is full, or the name of copy t of a head and a tail, ``head +
str(t) + tail``, one of several copies (a picker's, in the formulations).
A copy's number must read back from its name: among the copied names of a
namespace no head is a proper prefix of another and no tail starts with an
ASCII digit, so a name reads in at most one way as a copied head,
``str(t)`` and a tail.  Then copies are unique when their heads and tails
are, and a full name is a copy's only when it reads as one, its number
without a leading zero and below its copies.  A :class:`Namespace` hashes
only full names and each copied name's copy 0.
"""

from __future__ import annotations

import re
from bisect import bisect_right
from itertools import chain
from typing import Optional

from .errors import ValidationError

# where a copy's number goes in the text the model's writers make of a
# block's copy 0; no name part may hold one
COPY = "\x00"

_DIGITS = "0123456789"
# a tail that starts with a digit, among tails each after a COPY
_NUMBERED_TAIL = re.compile(COPY + "[0-9]")


class Namespace:
    """The names of one namespace, the rows' or the variables': each full
    name, and each copied name's copy 0, ``head + "0" + tail``, with its
    copies."""

    __slots__ = ("what", "reserved", "full", "zeros", "heads")

    def __init__(self, what: str, reserved: frozenset = frozenset()):
        self.what = what
        self.reserved = reserved  # full names no name may take; a copy's holds a digit
        self.full: set[str] = set()
        self.zeros: dict[str, int] = {}  # copy 0's name -> copies
        self.heads: tuple[str, ...] = ()  # every copied head once, sorted

    def check(self, full: list[str], heads: list[str], tails: list[str], copies: int,
              zeros: Optional[list[str]] = None) -> tuple:
        """Refuse ``full`` names, and the names of ``copies`` copies of
        ``heads[k] + str(t) + tails[k]``, whose copy 0 is ``zeros[k]``, joined
        here if not given, that hold a part that is no str or holds a NUL,
        break the rule or name anything twice; return what :meth:`add`
        takes."""
        try:
            joined = "".join(full) + "".join(heads) + "".join(tails)
        except TypeError:
            bad = next(part for part in chain(full, heads, tails) if type(part) is not str)
            raise ValidationError(f"{self.what} name {bad!r} is not a str") from None
        if COPY in joined:
            bad = next(part for part in chain(full, heads, tails) if COPY in part)
            raise ValidationError(f"{self.what} name part {bad!r} holds a NUL")
        new_full = set(full)
        if not self.reserved.isdisjoint(new_full):
            bad = next(name for name in full if name in self.reserved)
            raise ValidationError(f"{self.what} name {bad} is the objective's name in an export")
        if len(new_full) < len(full) or not self.full.isdisjoint(new_full):
            seen = set(self.full)
            bad = next(name for name in full if name in seen or seen.add(name))
            raise ValidationError(f"duplicate {self.what} name {bad}")
        new_zeros, every_head = {}, self.heads
        if heads:
            if _NUMBERED_TAIL.search(COPY + COPY.join(tails)):
                bad = next(tail for tail in tails if _NUMBERED_TAIL.match(COPY + tail))
                raise ValidationError(f"{self.what} name tail {bad!r} starts with a digit, so "
                                      f"a copy's number would not read back from its name")
            new_heads = set(heads).difference(self.heads)
            if new_heads:
                every_head = tuple(sorted(new_heads.union(self.heads)))
                # a head that is a proper prefix of another is a prefix of
                # the next head in sorted order
                prefixes = list(map(str.startswith, every_head[1:], every_head))
                if True in prefixes:
                    k = prefixes.index(True)
                    raise ValidationError(f"{self.what} name head {every_head[k]!r} is a prefix "
                                          f"of head {every_head[k + 1]!r}, so a copy's number "
                                          f"would not read back from its name")
            # a name reads one way, so copies share a name only if their
            # copy 0s do
            zeros = zeros or list(map("0".join, zip(heads, tails)))
            new_zeros = dict.fromkeys(zeros, copies)
            if len(new_zeros) < len(zeros) or not self.zeros.keys().isdisjoint(new_zeros):
                seen = set(self.zeros)
                bad = next(zero for zero in zeros if zero in seen or seen.add(zero))
                raise ValidationError(f"duplicate {self.what} name {bad}")
        # new full names against every copy, and the model's full names
        # against new copies
        bad = every_head and (self._copy_name(full, every_head, new_zeros) or new_zeros
                              and self._copy_name(sorted(self.full), every_head, new_zeros))
        if bad:
            raise ValidationError(f"duplicate {self.what} name {bad}")
        return new_full, new_zeros, every_head

    def _copy_name(self, names: list[str], heads: tuple, zeros: dict) -> Optional[str]:
        """The first of ``names`` that is a copy's name under ``zeros`` or
        this namespace's, with ``heads`` every copied head, or None."""
        for name in names:
            # the one head it may start with is the last head not after it
            head = heads[bisect_right(heads, name) - 1]
            if not name.startswith(head):
                continue
            rest = name[len(head):]
            number = rest[:len(rest) - len(rest.lstrip(_DIGITS))]
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
