"""Weighted Delannoy paths and the clan <-> path bijection.

A path is a tuple of step tokens: ``"N"``, ``"E"``, or the int label
(at least 2) of a diagonal step; its word writes a diagonal step as
``D:<label>``. The word encodes a DIII clan through repeated outer
reductions: each loop inspects the last symbol of the current clan, emits a
mirrored pair of steps at the two open ends of the path, strips the symbols
it consumed, and recurses on the shrunken clan.

The label bound for a diagonal step at word position i uses the size of the
clan remaining at that stage, m_i = n - i + 1 - k_i with k_i the number of
earlier diagonal steps: a first-half label lies in [2, 2*m_i - 1], i.e.
2 <= l_i <= 2n+1-2(i+k_i), and the mirrored step carries 2n+3-2(i+k_i)-l_i.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from .clans import MINUS, PLUS, ClanError, DIIIClan, ascii_int
from .enumeration import _put_pair, _put_sign

NORTH = "N"
EAST = "E"
DIAGONAL = "D"


class PathError(ClanError):
    """Raised for malformed weighted Delannoy paths."""


@dataclass(frozen=True)
class WeightedDelannoyPath:
    """A tuple of step tokens, checked here and nowhere else. The
    constructor refuses any other step, then scans the steps once for the
    conditions of ``validate_path`` and stores the verdict in ``_verdict``,
    outside equality, hash and repr."""

    steps: tuple[str | int, ...]
    _verdict: tuple[bool, int | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        steps = self.steps
        if type(steps) is not tuple:
            raise PathError(f"path steps must be a tuple of steps, got {steps!r}")
        for step in steps:
            if type(step) is int and step >= 2 or step == NORTH or step == EAST:
                continue
            if type(step) is str:
                raise PathError(f"unknown step token {step!r}")
            if type(step) in (bool, float):
                raise PathError(f"step label must be an int, got {step!r}")
            raise PathError(f"path steps must be a tuple of steps, got {steps!r}")
        object.__setattr__(self, "_verdict", _scan(steps))

    @property
    def n(self) -> int:
        return len(self.steps) - self.steps.count(NORTH)

    def to_word(self) -> str:
        return " ".join(f"{DIAGONAL}:{s}" if type(s) is int else s for s in self.steps)

    @classmethod
    def from_word(cls, word: str) -> "WeightedDelannoyPath":
        tokens = word.split()
        if not tokens:
            raise PathError("empty path word")
        steps: list[str | int] = []
        for token in tokens:
            if token == NORTH or token == EAST:
                steps.append(token)
            elif token.startswith(f"{DIAGONAL}:"):
                label = ascii_int(token[2:])
                if label is None:
                    raise PathError(f"bad diagonal label in {token!r}")
                if label < 2:
                    raise PathError("diagonal labels start at 2")
                steps.append(label)
            else:
                raise PathError(f"unknown step token {token!r}")
        return cls(tuple(steps))


def validate_path(path: WeightedDelannoyPath | Sequence[str | int]) -> tuple[bool, int | None]:
    """Check the four defining conditions in order; return (ok, first
    violated condition number).

    1. the directions walk from (0,0) to (n,n);
    2. step i is N exactly when its mirror step is E;
    3. diagonal labels in the first half lie within the stage bound and the
       mirror step carries the complementary label;
    4. the word has even length and its middle is either an E step or the
       labeled pair (D,3)(D,2).

    Any other input goes through the ``WeightedDelannoyPath`` check first (a
    sequence as the tuple of its items), so it raises ``PathError`` unless
    every item is a step token. A path's verdict is taken when it is built,
    so this reads it.
    """
    if not isinstance(path, WeightedDelannoyPath):
        path = WeightedDelannoyPath(tuple(path) if isinstance(path, Sequence) else path)
    return path._verdict


def _scan(steps: tuple[str | int, ...]) -> tuple[bool, int | None]:
    """The four conditions of ``validate_path``, checked on step tokens."""
    r = len(steps)
    north = steps.count(NORTH)
    if r == 0 or north != steps.count(EAST):
        return False, 1
    n = r - north  # the E and diagonal steps
    for a, b in zip(steps, reversed(steps)):
        if (a == NORTH) != (b == EAST):
            return False, 2
    diagonals_before = 0
    for i in range(1, r // 2 + 1):
        label = steps[i - 1]
        if type(label) is int:  # at least 2, as the constructor checked
            bound = 2 * n + 1 - 2 * (i + diagonals_before)
            if label > bound or steps[r - i] != bound + 2 - label:
                return False, 3
            diagonals_before += 1
    if r % 2 != 0:
        return False, 4
    mid = steps[r // 2 - 1]
    if mid != EAST and (mid != 3 or steps[r // 2] != 2):
        return False, 4
    return True, None


def _swap_middle(open_: list[int]) -> None:
    k = len(open_) // 2
    if k:
        open_[k - 1], open_[k] = open_[k], open_[k - 1]


def _strip(open_: list[int], j: int) -> None:
    """Delete a diagonal step's family once its last position is popped:
    the mate at place j, its mirror and the first; trade the middle if j > m."""
    m = (len(open_) + 1) // 2
    del open_[max(j - 1, 2 * m - j)], open_[min(j - 1, 2 * m - j)], open_[0]
    if j > m:
        _swap_middle(open_)


def clan_to_path(clan: DIIIClan) -> WeightedDelannoyPath:
    """Reduce the clan from the outside in, one mirrored step pair per loop.

    A trailing minus emits E...N and strips the outer symbols; a trailing
    plus emits N...E, strips, and trades the middle pair.  A trailing mate
    emits a labeled diagonal pair and strips its whole family (``_strip``).
    ``open_`` lists the positions still to reduce, in the order of the
    shrinking clan, and each is read off the clan's key: its sign, or its
    mate, found by place in ``open_``.  The steps are appended as tokens:
    ``"N"``, ``"E"``, or a diagonal step's label.  The result is checked
    when it is built, and ``validate_path`` reads that verdict.
    """
    key = clan.to_diii()._key()
    open_ = list(range(1, len(key) + 1))
    head: list[str | int] = []
    tail: list[str | int] = []
    while open_:
        last = key[open_.pop() - 1]
        if last == MINUS:
            head.append(EAST)
            tail.append(NORTH)
            del open_[0]
        elif last == PLUS:
            head.append(NORTH)
            tail.append(EAST)
            del open_[0]
            _swap_middle(open_)
        else:
            j = open_.index(last) + 1  # place of the matching mate
            tail.append(j)
            head.append(len(open_) + 2 - j)
            _strip(open_, j)
    head.extend(reversed(tail))
    return WeightedDelannoyPath(tuple(head))


def path_to_clan(path: WeightedDelannoyPath) -> DIIIClan:
    """Invert the reduction, reading the path from the outside in.

    The path is checked with ``validate_path`` first. ``open_`` lists the
    positions still to decode, in the order of the symbols ``clan_to_path``
    holds at that stage: each loop reads one outer step, writes the
    consumed positions with the sect generator's writers, then deletes them
    and trades the middle pair as the reduction does (``_strip``). No path
    that passes ``validate_path`` fails the coverage or parity test.
    """
    ok, violated = validate_path(path)
    if not ok:
        raise PathError(f"invalid weighted Delannoy path: condition {violated} violated")
    steps = path.steps
    r, n = len(steps), path.n
    key: list = [None] * (2 * n)
    open_ = list(range(1, 2 * n + 1))
    minus = contained = 0
    for k in range(1, r // 2 + 1):
        outer = steps[r - k]
        last = open_.pop()
        if type(outer) is int:  # the label j of a diagonal step
            mate = open_[outer - 1]
            _put_pair(key, mate, last)
            contained += (mate <= n) == (last <= n)
            _strip(open_, outer)
        else:
            first = open_.pop(0)
            p = min(first, last)  # an outer N strips a trailing minus, an outer E a plus
            sign = PLUS if p == (first if outer == NORTH else last) else MINUS
            _put_sign(key, p, sign)
            minus += sign == MINUS
            if outer == EAST:
                _swap_middle(open_)
    if None in key:
        raise PathError("the path leaves a position unassigned")
    if (minus + contained) % 2:
        raise PathError(f"odd first-half parity: {minus} minus signs, {contained} contained pairs")
    return DIIIClan._from_key(tuple(key))
