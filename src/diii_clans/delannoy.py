"""Weighted Delannoy paths and the clan <-> path bijection.

A word of labeled N/E/D steps encodes a DIII clan through repeated outer
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
from .enumeration import assemble_clan

NORTH = "N"
EAST = "E"
DIAGONAL = "D"


class PathError(ClanError):
    """Raised for malformed weighted Delannoy paths."""


@dataclass(frozen=True)
class LabeledStep:
    direction: str
    label: int = 1

    def __post_init__(self):
        if self.direction not in (NORTH, EAST, DIAGONAL):
            raise PathError(f"unknown direction {self.direction!r}")
        if type(self.label) is not int:
            raise PathError(f"step label must be an int, got {self.label!r}")
        if self.direction in (NORTH, EAST):
            if self.label != 1:
                raise PathError(f"{self.direction} steps carry label 1")
        elif self.label < 2:
            raise PathError("diagonal labels start at 2")

    def to_token(self) -> str:
        if self.direction == DIAGONAL:
            return f"{DIAGONAL}:{self.label}"
        return self.direction

    @classmethod
    def from_token(cls, token: str) -> "LabeledStep":
        if token in (NORTH, EAST):
            return cls(token)
        if token.startswith(f"{DIAGONAL}:"):
            label = ascii_int(token[2:])
            if label is None:
                raise PathError(f"bad diagonal label in {token!r}")
            return cls(DIAGONAL, label)
        raise PathError(f"unknown step token {token!r}")


@dataclass(frozen=True)
class WeightedDelannoyPath:
    """A word of labeled steps. The constructor scans them once for the
    conditions of ``validate_path`` and stores the verdict in ``_verdict``,
    outside equality, hash and repr."""

    steps: tuple[LabeledStep, ...]
    _verdict: tuple[bool, int | None] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if type(self.steps) is not tuple or not all(
            isinstance(s, LabeledStep) for s in self.steps
        ):
            raise PathError(f"path steps must be a tuple of steps, got {self.steps!r}")
        object.__setattr__(self, "_verdict", _scan(self.steps))

    @property
    def n(self) -> int:
        return sum(1 for s in self.steps if s.direction in (EAST, DIAGONAL))

    def to_word(self) -> str:
        return " ".join(s.to_token() for s in self.steps)

    @classmethod
    def from_word(cls, word: str) -> "WeightedDelannoyPath":
        tokens = word.split()
        if not tokens:
            raise PathError("empty path word")
        return cls(tuple(LabeledStep.from_token(t) for t in tokens))


def validate_path(path: WeightedDelannoyPath | Sequence[LabeledStep]) -> tuple[bool, int | None]:
    """Check the four defining conditions in order; return (ok, first
    violated condition number).

    1. the directions walk from (0,0) to (n,n);
    2. step i is N exactly when its mirror step is E;
    3. diagonal labels in the first half lie within the stage bound and the
       mirror step carries the complementary label;
    4. the word has even length and its middle is either an E step or the
       labeled pair (D,3)(D,2).

    Any other input goes through the ``WeightedDelannoyPath`` container
    check first (a sequence as the tuple of its items), so it raises
    ``PathError`` unless every item is a ``LabeledStep``. A path's verdict
    is taken when it is built, so this reads it.
    """
    if not isinstance(path, WeightedDelannoyPath):
        path = WeightedDelannoyPath(tuple(path) if isinstance(path, Sequence) else path)
    return path._verdict


def _scan(steps: Sequence[LabeledStep]) -> tuple[bool, int | None]:
    """The four conditions of ``validate_path``, checked on ``steps``."""
    r = len(steps)
    north = sum(1 for s in steps if s.direction == NORTH)
    east = sum(1 for s in steps if s.direction == EAST)
    if r == 0 or north != east:
        return False, 1
    n = east + sum(1 for s in steps if s.direction == DIAGONAL)
    for i in range(1, r + 1):
        a, b = steps[i - 1], steps[r - i]
        if (a.direction == NORTH) != (b.direction == EAST):
            return False, 2
    diagonals_before = 0
    for i in range(1, r // 2 + 1):
        step = steps[i - 1]
        if step.direction == DIAGONAL:
            bound = 2 * n + 1 - 2 * (i + diagonals_before)
            if not 2 <= step.label <= bound:
                return False, 3
            mirror = steps[r - i]
            if mirror.direction != DIAGONAL or mirror.label != bound + 2 - step.label:
                return False, 3
            diagonals_before += 1
    if r % 2 != 0:
        return False, 4
    mid = steps[r // 2 - 1]
    if mid.direction == EAST:
        pass
    elif mid == LabeledStep(DIAGONAL, 3) and steps[r // 2] == LabeledStep(DIAGONAL, 2):
        pass
    else:
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
    mate, found by place in ``open_``.  Every N or E step is the same step
    object.  The result is checked when it is built, and ``validate_path``
    reads that verdict.
    """
    key = clan.to_diii()._key()
    open_ = list(range(1, len(key) + 1))
    north, east = LabeledStep(NORTH), LabeledStep(EAST)
    head: list[LabeledStep] = []
    tail: list[LabeledStep] = []
    while open_:
        last = key[open_.pop() - 1]
        if last == MINUS:
            head.append(east)
            tail.append(north)
            del open_[0]
        elif last == PLUS:
            head.append(north)
            tail.append(east)
            del open_[0]
            _swap_middle(open_)
        else:
            j = open_.index(last) + 1  # place of the matching mate
            tail.append(LabeledStep(DIAGONAL, j))
            head.append(LabeledStep(DIAGONAL, len(open_) + 2 - j))
            _strip(open_, j)
    head.extend(reversed(tail))
    path = WeightedDelannoyPath(tuple(head))
    ok, violated = validate_path(path)
    if not ok:
        raise AssertionError(f"generated path violates condition {violated}")
    return path


def path_to_clan(path: WeightedDelannoyPath) -> DIIIClan:
    """Invert the reduction, reading the path from the outside in.

    The path is checked with ``validate_path`` first. ``open_`` lists the
    positions still to decode, in the order of the symbols ``clan_to_path``
    holds at that stage: each loop reads one outer step, gives the consumed
    positions their signs or mates, then deletes them and trades the middle
    pair as the reduction does (``_strip``). ``assemble_clan`` builds the clan from the
    first-half data, checking coverage and parity.
    """
    ok, violated = validate_path(path)
    if not ok:
        raise PathError(f"invalid weighted Delannoy path: condition {violated} violated")
    steps = path.steps
    r, n = len(steps), path.n
    mirror = 2 * n + 1
    open_ = list(range(1, mirror))
    contained: list[tuple[int, int]] = []
    straddling: list[tuple[int, int]] = []
    signs: dict[int, str] = {}
    for k in range(1, r // 2 + 1):
        outer = steps[r - k]
        last = open_.pop()
        if outer.direction == DIAGONAL:
            j = outer.label
            a, b = sorted((open_[j - 1], last))  # mates; their mirrors are the other pair
            if b <= n or a > n:  # contained, in the first half or mirrored from it
                contained.append((a, b) if b <= n else (mirror - b, mirror - a))
            else:
                straddling.append((min(a, mirror - b), max(a, mirror - b)))
            _strip(open_, j)
        else:
            first = open_.pop(0)
            p = min(first, last)  # an outer N strips a trailing minus, an outer E a plus
            signs[p] = PLUS if p == (first if outer.direction == NORTH else last) else MINUS
            if outer.direction == EAST:
                _swap_middle(open_)
    return assemble_clan(n, contained, straddling, signs)
