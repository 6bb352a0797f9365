"""Pyramids, doubly symmetric rook placements, and set-partition pairs.

A pyramid is the bottom triangle of a 2n x 2n board cut out by both main
diagonals, with rows numbered 1 (longest) to n (apex) and a left/right cell
in row i for each column index i..n on either side of the center line.
Unfolding a pyramid across both diagonals recovers a placement of 2n
non-attacking rooks invariant under both reflections. A rook is a plain
``(side, row, col)`` triple, side ``"L"`` or ``"R"``, and every map here
passes the triples through as they are.

The public constructors, ``from_json_dict`` and ``extend_odd`` check
every value they build. A map whose checked input implies its output's
check builds it with ``_unchecked`` and says why; ``verify`` rebuilds
those outputs through the constructors. Both decoders write a clan's key.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, islice
from operator import itemgetter
from typing import Iterable, Sequence

from .clans import MINUS, PLUS, ClanError, DIIIClan, json_fields
from .enumeration import _put_pair, _put_sign

LEFT = "L"
RIGHT = "R"
#: The other side of each side: a pyramid's mirror, a switch's flip.
_OTHER = {LEFT: RIGHT, RIGHT: LEFT}
#: The most uncovered indices a pyramid's error message lists.
_MISSING_LISTED = 10


def _unchecked(cls: type, *fields):
    """A ``cls`` of these fields, in order, not tested: the one unchecked
    constructor here, for a map whose checked input implies the check."""
    value = object.__new__(cls)
    for name, field in zip(cls.__dataclass_fields__, fields):
        object.__setattr__(value, name, field)
    return value


class PyramidParityError(ClanError):
    """The decoded clan violates the sign-parity rule; the mirror pyramid
    of the same placement is the one that decodes."""


@dataclass(frozen=True)
class Pyramid:
    """Rooks in the triangle, one touching each of the indices 1..n.

    A rook is a ``(side, row, col)`` triple of ``"L"`` or ``"R"`` and ints
    1 <= row <= col <= n, checked here and nowhere else. Every k in 1..n
    must occur in the {row, col} set of exactly one rook; in particular no
    two rooks share a row. A message writes a rook as ``(L,1,3)``, and
    names at most ``_MISSING_LISTED`` uncovered indices, so its cost follows
    the rooks, never n.
    """

    n: int
    rooks: frozenset[tuple[str, int, int]]

    def __post_init__(self):
        n, rooks = self.n, self.rooks
        if type(n) is not int:
            raise ClanError(f"pyramid size must be an int, got {n!r}")
        if n < 0:
            raise ClanError(f"pyramid size must be nonnegative, got {n}")
        if type(rooks) is not frozenset or not all(
            type(cell) is tuple and len(cell) == 3 for cell in rooks
        ):
            raise ClanError(f"pyramid rooks must be a frozenset of cells, got {rooks!r}")
        if self._first_fault(rooks) is not None:
            # a frozenset's order follows the string hash, so the message
            # names the first fault in sorted order (entry by entry, an int
            # by value before any other entry, which goes by its repr)
            ordered = sorted(
                rooks, key=lambda cell: [(0, x) if type(x) is int else (1, repr(x)) for x in cell]
            )
            raise ClanError(self._first_fault(ordered))

    def _first_fault(self, cells: Iterable[tuple]) -> str | None:
        """The message of the first fault met reading ``cells`` in order,
        or None when the rooks make a pyramid."""
        n = self.n
        seen: dict[int, tuple[str, int, int]] = {}
        for cell in cells:
            side, row, col = cell
            if side not in (LEFT, RIGHT):
                return f"side must be {LEFT!r} or {RIGHT!r}"
            if type(row) is not int or type(col) is not int:
                return f"cell row and col must be ints, got {row!r}, {col!r}"
            if not 1 <= row <= col:
                return "cell ({},{},{}) needs row <= col".format(*cell)
            if col > n:
                return "cell ({},{},{}) outside pyramid of size {}".format(*cell, n)
            if row in seen or col in seen:
                k = next(k for k in {row, col} if k in seen)
                return "index {} covered by both ({},{},{}) and ({},{},{})".format(
                    k, *seen[k], *cell
                )
            seen[row] = seen[col] = cell
        if len(seen) != n:  # each index seen is in 1..n, so n - len(seen) are not
            # the first few, found within _MISSING_LISTED + len(seen) steps
            missing = list(islice((k for k in range(1, n + 1) if k not in seen), _MISSING_LISTED))
            more = n - len(seen) - len(missing)
            tail = f" and {more} more" if more else ""
            return f"indices {missing}{tail} not covered by any rook"

    def mirror(self) -> "Pyramid":
        """The rooks on the other sides: the same coverage."""
        return _unchecked(Pyramid, self.n, frozenset((_OTHER[s], i, j) for s, i, j in self.rooks))

    def to_json_dict(self) -> dict:
        rooks = [{"side": side, "i": i, "j": j} for side, i, j in sorted(self.rooks)]
        return {"n": self.n, "rooks": rooks}

    @classmethod
    def from_json_dict(cls, data: dict) -> "Pyramid":
        n, rooks = json_fields(data, "pyramid", {"n": int, "rooks": list})
        cells = [tuple(json_fields(r, "pyramid", {"side": str, "i": int, "j": int})) for r in rooks]
        seen = set()
        for cell in cells:
            if cell in seen:
                raise ClanError("rook ({},{},{}) listed twice".format(*cell))
            seen.add(cell)
        return cls(n, frozenset(seen))


def clan_to_pyramid(clan: DIIIClan) -> Pyramid:
    """Scan the first half from position n down to 1, placing one rook per
    surviving symbol.  The switch starts on the left and trades sides at
    every minus sign and at the opening mate of every contained pair. Each
    index is a sign or a mate, never antipodal, of one rook: the pyramid holds."""
    clan = clan.to_diii()
    n = clan.n
    switch = LEFT
    rooks: list[tuple[str, int, int]] = []
    key = clan._key()
    for i in range(n, 0, -1):
        j = key[i - 1]  # the sign at i, or the mate position
        if j == PLUS:
            rooks.append((switch, i, i))
        elif j == MINUS:
            switch = _OTHER[switch]
            rooks.append((switch, i, i))
        elif j > n and 2 * n + 1 - j > i:
            rooks.append((switch, i, 2 * n + 1 - j))
        elif i < j <= n:
            switch = _OTHER[switch]
            rooks.append((switch, i, j))
        # otherwise the pair is recorded at another row
    return _unchecked(Pyramid, n, frozenset(rooks))


def _decode(n: int, cells: Sequence[tuple[str, int, int]], switch: str) -> DIIIClan:
    """The scan of ``pyramid_to_clan`` over rooks in distinct rows, apex
    first, with the switch starting on side ``switch`` (RIGHT decodes the
    mirror pyramid), writing the key with the sect generator's writers.
    n index writes that leave no position empty cover each index once."""
    key: list = [None] * (2 * n)
    flips = pairs = 0
    for side, row, col in cells:
        flipped = side != switch
        if flipped:
            switch = side
            flips += 1
        if col == row:
            _put_sign(key, row, MINUS if flipped else PLUS)
        else:  # a contained pair (row, col), or mates at row and 2n+1-col
            _put_pair(key, row, col if flipped else 2 * n + 1 - col)
            pairs += 1
    # each flip puts a minus sign or a contained pair in the first half, so
    # the parity rule holds exactly when the flip count is even
    if flips % 2 != 0:
        raise PyramidParityError(
            "decoded clan violates the parity rule; reflect the pyramid"
        )
    if len(cells) + pairs != n or None in key:
        raise ClanError(f"rooks do not cover each index 1..{n} once")
    if not key:
        raise ClanError("a clan must contain at least two symbols")
    return DIIIClan._from_key(tuple(key))


def pyramid_to_clan(pyramid: Pyramid) -> DIIIClan:
    """Replay the construction scan top-down, tracking the switch.

    A rook on the scanning side means no switch flip happened (a plus sign,
    or a straddling pair); a rook on the other side means a flip (a minus
    sign, or a contained pair).  A rook at (i, i) is a sign at i, and one
    at (i, col) is the first-half pair (i, col).  Raises PyramidParityError
    when the decoded clan fails the parity rule, in which case the mirror
    pyramid decodes.
    """
    cells = sorted(pyramid.rooks, key=itemgetter(1), reverse=True)
    return _decode(pyramid.n, cells, LEFT)


@dataclass(frozen=True)
class RookPlacement:
    """Permutation matrix symmetric across both main diagonals.

    ``perm[c-1]`` is the 1-based row of the rook in column c; the placement
    must be an involution (diagonal symmetry) satisfying
    perm(m+1-perm(i)) = m+1-i (antidiagonal symmetry).
    """

    perm: tuple[int, ...]

    def __post_init__(self):
        perm = self.perm
        if type(perm) is not tuple:
            raise ClanError(f"placement perm must be a tuple, got {perm!r}")
        m = len(perm)
        ints = {*map(type, perm)} <= {int}  # True == 1 passes the sort test
        rows = list(range(1, m + 1))
        if not ints or sorted(perm) != rows:
            raise ClanError(f"{perm} is not a permutation of 1..{m}")
        if [perm[v - 1] for v in perm] == rows and [perm[m - v] for v in perm] == rows[::-1]:
            return
        for i in rows:  # the first failing index picks the message
            if perm[perm[i - 1] - 1] != i:
                raise ClanError("placement is not symmetric across the main diagonal")
            if perm[m - perm[i - 1]] != m + 1 - i:
                raise ClanError("placement is not symmetric across the antidiagonal")

    @property
    def size(self) -> int:
        return len(self.perm)

    def to_json_dict(self) -> dict:
        return {"size": self.size, "perm": list(self.perm)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RookPlacement":
        perm, size = json_fields(data, "placement", {"perm": list, "size": int})
        if len(perm) != size:
            raise ClanError(f"perm has {len(perm)} entries, size says {size}")
        return cls(tuple(perm))


def pyramid_to_placement(pyramid: Pyramid) -> RookPlacement:
    """Unfold across both diagonals into the full board. A rook writes
    its orbit under both reflections, and a pyramid covers each index
    once, so each column gets one row: the board holds."""
    m = 2 * pyramid.n
    perm = [0] * m  # perm[col - 1] is the row of the rook in column col
    for side, r, j in pyramid.rooks:
        c = j if side == LEFT else m + 1 - j
        for row, col in ((r, c), (c, r), (m + 1 - c, m + 1 - r), (m + 1 - r, m + 1 - c)):
            perm[col - 1] = row
    return _unchecked(RookPlacement, tuple(perm))


def _triangle(perm: Sequence[int]) -> list[tuple[str, int, int]]:
    """The board's rooks in its bottom triangle (r <= c, r <= m+1-c) as
    ``(side, row, col)`` cells, apex row first, bucketed by row: column
    c <= n is (L, r, c), column c > n is (R, r, m+1-c). A placement's
    ``perm`` is a permutation, so no row holds two rooks."""
    m = len(perm)
    if m % 2 != 0:
        raise ClanError("pyramid extraction requires an even board size")
    n = m // 2
    by_row: list[tuple[str, int, int] | None] = [None] * (n + 1)
    for c, r in enumerate(perm, start=1):
        if r <= c and r <= m + 1 - c:
            by_row[r] = (LEFT, r, c) if c <= n else (RIGHT, r, m + 1 - c)
    return [cell for cell in reversed(by_row) if cell is not None]


def placement_to_clan(placement: RookPlacement) -> DIIIClan:
    """Of the two pyramids of a placement, decode the one giving a DIII clan.

    The rooks are read off the board (``_triangle``); no ``Pyramid`` is
    built, and the decode enforces the pyramid's coverage rule. The
    mirror's scan is the scan with the switch starting RIGHT. Each flip
    trades sides, so a scan has an even flip count exactly when it ends on
    its starting side: the start to decode is the side of the last rook,
    in row 1.
    """
    cells = _triangle(placement.perm)
    return _decode(len(placement.perm) // 2, cells, cells[-1][0] if cells else LEFT)


def rotate_placement(placement: RookPlacement) -> RookPlacement:
    """The quarter-turn image: the other representative of the equivalence
    class of a doubly symmetric placement: w0(i) = m+1-i after it, which
    commutes with it, so the image holds."""
    m = placement.size
    return _unchecked(RookPlacement, tuple(m + 1 - r for r in placement.perm))


def extend_odd(placement: RookPlacement) -> RookPlacement:
    """Insert a central row and column holding the forced central rook."""
    m = placement.size
    if m % 2 != 0:
        raise ClanError("extend_odd expects an even board size")
    n = m // 2
    perm = []
    for c in range(1, m + 2):
        if c == n + 1:
            perm.append(n + 1)
            continue
        old_c = c if c <= n else c - 1
        r = placement.perm[old_c - 1]
        perm.append(r if r <= n else r + 1)
    return RookPlacement(tuple(perm))


@dataclass(frozen=True)
class PartitionPair:
    """A two-block partition {left, right} of {1..n} together with a
    partition into blocks of size at most two, meeting each of left/right
    in at most one point per block."""

    left: frozenset[int]
    right: frozenset[int]
    blocks: frozenset[frozenset[int]]

    def __post_init__(self):
        left, right, blocks = self.left, self.right, self.blocks
        if not (
            type(left) is type(right) is type(blocks) is frozenset
            and {*map(type, blocks)} <= {frozenset}
            and {*map(type, chain(left, right, *blocks))} <= {int}
        ):
            raise ClanError(
                "partition pair sides and blocks must be frozensets of ints, "
                f"got {left!r}, {right!r}, {blocks!r}"
            )
        n = len(left) + len(right)
        if not left or not right:
            raise ClanError("both partition blocks must be nonempty")
        if not left.isdisjoint(right):
            raise ClanError("partition blocks overlap")
        # n distinct ints cover 1..n exactly when all lie in it
        if min(min(left), min(right)) < 1 or max(max(left), max(right)) > n:
            raise ClanError(f"partition blocks must cover 1..{n}")
        covered: set[int] = set()
        for block in blocks:  # one pass, allocating no set per block
            if not 1 <= len(block) <= 2:
                raise ClanError(f"block {set(block)} has more than two elements")
            if not covered.isdisjoint(block):
                raise ClanError("second partition has overlapping blocks")
            covered |= block
            if len(block) == 2 and (block <= left or block <= right):
                raise ClanError(
                    f"block {set(block)} does not straddle the two-block partition"
                )
        if len(covered) != n or min(covered) < 1 or max(covered) > n:
            raise ClanError(f"second partition must cover 1..{n}")

    @property
    def n(self) -> int:
        return len(self.left) + len(self.right)

    def partition(self) -> frozenset[frozenset[int]]:
        """The two-block partition with the side labels forgotten."""
        return frozenset({self.left, self.right})

    def to_json_dict(self) -> dict:
        return {
            "p": [sorted(self.left), sorted(self.right)],
            "pprime": sorted(
                (sorted(b) for b in self.blocks), key=lambda b: (b[0], len(b))
            ),
        }


def pyramid_to_partition_pair(pyramid: Pyramid) -> PartitionPair:
    """Diagonal rooks put their index on their own side; off-diagonal rooks
    put the column index on their side and the row index opposite.  Blocks
    are the rook coordinate sets. A pyramid covers each index once, so
    sides and blocks partition 1..n and a block straddles: the pair holds."""
    left, right, blocks = set(), set(), set()
    for side, row, col in pyramid.rooks:
        own, other = (left, right) if side == LEFT else (right, left)
        own.add(col)
        if row != col:
            other.add(row)
        blocks.add(frozenset({row, col}))
    if not left or not right:
        raise ClanError(
            "pyramid of the all-plus-then-all-minus clan has no partition pair"
        )
    return _unchecked(PartitionPair, frozenset(left), frozenset(right), frozenset(blocks))


def partition_pair_to_pyramid(pair: PartitionPair) -> Pyramid:
    """Rebuild the pyramid: a block {i, j}, i <= j, gives a rook in row i,
    column j on the side of j, so a singleton gives a diagonal rook. The
    blocks partition 1..n, so the pyramid holds."""
    rooks = []
    for block in pair.blocks:
        i, j = block if len(block) == 2 else (*block, *block)
        if i > j:
            i, j = j, i
        rooks.append((LEFT if j in pair.left else RIGHT, i, j))
    return _unchecked(Pyramid, pair.n, frozenset(rooks))
