"""Pyramids, doubly symmetric rook placements, and set-partition pairs.

A pyramid is the bottom triangle of a 2n x 2n board cut out by both main
diagonals, with rows numbered 1 (longest) to n (apex) and a left/right cell
in row i for each column index i..n on either side of the center line.
Unfolding a pyramid across both diagonals recovers a placement of 2n
non-attacking rooks invariant under both reflections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .clans import MINUS, PLUS, ClanError, DIIIClan, Involution, json_fields
from .enumeration import assemble_clan

LEFT = "L"
RIGHT = "R"


class PyramidParityError(ClanError):
    """The decoded clan violates the sign-parity rule; the mirror pyramid
    of the same placement is the one that decodes."""


@dataclass(frozen=True, order=True)
class PyramidCell:
    side: str
    row: int
    col: int

    def __post_init__(self):
        if self.side not in (LEFT, RIGHT):
            raise ClanError(f"side must be {LEFT!r} or {RIGHT!r}")
        if type(self.row) is not int or type(self.col) is not int:
            raise ClanError(f"cell row and col must be ints, got {self.row!r}, {self.col!r}")
        if not 1 <= self.row <= self.col:
            raise ClanError(f"cell ({self.side},{self.row},{self.col}) needs row <= col")

    def mirrored(self) -> "PyramidCell":
        return PyramidCell(RIGHT if self.side == LEFT else LEFT, self.row, self.col)


@dataclass(frozen=True)
class Pyramid:
    """Rooks in the triangle, one touching each of the indices 1..n.

    Every k in 1..n must occur in the {row, col} set of exactly one rook;
    in particular no two rooks share a row.
    """

    n: int
    rooks: frozenset[PyramidCell]

    def __post_init__(self):
        if type(self.n) is not int:
            raise ClanError(f"pyramid size must be an int, got {self.n!r}")
        if type(self.rooks) is not frozenset or not all(
            isinstance(cell, PyramidCell) for cell in self.rooks
        ):
            raise ClanError(f"pyramid rooks must be a frozenset of cells, got {self.rooks!r}")
        seen: dict[int, PyramidCell] = {}
        for cell in self.rooks:
            if cell.col > self.n:
                raise ClanError(f"cell {cell} outside pyramid of size {self.n}")
            for k in {cell.row, cell.col}:
                if k in seen:
                    raise ClanError(f"index {k} covered by both {seen[k]} and {cell}")
                seen[k] = cell
        missing = [k for k in range(1, self.n + 1) if k not in seen]
        if missing:
            raise ClanError(f"indices {missing} not covered by any rook")

    def __iter__(self) -> Iterator[PyramidCell]:
        return iter(sorted(self.rooks))

    def mirror(self) -> "Pyramid":
        return Pyramid(self.n, frozenset(c.mirrored() for c in self.rooks))

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "rooks": [
                {"side": c.side, "i": c.row, "j": c.col} for c in sorted(self.rooks)
            ],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "Pyramid":
        n, rooks = json_fields(data, "pyramid", {"n": int, "rooks": list})
        cells = (json_fields(r, "pyramid", {"side": str, "i": int, "j": int}) for r in rooks)
        return cls(n, frozenset(PyramidCell(*fields) for fields in cells))


def clan_to_pyramid(clan: DIIIClan) -> Pyramid:
    """Scan the first half from position n down to 1, placing one rook per
    surviving symbol.  The switch starts on the left and trades sides at
    every minus sign and at the opening mate of every contained pair."""
    clan = clan.to_diii()
    n = clan.n
    switch = LEFT
    rooks: list[PyramidCell] = []
    key = clan._key()
    for i in range(n, 0, -1):
        j = key[i - 1]  # the sign at i, or the mate position
        if j == PLUS:
            rooks.append(PyramidCell(switch, i, i))
        elif j == MINUS:
            switch = RIGHT if switch == LEFT else LEFT
            rooks.append(PyramidCell(switch, i, i))
        elif j > n and 2 * n + 1 - j > i:
            rooks.append(PyramidCell(switch, i, 2 * n + 1 - j))
        elif i < j <= n:
            switch = RIGHT if switch == LEFT else LEFT
            rooks.append(PyramidCell(switch, i, j))
        # otherwise the pair is recorded at another row
    return Pyramid(n, frozenset(rooks))


def pyramid_to_clan(pyramid: Pyramid) -> DIIIClan:
    """Replay the construction scan top-down, tracking the switch.

    A rook on the scanning side means no switch flip happened (a plus sign,
    or a straddling pair); a rook on the other side means a flip (a minus
    sign, or a contained pair).  A rook at (i, i) is a sign at i, and one
    at (i, col) is the first-half pair (i, col).  Raises PyramidParityError
    when the decoded clan fails the parity rule, in which case the mirror
    pyramid decodes.
    """
    switch = LEFT
    flips = 0
    contained: list[tuple[int, int]] = []
    straddling: list[tuple[int, int]] = []
    signs: dict[int, str] = {}
    for cell in sorted(pyramid.rooks, key=lambda c: -c.row):
        flipped = cell.side != switch
        if flipped:
            switch = cell.side
            flips += 1
        if cell.col == cell.row:
            signs[cell.row] = MINUS if flipped else PLUS
        else:
            (contained if flipped else straddling).append((cell.row, cell.col))
    # each flip puts a minus sign or a contained pair in the first half, so
    # the parity rule holds exactly when the flip count is even
    if flips % 2 != 0:
        raise PyramidParityError(
            "decoded clan violates the parity rule; reflect the pyramid"
        )
    return assemble_clan(pyramid.n, contained, straddling, signs)


@dataclass(frozen=True)
class RookPlacement:
    """Permutation matrix symmetric across both main diagonals.

    ``perm[c-1]`` is the 1-based row of the rook in column c; the placement
    must be an involution (diagonal symmetry) satisfying
    perm(m+1-perm(i)) = m+1-i (antidiagonal symmetry).
    """

    perm: tuple[int, ...]

    def __post_init__(self):
        if type(self.perm) is not tuple:
            raise ClanError(f"placement perm must be a tuple, got {self.perm!r}")
        m = len(self.perm)
        ints = all(type(v) is int for v in self.perm)  # True == 1 passes the sort test
        if not ints or sorted(self.perm) != list(range(1, m + 1)):
            raise ClanError(f"{self.perm} is not a permutation of 1..{m}")
        for i in range(1, m + 1):
            if self.perm[self.perm[i - 1] - 1] != i:
                raise ClanError("placement is not symmetric across the main diagonal")
            if self.perm[m - self.perm[i - 1]] != m + 1 - i:
                raise ClanError("placement is not symmetric across the antidiagonal")

    @property
    def size(self) -> int:
        return len(self.perm)

    def cells(self) -> list[tuple[int, int]]:
        """(row, column) pairs, one per rook."""
        return [(r, c) for c, r in enumerate(self.perm, start=1)]

    def to_json_dict(self) -> dict:
        return {"size": self.size, "perm": list(self.perm)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "RookPlacement":
        perm, size = json_fields(data, "placement", {"perm": list, "size": int})
        if len(perm) != size:
            raise ClanError(f"perm has {len(perm)} entries, size says {size}")
        return cls(tuple(perm))


def pyramid_to_placement(pyramid: Pyramid) -> RookPlacement:
    """Unfold across both diagonals into the full board."""
    n = pyramid.n
    m = 2 * n
    column_to_row: dict[int, int] = {}

    def put(row: int, col: int) -> None:
        if column_to_row.setdefault(col, row) != row:
            raise AssertionError("pyramid unfolding produced conflicting rooks")

    for cell in pyramid.rooks:
        r = cell.row
        c = cell.col if cell.side == LEFT else m + 1 - cell.col
        orbit = {(r, c), (c, r), (m + 1 - c, m + 1 - r), (m + 1 - r, m + 1 - c)}
        for (row, col) in orbit:
            put(row, col)
    if len(column_to_row) != m:
        raise AssertionError("pyramid unfolding did not fill the board")
    return RookPlacement(tuple(column_to_row[c] for c in range(1, m + 1)))


def extract_pyramid(placement: RookPlacement) -> Pyramid:
    """The bottom-triangle pyramid of a placement (rows r with r <= c and
    r <= m+1-c)."""
    m = placement.size
    if m % 2 != 0:
        raise ClanError("pyramid extraction requires an even board size")
    n = m // 2
    rooks = []
    for (r, c) in placement.cells():
        if r <= c and r <= m + 1 - c:
            if c <= n:
                rooks.append(PyramidCell(LEFT, r, c))
            else:
                rooks.append(PyramidCell(RIGHT, r, m + 1 - c))
    return Pyramid(n, frozenset(rooks))


def placement_to_clan(placement: RookPlacement) -> DIIIClan:
    """Of the two pyramids of a placement, decode the one giving a DIII clan."""
    pyramid = extract_pyramid(placement)
    decoded: list[DIIIClan] = []
    for candidate in (pyramid, pyramid.mirror()):
        try:
            decoded.append(pyramid_to_clan(candidate))
        except PyramidParityError:
            continue
    if len(decoded) != 1:
        raise AssertionError(
            f"expected exactly one decodable pyramid, got {len(decoded)}"
        )
    return decoded[0]


def rotate_placement(placement: RookPlacement) -> RookPlacement:
    """The quarter-turn image: the other representative of the equivalence
    class of a doubly symmetric placement."""
    m = placement.size
    return RookPlacement(tuple(m + 1 - r for r in placement.perm))


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


def signed_involution_pair(placement: RookPlacement) -> frozenset[Involution]:
    """The unordered pair {v, w0 v} of involutions determined by a doubly
    symmetric placement and its quarter turn."""
    m = placement.size
    v = Involution(placement.perm)
    w0v = Involution(tuple(m + 1 - r for r in placement.perm))
    return frozenset({v, w0v})


@dataclass(frozen=True)
class PartitionPair:
    """A two-block partition {left, right} of {1..n} together with a
    partition into blocks of size at most two, meeting each of left/right
    in at most one point per block."""

    left: frozenset[int]
    right: frozenset[int]
    blocks: frozenset[frozenset[int]]

    def __post_init__(self):
        if type(self.blocks) is not frozenset or not all(
            type(part) is frozenset and all(type(i) is int for i in part)
            for part in (self.left, self.right, *self.blocks)
        ):
            raise ClanError(
                "partition pair sides and blocks must be frozensets of ints, "
                f"got {self.left!r}, {self.right!r}, {self.blocks!r}"
            )
        n = len(self.left) + len(self.right)
        if not self.left or not self.right:
            raise ClanError("both partition blocks must be nonempty")
        if self.left & self.right:
            raise ClanError("partition blocks overlap")
        if self.left | self.right != set(range(1, n + 1)):
            raise ClanError(f"partition blocks must cover 1..{n}")
        covered: set[int] = set()
        for block in self.blocks:
            if not 1 <= len(block) <= 2:
                raise ClanError(f"block {set(block)} has more than two elements")
            if covered & block:
                raise ClanError("second partition has overlapping blocks")
            covered |= block
            if len(block & self.left) > 1 or len(block & self.right) > 1:
                raise ClanError(
                    f"block {set(block)} does not straddle the two-block partition"
                )
        if covered != set(range(1, n + 1)):
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
    are the rook coordinate sets."""
    left: set[int] = set()
    right: set[int] = set()
    blocks: set[frozenset[int]] = set()
    for cell in pyramid.rooks:
        if cell.row == cell.col:
            (left if cell.side == LEFT else right).add(cell.row)
            blocks.add(frozenset({cell.row}))
        else:
            if cell.side == LEFT:
                left.add(cell.col)
                right.add(cell.row)
            else:
                right.add(cell.col)
                left.add(cell.row)
            blocks.add(frozenset({cell.row, cell.col}))
    if not left or not right:
        raise ClanError(
            "pyramid of the all-plus-then-all-minus clan has no partition pair"
        )
    return PartitionPair(frozenset(left), frozenset(right), frozenset(blocks))


def partition_pair_to_pyramid(pair: PartitionPair) -> Pyramid:
    """Rebuild the pyramid: singletons give diagonal rooks on their side;
    a block {i, j} gives a rook in row i, column j on the side of j."""
    rooks = []
    for block in pair.blocks:
        members = sorted(block)
        if len(members) == 1:
            i = members[0]
            rooks.append(PyramidCell(LEFT if i in pair.left else RIGHT, i, i))
        else:
            i, j = members
            rooks.append(PyramidCell(LEFT if j in pair.left else RIGHT, i, j))
    return Pyramid(pair.n, frozenset(rooks))
