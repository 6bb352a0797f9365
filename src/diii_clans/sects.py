"""Sect decomposition: clans grouped by base clan, the subset encoding of
matchless clans, and the big-sect bijection with partial fixed-point-free
involutions.

Each sect is generated from its base's first-half signs as keys
(``enumeration.sect_keys``) and kept as a ``ClanSet``; its base stays a
key, and its members are built as clans only when read."""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Iterator

from .clans import MINUS, PLUS, ClanError, DIIIClan, Key, ascii_int
from .enumeration import ClanSet, _put_pair, _put_sign, base_key, sect_keys, sect_signs


@dataclass(frozen=True)
class SchubertSubset:
    """An n-element subset of {1..2n} avoiding antipodal position pairs and
    dropping an even number of first-half positions."""

    n: int
    members: frozenset[int]

    def __post_init__(self):
        n = self.n
        if type(n) is not int:
            raise ClanError(f"subset size must be an int, got {n!r}")
        if type(self.members) is not frozenset or not all(
            type(i) is int for i in self.members
        ):
            raise ClanError(f"subset members must be a frozenset of ints, got {self.members!r}")
        if len(self.members) != n:
            raise ClanError(f"subset must have exactly {n} elements")
        for i in self.members:
            if not 1 <= i <= 2 * n:
                raise ClanError(f"element {i} outside 1..{2 * n}")
            if 2 * n + 1 - i in self.members:
                raise ClanError(
                    f"antipodal elements {i} and {2 * n + 1 - i} both present"
                )
        dropped = sum(1 for i in range(1, n + 1) if i not in self.members)
        if dropped % 2 != 0:
            raise ClanError(
                f"odd number of first-half positions missing ({dropped})"
            )


def subset_to_base_clan(subset: SchubertSubset) -> DIIIClan:
    """Plus at member positions, minus elsewhere."""
    return DIIIClan(
        PLUS if i in subset.members else MINUS
        for i in range(1, 2 * subset.n + 1)
    )


def base_clan_to_subset(base: DIIIClan) -> SchubertSubset:
    """Positions of the plus signs of a matchless DIII clan."""
    if not base.is_matchless():
        raise ClanError("expected a matchless clan")
    members = frozenset(
        i for i, s in enumerate(base._key(), start=1) if s == PLUS
    )
    return SchubertSubset(base.n, members)


@dataclass(frozen=True)
class Sect:
    """All clans sharing one matchless base clan: the base's key and the
    members as a ``ClanSet``, built as clans only when read."""

    base_key: Key
    clans: ClanSet

    @property
    def members(self) -> tuple[DIIIClan, ...]:
        """The member clans, sorted by spaced text, built on first access."""
        return self.clans.clans

    def __len__(self) -> int:
        return len(self.clans)

    def __iter__(self) -> Iterator[DIIIClan]:
        return iter(self.members)


def _sect(signs: tuple[str, ...]) -> Sect:
    """The sect of the matchless base with first-half ``signs``, its members
    written as keys (``sect_keys``) and sorted by spaced text."""
    return Sect(base_key(signs), ClanSet.from_keys(len(signs), sect_keys(signs)))


def sects(n: int) -> list[Sect]:
    """Partition of all DIII (n,n)-clans by base clan, sorted by base (its
    first-half signs sort as its text does); no clan is built until a
    sect's ``members`` are read."""
    return [_sect(signs) for signs in sorted(sect_signs(n))]


def sect_sizes(n: int) -> list[tuple[str, int]]:
    """The base text and size of each sect, in the order of ``sects(n)``,
    with no clan built.

    A sect's size counts the choices ``sect_keys`` makes: the partial
    matchings of the first half in which each pair opens at a ``-``. Left
    to right, a position keeps its sign, closes one of the k pairs still
    open (k ways), or, at a ``-``, opens one more; ``ways[k]`` counts the
    prefixes that leave k open, and the size is ``ways[0]`` at the end.
    """
    sizes = []
    for signs in sect_signs(n):
        ways = [1]
        for sign in signs:
            grown = ways + [0]  # keep the sign
            for k in range(1, len(ways)):
                grown[k - 1] += k * ways[k]  # close one of the k open pairs
            if sign == MINUS:
                for k, w in enumerate(ways):
                    grown[k + 1] += w  # open one more
            ways = grown
        sizes.append(("".join(base_key(signs)), ways[0]))
    return sorted(sizes)


def _big_sect_signs(n: int) -> tuple[str, ...]:
    """First-half signs of the big sect's base: minus everywhere except a
    plus at position n when n is odd."""
    if n < 1:
        raise ClanError(f"n must be positive, got {n}")
    return tuple(PLUS if p == n and n % 2 == 1 else MINUS for p in range(1, n + 1))


def big_sect_base(n: int) -> DIIIClan:
    """Base clan of the sect over the dense cell: all minus then all plus,
    with the two middle signs traded when n is odd."""
    return DIIIClan._from_key(base_key(_big_sect_signs(n)))


def big_sect(n: int) -> Sect:
    """The sect containing the unique maximal clan, generated from its base
    (e(n) clans, not D(n)) and sorted by spaced text."""
    return _sect(_big_sect_signs(n))


def epsilon_count(n: int) -> int:
    """Size of the big sect: sum over r of n! / ((n-2r)! r! 2^r), the
    involution numbers."""
    if n < 0:
        raise ClanError(f"n must be nonnegative, got {n}")
    return sum(
        factorial(n) // (factorial(n - 2 * r) * factorial(r) * 2**r)
        for r in range(n // 2 + 1)
    )


def epsilon_recurrence(n: int) -> int:
    """Same count via e(n) = e(n-1) + (n-1) e(n-2), e(0) = e(1) = 1."""
    if n < 0:
        raise ClanError(f"n must be nonnegative, got {n}")
    prev, cur = 1, 1
    for k in range(2, n + 1):
        prev, cur = cur, cur + (k - 1) * prev
    return cur


@dataclass(frozen=True)
class PartialFPFInvolution:
    """A symmetric partial matching of {1..n} with no fixed points.

    ``values[i-1]`` is the partner of i, or 0 when i is unmatched.
    """

    values: tuple[int, ...]

    def __post_init__(self):
        if type(self.values) is not tuple:
            raise ClanError(f"pfpf values must be a tuple, got {self.values!r}")
        n = len(self.values)
        for i, v in enumerate(self.values, start=1):
            if type(v) is not int:
                raise ClanError(f"value {v!r} is not an int")
            if not 0 <= v <= n:
                raise ClanError(f"value {v} outside 0..{n}")
            if v == i:
                raise ClanError(f"fixed point at {i}")
            if v != 0 and self.values[v - 1] != i:
                raise ClanError(f"not symmetric at ({i}, {v})")

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        return self.values[i - 1]

    def blocks(self) -> list[tuple[int, int]]:
        return [
            (i, v) for i, v in enumerate(self.values, start=1) if 0 < i < v
        ]

    def to_text(self) -> str:
        """Comma-joined ``i:j`` blocks; empty string for the empty matching."""
        return ",".join(f"{i}:{j}" for i, j in self.blocks())

    @classmethod
    def from_text(cls, text: str, n: int) -> "PartialFPFInvolution":
        values = [0] * n
        cleaned = text.strip()
        if cleaned:
            for chunk in cleaned.split(","):
                ends = [ascii_int(e) for e in chunk.split(":")]
                if len(ends) != 2 or None in ends:
                    raise ClanError(f"bad block {chunk!r}; expected i:j")
                a, b = ends
                if not (1 <= a <= n and 1 <= b <= n):
                    raise ClanError(f"block {chunk!r} outside 1..{n}")
                if values[a - 1] or values[b - 1]:
                    raise ClanError(f"element reused in block {chunk!r}")
                values[a - 1], values[b - 1] = b, a
        return cls(tuple(values))


def clan_to_pfpf(clan: DIIIClan) -> PartialFPFInvolution:
    """Encode a big-sect clan by its first-half pairs: each family
    (i, j, 2n+1-j, 2n+1-i) links i with min(j, 2n+1-j), which is j for the
    straddling pair (i, j) and n for the contained pair (i, n) of odd n."""
    clan = clan.to_diii()
    n = clan.n
    if clan.signatures() != base_key(_big_sect_signs(n)):
        raise ClanError("clan does not belong to the big sect")
    values = [0] * n
    for (i, j, jj, _) in clan._families():
        partner = min(j, jj)
        values[i - 1], values[partner - 1] = partner, i
    return PartialFPFInvolution(tuple(values))


def pfpf_to_clan(x: PartialFPFInvolution, n: int) -> DIIIClan:
    """Decode into the big sect with the sect generator's writers: an
    unmatched position keeps the big-sect base's sign, and a block (i, j)
    is the contained pair (i, n) when n is odd and j == n, and otherwise
    the straddling pair (i, j), mates at i and 2n+1-j.

    A checked pfpf's blocks are disjoint, so each position is written once.
    The base has an even number of minus signs; a straddling block takes
    two, and the contained pair (i, n) one and the plus at n, so the
    first-half parity stays even."""
    if x.n != n:
        raise ClanError(f"involution is on {x.n} letters, expected {n}")
    key: list = [None] * (2 * n)
    for p, sign in enumerate(_big_sect_signs(n), start=1):
        if not x(p):
            _put_sign(key, p, sign)
    for i, j in x.blocks():
        _put_pair(key, i, j if j == n and n % 2 == 1 else 2 * n + 1 - j)
    return DIIIClan._from_key(tuple(key))
