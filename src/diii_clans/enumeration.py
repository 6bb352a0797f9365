"""Exhaustive generation and exact counting of DIII (n,n)-clans.

All counting is done with Python's arbitrary-precision integers, so the
results are bit-exact at any size.  The generator builds each clan once,
sect by sect: from the first-half signs of a matchless base, it matches
some ``-`` positions with later first-half positions, so every clan of
that sect comes from exactly one set of such choices.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import product
from math import comb, factorial
from typing import Iterator, Mapping, Sequence

from .clans import MINUS, PLUS, Clan, ClanError, DIIIClan, Symbol

#: Number of DIII (n,n)-clans for n = 1, 2, 3, ...
KNOWN_COUNTS = (1, 3, 10, 38, 156, 692, 3256)


def count_by_pairs(n: int, r: int) -> int:
    """Number of DIII (n,n)-clans with exactly 2r mate pairs.

    Equals 2^(n-2r-1) * C(n, 2r) * (2r)!/r!; for n = 2r the leading factor
    is 1/2 and the product is still an integer.
    """
    if n < 1:
        raise ClanError(f"n must be positive, got {n}")
    if not 0 <= 2 * r <= n:
        raise ClanError(f"pair count r={r} out of range for n={n}")
    ways = comb(n, 2 * r) * (factorial(2 * r) // factorial(r))
    if n - 2 * r - 1 >= 0:
        return ways << (n - 2 * r - 1)
    # n == 2r with r >= 1: (2r)!/r! is even
    return ways >> 1


def count_formula(n: int) -> int:
    """Total count as the sum of per-pair-count terms."""
    if n < 1:
        raise ClanError(f"n must be positive, got {n}")
    return sum(count_by_pairs(n, r) for r in range(n // 2 + 1))


def count_recurrence(n: int) -> int:
    """Total count via D(n) = 2 D(n-1) + (2n-2) D(n-2), seeded D(1)=1, D(2)=3.

    D(0) = 1 by convention.
    """
    if n < 0:
        raise ClanError(f"n must be nonnegative, got {n}")
    prev, cur = 1, 1  # D(0), D(1): both 1, so n = 0 returns cur as well
    if n >= 2:
        prev, cur = cur, 3
    for k in range(3, n + 1):
        prev, cur = cur, 2 * cur + (2 * k - 2) * prev
    return cur


def assemble_clan(
    n: int,
    contained_pairs: Sequence[tuple[int, int]],
    straddling_pairs: Sequence[tuple[int, int]],
    signs: Mapping[int, str],
) -> DIIIClan:
    """Build a DIII clan from first-half data; the second half follows by
    skew-symmetry.

    This is the package's one place for skew-symmetric completion: the
    generator and every decoder from first-half data build through it.

    ``contained_pairs`` are mate pairs (i, j) with i < j <= n; each also
    yields the mirror pair (2n+1-j, 2n+1-i) in the second half.
    ``straddling_pairs`` (i, j) with i < j <= n put mates at (i, 2n+1-j)
    and (j, 2n+1-i).  ``signs`` assigns ``+``/``-`` to the remaining
    first-half positions, and the opposite sign lands at 2n+1-p.

    Every position must be assigned exactly once; then the result is a
    balanced clan, skew-symmetric, with no antipodal mates, by
    construction: each pair and sign is placed with its mirror, each pair
    is labelled by a position only it occupies, and a mate pair (i, j) or
    (i, 2n+1-j) with i < j <= n never sums to 2n+1. The one DIII condition
    the inputs can break is first-half parity, checked here: the minus
    signs plus the contained pairs must be even. The clan is then built
    without re-validation (``DIIIClan._trusted``).
    """
    m = 2 * n + 1
    syms: list[Symbol | None] = [None] * (2 * n)

    def place(label: int, p: int, q: int) -> None:
        for pos in (p, q):
            if syms[pos - 1] is not None:
                raise ClanError(f"position {pos} assigned twice")
        syms[p - 1] = syms[q - 1] = label

    # a pair is labelled by its first position; Clan renumbers the labels
    for i, j in contained_pairs:
        if not 1 <= i < j <= n:
            raise ClanError(f"contained pair {(i, j)} out of range")
        place(i, i, j)
        place(m - j, m - j, m - i)
    for i, j in straddling_pairs:
        if not 1 <= i < j <= n:
            raise ClanError(f"straddling pair {(i, j)} out of range")
        place(i, i, m - j)
        place(j, j, m - i)
    for pos, sign in signs.items():
        if not 1 <= pos <= n:
            raise ClanError(f"sign position {pos} out of range")
        if sign not in (PLUS, MINUS):
            raise ClanError(f"bad sign {sign!r}")
        if syms[pos - 1] is not None:
            raise ClanError(f"position {pos} assigned twice")
        syms[pos - 1], syms[m - 1 - pos] = sign, MINUS if sign == PLUS else PLUS
    if None in syms:
        missing = [p for p, s in enumerate(syms, start=1) if s is None]
        raise ClanError(f"positions {missing} left unassigned")
    if not syms:
        raise ClanError("a clan must contain at least two symbols")
    minus = sum(1 for sign in signs.values() if sign == MINUS)
    if (minus + len(contained_pairs)) % 2 != 0:
        raise ClanError(
            f"not a DIII clan: odd parity in the first half ({minus} minus signs, "
            f"{len(contained_pairs)} contained pairs)"
        )
    return DIIIClan._trusted(syms)


@dataclass(frozen=True)
class ClanSet:
    """The full set of DIII (n,n)-clans, sorted by spaced text."""

    n: int
    clans: tuple[DIIIClan, ...]

    def __len__(self) -> int:
        return len(self.clans)

    def __iter__(self) -> Iterator[DIIIClan]:
        return iter(self.clans)

    @cached_property
    def _index(self) -> dict[tuple[Symbol, ...], int]:
        """Position in ``clans`` by ``Clan._key``, built on the first
        lookup; its keys come in the order of ``clans``."""
        return {c._key(): k for k, c in enumerate(self.clans)}

    def __contains__(self, clan: object) -> bool:
        return isinstance(clan, Clan) and clan._key() in self._index


def generate_sect(signs: Sequence[str]) -> Iterator[DIIIClan]:
    """Yield each clan of the sect whose base has first-half ``signs`` once,
    unsorted: each position p keeps its sign, or a ``-`` at p takes a later
    free position q, as the contained pair (p, q) when q holds ``+`` and the
    straddling pair (p, q) when q holds ``-``.  Both keep the parity."""

    def grow(free, contained, straddling, kept):
        if not free:
            yield assemble_clan(len(signs), contained, straddling, kept)
            return
        p, rest = free[0], free[1:]
        yield from grow(rest, contained, straddling, {**kept, p: signs[p - 1]})
        if signs[p - 1] == MINUS:
            for k, q in enumerate(rest):
                later = rest[:k] + rest[k + 1 :]
                if signs[q - 1] == PLUS:
                    yield from grow(later, contained + [(p, q)], straddling, kept)
                else:
                    yield from grow(later, contained, straddling + [(p, q)], kept)

    return grow(tuple(range(1, len(signs) + 1)), [], [], {})


def sect_signs(n: int) -> Iterator[tuple[str, ...]]:
    """First-half signs of each matchless DIII (n,n)-clan, the base of one
    sect: the 2^(n-1) sign patterns with an even number of ``-``."""
    if n < 1:
        raise ClanError(f"n must be positive, got {n}")
    return (s for s in product((PLUS, MINUS), repeat=n) if s.count(MINUS) % 2 == 0)


def generate_diii(n: int) -> Iterator[DIIIClan]:
    """Yield every DIII (n,n)-clan exactly once (unsorted), sect by sect."""
    for signs in sect_signs(n):
        yield from generate_sect(signs)


def enumerate_diii(n: int) -> ClanSet:
    """All DIII (n,n)-clans, sorted by spaced text."""
    return ClanSet(n, tuple(sorted(generate_diii(n), key=Clan.spaced)))
