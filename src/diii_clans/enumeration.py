"""Exhaustive generation and exact counting of DIII (n,n)-clans.

All counting is done with Python's arbitrary-precision integers, so the
results are bit-exact at any size.  The generator writes each clan once,
sect by sect, as its key (``Clan._key``: per position, the sign or the
1-based mate position): from the first-half signs of a matchless base, it
matches some ``-`` positions with later first-half positions, so every
clan of that sect comes from exactly one set of such choices.  A
``ClanSet`` keeps the keys beside their spaced texts, each rendered once
and used both as the sort key and as the output; a ``DIIIClan`` is built
from a key only when one is asked for.  Every key written from first-half
data, here, in the decoders and in the weak-order collapse, goes through
the two writers of the mirror rule, ``_put_sign`` and ``_put_pair``.
"""

from __future__ import annotations

from bisect import bisect_left
from functools import cached_property
from itertools import product
from math import comb, factorial
from typing import Iterator, Mapping, Sequence

from .clans import MINUS, PLUS, Clan, ClanError, DIIIClan, Key, Record, Symbol, spaced_texts

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


def _put_sign(key: list, p: int, sign: str) -> None:
    """``sign`` at position p, the opposite sign at its mirror 2n+1-p (the
    index -p from the end)."""
    key[p - 1], key[-p] = sign, MINUS if sign == PLUS else PLUS


def _put_pair(key: list, p: int, q: int) -> None:
    """Mates at p and q, and the mirror pair at 2n+1-q and 2n+1-p."""
    m = len(key) + 1
    key[p - 1], key[q - 1], key[-q], key[-p] = q, p, m - p, m - q


def assemble_clan(
    n: int,
    contained_pairs: Sequence[tuple[int, int]],
    straddling_pairs: Sequence[tuple[int, int]],
    signs: Mapping[int, str],
) -> DIIIClan:
    """The DIII clan with the given first-half data, its key written with
    ``_put_pair`` and ``_put_sign`` (the second half by skew-symmetry) and
    built without re-validation (``DIIIClan._from_key``).

    ``contained_pairs`` are mate pairs (i, j) with i < j <= n; each also
    yields the mirror pair (2n+1-j, 2n+1-i) in the second half.
    ``straddling_pairs`` (i, j) with i < j <= n put mates at (i, 2n+1-j)
    and (j, 2n+1-i).  ``signs`` assigns ``+``/``-`` to the remaining
    first-half positions, and the opposite sign lands at 2n+1-p.

    Every position must be assigned exactly once; then the key is that of a
    balanced clan, skew-symmetric, with no antipodal mates, by
    construction: each pair and sign is placed with its mirror, and a mate
    pair (i, j) or (i, 2n+1-j) with i < j <= n never sums to 2n+1. The one
    DIII condition the inputs can break is first-half parity, checked here:
    the minus signs plus the contained pairs must be even.

    "position p assigned twice" names the first taken of i, j, 2n+1-j,
    2n+1-i (contained) or i, 2n+1-j, j, 2n+1-i (straddling). Every write
    fills the mirror too, so only the first-half entries are read.
    """
    m = 2 * n + 1
    key: list[Symbol | None] = [None] * (2 * n)
    for i, j in contained_pairs:
        if not 1 <= i < j <= n:
            raise ClanError(f"contained pair {(i, j)} out of range")
        if key[i - 1] is not None or key[j - 1] is not None:
            raise ClanError(f"position {i if key[i - 1] is not None else j} assigned twice")
        _put_pair(key, i, j)
    for i, j in straddling_pairs:
        if not 1 <= i < j <= n:
            raise ClanError(f"straddling pair {(i, j)} out of range")
        if key[i - 1] is not None or key[j - 1] is not None:
            raise ClanError(f"position {i if key[i - 1] is not None else m - j} assigned twice")
        _put_pair(key, i, m - j)
    minus = 0
    for pos, sign in signs.items():
        if not 1 <= pos <= n:
            raise ClanError(f"sign position {pos} out of range")
        if sign not in (PLUS, MINUS):
            raise ClanError(f"bad sign {sign!r}")
        if key[pos - 1] is not None:
            raise ClanError(f"position {pos} assigned twice")
        minus += sign == MINUS
        _put_sign(key, pos, sign)
    if None in key:
        missing = [p for p, s in enumerate(key, start=1) if s is None]
        raise ClanError(f"positions {missing} left unassigned")
    if not key:
        raise ClanError("a clan must contain at least two symbols")
    if (minus + len(contained_pairs)) % 2 != 0:
        raise ClanError(
            f"not a DIII clan: odd parity in the first half ({minus} minus signs, "
            f"{len(contained_pairs)} contained pairs)"
        )
    return DIIIClan._from_key(tuple(key))


def base_key(signs: Sequence[str]) -> Key:
    """Key of the matchless clan with first-half ``signs``."""
    key: list = [None] * (2 * len(signs))
    for p, sign in enumerate(signs, start=1):
        _put_sign(key, p, sign)
    return tuple(key)


class ClanSet(Record):
    """A set of DIII (n,n)-clans, sorted by spaced text, kept as their keys
    (``Clan._key``) beside each key's spaced text, rendered once. The clans
    themselves are built on first access to ``clans``."""

    n: int
    keys: tuple[Key, ...]
    texts: tuple[str, ...]

    @classmethod
    def from_keys(cls, n: int, keys: Sequence[Key]) -> "ClanSet":
        """The set of clans with the given keys, each key's text rendered
        once and used as its sort key."""
        texts = spaced_texts(n, keys)
        order = sorted(range(len(keys)), key=texts.__getitem__)
        return cls(n, tuple(keys[k] for k in order), tuple(texts[k] for k in order))

    @cached_property
    def clans(self) -> tuple[DIIIClan, ...]:
        """The clans, in the order of ``keys``, built on first access."""
        return tuple(map(DIIIClan._from_key, self.keys))

    def __len__(self) -> int:
        return len(self.keys)

    def __iter__(self) -> Iterator[DIIIClan]:
        return iter(self.clans)

    def __contains__(self, clan: object) -> bool:
        """Whether ``clan`` is in the set: its spaced text is bisected into
        ``texts`` and the key found there compared with its own."""
        if not isinstance(clan, Clan):
            return False
        k = bisect_left(self.texts, clan.spaced())
        return k < len(self.keys) and self.keys[k] == clan._key()


def sect_keys(signs: Sequence[str]) -> list[Key]:
    """The key of each clan of the sect whose base has first-half ``signs``,
    once each, unsorted: each position p keeps its sign, or a ``-`` at p
    takes a later free position q, as the contained pair (p, q) when q holds
    ``+`` and the straddling pair (p, q), mates at p and 2n+1-q, when q
    holds ``-``.  Both keep the parity, so every key is DIII.

    One list is written in place down the choices; every choice writes its
    positions and their mirrors, so at a leaf each entry is this path's."""
    m = 2 * len(signs) + 1
    key: list = [None] * (m - 1)
    keys: list[Key] = []

    def grow(free: tuple[int, ...]) -> None:
        if not free:
            keys.append(tuple(key))
            return
        p, rest = free[0], free[1:]
        _put_sign(key, p, signs[p - 1])
        grow(rest)
        if signs[p - 1] == MINUS:
            for k, q in enumerate(rest):
                _put_pair(key, p, q if signs[q - 1] == PLUS else m - q)
                grow(rest[:k] + rest[k + 1 :])

    grow(tuple(range(1, len(signs) + 1)))
    return keys


def sect_signs(n: int) -> Iterator[tuple[str, ...]]:
    """First-half signs of each matchless DIII (n,n)-clan, the base of one
    sect: the 2^(n-1) sign patterns with an even number of ``-``."""
    if n < 1:
        raise ClanError(f"n must be positive, got {n}")
    return (s for s in product((PLUS, MINUS), repeat=n) if s.count(MINUS) % 2 == 0)


def generate_diii(n: int) -> Iterator[DIIIClan]:
    """Yield every DIII (n,n)-clan exactly once (unsorted), sect by sect,
    each built from its key (``sect_keys``) as it is reached."""
    for signs in sect_signs(n):
        yield from map(DIIIClan._from_key, sect_keys(signs))


def enumerate_diii(n: int) -> ClanSet:
    """All DIII (n,n)-clans, sorted by spaced text, as keys written sect by
    sect (``sect_keys``); no clan is built until ``clans`` is read."""
    return ClanSet.from_keys(n, [k for signs in sect_signs(n) for k in sect_keys(signs)])
