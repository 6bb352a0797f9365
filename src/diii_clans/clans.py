"""Core clan data type, its parsing and its DIII conditions.

A clan is a string of ``+``/``-`` signs and paired natural numbers in which
every number appears exactly twice; the two occurrences of a number are
called *mates*.  Only balanced clans (as many ``+`` as ``-``, length ``2n``)
are supported here.  A clan is stored as its key alone (per position, the
sign or the 1-based mate position); its symbols are rendered from the key,
pair labels numbered 1..k in order of first occurrence.

Positions are 1-indexed in every public interface.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right, insort
from collections import Counter
from itertools import islice
from typing import Any, Iterable, Iterator, Mapping, Sequence, TextIO, Union

PLUS = "+"
MINUS = "-"

#: A clan symbol: one of the two sign literals, or a positive integer label.
Symbol = Union[str, int]

#: A clan's key (``Clan._key``): per position, the sign or the 1-based mate
#: position.
Key = tuple[Symbol, ...]


class ClanError(ValueError):
    """Raised for malformed clans and violated preconditions."""


def json_fields(
    data: Any,
    what: str,
    kinds: Mapping[str, type],
) -> list[Any]:
    """The values of the JSON object ``data`` at the keys of ``kinds``, in
    order.  ``data`` must be an object with exactly those keys, and each
    value exactly of its kind, so nothing is coerced or ignored: an int
    field refuses a bool, a float or a string.  Anything malformed raises
    ``ClanError``."""
    if type(data) is not dict:
        raise ClanError(f"malformed {what} JSON: expected an object, got {data!r}")
    values = []
    for key, kind in kinds.items():
        if key not in data:
            raise ClanError(f"malformed {what} JSON: missing key {key!r}")
        value = data[key]
        if type(value) is not kind:
            raise ClanError(f"malformed {what} JSON: {key!r} must be {kind.__name__}, got {value!r}")
        values.append(value)
    for key in data:
        if key not in kinds:
            raise ClanError(f"malformed {what} JSON: unexpected key {key!r}")
    return values


def ascii_int(text: str) -> int | None:
    """The value of ``text`` when it is nothing but ASCII digits, else None.

    ``int()`` alone would take signs, underscores, spaces and other
    scripts' digits, and fails on ``isdigit()`` characters such as ``²``.
    """
    if not (text.isascii() and text.isdigit()):
        return None
    try:
        return int(text)
    except ValueError:  # past the interpreter's int/str digit limit
        return None


def _relabel(symbols: Iterable[Symbol]) -> tuple[Key, int]:
    """The key (``Clan._key``) of a symbol sequence and its number of
    distinct labels, in one pass. A label seen only once leaves a 0 in the
    key, which is meaningful only when every label appears exactly twice."""
    first: dict[Symbol, int] = {}  # raw label -> index of its first occurrence
    key: list[Symbol] = []
    for p, s in enumerate(symbols):
        if s == PLUS or s == MINUS:
            key.append(s)
        elif s in first:
            q = first[s]
            key.append(q + 1)
            key[q] = p + 1
        else:
            first[s] = p
            key.append(0)
    return tuple(key), len(first)


def _key_symbols(key: Key, names: Sequence[Symbol]) -> list[Symbol]:
    """The symbols of the clan with key ``key``, each pair written as
    ``names[k]`` for its canonical label k: pairs are labelled 1, 2, ... in
    order of their first position."""
    syms = list(key)
    label = 0
    for p, q in enumerate(key, start=1):
        if type(q) is int and q > p:
            label += 1
            syms[p - 1] = syms[q - 1] = names[label]
    return syms


def spaced_texts(n: int, keys: Iterable[Key]) -> list[str]:
    """``Clan.spaced()`` of the clan of each key of size n, built from the
    keys with each label's text made once."""
    names = [str(label) for label in range(n + 1)]
    return [" ".join(_key_symbols(key, names)) for key in keys]


#: Strings joined into one write by ``write_joined``.
_WRITE_BATCH = 1024


def write_joined(out: TextIO, parts: Iterable[str], sep: str = "") -> None:
    """Write ``sep.join(parts)`` to ``out``, ``_WRITE_BATCH`` parts per
    write, so no more than one batch of text is held at a time."""
    parts = iter(parts)
    lead = ""
    while batch := list(islice(parts, _WRITE_BATCH)):
        out.write(lead + sep.join(batch))
        lead = sep


def text_from_spaced(spaced: str) -> str:
    """``Clan.text()`` from the spaced text: the compact form unless some
    label takes two or more digits."""
    compact = spaced.replace(" ", "")
    return compact if len(compact) == spaced.count(" ") + 1 else spaced


class Clan:
    """A balanced (n,n)-clan, stored as its key alone.

    Accepts any iterable of symbols; labels may be arbitrary hashable
    values.  Construction keeps only the key (``_key``: per position, the
    sign or the 1-based mate position), which every query reads; the
    canonical ``symbols`` are rendered from it on each request.
    """

    __slots__ = ("_table",)

    def __init__(self, symbols: Iterable[Symbol]):
        raw = tuple(symbols)
        key, labels = _relabel(raw)
        if not raw:
            raise ClanError("a clan must contain at least two symbols")
        if len(raw) % 2 != 0:
            raise ClanError(f"odd number of symbols ({len(raw)})")
        plus, minus = key.count(PLUS), key.count(MINUS)
        # with every label present, all appear twice exactly when the
        # numbers fill 2 * labels positions and none lacks a mate
        if len(key) - plus - minus != 2 * labels or 0 in key:
            counts = Counter(s for s in raw if s != PLUS and s != MINUS)
            for label, c in enumerate(counts.values(), start=1):  # first-occurrence order
                if c != 2:
                    raise ClanError(f"label {label} appears {c} times, expected 2")
        if plus != minus:
            raise ClanError(
                f"unbalanced signs ({plus} plus vs {minus} minus): not an (n,n)-clan"
            )
        self._table = key

    @property
    def symbols(self) -> tuple[Symbol, ...]:
        """The canonical symbols, rendered from the key on each call."""
        return tuple(_key_symbols(self._table, range(len(self._table))))

    @property
    def n(self) -> int:
        """Half-length: the clan has 2n symbols."""
        return len(self._table) // 2

    def __len__(self) -> int:
        return len(self._table)

    def __iter__(self) -> Iterator[Symbol]:
        return iter(self.symbols)

    def __getitem__(self, pos: int) -> Symbol:
        """Symbol at 1-based position ``pos``; renders the whole clan."""
        if not 1 <= pos <= len(self._table):
            raise IndexError(pos)
        return self.symbols[pos - 1]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Clan):
            return self._table == other._table
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._table)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.text()!r})"

    def __str__(self) -> str:
        return self.text()

    # -- serialization ----------------------------------------------------

    def spaced(self) -> str:
        """Whitespace-separated token form; valid for arbitrary labels."""
        return spaced_texts(self.n, [self._table])[0]

    def text(self) -> str:
        """Compact form when possible, spaced form otherwise."""
        return text_from_spaced(self.spaced())

    # -- structure queries --------------------------------------------------

    def pairs(self) -> list[tuple[int, int]]:
        """Mate-position pairs (i, j) with i < j, in label order."""
        return [(p, q) for p, q in enumerate(self._table, start=1) if type(q) is int and p < q]

    def is_matchless(self) -> bool:
        return all(type(q) is str for q in self._table)

    def _key(self) -> Key:
        """Per position, the sign or the 1-based mate position, as the clan
        carries it. Two clans are equal exactly when their keys are: the
        canonical labels follow from the mates."""
        return self._table

    def _default_mapping(self) -> list[int]:
        """The default permutation in one-line notation, as a plain list: the
        involution swapping i <= n and 2n+1-i when the signature at i is
        ``-``, and fixing both when it is ``+``."""
        key = self._table
        m = len(key) + 1
        mapping = list(range(1, m))
        for i, q in enumerate(key[: m // 2], start=1):
            if q == MINUS or type(q) is int and i < q:
                mapping[i - 1], mapping[-i] = m - i, i
        return mapping

    def _families(self) -> list[tuple[int, int, int, int]]:
        """Each mate pair (i, j) with i < j and i < 2n+1-j, grouped with its
        mirror pair as (i, j, 2n+1-j, 2n+1-i), in order of i."""
        key = self._table
        m = len(key) + 1
        return [
            (i, j, m - j, m - i)
            for i, j in enumerate(key[: m // 2], start=1)
            if type(j) is int and i < j and i < m - j
        ]

    def signatures(self) -> tuple[str, ...]:
        """Signature of each position in the default signed clan.

        Signs keep their own symbol; the first mate of each pair is signed
        ``-`` and the second ``+``.
        """
        return tuple(
            q if type(q) is str else MINUS if p < q else PLUS
            for p, q in enumerate(self._table, start=1)
        )

    # -- DIII validity ------------------------------------------------------

    def diii_violation(self) -> str | None:
        """The first violated DIII condition, or None if all three hold.

        The conditions: the clan equals the reverse of its negative; no
        number sits opposite its own mate; the count of minus signs plus
        mate pairs lying entirely in the first half is even.

        One loop over the first half decides all three. A skew fault is
        named at once, as skew-symmetry is tested first; an antipodal mate
        is remembered, so the message names the largest such position.
        """
        key = self._table
        m = len(key)
        n = m // 2
        contained = 0
        antipodal = 0
        # a sign flips at 2n+1-p, and mate(2n+1-p) = 2n+1-mate(p)
        for p, (q, r) in enumerate(zip(key[:n], key[::-1]), start=1):
            if type(q) is str:
                if r != q and type(r) is str:
                    continue
            elif r == m + 1 - q:
                if q == m + 1 - p:
                    antipodal = p
                elif p < q <= n:
                    contained += 1
                continue
            return "not skew-symmetric (clan differs from the reverse of its negative)"
        if antipodal:
            return f"antipodal mates at positions ({antipodal}, {m + 1 - antipodal})"
        minus = key[:n].count(MINUS)
        if (minus + contained) % 2 == 0:
            return None
        return (
            f"odd parity in the first half ({minus} minus signs, "
            f"{contained} contained pairs)"
        )

    def to_diii(self) -> "DIIIClan":
        return self if isinstance(self, DIIIClan) else DIIIClan(self.symbols)


class DIIIClan(Clan):
    """A clan satisfying the three DIII conditions; validated on construction."""

    __slots__ = ("_length",)

    def __init__(self, symbols: Iterable[Symbol]):
        super().__init__(symbols)
        reason = self.diii_violation()
        if reason is not None:
            raise ClanError(f"not a DIII clan: {reason}")
        self._length: int | None = None

    @classmethod
    def _from_key(cls, key: Key, length: int | None = None) -> "DIIIClan":
        """The DIII clan whose ``_key()`` is ``key``, storing only the key
        and ``length``: the one unchecked clan constructor. Its keys are
        DIII by construction, written with ``enumeration._put_sign`` and
        ``_put_pair`` by ``assemble_clan``, the sect generator and the
        decoders, or by ``apply_reflection``, which knows the length."""
        clan = cls.__new__(cls)
        clan._table = key
        clan._length = length
        return clan

    @property
    def length(self) -> int:
        """Length in the weak order (not ``len``, which counts symbols),
        from ``_length_terms``: computed once and kept on the clan; the
        memo is a pure function of the key."""
        if self._length is None:
            self._length = self._length_terms()[3]
        return self._length

    def _length_terms(self) -> tuple[list[int], list[int], int, int]:
        """Each pair's spread and weave (in label order), z, and the length,
        half of (sum of spreads - sum of weaves - z): a pair's spread is the
        distance between its mates, its weave counts the pairs opening before
        it and closing strictly inside it (pairs come in order of opening, so
        only the earlier ones' closing ends are read), and z is half the
        number of straddling pairs."""
        n = self.n
        pairs = self.pairs()
        spreads = [j - i for i, j in pairs]
        weaves: list[int] = []
        closes: list[int] = []  # sorted closing positions of the pairs so far
        for i, j in pairs:
            weaves.append(bisect_left(closes, j) - bisect_right(closes, i))
            insort(closes, j)
        z = sum(i <= n < j for i, j in pairs) // 2
        total = sum(spreads) - sum(weaves) - z
        if total % 2 != 0:
            raise ClanError("length formula did not produce an integer")
        length = total // 2
        if not 0 <= length <= n * (n - 1) // 2:
            raise ClanError(f"length {length} outside [0, n(n-1)/2]")
        return spreads, weaves, z, length


#: The symbol of each sign token and of each label token 1..99 as written.
_TOKENS: dict[str, Symbol] = {PLUS: PLUS, MINUS: MINUS, **{str(k): k for k in range(1, 100)}}


def _parse_symbols(text: str) -> list[Symbol]:
    """The raw symbols of compact (one char per symbol) or spaced (token per
    symbol) clan text; the unicode minus sign is accepted as an alias for
    ``-``, and a label is ASCII digits only.

    The text is split once on whitespace. That gives exactly one token
    exactly when the stripped text has no whitespace in it; the text is
    then compact and read char by char, and otherwise each token is one
    symbol. A token is looked up in ``_TOKENS``; any other token is read
    by ``ascii_int``, so ``100`` and ``01`` are labels, and a token that is
    no label 1 or more raises ``ClanError`` naming it.
    """
    tokens: Sequence[str] = text.replace("−", "-").split()
    if not tokens:
        raise ClanError("empty clan text")
    if len(tokens) == 1:
        tokens = tokens[0]
    symbols = list(map(_TOKENS.get, tokens))
    if None in symbols:
        for i, tok in enumerate(tokens):
            if symbols[i] is None:
                label = ascii_int(tok)
                if label is None or label < 1:
                    raise ClanError(f"unknown token {tok!r}")
                symbols[i] = label
    return symbols


def parse_clan(text: str) -> Clan:
    """Parse compact or spaced clan text (see ``_parse_symbols``)."""
    return Clan(_parse_symbols(text))


def parse_diii(text: str) -> DIIIClan:
    return DIIIClan(_parse_symbols(text))
