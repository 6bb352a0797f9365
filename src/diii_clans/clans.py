"""Core clan data type and its elementary transforms.

A clan is a string of ``+``/``-`` signs and paired natural numbers in which
every number appears exactly twice; the two occurrences of a number are
called *mates*.  Only balanced clans (as many ``+`` as ``-``, length ``2n``)
are supported here.  A clan is stored as its key alone (per position, the
sign or the 1-based mate position); its symbols are rendered from the key,
pair labels numbered 1..k in order of first occurrence.

Positions are 1-indexed in every public interface.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, Sequence, Union

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
    error: type[ClanError] = ClanError,
    defaults: Mapping[str, Any] = {},
) -> list[Any]:
    """The values of the JSON object ``data`` at the keys of ``kinds``, in
    order.  Each must be exactly of its kind, so nothing is coerced: an int
    field refuses a bool, a float or a string.  Keys in ``defaults`` may be
    absent; anything else malformed raises ``error``."""
    values = []
    for key, kind in kinds.items():
        try:
            value = data.get(key, defaults[key]) if key in defaults else data[key]
        except (KeyError, TypeError) as exc:
            raise error(f"malformed {what} JSON: {exc}") from None
        if type(value) is not kind:
            raise error(f"malformed {what} JSON: {key!r} must be {kind.__name__}, got {value!r}")
        values.append(value)
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


def _flip_sign(s: Symbol) -> Symbol:
    return MINUS if s == PLUS else PLUS


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

    def compact(self) -> str:
        """One character per symbol; only valid while labels stay below 10."""
        if sum(type(q) is int for q in self._table) > 18:  # more than 9 labels
            raise ClanError("compact form requires all labels <= 9")
        return self.spaced().replace(" ", "")

    def spaced(self) -> str:
        """Whitespace-separated token form; valid for arbitrary labels."""
        return spaced_texts(self.n, [self._table])[0]

    def text(self) -> str:
        """Compact form when possible, spaced form otherwise."""
        return text_from_spaced(self.spaced())

    # -- elementary transforms --------------------------------------------

    def reverse(self) -> "Clan":
        """The symbol sequence read backwards, re-canonicalized."""
        return Clan(reversed(self.symbols))

    def negative(self) -> "Clan":
        """Swap every ``+`` with ``-``, leaving numbers untouched."""
        return Clan(
            _flip_sign(s) if s in (PLUS, MINUS) else s for s in self.symbols
        )

    def flip(self) -> "Clan":
        """Exchange the two middle symbols (positions n and n+1)."""
        n = self.n
        syms = list(self.symbols)
        syms[n - 1], syms[n] = syms[n], syms[n - 1]
        return Clan(syms)

    # -- structure queries --------------------------------------------------

    def mate_positions(self) -> dict[int, int]:
        """Map each number-holding position to the position of its mate."""
        return {p: q for p, q in enumerate(self._table, start=1) if type(q) is int}

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
        """
        n = self.n
        m = 2 * n
        key = self._table
        # skew-symmetry, position by position: a sign flips at 2n+1-p, and
        # mate(2n+1-p) = 2n+1-mate(p)
        for p in range(n):
            q = key[p]
            if key[m - 1 - p] != (_flip_sign(q) if type(q) is str else m + 1 - q):
                return "not skew-symmetric (clan differs from the reverse of its negative)"
        for p in range(n, 0, -1):
            if key[p - 1] == m + 1 - p:
                return f"antipodal mates at positions ({p}, {m + 1 - p})"
        half = key[:n]
        minus_count = half.count(MINUS)
        inner_pairs = sum(1 for p, q in enumerate(half, start=1) if type(q) is int and p < q <= n)
        if (minus_count + inner_pairs) % 2 != 0:
            return (
                f"odd parity in the first half ({minus_count} minus signs, "
                f"{inner_pairs} contained pairs)"
            )
        return None

    def is_diii(self) -> bool:
        return self.diii_violation() is None

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
        and ``length``: the package's one unchecked constructor. Its keys are
        DIII by construction, written by ``enumeration.assemble_key``, the
        sect generator or ``apply_reflection``, which knows the length."""
        clan = cls.__new__(cls)
        clan._table = key
        clan._length = length
        return clan

    @property
    def length(self) -> int:
        """Length in the weak order (not ``len``, which counts symbols).

        Half of (sum of spreads - sum of weaves - z): a pair's spread is the
        distance between its mates, its weave counts the pairs opening
        before it and closing strictly inside it, and z is half the number
        of straddling pairs.  Computed once and kept on the clan; the memo
        is a pure function of the key.
        """
        if self._length is None:
            n = self.n
            pairs = self.pairs()  # in order of opening position
            spread = sum(j - i for i, j in pairs)
            weave = sum(
                i < t < j for k, (i, j) in enumerate(pairs) for _, t in pairs[:k]
            )
            z = sum(i <= n < j for i, j in pairs) // 2
            total = spread - weave - z
            if total % 2 != 0:
                raise ClanError("length formula did not produce an integer")
            length = total // 2
            if not 0 <= length <= n * (n - 1) // 2:
                raise ClanError(f"length {length} outside [0, n(n-1)/2]")
            self._length = length
        return self._length

    # -- derived combinatorial data ------------------------------------------

    def classify_pairs(self) -> "PairClassification":
        """Split mate pairs into straddling and one-sided sets, with families."""
        n = self.n
        pi0: set[tuple[int, int]] = set()
        pi1: set[tuple[int, int]] = set()
        families: list[tuple[int, int, int, int]] = []
        for i, j in self.pairs():
            if i <= n < j:
                pi0.add((i, j))
            else:
                pi1.add((i, j))
            if i < 2 * n + 1 - j:
                families.append((i, j, 2 * n + 1 - j, 2 * n + 1 - i))
        families.sort()
        return PairClassification(
            pi0=frozenset(pi0), pi1=frozenset(pi1), families=tuple(families)
        )

    def base_clan(self) -> "DIIIClan":
        """The matchless clan of signatures; a fixed point on matchless input."""
        return DIIIClan(self.signatures())

    def default_permutation(self) -> "Involution":
        """The involution fixing position i and its opposite when the
        signature at i is ``+``, and swapping them when it is ``-``."""
        n = self.n
        sig = self.signatures()
        mapping = list(range(1, 2 * n + 1))
        for i in range(1, n + 1):
            if sig[i - 1] == MINUS:
                mapping[i - 1] = 2 * n + 1 - i
                mapping[2 * n - i] = i
        return Involution(tuple(mapping))

    def underlying_involution(self) -> "Involution":
        """The involution exchanging the two positions of each mate pair."""
        return Involution(
            tuple(p if type(q) is str else q for p, q in enumerate(self._table, start=1))
        )


@dataclass(frozen=True)
class Involution:
    """A self-inverse permutation of {1..m} in one-line notation.

    ``mapping[k-1]`` is the image of k.
    """

    mapping: tuple[int, ...]

    def __post_init__(self):
        if type(self.mapping) is not tuple:
            raise ClanError(f"involution mapping must be a tuple, got {self.mapping!r}")
        m = len(self.mapping)
        ints = all(type(v) is int for v in self.mapping)  # True == 1 passes the sort test
        if not ints or sorted(self.mapping) != list(range(1, m + 1)):
            raise ClanError(f"{self.mapping} is not a permutation of 1..{m}")
        for k in range(1, m + 1):
            if self.mapping[self.mapping[k - 1] - 1] != k:
                raise ClanError(f"{self.mapping} does not square to the identity")

    def __call__(self, k: int) -> int:
        return self.mapping[k - 1]

    def __len__(self) -> int:
        return len(self.mapping)

    def is_identity(self) -> bool:
        return all(v == k for k, v in enumerate(self.mapping, start=1))

    def two_cycles(self) -> list[tuple[int, int]]:
        return [
            (k, v) for k, v in enumerate(self.mapping, start=1) if k < v
        ]

    def one_line(self) -> str:
        if len(self.mapping) <= 9:
            return "".join(str(v) for v in self.mapping)
        return " ".join(str(v) for v in self.mapping)

    def __str__(self) -> str:
        return self.one_line()


@dataclass(frozen=True)
class PairClassification:
    """Mate pairs split by position: ``pi0`` straddles the halfway point,
    ``pi1`` stays within one half.  Each family groups a pair (i, j) with
    its mirror pair as the quadruple (i, j, 2n+1-j, 2n+1-i)."""

    pi0: frozenset[tuple[int, int]]
    pi1: frozenset[tuple[int, int]]
    families: tuple[tuple[int, int, int, int], ...]

    @property
    def z(self) -> int:
        """Half the number of straddling pairs."""
        return len(self.pi0) // 2


def _parse_symbols(text: str) -> list[Symbol]:
    """The raw symbols of compact (one char per symbol) or spaced (token per
    symbol) clan text; the unicode minus sign is accepted as an alias for
    ``-``, and a label is ASCII digits only."""
    cleaned = text.replace("−", "-").strip()
    if not cleaned:
        raise ClanError("empty clan text")
    if any(ch.isspace() for ch in cleaned):
        tokens = cleaned.split()
    else:
        tokens = list(cleaned)
    symbols: list[Symbol] = []
    for tok in tokens:
        if tok == PLUS or tok == MINUS:
            symbols.append(tok)
        elif (label := ascii_int(tok)) is not None and label >= 1:
            symbols.append(label)
        else:
            raise ClanError(f"unknown token {tok!r}")
    return symbols


def parse_clan(text: str) -> Clan:
    """Parse compact or spaced clan text (see ``_parse_symbols``)."""
    return Clan(_parse_symbols(text))


def parse_diii(text: str) -> DIIIClan:
    return DIIIClan(_parse_symbols(text))
