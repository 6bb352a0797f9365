"""Length function, simple-reflection action, weak order poset, and rank
polynomials for DIII clans.

The monoid action of the simple reflections is realized by a
candidate-and-filter rule: each reflection proposes one candidate, the
collapse of signs into fresh mate pairs where the signs allow it and a
position swap otherwise, and the candidate is accepted exactly when it is a
valid DIII clan one longer than the input; a rejected candidate leaves the
clan fixed. Where a collapse is possible, the swap would move only signs,
which keeps every pair and so the length: it could never be accepted.

The filter is decided on the input alone, so only an accepted image is
built. The length is (spread - crossings - z) / 2: the sum of the distances
between mates, less the number of crossing pairs (the sum of the weaves),
less half the number of pairs straddling the middle. A candidate moves only
the symbols at i, i+1 and their mirrors 2n-i, 2n+1-i (for i = n, the block
n-1..n+2). A pair with no end there keeps its spread, its straddling and
its crossing with every other pair: the moved positions are adjacent (or
contiguous), so no other end lies between where an end was and where it
goes. The change in length is therefore read off the at most four pairs
with an end there. For i < n the two first-half positions and their
mirrors change alike, so each local change counts twice in the numerator
and once in the length, and z is kept:

- a collapse of opposite signs makes two pairs of spread 1 that cross
  nothing: +1;
- a sign and a number trading places changes the number's spread by one,
  +1 when it moves away from its mate;
- ends of two different pairs trading places change their spreads by s_a
  and s_b (+1 away from the mate, -1 towards it) and toggle whether the two
  pairs cross (t = +1 when they come to cross): s_a + s_b - t;
- signs alike, mates of each other, or two pairs mirroring each other: the
  candidate is the input.

The accepted image is built once, with its length preset to the input's
plus one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .clans import MINUS, PLUS, Clan, ClanError, DIIIClan
from .enumeration import assemble_clan, enumerate_diii


@dataclass(frozen=True)
class LengthStats:
    """Per-pair spreads and weaves, the straddling-pair count z, and the
    resulting length ((sum of spread-weave) - z) / 2."""

    spreads: Mapping[int, int]
    weaves: Mapping[int, int]
    z: int
    length: int


def clan_length(clan: Clan) -> LengthStats:
    """Length statistics of a DIII clan, keyed by pair label.

    The spread of a pair is the distance between its mates; its weave counts
    pairs opening strictly before it and closing strictly inside it.
    """
    try:
        clan = clan.to_diii()
    except ClanError:
        raise ClanError("clan_length requires a DIII clan") from None
    pairs = clan.pairs()
    spreads: dict[int, int] = {}
    weaves: dict[int, int] = {}
    for label, (i, j) in enumerate(pairs, start=1):
        spreads[label] = j - i
        weaves[label] = sum(1 for (u, t) in pairs if u < i < t < j)
    return LengthStats(
        spreads=spreads, weaves=weaves, z=clan.classify_pairs().z, length=clan.length
    )


def _ascent(i: int, clan: DIIIClan) -> list | None:
    """Raw symbols of the image of s_i, i < n, when it is one longer, else
    None, decided in O(1) from the input's symbols and mate table by the
    rule in the module docstring. Positions a = i and b = i + 1 are
    1-based, q_a and q_b their mates."""
    syms, mates = clan._symbols, clan._mates
    m = len(syms)
    a, b = i, i + 1
    qa, qb = mates[a - 1], mates[b - 1]  # 0 at a sign
    if not qa and not qb:
        if syms[a - 1] == syms[b - 1]:
            return None  # the swap moves nothing
        # the collapse into (a, b) and its mirror: spread +2, no crossing;
        # it trades one minus for one contained pair, keeping the parity.
        # m+1 and m+2 are fresh labels, renumbered on construction
        out = list(syms)
        out[a - 1] = out[b - 1] = m + 1
        out[m - b] = out[m - a] = m + 2
        return out
    if not qa:
        ascends = qb > b  # the number at b moves away from its mate
    elif not qb:
        ascends = qa < a
    elif qa == b or qa == m - i:
        # mates of each other, or pairs (a, m-i) and (b, m+1-i) that mirror
        # each other (either fixes the other): the swap keeps every pair
        return None
    else:
        # each end moving away from its mate adds one to its spread, and
        # trading adjacent ends of two pairs toggles whether they cross
        sa = 1 if qa < a else -1
        sb = 1 if qb > b else -1
        crossing = (qa < qb < a) if qa < a else (qb < a or qb > qa)
        t = -1 if crossing else 1
        ascends = sa + sb - t == 1
    if not ascends:
        return None
    out = list(syms)
    out[a - 1], out[b - 1] = out[b - 1], out[a - 1]
    out[m - b], out[m - a] = out[m - a], out[m - b]
    return out


def _middle_ascent(clan: DIIIClan) -> list | None:
    """Raw symbols of the image of s_n when it is a DIII clan one longer,
    else None, by the same local accounting over positions n-1..n+2.

    s_n trades positions n-1, n with n+1, n+2, so ends cross the middle and
    z and the first-half parity may change. Over the pairs with an end in
    the block, g = 2 spreads - 2 crossings - straddling pairs is four times
    their share of the length, so the image ascends when g grows by 4.
    """
    syms, mates = clan._symbols, clan._mates
    n = clan.n
    m = 2 * n
    lo = n - 2  # 0-based index of position n-1
    if not any(mates[lo : lo + 4]):
        # signs x, y, -y, -x: the collapse into (n-1, n+1), (n, n+2) when
        # x = y, with spread +4, one crossing and two straddling pairs;
        # otherwise the swap moves nothing
        if syms[lo] != syms[lo + 1]:
            return None
        out = list(syms)
        out[lo] = out[lo + 2] = m + 1
        out[lo + 1] = out[lo + 3] = m + 2
        return out
    moved = {n - 1: n + 1, n: n + 2, n + 1: n - 1, n + 2: n}
    before = list({tuple(sorted((p, mates[p - 1]))) for p in moved if mates[p - 1]})
    after = [tuple(sorted((moved.get(p, p), moved.get(q, q)))) for p, q in before]

    def weight(pairs) -> int:
        g = 0
        for k, (p, q) in enumerate(pairs):
            g += 2 * (q - p) - (p <= n < q)
            g -= 2 * sum(p < u < q < v or u < p < v < q for u, v in pairs[:k])
        return g

    def parity(pairs, signs) -> int:
        return (signs.count(MINUS) + sum(q <= n for _, q in pairs)) % 2

    if weight(after) - weight(before) != 4:
        return None
    # the swap keeps the parity (each symbol it moves into the first half
    # flips it once, or the pairs are unchanged); checked all the same, as
    # the image is built unvalidated
    if parity(after, syms[lo + 2 : lo + 4]) != parity(before, syms[lo : lo + 2]):
        return None
    out = list(syms)
    out[lo : lo + 4] = syms[lo + 2 : lo + 4] + syms[lo : lo + 2]
    return out


def apply_reflection(i: int, clan: DIIIClan) -> DIIIClan:
    """The action of the i-th simple reflection on a DIII clan.

    Returns the one candidate move when it is a valid DIII clan of length
    one greater, or the clan itself otherwise. Only one candidate exists:
    where the signs allow a collapse, the swap would trade two opposite
    signs and their mirrors (i < n) or the four signs of ++--/--++ (i = n),
    which leaves every pair, and so the length, unchanged.

    The candidate is filtered on the input alone, from the change it makes
    to length = (spread - crossings - z) / 2 (see the module docstring), so
    a rejected candidate builds no clan and an accepted image is built once,
    unvalidated, with its length preset to the input's plus one.
    """
    clan = clan.to_diii()
    n = clan.n
    if not 1 <= i <= n:
        raise ClanError(f"reflection index {i} out of range 1..{n}")
    if n == 1:
        return clan
    image = _ascent(i, clan) if i < n else _middle_ascent(clan)
    if image is None:
        return clan
    return DIIIClan._trusted(image, clan.length + 1)


@dataclass(frozen=True)
class RankPolynomial:
    """Integer polynomial; coeffs[k] counts clans of length k."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def total(self) -> int:
        return sum(self.coeffs)

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            if k == 0:
                terms.append(str(c))
            else:
                t = "t" if k == 1 else f"t^{k}"
                terms.append(t if c == 1 else f"{c}{t}")
        return "+".join(terms) if terms else "0"


def rank_poly_recurrence(n: int) -> RankPolynomial:
    """Rank polynomial via A_n = 2 A_{n-1} + m_n A_{n-2} where m_n has
    coefficient 1 on t^1..t^{2n-3} except 2 on t^{n-1}.

    Seeds: A_1 = 1, A_2 = t + 2.  Coefficient d of m_k A_{k-2} is the sum
    of A_{k-2}'s coefficients d-2k+3 .. d-1 plus its coefficient d-k+1;
    that sum is kept as a running window (one coefficient enters and one
    leaves per d), so step k costs O(k^2), linear in the degree of A_k.
    """
    if n < 1:
        raise ClanError(f"n must be positive, got {n}")
    older, old = [1], [2, 1]  # A_{k-2}, A_{k-1}
    for k in range(3, n + 1):
        size = k * (k - 1) // 2 + 1
        width = 2 * k - 3
        a = older + [0] * (size - len(older))
        new = [2 * c for c in old] + [0] * (size - len(old))
        window = 0  # sum of a[d - width .. d - 1]
        for d in range(1, size):
            window += a[d - 1]
            if d > width:
                window -= a[d - 1 - width]
            new[d] += window + (a[d - k + 1] if d >= k - 1 else 0)
        older, old = old, new
    return RankPolynomial(tuple(old if n > 1 else older))


def maximal_clan(n: int) -> DIIIClan:
    """The unique longest DIII (n,n)-clan, of length n(n-1)/2.

    Its first half holds the straddling pairs (1, 2), (3, 4), ..., which
    put mates at (2k-1, 2n-2k+1) and (2k, 2n-2k+2); when n is odd, position
    n is a plus (so n+1 is a minus).
    """
    if n < 1:
        raise ClanError(f"n must be positive, got {n}")
    straddling = [(p, p + 1) for p in range(1, n, 2)]
    clan = assemble_clan(n, [], straddling, {n: PLUS} if n % 2 == 1 else {})
    if clan.length != n * (n - 1) // 2:
        raise AssertionError(f"maximal clan for n={n} has wrong length")
    return clan


@dataclass(frozen=True)
class WeakOrderPoset:
    """The weak order on DIII (n,n)-clans: nodes with their lengths and the
    labeled cover relations (lower, upper, reflection index)."""

    n: int
    nodes: tuple[DIIIClan, ...]
    covers: tuple[tuple[DIIIClan, DIIIClan, int], ...]

    def __len__(self) -> int:
        return len(self.nodes)

    def lengths(self) -> dict[DIIIClan, int]:
        return {c: c.length for c in self.nodes}

    def rank_sizes(self) -> list[int]:
        """Node counts by length, from length 0 upward."""
        sizes = [0] * (max(c.length for c in self.nodes) + 1)
        for c in self.nodes:
            sizes[c.length] += 1
        return sizes

    def minimal_elements(self) -> list[DIIIClan]:
        uppers = {u for (_, u, _) in self.covers}
        return [c for c in self.nodes if c not in uppers]

    def maximal_elements(self) -> list[DIIIClan]:
        lowers = {l for (l, _, _) in self.covers}
        return [c for c in self.nodes if c not in lowers]

    def to_dot(self) -> str:
        """Graphviz digraph, ranked bottom-up by length, edges labeled by
        the reflection index."""
        lines = ["digraph weak_order {", "  rankdir=BT;", "  node [shape=plaintext];"]
        by_length: dict[int, list[DIIIClan]] = {}
        for c in self.nodes:
            by_length.setdefault(c.length, []).append(c)
        for ln in sorted(by_length):
            row = " ".join(f'"{c.text()}";' for c in by_length[ln])
            lines.append(f"  {{ rank=same; {row} }}")
        for (l, u, i) in self.covers:
            lines.append(f'  "{l.text()}" -> "{u.text()}" [label="{i}"];')
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "nodes": [c.spaced() for c in self.nodes],
            "covers": [
                {"lower": l.spaced(), "upper": u.spaced(), "reflection": i}
                for (l, u, i) in self.covers
            ],
        }


def weak_order_poset(n: int) -> WeakOrderPoset:
    """Build the weak order from the reflection action on all clans.

    Covers come out sorted by (lower, reflection index): the nodes are in
    spaced-text order and each (lower, i) has at most one upper."""
    nodes = enumerate_diii(n).clans
    covers = []
    for clan in nodes:
        for i in range(1, n + 1):
            image = apply_reflection(i, clan)
            if image != clan:
                covers.append((clan, image, i))
    return WeakOrderPoset(n, nodes, tuple(covers))


def rank_polynomial(poset: WeakOrderPoset) -> RankPolynomial:
    """Rank polynomial read off a built poset."""
    return RankPolynomial(tuple(poset.rank_sizes()))
