"""Length function, simple-reflection action, weak order poset, and rank
polynomials for DIII clans.

The monoid action of the simple reflections is realized by a
candidate-and-filter rule: each reflection proposes one candidate, the
collapse of signs into fresh mate pairs where the signs allow it and a
position swap otherwise, and the candidate is accepted exactly when it is a
valid DIII clan one longer than the input; a rejected candidate leaves the
clan fixed. Where a collapse is possible, the swap would move only signs,
which keeps every pair and so the length: it could never be accepted.
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


def _reflection_candidate(i: int, clan: DIIIClan) -> tuple:
    """Raw symbol tuple of the one candidate of s_i: the collapse when the
    signs allow it, else the swap."""
    syms = clan.symbols
    n = clan.n
    m = 2 * n
    # 0-based position pairs (a, b) and (c, d) that s_i swaps, or collapses
    # into two fresh pairs when their signs allow
    if i < n:
        (a, b), (c, d) = (i - 1, i), (m - i - 1, m - i)
        collapsible = {syms[a], syms[b]} == {PLUS, MINUS}
    else:
        (a, b), (c, d) = (n - 2, n), (n - 1, n + 1)
        quad = syms[n - 2 : n + 2]
        collapsible = quad in ((PLUS, PLUS, MINUS, MINUS), (MINUS, MINUS, PLUS, PLUS))
    out = list(syms)
    if collapsible:
        # m+1 and m+2 are fresh labels, renumbered on construction
        out[a] = out[b] = m + 1
        out[c] = out[d] = m + 2
    else:
        out[a], out[b] = out[b], out[a]
        out[c], out[d] = out[d], out[c]
    return tuple(out)


def apply_reflection(i: int, clan: DIIIClan) -> DIIIClan:
    """The action of the i-th simple reflection on a DIII clan.

    Returns the one candidate move when it is a valid DIII clan of length
    one greater, or the clan itself otherwise. Only one candidate is built:
    where the signs allow a collapse, the swap would trade two opposite
    signs and their mirrors (i < n) or the four signs of ++--/--++ (i = n),
    which leaves every pair, and so the length, unchanged.
    """
    clan = clan.to_diii()
    n = clan.n
    if not 1 <= i <= n:
        raise ClanError(f"reflection index {i} out of range 1..{n}")
    if n == 1:
        return clan
    try:
        candidate = DIIIClan(_reflection_candidate(i, clan))
    except ClanError:
        return clan
    return candidate if candidate.length == clan.length + 1 else clan


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
