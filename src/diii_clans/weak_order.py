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
less half the number of pairs straddling the middle. For i < n a candidate
moves only the symbols at i, i+1 and their mirrors 2n-i, 2n+1-i. A pair
with no end there keeps its spread, its straddling and its crossing with
every other pair: the moved positions are adjacent, so no other end lies
between where an end was and where it goes. The change in length is
therefore read off the at most four pairs with an end there. The two
first-half positions and their mirrors change alike, so each local change
counts twice in the numerator and once in the length, and z is kept:

- a collapse of opposite signs makes two pairs of spread 1 that cross
  nothing: +1;
- a sign and a number trading places changes the number's spread by one,
  +1 when it moves away from its mate;
- ends of two different pairs trading places change their spreads by s_a
  and s_b (+1 away from the mate, -1 towards it) and toggle whether the two
  pairs cross (t = +1 when they come to cross): s_a + s_b - t;
- signs alike, mates of each other, or two pairs mirroring each other: the
  candidate is the input.

As the D_n diagram automorphism swaps s_{n-1} and s_n, s_n is
tau s_{n-1} tau for the flip tau of positions n and n+1. tau commutes
with the mirror, so a flipped clan is skew-symmetric with no antipodal
mates, which is all the rule above reads. tau flips the parity, which an
s_{n-1} step keeps, and keeps the length formula: n and n+1 hold two
signs, or ends of a pair and its mirror, whose spreads, crossing and
straddling change by 2 - 1 - 1 = 0 (or -2 + 1 + 1). So s_n ascends a
clan exactly when s_{n-1} ascends its flip, and its image is the flip of
that image. s_{n-1} trades n-1 with n and n+1 with n+2, or collapses the
signs there into (n-1, n) and (n+1, n+2); conjugated by tau, that is one
trade, of n-1 with n+1 and n with n+2, or the collapse into (n-1, n+1)
and (n, n+2). Checked against the raw two-candidate rule on every clan
with n <= 8.

Every step reads one table, the key a clan carries (``Clan._key``: per
position, the sign or the 1-based mate position), and writes its image's
key straight from it (``_step``): a collapse writes its two fresh pairs,
and a swap trades the entries at i, i+1 and at their mirrors, the
back-pointers of their mates following them. For s_n the rule reads the
entries at n-1 and n+1 with n and n+1 traded in each mate, as tau's key
holds them at n-1 and n, and writes the one trade above, so the key is
copied once.
``apply_reflection`` builds a clan from the image key once
(``DIIIClan._from_key``), with its length preset to the input's plus one.
The weak order poset builds no clan at all: it steps each enumerated key
and finds the upper end of the cover by the image key among the
enumerated keys. It grades its nodes from the covers, in one pass up from
the minimal elements, and renders each node's stored text.
"""

from __future__ import annotations

import io
import json
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping, TextIO

from .clans import PLUS, Clan, ClanError, DIIIClan, Key, text_from_spaced, write_joined
from .enumeration import ClanSet, _put_pair, assemble_clan, enumerate_diii


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
    pairs opening strictly before it and closing strictly inside it.  One
    pass (``DIIIClan._length_terms``) gives the statistics and the length;
    it fills the clan's length memo, and a length already there (one
    preset by ``apply_reflection``) must agree with it.
    """
    try:
        clan = clan.to_diii()
    except ClanError:
        raise ClanError("clan_length requires a DIII clan") from None
    spreads, weaves, z, length = clan._length_terms()
    if clan._length is None:
        clan._length = length
    elif clan._length != length:
        raise ClanError(f"clan carries length {clan._length}, the formula gives {length}")
    return LengthStats(
        spreads=dict(enumerate(spreads, start=1)),
        weaves=dict(enumerate(weaves, start=1)),
        z=z,
        length=length,
    )


def _step(i: int, key: Key) -> Key | None:
    """The key of s_i's image on the DIII clan with this key when s_i
    ascends, else None, decided in O(1) by the rule in the module
    docstring from the entries at a and a + 1: a sign, or the mates q_a
    and q_b. For i < n, a = i and the trade is of a with c = i + 1. s_n is
    tau s_{n-1} tau: a = n - 1 and the entries are those of tau's key, the
    key's at n - 1 and n + 1 with n and n + 1 traded in each mate, and the
    trade is of a with c = n + 1."""
    m = len(key)
    n = m // 2
    if i < n:
        a, c = i, i + 1
        qa, qb = key[a - 1], key[a]
    elif n == 1:
        return None
    else:
        a, c = n - 1, n + 1
        tau = {n: n + 1, n + 1: n}
        qa, qb = tau.get(key[a - 1], key[a - 1]), tau.get(key[n], key[n])
    b = a + 1
    sign_a, sign_b = type(qa) is str, type(qb) is str
    if sign_a and sign_b:
        if qa == qb:
            return None  # the swap moves nothing
        # the collapse into (a, c) and its mirror: spread +2, no crossing;
        # it trades one minus for one contained pair, keeping the parity
        out = list(key)
        _put_pair(out, a, c)
        return tuple(out)
    if sign_a:
        ascends = qb > b  # the number at b moves away from its mate
    elif sign_b:
        ascends = qa < a
    elif qa == b or qa == m - a:
        # mates of each other, or pairs (a, m-a) and (b, m+1-a) that mirror
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
    # trade a with c and their mirrors, each mate's back-pointer following
    # its end; no two of the four are mates, or the step returned above
    to = {a: c, c: a, m + 1 - a: m + 1 - c, m + 1 - c: m + 1 - a}
    out = list(key)
    for p, r in to.items():
        q = key[p - 1]
        if type(q) is int:
            out[q - 1] = r
        out[r - 1] = q
    return tuple(out)


def apply_reflection(i: int, clan: DIIIClan) -> DIIIClan:
    """The action of the i-th simple reflection on a DIII clan.

    Returns the one candidate image when it is a valid DIII clan of length
    one greater, or the clan itself otherwise. Only one candidate exists:
    where the signs allow a collapse, the swap would move only signs, which
    leaves every pair, and so the length, unchanged. s_n is s_{n-1}
    conjugated by the middle flip (``_step``).

    The candidate is filtered on the clan's key alone, from the change it
    makes to length = (spread - crossings - z) / 2 (see the module
    docstring), so a rejected candidate builds no clan. An accepted
    image's key (``_step``, as in the poset) is built once, unvalidated,
    by ``DIIIClan._from_key`` with its length preset to the input's plus
    one.
    """
    clan = clan.to_diii()
    if not 1 <= i <= clan.n:
        raise ClanError(f"reflection index {i} out of range 1..{clan.n}")
    image = _step(i, clan._key())
    return clan if image is None else DIIIClan._from_key(image, clan.length + 1)


@dataclass(frozen=True)
class RankPolynomial:
    """Integer polynomial; coeffs[k] counts clans of length k."""

    coeffs: tuple[int, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

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
    return assemble_clan(n, [], straddling, {n: PLUS} if n % 2 == 1 else {})


@dataclass(frozen=True)
class WeakOrderPoset:
    """The weak order on DIII (n,n)-clans: the clans as a ``ClanSet`` and
    the labeled cover relations, kept by node index in compressed sparse
    row form, as ``array('i')``s. The covers of node k go up to node u for
    each u in ``uppers[offsets[k]:offsets[k + 1]]``, by the reflection index
    at the same place in ``labels``, increasing. The covers are a function
    of the universe, so equality and hashing read the universe alone. No
    node is built as a clan until ``nodes`` (or anything read off it) is
    asked for."""

    universe: ClanSet
    offsets: array = field(compare=False)
    uppers: array = field(compare=False)
    labels: array = field(compare=False)

    @property
    def n(self) -> int:
        return self.universe.n

    @property
    def nodes(self) -> tuple[DIIIClan, ...]:
        """The clans, in spaced-text order, built on first access."""
        return self.universe.clans

    def __len__(self) -> int:
        return len(self.universe)

    def _edges(self) -> Iterator[tuple[int, int, int]]:
        """(lower, upper, reflection index) by node index, in cover order."""
        o = self.offsets
        lowers = (k for k in range(len(self)) for _ in range(o[k], o[k + 1]))
        return zip(lowers, self.uppers, self.labels)

    @cached_property
    def _grades(self) -> tuple[int, ...]:
        """Each node's rank, read off the covers in one pass up from the
        minimal elements (rank 0): a node first reached from a lower of
        rank r gets r + 1, and every other cover into it must agree. Ranks
        are the lengths when the covers are right: the minimal clans are
        the matchless ones, of length 0, and each cover adds one. The
        reached nodes are marked in a bytearray, and the pass order is an
        ``array('i')``, so no int object is kept per node."""
        o, uppers = self.offsets, self.uppers
        grades = [-1] * len(self)
        reached = bytearray(len(self))
        for u in uppers:
            reached[u] = 1
        order = array("i", (k for k in range(len(self)) if not reached[k]))
        for k in order:
            grades[k] = 0
        for k in order:  # grows as nodes are reached
            rank = grades[k] + 1
            for u in uppers[o[k] : o[k + 1]]:
                if grades[u] < 0:
                    grades[u] = rank
                    order.append(u)
                elif grades[u] != rank:
                    raise ClanError(
                        f"covers disagree on the rank of node {u}: {grades[u]} and {rank}"
                    )
        if len(order) != len(self):
            raise ClanError("some nodes lie above no minimal element")
        return tuple(grades)

    def rank_sizes(self) -> list[int]:
        """Node counts by rank, from rank 0 upward, graded from the covers."""
        sizes = [0] * (max(self._grades) + 1)
        for g in self._grades:
            sizes[g] += 1
        return sizes

    def minimal_elements(self) -> list[DIIIClan]:
        uppers = set(self.uppers)
        return [c for k, c in enumerate(self.nodes) if k not in uppers]

    def maximal_elements(self) -> list[DIIIClan]:
        o = self.offsets
        return [c for k, c in enumerate(self.nodes) if o[k] == o[k + 1]]

    def write_dot(self, out: TextIO) -> None:
        """Write the Graphviz digraph to ``out``, with no final newline:
        ranked bottom-up by rank (graded from the covers, before anything
        is written), edges labeled by the reflection index. Each node's
        quoted text is made once; nodes and edges go out in batches
        (``write_joined``)."""
        by_rank = [array("i") for _ in range(max(self._grades) + 1)]
        for k, g in enumerate(self._grades):
            by_rank[g].append(k)
        quoted = [f'"{text_from_spaced(t)}"' for t in self.universe.texts]
        out.write("digraph weak_order {\n  rankdir=BT;\n  node [shape=plaintext];")
        for rank in by_rank:
            out.write("\n  { rank=same; ")
            write_joined(out, (quoted[k] + ";" for k in rank), " ")
            out.write(" }")
        write_joined(
            out, (f'\n  {quoted[l]} -> {quoted[u]} [label="{i}"];' for l, u, i in self._edges())
        )
        out.write("\n}")

    def to_dot(self) -> str:
        """The text ``write_dot`` writes."""
        out = io.StringIO()
        self.write_dot(out)
        return out.getvalue()

    def write_json(self, out: TextIO) -> None:
        """Write the poset as one JSON object to ``out``, in batches
        (``write_joined``), as ``json.dumps`` would: ``n``, the nodes'
        spaced texts, and each cover as its lower and upper text and its
        reflection index. A spaced text holds only signs, digits and
        spaces, which JSON writes as they are, so each is written between
        quotes without a copy."""
        texts = self.universe.texts
        out.write(f'{{"n": {self.n}, "nodes": [')
        write_joined(out, (f'"{t}"' for t in texts), ", ")
        out.write('], "covers": [')
        write_joined(
            out,
            (
                f'{{"lower": "{texts[l]}", "upper": "{texts[u]}", "reflection": {i}}}'
                for l, u, i in self._edges()
            ),
            ", ",
        )
        out.write("]}")

    def to_json_dict(self) -> dict:
        """The object ``write_json`` writes."""
        out = io.StringIO()
        self.write_json(out)
        return json.loads(out.getvalue())


def weak_order_poset(n: int) -> WeakOrderPoset:
    """Build the weak order from the reflection action on all clans' keys.

    Each image key read off a node's key (``_step``) is looked up in a
    dict from key to node, local to the build, so every upper is a node
    and no clan is built. A key outside the dict means the reflection gave
    no DIII clan of size n: that raises rather than drop the cover. Covers
    come out sorted by (lower, reflection index): the nodes are in
    spaced-text order and each (lower, i) has at most one upper."""
    clans = enumerate_diii(n)
    index = {key: k for k, key in enumerate(clans.keys)}
    offsets, uppers, labels = array("i", [0]), array("i"), array("i")
    for k, key in enumerate(clans.keys):
        for i in range(1, n + 1):
            image = _step(i, key)
            if image is None:
                continue
            upper = index.get(image)
            if upper is None:
                text = text_from_spaced(clans.texts[k])
                raise ClanError(f"s_{i} on {text} left the DIII ({n},{n})-clans")
            uppers.append(upper)
            labels.append(i)
        offsets.append(len(uppers))
    return WeakOrderPoset(clans, offsets, uppers, labels)


def rank_polynomial(poset: WeakOrderPoset) -> RankPolynomial:
    """Rank polynomial read off a built poset, graded from its covers."""
    return RankPolynomial(tuple(poset.rank_sizes()))
