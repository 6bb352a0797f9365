"""One-shot consistency suite behind the ``verify`` CLI subcommand.

Each check cross-validates independent routes to the same data (formula vs
recurrence vs exhaustive generation, poset vs recurrence polynomials, both
directions of every bijection).  ``PLAN`` holds each check's name, cap and
``PASS`` summary, in output order; the brute-force checks are capped at
the sizes where they stay fast, and the rest run up to the requested n.

``check_<name>(n, poset)`` checks one size, reading its clans from that
size's weak-order poset, and raises ``CheckFailed`` (its message is the
``FAIL`` detail) when the size fails.  ``run_suite`` builds each poset
once and runs each check, looked up by its module attribute, over sizes
1, 2, ... up to its cap, stopping at the first that fails.  A
``ClanError`` from a poset build fails every check whose range reaches
that size, with the error's message; the checks capped below it still run.

Importing this module loads only what the package loads (``clans``,
``enumeration``, ``sects``): each check imports the weak order, pyramid,
Delannoy or flag functions it uses when it runs, so importing the CLI,
which imports this module, compiles none of them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import TYPE_CHECKING

from .clans import MINUS, PLUS, ClanError, DIIIClan
from .enumeration import KNOWN_COUNTS, count_by_pairs, count_formula, count_recurrence
from .sects import (
    big_sect, clan_to_pfpf, epsilon_count, epsilon_recurrence, pfpf_to_clan, sect_sizes
)

if TYPE_CHECKING:
    from .weak_order import WeakOrderPoset


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


class CheckFailed(ClanError):
    """A check's verdict on one size; the message is the ``FAIL`` detail."""


def doubly_symmetric_by_orbits(m: int) -> int:
    """The number of placements of m rooks symmetric across both main
    diagonals, counted over the orbits of the reversal w0(i) = m+1-i.

    Such a placement is an involution sigma of S_m with
    sigma w0 sigma = w0, that is, sigma commutes with w0. So sigma maps
    each w0-orbit {i, m+1-i} onto an orbit, and the map it induces on the
    orbits is again an involution. An odd board's middle point is the one
    orbit of size 1, so it is fixed. Over the other p = m // 2 orbits,
    sigma matches 2k of them in pairs, which can be done in
    C(p, 2k) * (2k-1)!! ways. On a matched pair O, O' sigma sends i in O
    to either point of O', and that choice fixes sigma on the rest of
    O and O': 2 ways a pair. Each of the other p - 2k orbits is fixed
    pointwise or swapped: 2 ways each. So the count is the sum over k of
    C(p, 2k) * (2k-1)!! * 2**k * 2**(p - 2k).
    """
    p = m // 2
    total = 0
    matchings = 1  # (2k-1)!!
    for k in range(p // 2 + 1):
        total += comb(p, 2 * k) * matchings * 2 ** k * 2 ** (p - 2 * k)
        matchings *= 2 * k + 1
    return total


def check_counting(n: int, poset: WeakOrderPoset) -> None:
    formula = count_formula(n)
    rec = count_recurrence(n)
    enum = len(poset)
    if not formula == rec == enum:
        raise CheckFailed(f"n={n}: {formula}/{rec}/{enum} disagree")
    # enumerated clans by r, half their number of mate pairs
    by_pairs = Counter(len(c.pairs()) // 2 for c in poset.nodes)
    for r in range(n // 2 + 1):
        if by_pairs[r] != count_by_pairs(n, r):
            raise CheckFailed(f"n={n}: {by_pairs[r]} clans with {2 * r} pairs")
    if n <= len(KNOWN_COUNTS) and formula != KNOWN_COUNTS[n - 1]:
        raise CheckFailed(f"n={n}: {formula} != expected {KNOWN_COUNTS[n - 1]}")


def check_rank_polynomials(n: int, poset: WeakOrderPoset) -> None:
    from .weak_order import rank_poly_recurrence, rank_polynomial

    from_poset = rank_polynomial(poset)
    from_rec = rank_poly_recurrence(n)
    if from_poset.coeffs != from_rec.coeffs:
        raise CheckFailed(f"n={n}: poset {from_poset} vs recurrence {from_rec}")


def check_weak_order(n: int, poset: WeakOrderPoset) -> None:
    from .weak_order import maximal_clan

    clans = poset.nodes
    lengths = [c.length for c in clans]
    # images[k][i] is the node index of s_i on node k, read off the
    # covers (an image equal to its clan is not a cover); the grading
    # check below reads each node's formula length, not the covers
    images = [[k] * (n + 1) for k in range(len(clans))]
    for lower, upper, i in poset._edges():
        images[lower][i] = upper

    def act(i: int, k: int) -> int:
        return images[k][i]

    gens = range(1, n + 1)
    braid_pairs = [(i, i + 1) for i in range(1, n - 1)]
    if n >= 3:
        braid_pairs.append((n - 2, n))
    commuting = [
        (i, j)
        for i, j in combinations(gens, 2)
        if (i, j) not in braid_pairs
    ]
    for k, clan in enumerate(clans):
        for i in gens:
            image = act(i, k)
            if act(i, image) != image:
                raise CheckFailed(f"s_{i} not idempotent at {clan}")
            if image != k and lengths[image] != lengths[k] + 1:
                raise CheckFailed(f"s_{i} on {clan} changed length oddly")
        for i, j in braid_pairs:
            lhs = act(i, act(j, act(i, k)))
            rhs = act(j, act(i, act(j, k)))
            if lhs != rhs:
                raise CheckFailed(f"braid ({i},{j}) fails at {clan}")
        for i, j in commuting:
            if act(i, act(j, k)) != act(j, act(i, k)):
                raise CheckFailed(f"commutation ({i},{j}) fails at {clan}")
    tops = poset.maximal_elements()
    if tops != [maximal_clan(n)] or tops[0].length != n * (n - 1) // 2:
        raise CheckFailed(f"n={n}: wrong maximum {tops}")
    bottoms = poset.minimal_elements()
    if set(bottoms) != {c for c in clans if c.is_matchless()} or len(
        bottoms
    ) != 2 ** (n - 1):
        raise CheckFailed(f"n={n}: wrong minimal set")
    if n == 4 and poset.rank_sizes() != [8, 8, 7, 7, 4, 3, 1]:
        raise CheckFailed(f"n=4 rank sizes {poset.rank_sizes()}")


def check_sects(n: int, poset: WeakOrderPoset) -> None:
    from .weak_order import maximal_clan

    # the poset's nodes by signature, one part per base, against
    # sect_sizes: the bases of the even sign patterns (sect_signs) and
    # the sizes counted with no clan built
    parts: dict[tuple[str, ...], list[DIIIClan]] = {}
    for clan in poset.nodes:
        parts.setdefault(clan.signatures(), []).append(clan)
    sizes = sorted(("".join(base), len(part)) for base, part in parts.items())
    if sizes != sect_sizes(n):
        raise CheckFailed(f"n={n}: sect bases or sizes differ")
    if sum(size for _, size in sizes) != count_formula(n):
        raise CheckFailed(f"n={n}: sect sizes do not sum")
    for base, part in parts.items():
        top = max(c.length for c in part)
        if sum(1 for c in part if c.length == top) != 1:
            raise CheckFailed(f"n={n}: no unique longest clan over {''.join(base)}")
    big = big_sect(n)
    if len(big) != epsilon_count(n) or epsilon_count(n) != epsilon_recurrence(n):
        raise CheckFailed(f"n={n}: big sect size mismatch")
    if maximal_clan(n) not in big.members:
        raise CheckFailed(f"n={n}: maximum outside big sect")
    for clan in big:
        if pfpf_to_clan(clan_to_pfpf(clan), n) != clan:
            raise CheckFailed(f"pfpf round trip fails at {clan}")


def check_rooks(n: int, poset: WeakOrderPoset) -> None:
    from .pyramids import (
        PyramidParityError, RookPlacement, clan_to_pyramid, extend_odd, placement_to_clan,
        pyramid_to_clan, pyramid_to_placement, rotate_placement,
    )

    classes = set()
    for clan in poset.nodes:
        pyramid = clan_to_pyramid(clan)
        if pyramid_to_clan(pyramid) != clan:
            raise CheckFailed(f"pyramid round trip at {clan}")
        placement = pyramid_to_placement(pyramid)
        RookPlacement(placement.perm)  # the unfolding's own check, once a clan
        if placement_to_clan(placement) != clan:
            raise CheckFailed(f"placement round trip at {clan}")
        rotated = rotate_placement(placement)
        if placement_to_clan(rotated) != clan or rotate_placement(rotated) != placement:
            raise CheckFailed(f"rotation misbehaves at {clan}")
        try:
            pyramid_to_clan(pyramid.mirror())
        except PyramidParityError:
            pass
        else:
            raise CheckFailed(f"both pyramids decode at {clan}")
        classes.add(frozenset({placement.perm, rotated.perm}))
        if extend_odd(placement).size != 2 * n + 1:
            raise CheckFailed("extend_odd size wrong")
    if len(classes) != count_formula(n):
        raise CheckFailed(f"n={n}: {len(classes)} classes")
    even = doubly_symmetric_by_orbits(2 * n)
    if even != 2 * count_formula(n):
        raise CheckFailed(f"n={n}: orbit count {even} vs {2 * count_formula(n)}")


def check_partition_pairs(n: int, poset: WeakOrderPoset) -> None:
    from .pyramids import (
        PartitionPair, clan_to_pyramid, partition_pair_to_pyramid, pyramid_to_partition_pair
    )

    excluded = DIIIClan([PLUS] * n + [MINUS] * n)
    seen = set()
    for clan in poset.nodes:
        pyramid = clan_to_pyramid(clan)
        if clan == excluded:
            try:
                pyramid_to_partition_pair(pyramid)
            except ClanError:
                continue
            raise CheckFailed("excluded clan produced a pair")
        pair = pyramid_to_partition_pair(pyramid)
        PartitionPair(pair.left, pair.right, pair.blocks)  # the map's own check
        if partition_pair_to_pyramid(pair) != pyramid:
            raise CheckFailed(f"pair round trip fails at {clan}")
        seen.add((pair.partition(), pair.blocks))
    if len(seen) != count_formula(n) - 1:
        raise CheckFailed(f"n={n}: {len(seen)} pairs vs {count_formula(n) - 1}")


def check_delannoy(n: int, poset: WeakOrderPoset) -> None:
    from .delannoy import clan_to_path, path_to_clan, validate_path

    words = set()
    for clan in poset.nodes:
        path = clan_to_path(clan)
        ok, violated = validate_path(path)
        if not ok:
            raise CheckFailed(f"path of {clan} violates condition {violated}")
        if path_to_clan(path) != clan:
            raise CheckFailed(f"round trip fails at {clan}")
        words.add(path.to_word())
    if len(words) != count_formula(n):
        raise CheckFailed(f"n={n}: {len(words)} distinct words")


def check_flags(n: int, poset: WeakOrderPoset) -> None:
    from .flags import representative_matrix, verify_special_orthogonal

    seen = set()
    for clan in poset.nodes:
        matrix = representative_matrix(clan)
        if not verify_special_orthogonal(matrix):
            raise CheckFailed(f"{clan} not special orthogonal")
        # L with the scaled integer entries is an exact, injective key
        # that hashes ints, not Fractions
        seen.add(matrix._form)
    if len(seen) != count_formula(n):
        raise CheckFailed(f"n={n}: matrices not distinct")


#: Each check's name, the largest size it runs at (None for every size
#: asked for) and the summary its ``PASS`` line gives, in output order.
PLAN = (
    ("counting", None, "formula=recurrence=enumeration"),
    ("rank-polynomials", None, "poset=recurrence"),
    ("weak-order", 8, "idempotence/braid/grading/extremes"),
    ("sects", None, "partition/big-sect/pfpf"),
    ("rooks", 8, "bijections and brute counts"),
    ("partition-pairs", 8, "bijection and counts"),
    ("delannoy", 8, "round trips"),
    ("flags", 7, "exact SO and parity"),
)
CHECK_NAMES = tuple(name for name, _, _ in PLAN)


def run_suite(n_max: int) -> list[CheckResult]:
    """Every check in ``PLAN`` on the posets of sizes 1..n_max, each up to
    its cap, as one ``CheckResult`` a check."""
    from .weak_order import weak_order_poset

    posets = []
    for n in range(1, n_max + 1):
        try:
            posets.append(weak_order_poset(n))
        except ClanError as exc:
            unbuilt = str(exc)
            break
    results = []
    for name, cap, summary in PLAN:
        # read at each run, so a function rebound here (a tracer's) is called
        check = globals()["check_" + name.replace("-", "_")]
        top = n_max if cap is None else min(n_max, cap)
        try:
            for n, poset in enumerate(posets[:top], start=1):
                check(n, poset)
            if len(posets) < top:
                raise CheckFailed(unbuilt)
        except ClanError as exc:
            results.append(CheckResult(name, False, str(exc)))
        else:
            results.append(CheckResult(name, True, f"{summary} for n<= {top}"))
    return results
