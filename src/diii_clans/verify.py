"""One-shot consistency suite behind the ``verify`` CLI subcommand.

Each check cross-validates independent routes to the same data (formula vs
recurrence vs exhaustive generation, poset vs recurrence polynomials, both
directions of every bijection).  Brute-force searches are capped at the
sizes where they stay fast; everything else runs up to the requested n.

``run_suite`` builds the weak-order poset of each size once; every check
takes that tuple, size n at place n-1, and reads its clans from the nodes.

Importing this module loads only what the package loads (``clans``,
``enumeration``, ``sects``): each check imports the weak order, pyramid,
Delannoy or flag functions it uses when it runs, so importing the CLI,
which imports this module, compiles none of them.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from typing import TYPE_CHECKING, Callable, Iterator

from .clans import MINUS, PLUS, ClanError, DIIIClan
from .enumeration import KNOWN_COUNTS, count_by_pairs, count_formula, count_recurrence
from .sects import (
    big_sect, clan_to_pfpf, epsilon_count, epsilon_recurrence, pfpf_to_clan, sect_sizes
)

if TYPE_CHECKING:
    from .weak_order import WeakOrderPoset

Posets = tuple["WeakOrderPoset", ...]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _involutions(m: int) -> Iterator[tuple[int, ...]]:
    """All involutions of {1..m} in one-line notation."""

    def rec(remaining: tuple[int, ...], acc: dict[int, int]) -> Iterator[dict[int, int]]:
        if not remaining:
            yield dict(acc)
            return
        first, rest = remaining[0], remaining[1:]
        acc[first] = first
        yield from rec(rest, acc)
        del acc[first]
        for k, partner in enumerate(rest):
            acc[first], acc[partner] = partner, first
            yield from rec(rest[:k] + rest[k + 1 :], acc)
            del acc[first], acc[partner]

    for mapping in rec(tuple(range(1, m + 1)), {}):
        yield tuple(mapping[i] for i in range(1, m + 1))


def count_doubly_symmetric_placements(m: int) -> int:
    """Brute force: involutions of S_m that are also antidiagonal-symmetric."""
    total = 0
    for perm in _involutions(m):
        if all(perm[m - perm[i - 1]] == m + 1 - i for i in range(1, m + 1)):
            total += 1
    return total


def check_counting(posets: Posets) -> CheckResult:
    n_max = len(posets)
    for n, poset in enumerate(posets, start=1):
        formula = count_formula(n)
        rec = count_recurrence(n)
        enum = len(poset)
        if not formula == rec == enum:
            return CheckResult("counting", False, f"n={n}: {formula}/{rec}/{enum} disagree")
        # enumerated clans by r, half their number of mate pairs
        by_pairs = Counter(len(c.pairs()) // 2 for c in poset.nodes)
        for r in range(n // 2 + 1):
            if by_pairs[r] != count_by_pairs(n, r):
                return CheckResult(
                    "counting", False, f"n={n}: {by_pairs[r]} clans with {2 * r} pairs"
                )
        if n <= len(KNOWN_COUNTS) and formula != KNOWN_COUNTS[n - 1]:
            return CheckResult(
                "counting", False, f"n={n}: {formula} != expected {KNOWN_COUNTS[n - 1]}"
            )
    return CheckResult("counting", True, f"formula=recurrence=enumeration for n<= {n_max}")


def check_rank_polynomials(posets: Posets) -> CheckResult:
    from .weak_order import rank_poly_recurrence, rank_polynomial

    n_max = len(posets)
    for n, poset in enumerate(posets, start=1):
        from_poset = rank_polynomial(poset)
        from_rec = rank_poly_recurrence(n)
        if from_poset.coeffs != from_rec.coeffs:
            return CheckResult(
                "rank-polynomials",
                False,
                f"n={n}: poset {from_poset} vs recurrence {from_rec}",
            )
    return CheckResult("rank-polynomials", True, f"poset=recurrence for n<= {n_max}")


def check_weak_order(posets: Posets) -> CheckResult:
    from .weak_order import maximal_clan

    cap = min(len(posets), 6)
    for n, poset in enumerate(posets[:cap], start=1):
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
                    return CheckResult(
                        "weak-order", False, f"s_{i} not idempotent at {clan}"
                    )
                if image != k and lengths[image] != lengths[k] + 1:
                    return CheckResult(
                        "weak-order", False, f"s_{i} on {clan} changed length oddly"
                    )
            for i, j in braid_pairs:
                lhs = act(i, act(j, act(i, k)))
                rhs = act(j, act(i, act(j, k)))
                if lhs != rhs:
                    return CheckResult(
                        "weak-order", False, f"braid ({i},{j}) fails at {clan}"
                    )
            for i, j in commuting:
                if act(i, act(j, k)) != act(j, act(i, k)):
                    return CheckResult(
                        "weak-order", False, f"commutation ({i},{j}) fails at {clan}"
                    )
        tops = poset.maximal_elements()
        if tops != [maximal_clan(n)] or tops[0].length != n * (n - 1) // 2:
            return CheckResult("weak-order", False, f"n={n}: wrong maximum {tops}")
        bottoms = poset.minimal_elements()
        if set(bottoms) != {c for c in clans if c.is_matchless()} or len(
            bottoms
        ) != 2 ** (n - 1):
            return CheckResult("weak-order", False, f"n={n}: wrong minimal set")
        if n == 4 and poset.rank_sizes() != [8, 8, 7, 7, 4, 3, 1]:
            return CheckResult(
                "weak-order", False, f"n=4 rank sizes {poset.rank_sizes()}"
            )
    return CheckResult(
        "weak-order", True, f"idempotence/braid/grading/extremes for n<= {cap}"
    )


def check_sects(posets: Posets) -> CheckResult:
    from .weak_order import maximal_clan

    n_max = len(posets)
    for n, poset in enumerate(posets, start=1):
        # the poset's nodes by signature, one part per base, against
        # sect_sizes: the bases of the even sign patterns (sect_signs) and
        # the sizes counted with no clan built
        parts: dict[tuple[str, ...], list[DIIIClan]] = {}
        for clan in poset.nodes:
            parts.setdefault(clan.signatures(), []).append(clan)
        if len(parts) != 2 ** (n - 1):
            return CheckResult("sects", False, f"n={n}: {len(parts)} sects")
        sizes = sorted(("".join(base), len(part)) for base, part in parts.items())
        if sizes != sect_sizes(n):
            return CheckResult("sects", False, f"n={n}: sect bases or sizes differ")
        if sum(size for _, size in sizes) != count_formula(n):
            return CheckResult("sects", False, f"n={n}: sect sizes do not sum")
        for base, part in parts.items():
            top = max(c.length for c in part)
            if sum(1 for c in part if c.length == top) != 1:
                return CheckResult(
                    "sects", False, f"n={n}: no unique longest clan over {''.join(base)}"
                )
        big = big_sect(n)
        if len(big) != epsilon_count(n) or epsilon_count(n) != epsilon_recurrence(n):
            return CheckResult("sects", False, f"n={n}: big sect size mismatch")
        if maximal_clan(n) not in big.members:
            return CheckResult("sects", False, f"n={n}: maximum outside big sect")
        for clan in big:
            if pfpf_to_clan(clan_to_pfpf(clan), n) != clan:
                return CheckResult("sects", False, f"pfpf round trip fails at {clan}")
    return CheckResult("sects", True, f"partition/big-sect/pfpf for n<= {n_max}")


def check_rooks(posets: Posets) -> CheckResult:
    from .pyramids import (
        PyramidParityError,
        clan_to_pyramid,
        extend_odd,
        placement_to_clan,
        pyramid_to_clan,
        pyramid_to_placement,
        rotate_placement,
    )

    cap = min(len(posets), 5)
    for n, poset in enumerate(posets[:cap], start=1):
        classes = set()
        for clan in poset.nodes:
            pyramid = clan_to_pyramid(clan)
            if pyramid_to_clan(pyramid) != clan:
                return CheckResult("rooks", False, f"pyramid round trip at {clan}")
            placement = pyramid_to_placement(pyramid)
            if placement_to_clan(placement) != clan:
                return CheckResult("rooks", False, f"placement round trip at {clan}")
            rotated = rotate_placement(placement)
            if placement_to_clan(rotated) != clan or rotate_placement(rotated) != placement:
                return CheckResult("rooks", False, f"rotation misbehaves at {clan}")
            try:
                pyramid_to_clan(pyramid.mirror())
            except PyramidParityError:
                pass
            else:
                return CheckResult("rooks", False, f"both pyramids decode at {clan}")
            classes.add(frozenset({placement.perm, rotated.perm}))
            if extend_odd(placement).size != 2 * n + 1:
                return CheckResult("rooks", False, "extend_odd size wrong")
        if len(classes) != count_formula(n):
            return CheckResult("rooks", False, f"n={n}: {len(classes)} classes")
        brute_even = count_doubly_symmetric_placements(2 * n)
        brute_odd = count_doubly_symmetric_placements(2 * n + 1)
        if brute_even != 2 * count_formula(n) or brute_odd != brute_even:
            return CheckResult(
                "rooks",
                False,
                f"n={n}: brute counts {brute_even}/{brute_odd} vs {2 * count_formula(n)}",
            )
    return CheckResult("rooks", True, f"bijections and brute counts for n<= {cap}")


def check_partition_pairs(posets: Posets) -> CheckResult:
    from .pyramids import clan_to_pyramid, partition_pair_to_pyramid, pyramid_to_partition_pair

    cap = min(len(posets), 6)
    for n, poset in enumerate(posets[1:cap], start=2):
        excluded = DIIIClan([PLUS] * n + [MINUS] * n)
        seen = set()
        for clan in poset.nodes:
            pyramid = clan_to_pyramid(clan)
            if clan == excluded:
                try:
                    pyramid_to_partition_pair(pyramid)
                except ClanError:
                    continue
                return CheckResult(
                    "partition-pairs", False, "excluded clan produced a pair"
                )
            pair = pyramid_to_partition_pair(pyramid)
            for block in pair.blocks:
                if len(block & pair.left) > 1 or len(block & pair.right) > 1:
                    return CheckResult(
                        "partition-pairs", False, f"not minimally intersecting at {clan}"
                    )
            if partition_pair_to_pyramid(pair) != pyramid:
                return CheckResult(
                    "partition-pairs", False, f"pair round trip fails at {clan}"
                )
            seen.add((pair.partition(), pair.blocks))
        if len(seen) != count_formula(n) - 1:
            return CheckResult(
                "partition-pairs", False, f"n={n}: {len(seen)} pairs vs {count_formula(n) - 1}"
            )
    return CheckResult("partition-pairs", True, f"bijection and counts for n<= {cap}")


def check_delannoy(posets: Posets) -> CheckResult:
    from .delannoy import clan_to_path, path_to_clan, validate_path

    cap = min(len(posets), 5)
    for n, poset in enumerate(posets[:cap], start=1):
        words = set()
        for clan in poset.nodes:
            path = clan_to_path(clan)
            ok, violated = validate_path(path)
            if not ok:
                return CheckResult(
                    "delannoy", False, f"path of {clan} violates condition {violated}"
                )
            if path_to_clan(path) != clan:
                return CheckResult("delannoy", False, f"round trip fails at {clan}")
            words.add(path.to_word())
        if len(words) != count_formula(n):
            return CheckResult("delannoy", False, f"n={n}: {len(words)} distinct words")
    return CheckResult("delannoy", True, f"round trips for n<= {cap}")


def check_flags(posets: Posets) -> CheckResult:
    from .flags import (
        _integer_form,
        intersection_parity,
        representative_matrix,
        verify_special_orthogonal,
    )

    cap = min(len(posets), 7)
    for n, poset in enumerate(posets[:cap], start=1):
        seen = set()
        for clan in poset.nodes:
            matrix = representative_matrix(clan)
            if not verify_special_orthogonal(matrix):
                return CheckResult("flags", False, f"{clan} not special orthogonal")
            if intersection_parity(matrix) != n % 2:
                return CheckResult("flags", False, f"{clan} has wrong parity")
            # L with the scaled integer entries is an exact, injective key
            # that hashes ints, not Fractions
            seen.add(_integer_form(matrix).scaled)
        if len(seen) != count_formula(n):
            return CheckResult("flags", False, f"n={n}: matrices not distinct")
    return CheckResult("flags", True, f"exact SO and parity for n<= {cap}")


CHECKS: tuple[Callable[[Posets], CheckResult], ...] = (
    check_counting,
    check_rank_polynomials,
    check_weak_order,
    check_sects,
    check_rooks,
    check_partition_pairs,
    check_delannoy,
    check_flags,
)


def run_suite(n_max: int) -> list[CheckResult]:
    from .weak_order import weak_order_poset

    posets = tuple(weak_order_poset(n) for n in range(1, n_max + 1))
    return [check(posets) for check in CHECKS]
