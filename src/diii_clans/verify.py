"""One-shot consistency suite behind the ``verify`` CLI subcommand.

Each check cross-validates independent routes to the same data (formula vs
recurrence vs exhaustive generation, poset vs recurrence polynomials, both
directions of every bijection).  Brute-force searches are capped at the
sizes where they stay fast; everything else runs up to the requested n.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Iterator

from .clans import MINUS, PLUS, DIIIClan
from .delannoy import clan_to_path, path_to_clan, validate_path
from .enumeration import (
    KNOWN_COUNTS,
    count_by_pairs,
    count_formula,
    count_recurrence,
    enumerate_diii,
)
from .flags import (
    _scaled,
    intersection_parity,
    representative_matrix,
    verify_special_orthogonal,
)
from .pyramids import (
    PyramidParityError,
    clan_to_pyramid,
    extend_odd,
    placement_to_clan,
    pyramid_to_clan,
    pyramid_to_partition_pair,
    pyramid_to_placement,
    partition_pair_to_pyramid,
    rotate_placement,
)
from .sects import big_sect, clan_to_pfpf, epsilon_count, epsilon_recurrence, pfpf_to_clan, sects
from .weak_order import (
    maximal_clan,
    rank_poly_recurrence,
    rank_polynomial,
    weak_order_poset,
)


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


def check_counting(n_max: int) -> CheckResult:
    for n in range(1, n_max + 1):
        formula = count_formula(n)
        rec = count_recurrence(n)
        by_pairs = sum(count_by_pairs(n, r) for r in range(n // 2 + 1))
        enum = len(enumerate_diii(n))
        if not formula == rec == by_pairs == enum:
            return CheckResult(
                "counting", False, f"n={n}: {formula}/{rec}/{by_pairs}/{enum} disagree"
            )
        if n <= len(KNOWN_COUNTS) and formula != KNOWN_COUNTS[n - 1]:
            return CheckResult(
                "counting", False, f"n={n}: {formula} != expected {KNOWN_COUNTS[n - 1]}"
            )
    return CheckResult("counting", True, f"formula=recurrence=enumeration for n<= {n_max}")


def check_rank_polynomials(n_max: int) -> CheckResult:
    for n in range(1, n_max + 1):
        from_poset = rank_polynomial(weak_order_poset(n))
        from_rec = rank_poly_recurrence(n)
        if from_poset.coeffs != from_rec.coeffs:
            return CheckResult(
                "rank-polynomials",
                False,
                f"n={n}: poset {from_poset} vs recurrence {from_rec}",
            )
    return CheckResult("rank-polynomials", True, f"poset=recurrence for n<= {n_max}")


def check_weak_order(n_max: int) -> CheckResult:
    cap = min(n_max, 6)
    for n in range(1, cap + 1):
        clans = enumerate_diii(n).clans
        poset = weak_order_poset(n)
        # every reflection image, read off the poset's covers (an image
        # equal to its clan is not a cover); each upper is an enumerated
        # node, so the grading check below reads its formula length
        images = {(i, lower): upper for lower, upper, i in poset.covers}

        def act(i: int, clan: DIIIClan) -> DIIIClan:
            return images.get((i, clan), clan)

        gens = range(1, n + 1)
        braid_pairs = [(i, i + 1) for i in range(1, n - 1)]
        if n >= 3:
            braid_pairs.append((n - 2, n))
        commuting = [
            (i, j)
            for i, j in combinations(gens, 2)
            if (i, j) not in braid_pairs
        ]
        for clan in clans:
            for i in gens:
                image = act(i, clan)
                if act(i, image) != image:
                    return CheckResult(
                        "weak-order", False, f"s_{i} not idempotent at {clan}"
                    )
                if image != clan and image.length != clan.length + 1:
                    return CheckResult(
                        "weak-order", False, f"s_{i} on {clan} changed length oddly"
                    )
            for i, j in braid_pairs:
                lhs = act(i, act(j, act(i, clan)))
                rhs = act(j, act(i, act(j, clan)))
                if lhs != rhs:
                    return CheckResult(
                        "weak-order", False, f"braid ({i},{j}) fails at {clan}"
                    )
            for i, j in commuting:
                if act(i, act(j, clan)) != act(j, act(i, clan)):
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


def check_sects(n_max: int) -> CheckResult:
    for n in range(1, n_max + 1):
        parts = sects(n)
        if len(parts) != 2 ** (n - 1):
            return CheckResult("sects", False, f"n={n}: {len(parts)} sects")
        if sum(len(s) for s in parts) != count_formula(n):
            return CheckResult("sects", False, f"n={n}: sect sizes do not sum")
        for s in parts:
            s.longest()  # raises if not unique
            if any(c.base_clan() != s.base for c in s):
                return CheckResult("sects", False, f"n={n}: stray member in {s.base}")
        big = big_sect(n)
        if len(big) != epsilon_count(n) or epsilon_count(n) != epsilon_recurrence(n):
            return CheckResult("sects", False, f"n={n}: big sect size mismatch")
        if maximal_clan(n) not in big.members:
            return CheckResult("sects", False, f"n={n}: maximum outside big sect")
        for clan in big:
            if pfpf_to_clan(clan_to_pfpf(clan), n) != clan:
                return CheckResult("sects", False, f"pfpf round trip fails at {clan}")
    return CheckResult("sects", True, f"partition/big-sect/pfpf for n<= {n_max}")


def check_rooks(n_max: int) -> CheckResult:
    cap = min(n_max, 5)
    for n in range(1, cap + 1):
        classes = set()
        for clan in enumerate_diii(n):
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


def check_partition_pairs(n_max: int) -> CheckResult:
    cap = min(n_max, 6)
    for n in range(2, cap + 1):
        excluded = DIIIClan([PLUS] * n + [MINUS] * n)
        seen = set()
        for clan in enumerate_diii(n):
            pyramid = clan_to_pyramid(clan)
            if clan == excluded:
                try:
                    pyramid_to_partition_pair(pyramid)
                except Exception:
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


def check_delannoy(n_max: int) -> CheckResult:
    cap = min(n_max, 5)
    for n in range(1, cap + 1):
        words = set()
        for clan in enumerate_diii(n):
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


def check_flags(n_max: int) -> CheckResult:
    cap = min(n_max, 7)
    for n in range(1, cap + 1):
        seen = set()
        for clan in enumerate_diii(n):
            matrix = representative_matrix(clan)
            if not verify_special_orthogonal(matrix):
                return CheckResult("flags", False, f"{clan} not special orthogonal")
            if intersection_parity(matrix) != n % 2:
                return CheckResult("flags", False, f"{clan} has wrong parity")
            # L with the scaled integer entries is an exact, injective key
            # that hashes ints, not Fractions
            seen.add(_scaled(matrix.rows))
        if len(seen) != count_formula(n):
            return CheckResult("flags", False, f"n={n}: matrices not distinct")
    return CheckResult("flags", True, f"exact SO and parity for n<= {cap}")


CHECKS: tuple[Callable[[int], CheckResult], ...] = (
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
    return [check(n_max) for check in CHECKS]
