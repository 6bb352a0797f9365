"""Acceptance gate: one test per criterion, every comparison exact.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line
per criterion.
"""

from itertools import combinations

import pytest

from diii_clans import (
    DIIIClan,
    PyramidParityError,
    apply_reflection,
    big_sect,
    clan_length,
    clan_to_path,
    clan_to_pfpf,
    clan_to_pyramid,
    count_by_pairs,
    count_formula,
    count_recurrence,
    enumerate_diii,
    epsilon_count,
    intersection_parity,
    maximal_clan,
    parse_diii,
    partition_pair_to_pyramid,
    path_to_clan,
    pfpf_to_clan,
    placement_to_clan,
    pyramid_to_clan,
    pyramid_to_partition_pair,
    pyramid_to_placement,
    rank_poly_recurrence,
    rank_polynomial,
    representative_matrix,
    sects,
    validate_path,
    verify_special_orthogonal,
    weak_order_poset,
)
from diii_clans.flags import INV_SQRT2, ONE, ZERO

from oracles import candidate_weighted_words, doubly_symmetric_count

KNOWN_SEQUENCE = [1, 3, 10, 38, 156, 692, 3256]


def test_criterion_1_counting():
    """count n for n=1..7 is 1,3,10,38,156,692,3256 with formula,
    recurrence, per-pair sum, and exhaustive enumeration agreeing exactly."""
    for n, expected in zip(range(1, 8), KNOWN_SEQUENCE):
        assert count_formula(n) == expected
        assert count_recurrence(n) == expected
        assert sum(count_by_pairs(n, r) for r in range(n // 2 + 1)) == expected
        assert len(enumerate_diii(n)) == expected


def test_criterion_2_rank_polynomials():
    """Poset-derived rank polynomial equals the recurrence for n=3..7;
    A2 = t+2 and A4 matches the pinned polynomial."""
    assert rank_poly_recurrence(2).coeffs == (2, 1)
    assert str(rank_poly_recurrence(4)) == "t^6+3t^5+4t^4+7t^3+7t^2+8t+8"
    for n in range(3, 8):
        assert rank_polynomial(weak_order_poset(n)).coeffs == rank_poly_recurrence(n).coeffs


def test_criterion_3_weak_order_structure():
    """For n <= 6: idempotence, type-D braid relations, unit length raise,
    unique maximum at the constructed clan, matchless minima, and the
    pinned n=4 rank sizes."""
    for n in range(1, 7):
        gens = range(1, n + 1)
        braid = [(i, i + 1) for i in range(1, n - 1)]
        if n >= 3:
            braid.append((n - 2, n))
        commuting = [p for p in combinations(gens, 2) if p not in braid]
        for clan in enumerate_diii(n):
            base = clan_length(clan).length
            for i in gens:
                image = apply_reflection(i, clan)
                assert apply_reflection(i, image) == image
                if image != clan:
                    assert clan_length(image).length == base + 1
            for i, j in braid:
                assert apply_reflection(
                    i, apply_reflection(j, apply_reflection(i, clan))
                ) == apply_reflection(j, apply_reflection(i, apply_reflection(j, clan)))
            for i, j in commuting:
                assert apply_reflection(i, apply_reflection(j, clan)) == apply_reflection(
                    j, apply_reflection(i, clan)
                )
        poset = weak_order_poset(n)
        top = poset.maximal_elements()
        assert top == [maximal_clan(n)]
        assert clan_length(top[0]).length == n * (n - 1) // 2
        bottoms = poset.minimal_elements()
        assert len(bottoms) == 2 ** (n - 1)
        assert all(c.is_matchless() for c in bottoms)
    assert weak_order_poset(4).rank_sizes() == [8, 8, 7, 7, 4, 3, 1]


def test_criterion_4_sects():
    """Sect count 2^(n-1), sizes summing to the clan count, big-sect sizes
    1,2,4,10,26,76 for n=1..6, unique longest member per sect, and exact
    partial-involution round trips."""
    involution_numbers = [1, 2, 4, 10, 26, 76]
    for n in range(1, 7):
        parts = sects(n)
        assert len(parts) == 2 ** (n - 1)
        assert sum(len(s) for s in parts) == count_formula(n)
        for sect in parts:
            lengths = [clan_length(c).length for c in sect]
            assert lengths.count(max(lengths)) == 1
        big = big_sect(n)
        assert len(big) == epsilon_count(n) == involution_numbers[n - 1]
        for clan in big:
            assert pfpf_to_clan(clan_to_pfpf(clan), n) == clan


def test_criterion_5_rook_bijection():
    """Doubly symmetric placement counts are 2 * Delta_n on even boards up
    to 10 and equal on the following odd board; clan/pyramid/placement
    round trips are identities; exactly one pyramid per placement decodes;
    the reference pyramid decodes to 1-1+-2+2."""
    for n in range(1, 6):
        assert doubly_symmetric_count(2 * n) == 2 * count_formula(n)
        assert doubly_symmetric_count(2 * n + 1) == doubly_symmetric_count(2 * n)
        for clan in enumerate_diii(n):
            pyramid = clan_to_pyramid(clan)
            assert pyramid_to_clan(pyramid) == clan
            placement = pyramid_to_placement(pyramid)
            assert placement_to_clan(placement) == clan
            with pytest.raises(PyramidParityError):
                pyramid_to_clan(pyramid.mirror())
    reference = clan_to_pyramid(parse_diii("1-1+-2+2"))
    assert reference.rooks == {
        ("L", 4, 4),
        ("R", 2, 2),
        ("L", 1, 3),
    }
    assert pyramid_to_clan(reference).text() == "1-1+-2+2"


def test_criterion_6_partition_pairs():
    """Produced pairs are minimally intersecting with a two-block first
    partition; totals are Delta_n - 1 for n <= 6; the reference pair is
    reproduced from its pyramid."""
    for n in range(2, 7):
        excluded = DIIIClan(["+"] * n + ["-"] * n)
        seen = set()
        for clan in enumerate_diii(n):
            if clan == excluded:
                continue
            pair = pyramid_to_partition_pair(clan_to_pyramid(clan))
            assert pair.left and pair.right
            for block in pair.blocks:
                assert len(block & pair.left) <= 1 and len(block & pair.right) <= 1
            assert partition_pair_to_pyramid(pair) == clan_to_pyramid(clan)
            seen.add((pair.partition(), pair.blocks))
        assert len(seen) == count_formula(n) - 1
    example = pyramid_to_partition_pair(clan_to_pyramid(parse_diii("1-1+-2+2")))
    assert example.partition() == frozenset({frozenset({3, 4}), frozenset({1, 2})})
    assert example.blocks == frozenset({frozenset({1, 3}), frozenset({2}), frozenset({4})})


def test_criterion_7_delannoy():
    """Round trips on all clans for n <= 5; the reference clan maps to
    (E,1)(D,4)(D,3)(D,2)(D,5)(N,1); the validator accepts exactly Delta_n
    words for n <= 4 under the amended stage bound."""
    for n in range(1, 6):
        for clan in enumerate_diii(n):
            path = clan_to_path(clan)
            assert validate_path(path) == (True, None)
            assert path_to_clan(path) == clan
    assert clan_to_path(parse_diii("+12213443-")).to_word() == "E D:4 D:3 D:2 D:5 N"
    for n in range(1, 5):
        accepted = sum(
            1
            for word in candidate_weighted_words(n)
            if validate_path(list(word))[0]
        )
        assert accepted == count_formula(n)


def test_criterion_8_flag_matrices():
    """Every representative with n <= 5 satisfies the form identity and
    unit determinant exactly, has intersection parity n mod 2, and the
    +1212- clan reproduces the pinned 6x6 matrix entry for entry."""
    for n in range(1, 6):
        for clan in enumerate_diii(n):
            matrix = representative_matrix(clan)
            assert verify_special_orthogonal(matrix)
            assert intersection_parity(matrix) == n % 2
    s = INV_SQRT2
    pinned = (
        (ONE, ZERO, ZERO, ZERO, ZERO, ZERO),
        (ZERO, ZERO, s, ZERO, s, ZERO),
        (ZERO, s, ZERO, -s, ZERO, ZERO),
        (ZERO, ZERO, -s, ZERO, s, ZERO),
        (ZERO, s, ZERO, s, ZERO, ZERO),
        (ZERO, ZERO, ZERO, ZERO, ZERO, ONE),
    )
    assert representative_matrix(parse_diii("+1212-")).rows == pinned
