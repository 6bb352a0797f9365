import pytest

from diii_clans import (
    Clan,
    ClanError,
    DIIIClan,
    assemble_clan,
    count_by_pairs,
    count_formula,
    count_recurrence,
    enumerate_diii,
    generate_diii,
    maximal_clan,
    sects,
)
from diii_clans.clans import spaced_texts, text_from_spaced

from oracles import naive_diii, raw_is_diii, raw_product_clans, all_canonical_clans

EXPECTED = {1: 1, 2: 3, 3: 10, 4: 38, 5: 156, 6: 692, 7: 3256}


class TestCounts:
    @pytest.mark.parametrize("n,expected", sorted(EXPECTED.items()))
    def test_formula_matches_known_sequence(self, n, expected):
        assert count_formula(n) == expected

    @pytest.mark.parametrize("n,expected", sorted(EXPECTED.items()))
    def test_recurrence_matches_known_sequence(self, n, expected):
        assert count_recurrence(n) == expected

    def test_recurrence_convention_at_zero(self):
        assert count_recurrence(0) == 1

    def test_formula_rejects_nonpositive(self):
        with pytest.raises(ClanError):
            count_formula(0)

    def test_by_pairs_brute_force(self):
        # split the naive enumeration by number of mate pairs
        for n in range(1, 5):
            by_r = {}
            for raw in naive_diii(n):
                r = sum(1 for s in raw if s not in ("+", "-")) // 4
                by_r[r] = by_r.get(r, 0) + 1
            for r in range(n // 2 + 1):
                assert count_by_pairs(n, r) == by_r.get(r, 0)

    def test_by_pairs_examples(self):
        assert count_by_pairs(2, 0) == 2
        assert count_by_pairs(2, 1) == 1
        assert count_by_pairs(4, 0) == 8  # 2^(4-1) matchless clans

    def test_by_pairs_matchless_is_power_of_two(self):
        for n in range(1, 10):
            assert count_by_pairs(n, 0) == 2 ** (n - 1)

    def test_by_pairs_range_check(self):
        with pytest.raises(ClanError):
            count_by_pairs(3, 2)

    def test_large_counts_are_exact(self):
        # arbitrary-precision integers: no overflow at large n
        assert count_formula(60) == count_recurrence(60)
        assert count_formula(60) % 2 == 0


class TestEnumeration:
    def test_smallest_cases(self):
        assert [c.text() for c in enumerate_diii(1)] == ["+-"]
        assert {c.text() for c in enumerate_diii(2)} == {"++--", "--++", "1212"}

    def test_n3_matches_naive_filter(self):
        expected = {
            "+++---", "+--++-", "+1212-", "-+-+-+", "--+-++",
            "-1122+", "1+21-2", "1-12+2", "11-+22", "12+-12",
        }
        assert {c.text() for c in enumerate_diii(3)} == expected
        assert {Clan(t).text() for t in naive_diii(3)} == expected

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_matches_naive_filter(self, n):
        structured = {c.symbols for c in enumerate_diii(n)}
        naive = {t for t in naive_diii(n)}
        assert structured == naive

    def test_restricted_growth_agrees_with_blind_products(self):
        for n in (1, 2):
            assert set(all_canonical_clans(n)) == raw_product_clans(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_sizes_and_validity(self, n):
        clans = enumerate_diii(n)
        assert len(clans) == EXPECTED[n]
        assert len(set(clans.clans)) == len(clans)
        assert all(c.diii_violation() is None for c in clans)

    def test_all_routes_agree_at_n8(self):
        total = count_formula(8)
        assert total == 16200
        assert count_recurrence(8) == total
        assert sum(count_by_pairs(8, r) for r in range(5)) == total
        assert len(enumerate_diii(8)) == total

    def test_sorted_by_spaced_text(self):
        clans = enumerate_diii(4).clans
        spaced = [c.spaced() for c in clans]
        assert spaced == sorted(spaced)

    def test_rejects_nonpositive(self):
        with pytest.raises(ClanError):
            enumerate_diii(0)

    def test_keeps_no_set_between_calls(self):
        first, second = enumerate_diii(3), enumerate_diii(3)
        assert first is not second and first.clans == second.clans

    def test_membership(self):
        # every member is found; a clan of another size, a member of
        # another sect and a non-clan are not
        sets = {n: enumerate_diii(n) for n in range(1, 6)}
        for n, clans in sets.items():
            assert all(clan in clans for clan in clans)
            assert all(clan not in sets[n % 5 + 1] for clan in clans)
            for sect in sects(n):
                assert sum(clan in sect.clans for clan in clans) == len(sect)
        non_diii = Clan("1122")
        assert non_diii.diii_violation() is not None and non_diii not in sets[2]
        assert "1212" not in sets[2] and "1 2 1 2" not in sets[2]
        assert None not in sets[2] and sets[2].keys[0] not in sets[2]


class TestKeys:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_texts_from_keys_match_the_checked_clans(self, n):
        # each key, rebuilt as a checked clan (validated, relabelled by
        # Clan's own scan), has that key and the texts the set rendered
        clans = enumerate_diii(n)
        checked = [DIIIClan(c.symbols) for c in clans]
        assert [c._key() for c in checked] == list(clans.keys)
        assert [c.spaced() for c in checked] == list(clans.texts)
        assert [c.text() for c in checked] == [text_from_spaced(t) for t in clans.texts]

    @pytest.mark.parametrize("n", [10, 11])
    def test_texts_past_nine_labels(self, n):
        # the maximal clan has n labels, rounded down to even: 10 here,
        # so its text is the spaced form
        clan = maximal_clan(n)
        assert spaced_texts(n, [clan._key()]) == [clan.spaced()]
        assert text_from_spaced(clan.spaced()) == clan.text() == clan.spaced()
        assert DIIIClan._from_key(clan._key()) == DIIIClan(clan.symbols) == clan

    def test_clans_are_built_on_first_access_only(self):
        clans = enumerate_diii(4)
        assert "clans" not in vars(clans)
        assert clans.clans is clans.clans and len(clans.clans) == len(clans)


class TestAssembly:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_generated_clans_equal_checked_construction(self, n):
        # generate_diii builds each clan unchecked from its written key; the
        # public constructor re-validates each clan and recomputes it
        for clan in generate_diii(n):
            checked = DIIIClan(clan.symbols)
            assert clan.symbols == checked.symbols
            assert clan._key() == checked._key()
            assert clan.length == checked.length
            assert raw_is_diii(clan.symbols)

    @pytest.mark.parametrize(
        "args, reason",
        [
            ((3, [(1, 3)], [], {2: "+"}), "0 minus signs, 1 contained pairs"),
            ((2, [], [], {1: "+", 2: "-"}), "1 minus signs, 0 contained pairs"),
            ((4, [(1, 2)], [], {3: "-", 4: "-"}), "2 minus signs, 1 contained pairs"),
        ],
    )
    def test_odd_parity_raises_the_diii_error(self, args, reason):
        message = f"not a DIII clan: odd parity in the first half ({reason})"
        with pytest.raises(ClanError) as caught:
            assemble_clan(*args)
        assert str(caught.value) == message

    def test_structural_errors_come_first(self):
        with pytest.raises(ClanError, match="assigned twice"):
            assemble_clan(2, [(1, 2)], [], {1: "-"})
        with pytest.raises(ClanError, match="left unassigned"):
            assemble_clan(2, [], [], {1: "-"})
        with pytest.raises(ClanError, match="at least two symbols"):
            assemble_clan(0, [], [], {})
