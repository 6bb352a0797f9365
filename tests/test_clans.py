import pytest
from hypothesis import given

from diii_clans import (
    Clan,
    ClanError,
    DIIIClan,
    parse_clan,
    parse_diii,
)

from conftest import diii_clans
from oracles import all_canonical_clans, naive_diii, raw_is_diii, raw_pair_data


class TestParsing:
    def test_compact_form(self):
        clan = parse_clan("+1212-")
        assert clan.n == 3
        assert clan.symbols == ("+", 1, 2, 1, 2, "-")

    def test_relabeling_by_first_occurrence(self):
        assert parse_clan("2211").text() == "1122"
        assert parse_clan("2211") == parse_clan("1122")

    def test_spaced_form(self):
        clan = parse_clan("+ 10 - 10")
        assert clan.symbols == ("+", 1, "-", 1)

    def test_unicode_minus_accepted(self):
        assert parse_clan("+1212−") == parse_clan("+1212-")

    def test_unbalanced_signs_rejected(self):
        with pytest.raises(ClanError, match="unbalanced"):
            parse_clan("+1+1")

    def test_odd_length_rejected(self):
        with pytest.raises(ClanError, match="odd"):
            parse_clan("+-+")

    def test_label_appearing_once_rejected(self):
        with pytest.raises(ClanError, match="appears 1"):
            parse_clan("12 1 2 3")

    @pytest.mark.parametrize(
        "symbols,message",
        [
            ([], "at least two symbols"),
            ([1, 1, 1], r"odd number of symbols \(3\)"),
            ([1, 1, 1, "+"], "label 1 appears 3 times"),
            ([1, "+", 2, 2, 2, 1], "label 2 appears 3 times"),
            (["+", "+"], r"unbalanced signs \(2 plus vs 0 minus\)"),
        ],
    )
    def test_error_precedence(self, symbols, message):
        # odd length before label counts before sign balance
        with pytest.raises(ClanError, match=message):
            Clan(symbols)

    def test_unknown_token_rejected(self):
        with pytest.raises(ClanError, match="unknown token"):
            parse_clan("+x-+")
        with pytest.raises(ClanError, match="unknown token"):
            parse_clan("+ 0 - +")
        # labels are ASCII digits only: isdigit() alone passes superscripts
        # (which int() refuses) and other scripts' digits (which it reads)
        for text in ("²²", "+²-²", "١٢١٢", "+ +1 - +1", "+ 1_0 - 1_0", "+ ¹ - ¹"):
            with pytest.raises(ClanError, match="unknown token"):
                parse_clan(text)

    def test_compact_needs_single_digit_labels(self):
        clan = Clan([1, "+"] + list(range(2, 11)) + ["-", 1] + list(range(2, 11)))
        with pytest.raises(ClanError, match="compact"):
            clan.compact()
        assert parse_clan(clan.spaced()) == clan
        # nine labels still fit: 18 mate ends is the most compact() takes
        nine = Clan([1, "+"] + list(range(2, 10)) + ["-", 1] + list(range(2, 10)))
        assert nine.compact() == "1+23456789-123456789"
        assert parse_clan(nine.compact()) == nine
        assert parse_clan(nine.compact()).symbols == nine.symbols

    @given(diii_clans())
    def test_round_trip_both_formats(self, clan):
        assert parse_clan(clan.spaced()) == clan
        if clan.n <= 9:
            assert parse_clan(clan.compact()) == clan
        assert Clan(clan.symbols) == clan  # canonicalization is idempotent


class TestDIIIConditions:
    def test_reference_valid_clan(self):
        assert parse_clan("+-1122+-").is_diii()

    def test_contained_pair_parity_counts(self):
        # one pair inside the first half and no minus signs: odd
        assert not parse_clan("1122").is_diii()

    def test_antipodal_mates_rejected(self):
        assert not parse_clan("1221").is_diii()
        assert "antipodal" in parse_clan("1221").diii_violation()

    def test_skew_symmetry_required(self):
        assert "skew" in parse_clan("+12-12+-").diii_violation()

    def test_matches_literal_condition_checker(self):
        for n in range(1, 5):
            for raw in all_canonical_clans(n):
                assert Clan(raw).is_diii() == raw_is_diii(raw)

    def test_diii_constructor_validates(self):
        with pytest.raises(ClanError, match="not a DIII clan"):
            DIIIClan(("1", "1", "2", "2"))
        assert DIIIClan(parse_clan("1212").symbols) == parse_clan("1212")

    def test_clan_and_diii_clan_compare_equal(self):
        assert parse_diii("1212") == parse_clan("1212")
        assert hash(parse_diii("1212")) == hash(parse_clan("1212"))


class TestMateTable:
    def test_pair_queries_match_raw_oracle(self):
        for n in range(1, 5):
            for raw in all_canonical_clans(n):
                clan = Clan(raw)
                pairs, mates, signatures = raw_pair_data(raw)
                assert clan.pairs() == pairs
                assert clan.mate_positions() == mates
                assert clan.signatures() == signatures
                assert clan.is_matchless() == (not pairs)

    def test_symbols_render_the_canonical_input(self):
        # equality reads the key, so compare the rendered labels directly
        for n in range(1, 5):
            for raw in all_canonical_clans(n):
                assert Clan(raw).symbols == tuple(raw)

    def test_arbitrary_labels_share_the_table(self):
        clan = Clan(["b", "+", "a", "b", "-", "a"])
        assert clan.symbols == (1, "+", 2, 1, "-", 2)
        assert clan.pairs() == [(1, 4), (3, 6)]
        # labels render as 1..k in order of first occurrence, not of value
        clan = Clan(["z", "+", "y", "x", "-", "z", "x", "y"])
        assert clan.symbols == (1, "+", 2, 3, "-", 1, 3, 2)
        assert clan.spaced() == "1 + 2 3 - 1 3 2"
        assert list(clan) == [clan[p] for p in range(1, len(clan) + 1)] == list(clan.symbols)


class TestTransforms:
    def test_negative(self):
        assert parse_clan("+1212-").negative().text() == "-1212+"

    def test_reverse_palindromic_mates(self):
        assert parse_clan("1221").reverse() == parse_clan("1221")

    def test_reverse_relabels_canonically(self):
        assert parse_clan("+-123312+-").reverse().text() == "-+123312-+"

    def test_flip_swaps_middle_symbols(self):
        assert parse_clan("1-1-+2+2").flip().text() == "1-1+-2+2"

    @given(diii_clans())
    def test_skew_symmetry_round_trip(self, clan):
        assert clan.negative().reverse() == clan
        assert clan.reverse().negative() == clan

    @given(diii_clans(max_n=6))
    def test_flip_leaves_diii(self, clan):
        assert not clan.flip().is_diii()

    def test_flip_never_diii_exhaustive(self):
        from diii_clans import enumerate_diii

        for n in range(1, 5):
            for raw in naive_diii(n):
                assert not Clan(raw).flip().is_diii()
        for n in range(5, 7):
            for clan in enumerate_diii(n):
                assert not clan.flip().is_diii()


class TestClassification:
    def test_straddling_example(self):
        cp = parse_diii("++1212--").classify_pairs()
        assert cp.pi0 == frozenset({(3, 5), (4, 6)})
        assert cp.pi1 == frozenset()
        assert cp.z == 1
        assert cp.families == ((3, 5, 4, 6),)

    def test_contained_example(self):
        cp = parse_diii("+-1122+-").classify_pairs()
        assert cp.pi1 == frozenset({(3, 4), (5, 6)})
        assert cp.pi0 == frozenset()
        assert cp.families == ((3, 4, 5, 6),)

    def test_matchless_is_empty(self):
        cp = parse_diii("++--").classify_pairs()
        assert not cp.pi0 and not cp.pi1 and not cp.families

    @given(diii_clans())
    def test_classification_partitions_pairs(self, clan):
        cp = clan.classify_pairs()
        assert len(cp.pi0) % 2 == 0
        assert len(cp.pi1) % 2 == 0
        assert len(cp.pi0) + len(cp.pi1) == len(clan.pairs())
        for (i, j, jj, ii) in cp.families:
            assert i < j and i < jj and (jj, ii) == (2 * clan.n + 1 - j, 2 * clan.n + 1 - i)


class TestBaseClan:
    def test_signature_replacement(self):
        assert parse_diii("-12334412+").base_clan().text() == "----+-++++"

    def test_signature_rule(self):
        assert parse_diii("+1212-").base_clan().text() == "+--++-"

    @given(diii_clans())
    def test_idempotent_matchless_and_valid(self, clan):
        base = clan.base_clan()
        assert base.is_matchless()
        assert base.is_diii()
        assert base.base_clan() == base


class TestInvolutions:
    def test_default_permutation_one_line(self):
        assert parse_diii("+1212-").default_permutation().mapping == (1, 5, 4, 3, 2, 6)

    def test_default_permutation_all_plus(self):
        assert parse_diii("++--").default_permutation().is_identity()

    def test_default_permutation_all_minus(self):
        assert parse_diii("--++").default_permutation().mapping == (4, 3, 2, 1)

    def test_underlying_involution_pairs(self):
        assert parse_diii("1212").underlying_involution().two_cycles() == [(1, 3), (2, 4)]
        assert parse_diii("12343412").underlying_involution().two_cycles() == [
            (1, 7),
            (2, 8),
            (3, 5),
            (4, 6),
        ]

    def test_matchless_underlying_identity(self):
        assert parse_diii("+--+-++-").underlying_involution().is_identity()

    @given(diii_clans())
    def test_involutions_square_to_identity(self, clan):
        # Involution.__post_init__ enforces the square; both must construct
        clan.default_permutation()
        clan.underlying_involution()
