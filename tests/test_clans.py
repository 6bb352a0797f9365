from itertools import product

import pytest
from hypothesis import given
from hypothesis import strategies as st

from diii_clans import (
    Clan,
    ClanError,
    DIIIClan,
    enumerate_diii,
    parse_clan,
    parse_diii,
)

from conftest import diii_clans
from oracles import (
    all_canonical_clans,
    canonical_raw,
    naive_diii,
    raw_flag_data,
    raw_is_diii,
    raw_pair_data,
)


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
        # with a two-digit label, text() is the spaced form
        clan = Clan([1, "+"] + list(range(2, 11)) + ["-", 1] + list(range(2, 11)))
        assert clan.text() == clan.spaced() == "1 + 2 3 4 5 6 7 8 9 10 - 1 2 3 4 5 6 7 8 9 10"
        assert parse_clan(clan.text()) == clan
        # nine labels still fit the compact form
        nine = Clan([1, "+"] + list(range(2, 10)) + ["-", 1] + list(range(2, 10)))
        assert nine.text() == "1+23456789-123456789"
        assert parse_clan(nine.text()) == nine
        assert parse_clan(nine.text()).symbols == nine.symbols

    @given(diii_clans())
    def test_round_trip_both_formats(self, clan):
        assert parse_clan(clan.spaced()) == clan
        if clan.n <= 9:
            assert clan.text() == clan.spaced().replace(" ", "")
        assert parse_clan(clan.text()) == clan
        assert Clan(clan.symbols) == clan  # canonicalization is idempotent


class TestDIIIConditions:
    def test_reference_valid_clan(self):
        assert parse_clan("+-1122+-").diii_violation() is None

    def test_contained_pair_parity_counts(self):
        # one pair inside the first half and no minus signs: odd
        assert parse_clan("1122").diii_violation() is not None

    def test_antipodal_mates_rejected(self):
        assert parse_clan("1221").diii_violation() is not None
        assert "antipodal" in parse_clan("1221").diii_violation()

    def test_skew_symmetry_required(self):
        assert "skew" in parse_clan("+12-12+-").diii_violation()

    def test_matches_literal_condition_checker(self):
        for n in range(1, 5):
            for raw in all_canonical_clans(n):
                assert (Clan(raw).diii_violation() is None) == raw_is_diii(raw)

    def test_diii_constructor_validates(self):
        with pytest.raises(ClanError, match="not a DIII clan"):
            DIIIClan(("1", "1", "2", "2"))
        assert DIIIClan(parse_clan("1212").symbols) == parse_clan("1212")

    def test_clan_and_diii_clan_compare_equal(self):
        assert parse_diii("1212") == parse_clan("1212")
        assert hash(parse_diii("1212")) == hash(parse_clan("1212"))


def ordered_scans_violation(key):
    """The first violated DIII condition of a balanced clan's key, by three
    ordered scans: skew-symmetry position by position, antipodal mates from
    n down to 1, then the first-half parity. A frozen copy of the decider
    from before it decided in one loop, kept for its messages."""
    n = len(key) // 2
    m = 2 * n
    for p in range(n):
        q = key[p]
        flipped = ("-" if q == "+" else "+") if type(q) is str else m + 1 - q
        if key[m - 1 - p] != flipped:
            return "not skew-symmetric (clan differs from the reverse of its negative)"
    for p in range(n, 0, -1):
        if key[p - 1] == m + 1 - p:
            return f"antipodal mates at positions ({p}, {m + 1 - p})"
    half = key[:n]
    minus_count = half.count("-")
    inner_pairs = sum(1 for p, q in enumerate(half, start=1) if type(q) is int and p < q <= n)
    if (minus_count + inner_pairs) % 2 != 0:
        return (
            f"odd parity in the first half ({minus_count} minus signs, "
            f"{inner_pairs} contained pairs)"
        )
    return None


def assert_decided_as_the_references(tokens):
    """``diii_violation``, ``parse_diii`` and ``to_diii`` on the spaced text
    of ``tokens`` agree with ``raw_is_diii`` on the verdict and with
    ``ordered_scans_violation`` on the message."""
    text = " ".join(map(str, tokens))
    try:
        clan = parse_clan(text)
    except ClanError as exc:  # refused before the DIII conditions are read
        with pytest.raises(ClanError) as refused:
            parse_diii(text)
        assert str(refused.value) == str(exc)
        return
    reason = clan.diii_violation()
    assert reason == ordered_scans_violation(clan._key())
    assert (reason is None) == raw_is_diii(canonical_raw(tokens))
    if reason is None:
        assert parse_diii(text)._key() == clan.to_diii()._key() == clan._key()
    else:
        for build in (lambda: parse_diii(text), clan.to_diii):
            with pytest.raises(ClanError) as refused:
                build()
            assert str(refused.value) == f"not a DIII clan: {reason}"


@st.composite
def perturbed_diii_tokens(draw):
    """The symbols of a DIII clan with n <= 40 with one entry moved: traded
    with another position's, and, half the time, the mirror positions
    traded too, which keeps skew-symmetry and so reaches the antipodal and
    parity tests."""
    syms = list(draw(diii_clans(max_n=40)).symbols)
    m = len(syms)
    i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
    syms[i], syms[j] = syms[j], syms[i]
    if draw(st.booleans()) and {i, j}.isdisjoint({m - 1 - i, m - 1 - j}):
        syms[m - 1 - i], syms[m - 1 - j] = syms[m - 1 - j], syms[m - 1 - i]
    return syms


class TestOneLoopDecider:
    """The one-loop DIII decider against two references that do not share
    it: ``raw_is_diii`` for the verdict, ``ordered_scans_violation`` for the
    message."""

    def test_every_short_text(self):
        # every spaced text over {+, -, 1, 2, 3} of length <= 7
        for length in range(1, 8):
            for tokens in product(("+", "-", "1", "2", "3"), repeat=length):
                assert_decided_as_the_references(tokens)

    @given(perturbed_diii_tokens())
    def test_one_entry_moved_in_a_valid_clan(self, tokens):
        assert_decided_as_the_references(tokens)


class TestMateTable:
    def test_pair_queries_match_raw_oracle(self):
        for n in range(1, 5):
            for raw in all_canonical_clans(n):
                clan = Clan(raw)
                pairs, mates, signatures = raw_pair_data(raw)
                assert clan.pairs() == pairs
                assert {p: q for p, q in enumerate(clan._key(), start=1) if type(q) is int} == mates
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


def negative_reversed(symbols):
    """The symbols read backwards with every sign swapped."""
    return [{"+": "-", "-": "+"}.get(s, s) for s in reversed(symbols)]


def middle_flipped(symbols):
    """The symbols with the two middle ones (positions n and n+1) traded."""
    syms = list(symbols)
    n = len(syms) // 2
    syms[n - 1], syms[n] = syms[n], syms[n - 1]
    return syms


class TestTransforms:
    @given(diii_clans())
    def test_skew_symmetry_round_trip(self, clan):
        assert Clan(negative_reversed(clan.symbols)) == clan

    @given(diii_clans(max_n=6))
    def test_flip_leaves_diii(self, clan):
        assert Clan(middle_flipped(clan.symbols)).diii_violation() is not None

    def test_flip_never_diii_exhaustive(self):
        for n in range(1, 5):
            for raw in naive_diii(n):
                assert Clan(middle_flipped(raw)).diii_violation() is not None
        for n in range(5, 7):
            for clan in enumerate_diii(n):
                assert Clan(middle_flipped(clan.symbols)).diii_violation() is not None


class TestClassification:
    def test_straddling_example(self):
        clan = parse_diii("++1212--")
        assert clan.pairs() == [(3, 5), (4, 6)]
        assert clan._length_terms()[2] == 1
        assert clan._families() == [(3, 5, 4, 6)]

    def test_contained_example(self):
        clan = parse_diii("+-1122+-")
        assert clan.pairs() == [(3, 4), (5, 6)]
        assert clan._length_terms()[2] == 0
        assert clan._families() == [(3, 4, 5, 6)]

    def test_matchless_is_empty(self):
        clan = parse_diii("++--")
        assert not clan.pairs() and not clan._families()
        assert clan._length_terms()[2] == 0

    @given(diii_clans())
    def test_classification_partitions_pairs(self, clan):
        n = clan.n
        pairs = clan.pairs()
        straddling = sum(i <= n < j for i, j in pairs)
        assert straddling % 2 == 0
        assert (len(pairs) - straddling) % 2 == 0
        assert clan._length_terms()[2] == straddling // 2
        # no pair is antipodal, so each pair is in exactly one family
        assert 2 * len(clan._families()) == len(pairs)
        for (i, j, jj, ii) in clan._families():
            assert i < j and i < jj and (jj, ii) == (2 * n + 1 - j, 2 * n + 1 - i)


class TestBaseClan:
    def test_signature_replacement(self):
        assert DIIIClan(parse_diii("-12334412+").signatures()).text() == "----+-++++"

    def test_signature_rule(self):
        assert DIIIClan(parse_diii("+1212-").signatures()).text() == "+--++-"

    @given(diii_clans())
    def test_idempotent_matchless_and_valid(self, clan):
        base = DIIIClan(clan.signatures())
        assert base.is_matchless()
        assert base.diii_violation() is None
        assert DIIIClan(base.signatures()) == base


class TestInvolutions:
    def test_default_permutation_one_line(self):
        assert parse_diii("+1212-")._default_mapping() == [1, 5, 4, 3, 2, 6]

    def test_default_permutation_all_plus(self):
        assert parse_diii("++--")._default_mapping() == [1, 2, 3, 4]

    def test_default_permutation_all_minus(self):
        assert parse_diii("--++")._default_mapping() == [4, 3, 2, 1]

    @pytest.mark.parametrize("n", range(1, 7))
    def test_key_readers_match_raw_oracle(self, n):
        # the default permutation and the families, read off the key, equal
        # those read off the raw symbols' pairs and signatures
        for clan in enumerate_diii(n):
            sigma, families = raw_flag_data(clan.symbols)
            assert clan._default_mapping() == sigma
            assert clan._families() == families

    @given(diii_clans(max_n=16))
    def test_key_readers_match_raw_oracle_beyond_exhaustive_sizes(self, clan):
        sigma, families = raw_flag_data(clan.symbols)
        assert (clan._default_mapping(), clan._families()) == (sigma, families)

    @given(diii_clans())
    def test_involutions_square_to_identity(self, clan):
        sigma = clan._default_mapping()
        assert [sigma[v - 1] for v in sigma] == list(range(1, len(sigma) + 1))
