import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diii_clans import (
    ClanError,
    DIIIClan,
    PartialFPFInvolution,
    SchubertSubset,
    assemble_clan,
    base_clan_to_subset,
    big_sect,
    big_sect_base,
    clan_length,
    clan_to_pfpf,
    count_formula,
    epsilon_count,
    epsilon_recurrence,
    maximal_clan,
    parse_diii,
    count_recurrence,
    pfpf_to_clan,
    sect_sizes,
    sects,
    subset_to_base_clan,
)
from diii_clans.enumeration import base_key, sect_signs

from oracles import naive_diii, raw_is_diii, raw_pair_data

INVOLUTION_NUMBERS = {
    0: 1, 1: 1, 2: 2, 3: 4, 4: 10, 5: 26, 6: 76, 7: 232, 8: 764, 9: 2620, 10: 9496
}


class TestSchubertSubsets:
    def test_direct_substitution(self):
        assert subset_to_base_clan(SchubertSubset(2, frozenset({1, 2}))).text() == "++--"
        assert subset_to_base_clan(SchubertSubset(2, frozenset({3, 4}))).text() == "--++"

    def test_odd_parity_rejected(self):
        with pytest.raises(ClanError, match="odd"):
            SchubertSubset(2, frozenset({1, 3}))

    def test_antipodal_rejected(self):
        with pytest.raises(ClanError, match="antipodal"):
            SchubertSubset(2, frozenset({1, 4}))

    def test_size_checked(self):
        with pytest.raises(ClanError):
            SchubertSubset(2, frozenset({1}))

    def test_inverse_reads_plus_positions(self):
        base = parse_diii("--++")
        assert base_clan_to_subset(base).members == frozenset({3, 4})

    def test_matchless_required(self):
        with pytest.raises(ClanError, match="matchless"):
            base_clan_to_subset(parse_diii("1212"))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip_over_all_bases(self, n):
        for sect in sects(n):
            base = DIIIClan(sect.base_key)
            assert subset_to_base_clan(base_clan_to_subset(base)) == base


class TestSects:
    def test_n2_partition(self):
        parts = {"".join(s.base_key): [m.text() for m in s] for s in sects(2)}
        assert parts == {"++--": ["++--"], "--++": ["--++", "1212"]}

    def test_n3_sizes(self):
        sizes = [len(s) for s in sects(3)]
        assert len(sizes) == 4 and sum(sizes) == 10

    def test_n4_has_eight_sects(self):
        assert len(sects(4)) == 8

    @pytest.mark.parametrize("n", range(1, 8))
    def test_partition_properties(self, n):
        parts = sects(n)
        assert len(parts) == 2 ** (n - 1)
        assert sum(len(s) for s in parts) == count_formula(n)
        seen = set()
        for sect in parts:
            for clan in sect:
                assert clan.signatures() == sect.base_key
                assert clan not in seen
                seen.add(clan)
            spaced = [c.spaced() for c in sect]
            assert spaced == sorted(spaced)
            lengths = [clan_length(c).length for c in sect]
            assert lengths.count(max(lengths)) == 1  # a unique longest member

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_grouping_of_the_naive_oracle(self, n):
        # every raw DIII tuple grouped by its raw signatures, sects and
        # members in spaced-text order; nothing here comes from the package
        def spaced(t):
            return " ".join(map(str, t))

        groups = {}
        for t in naive_diii(n):
            groups.setdefault(raw_pair_data(t)[2], []).append(spaced(t))
        expected = [(base, sorted(groups[base])) for base in sorted(groups, key=spaced)]
        assert [(s.base_key, [c.spaced() for c in s]) for s in sects(n)] == expected


class TestSectSizes:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_built_sects(self, n):
        assert sect_sizes(n) == [(DIIIClan(s.base_key).text(), len(s.members)) for s in sects(n)]

    @pytest.mark.parametrize("n", range(1, 15))
    def test_sizes_sum_to_the_count(self, n):
        sizes = sect_sizes(n)
        assert len(sizes) == 2 ** (n - 1)
        assert sum(size for _, size in sizes) == count_recurrence(n)

    def test_big_sect_size_is_the_involution_number(self):
        for n in range(1, 11):
            assert dict(sect_sizes(n))[big_sect_base(n).text()] == INVOLUTION_NUMBERS[n]

    def test_rejects_nonpositive(self):
        with pytest.raises(ClanError):
            sect_sizes(0)


class TestBigSect:
    def test_bases(self):
        assert big_sect_base(1).text() == "+-"
        assert big_sect_base(2).text() == "--++"
        assert big_sect_base(3).text() == "--+-++"
        assert big_sect_base(4).text() == "----++++"

    @pytest.mark.parametrize("n", range(1, 31))
    def test_literal_base_layout(self, n):
        if n % 2 == 0:
            raw = ("-",) * n + ("+",) * n
        else:
            raw = ("-",) * (n - 1) + ("+", "-") + ("+",) * (n - 1)
        assert big_sect_base(n).symbols == raw
        assert raw_is_diii(raw)

    def test_n2_members(self):
        assert {m.text() for m in big_sect(2)} == {"--++", "1212"}

    @pytest.mark.parametrize("n", range(1, 11))
    def test_size_is_involution_number(self, n):
        assert len(big_sect(n)) == INVOLUTION_NUMBERS[n]
        assert epsilon_count(n) == INVOLUTION_NUMBERS[n]

    @pytest.mark.parametrize("n", range(0, 9))
    def test_epsilon_formula_equals_recurrence(self, n):
        assert epsilon_count(n) == epsilon_recurrence(n)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_members_in_spaced_order(self, n):
        spaced = [c.spaced() for c in big_sect(n)]
        assert spaced == sorted(spaced)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_contains_the_maximum(self, n):
        assert maximal_clan(n) in big_sect(n).members


class TestPartialFPFInvolutions:
    def test_validation(self):
        with pytest.raises(ClanError, match="fixed point"):
            PartialFPFInvolution((1, 0))
        with pytest.raises(ClanError, match="symmetric"):
            PartialFPFInvolution((2, 0))
        with pytest.raises(ClanError, match="not an int"):
            PartialFPFInvolution((1.5, 0))
        with pytest.raises(ClanError, match="not an int"):
            PartialFPFInvolution((2, True))
        PartialFPFInvolution((2, 1, 0))

    def test_text_round_trip(self):
        x = PartialFPFInvolution((2, 1, 0, 5, 4))
        assert x.to_text() == "1:2,4:5"
        assert PartialFPFInvolution.from_text("1:2,4:5", 5) == x
        assert PartialFPFInvolution.from_text("", 3).values == (0, 0, 0)

    def test_from_text_rejects_garbage(self):
        with pytest.raises(ClanError):
            PartialFPFInvolution.from_text("1-2", 3)
        with pytest.raises(ClanError):
            PartialFPFInvolution.from_text("1:9", 3)
        with pytest.raises(ClanError):
            PartialFPFInvolution.from_text("1:2,1:3", 3)
        # block ends are ASCII digits only: no underscores, signs, spaces
        # or other scripts' digits
        for text in ("1_0:2", "+1:2", "1: 2", "1:2:3", "١:٢", "¹:²", "1:"):
            with pytest.raises(ClanError, match="bad block"):
                PartialFPFInvolution.from_text(text, 12)

    def test_matchless_base_maps_to_empty(self):
        for n in (2, 3, 4):
            x = clan_to_pfpf(big_sect_base(n))
            assert x.values == (0,) * n

    def test_paper_style_example(self):
        x = clan_to_pfpf(parse_diii("1212"))
        assert x(1) == 2 and x(2) == 1
        assert pfpf_to_clan(x, 2).text() == "1212"

    def test_odd_n_contained_pair(self):
        clan = pfpf_to_clan(PartialFPFInvolution.from_text("1:3", 3), 3)
        assert clan.text() == "1-12+2"
        assert clan_to_pfpf(clan).to_text() == "1:3"

    def test_rejects_clan_outside_big_sect(self):
        with pytest.raises(ClanError, match="big sect"):
            clan_to_pfpf(parse_diii("++--"))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trips_both_ways(self, n):
        members = set(big_sect(n).members)
        decoded = set()
        for clan in members:
            x = clan_to_pfpf(clan)
            assert pfpf_to_clan(x, n) == clan
            decoded.add(x.values)
        assert len(decoded) == len(members) == epsilon_count(n)

    @pytest.mark.parametrize("n", (8, 16, 24))
    def test_random_pfpf_past_the_enumerated_sizes(self, n):
        rng = random.Random(n)
        base = big_sect_base(n).symbols
        for _ in range(50):
            order = list(range(1, n + 1))
            rng.shuffle(order)
            values = [0] * n
            for k in range(rng.randint(0, n // 2)):
                a, b = order[2 * k], order[2 * k + 1]
                values[a - 1], values[b - 1] = b, a
            x = PartialFPFInvolution(tuple(values))
            clan = pfpf_to_clan(x, n)
            assert raw_is_diii(clan.symbols)
            assert raw_pair_data(clan.symbols)[2] == base
            assert clan_to_pfpf(clan) == x

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_pfpf_decodes_into_the_big_sect(self, n):
        # enumerate partial FPF involutions directly and decode each
        members = set(big_sect(n).members)
        all_x = set(all_pfpfs(n))
        assert len(all_x) == epsilon_count(n)
        assert {pfpf_to_clan(x, n) for x in all_x} == members


def all_pfpfs(n):
    """Every partial FPF involution on n letters, each once."""

    def extend(values, i):
        if i > n:
            yield PartialFPFInvolution(tuple(values))
            return
        if values[i - 1] != 0:
            yield from extend(values, i + 1)
            return
        yield from extend(values, i + 1)
        for j in range(i + 1, n + 1):
            if values[j - 1] == 0:
                values[i - 1], values[j - 1] = j, i
                yield from extend(values, i + 1)
                values[i - 1], values[j - 1] = 0, 0

    return extend([0] * n, 1)


@st.composite
def pfpfs(draw, max_n):
    """A random partial FPF involution on 1..max_n letters."""
    n = draw(st.integers(1, max_n))
    order = draw(st.permutations(range(1, n + 1)))
    values = [0] * n
    for k in range(draw(st.integers(0, n // 2))):
        a, b = order[2 * k], order[2 * k + 1]
        values[a - 1], values[b - 1] = b, a
    return PartialFPFInvolution(tuple(values))


def assembled_pfpf_key(x, n):
    """The key ``pfpf_to_clan`` wrote through ``assemble_clan``: a block
    (i, n) of odd n as a contained pair, any other as a straddling pair,
    each unmatched position with the big-sect base's sign."""
    contained, straddling = [], []
    for i, j in x.blocks():
        (contained if j == n and n % 2 == 1 else straddling).append((i, j))
    signs = big_sect_base(n).symbols
    unmatched = {p: signs[p - 1] for p in range(1, n + 1) if not x(p)}
    return assemble_clan(n, contained, straddling, unmatched)._key()


class TestWritersMatchTheAssembledRoute:
    """``pfpf_to_clan`` and ``base_key`` write their keys with the sect
    generator's writers; each key equals the one ``assemble_clan`` writes
    from the same first-half data."""

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_pfpf(self, n):
        for x in all_pfpfs(n):
            assert pfpf_to_clan(x, n)._key() == assembled_pfpf_key(x, n)

    @settings(deadline=None)
    @given(pfpfs(max_n=40))
    def test_random_pfpf(self, x):
        assert pfpf_to_clan(x, x.n)._key() == assembled_pfpf_key(x, x.n)

    @pytest.mark.parametrize("n", range(1, 10))
    def test_every_base(self, n):
        # base_key is given the sign patterns of sect bases, an even number of minus
        for signs in sect_signs(n):
            assert base_key(signs) == assemble_clan(n, [], [], dict(enumerate(signs, 1)))._key()

    @settings(deadline=None)
    @given(st.lists(st.sampled_from("+-"), min_size=1, max_size=40))
    def test_random_base(self, signs):
        if signs.count("-") % 2:
            signs[0] = "+" if signs[0] == "-" else "-"
        n = len(signs)
        assert base_key(signs) == assemble_clan(n, [], [], dict(enumerate(signs, 1)))._key()
