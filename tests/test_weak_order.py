import io
import json
import sys
from array import array
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings

from diii_clans import (
    ClanError,
    ClanSet,
    DIIIClan,
    apply_reflection,
    clan_length,
    count_recurrence,
    enumerate_diii,
    maximal_clan,
    parse_clan,
    parse_diii,
    rank_poly_recurrence,
    rank_polynomial,
    weak_order_poset,
)
from diii_clans import verify, weak_order
from diii_clans.clans import text_from_spaced
from diii_clans.weak_order import _step

from conftest import RecordingStream, count_clan_builds, diii_clans
from oracles import (
    canonical_raw,
    rank_poly_by_choices,
    rank_polys_convolution,
    raw_is_diii,
    raw_length,
    raw_reflection,
)


def braid_and_commuting_pairs(n):
    """Edges of the type-D diagram (consecutive indices plus (n-2, n)) and
    the remaining commuting generator pairs."""
    braid = [(i, i + 1) for i in range(1, n - 1)]
    if n >= 3:
        braid.append((n - 2, n))
    commuting = [p for p in combinations(range(1, n + 1), 2) if p not in braid]
    return braid, commuting


class TestLength:
    def test_reference_length_computation(self):
        stats = clan_length(parse_diii("++1212--"))
        assert stats.length == 1
        assert stats.z == 1
        assert stats.spreads == {1: 2, 2: 2}
        assert stats.weaves == {1: 0, 2: 1}

    def test_matchless_is_zero(self):
        assert clan_length(parse_diii("+--+-++-")).length == 0

    def test_stats_keyed_by_canonical_label(self):
        # label 3 opens before labels 1 and 2 close
        stats = clan_length(parse_diii("12343412"))
        assert stats.spreads == {1: 6, 2: 6, 3: 2, 4: 2}
        assert stats.weaves == {1: 0, 2: 1, 3: 0, 4: 1}
        assert stats.z == 2

    def test_memoized_length_matches_stats(self):
        for n in range(1, 6):
            for clan in enumerate_diii(n):
                stats = clan_length(clan)
                total = sum(stats.spreads.values()) - sum(stats.weaves.values()) - stats.z
                assert clan.length == stats.length == total // 2

    def test_fills_the_memo(self):
        clan = DIIIClan._from_key(parse_diii("++1212--")._key())
        assert clan._length is None
        assert clan_length(clan).length == clan._length == 1

    def test_preset_length_is_checked(self):
        key = parse_diii("++1212--")._key()
        assert clan_length(DIIIClan._from_key(key, 1)).length == 1
        for wrong in (0, 2, 7):
            with pytest.raises(ClanError, match="carries length"):
                clan_length(DIIIClan._from_key(key, wrong))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_preset_lengths_of_images_pass_the_check(self, n):
        for clan in enumerate_diii(n):
            for i in range(1, n + 1):
                image = apply_reflection(i, clan)
                assert clan_length(image).length == image.length

    def test_apex_reaches_dimension_bound(self):
        assert clan_length(parse_diii("12343412")).length == 6

    def test_requires_diii(self):
        with pytest.raises(ClanError):
            clan_length(parse_clan("+-+-"))  # ++-- with the middle flipped

    @given(diii_clans())
    def test_bounds(self, clan):
        length = clan_length(clan).length
        assert 0 <= length <= clan.n * (clan.n - 1) // 2


class TestReflectionAction:
    def test_reference_action_all_generators(self):
        clan = parse_diii("+-1122+-")
        assert apply_reflection(1, clan).text() == "11223344"
        assert apply_reflection(2, clan).text() == "+1-12+2-"
        assert apply_reflection(3, clan) == clan
        assert apply_reflection(4, clan) == clan

    def test_collapse_at_the_fork_generator(self):
        assert apply_reflection(4, parse_diii("++--++--")).text() == "++1212--"
        assert apply_reflection(3, parse_diii("+++---")).text() == "+1212-"

    def test_actions_from_matchless_clans(self):
        assert apply_reflection(2, parse_diii("++--++--")).text() == "+11-+22-"
        assert apply_reflection(4, parse_diii("++++----")).text() == "++1212--"

    def test_sign_swap_candidate_rejected_by_length_not_validity(self):
        # trading the opposite signs at positions (1,2) gives a valid DIII
        # clan of the same length: a swap that moves only signs keeps every
        # pair, so where a collapse is possible it is the one candidate
        clan = parse_diii("+-1122+-")
        swapped = parse_diii("-+1122-+")
        assert clan_length(swapped).length == clan_length(clan).length
        assert apply_reflection(1, clan).text() == "11223344"

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_two_candidate_oracle(self, n):
        for clan in enumerate_diii(n):
            for i in range(1, n + 1):
                assert apply_reflection(i, clan).symbols == raw_reflection(i, clan.symbols)

    def test_middle_reflection_matches_two_candidate_oracle_at_n8(self):
        # s_n runs s_{n-1}'s rule on the flipped clan: compare it with the
        # raw rule on every clan one size past the exhaustive range above
        for clan in enumerate_diii(8):
            assert apply_reflection(8, clan).symbols == raw_reflection(8, clan.symbols)

    @settings(deadline=None)
    @given(diii_clans(max_n=24))
    def test_matches_two_candidate_oracle_on_large_clans(self, clan):
        for i in range(1, clan.n + 1):
            assert apply_reflection(i, clan).symbols == raw_reflection(i, clan.symbols)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_preset_length_of_images(self, n):
        # an accepted image is built unvalidated, its length preset to the
        # input's plus one rather than computed
        for clan in enumerate_diii(n):
            for i in range(1, n + 1):
                image = apply_reflection(i, clan)
                if image != clan:
                    assert image._length == raw_length(image.symbols) == clan.length + 1
                    assert raw_is_diii(image.symbols)

    @settings(deadline=None)
    @given(diii_clans(max_n=24))
    def test_preset_length_of_images_on_large_clans(self, clan):
        for i in range(1, clan.n + 1):
            image = apply_reflection(i, clan)
            if image != clan:
                assert image._length == raw_length(image.symbols)
                assert raw_is_diii(image.symbols)

    @staticmethod
    def assert_image_keys(clan):
        # the image key written from the key agrees with the raw
        # two-candidate rule's image built as a checked clan
        key = clan._key()
        for i in range(1, clan.n + 1):
            raw = raw_reflection(i, clan.symbols)
            image = _step(i, key)
            assert (image is None) == (raw == clan.symbols)
            if image is not None:
                assert image == DIIIClan(raw)._key()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_image_key_matches_built_image(self, n):
        for clan in enumerate_diii(n):
            self.assert_image_keys(clan)

    @settings(deadline=None)
    @given(diii_clans(max_n=24))
    def test_image_key_matches_built_image_on_large_clans(self, clan):
        self.assert_image_keys(clan)

    @staticmethod
    def assert_images_carry_checked_keys(clan):
        # an image built unchecked from its key carries the key its own
        # symbols give when the checked constructor scans them
        for i in range(1, clan.n + 1):
            image = apply_reflection(i, clan)
            assert image._key() == DIIIClan(image.symbols)._key()

    @pytest.mark.parametrize("n", range(1, 8))
    def test_images_carry_checked_keys(self, n):
        for clan in enumerate_diii(n):
            self.assert_images_carry_checked_keys(clan)

    @settings(deadline=None)
    @given(diii_clans(max_n=24))
    def test_images_carry_checked_keys_on_large_clans(self, clan):
        self.assert_images_carry_checked_keys(clan)

    def test_n1_has_no_moves(self):
        clan = parse_diii("+-")
        assert apply_reflection(1, clan) == clan

    def test_index_range_checked(self):
        with pytest.raises(ClanError):
            apply_reflection(5, parse_diii("+-1122+-"))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_idempotence_and_grading(self, n):
        for clan in enumerate_diii(n):
            base = clan_length(clan).length
            for i in range(1, n + 1):
                image = apply_reflection(i, clan)
                assert apply_reflection(i, image) == image
                if image != clan:
                    assert clan_length(image).length == base + 1

    @pytest.mark.parametrize("n", range(2, 6))
    def test_braid_relations(self, n):
        braid, commuting = braid_and_commuting_pairs(n)
        for clan in enumerate_diii(n):
            for i, j in braid:
                lhs = apply_reflection(i, apply_reflection(j, apply_reflection(i, clan)))
                rhs = apply_reflection(j, apply_reflection(i, apply_reflection(j, clan)))
                assert lhs == rhs
            for i, j in commuting:
                assert apply_reflection(i, apply_reflection(j, clan)) == apply_reflection(
                    j, apply_reflection(i, clan)
                )


class TestPoset:
    def test_n2_shape(self):
        poset = weak_order_poset(2)
        assert len(poset.uppers) == 2
        assert {c.text() for c in poset.minimal_elements()} == {"++--", "--++"}
        assert [c.text() for c in poset.maximal_elements()] == ["1212"]

    def test_n3_rank_sizes(self):
        assert weak_order_poset(3).rank_sizes() == [4, 3, 2, 1]

    def test_n4_rank_sizes_pinned(self):
        assert weak_order_poset(4).rank_sizes() == [8, 8, 7, 7, 4, 3, 1]

    @pytest.mark.parametrize("n", range(1, 6))
    def test_extremes(self, n):
        poset = weak_order_poset(n)
        assert poset.maximal_elements() == [maximal_clan(n)]
        minimal = poset.minimal_elements()
        assert len(minimal) == 2 ** (n - 1)
        assert all(c.is_matchless() for c in minimal)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_covers_in_key_order(self, n):
        poset = weak_order_poset(n)
        keys = [(poset.universe.texts[lower], i) for lower, _, i in poset._edges()]
        assert keys == sorted(keys) and len(set(keys)) == len(keys)

    def test_builds_no_clan_after_enumeration(self, monkeypatch):
        # every clan is built on one of the two build paths, Clan.__init__
        # (checked) or DIIIClan._from_key (unchecked); each upper is found
        # among the enumerated nodes, none is built. (Patching
        # DIIIClan.__new__ instead would leave the class unable to take
        # constructor arguments after the undo.)
        nodes = enumerate_diii(6)
        nodes.clans  # the nodes the covers are read against, built here
        monkeypatch.setattr(weak_order, "enumerate_diii", lambda n: nodes)
        built = count_clan_builds(monkeypatch)
        poset = weak_order_poset(6)
        edges = list(poset._edges())
        monkeypatch.undo()
        assert poset.nodes == nodes.clans
        assert built == [] and len(edges) > 0

    def test_lookup_miss_raises(self, monkeypatch):
        # with the maximal clan missing from the universe, the covers into
        # it have no node to land on: that must raise, not drop them
        full = enumerate_diii(4)
        top = maximal_clan(4)
        partial = ClanSet.from_keys(4, [k for k in full.keys if k != top._key()])
        monkeypatch.setattr(weak_order, "enumerate_diii", lambda n: partial)
        with pytest.raises(ClanError, match="left the DIII"):
            weak_order_poset(4)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_grades_from_covers_are_the_lengths(self, n):
        poset = weak_order_poset(n)
        assert list(poset._grades) == [c.length for c in poset.nodes]

    def test_rank_sizes_refuse_a_cover_to_the_wrong_rank(self):
        # node 0 is matchless (length 0); move its first cover to a node of
        # length 2 or more, which other covers grade by its length
        poset = weak_order_poset(4)
        lengths = [c.length for c in poset.nodes]
        wrong = next(w for w, length in enumerate(lengths) if length >= 2)
        assert poset.offsets[1] > 0 and lengths[0] == 0
        bad = replace(poset, uppers=array("i", [wrong]) + poset.uppers[1:])
        with pytest.raises(ClanError, match="covers disagree"):
            bad.rank_sizes()

    def test_rank_sizes_refuse_nodes_above_no_minimal_element(self):
        # n = 2: both matchless nodes go up to 1 2 1 2; turned into a
        # two-cycle, they are reached from no minimal element
        poset = weak_order_poset(2)
        assert list(poset.uppers) == [2, 2]
        bad = replace(poset, uppers=array("i", [1, 0]))
        with pytest.raises(ClanError, match="above no minimal element"):
            bad.rank_sizes()

    def test_covers_are_graded(self):
        poset = weak_order_poset(4)
        nodes = poset.nodes
        for lower, upper, _ in poset._edges():
            assert nodes[upper].length == nodes[lower].length + 1

    def test_dot_output_mentions_every_node(self):
        poset = weak_order_poset(2)
        dot = poset.to_dot()
        assert dot.startswith("digraph")
        for clan in poset.nodes:
            assert clan.text() in dot

    def test_json_round_trippable(self):
        data = weak_order_poset(2).to_json_dict()
        assert data["n"] == 2
        assert len(data["nodes"]) == 3
        assert all({"lower", "upper", "reflection"} <= set(e) for e in data["covers"])


def reference_json_dict(poset):
    """The JSON object built field by field from the texts and the covers."""
    texts = poset.universe.texts
    covers = [{"lower": texts[l], "upper": texts[u], "reflection": i} for l, u, i in poset._edges()]
    return {"n": poset.n, "nodes": list(texts), "covers": covers}


def reference_dot(poset):
    """The DOT text as one join of one line per rank and per cover."""
    texts = [text_from_spaced(t) for t in poset.universe.texts]
    by_rank = {}
    for g, t in zip(poset._grades, texts):
        by_rank.setdefault(g, []).append(f'"{t}";')
    lines = ["digraph weak_order {", "  rankdir=BT;", "  node [shape=plaintext];"]
    lines += [f"  {{ rank=same; {' '.join(by_rank[g])} }}" for g in sorted(by_rank)]
    lines += [f'  "{texts[l]}" -> "{texts[u]}" [label="{i}"];' for l, u, i in poset._edges()]
    return "\n".join(lines + ["}"])


class TestWriters:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_write_json_is_json_dumps(self, n):
        poset = weak_order_poset(n)
        out = io.StringIO()
        poset.write_json(out)
        assert poset.to_json_dict() == reference_json_dict(poset)
        assert out.getvalue() == json.dumps(reference_json_dict(poset))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_write_dot_is_to_dot(self, n):
        poset = weak_order_poset(n)
        out = io.StringIO()
        poset.write_dot(out)
        assert out.getvalue() == poset.to_dot() == reference_dot(poset)

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_written_in_bounded_batches(self, fmt):
        # n = 7 is over 1 MiB of JSON; no write may hold all of it
        out = RecordingStream()
        getattr(weak_order_poset(7), f"write_{fmt}")(out)
        assert len(out.writes) > 1
        assert max(out.writes) <= 1 << 20
        assert sum(out.writes) == len(out.getvalue())

    def test_dot_grades_before_writing(self):
        # a wrong cover must raise before the first byte
        poset = weak_order_poset(2)
        bad = replace(poset, uppers=array("i", [1, 0]))
        out = RecordingStream()
        with pytest.raises(ClanError, match="above no minimal element"):
            bad.write_dot(out)
        assert out.writes == []

    def test_cover_table_is_compact_and_outside_equality(self):
        poset = weak_order_poset(4)
        for table in (poset.offsets, poset.uppers, poset.labels):
            assert isinstance(table, array) and table.typecode == "i"
        # the covers are a function of the universe
        again = weak_order_poset(4)
        assert again == poset and hash(again) == hash(poset)


class TestCheckWeakOrder:
    def test_passes(self):
        for n in range(1, 6):
            assert verify.check_weak_order(n, weak_order_poset(n)) is None

    def test_fails_on_a_cover_to_the_wrong_rank(self):
        # the grading check reads the upper node's own length, from the
        # length formula; when each upper was a fresh image whose length was
        # preset to its lower's plus one, it compared that value with itself
        n = 3
        poset = weak_order_poset(n)
        lower, _, i = next(poset._edges())  # nodes[0] is checked first
        lengths = [c.length for c in poset.nodes]
        moved_by_i = {l for l, _, j in poset._edges() if j == i}
        # a node of the wrong rank that s_i fixes, so idempotence still holds
        wrong = next(
            w
            for w in range(len(poset))
            if w not in moved_by_i and w != lower and lengths[w] != lengths[lower] + 1
        )
        uppers = list(poset.uppers)
        uppers[0] = wrong
        bad = replace(poset, uppers=array("i", uppers))
        for k in range(1, n):
            verify.check_weak_order(k, weak_order_poset(k))
        with pytest.raises(verify.CheckFailed) as failed:
            verify.check_weak_order(n, bad)
        assert str(failed.value) == f"s_{i} on {poset.nodes[lower]} changed length oddly"


class TestRunSuite:
    def test_builds_each_poset_once_and_enumerates_only_through_it(self, monkeypatch):
        built, enumerated = [], []

        def counting_poset(n):
            built.append(n)
            return weak_order_poset(n)

        def counting_enumerate(n):
            enumerated.append(n)
            return enumerate_diii(n)

        # every module of the package that binds the name, the poset
        # builder's included
        for name, module in list(sys.modules.items()):
            if name.split(".")[0] == "diii_clans" and hasattr(module, "enumerate_diii"):
                monkeypatch.setattr(module, "enumerate_diii", counting_enumerate)
        monkeypatch.setattr(weak_order, "weak_order_poset", counting_poset)
        results = verify.run_suite(5)
        assert all(r.passed for r in results)
        assert built == [1, 2, 3, 4, 5]
        assert enumerated == [1, 2, 3, 4, 5]

    def test_a_failed_build_fails_each_check_that_reaches_its_size(self, monkeypatch):
        def build(n):
            if n == 8:
                raise ClanError("no poset of size 8")
            return weak_order_poset(n)

        monkeypatch.setattr(weak_order, "weak_order_poset", build)
        results = verify.run_suite(8)
        assert [r.name for r in results] == list(verify.CHECK_NAMES)
        # flags is capped at 7, below the failed build
        for r in results:
            if r.name == "flags":
                assert r.passed and r.detail.endswith(" for n<= 7"), r
            else:
                assert not r.passed and r.detail == "no poset of size 8", r


class TestRankPolynomial:
    def test_seeds(self):
        assert rank_poly_recurrence(1).coeffs == (1,)
        assert rank_poly_recurrence(2).coeffs == (2, 1)
        assert str(rank_poly_recurrence(2)) == "t+2"

    def test_one_recurrence_step(self):
        assert str(rank_poly_recurrence(3)) == "t^3+2t^2+3t+4"

    def test_pinned_a4(self):
        assert str(rank_poly_recurrence(4)) == "t^6+3t^5+4t^4+7t^3+7t^2+8t+8"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_recurrence_matches_poset(self, n):
        assert rank_poly_recurrence(n).coeffs == rank_polynomial(weak_order_poset(n)).coeffs

    @pytest.mark.parametrize("n", range(1, 61))
    def test_degree_and_total(self, n):
        poly = rank_poly_recurrence(n)
        assert sum(poly.coeffs) == count_recurrence(n)
        assert poly.degree == n * (n - 1) // 2
        assert poly.coeffs[-1] == 1  # the maximal clan alone
        assert poly.coeffs[0] == 2 ** (n - 1)  # the matchless clans

    def test_window_sum_matches_convolution(self):
        for n, coeffs in enumerate(rank_polys_convolution(40), start=1):
            assert rank_poly_recurrence(n).coeffs == coeffs, n

    def test_matches_the_generator_choices(self):
        # the sect generator's choices, weighted by the length each adds,
        # give the recurrence's polynomials (and equal parity states)
        for n, coeffs in enumerate(rank_poly_by_choices(60), start=1):
            assert rank_poly_recurrence(n).coeffs == coeffs, n


class TestMaximalClan:
    def test_small_cases(self):
        assert maximal_clan(1).text() == "+-"
        assert maximal_clan(2).text() == "1212"
        assert maximal_clan(3).text() == "12+-12"
        assert maximal_clan(4).text() == "12343412"

    @pytest.mark.parametrize("n", range(1, 31))
    def test_literal_layout(self, n):
        # pairs (2j+1, 2n-2j-1) and (2j+2, 2n-2j) from the outside in; for
        # odd n the two middle positions are +, -
        raw = [None] * (2 * n)
        for j in range(n // 2):
            for label, (p, q) in enumerate(
                ((2 * j + 1, 2 * n - 2 * j - 1), (2 * j + 2, 2 * n - 2 * j)),
                start=2 * j + 1,
            ):
                raw[p - 1] = raw[q - 1] = label
        if n % 2 == 1:
            raw[n - 1], raw[n] = "+", "-"
        clan = maximal_clan(n)
        assert clan.symbols == canonical_raw(raw)
        assert raw_is_diii(clan.symbols)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_unique_longest_by_exhaustion(self, n):
        top = n * (n - 1) // 2
        longest = [c for c in enumerate_diii(n) if clan_length(c).length == top]
        assert longest == [maximal_clan(n)]
