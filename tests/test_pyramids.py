import pytest
from hypothesis import given

from diii_clans import (
    Clan,
    ClanError,
    Involution,
    PartitionPair,
    Pyramid,
    PyramidCell,
    PyramidParityError,
    RookPlacement,
    clan_to_pyramid,
    count_formula,
    enumerate_diii,
    extend_odd,
    extract_pyramid,
    parse_diii,
    partition_pair_to_pyramid,
    placement_to_clan,
    pyramid_to_clan,
    pyramid_to_partition_pair,
    pyramid_to_placement,
    rotate_placement,
    signed_involution_pair,
    weak_order_poset,
)
from diii_clans import verify

from conftest import diii_clans
from oracles import doubly_symmetric_count, minimally_intersecting_pairs, raw_is_diii

REFERENCE_PYRAMID = Pyramid(
    4,
    frozenset(
        {PyramidCell("L", 4, 4), PyramidCell("R", 2, 2), PyramidCell("L", 1, 3)}
    ),
)


class TestPyramidType:
    def test_bounds_checked(self):
        with pytest.raises(ClanError):
            PyramidCell("L", 3, 2)
        with pytest.raises(ClanError, match="side"):
            PyramidCell("M", 1, 1)
        with pytest.raises(ClanError, match="outside"):
            Pyramid(2, frozenset({PyramidCell("L", 1, 3), PyramidCell("R", 2, 2)}))
        # exact ints only: True == 1 and 1.0 == 1 would otherwise pass
        for row, col in ((True, 1.0), (1, 1.0), (True, 1), ("1", 1)):
            with pytest.raises(ClanError, match="must be ints"):
                PyramidCell("L", row, col)
        for n in (1.0, True, "1"):
            with pytest.raises(ClanError, match="size must be an int"):
                Pyramid(n, frozenset({PyramidCell("L", 1, 1)}))

    def test_coverage_condition(self):
        # index 2 covered twice, index 3 not at all
        with pytest.raises(ClanError, match="covered by both"):
            Pyramid(
                3,
                frozenset(
                    {
                        PyramidCell("L", 1, 2),
                        PyramidCell("L", 2, 3),
                        PyramidCell("R", 3, 3),
                    }
                ),
            )
        with pytest.raises(ClanError, match="not covered"):
            Pyramid(2, frozenset({PyramidCell("L", 1, 1)}))

    def test_json_round_trip(self):
        data = REFERENCE_PYRAMID.to_json_dict()
        assert Pyramid.from_json_dict(data) == REFERENCE_PYRAMID


class TestClanPyramidBijection:
    def test_reference_pyramid_encoding(self):
        assert clan_to_pyramid(parse_diii("1-1+-2+2")) == REFERENCE_PYRAMID
        assert pyramid_to_clan(REFERENCE_PYRAMID).text() == "1-1+-2+2"

    def test_mirror_pyramid_fails_parity(self):
        with pytest.raises(PyramidParityError, match="reflect"):
            pyramid_to_clan(REFERENCE_PYRAMID.mirror())

    def test_single_plus(self):
        assert clan_to_pyramid(parse_diii("+-")).rooks == frozenset(
            {PyramidCell("L", 1, 1)}
        )
        assert pyramid_to_clan(Pyramid(1, frozenset({PyramidCell("L", 1, 1)}))).text() == "+-"

    def test_hand_traced_straddling_pair(self):
        assert clan_to_pyramid(parse_diii("1212")).rooks == frozenset(
            {PyramidCell("L", 1, 2)}
        )

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trip_and_injectivity(self, n):
        images = set()
        for clan in enumerate_diii(n):
            pyramid = clan_to_pyramid(clan)
            assert pyramid_to_clan(pyramid) == clan
            images.add(pyramid)
        assert len(images) == count_formula(n)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_exactly_one_pyramid_decodes(self, n):
        for clan in enumerate_diii(n):
            pyramid = clan_to_pyramid(clan)
            with pytest.raises(PyramidParityError):
                pyramid_to_clan(pyramid.mirror())

    @given(diii_clans(min_n=7, max_n=24))
    def test_round_trip_past_the_enumerated_sizes(self, clan):
        # the strategy builds through assemble_clan too, so the raw oracle,
        # not the package, vouches for both ends
        assert raw_is_diii(clan.symbols)
        pyramid = clan_to_pyramid(clan)
        decoded = pyramid_to_clan(pyramid)
        assert decoded == clan and raw_is_diii(decoded.symbols)
        with pytest.raises(PyramidParityError):
            pyramid_to_clan(pyramid.mirror())

    def test_mirror_swaps_every_side(self):
        mirrored = Pyramid(
            4,
            frozenset(
                {PyramidCell("R", 4, 4), PyramidCell("L", 2, 2), PyramidCell("R", 1, 3)}
            ),
        )
        assert REFERENCE_PYRAMID.mirror() == mirrored
        assert mirrored.mirror() == REFERENCE_PYRAMID


class TestPlacements:
    def test_symmetry_validation(self):
        RookPlacement((3, 7, 1, 4, 5, 8, 2, 6))
        with pytest.raises(ClanError, match="main diagonal"):
            RookPlacement((2, 3, 1))
        with pytest.raises(ClanError, match="antidiagonal"):
            RookPlacement((2, 1, 3, 4))
        with pytest.raises(ClanError, match="permutation"):
            RookPlacement((1, 1, 3))
        with pytest.raises(ClanError, match="permutation"):
            RookPlacement((True, 2))  # True == 1, but a bool is no row index

    def test_unfolds_to_reference_placement(self):
        placement = pyramid_to_placement(REFERENCE_PYRAMID)
        assert placement.perm == (3, 7, 1, 4, 5, 8, 2, 6)
        assert extract_pyramid(placement) == REFERENCE_PYRAMID
        assert placement_to_clan(placement).text() == "1-1+-2+2"

    def test_rotation_is_an_involution_on_classes(self):
        placement = pyramid_to_placement(REFERENCE_PYRAMID)
        rotated = rotate_placement(placement)
        assert rotated != placement
        assert rotate_placement(rotated) == placement
        assert placement_to_clan(rotated) == placement_to_clan(placement)

    def test_extend_odd_matches_central_rook_lemma(self):
        placement = pyramid_to_placement(clan_to_pyramid(parse_diii("1212")))
        extended = extend_odd(placement)
        assert extended.size == 5
        assert extended.perm[2] == 3  # central rook
        with pytest.raises(ClanError):
            extend_odd(extended)

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_brute_force_placement_count(self, m):
        n = m // 2
        assert doubly_symmetric_count(m) == 2 * count_formula(n)

    @pytest.mark.parametrize("m", [3, 5, 7, 9, 11])
    def test_odd_boards_match_even(self, m):
        assert doubly_symmetric_count(m) == doubly_symmetric_count(m - 1)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_equivalence_classes_count_clans(self, n):
        classes = set()
        for clan in enumerate_diii(n):
            placement = pyramid_to_placement(clan_to_pyramid(clan))
            rotated = rotate_placement(placement)
            assert placement_to_clan(rotated) == clan
            classes.add(frozenset({placement.perm, rotated.perm}))
        assert len(classes) == count_formula(n)

    @pytest.mark.parametrize("m", range(2, 7))
    def test_no_placement_has_full_dihedral_symmetry(self, m):
        # a quarter-turn-invariant doubly symmetric placement cannot exist
        from oracles import involutions

        for perm in involutions(m):
            if all(perm[m - perm[i - 1]] == m + 1 - i for i in range(1, m + 1)):
                assert tuple(m + 1 - r for r in perm) != perm

    def test_json_round_trip(self):
        placement = pyramid_to_placement(REFERENCE_PYRAMID)
        assert RookPlacement.from_json_dict(placement.to_json_dict()) == placement


class TestSignedInvolutionPairs:
    def test_identity_placement(self):
        m = 4
        pair = signed_involution_pair(RookPlacement(tuple(range(1, m + 1))))
        w0 = Involution(tuple(range(m, 0, -1)))
        assert pair == frozenset({Involution(tuple(range(1, m + 1))), w0})

    def test_rotation_stable_and_order_two(self):
        for n in range(1, 5):
            for clan in enumerate_diii(n):
                placement = pyramid_to_placement(clan_to_pyramid(clan))
                pair = signed_involution_pair(placement)
                assert signed_involution_pair(rotate_placement(placement)) == pair
                assert len(pair) == 2  # v != w0 v on these boards


class TestPartitionPairs:
    def test_reference_pair(self):
        pair = pyramid_to_partition_pair(REFERENCE_PYRAMID)
        assert pair.partition() == frozenset(
            {frozenset({3, 4}), frozenset({1, 2})}
        )
        assert pair.blocks == frozenset(
            {frozenset({1, 3}), frozenset({2}), frozenset({4})}
        )
        assert partition_pair_to_pyramid(pair) == REFERENCE_PYRAMID

    def test_excluded_clan_rejected(self):
        pyramid = clan_to_pyramid(parse_diii("++--"))
        with pytest.raises(ClanError, match="no partition pair"):
            pyramid_to_partition_pair(pyramid)

    def test_check_lets_unexpected_errors_through(self, monkeypatch):
        # only the ClanError refusal of the excluded clan counts as expected;
        # any other exception there is a fault and must surface
        real = verify.pyramid_to_partition_pair

        def faulty(pyramid):
            try:
                return real(pyramid)
            except ClanError:
                raise TypeError("fault in the partition-pair map") from None

        monkeypatch.setattr(verify, "pyramid_to_partition_pair", faulty)
        posets = tuple(weak_order_poset(n) for n in range(1, 5))
        with pytest.raises(TypeError, match="fault"):
            verify.check_partition_pairs(posets)

    def test_pair_type_validates_its_invariants(self):
        with pytest.raises(ClanError, match="straddle"):
            PartitionPair(
                frozenset({1, 2}),
                frozenset({3}),
                frozenset({frozenset({1, 2}), frozenset({3})}),
            )
        with pytest.raises(ClanError, match="two elements"):
            PartitionPair(
                frozenset({1, 2, 3}),
                frozenset({4}),
                frozenset({frozenset({1, 2, 3}), frozenset({4})}),
            )
        with pytest.raises(ClanError, match="nonempty"):
            PartitionPair(
                frozenset({1, 2}),
                frozenset(),
                frozenset({frozenset({1}), frozenset({2})}),
            )
        with pytest.raises(ClanError, match="cover"):
            PartitionPair(
                frozenset({1}),
                frozenset({3}),
                frozenset({frozenset({1}), frozenset({3})}),
            )

    @pytest.mark.parametrize("n", range(2, 7))
    def test_count_is_one_less_than_clans(self, n):
        excluded = parse_diii("+" * n + "-" * n)
        seen = set()
        for clan in enumerate_diii(n):
            if clan == excluded:
                continue
            pair = pyramid_to_partition_pair(clan_to_pyramid(clan))
            assert partition_pair_to_pyramid(pair) == clan_to_pyramid(clan)
            seen.add((pair.partition(), pair.blocks))
        assert len(seen) == count_formula(n) - 1

    @pytest.mark.parametrize("n", range(2, 5))
    def test_matches_independent_pair_filter(self, n):
        expected = minimally_intersecting_pairs(n)
        excluded = parse_diii("+" * n + "-" * n)
        produced = {
            (
                pyramid_to_partition_pair(clan_to_pyramid(c)).partition(),
                pyramid_to_partition_pair(clan_to_pyramid(c)).blocks,
            )
            for c in enumerate_diii(n)
            if c != excluded
        }
        assert produced == expected

    @given(diii_clans(min_n=2, max_n=10))
    def test_minimal_intersection_property(self, clan):
        if clan == Clan(["+"] * clan.n + ["-"] * clan.n):
            return
        pair = pyramid_to_partition_pair(clan_to_pyramid(clan))
        for block in pair.blocks:
            assert len(block & pair.left) <= 1
            assert len(block & pair.right) <= 1
        assert pair.left and pair.right
        assert partition_pair_to_pyramid(pair) == clan_to_pyramid(clan)
