import pytest
from hypothesis import given, settings

from diii_clans import (
    Clan,
    ClanError,
    PartitionPair,
    Pyramid,
    PyramidParityError,
    RookPlacement,
    clan_to_pyramid,
    count_formula,
    enumerate_diii,
    extend_odd,
    parse_diii,
    partition_pair_to_pyramid,
    placement_to_clan,
    pyramid_to_clan,
    pyramid_to_partition_pair,
    pyramid_to_placement,
    rotate_placement,
    weak_order_poset,
)
from diii_clans import pyramids, verify

from conftest import count_checks, diii_clans
from oracles import (
    doubly_symmetric,
    doubly_symmetric_count,
    minimally_intersecting_pairs,
    raw_is_diii,
)

REFERENCE_PYRAMID = Pyramid(4, frozenset({("L", 4, 4), ("R", 2, 2), ("L", 1, 3)}))


class TestPyramidType:
    def test_bounds_checked(self):
        with pytest.raises(ClanError):
            Pyramid(3, frozenset({("L", 3, 2)}))
        with pytest.raises(ClanError, match="side"):
            Pyramid(1, frozenset({("M", 1, 1)}))
        with pytest.raises(ClanError, match="outside"):
            Pyramid(2, frozenset({("L", 1, 3), ("R", 2, 2)}))
        # exact ints only: True == 1 and 1.0 == 1 would otherwise pass
        for row, col in ((True, 1.0), (1, 1.0), (True, 1), ("1", 1)):
            with pytest.raises(ClanError, match="must be ints"):
                Pyramid(1, frozenset({("L", row, col)}))
        for n in (1.0, True, "1"):
            with pytest.raises(ClanError, match="size must be an int"):
                Pyramid(n, frozenset({("L", 1, 1)}))

    def test_coverage_condition(self):
        # index 2 covered twice, index 3 not at all
        with pytest.raises(ClanError, match="covered by both"):
            Pyramid(
                3,
                frozenset({("L", 1, 2), ("L", 2, 3), ("R", 3, 3)}),
            )
        with pytest.raises(ClanError, match="not covered"):
            Pyramid(2, frozenset({("L", 1, 1)}))

    def test_json_round_trip(self):
        data = REFERENCE_PYRAMID.to_json_dict()
        assert Pyramid.from_json_dict(data) == REFERENCE_PYRAMID

    @pytest.mark.parametrize(
        "data, message",
        [
            ({"n": 1, "rooks": [], "size": 2}, "unexpected key 'size'"),
            ({"n": 1, "rooks": [{"side": "L", "i": 1, "j": 1, "k": 0}]}, "unexpected key 'k'"),
            ({"n": 1, "rooks": [{"side": "L", "i": 1}]}, "missing key 'j'"),
            ({"n": 2, "rooks": [1]}, "expected an object, got 1"),
            ({"n": 2, "rooks": [["L", 1, 1]]}, r"expected an object, got \['L', 1, 1\]"),
            ([1, []], r"expected an object, got \[1, \[\]\]"),
        ],
    )
    def test_json_outside_its_format_is_refused(self, data, message):
        with pytest.raises(ClanError, match=f"^malformed pyramid JSON: {message}$"):
            Pyramid.from_json_dict(data)


class TestClanPyramidBijection:
    def test_reference_pyramid_encoding(self):
        assert clan_to_pyramid(parse_diii("1-1+-2+2")) == REFERENCE_PYRAMID
        assert pyramid_to_clan(REFERENCE_PYRAMID).text() == "1-1+-2+2"

    def test_mirror_pyramid_fails_parity(self):
        with pytest.raises(PyramidParityError, match="reflect"):
            pyramid_to_clan(REFERENCE_PYRAMID.mirror())

    def test_single_plus(self):
        assert clan_to_pyramid(parse_diii("+-")).rooks == frozenset({("L", 1, 1)})
        assert pyramid_to_clan(Pyramid(1, frozenset({("L", 1, 1)}))).text() == "+-"

    def test_hand_traced_straddling_pair(self):
        assert clan_to_pyramid(parse_diii("1212")).rooks == frozenset({("L", 1, 2)})

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
        mirrored = Pyramid(4, frozenset({("R", 4, 4), ("L", 2, 2), ("R", 1, 3)}))
        assert REFERENCE_PYRAMID.mirror() == mirrored
        assert mirrored.mirror() == REFERENCE_PYRAMID


def extract_pyramid(placement):
    """The bottom-triangle pyramid of a placement (rows r with r <= c and
    r <= m+1-c) as a checked ``Pyramid`` of the rooks ``pyramids._triangle``
    finds: the second decode route, through ``Pyramid`` and
    ``pyramid_to_clan``, beside ``placement_to_clan``'s direct decode."""
    cells = pyramids._triangle(placement.perm)
    return Pyramid(placement.size // 2, frozenset(cells))


def decode_either(pyramid):
    """The clan ``pyramid_to_clan`` decodes from a pyramid or its mirror,
    checking that exactly one of the two decodes."""
    decoded = []
    for candidate in (pyramid, pyramid.mirror()):
        try:
            decoded.append(pyramid_to_clan(candidate))
        except PyramidParityError:
            pass
    assert len(decoded) == 1
    return decoded[0]


class TestSingleDecode:
    """``placement_to_clan`` decodes one pyramid, picking the start side
    from the flip count; both decodes through the public route agree."""

    @staticmethod
    def assert_single_decode(clan):
        placement = pyramid_to_placement(clan_to_pyramid(clan))
        for board in (placement, rotate_placement(placement)):
            assert placement_to_clan(board) == decode_either(extract_pyramid(board)) == clan

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_both_decodes(self, n):
        for clan in enumerate_diii(n):
            self.assert_single_decode(clan)

    @settings(deadline=None)
    @given(diii_clans(max_n=24))
    def test_matches_both_decodes_on_large_clans(self, clan):
        self.assert_single_decode(clan)

    @pytest.mark.parametrize("m", [2, 4, 6, 8, 10])
    def test_matches_both_decodes_on_every_placement(self, m):
        # every placement, from the independent involution list
        for perm in doubly_symmetric(m):
            board = RookPlacement(perm)
            assert placement_to_clan(board) == decode_either(extract_pyramid(board))

    def test_builds_no_pyramid(self, monkeypatch):
        boards = [pyramid_to_placement(clan_to_pyramid(c)) for c in enumerate_diii(4)]
        counts = count_checks(monkeypatch)
        for board in boards:
            placement_to_clan(board)
            placement_to_clan(rotate_placement(board))
        assert counts["Pyramid"] == 0
        extract_pyramid(boards[0])
        assert counts["Pyramid"] == 1

    def test_empty_board_is_a_clan_error(self):
        with pytest.raises(ClanError, match="at least two symbols"):
            placement_to_clan(RookPlacement(()))

    @pytest.mark.parametrize(
        "cells",
        [
            [("L", 2, 2), ("L", 1, 2)],  # 2 twice; the writes fill every position
            [("R", 2, 2), ("L", 1, 2)],  # 2 twice, as a contained pair
            [("L", 1, 1)],  # 2 never
        ],
    )
    def test_decode_refuses_a_cover_that_is_not_exact(self, cells):
        with pytest.raises(ClanError, match="do not cover"):
            pyramids._decode(2, cells, "L")

    def test_odd_board_is_a_clan_error(self):
        with pytest.raises(ClanError, match="even board size"):
            extract_pyramid(RookPlacement((3, 2, 1)))
        with pytest.raises(ClanError, match="even board size"):
            placement_to_clan(RookPlacement((3, 2, 1)))


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

    def test_orbit_count_matches_brute_force(self):
        for m in range(13):
            assert verify.doubly_symmetric_by_orbits(m) == doubly_symmetric_count(m)

    def test_orbit_count_is_twice_the_clan_count(self):
        for n in range(1, 41):
            twice = 2 * count_formula(n)
            assert verify.doubly_symmetric_by_orbits(2 * n) == twice
            assert verify.doubly_symmetric_by_orbits(2 * n + 1) == twice

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

    def test_json_outside_its_format_is_refused(self):
        data = pyramid_to_placement(REFERENCE_PYRAMID).to_json_dict()
        with pytest.raises(ClanError, match="^malformed placement JSON: unexpected key 'n'$"):
            RookPlacement.from_json_dict({**data, "n": 2})
        with pytest.raises(ClanError, match="^malformed placement JSON: expected an object"):
            RookPlacement.from_json_dict(data["perm"])


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
        real = pyramids.pyramid_to_partition_pair

        def faulty(pyramid):
            try:
                return real(pyramid)
            except ClanError:
                raise TypeError("fault in the partition-pair map") from None

        monkeypatch.setattr(pyramids, "pyramid_to_partition_pair", faulty)
        with pytest.raises(TypeError, match="fault"):
            for n in range(1, 5):
                verify.check_partition_pairs(n, weak_order_poset(n))

    def test_check_passes_at_one(self):
        # the one clan of size 1, +-, is the excluded one: 0 pairs, D(1) - 1
        assert verify.check_partition_pairs(1, weak_order_poset(1)) is None

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


def rebuilt(value):
    """``value`` built again through its public, checked constructor."""
    return type(value)(*(getattr(value, field) for field in value.__dataclass_fields__))


def map_outputs(clan):
    """Every value the maps build unchecked from ``clan``'s pyramid: the
    pyramid, its mirror, the placement and its quarter turn, and, but for
    the excluded clan, the partition pair and the pyramid rebuilt from it."""
    pyramid = clan_to_pyramid(clan)
    placement = pyramid_to_placement(pyramid)
    outputs = [pyramid, pyramid.mirror(), placement, rotate_placement(placement)]
    if clan.text() != "+" * clan.n + "-" * clan.n:
        pair = pyramid_to_partition_pair(pyramid)
        outputs += [pair, partition_pair_to_pyramid(pair)]
    return outputs


class TestUncheckedMaps:
    """A map whose checked input implies its output's check builds the
    output unchecked; the public constructor accepts each such output."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_output_passes_its_constructor(self, n):
        for clan in enumerate_diii(n):
            for value in map_outputs(clan):
                assert rebuilt(value) == value, (clan, value)

    @settings(deadline=None)
    @given(diii_clans(max_n=24))
    def test_every_output_passes_its_constructor_on_large_clans(self, clan):
        for value in map_outputs(clan):
            assert rebuilt(value) == value

    def test_round_trips_run_no_constructor_check(self, monkeypatch):
        # the per-clan chain of every bijection round trip
        clans = list(enumerate_diii(5))
        counts = count_checks(monkeypatch)
        for clan in clans:
            pyramid = clan_to_pyramid(clan)
            assert pyramid_to_clan(pyramid) == clan
            placement = pyramid_to_placement(pyramid)
            rotated = rotate_placement(placement)
            assert placement_to_clan(placement) == placement_to_clan(rotated) == clan
            assert rotate_placement(rotated) == placement
            if clan.text() != "+++++-----":
                pair = pyramid_to_partition_pair(pyramid)
                assert pyramid_to_clan(partition_pair_to_pyramid(pair)) == clan
        assert counts == {}
        for value in map_outputs(clans[-1]):
            rebuilt(value)
        assert counts == {"Pyramid": 3, "RookPlacement": 2, "PartitionPair": 1}
