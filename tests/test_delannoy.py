import pytest
from hypothesis import given, settings

from diii_clans import (
    PathError,
    WeightedDelannoyPath,
    clan_to_path,
    count_formula,
    enumerate_diii,
    parse_diii,
    path_to_clan,
    validate_path,
)

from conftest import diii_clans
from oracles import candidate_weighted_words, raw_delannoy_word


def word_of(*steps):
    return WeightedDelannoyPath(steps)


class TestSteps:
    def test_labels_forced_to_one_on_straight_steps(self):
        # a straight step is its bare token and carries no label; a
        # diagonal step is its label, an int from 2
        with pytest.raises(PathError):
            word_of(("N", 2))
        with pytest.raises(PathError):
            word_of(1)
        for label in (2.0, True):
            with pytest.raises(PathError, match="must be an int"):
                word_of("E", label, "N")
        with pytest.raises(PathError, match="unknown step token '3'"):
            word_of("E", "3", "N")
        assert WeightedDelannoyPath.from_word("D:4").steps == (4,)

    @pytest.mark.parametrize(
        "step, message",
        [
            (True, "step label must be an int, got True"),
            (2.0, "step label must be an int, got 2.0"),
            ("D", "unknown step token 'D'"),
            (1, "path steps must be a tuple of steps, got ('E', 1, 'N')"),
            (("D", 3), "path steps must be a tuple of steps, got ('E', ('D', 3), 'N')"),
        ],
        ids=["bool", "float", "bare-D", "label-1", "pair"],
    )
    def test_non_tokens_refused(self, step, message):
        with pytest.raises(PathError) as caught:
            word_of("E", step, "N")
        assert str(caught.value) == message
        with pytest.raises(PathError) as caught:
            validate_path(["E", step, "N"])
        assert str(caught.value) == message

    def test_word_parsing(self):
        path = WeightedDelannoyPath.from_word("E D:4 D:3 D:2 D:5 N")
        assert path.to_word() == "E D:4 D:3 D:2 D:5 N"
        assert path.n == 5
        with pytest.raises(PathError):
            WeightedDelannoyPath.from_word("E Q N")
        with pytest.raises(PathError):
            WeightedDelannoyPath.from_word("")
        # a diagonal label is ASCII digits only
        for word in ("E D:+4 D:3 D:0_2 D:5 N", "D:٤ N", "D: 4 N", "D:²"):
            with pytest.raises(PathError, match="bad diagonal label"):
                WeightedDelannoyPath.from_word(word)


class TestValidation:
    def test_reference_word_is_valid(self):
        ok, violated = validate_path(WeightedDelannoyPath.from_word("E D:4 D:3 D:2 D:5 N"))
        assert ok and violated is None

    def test_reversed_middle_pair_fails_condition_4(self):
        assert validate_path(word_of(2, 3)) == (False, 4)

    def test_unbalanced_directions_fail_condition_1(self):
        assert validate_path(word_of("N", "N")) == (False, 1)

    def test_mirror_directions_fail_condition_2(self):
        assert validate_path(word_of("E", "N", "N", "E")) == (False, 2)

    def test_middle_north_fails_condition_4(self):
        assert validate_path(word_of("N", "N", "E", "E")) == (False, 4)

    def test_label_bound_fails_condition_3(self):
        # n=2, first step D can carry at most 2*2+1-2 = 3
        assert validate_path(word_of(4, 1 + 1)) == (False, 3)

    def test_mirror_label_fails_condition_3(self):
        assert validate_path(word_of(3, 3)) == (False, 3)

    def test_odd_length_fails_condition_4(self):
        assert validate_path(word_of("E", 2, "N")) == (False, 4)


class TestBijection:
    def test_reference_clan_word(self):
        path = clan_to_path(parse_diii("+12213443-"))
        assert path.to_word() == "E D:4 D:3 D:2 D:5 N"
        assert path_to_clan(path).text() == "+12213443-"

    def test_single_sign_pair(self):
        assert clan_to_path(parse_diii("+-")).to_word() == "E N"

    def test_hand_traced_maximal_n3(self):
        assert clan_to_path(parse_diii("12+-12")).to_word() == "D:5 E N D:2"

    def test_invalid_path_rejected_with_condition(self):
        with pytest.raises(PathError, match="condition 4"):
            path_to_clan(word_of(2, 3))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_round_trip_and_injectivity(self, n):
        words = set()
        for clan in enumerate_diii(n):
            path = clan_to_path(clan)
            assert validate_path(path) == (True, None)
            assert path_to_clan(path) == clan
            words.add(path.to_word())
        assert len(words) == count_formula(n)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_valid_words_are_exactly_the_clan_images(self, n):
        accepted = {
            WeightedDelannoyPath(word).to_word()
            for word in candidate_weighted_words(n)
            if validate_path(list(word))[0]
        }
        images = {clan_to_path(c).to_word() for c in enumerate_diii(n)}
        assert accepted == images
        assert len(accepted) == count_formula(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_slicing_reduction(self, n):
        # the in-place reduction against a copy-per-step one on raw tuples
        for clan in enumerate_diii(n):
            assert clan_to_path(clan).to_word() == raw_delannoy_word(clan.symbols)

    @settings(deadline=None)
    @given(diii_clans(max_n=24))
    def test_matches_slicing_reduction_on_large_clans(self, clan):
        path = clan_to_path(clan)
        assert path.to_word() == raw_delannoy_word(clan.symbols)
        assert path_to_clan(path) == clan

    @given(diii_clans(max_n=8))
    def test_round_trip_property(self, clan):
        path = clan_to_path(clan)
        assert path_to_clan(path) == clan

    @given(diii_clans(max_n=8))
    def test_mirror_label_identity(self, clan):
        path = clan_to_path(clan)
        steps = path.steps
        r = len(steps)
        n = path.n
        diagonals_before = 0
        for i in range(1, r // 2 + 1):
            if type(steps[i - 1]) is int:
                total = 2 * n + 3 - 2 * (i + diagonals_before)
                assert steps[i - 1] + steps[r - i] == total
                diagonals_before += 1

    @given(diii_clans(max_n=8))
    def test_direction_mirror_counts(self, clan):
        steps = clan_to_path(clan).steps
        r = len(steps)
        first, second = steps[: r // 2], steps[r // 2 :]
        assert sum(1 for s in first if s == "N") == sum(1 for s in second if s == "E")
