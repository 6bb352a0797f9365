"""Each check on the bijection chain runs once, by the cheapest code, and
still rejects what it rejected before.

A path is scanned once, when it is built, ``assemble_clan`` tests
occupancy inline as it writes its key, and ``RookPlacement``, ``Pyramid``
and ``PartitionPair`` test their rules in one pass. Each is compared here
with a reference: the per-index, per-claim and per-block-set versions
those checks ran before. ``path_to_clan`` writes a checked path's key with
the sect generator's writers and is compared with the insertion decode it
replaced. The placement decode, which builds no pyramid, is tested with
the other decodes in test_pyramids.py. The flag form check forms only the
upper triangle of H^T J H, and is compared with a check of every row in
dense lists. The clan tokenizer splits its text once and looks each token
up, and ``FlagMatrix`` tests its rows' types and lengths as two sets; each
is compared with the per-item loop it replaced.
"""

from fractions import Fraction
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diii_clans import (
    ClanError,
    DIIIClan,
    FlagMatrix,
    PartitionPair,
    PathError,
    Pyramid,
    RookPlacement,
    WeightedDelannoyPath,
    assemble_clan,
    clan_to_path,
    clan_to_pyramid,
    enumerate_diii,
    parse_diii,
    path_to_clan,
    pyramid_to_partition_pair,
    representative_matrix,
    validate_path,
)
from diii_clans.clans import _parse_symbols, ascii_int
from diii_clans.delannoy import _swap_middle
from diii_clans.enumeration import _put_pair, _put_sign
from diii_clans.flags import INV_SQRT2, ONE, ZERO, QSqrt2, _form_holds, _scaled
from diii_clans.pyramids import _MISSING_LISTED

from conftest import (
    count_checks,
    count_clan_builds,
    dense_matrices,
    diii_clans,
    perturbed_representatives,
    q_add,
    q_mul,
    raw,
)
from oracles import candidate_weighted_words, doubly_symmetric, raw_antidiagonal, raw_form


def outcome(f, *args):
    """("ok", the result) or (the exception type, its message)."""
    try:
        return "ok", f(*args)
    except Exception as exc:
        return type(exc), str(exc)


def verdict(f, *args):
    """``outcome`` with the result of a success dropped."""
    kind, result = outcome(f, *args)
    return kind, None if kind == "ok" else result


def reference_placement_check(perm):
    """The placement rules checked index by index."""
    if type(perm) is not tuple:
        raise ClanError(f"placement perm must be a tuple, got {perm!r}")
    m = len(perm)
    if not all(type(v) is int for v in perm) or sorted(perm) != list(range(1, m + 1)):
        raise ClanError(f"{perm} is not a permutation of 1..{m}")
    for i in range(1, m + 1):
        if perm[perm[i - 1] - 1] != i:
            raise ClanError("placement is not symmetric across the main diagonal")
        if perm[m - perm[i - 1]] != m + 1 - i:
            raise ClanError("placement is not symmetric across the antidiagonal")


def reference_pyramid_check(n, rooks):
    """The pyramid rules with a {row, col} set per rook and a full
    missing-index scan, reading the rooks in sorted order: entry by entry,
    ints by value before any other entry, which goes by its repr. The
    message lists the first ``_MISSING_LISTED`` missing indices and counts
    the rest."""
    if type(n) is not int:
        raise ClanError(f"pyramid size must be an int, got {n!r}")
    if n < 0:
        raise ClanError(f"pyramid size must be nonnegative, got {n}")
    if type(rooks) is not frozenset or not all(type(c) is tuple and len(c) == 3 for c in rooks):
        raise ClanError(f"pyramid rooks must be a frozenset of cells, got {rooks!r}")
    seen = {}

    def order(cell):
        return [(0, x) if type(x) is int else (1, repr(x)) for x in cell]

    for cell in sorted(rooks, key=order):
        side, row, col = cell
        text = f"({side},{row},{col})"
        if side != L and side != R:
            raise ClanError("side must be 'L' or 'R'")
        if not (type(row) is int and type(col) is int):
            raise ClanError(f"cell row and col must be ints, got {row!r}, {col!r}")
        if row < 1 or row > col:
            raise ClanError(f"cell {text} needs row <= col")
        if col > n:
            raise ClanError(f"cell {text} outside pyramid of size {n}")
        for k in {row, col}:
            if k in seen:
                raise ClanError(f"index {k} covered by both {seen[k]} and {text}")
            seen[k] = text
    missing = [k for k in range(1, n + 1) if k not in seen]
    if len(missing) > _MISSING_LISTED:
        listed, more = missing[:_MISSING_LISTED], len(missing) - _MISSING_LISTED
        raise ClanError(f"indices {listed} and {more} more not covered by any rook")
    if missing:
        raise ClanError(f"indices {missing} not covered by any rook")


def reference_assemble_key(n, contained_pairs, straddling_pairs, signs):
    """The key ``assemble_clan`` writes, claiming all four positions of a
    pair, then writing them with the sect generator's writers."""
    m = 2 * n + 1
    key = [None] * (2 * n)

    def claim(*positions):
        for pos in positions:
            if key[pos - 1] is not None:
                raise ClanError(f"position {pos} assigned twice")

    for i, j in contained_pairs:
        if not 1 <= i < j <= n:
            raise ClanError(f"contained pair {(i, j)} out of range")
        claim(i, j, m - j, m - i)
        _put_pair(key, i, j)
    for i, j in straddling_pairs:
        if not 1 <= i < j <= n:
            raise ClanError(f"straddling pair {(i, j)} out of range")
        claim(i, m - j, j, m - i)
        _put_pair(key, i, m - j)
    for pos, sign in signs.items():
        if not 1 <= pos <= n:
            raise ClanError(f"sign position {pos} out of range")
        if sign not in ("+", "-"):
            raise ClanError(f"bad sign {sign!r}")
        claim(pos)
        _put_sign(key, pos, sign)
    if None in key:
        missing = [p for p, s in enumerate(key, start=1) if s is None]
        raise ClanError(f"positions {missing} left unassigned")
    if not key:
        raise ClanError("a clan must contain at least two symbols")
    minus = sum(1 for sign in signs.values() if sign == "-")
    if (minus + len(contained_pairs)) % 2 != 0:
        raise ClanError(
            f"not a DIII clan: odd parity in the first half ({minus} minus signs, "
            f"{len(contained_pairs)} contained pairs)"
        )
    return tuple(key)


def assembled_key(n, contained_pairs, straddling_pairs, signs):
    """The key of the clan ``assemble_clan`` builds."""
    return assemble_clan(n, contained_pairs, straddling_pairs, signs)._key()


def reference_partition_pair_check(left, right, blocks):
    """The partition-pair rules with set operations per block."""
    if type(blocks) is not frozenset or not all(
        type(part) is frozenset and all(type(i) is int for i in part)
        for part in (left, right, *blocks)
    ):
        raise ClanError(
            "partition pair sides and blocks must be frozensets of ints, "
            f"got {left!r}, {right!r}, {blocks!r}"
        )
    n = len(left) + len(right)
    if not left or not right:
        raise ClanError("both partition blocks must be nonempty")
    if left & right:
        raise ClanError("partition blocks overlap")
    if left | right != set(range(1, n + 1)):
        raise ClanError(f"partition blocks must cover 1..{n}")
    covered = set()
    for block in blocks:
        if not 1 <= len(block) <= 2:
            raise ClanError(f"block {set(block)} has more than two elements")
        if covered & block:
            raise ClanError("second partition has overlapping blocks")
        covered |= block
        if len(block & left) > 1 or len(block & right) > 1:
            raise ClanError(f"block {set(block)} does not straddle the two-block partition")
    if covered != set(range(1, n + 1)):
        raise ClanError(f"second partition must cover 1..{n}")


def reference_path_to_clan(path):
    """The insertion decode: one symbol list grows from the inside out, each
    loop inserting the new outer symbols in ascending order of their final
    positions, and the word becomes a clan through the checked constructor."""
    ok, violated = validate_path(path)
    if not ok:
        raise PathError(f"invalid weighted Delannoy path: condition {violated} violated")
    steps = path.steps
    r = len(steps)
    syms = []
    label = 0
    for k in range(r // 2, 0, -1):
        outer = steps[r - k]
        if outer == "N":
            syms.insert(0, "+")
            syms.append("-")
        elif outer == "E":
            _swap_middle(syms)
            syms.insert(0, "-")
            syms.append("+")
        else:
            m = len(syms) // 2 + 2
            j = outer
            if j > m:
                _swap_middle(syms)
            opener, closer = label + 1, label + 2
            label = closer
            syms.insert(0, opener)
            for pos, sym in sorted(((j - 1, closer), (2 * m - j, opener))):
                syms.insert(pos, sym)
            syms.append(closer)
    return DIIIClan(syms)


def reference_form_holds(scaled):
    """The form check H^T J H = L^2 J with two dense m-lists per row of
    H^T J H, each scanned in full."""
    scale, rows = scaled
    m = len(rows)
    cols = [[] for _ in range(m)]
    for r, row in enumerate(rows):
        for c, ea, eb in row:
            cols[c].append((r, ea, eb))
    for a, col in enumerate(cols):
        rational, irrational = [0] * m, [0] * m
        for r, ga, gb in col:
            for b, ha, hb in rows[m - 1 - r]:
                rational[b] += ga * ha + 2 * gb * hb
                irrational[b] += ga * hb + gb * ha
        if rational[m - 1 - a] != scale * scale:
            return False
        rational[m - 1 - a] = 0
        if any(rational) or any(irrational):
            return False
    return True


def reference_parse_symbols(text):
    """The clan tokenizer with a whitespace test per char and an
    ``ascii_int`` read per token."""
    cleaned = text.replace("−", "-").strip()
    if not cleaned:
        raise ClanError("empty clan text")
    if any(ch.isspace() for ch in cleaned):
        tokens = cleaned.split()
    else:
        tokens = list(cleaned)
    symbols = []
    for tok in tokens:
        if tok == "+" or tok == "-":
            symbols.append(tok)
        elif (label := ascii_int(tok)) is not None and label >= 1:
            symbols.append(label)
        else:
            raise ClanError(f"unknown token {tok!r}")
    return symbols


def reference_flag_shape(clan, rows):
    """The ``FlagMatrix`` shape test with one ``all(...)`` over the rows."""
    m = 2 * clan.n
    if not (
        type(rows) is tuple
        and len(rows) == m
        and all(type(row) is tuple and len(row) == m for row in rows)
    ):
        raise ClanError(
            f"a flag matrix of {clan} must be a tuple of {m} row tuples of length {m}"
        )


def word(text):
    return WeightedDelannoyPath.from_word(text)


L, R = "L", "R"


class TestMessagesKept:
    """A table of bad inputs, each with the type and message it raised
    before the checks were merged."""

    @pytest.mark.parametrize(
        "perm, message",
        [
            ([1, 2], "placement perm must be a tuple, got [1, 2]"),
            ((1, 1, 3), "(1, 1, 3) is not a permutation of 1..3"),
            ((True, 2), "(True, 2) is not a permutation of 1..2"),
            ((1.0, 2), "(1.0, 2) is not a permutation of 1..2"),
            ((0, 1), "(0, 1) is not a permutation of 1..2"),
            ((2, 3, 1), "placement is not symmetric across the main diagonal"),
            ((2, 1, 3, 4), "placement is not symmetric across the antidiagonal"),
            # both rules fail; the first failing index picks the message
            ((1, 3, 4, 2), "placement is not symmetric across the antidiagonal"),
            ((4, 1, 3, 2), "placement is not symmetric across the main diagonal"),
            ((1, 2, 4, 5, 3), "placement is not symmetric across the antidiagonal"),
            ((1, 5, 2, 4, 3, 6), "placement is not symmetric across the main diagonal"),
        ],
    )
    def test_placement(self, perm, message):
        assert outcome(RookPlacement, perm) == (ClanError, message)
        assert outcome(reference_placement_check, perm) == (ClanError, message)

    @pytest.mark.parametrize(
        "n, rooks, message",
        [
            (1.0, frozenset({(L, 1, 1)}), "pyramid size must be an int, got 1.0"),
            (1, frozenset({1}), "pyramid rooks must be a frozenset of cells, got frozenset({1})"),
            (
                2,
                frozenset({(L, 1, 3), (R, 2, 2)}),
                "cell (L,1,3) outside pyramid of size 2",
            ),
            (
                4,
                frozenset({(L, 1, 2), (R, 4, 4)}),
                "indices [3] not covered by any rook",
            ),
            (3, frozenset(), "indices [1, 2, 3] not covered by any rook"),
            pytest.param(
                -1, frozenset(), "pyramid size must be nonnegative, got -1", id="negative-size"
            ),
            pytest.param(
                -2,
                frozenset({(L, 1, 1)}),
                "pyramid size must be nonnegative, got -2",
                id="negative-size-before-its-rooks",
            ),
            # as many missing as are listed: the whole list, as before
            pytest.param(
                12,
                frozenset({(L, 1, 2)}),
                "indices [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] not covered by any rook",
                id="missing-all-listed",
            ),
            pytest.param(
                13,
                frozenset({(L, 1, 2)}),
                "indices [3, 4, 5, 6, 7, 8, 9, 10, 11, 12] and 1 more not covered by any rook",
                id="missing-one-past-the-list",
            ),
            pytest.param(3, frozenset({("M", 1, 1)}), "side must be 'L' or 'R'", id="side-M"),
            pytest.param(
                3,
                frozenset({(L, True, 1)}),
                "cell row and col must be ints, got True, 1",
                id="row-bool",
            ),
            pytest.param(
                3,
                frozenset({(L, 1, 1.0)}),
                "cell row and col must be ints, got 1, 1.0",
                id="col-float",
            ),
            pytest.param(
                3, frozenset({(L, 3, 2)}), "cell (L,3,2) needs row <= col", id="row-above-col"
            ),
            pytest.param(3, frozenset({(L, 0, 0)}), "cell (L,0,0) needs row <= col", id="row-zero"),
            pytest.param(
                3,
                frozenset({(L, 1)}),
                "pyramid rooks must be a frozenset of cells, got frozenset({('L', 1)})",
                id="two-tuple",
            ),
            # a list is unhashable, so a list cell can only come in a list of rooks
            pytest.param(
                3,
                [[L, 1, 1]],
                "pyramid rooks must be a frozenset of cells, got [['L', 1, 1]]",
                id="list-cell",
            ),
            # three faults; the first in sorted order is named, whatever
            # order the string hash gives the frozenset
            pytest.param(
                3,
                frozenset({(L, 1, 2), (L, 2, 3), (R, 3, 3)}),
                "index 2 covered by both (L,1,2) and (L,2,3)",
                id="first-fault-sorted",
            ),
        ],
    )
    def test_pyramid(self, n, rooks, message):
        assert outcome(Pyramid, n, rooks) == (ClanError, message)
        assert outcome(reference_pyramid_check, n, rooks) == (ClanError, message)

    def test_pyramid_missing_of_a_billion(self):
        # the reference would scan every index; the check lists the first
        # few and counts the rest
        message = (
            "indices [1, 3, 5, 6, 7, 8, 9, 10, 11, 12] and 999999988 more "
            "not covered by any rook"
        )
        assert outcome(Pyramid, 10**9, frozenset({(R, 2, 2), (L, 4, 4)})) == (ClanError, message)

    @pytest.mark.parametrize(
        "rooks, message",
        [
            ([(L, 1, 1), (L, 1, 1)], "rook (L,1,1) listed twice"),
            ([(L, 1, 2), (R, 3, 3), (R, 3, 3), (L, 1, 2)], "rook (R,3,3) listed twice"),
            # 20,000 distinct rooks, then the first again, found in one pass
            ([(L, k, k) for k in range(1, 20_001)] + [(L, 1, 1)], "rook (L,1,1) listed twice"),
        ],
        ids=["one-rook-twice", "first-repeat-named", "late-repeat-among-many"],
    )
    def test_pyramid_json_lists_each_rook_once(self, rooks, message):
        data = {"n": 3, "rooks": [{"side": s, "i": i, "j": j} for s, i, j in rooks]}
        assert outcome(Pyramid.from_json_dict, data) == (ClanError, message)

    def test_pyramid_json_checks_every_rook_before_a_repeat(self):
        rooks = [{"side": L, "i": 1, "j": 1}, {"side": L, "i": 1, "j": 1}, {"side": L, "i": "a"}]
        kind, message = outcome(Pyramid.from_json_dict, {"n": 1, "rooks": rooks})
        assert kind is ClanError and message.startswith("malformed pyramid JSON")

    def test_pyramid_container_error_comes_first(self):
        rooks = frozenset({(L, 1, 1), (R, 1, 1), 7})
        kind, message = outcome(Pyramid, 2, rooks)
        assert kind is ClanError and message.startswith("pyramid rooks must be a frozenset")

    @pytest.mark.parametrize(
        "n, contained, straddling, signs, message",
        [
            (3, [(2, 1)], [], {}, "contained pair (2, 1) out of range"),
            (3, [], [(1, 4)], {}, "straddling pair (1, 4) out of range"),
            (3, [], [], {4: "+"}, "sign position 4 out of range"),
            (3, [], [], {1: "x"}, "bad sign 'x'"),
            (3, [(1, 2), (1, 3)], [], {}, "position 1 assigned twice"),
            (3, [(1, 3), (2, 3)], [], {}, "position 3 assigned twice"),
            (3, [(1, 2)], [(2, 3)], {}, "position 2 assigned twice"),
            # a straddling pair claims 2n+1-j before j
            (3, [(1, 3)], [(2, 3)], {}, "position 4 assigned twice"),
            (3, [], [(1, 2)], {2: "+"}, "position 2 assigned twice"),
            (3, [], [], {1: "+"}, "positions [2, 3, 4, 5] left unassigned"),
            (0, [], [], {}, "a clan must contain at least two symbols"),
            (
                2,
                [],
                [],
                {1: "+", 2: "-"},
                "not a DIII clan: odd parity in the first half (1 minus signs, 0 contained pairs)",
            ),
        ],
    )
    def test_assemble_key(self, n, contained, straddling, signs, message):
        assert outcome(assembled_key, n, contained, straddling, signs) == (ClanError, message)
        assert outcome(reference_assemble_key, n, contained, straddling, signs) == (
            ClanError,
            message,
        )

    @pytest.mark.parametrize(
        "left, right, blocks, message",
        [
            (
                {1},
                frozenset({2}),
                frozenset({frozenset({1, 2})}),
                "partition pair sides and blocks must be frozensets of ints, "
                "got {1}, frozenset({2}), frozenset({frozenset({1, 2})})",
            ),
            (
                frozenset({1}),
                frozenset({True}),
                frozenset({frozenset({1, 2})}),
                "partition pair sides and blocks must be frozensets of ints, "
                "got frozenset({1}), frozenset({True}), frozenset({frozenset({1, 2})})",
            ),
            (
                frozenset({1}),
                frozenset({2}),
                frozenset({frozenset({1.0, 2})}),
                "partition pair sides and blocks must be frozensets of ints, "
                "got frozenset({1}), frozenset({2}), frozenset({frozenset({1.0, 2})})",
            ),
            (frozenset(), frozenset({1}), frozenset(), "both partition blocks must be nonempty"),
            # overlap is named before the cover fault it also causes
            (frozenset({1, 9}), frozenset({1}), frozenset(), "partition blocks overlap"),
            (frozenset({1, 4}), frozenset({2}), frozenset(), "partition blocks must cover 1..3"),
            (frozenset({0}), frozenset({2}), frozenset(), "partition blocks must cover 1..2"),
            (
                frozenset({1, 2}),
                frozenset({3}),
                frozenset({frozenset({1, 2, 3})}),
                "block {1, 2, 3} has more than two elements",
            ),
            (
                frozenset({1}),
                frozenset({2}),
                frozenset({frozenset()}),
                "block set() has more than two elements",
            ),
            (
                frozenset({1, 3}),
                frozenset({2}),
                frozenset({frozenset({1, 2}), frozenset({2, 3})}),
                "second partition has overlapping blocks",
            ),
            (
                frozenset({1, 3}),
                frozenset({2}),
                frozenset({frozenset({1, 3}), frozenset({2})}),
                "block {1, 3} does not straddle the two-block partition",
            ),
            (
                frozenset({1}),
                frozenset({2, 3}),
                frozenset({frozenset({1}), frozenset({2, 3})}),
                "block {2, 3} does not straddle the two-block partition",
            ),
            # a member outside 1..n straddles nothing and is a cover fault
            (
                frozenset({1}),
                frozenset({2}),
                frozenset({frozenset({1, 5}), frozenset({2})}),
                "second partition must cover 1..2",
            ),
            (
                frozenset({1}),
                frozenset({2}),
                frozenset({frozenset({0, 1})}),
                "second partition must cover 1..2",
            ),
            (
                frozenset({1}),
                frozenset({2}),
                frozenset({frozenset({1})}),
                "second partition must cover 1..2",
            ),
            (frozenset({1}), frozenset({2}), frozenset(), "second partition must cover 1..2"),
        ],
    )
    def test_partition_pair(self, left, right, blocks, message):
        assert outcome(PartitionPair, left, right, blocks) == (ClanError, message)
        assert outcome(reference_partition_pair_check, left, right, blocks) == (
            ClanError,
            message,
        )

    @pytest.mark.parametrize(
        "path, result",
        [
            ((), (False, 1)),
            (word("N N E"), (False, 1)),
            (word("N E"), (False, 4)),
            (word("D:5 D:2"), (False, 3)),
            (word("D:2 D:3"), (False, 4)),
            (word("E D:2 N"), (False, 4)),
            (word("E D:3 D:2 N"), (True, None)),
        ],
    )
    def test_validate_path(self, path, result):
        assert validate_path(path) == result
        assert validate_path(path) == result

    @pytest.mark.parametrize(
        "path, message",
        [
            ((1, 2), "path steps must be a tuple of steps, got (1, 2)"),
            (5, "path steps must be a tuple of steps, got 5"),
        ],
    )
    def test_validate_path_container(self, path, message):
        assert outcome(validate_path, path) == (PathError, message)


_permutations = st.integers(0, 8).flatmap(lambda m: st.permutations(range(1, m + 1)))
_placements = st.integers(1, 4).flatmap(lambda n: st.sampled_from(list(doubly_symmetric(2 * n))))
_near_perms = st.lists(st.integers(-1, 7) | st.booleans(), max_size=7)
_cells = st.builds(
    lambda side, row, extra: (side, row, row + extra),
    st.sampled_from((L, R)),
    st.integers(1, 6),
    st.integers(0, 4),
)
# cells that break a rule of their own, or are no 3-tuple at all
_bad_cells = st.tuples(
    st.sampled_from((L, R, "M")),
    st.integers(-1, 6) | st.booleans() | st.just(1.0),
    st.integers(-1, 6) | st.booleans() | st.just(1.0),
) | st.tuples(st.sampled_from((L, R))) | st.integers()
_pairs = st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), max_size=4)


class TestSameVerdictAsTheReference:
    """On random inputs, each merged check returns or raises exactly what
    its reference does."""

    @settings(deadline=None)
    @given(st.one_of(_permutations.map(tuple), _placements, _near_perms.map(tuple), _near_perms))
    def test_placement(self, perm):
        assert verdict(RookPlacement, perm) == outcome(reference_placement_check, perm)

    @settings(deadline=None)
    @given(
        st.integers(-2, 6) | st.integers(10, 14),
        st.frozensets(_cells, max_size=5) | st.frozensets(_cells | _bad_cells, max_size=5),
    )
    def test_pyramid(self, n, rooks):
        assert verdict(Pyramid, n, rooks) == outcome(reference_pyramid_check, n, rooks)

    def test_pyramid_names_the_index_the_reference_names(self):
        # a rook (row, col) whose row and col are both covered already; the
        # set {row, col} yields col first when col % 8 < row % 8. The rooks
        # are read in sorted order, so which comes last depends on the
        # sides, and every choice of sides is tried
        hits = 0
        for row, col in ((3, 9), (5, 10), (6, 9), (4, 11), (7, 8)):
            for a, b, c in product((L, R), repeat=3):
                rooks = frozenset({(a, row, row), (b, col, col), (c, row, col)})
                kind, message = outcome(Pyramid, col, rooks)
                assert (kind, message) == outcome(reference_pyramid_check, col, rooks)
                hits += message.startswith(f"index {col} covered by both")
        assert hits > 0

    @settings(deadline=None)
    @given(
        st.integers(0, 5),
        _pairs,
        _pairs,
        st.dictionaries(st.integers(0, 6), st.sampled_from("+-x"), max_size=5),
    )
    def test_assemble_key(self, n, contained, straddling, signs):
        args = (n, contained, straddling, signs)
        assert outcome(assembled_key, *args) == outcome(reference_assemble_key, *args)


_members = st.frozensets(st.integers(-1, 6), max_size=4)
_sides = _members | st.frozensets(st.integers(1, 3) | st.booleans(), max_size=3) | st.just({1})
_blocks = st.frozensets(
    st.frozensets(st.integers(0, 6), max_size=3)
    | st.frozensets(st.integers(1, 6), min_size=1, max_size=2),
    max_size=5,
)


def _pair_parts(clan):
    pair = pyramid_to_partition_pair(clan_to_pyramid(clan))
    return pair.left, pair.right, pair.blocks


class TestPartitionPairCheck:
    """The one-pass ``PartitionPair`` check returns or raises exactly what
    the per-block-set reference does."""

    @settings(deadline=None)
    @given(_sides, _sides, _blocks | st.sets(_members, max_size=2))
    def test_random_parts(self, left, right, blocks):
        args = (left, right, blocks)
        assert verdict(PartitionPair, *args) == outcome(reference_partition_pair_check, *args)

    @settings(deadline=None)
    @given(diii_clans(min_n=2, max_n=12), st.data())
    def test_built_pairs_and_their_near_misses(self, clan, data):
        try:
            left, right, blocks = _pair_parts(clan)
        except ClanError:  # the all-plus-then-all-minus clan has no pair
            return
        args = (left, right, blocks)
        assert verdict(PartitionPair, *args) == outcome(reference_partition_pair_check, *args)
        # move one index to the other side, or merge or drop a block
        k = data.draw(st.sampled_from(sorted(left | right)))
        moved = (left ^ {k}, right ^ {k}, blocks)
        listed = sorted(blocks, key=sorted)
        a, b = data.draw(st.sampled_from(listed)), data.draw(st.sampled_from(listed))
        merged = (left, right, (blocks - {a, b}) | {a | b})
        dropped = (left, right, blocks - {a})
        for args in (moved, merged, dropped):
            assert verdict(PartitionPair, *args) == outcome(reference_partition_pair_check, *args)


def _words(n):
    for steps in candidate_weighted_words(n):
        yield WeightedDelannoyPath(steps)


class TestPathDecode:
    """``path_to_clan`` reads a checked path from the outside in and writes
    its key with the sect generator's writers: the same clan, or the same
    error, as the insertion decode, and no checked clan build."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_candidate_word(self, n):
        accepted = 0
        for path in _words(n):
            kind, result = outcome(path_to_clan, path)
            assert (kind, result) == outcome(reference_path_to_clan, path)
            accepted += kind == "ok"
        assert accepted == len(enumerate_diii(n))

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_clan(self, n):
        for clan in enumerate_diii(n):
            path = clan_to_path(clan)
            decoded = path_to_clan(path)
            assert decoded == reference_path_to_clan(path) == clan
            assert decoded._key() == clan._key()

    @settings(deadline=None)
    @given(diii_clans(max_n=24))
    def test_large_clans(self, clan):
        path = clan_to_path(clan)
        assert path_to_clan(path) == reference_path_to_clan(path) == clan

    def test_builds_one_unchecked_clan(self, monkeypatch):
        paths = [clan_to_path(clan) for clan in enumerate_diii(5)]
        built = count_clan_builds(monkeypatch)
        for path in paths:
            built.clear()
            path_to_clan(path)
            assert [kind for kind, _ in built] == ["_from_key"]

    def test_a_forged_verdict_meets_the_parity_test(self):
        # N E fails condition 4; stored as valid, its decode writes one
        # minus in the first half and no pair, so the parity test refuses it
        path = WeightedDelannoyPath(("N", "E"))
        assert validate_path(path) == (False, 4)
        object.__setattr__(path, "_verdict", (True, None))
        with pytest.raises(PathError, match="odd first-half parity: 1 minus signs, 0 contained"):
            path_to_clan(path)

    def test_a_forged_verdict_meets_the_coverage_test(self):
        # a lone E reads no step pair, so no position is written
        path = WeightedDelannoyPath(("E",))
        object.__setattr__(path, "_verdict", (True, None))
        with pytest.raises(PathError, match="leaves a position unassigned"):
            path_to_clan(path)


class TestPathMemo:
    """A path is scanned once, when it is built; ``validate_path`` and
    ``path_to_clan`` read the verdict it stored."""

    def test_round_trip_scans_once(self, monkeypatch):
        counts = count_checks(monkeypatch)
        for clan in enumerate_diii(4):
            counts.clear()
            path = clan_to_path(clan)
            assert validate_path(path) == (True, None)
            assert path_to_clan(path) == clan
            assert counts["scan"] == 1

    def test_memo_takes_no_part_in_equality_hash_or_repr(self):
        used = clan_to_path(parse_diii("1-1+-2+2"))
        fresh = WeightedDelannoyPath(used.steps)
        assert used._verdict == fresh._verdict == (True, None)
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert "_verdict" not in repr(used)
        assert used.to_word() == fresh.to_word()

    def test_a_sequence_of_steps_is_checked_as_before(self):
        steps = ["E", 3, 2, "N"]
        assert validate_path(steps) == (True, None)
        assert validate_path(tuple(steps)) == (True, None)


SQRT2 = QSqrt2(0, 1)
# pairs (t, 1/t): a column scaled by t and its mirror by 1/t keep the form
_unit_pairs = st.sampled_from(
    (
        (-ONE, -ONE),
        (QSqrt2(2), QSqrt2(Fraction(1, 2))),
        (QSqrt2(1, 1), QSqrt2(-1, 1)),  # 1 + sqrt(2) and sqrt(2) - 1
        (INV_SQRT2, SQRT2),
    )
)
_alphabet = st.sampled_from((ZERO, ONE, -ONE, QSqrt2(2), INV_SQRT2, QSqrt2(1, 1)))


@st.composite
def near_isometries(draw):
    """Square matrices of size 1-6 with G^T J G = J, or missing it by one
    entry: the identity after up to four column operations that keep the
    form, then, half the time, one entry redrawn from a small alphabet.
    The operations, for c and d off the centre of an odd size:

    - trade columns c and d, and their mirrors m-1-c and m-1-d;
    - scale column c by t and its mirror by 1/t (the centre by -1);
    - add k times column c to column d and take k times column m-1-d from
      column m-1-c, for d not c or its mirror;
    - for an odd size with centre z, take k times column c from column z
      and add k times the old column z and -k^2/2 times column c to column
      m-1-c. This is the one operation that mixes the centre row with the
      row pairs, so a diagonal entry of H^T J H takes the centre row's
      square and a doubled row-pair product.
    """
    m = draw(st.integers(1, 6))
    cols = [[ONE if r == c else ZERO for r in range(m)] for c in range(m)]
    off_centre = [c for c in range(m) if 2 * c != m - 1]
    ops = ("trade", "scale", "add") + (("centre",) if m % 2 else ())
    for _ in range(draw(st.integers(0, 4))):
        op = draw(st.sampled_from(ops))
        c = draw(st.integers(0, m - 1))
        if op == "scale":
            t, u = draw(_unit_pairs) if c in off_centre else (-ONE, ONE)
            cols[c] = [q_mul(t, e) for e in cols[c]]
            cols[m - 1 - c] = [q_mul(u, e) for e in cols[m - 1 - c]]
            continue
        if c not in off_centre:
            continue
        if op == "centre":
            z, k = m // 2, draw(_alphabet)
            half_square = q_mul(QSqrt2(Fraction(-1, 2)), q_mul(k, k))
            old_z = cols[z]
            cols[z] = [q_add(e, q_mul(-k, f)) for e, f in zip(old_z, cols[c])]
            cols[m - 1 - c] = [
                q_add(q_add(e, q_mul(k, g)), q_mul(half_square, f))
                for e, g, f in zip(cols[m - 1 - c], old_z, cols[c])
            ]
            continue
        d = draw(st.sampled_from(off_centre))
        if op == "trade":
            cols[c], cols[d] = cols[d], cols[c]
            if c != m - 1 - d:
                cols[m - 1 - c], cols[m - 1 - d] = cols[m - 1 - d], cols[m - 1 - c]
        elif d not in (c, m - 1 - c):
            k = draw(_alphabet)
            cols[d] = [q_add(e, q_mul(k, f)) for e, f in zip(cols[d], cols[c])]
            cols[m - 1 - c] = [
                q_add(e, q_mul(-k, f)) for e, f in zip(cols[m - 1 - c], cols[m - 1 - d])
            ]
    rows = [[cols[c][r] for c in range(m)] for r in range(m)]
    if draw(st.booleans()):
        r, c = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        rows[r][c] = draw(_alphabet)
    return tuple(map(tuple, rows))


class TestFormCheck:
    """``_form_holds`` gives the reference's verdict, on the table and on
    random matrices, read as ``_scaled`` reads them."""

    @pytest.mark.parametrize(
        "rows, holds",
        [
            ((), True),
            (((ONE,),), True),
            (((-ONE,),), True),
            (((ONE, ZERO), (ZERO, ONE)), True),
            (((ZERO, ONE, ZERO, ZERO), (ONE, ZERO, ZERO, ZERO),
              (ZERO, ZERO, ZERO, ONE), (ZERO, ZERO, ONE, ZERO)), True),
            (((INV_SQRT2, INV_SQRT2), (INV_SQRT2, -INV_SQRT2)), False),
            (((QSqrt2(2), ZERO), (ZERO, QSqrt2(Fraction(1, 2)))), True),
            # the antidiagonal is L^2 times some unit other than 1
            (((QSqrt2(2), ZERO), (ZERO, QSqrt2(Fraction(1, 3)))), False),
            # only defect: the antidiagonal entries are 1 + sqrt(2)
            (((QSqrt2(1, 1), ZERO), (ZERO, ONE)), False),
            # only defect: entry (1, 1) is 2, off the antidiagonal
            (((ONE, ZERO), (ONE, ONE)), False),
            # only defect: entry (1, 1) is 2 sqrt(2), off the antidiagonal
            (((ONE, ZERO), (SQRT2, ONE)), False),
            # a zero column: the antidiagonal entry is touched by no product
            (((ONE, ZERO), (ZERO, ZERO)), False),
            (((ONE, ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)), True),
            (((ZERO, ZERO, ONE), (ZERO, -ONE, ZERO), (ONE, ZERO, ZERO)), True),
            # only defect: the centre entry, on both diagonals, is 2
            (((ONE, ZERO, ZERO), (ZERO, SQRT2, ZERO), (ZERO, ZERO, ONE)), False),
            # only defect: the centre entry is touched by no product
            (((ONE, ZERO, ZERO), (ZERO, ZERO, ZERO), (ZERO, ZERO, ONE)), False),
            # only defect: the antidiagonal's corners (1, 3) and (3, 1) are 2
            (((QSqrt2(2), ZERO, ZERO), (ZERO, ONE, ZERO), (ZERO, ZERO, ONE)), False),
            # only defect: entry (2, 2) is 2 sqrt(2), formed across rows 2 and 3
            (((ONE, ZERO, ZERO, ZERO), (ZERO, ONE, ZERO, ZERO),
              (ZERO, SQRT2, ONE, ZERO), (ZERO, ZERO, ZERO, ONE)), False),
            # entry (2, 2) takes 2 * 2 from rows 1 and 4 and 2 * -2 from rows
            # 2 and 3, which cancel
            (((QSqrt2(2), QSqrt2(2), -ONE, ONE), (ZERO, QSqrt2(2), ZERO, ONE),
              (-ONE, -ONE, ONE, -ONE), (ZERO, ONE, ZERO, ONE)), True),
            # entry (1, 1) is 2 * -1/2 from rows 1 and 3 plus 1 from the centre
            # row, and (2, 2), on the antidiagonal, 2 * 1/2 from rows 1 and 3
            (((ONE, ONE, QSqrt2(Fraction(-1, 2))), (ONE, ZERO, QSqrt2(Fraction(1, 2))),
              (QSqrt2(Fraction(-1, 2)), QSqrt2(Fraction(1, 2)), QSqrt2(Fraction(1, 4)))), True),
        ],
        ids=[
            "empty",
            "one",
            "minus-one",
            "identity",
            "antidiagonal-4",
            "hadamard",
            "scale-squared",
            "scale-not-squared",
            "sqrt2-on-antidiagonal",
            "rational-off-antidiagonal",
            "sqrt2-off-antidiagonal",
            "antidiagonal-untouched",
            "identity-3",
            "antidiagonal-3",
            "centre-defect-3",
            "centre-untouched-3",
            "corner-defect-3",
            "diagonal-across-a-row-pair-4",
            "two-row-pairs-cancel-on-the-diagonal-4",
            "centre-and-a-row-pair-on-the-diagonal-3",
        ],
    )
    def test_table(self, rows, holds):
        scaled = _scaled(rows)
        assert _form_holds(scaled) is holds
        assert reference_form_holds(scaled) is holds

    @settings(deadline=None)
    @given(perturbed_representatives())
    def test_perturbed_representatives(self, matrix):
        scaled = _scaled(matrix.rows)
        assert _form_holds(scaled) == reference_form_holds(scaled)

    @settings(deadline=None)
    @given(dense_matrices().filter(lambda rows: len(rows) == len(rows[0])))
    def test_square_dense_matrices(self, rows):
        scaled = _scaled(rows)
        assert _form_holds(scaled) == reference_form_holds(scaled)

    @settings(deadline=None)
    @given(near_isometries())
    @example(rows=((ONE, ZERO, ZERO), (ZERO, SQRT2, ZERO), (ZERO, ZERO, ONE)))
    @example(rows=((ONE, ZERO), (ONE, ONE)))
    @example(rows=((ONE, ZERO, ZERO), (ZERO, ZERO, ZERO), (ZERO, ZERO, ONE)))
    def test_near_isometries(self, rows):
        scaled = _scaled(rows)
        expected = raw_form(raw(rows)) == raw_antidiagonal(len(rows))
        assert _form_holds(scaled) == reference_form_holds(scaled) == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_representatives(self, n):
        for clan in enumerate_diii(n):
            scaled = representative_matrix(clan)._form
            assert _form_holds(scaled) and reference_form_holds(scaled)


TOKENIZER_TABLE = [
    "+1212-",
    "+ 1 2 1 2 -",
    "  +1212-\n",
    "+\t1\t-\t1",
    "+\n1 2\n1 2\n-",
    "+\n1212-",
    "+\xa01\xa0-\xa01",
    "+1212−",
    "+ 1 2 1 2 −",
    "−",
    "0",
    "+0-+",
    "+ 0 - +",
    "01",
    "+ 01 - 1",
    "100",
    "+ 100 - 100",
    "+ 99 - 99",
    "²",
    "+ ² - ²",
    "٣",
    "+ ٣ - ٣",
    "1_0",
    "+ 1_0 - 1_0",
    "+1",
    "+1 - 1",
    "+ +1 - +1",
    "+x-+",
    "",
    " ",
    "\t\n\xa0",
]


class TestTokenizer:
    """``_parse_symbols`` returns the symbols, or raises the ``ClanError``,
    that the per-char and per-token tokenizer gives."""

    @pytest.mark.parametrize("text", TOKENIZER_TABLE)
    def test_table(self, text):
        assert outcome(_parse_symbols, text) == outcome(reference_parse_symbols, text)

    @settings(deadline=None)
    @given(st.text(alphabet="+-−0123456789²٣_x \t\n\xa0", max_size=12))
    def test_random_text(self, text):
        assert outcome(_parse_symbols, text) == outcome(reference_parse_symbols, text)


TWO = parse_diii("+-")
SIX = parse_diii("+1212-")


class TestFlagShape:
    """``FlagMatrix`` refuses the shapes the ``all(...)`` test refused,
    with its message."""

    @pytest.mark.parametrize(
        "clan, rows",
        [
            (TWO, ((ONE, ZERO), (ZERO, ONE))),
            (TWO, [(ONE, ZERO), (ZERO, ONE)]),
            (TWO, ((ONE,), (ZERO, ONE))),
            (TWO, ((ONE, ZERO), (ZERO, ONE, ZERO))),
            (TWO, ((ONE, ZERO), [ZERO, ONE])),
            (TWO, ((ONE, ZERO),)),
            (TWO, ((ONE, ZERO), 5)),
            (TWO, (5, (ONE, ZERO))),
            (TWO, ()),
            (TWO, 5),
            (SIX, ((ONE,) * 6,) * 5),
            (SIX, ((ONE,) * 6,) * 5 + ((ONE,) * 5,)),
            (SIX, ((ONE,) * 6,) * 6),
        ],
        ids=[
            "two-by-two",
            "rows-in-a-list",
            "ragged-row",
            "long-row",
            "row-in-a-list",
            "one-row-short",
            "int-row",
            "int-row-first",
            "no-rows",
            "rows-an-int",
            "six-one-row-short",
            "six-ragged-last-row",
            "six-by-six",
        ],
    )
    def test_message(self, clan, rows):
        assert verdict(FlagMatrix, clan, rows) == outcome(reference_flag_shape, clan, rows)
