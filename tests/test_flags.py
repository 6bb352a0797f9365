import io
import json
from dataclasses import FrozenInstanceError
from fractions import Fraction
from functools import reduce
from math import lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from diii_clans import (
    ClanError,
    FlagMatrix,
    QSqrt2,
    count_formula,
    enumerate_diii,
    intersection_dimension,
    intersection_parity,
    parse_diii,
    representative_matrix,
    verify_special_orthogonal,
    weak_order_poset,
)
from diii_clans import flags, verify
from diii_clans.flags import (
    INV_SQRT2,
    ONE,
    ZERO,
    _eliminate,
    _sparse_rank,
    _scaled,
    exact_determinant,
)
from diii_clans.verify import CheckFailed, check_flags, run_suite

from conftest import (
    block_diagonal_matrices,
    dense_matrices,
    diii_clans,
    from_columns,
    perturbed_representatives,
    q_add,
    q_mul,
    raw,
)
from oracles import (
    RAW_ONE,
    RAW_ZERO,
    _q_add,
    _q_mul,
    raw_antidiagonal,
    raw_form,
    raw_flag_data,
    raw_is_special_orthogonal,
    raw_rank_and_determinant,
    raw_stacked_intersection,
)

RAW_MINUS_ONE = (Fraction(-1), Fraction(0))
sparse_elements = st.sampled_from(
    (ZERO, ZERO, ZERO, ONE, -ONE, INV_SQRT2, QSqrt2(Fraction(1, 2)), QSqrt2(1, 1))
)
# shared objects, new objects equal to them (zeros other than ZERO among
# them) and one zero object shared apart from ZERO
shared_and_copied_elements = st.one_of(
    sparse_elements,
    sparse_elements.map(lambda e: QSqrt2(e.a, e.b)),
    st.just(QSqrt2(0)),
)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 3))
    cols = [draw(st.lists(sparse_elements, min_size=2 * n, max_size=2 * n)) for _ in range(2 * n)]
    return from_columns(parse_diii("+" * n + "-" * n), cols)


@st.composite
def shared_and_copied_rows(draw):
    nrows, ncols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    row = st.lists(shared_and_copied_elements, min_size=ncols, max_size=ncols)
    return draw(st.lists(row, min_size=nrows, max_size=nrows))


def per_entry_scaled(rows):
    """``_scaled`` read entry by entry: every zero is dropped by value and
    every other entry's fractions are read where it stands."""
    nonzero = [
        [(c, e.a.numerator, e.a.denominator, e.b.numerator, e.b.denominator)
         for c, e in enumerate(row) if e]
        for row in rows
    ]
    scale = lcm(*{d for row in nonzero for _, _, ad, _, bd in row for d in (ad, bd)})
    scaled = tuple(
        tuple((c, an * (scale // ad), bn * (scale // bd)) for c, an, ad, bn, bd in row)
        for row in nonzero
    )
    return scale, scaled


def column_built_rows(clan):
    """The representative's rows built column by column and transposed:
    basis vectors at sign positions and mixed columns on each family, with
    sigma and the families read off the raw symbols (``raw_flag_data``).
    Positions and rows here are 0-based."""
    m = 2 * clan.n
    symbols = tuple(clan.spaced().split())
    mapping, families = raw_flag_data(symbols)
    sigma = [v - 1 for v in mapping]
    cols = [None] * m

    def column(entries):
        col = [ZERO] * m
        for r, e in entries:
            col[r] = e
        return col

    for pos, symbol in enumerate(symbols):
        if symbol in "+-":
            cols[pos] = column([(sigma[pos], ONE)])
    for (i, j, jj, ii) in families:
        for p, q in ((i - 1, j - 1), (ii - 1, jj - 1)):
            cols[p] = column([(sigma[p], INV_SQRT2), (sigma[q], INV_SQRT2)])
            cols[q] = column([(sigma[p], INV_SQRT2), (sigma[q], -INV_SQRT2)])
    assert None not in cols
    return tuple(zip(*cols))


def swap_columns(rows, c):
    """``rows`` with columns c and m-1-c swapped: the form still holds
    and the determinant changes sign."""
    m = len(rows)
    swap = {c: m - 1 - c, m - 1 - c: c}
    return tuple(tuple(row[swap.get(j, j)] for j in range(m)) for row in rows)


def exact_rank(rows):
    """The rank of a matrix over Q(sqrt 2): the reference rank, by the
    package's own scaling and fraction-free elimination."""
    return _eliminate(_scaled(rows)[1], len(rows[0]) if rows else 0)[0]


def sparse_rank(rows):
    """The rank of a matrix over Q(sqrt 2) by ``_sparse_rank``."""
    return _sparse_rank(_scaled(rows)[1], len(rows[0]) if rows else 0)


def block_dimension(rows):
    """n minus the rank of the lower-left n x n block, from the rows."""
    n = len(rows) // 2
    return n - exact_rank([row[:n] for row in rows[n:]])


# pinned reference representative of +1212-: columns e1, (e3+e5)/sqrt2,
# (e2-e4)/sqrt2, (e5-e3)/sqrt2, (e2+e4)/sqrt2, e6
S = INV_SQRT2
REFERENCE_MATRIX = (
    (ONE, ZERO, ZERO, ZERO, ZERO, ZERO),
    (ZERO, ZERO, S, ZERO, S, ZERO),
    (ZERO, S, ZERO, -S, ZERO, ZERO),
    (ZERO, ZERO, -S, ZERO, S, ZERO),
    (ZERO, S, ZERO, S, ZERO, ZERO),
    (ZERO, ZERO, ZERO, ZERO, ZERO, ONE),
)


class TestQSqrt2:
    def test_inverse_of_inv_sqrt2(self):
        assert q_mul(INV_SQRT2, INV_SQRT2) == QSqrt2(Fraction(1, 2))
        assert q_mul(INV_SQRT2, QSqrt2(0, 1)) == ONE  # its inverse is sqrt(2)

    def test_str_forms(self):
        assert str(ZERO) == "0"
        assert str(QSqrt2(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4√2"
        assert str(QSqrt2(0, 1)) == "1√2"

    def test_json_fractions(self):
        assert INV_SQRT2.to_json_dict() == {"a": "0", "b": "1/2"}

    def test_coerces_to_fractions_and_keeps_given_ones(self):
        half = Fraction(1, 2)
        x = QSqrt2(half, 3)
        assert x.a is half
        assert type(x.b) is Fraction and x.b == 3
        assert QSqrt2(0.5, True) == QSqrt2(half, Fraction(1))


class TestRepresentativeMatrix:
    def test_constructor_refuses_wrong_shape(self):
        clan = parse_diii("+-")
        for rows in (
            ((ONE,), (ZERO, ONE)),
            ((ONE, ZERO),),
            ((ONE, ZERO), (ZERO, ONE), (ZERO, ZERO)),
            [(ONE, ZERO), (ZERO, ONE)],
            ((ONE, ZERO), [ZERO, ONE]),
            5,
        ):
            with pytest.raises(ClanError):
                FlagMatrix(clan, rows)
        assert len(FlagMatrix(clan, ((ONE, ZERO), (ZERO, ONE))).rows) == 2

    def test_reference_6x6_entry_for_entry(self):
        matrix = representative_matrix(parse_diii("+1212-"))
        assert matrix.rows == REFERENCE_MATRIX

    def test_matchless_gives_permutation_matrix(self):
        clan = parse_diii("++--")
        matrix = representative_matrix(clan)
        sigma = clan._default_mapping()
        for c, col in enumerate(zip(*matrix.rows), start=1):
            assert col[sigma[c - 1] - 1] == ONE
            assert sum(1 for e in col if e) == 1

    def test_identity_clan(self):
        assert representative_matrix(parse_diii("+-")).rows == ((ONE, ZERO), (ZERO, ONE))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_entry_alphabet_and_column_norms(self, n):
        allowed = {ZERO, ONE, -ONE, INV_SQRT2, -INV_SQRT2}
        for clan in enumerate_diii(n):
            matrix = representative_matrix(clan)
            for row in matrix.rows:
                assert set(row) <= allowed
            for col in zip(*raw(matrix.rows)):
                assert reduce(_q_add, (_q_mul(e, e) for e in col), RAW_ZERO) == RAW_ONE

    @pytest.mark.parametrize("n", range(1, 6))
    def test_distinct_clans_distinct_matrices(self, n):
        seen = {representative_matrix(c).rows for c in enumerate_diii(n)}
        assert len(seen) == count_formula(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_column_built_construction(self, n):
        for clan in enumerate_diii(n):
            assert representative_matrix(clan).rows == column_built_rows(clan)


class TestSpecialOrthogonality:
    def test_reference_matrix_verifies(self):
        matrix = FlagMatrix(parse_diii("+1212-"), REFERENCE_MATRIX)
        assert verify_special_orthogonal(matrix)

    def test_column_swap_breaks_it(self):
        # swapping columns c and m-1-c keeps G^T J G = J; the determinant is -1
        for n in range(1, 5):
            m = 2 * n
            for clan in enumerate_diii(n):
                for c in range(n):
                    rows = [list(r) for r in representative_matrix(clan).rows]
                    for r in rows:
                        r[c], r[m - 1 - c] = r[m - 1 - c], r[c]
                    assert raw_form(raw(rows)) == raw_antidiagonal(m)
                    assert raw_rank_and_determinant(raw(rows))[1] == RAW_MINUS_ONE
                    swapped = FlagMatrix(clan, tuple(tuple(r) for r in rows))
                    assert not verify_special_orthogonal(swapped)

    def test_odd_size_is_refused(self):
        # [[1]] and [[-1]] satisfy the form for J = [[1]], the empty matrix
        # and the 2 x 2 identity satisfy it for their sizes, but a flag
        # matrix is 2n x 2n for its clan
        identity = ((ONE, ZERO), (ZERO, ONE))
        for clan, rows in (
            ("+-", ((ONE,),)),
            ("+-", ((-ONE,),)),
            ("+-", ()),
            ("+1212-", identity),
        ):
            with pytest.raises(ClanError):
                FlagMatrix(parse_diii(clan), rows)

    def test_form_is_compared_with_scale_squared(self):
        # entries 2 and 1/2 scale by L = 2 to 4 and 1, whose product is L^2;
        # 2 and 1/3 scale by L = 3 to 6 and 1, whose product is not
        half = ((QSqrt2(2), ZERO), (ZERO, QSqrt2(Fraction(1, 2))))
        third = ((QSqrt2(2), ZERO), (ZERO, QSqrt2(Fraction(1, 3))))
        assert verify_special_orthogonal(FlagMatrix(parse_diii("+-"), half))
        assert not verify_special_orthogonal(FlagMatrix(parse_diii("+-"), third))

    def test_det_one_shear_fails_the_form(self):
        rows = ((ONE, ONE), (ZERO, ONE))
        assert exact_determinant(rows) == ONE
        assert not verify_special_orthogonal(FlagMatrix(parse_diii("+-"), rows))

    def test_column_added_to_another_fails_the_form(self):
        rows = [list(r) for r in REFERENCE_MATRIX]
        for r in rows:
            r[1] = q_add(r[1], r[0])
        assert exact_determinant(rows) == ONE
        added = FlagMatrix(parse_diii("+1212-"), tuple(tuple(r) for r in rows))
        assert not verify_special_orthogonal(added)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_dense_oracle_on_representatives(self, n):
        for clan in enumerate_diii(n):
            matrix = representative_matrix(clan)
            assert raw_is_special_orthogonal(raw(matrix.rows))
            assert verify_special_orthogonal(matrix)

    @settings(deadline=None)
    @given(perturbed_representatives())
    def test_matches_dense_oracle_on_perturbations(self, matrix):
        expected = raw_is_special_orthogonal(raw(matrix.rows))
        assert verify_special_orthogonal(matrix) == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_representative_is_special_orthogonal(self, n):
        for clan in enumerate_diii(n):
            assert verify_special_orthogonal(representative_matrix(clan))

    @settings(max_examples=25, deadline=None)
    @given(diii_clans(min_n=6, max_n=10))
    def test_special_orthogonal_property_beyond_exhaustive_sizes(self, clan):
        matrix = representative_matrix(clan)
        assert verify_special_orthogonal(matrix)
        assert intersection_parity(matrix) == clan.n % 2


class TestIntersection:
    def test_reference_matrix_dimension(self):
        matrix = FlagMatrix(parse_diii("+1212-"), REFERENCE_MATRIX)
        assert intersection_dimension(matrix) == 1
        assert intersection_parity(matrix) == 1

    def test_all_plus_first_half(self):
        clan = parse_diii("++++----")
        matrix = representative_matrix(clan)
        assert intersection_dimension(matrix) == 4

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_stacked_rank_oracle_on_representatives(self, n):
        for clan in enumerate_diii(n):
            matrix = representative_matrix(clan)
            assert intersection_dimension(matrix) == raw_stacked_intersection(raw(matrix.rows))

    @settings(deadline=None)
    @given(square_matrices())
    def test_matches_stacked_rank_oracle_on_square_matrices(self, matrix):
        assert intersection_dimension(matrix) == raw_stacked_intersection(raw(matrix.rows))

    def test_wrong_shape_raises(self):
        identity = ((ONE, ZERO), (ZERO, ONE))
        ragged = ((ONE,), (ZERO, ONE))
        for clan, rows in (("+1212-", identity), ("+-", ((ONE,),)), ("+-", ragged)):
            with pytest.raises(ClanError):
                FlagMatrix(parse_diii(clan), rows)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_matches_block_rank_on_representatives(self, n):
        for clan in enumerate_diii(n):
            matrix = representative_matrix(clan)
            assert intersection_dimension(matrix) == block_dimension(matrix.rows)

    @settings(deadline=None)
    @given(perturbed_representatives())
    def test_matches_block_rank_on_perturbations(self, matrix):
        expected = block_dimension(matrix.rows)
        assert intersection_dimension(matrix) == expected
        verify_special_orthogonal(matrix)
        assert intersection_dimension(matrix) == expected

    @pytest.mark.parametrize("n", range(1, 6))
    def test_parity_matches_half_length(self, n):
        for clan in enumerate_diii(n):
            assert intersection_parity(representative_matrix(clan)) == n % 2


class TestExactLinearAlgebra:
    def test_determinant_of_diagonal(self):
        rows = [
            [QSqrt2(2) if r == c else ZERO for c in range(3)] for r in range(3)
        ]
        assert exact_determinant(rows) == QSqrt2(8)

    def test_determinant_swap_sign(self):
        rows = [[ZERO, ONE], [ONE, ZERO]]
        assert exact_determinant(rows) == -ONE

    def test_determinant_of_singular_matrix(self):
        rows = [[ONE, INV_SQRT2, ZERO], [ONE, INV_SQRT2, ONE], [ZERO, ZERO, ONE]]
        assert exact_determinant(rows) == ZERO
        assert exact_rank(rows) == 2

    def test_rank_of_dependent_rows(self):
        rows = [[ONE, ONE], [ONE, ONE], [ZERO, INV_SQRT2]]
        assert exact_rank(rows) == 2

    @pytest.mark.parametrize(
        "diagonal",
        ((-ONE, ONE, ONE), (ONE, -ONE, -ONE), (QSqrt2(1, 1), -ONE, QSqrt2(-1, 1))),
    )
    def test_determinant_with_unit_pivots(self, diagonal):
        # units of norm 1 and -1 are pivots the next step must still divide by
        rows = [[e if r == c else ZERO for c, e in enumerate(diagonal)] for r in range(3)]
        assert exact_determinant(rows) == reduce(q_mul, diagonal)

    def test_determinant_needs_a_square_matrix(self):
        with pytest.raises(ValueError):
            exact_determinant([[ONE, ZERO]])

    @settings(deadline=None)
    @given(dense_matrices())
    def test_matches_dense_oracle(self, rows):
        rank, det = raw_rank_and_determinant(raw(rows))
        assert exact_rank(rows) == rank
        assert sparse_rank(rows) == rank
        if len(rows) == len(rows[0]):
            assert exact_determinant(rows) == QSqrt2(*det)


class TestPieceRank:
    """``_sparse_rank`` must equal whole-matrix elimination (``exact_rank``):
    a row count when no two rows share a column, elimination otherwise.
    ``TestIntersection`` compares them on every representative block with
    n <= 7 and on perturbed representatives, ``TestExactLinearAlgebra`` on
    dense matrices. Of the small matrices below, the first two have rows
    sharing a column, so they are eliminated, and the third has empty rows,
    which count nothing."""

    @settings(deadline=None)
    @given(block_diagonal_matrices())
    @example(rows=[[ONE, ZERO], [ZERO, ONE], [ONE, ONE]])
    @example(rows=[[ZERO, ONE], [ZERO, INV_SQRT2], [ZERO, QSqrt2(3)]])
    def test_matches_elimination_on_block_diagonal_matrices(self, rows):
        assert sparse_rank(rows) == exact_rank(rows)

    def test_a_later_row_merges_two_pieces(self):
        # e1, e2, then e1 + e2: the last row shares a column with each of
        # the first two and depends on them
        rows = [[ONE, ZERO], [ZERO, ONE], [ONE, ONE]]
        assert sparse_rank(rows) == exact_rank(rows) == 2

    def test_a_one_column_piece_has_rank_one(self):
        rows = [[ZERO, ONE], [ZERO, INV_SQRT2], [ZERO, QSqrt2(3)]]
        assert sparse_rank(rows) == exact_rank(rows) == 1

    def test_empty_rows_belong_to_no_piece(self):
        rows = [[ZERO, ZERO], [ZERO, ONE], [ZERO, ZERO]]
        assert sparse_rank(rows) == exact_rank(rows) == 1
        assert sparse_rank([[ZERO, ZERO]]) == 0

    def test_shared_columns_send_rows_past_ncols_to_elimination(self, monkeypatch):
        # read in the first two columns, rows 1 and 2 share column 1 and rows
        # 2 and 4 column 2, so the rows are eliminated; rows 1, 3 and 4 reach
        # past those columns, and row 3 has no entry among them
        rows = [[ONE, ZERO, ONE], [INV_SQRT2, ONE, ZERO], [ZERO, ZERO, QSqrt2(0, 1)], [ZERO, ONE, ONE]]
        calls = []
        eliminate = flags._eliminate
        monkeypatch.setattr(
            flags, "_eliminate", lambda *args: calls.append(args) or eliminate(*args)
        )
        assert _sparse_rank(_scaled(rows)[1], 2) == exact_rank([row[:2] for row in rows]) == 2
        [(kept, ncols)] = calls
        # elimination reads only the entries within the columns, and no empty row
        assert ncols == 2 and [[c for c, _, _ in row] for row in kept] == [[0], [0, 1], [1]]

    @settings(max_examples=50, deadline=None)
    @given(diii_clans(min_n=8, max_n=16))
    def test_a_representative_block_has_one_row_pieces_beyond_exhaustive_sizes(self, clan):
        # no column of the block is touched by two rows
        n = clan.n
        rows = representative_matrix(clan)._form[1][n:]
        touched = [c for row in rows for c, _, _ in row if c < n]
        assert len(touched) == len(set(touched))

    def test_verifying_a_representative_eliminates_nothing(self, monkeypatch):
        calls = []
        eliminate = flags._eliminate
        monkeypatch.setattr(
            flags, "_eliminate", lambda *args: calls.append(args) or eliminate(*args)
        )
        for n in range(1, 8):
            for clan in enumerate_diii(n):
                matrix = representative_matrix(clan)
                assert verify_special_orthogonal(matrix)
                assert intersection_parity(matrix) == n % 2
        assert calls == []
        entries = (ONE, INV_SQRT2, QSqrt2(2), QSqrt2(1, 1))
        dense = FlagMatrix(parse_diii("++--"), tuple(entries[r:] + entries[:r] for r in range(4)))
        assert intersection_dimension(dense) == 0
        assert len(calls) == 1


class TestScaled:
    @settings(deadline=None)
    @given(dense_matrices())
    def test_matches_per_entry_reading_on_dense_matrices(self, rows):
        assert _scaled(rows) == per_entry_scaled(rows)

    @settings(deadline=None)
    @given(square_matrices())
    def test_matches_per_entry_reading_on_square_matrices(self, matrix):
        assert _scaled(matrix.rows) == per_entry_scaled(matrix.rows)

    @settings(deadline=None)
    @given(shared_and_copied_rows())
    def test_matches_per_entry_reading_on_shared_and_copied_entries(self, rows):
        assert _scaled(rows) == per_entry_scaled(rows)

    def test_entries_made_on_demand(self):
        # rows that build a new entry on every read: no id may be reused
        # for an entry of another value within one call
        class Row:
            def __init__(self, values):
                self.values = values

            def __iter__(self):
                return (QSqrt2(Fraction(1, v)) if v else QSqrt2() for v in self.values)

        values = [[1, 0, 2], [3, 0, 0], [0, 5, 7]]
        rows = [Row(r) for r in values]
        expected = [[QSqrt2(Fraction(1, v)) if v else ZERO for v in r] for r in values]
        assert _scaled(rows) == per_entry_scaled(expected)


def dense_pretty(matrix):
    """``flag``'s pretty text from the dense rows: every entry's text,
    right-justified to the widest of them."""
    cells = [[flags._PRETTY.get(e, str(e)) for e in row] for row in matrix.rows]
    width = max(len(text) for row in cells for text in row)
    return "".join("[ " + "  ".join(text.rjust(width) for text in row) + " ]\n" for row in cells)


def dense_json(matrix):
    """``flag --format json``'s text from the dense rows, by one ``json.dumps``."""
    entries = [[e.to_json_dict() for e in row] for row in matrix.rows]
    return json.dumps({"n": matrix.clan.n, "clan": matrix.clan.spaced(), "entries": entries}) + "\n"


def written(write):
    out = io.StringIO()
    write(out)
    return out.getvalue()


class TestWriters:
    """``write_pretty`` and ``write_json`` stream a row at a time what the
    dense rows give."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_representatives(self, n):
        for clan in enumerate_diii(n):
            matrix = representative_matrix(clan)
            assert written(matrix.write_pretty) == dense_pretty(matrix)
            assert written(matrix.write_json) == dense_json(matrix)

    @given(square_matrices())
    def test_any_matrix(self, matrix):
        assert written(matrix.write_pretty) == dense_pretty(matrix)
        assert written(matrix.write_json) == dense_json(matrix)

    def test_all_zero_and_zero_free_matrices(self):
        clan = parse_diii("+-")
        for cols in ([[ZERO, ZERO], [ZERO, ZERO]], [[QSqrt2(1, 1), -ONE], [INV_SQRT2, QSqrt2(Fraction(1, 2))]]):
            matrix = from_columns(clan, cols)
            assert written(matrix.write_pretty) == dense_pretty(matrix)
            assert written(matrix.write_json) == dense_json(matrix)


class TestEntryTypes:
    @pytest.mark.parametrize("kind", (int, float, Fraction))
    def test_entries_of_another_type_are_clan_errors(self, kind):
        clan = parse_diii("+-")
        for rows in (
            ((kind(0), kind(1)), (kind(1), kind(0))),
            ((ONE, ZERO), (ZERO, kind(1))),
            ((ONE, ZERO), (kind(0), ONE)),
        ):
            with pytest.raises(ClanError, match=f"QSqrt2, not {kind.__name__}$"):
                FlagMatrix(clan, rows)


class TestIntegerForm:
    """A matrix's integer form and intersection dimension are set when it
    is built, from its own rows, and the frozen matrix keeps them."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_column_swap_after_verifying(self, n):
        for clan in enumerate_diii(n):
            matrix = representative_matrix(clan)
            assert verify_special_orthogonal(matrix)
            assert intersection_parity(matrix) == n % 2
            for c in range(n):
                rows = swap_columns(matrix.rows, c)
                swapped = FlagMatrix(clan, rows)
                assert not verify_special_orthogonal(swapped)
                assert intersection_dimension(swapped) == block_dimension(rows)
                assert intersection_parity(swapped) != n % 2
            assert verify_special_orthogonal(matrix)

    def test_wrong_shape_after_verifying(self):
        # a built matrix is frozen, so no rows of another shape reach it
        matrix = representative_matrix(parse_diii("+1212-"))
        assert verify_special_orthogonal(matrix)
        for rows in (((ONE, ZERO), (ZERO, ONE)), REFERENCE_MATRIX[:4], ((ONE,),) * 6):
            with pytest.raises(FrozenInstanceError):
                matrix.rows = rows
            with pytest.raises(ClanError):
                FlagMatrix(matrix.clan, rows)
        assert matrix.rows == REFERENCE_MATRIX
        assert intersection_dimension(matrix) == 1

    def test_form_is_kept_for_its_own_rows_and_clan(self):
        for clan, rows in (
            (parse_diii("+1212-"), REFERENCE_MATRIX),
            (parse_diii("+-"), ((ONE, ONE), (ZERO, ONE))),
            (parse_diii("+-"), ((QSqrt2(2), ZERO), (ZERO, QSqrt2(Fraction(1, 3))))),
        ):
            matrix = FlagMatrix(clan, rows)
            assert matrix._form == _scaled(rows)
            assert intersection_dimension(matrix) == block_dimension(rows)
        representative = representative_matrix(parse_diii("+1212-"))
        assert representative._form == FlagMatrix(representative.clan, REFERENCE_MATRIX)._form

    def test_shape_is_read_once_per_form(self, monkeypatch):
        # the shape test and the scaling run once, in the constructor: a
        # representative skips both, and no check repeats either
        calls = []
        post_init, scaled = FlagMatrix.__post_init__, flags._scaled
        monkeypatch.setattr(
            FlagMatrix,
            "__post_init__",
            lambda self, rows: calls.append("shape") or post_init(self, rows),
        )
        monkeypatch.setattr(flags, "_scaled", lambda rows: calls.append("scaled") or scaled(rows))
        matrix = representative_matrix(parse_diii("+1212-"))
        built = FlagMatrix(matrix.clan, matrix.rows)
        assert calls == ["shape", "scaled"]
        for _ in range(2):
            for m in (matrix, built):
                assert verify_special_orthogonal(m)
                assert intersection_parity(m) == 1
        assert calls == ["shape", "scaled"]

    def test_equality_and_hash_read_the_clan_and_form(self):
        clan = parse_diii("+1212-")
        used = representative_matrix(clan)
        fresh = FlagMatrix(clan, representative_matrix(clan).rows)
        assert verify_special_orthogonal(used)
        assert intersection_parity(used) == 1
        assert used._form is not fresh._form
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert "_form" not in repr(used) and "_dimension" not in repr(used)
        # the same rows for another clan, or other rows for the same clan
        other = FlagMatrix(parse_diii("+++---"), REFERENCE_MATRIX)
        assert other._form == used._form and other != used
        assert FlagMatrix(clan, swap_columns(REFERENCE_MATRIX, 0)) != used


def raw_seeded_form(clan):
    """The integer form of the representative, built column by column from
    the raw symbols (``raw_flag_data``): L is 2 when there is a family and 1
    otherwise, a sign column holds (L, 0) in row sigma(p), and a family's
    columns p, q hold (0, 1) in row sigma(p) and (0, 1), (0, -1) in row
    sigma(q). Positions and rows here are 0-based."""
    m = 2 * clan.n
    symbols = tuple(clan.spaced().split())
    mapping, families = raw_flag_data(symbols)
    sigma = [v - 1 for v in mapping]
    scale = 2 if families else 1
    rows = [[] for _ in range(m)]
    for pos, symbol in enumerate(symbols):
        if symbol in "+-":
            rows[sigma[pos]].append((pos, scale, 0))
    for (i, j, jj, ii) in families:
        for p, q in ((i - 1, j - 1), (ii - 1, jj - 1)):
            rows[sigma[p]] += [(p, 0, 1), (q, 0, 1)]
            rows[sigma[q]] += [(p, 0, 1), (q, 0, -1)]
    return scale, tuple(tuple(sorted(row)) for row in rows)


class TestSeededForm:
    """``representative_matrix`` writes the integer form alone: it must be
    the form built apart from the raw symbols, and the rows it renders
    must scale back to it."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_the_raw_form(self, n):
        for clan in enumerate_diii(n):
            assert representative_matrix(clan)._form == raw_seeded_form(clan)

    @settings(max_examples=50, deadline=None)
    @given(diii_clans(min_n=8, max_n=16))
    def test_equals_the_raw_form_beyond_exhaustive_sizes(self, clan):
        assert representative_matrix(clan)._form == raw_seeded_form(clan)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_equals_the_scaled_rows(self, n):
        for clan in enumerate_diii(n):
            matrix = representative_matrix(clan)
            assert matrix._form == _scaled(matrix.rows)
            assert intersection_dimension(matrix) == block_dimension(matrix.rows)

    @settings(max_examples=50, deadline=None)
    @given(diii_clans(min_n=8, max_n=16))
    def test_equals_the_scaled_rows_beyond_exhaustive_sizes(self, clan):
        matrix = representative_matrix(clan)
        assert matrix._form == _scaled(matrix.rows)

    def test_rendered_rows_share_the_named_entries(self):
        rows = representative_matrix(parse_diii("+1212-")).rows
        assert rows == REFERENCE_MATRIX
        named = {id(e) for e in (ZERO, ONE, INV_SQRT2, flags._NEG_INV_SQRT2)}
        assert all(id(e) in named for row in rows for e in row)

    def test_a_representative_is_read_by_no_one(self, monkeypatch):
        # building and verifying a representative reads only its form: no
        # QSqrt2 is made and nothing is scaled; its rows build it again
        calls = []
        init, scaled = QSqrt2.__init__, flags._scaled
        monkeypatch.setattr(
            QSqrt2, "__init__", lambda self, *args: calls.append("QSqrt2") or init(self, *args)
        )
        monkeypatch.setattr(flags, "_scaled", lambda rows: calls.append("_scaled") or scaled(rows))
        for clan in (clan for n in range(1, 6) for clan in enumerate_diii(n)):
            matrix = representative_matrix(clan)
            assert verify_special_orthogonal(matrix)
            assert intersection_parity(matrix) == clan.n % 2
            assert calls == []
            built = FlagMatrix(clan, matrix.rows)
            assert built == matrix and hash(built) == hash(matrix)
            assert verify_special_orthogonal(built)
            assert intersection_parity(built) == clan.n % 2
            assert "QSqrt2" in calls and calls.count("_scaled") == 1
            calls.clear()


def test_check_flags_runs_to_seven(monkeypatch):
    # the other checks replaced, by module attribute, with ones that pass
    for name in verify.CHECK_NAMES:
        if name != "flags":
            monkeypatch.setattr(verify, "check_" + name.replace("-", "_"), lambda n, poset: None)
    ran = []

    def counted(n, poset):
        ran.append(n)
        check_flags(n, poset)

    monkeypatch.setattr(verify, "check_flags", counted)
    result = next(r for r in run_suite(8) if r.name == "flags")
    assert result.passed
    assert result.detail == "exact SO and parity for n<= 7"
    assert ran == [1, 2, 3, 4, 5, 6, 7]


@pytest.mark.parametrize("wrong", ("another clan's form",))
def test_check_flags_refuses_a_wrong_seeded_form(monkeypatch, wrong):
    posets = tuple(weak_order_poset(n) for n in range(1, 4))
    first, last = posets[2].nodes[0], posets[2].nodes[-1]
    build = flags.representative_matrix

    def seeded_wrong(clan):
        matrix = build(clan)
        if clan == first:
            matrix = FlagMatrix._from_form(clan, build(last)._form)
        return matrix

    # the wrong form passes the SO check and the parity on its own
    assert verify_special_orthogonal(seeded_wrong(first))
    assert intersection_parity(seeded_wrong(first)) == 1
    monkeypatch.setattr(flags, "representative_matrix", seeded_wrong)
    for n, poset in enumerate(posets[:2], start=1):
        check_flags(n, poset)
    with pytest.raises(CheckFailed) as failed:
        check_flags(3, posets[2])
    assert str(failed.value) == "n=3: matrices not distinct"
