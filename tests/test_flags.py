from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
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
from diii_clans.flags import (
    INV_SQRT2,
    ONE,
    ZERO,
    _integer_form,
    _scaled,
    exact_determinant,
    exact_rank,
)
from diii_clans.verify import check_flags

from conftest import diii_clans
from oracles import (
    raw_antidiagonal,
    raw_form,
    raw_is_special_orthogonal,
    raw_rank_and_determinant,
    raw_stacked_intersection,
)

RAW_MINUS_ONE = (Fraction(-1), Fraction(0))
rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
elements = st.builds(QSqrt2, rationals, rationals)
small_fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))
irrational_elements = st.builds(QSqrt2, small_fractions, small_fractions.filter(bool))
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


def raw(rows):
    """Entries as (a, b) Fraction pairs, for the oracles."""
    return [[(e.a, e.b) for e in row] for row in rows]


def around_constructor(clan, rows):
    """A FlagMatrix holding ``rows`` of any shape, set past the
    constructor's shape check."""
    matrix = representative_matrix(clan)
    object.__setattr__(matrix, "rows", rows)
    return matrix


def from_columns(clan, cols):
    m = len(cols)
    return FlagMatrix(clan, tuple(tuple(col[r] for col in cols) for r in range(m)))


@st.composite
def perturbed_representatives(draw):
    """A representative with n <= 4 after one to three column operations:
    swap two columns, negate one, or add one column to another."""
    clan = draw(diii_clans(max_n=4))
    m = 2 * clan.n
    matrix = representative_matrix(clan)
    cols = [list(matrix.column(c)) for c in range(1, m + 1)]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("swap", "negate", "add")))
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if op == "swap":
            cols[i], cols[j] = cols[j], cols[i]
        elif op == "negate":
            cols[i] = [-e for e in cols[i]]
        else:
            cols[j] = [e + f for e, f in zip(cols[j], cols[i])]
    return from_columns(clan, cols)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 3))
    cols = [draw(st.lists(sparse_elements, min_size=2 * n, max_size=2 * n)) for _ in range(2 * n)]
    return from_columns(parse_diii("+" * n + "-" * n), cols)


@st.composite
def dense_matrices(draw):
    """1-6 rows of 1-6 entries a + b*sqrt(2), b != 0, square half the time.
    In about half of those with two or more rows, one row, placed anywhere,
    is a combination of the others."""
    nrows = draw(st.integers(1, 6))
    ncols = nrows if draw(st.booleans()) else draw(st.integers(1, 6))
    row = st.lists(irrational_elements, min_size=ncols, max_size=ncols)
    dependent = nrows > 1 and draw(st.booleans())
    rows = draw(st.lists(row, min_size=nrows - dependent, max_size=nrows - dependent))
    if dependent:
        coefficient = irrational_elements | st.just(ZERO)
        coeffs = draw(st.lists(coefficient, min_size=len(rows), max_size=len(rows)))
        combination = [sum((k * r[c] for k, r in zip(coeffs, rows)), ZERO) for c in range(ncols)]
        rows.insert(draw(st.integers(0, len(rows))), combination)
    return rows


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
    basis vectors at sign positions and mixed columns on each family."""
    m = 2 * clan.n
    sigma = clan.default_permutation()
    cols = [None] * m

    def column(entries):
        col = [ZERO] * m
        for r, e in entries:
            col[r - 1] = e
        return col

    for pos, symbol in enumerate(clan.spaced().split(), start=1):
        if symbol in "+-":
            cols[pos - 1] = column([(sigma(pos), ONE)])
    for (i, j, jj, ii) in clan.classify_pairs().families:
        for p, q in ((i, j), (ii, jj)):
            cols[p - 1] = column([(sigma(p), INV_SQRT2), (sigma(q), INV_SQRT2)])
            cols[q - 1] = column([(sigma(p), INV_SQRT2), (sigma(q), -INV_SQRT2)])
    assert None not in cols
    return tuple(zip(*cols))


def swap_columns(rows, c):
    """``rows`` with columns c and m-1-c swapped: the form still holds
    and the determinant changes sign."""
    m = len(rows)
    swap = {c: m - 1 - c, m - 1 - c: c}
    return tuple(tuple(row[swap.get(j, j)] for j in range(m)) for row in rows)


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
        assert INV_SQRT2 * INV_SQRT2 == QSqrt2(Fraction(1, 2))
        assert INV_SQRT2.inverse() == QSqrt2(0, 1)  # sqrt(2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    def test_str_forms(self):
        assert str(ZERO) == "0"
        assert str(QSqrt2(Fraction(1, 2), Fraction(-3, 4))) == "1/2-3/4√2"
        assert str(QSqrt2(0, 1)) == "1√2"

    def test_json_fractions(self):
        assert INV_SQRT2.to_json_dict() == {"a": "0", "b": "1/2"}

    @given(elements, elements, elements)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x

    @given(elements)
    def test_multiplicative_inverse(self, x):
        if x:
            assert x * x.inverse() == ONE
        else:
            with pytest.raises(ZeroDivisionError):
                x.inverse()

    @given(elements, elements)
    def test_subtraction_and_division(self, x, y):
        assert (x - y) + y == x
        if y:
            assert (x / y) * y == x

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
        assert FlagMatrix(clan, ((ONE, ZERO), (ZERO, ONE))).size == 2

    def test_reference_6x6_entry_for_entry(self):
        matrix = representative_matrix(parse_diii("+1212-"))
        assert matrix.rows == REFERENCE_MATRIX

    def test_matchless_gives_permutation_matrix(self):
        clan = parse_diii("++--")
        matrix = representative_matrix(clan)
        sigma = clan.default_permutation()
        for c in range(1, 5):
            col = matrix.column(c)
            assert col[sigma(c) - 1] == ONE
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
            for c in range(1, 2 * n + 1):
                col = matrix.column(c)
                assert sum((e * e for e in col), ZERO) == ONE

    @pytest.mark.parametrize("n", range(1, 6))
    def test_distinct_clans_distinct_matrices(self, n):
        seen = {representative_matrix(c).rows for c in enumerate_diii(n)}
        assert len(seen) == count_formula(n)

    @pytest.mark.parametrize("n", range(1, 7))
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
            assert not verify_special_orthogonal(around_constructor(parse_diii(clan), rows))

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
            r[1] = r[1] + r[0]
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
            matrix = around_constructor(parse_diii(clan), rows)
            with pytest.raises(ClanError):
                intersection_dimension(matrix)
            with pytest.raises(ClanError):
                intersection_parity(matrix)

    @pytest.mark.parametrize("n", range(1, 7))
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
        assert exact_determinant(rows) == diagonal[0] * diagonal[1] * diagonal[2]

    def test_determinant_needs_a_square_matrix(self):
        with pytest.raises(ValueError):
            exact_determinant([[ONE, ZERO]])

    @settings(deadline=None)
    @given(dense_matrices())
    def test_matches_dense_oracle(self, rows):
        rank, det = raw_rank_and_determinant(raw(rows))
        assert exact_rank(rows) == rank
        if len(rows) == len(rows[0]):
            assert exact_determinant(rows) == QSqrt2(*det)


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


class TestEntryTypes:
    @pytest.mark.parametrize("kind", (int, float, Fraction))
    def test_entries_of_another_type_are_clan_errors(self, kind):
        clan = parse_diii("+-")
        swap = FlagMatrix(clan, ((kind(0), kind(1)), (kind(1), kind(0))))
        one_entry = FlagMatrix(clan, ((ONE, ZERO), (ZERO, kind(1))))
        zero_entry = FlagMatrix(clan, ((ONE, ZERO), (kind(0), ONE)))
        for matrix in (swap, one_entry, zero_entry):
            for check in (verify_special_orthogonal, intersection_dimension, intersection_parity):
                with pytest.raises(ClanError, match=f"QSqrt2, not {kind.__name__}$"):
                    check(matrix)


class TestIntegerForm:
    """The integer form a check reads off a matrix is reused only while
    the matrix holds the row tuples and the clan it was read from."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_column_swap_after_verifying(self, n):
        for clan in enumerate_diii(n):
            matrix = representative_matrix(clan)
            original = matrix.rows
            assert verify_special_orthogonal(matrix)
            assert intersection_parity(matrix) == n % 2
            for c in range(n):
                rows = swap_columns(original, c)
                object.__setattr__(matrix, "rows", rows)
                assert not verify_special_orthogonal(matrix)
                assert intersection_dimension(matrix) == block_dimension(rows)
                assert intersection_parity(matrix) != n % 2
            object.__setattr__(matrix, "rows", original)
            assert verify_special_orthogonal(matrix)

    def test_wrong_shape_after_verifying(self):
        matrix = representative_matrix(parse_diii("+1212-"))
        assert verify_special_orthogonal(matrix)
        assert intersection_dimension(matrix) == 1
        for rows in (((ONE, ZERO), (ZERO, ONE)), REFERENCE_MATRIX[:4], ((ONE,),) * 6):
            object.__setattr__(matrix, "rows", rows)
            assert not verify_special_orthogonal(matrix)
            with pytest.raises(ClanError):
                intersection_dimension(matrix)

    def test_rows_in_lists_are_read_on_every_call(self):
        clan = parse_diii("+-")
        for rows in ([[ONE, ZERO], [ZERO, ONE]], ([ONE, ZERO], [ZERO, ONE])):
            matrix = around_constructor(clan, rows)
            assert verify_special_orthogonal(matrix)
            assert intersection_dimension(matrix) == 1
            for row in rows:
                row[0], row[1] = row[1], row[0]
            assert not verify_special_orthogonal(matrix)
            assert intersection_dimension(matrix) == 0
            assert matrix._form is None

    def test_rows_in_lists_of_a_representative_are_read_on_every_call(self):
        clan = parse_diii("+1212-")
        rows = [list(row) for row in representative_matrix(clan).rows]
        matrix = around_constructor(clan, rows)
        assert verify_special_orthogonal(matrix)
        for row in rows:
            row[0], row[5] = row[5], row[0]
        assert not verify_special_orthogonal(matrix)
        assert intersection_dimension(matrix) == block_dimension(rows)

    def test_form_is_kept_for_its_own_rows_and_clan(self):
        clan = parse_diii("+1212-")
        matrix = representative_matrix(clan)
        form = _integer_form(matrix)
        assert _integer_form(matrix) is form
        assert matrix._form is form
        # equal rows and an equal clan, but other objects
        object.__setattr__(matrix, "rows", tuple(list(matrix.rows)))
        again = _integer_form(matrix)
        assert again is not form and again.scaled == form.scaled
        object.__setattr__(matrix, "clan", parse_diii("+1212-"))
        assert _integer_form(matrix) is not again
        assert matrix._form.clan is matrix.clan

    def test_form_takes_no_part_in_equality_hash_or_repr(self):
        clan = parse_diii("+1212-")
        fresh, used = representative_matrix(clan), representative_matrix(clan)
        assert verify_special_orthogonal(used)
        assert intersection_parity(used) == 1
        assert used._form is not None and fresh._form is None
        assert used == fresh
        assert hash(used) == hash(fresh)
        assert repr(used) == repr(fresh)
        assert "_form" not in repr(used)
        assert used.to_json_dict() == fresh.to_json_dict()


def test_check_flags_runs_to_seven():
    result = check_flags(tuple(weak_order_poset(n) for n in range(1, 9)))
    assert result.passed
    assert result.detail == "exact SO and parity for n<= 7"
