from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diii_clans import (
    FlagMatrix,
    QSqrt2,
    count_formula,
    enumerate_diii,
    intersection_dimension,
    intersection_parity,
    parse_diii,
    representative_matrix,
    verify_special_orthogonal,
)
from diii_clans.flags import INV_SQRT2, ONE, ZERO, exact_determinant, exact_rank

from conftest import diii_clans

rationals = st.fractions(min_value=-50, max_value=50, max_denominator=50)
elements = st.builds(QSqrt2, rationals, rationals)

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


class TestRepresentativeMatrix:
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


class TestSpecialOrthogonality:
    def test_reference_matrix_verifies(self):
        matrix = FlagMatrix(parse_diii("+1212-"), REFERENCE_MATRIX)
        assert verify_special_orthogonal(matrix)

    def test_column_swap_breaks_it(self):
        clan = parse_diii("+1212-")
        rows = [list(r) for r in REFERENCE_MATRIX]
        for r in rows:
            r[0], r[5] = r[5], r[0]
        swapped = FlagMatrix(clan, tuple(tuple(r) for r in rows))
        assert not verify_special_orthogonal(swapped)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_representative_is_special_orthogonal(self, n):
        for clan in enumerate_diii(n):
            assert verify_special_orthogonal(representative_matrix(clan))

    @settings(max_examples=25, deadline=None)
    @given(diii_clans(min_n=6, max_n=8))
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
