"""Exact representative flag matrices over the field {a + b*sqrt(2)}.

Entries are pairs of rationals, so membership in the special orthogonal
group (form identity and unit determinant) is decided exactly, with no
floating point anywhere. The form identity is checked by pairing columns
through their nonzero entries. Once it holds, the sign of the determinant
follows from the intersection parity, an n x n rank, with no 2n x 2n
determinant.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .clans import MINUS, PLUS, DIIIClan

_Scalar = Union[int, Fraction, "QSqrt2"]


@dataclass(frozen=True)
class QSqrt2:
    """An element a + b*sqrt(2) with rational a, b; exact field arithmetic."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    @classmethod
    def of(cls, value: _Scalar) -> "QSqrt2":
        if isinstance(value, QSqrt2):
            return value
        return cls(Fraction(value))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __add__(self, other: _Scalar) -> "QSqrt2":
        o = QSqrt2.of(other)
        return QSqrt2(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.a, -self.b)

    def __sub__(self, other: _Scalar) -> "QSqrt2":
        return self + (-QSqrt2.of(other))

    def __rsub__(self, other: _Scalar) -> "QSqrt2":
        return (-self) + QSqrt2.of(other)

    def __mul__(self, other: _Scalar) -> "QSqrt2":
        o = QSqrt2.of(other)
        return QSqrt2(self.a * o.a + 2 * self.b * o.b, self.a * o.b + self.b * o.a)

    __rmul__ = __mul__

    def conjugate(self) -> "QSqrt2":
        return QSqrt2(self.a, -self.b)

    def inverse(self) -> "QSqrt2":
        norm = self.a * self.a - 2 * self.b * self.b
        if norm == 0:
            raise ZeroDivisionError("division by zero in Q(sqrt 2)")
        return QSqrt2(self.a / norm, -self.b / norm)

    def __truediv__(self, other: _Scalar) -> "QSqrt2":
        return self * QSqrt2.of(other).inverse()

    def __rtruediv__(self, other: _Scalar) -> "QSqrt2":
        return QSqrt2.of(other) * self.inverse()

    def __str__(self) -> str:
        if not self.b:
            return str(self.a)
        if not self.a:
            return f"{self.b}√2"
        sign = "+" if self.b > 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}√2"

    def to_json_dict(self) -> dict:
        return {"a": str(self.a), "b": str(self.b)}


ZERO = QSqrt2()
ONE = QSqrt2(Fraction(1))
INV_SQRT2 = QSqrt2(Fraction(0), Fraction(1, 2))  # 1/sqrt(2) = sqrt(2)/2

_PRETTY = {
    ZERO: "0",
    ONE: "1",
    -ONE: "-1",
    INV_SQRT2: "1/√2",
    -INV_SQRT2: "-1/√2",
}


@dataclass(frozen=True)
class FlagMatrix:
    """A 2n x 2n matrix over Q(sqrt 2) representing an isotropic flag;
    rows[r][c] is the entry in row r+1, column c+1."""

    clan: DIIIClan
    rows: tuple[tuple[QSqrt2, ...], ...]

    @property
    def size(self) -> int:
        return len(self.rows)

    def column(self, c: int) -> tuple[QSqrt2, ...]:
        return tuple(self.rows[r][c - 1] for r in range(self.size))

    def pretty(self) -> str:
        cells = [[_PRETTY.get(e, str(e)) for e in row] for row in self.rows]
        width = max(len(s) for row in cells for s in row)
        return "\n".join(
            "[ " + "  ".join(s.rjust(width) for s in row) + " ]" for row in cells
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.clan.n,
            "clan": self.clan.spaced(),
            "entries": [[e.to_json_dict() for e in row] for row in self.rows],
        }


def representative_matrix(clan: DIIIClan) -> FlagMatrix:
    """Columns are basis vectors at sign positions (routed through the
    default permutation) and mixed +-1/sqrt(2) combinations on each family
    of four mate positions."""
    clan = clan.to_diii()
    m = 2 * clan.n
    sigma = clan.default_permutation()
    cols: list[list[QSqrt2] | None] = [None] * m

    def basis(r: int) -> list[QSqrt2]:
        col = [ZERO] * m
        col[r - 1] = ONE
        return col

    def mix(r: int, s: int, minus: bool) -> list[QSqrt2]:
        col = [ZERO] * m
        col[r - 1] = INV_SQRT2
        col[s - 1] = -INV_SQRT2 if minus else INV_SQRT2
        return col

    for pos, symbol in enumerate(clan.symbols, start=1):
        if symbol in (PLUS, MINUS):
            cols[pos - 1] = basis(sigma(pos))
    for (i, j, jj, ii) in clan.classify_pairs().families:
        cols[i - 1] = mix(sigma(i), sigma(j), minus=False)
        cols[j - 1] = mix(sigma(i), sigma(j), minus=True)
        cols[ii - 1] = mix(sigma(ii), sigma(jj), minus=False)
        cols[jj - 1] = mix(sigma(ii), sigma(jj), minus=True)
    if any(c is None for c in cols):
        raise AssertionError("flag construction left empty columns")
    rows = tuple(
        tuple(cols[c][r] for c in range(m)) for r in range(m)
    )
    return FlagMatrix(clan, rows)


def _eliminate(rows: Sequence[Sequence[QSqrt2]]) -> tuple[int, QSqrt2]:
    """Exact Gaussian elimination on a copy: the rank and, for a square
    matrix, the determinant (``ZERO`` once a column has no pivot)."""
    nrows = len(rows)
    work = [list(row) for row in rows]
    ncols = len(work[0]) if work else 0
    rank, det = 0, ONE
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if work[r][col]), None)
        if pivot_row is None:
            det = ZERO
            continue
        if pivot_row != rank:
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            det = -det
        pivot = work[rank][col]
        det = det * pivot
        inv = pivot.inverse()
        for r in range(rank + 1, nrows):
            factor = work[r][col] * inv
            if factor:
                for c in range(col, ncols):
                    work[r][c] = work[r][c] - factor * work[rank][c]
        rank += 1
        if rank == nrows:
            break
    return rank, det


def exact_determinant(rows: Sequence[Sequence[QSqrt2]]) -> QSqrt2:
    """Determinant of a square matrix, by exact elimination."""
    return _eliminate(rows)[1]


def exact_rank(rows: Sequence[Sequence[QSqrt2]]) -> int:
    return _eliminate(rows)[0]


def verify_special_orthogonal(matrix: FlagMatrix) -> bool:
    """Exact check of G^T J G = J (J the antidiagonal ones) and det G = 1.

    Row a of G^T J G is the sum, over each nonzero G[r][a], of G[r][a]
    times row m-1-r of G; only products of nonzero entries are formed.

    Once the form holds, det G = 1 is decided without eliminating G. Let
    m = 2n and E = span(e_1..e_n), maximal isotropic for J.

    - G^T J G = J makes G an invertible isometry, so G E is maximal isotropic.
    - For an isometry, det G = (-1)^(n - dim(G E meet E)): the maximal
      isotropic subspaces form two families, L and L' share one exactly
      when dim(L meet L') has the parity of n, and det G = 1 exactly when
      G keeps each (any characteristic other than 2; C. Chevalley, The
      Algebraic Theory of Spinors, 1954).
    - dim(G E meet E) = n - rank G[n:, :n], the columns of G being
      independent; its parity is ``intersection_parity``.

    A matrix that is not 2n x 2n for its clan is no flag matrix and is
    refused.
    """
    rows = matrix.rows
    m = 2 * matrix.clan.n
    if len(rows) != m or any(len(row) != m for row in rows):
        return False
    for a in range(m):
        form_row = [ZERO] * m
        for r in range(m):
            g = rows[r][a]
            if g:
                for b, h in enumerate(rows[m - 1 - r]):
                    if h:
                        form_row[b] += g * h
        if any(e != (ONE if a + b == m - 1 else ZERO) for b, e in enumerate(form_row)):
            return False
    return intersection_parity(matrix) == (m // 2) % 2


def intersection_dimension(matrix: FlagMatrix) -> int:
    """Nullity of the lower-left block G[n:, :n], that is n - its rank.

    A combination of the first n columns lies in span(e_1..e_n) exactly
    when its last n coordinates vanish. So when those columns are
    independent, as they are once G^T J G = J holds, this is the dimension
    of the meet of their span with span(e_1..e_n). Otherwise it counts the
    dependencies too: the zero 2 x 2 matrix gives 1, while the meet is {0}.
    """
    n = matrix.size // 2
    return n - exact_rank([row[:n] for row in matrix.rows[n:]])


def intersection_parity(matrix: FlagMatrix) -> int:
    return intersection_dimension(matrix) % 2
