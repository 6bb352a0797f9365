"""Exact representative flag matrices over the field {a + b*sqrt(2)}.

Entries are ``QSqrt2``, pairs of rationals, so membership in the special
orthogonal group (form identity and unit determinant) is decided exactly,
with no floating point anywhere. The kernels do not compute with those
entries: they first scale the matrix by L, the lcm of every denominator,
into sparse (L*a, L*b) int pairs, elements of Z[sqrt 2]. The form identity
is then checked by pairing columns through their nonzero entries, and
ranks and determinants come from fraction-free (Bareiss) elimination,
which divides exactly in Z[sqrt 2]. Once the form holds, the sign of the
determinant follows from the intersection parity, an n x n rank, with no
2n x 2n determinant.

A ``FlagMatrix`` is scaled and ranked once for the form check, the parity
and ``verify.check_flags``, while it holds the row tuples and clan it was
read from; other rows set around the constructor are read on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence, Union

from .clans import ClanError, DIIIClan

_Scalar = Union[int, Fraction, "QSqrt2"]
#: The nonzero entries of one row of L times a matrix, as (column, a, b)
#: for a + b*sqrt(2) in Z[sqrt 2].
_ScaledRow = tuple[tuple[int, int, int], ...]


@dataclass(frozen=True)
class QSqrt2:
    """An element a + b*sqrt(2) with rational a, b; exact field arithmetic."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __post_init__(self):
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
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
_NEG_INV_SQRT2 = -INV_SQRT2

_PRETTY = {
    ZERO: "0",
    ONE: "1",
    -ONE: "-1",
    INV_SQRT2: "1/√2",
    _NEG_INV_SQRT2: "-1/√2",
}


@dataclass(frozen=True)
class FlagMatrix:
    """A 2n x 2n matrix over Q(sqrt 2) representing an isotropic flag;
    rows[r][c] is the entry in row r+1, column c+1. Rows of any other
    shape, or not held in tuples, raise ``ClanError``, and so does any entry
    but a ``QSqrt2`` in the checks. ``_form`` keeps what they read (see
    ``_integer_form``) outside equality, hashing and the repr."""

    clan: DIIIClan
    rows: tuple[tuple[QSqrt2, ...], ...]
    _form: _Form | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        m = 2 * self.clan.n
        if not (
            type(self.rows) is tuple
            and len(self.rows) == m
            and all(type(row) is tuple and len(row) == m for row in self.rows)
        ):
            raise ClanError(
                f"a flag matrix of {self.clan} must be a tuple of {m} row tuples of length {m}"
            )

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
    rows = [[ZERO] * m for _ in range(m)]
    filled = set()
    for pos, q in enumerate(clan._key(), start=1):
        if type(q) is str:
            rows[sigma(pos) - 1][pos - 1] = ONE
            filled.add(pos)
    for (i, j, jj, ii) in clan.classify_pairs().families:
        # columns p and q: (e_r + e_s)/sqrt2 and (e_r - e_s)/sqrt2
        for p, q in ((i, j), (ii, jj)):
            r, s = rows[sigma(p) - 1], rows[sigma(q) - 1]
            r[p - 1] = r[q - 1] = s[p - 1] = INV_SQRT2
            s[q - 1] = _NEG_INV_SQRT2
            filled.update((p, q))
    if len(filled) != m:
        raise AssertionError("flag construction left empty columns")
    return FlagMatrix(clan, tuple(map(tuple, rows)))


def _scaled(rows: Sequence[Sequence[QSqrt2]]) -> tuple[int, tuple[_ScaledRow, ...]]:
    """The matrix as L times itself, with L the lcm of every denominator.

    Returns ``(L, scaled)``: ``scaled[r]`` lists ``(c, L*a, L*b)`` for each
    nonzero entry a + b*sqrt(2) of row r, in column order, so every scaled
    entry lies in Z[sqrt 2] and zeros are dropped. L and the scaled rows
    together determine the matrix, and the pair is hashable. An entry that
    is not a ``QSqrt2`` raises ``ClanError``.
    """
    # each distinct entry is read once, keyed by id; ``held`` keeps it alive
    # so no id is reused in the call, even by rows made on demand. The
    # shared ZERO is skipped by identity, any other zero by value.
    seen: dict[int, tuple[int, int, int, int] | None] = {}
    held, nonzero = [], []
    for row in rows:
        kept = []
        for c, e in enumerate(row):
            if e is ZERO:
                continue
            key = id(e)
            if key not in seen:
                if not isinstance(e, QSqrt2):
                    raise ClanError(f"a flag matrix entry must be QSqrt2, not {type(e).__name__}")
                held.append(e)
                a, b = e.a, e.b
                seen[key] = (a.numerator, a.denominator, b.numerator, b.denominator) if e else None
            if seen[key]:
                kept.append((c, key))
        nonzero.append(kept)
    scale = lcm(*{d for p in seen.values() if p for d in (p[1], p[3])})
    ints = {key: (p[0] * (scale // p[1]), p[2] * (scale // p[3])) for key, p in seen.items() if p}
    scaled = tuple(tuple((c, *ints[key]) for c, key in row) for row in nonzero)
    return scale, scaled


def _eliminate(rows: Sequence[_ScaledRow], ncols: int) -> tuple[int, int, tuple[int, int]]:
    """Fraction-free (Bareiss) elimination over Z[sqrt 2] on sparse integer
    rows as ``_scaled`` gives them.

    Returns the rank, the sign of the row swaps made, and the last pivot as
    an (a, b) pair. Pivots are the first nonzero entry of each column, so a
    column without one is skipped. With p the previous pivot (1 at first),
    a pivot k at (rank, col) and f = row[col] below it, every later entry
    becomes (k * row[c] - f * pivot_row[c]) / p. Each updated entry is a
    minor of the input (Bareiss, Math. Comp. 22 (1968)), so the quotient
    lies in Z[sqrt 2], and x / p = x * conj(p) / N(p) with the integer norm
    N(p) = p_a^2 - 2 p_b^2 != 0 divides exactly. Scaling rows by nonzero
    elements keeps the rank, and for a square matrix of full rank the last
    pivot times the sign is its determinant.
    """
    work = [{c: (a, b) for c, a, b in row} for row in rows]
    nrows = len(work)
    rank, sign = 0, 1
    pa, pb, norm = 1, 0, 1
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, nrows) if col in work[r]), None)
        if pivot_row is None:
            continue
        if pivot_row != rank:
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            sign = -sign
        pivot = work[rank]
        ka, kb = pivot.pop(col)
        for r in range(rank + 1, nrows):
            row = work[r]
            fa, fb = row.pop(col, (0, 0))
            updated = {}
            for c in (row.keys() | pivot.keys()) if fa or fb else row:
                xa, xb = row.get(c, (0, 0))
                ya, yb = pivot.get(c, (0, 0))
                # k * x - f * y, then exact division by the previous pivot
                za = ka * xa + 2 * kb * xb - fa * ya - 2 * fb * yb
                zb = ka * xb + kb * xa - fa * yb - fb * ya
                if pa != 1 or pb:
                    za, zb = (za * pa - 2 * zb * pb) // norm, (zb * pa - za * pb) // norm
                if za or zb:
                    updated[c] = (za, zb)
            work[r] = updated
        pa, pb, norm = ka, kb, ka * ka - 2 * kb * kb
        rank += 1
        if rank == nrows:
            break
    return rank, sign, (pa, pb)


def exact_determinant(rows: Sequence[Sequence[QSqrt2]]) -> QSqrt2:
    """Determinant of a square matrix: that of L times it over L^m."""
    m = len(rows)
    if any(len(row) != m for row in rows):
        raise ValueError("determinant of a non-square matrix")
    scale, scaled = _scaled(rows)
    rank, sign, (pa, pb) = _eliminate(scaled, m)
    if rank < m:
        return ZERO
    return QSqrt2(Fraction(sign * pa, scale**m), Fraction(sign * pb, scale**m))


def exact_rank(rows: Sequence[Sequence[QSqrt2]]) -> int:
    return _eliminate(_scaled(rows)[1], len(rows[0]) if rows else 0)[0]


def _is_flag_shape(matrix: FlagMatrix) -> bool:
    """The constructor's shape rule, kept for a matrix whose rows were
    replaced around it (the dataclass is frozen, not sealed)."""
    m = 2 * matrix.clan.n
    return len(matrix.rows) == m and all(len(row) == m for row in matrix.rows)


@dataclass(eq=False, slots=True)
class _Form:
    """The ``_scaled`` pair of a matrix's rows and, once ranked, its intersection dimension."""

    rows: object
    clan: DIIIClan
    scaled: tuple[int, tuple[_ScaledRow, ...]]
    dimension: int | None = None


def _integer_form(matrix: FlagMatrix) -> _Form:
    """The matrix's form, kept while ``rows`` and ``clan`` are the objects
    it was read from. Rows in lists can change in place, so only a tuple of
    row tuples is kept."""
    rows, clan, form = matrix.rows, matrix.clan, matrix._form
    if form is None or form.rows is not rows or form.clan is not clan:
        form = _Form(rows, clan, _scaled(rows))
        if type(rows) is tuple and all(type(row) is tuple for row in rows):
            object.__setattr__(matrix, "_form", form)
    return form


def verify_special_orthogonal(matrix: FlagMatrix) -> bool:
    """Exact check of G^T J G = J (J the antidiagonal ones) and det G = 1.

    The form is checked on the scaled integer form H = L G of ``_scaled``:
    G^T J G = J exactly when H^T J H = L^2 J, an identity over Z[sqrt 2].
    Row a of H^T J H is the sum, over each nonzero H[r][a], of H[r][a]
    times row m-1-r of H; only products of nonzero entries are formed, as
    int pairs.

    Once the form holds, det G = 1 is decided without eliminating G. Let
    m = 2n and E = span(e_1..e_n), maximal isotropic for J.

    - G^T J G = J makes G an invertible isometry, so G E is maximal isotropic.
    - For an isometry, det G = (-1)^(n - dim(G E meet E)): the maximal
      isotropic subspaces form two families, U and U' share one exactly
      when dim(U meet U') has the parity of n, and det G = 1 exactly when
      G keeps each (any characteristic other than 2; C. Chevalley, The
      Algebraic Theory of Spinors, 1954).
    - dim(G E meet E) = n - rank G[n:, :n], the columns of G being
      independent; its parity is ``intersection_parity``.

    ``FlagMatrix`` refuses any shape but 2n x 2n for its clan; a matrix
    whose rows were replaced around that check is refused here too.
    """
    if not _is_flag_shape(matrix):
        return False
    m = 2 * matrix.clan.n
    scale, rows = _integer_form(matrix).scaled
    cols: list[list[tuple[int, int, int]]] = [[] for _ in range(m)]  # (row, a, b)
    for r, row in enumerate(rows):
        for c, ea, eb in row:
            cols[c].append((r, ea, eb))
    for a, col in enumerate(cols):
        # row a of H^T J H: its rational parts and its sqrt(2) parts
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
    return intersection_parity(matrix) == (m // 2) % 2


def intersection_dimension(matrix: FlagMatrix) -> int:
    """Nullity of the lower-left block G[n:, :n], that is n - its rank.

    A combination of the first n columns lies in span(e_1..e_n) exactly
    when its last n coordinates vanish. So when those columns are
    independent, as they are once G^T J G = J holds, this is the dimension
    of the meet of their span with span(e_1..e_n). Otherwise it counts the
    dependencies too: the zero 2 x 2 matrix gives 1, while the meet is {0}.
    A matrix whose rows were replaced around ``FlagMatrix``'s shape check
    by one that is not 2n x 2n raises ``ClanError``. The block is ranked as
    L times itself, on the integer form, which keeps the result.
    """
    if not _is_flag_shape(matrix):
        m = 2 * matrix.clan.n
        raise ClanError(f"a flag matrix of {matrix.clan} must be {m} x {m}")
    form = _integer_form(matrix)
    if form.dimension is None:
        n = matrix.clan.n
        block = [[entry for entry in row if entry[0] < n] for row in form.scaled[1][n:]]
        form.dimension = n - _eliminate(block, n)[0]
    return form.dimension


def intersection_parity(matrix: FlagMatrix) -> int:
    return intersection_dimension(matrix) % 2
