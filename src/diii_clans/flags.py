"""Exact representative flag matrices over the field {a + b*sqrt(2)}.

``representative_matrix`` writes a clan's matrix straight from its key,
with the default permutation as a plain list and the families of four
mate positions in position order. Entries are ``QSqrt2``, pairs of
rationals, so membership in the special orthogonal group (form identity
and unit determinant) is decided exactly, with no floating point
anywhere. ``QSqrt2`` holds no field arithmetic, as the kernels do not
compute with those entries: they first scale the matrix by L, the lcm of
every denominator, into sparse (L*a, L*b) int pairs, elements of
Z[sqrt 2]. The form identity H^T J H = L^2 J is then checked on the
upper triangle alone: entry (a, b) of H^T J H sums H[r][a] * H[m-1-r][b]
over the rows r, and putting s = m-1-r turns that sum into entry (b, a),
so the product is symmetric for any H. One pass over the row pairs
(r, m-1-r) forms each product with b >= a once; every such entry off the
antidiagonal must be zero, and all (m+1)//2 antidiagonal ones must be
L^2. Determinants come from fraction-free (Bareiss) elimination, which
divides exactly in Z[sqrt 2]. Once the form holds, the sign of the
determinant follows from the intersection parity, the rank of the n x n
lower-left block, with no 2n x 2n determinant. That rank is taken
piece by piece (``_piece_rank``): permuting rows and columns makes the
block block-diagonal over the connected pieces of its nonzero pattern, so its
rank is the sum of theirs; a piece of one row or one column has rank 1,
since the scaled rows hold only nonzero entries, and only a larger piece
is eliminated. Every piece of a representative's block is a single row
(the tests check every clan with n <= 7 and sample n <= 16), so verifying
one eliminates nothing.

A ``FlagMatrix`` is complete when it is built: the constructor scales
its rows and ranks its block once. ``representative_matrix`` writes the
integer form in the loop that writes the entries, so no one reads them
again, and ``verify.check_flags`` compares it with the form read afresh
from the rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from typing import Sequence

from .clans import ClanError, DIIIClan

#: The nonzero entries of one row of L times a matrix, as (column, a, b)
#: for a + b*sqrt(2) in Z[sqrt 2].
_ScaledRow = tuple[tuple[int, int, int], ...]
#: A matrix's integer form as ``_scaled`` gives it: L and the rows of L times it.
_ScaledForm = tuple[int, tuple[_ScaledRow, ...]]


@dataclass(frozen=True)
class QSqrt2:
    """An element a + b*sqrt(2) with rational a, b, held as ``Fraction``s.
    It negates, prints and serializes, and does no other arithmetic: the
    kernels compute on a matrix's integer form (``_scaled``)."""

    a: Fraction = Fraction(0)
    b: Fraction = Fraction(0)

    def __post_init__(self):
        if type(self.a) is not Fraction:
            object.__setattr__(self, "a", Fraction(self.a))
        if type(self.b) is not Fraction:
            object.__setattr__(self, "b", Fraction(self.b))

    def __bool__(self) -> bool:
        return bool(self.a) or bool(self.b)

    def __neg__(self) -> "QSqrt2":
        return QSqrt2(-self.a, -self.b)

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
    but a ``QSqrt2``. The constructor stores the integer form (``_scaled``)
    and the intersection dimension, outside equality, hashing and the repr."""

    clan: DIIIClan
    rows: tuple[tuple[QSqrt2, ...], ...]
    _form: _ScaledForm = field(init=False, repr=False, compare=False)
    _dimension: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        m, rows = 2 * self.clan.n, self.rows
        # the length test reads only rows the type test passed
        if not (
            type(rows) is tuple
            and len(rows) == m
            and {*map(type, rows)} == {tuple}
            and {*map(len, rows)} == {m}
        ):
            raise ClanError(
                f"a flag matrix of {self.clan} must be a tuple of {m} row tuples of length {m}"
            )
        form = _scaled(rows)
        object.__setattr__(self, "_form", form)
        object.__setattr__(self, "_dimension", _block_dimension(form, self.clan.n))

    @classmethod
    def _from_form(
        cls, clan: DIIIClan, rows: tuple[tuple[QSqrt2, ...], ...], form: _ScaledForm
    ) -> "FlagMatrix":
        """The matrix of ``rows`` with the integer form ``form``, neither
        tested nor read: the one unchecked ``FlagMatrix`` constructor, for
        ``representative_matrix``, which writes both together."""
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "clan", clan)
        object.__setattr__(matrix, "rows", rows)
        object.__setattr__(matrix, "_form", form)
        object.__setattr__(matrix, "_dimension", _block_dimension(form, clan.n))
        return matrix

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
    default permutation sigma) and mixed +-1/sqrt(2) combinations on each
    family of four mate positions, both read off the clan's key
    (``Clan._default_mapping``, ``Clan._families``).

    The same loop writes the matrix's integer form, as ``_scaled`` would
    read it: L is 2 when there is a family (its entries are
    +-sqrt(2)/2) and 1 otherwise, a sign column's one entry scales to
    (L, 0) and a family's entries to (0, +-1). sigma is a permutation, so
    each row takes its entries from one sign or one family pair: at most
    two, put in column order by one compare."""
    clan = clan.to_diii()
    key = clan._key()
    m = len(key)
    sigma = clan._default_mapping()
    families = clan._families()
    scale = 2 if families else 1
    rows = [[ZERO] * m for _ in range(m)]
    scaled: list[_ScaledRow | None] = [None] * m
    for pos, q in enumerate(key):
        if type(q) is str:
            r = sigma[pos] - 1
            rows[r][pos] = ONE
            scaled[r] = ((pos, scale, 0),)
    for (i, j, jj, ii) in families:
        # columns p and q: (e_r + e_s)/sqrt2 and (e_r - e_s)/sqrt2
        for p, q in ((i - 1, j - 1), (ii - 1, jj - 1)):
            r, s = sigma[p] - 1, sigma[q] - 1
            rows[r][p] = rows[r][q] = rows[s][p] = INV_SQRT2
            rows[s][q] = _NEG_INV_SQRT2
            sp, sq = (p, 0, 1), (q, 0, -1)
            if p < q:
                scaled[r], scaled[s] = (sp, (q, 0, 1)), (sp, sq)
            else:
                scaled[r], scaled[s] = ((q, 0, 1), sp), (sq, sp)
    # each column writes one row, so an empty column leaves an empty row
    if None in scaled:
        raise ClanError("flag construction left empty rows")
    return FlagMatrix._from_form(clan, tuple(map(tuple, rows)), (scale, tuple(scaled)))


def _scaled(rows: Sequence[Sequence[QSqrt2]]) -> _ScaledForm:
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


def _piece_rank(rows: Sequence[_ScaledRow], ncols: int) -> int:
    """The rank of sparse integer rows as ``_scaled`` gives them, as the
    sum of the ranks of their pieces.

    A piece is a connected component of the graph joining each row to the
    columns of its nonzero entries; union-find over the columns merges the
    columns each row touches. Permuting rows and columns makes the matrix
    block-diagonal over its pieces, so its rank is the sum of theirs. Rows
    hold only nonzero entries, so a piece with one row, or with one column
    (every row a single entry), has rank 1; any other piece is ranked by
    ``_eliminate``. An empty row belongs to no piece.
    """
    parent = list(range(ncols))
    for row in rows:
        if len(row) > 1:
            root = row[0][0]
            while parent[root] != root:
                root = parent[root]
            for c, _, _ in row[1:]:
                while parent[c] != c:
                    c = parent[c]
                if c != root:
                    parent[c] = root
    pieces: dict[int, list[_ScaledRow]] = {}
    for row in rows:
        if row:
            c = row[0][0]
            while parent[c] != c:
                c = parent[c]
            pieces.setdefault(c, []).append(row)
    rank = 0
    for piece in pieces.values():
        if len(piece) == 1 or all(len(row) == 1 for row in piece):
            rank += 1
        else:
            rank += _eliminate(piece, ncols)[0]
    return rank


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


def verify_special_orthogonal(matrix: FlagMatrix) -> bool:
    """Exact check of G^T J G = J (J the antidiagonal ones) and det G = 1.

    The form is checked on the scaled integer form H = L G of ``_scaled``:
    G^T J G = J exactly when H^T J H = L^2 J, an identity over Z[sqrt 2].
    H^T J H is symmetric, so only its entries (a, b) with a <= b are
    formed, each a sum of products of nonzero entries as int pairs
    (``_form_holds``).

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
    """
    return _form_holds(matrix._form) and intersection_parity(matrix) == matrix.clan.n % 2


def _form_holds(scaled: _ScaledForm) -> bool:
    """Whether H^T J H = L^2 J for ``(L, H)`` as ``_scaled`` gives it, H
    square.

    (H^T J H)[a][b] is the sum over rows r of H[r][a] * H[m-1-r][b].
    Putting s = m-1-r turns it into the sum of H[s][b] * H[m-1-s][a],
    which is (H^T J H)[b][a], so H^T J H is symmetric for any H and its
    entries with a <= b decide the identity. One pass over the row pairs
    (r, m-1-r) forms each product H[r][a] * H[m-1-r][b] with b >= a once,
    summing the (rational, sqrt(2)) parts keyed by (a, b). Every touched
    entry off the antidiagonal must be (0, 0), and every antidiagonal one
    (L^2, 0). An entry no product touches is zero, so all (m+1)//2
    antidiagonal entries with a <= b must be touched.
    """
    scale, rows = scaled
    m = len(rows)
    upper: dict[tuple[int, int], tuple[int, int]] = {}
    for r, row in enumerate(rows):
        mirror = rows[m - 1 - r]
        for a, ga, gb in row:
            for b, ha, hb in mirror:
                if b >= a:
                    x, y = ga * ha + 2 * gb * hb, ga * hb + gb * ha
                    if (a, b) in upper:
                        px, py = upper[a, b]
                        upper[a, b] = (px + x, py + y)
                    else:
                        upper[a, b] = (x, y)
    antidiagonal = (scale * scale, 0)
    touched = 0
    for (a, b), entry in upper.items():
        if a + b != m - 1:
            if entry != (0, 0):
                return False
        elif entry == antidiagonal:
            touched += 1
        else:
            return False
    return touched == (m + 1) // 2


def intersection_dimension(matrix: FlagMatrix) -> int:
    """Nullity of the lower-left block G[n:, :n], that is n - its rank.

    A combination of the first n columns lies in span(e_1..e_n) exactly
    when its last n coordinates vanish. So when those columns are
    independent, as they are once G^T J G = J holds, this is the dimension
    of the meet of their span with span(e_1..e_n). Otherwise it counts the
    dependencies too: the zero 2 x 2 matrix gives 1, while the meet is {0}.
    The matrix's constructor takes it (``_block_dimension``).
    """
    return matrix._dimension


def _block_dimension(form: _ScaledForm, n: int) -> int:
    """n minus the rank of the lower-left n x n block of L G, read off the
    integer form. Its rank is the sum of the ranks of its connected pieces
    (``_piece_rank``), exactly, since permuting rows and columns makes it
    block-diagonal over them; a piece of one row or one column has rank 1,
    and only a larger piece goes through Bareiss elimination.
    """
    block = [[entry for entry in row if entry[0] < n] for row in form[1][n:]]
    return n - _piece_rank(block, n)


def intersection_parity(matrix: FlagMatrix) -> int:
    return intersection_dimension(matrix) % 2
