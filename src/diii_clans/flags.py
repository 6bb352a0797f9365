"""Exact representative flag matrices over the field {a + b*sqrt(2)}.

A ``FlagMatrix`` is held as its integer form alone: L, the least common
denominator of its entries, and the sparse rows of L times it, each
nonzero entry as (column, L*a, L*b) in Z[sqrt 2]. ``representative_matrix``
writes that form straight from a clan's key; ``FlagMatrix(clan, rows)``
scales rows of ``QSqrt2`` entries, pairs of rationals, once (``_scaled``),
and ``rows``, ``write_pretty`` and ``write_json`` render them back. So
membership in the special orthogonal group is decided exactly, with no
floating point and no field arithmetic: the form identity H^T J H = L^2 J
on the upper triangle of that symmetric product, from half its row pairs
(``_form_holds``), and the sign of the determinant from the intersection
parity, the rank of the n x n lower-left block (``_sparse_rank``). When
no two rows of the block share a column, that rank is its count of rows
with an entry in it; otherwise the block goes through fraction-free
(Bareiss) elimination, which divides exactly in Z[sqrt 2]. No two rows
of a representative's block share a column (the tests check every clan
with n <= 7 and sample n <= 16), so verifying one eliminates nothing.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from fractions import Fraction
from math import lcm
from typing import Callable, Iterator, Sequence, TextIO, TypeVar

from .clans import ClanError, DIIIClan

#: The nonzero entries of one row of L times a matrix, as (column, a, b)
#: for a + b*sqrt(2) in Z[sqrt 2].
_ScaledRow = tuple[tuple[int, int, int], ...]
#: A matrix's integer form as ``_scaled`` gives it: L and the rows of L times it.
_ScaledForm = tuple[int, tuple[_ScaledRow, ...]]
_T = TypeVar("_T")


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

_PRETTY = {ZERO: "0", ONE: "1", -ONE: "-1", INV_SQRT2: "1/√2", _NEG_INV_SQRT2: "-1/√2"}
#: Each entry ``_PRETTY`` names as the one object rendered rows hold for it.
_SHARED = {e: e for e in _PRETTY}


@dataclass(frozen=True)
class FlagMatrix:
    """A 2n x 2n matrix over Q(sqrt 2) representing an isotropic flag,
    built from ``rows``, where rows[r][c] is the entry in row r+1, column
    c+1. Rows of any other shape, or not held in tuples, raise
    ``ClanError``, and so does any entry but a ``QSqrt2``. The matrix is
    held as its integer form (``_scaled``), which equality and hashing
    read; the intersection dimension is taken once, outside equality,
    hashing and the repr."""

    clan: DIIIClan
    # init-only; the ``rows`` property renders them back, and is also the
    # default the class attribute gives this argument, which the shape test refuses
    rows: InitVar[tuple[tuple[QSqrt2, ...], ...]]
    _form: _ScaledForm = field(init=False, repr=False)
    _dimension: int = field(init=False, repr=False, compare=False)

    def __post_init__(self, rows):
        m = 2 * self.clan.n
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
    def _from_form(cls, clan: DIIIClan, form: _ScaledForm) -> "FlagMatrix":
        """The matrix with the integer form ``form``, not tested: the one
        unchecked ``FlagMatrix`` constructor, for ``representative_matrix``,
        which writes the form with L the least common denominator."""
        matrix = cls.__new__(cls)
        object.__setattr__(matrix, "clan", clan)
        object.__setattr__(matrix, "_form", form)
        object.__setattr__(matrix, "_dimension", _block_dimension(form, clan.n))
        return matrix

    @property
    def rows(self) -> tuple[tuple[QSqrt2, ...], ...]:
        """The entries, rendered from the integer form: rows[r][c] is the
        entry in row r+1, column c+1."""
        return tuple(map(tuple, self._dense(self._cells(lambda e: e))))

    def write_pretty(self, out: TextIO) -> None:
        """One line a row, each entry right-justified to the widest."""
        texts = self._cells(lambda e: _PRETTY.get(e, str(e)))
        width = max(map(len, texts.values()))
        for row in self._dense({key: text.rjust(width) for key, text in texts.items()}):
            out.write("[ " + "  ".join(row) + " ]\n")

    def write_json(self, out: TextIO) -> None:
        """What ``json.dumps`` gives for ``{"n", "clan", "entries"}``, the
        entries as ``QSqrt2.to_json_dict`` gives them, a row per write."""
        import json

        head = json.dumps({"n": self.clan.n, "clan": self.clan.spaced(), "entries": []})
        sep = head[:-2] + "["
        for row in self._dense(self._cells(lambda e: json.dumps(e.to_json_dict()))):
            out.write(sep + ", ".join(row) + "]")
            sep = ", ["
        out.write("]}\n")

    def _cells(self, render: Callable[[QSqrt2], _T]) -> dict[tuple[int, int], _T]:
        """render(e) for zero and each distinct entry e, keyed by its scaled
        (L*a, L*b); e is the object ``_SHARED`` holds for it, if any."""
        scale, rows = self._form
        cells = {(0, 0): render(ZERO)}
        for a, b in {(a, b) for row in rows for _, a, b in row}:
            e = QSqrt2(Fraction(a, scale), Fraction(b, scale))
            cells[a, b] = render(_SHARED.get(e, e))
        return cells

    def _dense(self, cells: dict[tuple[int, int], _T]) -> Iterator[list[_T]]:
        """Each row in turn as the list of its m entries' cells."""
        rows = self._form[1]
        m = len(rows)
        for row in rows:
            dense = [cells[0, 0]] * m
            for c, a, b in row:
                dense[c] = cells[a, b]
            yield dense


def representative_matrix(clan: DIIIClan) -> FlagMatrix:
    """Columns are basis vectors at sign positions (routed through the
    default permutation sigma) and mixed +-1/sqrt(2) combinations on each
    family of four mate positions, both read off the clan's key
    (``Clan._default_mapping``, ``Clan._families``).

    Only the integer form is written: L is 2 when there is a family (its
    entries are +-sqrt(2)/2) and 1 otherwise, a sign column's one entry
    scales to (L, 0) and a family's entries to (0, +-1). sigma is a
    permutation, so each row takes its entries from one sign or one family
    pair: at most two, put in column order by one compare."""
    clan = clan.to_diii()
    key = clan._key()
    m = len(key)
    sigma = clan._default_mapping()
    families = clan._families()
    scale = 2 if families else 1
    scaled: list[_ScaledRow | None] = [None] * m
    for pos, q in enumerate(key):
        if type(q) is str:
            scaled[sigma[pos] - 1] = ((pos, scale, 0),)
    for (i, j, jj, ii) in families:
        # columns p and q: (e_r + e_s)/sqrt2 and (e_r - e_s)/sqrt2
        for p, q in ((i - 1, j - 1), (ii - 1, jj - 1)):
            r, s = sigma[p] - 1, sigma[q] - 1
            sp, sq = (p, 0, 1), (q, 0, -1)
            if p < q:
                scaled[r], scaled[s] = (sp, (q, 0, 1)), (sp, sq)
            else:
                scaled[r], scaled[s] = ((q, 0, 1), sp), (sq, sp)
    # each column writes one row, so an empty column leaves an empty row
    if None in scaled:
        raise ClanError("flag construction left empty rows")
    return FlagMatrix._from_form(clan, (scale, tuple(scaled)))


def _scaled(rows: Sequence[Sequence[QSqrt2]]) -> _ScaledForm:
    """The matrix as L times itself, with L the lcm of every denominator.

    Returns ``(L, scaled)``: ``scaled[r]`` lists ``(c, L*a, L*b)`` for each
    nonzero entry a + b*sqrt(2) of row r, in column order, so every scaled
    entry lies in Z[sqrt 2] and zeros are dropped. L and the scaled rows
    together determine the matrix, and the pair is hashable. An entry that
    is not a ``QSqrt2`` raises ``ClanError``. The shared ZERO is skipped by
    identity, any other zero by value.
    """
    nonzero = []
    for row in rows:
        kept = []
        for c, e in enumerate(row):
            if e is not ZERO:
                if not isinstance(e, QSqrt2):
                    raise ClanError(f"a flag matrix entry must be QSqrt2, not {type(e).__name__}")
                if e:
                    kept.append((c, e.a, e.b))
        nonzero.append(kept)
    scale = lcm(*{x.denominator for row in nonzero for _, a, b in row for x in (a, b)})
    return scale, tuple(
        tuple((c, a.numerator * (scale // a.denominator), b.numerator * (scale // b.denominator))
              for c, a, b in row)
        for row in nonzero
    )


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


def _sparse_rank(rows: Sequence[_ScaledRow], ncols: int) -> int:
    """The rank of sparse integer rows as ``_scaled`` gives them, read in
    their first ``ncols`` columns. Rows hold only nonzero entries in column
    order, so when no two rows share one of those columns the rows whose
    first entry lies among them are independent and the rank is their
    count; otherwise it is ``_eliminate``'s.
    """
    columns = [c for row in rows for c, _, _ in row if c < ncols]
    if len(set(columns)) == len(columns):
        return len([row for row in rows if row and row[0][0] < ncols])
    kept = []
    for row in rows:
        # entries are in column order: only a row ending past ncols has any to drop
        if row and row[-1][0] >= ncols:
            row = [entry for entry in row if entry[0] < ncols]
        if row:
            kept.append(row)
    return _eliminate(kept, ncols)[0]


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

    G^T J G = J exactly when H^T J H = L^2 J for the integer form H = L G,
    an identity over Z[sqrt 2] (``_form_holds``).

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
    entries with a <= b decide the identity. For r < m-1-r, the product
    H[r][a] * H[m-1-r][b] is the term of (a, b) from row r and of (b, a)
    from row m-1-r, so one pass over half the row pairs adds it once to the
    (rational, sqrt(2)) sums keyed min(a, b)*m + max(a, b), twice when
    a == b; an odd size's centre row adds its products with b >= a once.
    All (m+1)//2 antidiagonal entries with a <= b must be (L^2, 0), so
    each must be touched, as an entry no product touches is zero; every
    other touched entry must be (0, 0).
    """
    scale, rows = scaled
    m = len(rows)
    upper: dict[int, tuple[int, int]] = {}
    for r in range((m + 1) // 2):
        mirror = rows[m - 1 - r]
        centre = 2 * r == m - 1
        for a, ga, gb in rows[r]:
            for b, ha, hb in mirror:
                x, y = ga * ha + 2 * gb * hb, ga * hb + gb * ha
                if a < b:
                    key = a * m + b
                elif centre:
                    if b < a:
                        continue
                    key = a * m + a
                elif b < a:
                    key = b * m + a
                else:
                    x, y, key = 2 * x, 2 * y, a * m + a
                if key in upper:  # seldom: most keys are new
                    entry = upper[key]
                    upper[key] = (entry[0] + x, entry[1] + y)
                else:
                    upper[key] = (x, y)
    antidiagonal = (scale * scale, 0)
    for a in range((m + 1) // 2):
        if upper.pop(a * m + m - 1 - a, None) != antidiagonal:
            return False
    return set(upper.values()) <= {(0, 0)}


def intersection_dimension(matrix: FlagMatrix) -> int:
    """Nullity of the lower-left block G[n:, :n], that is n - its rank,
    taken when the matrix is built (``_block_dimension``).

    A combination of the first n columns lies in span(e_1..e_n) exactly
    when its last n coordinates vanish. So when those columns are
    independent, as they are once G^T J G = J holds, this is the dimension
    of the meet of their span with span(e_1..e_n). Otherwise it counts the
    dependencies too: the zero 2 x 2 matrix gives 1, while the meet is {0}.
    """
    return matrix._dimension


def _block_dimension(form: _ScaledForm, n: int) -> int:
    """n minus the rank of the lower-left n x n block of L G: the rows
    below row n read in their first n columns (``_sparse_rank``)."""
    return n - _sparse_rank(form[1][n:], n)


def intersection_parity(matrix: FlagMatrix) -> int:
    return intersection_dimension(matrix) % 2
