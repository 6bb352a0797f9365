import io
import sys
from collections import Counter
from fractions import Fraction
from functools import reduce
from pathlib import Path

from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from diii_clans import Clan, DIIIClan, FlagMatrix, QSqrt2, assemble_clan, representative_matrix
from diii_clans.flags import ZERO
from oracles import _q_add, _q_mul


def count_clan_builds(monkeypatch) -> list:
    """Record every clan built from here on, until ``monkeypatch.undo()``,
    on either of the two build paths: each call to ``Clan.__init__`` (every
    checked clan) or to ``DIIIClan._from_key`` (every unchecked one)."""
    built: list = []
    init, from_key = Clan.__init__, DIIIClan._from_key

    def counting_init(self, symbols):
        built.append(("__init__", symbols))
        init(self, symbols)

    def counting_from_key(cls, *args):
        built.append(("_from_key", args))
        return from_key(*args)

    monkeypatch.setattr(Clan, "__init__", counting_init)
    monkeypatch.setattr(DIIIClan, "_from_key", classmethod(counting_from_key))
    return built


def count_checks(monkeypatch) -> Counter:
    """Count, until ``monkeypatch.undo()``, every checked ``Pyramid``,
    ``RookPlacement`` and ``PartitionPair`` built (one ``__post_init__``
    each), under its class name, and every scan of a path's steps
    (``delannoy._scan``, once per path built), under the key ``"scan"``."""
    from diii_clans import delannoy, pyramids

    counts: Counter = Counter()

    def counted(cls):
        check = cls.__post_init__

        def counting_check(self):
            counts[cls.__name__] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting_check)

    for cls in (pyramids.Pyramid, pyramids.RookPlacement, pyramids.PartitionPair):
        counted(cls)
    scan = delannoy._scan

    def counting_scan(steps):
        counts["scan"] += 1
        return scan(steps)

    monkeypatch.setattr(delannoy, "_scan", counting_scan)
    return counts


class RecordingStream(io.StringIO):
    """A text stream that records the length of each write."""

    def __init__(self):
        super().__init__()
        self.writes: list[int] = []

    def write(self, text: str) -> int:
        self.writes.append(len(text))
        return super().write(text)


@st.composite
def diii_clans(draw, min_n: int = 1, max_n: int = 12) -> DIIIClan:
    """Random DIII clan built from random first-half data."""
    n = draw(st.integers(min_n, max_n))
    r = draw(st.integers(0, n // 2))
    order = draw(st.permutations(list(range(1, n + 1))))
    paired, rest = order[: 2 * r], sorted(order[2 * r :])
    matching = [tuple(sorted(paired[2 * k : 2 * k + 2])) for k in range(r)]
    modes = draw(st.lists(st.booleans(), min_size=r, max_size=r))
    contained = [m for m, b in zip(matching, modes) if b]
    straddling = [m for m, b in zip(matching, modes) if not b]
    if rest:
        signs = {
            pos: draw(st.sampled_from("+-")) for pos in rest[:-1]
        }
        minus_so_far = sum(1 for s in signs.values() if s == "-")
        need_minus = (minus_so_far + len(contained)) % 2 == 1
        signs[rest[-1]] = "-" if need_minus else "+"
    else:
        signs = {}
        if len(contained) % 2 == 1:
            # no sign slot can absorb the parity; trade one pair's mode
            moved = contained.pop()
            straddling.append(moved)
    return assemble_clan(n, contained, straddling, signs)


# flag-matrix strategies, shared by test_flags.py and test_validate_once.py
small_fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50))
irrational_elements = st.builds(QSqrt2, small_fractions, small_fractions.filter(bool))


def raw(rows):
    """Entries as (a, b) Fraction pairs, for the oracles."""
    return [[(e.a, e.b) for e in row] for row in rows]


def q_add(x, y):
    """x + y in Q(sqrt 2), by the oracles' arithmetic on (a, b) pairs."""
    return QSqrt2(*_q_add((x.a, x.b), (y.a, y.b)))


def q_mul(x, y):
    """x * y in Q(sqrt 2), by the oracles' arithmetic on (a, b) pairs."""
    return QSqrt2(*_q_mul((x.a, x.b), (y.a, y.b)))


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
    cols = [list(col) for col in zip(*matrix.rows)]
    for _ in range(draw(st.integers(1, 3))):
        op = draw(st.sampled_from(("swap", "negate", "add")))
        i, j = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        if op == "swap":
            cols[i], cols[j] = cols[j], cols[i]
        elif op == "negate":
            cols[i] = [-e for e in cols[i]]
        else:
            cols[j] = [q_add(e, f) for e, f in zip(cols[j], cols[i])]
    return from_columns(clan, cols)


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
        combination = [
            reduce(q_add, (q_mul(k, r[c]) for k, r in zip(coeffs, rows)), ZERO)
            for c in range(ncols)
        ]
        rows.insert(draw(st.integers(0, len(rows))), combination)
    return rows


@st.composite
def block_diagonal_matrices(draw):
    """Rows and columns of a block-diagonal matrix of 1-4 pieces, each 1-3
    rows by 1-3 columns of entries a + b*sqrt(2), b != 0, both permuted.
    In about half of the pieces of two or more rows, one row is a multiple
    of another, so the piece is singular. In about half the matrices a
    last row joins two pieces: a combination of a row of each (rank
    unchanged) or fresh entries in a column of each (most often rank one
    more)."""
    shape = st.tuples(st.integers(1, 3), st.integers(1, 3))
    shapes = draw(st.lists(shape, min_size=1, max_size=4))
    ncols = sum(c for _, c in shapes)
    pieces, start = [], 0
    for nrows, width in shapes:
        entries = st.lists(irrational_elements, min_size=width, max_size=width)
        piece = draw(st.lists(entries, min_size=nrows, max_size=nrows))
        if nrows > 1 and draw(st.booleans()):
            k = draw(irrational_elements)
            piece[-1] = [q_mul(k, e) for e in piece[0]]
        cols = range(start, start + width)
        pieces.append(
            [[row[c - start] if c in cols else ZERO for c in range(ncols)] for row in piece]
        )
        start += width
    rows = [row for piece in pieces for row in piece]
    order = draw(st.permutations(range(ncols)))
    rows = draw(st.permutations([[row[c] for c in order] for row in rows]))
    if len(pieces) > 1 and draw(st.booleans()):
        i, j = draw(st.lists(st.integers(0, len(pieces) - 1), min_size=2, max_size=2, unique=True))
        first, second = draw(st.sampled_from(pieces[i])), draw(st.sampled_from(pieces[j]))
        if draw(st.booleans()):
            h, k = draw(irrational_elements), draw(irrational_elements)
            join = [q_add(q_mul(h, e), q_mul(k, f)) for e, f in zip(first, second)]
        else:
            a = draw(st.sampled_from([c for c, e in enumerate(first) if e]))
            b = draw(st.sampled_from([c for c, e in enumerate(second) if e]))
            join = [draw(irrational_elements) if c in (a, b) else ZERO for c in range(ncols)]
        rows.append([join[c] for c in order])
    return rows
