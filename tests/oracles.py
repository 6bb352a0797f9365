"""Independent reference implementations used only by the tests.

Everything here works on raw tuples/ints and re-derives results from the
definitions, so the package under test never validates itself.
"""

from fractions import Fraction
from itertools import product


def canonical_raw(symbols):
    relabel, out = {}, []
    for s in symbols:
        if s in ("+", "-"):
            out.append(s)
        else:
            if s not in relabel:
                relabel[s] = len(relabel) + 1
            out.append(relabel[s])
    return tuple(out)


def raw_is_diii(t):
    """Literal transcription of the three defining conditions."""
    n = len(t) // 2
    rev_neg = tuple(
        ("-" if s == "+" else "+") if s in ("+", "-") else s for s in reversed(t)
    )
    if canonical_raw(rev_neg) != t:
        return False
    positions = {}
    for idx, s in enumerate(t):
        if s not in ("+", "-"):
            positions.setdefault(s, []).append(idx)
    for i, j in positions.values():
        if i + j == 2 * n - 1:  # 0-based antipodality
            return False
    minus = sum(1 for s in t[:n] if s == "-")
    contained = sum(1 for (i, j) in positions.values() if j <= n - 1)
    return (minus + contained) % 2 == 0


def raw_pair_data(t):
    """Mate pairs (in order of first position), the mate map, and the
    default signatures of a raw clan tuple, read off the positions of each
    label."""
    positions = {}
    for pos, s in enumerate(t, start=1):
        if s not in ("+", "-"):
            positions.setdefault(s, []).append(pos)
    pairs = sorted(tuple(p) for p in positions.values())
    mates = {}
    for i, j in pairs:
        mates[i], mates[j] = j, i
    signatures = tuple(
        s if s in ("+", "-") else ("-" if pos < mates[pos] else "+")
        for pos, s in enumerate(t, start=1)
    )
    return pairs, mates, signatures


def raw_length(t):
    """Weak-order length (sum of spreads - sum of weaves - z) / 2 of a raw
    clan tuple: a pair's spread is the distance between its mates, its
    weave counts pairs opening before it and closing strictly inside it,
    and z is half the number of pairs straddling the middle."""
    n = len(t) // 2
    pairs, _, _ = raw_pair_data(t)
    spread = sum(j - i for i, j in pairs)
    weave = sum(1 for i, j in pairs for u, v in pairs if u < i < v < j)
    z = sum(1 for i, j in pairs if i <= n < j) // 2
    return (spread - weave - z) // 2


def raw_reflection(i, t):
    """The i-th simple reflection on a raw canonical DIII tuple by the
    two-candidate filter: the position swap and, where the signs allow, the
    collapse into two fresh pairs; a candidate is kept when it is a DIII
    clan other than t, one longer than t. At most one may survive."""
    n = len(t) // 2
    if n == 1:
        return t
    m = 2 * n
    if i < n:
        (a, b), (c, d) = (i - 1, i), (m - i - 1, m - i)
        collapsible = {t[a], t[b]} == {"+", "-"}
    else:
        (a, b), (c, d) = (n - 2, n), (n - 1, n + 1)
        collapsible = t[n - 2 : n + 2] in (("+", "+", "-", "-"), ("-", "-", "+", "+"))
    swapped = list(t)
    swapped[a], swapped[b] = swapped[b], swapped[a]
    swapped[c], swapped[d] = swapped[d], swapped[c]
    candidates = [swapped]
    if collapsible:
        collapsed = list(t)
        collapsed[a] = collapsed[b] = m + 1
        collapsed[c] = collapsed[d] = m + 2
        candidates.append(collapsed)
    target = raw_length(t) + 1
    accepted = []
    for candidate in map(canonical_raw, candidates):
        if candidate != t and raw_is_diii(candidate) and raw_length(candidate) == target:
            accepted.append(candidate)
    assert len(accepted) <= 1, (i, t, accepted)
    return accepted[0] if accepted else t


def all_canonical_clans(n):
    """Every balanced (n,n)-clan in canonical form, by restricted growth."""
    out = []

    def rec(t, open_labels, next_label, plus, minus):
        if len(t) == 2 * n:
            if not open_labels and plus == minus:
                out.append(tuple(t))
            return
        if len(open_labels) > 2 * n - len(t):
            return
        if plus < n:
            t.append("+")
            rec(t, open_labels, next_label, plus + 1, minus)
            t.pop()
        if minus < n:
            t.append("-")
            rec(t, open_labels, next_label, plus, minus + 1)
            t.pop()
        if next_label <= n:
            t.append(next_label)
            open_labels.add(next_label)
            rec(t, open_labels, next_label + 1, plus, minus)
            open_labels.discard(next_label)
            t.pop()
        for lab in sorted(open_labels):
            t.append(lab)
            open_labels.discard(lab)
            rec(t, open_labels, next_label, plus, minus)
            open_labels.add(lab)
            t.pop()

    rec([], set(), 1, 0, 0)
    return out


def naive_diii(n):
    """All DIII (n,n)-clans as raw canonical tuples, by filter."""
    return [t for t in all_canonical_clans(n) if raw_is_diii(t)]


def raw_product_clans(n):
    """All canonical clans via blind products over the full alphabet;
    only feasible for tiny n, used to validate the restricted growth."""
    alphabet = ["+", "-"] + list(range(1, n + 1))
    seen = set()
    for tup in product(alphabet, repeat=2 * n):
        if tup.count("+") != tup.count("-"):
            continue
        labels = [s for s in tup if s not in ("+", "-")]
        if any(labels.count(x) != 2 for x in set(labels)):
            continue
        seen.add(canonical_raw(tup))
    return seen


def involutions(m):
    """One-line tuples of all involutions of {1..m}."""

    def rec(remaining, acc):
        if not remaining:
            yield dict(acc)
            return
        first, rest = remaining[0], remaining[1:]
        acc[first] = first
        yield from rec(rest, acc)
        del acc[first]
        for k, partner in enumerate(rest):
            acc[first], acc[partner] = partner, first
            yield from rec(rest[:k] + rest[k + 1 :], acc)
            del acc[first], acc[partner]

    for mapping in rec(tuple(range(1, m + 1)), {}):
        yield tuple(mapping[i] for i in range(1, m + 1))


def doubly_symmetric(m):
    """One-line tuples of every placement of m rooks symmetric across
    both main diagonals."""
    for perm in involutions(m):
        if all(perm[m - perm[i - 1]] == m + 1 - i for i in range(1, m + 1)):
            yield perm


def doubly_symmetric_count(m):
    return sum(1 for _ in doubly_symmetric(m))


def set_partitions(items):
    """All partitions of a list, as lists of blocks."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for sub in set_partitions(rest):
        for k in range(len(sub)):
            yield sub[:k] + [[first] + sub[k]] + sub[k + 1 :]
        yield [[first]] + sub


def minimally_intersecting_pairs(n):
    """All (two-block partition, any partition) pairs whose blockwise
    intersections are singletons or empty; normalized to frozensets."""
    items = list(range(1, n + 1))
    two_block = [p for p in set_partitions(items) if len(p) == 2]
    result = set()
    for p in two_block:
        blocks_p = [set(b) for b in p]
        for q in set_partitions(items):
            if all(
                len(set(bq) & bp) <= 1 for bq in q for bp in blocks_p
            ):
                result.add(
                    (
                        frozenset(frozenset(b) for b in p),
                        frozenset(frozenset(b) for b in q),
                    )
                )
    return result


def delannoy_direction_words(n):
    """All N/E/D direction strings from (0,0) to (n,n)."""
    out = []

    def rec(word, x, y):
        if x == n and y == n:
            out.append(tuple(word))
            return
        if x < n:
            word.append("E")
            rec(word, x + 1, y)
            word.pop()
        if y < n:
            word.append("N")
            rec(word, x, y + 1)
            word.pop()
        if x < n and y < n:
            word.append("D")
            rec(word, x + 1, y + 1)
            word.pop()

    rec([], 0, 0)
    return out


def candidate_weighted_words(n):
    """Every labeling of every direction word with diagonal labels in the
    loose range 2..2n+1, as step tokens (``"N"``, ``"E"`` or a diagonal
    step's int label); a complete superset of the valid words."""
    for dirs in delannoy_direction_words(n):
        d_positions = [k for k, d in enumerate(dirs) if d == "D"]
        for labels in product(range(2, 2 * n + 2), repeat=len(d_positions)):
            word = list(dirs)
            for pos, lab in zip(d_positions, labels):
                word[pos] = lab
            yield tuple(word)


def raw_flag_data(t):
    """The default permutation (one-line, 1-based) and the families of a
    raw clan tuple, from its pairs and signatures: sigma swaps i <= n with
    2n+1-i exactly when position i is signed ``-``, and each pair (i, j)
    with i < 2n+1-j heads the family (i, j, 2n+1-j, 2n+1-i), sorted."""
    pairs, _, signatures = raw_pair_data(t)
    m = len(t)
    sigma = list(range(1, m + 1))
    for i in range(1, m // 2 + 1):
        if signatures[i - 1] == "-":
            sigma[i - 1], sigma[m - i] = m + 1 - i, i
    families = sorted((i, j, m + 1 - j, m + 1 - i) for i, j in pairs if i < m + 1 - j)
    return sigma, families


def raw_delannoy_word(t):
    """The weighted Delannoy word of a raw clan tuple by the outer
    reduction, re-slicing the symbols at every step: a trailing sign s
    emits (N, E) for + and (E, N) for - at the two open ends and strips the
    outer symbols; a trailing number with its mate at 1-based position j of
    the 2m symbols left emits (D:2m+1-j, D:j) and strips positions 1, j,
    2m+1-j and 2m. A trailing +, or a mate past the middle, then trades
    the two middle symbols."""
    syms = list(t)
    head, tail = [], []
    while syms:
        m = len(syms) // 2
        last = syms[-1]
        if last in ("+", "-"):
            head.append("N" if last == "+" else "E")
            tail.append("E" if last == "+" else "N")
            syms = syms[1:-1]
            trade = last == "+"
        else:
            j = syms.index(last) + 1
            head.append(f"D:{2 * m + 1 - j}")
            tail.append(f"D:{j}")
            gone = (1, j, 2 * m + 1 - j, 2 * m)
            syms = [s for pos, s in enumerate(syms, start=1) if pos not in gone]
            trade = j > m
        if trade and syms:
            k = len(syms) // 2
            syms[k - 1], syms[k] = syms[k], syms[k - 1]
    return " ".join(head + tail[::-1])


def rank_polys_convolution(n_max):
    """Coefficient tuples of A_1 .. A_{n_max} from A_n = 2 A_{n-1} + m_n A_{n-2}
    by full polynomial products, where m_n has coefficient 1 on t^1..t^{2n-3}
    except 2 on t^{n-1}; A_1 = 1, A_2 = t + 2."""
    polys = [[1], [2, 1]]
    for k in range(3, n_max + 1):
        middle = [0] + [2 if e == k - 1 else 1 for e in range(1, 2 * k - 2)]
        older = polys[k - 3]
        prod = [0] * (len(middle) + len(older) - 1)
        for e, c in enumerate(middle):
            for f, d in enumerate(older):
                prod[e + f] += c * d
        for e, c in enumerate(polys[k - 2]):
            prod[e] += 2 * c
        polys.append(prod)
    return [tuple(p) for p in polys[:n_max]]


def rank_poly_by_choices(n_max):
    """Coefficient tuples of A_1 .. A_{n_max}, the clans of each size counted
    by length, from the sect generator's choices read as a dynamic program.

    The first of l free first-half positions keeps ``+`` or keeps ``-``
    (adding 0), or pairs with the k-th (0-based) of the other lr = l - 1:
    as a contained pair, using one ``-`` of the base and adding k + 1, or as
    a straddling pair, using two and adding 2 lr - 1 - k. ``P[l][e]`` sums
    t^(length added) over the choices for l positions that use a number of
    minus signs of parity e; A_n = P[n][0], an even base. The two parity
    states are kept apart and asserted equal for every l >= 1, the step that
    gives the recurrence A_n = 2 A_{n-1} + m_n A_{n-2}.
    """

    def add(target, poly, shift):
        target.extend([0] * (len(poly) + shift - len(target)))
        for d, c in enumerate(poly):
            target[d + shift] += c

    P = [([1], [0])]
    for l in range(1, n_max + 1):
        states = []
        for e in (0, 1):
            total = []
            add(total, P[l - 1][e], 0)  # keep +
            add(total, P[l - 1][1 - e], 0)  # keep -
            if l >= 2:
                lr = l - 1
                for k in range(lr):
                    add(total, P[l - 2][1 - e], k + 1)  # contained
                    add(total, P[l - 2][e], 2 * lr - 1 - k)  # straddling
            while len(total) > 1 and total[-1] == 0:
                total.pop()
            states.append(total)
        assert states[0] == states[1], l
        P.append(tuple(states))
    return [tuple(P[l][0]) for l in range(1, n_max + 1)]


# Q(sqrt 2) as raw (a, b) Fraction pairs meaning a + b*sqrt(2).
RAW_ZERO = (Fraction(0), Fraction(0))
RAW_ONE = (Fraction(1), Fraction(0))


def _q_add(x, y):
    return (x[0] + y[0], x[1] + y[1])


def _q_neg(x):
    return (-x[0], -x[1])


def _q_mul(x, y):
    return (x[0] * y[0] + 2 * x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _q_inverse(x):
    norm = x[0] * x[0] - 2 * x[1] * x[1]
    return (x[0] / norm, -x[1] / norm)


def _raw_matmul(a, b):
    out = []
    for row in a:
        out_row = []
        for c in range(len(b[0])):
            total = RAW_ZERO
            for k, e in enumerate(row):
                total = _q_add(total, _q_mul(e, b[k][c]))
            out_row.append(total)
        out.append(out_row)
    return out


def raw_antidiagonal(m):
    return [[RAW_ONE if r + c == m - 1 else RAW_ZERO for c in range(m)] for r in range(m)]


def raw_form(rows):
    """G^T J G, J the antidiagonal ones, by two dense products."""
    m = len(rows)
    transposed = [[rows[c][r] for c in range(m)] for r in range(m)]
    return _raw_matmul(_raw_matmul(transposed, raw_antidiagonal(m)), rows)


def raw_rank_and_determinant(rows):
    """Rank and (for a square matrix) determinant by Gaussian elimination."""
    work = [list(row) for row in rows]
    ncols = len(work[0]) if work else 0
    rank, det = 0, RAW_ONE
    for col in range(ncols):
        pivot_row = next((r for r in range(rank, len(work)) if work[r][col] != RAW_ZERO), None)
        if pivot_row is None:
            det = RAW_ZERO
            continue
        if pivot_row != rank:
            work[rank], work[pivot_row] = work[pivot_row], work[rank]
            det = _q_neg(det)
        det = _q_mul(det, work[rank][col])
        inv = _q_inverse(work[rank][col])
        for r in range(rank + 1, len(work)):
            factor = _q_neg(_q_mul(work[r][col], inv))
            work[r] = [_q_add(e, _q_mul(factor, p)) for e, p in zip(work[r], work[rank])]
        rank += 1
    return rank, det


def raw_is_special_orthogonal(rows):
    """G^T J G == J and det G == 1."""
    return raw_form(rows) == raw_antidiagonal(len(rows)) and (
        raw_rank_and_determinant(rows)[1] == RAW_ONE
    )


def raw_stacked_intersection(rows):
    """For a 2n x 2n matrix: 2n minus the rank of its first n columns
    stacked over the basis rows e_1..e_n. When those columns are
    independent, this is the dimension of the meet of their span with the
    span of e_1..e_n."""
    m = len(rows)
    n = m // 2
    stacked = [[rows[r][c] for r in range(m)] for c in range(n)]
    stacked += [[RAW_ONE if k == r else RAW_ZERO for k in range(m)] for r in range(n)]
    return 2 * n - raw_rank_and_determinant(stacked)[0]
