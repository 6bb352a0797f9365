"""Independent model of DIII (n,n)-clans for the benchmark.

The benchmark draws its inputs here and checks the program's outputs
against this model. Nothing in this file imports ``diii_clans``: the
generator, the counts and the validity and length checks are re-derived
from the definitions, so a route under test never vouches for itself.

A clan is a tuple of symbols: ``"+"``, ``"-"`` or a positive int label.
Labels are canonical, numbered 1..k by first occurrence.
"""

from __future__ import annotations

import random
from itertools import combinations, product
from math import comb, factorial

PLUS = "+"
MINUS = "-"
#: D(n) for n = 1..7, as published with the package.
KNOWN_COUNTS = (1, 3, 10, 38, 156, 692, 3256)


def canonical(symbols) -> tuple:
    relabel: dict = {}
    out = []
    for s in symbols:
        if s == PLUS or s == MINUS:
            out.append(s)
        else:
            out.append(relabel.setdefault(s, len(relabel) + 1))
    return tuple(out)


def parse(text: str) -> tuple:
    """Compact (one character per symbol) or spaced text to a canonical clan."""
    tokens = text.split() if any(ch.isspace() for ch in text.strip()) else list(text.strip())
    symbols = []
    for tok in tokens:
        if tok in (PLUS, MINUS):
            symbols.append(tok)
        elif tok.isdigit() and int(tok) >= 1:
            symbols.append(int(tok))
        else:
            raise ValueError(f"unknown token {tok!r} in {text!r}")
    return canonical(symbols)


def spaced(clan: tuple) -> str:
    return " ".join(str(s) for s in clan)


def pairs(clan: tuple) -> list[tuple[int, int]]:
    """1-based mate positions (i, j), i < j, in label order."""
    first: dict = {}
    out = []
    for pos, s in enumerate(clan, start=1):
        if s != PLUS and s != MINUS:
            if s in first:
                out.append((first[s], pos))
            else:
                first[s] = pos
    return out


def violation(clan: tuple) -> str | None:
    """The first broken condition of a DIII (n,n)-clan, or None."""
    m = len(clan)
    if m == 0 or m % 2:
        return "odd or empty length"
    n = m // 2
    if clan != canonical(clan):
        return "labels not canonical"
    if clan.count(PLUS) != clan.count(MINUS):
        return "unbalanced signs"
    mates = pairs(clan)
    if 2 * len(mates) != m - clan.count(PLUS) - clan.count(MINUS):
        return "a label does not appear exactly twice"
    flipped = [MINUS if s == PLUS else PLUS if s == MINUS else s for s in reversed(clan)]
    if canonical(flipped) != clan:
        return "not skew-symmetric"
    if any(i + j == m + 1 for i, j in mates):
        return "antipodal mates"
    contained = sum(1 for _, j in mates if j <= n)
    if (clan[:n].count(MINUS) + contained) % 2:
        return "odd first-half parity"
    return None


def length(clan: tuple) -> int:
    """((sum of spreads) - (sum of weaves) - z) / 2."""
    n = len(clan) // 2
    ps = pairs(clan)
    spread = sum(j - i for i, j in ps)
    weave = sum(1 for i, j in ps for u, t in ps if u < i < t < j)
    z = sum(1 for i, j in ps if i <= n < j) // 2
    return (spread - weave - z) // 2


def signatures(clan: tuple) -> tuple:
    """Signs stay; the first mate of a pair reads ``-`` and the second ``+``."""
    seen = set()
    out = []
    for s in clan:
        if s == PLUS or s == MINUS:
            out.append(s)
        elif s in seen:
            out.append(PLUS)
        else:
            seen.add(s)
            out.append(MINUS)
    return tuple(out)


def count(n: int) -> int:
    """D(n) by D(n) = 2 D(n-1) + (2n-2) D(n-2) from D(1) = 1, D(2) = 3."""
    if n < 2:
        return 1
    prev, cur = 1, 3
    for k in range(3, n + 1):
        prev, cur = cur, 2 * cur + (2 * k - 2) * prev
    return cur


def involutions(n: int) -> int:
    """e(n) = e(n-1) + (n-1) e(n-2): the size of the big sect."""
    prev, cur = 1, 1
    for k in range(2, n + 1):
        prev, cur = cur, cur + (k - 1) * prev
    return cur


def pair_weights(n: int) -> list[int]:
    """Number of clans with r mate pairs in the first half, for r = 0..n//2:
    C(n, 2r) (2r)!/r! 2^(n-2r-1), halved exactly when n = 2r."""
    return [
        comb(n, 2 * r) * factorial(2 * r) // factorial(r) * 2 ** (n - 2 * r) // 2
        for r in range(n // 2 + 1)
    ]


def assemble(n: int, contained, straddling, signs: dict) -> tuple:
    """First-half data to a clan; the second half follows by skew-symmetry."""
    syms: list = [None] * (2 * n)
    label = 0
    for (i, j), straddles in [(p, False) for p in contained] + [(p, True) for p in straddling]:
        first = ((i, 2 * n + 1 - j), (j, 2 * n + 1 - i)) if straddles else (
            (i, j), (2 * n + 1 - j, 2 * n + 1 - i))
        for p, q in first:
            label += 1
            syms[p - 1] = syms[q - 1] = label
    for pos, sign in signs.items():
        syms[pos - 1] = sign
        syms[2 * n - pos] = MINUS if sign == PLUS else PLUS
    return canonical(syms)


def sample(rng: random.Random, n: int) -> tuple:
    """A uniform DIII (n,n)-clan: r by its share of clans, then uniform
    positions, matching, modes and signs of the right parity."""
    weights = pair_weights(n)
    pick = rng.randrange(sum(weights))
    r = 0
    while pick >= weights[r]:
        pick -= weights[r]
        r += 1
    chosen = rng.sample(range(1, n + 1), 2 * r)
    matching = [tuple(sorted(chosen[2 * k: 2 * k + 2])) for k in range(r)]
    slots = sorted(set(range(1, n + 1)) - set(chosen))
    modes = [rng.getrandbits(1) for _ in range(r)]
    if slots:
        signs = [rng.choice((PLUS, MINUS)) for _ in slots[:-1]]
        parity = (signs.count(MINUS) + sum(modes)) % 2
        signs.append(MINUS if parity else PLUS)
    else:
        signs = []
        modes[-1] = sum(modes[:-1]) % 2
    contained = [p for p, b in zip(matching, modes) if b]
    straddling = [p for p, b in zip(matching, modes) if not b]
    return assemble(n, contained, straddling, dict(zip(slots, signs)))


def sample_big_sect(rng: random.Random, n: int) -> tuple:
    """A uniform clan of the big sect for even n: a uniform involution of
    1..n whose 2-cycles (i, j) become the straddling pairs (i, 2n+1-j) and
    (j, 2n+1-i) and whose fixed points become minus signs."""
    if n % 2:
        raise ValueError("big-sect sampling is defined here for even n only")
    rest = list(range(1, n + 1))
    blocks = []
    while rest:
        i = rest.pop(0)
        if rng.randrange(involutions(len(rest) + 1)) < involutions(len(rest)):
            continue
        j = rest.pop(rng.randrange(len(rest)))
        blocks.append((i, j))
    fixed = set(range(1, n + 1)) - {p for b in blocks for p in b}
    return assemble(n, [], blocks, {p: MINUS for p in fixed})


def big_sect_base(n: int) -> tuple:
    return (MINUS,) * n + (PLUS,) * n


def constructed(n: int) -> set[tuple]:
    """Every clan the sampler can return, by running over all its choices."""
    out = set()

    def matchings(items):
        if not items:
            yield []
            return
        for k in range(1, len(items)):
            for rest in matchings(items[1:k] + items[k + 1:]):
                yield [(items[0], items[k])] + rest

    for r in range(n // 2 + 1):
        for chosen in combinations(range(1, n + 1), 2 * r):
            slots = [p for p in range(1, n + 1) if p not in chosen]
            for matching in matchings(list(chosen)):
                for modes in product((0, 1), repeat=r):
                    for signs in product((PLUS, MINUS), repeat=len(slots)):
                        if (signs.count(MINUS) + sum(modes)) % 2 == 0:
                            out.add(assemble(
                                n,
                                [p for p, b in zip(matching, modes) if b],
                                [p for p, b in zip(matching, modes) if not b],
                                dict(zip(slots, signs)),
                            ))
    return out


def brute_force(n: int) -> set[tuple]:
    """Every DIII (n,n)-clan, by filtering all canonical sign/label strings."""
    out = set()

    def rec(t, open_labels, next_label):
        if len(t) == 2 * n:
            if not open_labels and violation(tuple(t)) is None:
                out.add(tuple(t))
            return
        if len(open_labels) > 2 * n - len(t):
            return
        for s in (PLUS, MINUS, *open_labels):
            t.append(s)
            rec(t, open_labels - {s}, next_label)
            t.pop()
        t.append(next_label)
        rec(t, open_labels | {next_label}, next_label + 1)
        t.pop()

    rec([], frozenset(), 1)
    return out


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise RuntimeError(f"generator self-check failed: {what}")


def selfcheck() -> None:
    """Raise RuntimeError unless the generator matches the known counts
    and covers the exhaustive sets; the seed is fixed, so this is exact."""
    rng = random.Random("clanbench-selfcheck")
    for n, expected in enumerate(KNOWN_COUNTS, start=1):
        _require(count(n) == sum(pair_weights(n)) == expected, f"count n={n}")
        made = constructed(n)
        _require(len(made) == expected, f"constructed n={n}: {len(made)}")
        _require(all(violation(c) is None for c in made), f"invalid clan n={n}")
        if n <= 4:
            _require(made == brute_force(n), f"coverage n={n}")
            drawn = {sample(rng, n) for _ in range(40 * expected)}
            _require(drawn == made, f"sampler misses clans at n={n}")
    for n in (2, 4, 6):
        big = {sample_big_sect(rng, n) for _ in range(60 * involutions(n))}
        _require(len(big) == involutions(n), f"big sect n={n}")
        _require(all(violation(c) is None and signatures(c) == big_sect_base(n) for c in big), f"big sect n={n}")
    freq: dict = {}
    for _ in range(5000):
        c = sample(rng, 3)
        freq[c] = freq.get(c, 0) + 1
    _require(all(400 <= v <= 600 for v in freq.values()), f"sampler not uniform: {freq}")
