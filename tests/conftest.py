import io
import sys
from collections import Counter
from pathlib import Path

from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).parent))

from diii_clans import Clan, DIIIClan, assemble_clan


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
    """Count, until ``monkeypatch.undo()``, every checked ``PyramidCell``
    and ``Pyramid`` built (one ``__post_init__`` each) and every scan of a
    path's steps by ``validate_path`` (``delannoy._scan``), under the keys
    ``"PyramidCell"``, ``"Pyramid"`` and ``"scan"``."""
    from diii_clans import delannoy, pyramids

    counts: Counter = Counter()
    for cls in (pyramids.PyramidCell, pyramids.Pyramid):

        def counting_check(self, check=cls.__post_init__, name=cls.__name__):
            counts[name] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting_check)
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
