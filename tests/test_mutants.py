"""Mutation guard: each mutant is one exact edit to a copy of the package,
and a named check must fail on it.

A mutant is (name, file, old text, new text, killer, why). The old text
must occur exactly once in the file, so a refactor that moves it fails the
mutant by name, to be re-aimed. Two kinds of killer:

- ``("verify", N, check)``: ``diii-clans verify N`` on the copy must
  exit 1 and print the ``FAIL`` line of the named check, never end with
  an error or a traceback;
- ``("pytest", selection)``: that pytest selection, run with the copy
  first on the import path, must report a failing test (exit code 1, not
  a collection or usage error).

Every mutant changes behaviour; ``why`` says how, so the table holds no
equivalent mutants.
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from diii_clans import verify

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diii_clans"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killer: tuple[str, ...]
    why: str


MUTANTS = (
    Mutant(
        "piece rank reads the columns past ncols",
        "flags.py",
        "        return len([row for row in rows if row and row[0][0] < ncols])\n",
        "        return len([row for row in rows if row])\n",
        ("pytest", "tests/test_flags.py::TestIntersection::test_reference_matrix_dimension"),
        "the row count then takes every nonempty row, so a row whose entries "
        "all lie in columns n..2n-1 adds 1 to the rank, and the lower-left "
        "block of the pinned +1212- matrix no longer has nullity 1",
    ),
    Mutant(
        "piece rank without its shared-column test",
        "flags.py",
        "    if len(set(columns)) == len(columns):\n",
        "    if True:\n",
        ("pytest", "tests/test_flags.py::TestPieceRank::test_a_later_row_merges_two_pieces"),
        "every nonempty row then adds 1 to the rank, so e1, e2, e1 + e2 ranks 3; "
        "no two rows of a representative's block share a column, so verify "
        "cannot see it",
    ),
    Mutant(
        "form target L^2 read as L",
        "flags.py",
        "    antidiagonal = (scale * scale, 0)\n",
        "    antidiagonal = (scale, 0)\n",
        ("verify", "3", "flags"),
        "H^T J H = L^2 J for H = L G; a clan with a family has L = 2, so its "
        "antidiagonal 4 no longer matches and +1212- fails the SO check",
    ),
    Mutant(
        "SO parity comparison flipped",
        "flags.py",
        "intersection_parity(matrix) == matrix.clan.n % 2",
        "intersection_parity(matrix) != matrix.clan.n % 2",
        ("verify", "3", "flags"),
        "every representative has det 1 and parity n mod 2, so each is then "
        "refused as not special orthogonal",
    ),
    Mutant(
        "form triangle made strict",
        "flags.py",
        "                    if b < a:\n",
        "                    if b <= a:\n",
        ("pytest", "tests/test_validate_once.py::TestFormCheck::test_table"),
        "an odd size's centre row, which pairs with itself, then forms no "
        "diagonal product, so its centre entry, on both diagonals, is touched "
        "only across the other row pairs and the 3 x 3 identity fails; an "
        "even size has no centre row, so verify cannot see it",
    ),
    Mutant(
        "diagonal product not doubled",
        "flags.py",
        "                    x, y, key = 2 * x, 2 * y, a * m + a\n",
        "                    key = a * m + a\n",
        ("pytest", "tests/test_validate_once.py::TestFormCheck::test_table"),
        "rows r and m-1-r each give (a, a) the product H[r][a] * H[m-1-r][a]; "
        "for an even size every diagonal entry must be 0, which halving alike "
        "keeps, so only an odd size's centre row tells: the 3 x 3 isometry "
        "whose entry (1, 1) is 2 * -1/2 from rows 1 and 3 plus 1 from the "
        "centre row then reads 1/2 and is refused",
    ),
    Mutant(
        "antidiagonal count read as m // 2",
        "flags.py",
        "    for a in range((m + 1) // 2):\n",
        "    for a in range(m // 2):\n",
        ("pytest", "tests/test_validate_once.py::TestFormCheck::test_table"),
        "for even m the two counts agree, so every representative still holds; "
        "an odd m has (m + 1) // 2 antidiagonal entries with a <= b, and the "
        "centre one, left among the entries that must be 0, fails [[1]] and "
        "the 3 x 3 antidiagonal",
    ),
    Mutant(
        "DIII decider accepts an antipodal mate",
        "clans.py",
        "                if q == m + 1 - p:\n",
        "                if False:\n",
        ("pytest", "tests/test_clans.py::TestDIIIConditions::test_antipodal_mates_rejected"),
        "a mate at the antipode agrees with its mirror, so the loop then "
        "remembers no antipodal position and 1221, whose two pairs are "
        "antipodal and not contained, passes; every clan verify builds is "
        "DIII, so it cannot see it",
    ),
    Mutant(
        "DIII decider's parity without its contained pairs",
        "clans.py",
        "        if (minus + contained) % 2 == 0:\n",
        "        if minus % 2 == 0:\n",
        ("pytest", "tests/test_clans.py::TestDIIIConditions::test_contained_pair_parity_counts"),
        "first-half parity counts minus signs and contained pairs; counting the "
        "signs alone lets 1122, with 0 minus signs and 1 contained pair, pass",
    ),
    Mutant(
        "tokenizer accepts label 0",
        "clans.py",
        "**{str(k): k for k in range(1, 100)}}",
        "**{str(k): k for k in range(0, 100)}}",
        ("pytest", "tests/test_clans.py::TestParsing::test_unknown_token_rejected"),
        "the token 0 becomes the label 0, so '+ 0 - +' raises a label count "
        "error, not 'unknown token'",
    ),
    Mutant(
        "flag shape test without its length half",
        "flags.py",
        "            and {*map(len, rows)} == {m}\n",
        "",
        ("pytest", "tests/test_flags.py::TestRepresentativeMatrix::test_constructor_refuses_wrong_shape"),
        "a tuple of m row tuples of other lengths is then a FlagMatrix, so the "
        "ragged ((1,), (0, 1)) for +- is no longer refused",
    ),
    Mutant(
        "orbit count without the 2 ways of a matched pair",
        "verify.py",
        "matchings * 2 ** k * 2 ** (p - 2 * k)",
        "matchings * 2 ** (p - 2 * k)",
        ("verify", "3", "rooks"),
        "sigma can map a matched pair of w0-orbits onto each other in 2 ways; "
        "counting 1 gives 5 placements of 4 rooks, not 2 D(2) = 6, so the "
        "rooks line fails at n = 2",
    ),
    Mutant(
        "clan recurrence with 2k - 3",
        "enumeration.py",
        "(2 * k - 2) * prev",
        "(2 * k - 3) * prev",
        ("verify", "3", "counting"),
        "D(3) becomes 2 * 3 + 3 * 1 = 9 against the formula's and the poset's "
        "10; of the checks, only counting reads the recurrence",
    ),
    Mutant(
        "sect size opens a pair at a plus",
        "sects.py",
        "            if sign == MINUS:\n                for k, w in enumerate(ways):",
        "            if True:\n                for k, w in enumerate(ways):",
        ("verify", "3", "sects"),
        "a pair opens only at a first-half minus; opening one at a plus too "
        "counts 2 members for the one-clan sect of ++-- at n = 2, so the sects "
        "check finds its parts' sizes differ from sect_sizes",
    ),
    Mutant(
        "partition pair rebuilt on its row's side",
        "pyramids.py",
        "LEFT if j in pair.left else RIGHT",
        "LEFT if i in pair.left else RIGHT",
        ("verify", "3", "partition-pairs"),
        "the two points of a two-point block lie on opposite sides, so its rook "
        "moves to the other side and the partition-pairs round trip fails at "
        "1212; a singleton block (i == j) is unchanged",
    ),
    Mutant(
        "partition pair check without its straddle test",
        "pyramids.py",
        "len(block) == 2 and (block <= left or block <= right)",
        "False",
        (
            "pytest",
            "tests/test_validate_once.py::TestMessagesKept::test_partition_pair"
            "[left10-right10-blocks10-block {1, 3} does not straddle the two-block partition]",
        ),
        "a two-point block inside one side is then let through, so {1, 3} | {2} "
        "with the blocks {1, 3} and {2} becomes a pair; every pair the package "
        "builds straddles, so verify cannot see it",
    ),
    Mutant(
        "pyramid cell test without its row <= col half",
        "pyramids.py",
        "            if not 1 <= row <= col:\n",
        "            if not 1 <= row:\n",
        ("pytest", "tests/test_validate_once.py::TestMessagesKept::test_pyramid[row-above-col]"),
        "a rook above the diagonal, such as (L,3,2), is then checked only for its "
        "coverage: in a pyramid of size 3 it covers 2 and 3 and is refused as "
        "leaving 1 uncovered, not as needing row <= col; every rook the package "
        "builds has row <= col, so verify cannot see it",
    ),
    Mutant(
        "Delannoy decode trades the middle after N",
        "delannoy.py",
        "            if outer == EAST:\n                _swap_middle(open_)\n",
        "            if outer == NORTH:\n                _swap_middle(open_)\n",
        ("verify", "3", "delannoy"),
        "the reduction trades the middle pair after a trailing plus, whose "
        "outer step is E; trading it after N puts later signs at the wrong "
        "positions, so decoding the valid path of +1212- writes one first-half "
        "minus and no contained pair, and path_to_clan's parity test raises "
        "PathError inside the Delannoy check, the one check that calls "
        "path_to_clan, which run_suite reports as that check's FAIL line",
    ),
    Mutant(
        "rank recurrence without its doubled middle term",
        "weak_order.py",
        "new[d] += window + (a[d - k + 1] if d >= k - 1 else 0)",
        "new[d] += window",
        ("verify", "3", "rank-polynomials"),
        "m_k has coefficient 2 on t^(k-1), the window giving only 1; without "
        "the extra A_(k-2) term A_3 is t^3+t^2+3t+4, one clan short of the "
        "poset's t^3+2t^2+3t+4, and nothing else in verify reads the recurrence",
    ),
    Mutant(
        "cover labelled by the mirrored reflection",
        "weak_order.py",
        "            labels.append(i)\n",
        "            labels.append(n + 1 - i)\n",
        ("verify", "3", "weak-order"),
        "each cover keeps its ends, so the poset builds and grades as before, "
        "but a cover by s_i reads as one by s_(n+1-i); at n = 3 s_1 and s_2, "
        "which braid, are read as s_3 and s_2, which must commute, so the "
        "commutation (2,3) fails",
    ),
    Mutant(
        "swap drops a mate's back-pointer",
        "weak_order.py",
        "            out[q - 1] = r\n",
        "            pass\n",
        ("verify", "3", "weak-order"),
        "the image key loses a mate's back-pointer: a moved end's partner still "
        "points at the position it left, so s_1 on +1212- (trading the sign at 1 "
        "with the end at 2) and s_3 on 1-12+2 (the one trade of 2 with 4 and 3 "
        "with 5) leave the DIII clans and the n = 3 poset build raises; "
        "run_suite then fails every check that reaches n = 3 with that message",
    ),
    Mutant(
        "path verdict stored without a scan",
        "delannoy.py",
        'object.__setattr__(self, "_verdict", _scan(steps))',
        'object.__setattr__(self, "_verdict", (True, None))',
        ("pytest", "tests/test_delannoy.py::TestValidation::test_reversed_middle_pair_fails_condition_4"),
        "the constructor stores the one verdict validate_path returns, so every "
        "path then passes, D:2 D:3 among them; verify builds only valid paths",
    ),
    Mutant(
        "assembled key's parity without its contained pairs",
        "enumeration.py",
        "    if (minus + len(contained_pairs)) % 2 != 0:\n",
        "    if minus % 2 != 0:\n",
        (
            "pytest",
            "tests/test_enumeration.py::TestAssembly::test_odd_parity_raises_the_diii_error",
        ),
        "first-half parity counts minus signs and contained pairs; counting the "
        "signs alone lets 0 minus signs and 1 contained pair through unrefused; "
        "every decode writes its key with the sect generator's writers, not "
        "through assemble_clan, so verify cannot see it",
    ),
    Mutant(
        "Delannoy decode's parity without its contained pairs",
        "delannoy.py",
        "    if (minus + contained) % 2:\n",
        "    if minus % 2:\n",
        ("verify", "3", "delannoy"),
        "first-half parity counts minus signs and contained pairs; counting the "
        "signs alone refuses the valid path of every clan with one of each, "
        "such as 1-12+2, so path_to_clan raises PathError inside the delannoy "
        "check",
    ),
    Mutant(
        "placement check's fast path without its antidiagonal test",
        "pyramids.py",
        " and [perm[m - v] for v in perm] == rows[::-1]",
        "",
        (
            "pytest",
            "tests/test_validate_once.py::TestMessagesKept::test_placement"
            "[perm6-placement is not symmetric across the antidiagonal]",
        ),
        "every involution then passes, so (2, 1, 3, 4), symmetric across the "
        "main diagonal only, becomes a RookPlacement; every placement the "
        "package builds is doubly symmetric, so verify cannot see it",
    ),
    Mutant(
        "suite's size range one short",
        "verify.py",
        "posets[:top]",
        "posets[: top - 1]",
        ("pytest", "tests/test_flags.py::test_check_flags_runs_to_seven"),
        "each check then stops one size below its cap or n, yet its PASS line "
        "still names that size, so verify 8 prints the same lines; the flags "
        "check, counted, runs at 1..6 and not 1..7",
    ),
    Mutant(
        "built matrix's dimension taken as n",
        "flags.py",
        '_block_dimension(form, self.clan.n))',
        'self.clan.n)',
        ("pytest", "tests/test_flags.py::TestSpecialOrthogonality::test_column_swap_breaks_it"),
        "a matrix from FlagMatrix(...) then has parity n mod 2 whatever its "
        "block, so a representative with two columns swapped, which keeps "
        "the form and has determinant -1, passes the SO check; a "
        "representative is built by _from_form, so verify cannot see it",
    ),
    Mutant(
        "Delannoy diagonal label one short",
        "delannoy.py",
        "head.append(len(open_) + 2 - j)",
        "head.append(len(open_) + 1 - j)",
        ("verify", "3", "delannoy"),
        "the first-half label of a diagonal pair drops by one, so its mirror "
        "no longer carries the complementary label: 1212 becomes D:2 D:2, not "
        "D:3 D:2; the path stores that verdict when it is built, and the "
        "delannoy check reads it",
    ),
    Mutant(
        "pyramid unfolding's last mirror one column short",
        "pyramids.py",
        "(m + 1 - r, m + 1 - c)):",
        "(m + 1 - r, m - c)):",
        ("verify", "3", "rooks"),
        "the rook mirrored across both diagonals lands one column left, so the "
        "n = 1 pyramid (L,1,1) unfolds to (2, 2), which the rooks check, "
        "rebuilding the unfolded perm through RookPlacement, refuses as not a "
        "permutation",
    ),
    Mutant(
        "rebuilt pyramid one size too large",
        "pyramids.py",
        "_unchecked(Pyramid, pair.n, frozenset(rooks))",
        "_unchecked(Pyramid, pair.n + 1, frozenset(rooks))",
        ("verify", "3", "partition-pairs"),
        "the pyramid rebuilt from a pair leaves its last index uncovered, which "
        "the Pyramid constructor would refuse; the map builds it unchecked, and "
        "the partition-pairs round trip compares it with the clan's pyramid",
    ),
    Mutant(
        "quarter turn one row short",
        "pyramids.py",
        "tuple(m + 1 - r for r in placement.perm)",
        "tuple(m - r for r in placement.perm)",
        ("verify", "3", "rooks"),
        "the turned board holds row 0 and misses row m, which the RookPlacement "
        "constructor would refuse; the map builds it unchecked, and decoding it "
        "inside the rooks check reads a rook in row 0, so the pyramid scan's "
        "cover count refuses it",
    ),
    Mutant(
        "partition pair leaves a right rook's row off the left side",
        "pyramids.py",
        "            other.add(row)\n",
        "            (other if side == LEFT else own).add(row)\n",
        ("verify", "3", "partition-pairs"),
        "an off-diagonal right rook's two points then both lie on the right, a "
        "block that does not straddle; the round trip reads only the side of a "
        "block's larger point, so it still closes, and only the partition-pairs "
        "check's rebuild through PartitionPair refuses the pair",
    ),
    Mutant(
        "pyramid scan without its cover count",
        "pyramids.py",
        "    if len(cells) + pairs != n or None in key:\n",
        "    if None in key:\n",
        (
            "pytest",
            "tests/test_pyramids.py::TestSingleDecode::"
            "test_decode_refuses_a_cover_that_is_not_exact",
        ),
        "an index covered twice can still leave no position empty, as the later "
        "write overwrites the earlier: (L,2,2) then (L,1,2) decodes to 1212; "
        "rooks from a checked pyramid or placement cover each index once, so "
        "verify cannot see it",
    ),
    Mutant(
        "record constructor skips __post_init__",
        "clans.py",
        "        self.__post_init__()\n",
        "",
        ("pytest", "tests/test_sects.py::TestPartialFPFInvolutions::test_validation"),
        "a record's fields are then set unchecked, so PartialFPFInvolution((1, 0)) "
        "builds a matching with a fixed point; every pfpf the package builds is "
        "valid, so verify cannot see it",
    ),
    Mutant(
        "pfpf decode reverses the base signs",
        "sects.py",
        "enumerate(_big_sect_signs(n), start=1)",
        "enumerate(reversed(_big_sect_signs(n)), start=1)",
        ("verify", "3", "sects"),
        "for odd n the base's plus at n moves to 1, which keeps the first-half "
        "parity, so an unmatched big-sect clan such as --+-++ decodes to a "
        "DIII clan of another sect and the sects check's pfpf round trip fails",
    ),
    Mutant(
        "flag row of a family's minus column left unwritten",
        "flags.py",
        "                scaled[r], scaled[s] = (sp, (q, 0, 1)), (sp, sq)\n",
        "                scaled[r] = (sp, (q, 0, 1))\n",
        ("verify", "3", "flags"),
        "when p < q, as in every first column pair of a family, row s gets no "
        "scaled entries, so the first clan with a mate pair (1212) leaves an "
        "empty row and representative_matrix raises ClanError in the flags check",
    ),
)


def test_every_verify_check_has_a_mutant():
    # one mutant per check, so a new check comes with a fault it must find
    killed = {m.killer[2] for m in MUTANTS if m.killer[0] == "verify"}
    assert set(verify.CHECK_NAMES) <= killed, set(verify.CHECK_NAMES) - killed


def mutated_copy(tmp_path: Path, mutant: Mutant) -> Path:
    """A copy of the package under ``tmp_path`` with the mutant's edit;
    returns the directory to put first on the import path."""
    shutil.copytree(PACKAGE, tmp_path / "diii_clans", ignore=shutil.ignore_patterns("__pycache__"))
    path = tmp_path / "diii_clans" / mutant.file
    text = path.read_text()
    count = text.count(mutant.old)
    assert count == 1, f"mutant {mutant.name!r}: old text found {count} times in {mutant.file}"
    path.write_text(text.replace(mutant.old, mutant.new))
    return tmp_path


def run(args: list[str], import_root: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(import_root), "PYTHONDONTWRITEBYTECODE": "1"}
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(tmp_path, mutant):
    root = mutated_copy(tmp_path, mutant)
    kind, target = mutant.killer[:2]
    if kind == "verify":
        done = run(["-m", "diii_clans.cli", "verify", target], root)
        failed = [line.split()[1] for line in done.stdout.splitlines() if line.startswith("FAIL ")]
        assert done.returncode == 1 and done.stderr == "" and mutant.killer[2] in failed, (
            f"mutant {mutant.name!r} survived verify {target}:\n{done.stdout}{done.stderr}"
        )
    else:
        # the ini's ``pythonpath`` would put the unmutated src/ first
        args = ["-m", "pytest", "-q", "-p", "no:cacheprovider", "-o", f"pythonpath={root}", target]
        done = run(args, root)
        assert done.returncode == 1, (
            f"mutant {mutant.name!r} survived {target} "
            f"(exit {done.returncode}):\n{done.stdout[-2000:]}"
        )
