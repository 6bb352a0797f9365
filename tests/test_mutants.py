"""Mutation guard: each mutant is one exact edit to a copy of the package,
and a named check must fail on it.

A mutant is (name, file, old text, new text, killer, why). The old text
must occur exactly once in the file, so a refactor that moves it fails the
mutant by name, to be re-aimed. Two kinds of killer:

- ``("verify", N)``: ``diii-clans verify N`` on the copy must print a
  line that is not ``PASS`` (a ``FAIL``), or end with the CLI's
  ``error:`` line, never with a traceback;
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

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "diii_clans"


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    killer: tuple[str, str]
    why: str


MUTANTS = (
    Mutant(
        "piece merge dropped",
        "flags.py",
        "                    parent[c] = root\n",
        "                    pass\n",
        ("pytest", "tests/test_flags.py::TestPieceRank::test_a_later_row_merges_two_pieces"),
        "rows that share a column stay in separate pieces, so a row joining two "
        "pieces counts 1 more though it depends on them: e1, e2, e1 + e2 ranks 3",
    ),
    Mutant(
        "one-column piece counted as its row count",
        "flags.py",
        "            rank += 1\n        else:\n",
        "            rank += len(piece)\n        else:\n",
        ("pytest", "tests/test_flags.py::TestPieceRank::test_a_one_column_piece_has_rank_one"),
        "k nonzero rows in one column have rank 1, not k; one-row pieces (all a "
        "representative has) are unchanged, so only a test matrix can catch it",
    ),
    Mutant(
        "form target L^2 read as L",
        "flags.py",
        "    antidiagonal = (scale * scale, 0)\n",
        "    antidiagonal = (scale, 0)\n",
        ("verify", "3"),
        "H^T J H = L^2 J for H = L G; a clan with a family has L = 2, so its "
        "antidiagonal 4 no longer matches and +1212- fails the SO check",
    ),
    Mutant(
        "SO parity comparison flipped",
        "flags.py",
        "intersection_parity(matrix) == matrix.clan.n % 2",
        "intersection_parity(matrix) != matrix.clan.n % 2",
        ("verify", "3"),
        "every representative has det 1 and parity n mod 2, so each is then "
        "refused as not special orthogonal",
    ),
    Mutant(
        "form triangle made strict",
        "flags.py",
        "                if b >= a:\n",
        "                if b > a:\n",
        ("pytest", "tests/test_validate_once.py::TestFormCheck::test_table"),
        "the diagonal of H^T J H is then never formed, so a form whose only "
        "defect is a diagonal entry holds, and an odd size's centre entry, "
        "on both diagonals, is never touched",
    ),
    Mutant(
        "antidiagonal count read as m // 2",
        "flags.py",
        "    return touched == (m + 1) // 2\n",
        "    return touched == m // 2\n",
        ("pytest", "tests/test_validate_once.py::TestFormCheck::test_table"),
        "for even m the two counts agree, so every representative still holds; "
        "an odd m has (m + 1) // 2 antidiagonal entries with a <= b, so [[1]] "
        "and the 3 x 3 antidiagonal fail",
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
        ("verify", "3"),
        "sigma can map a matched pair of w0-orbits onto each other in 2 ways; "
        "counting 1 gives 5 placements of 4 rooks, not 2 D(2) = 6, so the "
        "rooks line fails at n = 2",
    ),
    Mutant(
        "clan recurrence with 2k - 3",
        "enumeration.py",
        "(2 * k - 2) * prev",
        "(2 * k - 3) * prev",
        ("verify", "3"),
        "D(3) becomes 2 * 3 + 3 * 1 = 9 against the formula's and the poset's "
        "10; of the checks, only counting reads the recurrence",
    ),
    Mutant(
        "sect size opens a pair at a plus",
        "sects.py",
        "            if sign == MINUS:\n                for k, w in enumerate(ways):",
        "            if True:\n                for k, w in enumerate(ways):",
        ("verify", "3"),
        "a pair opens only at a first-half minus; opening one at a plus too "
        "counts 2 members for the one-clan sect of ++-- at n = 2, so the sects "
        "check finds its parts' sizes differ from sect_sizes",
    ),
    Mutant(
        "partition pair rebuilt on its row's side",
        "pyramids.py",
        "LEFT if j in pair.left else RIGHT",
        "LEFT if i in pair.left else RIGHT",
        ("verify", "3"),
        "the two points of a two-point block lie on opposite sides, so its rook "
        "moves to the other side and the partition-pairs round trip fails at "
        "1212; a singleton block (i == j) is unchanged",
    ),
    Mutant(
        "Delannoy decode trades the middle after N",
        "delannoy.py",
        "            if outer.direction == EAST:\n                _swap_middle(open_)\n",
        "            if outer.direction == NORTH:\n                _swap_middle(open_)\n",
        ("verify", "3"),
        "the reduction trades the middle pair after a trailing plus, whose "
        "outer step is E; trading it after N puts later signs at the wrong "
        "positions, and verify calls path_to_clan only in the Delannoy check, "
        "where decoding a valid path then raises ClanError (first-half parity)",
    ),
)


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
    kind, target = mutant.killer
    if kind == "verify":
        done = run(["-m", "diii_clans.cli", "verify", target], root)
        failed_line = any(not line.startswith("PASS") for line in done.stdout.splitlines())
        error_exit = done.returncode == 1 and done.stderr.startswith("error:")
        assert failed_line or error_exit, (
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
