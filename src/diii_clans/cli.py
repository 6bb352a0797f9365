"""Command-line interface.

The grammar is declared once, in ``_COMMANDS`` (with the top-level
``--threads`` in ``_GLOBAL``): each command's help text and its arguments,
as the keyword arguments of ``add_argument``.  ``main`` reads ``argv``
against that table in one pass (``_read_argv``) into the values argparse
would return.  Only for what the pass does not accept, help (``-h``), an
abbreviated option and every usage error, does ``main`` import argparse
and build its parser from the same table, so help text and usage errors
come from argparse, with exit status 2.  Loading argparse and building
that parser cost more than most commands' work; the common path does
neither.

Data errors print a message to stderr and exit with status 1, and so does
a reader that closes stdout early, with no message.  Output is
deterministic: every listing is sorted before emission, and long listings
(``enumerate``, ``poset``) are written in batches rather than as one
string.  A clan text may start with ``-`` (``length --++``): a token made
of signs and digits is read as data, never as an option.  Size and index
arguments are ASCII digits with an optional leading ``-`` (``_int``).
``convert --from pfpf`` refuses ``--n`` above ``_PFPF_MAX_N``.

``main`` finds a command's handler, ``_cmd_<command>`` with ``-`` read as
``_``, by its module attribute.  Each handler imports the functions it
calls when it runs, and ``json`` only where a command reads or writes
JSON, so start-up loads no module a command does not use (``count``
never loads ``flags``, ``fractions`` or ``argparse``).
``verify`` is imported here, at the top: a tracer that wraps the
package's functions from outside finds the modules in ``sys.modules``.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterator, Sequence

from .clans import ClanError, ascii_int, parse_diii, text_from_spaced, write_joined
from .verify import run_suite

if TYPE_CHECKING:
    import argparse


#: A clan text (or payload) that argparse would read as an option: a
#: ``-`` followed by nothing but signs and digits, ``--`` itself excepted.
_DASHED_TEXT = re.compile(r"-[-+0-9]+")


def _int(text: str) -> int:
    """A size or index argument: ASCII digits (``ascii_int``) with an
    optional leading ``-``.  ``int`` alone would also read ``+5``, `` 5``,
    ``1_0`` and other scripts' digits (``٥``); a refused one loads argparse."""
    negative = text.startswith("-")
    value = ascii_int(text[1:] if negative else text)
    if value is None:
        import argparse
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return -value if negative else value


class _Arg:
    """One ``add_argument`` call: a positional's name or an option's flag,
    and its keyword arguments; ``exclusive`` puts it in its command's one
    required mutually exclusive group."""

    __slots__ = ("name", "kwargs", "exclusive")

    def __init__(self, name: str, exclusive: bool = False, **kwargs):
        self.name, self.kwargs, self.exclusive = name, kwargs, exclusive

    @property
    def dest(self) -> str:
        return self.kwargs.get("dest", self.name.lstrip("-").replace("-", "_"))

    @property
    def default(self):
        if self.kwargs.get("action") == "store_true":
            return False
        return self.kwargs.get("default")


_GLOBAL = (
    _Arg(
        "--threads",
        type=_int,
        default=1,
        metavar="K",
        help="cap on worker parallelism (the current implementation is "
        "serial; results are identical for any K >= 1)",
    ),
)

#: Each command's help text and arguments, in ``add_argument`` order.
_COMMANDS: dict[str, tuple[str, tuple[_Arg, ...]]] = {
    "count": ("number of DIII (n,n)-clans", (_Arg("n", type=_int),)),
    "enumerate": (
        "list all DIII (n,n)-clans",
        (
            _Arg("n", type=_int),
            _Arg("--format", choices=("compact", "spaced", "json"), default="compact"),
        ),
    ),
    "length": ("length of a clan in the weak order", (_Arg("clan"),)),
    "act": ("apply the i-th simple reflection", (_Arg("i", type=_int), _Arg("clan"))),
    "poset": (
        "weak order poset",
        (_Arg("n", type=_int), _Arg("--format", choices=("dot", "json"), default="dot")),
    ),
    "rank-poly": (
        "rank polynomial of the weak order",
        (
            _Arg("n", type=_int),
            _Arg("--method", choices=("poset", "recurrence", "both"), default="recurrence"),
        ),
    ),
    "sects": (
        "partition of the clans by base clan",
        (_Arg("n", type=_int), _Arg("--sizes-only", action="store_true")),
    ),
    "big-sect": ("the sect over the dense cell", (_Arg("n", type=_int),)),
    "convert": (
        "bijections to and from other objects",
        (
            _Arg(
                "--to",
                exclusive=True,
                choices=("pyramid", "rooks", "partitions", "delannoy", "pfpf"),
            ),
            _Arg(
                "--from",
                exclusive=True,
                dest="source",
                choices=("pyramid", "rooks", "delannoy", "pfpf"),
            ),
            _Arg("--n", dest="half_length", type=_int, help="half-length for --from pfpf"),
            _Arg("payload", help="clan text, JSON, step word, or i:j map"),
        ),
    ),
    "flag": (
        "exact representative flag matrix",
        (_Arg("clan"), _Arg("--format", choices=("pretty", "json"), default="pretty")),
    ),
    "verify": ("run the consistency suite through size n", (_Arg("n", type=_int),)),
}


def _is_value(token: str) -> bool:
    """Whether the table pass reads ``token`` as a value.  argparse reads
    each such token as a value too; the few other tokens it reads as values
    (``-``, ``-1.5``, a dashed token with a space) make the pass defer."""
    return not token.startswith("-") or (token != "--" and bool(_DASHED_TEXT.fullmatch(token)))


def _store(arg: _Arg, text: str, values: dict) -> bool:
    """Convert and check ``text`` as argparse would, into ``values``."""
    convert = arg.kwargs.get("type")
    try:
        value = text if convert is None else convert(text)
    except Exception as exc:  # _int's refusal, whose failure path loaded argparse
        if not isinstance(exc, sys.modules["argparse"].ArgumentTypeError):
            raise
        return False
    choices = arg.kwargs.get("choices")
    if choices is not None and value not in choices:
        return False
    values[arg.dest] = value
    return True


def _read_option(
    args: tuple[_Arg, ...], token: str, tokens: Iterator[str], values: dict
) -> _Arg | None:
    """Read ``token`` as one of ``args``' options, exactly as spelled, with
    its value after ``=`` or in the next token, into ``values``."""
    flag, eq, text = token.partition("=")
    arg = next((a for a in args if a.name == flag), None)
    if arg is None:
        return None
    if arg.kwargs.get("action") == "store_true":
        if eq:
            return None
        values[arg.dest] = True
        return arg
    if not eq:
        text = next(tokens, None)
        if text is None or not _is_value(text):
            return None
    return arg if _store(arg, text, values) else None


def _read_argv(argv: list[str]) -> SimpleNamespace | None:
    """The namespace ``_build_parser().parse_args(argv)`` returns, read off
    the table in one pass; None for help, an abbreviated or unknown option,
    a usage error, or any argv the pass does not read, which argparse then
    parses itself.

    Before the command come only ``_GLOBAL``'s options.  After it, a token
    is one of the command's options, a value (``_is_value``: a dashed clan
    text included), or the ``--`` that makes every later token a value."""
    values = {a.dest: a.default for a in _GLOBAL}
    tokens = iter(argv)
    for token in tokens:
        if token in _COMMANDS:
            command = token
            break
        if _read_option(_GLOBAL, token, tokens, values) is None:
            return None
    else:
        return None
    args = _COMMANDS[command][1]
    values["command"] = command
    values.update((a.dest, a.default) for a in args)
    positionals = [a for a in args if not a.name.startswith("-")]
    texts: list[str] = []
    chosen = set()
    for token in tokens:
        if token == "--" and len(texts) < len(positionals):
            texts.extend(tokens)  # the rest, to the end
        elif _is_value(token):
            texts.append(token)
        else:
            arg = _read_option(args, token, tokens, values)
            if arg is None:
                return None
            if arg.exclusive:
                chosen.add(arg.name)
    if any(a.exclusive for a in args) and len(chosen) != 1:
        return None
    if len(texts) != len(positionals):
        return None
    if not all(_store(a, t, values) for a, t in zip(positionals, texts)):
        return None
    return SimpleNamespace(**values)


def _add_arguments(parser: argparse.ArgumentParser, args: tuple[_Arg, ...]) -> None:
    group = None
    for arg in args:
        target = parser
        if arg.exclusive:
            group = group or parser.add_mutually_exclusive_group(required=True)
            target = group
        target.add_argument(arg.name, **arg.kwargs)


def _build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the table, for help and usage errors only."""
    import argparse

    class _Parser(argparse.ArgumentParser):
        """An argument parser that reads a dashed clan text such as ``-+`` as a
        positional value, as it reads a negative number, while every real
        option still parses on either side of it, and reads a lone ``--``
        value as data. Its subparsers are of this class too."""

        def _parse_optional(self, arg_string):
            if (
                arg_string != "--"
                and arg_string not in self._option_string_actions
                and _DASHED_TEXT.fullmatch(arg_string)
            ):
                return None
            return super()._parse_optional(arg_string)

        def _get_values(self, action, arg_strings):
            # a lone "--" here is data: a value after the separator, or an
            # option's "=--".  argparse would strip it as a separator and store
            # an empty list
            if action.nargs is None and arg_strings == ["--"]:
                value = self._get_value(action, "--")
                self._check_value(action, value)
                return value
            return super()._get_values(action, arg_strings)

    parser = _Parser(
        prog="diii-clans",
        description="DIII (n,n)-clan combinatorics: counting, weak order, "
        "sects, bijections, and exact flag matrices.",
    )
    _add_arguments(parser, _GLOBAL)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, args) in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=help_text), args)
    return parser


def _positive(n: int, what: str = "n") -> int:
    if n < 1:
        raise ClanError(f"{what} must be a positive integer, got {n}")
    return n


#: Below 640, the smallest int/str digit limit the interpreter accepts.
_CHUNK_DIGITS = 600


def _decimal(value: int) -> str:
    """Decimal text of a nonnegative int of any size, converted in chunks
    of ``_CHUNK_DIGITS`` digits so the int/str digit limit never applies."""
    chunk = 10**_CHUNK_DIGITS
    parts = []
    while value >= chunk:
        value, low = divmod(value, chunk)
        parts.append(f"{low:0{_CHUNK_DIGITS}d}")
    return str(value) + "".join(reversed(parts))


def _cmd_count(args) -> int:
    from .enumeration import count_recurrence

    print(_decimal(count_recurrence(args.n)))
    return 0


def _cmd_enumerate(args) -> int:
    from .enumeration import enumerate_diii

    n = _positive(args.n)
    if args.format == "compact" and n >= 10:
        # size n has clans with n labels, rounded down to even: 10 at n = 10
        raise ClanError(
            f"compact form lists n <= 9 only (size {n} has clans with more "
            "than 9 labels); use --format spaced or --format json"
        )
    texts = enumerate_diii(n).texts  # spaced; with n <= 9, one character a label
    out = sys.stdout
    if args.format == "json":
        # the bytes of json.dumps: a spaced text is signs, digits and spaces
        out.write("[")
        write_joined(out, (f'"{t}"' for t in texts), ", ")
        out.write("]\n")
    else:
        if args.format == "compact":
            texts = (t.replace(" ", "") for t in texts)
        write_joined(out, texts, "\n")
        out.write("\n")
    return 0


def _cmd_length(args) -> int:
    from .weak_order import clan_length

    print(clan_length(parse_diii(args.clan)).length)
    return 0


def _cmd_act(args) -> int:
    from .weak_order import apply_reflection

    print(apply_reflection(args.i, parse_diii(args.clan)).text())
    return 0


def _cmd_poset(args) -> int:
    from .weak_order import weak_order_poset

    poset = weak_order_poset(_positive(args.n))
    write = poset.write_dot if args.format == "dot" else poset.write_json
    write(sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_rank_poly(args) -> int:
    from .weak_order import rank_poly_recurrence, rank_polynomial, weak_order_poset

    n = _positive(args.n)
    if args.method in ("recurrence", "both"):
        from_rec = rank_poly_recurrence(n)
    if args.method in ("poset", "both"):
        from_poset = rank_polynomial(weak_order_poset(n))
    if args.method == "recurrence":
        print(from_rec)
    elif args.method == "poset":
        print(from_poset)
    else:
        print(f"poset:      {from_poset}")
        print(f"recurrence: {from_rec}")
        if from_poset.coeffs != from_rec.coeffs:
            raise ClanError("rank polynomials disagree")
    return 0


def _cmd_sects(args) -> int:
    from .sects import sect_sizes, sects

    n = _positive(args.n)
    if args.sizes_only:
        for base, size in sect_sizes(n):
            print(f"{base} {size}")
        return 0
    for sect in sects(n):
        members = " ".join(map(text_from_spaced, sect.clans.texts))
        print(f"{''.join(sect.base_key)}: {members}")  # a base key is all signs
    return 0


def _cmd_big_sect(args) -> int:
    from .sects import big_sect

    sect = big_sect(_positive(args.n))
    print(f"base: {''.join(sect.base_key)}")
    print(f"size: {len(sect)}")
    for text in sect.clans.texts:
        print(text_from_spaced(text))
    return 0


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """One JSON object's members as a dict; a key given twice raises
    ``ClanError``, where ``json.loads`` would keep the last value."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ClanError(f"key {key!r} given twice")
        data[key] = value
    return data


def _json_int(text: str) -> int:
    """A JSON integer literal's value; one of more digits than the
    interpreter converts raises ``ClanError``, naming both counts."""
    digits = len(text) - text.startswith("-")
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit and digits > limit:
        raise ClanError(f"an integer of {digits} digits is past the limit of {limit} digits")
    return int(text)


def _parse_json(payload: str):
    import json

    # ValueError covers JSONDecodeError, and a key given twice or an
    # over-long integer (ClanError)
    try:
        return json.loads(payload, object_pairs_hook=_unique_keys, parse_int=_json_int)
    except (ValueError, RecursionError) as exc:
        raise ClanError(f"bad JSON payload: {exc}") from None


#: The largest ``--n`` of ``convert --from pfpf``, refused above before
#: anything is allocated: the decoder holds a list of n entries and the
#: clan 2n signs.  At the cap a whole conversion takes about 0.4 s and
#: 40 MB (a full payload of n/2 blocks, in process, on a 2-vCPU host under
#: Python 3.11); time and memory grow linearly with n.
_PFPF_MAX_N = 100_000


def _cmd_convert(args) -> int:
    import json

    from .delannoy import WeightedDelannoyPath, clan_to_path, path_to_clan
    from .pyramids import (
        Pyramid,
        RookPlacement,
        clan_to_pyramid,
        placement_to_clan,
        pyramid_to_clan,
        pyramid_to_partition_pair,
        pyramid_to_placement,
    )
    from .sects import PartialFPFInvolution, clan_to_pfpf, pfpf_to_clan

    if args.to is not None:
        clan = parse_diii(args.payload)
        if args.to == "pyramid":
            print(json.dumps(clan_to_pyramid(clan).to_json_dict()))
        elif args.to == "rooks":
            print(json.dumps(pyramid_to_placement(clan_to_pyramid(clan)).to_json_dict()))
        elif args.to == "partitions":
            print(json.dumps(pyramid_to_partition_pair(clan_to_pyramid(clan)).to_json_dict()))
        elif args.to == "delannoy":
            print(clan_to_path(clan).to_word())
        else:
            print(clan_to_pfpf(clan).to_text())
        return 0
    if args.source == "pyramid":
        print(pyramid_to_clan(Pyramid.from_json_dict(_parse_json(args.payload))).text())
    elif args.source == "rooks":
        print(placement_to_clan(RookPlacement.from_json_dict(_parse_json(args.payload))).text())
    elif args.source == "delannoy":
        print(path_to_clan(WeightedDelannoyPath.from_word(args.payload)).text())
    else:
        if args.half_length is None:
            raise ClanError("--from pfpf requires --n")
        n = _positive(args.half_length)
        if n > _PFPF_MAX_N:
            raise ClanError(f"--n is at most {_PFPF_MAX_N} for --from pfpf, got {n}")
        print(pfpf_to_clan(PartialFPFInvolution.from_text(args.payload, n), n).text())
    return 0


def _cmd_flag(args) -> int:
    from .flags import representative_matrix

    matrix = representative_matrix(parse_diii(args.clan))
    if args.format == "pretty":
        matrix.write_pretty(sys.stdout)
    else:
        matrix.write_json(sys.stdout)
    return 0


def _cmd_verify(args) -> int:
    results = run_suite(_positive(args.n))
    width = max(len(r.name) for r in results)
    failed = False
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name.ljust(width)}  {r.detail}")
        failed = failed or not r.passed
    return 1 if failed else 0


def main(argv: Sequence[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _read_argv(argv)
    if args is None:
        args = _build_parser().parse_args(argv)
    if args.threads < 1:
        _build_parser().error("--threads must be at least 1")
    try:
        code = globals()["_cmd_" + args.command.replace("-", "_")](args)
        sys.stdout.flush()
        return code
    except ClanError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early (``| head``): point stdout at
        # devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
