"""Command-line interface.

Usage errors exit with status 2 (argparse); data errors print a message to
stderr and exit with status 1, and so does a reader that closes stdout
early, with no message.  Output is deterministic: every listing is sorted
before emission, and long listings (``enumerate``, ``poset``) are written in
batches rather than as one string.  A clan text may start with ``-``
(``length --++``): a token made of signs and digits is read as data, never
as an option.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Sequence

from .clans import ClanError, parse_diii, text_from_spaced, write_joined
from .delannoy import WeightedDelannoyPath, clan_to_path, path_to_clan
from .enumeration import count_recurrence, enumerate_diii
from .flags import representative_matrix
from .pyramids import (
    Pyramid,
    RookPlacement,
    clan_to_pyramid,
    placement_to_clan,
    pyramid_to_clan,
    pyramid_to_partition_pair,
    pyramid_to_placement,
)
from .sects import (
    PartialFPFInvolution,
    big_sect,
    clan_to_pfpf,
    pfpf_to_clan,
    sect_sizes,
    sects,
)
from .verify import run_suite
from .weak_order import (
    apply_reflection,
    clan_length,
    rank_poly_recurrence,
    rank_polynomial,
    weak_order_poset,
)


#: A clan text (or payload) that argparse would read as an option: a
#: ``-`` followed by nothing but signs and digits, ``--`` itself excepted.
_DASHED_TEXT = re.compile(r"-[-+0-9]+")


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a dashed clan text such as ``-+`` as a
    positional value, as it reads a negative number, while every real
    option still parses on either side of it. Its subparsers are of this
    class too."""

    def _parse_optional(self, arg_string):
        if (
            arg_string != "--"
            and arg_string not in self._option_string_actions
            and _DASHED_TEXT.fullmatch(arg_string)
        ):
            return None
        return super()._parse_optional(arg_string)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="diii-clans",
        description="DIII (n,n)-clan combinatorics: counting, weak order, "
        "sects, bijections, and exact flag matrices.",
    )
    parser.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="K",
        help="cap on worker parallelism (the current implementation is "
        "serial; results are identical for any K >= 1)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="number of DIII (n,n)-clans")
    p.add_argument("n", type=int)

    p = sub.add_parser("enumerate", help="list all DIII (n,n)-clans")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("compact", "spaced", "json"), default="compact")

    p = sub.add_parser("length", help="length of a clan in the weak order")
    p.add_argument("clan")

    p = sub.add_parser("act", help="apply the i-th simple reflection")
    p.add_argument("i", type=int)
    p.add_argument("clan")

    p = sub.add_parser("poset", help="weak order poset")
    p.add_argument("n", type=int)
    p.add_argument("--format", choices=("dot", "json"), default="dot")

    p = sub.add_parser("rank-poly", help="rank polynomial of the weak order")
    p.add_argument("n", type=int)
    p.add_argument("--method", choices=("poset", "recurrence", "both"), default="recurrence")

    p = sub.add_parser("sects", help="partition of the clans by base clan")
    p.add_argument("n", type=int)
    p.add_argument("--sizes-only", action="store_true")

    p = sub.add_parser("big-sect", help="the sect over the dense cell")
    p.add_argument("n", type=int)

    p = sub.add_parser("convert", help="bijections to and from other objects")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument(
        "--to", choices=("pyramid", "rooks", "partitions", "delannoy", "pfpf")
    )
    group.add_argument("--from", dest="source", choices=("pyramid", "rooks", "delannoy", "pfpf"))
    p.add_argument("--n", dest="half_length", type=int, help="half-length for --from pfpf")
    p.add_argument("payload", help="clan text, JSON, step word, or i:j map")

    p = sub.add_parser("flag", help="exact representative flag matrix")
    p.add_argument("clan")
    p.add_argument("--format", choices=("pretty", "json"), default="pretty")

    p = sub.add_parser("verify", help="run the consistency suite through size n")
    p.add_argument("n", type=int)

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
    print(_decimal(count_recurrence(args.n)))
    return 0


def _cmd_enumerate(args) -> int:
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
    print(clan_length(parse_diii(args.clan)).length)
    return 0


def _cmd_act(args) -> int:
    print(apply_reflection(args.i, parse_diii(args.clan)).text())
    return 0


def _cmd_poset(args) -> int:
    poset = weak_order_poset(_positive(args.n))
    write = poset.write_dot if args.format == "dot" else poset.write_json
    write(sys.stdout)
    sys.stdout.write("\n")
    return 0


def _cmd_rank_poly(args) -> int:
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
    sect = big_sect(_positive(args.n))
    print(f"base: {''.join(sect.base_key)}")
    print(f"size: {len(sect)}")
    for text in sect.clans.texts:
        print(text_from_spaced(text))
    return 0


def _parse_json(payload: str) -> dict:
    try:
        data = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise ClanError(f"bad JSON payload: {exc}") from None
    if not isinstance(data, dict):
        raise ClanError("JSON payload must be an object")
    return data


def _cmd_convert(args) -> int:
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
        print(pfpf_to_clan(PartialFPFInvolution.from_text(args.payload, n), n).text())
    return 0


def _cmd_flag(args) -> int:
    matrix = representative_matrix(parse_diii(args.clan))
    if args.format == "pretty":
        print(matrix.pretty())
    else:
        print(json.dumps(matrix.to_json_dict()))
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


_HANDLERS = {
    "count": _cmd_count,
    "enumerate": _cmd_enumerate,
    "length": _cmd_length,
    "act": _cmd_act,
    "poset": _cmd_poset,
    "rank-poly": _cmd_rank_poly,
    "sects": _cmd_sects,
    "big-sect": _cmd_big_sect,
    "convert": _cmd_convert,
    "flag": _cmd_flag,
    "verify": _cmd_verify,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.threads < 1:
        parser.error("--threads must be at least 1")
    try:
        code = _HANDLERS[args.command](args)
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
