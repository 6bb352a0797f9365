import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import diii_clans
from diii_clans import PartialFPFInvolution, count_recurrence, enumerate_diii, pfpf_to_clan
from diii_clans import cli
from diii_clans.cli import _COMMANDS, _GLOBAL, _PFPF_MAX_N, _build_parser, _read_argv, main

from conftest import RecordingStream, count_clan_builds


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_paper_value(self, capsys):
        code, out, _ = run(capsys, "count", "6")
        assert code == 0 and out.strip() == "692"

    def test_zero_convention(self, capsys):
        code, out, _ = run(capsys, "count", "0")
        assert code == 0 and out.strip() == "1"

    def test_negative_is_data_error(self, capsys):
        code, _, err = run(capsys, "count", "-5")
        assert code == 1 and "error:" in err

    def test_past_the_int_str_digit_limit(self, capsys):
        # D(2602) has 4301 digits, one more than the default conversion limit
        limit = sys.get_int_max_str_digits()
        code, out, _ = run(capsys, "count", "2602")
        assert code == 0 and sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            expected = str(count_recurrence(2602))
        finally:
            sys.set_int_max_str_digits(limit)
        assert len(expected) == 4301
        assert out == expected + "\n"


class TestEnumerate:
    def test_compact_default(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2")
        assert code == 0
        assert out.split() == ["++--", "--++", "1212"]

    def test_json_spaced_strings(self, capsys):
        code, out, _ = run(capsys, "enumerate", "2", "--format", "json")
        assert code == 0
        assert json.loads(out) == ["+ + - -", "- - + +", "1 2 1 2"]

    def test_deterministic_output(self, capsys):
        _, first, _ = run(capsys, "enumerate", "4")
        _, second, _ = run(capsys, "--threads", "4", "enumerate", "4")
        assert first == second

    def test_compact_refused_before_enumerating_past_9_labels(self, capsys, monkeypatch):
        # a clan of size 10 can have 10 labels, which compact cannot show:
        # refuse before the first line rather than fail part-way
        def fail(n):
            raise AssertionError(f"enumerate_diii({n}) called")

        monkeypatch.setattr(diii_clans.enumeration, "enumerate_diii", fail)
        code, out, err = run(capsys, "enumerate", "10")
        assert code == 1 and out == ""
        assert "--format spaced" in err and "--format json" in err

    def test_compact_covers_n9(self, capsys):
        code, out, _ = run(capsys, "enumerate", "9")
        assert code == 0
        assert len(out.splitlines()) == count_recurrence(9)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_streamed_bytes_match_the_whole_listing(self, capsys, n):
        texts = enumerate_diii(n).texts
        expected = {
            "json": json.dumps(texts),
            "spaced": "\n".join(texts),
            "compact": "\n".join(t.replace(" ", "") for t in texts),
        }
        for fmt, listing in expected.items():
            assert run(capsys, "enumerate", str(n), "--format", fmt) == (0, listing + "\n", "")

    @pytest.mark.parametrize("fmt", ["compact", "spaced", "json"])
    def test_written_in_bounded_batches(self, monkeypatch, fmt):
        # the n = 9 listing is 1.6 MB or more in every format
        out = RecordingStream()
        monkeypatch.setattr(sys, "stdout", out)
        assert main(["enumerate", "9", "--format", fmt]) == 0
        assert sum(out.writes) > 1 << 20 >= max(out.writes)


#: SHA-256 of ``act i <clan>`` for every i and every clan with n <= 5,
#: recorded from the move-record reflection code that preceded image keys
ACT_DIGEST = "c27fb2e165548af95d82c4c35c3386a23308a58e436d0520473c0fa7651c48ae"


class TestLengthAndAct:
    def test_every_small_clan_byte_identical(self, capsys):
        # one SHA-256 over `act i <clan>`, i = 1..n, for every clan with
        # n <= 5 in listing order
        digest = hashlib.sha256()
        for n in range(1, 6):
            for clan in enumerate_diii(n):
                for i in range(1, n + 1):
                    code, out, _ = run(capsys, "act", str(i), clan.text())
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == ACT_DIGEST

    def test_length(self, capsys):
        assert run(capsys, "length", "++1212--")[1].strip() == "1"

    def test_act_moves(self, capsys):
        assert run(capsys, "act", "1", "+-1122+-")[1].strip() == "11223344"

    def test_act_fixed_point(self, capsys):
        assert run(capsys, "act", "3", "+-1122+-")[1].strip() == "+-1122+-"

    def test_bad_clan_is_data_error(self, capsys):
        code, _, err = run(capsys, "length", "1122")
        assert code == 1 and "not a DIII clan" in err


class TestDashedClanTexts:
    # a clan text or payload that starts with "-" is data, not an option
    def test_length(self, capsys):
        assert run(capsys, "length", "--++") == (0, "0\n", "")
        assert run(capsys, "length", "-1-1+2+2")[0] == 1

    def test_act(self, capsys):
        assert run(capsys, "act", "2", "--++") == (0, "1212\n", "")

    def test_convert_to(self, capsys):
        expected = run(capsys, "convert", "--to", "rooks", "--", "--++")
        assert expected[0] == 0
        assert run(capsys, "convert", "--to", "rooks", "--++") == expected

    def test_convert_from(self, capsys):
        # the delannoy source reads a step word, which "-+" is not
        code, _, err = run(capsys, "convert", "--from", "delannoy", "-+")
        assert code == 1 and "error:" in err

    def test_flag_with_options_on_either_side(self, capsys):
        expected = run(capsys, "flag", "--format", "json", "--", "--++")
        assert expected[0] == 0
        assert run(capsys, "flag", "--++", "--format", "json") == expected
        assert run(capsys, "flag", "--format", "json", "--++") == expected
        assert run(capsys, "--threads", "2", "flag", "--++", "--format", "json") == expected

    def test_double_dash_still_ends_the_options(self, capsys):
        assert run(capsys, "length", "--", "--++") == (0, "0\n", "")
        code, _, err = run(capsys, "length", "--", "-+")
        assert code == 1 and "odd parity" in err

    def test_odd_text_is_a_data_error(self, capsys):
        code, _, err = run(capsys, "length", "-+")
        assert code == 1 and "odd parity" in err

    def test_real_options_are_not_texts(self, capsys):
        # "--" alone with no clan after it, and an unknown option, are
        # still usage errors
        for argv in (["length", "--"], ["length", "--x"], ["flag", "--++", "--format"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2


#: SHA-256 of stdout for ``poset n --format dot``, ``poset n --format json``
#: and ``rank-poly n --method both``, n = 1..6, from the object-based poset
#: builder that preceded the index-based one.
POSET_DIGESTS = {
    1: (
        "ce37c2332fc3ab770b0e3443d368de329b852503eb0e92cb2273dd2dabcadd19",
        "d77ee84330bf6677d90876ecdea430e98e04acff30f5acd4ac79e04d3944dee7",
        "ab5c43840725971f0509b078877a55730e12612a423ca560ed20ec9dfdae9bff",
    ),
    2: (
        "716142c099a11f92ae9810f29f291d701a807215663331ba47008a8aceb421c4",
        "d8ad9cffa5760300a89fa0cdf5584389c10f3d85bc71a8a62a63d6eda59038f4",
        "24085501967f8938e10c9348bd02686f6ed76338ededdbcfd0f9635499a37f6b",
    ),
    3: (
        "267ecfc950aee5290e99170dd520044cafc6a76ff17d7c13dffdd89273fe3e78",
        "7e0f50d1cfb9cf258cff0c9e89816d91986b2de4d43b107359779abcecb8d06f",
        "643651e9952ba02aec28fe742e3d7dc60765fcb8ae5aa0166eda91ea71b92d55",
    ),
    4: (
        "fa4f0bfc534fa5e41f0b1f9adf4dd28a6b510442eeee32ed2ac85786be696b5a",
        "5edbaa699878f92f3460feaee3fa8bd39cfcf1412ec6884e35c454bcc2236add",
        "65bcc1d7655d621a4d9d5bfd9bce4f6c9ef22f13c9ccc363c4ac0c7da82f5be7",
    ),
    5: (
        "1319a182b181731bce79d58270b39d5bcd39f186cf1b1a6da852f6da8c3087d7",
        "078c9561c3af1debd24ae12b5bf8af225c8e24e55ad82ad81df4dd1c5d4933f2",
        "e5075878412b7a9468a3bc0d2e4c3ca695bec7764755320d155b209c7ce51d0f",
    ),
    6: (
        "9efad8cd063de4fd1ad400925f195542aa54b64e192196eb7e12617d0c9124c0",
        "70e9c7791cc3ecdf3971c2cfb6c42b771630bbe35019f092b3ab22c5e74c6018",
        "61d92601fe30bcc28f1bb0fb57486ee96b82d34e63e21b3bee82730855d3c185",
    ),
}


class TestPosetAndRankPoly:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "poset", "2", "--format", "dot")
        assert code == 0
        assert out.startswith("digraph") and '"1212"' in out

    def test_json_output(self, capsys):
        code, out, _ = run(capsys, "poset", "2", "--format", "json")
        data = json.loads(out)
        assert len(data["nodes"]) == 3 and len(data["covers"]) == 2

    def test_rank_poly_both_agree(self, capsys):
        code, out, _ = run(capsys, "rank-poly", "4", "--method", "both")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].split()[-1] == lines[1].split()[-1]
        assert "t^6+3t^5+4t^4+7t^3+7t^2+8t+8" in lines[0]

    def test_rank_poly_default(self, capsys):
        assert run(capsys, "rank-poly", "2")[1].strip() == "t+2"

    @pytest.mark.parametrize("n", sorted(POSET_DIGESTS))
    def test_outputs_byte_identical(self, capsys, n):
        argvs = (
            ("poset", str(n), "--format", "dot"),
            ("poset", str(n), "--format", "json"),
            ("rank-poly", str(n), "--method", "both"),
        )
        for argv, digest in zip(argvs, POSET_DIGESTS[n], strict=True):
            code, out, _ = run(capsys, *argv)
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


class TestSects:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "sects", "2")
        assert code == 0
        assert out.splitlines() == ["++--: ++--", "--++: --++ 1212"]

    def test_sizes_only(self, capsys):
        code, out, _ = run(capsys, "sects", "2", "--sizes-only")
        assert out.splitlines() == ["++-- 1", "--++ 2"]

    def test_sizes_only_past_the_enumerated_sizes(self, capsys):
        # 8,192 sects of D(14) = 585,989,952 clans, none of them built
        code, out, _ = run(capsys, "sects", "14", "--sizes-only")
        lines = out.splitlines()
        assert code == 0 and len(lines) == 2**13
        assert sum(int(line.split()[1]) for line in lines) == count_recurrence(14)
        bases = [line.split()[0] for line in lines]
        assert bases == sorted(bases) and all(len(b) == 28 for b in bases)

    def test_big_sect(self, capsys):
        code, out, _ = run(capsys, "big-sect", "2")
        assert out.splitlines() == ["base: --++", "size: 2", "--++", "1212"]


@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "6"],
        ["enumerate", "6", "--format", "spaced"],
        ["enumerate", "6", "--format", "json"],
        ["poset", "6", "--format", "dot"],
        ["poset", "6", "--format", "json"],
        ["rank-poly", "6", "--method", "poset"],
        ["rank-poly", "6", "--method", "both"],
        ["sects", "6"],
        ["big-sect", "6"],
    ],
)
def test_listing_commands_build_no_clan(capsys, monkeypatch, argv):
    # every line is rendered from the keys and their texts; a clan built
    # anywhere on the way would show in the count
    built = count_clan_builds(monkeypatch)
    code, out, _ = run(capsys, *argv)
    monkeypatch.undo()
    assert code == 0 and out
    assert built == []


#: SHA-256 of ``convert --to delannoy <clan>`` for every clan with n <= 5,
#: recorded from the symbol-list reduction that preceded the key-read one
DELANNOY_DIGEST = "3fddc591b911b7aaa1bfbb0f9e64676871b7f8637572231e2db3395abb57358e"


class TestConvert:
    def test_every_small_clan_to_delannoy_byte_identical(self, capsys):
        # one SHA-256 over `convert --to delannoy <clan>` for every clan
        # with n <= 5 in listing order
        digest = hashlib.sha256()
        for n in range(1, 6):
            for clan in enumerate_diii(n):
                code, out, _ = run(capsys, "convert", "--to", "delannoy", clan.text())
                assert code == 0
                digest.update(out.encode())
        assert digest.hexdigest() == DELANNOY_DIGEST

    def test_pyramid_round_trip(self, capsys):
        code, out, _ = run(capsys, "convert", "--to", "pyramid", "1-1+-2+2")
        data = json.loads(out)
        assert data == {
            "n": 4,
            "rooks": [
                {"side": "L", "i": 1, "j": 3},
                {"side": "L", "i": 4, "j": 4},
                {"side": "R", "i": 2, "j": 2},
            ],
        }
        code, out, _ = run(capsys, "convert", "--from", "pyramid", json.dumps(data))
        assert out.strip() == "1-1+-2+2"

    def test_rooks_round_trip(self, capsys):
        _, out, _ = run(capsys, "convert", "--to", "rooks", "1-1+-2+2")
        data = json.loads(out)
        assert data == {"size": 8, "perm": [3, 7, 1, 4, 5, 8, 2, 6]}
        _, out, _ = run(capsys, "convert", "--from", "rooks", json.dumps(data))
        assert out.strip() == "1-1+-2+2"

    def test_partitions(self, capsys):
        _, out, _ = run(capsys, "convert", "--to", "partitions", "1-1+-2+2")
        data = json.loads(out)
        assert sorted(map(sorted, data["p"])) == [[1, 2], [3, 4]]
        assert data["pprime"] == [[1, 3], [2], [4]]

    def test_delannoy_round_trip(self, capsys):
        _, out, _ = run(capsys, "convert", "--to", "delannoy", "+12213443-")
        assert out.strip() == "E D:4 D:3 D:2 D:5 N"
        _, out, _ = run(capsys, "convert", "--from", "delannoy", "E D:4 D:3 D:2 D:5 N")
        assert out.strip() == "+12213443-"

    def test_invalid_delannoy_names_condition(self, capsys):
        code, _, err = run(capsys, "convert", "--from", "delannoy", "D:2 D:3")
        assert code == 1 and "condition 4" in err

    def test_pfpf_round_trip(self, capsys):
        _, out, _ = run(capsys, "convert", "--to", "pfpf", "1212")
        assert out.strip() == "1:2"
        _, out, _ = run(capsys, "convert", "--from", "pfpf", "--n", "2", "1:2")
        assert out.strip() == "1212"

    @pytest.mark.parametrize(
        "source, payload",
        [
            ("rooks", '{"size":"x","perm":[1,2]}'),
            ("rooks", '{"size":2,"perm":[true,2.9]}'),
            ("pyramid", '{"n":2,"rooks":[{"side":"L","i":"a","j":2}]}'),
            ("pyramid", '{"n":1.7,"rooks":[{"side":"L","i":true,"j":1}]}'),
            ("rooks", '{"size":2,"perm":[1,2],"n":1}'),
            ("pyramid", '{"n":1,"rooks":[{"side":"L","i":1,"j":1,"k":0}]}'),
            ("pyramid", '{"n":2,"rooks":[1]}'),
        ],
    )
    def test_mistyped_json_is_data_error(self, capsys, source, payload):
        code, out, err = run(capsys, "convert", "--from", source, payload)
        assert code == 1 and out == "" and err.startswith("error:")

    @pytest.mark.parametrize(
        "source, what", [("pyramid", "pyramid"), ("rooks", "placement")]
    )
    @pytest.mark.parametrize("payload", ["[1]", '"x"', "7", "null"])
    def test_non_object_payload_names_the_format(self, capsys, source, what, payload):
        code, out, err = run(capsys, "convert", "--from", source, payload)
        assert (code, out) == (1, "")
        expected = repr(json.loads(payload))
        assert err == f"error: malformed {what} JSON: expected an object, got {expected}\n"

    @pytest.mark.parametrize("depth", [1_000, 50_000])
    @pytest.mark.parametrize("source", ["pyramid", "rooks"])
    def test_deeply_nested_json_is_one_error_line(self, capsys, source, depth):
        payload = "[" * depth + "]" * depth
        code, out, err = run(capsys, "convert", "--from", source, payload)
        assert (code, out) == (1, "")
        assert err.startswith("error: bad JSON payload: ") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "source, payload",
        [
            ("pyramid", '{"n":%s,"rooks":[]}'),
            ("rooks", '{"size":%s,"perm":[]}'),
            ("pyramid", '{"n":1,"rooks":[{"side":"L","i":1,"j":%s}]}'),
        ],
        ids=["pyramid-n", "rooks-size", "rook-j"],
    )
    def test_over_long_json_integer_is_one_error_line(self, capsys, source, payload):
        # past the int/str digit limit of 4,300 digits json.loads raises a
        # plain ValueError, whose text names a Python call a CLI user cannot make
        code, out, err = run(capsys, "convert", "--from", source, payload % ("1" * 5_000))
        assert (code, out) == (1, "")
        assert err.startswith("error: bad JSON payload: ") and err.count("\n") == 1
        assert "set_int_max_str_digits" not in err
        limit = sys.get_int_max_str_digits()
        assert f"of 5000 digits is past the limit of {limit} digits" in err

    @pytest.mark.parametrize(
        "source, payload, key",
        [
            ("pyramid", '{"n":3,"n":1,"rooks":[{"side":"L","i":1,"j":1}]}', "n"),
            ("pyramid", '{"n":1,"rooks":[{"side":"R","i":1,"j":1,"side":"L"}]}', "side"),
            ("pyramid", '{"n":1,"rooks":[{"side":"L","i":1,"i":1,"j":1}]}', "i"),
            ("rooks", '{"size":2,"perm":[9,9],"perm":[2,1]}', "perm"),
            ("rooks", '{"size":2,"size":2,"perm":[2,1]}', "size"),
            ("rooks", '{"size":2,"perm":[{"a":1,"a":1},1]}', "a"),
        ],
        ids=[
            "pyramid-top", "pyramid-rook", "pyramid-rook-same-value",
            "rooks-top", "rooks-top-same-value", "rooks-nested",
        ],
    )
    def test_repeated_json_key_is_refused(self, capsys, source, payload, key):
        # json.loads alone keeps a repeated key's last value, so all but the
        # nested one would convert
        code, out, err = run(capsys, "convert", "--from", source, payload)
        assert (code, out) == (1, "")
        assert err == f"error: bad JSON payload: key {key!r} given twice\n"

    def test_huge_pyramid_size_costs_no_more_than_its_payload(self):
        # every index is missing; the message lists the first few
        src = str(Path(diii_clans.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        start = time.perf_counter()
        done = subprocess.run(
            [sys.executable, "-B", "-m", "diii_clans.cli", "convert", "--from", "pyramid"]
            + ['{"n":1000000000,"rooks":[]}'],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            timeout=60,
        )
        elapsed = time.perf_counter() - start
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == (
            "error: indices [1, 2, 3, 4, 5, 6, 7, 8, 9, 10] and 999999990 more "
            "not covered by any rook\n"
        )
        assert len(done.stderr.encode()) < 1024 and elapsed < 1.0, elapsed

    def test_repeated_rook_is_data_error(self, capsys):
        payload = '{"n":1,"rooks":[{"side":"L","i":1,"j":1},{"side":"L","i":1,"j":1}]}'
        code, out, err = run(capsys, "convert", "--from", "pyramid", payload)
        assert (code, out) == (1, "")
        assert err == "error: rook (L,1,1) listed twice\n"

    def test_pyramid_error_does_not_follow_the_hash_seed(self):
        # three faults in one pyramid; its rooks are a frozenset of strings
        # and ints, whose order the string hash sets
        payload = json.dumps(
            {
                "n": 3,
                "rooks": [
                    {"side": "L", "i": 1, "j": 2},
                    {"side": "L", "i": 2, "j": 3},
                    {"side": "R", "i": 3, "j": 3},
                ],
            }
        )
        src = str(Path(diii_clans.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        errors = set()
        for seed in ("1", "2", "3"):
            done = subprocess.run(
                [sys.executable, "-B", "-m", "diii_clans.cli", "convert", "--from", "pyramid"]
                + [payload],
                env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=seed),
                capture_output=True,
                text=True,
                timeout=60,
            )
            assert (done.returncode, done.stdout) == (1, "")
            errors.add(done.stderr)
        assert errors == {"error: index 2 covered by both (L,1,2) and (L,2,3)\n"}

    @pytest.mark.parametrize(
        "source, payload",
        [("rooks", '{"size":0,"perm":[]}'), ("pyramid", '{"n":0,"rooks":[]}')],
    )
    def test_empty_board_is_data_error(self, capsys, source, payload):
        code, out, err = run(capsys, "convert", "--from", source, payload)
        assert (code, out) == (1, "")
        assert err == "error: a clan must contain at least two symbols\n"

    @pytest.mark.parametrize(
        "argv",
        [
            ("length", "²²"),  # isdigit() passes, int() fails
            ("length", "١٢١٢"),  # int() reads it as 1212
            ("convert", "--from", "delannoy", "E D:+4 D:3 D:0_2 D:5 N"),
            ("convert", "--from", "pfpf", "--n", "12", "1_0:2"),  # int() reads 10
        ],
    )
    def test_number_tokens_are_ascii_digits(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and err.startswith("error:")

    def test_pfpf_requires_n(self, capsys):
        code, _, err = run(capsys, "convert", "--from", "pfpf", "1:2")
        assert code == 1 and "--n" in err

    @pytest.mark.parametrize("n", [_PFPF_MAX_N + 1, 99999999999])
    def test_pfpf_n_above_the_cap_is_refused_before_decoding(self, capsys, monkeypatch, n):
        def fail(cls, text, n):
            raise AssertionError(f"from_text(n={n}) called")

        monkeypatch.setattr(PartialFPFInvolution, "from_text", classmethod(fail))
        code, out, err = run(capsys, "convert", "--from", "pfpf", "--n", str(n), "1:2")
        assert code == 1 and out == ""
        assert err == f"error: --n is at most {_PFPF_MAX_N} for --from pfpf, got {n}\n"

    def test_pfpf_n_at_the_cap_decodes(self, capsys):
        n = _PFPF_MAX_N
        code, out, _ = run(capsys, "convert", "--from", "pfpf", "--n", str(n), "1:2")
        x = PartialFPFInvolution.from_text("1:2", n)
        assert code == 0 and out == pfpf_to_clan(x, n).text() + "\n"
        assert len(out) == 2 * n + 1


#: SHA-256 of the `flag` output of every clan with n <= 4, both formats
FLAG_DIGEST = "0d251ec992a782094dc673da230d7e42f31b7f214f4dd9770637c7e36c093ab5"


class TestFlag:
    def test_pretty(self, capsys):
        code, out, _ = run(capsys, "flag", "+-")
        assert out.splitlines() == ["[ 1  0 ]", "[ 0  1 ]"]

    def test_json_entries_are_fraction_strings(self, capsys):
        _, out, _ = run(capsys, "flag", "+1212-", "--format", "json")
        data = json.loads(out)
        assert data["n"] == 3
        assert data["entries"][1][2] == {"a": "0", "b": "1/2"}

    def test_every_small_clan_byte_identical(self, capsys):
        # one SHA-256 over `flag <clan>` and `flag <clan> --format json`, in
        # that order, for every clan with n <= 4 in listing order
        digest = hashlib.sha256()
        for n in range(1, 5):
            for clan in enumerate_diii(n):
                for extra in ((), ("--format", "json")):
                    code, out, _ = run(capsys, "flag", clan.text(), *extra)
                    assert code == 0
                    digest.update(out.encode())
        assert digest.hexdigest() == FLAG_DIGEST


class TestVerify:
    def test_passes_and_exits_zero(self, capsys):
        code, out, _ = run(capsys, "verify", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 8 and all(l.startswith("PASS") for l in lines)

    def test_an_error_inside_a_check_fails_that_check(self, capsys, monkeypatch):
        def fail(path):
            raise diii_clans.ClanError("decode refused")

        monkeypatch.setattr(diii_clans.delannoy, "path_to_clan", fail)
        code, out, err = run(capsys, "verify", "3")
        assert code == 1 and err == ""
        lines = out.splitlines()
        assert [line.split()[:2] for line in lines] == [
            ["PASS", name] if name != "delannoy" else ["FAIL", name]
            for name in diii_clans.verify.CHECK_NAMES
        ]
        assert sum(line.startswith("PASS") for line in lines) == 7
        assert "FAIL delannoy          decode refused" in lines

    def test_a_check_is_called_by_its_module_attribute(self, capsys, monkeypatch):
        # as a tracer rebinds it; each size in turn, to the first that fails
        sizes = []

        def replaced(n, poset):
            sizes.append(n)
            if n == 2:
                raise diii_clans.verify.CheckFailed("replaced check refused n=2")

        monkeypatch.setattr(diii_clans.verify, "check_delannoy", replaced)
        code, out, err = run(capsys, "verify", "4")
        assert code == 1 and err == ""
        assert sizes == [1, 2]
        assert "FAIL delannoy          replaced check refused n=2" in out.splitlines()
        assert sum(line.startswith("PASS") for line in out.splitlines()) == 7


#: SHA-256 of the stdout of each command, recorded for the benchmark's
#: cli-cold workload; read as data, without importing the benchmark
DIGESTS = json.loads((Path(__file__).parents[1] / "clanbench" / "digests.json").read_text())


def test_output_matches_recorded_digests(capsys):
    assert "verify 3" in DIGESTS
    changed = []
    for command, digest in DIGESTS.items():
        code, out, _ = run(capsys, *command.split())
        if code != 0 or hashlib.sha256(out.encode()).hexdigest() != digest:
            changed.append(command)
    assert changed == []


class TestUsageErrors:
    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_missing_argument_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["count"])
        assert exc.value.code == 2

    def test_bad_threads_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["--threads", "0", "count", "3"])
        assert exc.value.code == 2


class TestSizeArguments:
    # a size or index is ASCII digits with an optional leading "-"; int()
    # alone read all of these
    @pytest.mark.parametrize(
        "argv",
        [
            ("count", "٥"),
            ("count", " 5"),
            ("count", "5 "),
            ("count", "5_0"),
            ("count", "+5"),
            ("count", ""),
            ("rank-poly", "٣"),
            ("enumerate", "²"),
            ("act", "١", "+-1122+-"),
            ("--threads", "٢", "count", "3"),
            ("--threads=+2", "count", "3"),
            ("convert", "--from", "pfpf", "--n", "1_2", "1:2"),
            ("convert", "--from", "pfpf", "--n=٢", "1:2"),
            ("count", "1" * 5000),  # past the int/str digit limit
        ],
    )
    def test_coerced_tokens_are_usage_errors(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        assert "invalid int value" in captured.err

    def test_leading_zeros_and_minus_zero_read_as_ints(self, capsys):
        assert run(capsys, "count", "006") == (0, "692\n", "")
        assert run(capsys, "count", "-0") == (0, "1\n", "")


class TestSeparatorAsData:
    # argparse strips a second "--" as though it were a separator, and
    # stored an empty list as the value
    def test_double_dash_after_the_separator_is_the_clan(self, capsys):
        code, out, err = run(capsys, "act", "2", "--", "--")
        assert code == 1 and out == "" and "unbalanced signs" in err
        assert vars(_build_parser().parse_args(["length", "--", "--"]))["clan"] == "--"

    @pytest.mark.parametrize(
        "argv",
        [
            ("--threads=--", "count", "3"),
            ("convert", "--from", "pfpf", "--n=--", "1:2"),
            ("flag", "+-", "--format=--"),
        ],
    )
    def test_double_dash_option_value_is_a_usage_error(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(list(argv))
        assert exc.value.code == 2 and "argument" in capsys.readouterr().err


def _parsed_by_argparse(argv):
    """``vars`` of argparse's namespace for ``argv``, or None where it
    exits (help or a usage error)."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        try:
            return vars(_build_parser().parse_args(list(argv)))
        except SystemExit:
            return None


_INT_TOKENS = ("0", "1", "3", "-3", "+5", "٥", "1_0", " 5", "", "-0", "007")
_TEXT_TOKENS = ("--++", "-+", "+-", "-1-1+2+2", "1212", "1:2", "x", "-", "---", "--", "")


def _grammar_tokens() -> list[str]:
    """Every option, command and choice of the table, the int, dashed and
    separator tokens argparse reads specially, and abbreviations."""
    args = [*_GLOBAL] + [a for _, cmd_args in _COMMANDS.values() for a in cmd_args]
    options = sorted({a.name for a in args if a.name.startswith("-")})
    choices = sorted({c for a in args for c in a.kwargs.get("choices", ())})
    return [
        *_COMMANDS,
        "frobnicate",
        *options,
        *(f"{o}={v}" for o in options for v in ("json", "2", "", "--", "rooks")),
        *choices,
        *_INT_TOKENS,
        *_TEXT_TOKENS,
        *("-h", "--help", "--form", "--form=json", "--thr", "--t", "--meth"),
        *("--size", "--fr", "--he", "-x", "--x", "--=5", "-1 2"),
    ]


_TOKENS = st.sampled_from(_grammar_tokens())


@st.composite
def _command_argvs(draw):
    """A command's arguments in any order, each option given zero to two
    times, spaced or with ``=``, and a few grammar tokens put in anywhere,
    after ``--threads`` options."""

    def value(arg):
        good = arg.kwargs.get("choices") or (("2", "5") if "type" in arg.kwargs else ("+-",))
        pool = _INT_TOKENS if "type" in arg.kwargs else _TEXT_TOKENS
        return draw(st.sampled_from(good) | st.sampled_from(pool))

    def option(arg):
        return draw(st.sampled_from([[arg.name, value(arg)], [f"{arg.name}={value(arg)}"]]))

    argv = []
    for _ in range(draw(st.integers(0, 2))):
        argv += option(_GLOBAL[0])
    name = draw(st.sampled_from(sorted(_COMMANDS)))
    parts = []
    for arg in _COMMANDS[name][1]:
        if not arg.name.startswith("-"):
            parts.append([value(arg)])
        elif arg.kwargs.get("action") == "store_true":
            parts += [[arg.name]] * draw(st.integers(0, 2))
        else:
            parts += [option(arg) for _ in range(draw(st.integers(0, 2)))]
    parts = draw(st.permutations(parts))
    if parts and draw(st.booleans()):
        parts.insert(draw(st.integers(0, len(parts))), ["--"])
    if draw(st.integers(0, 3)) == 0:
        parts.insert(draw(st.integers(0, len(parts))), [draw(_TOKENS)])
    return argv + [name] + [token for part in parts for token in part]


class TestCommandTable:
    def test_each_command_has_one_handler(self):
        # main finds _cmd_<command> by module attribute; no handler is
        # left without a command
        handlers = {name for name in vars(cli) if name.startswith("_cmd_")}
        assert handlers == {"_cmd_" + c.replace("-", "_") for c in _COMMANDS}
        assert all(callable(getattr(cli, name)) for name in handlers)

    @settings(max_examples=500, deadline=None)
    @given(_command_argvs())
    def test_table_pass_defers_or_matches_argparse(self, argv):
        table = _read_argv(argv)
        if table is not None:
            assert vars(table) == _parsed_by_argparse(argv)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(_TOKENS, max_size=8))
    def test_table_pass_on_any_token_list(self, argv):
        table = _read_argv(argv)
        if table is not None:
            assert vars(table) == _parsed_by_argparse(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["sects", "5", "--sizes-only"],
            ["convert", "--from", "pfpf", "--n", "2", "1:2"],
            ["convert", "--n=2", "--from=pfpf", "--", "1:2"],
            ["--threads", "2", "--threads=4", "enumerate", "--format", "json", "3"],
            ["act", "--", "2", "--++"],
            ["rank-poly", "4", "--method", "poset", "--method", "both"],
            ["count", "-3"],
        ],
    )
    def test_table_pass_reads_the_grammar(self, argv):
        # hand-picked argvs of every form the pass reads
        table = _read_argv(argv)
        assert table is not None and vars(table) == _parsed_by_argparse(argv)

    def test_digest_and_dashed_text_argvs_take_the_table_path(self):
        dashed = [
            ["length", "--++"],
            ["length", "-1-1+2+2"],
            ["length", "-+"],
            ["length", "--", "--++"],
            ["length", "--", "-+"],
            ["act", "2", "--++"],
            ["convert", "--to", "rooks", "--", "--++"],
            ["convert", "--to", "rooks", "--++"],
            ["convert", "--from", "delannoy", "-+"],
            ["flag", "--format", "json", "--", "--++"],
            ["flag", "--++", "--format", "json"],
            ["flag", "--format", "json", "--++"],
            ["--threads", "2", "flag", "--++", "--format", "json"],
        ]
        argvs = [command.split() for command in DIGESTS] + dashed
        assert len(argvs) == 78 + len(dashed)
        for argv in argvs:
            table = _read_argv(argv)
            assert table is not None, argv
            assert vars(table) == _parsed_by_argparse(argv), argv

    @pytest.mark.parametrize(
        "argv",
        [["-h"], ["count", "-h"], ["enumerate", "5", "--form", "json"], ["frobnicate"],
         ["length", "--"], ["length", "--x"], ["flag", "--++", "--format"], ["count", "٥"],
         ["convert", "--to", "rooks", "--from", "pfpf", "x"], ["convert", "x"]],
    )
    def test_help_and_usage_errors_defer_to_argparse(self, argv):
        assert _read_argv(argv) is None

    def test_digest_commands_build_no_argument_parser(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        codes = [main(command.split()) for command in DIGESTS]
        capsys.readouterr()
        monkeypatch.undo()
        assert codes == [0] * 78 and built == []
        # the counter itself counts: help builds the whole tree
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        with pytest.raises(SystemExit):
            main(["-h"])
        capsys.readouterr()
        assert len(built) == 1 + len(_COMMANDS)


#: SHA-256 of ``-h`` stdout (exit 0) for the top level and each command,
#: with COLUMNS=80, recorded from the argparse-only parser that preceded
#: the command table.
HELP_DIGESTS = {
    "": "94e2ddb24dd15029028b39cee99cc6cb3cba140ac54a7274e28e67e0ba113f5f",
    "count": "09ca47e0e4c226893239377d8b9932e5a3a3b6909595809acbd319000b186a31",
    "enumerate": "26c0734bdadc4f30deb32ed9470058011db0848a29be0c9208c66c3276ef2f0e",
    "length": "caf3eebd4eb628db1631a0976fd99c0d6d40b37b841e1249971a212bc28b18db",
    "act": "85ce2d1d41acd06524ad3f9a34c55d871e5982bca27261c50fbe143c0a3c9452",
    "poset": "b56389d6b8325daacfa52ce749a632a2971a2d5e9bef8e496c1d55745ddc754f",
    "rank-poly": "e2d66f1a95cdd1bff558bd6dacebd8152157af6f740a28bc2a056d76621bde57",
    "sects": "a888420329ab891369b506fdd3d37dc4edb92e84bd42dc1b928161ac280d6663",
    "big-sect": "b7c1580f9a74c5938a6a1dc02945f93bf1704fa5dd1a6ae0b8b9b7e93850181b",
    "convert": "3aeacd6239209f4229f56f6514ad3fb52f80342b5f1dd48af8b3fcb813b6fa81",
    "flag": "77d8373c4ec9cf6f11adf57af54f07362cf8bb06bb313b3c7ca23ea9a1c132a0",
    "verify": "c1a33a7aff6d0a49bd4c2dde02054fa05b745caf1901c9a6537e217714a73c45",
}

#: SHA-256 of stderr (exit 2, empty stdout) for usage errors, with
#: COLUMNS=80, recorded as above.
USAGE_ERROR_DIGESTS = {
    "frobnicate": "702e3e9b626c4809cef3a5e5188b9e386067f2e528ac3af4b57e54f4cf4f0732",
    "count": "fb620f06878bbaf5f8c765a2e56aa85e525959e985fa3eb735ebdcb3501c543a",
    "--threads 0 count 3": "441c45f72dd3d1cbf3f8cc387e27a18eb0e643298de008df74b189a669bf0c0a",
    "length --x": "4cebbea6722894f0e0c1e9fe25e262e3cb70e603e4d53c5c81755b08f8b456ac",
    "enumerate 5 --format xml": "ff5d5387a1cc969cbb826f992a7baf7dc7916acc985861c88a82356d7d275437",
    "convert --to rooks --from pfpf x": (
        "98fd17957db8cdd2ea247e5576e22ea1b7bb79111f28be6b99ef4b5187ae0831"
    ),
    "count x": "cc59f5b6f3d7754108185d6a05a51e41e0cb788aa9ab5215f8a0122f0fa1bc4d",
}


class TestHelpAndUsageOutput:
    @pytest.mark.parametrize("command", sorted(HELP_DIGESTS))
    def test_help_is_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main([*command.split(), "-h"])
        captured = capsys.readouterr()
        assert exc.value.code == 0 and captured.err == ""
        assert hashlib.sha256(captured.out.encode()).hexdigest() == HELP_DIGESTS[command]

    @pytest.mark.parametrize("command", sorted(USAGE_ERROR_DIGESTS))
    def test_usage_errors_are_unchanged(self, capsys, monkeypatch, command):
        monkeypatch.setenv("COLUMNS", "80")
        with pytest.raises(SystemExit) as exc:
            main(command.split())
        captured = capsys.readouterr()
        assert exc.value.code == 2 and captured.out == ""
        digest = hashlib.sha256(captured.err.encode()).hexdigest()
        assert digest == USAGE_ERROR_DIGESTS[command]


# JSON values with every int at most 50: unbounded sizes are a separate
# limit, not a parsing question
_json = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 50) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_small = st.integers(-3, 50) | _json
_cell = st.fixed_dictionaries(
    {"side": st.sampled_from("LR") | _json, "i": _small, "j": _small}
)
_step = st.sampled_from(["N", "E", "D:2", "D:3", "D:4", "D:5", "D:", ":"])
_block = st.tuples(st.integers(-1, 50), st.integers(-1, 50)).map(lambda b: f"{b[0]}:{b[1]}")
# payloads close to each source's format, so parsing gets past the first check
_near = {
    "pyramid": st.fixed_dictionaries(
        {"n": _small, "rooks": st.lists(_cell | _json, max_size=8)}
    ).map(json.dumps),
    "rooks": st.fixed_dictionaries(
        {"size": _small, "perm": st.lists(_small, max_size=12)}
    ).map(json.dumps),
    "delannoy": st.lists(_step | st.text(max_size=4), max_size=12).map(" ".join),
    "pfpf": st.lists(_block | st.text(max_size=4), max_size=6).map(",".join),
}


def _exit_code(argv):
    """cli.main's exit code with its output swallowed; anything raised
    propagates."""
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        return main(list(argv))


class TestNoTraceback:
    @settings(max_examples=100, deadline=None)
    @given(st.text() | st.text("+-−0123456789 ²١_", max_size=16))
    def test_length_of_any_text(self, text):
        assert _exit_code(["length", "--", text]) in (0, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_convert_from_any_payload(self, data):
        source = data.draw(st.sampled_from(["pyramid", "rooks", "delannoy", "pfpf"]))
        payload = data.draw(st.text() | _json.map(json.dumps) | _near[source])
        argv = ["convert", "--from", source]
        if source == "pfpf":
            argv += ["--n", str(data.draw(st.integers(-1, 50)))]
        assert _exit_code(argv + ["--", payload]) in (0, 1)

    @settings(max_examples=100, deadline=None)
    @given(st.text("+-0123456789", min_size=1, max_size=16).filter(lambda t: t != "--"))
    def test_length_of_any_sign_and_digit_text(self, text):
        # with no "--" before it, a text made of signs and digits is still
        # read as the clan
        assert _exit_code(["length", text]) in (0, 1)

    def test_reader_closing_the_pipe_early(self):
        # enumerate 8 prints about 270 KB, more than a 64 KiB pipe buffer,
        # so the writer is still printing when the reader goes away
        self._close_after(["enumerate", "8"], b"++++++++--------\n")

    def test_reader_closing_the_pipe_early_on_poset_json(self):
        # poset 7 --format json is one line of about 1.1 MB, written in
        # batches
        self._close_after(["poset", "7", "--format", "json"], b'{"n": 7, "nodes": ["')

    @staticmethod
    def _close_after(argv, head):
        """Run the CLI in a subprocess, read the first bytes of its stdout,
        close the pipe, and check the exit: code 1 and no traceback."""
        src = str(Path(diii_clans.__file__).parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        proc = subprocess.Popen(
            [sys.executable, "-m", "diii_clans.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.stdout.read(len(head)) == head
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert b"Traceback" not in err
        assert proc.returncode == 1
