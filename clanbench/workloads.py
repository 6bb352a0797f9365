"""The benchmark's workloads: seeded inputs, one operation, and its oracle.

Each workload is a closed loop with one client: ``next_input`` draws the
next input from the seeded generator, ``run`` is the timed operation, and
``check`` compares its output with the independent model in ``model``.
Operations call the package through module attributes, so an installed
``spans.Tracer`` sees every call.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import re
import resource
import selectors
import signal
import sys
import traceback
from contextlib import contextmanager
from importlib import import_module
from pathlib import Path
from time import monotonic

import model
from spans import Tracer

# By module path: the package re-exports a function named ``sects``.
cli, clans, delannoy, enumeration, flags, pyramids, sects, weak_order = (
    import_module(f"diii_clans.{name}")
    for name in ("cli", "clans", "delannoy", "enumeration", "flags", "pyramids", "sects", "weak_order")
)

OK, DEFECT, WRONG = "ok", "known-defect", "wrong"
DIGESTS = Path(__file__).with_name("digests.json")


def _self_peak_mb() -> float:
    """This process's peak RSS: the in-process workloads' program state."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Flags:
    """Exact flag-matrix verification of one seeded clan per operation.

    Sizes come in fixed blocks of ``SIZES``: one n=4, one n=5, six n=6 and
    two n=7. Every run then holds the same mix, the median falls in the
    middle of the n=6 operations and the 90th percentile in the middle of
    the n=7 ones, so neither quantile jumps between sizes as the number of
    operations changes. A size's clans do not repeat until all D(n) of them
    have been used (n=4 has only 38).
    """

    name = "flags"
    in_process = True
    SIZES = (4, 5, 6, 6, 6, 6, 6, 6, 7, 7)
    block = len(SIZES)
    rss_after = 100

    def __init__(self, rng):
        self.rng = rng
        self.seen = {n: set() for n in self.SIZES}
        self.k = 0

    def next_input(self):
        n = self.SIZES[self.k % self.block]
        self.k += 1
        seen = self.seen[n]
        if len(seen) == model.count(n):
            seen.clear()
        while True:
            clan = model.sample(self.rng, n)
            if clan not in seen:
                seen.add(clan)
                return n, model.spaced(clan)

    def run(self, inp, tracer=None):
        clan = clans.parse_diii(inp[1])
        matrix = flags.representative_matrix(clan)
        return matrix, flags.verify_special_orthogonal(matrix), flags.intersection_parity(matrix)

    def _rejects_det_minus_one(self, matrix, c) -> bool:
        """Swapping columns c and m-1-c keeps G^T J G = J but makes the
        determinant -1, so only the determinant test can reject it."""
        m = len(matrix.rows)
        swap = {c: m - 1 - c, m - 1 - c: c}
        rows = tuple(tuple(row[swap.get(j, j)] for j in range(m)) for row in matrix.rows)
        return flags.verify_special_orthogonal(flags.FlagMatrix(matrix.clan, rows)) is False

    def check(self, inp, out, counters):
        n, text = inp
        matrix, special_orthogonal, parity = out
        cols = _sparse_columns(matrix.rows)
        m = len(cols)
        rownnz = [0] * m
        for col in cols:
            for r in col:
                rownnz[r] += 1
        counters["useful_mults"] += sum(rownnz) + sum(a * b for a, b in zip(rownnz, reversed(rownnz)))
        counters["dense_mults"] += 2 * m**3
        if matrix.clan.spaced() != text or m != 2 * n:
            return WRONG, "matrix built for another clan"
        if special_orthogonal is not True:
            return WRONG, "verify_special_orthogonal rejected a representative matrix"
        if parity != n % 2:
            return WRONG, f"intersection parity {parity} != n mod 2"
        if not _form_identity_holds(cols):
            return WRONG, "G^T J G != J by the benchmark's own sparse product"
        # once per block, on its one n=4 clan: a determinant -1 must fail
        if n == 4 and not self._rejects_det_minus_one(matrix, len(text) % n):
            return WRONG, "verify_special_orthogonal accepted a matrix of determinant -1"
        return OK, ""

    peak_rss_mb = staticmethod(_self_peak_mb)


def _sparse_columns(rows):
    """Column c as {row: (a, b)} for the entries a + b*sqrt(2) that are nonzero."""
    m = len(rows)
    return [
        {r: (rows[r][c].a, rows[r][c].b) for r in range(m) if rows[r][c].a or rows[r][c].b}
        for c in range(m)
    ]


def _form_identity_holds(cols) -> bool:
    """(G^T J G)[c][d] = sum_k G[k][c] G[m-1-k][d] must be 1 on the
    antidiagonal and 0 elsewhere, exactly in Q(sqrt 2)."""
    m = len(cols)
    for c, col in enumerate(cols):
        for d, other in enumerate(cols):
            a = b = 0
            for k, (a1, b1) in col.items():
                if m - 1 - k in other:
                    a2, b2 = other[m - 1 - k]
                    a += a1 * a2 + 2 * b1 * b2
                    b += a1 * b2 + a2 * b1
            if b != 0 or a != (1 if c + d == m - 1 else 0):
                return False
    return True


class ClanOps:
    """Length, every reflection, and every bijection's round trip on one
    distinct large clan; a seeded share are big-sect clans, which also
    round-trip through partial fixed-point-free involutions."""

    name = "clan-ops"
    in_process = True
    block = 3
    # The reflection cache grows with every clan, so the peak is read after
    # a fixed number of operations rather than after a machine-dependent count.
    rss_after = 3000
    sizes = (8, 16, 24)
    big_sect_share = 0.125

    def __init__(self, rng):
        self.rng = rng
        self.seen = {n: set() for n in self.sizes}
        self.big_seen = dict.fromkeys(self.sizes, 0)
        self.k = 0

    def next_input(self):
        n = self.sizes[self.k % len(self.sizes)]
        self.k += 1
        big = self.rng.random() < self.big_sect_share
        seen = self.seen[n]
        # Clans do not repeat until the pool drawn from is used up: at n=8
        # the e(8) = 764 big-sect clans, also drawn by plain sampling, last
        # some 14000 operations.
        used, pool = (self.big_seen[n], model.involutions(n)) if big else (len(seen), model.count(n))
        if used == pool:
            seen.clear()
            self.big_seen[n] = 0
        while True:
            clan = model.sample_big_sect(self.rng, n) if big else model.sample(self.rng, n)
            if clan not in seen:
                seen.add(clan)
                self.big_seen[n] += model.signatures(clan) == model.big_sect_base(n)
                return n, model.spaced(clan), big

    def run(self, inp, tracer=None):
        n, text, big = inp
        clan = clans.parse_diii(text)
        out = {"parsed": clan, "length": weak_order.clan_length(clan).length}
        out["images"] = [weak_order.apply_reflection(i, clan) for i in range(1, n + 1)]
        pyramid = pyramids.clan_to_pyramid(clan)
        out["pyramid"] = pyramids.pyramid_to_clan(pyramid)
        placement = pyramids.pyramid_to_placement(pyramid)
        out["rooks"] = pyramids.placement_to_clan(placement)
        rotated = pyramids.rotate_placement(placement)
        out["rotation"] = pyramids.placement_to_clan(rotated)
        out["rotation_closes"] = pyramids.rotate_placement(rotated).perm == placement.perm
        if text != model.spaced((model.PLUS,) * n + (model.MINUS,) * n):
            pair = pyramids.pyramid_to_partition_pair(pyramid)
            out["partitions"] = pyramids.pyramid_to_clan(pyramids.partition_pair_to_pyramid(pair))
        path = delannoy.clan_to_path(clan)
        out["path_valid"] = delannoy.validate_path(path)
        out["path"] = delannoy.path_to_clan(path)
        if big:
            out["pfpf"] = sects.pfpf_to_clan(sects.clan_to_pfpf(clan), n)
        return out

    def check(self, inp, out, counters):
        n, text, _ = inp
        own = model.parse(text)
        if out["parsed"].spaced() != text:
            return WRONG, "parse_diii changed the clan"
        base = model.length(own)
        if out["length"] != base:
            return WRONG, f"clan_length {out['length']} != {base}"
        counters["reflections"] += n
        for i, image in enumerate(out["images"], start=1):
            if image.spaced() == text:
                continue
            counters["ascents"] += 1
            img = model.parse(image.spaced())
            if model.violation(img) is not None or model.length(img) != base + 1:
                return WRONG, f"s_{i} image is neither the input nor one longer"
        for route in ("pyramid", "rooks", "rotation", "partitions", "path", "pfpf"):
            if route in out and out[route].spaced() != text:
                return WRONG, f"{route} round trip did not return the input"
        if not out["rotation_closes"]:
            return WRONG, "two quarter turns do not restore the placement"
        if out["path_valid"] != (True, None):
            return WRONG, f"validate_path rejected the clan's path: {out['path_valid']}"
        return OK, ""

    peak_rss_mb = staticmethod(_self_peak_mb)


@contextmanager
def _any_int_digits():
    """Lift the int/str digit limit in this process only; forked children
    run with the limit restored."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


class CliCold:
    """One ``cli.main(argv)`` per operation in a child forked by ``zygote``,
    a process that has only imported the package, so every cache starts
    empty.

    Argv lists come in shuffled cycles of ``cycle_len``: one n=7 poset-sized
    command (the four ``HEAVY`` kinds in turn), one ``count N`` on each side
    of the int/str digit limit, one pick from each of ``SLOTS``, ``verify 3``
    in every ``VERIFY_EVERY``-th cycle (its flag checks would otherwise make
    this a flags workload too), and ``rank-poly N`` by the recurrence for
    the rest, at N evenly spaced over 1..``RANK_POLY_MAX`` and the same in
    every cycle. Every cycle then costs about the same, and the median and
    90th percentile fall on the same commands in every run: the 90th among
    the n=6 and n=7 slot commands, which the recurrence up to N=40 stays
    below.
    """

    name = "cli-cold"
    in_process = False
    cycle_len = 40
    block = cycle_len
    rss_after = None  # every child starts afresh: the largest child over the run
    op_timeout_s = 60

    HEAVY = (
        ["poset", "7", "--format", "json"],
        ["poset", "7", "--format", "dot"],
        ["rank-poly", "7", "--method", "poset"],
        ["rank-poly", "7", "--method", "both"],
    )
    # D(2601) has 4299 digits and D(2602) has 4301: Python's default limit
    # on int/str conversion (4300 digits) falls between the two ranges.
    COUNT_RANGES = ((2400, 2601), (2602, 2800))
    SLOTS = (
        [["enumerate", "7"]],
        [["sects", "7"]],
        [["big-sect", "7"]],
        *([["poset", n, "--format", f] for f in ("json", "dot")] for n in "56"),
        *([["rank-poly", n, "--method", m] for m in ("poset", "both")] for n in "56"),
        *([["enumerate", n, "--format", f] for f in ("compact", "spaced", "json")] for n in "56"),
        *([["sects", n], ["sects", n, "--sizes-only"]] for n in "56"),
        *([["big-sect", n]] for n in "56"),
    )
    VERIFY = ["verify", "3"]
    VERIFY_EVERY = 5
    RANK_POLY_MAX = 40

    def __init__(self, rng, zygote):
        self.rng = rng
        self.zygote = zygote
        self.queue: list[list[str]] = []
        self.cycles = 0
        self.peak_kb = 0
        self.digests = json.loads(DIGESTS.read_text())
        self.lengths: dict[str, int] = {}

    def next_input(self):
        if not self.queue:
            self.queue = self._cycle()
        return self.queue.pop()

    def _cycle(self) -> list[list[str]]:
        rng = self.rng
        ops = [self.HEAVY[self.cycles % len(self.HEAVY)]]
        if self.cycles % self.VERIFY_EVERY == 1:
            ops.append(self.VERIFY)
        self.cycles += 1
        ops += [["count", str(rng.randint(lo, hi))] for lo, hi in self.COUNT_RANGES]
        ops += [rng.choice(slot) for slot in self.SLOTS]
        fill = self.cycle_len - len(ops)
        ops += [
            ["rank-poly", str(1 + int((i + 0.5) * self.RANK_POLY_MAX / fill))]
            for i in range(fill)
        ]
        rng.shuffle(ops)
        return ops

    def run(self, argv, tracer=None):
        result = self.zygote.run(argv, tracer is not None, self.op_timeout_s)
        self.peak_kb = max(self.peak_kb, result["maxrss_kb"])
        if tracer is not None and result["spans"]:
            tracer.merge(json.loads(result["spans"]))
        return result

    def peak_rss_mb(self):
        return self.peak_kb / 1024

    def check(self, argv, res, counters):
        out = res["stdout"].decode()
        if argv[0] == "count":
            return self._check_count(int(argv[1]), res, out)
        if res["code"] != 0:
            return WRONG, f"exit {res['code']}: {res['stderr'][-300:]!r}"
        digest = self.digests.get(" ".join(argv))
        if digest is not None and hashlib.sha256(res["stdout"]).hexdigest() != digest:
            return WRONG, "stdout differs from the recorded seed-commit output"
        try:
            problem = getattr(self, "_check_" + argv[0].replace("-", "_"))(argv, out)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            problem = f"unparsable output: {exc!r}"
        return (WRONG, problem) if problem else (OK, "")

    def _check_count(self, n, res, out):
        expected = model.count(n)
        limit = sys.get_int_max_str_digits()
        with _any_int_digits():
            text = str(expected)
        if res["code"] == 0 and out == text + "\n":
            return OK, ""
        if 0 < limit < len(text) and res["code"] == 1 and b"Exceeds the limit" in res["stderr"]:
            return DEFECT, f"count {n}: D(n) has {len(text)} digits, over the int/str limit"
        return WRONG, f"count {n}: exit {res['code']}, output differs from D(n)"

    def _length(self, text: str) -> int:
        if text not in self.lengths:
            clan = model.parse(text)
            if model.violation(clan) is not None:
                raise ValueError(f"invalid clan {text!r}")
            self.lengths[text] = model.length(clan)
        return self.lengths[text]

    def _check_enumerate(self, argv, out):
        n = int(argv[1])
        fmt = argv[3] if len(argv) > 3 else "compact"
        items = json.loads(out) if fmt == "json" else out.splitlines()
        keys = [model.spaced(model.parse(t)) for t in items]
        if len(keys) != model.count(n):
            return f"{len(keys)} lines, expected D({n}) = {model.count(n)}"
        if any(model.violation(model.parse(k)) or len(k.split()) != 2 * n for k in keys):
            return "a listed clan is not a DIII clan of size n"
        if any(a >= b for a, b in zip(keys, keys[1:])):
            return "listing is not strictly sorted by spaced text"
        return None

    def _check_poset(self, argv, out):
        n = int(argv[1])
        if argv[3] == "json":
            data = json.loads(out)
            nodes = data["nodes"]
            covers = [(c["lower"], c["upper"], c["reflection"]) for c in data["covers"]]
        else:
            nodes = [t for line in out.splitlines() if "rank=same" in line
                     for t in re.findall(r'"([^"]+)"', line)]
            covers = [(a, b, int(i)) for a, b, i in
                      re.findall(r'"([^"]+)" -> "([^"]+)" \[label="(\d+)"\]', out)]
        if len(set(nodes)) != len(nodes) or len(nodes) != model.count(n):
            return f"{len(nodes)} nodes, expected D({n}) distinct"
        for lower, upper, i in covers:
            if not 1 <= i <= n or self._length(upper) != self._length(lower) + 1:
                return f"cover {lower} -> {upper} does not raise length by one"
        return None

    def _check_sects(self, argv, out):
        n = int(argv[1])
        lines = out.splitlines()
        if len(lines) != 2 ** (n - 1):
            return f"{len(lines)} sects, expected 2^(n-1)"
        total = 0
        for line in lines:
            if "--sizes-only" in argv:
                base, size = line.split()
                total += int(size)
                members = []
            else:
                base, members = line.split(": ")
                members = members.split()
                total += len(members)
            base = model.parse(base)
            if model.violation(base) or any(isinstance(s, int) for s in base):
                return f"sect base {line.split()[0]} is not a matchless DIII clan"
            for member in members:
                self._length(member)
                if model.signatures(model.parse(member)) != base:
                    return f"{member} listed under the wrong base"
        return None if total == model.count(n) else f"sect sizes sum to {total}"

    def _check_big_sect(self, argv, out):
        n = int(argv[1])
        lines = out.splitlines()
        base = model.parse(lines[0].removeprefix("base: "))
        members = lines[2:]
        size = int(lines[1].removeprefix("size: "))
        if size != model.involutions(n) or len(set(members)) != size:
            return f"big sect has {size} members, expected e({n}) = {model.involutions(n)}"
        for member in members:
            if model.signatures(model.parse(member)) != base:
                return f"{member} is not in the sect of the printed base"
        if max(self._length(m) for m in members) != n * (n - 1) // 2:
            return "the maximal clan is missing from the big sect"
        return None

    def _check_rank_poly(self, argv, out):
        n = int(argv[1])
        lines = out.splitlines()
        if len(argv) > 3 and argv[3] == "both":
            polys = [line.split(":", 1)[1].strip() for line in lines]
            if len(polys) != 2 or polys[0] != polys[1]:
                return "poset and recurrence polynomials differ"
        else:
            polys = lines
        coeffs = _poly_coeffs(polys[0])
        if sum(coeffs.values()) != model.count(n) or max(coeffs) != n * (n - 1) // 2:
            return "coefficients do not sum to D(n) or degree is not n(n-1)/2"
        return None

    def _check_verify(self, argv, out):
        lines = out.splitlines()
        if len(lines) != 8 or not all(line.startswith("PASS ") for line in lines):
            return "verify did not report eight passing checks"
        return None


def _poly_coeffs(text: str) -> dict[int, int]:
    """``3t^2+t+2`` as {2: 3, 1: 1, 0: 2}."""
    coeffs = {}
    for term in text.split("+"):
        if "t" in term:
            head, _, power = term.partition("t")
            coeffs[int(power.lstrip("^") or 1)] = int(head or 1)
        else:
            coeffs[0] = int(term)
    return coeffs


class Zygote:
    """A process forked before the benchmark holds any state of its own,
    which forks one ``cli-cold`` child per request and sends back what
    ``run_child`` collected, so each child holds only the imported package
    and its own command's work."""

    def __init__(self):
        sys.stdout.flush()
        sys.stderr.flush()
        req_r, req_w = os.pipe()
        res_r, res_w = os.pipe()
        self.pid = os.fork()
        if self.pid == 0:  # the zygote: never returns
            code = 70
            try:
                os.close(req_w)
                os.close(res_r)
                with open(req_r, "rb") as requests, open(res_w, "wb") as results:
                    while True:
                        try:
                            argv, traced, timeout_s = pickle.load(requests)
                        except EOFError:
                            break
                        pickle.dump(run_child(argv, traced, timeout_s), results)
                        results.flush()
                code = 0
            finally:
                os._exit(code)
        os.close(req_r)
        os.close(res_w)
        self._requests = open(req_w, "wb")
        self._results = open(res_r, "rb")

    def run(self, argv, traced, timeout_s):
        pickle.dump((argv, traced, timeout_s), self._requests)
        self._requests.flush()
        return pickle.load(self._results)

    def close(self):
        """End the zygote and wait for it."""
        self._requests.close()
        self._results.close()
        os.waitpid(self.pid, 0)


def run_child(argv, traced, timeout_s):
    """Fork, run ``cli.main(argv)`` in the child, and collect its exit code,
    stdout, stderr, peak RSS and (when traced) its exported spans."""
    sys.stdout.flush()
    sys.stderr.flush()
    pipes = [os.pipe() for _ in range(3)]
    pid = os.fork()
    if pid == 0:  # child: never returns
        code = 70
        try:
            for r, _ in pipes:
                os.close(r)
            os.dup2(pipes[0][1], 1)
            os.dup2(pipes[1][1], 2)
            code = _child(argv, traced, pipes[2][1])
        finally:
            os._exit(code)
    for _, w in pipes:
        os.close(w)
    chunks = {r: [] for r, _ in pipes}
    deadline = monotonic() + timeout_s
    killed = False
    with selectors.DefaultSelector() as sel:
        for r in chunks:
            sel.register(r, selectors.EVENT_READ)
        while sel.get_map():
            ready = sel.select(timeout=max(0.0, deadline - monotonic()))
            if not ready and not killed:
                os.kill(pid, signal.SIGKILL)
                killed = True
            for key, _ in ready:
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fd].append(data)
                else:
                    sel.unregister(key.fd)
                    os.close(key.fd)
    _, status, usage = os.wait4(pid, 0)
    out, err, spans = (b"".join(chunks[r]) for r, _ in pipes)
    return {
        "code": os.waitstatus_to_exitcode(status),
        "stdout": out,
        "stderr": err,
        "spans": spans,
        "maxrss_kb": usage.ru_maxrss,
    }


def _child(argv, traced, span_fd) -> int:
    tracer = Tracer() if traced else None
    if tracer:
        tracer.install()
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except BaseException:
        traceback.print_exc()
        code = 1
    if tracer and argv[0] == "count":
        # timed beside count_formula, which the handler uses
        enumeration.count_recurrence(int(argv[1]))
    sys.stdout.flush()
    sys.stderr.flush()
    if tracer:
        tracer.uninstall()
        payload = memoryview(json.dumps(tracer.export()).encode())
        while payload:
            payload = payload[os.write(span_fd, payload):]
    return code


WORKLOADS = {w.name: w for w in (Flags, ClanOps, CliCold)}
