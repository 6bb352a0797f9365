"""Benchmark for diii-clans.

Run from the repository root:

    python3 clanbench/run.py --workload flags --seed 1 --seconds 30 --trace 0

Workloads (see ``workloads.py``): ``flags``, ``clan-ops`` and ``cli-cold``.
Each is a closed loop with one client in one process; inputs come from a
generator seeded by ``--seed`` and every output is checked against the
independent model in ``model.py``.

``--trace 0`` times the operations and reports the end-to-end metrics.
Operation times are scaled by the host's speed at the time, measured with a
fixed benchmark-owned reference workload (see ``REF_NOMINAL_S``).
``--trace 1`` traces every operation, reports per-layer metrics from spans
around the package's public functions, and writes the spans to
``.clanbench/``; its ``trace.ops_per_s`` against an untraced run's
``ops_per_s`` gives the tracing overhead. The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
from collections import Counter
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import model
from spans import OP, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SPAN_DIR = ROOT / ".clanbench"
# A shared cloud host can change speed by up to ~2x for tens of seconds at
# a time (on a 2-vCPU Xeon VM the same exact n=6 flag check took 75 or
# 140 ms), which no run length averages away. So a fixed piece of
# benchmark-owned work, exact rational products and clan sampling like the
# program's own, is timed every REF_EVERY_S between operations, and each
# operation's time is divided by the speed factor in force: the median of
# the last REF_WINDOW reference times over REF_NOMINAL_S.
REF_EVERY_S = 0.5
REF_WINDOW = 5
REF_NOMINAL_S = 0.015
SETUP_REPEATS = 11
SETUP_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import diii_clans, diii_clans.cli\n"
    "print(time.perf_counter() - t)\n"
)
# Set-up time does not follow that reference; it follows a fresh
# interpreter's time to import the standard modules the package builds on,
# which is timed alternately with it and scaled to SETUP_REF_NOMINAL_S.
SETUP_REF_CODE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import argparse, dataclasses, fractions, itertools, json, typing\n"
    "print(time.perf_counter() - t)\n"
)
SETUP_REF_NOMINAL_S = 0.02
E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith(".calls"):
        return "count"
    if name.endswith("ms_per_call"):
        return "ms"
    if name.endswith("ops_per_s"):
        return "1/s"
    return "ratio"


def environment() -> dict:
    rev = None
    if (ROOT / ".git").exists():
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "diii_clans").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "git_rev": rev,
        "src_sha256": src.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def reference_seconds() -> float:
    rng = random.Random(0)
    a = [[Fraction(rng.choice((0, 0, 1, -1)), rng.choice((1, 2))) for _ in range(10)] for _ in range(10)]
    start = perf_counter()
    for _ in range(2):
        a = [[sum((a[r][k] * a[k][c] for k in range(10)), Fraction(0)) for c in range(10)] for r in range(10)]
    for _ in range(30):
        model.length(model.sample(rng, 12))
    return perf_counter() - start


def _import_seconds(code: str, env: dict) -> float:
    return float(subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout)


def measure_setup() -> float:
    """Median time for a fresh interpreter to import the package and its
    CLI, scaled by the host's fresh-import speed at the time."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    pairs = [
        (_import_seconds(SETUP_CODE, env), _import_seconds(SETUP_REF_CODE, env))
        for _ in range(SETUP_REPEATS)
    ]
    speed = statistics.median(ref for _, ref in pairs) / SETUP_REF_NOMINAL_S
    return statistics.median(setup for setup, _ in pairs) / speed


def measure(workload, seconds: float, tracer=None) -> dict:
    """Run operations back to back in whole blocks of ``workload.block``
    inputs until ``seconds`` have passed, and at least until the peak RSS
    has been read after ``workload.rss_after`` operations, so every run
    holds the same mix. With a tracer, every operation is traced; the
    checks are not."""
    from workloads import OK, WRONG

    latency: list[float] = []
    counters = Counter()
    statuses = Counter()
    wrong: list[str] = []
    peak_rss_mb = None
    reference: list[float] = []
    next_reference = 0.0
    k = 0
    if tracer is not None and workload.in_process:
        tracer.install()
    deadline = perf_counter() + seconds
    try:
        while k % workload.block or k < (workload.rss_after or 0) or perf_counter() < deadline:
            if perf_counter() >= next_reference:
                reference.append(reference_seconds())
                next_reference = perf_counter() + REF_EVERY_S
                speed = statistics.median(reference[-REF_WINDOW:]) / REF_NOMINAL_S
            inp = workload.next_input()
            if tracer is not None:
                tracer.trace_id = k
                sid = tracer.open(OP)
            start = perf_counter()
            try:
                out = workload.run(inp, tracer)
                error = None
            except Exception as exc:  # an uncaught exception fails the operation
                error = f"uncaught {type(exc).__name__}: {exc}"
            latency.append((perf_counter() - start) / speed)
            if tracer is not None:
                tracer.close(sid)
            with tracer.paused() if tracer is not None else nullcontext():
                status, detail = (WRONG, error) if error else workload.check(inp, out, counters)
            statuses[status] += 1
            if status == WRONG and len(wrong) < 5:
                wrong.append(f"{inp!r}: {detail}")
            k += 1
            if k == workload.rss_after:
                peak_rss_mb = workload.peak_rss_mb()
    finally:
        if tracer is not None and workload.in_process:
            tracer.uninstall()
    return {"latency": latency, "ok": statuses[OK], "counters": counters, "statuses": statuses,
            "wrong": wrong, "attempted": k, "peak_rss_mb": peak_rss_mb or workload.peak_rss_mb(),
            "speed": statistics.median(reference) / REF_NOMINAL_S}


def end_to_end(run: dict) -> dict:
    """End-to-end metrics on speed-scaled times."""
    latency = run["latency"]
    return {
        "ops_per_s": run["ok"] / sum(latency),
        "op_p50_ms": 1e3 * statistics.median(latency),
        "op_p90_ms": 1e3 * statistics.quantiles(latency, n=10)[8],
        "ok_ratio": run["ok"] / run["attempted"],
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": measure_setup(),
    }


def per_layer(tracer, run: dict) -> dict:
    """Span metrics, in unscaled wall time, plus two ratios counted by the
    oracles. ``trace.ops_per_s`` is on the same speed-scaled footing as
    ``ops_per_s``: an untraced run's ``ops_per_s`` minus it is the tracing
    overhead."""
    metrics = tracer.metrics()
    c = run["counters"]
    metrics["flags.useful_mult_ratio"] = c["useful_mults"] / c["dense_mults"] if c["dense_mults"] else 0.0
    metrics["weak_order.apply_reflection.ascent_ratio"] = (
        c["ascents"] / c["reflections"] if c["reflections"] else 0.0
    )
    metrics["trace.ops_per_s"] = run["ok"] / sum(run["latency"])
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=("flags", "clan-ops", "cli-cold"), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "diii_clans" / "__init__.py").is_file():
        print(f"error: no diii_clans package under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import CliCold, Zygote

    # cli-cold children fork from a process forked here, before the
    # benchmark holds any state of its own: it has only imported the package.
    zygote = Zygote() if args.workload == CliCold.name else None
    try:
        return run_workload(args, zygote)
    finally:
        if zygote is not None:
            zygote.close()


def run_workload(args, zygote) -> int:
    from workloads import DEFECT, OK, WORKLOADS, CliCold

    try:
        model.selfcheck()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    env = environment()
    print("env", json.dumps(env))
    rng = random.Random(f"{args.workload}:{args.seed}")
    workload = CliCold(rng, zygote) if zygote else WORKLOADS[args.workload](rng)
    tracer = Tracer() if args.trace else None
    run = measure(workload, args.seconds, tracer)
    if args.trace:
        metrics = per_layer(tracer, run)
        SPAN_DIR.mkdir(exist_ok=True)
        path = SPAN_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.dump(path, {"env": env, "workload": args.workload, "seed": args.seed})
        print(f"spans: {len(tracer.starts)} written to {path.relative_to(ROOT)}")
    else:
        metrics = end_to_end(run)
    attempted = run["attempted"]
    failed = attempted - run["ok"]
    print(f"workload {args.workload}  seed {args.seed}  closed loop, 1 client")
    print(f"  samples {attempted} ({attempted - int(0.9 * attempted)} beyond p90)")
    print(f"  fail_ratio {failed / attempted:.6g}  ({dict(run['statuses'])})")
    print(f"  speed_factor {run['speed']:.4g} (median reference time / {REF_NOMINAL_S} s)")
    for line in run["wrong"]:
        print(f"  wrong: {line}")
    for name, value in metrics.items():
        print(f"  {name} {value:.6g} {unit_of(name)}")
    correct = run["statuses"].keys() <= {OK, DEFECT}
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
