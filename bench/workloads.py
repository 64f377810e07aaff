"""The four workloads: inputs made from the seed, and one round of ops.

An op is one whole operation as a user would issue it: one CLI process
on ``cli``, one library call chain elsewhere.  Its ``run`` is timed; its
``check`` is not.  Every round of a workload repeats the same ops, so
``key`` names the input, and equal keys must give equal outputs.

Every panel holds a few fixed anchor ops besides the seeded ones: the
published reference points, and the op with the largest output of the
workload.  The anchors sit above every seeded parameter, so
``root_bits_max`` does not depend on the seed and moves only when the
program's output changes.
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from typing import Callable

from checker import (CheckError, check_derive, check_reference, check_system,
                     parse_system, system_json)
from spans import TRACE_ENV

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

# t = 3 is left out: for n != 5 it yields the system of t = 2, through
# the map t -> (t+1)/(t-1).
T_POOL = (2,) + tuple(range(4, 16))
FAMILIES = {"n5-method1-deg17": "t", "n5-method2-deg10": "pq",
            "n5-method2-deg30": "pq", "n6-method2-deg38": "pq"}
# the catalog's chain before its transform step: roots repeat in pairs
REPEATING_FAMILIES = {"n5-method2-deg10"}
REFERENCE_PAIRS = ((1, 2), (2, 1))


class OpFailed(Exception):
    """The program refused an operation (a CLI exit code other than 0)."""


@dataclass
class Op:
    key: tuple
    run: Callable[[], object]
    check: Callable[[object], int]  # raises CheckError; returns root bits


@dataclass
class Env:
    root: str
    work_dir: str
    goldens: dict
    ex: object  # the exsquares package
    cli: object  # exsquares.cli
    trace_prefix: str | None = None  # set in the traced phase of cli


def coprime_pairs(top):
    """(p1, p2) with 1 <= p1, p2 <= top, p1 != p2, gcd 1.  (1, 1) is
    left out: it is degenerate for every pipeline."""
    return [(a, b) for a in range(1, top + 1) for b in range(1, top + 1)
            if a != b and math.gcd(a, b) == 1]


def _seeded_pairs(rng, top, count, anchors):
    """The anchors, then one pair from each of `count` strata of the pool
    ordered by size: every seed gets the same spread of sizes, so the
    cost of a round hardly depends on the seed."""
    pool = sorted((p for p in coprime_pairs(top) if p not in anchors),
                  key=lambda p: (max(p), p))
    edges = [len(pool) * i // count for i in range(count + 1)]
    return list(anchors) + [rng.choice(pool[a:b])
                            for a, b in zip(edges, edges[1:])]


def _system_check(goldens, key, system, distinct=True):
    bits = check_system(system.n, system.roots, system.certificates,
                        system.s, distinct=distinct)
    check_reference(goldens, key, system.roots)
    return bits


def _same_system(a, b):
    return (a.n, tuple(a.roots), tuple(a.certificates), a.s) == \
        (b.n, tuple(b.roots), tuple(b.certificates), b.s)


# ---------------------------------------------------------------------------
# m1-large
# ---------------------------------------------------------------------------

# 12 sizes; with the 3 codec round trips that succeed (n < 40), a round
# completes 15 ops, so the median and the 90th percentile both fall in
# the middle of one size's block of ops, not on the edge between two.
# (The codec does not fail at every larger n: n = 38 and 50 pass.)
M1_LARGE_NS = (16, 24, 32, 40, 48, 56, 64, 72, 80, 96, 112, 128)
M1_LARGE_T = 2


def m1_large(env, rng):
    """Method 1 at n = 16..128, each system followed by a JSON round trip.

    The points are fixed and the seed only orders them: cost and output
    size move by tens of percent, and not monotonically, with t, so a
    seeded t would move the figures more than any bound allows.
    """
    ex, cli, goldens = env.ex, env.cli, env.goldens
    latest = {}
    units = []
    for n in M1_LARGE_NS:
        key = ("m1", n, M1_LARGE_T)

        def construct(n=n):
            system = ex.generate_method1(n, M1_LARGE_T)
            ok = ex.validate_system(system).ok
            latest[n] = system
            return system, ok

        def check_construct(out, key=key):
            system, ok = out
            if not ok:
                raise CheckError("validate_system rejected the system")
            return _system_check(goldens, key, system)

        def codec(n=n):
            system = latest.pop(n)
            return system, cli.system_from_json(cli.system_to_json(system))

        def check_codec(out):
            system, decoded = out
            if not _same_system(system, decoded):
                raise CheckError("JSON round trip changed the system")
            return 0

        units.append((Op(key, construct, check_construct),
                      Op(("codec", n), codec, check_codec)))
    rng.shuffle(units)
    ops = [op for unit in units for op in unit]

    def warm_up():
        first = next(u for u in units if u[0].key[1] == M1_LARGE_NS[0])
        return [(op, op.run()) for op in first]

    return ops, warm_up


# ---------------------------------------------------------------------------
# m2-sweep
# ---------------------------------------------------------------------------

M2_POOL_TOP = 24
M2_LARGEST = ((31, 32),)
M2_SEEDED_PER_N = 61


def m2_sweep(env, rng):
    """pipeline_n5..n8 at coprime pairs, each point validated and sent
    through the JSON codec."""
    ex, cli, goldens = env.ex, env.cli, env.goldens
    ops = []
    for n in range(5, 9):
        name = f"pipeline_n{n}"
        for pair in _seeded_pairs(rng, M2_POOL_TOP, M2_SEEDED_PER_N,
                                  REFERENCE_PAIRS + M2_LARGEST):
            key = ("m2", n, pair)

            def run(name=name, pair=pair):
                system = getattr(ex, name)(*pair)
                ok = ex.validate_system(system).ok
                return system, ok, cli.system_from_json(
                    cli.system_to_json(system))

            def check(out, key=key):
                system, ok, decoded = out
                if not ok:
                    raise CheckError("validate_system rejected the system")
                if not _same_system(system, decoded):
                    raise CheckError("JSON round trip changed the system")
                return _system_check(goldens, key, system)

            ops.append(Op(key, run, check))
    rng.shuffle(ops)

    def warm_up():
        return [(op, op.run()) for op in ops if op.key[2] == (1, 2)]

    return ops, warm_up


# ---------------------------------------------------------------------------
# rederive
# ---------------------------------------------------------------------------

DERIVE_POOL_TOP = 9
DERIVE_LARGEST = ((11, 12),)
DERIVE_SEEDED_PER_N = 9
EVAL_T = (2,) + tuple(range(4, 13))
# Enough cheap evals that the median op lies inside the block of the
# derive_n7/n8 ops rather than on the edge between two kinds of op.
EVALS_PER_FAMILY = 5


def _eval_op(env, fid, params):
    ex, goldens = env.ex, env.goldens
    key = ("eval", fid, params)

    def run():
        return ex.eval_family(fid, params)

    def check(system):
        return _system_check(goldens, key, system,
                             distinct=fid not in REPEATING_FAMILIES)

    return Op(key, run, check)


def rederive(env, rng):
    """derive_n5..n8 at a panel of pairs, each with the pipeline system
    at the same pair; eval_family and cross_check for every family."""
    ex, goldens = env.ex, env.goldens
    ops = []
    for n in range(5, 9):
        for pair in _seeded_pairs(rng, DERIVE_POOL_TOP, DERIVE_SEEDED_PER_N,
                                  REFERENCE_PAIRS + DERIVE_LARGEST):
            key = ("derive", n, pair)

            def run(n=n, pair=pair):
                got = getattr(ex, f"derive_n{n}")(*pair)
                return got, getattr(ex, f"pipeline_n{n}")(*pair)

            def check(out, n=n, pair=pair):
                got, system = out
                check_derive(n, pair, got)
                return _system_check(goldens, ("m2", n, pair), system)

            ops.append(Op(key, run, check))
    for fid, kind in FAMILIES.items():
        if kind == "t":
            points = [2] + rng.sample(EVAL_T[1:], EVALS_PER_FAMILY - 1)
        else:
            points = _seeded_pairs(rng, DERIVE_POOL_TOP, EVALS_PER_FAMILY - 1,
                                   REFERENCE_PAIRS[:1])
        ops.extend(_eval_op(env, fid, params) for params in points)

        def cross(fid=fid):
            report = ex.cross_check(fid)
            return report.ok, len(report.points)

        def check_cross(out):
            ok, points = out
            if not ok or points < 1:
                raise CheckError("cross_check reported a mismatch")
            return 0

        ops.append(Op(("cross-check", fid), cross, check_cross))
    rng.shuffle(ops)

    def warm_up():
        # the catalog parse and the method-1 family cache, at the
        # published method-1 points
        ex.list_families()
        out = []
        for n in (5, 6):
            key = ("m1", n, 2)
            op = Op(key, lambda n=n: ex.generate_method1(n, 2),
                    lambda s, key=key: _system_check(goldens, key, s))
            out.append((op, op.run()))
        return out

    return ops, warm_up


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

CLI_PAIR_TOP = 12
# The sweeps are fixed: they are half of a round, and their cost grows
# with t and with the pairs, so seeded ranges would move the figures from
# seed to seed.  The method-2 sweep (1,100 points) takes about as long as
# the 50-point method-1 sweep and has the largest output of the
# workload.  Four long ops of 19 put the 90th percentile inside their
# block rather than on its edge.
CLI_SWEEPS = ((6, 1, (2, 51)), (7, 2, 60))  # (n, method, t range or max sum)


class CliRunner:
    """Starts one CLI process per op: ``python -m exsquares.cli`` with
    PYTHONPATH=src, or the span launcher in the traced phase."""

    def __init__(self, env):
        self.env = env
        path = os.path.join(env.root, "src")
        if os.environ.get("PYTHONPATH"):
            path += os.pathsep + os.environ["PYTHONPATH"]
        self.child_env = dict(os.environ, PYTHONPATH=path)

    def __call__(self, args, stdin=None):
        env = self.child_env
        if self.env.trace_prefix is None:
            cmd = [sys.executable, "-m", "exsquares.cli", *args]
        else:
            cmd = [sys.executable,
                   os.path.join(BENCH_DIR, "cli_launcher.py"), *args]
            env = dict(env, **{TRACE_ENV: self.env.trace_prefix})
        proc = subprocess.run(cmd, input=stdin, capture_output=True,
                              text=True, env=env, cwd=self.env.root,
                              timeout=120)
        if proc.returncode != 0:
            raise OpFailed(f"exit {proc.returncode}: {proc.stderr[-300:]}")
        return proc.stdout, proc.stderr


def _sweep_points(method, limit):
    """The points of a CLI sweep in its output order, and the degenerate
    ones among them (|t| <= 1 for method 1, (1, 1) for method 2)."""
    if method == 1:
        points = list(range(limit[0], limit[1] + 1))
        return points, [t for t in points if abs(t) <= 1]
    points = [(p1, total - p1) for total in range(2, limit + 1)
              for p1 in range(1, total) if math.gcd(p1, total - p1) == 1]
    return points, [p for p in points if p == (1, 1)]


def _check_sweep(goldens, n, method, limit, out):
    points, degenerate = _sweep_points(method, limit)
    stdout, stderr = out
    lines = stdout.splitlines()
    good = [p for p in points if p not in degenerate]
    if len(lines) != len(good):
        raise CheckError(f"sweep printed {len(lines)} systems for "
                         f"{len(good)} non-degenerate points")
    skipped = [ln for ln in stderr.splitlines() if ln.startswith("skipped")]
    if len(skipped) != len(degenerate):
        raise CheckError(f"sweep skipped {len(skipped)} points, expected "
                         f"{len(degenerate)}")
    bits = 0
    for point, line in zip(good, lines):
        m, roots, certs, s = parse_system(line)
        if m != n:
            raise CheckError(f"sweep line for {point} has n = {m}")
        bits = max(bits, check_system(n, roots, certs, s))
        check_reference(goldens, ("m1" if method == 1 else "m2", n, point),
                        roots)
    return bits


def cli(env, rng):
    """One client running CLI processes in a fixed, seeded mix."""
    goldens = env.goldens
    call = CliRunner(env)
    ops = []

    def add(key, args, check, stdin=None):
        ops.append(Op(key, lambda: call(args, stdin), check))

    def check_gen(key, distinct=True):
        def check(out):
            n, roots, certs, s = parse_system(out[0])
            bits = check_system(n, roots, certs, s, distinct=distinct)
            check_reference(goldens, key, roots)
            return bits
        return check

    for n in range(3, 9):
        t = rng.choice(T_POOL)
        add(("m1", n, t), ["gen", "--n", str(n), "--method", "1",
                           "--t", str(t)], check_gen(("m1", n, t)))
    pairs = coprime_pairs(CLI_PAIR_TOP)
    for n in range(5, 9):
        p = rng.choice(pairs)
        add(("m2", n, p), ["gen", "--n", str(n), "--method", "2",
                           "--params", f"{p[0]},{p[1]}"],
            check_gen(("m2", n, p)))

    def check_ok(out):
        if out[0].strip() != "ok":
            raise CheckError(f"verify printed {out[0].strip()!r}")
        return 0

    published = sorted((k for k in goldens if k[0] != "eval"), key=repr)
    file_key, stdin_key = rng.sample(published, 2)
    verify_path = os.path.join(env.work_dir, "system.json")
    add(("verify-file", file_key), ["verify", verify_path], check_ok)
    add(("verify-stdin", stdin_key), ["verify"], check_ok,
        stdin=system_json(goldens[stdin_key]))

    def check_list(out):
        ids = [ln.split()[0] for ln in out[0].splitlines() if ln.strip()]
        if ids != sorted(set(ids)) or not set(FAMILIES) <= set(ids):
            raise CheckError(f"catalog list printed ids {ids}")
        return 0

    add(("catalog-list",), ["catalog", "list"], check_list)
    fid = rng.choice(sorted(FAMILIES))
    if FAMILIES[fid] == "t":
        params = rng.choice(T_POOL)
        flag = ["--t", str(params)]
    else:
        params = rng.choice(pairs)
        flag = ["--params", f"{params[0]},{params[1]}"]
    add(("eval", fid, params), ["catalog", "eval", fid, *flag],
        check_gen(("eval", fid, params),
                  distinct=fid not in REPEATING_FAMILIES))

    def check_cross(out):
        text = out[0].strip()
        if not (text.startswith("OK (") and text.endswith(" points)")):
            raise CheckError(f"cross-check printed {text!r}")
        return 0

    fid = rng.choice(sorted(FAMILIES))
    add(("cross-check", fid), ["catalog", "cross-check", fid], check_cross)

    for n, method, limit in CLI_SWEEPS:
        flag = ["--t-range", "%d:%d" % limit] if method == 1 \
            else ["--max-sum", str(limit)]
        check = functools.partial(_check_sweep, goldens, n, method, limit)
        for jobs in (1, 2):
            add(("sweep", n, method, jobs),
                ["sweep", "--n", str(n), "--method", str(method), *flag,
                 "--jobs", str(jobs)], check)
    rng.shuffle(ops)

    def warm_up():
        # the files that verify reads, and one process to fill the
        # bytecode and file caches
        with open(verify_path, "w", encoding="utf-8") as fh:
            fh.write(system_json(goldens[file_key]))
        op = next(op for op in ops if op.key == ("catalog-list",))
        return [(op, op.run())]

    return ops, warm_up


WORKLOADS = {"cli": cli, "m1-large": m1_large, "m2-sweep": m2_sweep,
             "rederive": rederive}
