"""The exsquares benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --steady RUNS [--workload NAME] [--seconds S]
                         [--save FILE] [--against FILE]

A run builds the workload's inputs from the seed, warms up, then runs
whole rounds of its ops in a closed loop (one op in flight) until S
seconds have passed, timing each op from outside the package and
checking every output.  The last line of standard output is one JSON
object: correct, attempted, failed and metrics.  With --trace 0 the
metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 the
run measures untraced and then traced, and the metrics are the
per-layer ones, tracing overhead included.

--steady runs each workload RUNS times with consecutive seeds, each in
a fresh process, and prints the median and quartiles of every
end-to-end metric next to its bound.  --save keeps the runs as JSON,
--against compares the medians with runs kept earlier.

Needs only the standard library.  The package is imported from src/ of
the checkout; children get PYTHONPATH=src and start with sys.executable.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # benchmark start, for setup_s

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")

from checker import load_goldens  # noqa: E402
from spans import Tracer, layer_metrics, load_dumps, merge  # noqa: E402
from workloads import WORKLOADS, CliRunner, Env  # noqa: E402

SETUP_SAMPLES = 5  # this process plus four fresh ones
MIN_OPS = 100  # completed ops a run needs, so that ten lie beyond its p90
PROBE_SAMPLES = 7  # interpreter and import probes of the traced run


class BenchError(Exception):
    """The benchmark cannot run here."""


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _import_package():
    sys.path.insert(0, SRC)
    try:
        import exsquares
        import exsquares.cli
    except ImportError as exc:
        raise BenchError(f"cannot import exsquares from {SRC}: {exc}")
    where = os.path.dirname(os.path.abspath(exsquares.__file__))
    if os.path.dirname(where) != SRC:
        raise BenchError(f"exsquares was imported from {where}, not {SRC}")
    return exsquares, exsquares.cli


def _cpu_ns():
    """User + system CPU of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        ru = resource.getrusage(who)
        total += ru.ru_utime + ru.ru_stime
    return int(total * 1e9)


def _peak_rss_mib():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024


class Verifier:
    """Checks each op's first output in full; a later output of the same
    op must equal the first."""

    def __init__(self):
        self.seen = {}
        self.bits_max = 0
        self.errors = []

    def verify(self, op, out):
        if op.key in self.seen:
            if self.seen[op.key] != out:
                self.errors.append(f"{op.key}: output differs from the "
                                   f"first call with the same input")
            return
        try:
            bits = op.check(out)
        except Exception as exc:  # any malformed output is a wrong one
            self.errors.append(f"{op.key}: {type(exc).__name__}: {exc}")
            return
        self.seen[op.key] = out
        self.bits_max = max(self.bits_max, bits)


def measure(ops, seconds, verifier):
    """Whole rounds of ops until `seconds` have passed and MIN_OPS ops
    have completed.  Check time is taken out of the wall and CPU figures
    of each round."""
    clock = time.perf_counter_ns
    latencies = []
    failures = {}
    rounds = []  # (completed ops, wall ns, CPU ns) per round
    measured = 0
    while measured < seconds * 1e9 or 0 < len(latencies) < MIN_OPS:
        start, cpu0 = clock(), _cpu_ns()
        check_ns = check_cpu_ns = done = 0
        for op in ops:
            t0 = clock()
            try:
                out = op.run()
            except Exception as exc:  # a failed op is counted, not fatal
                entry = failures.setdefault(type(exc).__name__,
                                            [0, str(exc)[:200]])
                entry[0] += 1
                continue
            latencies.append(clock() - t0)
            done += 1
            c0, p0 = clock(), time.process_time_ns()
            verifier.verify(op, out)
            check_ns += clock() - c0
            check_cpu_ns += time.process_time_ns() - p0
        wall_ns = clock() - start - check_ns
        rounds.append((done, wall_ns, _cpu_ns() - cpu0 - check_cpu_ns))
        measured += wall_ns
    if not latencies:
        raise BenchError(f"no op completed: {failures}")
    attempted = len(ops) * len(rounds)
    return {"latencies": latencies, "attempted": attempted,
            "failed": attempted - len(latencies), "failures": failures,
            "rounds": rounds}


def ops_per_s(result):
    """Median over rounds of completed ops / wall time of the round."""
    return statistics.median(done / (wall / 1e9)
                             for done, wall, _ in result["rounds"])


def end_to_end(result, setup_s, bits_max):
    lat_ms = sorted(v / 1e6 for v in result["latencies"])
    return {
        "setup_s": setup_s,
        "ops_per_s": ops_per_s(result),
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": statistics.quantiles(lat_ms, n=10,
                                          method="inclusive")[8],
        "cpu_ms_per_op": statistics.median(
            cpu / 1e6 / done for done, _, cpu in result["rounds"]),
        "peak_rss_mib": _peak_rss_mib(),
        "root_bits_max": bits_max,
    }


def _probe_ms(cmd, env):
    times = []
    for _ in range(PROBE_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True,
                       stdout=subprocess.DEVNULL, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)


def _setup_probe(args):
    """Setup time of a fresh process running the same workload and seed."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--workload",
         args.workload, "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, cwd=ROOT, timeout=120)
    if proc.returncode != 0:
        raise BenchError(f"setup probe failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])["setup_s"]


def run_once(args):
    ex, cli = _import_package()
    work_dir = os.path.join(ROOT, ".bench_out",
                            f"{args.workload}-{os.getpid()}")
    os.makedirs(work_dir)
    try:
        return _run_in(args, ex, cli, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _run_in(args, ex, cli, work_dir):
    env = Env(ROOT, work_dir, load_goldens(ROOT), ex, cli)
    rng = random.Random(f"{args.workload}:{args.seed}")
    ops, warm_up = WORKLOADS[args.workload](env, rng)
    warm = warm_up()
    setup_s = time.perf_counter() - _START
    verifier = Verifier()
    for op, out in warm:
        verifier.verify(op, out)
    if args.setup_only:
        if verifier.errors:
            raise BenchError("; ".join(verifier.errors))
        return None, {"setup_s": setup_s}

    spec = _spec()
    info = {"python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "ops_per_round": len(ops)}
    if not args.trace:
        setups = [setup_s] + [_setup_probe(args)
                              for _ in range(SETUP_SAMPLES - 1)]
        result = measure(ops, args.seconds, verifier)
        values = end_to_end(result, statistics.median(setups),
                            verifier.bits_max)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}
        info["setup_samples_s"] = setups
        runs = [result]
    else:
        metrics, runs = _traced(args, env, ops, verifier, work_dir, spec)
    info["rounds"] = [len(r["rounds"]) for r in runs]
    failures = info["failures"] = {}
    for r in runs:
        for kind, (count, message) in r["failures"].items():
            failures.setdefault(kind, [0, message])[0] += count
    info["errors"] = verifier.errors[:5]
    summary = {"correct": not verifier.errors,
               "attempted": sum(r["attempted"] for r in runs),
               "failed": sum(r["failed"] for r in runs),
               "metrics": metrics}
    return info, summary


def _traced(args, env, ops, verifier, work_dir, spec):
    """Untraced, then traced, half the time each; per-layer figures from
    the traced phase."""
    plain = measure(ops, args.seconds / 2, verifier)
    span_dir = os.path.join(work_dir, "spans")
    if args.workload == "cli":
        os.makedirs(span_dir)
        env.trace_prefix = os.path.join(span_dir, "cli")
    else:
        tracer = Tracer()
        tracer.install()
        tracer.reset()
    traced = measure(ops, args.seconds / 2, verifier)
    if args.workload == "cli":
        snap = merge(load_dumps(span_dir))
    else:
        snap = tracer.snapshot()
    values = layer_metrics(snap, traced["attempted"])

    child_env = CliRunner(env).child_env
    interp = _probe_ms([sys.executable, "-c", "pass"], child_env)
    imported = _probe_ms([sys.executable, "-c", "import exsquares.cli"],
                         child_env)
    values["cli.interp_ms"] = interp
    values["cli.import_ms"] = imported - interp
    plain_rate, traced_rate = ops_per_s(plain), ops_per_s(traced)
    values["trace.ops_per_s_untraced"] = plain_rate
    values["trace.ops_per_s_traced"] = traced_rate
    values["trace.overhead_pct"] = (plain_rate / traced_rate - 1) * 100

    out_path = os.path.join(ROOT, ".bench_out",
                            f"trace-{args.workload}-seed{args.seed}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(snap, fh, indent=1, sort_keys=True)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec["per_layer"]}
    return metrics, [plain, traced]


# ---------------------------------------------------------------------------
# steadiness mode
# ---------------------------------------------------------------------------

def steady(args):
    spec = _spec()
    names = [args.workload] if args.workload else \
        [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    runs = {}
    for name in names:
        runs[name] = []
        for i in range(args.steady):
            seed = args.seed + i
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload",
                 name, "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", "0"],
                capture_output=True, text=True, cwd=ROOT, timeout=600)
            if proc.returncode != 0:
                raise BenchError(f"{name} seed {seed}: {proc.stderr[-500:]}")
            runs[name].append(json.loads(proc.stdout.splitlines()[-1]))
            print(f"{name} seed {seed} done", file=sys.stderr, flush=True)
    earlier = None
    if args.against:
        with open(args.against, encoding="utf-8") as fh:
            earlier = json.load(fh)
    for name in names:
        res = runs[name]
        shares = sorted({f"{r['failed']}/{r['attempted']}" for r in res})
        print(f"\n{name}: {len(res)} runs, all correct: "
              f"{all(r['correct'] for r in res)}, failed/attempted: "
              f"{', '.join(shares)}")
        print(f"  {'metric':<16}{'q1':>12}{'median':>12}{'q3':>12}"
              f"{'spread':>9}{'bound':>7}  verdict")
        for m in spec["end_to_end"]:
            vals = [r["metrics"][m["name"]]["value"] for r in res]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            if m["name"] == "setup_s":
                verdict = "not gated"
            elif spread <= m["bound"] / 3:
                verdict = "steady"
            elif spread <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "WIDER THAN BOUND"
            line = (f"  {m['name']:<16}{q1:>12.4f}{med:>12.4f}{q3:>12.4f}"
                    f"{spread:>9.3f}{m['bound']:>7.2f}  {verdict}")
            if earlier and name in earlier:
                old = statistics.median(r["metrics"][m["name"]]["value"]
                                        for r in earlier[name])
                worse = (med - old) / old if m["better"] == "lower" \
                    else (old - med) / old
                line += (f"; vs earlier {old:.4f}: "
                         f"{'worse' if worse > 0 else 'not worse'} by "
                         f"{abs(worse):.3f}"
                         f"{' > bound' if worse > m['bound'] else ''}")
            print(line)
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(runs, fh)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--steady", type=int, metavar="RUNS")
    parser.add_argument("--save")
    parser.add_argument("--against")
    args = parser.parse_args()
    try:
        if args.steady:
            steady(args)
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.seconds is None:
            args.seconds = _spec()["run_seconds"]
        info, summary = run_once(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if info is not None:
        print(json.dumps({"info": info}))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
