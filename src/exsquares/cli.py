"""Command-line front end.

Subcommands: gen (construct one system), verify (validate a JSON
system from a file or stdin), catalog (list / eval / cross-check the
built-in families), sweep (JSON-lines stream over a parameter range).

All big integers are serialized as decimal strings; the values exceed
64-bit range by hundreds of bits and must survive any JSON reader.
Exit codes: 0 valid, 1 verification failure, 2 bad or degenerate
input, 3 I/O or parse error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from .exactmath import DomainError
from .seeds import SquareSystem
from .evolve import generate_method1
from .verify import Report, Violation, validate_system

# derive and catalog are imported only by the code that runs them
_PIPELINE_NS = (5, 6, 7, 8)

GEN_NS = range(3, 9)


def system_to_json(system: SquareSystem) -> str:
    return json.dumps({
        "n": system.n,
        "roots": [str(r) for r in system.roots],
        "certificates": [str(c) for c in system.certificates],
        "s": str(system.s),
        "reduced": True,
    })


def _json_int(value) -> int:
    """A JSON integer (not true/false) or a string."""
    if type(value) not in (int, str):
        raise TypeError(f"expected an integer or a string, got {value!r:.40}")
    return int(value)


def _json_ints(values) -> tuple:
    """An array of _json_int values."""
    if type(values) is not list or not set(map(type, values)) <= {int, str}:
        raise TypeError(f"expected an array of integers or strings, "
                        f"got {values!r:.40}")
    return tuple(map(int, values))


def _system_from_obj(obj) -> SquareSystem:
    try:
        return SquareSystem(_json_int(obj["n"]), _json_ints(obj["roots"]),
                            _json_ints(obj["certificates"]),
                            _json_int(obj["s"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a system object: {exc}") from exc


def system_from_json(text: str) -> SquareSystem:
    return _system_from_obj(json.loads(text))


def _parse_pair(text: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected two comma-separated integers, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers, got {text!r}") from None


def _parse_range(text: str):
    parts = text.split(":")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(
            f"expected LO:HI, got {text!r}")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected integers in range, got {text!r}") from None
    return lo, hi


def _pipeline(n):
    """derive's pipeline_n<n>; DomainError for an n without one."""
    if n not in _PIPELINE_NS:
        raise DomainError(
            f"method 2 has built-in pipelines for n in {list(_PIPELINE_NS)}")
    from . import derive
    return getattr(derive, f"pipeline_n{n}")


def _generate(n, method, t, params):
    if method == 1:
        if t is None:
            raise DomainError("method 1 needs --t")
        return generate_method1(n, t)
    if params is None:
        raise DomainError("method 2 needs --params P1,P2")
    return _pipeline(n)(*params)


def cmd_gen(args) -> int:
    system = _generate(args.n, args.method, args.t, args.params)
    report = validate_system(system)
    if not report.ok:
        print(f"internal error: generated system failed validation\n{report}",
              file=sys.stderr)
        return 1
    print(system_to_json(system))
    return 0


def cmd_verify(args) -> int:
    if args.file is None or args.file == "-":
        text = sys.stdin.read()
    else:
        with open(args.file, "r", encoding="utf-8") as fh:
            text = fh.read()
    obj = json.loads(text)
    system = _system_from_obj(obj)
    report = validate_system(system,
                             require_distinct=not args.allow_repeats)
    if obj.get("reduced") is True:
        g = math.gcd(*system.roots, *system.certificates)
        if g > 1:
            report = Report(False, report.violations + (Violation(
                None, "not-reduced",
                f"roots and certificates share the factor {g}"),))
    print(report)
    return 0 if report.ok else 1


def cmd_catalog(args) -> int:
    from . import catalog
    if args.action == "list":
        for fid in catalog.list_families():
            rec = catalog.get_family(fid)
            print(f"{fid}  n={rec.n}  degree={rec.degree}  kind={rec.kind}")
        return 0
    if args.action == "eval":
        if args.t is not None:
            params = args.t
        elif args.params is not None:
            params = args.params
        else:
            raise DomainError("catalog eval needs --params P1,P2 or --t T")
        print(system_to_json(catalog.eval_family(args.id, params)))
        return 0
    report = catalog.cross_check(args.id)
    print(report)
    return 0 if report.ok else 1


def _sweep_points(args):
    """The sweep's points in a fixed order, produced lazily: t for
    method 1, coprime (p1, p2) for method 2. A missing flag, or a
    method-2 n without a pipeline, raises at once, before any output."""
    if args.method == 1:
        if args.t_range is None:
            raise DomainError("method 1 sweeps need --t-range LO:HI")
        lo, hi = args.t_range
        return range(lo, hi + 1)
    if args.max_sum is None:
        raise DomainError("method 2 sweeps need --max-sum N")
    _pipeline(args.n)
    return ((p1, total - p1) for total in range(2, args.max_sum + 1)
            for p1 in range(1, total) if math.gcd(p1, total - p1) == 1)


def cmd_sweep(args) -> int:
    failed = False
    for point in _sweep_points(args):
        t, params = (point, None) if args.method == 1 else (None, point)
        try:
            system = _generate(args.n, args.method, t, params)
        except DomainError as exc:
            print(f"skipped {point}: {exc}", file=sys.stderr)
            continue
        report = validate_system(system)
        if report.ok:
            print(system_to_json(system))
        else:
            print(f"validation failed at {point}: {report}", file=sys.stderr)
            failed = True
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="exsquares",
        description="Construct sets of n distinct squares whose sum minus "
                    "any one member is again a square.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="construct one system")
    gen.add_argument("--n", type=int, required=True, choices=GEN_NS,
                     help="number of squares")
    gen.add_argument("--method", type=int, required=True, choices=(1, 2),
                     help="1 = seed and transform, 2 = chain assignment")
    gen.add_argument("--t", type=int, help="method 1 seed parameter")
    gen.add_argument("--params", type=_parse_pair, metavar="P1,P2",
                     help="method 2 parameter pair (write --params=-1,2)")
    gen.set_defaults(func=cmd_gen)

    ver = sub.add_parser("verify", help="validate a JSON system")
    ver.add_argument("file", nargs="?",
                     help="JSON file (default or '-': stdin)")
    ver.add_argument("--allow-repeats", action="store_true",
                     help="accept repeated roots")
    ver.set_defaults(func=cmd_verify)

    cat = sub.add_parser("catalog", help="built-in published families")
    cat.add_argument("action", choices=("list", "eval", "cross-check"))
    cat.add_argument("id", nargs="?", help="family id")
    cat.add_argument("--params", type=_parse_pair, metavar="P1,P2",
                     help="pq family pair (write --params=-1,2)")
    cat.add_argument("--t", type=int)
    cat.set_defaults(func=cmd_catalog)

    sweep = sub.add_parser("sweep", help="JSON-lines over a parameter range")
    sweep.add_argument("--n", type=int, required=True, choices=GEN_NS)
    sweep.add_argument("--method", type=int, required=True, choices=(1, 2))
    sweep.add_argument("--t-range", type=_parse_range, metavar="LO:HI",
                       help="inclusive t range for method 1")
    sweep.add_argument("--max-sum", type=int,
                       help="method 2: all coprime pairs with p1+p2 <= N")
    sweep.add_argument("--jobs", type=int, default=1,
                       help="accepted and ignored: sweeps run in one process")
    sweep.set_defaults(func=cmd_sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "catalog" and args.action in ("eval", "cross-check") \
            and args.id is None:
        parser.error(f"catalog {args.action} needs a family id")
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader stopped early (sweep ... | head).  Point stdout at
        # devnull so that the flush at shutdown does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (OSError, ValueError) as exc:  # ValueError: parse, int<->str limit
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, DomainError) else 3


if __name__ == "__main__":
    sys.exit(main())
