"""Command-line front end.

Subcommands: gen (construct one system), verify (validate the JSON
systems of a file or stdin: one object, or a stream such as sweep's
JSON lines, read a line at a time, one report per system), catalog
(list / eval / cross-check the built-in families; eval validates what
it prints, as gen does, with repeats allowed only for the families in
catalog.REPEATS_BY_DESIGN), sweep (JSON-lines stream over a parameter
range; method 2 builds each unordered pair once).

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
import re
import sys

from .exactmath import DomainError
from .seeds import SquareSystem
from .evolve import generate_method1
from .verify import Report, Violation, validate_system

# derive and catalog are imported only by the code that runs them
GEN_NS = range(3, 9)


def _json_strings(values) -> str:
    # JSON of the decimal strings: digits and "-" need no escaping
    return '["' + '", "'.join(map(str, values)) + '"]' if values else "[]"


def system_to_json(system: SquareSystem) -> str:
    # s has the most digits of any value, so a system past the int->str
    # digit limit raises here, before any root is converted
    s = str(system.s)
    return (f'{{"n": {system.n}, "roots": {_json_strings(system.roots)}, '
            f'"certificates": {_json_strings(system.certificates)}, '
            f'"s": "{s}", "reduced": true}}')


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


def _int_pair(sep: str, text: str, shape: str, entries: str):
    """Two integers written with sep between them; an argparse error
    naming the expected shape or entries otherwise."""
    parts = text.split(sep)
    if len(parts) != 2:
        raise argparse.ArgumentTypeError(f"expected {shape}, got {text!r}")
    try:
        return int(parts[0]), int(parts[1])
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected {entries}, got {text!r}") from None


def _parse_pair(text: str):
    return _int_pair(",", text, "two comma-separated integers", "integers")


def _parse_range(text: str):
    return _int_pair(":", text, "LO:HI", "integers in range")


def _generate(n, method, t, params):
    if method == 1:
        if t is None:
            raise DomainError("method 1 needs --t")
        return generate_method1(n, t)
    if params is None:
        raise DomainError("method 2 needs --params P1,P2")
    from .derive import pipeline
    return pipeline(n, *params)


def _print_validated(system, what, require_distinct=True) -> int:
    """Print the system's JSON if it validates, else report the failure
    on stderr and print nothing; the exit code, 0 or 1."""
    report = validate_system(system, require_distinct=require_distinct)
    if not report.ok:
        print(f"internal error: {what} failed validation\n{report}",
              file=sys.stderr)
        return 1
    print(system_to_json(system))
    return 0


def cmd_gen(args) -> int:
    return _print_validated(
        _generate(args.n, args.method, args.t, args.params),
        "generated system")


_JSON_SPACE = re.compile(r"[ \t\n\r]*")  # what json.loads skips


def _json_values(fh):
    """The JSON values written one after another in a text stream (JSON
    lines or pretty-printed objects).  There is at least one: empty
    input raises.  A line that is one whole value is decoded as it
    arrives, so a JSON-lines stream is never held whole.  From the first
    line that is neither blank nor one whole value (a pretty-printed
    object, two values on one line), the rest of the stream is read and
    decoded as one text.  Error positions count from the start of the
    stream, as if it had been read whole."""
    chars = newlines = 0  # in the lines decoded so far
    rest = ""  # the blank lines since the last value, then the undecoded text
    for line in fh:
        if _JSON_SPACE.fullmatch(line):
            rest += line
            continue
        try:
            obj = json.loads(line)
        except (json.JSONDecodeError, RecursionError):
            rest += line + fh.read()
            break
        chars += len(rest) + len(line)
        newlines += rest.count("\n") + line.count("\n")
        rest = ""
        yield obj
    else:
        if chars:  # a value was decoded, and only blank lines follow it
            return
    decoder, end = json.JSONDecoder(), 0
    try:
        while True:
            obj, end = decoder.raw_decode(rest,
                                          _JSON_SPACE.match(rest, end).end())
            yield obj
            if _JSON_SPACE.match(rest, end).end() == len(rest):
                return
    except json.JSONDecodeError as exc:
        raise ValueError(f"{exc.msg}: line {exc.lineno + newlines} column "
                         f"{exc.colno} (char {exc.pos + chars})") from None
    except RecursionError:  # a value nested past the decoder's limit
        raise ValueError("JSON value nested too deeply to decode") from None


def _verify_stream(fh, allow_repeats) -> int:
    failed = False
    for obj in _json_values(fh):
        system = _system_from_obj(obj)
        report = validate_system(system, require_distinct=not allow_repeats)
        if obj.get("reduced") is True:
            g = math.gcd(*system.roots, *system.certificates)
            if g > 1:
                report = Report(False, report.violations + (Violation(
                    None, "not-reduced",
                    f"roots and certificates share the factor {g}"),))
        print(report)
        failed = failed or not report.ok
    return 1 if failed else 0


def cmd_verify(args) -> int:
    if args.file is None or args.file == "-":
        return _verify_stream(sys.stdin, args.allow_repeats)
    with open(args.file, "r", encoding="utf-8") as fh:
        return _verify_stream(fh, args.allow_repeats)


def cmd_catalog(args) -> int:
    from . import catalog
    if args.action == "list":
        for fid in catalog.list_families():
            rec = catalog.get_family(fid)
            print(f"{fid}  n={rec.n}  degree={rec.degree}  kind={rec.kind}")
        return 0
    if args.action == "eval":
        # the record's kind picks the flag, as gen's --method does
        pq = catalog.get_family(args.id).kind == "pq"
        params = args.params if pq else args.t
        if params is None:
            raise DomainError(f"family {args.id} takes "
                              + ("--params P1,P2" if pq else "--t T"))
        return _print_validated(
            catalog.eval_family(args.id, params), "catalog system",
            require_distinct=args.id not in catalog.REPEATS_BY_DESIGN)
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
    from .derive import pipeline_entry
    pipeline_entry(args.n)
    return ((p1, total - p1) for total in range(2, args.max_sum + 1)
            for p1 in range(1, total) if math.gcd(p1, total - p1) == 1)


def cmd_sweep(args) -> int:
    failed = False
    # Method 2: pipeline(n, p1, p2) == pipeline(n, p2, p1) (see derive), and
    # (p2, p1) follows (p1, p2) in the same p1 + p2 block, so the line of
    # a validated (p1, p2) with p1 < p2 waits here, keyed by its mirror,
    # and is printed again there: at most max-sum / 2 lines are held.
    # A skipped or failed point keeps nothing, so its mirror is built and
    # logged under its own name.
    mirrored = {}
    for point in _sweep_points(args):
        if point in mirrored:
            print(mirrored.pop(point))
            continue
        t, params = (point, None) if args.method == 1 else (None, point)
        try:
            system = _generate(args.n, args.method, t, params)
        except DomainError as exc:
            print(f"skipped {point}: {exc}", file=sys.stderr)
            continue
        report = validate_system(system)
        if report.ok:
            line = system_to_json(system)
            print(line)
            if params is not None and point[0] < point[1]:
                mirrored[point[::-1]] = line
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

    ver = sub.add_parser("verify", help="validate JSON systems")
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
