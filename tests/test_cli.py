import hashlib
import json
import math
import os
import select
import shlex
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from goldens import M1_N5_T2, M1_N6_T2, M2_N5_12, M2_N6_12
from oracles import lemma3_special, system_to_json_dumps
from exsquares import catalog, cli
from exsquares.cli import system_from_json, system_to_json
from exsquares.exactmath import DomainError
from exsquares.evolve import generate_method1
from exsquares.seeds import SquareSystem
from exsquares.verify import validate_system


_M1_N5_T2_TEXT = system_to_json(generate_method1(5, 2))
_M1_N5_T2_OBJ = json.loads(_M1_N5_T2_TEXT)


def run(*args, stdin=None):
    return subprocess.run([sys.executable, "-m", "exsquares.cli", *args],
                          capture_output=True, text=True, input=stdin)


def test_gen_emits_schema_with_decimal_strings():
    proc = run("gen", "--n", "5", "--method", "1", "--t", "2")
    assert proc.returncode == 0
    obj = json.loads(proc.stdout)
    assert list(obj) == ["n", "roots", "certificates", "s", "reduced"]
    assert obj["n"] == 5
    assert obj["reduced"] is True
    assert all(isinstance(r, str) for r in obj["roots"])
    assert all(isinstance(c, str) for c in obj["certificates"])
    assert isinstance(obj["s"], str)
    assert sorted(int(r) for r in obj["roots"]) == M1_N5_T2


def test_gen_published_values():
    proc = run("gen", "--n", "6", "--method", "1", "--t", "2")
    assert sorted(int(r) for r in json.loads(proc.stdout)["roots"]) == \
        M1_N6_T2
    proc = run("gen", "--n", "5", "--method", "2", "--params", "1,2")
    assert proc.returncode == 0
    assert '"3023249"' in proc.stdout
    assert sorted(int(r) for r in json.loads(proc.stdout)["roots"]) == \
        M2_N5_12


def test_gen_is_byte_stable():
    a = run("gen", "--n", "7", "--method", "2", "--params", "2,1")
    b = run("gen", "--n", "7", "--method", "2", "--params", "2,1")
    assert a.stdout == b.stdout


def test_gen_degenerate_parameter_exits_2():
    proc = run("gen", "--n", "5", "--method", "1", "--t", "0")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert "vanishes" in proc.stderr


def test_gen_flag_mismatches_exit_2():
    assert run("gen", "--n", "5", "--method", "1").returncode == 2
    assert run("gen", "--n", "5", "--method", "2").returncode == 2
    assert run("gen", "--n", "9", "--method", "1", "--t", "2") \
        .returncode == 2
    assert run("gen", "--n", "5", "--method", "2",
               "--params", "1,2,3").returncode == 2


def test_verify_round_trip():
    gen = run("gen", "--n", "8", "--method", "2", "--params", "2,1")
    ver = run("verify", stdin=gen.stdout)
    assert ver.returncode == 0
    assert ver.stdout.strip() == "ok"


def test_verify_reads_files(tmp_path):
    gen = run("gen", "--n", "5", "--method", "2", "--params", "1,2")
    path = tmp_path / "system.json"
    path.write_text(gen.stdout)
    assert run("verify", str(path)).returncode == 0
    assert run("verify", str(tmp_path / "missing.json")).returncode == 3


def test_verify_hand_edited_root_fails_with_entry():
    gen = run("gen", "--n", "5", "--method", "2", "--params", "1,2")
    obj = json.loads(gen.stdout)
    obj["roots"][2] = str(int(obj["roots"][2]) + 1)
    ver = run("verify", stdin=json.dumps(obj))
    assert ver.returncode == 1
    assert "entry" in ver.stdout


def test_verify_malformed_json_exits_3():
    assert run("verify", stdin="{oops").returncode == 3
    assert run("verify", stdin='{"n": 5}').returncode == 3


def test_verify_checks_the_reduced_claim():
    gen = run("gen", "--n", "5", "--method", "1", "--t", "2")
    assert run("verify", stdin=gen.stdout).returncode == 0
    obj = json.loads(gen.stdout)
    obj["roots"] = [str(3 * int(r)) for r in obj["roots"]]
    obj["certificates"] = [str(3 * int(c)) for c in obj["certificates"]]
    obj["s"] = str(9 * int(obj["s"]))
    scaled = run("verify", stdin=json.dumps(obj))
    assert scaled.returncode == 1
    assert scaled.stdout == \
        "[not-reduced] global: roots and certificates share the factor 3\n"
    del obj["reduced"]  # no claim, nothing to check
    assert run("verify", stdin=json.dumps(obj)).returncode == 0


def test_verify_allow_repeats():
    system = SquareSystem.from_pairs(lemma3_special(2, 3).pairs)
    text = system_to_json(system)
    assert run("verify", stdin=text).returncode == 1
    assert run("verify", "--allow-repeats", stdin=text).returncode == 0


def test_verify_checks_every_system_of_a_sweep():
    sweep = run("sweep", "--n", "7", "--method", "2", "--max-sum", "30")
    assert sweep.returncode == 0
    n_lines = len(sweep.stdout.splitlines())
    assert n_lines > 200
    cli_cmd = f"{shlex.quote(sys.executable)} -m exsquares.cli"
    proc = subprocess.run(
        f"{cli_cmd} sweep --n 7 --method 2 --max-sum 30 | {cli_cmd} verify",
        shell=True, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n" * n_lines


def test_verify_stream_reports_each_system_in_order():
    lines = run("sweep", "--n", "5", "--method", "1",
                "--t-range", "2:5").stdout.splitlines()
    obj = json.loads(lines[2])
    obj["certificates"][1] = str(int(obj["certificates"][1]) + 1)
    lines[2] = json.dumps(obj)
    proc = run("verify", stdin="\n".join(lines) + "\n")
    assert proc.returncode == 1
    reports = proc.stdout.splitlines()
    assert len(reports) == 4
    assert reports[:2] + reports[3:] == ["ok"] * 3
    assert reports[2].startswith("[certificate] entry 2: ")
    # objects written one after another, pretty-printed, are a stream too
    pretty = "".join(json.dumps(json.loads(line), indent=2)
                     for line in lines)
    again = run("verify", stdin=pretty)
    assert (again.returncode, again.stdout) == (1, proc.stdout)


def test_verify_reports_a_line_before_its_input_ends():
    env = dict(os.environ, PYTHONUNBUFFERED="1")  # stdout is a pipe
    proc = subprocess.Popen([sys.executable, "-m", "exsquares.cli", "verify"],
                            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env)
    try:
        proc.stdin.write(_M1_N5_T2_TEXT + "\n")
        proc.stdin.flush()
        ready, _, _ = select.select([proc.stdout], [], [], 60)
        assert ready, "no report while stdin is open"
        assert proc.stdout.readline() == "ok\n"
        assert proc.poll() is None  # still reading
        proc.stdin.write(_M1_N5_T2_TEXT + "\n")
        proc.stdin.close()
        assert proc.stdout.read() == "ok\n"
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.wait()
        for pipe in (proc.stdin, proc.stdout, proc.stderr):
            pipe.close()


@pytest.mark.parametrize("text, code, stdout", [
    ("", 3, ""),
    (" \n\n", 3, ""),
    (_M1_N5_T2_TEXT + "\n[1, 2]\n", 3, "ok\n"),
    (_M1_N5_T2_TEXT + "{oops", 3, "ok\n"),
    (json.dumps(json.loads(_M1_N5_T2_TEXT), indent=2), 0, "ok\n"),
    (_M1_N5_T2_TEXT + _M1_N5_T2_TEXT, 0, "ok\nok\n"),
    (_M1_N5_T2_TEXT + "\n" + "[" * 100000 + "\n", 3, "ok\n"),
], ids=["empty", "blank", "then-not-a-system", "then-corrupt-json",
        "one-pretty-printed", "two-on-one-line", "then-deep-nesting"])
def test_verify_stream_edges(text, code, stdout):
    proc = run("verify", stdin=text)
    assert (proc.returncode, proc.stdout) == (code, stdout), proc.stderr
    assert "Traceback" not in proc.stderr


class _StrSpy(int):
    """An int that records each conversion to decimal."""

    converted = []

    def __str__(self):
        _StrSpy.converted.append(self)
        return int.__str__(self)


def test_over_limit_encode_converts_no_root(digit_limit):
    system = generate_method1(48, 2)
    roots = tuple(_StrSpy(r) for r in system.roots)
    certs = tuple(_StrSpy(c) for c in system.certificates)
    _StrSpy.converted.clear()
    with pytest.raises(ValueError):
        system_to_json(SquareSystem(system.n, roots, certs, system.s))
    assert _StrSpy.converted == []


json_ints = st.one_of(st.integers(min_value=-10, max_value=10),
                      st.integers(min_value=-2 ** 300, max_value=2 ** 300))


@given(st.integers(min_value=-2 ** 70, max_value=2 ** 70),
       st.lists(json_ints, max_size=9), st.lists(json_ints, max_size=9),
       json_ints)
@settings(max_examples=300)
def test_system_to_json_equals_the_json_dumps_oracle(n, roots, certs, s):
    # n need not match the lengths, and either list may be empty
    system = SquareSystem(n, tuple(roots), tuple(certs), s)
    assert system_to_json(system) == system_to_json_dumps(system)


# sha256 of the stdout of one sweep at each n = 5..8, concatenated.  They
# were taken when system_to_json went through json.dumps, so they pin the
# bytes of its own writer, which the tests that build their expected
# lines with system_to_json cannot.
@pytest.mark.parametrize("flags, digest", [
    (["--method", "2", "--max-sum", "30"],
     "c4d211bf5091902b730032158d519693f4f590c37838a49daa3aa15b440710f2"),
    (["--method", "1", "--t-range", "2:20"],
     "aedc8df73eb654928f64516c89d26d5054f8e92f9e459d60bee8e4550cb84ff7"),
], ids=["method2", "method1"])
def test_sweep_stdout_is_pinned(flags, digest, capsys):
    out = []
    for n in (5, 6, 7, 8):
        assert cli.main(["sweep", "--n", str(n), *flags]) == 0
        out.append(capsys.readouterr().out)
    assert hashlib.sha256("".join(out).encode()).hexdigest() == digest


def test_json_helpers_round_trip():
    system = SquareSystem.from_pairs(lemma3_special(3, 2).pairs)
    again = system_from_json(system_to_json(system))
    assert again.roots == system.roots
    assert again.certificates == system.certificates
    assert again.s == system.s


def test_catalog_list_and_eval():
    listing = run("catalog", "list")
    assert listing.returncode == 0
    assert len(listing.stdout.strip().splitlines()) >= 3

    ev = run("catalog", "eval", "n6-method2-deg38", "--params", "1,2")
    assert ev.returncode == 0
    roots = json.loads(ev.stdout)["roots"]
    assert sorted(int(r) for r in roots) == M2_N6_12

    ev = run("catalog", "eval", "n5-method1-deg17", "--t", "2")
    assert sorted(int(r) for r in json.loads(ev.stdout)["roots"]) == M1_N5_T2


def _catalog_eval_at_reference(fid):
    """argv of catalog eval at the family's reference point, and the
    point: t = 2 or (1, 2)."""
    if catalog.get_family(fid).kind == "t":
        return ["catalog", "eval", fid, "--t", "2"], 2
    return ["catalog", "eval", fid, "--params", "1,2"], (1, 2)


@pytest.mark.parametrize("fid", catalog.list_families())
def test_catalog_eval_prints_a_system_valid_under_its_policy(fid, capsys):
    argv, point = _catalog_eval_at_reference(fid)
    code = cli.main(argv)
    out, err = capsys.readouterr()
    assert (code, err) == (0, "")
    system = system_from_json(out)
    assert out == system_to_json(catalog.eval_family(fid, point)) + "\n"
    repeats = fid in catalog.REPEATS_BY_DESIGN
    assert validate_system(system, require_distinct=not repeats).ok
    assert system.distinct is not repeats


def test_catalog_eval_exits_1_on_a_corrupt_evaluation(monkeypatch, capsys):
    evaluate, planted = catalog.eval_family, []

    def corrupt_root_4(fid, params):
        system = evaluate(fid, params)
        roots = list(system.roots)
        roots[3] += 1
        planted.append(system._replace(roots=tuple(roots)))
        return planted[-1]

    monkeypatch.setattr(catalog, "eval_family", corrupt_root_4)
    code = cli.main(_catalog_eval_at_reference("n6-method2-deg38")[0])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    report = validate_system(planted[0])
    assert not report.ok
    assert err == ("internal error: catalog system failed validation\n"
                   f"{report}\n")


def test_catalog_eval_allows_repeats_only_by_policy(monkeypatch, capsys):
    # outside the policy, repeated roots mark a degenerate point
    argv = _catalog_eval_at_reference("n5-method2-deg10")[0]
    monkeypatch.setattr(catalog, "REPEATS_BY_DESIGN", frozenset())
    assert cli.main(argv) == 2
    assert capsys.readouterr() == ("", (
        "error: family n5-method2-deg10 has repeated roots at (1, 2)\n"))


@pytest.mark.parametrize("fid, flag, value, point", [
    ("n5-method1-deg17", "--t", "1", "1"),
    ("n5-method1-deg17", "--t", "-1", "-1"),
    ("n5-method2-deg30", "--params", "0,1", "(0, 1)"),
    ("n5-method2-deg30", "--params", "2,0", "(2, 0)"),
])
def test_catalog_eval_degenerate_point_exits_2(fid, flag, value, point,
                                               capsys):
    # the family's roots repeat there, as gen's do at the same kind of
    # point: a DegenerateParameterError, not a validation failure
    assert cli.main(["catalog", "eval", fid, flag, value]) == 2
    assert capsys.readouterr() == (
        "", f"error: family {fid} has repeated roots at {point}\n")


def test_catalog_cross_check():
    proc = run("catalog", "cross-check", "n5-method2-deg30")
    assert proc.returncode == 0
    assert proc.stdout.strip() == "OK (10 points)"


def test_catalog_bad_requests_exit_2():
    assert run("catalog", "eval", "no-such-id", "--params", "1,2") \
        .returncode == 2
    no_params = run("catalog", "eval", "n5-method2-deg30")
    assert no_params.returncode == 2
    assert no_params.stderr == \
        "error: family n5-method2-deg30 takes --params P1,P2\n"
    assert run("catalog", "eval").returncode == 2


@pytest.mark.parametrize("fid, flags, point", [
    ("n6-method2-deg38", ["--t", "3", "--params", "1,2"], (1, 2)),
    ("n5-method1-deg17", ["--params", "1,2", "--t", "2"], 2),
])
def test_catalog_eval_reads_the_flag_of_the_family_kind(fid, flags, point,
                                                        capsys):
    # a pq family ignores --t and a t family ignores --params, as gen
    # ignores the flag of the other method
    assert cli.main(["catalog", "eval", fid, *flags]) == 0
    assert capsys.readouterr() == (
        system_to_json(catalog.eval_family(fid, point)) + "\n", "")


def test_catalog_eval_past_the_digit_limit_exits_3():
    # 38th powers of a 131-digit parameter exceed the int-to-str limit
    big = str(10 ** 130 + 1)
    proc = run("catalog", "eval", "n6-method2-deg38", "--params", f"{big},1")
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1


def _edited(**fields):
    """gen --n 5 --method 1 --t 2 as JSON, with the given fields replaced."""
    return json.dumps({**_M1_N5_T2_OBJ, **fields})


# one invocation per failure kind; FILE is a path that holds the given
# text, or that does not exist when the text is None
BAD_INPUTS = [
    pytest.param(["gen", "--n", "5", "--method", "2", "--params", "0,0"],
                 None, 2, id="gen-zero-pair"),
    pytest.param(["gen", "--n", "5", "--method", "1"], None, 2,
                 id="gen-missing-t"),
    pytest.param(["verify", "FILE"], "[]", 3, id="verify-not-an-object"),
    pytest.param(["verify", "FILE"], "{oops", 3, id="verify-corrupt-json"),
    pytest.param(["verify", "FILE"], None, 3, id="verify-missing-file"),
    pytest.param(["verify", "FILE"],
                 _edited(roots=[461523666596.5, *_M1_N5_T2_OBJ["roots"][1:]]),
                 3, id="verify-float-root"),
    pytest.param(["verify", "FILE"], _edited(n=5.9), 3, id="verify-float-n"),
    pytest.param(["verify", "FILE"], _edited(roots="345"), 3,
                 id="verify-roots-not-an-array"),
    pytest.param(["verify", "FILE"], _edited(n=True), 3, id="verify-bool-n"),
    pytest.param(["verify", "FILE"], "[" * 100000, 3,
                 id="verify-deep-nesting"),
    pytest.param(["catalog", "eval", "no-such-id", "--t", "2"], None, 2,
                 id="catalog-unknown-id"),
    pytest.param(["catalog", "eval", "n5-method2-deg30", "--t", "2"], None, 2,
                 id="catalog-pq-given-t"),
    pytest.param(["catalog", "eval", "n5-method1-deg17", "--params", "1,2"],
                 None, 2, id="catalog-t-given-pair"),
    pytest.param(["catalog", "cross-check", "no-such-id"], None, 2,
                 id="cross-check-unknown-id"),
    pytest.param(["sweep", "--n", "5", "--method", "2"], None, 2,
                 id="sweep-missing-max-sum"),
    pytest.param(["sweep", "--n", "5", "--method", "1", "--t-range", "9"],
                 None, 2, id="sweep-bad-range"),
    pytest.param(["gen", "--n", "5", "--method", "1",
                  "--t", str(10 ** 300 + 7)], None, 3, id="gen-huge-t"),
]


@pytest.mark.parametrize("argv, file_text, code", BAD_INPUTS)
def test_bad_input_exits_2_or_3_without_a_traceback(tmp_path, argv,
                                                     file_text, code):
    path = tmp_path / "system.json"
    if file_text is not None:
        path.write_text(file_text)
    proc = run(*[str(path) if a == "FILE" else a for a in argv])
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_sweep_method1_range_is_inclusive_and_verified():
    proc = run("sweep", "--n", "5", "--method", "1", "--t-range", "2:20")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert len(lines) == 19
    for line in lines:
        system = system_from_json(line)
        assert validate_system(system).ok


def test_sweep_method2_logs_degenerate_skips():
    proc = run("sweep", "--n", "6", "--method", "2", "--max-sum", "6")
    assert proc.returncode == 0
    assert "skipped (1, 1)" in proc.stderr
    for line in proc.stdout.splitlines():
        assert validate_system(system_from_json(line)).ok


def test_sweep_empty_range():
    proc = run("sweep", "--n", "5", "--method", "1", "--t-range", "9:5")
    assert proc.returncode == 0
    assert proc.stdout == ""


def test_sweep_deterministic_across_worker_counts():
    # --jobs is accepted and ignored: it must change nothing
    one = run("sweep", "--n", "5", "--method", "2", "--max-sum", "8")
    four = run("sweep", "--n", "5", "--method", "2", "--max-sum", "8",
               "--jobs", "4")
    assert one.stdout == four.stdout
    assert one.stdout  # not vacuous


def _method2_points(max_sum):
    """sweep --method 2's points in output order."""
    return [(p1, total - p1) for total in range(2, max_sum + 1)
            for p1 in range(1, total) if math.gcd(p1, total - p1) == 1]


@pytest.mark.parametrize("n", [5, 6, 7, 8])
def test_sweep_method2_equals_the_per_point_reference(n, capsys):
    # the sweep builds (p2, p1) from the line of (p1, p2); the reference
    # builds, validates and encodes every point on its own
    out, err = [], []
    for point in _method2_points(25):
        try:
            system = cli._generate(n, 2, None, point)
        except DomainError as exc:
            err.append(f"skipped {point}: {exc}\n")
            continue
        report = validate_system(system)
        if report.ok:
            out.append(system_to_json(system) + "\n")
        else:
            err.append(f"validation failed at {point}: {report}\n")
    code = cli.main(["sweep", "--n", str(n), "--method", "2",
                     "--max-sum", "25"])
    assert (code, *capsys.readouterr()) == (0, "".join(out), "".join(err))
    assert len(out) > 150


def test_sweep_method2_builds_the_mirror_of_a_skipped_point(monkeypatch,
                                                              capsys):
    generate, built = cli._generate, []

    def skip_2_3(n, method, t, params):
        built.append(params)
        if params == (2, 3):
            raise DomainError("planted skip")
        return generate(n, method, t, params)

    monkeypatch.setattr(cli, "_generate", skip_2_3)
    code = cli.main(["sweep", "--n", "5", "--method", "2", "--max-sum", "7"])
    out, err = capsys.readouterr()
    assert code == 0
    assert err.splitlines().count("skipped (2, 3): planted skip") == 1
    assert "(3, 2)" not in err
    mirror = system_to_json(generate(5, 2, None, (3, 2)))
    assert out.splitlines().count(mirror) == 1
    assert validate_system(system_from_json(mirror)).ok
    # a pair is built at p1 <= p2 only, but for the skipped point's mirror
    assert built == [p for p in _method2_points(7)
                     if p[0] <= p[1] or p == (3, 2)]


def test_sweep_flag_mismatch_exits_2():
    assert run("sweep", "--n", "5", "--method", "1").returncode == 2
    assert run("sweep", "--n", "5", "--method", "2").returncode == 2


def test_sweep_streams_lines_before_a_later_failure(monkeypatch, capsys):
    # a point that fails with something other than DomainError (say the
    # int<->str digit limit) ends the sweep, but the lines already
    # printed stay on stdout
    generate = cli._generate

    def third_point_fails(n, method, t, params):
        if t == 4:
            raise ValueError("planted failure")
        return generate(n, method, t, params)

    monkeypatch.setattr(cli, "_generate", third_point_fails)
    code = cli.main(["sweep", "--n", "5", "--method", "1", "--t-range", "2:6"])
    out, err = capsys.readouterr()
    assert code == 3
    lines = out.splitlines()
    assert len(lines) == 2
    for line in lines:
        assert validate_system(system_from_json(line)).ok
    assert err == "error: planted failure\n"


@pytest.mark.parametrize("unbuffered", ["1", ""])
@pytest.mark.parametrize("args, lines_read", [
    (("sweep", "--n", "6", "--method", "1", "--t-range", "2:100000"), 1),
    (("gen", "--n", "5", "--method", "1", "--t", "2"), 0),
])
def test_closed_pipe_exits_0_quietly(args, lines_read, unbuffered):
    """cmd | head: the reader leaves early.  The command stops at its next
    write or at the final flush, with no error line, no message at
    shutdown and exit 0, whether or not stdout is buffered."""
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered)
    proc = subprocess.Popen([sys.executable, "-m", "exsquares.cli", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    lines = [proc.stdout.readline() for _ in range(lines_read)]
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 0
    assert err == b""
    for line in lines:
        assert validate_system(system_from_json(line)).ok


def test_cli_import_leaves_the_pool_unloaded():
    probe = ("import sys, exsquares.cli; "
             "print('concurrent.futures.process' in sys.modules)")
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True)
    assert proc.stdout.strip() == "False", proc.stderr


def test_sweep_rejects_a_method2_n_without_a_pipeline():
    proc = run("sweep", "--n", "3", "--method", "2", "--max-sum", "60")
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == \
        "error: method 2 has built-in pipelines for n in [5, 6, 7, 8]\n"


# Runs cli.main(argv) with stdin text and prints every loaded module.  The
# probes run under -S: a site .pth file may preload modules of its own.
_PROBE = """\
import io, sys
from exsquares import cli
stdin, *argv = sys.argv[1:]
sys.stdin, out, sys.stdout = io.StringIO(stdin), sys.stdout, io.StringIO()
code = cli.main(argv)
sys.stdout = out
print(*sys.modules, sep="\\n")
sys.exit(code)
"""

_UNUSED_BY_METHOD1 = {"dataclasses", "fractions", "decimal",
                      "importlib.resources", "exsquares.derive",
                      "exsquares.catalog"}
# the pipelines live in derive, and need none of the rest
_UNUSED_BY_METHOD2 = _UNUSED_BY_METHOD1 - {"exsquares.derive"}


def _modules_loaded(probe, *args):
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", probe, *args],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src))
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines())


@pytest.mark.parametrize("argv, unloaded", [
    (["gen", "--n", "6", "--method", "1", "--t", "2"], _UNUSED_BY_METHOD1),
    (["verify"], _UNUSED_BY_METHOD1),
    (["sweep", "--n", "5", "--method", "1", "--t-range", "2:4"],
     _UNUSED_BY_METHOD1),
    (["gen", "--n", "5", "--method", "2", "--params", "1,2"],
     _UNUSED_BY_METHOD2),
    (["sweep", "--n", "7", "--method", "2", "--max-sum", "8"],
     _UNUSED_BY_METHOD2),
], ids=["gen-method1", "verify", "sweep-method1", "gen-method2",
        "sweep-method2"])
def test_a_subcommand_loads_only_what_it_runs(argv, unloaded):
    loaded = _modules_loaded(_PROBE, system_to_json(generate_method1(5, 2)),
                             *argv)
    assert "exsquares.cli" in loaded
    assert loaded & unloaded == set()


def test_importing_the_package_loads_no_module_of_it():
    probe = ("import sys, exsquares; "
             "print(*sys.modules, sep='\\n'); "
             "assert set(exsquares.__all__) <= set(dir(exsquares))")
    loaded = _modules_loaded(probe)
    assert "exsquares" in loaded
    assert {m for m in loaded if m.startswith("exsquares.")} == set()
