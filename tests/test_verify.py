import pytest

from oracles import lemma3_special, validate_system_3n
from exsquares.evolve import generate_method1
from exsquares.seeds import ChainSolution, SquareSystem
from exsquares.derive import pipeline_n5
from exsquares.verify import (Report, Violation, validate_chain,
                              validate_system)


def test_valid_chain_passes():
    report = validate_chain(lemma3_special(2, 4))
    assert report.ok
    assert report.violations == ()
    assert str(report) == "ok"


def test_chain_with_corrupt_pair_is_localized():
    sol = lemma3_special(2, 4)
    pairs = list(sol.pairs)
    x, y = pairs[2]
    pairs[2] = (x, y + 1)
    report = validate_chain(ChainSolution(sol.n, tuple(pairs), sol.s))
    assert not report.ok
    kinds = {(v.index, v.kind) for v in report.violations}
    assert (3, "pair-sum") in kinds  # entries are numbered from 1
    assert "entry 3" in str(report)


def test_valid_system_passes():
    system = pipeline_n5(1, 2)
    assert validate_system(system).ok


def test_corrupt_certificate_fails_at_its_entry():
    system = pipeline_n5(1, 2)
    certs = list(system.certificates)
    certs[4] += 1
    bad = SquareSystem(system.n, system.roots, tuple(certs), system.s)
    report = validate_system(bad)
    assert not report.ok
    assert [(v.index, v.kind) for v in report.violations] == \
        [(5, "certificate")]


def test_arbitrary_roots_are_rejected():
    bad = SquareSystem(3, (1, 2, 3), (1, 1, 1), 14)
    report = validate_system(bad)
    assert not report.ok
    assert any(v.kind == "exclusion-not-square" for v in report.violations)


def test_declared_sum_is_checked():
    system = pipeline_n5(1, 2)
    bad = SquareSystem(system.n, system.roots, system.certificates,
                       system.s + 3)
    report = validate_system(bad)
    assert any(v.kind == "sum" and v.index is None
               for v in report.violations)


def test_shape_mismatch_short_circuits():
    bad = SquareSystem(4, (1, 2), (1,), 5)
    report = validate_system(bad)
    assert [v.kind for v in report.violations] == ["shape"]


def test_zero_root_flagged():
    # 0, 3, 4: every exclusion sum is a square, so only the zero trips
    bad = SquareSystem(3, (0, 3, 4), (5, 4, 3), 25)
    report = validate_system(bad, require_distinct=False)
    assert [(v.index, v.kind) for v in report.violations] == \
        [(1, "zero-root")]


def test_repeats_flagged_unless_allowed():
    system = SquareSystem.from_pairs(lemma3_special(2, 4).pairs)
    assert not system.distinct
    strict = validate_system(system)
    assert not strict.ok
    assert all(v.kind == "repeat" for v in strict.violations)
    assert validate_system(system, require_distinct=False).ok


def test_system_chain_round_trip():
    chain = lemma3_special(3, 2)
    system = SquareSystem.from_pairs(chain.pairs)
    assert system.roots == tuple(abs(x) for x in chain.xs)


def test_violation_formatting():
    v = Violation(2, "certificate", "squares to the wrong value")
    assert "entry 2" in str(v)
    assert "certificate" in str(v)
    g = Violation(None, "sum", "mismatch")
    assert "global" in str(g)
    report = Report(False, (v, g))
    text = str(report)
    assert "entry 2" in text and "global" in text


# A small valid system: 240^2 + 117^2 + 44^2 = 73225, and the three
# exclusion sums are 125^2, 244^2 and 267^2.
_N3 = SquareSystem(3, (240, 117, 44), (125, 244, 267), 73225)

VIOLATION_TABLE = [
    ("wrong-certificate-over-a-square",
     SquareSystem(3, _N3.roots, (125, 244, 268), _N3.s), True,
     [Violation(3, "certificate",
                "certificate 268 squares to 71824, exclusion sum is 71289")]),
    ("exclusion-not-square",
     SquareSystem(3, (1, 2, 3), (1, 1, 1), 14), True,
     [Violation(1, "exclusion-not-square", "excluding root 1 leaves 13"),
      Violation(2, "exclusion-not-square", "excluding root 2 leaves 10"),
      Violation(3, "exclusion-not-square", "excluding root 3 leaves 5")]),
    ("declared-sum",
     SquareSystem(3, _N3.roots, _N3.certificates, 73228), True,
     [Violation(None, "sum", "sum of roots^2 = 73225, declared s = 73228")]),
    ("zero-root",
     SquareSystem(3, (0, 3, 4), (5, 4, 3), 25), True,
     [Violation(1, "zero-root", "root is zero")]),
    ("zero-root-then-certificate",
     SquareSystem(3, (0, 3, 4), (5, 4, 4), 25), True,
     [Violation(1, "zero-root", "root is zero"),
      Violation(3, "certificate",
                "certificate 4 squares to 16, exclusion sum is 9")]),
    ("repeat",
     SquareSystem.from_pairs(lemma3_special(2, 4).pairs), True,
     [Violation(i, "repeat", "|root| 8 repeats entry 1") for i in (2, 3, 4)]),
    ("repeat-allowed",
     SquareSystem.from_pairs(lemma3_special(2, 4).pairs), False, []),
    ("negative-certificates-validate",
     SquareSystem(3, _N3.roots, (-125, 244, -267), _N3.s), True, []),
]


@pytest.mark.parametrize("system, require_distinct, violations",
                         [case[1:] for case in VIOLATION_TABLE],
                         ids=[case[0] for case in VIOLATION_TABLE])
def test_report_per_violation_kind(system, require_distinct, violations):
    """The whole Report (kinds, indices, texts and their order) per kind."""
    assert validate_system(system, require_distinct) == \
        Report(not violations, tuple(violations))


def _compact(v):
    return f"<{v.bit_length()}-bit integer>"


def test_corrupt_root_past_the_digit_limit_gives_a_report(digit_limit):
    system = generate_method1(48, 2)
    roots = list(system.roots)
    roots[0] += 1
    report = validate_system(SquareSystem(system.n, tuple(roots),
                                          system.certificates, system.s))
    total = sum(r * r for r in roots)
    assert report.violations[0] == Violation(
        None, "sum",
        f"sum of roots^2 = {_compact(total)}, "
        f"declared s = {_compact(system.s)}")
    # the corrupted entry's own exclusion sum is untouched; the others
    # all grow by 2 * root + 1 and stop being squares
    assert report.violations[1:] == tuple(
        Violation(i, "exclusion-not-square",
                  f"excluding root {r} leaves {_compact(total - r * r)}")
        for i, r in enumerate(roots[1:], start=2))
    assert str(report).count("-bit integer>") == 49


def test_corrupt_certificate_past_the_digit_limit_gives_a_report(
        digit_limit):
    system = generate_method1(48, 2)
    certs = list(system.certificates)
    certs[5] += 1
    report = validate_system(SquareSystem(system.n, system.roots,
                                          tuple(certs), system.s))
    c = certs[5]
    excl = system.s - system.roots[5] ** 2
    assert report == Report(False, (Violation(
        6, "certificate",
        f"certificate {c} squares to {_compact(c * c)}, "
        f"exclusion sum is {_compact(excl)}"),))


def test_negative_value_past_the_digit_limit_keeps_its_sign(digit_limit):
    big = 2 ** 20000
    c = -big - 1
    bad = SquareSystem(2, (-big, 2), (2, c), big * big + 4)
    assert validate_system(bad) == Report(False, (Violation(
        2, "certificate",
        f"certificate -{_compact(c)} squares to {_compact(c * c)}, "
        f"exclusion sum is {_compact(big * big)}"),))


def test_corrupt_chain_past_the_digit_limit_gives_a_report(digit_limit):
    sol = lemma3_special(2, 10 ** 2200)
    pairs = list(sol.pairs)
    x, y = pairs[0]
    pairs[0] = (x, y + 1)
    v = x * x + (y + 1) ** 2
    report = validate_chain(ChainSolution(sol.n, tuple(pairs), sol.s))
    assert report == Report(False, (Violation(
        1, "pair-sum",
        f"x^2+y^2 = {_compact(v)}, expected s = {_compact(sol.s)}"),))


def _corruptions(system):
    """system, then system with one value corrupted in each way the
    validator checks, each with the require_distinct flag to use."""
    n, roots, certs, s = system

    def edit(values, i, v):
        return values[:i] + (v,) + values[i + 1:]

    yield system, True
    for d in (1, -1):
        yield SquareSystem(n, edit(roots, 0, roots[0] + d), certs, s), True
        yield SquareSystem(n, roots, edit(certs, 1, certs[1] + d), s), True
        yield SquareSystem(n, roots, certs, s + d), True
    yield SquareSystem(n, edit(roots, 2, 0), certs, s), True
    for require_distinct in (True, False):
        yield SquareSystem(n, edit(roots, 1, -roots[0]), certs, s), \
            require_distinct
    yield SquareSystem(n, roots[:-1], certs, s), True
    yield SquareSystem(n + 1, roots, certs, s), True


@pytest.mark.parametrize("build", [lambda: pipeline_n5(1, 2),
                                   lambda: generate_method1(72, 2)],
                         ids=["pipeline_n5", "method1_n72"])
def test_reports_match_the_3n_validator(build, digit_limit):
    """Squaring each root once changes no Report: same violations, same
    texts, same order as the validator that squared it twice."""
    for system, require_distinct in _corruptions(build()):
        assert validate_system(system, require_distinct) == \
            validate_system_3n(system, require_distinct)
