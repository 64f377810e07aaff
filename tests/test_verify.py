from exsquares.seeds import ChainSolution, SquareSystem, lemma3_special
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
