import re
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from goldens import M1_N5_T2, M2_N5_12, M2_N6_12
from oracles import Poly
from exsquares import catalog, cli
from exsquares.exactmath import DomainError
from exsquares.seeds import DegenerateParameterError
from exsquares.catalog import (UnknownFamilyError, _eval_form, _parse_blocks,
                               _parse_tuple, cross_check, eval_family,
                               get_family, list_families)
from exsquares.verify import validate_system

IDS = ["n5-method1-deg17", "n5-method2-deg10", "n5-method2-deg30",
       "n6-method2-deg38"]


def test_listing_contains_the_published_records():
    listed = list_families()
    assert listed == sorted(listed)
    assert len(listed) >= 3
    for fid in IDS:
        assert fid in listed


def test_record_metadata():
    rec = get_family("n6-method2-deg38")
    assert (rec.n, rec.kind) == (6, "pq")
    assert all(isinstance(e, tuple) and len(e) == rec.degree + 1
               for e in rec.entries)
    assert all(isinstance(c, int) for e in rec.entries for c in e)
    assert rec.certificates is None
    ten = get_family("n5-method2-deg10")
    assert ten.certificates is not None and len(ten.certificates) == 5


def test_unknown_id():
    with pytest.raises(UnknownFamilyError):
        get_family("no-such-family")
    with pytest.raises(UnknownFamilyError):
        eval_family("no-such-family", (1, 2))


def test_eval_matches_generated_systems():
    assert sorted(eval_family("n5-method1-deg17", 2).roots) == M1_N5_T2
    assert sorted(eval_family("n5-method2-deg30", (1, 2)).roots) == M2_N5_12
    assert sorted(eval_family("n6-method2-deg38", (1, 2)).roots) == M2_N6_12


def test_eval_reduces_and_validates():
    system = eval_family("n5-method2-deg30", (2, 3))
    assert validate_system(system).ok
    assert system.distinct


def test_deg10_family_repeats_by_design():
    system = eval_family("n5-method2-deg10", (1, 2))
    assert Counter(system.roots) == Counter({127: 2, 161: 2, 175: 1})
    assert not system.distinct
    assert validate_system(system, require_distinct=False).ok
    assert not validate_system(system).ok


def test_eval_rejects_degenerate_points():
    with pytest.raises(DegenerateParameterError):
        eval_family("n5-method1-deg17", 0)  # four entries share a factor t
    with pytest.raises(DegenerateParameterError):
        eval_family("n5-method2-deg30", (1, 1))
    with pytest.raises(DegenerateParameterError):
        eval_family("n6-method2-deg38", (0, 0))


def test_pq_family_rejects_anything_but_a_pair():
    with pytest.raises(DomainError, match="takes a parameter pair"):
        eval_family("n5-method2-deg30", 2)
    with pytest.raises(DomainError, match="takes a parameter pair"):
        eval_family("n5-method2-deg30", (1, 2, 3))


def test_cross_check_every_family():
    for fid in IDS:
        report = cross_check(fid)
        assert report.ok, str(report)
        assert len(report.points) >= 10
        assert str(report) == f"OK ({len(report.points)} points)"


def _bump_last(coeffs):
    """The tuple with its last coefficient, that of v**degree, one
    higher: the form's value at (u, 1) goes up by exactly one."""
    return coeffs[:-1] + (coeffs[-1] + 1,)


def _plant(monkeypatch, record):
    """Let the catalog hold this record alone, as if parsed from disk."""
    monkeypatch.setattr(catalog, "_records", lambda: {record.id: record})


def test_eval_rejects_a_certificate_off_by_one(monkeypatch):
    rec = get_family("n5-method2-deg10")
    _plant(monkeypatch, rec._replace(certificates=(
        _bump_last(rec.certificates[0]), *rec.certificates[1:])))
    with pytest.raises(DomainError, match=r"^family n5-method2-deg10 table "
                       r"corrupt: certificate mismatch$"):
        eval_family(rec.id, (2, 1))


def test_eval_rejects_roots_whose_exclusion_sums_are_not_squares(
        monkeypatch):
    rec = get_family("n5-method2-deg30")  # stores roots only
    _plant(monkeypatch, rec._replace(
        entries=(_bump_last(rec.entries[0]), *rec.entries[1:])))
    with pytest.raises(DomainError, match=r"^family n5-method2-deg30 table "
                       r"corrupt: exclusion sum \d+ is not a perfect square$"):
        eval_family(rec.id, (2, 1))


def test_cross_check_reports_a_table_that_disagrees(monkeypatch, capsys):
    # the table read at (u, -v): a valid family, but not the pipeline's
    rec = get_family("n5-method2-deg30")
    _plant(monkeypatch, rec._replace(entries=tuple(
        tuple(-c if j % 2 else c for j, c in enumerate(e))
        for e in rec.entries)))
    report = cross_check(rec.id)
    assert not report.ok
    assert str(report).startswith("MISMATCH at 10 of 10 points\n")
    assert cli.main(["catalog", "cross-check", rec.id]) == 1
    assert capsys.readouterr() == (f"{report}\n", "")


def test_parser_rejects_malformed_tables():
    for text, message in [
            ("badheader 5 10\n(1, 2)\n",
             "bad catalog header: 'badheader 5 10'"),
            ("f 5 10 zz\n(1, 2)\n", "bad catalog kind in 'f 5 10 zz'"),
            # header counts not integers
            ("f five 10 pq\n(1, 2)\n", "bad catalog header: 'f five 10 pq'"),
            # degrees match the header, so the tuple count is what fails
            ("f 5 1 pq\n(1, 2)\n(3, 4)\n", "family f: 2 tuples for n = 5")]:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            _parse_blocks(text)


def test_parser_rejects_degrees_that_disagree_with_the_header():
    with pytest.raises(DomainError, match="header degree 2"):
        _parse_blocks("f 2 2 pq\n(1, 0, 1)\n(1, 1)\n")
    with pytest.raises(DomainError, match="header degree 3"):
        _parse_blocks("f 2 3 t\n(1, 0, 1)\n(1, 1)\n")
    # kind t: tuples may be shorter, as long as the longest fits the header
    records = _parse_blocks("f 2 2 t\n(1, 0, 1)\n(1, 1)\n")
    assert records["f"].degree == 2


def test_parser_reads_comments_and_blanks():
    text = "# note\n\nf 2 1 pq\n(1, 0)\n(0, 1)\n\n"
    records = _parse_blocks(text)
    assert list(records) == ["f"]
    assert records["f"].entries == ((1, 0), (0, 1))


def test_tuple_text_parse_round_trip():
    cs = _parse_tuple(" (1, -2, 0,7) ")
    assert cs == (1, -2, 0, 7)
    assert str(cs) == "(1, -2, 0, 7)"
    assert _parse_tuple(str(cs)) == cs
    with pytest.raises(DomainError, match="not a parenthesized tuple"):
        _parse_tuple("1, 2")
    with pytest.raises(DomainError, match="bad tuple entry"):
        _parse_tuple("(1, x)")


@given(st.lists(st.integers(min_value=-50, max_value=50), min_size=1,
                max_size=7),
       st.integers(min_value=-9, max_value=9).filter(bool),
       st.integers(min_value=-20, max_value=20),
       st.integers(min_value=-20, max_value=20))
@settings(max_examples=150)
def test_eval_form_is_homogeneous(cs, lam, u, v):
    d = len(cs) - 1
    assert _eval_form(cs, lam * u, lam * v) == lam ** d * _eval_form(cs, u, v)


def test_eval_form_agrees_with_poly():
    # at v = 1 the form is the Poly in u with the tuple reversed
    cs = (2, 0, -3, 5)
    p = Poly(reversed(cs))
    assert p == Poly([5, -3, 0, 2])
    assert tuple(reversed(p.coeffs)) == cs
    for t in range(-4, 5):
        assert _eval_form(cs, t, 1) == p(t)
