"""Published parametric families as coefficient tables.

The tables live in ``data/families.txt`` rather than in source, so a
transcription slip shows up as a data diff and is caught by
cross_check, which regenerates every family from the construction
machinery and compares values.

File format: blocks separated by blank lines.  Each block is a header
line ``id n degree kind`` followed by one parenthesized integer
coefficient tuple (c_0, ..., c_n) per line, read as the homogeneous
form sum(c_j * u**(n-j) * v**j): c_0 multiplies the highest power of
the first variable.  This module alone parses and evaluates the
tuples; a record keeps them as plain int tuples.  kind is "t" (one
integer parameter, entries evaluated at (t, 1)) or "pq" (a projective
integer pair).  A "pq" tuple is a homogeneous form of exactly the
header degree.  A "t" tuple is an inhomogeneous polynomial in t, read
at (t, 1), so tuples may differ in length; the header gives the
largest degree among them.  The parser rejects a block whose degrees
disagree with its header.  A block with n tuples stores roots only
(certificates are recovered at evaluation time from the exclusion
sums); a block with 2n tuples stores roots then certificates.
"""

from __future__ import annotations

from collections import namedtuple

from .exactmath import DomainError, is_perfect_square, isqrt
from .seeds import DegenerateParameterError, SquareSystem
from .evolve import generate_method1


# The families whose values repeat roots by design: n5-method2-deg10 is
# the n = 5 chain before its transform.  Every other family must give
# n distinct roots, and catalog eval validates under this policy.
REPEATS_BY_DESIGN = frozenset({"n5-method2-deg10"})


class UnknownFamilyError(DomainError):
    """No catalog record under that id."""


class FamilyRecord(namedtuple(
        "FamilyRecord", "id n degree kind entries certificates")):
    """kind is "t" or "pq"; entries holds one coefficient tuple per
    root, certificates one per certificate or None if not stored."""

    __slots__ = ()


class CrossCheckReport(namedtuple("CrossCheckReport", "id points mismatches")):
    __slots__ = ()

    @property
    def ok(self):
        return not self.mismatches

    def __str__(self):
        if self.ok:
            return f"OK ({len(self.points)} points)"
        lines = [f"MISMATCH at {len(self.mismatches)} of "
                 f"{len(self.points)} points"]
        lines += [f"  {pt}: {msg}" for pt, msg in self.mismatches]
        return "\n".join(lines)


def _parse_tuple(text):
    body = text.strip()
    if not (body.startswith("(") and body.endswith(")")):
        raise DomainError(f"not a parenthesized tuple: {text!r}")
    try:
        return tuple(int(p) for p in body[1:-1].split(","))
    except ValueError as exc:
        raise DomainError(f"bad tuple entry in {text!r}") from exc


def _eval_form(coeffs, u, v):
    """sum(c_j * u**(n-j) * v**j), Horner in u with running powers of v."""
    acc = coeffs[0]
    vp = 1
    for c in coeffs[1:]:
        vp = vp * v
        acc = acc * u + c * vp
    return acc


def _parse_blocks(text):
    records = {}
    block = []
    for raw in text.splitlines() + [""]:
        line = raw.strip()
        if line.startswith("#"):
            continue
        if line:
            block.append(line)
            continue
        if not block:
            continue
        head, *tuples = block
        block = []
        parts = head.split()
        if len(parts) != 4 or not (parts[1].isdigit() and parts[2].isdigit()):
            raise DomainError(f"bad catalog header: {head!r}")
        fid, n, degree, kind = parts[0], int(parts[1]), int(parts[2]), parts[3]
        if kind not in ("t", "pq"):
            raise DomainError(f"bad catalog kind in {head!r}")
        polys = tuple(_parse_tuple(tp) for tp in tuples)
        degrees = {len(p) - 1 for p in polys}
        if kind == "pq" and degrees - {degree}:
            raise DomainError(
                f"family {fid}: pq tuple degrees {sorted(degrees)} "
                f"differ from header degree {degree}")
        if kind == "t" and max(degrees, default=degree) != degree:
            raise DomainError(
                f"family {fid}: largest t tuple degree {max(degrees)} "
                f"differs from header degree {degree}")
        if len(polys) == n:
            entries, certs = polys, None
        elif len(polys) == 2 * n:
            entries, certs = polys[:n], polys[n:]
        else:
            raise DomainError(
                f"family {fid}: {len(polys)} tuples for n = {n}")
        records[fid] = FamilyRecord(fid, n, degree, kind, entries, certs)
    return records


_records_cache = None


def _records():
    global _records_cache
    if _records_cache is None:
        from importlib import resources
        text = (resources.files(__package__) / "data" / "families.txt") \
            .read_text(encoding="utf-8")
        _records_cache = _parse_blocks(text)
    return _records_cache


def list_families():
    """All built-in record ids, sorted."""
    return sorted(_records())


def get_family(fid: str) -> FamilyRecord:
    try:
        return _records()[fid]
    except KeyError:
        raise UnknownFamilyError(f"unknown family id: {fid}") from None


def _point(record, params):
    if record.kind == "t":
        if isinstance(params, (tuple, list)):
            if len(params) != 1:
                raise DomainError(
                    f"family {record.id} takes a single parameter t")
            params = params[0]
        return int(params), 1
    try:
        u, v = params
    except (TypeError, ValueError):
        raise DomainError(
            f"family {record.id} takes a parameter pair") from None
    return int(u), int(v)


def eval_family(fid: str, params) -> SquareSystem:
    """Evaluate a family at a parameter point and return
    SquareSystem.from_pairs of its roots and certificates.

    params is an integer t for kind "t" records, a pair for kind "pq".
    Certificates not in the table are recovered from the exclusion
    sums, which must be perfect squares (they are, at every parameter
    point, or the table is corrupt).  Repeated roots are returned as
    they are only for the families in REPEATS_BY_DESIGN; anywhere else
    they mark a degenerate point and raise DegenerateParameterError.
    """
    record = get_family(fid)
    u, v = _point(record, params)
    xs = [_eval_form(e, u, v) for e in record.entries]
    if any(x == 0 for x in xs):
        raise DegenerateParameterError(
            f"family {fid} has a zero root at {params}")
    s = sum(x * x for x in xs)
    if record.certificates is not None:
        ys = [_eval_form(e, u, v) for e in record.certificates]
        for x, y in zip(xs, ys):
            if x * x + y * y != s:
                raise DomainError(
                    f"family {fid} table corrupt: certificate mismatch")
    else:
        ys = []
        for x in xs:
            excl = s - x * x
            if not is_perfect_square(excl):
                raise DomainError(
                    f"family {fid} table corrupt: exclusion sum {excl} "
                    f"is not a perfect square")
            ys.append(isqrt(excl))
    system = SquareSystem.from_pairs(zip(xs, ys))
    if not (system.distinct or fid in REPEATS_BY_DESIGN):
        raise DegenerateParameterError(
            f"family {fid} has repeated roots at {params}")
    return system


def _deg10_reference(q1, q2):
    """The n = 5 chain pairs before the pipeline's transform."""
    from .derive import PIPELINES, assignment_pairs
    n5 = PIPELINES[5]
    pairs = assignment_pairs(n5.assignment, [b(q1, q2) for b in n5.builders])
    return sorted(SquareSystem.from_pairs(pairs).roots)


def _pipeline_roots(n, pq):
    from .derive import pipeline
    return sorted(pipeline(n, *pq).roots)


_T_POINTS = tuple(range(2, 12))
_PQ_POINTS = ((1, 2), (2, 1), (1, 3), (3, 1), (2, 3),
              (3, 2), (1, 4), (4, 1), (3, 4), (4, 3))

_REFERENCES = {
    "n5-method1-deg17": (_T_POINTS,
                         lambda t: sorted(generate_method1(5, t).roots)),
    "n5-method2-deg10": (_PQ_POINTS, lambda pq: _deg10_reference(*pq)),
    "n5-method2-deg30": (_PQ_POINTS, lambda pq: _pipeline_roots(5, pq)),
    "n6-method2-deg38": (_PQ_POINTS, lambda pq: _pipeline_roots(6, pq)),
}


def cross_check(fid: str) -> CrossCheckReport:
    """Regenerate the family values from the construction machinery at
    a panel of parameter points and compare with the table evaluation."""
    record = get_family(fid)
    try:
        points, reference = _REFERENCES[fid]
    except KeyError:
        raise DomainError(
            f"no generating pipeline registered for {fid}") from None
    mismatches = []
    for pt in points:
        try:
            got = sorted(eval_family(fid, pt).roots)
            want = reference(pt)
        except DomainError as exc:
            mismatches.append((pt, f"error: {exc}"))
            continue
        if got != want:
            mismatches.append((pt, f"table {got} != regenerated {want}"))
    return CrossCheckReport(record.id, tuple(points), tuple(mismatches))
