import ast
import pathlib

import pytest

import exsquares
from exsquares.catalog import CrossCheckReport, FamilyRecord
from exsquares.derive import ChainAssignment, QuadraticForm
from exsquares.evolve import TransformCoefficients
from exsquares.exactmath import DomainError
from exsquares.seeds import ChainSolution, SquareSystem
from exsquares.verify import Report, Violation

# what bench/workloads.py calls on the package
BENCH_NAMES = ("generate_method1", "validate_system", "eval_family",
               "cross_check", "list_families", "pipeline_n5", "pipeline_n6",
               "pipeline_n7", "pipeline_n8", "derive_n5", "derive_n6",
               "derive_n7", "derive_n8")


def test_every_exported_name_resolves():
    assert len(set(exsquares.__all__)) == len(exsquares.__all__)
    for name in exsquares.__all__:
        assert getattr(exsquares, name) is not None, name
        assert name in vars(exsquares), name  # cached: no second lookup


def test_bench_names_are_exported():
    for name in BENCH_NAMES:
        assert name in exsquares.__all__, name
        assert callable(getattr(exsquares, name)), name


def test_dir_lists_every_export():
    assert set(exsquares.__all__) <= set(dir(exsquares))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        exsquares.no_such_name
    assert not hasattr(exsquares, "derive_n9")


def test_star_import_binds_every_export():
    namespace = {}
    exec("from exsquares import *", namespace)
    for name in exsquares.__all__:
        assert namespace[name] is getattr(exsquares, name), name


# one instance of each value type, by keyword, with its repr as the
# frozen dataclasses that these types replace printed it
VALUES = [
    (ChainSolution, dict(n=2, pairs=((3, 4), (-4, 3)), s=25),
     "ChainSolution(n=2, pairs=((3, 4), (-4, 3)), s=25)"),
    (SquareSystem, dict(n=2, roots=(3, 4), certificates=(4, 3), s=25),
     "SquareSystem(n=2, roots=(3, 4), certificates=(4, 3), s=25)"),
    (TransformCoefficients, dict(P=-12, S=25),
     "TransformCoefficients(P=-12, S=25)"),
    (Violation, dict(index=None, kind="sum", detail="sum of roots^2 = 24"),
     "Violation(index=None, kind='sum', detail='sum of roots^2 = 24')"),
    (Report, dict(ok=False, violations=(Violation(2, "zero-root", "x"),)),
     "Report(ok=False, violations=(Violation(index=2, kind='zero-root', "
     "detail='x'),))"),
    (ChainAssignment, dict(chain_size=4, slots=((1, "+ab"), (2, "-ba"))),
     "ChainAssignment(chain_size=4, slots=((1, '+ab'), (2, '-ba')))"),
    (QuadraticForm, dict(A=1, B=-2, C=3), "QuadraticForm(A=1, B=-2, C=3)"),
    (FamilyRecord, dict(id="f", n=2, degree=1, kind="t",
                        entries=((1, 0), (0, 1)), certificates=None),
     "FamilyRecord(id='f', n=2, degree=1, kind='t', entries=((1, 0), "
     "(0, 1)), certificates=None)"),
    (CrossCheckReport, dict(id="f", points=((1, 2),),
                            mismatches=(((1, 2), "error: x"),)),
     "CrossCheckReport(id='f', points=((1, 2),), "
     "mismatches=(((1, 2), 'error: x'),))"),
]


@pytest.mark.parametrize("cls, fields, text", VALUES,
                         ids=[cls.__name__ for cls, _, _ in VALUES])
def test_value_type(cls, fields, text):
    value = cls(**fields)
    assert repr(value) == text
    assert value == cls(*fields.values())
    assert hash(value) == hash(cls(*fields.values()))
    assert [getattr(value, f) for f in fields] == list(fields.values())
    last = list(fields)[-1]
    assert value != cls(**{**fields, last: ()})
    with pytest.raises(AttributeError):
        setattr(value, last, ())
    with pytest.raises(AttributeError):
        value.extra = 1


@pytest.mark.parametrize("chain_size, slots", [
    (5, ((1, "+ab"),)),  # only 4- and 8-chains exist
    (4, ((5, "+ab"),)),  # member out of range
    (8, ((0, "+ab"),)),
    (4, ((1, "ab"),)),  # unknown orientation
])
def test_chain_assignment_rejects_bad_slots(chain_size, slots):
    with pytest.raises(DomainError):
        ChainAssignment(chain_size, slots)
    with pytest.raises(DomainError):
        ChainAssignment(chain_size=chain_size, slots=slots)


_REPO = pathlib.Path(__file__).resolve().parent.parent


def _names_in(node) -> set:
    """Every identifier, attribute, imported name and string constant
    under node: the ways code can name a top-level def."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)  # __all__ and the bench's name tables
    return names


def test_every_src_def_is_used_outside_the_tests():
    """Each top-level def and class of the package is named by code
    outside its own definition: another statement of src, a demo or
    bench/.  Code only the tests call belongs in tests/oracles.py.
    Dunder functions (PEP 562 module hooks) are called by Python."""
    outside = set()
    for pattern in ("demos/*.py", "bench/*.py"):
        for path in _REPO.glob(pattern):
            outside |= _names_in(ast.parse(path.read_text()))
    statements = [
        (path.name, stmt, _names_in(stmt))
        for path in sorted((_REPO / "src" / "exsquares").glob("*.py"))
        for stmt in ast.parse(path.read_text()).body]
    unused = [
        f"{home}: {stmt.name}" for home, stmt, _ in statements
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
        and not stmt.name.startswith("__")
        and stmt.name not in outside
        and not any(stmt.name in names
                    for _, other, names in statements if other is not stmt)]
    assert unused == []
