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


def _names_in(node, members=False) -> set:
    """Every identifier, attribute, imported name and string constant
    under node: the ways code can name a top-level def.  With members,
    only the attributes and string constants: code names a method or a
    property as obj.name or getattr(obj, "name"), and a bare name is
    some other binding, a local of the same name say."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            names.add(sub.value)  # __all__ and the bench's name tables
        elif members:
            continue
        elif isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.alias):
            names.add(sub.name.rpartition(".")[2])
    return names


def _src_defs():
    """(label, def node, the statements outside it, whether it is a
    member) for each top-level def and class of the package and each
    method and property of its classes.  Outside a method are the other
    top-level statements and the other statements of its class."""
    modules = [(path.name, ast.parse(path.read_text()).body)
               for path in sorted((_REPO / "src" / "exsquares").glob("*.py"))]
    top = [stmt for _, body in modules for stmt in body]
    defs = []
    for home, body in modules:
        for stmt in body:
            if not isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                continue
            others = [other for other in top if other is not stmt]
            defs.append((f"{home}: {stmt.name}", stmt, others, False))
            if isinstance(stmt, ast.ClassDef):
                defs += [(f"{home}: {stmt.name}.{member.name}", member,
                          others + [m for m in stmt.body if m is not member],
                          True)
                         for member in stmt.body
                         if isinstance(member, ast.FunctionDef)]
    return defs


def test_every_src_def_is_used_outside_the_tests():
    """Each top-level def and class of the package, and each method and
    property of its classes, is named by code outside its own
    definition: another statement of src, a demo or bench/.  Code only
    the tests call belongs in tests/oracles.py.  Dunder functions
    (PEP 562 module hooks, operators) are called by Python."""
    outside = [ast.parse(path.read_text())
               for pattern in ("demos/*.py", "bench/*.py")
               for path in _REPO.glob(pattern)]
    names = {}  # (node, members) -> _names_in(node, members)

    def named_in(name, node, members):
        if (node, members) not in names:
            names[node, members] = _names_in(node, members)
        return name in names[node, members]

    unused = [label for label, node, others, members in _src_defs()
              if not node.name.startswith("__")
              and not any(named_in(node.name, other, members)
                          for other in outside + others)]
    assert unused == []


def test_no_src_module_imports_fractions():
    """The package computes over the integers: Fermat matching scales
    its quartic instead of dividing, so no module needs a Fraction."""
    importers = []
    for path in sorted((_REPO / "src" / "exsquares").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module]
            else:
                continue
            if "fractions" in modules:
                importers.append(path.name)
    assert importers == []
