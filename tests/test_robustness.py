"""Every input gives either a validated system or a DomainError.

Exhaustive over fixed boxes: the pipelines on every pair in [-12, 12]^2
and method 1 for n in 3..29 at t in [-8, 8].  Any other exception, or a
returned system the validator rejects, fails the test.  A parameter
that is not an int raises DomainError: it is neither truncated nor
read digit by digit.
"""

import pytest

from exsquares.catalog import eval_family
from exsquares.derive import PIPELINES, pipeline, pipeline_n7
from exsquares.evolve import generate_method1
from exsquares.exactmath import DomainError
from exsquares.verify import validate_system


def _valid_or_domain_error(build, *args):
    try:
        system = build(*args)
    except DomainError:
        return False
    report = validate_system(system)
    assert report.ok, f"{build.__name__}{args}: {report}"
    return True


@pytest.mark.parametrize("n", list(PIPELINES),
                         ids=[f"pipeline_n{n}" for n in PIPELINES])
def test_pipeline_gives_a_valid_system_or_domain_error(n):
    valid = sum(_valid_or_domain_error(pipeline, n, a, b)
                for a in range(-12, 13) for b in range(-12, 13))
    assert valid > 0


def test_method1_gives_a_valid_system_or_domain_error():
    valid = sum(_valid_or_domain_error(generate_method1, n, t)
                for n in range(3, 30) for t in range(-8, 9))
    assert valid > 0


_PAIR = "takes a parameter pair"
_T = "takes a single parameter t"
_M1 = "method 1 takes an int n and an int t"
_M2 = "method 2 takes an int n and a pair of ints"


@pytest.mark.parametrize("build, args, message", [
    (eval_family, ("n5-method2-deg30", (1.5, 2)), _PAIR),
    (eval_family, ("n5-method2-deg30", "12"), _PAIR),
    (eval_family, ("n5-method2-deg30", (True, 2)), _PAIR),
    (eval_family, ("n5-method2-deg30", None), _PAIR),
    (eval_family, ("n5-method1-deg17", 2.7), _T),
    (eval_family, ("n5-method1-deg17", (2,)), _T),
    (eval_family, ("n5-method1-deg17", None), _T),
    (pipeline_n7, (1.5, 2), _M2),
    (pipeline, (7.0, 1, 2), _M2),
    (pipeline, ([7], 1, 2), _M2),
    (generate_method1, (5, 1.5), _M1),
    (generate_method1, (5.0, 2), _M1),
], ids=["pq-float", "pq-str", "pq-bool", "pq-none", "t-float", "t-tuple",
        "t-none", "pipeline_n7-float", "pipeline-float-n", "pipeline-list-n",
        "method1-float-t", "method1-float-n"])
def test_parameters_that_are_not_ints_raise_domain_error(build, args,
                                                         message):
    with pytest.raises(DomainError, match=message):
        build(*args)
