"""Every input gives either a validated system or a DomainError.

Exhaustive over fixed boxes: the pipelines on every pair in [-12, 12]^2
and method 1 for n in 3..29 at t in [-8, 8].  Any other exception, or a
returned system the validator rejects, fails the test.
"""

import pytest

from exsquares.derive import PIPELINES, pipeline
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
