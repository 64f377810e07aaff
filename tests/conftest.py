import sys

import pytest
from hypothesis import settings

import oracles
from exsquares import evolve, identities, seeds

# deterministic CI runs: fixed derivation seed, no per-example deadline
# (big-integer cases have wildly varying cost)
settings.register_profile("ci", deadline=None, derandomize=True)
settings.load_profile("ci")

# test_acceptance.py imports these test oracles from the package modules
# they lived in before they moved to oracles.py; bind them there.
evolve.inverse_transform = oracles.inverse_transform
seeds.lemma3_special = oracles.lemma3_special
identities.chain4_norm = oracles.chain4_norm
identities.chain8_norm = oracles.chain8_norm


@pytest.fixture
def digit_limit():
    """Pin the int<->str digit limit at its default, 4300."""
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield
    sys.set_int_max_str_digits(old)
