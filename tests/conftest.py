import random

import pytest
from hypothesis import settings

from carnotcert.graded_algebra import builtin_family
from carnotcert.popp_metric import build_popp

# The larger-budget run of tests/test_cli_contract.py, drawn at random from
# --hypothesis-seed; the tier-1 run keeps that test's own fixed budget.
settings.register_profile("cli-contract-deep", max_examples=5000, derandomize=False)


@pytest.fixture(scope="session")
def heisenberg():
    return builtin_family("heisenberg", (1,))


@pytest.fixture(scope="session")
def h5():
    return builtin_family("heisenberg", (2,))


@pytest.fixture(scope="session")
def engel():
    return builtin_family("engel")


@pytest.fixture(scope="session")
def free23():
    return builtin_family("free_nilpotent", (2, 3))


@pytest.fixture(scope="session")
def heisenberg_metric(heisenberg):
    return build_popp(heisenberg)


@pytest.fixture(scope="session")
def h5_metric(h5):
    return build_popp(h5)


@pytest.fixture(scope="session")
def engel_metric(engel):
    return build_popp(engel)


@pytest.fixture(scope="session")
def free23_metric(free23):
    return build_popp(free23)


@pytest.fixture()
def rng():
    return random.Random(20240811)
