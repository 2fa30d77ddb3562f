"""Fixtures shared across the test modules."""

import pytest

from ga41.checks import run_checks


@pytest.fixture(scope="session")
def full_run_seed0():
    """One seed-0 run of the whole registry, for tests that only read it.

    Tests of determinism run the registry themselves, twice.
    """
    return run_checks(seed=0)
