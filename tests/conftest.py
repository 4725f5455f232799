import random

import pytest

from sepcurve import rpoly


@pytest.fixture
def rng():
    """Deterministic RNG; tests that need fresh streams reseed locally."""
    return random.Random(0xC0FFEE)


@pytest.fixture
def debug_checks(monkeypatch):
    """Switch the cross-checks that SEPCURVE_DEBUG_CHECKS turns on:
    ``debug_checks(True)`` or ``debug_checks(False)`` sets
    ``rpoly.DEBUG_CHECKS`` until the test ends.  A hypothesis ``@given``
    body uses ``mock.patch.object(rpoly, "DEBUG_CHECKS", ...)`` instead,
    since this fixture does not reset between examples."""
    return lambda on: monkeypatch.setattr(rpoly, "DEBUG_CHECKS", on)
