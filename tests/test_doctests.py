"""Run every module's embedded examples."""

import doctest
import importlib

import pytest

import sepcurve.critical
import sepcurve.geometry
import sepcurve.oneforms
import sepcurve.parsepoly
import sepcurve.rationals
import sepcurve.rpoly

MODULES = [
    importlib.import_module("sepcurve.classify"),  # the package exports classify() under that name
    sepcurve.critical,
    sepcurve.geometry,
    sepcurve.oneforms,
    sepcurve.parsepoly,
    sepcurve.rationals,
    sepcurve.rpoly,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_doctests(module):
    result = doctest.testmod(module, verbose=False)
    assert result.failed == 0, f"{module.__name__}: {result}"
    assert result.attempted > 0, f"{module.__name__} lost its examples"
