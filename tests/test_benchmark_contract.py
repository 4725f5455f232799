"""The names the benchmark under perfbench/ reaches inside sepcurve.

The traced run rebinds every function listed in ``perfbench/tracing.py``
``LAYERS``, reads the oracles' ``precision_bits`` argument and the
``.numerator``/``.denominator`` of ``Poly.coeffs``, and the benchmark's
own tests wrap ``oneforms.verify_witnesses`` and pass it ``matching``
positionally; renaming or dropping any of them breaks the benchmark, so
they are pinned here.
"""

import importlib
import importlib.util
import inspect
import pathlib

from sepcurve import numoracle, oneforms, rationals
from sepcurve.classify import Verdict
from sepcurve.rpoly import Poly

TRACING = pathlib.Path(__file__).parent.parent / "perfbench" / "tracing.py"


def _layers():
    # loaded by path: importing perfbench as a package would run its
    # environment set-up inside the test process
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.LAYERS


def test_traced_layers_are_callable():
    layers = _layers()
    assert layers
    for module, names in layers.items():
        mod = importlib.import_module(f"sepcurve.{module}")
        for name in names:
            assert callable(getattr(mod, name, None)), f"sepcurve.{module}.{name}"


def test_oracles_keep_precision_bits():
    for fn in (numoracle.corroborate_hypothesis_I, numoracle.verify_pair_counts):
        assert "precision_bits" in inspect.signature(fn).parameters, fn.__name__


def test_verify_witnesses_takes_verdict_then_matching():
    params = list(inspect.signature(oneforms.verify_witnesses).parameters)
    assert params[:2] == ["verdict", "matching"]


def test_verdict_matching_and_backend_name():
    assert "matching" in inspect.signature(Verdict).parameters
    assert rationals.BACKEND == "fractions"


def test_poly_coeffs_are_rationals():
    # peak_coeff_bits reads .numerator and .denominator off Poly.coeffs
    coeffs = Poly([rationals.rat(-3, 4), 0, 5]).coeffs
    assert coeffs == (rationals.rat(-3, 4), 0, 5)
    for c in coeffs:
        assert isinstance(c, rationals.Rat)
        assert isinstance(c.numerator, int) and isinstance(c.denominator, int)
