"""The library names that perfbench reaches into must exist.

perfbench/tracing.py patches the (module, attribute) pairs in its TRACED
table under --trace 1, perfbench/run.py reads kernels.BACKEND on every run,
and perfbench/make_reference.py calls integrate.block_integrals_gamma1d.
A library change that drops one of them breaks the benchmark; these tests
make it break the suite first. They only read perfbench/.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_tracing():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracing", PERFBENCH / "tracing.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


TRACED = _load_tracing().TRACED


@pytest.mark.parametrize("modname, attr, span", TRACED,
                         ids=[f"{m}.{a}" for m, a, _ in TRACED])
def test_traced_attribute_resolves(modname, attr, span):
    obj = importlib.import_module(f"blockhyperg.{modname}")
    for part in attr.split("."):
        obj = getattr(obj, part)
    assert callable(obj), f"{modname}.{attr} (span {span}) is not callable"


def test_run_and_reference_names():
    from blockhyperg import experiments, integrate, kernels
    assert isinstance(kernels.BACKEND, str)
    assert callable(integrate.block_integrals_gamma1d)
    for fn in ("run_selection_consistency", "run_prediction_consistency"):
        assert callable(getattr(experiments, fn))
