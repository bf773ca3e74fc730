"""The traced benchmark run wraps library functions by ``module.attr``
name; every name it lists must still be a distinct library function."""

import importlib
import importlib.util
import inspect
from pathlib import Path

from mteq import Tensor

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve_to_distinct_functions():
    tracing = load_tracing()
    seen = {}
    for targets in tracing.FUNCTIONS.values():
        for target in targets:
            mod_name, attr = target.split(".")
            fn = getattr(importlib.import_module(f"mteq.{mod_name}"), attr)
            assert inspect.isfunction(fn), target
            assert fn.__module__ == f"mteq.{mod_name}", target
            assert id(fn) not in seen, f"{target} is {seen.get(id(fn))}"
            seen[id(fn)] = target
    for span in tracing.SOLVERS:
        assert span in tracing.FUNCTIONS


def test_traced_kernels_are_defined_on_the_base_class_only():
    # a wrapper set on Tensor sees a kernel only when no storage class
    # defines its own
    tracing = load_tracing()
    names = {*tracing.METHODS, *tracing.PLAIN_METHODS, "image_and_jacobian"}
    for name in names:
        assert name in vars(Tensor), name
        for cls in Tensor.__subclasses__():
            assert name not in vars(cls), (cls.__name__, name)
