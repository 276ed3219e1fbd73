"""Every name the benchmark tracer wraps still resolves in the package.

``perfbench/tracing.py`` wraps functions in the modules that call them by
name, so a refactor that stops importing one of those names would only fail
under ``perfbench/run.py --trace 1``.  This test loads the tracer's table by
path and resolves every entry without installing a wrapper.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def wrapped_names() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.WRAPPED


def resolve(module_name: str, attr: str) -> object:
    """The attribute the tracer would replace, or None when it is missing."""
    owner = importlib.import_module(module_name)
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name, None)
        if not isinstance(owner, type):
            return None
        return owner.__dict__.get(attr)
    return getattr(owner, attr, None)


def test_every_wrapped_name_resolves():
    names = wrapped_names()
    assert ("iqp.system", "QuantumSystem.sset_state") in names  # a Class.method entry
    missing = [key for key in names if not callable(resolve(*key))]
    assert missing == []
