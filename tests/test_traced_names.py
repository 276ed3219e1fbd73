"""The benchmark tracer still fits the package.

``perfbench/tracing.py`` wraps functions in the modules that call them by
name, and wraps ``lp.solve_lp`` with its positional signature, so a refactor
that stops importing one of those names or changes that signature would only
fail under ``perfbench/run.py --trace 1``.  These tests load the tracer by
path, resolve every entry of its table without installing a wrapper, and run
a few traced queries.
"""

import importlib
import importlib.util
from pathlib import Path

from conftest import realize
from iqp import credal
from iqp.events import parse_event
from iqp.scenarios import BUILTIN_SCENARIOS

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def tracing_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names() -> dict:
    return tracing_module().WRAPPED


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


def test_traced_queries_count_every_lp():
    # its live (t=0, t=2) pair rows keep its verdict on the LP path, but
    # feasibility reads its witness off phase 1, which runs in
    # lp.feasible_start, a routine the tracer does not wrap (ROADMAP item 6),
    # so it counts no LP; its complementary Born pair closes at 1.0000000000000004, so the
    # Huber check takes the witness and runs no LP
    cfg = BUILTIN_SCENARIOS["drifting-branch"]()
    space, cs = realize(cfg)
    event = parse_event(cfg.events[0], space)
    tracer = tracing_module().Tracer()
    tracer.install()
    try:
        assert credal.feasibility(cs).feasible
        assert credal.lower_upper(cs, event).status == "both-solved"
        credal.huber_check(cs)
    finally:
        tracer.uninstall()
    assert tracer.lp_callers == {"feasibility": 0, "lower_upper": 2, "huber": 0, "vertex": 0}
    assert tracer.names.count("lp.solve_lp") == 2
