"""Every dpmech function the benchmark's span tracer wraps still exists,
and a built instance still carries the callables it wraps.

``perfbench/spans.py`` names the functions it wraps as strings and sets an
instance's ``env.utility`` and ``F.eval`` in place, so a rename, a merge or
a reshaped instance in ``src/dpmech`` would otherwise surface only when a
traced benchmark run fails.
"""

import importlib
import importlib.util
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

import dpmech as dm

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def _traced_names():
    spans = _spans()
    names = [(m, f) for m, fs in spans.FUNCTIONS.items() for f in fs]
    names += list(spans.INSTANCE_BUILDERS.items())
    names += list(spans.MECHANISM_FACTORIES.items())
    return names


@pytest.mark.parametrize("module,name", _traced_names())
def test_traced_name_exists(module, name):
    mod = importlib.import_module(f"dpmech.{module}")
    assert callable(getattr(mod, name, None)), f"dpmech.{module}.{name}"


# the smallest instance of each builder the tracer wraps: one agent, two
# types; pricing's grid m=4 is the coarsest its fineness premise allows
_LOW, _HIGH = Fraction(1, 5), Fraction(9, 10)
SMALLEST = {
    "facility": (1, 1, 1),
    "pricing": (1, 1, 4, [(0, 1)], lambda X: (_HIGH if X[0] else _LOW,)),
}


@pytest.mark.parametrize("module,name", list(_spans().INSTANCE_BUILDERS.items()))
def test_wrapped_instance_records_utility_and_objective(module, name):
    # what the tracer reads from a built instance: ``inst.env`` and
    # ``inst.F``, whose ``utility`` and ``eval`` it sets in place
    spans = _spans()
    inst = getattr(importlib.import_module(f"dpmech.{module}"), name)(*SMALLEST[module])
    tracer = spans.Tracer()
    spans.wrap_instance(tracer, module, inst.env, inst.F)
    dm.compute_gap(inst.env)
    dm.verify_sensitivity(inst.F, inst.env)
    calls = Counter(tracer.names[k] for k in tracer.nids)
    assert calls[f"{module}.utility"] > 0
    assert calls[f"{module}.F_eval"] > 0
