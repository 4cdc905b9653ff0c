"""Every dpmech function the benchmark's span tracer wraps still exists.

``perfbench/spans.py`` names the functions it wraps as strings, so a rename
or merge in ``src/dpmech`` would otherwise surface only when a traced
benchmark run fails.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    names = [(m, f) for m, fs in spans.FUNCTIONS.items() for f in fs]
    names += list(spans.INSTANCE_BUILDERS.items())
    names += list(spans.MECHANISM_FACTORIES.items())
    return names


@pytest.mark.parametrize("module,name", _traced_names())
def test_traced_name_exists(module, name):
    mod = importlib.import_module(f"dpmech.{module}")
    assert callable(getattr(mod, name, None)), f"dpmech.{module}.{name}"
