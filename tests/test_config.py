"""The CLI's in-house config checker (`cli._check` over `cli.CONFIG_SCHEMA`):
its scope, its messages, its agreement with jsonschema, and that importing
the CLI does not import jsonschema."""

import copy
import math
import os
import random
import subprocess
import sys

import pytest

import dpmech.cli as cli
from dpmech.cli import CONFIG_SCHEMA, validate_config
from dpmech.errors import ConfigInvalid

VALID = [
    {"experiment": "verify", "seed": 7,
     "facility": {"n": 3, "m": 2, "K": 2, "mechanism": "loc2"}},
    {"experiment": "verify", "seed": 0, "budget": 100, "out": "rows.csv",
     "pricing": {"cohorts": 3, "cohort_size": 1, "grid_m": 4}},
    {"experiment": "sweep", "seed": 2**64 - 1, "probes": 5, "n_list": [200, 2000],
     "facility": {"n": 1, "m": 2, "K": 2, "mechanism": "loc1"}},
    {"experiment": "sweep", "seed": 7, "n_list": [6000],
     "pricing": {"cohorts": 2, "cohort_size": 2, "grid_m": 4}},
    {"experiment": "example1", "seed": 1, "example": {"n": 8, "mu": 0.3}},
    {"experiment": "example3", "seed": 1, "example": {}},
]

# Values put in place of any value: every JSON type, a bool and NaN.
OTHER_TYPES = ["x", [], {}, None, 2.5, True, False, float("nan")]


def _schemas(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schemas(sub)
    if "items" in schema:
        yield from _schemas(schema["items"])


def _sample(schema):
    """A value the schema accepts, or None for an object schema."""
    if "enum" in schema:
        return schema["enum"][0]
    return {"integer": schema.get("minimum", 0), "number": 0.25,
            "string": "x", "array": []}.get(schema["type"])


def _slots(schema, value, path=()):
    """(path, subschema, value) for the config and every value inside it."""
    yield path, schema, value
    for key, sub in schema.get("properties", {}).items():
        if isinstance(value, dict) and key in value:
            yield from _slots(sub, value[key], path + (key,))
    if "items" in schema and isinstance(value, list):
        for k, item in enumerate(value):
            yield from _slots(schema["items"], item, path + (k,))


def _replacements(schema, value):
    """Values to put in this slot: other types, each bound and its
    neighbours, other enum values, and the integral float of an integer."""
    out = list(OTHER_TYPES)
    if type(value) is int:
        out.append(float(value))
    for key in cli._BOUNDS:
        if key in schema:
            b = schema[key]
            step = 1 if schema.get("type") == "integer" else 0.01
            out += [b - step, b, b + step, float(b)]
    if "enum" in schema:
        out += schema["enum"] + ["nope"]
    return out


_DROP = object()


def _set(config, path, value):
    new = copy.deepcopy(config)
    if not path:
        return value
    parent = new
    for key in path[:-1]:
        parent = parent[key]
    if value is _DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return new


def mutations(config):
    """Every single mutation of ``config``: drop a key, add an unknown or an
    absent optional key, or replace a value."""
    out = []
    for path, schema, value in _slots(CONFIG_SCHEMA, config):
        if path:
            out += [_set(config, path, v) for v in _replacements(schema, value)]
        if isinstance(value, dict):
            out += [_set(config, path + (key,), _DROP) for key in value]
            out.append(_set(config, path + ("bogus",), 1))
            for key, sub in schema.get("properties", {}).items():
                if key not in value and _sample(sub) is not None:
                    out.append(_set(config, path + (key,), _sample(sub)))
    return out


def _has_integral_float_or_nan(value):
    if isinstance(value, dict):
        return any(_has_integral_float_or_nan(v) for v in value.values())
    if isinstance(value, list):
        return any(_has_integral_float_or_nan(v) for v in value)
    return type(value) is float and (math.isnan(value) or value.is_integer())


def _accepts(config):
    try:
        cli._check(config, CONFIG_SCHEMA)
    except ConfigInvalid:
        return False
    return True


def test_checker_agrees_with_jsonschema():
    """Accept/reject equals jsonschema's on a seeded mutation corpus, except
    that an integral float (jsonschema's "integer" takes 3.0) or a NaN
    (which jsonschema lets through its bounds) is always rejected here."""
    jsonschema = pytest.importorskip("jsonschema")
    oracle = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
    rng = random.Random(20261018)
    corpus = list(VALID)
    for config in VALID:
        singles = mutations(config)
        corpus += singles
        for first in rng.sample(singles, 40):
            corpus.append(rng.choice(mutations(first) or [first]))
    assert len(corpus) > 500
    tally = {"accepted": 0, "rejected": 0, "integral float or NaN": 0}
    for config in corpus:
        ours = _accepts(config)
        if _has_integral_float_or_nan(config):
            assert not ours, config
            tally["integral float or NaN"] += oracle.is_valid(config)
        else:
            assert ours == oracle.is_valid(config), config
            tally["accepted" if ours else "rejected"] += 1
    assert min(tally.values()) >= 20, tally


def test_schema_uses_only_implemented_keywords():
    implemented = {"type", "enum", "required", "properties",
                   "additionalProperties", "items", *cli._BOUNDS}
    for schema in _schemas(CONFIG_SCHEMA):
        assert set(schema) <= implemented, set(schema) - implemented
        assert schema.get("type", "object") in cli._TYPES
        assert schema.get("additionalProperties", False) is False


@pytest.mark.parametrize("config,message", [
    ({"experiment": "verify", "seed": 0,
      "facility": {"n": 3.0, "m": 2, "K": 2}}, "facility.n: 3.0 is not an integer"),
    ({"experiment": "sweep", "seed": 0, "n_list": [200, 0],
      "facility": {"n": 3, "m": 2, "K": 2}}, r"n_list\[1\]: 0 is not >= 1"),
    ({"experiment": "verify", "seed": 0,
      "pricing": {"cohorts": 2, "grid_m": 4}}, "pricing.cohort_size: required but missing"),
    ({"experiment": "example1", "seed": 0, "example": {"mu": 0.5}},
     "example.mu: 0.5 is not < 0.5"),
    ({"experiment": "verify", "seed": True}, "seed: True is not an integer"),
    ({"experiment": "verify", "seed": 0, "bogus": 1}, "bogus: unknown key"),
    ({"experiment": "example3", "seed": 0, "probes": 5, "n_list": [3]},
     "probes: not read by example3"),
])
def test_error_names_key_path(config, message):
    with pytest.raises(ConfigInvalid, match=f"^{message}$"):
        validate_config(config)


def test_cli_import_leaves_out_jsonschema():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import dpmech.cli, sys; assert 'jsonschema' not in sys.modules"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src}, timeout=60)
    assert proc.returncode == 0, proc.stderr
