import json
import math

import jsonschema
import pytest

from helpers import SCHEMA_VALIDATOR, schema_agrees
from memwave import config
from memwave.config import SCHEMA, ConfigError, load_config

MODEL = {
    "params": {"rho": 1.0, "mu": 1.0, "alpha": 2.0, "beta": 1.0, "gamma": 0.5, "a": 0.5},
    "kernel": {"type": "exponential", "delta": 1.0},
    "grid": {"type": "dirichlet_laplacian", "length": math.pi, "count": 10},
}


def test_schema_is_valid_under_its_metaschema():
    # load_config interprets SCHEMA itself and never checks it against the metaschema
    jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)


@pytest.mark.parametrize(
    "section, value",
    [
        ("mystery", 1),  # unknown key
        ("kernel", {"type": "exponential", "delta": 1.0, "k0": 1.0}),  # matches no oneOf branch
        ("simulate", {"n_modes": "many"}),  # wrong type
        ("sweep", {"omega": 1.0}),  # removed key: the sweep scales by tau^-(2-2a)
    ],
)
def test_schema_error_message_matches_jsonschema_validate(tmp_path, section, value):
    raw = dict(MODEL, **{section: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(jsonschema.ValidationError) as expected:
        jsonschema.validate(raw, SCHEMA)
    with pytest.raises(ConfigError) as got:
        load_config(path)
    assert str(got.value) == f"config schema violation: {expected.value.message}"


# every optional section and key of SCHEMA, set to a value it accepts
FULL = dict(
    MODEL,
    out="out",
    spectrum={"modes": 5},
    sweep={"M": [8, 16], "tau_lo": 5.0, "tau_hi": 25.0, "per_decade": 4, "resonances_per_branch": 2},
    simulate={
        "data": "marginal",
        "k": 1,
        "n_modes": 20,
        "v0": 1.0,
        "integrator": "exact",
        "t_lo": 0.0,
        "t_hi": 100.0,
        "n_times": 30,
        "spacing": "log",
        "dt": 0.01,
        "sample_every": 1,
    },
    fit={"trace": "trace.csv", "window": [5.0, 100.0]},
    verdict={"xi_probes": [1e4, 1e5]},
)
TABULATED = {"type": "tabulated", "s": [0.0, 1.0, 2.0], "g": [1.0, 0.5, 0.25], "k0": 1.0, "k1": 1.0}
EXPLICIT = {"type": "explicit", "xi": [1.0, 4.0, 9.0]}
# both oneOf branches of kernel and of grid
BASES = [FULL, dict(FULL, kernel=TABULATED, grid=EXPLICIT)]

NOT_A_NUMBER = [True, False, None, "1", "many", [], {}, [1.0]]
NUMBERS = [1, 1.0, 1.5, -1, 0, -0.0, math.nan, math.inf, -math.inf, 10**400]


def _probes(schema):
    """Values for a place that ``schema`` constrains: every type, the values
    around each bound, at the bound and one ulp either side, and arrays at
    and one past each length limit."""
    values = NOT_A_NUMBER + NUMBERS
    for key in ("minimum", "exclusiveMinimum", "exclusiveMaximum"):
        if key in schema:
            bound = schema[key]
            values += [bound, float(bound), bound - 1, bound + 1]
            values += [math.nextafter(bound, -math.inf), math.nextafter(bound, math.inf)]
    for key in ("minItems", "maxItems"):
        if key in schema:
            # 1 is an item of every items schema in SCHEMA
            values += [[1] * n for n in (schema[key] - 1, schema[key], schema[key] + 1)]
    values += [schema["const"], schema["const"].upper()] if "const" in schema else []
    values += schema.get("enum", [])
    return values


def _variants(instance, schema):
    """Copies of ``instance`` with one change each, at every place ``schema``
    constrains: a replaced value, a dropped required key, an unknown key."""
    if "oneOf" in schema:
        schema = next(s for s in schema["oneOf"] if SCHEMA_VALIDATOR.evolve(schema=s).is_valid(instance))
    yield from _probes(schema)
    if isinstance(instance, dict):
        for key in schema.get("required", ()):
            yield {k: v for k, v in instance.items() if k != key}
        yield dict(instance, mystery=1)
        for key, sub in schema.get("properties", {}).items():
            if key in instance:
                yield from (dict(instance, **{key: v}) for v in _variants(instance[key], sub))
    elif isinstance(instance, list) and "items" in schema:
        yield from ([v] + instance[1:] for v in _variants(instance[0], schema["items"]))


MESSAGE_CASES = test_schema_error_message_matches_jsonschema_validate.pytestmark[0].args[1]
CORPUS = [
    MODEL,
    dict(MODEL, kernel=TABULATED),
    dict(MODEL, grid=EXPLICIT),
    # the configs of the message test above
    *(dict(MODEL, **{section: value}) for section, value in MESSAGE_CASES),
    # a kernel matching neither oneOf branch, or a mix of both
    dict(MODEL, kernel={"type": "gaussian", "delta": 1.0}),
    dict(MODEL, kernel=dict(TABULATED, delta=1.0)),
    dict(MODEL, grid=dict(EXPLICIT, type="dirichlet_laplacian")),
    *(variant for base in BASES for variant in _variants(base, SCHEMA)),
]


def test_corpus_holds_accepted_and_rejected_configs():
    assert all(SCHEMA_VALIDATOR.is_valid(base) for base in BASES)
    accepted = sum(SCHEMA_VALIDATOR.is_valid(raw) for raw in CORPUS)
    assert accepted > 100 and len(CORPUS) - accepted > 1000


def test_schema_interpreter_agrees_with_jsonschema():
    disagree = [raw for raw in CORPUS if not schema_agrees(raw)]
    assert disagree == []


@pytest.mark.parametrize("instance", [1, -1, 0.5, "a", None, True])
def test_one_of_needs_exactly_one_matching_branch(instance):
    # SCHEMA's branches carry distinct const types, so no config matches both
    schema = {"oneOf": [{"type": "number"}, {"minimum": 0}]}
    expected = jsonschema.validators.validator_for(schema)(schema).is_valid(instance)
    assert config._accepts(instance, schema) == expected


def _schemas(schema):
    """``schema`` and every subschema in it."""
    yield schema
    for key, value in schema.items():
        if key == "properties":
            for sub in value.values():
                yield from _schemas(sub)
        elif key == "oneOf":
            for sub in value:
                yield from _schemas(sub)
        elif key in ("items", "additionalProperties") and isinstance(value, dict):
            yield from _schemas(value)


def test_schema_uses_only_interpreted_keywords():
    # a keyword the interpreter does not know, such as pattern or anyOf, would
    # fail here instead of being ignored
    schemas = list(_schemas(SCHEMA))
    assert {key for s in schemas for key in s} <= set(config._KEYWORDS)
    assert {s["type"] for s in schemas if "type" in s} <= set(config._TYPES)
    # == is jsonschema's equality for strings only (it tells True from 1)
    assert all(isinstance(v, str) for s in schemas for v in [s.get("const", "")] + s.get("enum", []))
