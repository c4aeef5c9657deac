import json
import math
import re

import jsonschema
import pytest

from helpers import schema_agrees
from memwave import config
from memwave.config import ConfigError, load_config
from oracles import SCHEMA, config_accepted

VALIDATOR = jsonschema.validators.validator_for(SCHEMA)(SCHEMA)

MODEL = {
    "params": {"rho": 1.0, "mu": 1.0, "alpha": 2.0, "beta": 1.0, "gamma": 0.5, "a": 0.5},
    "kernel": {"type": "exponential", "delta": 1.0},
    "grid": {"type": "dirichlet_laplacian", "length": math.pi, "count": 10},
}


def test_schema_is_valid_under_its_metaschema():
    # jsonschema checks instances against the reference SCHEMA without first
    # checking SCHEMA itself
    jsonschema.validators.validator_for(SCHEMA).check_schema(SCHEMA)


@pytest.mark.parametrize(
    "section, value, message",
    [
        pytest.param("mystery", 1, "mystery is not a known key", id="mystery-1"),
        pytest.param(
            "kernel",
            {"type": "exponential", "delta": 1.0, "k0": 1.0},
            "kernel.k0 is not a known key",
            id="kernel-value1",
        ),
        pytest.param(
            "simulate", {"n_modes": "many"}, "simulate.n_modes holds 'many', not an integer >= 1", id="simulate-value2"
        ),
        # removed key: the sweep scales by tau^-(2-2a)
        pytest.param("sweep", {"omega": 1.0}, "sweep.omega is not a known key", id="sweep-value3"),
        pytest.param("sweep", {"per_decade": 1}, "sweep.per_decade holds 1, not an integer >= 2", id="per-decade"),
        pytest.param("sweep", {"M": [8, 16, 8]}, "sweep.M holds 8 more than once", id="repeated-M"),
        pytest.param("sweep", {"M": []}, "sweep.M has length 0, not at least 1", id="empty-M"),
        pytest.param(
            "params", dict(MODEL["params"], rho=0), "params.rho holds 0, not a number > 0", id="zero-rho"
        ),
        pytest.param(
            "kernel",
            {"type": "gaussian", "delta": 1.0},
            "kernel.type holds 'gaussian', not one of 'exponential', 'tabulated'",
            id="kernel-type",
        ),
        pytest.param("grid", {"length": 1.0, "count": 3}, "grid.type is missing", id="grid-type"),
    ],
)
def test_rejection_message_names_the_key(tmp_path, section, value, message):
    raw = dict(MODEL, **{section: value})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert not config_accepted(raw)
    with pytest.raises(ConfigError) as got:
        load_config(path)
    assert str(got.value) == f"config schema violation: {message}"


# every optional section and key of the reference SCHEMA, set to a value it accepts
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
        schema = next(s for s in schema["oneOf"] if VALIDATOR.evolve(schema=s).is_valid(instance))
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


MESSAGE_CASES = [case.values[:2] for case in test_rejection_message_names_the_key.pytestmark[0].args[1]]
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
    assert all(config_accepted(base) for base in BASES)
    accepted = sum(config_accepted(raw) for raw in CORPUS)
    assert accepted > 100 and len(CORPUS) - accepted > 1000


def test_schema_interpreter_agrees_with_jsonschema():
    # load_config's key table accepts exactly what the reference accepts
    disagree = [raw for raw in CORPUS if not schema_agrees(raw)]
    assert disagree == []


def _names_a_key(raw, message: str) -> bool:
    """Whether ``message`` names the dotted key of a value in ``raw``, or of
    a key that ``raw`` misses."""
    found = re.fullmatch(r"config schema violation: ([\w.]+) (holds|has length|is) .*", message)
    if found is None:
        return False
    *parents, last = found[1].split(".")
    node = raw
    for key in parents:
        if not isinstance(node, dict) or key not in node:
            return False
        node = node[key]
    return isinstance(node, dict) and (last in node or message.endswith(" is missing"))


def test_every_rejection_names_its_key():
    unnamed = []
    for raw in CORPUS:
        if config_accepted(raw):
            continue
        with pytest.raises(ConfigError) as got:
            config._check(raw)
        message = str(got.value)
        if isinstance(raw, dict):
            named = _names_a_key(raw, message)
        else:  # a config that is no object has no key to name
            named = message.startswith("config schema violation: the config holds ")
        if not named:
            unnamed.append(message)
    assert unnamed == []
