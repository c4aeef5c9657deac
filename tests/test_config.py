import json
import math

import jsonschema
import pytest

from memwave.config import SCHEMA, ConfigError, load_config

MODEL = {
    "params": {"rho": 1.0, "mu": 1.0, "alpha": 2.0, "beta": 1.0, "gamma": 0.5, "a": 0.5},
    "kernel": {"type": "exponential", "delta": 1.0},
    "grid": {"type": "dirichlet_laplacian", "length": math.pi, "count": 10},
}


def test_schema_is_valid_under_its_metaschema():
    # load_config builds its validator once and no longer re-checks SCHEMA
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
