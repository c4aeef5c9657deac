import csv
import io
import json
import math
from pathlib import Path

import numpy as np
import pytest

import golden

MANIFEST = json.loads(golden.MANIFEST.read_text())

# Off the committed environment the artifacts are compared value by value:
# each CSV column, and the numbers of each JSON document, to this fraction of
# their largest magnitude, and every other cell and text exactly.  With
# numpy's AVX-512 targets switched off (NPY_DISABLE_CPU_FEATURES="AVX512_ICL
# AVX512_SPR X86_V4", numpy 2.4.6, OpenBLAS SkylakeX) the largest move
# measured is 9.0e-13 of the column maximum, in the scaled sweep norms at
# M = 80; trace.csv moves by at most 2.0e-14 (residual), and verdict.json,
# verdict.md and validate.json not at all.  The general integrator's
# trace.csv moves by at most 1.0e-12 (residual) and 7.0e-16 elsewhere
TOLERANCE = 1e-11


def test_golden_config_is_the_readme_example():
    # the committed data are the artifacts of the README's configuration
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("Example configuration", 1)[1].split("```json", 1)[1].split("```", 1)[0]
    assert json.loads(block) == golden.CONFIG == MANIFEST["config"]
    assert MANIFEST["commands"] == golden.COMMANDS


def test_committed_artifacts_match_their_manifest():
    committed = {path.name: golden.sha256(path.read_bytes()) for path in golden.ARTIFACTS.iterdir()}
    assert committed == MANIFEST["sha256"]


@pytest.fixture(scope="module")
def artifacts(tmp_path_factory):
    return golden.run_commands(tmp_path_factory.mktemp("golden"))


def test_readme_artifacts_equal_the_committed_ones(artifacts):
    # bytes in the committed environment, values per column elsewhere
    assert sorted(artifacts) == sorted(MANIFEST["sha256"])
    if golden.environment() == MANIFEST["environment"]:
        assert {name: golden.sha256(data) for name, data in artifacts.items()} == MANIFEST["sha256"]
    else:
        moved = {name: golden.moves(name, data, (golden.ARTIFACTS / name).read_bytes()) for name, data in artifacts.items()}
        assert {name: m for name, m in moved.items() if max(m.values(), default=0.0) > TOLERANCE} == {}


def test_one_ulp_in_a_sweep_norm_fails_bytes_but_not_values():
    # the byte path sees the smallest change; the value path lets it through
    expected = (golden.ARTIFACTS / "sweep_M80.csv").read_bytes()
    lines = expected.decode().splitlines(keepends=True)
    cells = lines[5].split(",")
    cells[1] = repr(float(np.nextafter(float(cells[1]), math.inf)))
    got = "".join(lines[:5] + [",".join(cells)] + lines[6:]).encode()
    assert golden.sha256(got) != MANIFEST["sha256"]["sweep_M80.csv"]
    moved = golden.moves("sweep_M80.csv", got, expected)
    assert list(moved) == ["norm"] and 0.0 < moved["norm"] <= TOLERANCE
    assert golden.moves("sweep_summary.json", b'{"sup": [1.0, 2.0]}', b'{"sup": [1.0, 2.5]}') == {".sup[1]": 0.2}
    assert golden.moves("verdict.md", b"optimal", b"not optimal") == {"text": math.inf}


def test_a_csv_header_change_names_its_columns_and_fails_the_values():
    # a removed and an added column are named, each as inf, and the columns on
    # both sides are still compared by value; a header change fails the gate
    expected = (golden.ARTIFACTS / "sweep_M80.csv").read_bytes()
    rows = list(csv.reader(io.StringIO(expected.decode())))
    rows[5][1] = repr(float(np.nextafter(float(rows[5][1]), math.inf)))
    drop = rows[0].index("resonance")
    edited = [row[:drop] + row[drop + 1 :] + ["1.5"] for row in rows]
    edited[0][-1] = "margin"
    buffer = io.StringIO()
    csv.writer(buffer).writerows(edited)
    moved = golden.moves("sweep_M80.csv", buffer.getvalue().encode(), expected)
    assert moved.keys() == {"-resonance", "+margin", "norm"}
    assert moved["-resonance"] == moved["+margin"] == math.inf and 0.0 < moved["norm"] <= TOLERANCE
    assert max(moved.values()) > TOLERANCE
    # the same columns in another order, or another row count, differ too
    swapped = expected.replace(b"tau,norm,", b"norm,tau,", 1)
    assert golden.moves("sweep_M80.csv", swapped, expected)["order"] == math.inf
    shorter = b"".join(expected.splitlines(keepends=True)[:-1])
    assert golden.moves("sweep_M80.csv", shorter, expected) == {"shape": math.inf}


def test_general_integrator_artifacts_equal_the_committed_ones(tmp_path):
    # the README configuration runs the exact trace only; this run gates the
    # general integrator's bytes, and its values per column elsewhere
    manifest = json.loads(golden.GENERAL_MANIFEST.read_text())
    assert manifest["config"] == golden.GENERAL_CONFIG and manifest["commands"] == golden.GENERAL_COMMANDS
    committed = {path.name: path.read_bytes() for path in golden.GENERAL_ARTIFACTS.iterdir()}
    assert {name: golden.sha256(data) for name, data in committed.items()} == manifest["sha256"]
    artifacts = golden.run_commands(tmp_path, golden.GENERAL_CONFIG, golden.GENERAL_COMMANDS)
    assert sorted(artifacts) == sorted(committed)
    if golden.environment() == manifest["environment"]:
        assert {name: golden.sha256(data) for name, data in artifacts.items()} == manifest["sha256"]
    else:
        moved = {name: golden.moves(name, data, committed[name]) for name, data in artifacts.items()}
        assert {name: m for name, m in moved.items() if max(m.values(), default=0.0) > TOLERANCE} == {}
