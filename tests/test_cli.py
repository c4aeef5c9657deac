import csv
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import memwave
from memwave import cli
from memwave.config import ConfigError
from memwave.cli import main

P0_MODEL = {
    "params": {"rho": 1.0, "mu": 1.0, "alpha": 2.0, "beta": 1.0, "gamma": 0.5, "a": 0.5},
    "kernel": {"type": "exponential", "delta": 1.0},
    "grid": {"type": "dirichlet_laplacian", "length": math.pi, "count": 100},
}


def write_cfg(tmp_path, extra=None, model=None):
    cfg = dict(model or P0_MODEL)
    cfg.update(extra or {})
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_validate_command(tmp_path, capsys):
    cfg = write_cfg(tmp_path)
    code = main(["validate", "--config", cfg, "--out", str(tmp_path / "out")])
    assert code == 0
    report = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert report["passed"] is True
    assert report["kappa"] == pytest.approx(0.75)
    assert "PASS coercivity" in capsys.readouterr().out


def test_validate_tabulated_kernel(tmp_path):
    model = json.loads(json.dumps(P0_MODEL))
    s = np.arange(0.0, 5.0 + 1e-9, 1e-3)
    model["kernel"] = {"type": "tabulated", "s": list(s), "g": list(np.exp(-s)), "k0": 1.0, "k1": 1.0}
    cfg = write_cfg(tmp_path, model=model)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    report = json.loads((tmp_path / "out" / "validate.json").read_text())
    assert report["passed"] is True
    assert all(c["passed"] is True for c in report["checks"])
    assert report["kappa"] == pytest.approx(0.75, abs=1e-6)


def test_validate_failure_exit_code(tmp_path):
    model = json.loads(json.dumps(P0_MODEL))
    model["params"]["gamma"] = 2.0
    model["params"]["alpha"] = 1.0
    cfg = write_cfg(tmp_path, model=model)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 1


def test_unknown_kernel_type_is_schema_error(tmp_path, capsys):
    model = json.loads(json.dumps(P0_MODEL))
    model["kernel"] = {"type": "gaussian", "delta": 1.0}
    cfg = write_cfg(tmp_path, model=model)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    assert "error" in json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def test_unknown_top_level_key_rejected(tmp_path):
    cfg = write_cfg(tmp_path, extra={"mystery": 1})
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("bad", ["0.5", True, None])
@pytest.mark.parametrize("key", ["s", "g", "xi"])
def test_non_number_sample_is_schema_error(tmp_path, capsys, key, bad):
    model = json.loads(json.dumps(P0_MODEL))
    if key == "xi":
        model["grid"] = {"type": "explicit", "xi": [1.0, bad, 9.0]}
    else:
        model["kernel"] = {
            "type": "tabulated", "s": [0.0, 1.0, 2.0], "g": [1.0, 0.5, 0.25], "k0": 1.0, "k1": 1.0
        }
        model["kernel"][key][1] = bad
    cfg = write_cfg(tmp_path, model=model)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert error["type"] == "config"
    assert error["message"].startswith("config schema violation")


@pytest.mark.parametrize(
    "key, bad",
    [("xi", math.nan), ("xi", math.inf), ("xi", -math.inf), ("s", math.nan), ("g", math.inf)],
)
def test_non_finite_sample_is_config_error(tmp_path, capsys, key, bad):
    # json.dumps writes NaN/Infinity literals, which Python's json reads back
    model = json.loads(json.dumps(P0_MODEL))
    if key == "xi":
        model["grid"] = {"type": "explicit", "xi": [1.0, 4.0, bad, 16.0]}
    else:
        model["kernel"] = {
            "type": "tabulated", "s": [0.0, 1.0, 2.0], "g": [1.0, 0.5, 0.25], "k0": 1.0, "k1": 1.0
        }
        model["kernel"][key][1] = bad
    cfg = write_cfg(tmp_path, model=model, extra={"spectrum": {"modes": 4}})
    assert main(["spectrum", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert error["type"] == "config"
    assert "not a finite number" in error["message"]


def test_decreasing_explicit_grid_is_config_error(tmp_path, capsys):
    model = json.loads(json.dumps(P0_MODEL))
    model["grid"] = {"type": "explicit", "xi": [1, 4, 3]}
    cfg = write_cfg(tmp_path, model=model)
    assert main(["validate", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
    error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert error["type"] == "config"
    assert "strictly increasing" in error["message"]


UNKNOWN_KEY = "config schema violation: Additional properties are not allowed"


# each range command with reversed ends, with one end defaulted, and with equal ends
@pytest.mark.parametrize(
    "command, section, message",
    [
        ("sweep", {"sweep": {"tau_lo": 1000.0, "tau_hi": 10.0, "per_decade": 4}}, "sweep.tau_lo"),
        ("sweep", {"sweep": {"tau_lo": 2000.0}}, "sweep.tau_lo = 2000.0 must be below sweep.tau_hi = 1000.0"),
        # the verdict takes no range any more: its former range keys are unknown keys
        pytest.param(
            "verdict",
            {"verdict": {"tau_lo": 1000.0, "tau_hi": 10.0, "per_decade": 4}},
            UNKNOWN_KEY,
            id="verdict-section2-schema",
        ),
        pytest.param("verdict", {"verdict": {"tau_hi": 5.0}}, UNKNOWN_KEY, id="verdict-section3-schema"),
        ("simulate", {"simulate": {"t_lo": 100.0, "t_hi": 1.0}}, "simulate.t_lo"),
        ("simulate", {"simulate": {"t_lo": 200.0}}, "simulate.t_lo = 200.0 must be below simulate.t_hi"),
        ("fit", {"fit": {"trace": "trace.csv", "window": [1000.0, 10.0]}}, "fit.window[0]"),
        ("fit", {"fit": {"trace": "trace.csv", "window": [10.0, 10.0]}}, "fit.window[0]"),
    ],
)
def test_range_that_does_not_increase_is_config_error(tmp_path, capsys, command, section, message):
    cfg = write_cfg(tmp_path, extra=section)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert error["type"] == "config"
    assert error["message"].startswith(message)
    assert not list(out.glob("*"))


# the verdict reads no sweep and no history resolution
@pytest.mark.parametrize("section", [{"M": 40, "xi_probes": [1e4, 1e5, 1e6]}, {"resonances_per_branch": 12}])
def test_verdict_sweep_keys_are_schema_errors(tmp_path, capsys, section):
    cfg = write_cfg(tmp_path, extra={"verdict": section})
    out = tmp_path / "out"
    assert main(["verdict", "--config", cfg, "--out", str(out)]) == 2
    error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert error["type"] == "config"
    assert error["message"].startswith(UNKNOWN_KEY)
    assert not out.exists()


def test_spectrum_command_rows_and_root_sums(tmp_path):
    cfg = write_cfg(tmp_path, extra={"spectrum": {"modes": 100}})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "spectrum.csv").read_text().strip().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 101
    i_sum = header.index("root_sum")
    sums = np.array([float(row.split(",")[i_sum]) for row in lines[1:]])
    assert np.max(np.abs(sums + 1.0)) <= 1e-10


def test_spectrum_deterministic_output(tmp_path):
    cfg = write_cfg(tmp_path, extra={"spectrum": {"modes": 20}})
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["spectrum", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["spectrum", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()


def test_csv_cells_are_plain_numbers(tmp_path):
    cfg = write_cfg(
        tmp_path,
        extra={
            "spectrum": {"modes": 5},
            "sweep": {"M": [8], "tau_lo": 5.0, "tau_hi": 25.0, "per_decade": 4, "resonances_per_branch": 2},
            "simulate": {"data": "marginal", "n_modes": 5, "t_lo": 1.0, "t_hi": 20.0, "n_times": 5},
        },
    )
    out = tmp_path / "out"
    for command in ("spectrum", "sweep", "simulate"):
        assert main([command, "--config", cfg, "--out", str(out)]) == 0
    for name in ("spectrum.csv", "sweep_M8.csv", "trace.csv"):
        with (out / name).open(newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        assert rows
        for row in rows:
            for cell in row:
                float(cell)


def _python_env():
    """The environment with this package's source first on ``PYTHONPATH``."""
    src = str(Path(memwave.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _run_python(code):
    proc = subprocess.run([sys.executable, "-c", code], env=_python_env(), capture_output=True, text=True, check=True)
    return proc.stdout.strip()


def test_cli_import_leaves_out_scipy_integrate():
    assert _run_python("import sys, memwave.cli; print('scipy.integrate' in sys.modules)") == "False"


def test_general_simulate_leaves_out_scipy_integrate(tmp_path):
    model = json.loads(json.dumps(P0_MODEL))
    s = np.arange(0.0, 5.0 + 1e-9, 1e-3)
    model["kernel"] = {"type": "tabulated", "s": list(s), "g": list(np.exp(-s)), "k0": 1.0, "k1": 1.0}
    cfg = write_cfg(
        tmp_path,
        model=model,
        extra={"simulate": {"integrator": "general", "t_hi": 1.0, "dt": 1e-2, "sample_every": 10}},
    )
    code = (
        "import sys; from memwave.cli import main; "
        f"code = main(['simulate', '--config', {cfg!r}, '--out', {str(tmp_path / 'out')!r}]); "
        "print(code, 'scipy.integrate' in sys.modules)"
    )
    assert _run_python(code).splitlines()[-1] == "0 False"
    assert (tmp_path / "out" / "trace.csv").exists()


def test_commands_without_dense_modes_leave_out_scipy(tmp_path):
    # scipy is imported only for a mode that falls back to the dense expm
    out = tmp_path / "out"
    commands = ["validate", "spectrum", "sweep", "verdict", "simulate", "fit"]
    cfg = write_cfg(
        tmp_path,
        extra={
            "spectrum": {"modes": 5},
            "sweep": {"M": [8], "tau_lo": 5.0, "tau_hi": 25.0, "per_decade": 4, "resonances_per_branch": 2},
            "verdict": {"xi_probes": [1e4, 1e5, 1e6, 1e7]},
            "simulate": {"data": "marginal", "n_modes": 20, "t_hi": 100.0, "n_times": 30, "spacing": "log"},
            "fit": {"trace": str(out / "trace.csv"), "window": [5.0, 100.0]},
        },
    )
    code = (
        "import sys\n"
        "from memwave.cli import main\n"
        "def scipy_loaded():\n"
        "    return any(m.partition('.')[0] == 'scipy' for m in sys.modules)\n"
        "print('GUARD import', scipy_loaded())\n"
        f"for command in {commands!r}:\n"
        f"    code = main([command, '--config', {cfg!r}, '--out', {str(out)!r}])\n"
        "    print('GUARD', command, code, scipy_loaded())\n"
    )
    lines = [line for line in _run_python(code).splitlines() if line.startswith("GUARD")]
    assert lines == ["GUARD import False"] + [f"GUARD {command} 0 False" for command in commands]


BLAS = cli._openblas_threads()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="numpy's OpenBLAS exports no thread-count calls")


@pytest.fixture
def two_blas_threads():
    """The library's thread count set to 2 for the test and put back after."""
    get, set_ = BLAS
    before = get()
    set_(2)
    yield get()
    set_(before)


def _recording_command(monkeypatch, raises=None):
    """Replace ``validate`` by a command that records the BLAS thread count
    it runs with, then raises ``raises`` or returns 0."""
    seen = []

    def command(cfg, out):
        seen.append(BLAS[0]() if BLAS else None)
        if raises is not None:
            raise raises
        return 0

    monkeypatch.setitem(cli.COMMANDS, "validate", command)
    return seen


@needs_openblas
def test_sweep_bytes_do_not_depend_on_openblas_threads(tmp_path):
    # the README example configuration, at the library's default thread
    # count and at one thread: the SVDs behind the M = 80 norms round
    # differently on two threads unless the command pins one
    readme = json.loads(json.dumps(P0_MODEL))
    readme["grid"]["count"] = 200
    cfg = write_cfg(tmp_path, model=readme, extra={"sweep": {"M": [40, 80], "tau_lo": 10.0, "tau_hi": 1000.0}})
    env = _python_env()
    env.pop("OPENBLAS_NUM_THREADS", None)
    files = []
    for threads in ({}, {"OPENBLAS_NUM_THREADS": "1"}):
        out = tmp_path / f"out{len(files)}"
        argv = [sys.executable, "-m", "memwave.cli", "sweep", "--config", cfg, "--out", str(out)]
        subprocess.run(argv, env=dict(env, **threads), capture_output=True, check=True)
        files.append({path.name: path.read_bytes() for path in sorted(out.iterdir())})
    assert list(files[0]) == ["sweep_M40.csv", "sweep_M80.csv", "sweep_summary.json"]
    assert [name for name in files[0] if files[0][name] != files[1].get(name)] == []


@needs_openblas
@pytest.mark.parametrize(
    "extra, code",
    [
        ({"sweep": {"M": [8], "tau_lo": 5.0, "tau_hi": 25.0, "per_decade": 4, "resonances_per_branch": 2}}, 0),
        ({"sweep": {"M": [8], "tau_lo": 25.0, "tau_hi": 5.0}}, 2),
        ({"kernel": {"type": "exponential", "delta": 0.2}}, 1),  # not coercive
    ],
)
def test_main_restores_the_blas_thread_count(tmp_path, monkeypatch, two_blas_threads, extra, code):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    cfg = write_cfg(tmp_path, extra=extra)
    assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "out")]) == code
    assert BLAS[0]() == two_blas_threads


@needs_openblas
@pytest.mark.parametrize("raises, code", [(None, 0), (RuntimeError("boom"), 1), (ConfigError("bad"), 2)])
def test_command_runs_on_one_blas_thread(tmp_path, monkeypatch, two_blas_threads, raises, code):
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    seen = _recording_command(monkeypatch, raises)
    assert main(["validate", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "out")]) == code
    assert seen == [1]
    assert BLAS[0]() == two_blas_threads


@needs_openblas
def test_explicit_openblas_num_threads_is_honoured(tmp_path, monkeypatch, two_blas_threads):
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
    seen = _recording_command(monkeypatch)
    assert main(["validate", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert seen == [two_blas_threads]


def test_pin_is_a_no_op_without_the_library(tmp_path, monkeypatch):
    # the lookup finds nothing in a site directory with no numpy.libs ...
    monkeypatch.setattr(np, "__file__", str(tmp_path / "site" / "numpy" / "__init__.py"))
    assert cli._openblas_threads.__wrapped__() is None
    monkeypatch.undo()
    # ... and then the command runs on the caller's count
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    monkeypatch.setattr(cli, "_openblas_threads", lambda: None)
    seen = _recording_command(monkeypatch)
    before = BLAS[0]() if BLAS else None
    assert main(["validate", "--config", write_cfg(tmp_path), "--out", str(tmp_path / "out")]) == 0
    assert seen == [before]


def test_sweep_command_summary(tmp_path):
    cfg = write_cfg(
        tmp_path,
        extra={
            "sweep": {
                "M": [8, 12],
                "tau_lo": 5.0,
                "tau_hi": 25.0,
                "per_decade": 6,
                "resonances_per_branch": 3,
            }
        },
    )
    out = tmp_path / "out"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    summary = json.loads((out / "sweep_summary.json").read_text())
    assert set(summary["sup_scaled"]) == {"8", "12"}
    assert (out / "sweep_M8.csv").exists() and (out / "sweep_M12.csv").exists()


def test_simulate_then_fit(tmp_path):
    out = tmp_path / "out"
    cfg = write_cfg(
        tmp_path,
        extra={
            "simulate": {
                "data": "marginal",
                "n_modes": 40,
                "t_lo": 1.0,
                "t_hi": 200.0,
                "n_times": 80,
                "spacing": "log",
            },
            "fit": {"trace": str(out / "trace.csv"), "window": [5.0, 200.0]},
        },
    )
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 0
    fit = json.loads((out / "fit.json").read_text())
    assert fit["target_exponent"] == pytest.approx(-1.0)
    assert fit["slope"] < -0.2


def test_simulate_through_a_real_exceptional_point(tmp_path):
    # README parameters at a = 0.9: two real roots of the first mode sit
    # 8.4e-10 apart, below the 1e-8*max(1, |lam|) separation threshold, and the
    # coercivity margin there is +0.0023; the mode takes the dense route alone
    xi0 = 0.003761474648682634
    model = json.loads(json.dumps(P0_MODEL))
    model["params"]["a"] = 0.9
    model["grid"] = {"type": "explicit", "xi": [xi0, 1.0, 4.0]}
    params = memwave.ModelParams(**model["params"])
    assert memwave.exact_modal_evolve([xi0], [[1.0, 0.0, 0.0, 0.0]], params, 1.0).dense.tolist() == [True]
    cfg = write_cfg(tmp_path, model=model, extra={"simulate": {"t_lo": 0.0, "t_hi": 50.0, "n_times": 6}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    with (out / "trace.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    total = np.array([float(r["total"]) for r in rows])
    assert len(rows) == 6 and np.all(np.diff(total) <= 0.0)
    # at rest before t = 0, the memory energy starts at xi^a*|v0|^2/delta
    assert float(rows[0]["memory"]) == pytest.approx(xi0**0.9, rel=1e-12)


def test_simulate_more_modes_than_grid_is_model_error(tmp_path, capsys):
    cfg = write_cfg(tmp_path, extra={"simulate": {"data": "marginal", "n_modes": 130}})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    error = json.loads((out / "error.json").read_text())["error"]
    assert error == {
        "type": "InvalidModelError",
        "message": "simulate wants 130 modes but the grid has 100",
    }


@pytest.mark.parametrize(
    "simulate",
    [{"k": 500}, {"integrator": "general", "k": 500, "t_hi": 0.3, "dt": 0.01, "sample_every": 5}],
    ids=["exact", "general"],
)
def test_simulate_mode_past_the_grid_is_model_error(tmp_path, capsys, simulate):
    # the command line is the one place that maps k to xi
    model = json.loads(json.dumps(P0_MODEL))
    model["grid"]["count"] = 200
    if simulate.get("integrator") == "general":
        s = [0.01 * i for i in range(501)]
        model["kernel"] = {"type": "tabulated", "s": s, "g": [math.exp(-x) for x in s], "k0": 1.0, "k1": 1.0}
    cfg = write_cfg(tmp_path, model=model, extra={"simulate": simulate})
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 1
    want = {"type": "IndexError", "message": "mode index 500 outside 1..200"}
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"] == want
    assert json.loads((out / "error.json").read_text())["error"] == want
    assert not (out / "trace.csv").exists()


@pytest.mark.parametrize(
    "command, simulate, gamma",
    [
        ("sweep", None, 0.5),
        ("sweep", None, 2.0),
        ("verdict", None, 0.5),
        ("simulate", {"t_lo": 1.0, "t_hi": 200.0, "n_times": 20}, 0.5),
        ("simulate", {"integrator": "general", "t_hi": 0.3, "dt": 0.01, "sample_every": 5}, 0.5),
    ],
    ids=["sweep", "sweep-alpha1-negative", "verdict", "simulate-exact", "simulate-general"],
)
def test_non_coercive_mode_is_model_error(tmp_path, capsys, command, simulate, gamma):
    # delta = 0.2 gives zeta = 5, so alpha1 - zeta*xi_1^(a-1) = 1.75 - 5 < 0;
    # gamma = 2 makes alpha1 = -2 itself, which must be refused before the
    # sweep computes a wave speed; the general integrator gets exp(-0.2*s) as a table
    model = json.loads(json.dumps(P0_MODEL))
    model["kernel"]["delta"] = 0.2
    model["params"]["gamma"] = gamma
    if simulate and simulate.get("integrator") == "general":
        s = [0.05 * i for i in range(2001)]
        model["kernel"] = {"type": "tabulated", "s": s, "g": [math.exp(-0.2 * x) for x in s], "k0": 0.2, "k1": 0.2}
    cfg = write_cfg(tmp_path, model=model, extra={"simulate": simulate} if simulate else None)
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out)]) == 1
    want = {
        "type": "InvalidModelError",
        "message": "energy weight of mode xi=1 is not positive definite; "
        "the coercivity condition fails at this mode",
    }
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"] == want
    assert json.loads((out / "error.json").read_text())["error"] == want
    assert not (out / "trace.csv").exists()


def test_fit_refuses_a_negative_total_in_the_window(tmp_path, capsys):
    # its square root is NaN, which must not reach fit.json as "slope": NaN
    trace = tmp_path / "trace.csv"
    totals = [1.0 / t for t in range(1, 21)]
    totals[12] = -1e-3
    trace.write_text("t,total\n" + "".join(f"{t},{e!r}\n" for t, e in zip(range(1, 21), totals)))
    cfg = write_cfg(tmp_path, extra={"fit": {"trace": str(trace), "window": [2.0, 20.0]}})
    out = tmp_path / "out"
    assert main(["fit", "--config", cfg, "--out", str(out)]) == 1
    want = {"type": "ValueError", "message": "norms must be finite and strictly positive on the fit window"}
    assert json.loads((out / "error.json").read_text())["error"] == want
    assert not (out / "fit.json").exists()


def test_simulate_general_integrator(tmp_path):
    model = json.loads(json.dumps(P0_MODEL))
    s = np.arange(0.0, 12.0, 1e-2)
    model["kernel"] = {
        "type": "tabulated",
        "s": list(s),
        "g": list(np.exp(-s)),
        "k0": 1.0,
        "k1": 1.0,
    }
    cfg = write_cfg(
        tmp_path,
        model=model,
        extra={"simulate": {"integrator": "general", "k": 1, "t_hi": 2.0, "dt": 1e-3}},
    )
    out = tmp_path / "out"
    assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().strip().splitlines()
    totals = np.array([float(r.split(",")[1]) for r in lines[1:]])
    assert totals[0] == pytest.approx(2.0, rel=1e-3)
    assert np.all(np.diff(totals) <= 1e-9 * totals[0])


@pytest.mark.parametrize(
    "simulate, samples",
    [
        ({"t_hi": 0.05, "dt": 0.01, "sample_every": 10}, 0),
        ({"t_hi": 0.001, "dt": 0.01}, 0),
        ({"t_hi": 0.19, "dt": 0.01, "sample_every": 10}, 1),
        ({"t_hi": 0.2, "dt": 0.01, "sample_every": 10}, 2),
    ],
)
def test_general_simulate_needs_two_samples_after_zero(tmp_path, capsys, simulate, samples):
    model = json.loads(json.dumps(P0_MODEL))
    s = np.arange(0.0, 12.0, 1e-2)
    model["kernel"] = {"type": "tabulated", "s": list(s), "g": list(np.exp(-s)), "k0": 1.0, "k1": 1.0}
    cfg = write_cfg(tmp_path, model=model, extra={"simulate": {"integrator": "general", **simulate}})
    out = tmp_path / "out"
    code = main(["simulate", "--config", cfg, "--out", str(out)])
    if samples >= 2:
        assert code == 0
        assert len((out / "trace.csv").read_text().strip().splitlines()) == 1 + 1 + samples
        return
    assert code == 2
    error = json.loads(capsys.readouterr().out.strip().splitlines()[-1])["error"]
    assert error["type"] == "config"
    for key in ("simulate.t_hi", "simulate.dt", "simulate.sample_every"):
        assert key in error["message"]
    assert f"give {samples} samples after t = 0" in error["message"]
    assert not any(out.iterdir())


def test_verdict_command(tmp_path):
    cfg = write_cfg(tmp_path, extra={"verdict": {"xi_probes": [1e4, 1e5, 1e6, 1e7]}})
    out = tmp_path / "out"
    assert main(["verdict", "--config", cfg, "--out", str(out)]) == 0
    verdict = json.loads((out / "verdict.json").read_text())
    assert verdict["verdict"] is True
    assert (out / "verdict.md").read_text().startswith("# Decay-order verdict")


def test_verdict_reads_neither_grid_size_nor_history_resolution(tmp_path):
    # the default probes reach xi = 1e10, far past either grid
    files = []
    for count in (10, 2000):
        model = json.loads(json.dumps(P0_MODEL))
        model["grid"]["count"] = count
        out = tmp_path / f"out{count}"
        assert main(["verdict", "--config", write_cfg(tmp_path, model=model), "--out", str(out)]) == 0
        files.append([(out / name).read_bytes() for name in ("verdict.json", "verdict.md")])
    assert files[0] == files[1]
    assert json.loads(files[0][0])["verdict"] is True


def test_verdict_probe_below_the_grid_is_left_out(tmp_path):
    # a = 0.9, delta = 0.1 (zeta = 10): the grid's first mode xi = 1e8 is
    # coercive, the probe xi = 1e5 below it is not, though its Im lam_{1+} is
    # past the guard's tau = 100; it must be left out, not raise
    model = json.loads(json.dumps(P0_MODEL))
    model["params"]["a"] = 0.9
    model["kernel"]["delta"] = 0.1
    model["grid"] = {"type": "explicit", "xi": [1e8, 2e8]}
    cfg = write_cfg(tmp_path, model=model, extra={"verdict": {"xi_probes": [1e5, 1e8, 1e9, 1e10]}})
    out = tmp_path / "out"
    assert main(["verdict", "--config", cfg, "--out", str(out)]) == 0
    legs = json.loads((out / "verdict.json").read_text())["legs"]
    assert "over 3 probes at tau 8904 " in legs[1]["detail"]


def test_module_error_returns_one(tmp_path):
    model = json.loads(json.dumps(P0_MODEL))
    s = np.arange(0.0, 12.0, 1e-2)
    model["kernel"] = {
        "type": "tabulated",
        "s": list(s),
        "g": list(np.exp(-s)),
        "k0": 1.0,
        "k1": 1.0,
    }
    cfg = write_cfg(tmp_path, model=model, extra={"spectrum": {"modes": 3}})
    out = tmp_path / "out"
    assert main(["spectrum", "--config", cfg, "--out", str(out)]) == 1
    assert (out / "error.json").exists()
