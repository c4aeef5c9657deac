"""Benchmark of the memwave CLI: one workload per run, closed loop, one
fresh Python process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all       # every workload, one table

Run from a source checkout; ``src/`` goes on the workers' PYTHONPATH.  A run
starts one warm-up process and throws it away, then times the set-up of
fresh processes (interpreter start plus ``import memwave.cli``, up to the
first command call), then starts the worker that repeats whole rounds of the
workload's commands until ``--seconds`` have passed.  The first round is a
warm-up: it is counted and its outputs are checked against independent
computations (checks.py), but its time stays out of the medians; every later
round must reproduce its outputs byte for byte.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` the worker alternates untraced and traced
rounds and the line reports the per-layer metrics, including the tracing
overhead against the untraced rounds.  Artifacts, plans and span files go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks  # local modules: the script's own directory is on sys.path
import workloads
from tracer import per_layer, read_spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# fresh processes timed for set-up besides the worker itself
SETUP_PROBES = 2
PROCESS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    pass


def launch(plan_path: Path, env: dict, probe: bool) -> tuple[dict, float]:
    """Run worker.py; return its report and its set-up time in seconds."""
    argv = [sys.executable, str(BENCH / "worker.py"), str(plan_path)] + (["--probe"] if probe else [])
    started = time.monotonic()
    proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    return report, report["first_call"] - started


def model_import_s(env: dict) -> float:
    """Cumulative import time of memwave.model under ``-X importtime``."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import memwave.cli"],
        env=env,
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=PROCESS_TIMEOUT_S,
    )
    for line in proc.stderr.splitlines():
        fields = line.split("|")
        if len(fields) == 3 and fields[2].strip() == "memwave.model":
            return int(fields[1]) / 1e6
    raise BenchError(f"no memwave.model line in -X importtime output:\n{proc.stderr[-2000:]}")


def check_outputs(workload: workloads.Workload, run_dir: Path) -> list[str]:
    cfg = workload.configs
    if workload.name == "sweep-2k":
        return checks.check_sweep(cfg["sweep.json"], run_dir / "sweep")
    return checks.check_decay(cfg["exact.json"], cfg["general.json"], run_dir)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    run_dir = OUT / f"{name}-seed{seed}-trace{int(trace)}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    workload = workloads.build(name, seed, run_dir)
    plan_path = run_dir / "plan.json"
    plan = {
        "commands": [dataclasses.asdict(c) for c in workload.commands],
        "seconds": seconds,
        "trace": trace,
        "spans": str(run_dir / "spans.jsonl"),
    }
    plan_path.write_text(json.dumps(plan, indent=1))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))

    launch(plan_path, env, probe=True)  # warm-up: byte-compilation, page cache
    setups = [] if trace else [launch(plan_path, env, probe=True)[1] for _ in range(SETUP_PROBES)]
    import_model = model_import_s(env) if trace else None
    report, setup = launch(plan_path, env, probe=False)
    setups.append(setup)

    rounds = report["rounds"]
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    # a failed command is counted in `failed`; `correct` speaks of the outputs
    # of the commands that did not fail
    notes = [f"exit {e['code']}: {e['stdout'].strip()}" for r in rounds for e in r["errors"]]
    errors = []
    if rounds[0]["failed"] == 0:
        # a command whose CSV is not plain numbers has failed, in every round,
        # since every round must reproduce round 0's bytes
        for cmd in workload.commands:
            for csv_path in sorted(Path(cmd.out).glob("*.csv")):
                bad = checks.malformed_cells(csv_path)
                if bad:
                    failed += len(rounds)
                    notes.append(f"{cmd.name}: {csv_path.name} has {bad} cells that are not plain numbers")
                    break
        errors += check_outputs(workload, run_dir)
        for i, r in enumerate(rounds[1:], start=1):
            if r["failed"] == 0 and r["digests"] != rounds[0]["digests"]:
                errors.append(f"round {i} artifacts differ from round 0")
    for cmd in workload.commands:
        shutil.rmtree(cmd.out, ignore_errors=True)

    plain = [r for r in rounds[1:] if not r["traced"]]
    if trace:
        traced = [r for r in rounds if r["traced"]]
        untraced_s = statistics.median(r["wall"] for r in plain)
        overhead = statistics.median(r["wall"] for r in traced) - untraced_s
        values = per_layer(read_spans(run_dir / "spans.jsonl"), len(traced))
        values.update(
            {
                "cli.import_s": report["import_s"],
                "model.import_s": import_model,
                "trace.overhead_s": overhead,
                "trace.overhead_pct": 100.0 * overhead / untraced_s,
            }
        )
    else:
        values = {
            "setup_s": statistics.median(setups),
            "workload_s": statistics.median(r["wall"] for r in plain),
            "cpu_s": statistics.median(r["cpu"] for r in plain),
            # peak after the first round: what one CLI invocation reaches
            "peak_rss_mb": rounds[0]["rss_mb"],
        }
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if trace else "end_to_end"]
    }
    return {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "errors": errors,
        "notes": notes,
        "rounds": len(rounds),
        "first_round_s": rounds[0]["wall"],
        "delta": workload.delta,
    }


def show(name: str, result: dict) -> None:
    print(
        f"== {name}: kernel rate delta={result['delta']:.6g}, {result['rounds']} rounds "
        f"(first, untimed: {result['first_round_s']:.3f} s), "
        f"{result['attempted']} commands, {result['failed']} failed, "
        f"outputs {'correct' if result['correct'] else 'WRONG'}"
    )
    for note in result["notes"]:
        print(f"   failed operation: {note}")
    for err in result["errors"]:
        print(f"   check failed: {err}")
    for metric, v in result["metrics"].items():
        print(f"   {metric:40s} {v['value']:>16.6f} {v['unit']}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=[*workloads.BY_NAME, "all"])
    parser.add_argument("--seed", type=int, default=0, help="input seed; 0 gives the reference inputs")
    parser.add_argument("--seconds", type=float, default=40.0, help="time budget of the measured loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "memwave" / "cli.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"no memwave source checkout at {ROOT}", file=sys.stderr)
        return 2

    names = list(workloads.BY_NAME) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace))
            show(name, results[name])
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.workload == "all":
        metrics = {f"{n}/{m}": v for n, r in results.items() for m, v in r["metrics"].items()}
    else:
        metrics = results[args.workload]["metrics"]
    print(
        json.dumps(
            {
                "correct": all(r["correct"] for r in results.values()),
                "attempted": sum(r["attempted"] for r in results.values()),
                "failed": sum(r["failed"] for r in results.values()),
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
