"""One benchmark process: import memwave.cli, then run whole rounds of CLI
commands in a closed loop until the time budget is spent.

Round 0 is the process's first pass over the commands; it pays one-time costs
(BLAS thread start-up among them) and run.py keeps it out of the time
medians, so a run has at least two rounds.  In a traced run the later rounds
alternate traced and untraced, starting traced, so it has at least three.

Usage (from run.py): ``python worker.py PLAN.json [--probe]``.  The plan
lists the commands of one round, the budget in seconds, whether to trace and
where to write spans.  With ``--probe`` the process stops at the point where
it would make its first command call; that is the set-up every CLI
invocation pays.  The last stdout line is a JSON report; ``first_call`` is
read on the system-wide monotonic clock so the parent can subtract its own
launch time.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import sys
import time
from pathlib import Path


def digest(out_dir: str) -> str:
    h = hashlib.sha256()
    for name in sorted(os.listdir(out_dir)):
        h.update(name.encode())
        h.update(Path(out_dir, name).read_bytes())
    return h.hexdigest()


def run_round(cli, commands: list[dict]) -> tuple[list[dict], float, float]:
    results = []
    wall = cpu = 0.0
    for cmd in commands:
        argv = [cmd["name"], "--config", cmd["config"], "--out", cmd["out"]]
        sink = io.StringIO()
        w0 = time.perf_counter()
        c0 = time.process_time()
        with contextlib.redirect_stdout(sink):
            try:
                code = cli.main(argv)
            except Exception as exc:  # noqa: BLE001 - a crash is a failed operation
                code = f"{type(exc).__name__}: {exc}"
        cpu += time.process_time() - c0
        wall += time.perf_counter() - w0
        results.append({"code": code, "stdout": sink.getvalue()[-2000:]})
    return results, wall, cpu


def main() -> int:
    plan = json.loads(Path(sys.argv[1]).read_text())
    probe = "--probe" in sys.argv[2:]
    t0 = time.perf_counter()
    import memwave.cli as cli

    import_s = time.perf_counter() - t0
    first_call = time.monotonic()
    if probe:
        print(json.dumps({"first_call": first_call}))
        return 0

    tracer = None
    if plan["trace"]:
        from tracer import Tracer  # the script's own directory is on sys.path

        tracer = Tracer()

    rounds = []
    start = time.monotonic()
    min_rounds = 2 if tracer is None else 3
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        if traced:
            tracer.round = len(rounds)
            tracer.install()
        results, wall, cpu = run_round(cli, plan["commands"])
        if traced:
            tracer.uninstall()
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        failed = [r for r in results if r["code"] != 0]
        rounds.append(
            {
                "wall": wall,
                "cpu": cpu,
                "traced": traced,
                "rss_mb": rss_mb,
                "attempted": len(results),
                "failed": len(failed),
                "errors": failed,
                "digests": [None if r["code"] != 0 else digest(c["out"]) for r, c in zip(results, plan["commands"])],
            }
        )
        gc.collect()
        elapsed = time.monotonic() - start
        if elapsed >= plan["seconds"] and len(rounds) >= min_rounds:
            break

    if tracer is not None:
        tracer.write(Path(plan["spans"]))
    report = {
        "first_call": first_call,
        "import_s": import_s,
        "rounds": rounds,
    }
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
