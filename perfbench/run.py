"""Seeded end-to-end and per-layer benchmark of the ``obo`` command.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload bnb_tiled --seed 1 --seconds 55 --trace 0

Why each workload was chosen is recorded in ``BENCHMARK.json``.

The program is imported from the checkout's ``src`` directory.  A
closed-loop client process (``client.py``) generates the workload's
instances from the seed, runs one untimed warm-up query and then answers
the workload's query list again and again until ``--seconds`` have
passed.  An untraced run splits its seconds over three such processes in
turn, so ``setup_s`` is a median of three.  ``pass_s_p95`` is the 95th
percentile, over every whole untraced pass in the run, of the time to
answer the query list once.  The correctness gate (``gate.py``)
then checks every distinct answer outside the timed region; a query
whose check fails or raises counts as failed.

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``; with ``--trace 1`` the per-layer metrics of traced passes,
which alternate with untraced ones so that ``trace.overhead_s`` compares
like with like.  A record with the sample counts and the environment goes
to ``perfbench/out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Untraced runs split their seconds over this many client processes, run
#: one after another, so that each run has several set-up samples.
CLIENTS = 3


def _child_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = threads
    env["OMP_NUM_THREADS"] = threads
    env["PYTHONPATH"] = str(ROOT / "src")
    env.pop("OBO_NODE_LIMIT", None)  # the default node limit applies
    return env


def _client(args, workdir: Path, seconds: float, deadline: float) -> dict:
    """Run one client process to the end and return its result."""
    spawned_at = time.monotonic()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "client.py"),
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", repr(seconds), "--trace", str(args.trace),
            "--root", str(ROOT), "--workdir", str(workdir),
            "--spawned-at", repr(spawned_at),
        ],
        env=_child_env(), cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - spawned_at),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise SystemExit(f"client process failed with exit code {proc.returncode}")
    return json.loads((workdir / "result.json").read_text(encoding="utf-8"))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in (ROOT / "src" / "opinionbudget" / "cli.py",
                   ROOT / "tests" / "data" / "paper_example.json"):
        if not needed.is_file():
            print(f"perfbench: {needed.relative_to(ROOT)} is missing; run from a full checkout",
                  file=sys.stderr)
            return 2

    # Set-up, and the query or traced pass that crosses the end of each
    # client's share, add to the measured seconds; twice them plus a
    # minute covers both.
    deadline = time.monotonic() + 2 * args.seconds + 60
    workdir = HERE / "out" / f"{args.workload}-{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    clients = 1 if args.trace else CLIENTS
    runs = [_client(args, workdir, args.seconds / clients, deadline) for _ in range(clients)]

    sys.path.insert(0, str(ROOT / "src"))
    import gate

    first = runs[0]
    problems = {}
    for qi, (query, output) in enumerate(zip(first["queries"], first["outputs"])):
        if output is None:
            problems[qi] = ["no successful answer"]
        else:
            try:
                problems[qi] = gate.check(query["argv"], query["instance"], output)
            except Exception as e:  # e.g. HiGHS hit its time limit
                problems[qi] = [f"correctness check raised {type(e).__name__}: {e}"]
    for ri, run in enumerate(runs):
        for pass_index, qi, reason in run["failures"]:
            problems[qi].append(f"client {ri} pass {pass_index}: {reason}")
        for qi, output in enumerate(run["outputs"]):
            if output is not None and first["outputs"][qi] is not None and output != first["outputs"][qi]:
                problems[qi].append(f"client {ri}: output differs from client 0")

    passes = [p for run in runs for p in run["passes"]]
    attempted = sum(len(p["query_s"]) for p in passes)
    failed_queries = {qi for qi, found in problems.items() if found}
    failed = sum(1 for p in passes for qi in range(len(p["query_s"])) if qi in failed_queries)
    untraced = [p for p in passes if not p["traced"]]
    # A shared host can run up to 2x slower for seconds to minutes at a
    # time.  Medians and minima then follow how much of a run fell in a
    # fast spell; the 95th percentile of the pass time reads the slow
    # speed, which nearly every run reaches, and ignores the slowest pass.  The last untraced pass of a
    # client may stop inside the list; its queries are recorded, its pass
    # time is not.
    samples = [[p["query_s"][qi] for p in untraced if qi < len(p["query_s"])]
               for qi in range(len(first["queries"]))]
    pass_s = [p["wall_s"] for p in untraced if p["wall_s"] is not None]
    if args.trace:
        metrics = first["per_layer"]
    else:
        metrics = {
            "pass_s_p95": statistics.quantiles(pass_s, n=20, method="inclusive")[-1],
            "setup_s": statistics.median(run["setup_s"] for run in runs),
            "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in runs),
        }
    units = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(pass_s), "traced_passes": len(passes) - len(untraced),
        "query_samples": [len(times) for times in samples], "query_s": samples, "pass_s": pass_s,
        "setup_samples": [run["setup_s"] for run in runs],
        "metrics": metrics, "problems": {qi: p for qi, p in problems.items() if p},
        "environment": {
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": int(_child_env()["OPENBLAS_NUM_THREADS"]),
            "python": platform.python_version(), "numpy": numpy.__version__,
        },
    }
    (workdir / "record.json").write_text(json.dumps(record, indent=2), encoding="utf-8")
    for qi, found in record["problems"].items():
        print(f"perfbench: query {qi} failed: {found}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
