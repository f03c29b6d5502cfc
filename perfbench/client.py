"""Closed-loop client: one process that answers a workload's queries in turn.

Each query is one ``obo`` command run in-process through
``opinionbudget.cli.main``, so the cli layer's JSON output is timed but
interpreter start-up is not; start-up, imports, instance generation and
one untimed warm-up query make up the set-up time instead.  The next
query is sent only when the previous one has returned.

Run by ``run.py``; the result goes to ``<workdir>/result.json``.
"""

import argparse
import contextlib
import io
import json
import resource
import statistics
import time
import traceback
from pathlib import Path

import spans
import workloads


def _run_query(cli, query):
    """(exit code or None if it raised, stdout text, seconds, error)."""
    buf = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            code = cli.main(list(query.argv))
        error = None
    except Exception:  # a raising query is a failed query, not a crash
        code, error = None, traceback.format_exc(limit=3)
    return code, buf.getvalue(), time.perf_counter() - start, error


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before this process started")
    args = ap.parse_args()

    import opinionbudget
    from opinionbudget import cli

    workdir = Path(args.workdir)
    if not Path(opinionbudget.__file__).resolve().is_relative_to(Path(args.root).resolve()):
        raise SystemExit(f"opinionbudget imported from outside the checkout: {opinionbudget.__file__}")
    wl = workloads.build(args.workload, args.seed, Path(args.root), workdir / "inputs")
    _run_query(cli, wl.warmup)
    first_query_at = time.monotonic()
    result = {"setup_s": first_query_at - args.spawned_at}
    tracer = spans.Tracer()
    passes = []
    first_outputs = [None] * len(wl.queries)
    failures = []  # (pass index, query index, reason)
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        times = []
        with tracer.recording(traced, pass_id=len(passes)):
            pass_start = time.perf_counter()
            for qi, query in enumerate(wl.queries):
                code, text, seconds, error = _run_query(cli, query)
                times.append(seconds)
                if error is not None or code != 0:
                    failures.append((len(passes), qi, error or f"exit code {code}: {text[:500]}"))
                elif first_outputs[qi] is None:
                    first_outputs[qi] = text
                elif text != first_outputs[qi]:
                    failures.append((len(passes), qi, "output differs from the first pass"))
                # An untraced run uses every query's time on its own, so
                # it may stop inside a pass once each query has run.
                if not args.trace and passes and time.perf_counter() > deadline:
                    break
            wall = time.perf_counter() - pass_start
        complete = len(times) == len(wl.queries)
        passes.append({"traced": traced, "wall_s": wall if complete else None, "query_s": times})
        # A traced run needs one whole pass of each kind.
        kinds = {p["traced"] for p in passes}
        if time.perf_counter() > deadline and len(kinds) == 1 + bool(args.trace):
            break

    untraced = [p for p in passes if not p["traced"]]
    result.update({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "passes": passes,
        "queries": [{"argv": list(q.argv), "instance": q.instance} for q in wl.queries],
        "outputs": first_outputs,
        "failures": failures,
    })
    if args.trace:
        layer = tracer.metrics()
        layer["trace.overhead_s"] = layer["trace.wall_s"] - statistics.median(
            p["wall_s"] for p in untraced)
        result["per_layer"] = layer
        tracer.dump(workdir / "spans.json")
    (workdir / "result.json").write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
