"""One benchmark process: set up a workload, then run it as a closed loop.

Started by ``run.py`` in a fresh interpreter with the BLAS thread variables
and ``PYTHONPATH`` already set.  Set-up is the import of ``tetrakit``,
input generation through ``tetrakit.gen`` and one warm-up item; the worker
then prints ``READY <json>``.  Unless ``--setup-only`` is given it runs
whole rounds of the mix, one item at a time, for about ``--seconds``, and
prints ``RESULT <json>``.  With ``--trace 1`` it runs the same
number of rounds a second time with every layer wrapped, checks that the
verdicts match, and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
HERE = Path(__file__).resolve().parent
TAIL_BEYOND = 10  # the tail is the highest percentile with this many items beyond it


@dataclass
class Record:
    label: str
    seconds: float
    verdict: tuple
    problems: list


def run_rounds(items, seconds: float, rounds: int | None = None, tracer=None, runner=None):
    """Run whole rounds of ``items``, each item after the previous one ends.

    Runs ``rounds`` rounds, or, when that is None, the number of whole
    rounds whose total time comes nearest to ``seconds`` (at least one).
    """
    records: list[Record] = []
    done = 0
    start = time.perf_counter()

    def more() -> bool:
        if rounds is not None:
            return done < rounds
        elapsed = time.perf_counter() - start
        return done == 0 or elapsed + 0.5 * elapsed / done < seconds

    while more():
        for item in items:
            if tracer is not None:
                tracer.item = len(records)
            t0 = time.perf_counter()
            try:
                verdict, problems = item.run()
            except Exception as exc:  # a refused item is a failure, not a crash
                verdict = ("raised", type(exc).__name__)
                problems = [("raised", f"{type(exc).__name__}: {exc}"[:300])]
            records.append(Record(item.label, time.perf_counter() - t0, verdict, problems))
            if tracer is not None and runner is not None:
                for path in sorted(runner.workdir.glob("spans-*.json")):
                    tracer.merge(len(records) - 1, json.loads(path.read_text()))
                    path.unlink()
        done += 1
    return records, done, time.perf_counter() - start


def summarize(records: list[Record], rounds: int, elapsed: float) -> dict:
    """End-to-end figures of one phase of whole rounds.

    The p50 pools every item.  The tail is taken per round, as the
    highest percentile with ten items beyond it, and the median over
    rounds is reported, so its rank sits at the same place in the mix
    whatever the number of rounds.
    """
    per_round = len(records) // rounds
    rank = per_round - TAIL_BEYOND - 1
    tails = []
    for r in range(rounds):
        chunk = sorted(x.seconds for x in records[r * per_round:(r + 1) * per_round])
        tails.append(1e3 * chunk[max(rank, 0)])
    failed = [r for r in records if r.problems]
    return {
        "attempted": len(records),
        "failed": len(failed),
        "wrong": sum(any(k == "wrong" for k, _ in r.problems) for r in records),
        "elapsed_s": elapsed,
        "items_per_s": len(records) / elapsed,
        "item_p50_ms": 1e3 * statistics.median(r.seconds for r in records),
        "item_tail_ms": statistics.median(tails),
        "item_tail_level": 100.0 * (max(rank, 0) + 1) / per_round,
        "per_round": per_round,
        "failures": sorted({f"{r.label}: {msg}" for r in failed for _, msg in r.problems}),
    }


def provenance(tetrakit) -> dict:
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except Exception as exc:  # show_config's layout is not a stable API
        blas = f"unknown ({type(exc).__name__})"
    return {
        "tetrakit_file": tetrakit.__file__,
        "tetrakit_version": tetrakit.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    missing = [v for v in THREAD_VARS if not os.environ.get(v)]
    if missing:
        print(f"worker: {missing} must be set before numpy loads", file=sys.stderr)
        return 2

    import tetrakit
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix="worker-", dir=args.workdir))
    try:
        runner = None
        if args.workload == "cli-pipeline":
            env = dict(os.environ, PYTHONPATH=os.pathsep.join(
                [os.environ["PYTHONPATH"], str(HERE)]))
            runner = workloads.CliRunner(sys.executable, env, workdir, HERE / "launcher.py")
        items = workloads.WORKLOADS[args.workload](args.seed, runner=runner)
        digest = workloads.input_digest(items)
        items[0].run()  # warm-up, not timed
        ready = {"digest": digest, "items": len(items), "provenance": provenance(tetrakit)}
        print("READY " + json.dumps(ready), flush=True)
        if args.setup_only:
            return 0

        records, rounds, elapsed = run_rounds(items, args.seconds)
        result = {"rounds": rounds, **summarize(records, rounds, elapsed)}
        if args.trace:
            from tracer import Tracer

            tracer = Tracer()
            if runner is None:
                tracer.install()
            else:
                runner.traced = True
                runner.walls.clear()
            traced, _, traced_elapsed = run_rounds(items, 0.0, rounds, tracer, runner)
            mismatches = [(a.label, a.verdict, b.verdict)
                          for a, b in zip(records, traced) if a.verdict != b.verdict]
            result = {"rounds": rounds, **summarize(traced, rounds, traced_elapsed),
                      "untraced_items_per_s": result["items_per_s"],
                      "verdict_mismatches": [str(m) for m in mismatches[:5]]}
            if mismatches:
                result["wrong"] += 1
            layer = tracer.metrics(runner.walls if runner else [])
            layer["trace.overhead_ratio"] = result["untraced_items_per_s"] / result["items_per_s"]
            result["per_layer"] = layer
            result["per_n"] = tracer.per_n()
            spans_out = Path(args.workdir) / f"spans-{args.workload}-seed{args.seed}.jsonl"
            tracer.write(spans_out)
            result["spans_file"] = str(spans_out)
        who = resource.RUSAGE_CHILDREN if runner else resource.RUSAGE_SELF
        result["peak_rss_mib"] = resource.getrusage(who).ru_maxrss / 1024.0
        print("RESULT " + json.dumps(result), flush=True)
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
