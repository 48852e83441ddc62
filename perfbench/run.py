"""tetrakit benchmark: one closed-loop workload per call.

    python3 perfbench/run.py --workload census --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The tree under test is ``src/`` of that
checkout, put on ``PYTHONPATH``; every process started here gets the BLAS
thread variables pinned to 1 before numpy loads.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines before it state every
metric with its unit, the sample counts, the input digest and the
provenance of the run.  See DESIGN.md next to this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("census", "lift-scale", "invariants", "cli-pipeline")
THREADS = "1"  # BLAS threads per process; at most nproc on any host
SETUP_PROBES = 6  # fresh set-ups besides the run's own, half before it, half after
IMPORT_PROBES = 10  # cli-pipeline only: fresh `import tetrakit`, half before, half after
DEADLINE_S = 170.0
UNITS = {
    "setup_s": "s",
    "items_per_s": "items/s",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
    "peak_rss_mib": "MiB",
    "import_s": "s",
}
# The metrics of the JSON result, which BENCHMARK.json bounds.  The p50 and
# tail latencies and import_s are printed but not bounded: they are mostly
# interpreter work, whose speed on the host moves by up to 1.5x between runs,
# and their ten-run spreads broke 0.25 (DESIGN.md).
END_TO_END = ("setup_s", "items_per_s", "peak_rss_mib")


class BenchError(RuntimeError):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("TETRAKIT_THREADS", None)  # not honoured by the CLI; pin BLAS directly
    env["PYTHONPATH"] = str(src)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = THREADS
    return env


def timed_import(env: dict, cwd: Path) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import tetrakit"], env=env, cwd=cwd,
                   check=True, timeout=60)
    return time.perf_counter() - start


def _kill_group(pid: int) -> None:
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


class Worker:
    """One ``worker.py`` process, in a session of its own so that stopping it
    also stops its CLI children.  It is killed at the deadline, and when the
    ``with`` block is left before it has ended."""

    def __init__(self, args, env: dict, workdir: Path, deadline: float, setup_only: bool):
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--workdir", str(workdir)]
        if setup_only:
            cmd.append("--setup-only")
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True,
                                     start_new_session=True)
        self.timer = threading.Timer(max(deadline - time.monotonic(), 1.0),
                                     _kill_group, (self.proc.pid,))
        self.timer.daemon = True
        self.timer.start()

    def __enter__(self):
        return self

    def __exit__(self, *_):
        if self.proc.returncode is None:
            _kill_group(self.proc.pid)
            self.proc.wait()
        self.timer.cancel()

    def wait_ready(self) -> tuple[float, dict]:
        """Seconds from start to the READY line, and its payload."""
        for line in self.proc.stdout:
            if line.startswith("READY "):
                return time.perf_counter() - self.start, json.loads(line[6:])
        self.finish()
        raise BenchError(f"worker exited with {self.proc.returncode} before set-up finished")

    def finish(self) -> list[str]:
        """Read the rest of the output and wait for the worker to end."""
        lines = list(self.proc.stdout)
        self.proc.wait()
        return lines


def source_facts(root: Path, src: Path) -> dict:
    h = hashlib.sha256()
    for path in sorted((src / "tetrakit").rglob("*.py")):
        h.update(str(path.relative_to(src)).encode())
        h.update(path.read_bytes())
    commit = None
    if (root / ".git").exists():
        got = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=30)
        commit = got.stdout.strip() if got.returncode == 0 else None
    page = os.sysconf("SC_PAGE_SIZE")
    return {
        "git_commit": commit or "not a git checkout",
        "source_sha256": h.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "mem_available_mib": os.sysconf("SC_AVPHYS_PAGES") * page / 2**20,
        "mem_total_mib": os.sysconf("SC_PHYS_PAGES") * page / 2**20,
    }


def run(args) -> dict:
    root = Path.cwd()
    src = root / "src"
    if not (src / "tetrakit" / "__init__.py").is_file():
        raise BenchError(f"no tetrakit sources under {src}; run from a checkout root")
    workdir = root / ".perfbench_work"
    workdir.mkdir(exist_ok=True)
    env = child_env(src)
    deadline = time.monotonic() + DEADLINE_S
    return measure(args, root, src, workdir, env, deadline)


def measure(args, root: Path, src: Path, workdir: Path, env: dict, deadline: float) -> dict:
    # Probes are split before and after the timed run, so that their
    # medians sample more than one stretch of the host's load.
    imports: list[float] = []
    setups: list[float] = []

    def probe():
        if args.workload == "cli-pipeline":
            imports.extend(timed_import(env, root) for _ in range(IMPORT_PROBES // 2))
        for _ in range(SETUP_PROBES // 2):
            with Worker(args, env, workdir, deadline, True) as worker:
                setups.append(worker.wait_ready()[0])
                worker.finish()
            if worker.proc.returncode != 0:
                raise BenchError(f"set-up probe exited with {worker.proc.returncode}")

    if not args.trace:
        probe()
    with Worker(args, env, workdir, deadline, False) as worker:
        seconds, ready = worker.wait_ready()
        setups.append(seconds)
        lines = worker.finish()
    results = [json.loads(x[7:]) for x in lines if x.startswith("RESULT ")]
    if worker.proc.returncode != 0 or not results:
        raise BenchError(f"worker exited with {worker.proc.returncode} without a result")
    if not args.trace:
        probe()
    return {"ready": ready, "result": results[-1], "setups": setups, "imports": imports,
            "facts": source_facts(root, src)}


def report(args, out: dict) -> dict:
    ready, res = out["ready"], out["result"]
    print("# provenance " + json.dumps({**out["facts"], **ready["provenance"]}))
    print(f"# workload {args.workload}  seed {args.seed}  inputs sha256 {ready['digest']}"
          f"  items per round {ready['items']}  rounds {res['rounds']}"
          f"  closed loop, 1 client")
    n = res["attempted"]
    print(f"fail_ratio = {res['failed']}/{n} = {res['failed'] / n:.4f}")
    for line in res["failures"]:
        print(f"#   failed: {line}")
    if args.trace:
        if res["verdict_mismatches"]:
            print(f"# traced verdicts differ: {res['verdict_mismatches']}")
        print(f"# spans written to {res['spans_file']}")
        for fn, by_n in res["per_n"].items():
            cells = ", ".join(f"n={n}: {ms:.1f} ms x{calls}" for n, (calls, ms) in by_n.items())
            print(f"# per-call median {fn}: {cells}")
        metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in res["per_layer"].items()}
        for k, m in metrics.items():
            print(f"{k} = {m['value']:.6g} {m['unit']}")
    else:
        values = {
            "setup_s": statistics.median(out["setups"]),
            "items_per_s": res["items_per_s"],
            "item_p50_ms": res["item_p50_ms"],
            "item_tail_ms": res["item_tail_ms"],
            "peak_rss_mib": res["peak_rss_mib"],
        }
        notes = {
            "setup_s": f"median of {len(out['setups'])} fresh set-ups",
            "items_per_s": f"{n} items in {res['elapsed_s']:.3f} s",
            "item_p50_ms": f"median of {n} items",
            "item_tail_ms": f"p{res['item_tail_level']:.1f} of each round of "
                            f"{res['per_round']}, 10 items beyond it; median of "
                            f"{res['rounds']} rounds",
            "peak_rss_mib": "peak over CLI children" if args.workload == "cli-pipeline"
                            else "peak of the run process",
        }
        if out["imports"]:
            values["import_s"] = statistics.median(out["imports"])
            notes["import_s"] = f"median of {len(out['imports'])} fresh `import tetrakit`"
        for k, v in values.items():
            print(f"{k} = {v:.6g} {UNITS[k]}  ({notes[k]})")
        metrics = {k: {"value": values[k], "unit": UNITS[k]} for k in END_TO_END}
    return {"correct": res["wrong"] == 0, "attempted": n, "failed": res["failed"],
            "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(".dense_mib"):
        return "MiB-computed"
    if name.endswith("growth_exp"):
        return "exponent"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))  # so that workers are stopped
    try:
        out = run(args)
    except (BenchError, subprocess.SubprocessError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report(args, out)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
