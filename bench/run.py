"""Benchmark entry point: one workload per invocation, one JSON result line.

    python3 bench/run.py --workload link --seed 0 --seconds 30 --trace 0

Run from a checkout of the repository; the package is imported from its
``src/`` directory.  The launcher starts the workload in a worker process
and reports:

* ``--trace 0``: the end-to-end metrics (setup_s, run_s, op_ms.p50,
  op_ms.tail, peak_rss_mb).  ``setup_s`` is the median over the worker and
  extra set-up-only processes, each timed from spawn to "ready".
* ``--trace 1``: the per-layer metrics from traced passes (see README.md).

Human-readable lines (environment stamp, sample counts, failed_frac,
trials_per_s) come first; the last stdout line is the JSON result.
Exits 2 without a result when the package source is missing.
"""

from __future__ import annotations

import argparse
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
ROOT = HERE.parent
SETUP_PROBES = 4  # extra set-up-only processes; setup_s is a median of 1 + this
DEADLINE_S = 170.0
BLAS_THREADS = "1"  # at most nproc; one thread keeps the closed loop steady
END_TO_END = (
    ("setup_s", "s"),
    ("run_s", "s"),
    ("op_ms.p50", "ms"),
    ("op_ms.tail", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the launcher starts itself in these modes
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def worker(args) -> int:
    import harness

    def ready():
        print("READY", flush=True)

    if args.setup_only:
        from workloads import WORKLOADS

        uw = harness.import_package()
        WORKLOADS[args.workload](uw, args.seed, False, ROOT / ".bench_work").setup()
        ready()
        return 0
    report = harness.run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace), ready=ready
    )
    print(json.dumps(report), flush=True)
    return 0


def git_commit(root: Path) -> str | None:
    """HEAD of ``root/.git`` read from files; None outside a git checkout."""
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


class WorkerError(RuntimeError):
    pass


def spawn(args, deadline: float, setup_only: bool, env: dict) -> tuple[float, dict | None]:
    """Start a worker; return (seconds from spawn to READY, its report)."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--worker",
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    killer = threading.Timer(max(0.0, deadline - t0), proc.kill)
    killer.start()
    try:
        setup = None
        last = None
        for line in proc.stdout:
            if line.strip() == "READY" and setup is None:
                setup = time.perf_counter() - t0
            elif line.strip():
                last = line
        proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or setup is None:
        raise WorkerError(f"worker exited with code {proc.returncode}")
    return setup, (None if setup_only else json.loads(last))


def describe(args, report, setups, env_stamp) -> tuple[list[str], dict]:
    lines = [
        f"# uwbpulse benchmark: workload={args.workload} seed={args.seed} "
        f"seconds={args.seconds:g} trace={args.trace}",
        "# env " + json.dumps(env_stamp, sort_keys=True),
        "# load model: closed loop, 1 caller, 1 process; no layer queues or locks, "
        "so no waiting time is reported",
    ]
    attempted, failed = report["attempted"], report["failed"]
    for reason in report["failures"]:
        lines.append(f"# FAILED {reason}")
    metrics = {}
    if args.trace:
        from harness import PER_LAYER

        per_layer = report["per_layer"]
        for kind, title in (
            (("count", "computed"), "counts (repeat exactly)"),
            (("time", "ratio"), "timings and measured ratios"),
        ):
            lines.append(f"# {title}")
            for name, unit, k in PER_LAYER:
                if k in kind:
                    label = " (computed)" if k == "computed" else ""
                    lines.append(f"{name:48s} {per_layer[name]:>16.6g} {unit}{label}")
                    metrics[name] = {"value": per_layer[name], "unit": unit}
        if report["counts_varying"]:
            varying = report["counts_varying"]
            lines.append(f"# counts that differed between traced passes: {varying}")
        lines.append(f"# spans written to {report['spans_file']}")
    else:
        from harness import percentile

        op_ms = report["op_ms"]
        pct = report["tail_pct"]
        tail = percentile(op_ms, pct)
        beyond = sum(1 for x in op_ms if x > tail)
        values = {
            "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
            "run_s": (
                statistics.median(report["pass_s"]),
                f"median of {len(report['pass_s'])} passes of {report['ops_per_pass']} ops",
            ),
            "op_ms.p50": (statistics.median(op_ms), f"n={len(op_ms)}"),
            "op_ms.tail": (tail, f"p{pct:g}, n={len(op_ms)}, {beyond} beyond"),
            "peak_rss_mb": (report["peak_rss_mb"], "worker process"),
        }
        for name, unit in END_TO_END:
            value, note = values[name]
            lines.append(f"{name:14s} {value:14.6f} {unit:5s} {note}")
            metrics[name] = {"value": value, "unit": unit}
        if "trials_per_s" in report:
            rate = report["trials_per_s"]
            lines.append(f"{'trials_per_s':14s} {rate:14.3f} 1/s   inside simulate_ser")
    frac = failed / attempted
    lines.append(f"{'failed_frac':14s} {frac:14.6f} ratio {failed} of {attempted} ops")
    return lines, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.worker:
        return worker(args)
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "uwbpulse" / "__init__.py").is_file():
        print(f"no package source under {ROOT / 'src'}; run from a repository checkout",
              file=sys.stderr)
        return 2
    # on SIGTERM, unwind through spawn()'s cleanup so no worker outlives us
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(1))
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    deadline = time.perf_counter() + DEADLINE_S
    load_before = os.getloadavg()
    try:
        probes = 0 if args.trace else SETUP_PROBES
        setups = [spawn(args, deadline, True, env)[0] for _ in range(probes)]
        setup, report = spawn(args, deadline, False, env)
    except (WorkerError, json.JSONDecodeError, TypeError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    setups.append(setup)
    env_stamp = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_before": load_before,
        "load_after": os.getloadavg(),
        "git_commit": git_commit(ROOT),
        **report["versions"],
    }
    lines, metrics = describe(args, report, setups, env_stamp)
    print("\n".join(lines))
    result = {
        "correct": report["failed"] == 0,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
