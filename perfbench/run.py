"""circledyn benchmark: one command, every metric by name and unit, outputs checked.

    python3 perfbench/run.py --workload pl_batch --seed 1 --seconds 25 --trace 0

Run from the root of a checkout; the program is imported from ``src/``.
Workloads: pl_batch, smooth_batch, interactive, acceptance (see README.md).

Each run starts fresh interpreters (``worker.py``) with BLAS and OpenMP thread
counts pinned to 1 before numpy loads.  Set-up time is the median over
SETUP_SAMPLES interpreters, the measured one included.  With ``--trace 0`` the
last stdout line carries the end-to-end metrics named in BENCHMARK.json; with
``--trace 1`` it carries the per-layer metrics.  The line before it holds every
measured metric (including those the workload alone has samples for), the
failures, and the provenance of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("pl_batch", "smooth_batch", "interactive", "acceptance")
SETUP_SAMPLES = 3
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
# the end-to-end metrics gated by BENCHMARK.json: every workload has them
GATED = ("setup_s", "wall_ref", "peak_rss_mb")


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def child_env() -> dict:
    env = dict(os.environ)
    for name in THREAD_VARS:
        env[name] = "1"
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONPATH", None)
    return env


def run_worker(argv: list[str], timeout: float) -> dict:
    proc = subprocess.run(
        [sys.executable, WORKER, *argv],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {' '.join(argv)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def src_digest() -> str:
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in sorted(os.walk(src)):
        dirs.sort()
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, src).encode())
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def provenance(args, worker: dict) -> dict:
    return {
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "numpy": worker.get("numpy"),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "thread_env": {name: child_env()[name] for name in THREAD_VARS},
    }


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "circledyn", "__init__.py")):
        return fail(f"no circledyn sources under {os.path.join(ROOT, 'src')}")
    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)

    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [
            run_worker(common + ["--setup-only"], timeout=30)["setup_s"]
            for _ in range(SETUP_SAMPLES - 1)
        ]
        result = run_worker(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            timeout=args.seconds + 90,
        )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, IndexError) as exc:
        return fail(str(exc))
    setups.append(result["setup_s"])

    measured = {name: {"value": v, "unit": u} for name, (v, u) in result["end_to_end"].items()}
    measured["setup_s"] = {"value": statistics.median(setups), "unit": "s", "samples": setups}
    measured["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
    measured["failed_frac"].update(attempted=result["attempted"], failed=result["failed"])
    if "query_tail_ms" in measured:
        measured["query_tail_ms"].update(
            percentile=measured.pop("query_tail_percentile")["value"],
            samples=measured.pop("query_samples")["value"],
        )
    detail = {
        "provenance": provenance(args, result),
        "ops_attempted": result["attempted"],
        "ops_by_family": result["ops_by_family"],
        "end_to_end": measured,
        "failures": result["failures"],
    }
    if args.trace:
        from tracer import metric_names

        detail["bindings"] = result["bindings"]
        metrics = {
            name: {"value": result["per_layer"][name], "unit": unit} for name, unit in metric_names()
        }
    else:
        metrics = {name: {"value": measured[name]["value"], "unit": measured[name]["unit"]} for name in GATED}
    print(json.dumps(detail))
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.path.insert(0, HERE)
    sys.exit(main())
