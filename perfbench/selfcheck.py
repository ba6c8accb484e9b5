"""Self-checks of the benchmark harness itself.

    python3 perfbench/selfcheck.py

1. Instrumentation coverage: every wrapped boundary function is bound in at
   least one module namespace, and records at least one call on each workload
   that COVERAGE says drives it.  A binding lost in a later refactor then fails
   here instead of reporting zero.
2. Work-count determinism: two traced runs at one seed give identical calls,
   items, depth_sum and cache hit/miss counts.
3. A second seed runs and passes every output check.

Prints one line per check and exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN = os.path.join(HERE, "run.py")
sys.path.insert(0, HERE)

from tracer import BOUNDARIES, CRITERIA  # noqa: E402

BATCH = ("pl_batch", "smooth_batch")
# wrapped function -> workloads on which it must record calls
COVERAGE = {
    "circle_maps.inverse_branch_values": BATCH + ("interactive", "acceptance"),
    "circle_maps.lift_values": ("smooth_batch",),
    "circle_maps.homeo_lift_values": ("smooth_batch",),
    "circle_maps.homeo_inverse_values": ("smooth_batch",),
    "circle_maps.global_inverse_lift": ("interactive",),
    "circle_maps.ensure_valid": ("interactive",),
    "symbolic_partition.level_left_endpoints": BATCH,
    "symbolic_partition.itinerary_batch": BATCH + ("interactive",),
    "symbolic_partition.word_of_point": ("interactive",),
    "symbolic_partition.interval_of_word": ("pl_batch", "interactive"),
    "symbolic_partition.enumerate_level": ("interactive",),
    "symbolic_partition.mesh": ("interactive",),
    "symbolic_partition.bounded_geometry_constant": BATCH,
    "conjugacy.conjugacy_enclosures": BATCH,
    "conjugacy.conjugacy_eval": ("interactive",),
    "conjugacy.endpoint_table": ("smooth_batch", "interactive"),
    "conjugacy.conjugacy_residual": ("smooth_batch",),
    **{f"analysis.{fn}": BATCH for fn in BOUNDARIES["analysis"]},
    "cli.main": ("interactive",),
}
WORKLOADS = ("pl_batch", "smooth_batch", "interactive", "acceptance")
COUNTS = ("calls", "items", "depth_sum", "hits", "misses")
# each run measures SECONDS; determinism runs use SEED, the second seed OTHER_SEED
SECONDS = 4
SEED = 7
OTHER_SEED = 8


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=seconds + 170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}: {proc.stderr[-2000:]}")
    detail, result = (json.loads(line) for line in proc.stdout.strip().splitlines()[-2:])
    return detail, result


def main() -> int:
    problems: list[str] = []

    def report(ok: bool, text: str) -> None:
        print(("ok   " if ok else "FAIL ") + text, flush=True)
        if not ok:
            problems.append(text)

    wrapped = [f"{m}.{fn}" for m, fns in BOUNDARIES.items() for fn in fns] + [f"repro.{c}" for c in CRITERIA]
    report(set(COVERAGE) | {f"repro.{c}" for c in CRITERIA} == set(wrapped),
           "every wrapped function has a driving workload")
    for workload in WORKLOADS:
        detail, first = run(workload, SEED, SECONDS, trace=1)
        _, second = run(workload, SEED, SECONDS, trace=1)
        unbound = [key for key, count in detail["bindings"].items() if count < 1]
        report(not unbound, f"{workload}: every wrapped function is bound ({unbound or 'all'})")
        calls = {k: v["value"] for k, v in first["metrics"].items()}
        drives = [key for key, loads in COVERAGE.items() if workload in loads]
        missing = [key for key in drives if not calls[f"{key}.calls"] >= 1]
        if workload == "acceptance":
            missing += [c for c in CRITERIA if not calls[f"repro.{c}.s"] > 0]
        report(not missing, f"{workload}: driven functions record calls (missing: {missing or 'none'})")
        differ = [
            k for k, v in first["metrics"].items()
            if k.rsplit(".", 1)[1] in COUNTS and v["value"] != second["metrics"][k]["value"]
        ]
        report(not differ, f"{workload}: work counts identical across two traced runs (differ: {differ or 'none'})")
        report(first["correct"] and second["correct"], f"{workload}: traced runs pass their output checks")
        detail, other = run(workload, OTHER_SEED, SECONDS, trace=0)
        report(other["correct"], f"{workload}: seed {OTHER_SEED} passes every output check {detail['failures'][:2]}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
