"""One measured process of the benchmark (started by run.py, never by hand).

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload W --seed N --setup-only

Set-up is timed from the first line of this file: import circledyn, generate
and validate the workload's specs, and (batch workloads) one warm-up call per
op family.  Then the workload's op list runs pass after pass, one op at a
time, until ``--seconds`` have gone by.  Each op is timed alone; its output is
checked outside the timed region.  The last stdout line is one JSON object.

With ``--trace 1`` the first half of the time runs with the tracer installed
and the second half without it, so the tracing overhead is measured in the
same process.  Work counts come from the first traced pass, which follows
set-up directly, so they do not depend on how many passes fit in the time.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float)
    p.add_argument("--trace", type=int, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def import_program():
    """Import circledyn from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import circledyn
    import circledyn.cli  # noqa: F401 - loads repro and cli for the tracer

    origin = os.path.realpath(circledyn.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"circledyn imported from {origin}, not from {SRC}")
    return circledyn


def reference_kernel(small) -> float:
    """Time one fixed mix of interpreter work and small numpy calls.

    The sandbox's speed swings by tens of percent over tens of seconds.
    Sampled between ops, this kernel's time tracks that swing, and
    ``wall_ref`` divides it out.  It never calls circledyn, so a program
    change cannot move it.  Large arrays are left out: their timing depends on
    the neighbours' memory traffic more than on the machine's speed.
    """
    import numpy as np

    start = time.perf_counter()
    acc = 0
    for i in range(30_000):
        acc += i * i
    for _ in range(150):
        small = np.where(small < 0.5, small * 1.5, small * 0.5)
    return time.perf_counter() - start


class Runner:
    """Runs passes of a workload and accumulates timings, work and failures."""

    def __init__(self, workload):
        self.workload = workload
        # op index -> (digest of the first-pass output, its check problems)
        self.reference: dict[int, tuple[str, list[str]]] = {}
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.pass_walls: list[float] = []
        self.family_time: dict[str, float] = {}
        self.family_work: dict[str, int] = {}
        self.family_ops: dict[str, int] = {}
        self.kernel_s: list[float] = []
        self._kernel_input = None
        self._last_sample = time.perf_counter()
        self.query_ms: list[float] = []
        self.next_pass = 0
        # wraps the output checks; the traced run pauses the tracer there
        self.check_context = contextlib.nullcontext

    def run_pass(self, record: bool = True) -> float:
        index = self.next_pass
        self.next_pass += 1
        wall = 0.0
        for i, op in enumerate(self.workload.ops(index)):
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                dur = time.perf_counter() - start
                problems = [f"{op.name} raised {type(exc).__name__}: {exc}"]
                out = None
            else:
                dur = time.perf_counter() - start
                problems = self._check(i, op, out)
            wall += dur
            self.attempted += op.count
            self.family_ops[op.family] = self.family_ops.get(op.family, 0) + op.count
            if problems:
                self.failed += min(op.count, len(problems))
                self.failures += [f"pass {index} {op.family}/{op.name}: {p}" for p in problems[:3]]
            if record:
                self._sample_reference()
            if record and out is not None:
                self.family_time[op.family] = self.family_time.get(op.family, 0.0) + dur
                self.family_work[op.family] = self.family_work.get(op.family, 0) + op.work(out)
                if op.family == "query":
                    self.query_ms.append(dur * 1e3)
        if record:
            self.pass_walls.append(wall)
        return wall

    def _sample_reference(self) -> None:
        """Every 0.25 s or more, between ops: reference-kernel samples worth
        about 4% of the time since the last ones, at least one."""
        since = time.perf_counter() - self._last_sample
        if since < 0.25:
            return
        if self._kernel_input is None:
            import numpy as np

            self._kernel_input = np.random.default_rng(0).uniform(size=1024)
        spent = 0.0
        while not spent or spent < 0.04 * since:
            self.kernel_s.append(reference_kernel(self._kernel_input))
            spent += self.kernel_s[-1]
        self._last_sample = time.perf_counter()

    def _check(self, i, op, out) -> list[str]:
        from workloads import digest

        if self.workload.check_every_pass:
            return self._full_check(op, out)
        if i not in self.reference:
            problems = self._full_check(op, out)
            self.reference[i] = (digest(out), problems)
            return problems
        # later passes must repeat the first pass's output bit for bit, and
        # a repeated wrong output fails again
        first, problems = self.reference[i]
        return problems if digest(out) == first else ["output differs from the first pass"]

    def _full_check(self, op, out) -> list[str]:
        try:
            with self.check_context():
                return op.check(out)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the op
            return [f"check raised {type(exc).__name__}: {exc}"]

    def run_for(self, seconds: float, record: bool = True, on_pass=None) -> list[float]:
        """Run whole passes (at least one) while another median-length pass
        still ends within ``seconds``; return their walls."""
        deadline = time.perf_counter() + seconds
        walls = []
        while True:
            walls.append(self.run_pass(record))
            if on_pass is not None:
                on_pass()
            if time.perf_counter() + statistics.median(walls) > deadline:
                return walls

    def run_spot_checks(self) -> None:
        for op in self.workload.spot:
            out = op.run()
            self.attempted += 1
            problems = self._full_check(op, out)
            if problems:
                self.failed += 1
                self.failures += [f"spot {op.name}: {p}" for p in problems]


def tail_percentile(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    idx = n - 11
    return ordered[idx], 100.0 * (idx + 1) / n, n


def end_to_end(runner: Runner) -> dict:
    """Every end-to-end metric this workload has samples for."""
    wall = statistics.median(runner.pass_walls)
    kernel = statistics.median(runner.kernel_s)
    m = {"wall_s": (wall, "s"), "wall_ref": (wall / kernel, "ref"), "ref_kernel_s": (kernel, "s")}
    per_s = {
        "cells": "cells_per_s",
        "conj": "conj_points_per_s",
        "itinerary": "itinerary_symbols_per_s",
        "analysis": "analysis_ops_per_s",
        "report": "report_rows_per_s",
    }
    for family, name in per_s.items():
        if runner.family_time.get(family):
            m[name] = (runner.family_work[family] / runner.family_time[family], "1/s")
    if runner.query_ms:
        m["query_p50_ms"] = (statistics.median(runner.query_ms), "ms")
        value, pct, count = tail_percentile(runner.query_ms)
        m["query_tail_ms"] = (value, "ms")
        m["query_tail_percentile"] = (pct, "%")
        m["query_samples"] = (count, "count")
    m["failed_frac"] = (runner.failed / max(runner.attempted, 1), "ratio")
    m["passes"] = (len(runner.pass_walls), "count")
    return m


def traced_run(runner: Runner, seconds: float, circledyn) -> tuple[dict, dict]:
    """Per-layer metrics: counts from the first traced pass, self times as the
    median over traced passes, overhead against the untraced second half.
    Also returns how many module bindings each wrapped function had."""
    from tracer import Tracer, metric_names

    cache = circledyn.circle_maps.branch_points.cache_info
    tracer = Tracer()
    per_pass: list[dict] = []
    hits: list[tuple[int, int]] = []
    before = cache()

    in_checks = [0, 0]

    @contextlib.contextmanager
    def quiet():
        """Checks call the library too: keep them out of spans and cache counts."""
        a = cache()
        with tracer.pause():
            yield
        b = cache()
        in_checks[0] += b.hits - a.hits
        in_checks[1] += b.misses - a.misses

    def snapshot():
        nonlocal before
        now = cache()
        hits.append((now.hits - before.hits - in_checks[0], now.misses - before.misses - in_checks[1]))
        before = now
        in_checks[:] = [0, 0]
        per_pass.append(tracer.stats)
        tracer.reset()

    start = time.perf_counter()
    tracer.install()
    runner.check_context = quiet
    try:
        traced_walls = runner.run_for(seconds / 2, record=False, on_pass=snapshot)
    finally:
        tracer.uninstall()
        runner.check_context = contextlib.nullcontext
    runner.run_for(max(seconds - (time.perf_counter() - start), 0.0))
    first = per_pass[0]
    values: dict[str, float] = {}
    for name, _unit in metric_names():
        key, stat = name.rsplit(".", 1)
        if key.startswith("repro."):
            samples = [p[key].total_s if key in p else 0.0 for p in per_pass]
            values[name] = statistics.median(samples)
        elif stat == "self_s":
            values[name] = statistics.median([p[key].self_s if key in p else 0.0 for p in per_pass])
        elif stat in ("calls", "items", "depth_sum"):
            values[name] = getattr(first[key], stat) if key in first else 0
    h, m = hits[0]
    values["circle_maps.branch_points.hits"] = h
    values["circle_maps.branch_points.misses"] = m
    values["circle_maps.branch_points.hit_ratio"] = h / (h + m) if h + m else 0.0
    values["bench.trace_overhead_s"] = statistics.median(traced_walls) - statistics.median(runner.pass_walls)
    return values, tracer.bound


def main(argv=None) -> int:
    args = parse_args(argv)
    circledyn = import_program()
    import numpy

    import workloads

    workdir = tempfile.mkdtemp(prefix="perfbench-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        workload = workloads.make(args.workload, args.seed, workdir)
        for spec in workload.specs:
            circledyn.ensure_valid(spec)
        workload.warm_up()
        setup_s = time.perf_counter() - START
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        runner = Runner(workload)
        result = {"setup_s": setup_s}
        if args.trace:
            result["per_layer"], result["bindings"] = traced_run(runner, args.seconds, circledyn)
        else:
            runner.run_for(args.seconds)
        runner.run_spot_checks()
        result["end_to_end"] = end_to_end(runner)
        result["attempted"] = runner.attempted
        result["failed"] = runner.failed
        result["ops_by_family"] = runner.family_ops
        result["failures"] = runner.failures[:20]
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["numpy"] = numpy.__version__
        print(json.dumps(result))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report and fail the run
        traceback.print_exc()
        sys.exit(1)
