"""Time the ROADMAP's single-call reference points, for comparison with the
benchmark's traced numbers (see README.md).

    python3 perfbench/reference_points.py

Prints one JSON object: the best of three runs of
``circledyn conjugacy --from f_0.6 --to smooth_sine --grid 1024`` in process,
and of one inverse branch on 1e5 points for smooth_sine(2, 0.5) and for f_0.6.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def best_of(fn, repeats: int = 3) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return min(times)


def main() -> int:
    from run import THREAD_VARS

    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import numpy as np

    from circledyn import cli, inverse_branch_values, piecewise_linear, smooth_sine_map

    os.makedirs(os.path.join(ROOT, ".perfbench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-", dir=os.path.join(ROOT, ".perfbench_work"))
    try:
        f_path, g_path = os.path.join(work, "f.json"), os.path.join(work, "g.json")
        with open(f_path, "w") as fh:
            json.dump({"kind": "piecewise_linear_full_branch", "cuts": [0.6]}, fh)
        with open(g_path, "w") as fh:
            json.dump({"kind": "smooth_sine", "degree": 2, "epsilon": 0.5}, fh)
        argv = ["conjugacy", "--from", f_path, "--to", g_path, "--grid", "1024", "--out", os.path.join(work, "out")]
        ys = np.linspace(0.0, 1.0, 100_000)
        smooth, pl = smooth_sine_map(2, 0.5), piecewise_linear([0.6])
        out = {
            "conjugacy_f06_to_smooth_sine_grid1024_s": best_of(lambda: cli.main(argv)),
            "inverse_branch_smooth_sine_1e5_s": best_of(lambda: inverse_branch_values(smooth, 1, ys)),
            "inverse_branch_f06_1e5_s": best_of(lambda: inverse_branch_values(pl, 1, ys)),
        }
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
