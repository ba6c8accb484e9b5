"""Per-layer tracing from outside the program.

The tracer wraps the public boundary functions of each circledyn module and
records, per function, exact work counts (calls, items, depth_sum) and self
time: the span's duration minus the time covered by wrapped calls made inside
it.  Modules import each other's functions by name, so one function is bound
in several module namespaces; ``Tracer.install`` patches every binding, and
also the tuple of acceptance criteria that ``repro.run_suite`` iterates.
Nothing inside ``src/`` is changed.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass

import numpy as np


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _size(index: int, name: str):
    return lambda a, k: int(np.size(_arg(a, k, index, name)))


# module -> function -> items rule (None: the function counts calls only)
BOUNDARIES = {
    "circle_maps": {
        "inverse_branch_values": _size(2, "y"),
        "lift_values": _size(1, "x"),
        "homeo_lift_values": _size(1, "x"),
        "homeo_inverse_values": _size(1, "y"),
        "global_inverse_lift": None,
        "ensure_valid": None,
    },
    "symbolic_partition": {
        "level_left_endpoints": lambda a, k: _arg(a, k, 0, "spec").degree ** _arg(a, k, 1, "n"),
        "itinerary_batch": lambda a, k: int(np.size(_arg(a, k, 1, "xs"))) * _arg(a, k, 2, "n"),
        "word_of_point": lambda a, k: _arg(a, k, 2, "n"),
        "interval_of_word": lambda a, k: _arg(a, k, 1, "word").level,
        "enumerate_level": None,
        "mesh": None,
        "bounded_geometry_constant": None,
    },
    "conjugacy": {
        "conjugacy_enclosures": _size(2, "xs"),
        "conjugacy_eval": None,
        "endpoint_table": None,
        "conjugacy_residual": None,
    },
    "analysis": {
        name: None
        for name in (
            "measure_profile",
            "tail_sum",
            "dilatation_report",
            "symmetry_modulus",
            "uqs_ratio_endo",
            "qs_ratio",
        )
    },
    "cli": {"main": None},
}
PACKAGE = "circledyn"
CRITERIA = tuple(f"criterion_{i}" for i in range(1, 10))


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for mod, fns in BOUNDARIES.items():
        for fn, rule in fns.items():
            key = f"{mod}.{fn}"
            out.append((f"{key}.calls", "count"))
            if rule is not None:
                out.append((f"{key}.items", "count"))
            if key == "conjugacy.conjugacy_enclosures":
                out.append((f"{key}.depth_sum", "count"))
            out.append((f"{key}.self_s", "s"))
    out += [
        ("circle_maps.branch_points.hits", "count"),
        ("circle_maps.branch_points.misses", "count"),
        ("circle_maps.branch_points.hit_ratio", "ratio"),
    ]
    out += [(f"repro.{c}.s", "s") for c in CRITERIA]
    out.append(("bench.trace_overhead_s", "s"))
    return out


@dataclass
class Stat:
    calls: int = 0
    items: int = 0
    depth_sum: int = 0
    self_s: float = 0.0
    total_s: float = 0.0


class Tracer:
    """Span recorder; install() patches the package, uninstall() restores it."""

    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self._child_time: list[float] = []
        self._restore: list[tuple[object, str, object]] = []
        self.bound: dict[str, int] = {}
        self.paused = False

    def reset(self) -> None:
        self.stats = {}

    @contextlib.contextmanager
    def pause(self):
        """Calls made inside (the benchmark's own output checks) are not traced."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def _wrap(self, key: str, fn, items):
        stack = self._child_time
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            st = tracer.stats.get(key)
            if st is None:
                st = tracer.stats[key] = Stat()
            if items is not None:
                st.items += items(args, kwargs)
            stack.append(0.0)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                inner = stack.pop()
                st.self_s += dur - inner
                st.total_s += dur
                st.calls += 1
                if stack:
                    stack[-1] += dur
            if key == "conjugacy.conjugacy_enclosures":
                st.depth_sum += int(np.sum(out[2]))
            return out

        return wrapper

    def _modules(self) -> list:
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))
        ]

    def install(self) -> None:
        for mod_name in BOUNDARIES:
            importlib.import_module(f"{PACKAGE}.{mod_name}")
        repro = importlib.import_module(f"{PACKAGE}.repro")
        modules = self._modules()
        targets = []
        for mod_name, fns in BOUNDARIES.items():
            mod = sys.modules[f"{PACKAGE}.{mod_name}"]
            for fn_name, items in fns.items():
                targets.append((f"{mod_name}.{fn_name}", getattr(mod, fn_name), items))
        for name in CRITERIA:
            targets.append((f"repro.{name}", getattr(repro, name), None))
        for key, original, items in targets:
            wrapper = self._wrap(key, original, items)
            count = 0
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, attr, value))
                        setattr(mod, attr, wrapper)
                        count += 1
            if key.startswith("repro.criterion_"):
                count += self._patch_criteria(repro, original, wrapper)
            self.bound[key] = count

    def _patch_criteria(self, repro, original, wrapper) -> int:
        suite = repro.ALL_CRITERIA
        if original not in suite:
            return 0
        self._restore.append((repro, "ALL_CRITERIA", suite))
        repro.ALL_CRITERIA = tuple(wrapper if f is original else f for f in suite)
        return 1

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore = []
