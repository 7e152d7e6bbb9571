"""Per-layer tracing for the weillab benchmark, applied from outside the package.

``install`` wraps the public functions of each layer (the package
modules) and rebinds every name that refers to them, in every loaded
``weillab`` module, so calls between modules go through the wrappers
too.  A wrapper records calls, inclusive time and self time (inclusive
time minus the time its child spans cover).  ``layer_metrics`` turns the
report into the benchmark's per-layer metrics.  This module imports
weillab only inside ``install``.
"""

from __future__ import annotations

import importlib
import sys
import threading
from collections import Counter
from time import perf_counter_ns, thread_time_ns

# span name -> (defining module, attribute); span names are <layer>.<function>
TARGETS = {
    "cli.enumerate": ("weillab.cli", "_run_enumerate"),
    "cli.prime_powers_in_range": ("weillab.cli", "prime_powers_in_range"),
    "records.records_for_q": ("weillab.records", "records_for_q"),
    "records.build_record": ("weillab.records", "build_record"),
    "records.csv_row": ("weillab.records", "csv_row"),
    "records.to_json_line": ("weillab.records", "to_json_line"),
    "classify.enumerate_classes": ("weillab.classify", "enumerate_classes"),
    "classify.classify": ("weillab.classify", "classify"),
    "classify.prime_divisors_all_1_mod_3": ("weillab.classify", "prime_divisors_all_1_mod_3"),
    "core.factorize": ("weillab.core", "factorize"),
    "core.squarefree_part": ("weillab.core", "squarefree_part"),
    "core.is_irreducible_over_Q": ("weillab.core", "is_irreducible_over_Q"),
    "core.make_weil_quartic": ("weillab.core", "make_weil_quartic"),
    "core.parse_label": ("weillab.core", "parse_label"),
    "two_adic.two_adic_data": ("weillab.two_adic", "two_adic_data"),
    "verdict.genus3_verdict": ("weillab.verdict", "genus3_verdict"),
    "verdict.curve_shape_constraints": ("weillab.verdict", "curve_shape_constraints"),
    "bounds.non_pp_bounds": ("weillab.bounds", "non_pp_bounds"),
}
# busy time of a pool task is its thread CPU time: wall time would count GIL waits
CPU_TIMED = {"records.records_for_q"}
# spans whose result length is counted (members kept per enumerate_classes call)
SIZED = {"classify.enumerate_classes"}


_EMPTY_SPAN = {"calls": 0, "incl_s": 0.0, "self_s": 0.0, "cpu_s": 0.0, "items": 0, "first_ns": None, "last_ns": None}


class _Stats:
    __slots__ = ("calls", "incl_ns", "self_ns", "cpu_ns", "items", "first_ns", "last_ns")

    def __init__(self) -> None:
        self.calls = self.incl_ns = self.self_ns = self.cpu_ns = self.items = 0
        self.first_ns = self.last_ns = None


class Tracer:
    """Span statistics kept per thread and merged by ``report``.

    A span that starts on an empty stack in a pool thread is attributed
    to the innermost open span of the main thread; that parent's self
    time excludes the interval from the first such child's start to the
    last one's end.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[list] = []
        self._lock = threading.Lock()
        self._per_thread: list[tuple[dict[str, _Stats], Counter]] = []

    def _state(self) -> tuple[list, dict[str, _Stats], Counter]:
        local = self._local
        try:
            return local.stack, local.stats, local.edges
        except AttributeError:
            local.stack = self._main_stack if threading.current_thread() is self._main else []
            local.stats, local.edges = {}, Counter()
            with self._lock:
                self._per_thread.append((local.stats, local.edges))
            return local.stack, local.stats, local.edges

    def wrap(self, name: str, fn):
        cpu = name in CPU_TIMED
        sized = name in SIZED

        def traced(*args, **kwargs):
            stack, stats, edges = self._state()
            adopted = None
            if stack:
                parent = stack[-1]
            elif stack is not self._main_stack and self._main_stack:
                parent = adopted = self._main_stack[-1]
            else:
                parent = None
            edges[(parent[0] if parent else None, name)] += 1
            # frame: name, same-thread child ns, first and last ns of adopted children
            frame = [name, 0, None, None]
            stack.append(frame)
            cpu0 = thread_time_ns() if cpu else 0
            t0 = perf_counter_ns()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                incl = t1 - t0
                covered = frame[1] + (frame[3] - frame[2] if frame[2] is not None else 0)
                s = stats.get(name)
                if s is None:
                    s = stats[name] = _Stats()
                s.calls += 1
                s.incl_ns += incl
                s.self_ns += incl - covered
                if cpu:
                    s.cpu_ns += thread_time_ns() - cpu0
                if sized and result is not None:
                    s.items += len(result)
                if s.first_ns is None:
                    s.first_ns = t0
                s.last_ns = t1
                if adopted is not None:
                    with self._lock:
                        adopted[2] = t0 if adopted[2] is None else min(adopted[2], t0)
                        adopted[3] = t1 if adopted[3] is None else max(adopted[3], t1)
                elif stack:
                    stack[-1][1] += incl

        traced.__wrapped__ = fn
        return traced

    def report(self) -> dict:
        """Merged statistics: {"spans": {name: {...}}, "edges": [[parent, child, calls], ...]}."""
        spans: dict[str, dict] = {}
        edges: Counter = Counter()
        with self._lock:
            per_thread = list(self._per_thread)
        for stats, thread_edges in per_thread:
            edges.update(thread_edges)
            for name, s in stats.items():
                merged = spans.setdefault(name, dict(_EMPTY_SPAN))
                merged["calls"] += s.calls
                merged["incl_s"] += s.incl_ns / 1e9
                merged["self_s"] += s.self_ns / 1e9
                merged["cpu_s"] += s.cpu_ns / 1e9
                merged["items"] += s.items
                merged["first_ns"] = s.first_ns if merged["first_ns"] is None else min(merged["first_ns"], s.first_ns)
                merged["last_ns"] = s.last_ns if merged["last_ns"] is None else max(merged["last_ns"], s.last_ns)
        return {
            "spans": spans,
            "edges": [[parent, child, calls] for (parent, child), calls in sorted(edges.items(), key=str)],
        }


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS function and rebind each name that refers to it.

    Modules are resolved with importlib: ``weillab.classify`` as an
    attribute is the function, since the package re-exports it over the
    submodule.  A target missing from the package raises LookupError:
    its span would read 0 and pass for a gain, so a renamed function
    must be renamed in TARGETS too.
    """
    for module_name, _ in TARGETS.values():
        importlib.import_module(module_name)
    modules = [m for n, m in sorted(sys.modules.items()) if n == "weillab" or n.startswith("weillab.")]
    for name, (module_name, attr) in TARGETS.items():
        original = getattr(importlib.import_module(module_name), attr, None)
        if original is None:
            raise LookupError(f"trace: {module_name}.{attr} not found; update span {name} in bench/tracer.py")
        wrapped = tracer.wrap(name, original)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapped)


def cache_hit_ratio(fn) -> float:
    info = fn.cache_info()
    lookups = info.hits + info.misses
    return info.hits / lookups if lookups else 0.0


# spans a traced run must enter, by worker mode; a span that moved out of the
# traced path (renamed caller, process pool, streaming rewrite) would read 0
_ENTERED_BY_ALL = (
    "records.build_record",
    "classify.prime_divisors_all_1_mod_3",
    "core.factorize",
    "core.squarefree_part",
    "core.is_irreducible_over_Q",
    "core.make_weil_quartic",
    "two_adic.two_adic_data",
    "verdict.genus3_verdict",
    "verdict.curve_shape_constraints",
)
MUST_ENTER = {
    "cli": _ENTERED_BY_ALL
    + ("cli.enumerate", "cli.prime_powers_in_range", "records.records_for_q", "records.csv_row", "classify.enumerate_classes"),
    "stream": _ENTERED_BY_ALL + ("classify.classify", "core.parse_label", "bounds.non_pp_bounds", "records.to_json_line"),
}


def unentered(report: dict, mode: str) -> list[str]:
    """The spans of MUST_ENTER[mode] that the traced run never called."""
    return [name for name in MUST_ENTER[mode] if report["spans"].get(name, _EMPTY_SPAN)["calls"] == 0]


def layer_metrics(report: dict, jobs: int, overhead_s: float) -> dict[str, float]:
    """Per-layer metric values from one traced run.

    A span the workload never enters reads 0; ``unentered`` reports the
    spans it should have entered.  ``jobs`` is the pool
    size of an enumeration run; ``overhead_s`` is traced minus untraced
    time of the same input.
    """
    spans = report["spans"]

    def span(name: str) -> dict:
        return spans.get(name, _EMPTY_SPAN)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    records = span("records.build_record")["calls"]
    enum_calls = span("classify.enumerate_classes")
    # candidates examined: each a whose b = a^2 - q enumerate_classes trial-divides
    # itself, plus the three family B patterns of each q
    a_values = sum(
        calls
        for parent, child, calls in report["edges"]
        if (parent, child) == ("classify.enumerate_classes", "classify.prime_divisors_all_1_mod_3")
    )
    candidates = a_values + 3 * enum_calls["calls"]
    pool = span("records.records_for_q")
    pool_wall_s = (pool["last_ns"] - pool["first_ns"]) / 1e9 if pool["calls"] else 0.0
    values = {
        "records.build_record.calls": records,
        "records.build_record.self_s": span("records.build_record")["self_s"],
        "core.factorize.per_record": ratio(span("core.factorize")["calls"], records),
        "core.squarefree_part.per_record": ratio(span("core.squarefree_part")["calls"], records),
        "core.is_irreducible_over_Q.per_record": ratio(span("core.is_irreducible_over_Q")["calls"], records),
        "two_adic.two_adic_data.s": span("two_adic.two_adic_data")["incl_s"],
        "verdict.genus3_verdict.s": span("verdict.genus3_verdict")["incl_s"],
        "verdict.curve_shape_constraints.s": span("verdict.curve_shape_constraints")["incl_s"],
        "classify.enumerate_classes.self_s": enum_calls["self_s"],
        "classify.prime_divisors_all_1_mod_3.calls": span("classify.prime_divisors_all_1_mod_3")["calls"],
        "classify.candidate_yield": ratio(enum_calls["items"], candidates),
        "cli.prime_powers_in_range.s": span("cli.prime_powers_in_range")["incl_s"],
        "records.csv_row.s": span("records.csv_row")["incl_s"],
        "cli.enumerate.self_s": span("cli.enumerate")["self_s"],
        "cli.pool_efficiency": ratio(pool["cpu_s"], jobs * pool_wall_s),
        "core.prime_power_decomposition.hit_ratio": report["prime_power_hit_ratio"],
        "core.parse_label.s": span("core.parse_label")["incl_s"],
        "core.make_weil_quartic.s": span("core.make_weil_quartic")["incl_s"],
        "bounds.non_pp_bounds.s": span("bounds.non_pp_bounds")["incl_s"],
        "records.to_json_line.s": span("records.to_json_line")["incl_s"],
        "trace.overhead_s": overhead_s,
    }
    return {name: float(value) for name, value in values.items()}
