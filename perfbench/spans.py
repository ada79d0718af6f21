"""Wrapper-based spans around the package's public functions.

`Tracer.install` replaces each public function of the layer modules at
every name it is bound to in `flunowcast.*` (selection and report import
`in_sample_objective` by name), plus `WeekStamp.add`, with a wrapper
that records one span per call: which function, its parent span, start
and end. Spans are kept in flat arrays in memory and written out at the
end. `layer_metrics` turns them into the per-layer metrics.

A span's self time is its duration minus the durations of its child
spans; the package is single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import math
import sys
from array import array
from collections import defaultdict
from pathlib import Path
from time import perf_counter

LAYERS = ("cli", "ingest", "synth", "timeseries", "stats", "regress", "selection", "report")

PARSE = ("ingest.parse_trends_csv", "ingest.parse_cases_csv", "ingest.load_lexicon")
WRITE = ("ingest.write_trends_csv", "ingest.write_cases_csv", "ingest.write_lexicon_csv")
ALIGN = ("timeseries.align", "timeseries.shift_pair", "timeseries.shift_pair_stamped")
TABLES = ("report.table_overall_annual", "report.table_shift_scan",
          "report.table_model_by_shift", "report.shifted_cells")
ADD = "timeseries.WeekStamp.add"
P_VALUE = "stats.student_t_two_sided_p"
T_CRITICAL = "stats.t_critical"
OBJECTIVE = "regress.in_sample_objective"
GREEDY = "selection.greedy_select"
ROOT = "cli.run"


# ---- observers: counts that need a call's arguments or result --------------

def _bytes_read(counters, args, kwargs, result):
    counters["ingest.bytes_read"] += len(args[0] if args else kwargs["data"])


def _objective_defined(counters, args, kwargs, result):
    counters["regress.objective_defined"] += result is not None


def _rolling_refits(counters, args, kwargs, result):
    # the warmup weeks lead the series as NaN; every later week is one refit
    # (the first refit must succeed, so later singular windows cannot extend
    # that NaN run)
    values = result.values
    warm = next((i for i, v in enumerate(values) if not math.isnan(v)), len(values))
    counters["regress.rolling_refits"] += len(values) - warm


def _chosen(counters, args, kwargs, result):
    counters["selection.chosen"] += len(result.chosen_labels)


OBSERVERS = {
    **{name: _bytes_read for name in PARSE},
    OBJECTIVE: _objective_defined,
    "regress.rolling_weekly_fit": _rolling_refits,
    GREEDY: _chosen,
}


class Tracer:
    """Spans of one traced pass, in flat arrays indexed by span number."""

    def __init__(self):
        self.names: list[str] = []  # function id -> "<layer>.<qualname>"
        self.fn = array("i")
        self.parent = array("i")  # -1 for a root span
        self.start = array("d")
        self.end = array("d")
        self.counters: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        """Forget the spans of the last pass; call before `install`."""
        self.names.clear()
        for arr in (self.fn, self.parent, self.start, self.end):
            del arr[:]
        self.counters.clear()

    def wrap(self, func, name: str):
        fid = len(self.names)
        self.names.append(name)
        observe = OBSERVERS.get(name)
        fn, parent, start, end = self.fn, self.parent, self.start, self.end
        stack, counters = self._stack, self.counters

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(fn)
            fn.append(fid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[idx] = t0
                end[idx] = t1
            if observe is not None:
                observe(counters, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every public layer function at each of its bindings."""
        modules = {layer: importlib.import_module(f"flunowcast.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrapped[id(obj)] = self.wrap(obj, f"{layer}.{obj.__qualname__}")
        bindings = [m for n, m in sys.modules.items()
                    if n == "flunowcast" or n.startswith("flunowcast.")]
        for mod in bindings:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])
        week = modules["timeseries"].WeekStamp
        self._restore.append((week, "add", week.add))
        week.add = self.wrap(week.add, ADD)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._restore):
            setattr(owner, attr, obj)
        self._restore.clear()

    def span_names(self) -> list[str]:
        return [self.names[f] for f in self.fn]

    def write(self, path: Path) -> None:
        """Write the spans as one .npz: a row per span, function names apart."""
        import numpy as np  # here, so that importing this module leaves run.py numpy-free

        np.savez(path, function=np.frombuffer(self.fn, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start=np.frombuffer(self.start), end=np.frombuffer(self.end),
                 names=np.array(self.names), counters=json.dumps(dict(self.counters)))


# ---- span arithmetic ------------------------------------------------------

def self_times(parent, start, end) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own


def inside(parent, names: list[str], ancestor: str) -> list[bool]:
    """For each span: is some ancestor of it a span of `ancestor`?

    Parents are recorded before their children, so one forward pass
    suffices.
    """
    under = [False] * len(parent)
    for i, p in enumerate(parent):
        under[i] = p >= 0 and (names[p] == ancestor or under[p])
    return under


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(names: list[str], parent, start, end, counters) -> dict[str, float]:
    """The per-layer metrics of one traced pass.

    `names[i]` is the function of span i. Times are self times unless a
    metric says otherwise; `stats.p_value_s` and `stats.t_critical_s`
    are inclusive, since the incomplete beta and the bisection's p-values
    are what those calls cost.
    """
    own = self_times(parent, start, end)
    calls: dict[str, int] = defaultdict(int)
    self_s: dict[str, float] = defaultdict(float)
    incl_s: dict[str, float] = defaultdict(float)
    layer_s: dict[str, float] = dict.fromkeys(LAYERS, 0.0)
    for i, name in enumerate(names):
        calls[name] += 1
        self_s[name] += own[i]
        incl_s[name] += end[i] - start[i]
        layer_s[name.split(".", 1)[0]] += own[i]

    def total(group):
        return sum(self_s[n] for n in group)

    under_t = inside(parent, names, T_CRITICAL)
    under_greedy = inside(parent, names, GREEDY)
    p_calls = calls[P_VALUE]
    p_useful = sum(1 for i, n in enumerate(names) if n == P_VALUE and not under_t[i])
    m = {
        "cli.glue_s": layer_s["cli"],
        "ingest.parse_s": total(PARSE),
        "ingest.parse_calls": sum(calls[n] for n in PARSE),
        "ingest.bytes_read": counters.get("ingest.bytes_read", 0.0),
        "ingest.write_s": total(WRITE),
        "synth.generate_s": self_s["synth.generate"],
        "timeseries.scale_s": self_s["timeseries.scale_0_100"],
        "timeseries.weekstamp_add_calls": calls[ADD],
        "timeseries.weekstamp_add_s": self_s[ADD],
        "timeseries.align_s": total(ALIGN),
        "stats.pearson_calls": calls["stats.pearson"],
        "stats.pearson_s": self_s["stats.pearson"],
        "stats.p_value_calls": p_calls,
        "stats.p_value_s": incl_s[P_VALUE],
        "stats.t_critical_calls": calls[T_CRITICAL],
        "stats.t_critical_s": incl_s[T_CRITICAL],
        "stats.p_value_useful_ratio": _ratio(p_useful, p_calls),
        "regress.fit_calls": calls["regress.fit_ols"],
        "regress.fit_s": self_s["regress.fit_ols"],
        "regress.objective_calls": calls[OBJECTIVE],
        "regress.objective_defined_ratio": _ratio(
            counters.get("regress.objective_defined", 0.0), calls[OBJECTIVE]),
        "regress.rolling_s": self_s["regress.rolling_weekly_fit"],
        "regress.rolling_refits": counters.get("regress.rolling_refits", 0.0),
        "regress.evaluate_s": self_s["regress.evaluate"],
        "regress.predict_s": self_s["regress.predict"],
        "selection.greedy_s": self_s[GREEDY],
        "selection.objective_evals": sum(
            1 for i, n in enumerate(names) if n == OBJECTIVE and under_greedy[i]),
        "selection.chosen": counters.get("selection.chosen", 0.0),
        "report.table_s": total(TABLES),
        "report.figure_s": self_s["report.figure_data"],
    }
    for layer in LAYERS[1:]:
        m[f"{layer}.self_s"] = layer_s[layer]
    m["trace.spans"] = len(names)
    m["trace.total_s"] = sum(end[i] - start[i] for i, p in enumerate(parent) if p < 0)
    return m


def self_time_balance(metrics: dict[str, float]) -> float:
    """Layer self times plus cli glue, minus the traced total; ~0 when consistent."""
    layers = sum(metrics[f"{layer}.self_s"] for layer in LAYERS[1:])
    return layers + metrics["cli.glue_s"] - metrics["trace.total_s"]
