"""Spans around fracon's public functions, installed from outside the program.

``Tracer.install`` wraps every public module-level function of the six
layers (plus ``FunctionSpec.evaluate_many`` and ``EtaSpec.evaluate_many``)
and rebinds each wrapper in *every* fracon module namespace that holds the
original, so names bound by ``from ... import`` are caught too.  It then
scans those namespaces again and refuses to run if any original is still
reachable.  ``uninstall`` restores every binding, so untraced passes run
the unmodified program.

Spans (id, parent id, case id, name, start, end) are kept in memory and
written out at the end.  Per-pass statistics (calls, inclusive and self
time per function, plus the work counters below) are accumulated as the
spans close, where self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "inequalities", "convexity", "calculus", "expr", "fractal_scalar")
METHODS = (("expr", "FunctionSpec", "evaluate_many"), ("expr", "EtaSpec", "evaluate_many"))

# Wrappers that must fire at least once on each workload.
EXPECTED = {
    "lattice": ("cli.main", "cli.build_parser", "convexity.certify_gsc",
                "convexity.check_eta_necessary", "expr.parse", "expr.evaluate_raw",
                "expr.FunctionSpec.evaluate_many", "expr.EtaSpec.evaluate_many"),
    "quadrature": ("cli.main", "cli.build_parser", "inequalities.hh_terms",
                   "inequalities.fejer_terms", "convexity.estimate_eta_sup",
                   "convexity.check_symmetry", "calculus.lf_integral",
                   "calculus.rl_integrate", "calculus.lf_derivative", "expr.parse",
                   "expr.evaluate_raw", "expr.FunctionSpec.evaluate_many",
                   "expr.EtaSpec.evaluate_many", "fractal_scalar.gamma"),
    "sweep": ("cli.main", "cli.build_parser", "inequalities.hh_terms",
              "convexity.certify_gsc", "convexity.check_eta_necessary",
              "convexity.estimate_eta_sup", "calculus.lf_integral", "calculus.rl_integrate",
              "expr.parse", "expr.evaluate_raw", "expr.FunctionSpec.evaluate_many",
              "expr.EtaSpec.evaluate_many", "fractal_scalar.gamma"),
}


def _public_functions(module):
    for name, obj in vars(module).items():
        if (not name.startswith("_") and inspect.isfunction(obj)
                and obj.__module__ == module.__name__):
            yield name, obj


class Tracer:
    def __init__(self, package) -> None:
        self.package = package
        self.spans: list[tuple] = []
        self.fired: dict[str, int] = defaultdict(int)
        self.case_id = -1
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []
        self._targets = self._find_targets()
        self.begin_pass()

    # -- installation ------------------------------------------------------

    def _find_targets(self) -> list[tuple[str, object, str, object]]:
        """(span name, owner, attribute, original) for every traced callable."""
        targets = []
        for layer in LAYERS:
            module = sys.modules[f"{self.package.__name__}.{layer}"]
            for name, fn in _public_functions(module):
                targets.append((f"{layer}.{name}", module, name, fn))
        for layer, cls_name, meth in METHODS:
            cls = getattr(sys.modules[f"{self.package.__name__}.{layer}"], cls_name)
            targets.append((f"{layer}.{cls_name}.{meth}", cls, meth, vars(cls)[meth]))
        return targets

    def _namespaces(self) -> list[dict]:
        prefix = self.package.__name__
        return [vars(m) for name, m in sorted(sys.modules.items())
                if m is not None and (name == prefix or name.startswith(prefix + "."))]

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        originals = {}
        for span_name, owner, attr, fn in self._targets:
            originals[id(fn)] = (fn, self._wrap(span_name, fn))
        for ns in self._namespaces():
            for attr, obj in list(ns.items()):
                if id(obj) in originals and originals[id(obj)][0] is obj:
                    self._patches.append((ns, attr, obj))
                    ns[attr] = originals[id(obj)][1]
        for span_name, owner, attr, fn in self._targets:
            if isinstance(owner, type):
                self._patches.append((owner, attr, fn))
                setattr(owner, attr, originals[id(fn)][1])
        leaks = [f"{ns.get('__name__')}.{attr}" for ns in self._namespaces()
                 for attr, obj in ns.items() if id(obj) in originals
                 and originals[id(obj)][0] is obj]
        if leaks:
            self.uninstall()
            raise RuntimeError(f"untraced bindings remain: {leaks}")

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    # -- spans -------------------------------------------------------------

    def begin_pass(self) -> None:
        self.stats: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.entry: dict[str, float] = defaultdict(float)
        self.counters: dict[str, int] = defaultdict(int)

    def _wrap(self, name: str, fn):
        hook = _HOOKS.get(name)
        sig = inspect.signature(fn) if name in _ARG_HOOKS else None
        clock = time.perf_counter
        stack = self._stack
        is_main = name == "cli.main"
        layer = name.split(".")[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # A frame is [child time, span id, is cli.main]; the direct
            # children of cli.main are the layer entry points.
            parent = stack[-1] if stack else None
            self._next_id += 1
            frame = [0.0, self._next_id, is_main]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                rec = self.stats[name]
                rec[0] += 1
                rec[1] += dur
                rec[2] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                    if parent[2] and layer != "cli":
                        self.entry[name] += dur
                self.fired[name] += 1
                self.spans.append((frame[1], parent[1] if parent else 0, self.case_id,
                                   name, t0, t1))
            if hook is not None:
                hook(self.counters, result)
            if sig is not None:
                _ARG_HOOKS[name](self.counters, sig.bind(*args, **kwargs))
            return result

        return wrapper

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("span_id,parent_id,case_id,name,start_s,end_s\n")
            for s in self.spans:
                fh.write(f"{s[0]},{s[1]},{s[2]},{s[3]},{s[4]:.9f},{s[5]:.9f}\n")


def _rl_result(counters, res) -> None:
    counters["rl_evals"] += res.evals
    counters["rl_levels"] += res.levels
    counters["rl_converged"] += bool(res.converged)


def _certify_result(counters, report) -> None:
    counters["lattice_cells"] += report.evaluations


def _eval_result(counters, out) -> None:
    counters["eval_points"] += getattr(out, "size", 1)


def _exact_integral(counters, bound) -> None:
    backend = bound.arguments.get("backend")
    if backend is not None and backend.kind.value == "exact":
        counters["exact_calls"] += 1


def _exact_derivative(counters, bound) -> None:
    mode = bound.arguments.get("mode")
    if mode is None or mode.value == "exact":
        counters["exact_calls"] += 1


_HOOKS = {
    "calculus.rl_integrate": _rl_result,
    "convexity.certify_gsc": _certify_result,
    "expr.evaluate_raw": _eval_result,
}
_ARG_HOOKS = {
    "calculus.lf_integral": _exact_integral,
    "calculus.lf_derivative": _exact_derivative,
}


def _calls(stats, *names) -> int:
    return int(sum(stats[n][0] for n in names if n in stats))


def _incl(stats, *names) -> float:
    return sum(stats[n][1] for n in names if n in stats)


def _self(stats, *names) -> float:
    return sum(stats[n][2] for n in names if n in stats)


def pass_counts(stats, counters) -> dict[str, int]:
    """The machine-independent counts of one traced pass."""
    return {
        "inequalities.hh_calls": _calls(stats, "inequalities.hh_terms"),
        "inequalities.fejer_calls": _calls(stats, "inequalities.fejer_terms"),
        "convexity.certify_calls": _calls(stats, "convexity.certify_gsc"),
        "convexity.lattice_cells": counters["lattice_cells"],
        "calculus.rl_calls": _calls(stats, "calculus.rl_integrate"),
        "calculus.rl_evals": counters["rl_evals"],
        "calculus.rl_levels": counters["rl_levels"],
        "calculus.rl_capped_calls": (_calls(stats, "calculus.rl_integrate")
                                     - counters["rl_converged"]),
        "calculus.exact_calls": counters["exact_calls"],
        "expr.parse_calls": _calls(stats, "expr.parse"),
        "expr.eval_calls": _calls(stats, "expr.evaluate_raw"),
        "expr.eval_points": counters["eval_points"],
        "fractal_scalar.gamma_calls": _calls(stats, "fractal_scalar.gamma"),
    }


def pass_times(stats, entry, n_cases: int, case_s: float) -> dict[str, float]:
    """The time metrics of one traced pass (seconds unless named otherwise)."""
    names = list(stats)
    by_layer = {layer: _self(stats, *[n for n in names if n.split(".")[0] == layer])
                for layer in LAYERS}
    rl_s = _incl(stats, "calculus.rl_integrate")
    certify_s = _incl(stats, "convexity.certify_gsc")
    out = {
        "cli.self_ms_per_case": 1e3 * by_layer["cli"] / n_cases,
        "inequalities.self_s": by_layer["inequalities"],
        "convexity.certify_s": certify_s,
        "convexity.eta_sup_s": _self(stats, "convexity.estimate_eta_sup"),
        "convexity.screen_s": _self(stats, "convexity.check_eta_necessary",
                                    "convexity.check_symmetry"),
        "calculus.rl_s": rl_s,
        "calculus.deriv_s": _self(stats, "calculus.lf_derivative"),
        "expr.parse_s": _self(stats, "expr.parse"),
        "expr.eval_s": _self(stats, "expr.evaluate_raw", "expr.FunctionSpec.evaluate_many",
                             "expr.EtaSpec.evaluate_many"),
        "fractal_scalar.gamma_s": _self(stats, "fractal_scalar.gamma"),
        "convexity.certify_share": certify_s / case_s,
        "calculus.rl_share": rl_s / case_s,
        "trace.max_entry_share": max(entry.values(), default=0.0) / case_s,
    }
    for layer in LAYERS:
        out[f"{layer}.self_share"] = by_layer[layer] / case_s
    return out


def derived(m: dict) -> dict[str, float]:
    """Rates and ratios of one pass's counts and times (0 where a layer idled)."""
    def ratio(num, den):
        return num / den if den else 0.0
    return {
        "convexity.cells_per_s": ratio(m["convexity.lattice_cells"], m["convexity.certify_s"]),
        "calculus.rl_evals_per_s": ratio(m["calculus.rl_evals"], m["calculus.rl_s"]),
        "calculus.rl_converged_frac": ratio(
            m["calculus.rl_calls"] - m["calculus.rl_capped_calls"], m["calculus.rl_calls"]),
        "expr.points_per_call": ratio(m["expr.eval_points"], m["expr.eval_calls"]),
    }


def top_entry(entry) -> str:
    return max(entry, key=entry.get) if entry else "-"
