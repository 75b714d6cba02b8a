"""Traced CLI run and its per-layer summary.

Run as a script, this is `mocklab.cli` with spans:

    python3 perfbench/tracer.py SPANS.json -- verify --suite mf5 ...

Every public function of the layers below is wrapped by rebinding it in
each module namespace that holds it (the defining module, the modules that
imported it, and the package). A span records name, parent span, start and
end; spans stay in memory and are written to SPANS.json when the command
returns. `integrate_ray` spans also keep `nodes_used` and `scheme` of their
QuadratureResult, and `run_suite` spans the entry count and the largest
residual/budget ratio of the report.

Imported by run.py, it turns the spans of one traced iteration into the
per-layer metrics.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

LAYERS = ("cli", "identities", "mordell", "qseries", "modpoint")

# identities functions that produce check entries
CHECK_FUNCS = ("group_relations", "wronskian_periodicity")
INTEGRALS = ("l_integral", "w2_integral", "w3_integral")


def is_check(name: str) -> bool:
    return (name.startswith("identities.check_")
            or name in ["identities." + c for c in CHECK_FUNCS])


def _observe_quadrature(res):
    return {"nodes": res.nodes_used, "scheme": res.scheme}


def _observe_suite(rep):
    entries = [e for r in rep.identities for e in r.entries]
    ratios = [float(e.abs_residual / e.budget) for e in entries if e.budget > 0]
    return {"entries": len(entries), "budget_ratio_max": max(ratios, default=0.0)}


OBSERVERS = {
    "mordell.integrate_ray": _observe_quadrature,
    "identities.run_suite": _observe_suite,
}


def install(spans: list):
    """Wrap the layer functions; returns the wrapped `mocklab.cli.main`."""
    import mocklab

    modules = {name: importlib.import_module("mocklab." + name) for name in LAYERS}
    namespaces = list(modules.values()) + [mocklab]
    stack: list = []

    def wrap(qualname, fn):
        observe = OBSERVERS.get(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [qualname, stack[-1] if stack else -1, time.perf_counter(), None, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                out = fn(*args, **kwargs)
                if observe is not None:
                    span[4] = observe(out)
                return out
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return traced

    for layer, mod in modules.items():
        for name, fn in list(vars(mod).items()):
            if (name.startswith("_") or not inspect.isfunction(fn)
                    or fn.__module__ != mod.__name__):
                continue
            traced = wrap("%s.%s" % (layer, name), fn)
            for ns in namespaces:
                if getattr(ns, name, None) is fn:
                    setattr(ns, name, traced)
    return modules["cli"].main


def read_spans(files) -> list:
    """The spans of several traced calls in one list (missing files add none)."""
    spans: list = []
    for f in files:
        part = json.loads(f.read_text()) if f.is_file() else []
        base = len(spans)  # parents index the file's own list
        spans += [[n, p + base if p >= 0 else -1, s, e, x] for n, p, s, e, x in part]
    return spans


def summarize(spans: list) -> dict:
    """Per function: calls, total (inclusive) and self seconds; plus counters.

    The counter `checks` counts the checks `run_suite` makes, not the checks
    those call in turn (`check_wronskian_suite` calls 51 pairs of them)."""
    child = [0.0] * len(spans)
    for name, parent, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    funcs = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    counters = defaultdict(int)
    for i, (name, parent, start, end, extra) in enumerate(spans):
        f = funcs[name]
        f["calls"] += 1
        f["total_s"] += end - start
        f["self_s"] += end - start - child[i]
        if (is_check(name) and parent >= 0
                and spans[parent][0] == "identities.run_suite"):
            counters["checks"] += 1
        if extra and "nodes" in extra:
            # nodes_used as the program reports it; for gauss_patch that is
            # two per integrand evaluation (mordell.integrate_ray counts a
            # Gauss node both in its panel loop and in the integrand wrapper)
            counters["nodes." + extra["scheme"]] += extra["nodes"]
        if extra and "entries" in extra:
            counters["entries"] += extra["entries"]
            counters["budget_ratio_max"] = max(counters["budget_ratio_max"],
                                               extra["budget_ratio_max"])
    return {"funcs": dict(funcs), "counters": dict(counters)}


def _sum(funcs, names, key):
    return sum(funcs.get(n, {}).get(key, 0) for n in names)


def layer_metrics(summary: dict, traced_wall: float, untraced_wall: float) -> dict:
    """The per-layer metrics of BENCHMARK.json (without units)."""
    funcs, counters = summary["funcs"], summary["counters"]

    def calls(n):
        return funcs.get(n, {}).get("calls", 0)

    def self_s(n):
        return funcs.get(n, {}).get("self_s", 0.0)

    layer_self = {layer: sum(f["self_s"] for n, f in funcs.items()
                             if n.split(".")[0] == layer)
                  for layer in LAYERS}
    checks = [n for n in funcs if is_check(n)]
    tanh = counters.get("nodes.tanh_sinh", 0)
    gauss = counters.get("nodes.gauss_patch", 0)
    ray_calls = calls("mordell.integrate_ray")
    integral_calls = _sum(funcs, ["mordell." + n for n in INTEGRALS], "calls")
    m = {
        "qseries.eval_mock.calls": calls("qseries.eval_mock"),
        "qseries.eval_mock.self_s": self_s("qseries.eval_mock"),
        "qseries.pochhammer.calls": calls("qseries.pochhammer"),
        "qseries.pochhammer.self_s": self_s("qseries.pochhammer"),
        "qseries.unary_x.self_s": self_s("qseries.unary_x"),
        "qseries.theta.self_s": self_s("qseries.theta"),
        "qseries.share": layer_self["qseries"] / traced_wall,
        "modpoint.power_from_alpha.calls": calls("modpoint.power_from_alpha"),
        "modpoint.power_from_alpha.self_s": self_s("modpoint.power_from_alpha"),
        "mordell.integrate_ray.calls": ray_calls,
        "mordell.integrate_ray.self_s": self_s("mordell.integrate_ray"),
        "mordell.integrate_ray.us_per_node":
            (1e6 * funcs["mordell.integrate_ray"]["total_s"] / (tanh + gauss)
             if tanh + gauss else 0.0),
        "mordell.integrate_ray.tanh_sinh.nodes": tanh,
        "mordell.integrate_ray.gauss_patch.nodes": gauss,
        "mordell.integrals.calls": integral_calls,
        "mordell.value_cache.hit_ratio":
            1 - ray_calls / integral_calls if integral_calls else 0.0,
        "mordell.lateral_l_vector.calls": calls("mordell.lateral_l_vector"),
        "mordell.stokes_decompose.self_s": self_s("mordell.stokes_decompose"),
        "mordell.share": layer_self["mordell"] / traced_wall,
        "identities.checks.calls": counters.get("checks", 0),
        "identities.checks.self_s": _sum(funcs, checks, "self_s"),
        "identities.entries": counters.get("entries", 0),
        "identities.run_suite.self_s": self_s("identities.run_suite"),
        "identities.suite_report_to_json.s":
            funcs.get("identities.suite_report_to_json", {}).get("total_s", 0.0),
        "identities.budget_ratio_max": counters.get("budget_ratio_max", 0.0),
        "cli.main.self_s": self_s("cli.main"),
    }
    for layer in LAYERS:
        m[layer + ".self_s"] = layer_self[layer]
    m["trace.wall_s"] = traced_wall
    m["trace.remainder_s"] = traced_wall - sum(layer_self.values())
    m["trace.overhead_frac"] = traced_wall / untraced_wall - 1
    return m


def main(argv) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print("usage: tracer.py SPANS.json -- <mocklab arguments>", file=sys.stderr)
        return 2
    spans: list = []
    cli_main = install(spans)
    try:
        return cli_main(argv[2:])
    finally:
        with open(argv[0], "w") as fh:
            json.dump(spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
