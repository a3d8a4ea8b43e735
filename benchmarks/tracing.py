"""Per-layer tracing for the benchmark's traced run.

The tracer wraps each layer's public entry points from outside the
package: it rebinds the function's name in every ``taylormeasure`` module
that holds it (so calls between modules are seen too) and the method on
its class. Nothing under ``src/`` changes, and ``uninstall`` puts every
original back.

Calls into ``measure`` through ``cli`` become spans kept in memory: name,
layer, start, end, parent span and the id of the benchmark call that
caused them. The kernel boundaries (``_term_and_err``, ``term``,
``plan_truncation``, ``tail_bound``) run once per term or per plan, so
they only add to a count and a total time; the time of the outermost
kernel call is charged to the innermost open span as child time, so a
layer's self time is its span minus child spans minus kernel time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from pathlib import Path
from typing import Any, Callable

LAYERS = {
    "measure": ("taylormeasure.measure", [
        "evaluate", "total_variation", "linear_combination",
        "JordanPair.positive", "JordanPair.negative"]),
    "geometry": ("taylormeasure.geometry", ["inner_product", "norm", "distance"]),
    "probability": ("taylormeasure.probability", [
        "normalizer", "from_pmf", "PowerSeriesPmf.__init__",
        "_IncrementalPmf.cdf", "_IncrementalPmf.quantile",
        "_IncrementalPmf.set_probability", "_IncrementalPmf.cumulative_table"]),
    "analytic": ("taylormeasure.analytic", [
        "eval_rep", "multiply", "power", "linear_combine", "recenter",
        "sup_distance_on_grid", "lp_norm_on_interval"]),
    "montecarlo": ("taylormeasure.montecarlo", [
        "estimate_measure", "estimate_normalizer_poisson", "sample_pmf"]),
    "stochastic": ("taylormeasure.stochastic", [
        "sample_stm_batch", "simulate_random_walk_batch", "simulate_brownian_batch"]),
    "serialize": ("taylormeasure.serialize", [
        "parse_measure", "parse_set", "parse_pmf_inputs", "parse_function", "parse_stm_spec"]),
}
KERNEL = ("taylormeasure.kernel", ["_term_and_err", "term", "plan_truncation", "tail_bound"])

# span record fields
ID, PARENT, CALL, LAYER, NAME, T0, T1, CHILD, KNS, TERMS, PLANS, ATTRS = range(12)


def _attrs(name: str, fn: Callable) -> Callable | None:
    """Work counts read from a call's arguments or result, per entry point."""
    sig = inspect.signature(fn)

    def args(a, k):
        b = sig.bind(*a, **k)
        b.apply_defaults()
        return b.arguments

    if name == "estimate_measure":
        def f(a, k, out):
            x = args(a, k)
            draws = x["L1"] + x["L2"]
            return {"draws": draws * (2 if x["estimate_normalizers"] else 1), "threads": x["threads"]}
    elif name == "estimate_normalizer_poisson":
        def f(a, k, out):
            x = args(a, k)
            return {"draws": x["L"], "threads": x["threads"]}
    elif name == "sample_pmf":
        def f(a, k, out):
            return {"draws": args(a, k)["L"]}
    elif name == "sample_stm_batch":
        def f(a, k, out):
            x = args(a, k)
            spec = x["spec"]
            width = getattr(spec, "t", None) or getattr(spec, "n", None)
            if width is None:
                B, plan = x["B"], x["truncation"]
                width = len(B.elements) if B.is_finite else (plan.last_index + 1 if plan else 1)
            return {"steps": x["R"] * width}
    elif name.startswith("simulate_"):
        def f(a, k, out):
            return {"steps": int(out.size)}
    elif name.endswith("cumulative_table"):
        def f(a, k, out):
            return {"table_len": len(out[0])}
    else:
        return None
    return f


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.kernel: dict[str, list[int]] = {n: [0, 0] for n in KERNEL[1]}
        self.kdepth = 0
        self.call = -1
        self._next = 0
        self._saved: list[tuple[Any, str, Any, Any]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, layer: str, name: str, fn: Callable) -> Callable:
        attrs = _attrs(name.rsplit(".", 1)[-1], fn)
        tracer = self
        counts = self.kernel

        @functools.wraps(fn)
        def wrapper(*a, **k):
            stack = tracer.stack
            parent = stack[-1][ID] if stack else -1
            tracer._next += 1
            rec = [tracer._next, parent, tracer.call, layer, name, 0, 0, 0, 0,
                   counts["_term_and_err"][0], counts["plan_truncation"][0], None]
            stack.append(rec)
            out = None
            rec[T0] = time.perf_counter_ns()
            try:
                out = fn(*a, **k)
                return out
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                rec[T1] = t1
                rec[TERMS] = counts["_term_and_err"][0] - rec[TERMS]
                rec[PLANS] = counts["plan_truncation"][0] - rec[PLANS]
                if stack:
                    stack[-1][CHILD] += t1 - rec[T0]
                if attrs is not None and out is not None:
                    rec[ATTRS] = attrs(a, k, out)
                tracer.spans.append(rec)

        return wrapper

    def _count(self, name: str, fn: Callable) -> Callable:
        tracer = self
        slot = self.kernel[name]

        @functools.wraps(fn)
        def wrapper(*a, **k):
            slot[0] += 1
            if tracer.kdepth:
                return fn(*a, **k)
            tracer.kdepth = 1
            t0 = time.perf_counter_ns()
            try:
                return fn(*a, **k)
            finally:
                dt = time.perf_counter_ns() - t0
                tracer.kdepth = 0
                slot[1] += dt
                if tracer.stack:
                    tracer.stack[-1][KNS] += dt

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def _bindings(self, module_name: str, attr: str, wrap: Callable[[Callable], Callable]):
        """(owner, name, original, wrapper) for every place that holds the entry point."""
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(importlib.import_module(module_name), cls_name)
            orig = cls.__dict__[meth]
            return [(cls, meth, orig, wrap(orig))]
        orig = getattr(importlib.import_module(module_name), attr)
        wrapped = wrap(orig)
        return [(mod, key, orig, wrapped)
                for name, mod in list(sys.modules.items())
                if name == "taylormeasure" or name.startswith("taylormeasure.")
                for key, val in list(vars(mod).items()) if val is orig]

    def install(self) -> None:
        """Rebind every entry point to its wrapper (wrappers are built once)."""
        if not self._saved:
            for layer, (module_name, attrs) in LAYERS.items():
                for attr in attrs:
                    self._saved += self._bindings(
                        module_name, attr, lambda f, l=layer, a=attr: self._span(l, a, f))
            module_name, attrs = KERNEL
            for attr in attrs:
                self._saved += self._bindings(module_name, attr, lambda f, a=attr: self._count(a, f))
        for owner, key, _, wrapped in self._saved:
            setattr(owner, key, wrapped)

    def uninstall(self) -> None:
        for owner, key, orig, _ in self._saved:
            setattr(owner, key, orig)

    def record(self, layer: str, name: str, t0: int, t1: int) -> None:
        """Add a span measured by the caller (a CLI process, a parse pass)."""
        self._next += 1
        parent = self.stack[-1][ID] if self.stack else -1
        self.spans.append([self._next, parent, self.call, layer, name, t0, t1, 0, 0, 0, 0, None])

    # -- results ----------------------------------------------------------

    def write(self, path: Path) -> None:
        """One JSON array per span: id, parent, call, layer, name, start, end (ns)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(s[:T1 + 1] + ([s[ATTRS]] if s[ATTRS] else [])) + "\n")

    def layer_metrics(self, calls: int) -> dict[str, float]:
        """The per-layer metrics; ``calls`` is the number of traced benchmark calls."""
        out: dict[str, float] = {}
        by_layer: dict[str, list[list]] = {layer: [] for layer in [*LAYERS, "cli"]}
        for s in self.spans:
            by_layer.setdefault(s[LAYER], []).append(s)

        def self_s(spans):
            return sum(s[T1] - s[T0] - s[CHILD] - s[KNS] for s in spans) / 1e9

        def dur(spans):
            return sum(s[T1] - s[T0] for s in spans) / 1e9

        k = self.kernel
        out["kernel.terms"] = k["_term_and_err"][0]
        out["kernel.term_s"] = (k["_term_and_err"][1] + k["term"][1]) / 1e9
        out["kernel.log_terms"] = k["term"][0]
        out["kernel.plans"] = k["plan_truncation"][0]
        out["kernel.tail_bounds"] = k["tail_bound"][0]
        out["kernel.plan_s"] = (k["plan_truncation"][1] + k["tail_bound"][1]) / 1e9
        out["kernel.terms_per_op"] = k["_term_and_err"][0] / calls if calls else 0.0

        for layer in ("measure", "geometry", "probability", "analytic", "montecarlo", "stochastic"):
            out[f"{layer}.calls"] = len(by_layer[layer])
            out[f"{layer}.self_s"] = self_s(by_layer[layer])

        tables = [s[ATTRS]["table_len"] for s in by_layer["probability"] if s[ATTRS]]
        out["probability.table_len"] = sum(tables) / len(tables) if tables else 0.0

        grids = {s[ID]: s for s in by_layer["analytic"]
                 if s[NAME] in ("sup_distance_on_grid", "lp_norm_on_interval")}
        points = sum(1 for s in by_layer["analytic"] if s[NAME] == "eval_rep" and s[PARENT] in grids)
        out["analytic.plans_per_point"] = sum(s[PLANS] for s in grids.values()) / points if points else 0.0
        out["analytic.terms_per_point"] = sum(s[TERMS] for s in grids.values()) / points if points else 0.0

        mc = [s for s in by_layer["montecarlo"] if s[ATTRS]]
        draws = sum(s[ATTRS]["draws"] for s in mc)
        out["montecarlo.draws"] = draws
        out["montecarlo.draws_per_s"] = draws / dur(mc) if mc else 0.0
        mc_ids = {s[ID] for s in by_layer["montecarlo"]}
        out["montecarlo.table_s"] = dur([s for s in by_layer["probability"]
                                         if s[NAME].endswith("cumulative_table") and s[PARENT] in mc_ids])
        out["montecarlo.thread_ratio"] = _thread_ratio(mc)

        st = [s for s in by_layer["stochastic"] if s[ATTRS]]
        steps = sum(s[ATTRS]["steps"] for s in st)
        out["stochastic.steps"] = steps
        out["stochastic.steps_per_s"] = steps / dur(st) if st else 0.0
        return out


def _thread_ratio(mc_spans) -> float:
    """Wall at threads=2 over wall at threads=1, over calls that ran both ways."""
    walls: dict[tuple, dict[int, list[int]]] = {}
    for s in mc_spans:
        threads = s[ATTRS].get("threads")
        if threads is None:
            continue
        walls.setdefault((s[NAME], s[ATTRS]["draws"]), {}).setdefault(threads, []).append(s[T1] - s[T0])
    one = two = 0.0
    for by_threads in walls.values():
        if 1 in by_threads and 2 in by_threads:
            one += sum(by_threads[1]) / len(by_threads[1])
            two += sum(by_threads[2]) / len(by_threads[2])
    return two / one if one else 0.0
