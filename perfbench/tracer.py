"""Span tracing of guidedretrain from outside the package.

`Tracer.install()` replaces every public function listed in TARGETS, at each
name a guidedretrain module looks it up under, with a timing wrapper. A
wrapper records one span per call: id, parent id, function, start, end,
thread and a few cheap facts about the arguments (rows, kind, metric).
Spans stay in memory until `Tracer.dump()` writes them.

`layer_metrics()` turns a span file into the per-layer metrics. A function
that the code under test no longer defines, or an argument it no longer
takes, is reported as absent: every metric derived from it is left out and
named in the returned absent list, never reported as zero.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("data", "model", "autodiff", "attack", "metrics", "retrain", "reports", "cli")

# (layer, function): the argument facts each span keeps.
# A fact is ("len", param) for the row count of an array or dataset argument,
# ("is_set", param) for whether an optional argument was passed, ("attr", param,
# name) for an attribute of an argument, or ("value", param).
TARGETS = {
    ("data", "generate_synthetic"): {},
    ("model", "train"): {"rows": ("len", "data"), "epochs": ("attr", "hp", "epochs")},
    ("model", "predict"): {"rows": ("len", "images")},
    ("model", "accuracy"): {"rows": ("len", "data")},
    ("model", "activation_traces"): {"rows": ("len", "images")},
    ("model", "load_model"): {},
    ("autodiff", "forward_eval"): {"rows": ("len", "x"), "labelled": ("is_set", "labels")},
    ("autodiff", "backward_grads"): {},
    ("autodiff", "sgd_step"): {},
    ("attack", "fgsm"): {"rows": ("len", "images")},
    ("attack", "build_augmented_sets"): {},
    ("metrics", "timed_scoring"): {"metric": ("value", "metric")},
    ("metrics", "fit_lsa"): {},
    ("metrics", "fit_dsa"): {},
    ("metrics", "order_inputs"): {},
    ("metrics", "cdist"): {"rows_a": ("len", "XA"), "rows_b": ("len", "XB")},
    ("retrain", "run_experiment"): {"kind": ("value", "kind")},
    ("retrain", "retrain_point"): {},
    ("reports", "prepare_data"): {},
    ("reports", "run_pipeline"): {},
    ("reports", "write_points_csv"): {},
    ("reports", "write_summary_csv"): {},
    ("reports", "write_comparison_csv"): {},
    ("reports", "write_timing_csv"): {},
    ("reports", "write_plot_csvs"): {},
    ("reports", "consistency_problems"): {},
    ("reports", "write_manifest"): {},
    ("cli", "cmd_train"): {},
    ("cli", "cmd_attack"): {},
    ("cli", "cmd_score"): {},
    ("cli", "cmd_retrain"): {},
    ("cli", "cmd_run"): {},
    ("cli", "cmd_report"): {},
}

PACKAGE = "guidedretrain"


def _fact_getter(sig: inspect.Signature, fact):
    """Function (args, kwargs) -> value for one fact, or None when the
    signature no longer has the parameter."""
    kind, param = fact[0], fact[1]
    names = list(sig.parameters)
    if param not in names:
        return None
    index = names.index(param)
    default = sig.parameters[param].default

    def raw(args, kwargs):
        if index < len(args):
            return args[index]
        return kwargs.get(param, None if default is inspect.Parameter.empty else default)

    if kind == "len":
        return lambda a, k: len(raw(a, k))
    if kind == "is_set":
        return lambda a, k: raw(a, k) is not None
    if kind == "attr":
        return lambda a, k: getattr(raw(a, k), fact[2])
    return raw


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.absent: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: list = []  # (module, attribute, original)

    def _wrap(self, fn, name: str, getters: dict):
        spans = self.spans
        ids = self._ids
        local = self._local

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                facts = {key: get(args, kwargs) for key, get in getters.items()}
                spans.append((span_id, parent, name, t0, t1, threading.get_ident(), facts))

        return wrapper

    def install(self) -> None:
        modules = {key: mod for key, mod in sys.modules.items()
                   if key == PACKAGE or key.startswith(PACKAGE + ".")}
        for (layer, func), facts in TARGETS.items():
            name = f"{layer}.{func}"
            home = modules.get(f"{PACKAGE}.{layer}")
            target = getattr(home, func, None) if home is not None else None
            if not callable(target):
                self.absent.append(name)
                continue
            try:
                sig = inspect.signature(target)
            except (TypeError, ValueError):
                sig = inspect.Signature()
            getters = {}
            for key, fact in facts.items():
                getter = _fact_getter(sig, fact)
                if getter is None:
                    self.absent.append(f"{name}({fact[1]})")
                else:
                    getters[key] = getter
            wrapper = self._wrap(target, name, getters)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is target:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, target))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"absent": self.absent, "spans": self.spans}, fh, separators=(",", ":"))


# ------------------------------------------------------------ aggregation


class _Spans:
    """Index over a span list: durations, parents, ancestry and self time."""

    def __init__(self, spans):
        self.rows = [(sid, parent, name, t1 - t0, facts)
                     for sid, parent, name, t0, t1, _thread, facts in spans]
        self.by_id = {row[0]: row for row in self.rows}
        child_time: dict = {}
        for sid, parent, _name, dur, _facts in self.rows:
            if parent:
                child_time[parent] = child_time.get(parent, 0.0) + dur
        self.self_time = {sid: dur - child_time.get(sid, 0.0)
                          for sid, _p, _n, dur, _f in self.rows}

    def named(self, name):
        return [row for row in self.rows if row[2] == name]

    def under(self, row, name) -> bool:
        parent = row[1]
        while parent:
            up = self.by_id.get(parent)
            if up is None:
                return False
            if up[2] == name:
                return True
            parent = up[1]
        return False

    def parent_layer(self, row):
        up = self.by_id.get(row[1])
        return up[2].split(".", 1)[0] if up else None


def _percentile(values, pct: float) -> float:
    """Nearest-rank percentile of a non-empty list."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


# name -> (unit, the traced functions and facts it needs)
# Distributions expand to NAME.p50, NAME.pNN and NAME.n.
DISTRIBUTIONS = {
    "autodiff.forward_train_ms": ("ms", 95, ("autodiff.forward_eval(labels)",)),
    "autodiff.forward_infer_ms": ("ms", 95, ("autodiff.forward_eval(labels)",)),
    "autodiff.backward_ms": ("ms", 95, ("autodiff.backward_grads",)),
    "retrain.point_s": ("s", 85, ("retrain.retrain_point",)),
}


def _needs(name: str, fact: str) -> str:
    """The absent-list entry of one argument a metric reads."""
    return f"{name}({fact})"


def layer_metrics(spans, absent_targets) -> tuple[dict, list[str]]:
    """Per-layer metrics {name: (value, unit)} from a span list, plus the
    names of the metrics left out because what they need is absent."""
    absent_targets = set(absent_targets)
    idx = _Spans(spans)
    out: dict = {}
    missing: list[str] = []

    def put(name, unit, needs, compute):
        if any(n in absent_targets or n.split("(", 1)[0] in absent_targets for n in needs):
            missing.append(name)
            return
        out[name] = (compute(), unit)

    def total(name, keep=lambda row: True):
        return sum(row[3] for row in idx.named(name) if keep(row))

    def count(name, keep=lambda row: True):
        return sum(1 for row in idx.named(name) if keep(row))

    def fact_sum(name, fact, keep=lambda row: True):
        return sum(row[4][fact] for row in idx.named(name) if keep(row))

    def self_time(layer):
        return sum(idx.self_time[row[0]] for row in idx.rows
                   if row[2].split(".", 1)[0] == layer)

    in_point = lambda row: idx.under(row, "retrain.retrain_point")  # noqa: E731
    from_metrics = lambda row: idx.parent_layer(row) == "metrics"  # noqa: E731

    fwd = "autodiff.forward_eval"
    samples = {
        "autodiff.forward_train_ms": [r[3] * 1e3 for r in idx.named(fwd) if r[4].get("labelled")],
        "autodiff.forward_infer_ms": [r[3] * 1e3 for r in idx.named(fwd)
                                      if r[4].get("labelled") is False],
        "autodiff.backward_ms": [r[3] * 1e3 for r in idx.named("autodiff.backward_grads")],
        "retrain.point_s": [r[3] for r in idx.named("retrain.retrain_point")],
    }
    for name, (unit, pct, needs) in DISTRIBUTIONS.items():
        values = samples[name]
        put(f"{name}.p50", unit, needs, lambda: _percentile(values, 50) if values else 0.0)
        put(f"{name}.p{pct}", unit, needs, lambda: _percentile(values, pct) if values else 0.0)
        put(f"{name}.n", "count", needs, lambda: len(values))

    put("autodiff.forward_rows", "rows", (_needs(fwd, "x"),), lambda: fact_sum(fwd, "rows"))
    put("autodiff.sgd_step_s", "s", ("autodiff.sgd_step",), lambda: total("autodiff.sgd_step"))

    put("model.train_steps", "count", ("autodiff.sgd_step", "model.train"),
        lambda: count("autodiff.sgd_step", lambda r: idx.under(r, "model.train")))
    put("model.train_s", "s", ("model.train", "retrain.retrain_point"),
        lambda: total("model.train", lambda r: not in_point(r)))
    put("model.predict_s", "s", ("model.predict",), lambda: total("model.predict"))
    put("model.predict_rows", "rows", (_needs("model.predict", "images"),),
        lambda: fact_sum("model.predict", "rows"))
    put("model.trace_rows", "rows", (_needs("model.activation_traces", "images"),),
        lambda: fact_sum("model.activation_traces", "rows"))

    train_needs = ("model.train", "retrain.retrain_point", _needs("model.train", "data"),
                   _needs("model.train", "hp"))
    put("retrain.train_s", "s", train_needs[:2], lambda: total("model.train", in_point))
    retrain_samples = lambda: sum(r[4]["rows"] * r[4]["epochs"]  # noqa: E731
                                  for r in idx.named("model.train") if in_point(r))
    put("retrain.samples", "count", train_needs, retrain_samples)
    put("retrain.samples_per_s", "1/s", train_needs,
        lambda: retrain_samples() / max(total("model.train", in_point), 1e-9))
    put("retrain.eval_s", "s", ("model.accuracy", "retrain.retrain_point"),
        lambda: total("model.accuracy", in_point))
    put("retrain.eval_rows", "rows", ("model.accuracy", "retrain.retrain_point",
                                      _needs("model.accuracy", "data")),
        lambda: fact_sum("model.accuracy", "rows", in_point))
    put("retrain.points", "count", ("retrain.retrain_point",),
        lambda: count("retrain.retrain_point"))
    for kind in ("C1", "C2", "C3"):
        put(f"retrain.{kind.lower()}_s", "s", ("retrain.run_experiment",
                                               _needs("retrain.run_experiment", "kind")),
            lambda kind=kind: total("retrain.run_experiment", lambda r: r[4]["kind"] == kind))

    scoring = "metrics.timed_scoring"
    for metric in ("NC", "LSA", "DSA", "RANDOM"):
        put(f"metrics.{metric.lower()}_s", "s", (scoring, _needs(scoring, "metric")),
            lambda metric=metric: total(scoring, lambda r: r[4]["metric"] == metric))
    put("metrics.lsa_fit_s", "s", ("metrics.fit_lsa",), lambda: total("metrics.fit_lsa"))
    put("metrics.dsa_fit_s", "s", ("metrics.fit_dsa",), lambda: total("metrics.fit_dsa"))
    put("metrics.cdist_s", "s", ("metrics.cdist",), lambda: total("metrics.cdist"))
    put("metrics.cdist_pairs", "count", ("metrics.cdist", _needs("metrics.cdist", "XA"),
                                         _needs("metrics.cdist", "XB")),
        lambda: sum(r[4]["rows_a"] * r[4]["rows_b"] for r in idx.named("metrics.cdist")))
    put("metrics.math_s", "s", (scoring,), lambda: self_time("metrics"))
    put("metrics.order_s", "s", ("metrics.order_inputs",), lambda: total("metrics.order_inputs"))
    driven = lambda: [r for r in idx.rows  # noqa: E731
                      if r[2].split(".", 1)[0] in ("model", "autodiff") and from_metrics(r)]
    put("metrics.trace_s", "s", (scoring,), lambda: sum(r[3] for r in driven()))
    put("metrics.forward_rows", "rows",
        (scoring, _needs(fwd, "x"), _needs("model.predict", "images"),
         _needs("model.activation_traces", "images")),
        lambda: sum(r[4].get("rows", 0) for r in driven()))
    put("metrics.scorings", "count", (scoring,), lambda: count(scoring))

    put("attack.builds", "count", ("attack.build_augmented_sets",),
        lambda: count("attack.build_augmented_sets"))
    put("attack.fgsm_s", "s", ("attack.fgsm",), lambda: total("attack.fgsm"))
    put("attack.fgsm_rows", "rows", (_needs("attack.fgsm", "images"),),
        lambda: fact_sum("attack.fgsm", "rows"))
    put("data.generate_s", "s", ("data.generate_synthetic",),
        lambda: total("data.generate_synthetic"))

    writers = ("reports.write_points_csv", "reports.write_summary_csv",
               "reports.write_comparison_csv", "reports.write_timing_csv",
               "reports.write_plot_csvs")
    put("reports.write_s", "s", writers, lambda: sum(total(w) for w in writers))
    put("reports.consistency_s", "s", ("reports.consistency_problems",),
        lambda: total("reports.consistency_problems"))
    put("reports.manifest_s", "s", ("reports.write_manifest",),
        lambda: total("reports.write_manifest"))

    put("cli.data_preps", "count", ("reports.prepare_data",), lambda: count("reports.prepare_data"))
    put("cli.model_loads", "count", ("model.load_model",), lambda: count("model.load_model"))
    for cmd in ("train", "attack", "score", "retrain", "report"):
        put(f"cli.{cmd}_s", "s", (f"cli.cmd_{cmd}",), lambda cmd=cmd: total(f"cli.cmd_{cmd}"))

    for layer in LAYERS:
        if layer != "metrics":  # the metrics layer's self time is metrics.math_s
            put(f"{layer}.self_s", "s", (), lambda layer=layer: self_time(layer))
    return out, missing


def load_spans(path):
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return doc["spans"], doc["absent"]
