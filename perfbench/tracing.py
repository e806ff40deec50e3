"""Span tracer for the benchmark's traced runs.

``Tracer.install()`` replaces every public function and method of the
measured ``synchrony`` modules with a wrapper that records a span (name,
start, end, parent span, work units).  A function is patched under every
name it is looked up by: ``experiments`` and ``cli`` import
``forward_batch``, ``kfold_cv`` and the like by value, so each module's
attribute gets the same wrapper.  ``uninstall()`` restores the originals,
so untraced iterations run unmodified code.

Spans live in memory as parallel lists and are written out once, at the
end.  A span's self time is its duration minus the time its direct
children cover; calls nest on one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import gzip
import inspect
import json
import time
from collections import defaultdict
from pathlib import Path

import synchrony
from synchrony import cli, core, experiments, generate, metrics, nn

LAYERS = {"generate": generate, "core": core, "nn": nn,
          "experiments": experiments, "metrics": metrics, "cli": cli}

_perf = time.perf_counter


def lstm_flops(n_lstms: int, hidden: int, inputs: int, lookback: int) -> dict:
    """Computed (not measured) operation counts per window for one model.

    Forward, per LSTM and frame: input projection 8DH and recurrent GEMM
    8H^2 multiply-adds counted as 2 flops each, plus 26H elementwise ops
    (two adds and the bias over 4H pre-activations, 4 ops per sigmoid on
    3H gates, tanh on the candidate and the cell, 3H for the cell update
    and H for the output gate).  The head adds 2nH + 1.

    BPTT, per LSTM and frame: gradients for W_x (8DH) and R (8H^2), the
    recurrent back-projection dh = da R (8H^2), and about 27H elementwise
    ops for the gate derivatives and bias sum.
    """
    n, h, d, t = n_lstms, hidden, inputs, lookback
    forward = n * t * (8 * d * h + 8 * h * h + 26 * h) + 2 * n * h + 1
    bptt = n * t * (8 * d * h + 16 * h * h + 27 * h) + 2 * n * h
    return {"forward": forward, "bptt": bptt}


def _forward_units(args, kwargs, result):
    model, x = args[0], args[1]
    lookback = kwargs.get("lookback") or (args[2] if len(args) > 2 else None) or nn.DEFAULT_LOOKBACK
    cached = kwargs.get("want_cache", args[3] if len(args) > 3 else False)
    name = "nn.forward_batch.train" if cached else "nn.forward_batch.infer"
    return name, (x.shape[0], model.n_lstms, model.hidden_size, model.input_size, lookback)


def _loss_units(args, kwargs, result):
    model, x = args[0], args[1]
    lookback = kwargs.get("lookback") or (args[3] if len(args) > 3 else None) or nn.DEFAULT_LOOKBACK
    return "nn.loss_and_grads", (x.shape[0], model.n_lstms, model.hidden_size,
                                 model.input_size, lookback)


def _windows_units(args, kwargs, result):
    # every window of one sample has the same shape
    return "core.extract_windows", (len(result), len(result) * result[0].data.nbytes)


def _dataset_units(args, kwargs, result):
    files = [Path(args[0]) / "manifest.json", *Path(args[0]).glob("*.csv")]
    return "cli.load_dataset", (sum(p.stat().st_size for p in files),)


def _batch_units(args, kwargs, result):
    return "nn.windows_to_batch", (result[0].shape[0], result[0].nbytes)


# Spans whose name or work units depend on the call's arguments or result.
_UNITS = {
    "nn.forward_batch": _forward_units,
    "nn.loss_and_grads": _loss_units,
    "core.extract_windows": _windows_units,
    "nn.windows_to_batch": _batch_units,
    "cli.load_dataset": _dataset_units,
}


def _targets():
    """(owner, attribute, span name, function) for every function to wrap.

    Public module-level functions defined in a measured module, public
    methods and ``__post_init__`` of its classes, and every attribute of
    the package or its measured modules that refers to one of those
    functions.
    """
    defined = {}
    for layer, mod in LAYERS.items():
        for attr, obj in vars(mod).items():
            if getattr(obj, "__module__", None) != mod.__name__ or attr.startswith("_"):
                continue
            if inspect.isfunction(obj):
                defined[obj] = f"{layer}.{attr}"
            elif inspect.isclass(obj):
                for mname, meth in vars(obj).items():
                    public = not mname.startswith("_") or mname == "__post_init__"
                    if public and inspect.isfunction(meth):
                        yield obj, mname, f"{layer}.{attr}.{mname}", meth
    for ns in (synchrony, *LAYERS.values()):
        for attr, obj in vars(ns).items():
            if inspect.isfunction(obj) and obj in defined:
                yield ns, attr, defined[obj], obj


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.units: list = []
        self._stack: list[int] = []
        self._patches = []
        wrappers = {}
        for owner, attr, name, fn in list(_targets()):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(name, fn)
            self._patches.append((owner, attr, fn, wrappers[fn]))

    def _wrap(self, name: str, fn):
        units_of = _UNITS.get(name)
        names, start, end, parent, units = (
            self.names, self.start, self.end, self.parent, self.units)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            units.append(None)
            end.append(0.0)
            stack.append(idx)
            start.append(_perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = _perf()
                stack.pop()
            if units_of is not None:
                names[idx], units[idx] = units_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def self_times(self) -> list[float]:
        own = [e - s for s, e in zip(self.start, self.end)]
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def write(self, path) -> None:
        doc = {
            "clock": "time.perf_counter seconds",
            "names": self.names,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "units": self.units,
        }
        with gzip.open(path, "wt") as fh:
            json.dump(doc, fh)


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def layer_metrics(tracer: Tracer, iterations: int, traced_wall: float) -> dict:
    """Per-layer metrics from the spans of ``iterations`` traced iterations
    whose timed phases took ``traced_wall`` seconds in total.

    Values are per iteration unless the name says otherwise; counts marked
    computed come from array shapes, not from measurement.
    """
    names, start, end, parent, units = (
        tracer.names, tracer.start, tracer.end, tracer.parent, tracer.units)
    own = tracer.self_times()
    layer = [n.split(".", 1)[0] for n in names]
    dur = defaultdict(float)
    slf = defaultdict(float)
    calls = defaultdict(int)
    busy = dict.fromkeys(LAYERS, 0.0)
    layer_self = dict.fromkeys(LAYERS, 0.0)
    for i, n in enumerate(names):
        d = end[i] - start[i]
        dur[n] += d
        slf[n] += own[i]
        calls[n] += 1
        layer_self[layer[i]] += own[i]
        p = parent[i]
        if p < 0 or layer[p] != layer[i]:
            busy[layer[i]] += d

    def unit_sum(name, k):
        return sum(u[k] for n, u in zip(names, units) if n == name)

    flops = xw_bytes = bptt_flops_per_window = fwd_flops_per_window = 0
    for n, u in zip(names, units):
        if n == "nn.loss_and_grads":
            bptt_flops_per_window = lstm_flops(*u[1:])["bptt"]
        elif n.startswith("nn.forward_batch."):
            b, nl, h, d, lb = u
            fwd_flops_per_window = lstm_flops(nl, h, d, lb)["forward"]
            flops += b * fwd_flops_per_window
            xw_bytes = max(xw_bytes, nl * b * lb * 4 * h * 8)
    fwd_time = dur["nn.forward_batch.train"] + dur["nn.forward_batch.infer"]
    train_windows = unit_sum("nn.forward_batch.train", 0)
    infer_windows = unit_sum("nn.forward_batch.infer", 0)
    steps = calls["nn.loss_and_grads"]
    opt_calls = calls["nn.Optimizer.step"]
    pairs = calls["generate.spectral_pair_gen"]
    it = max(iterations, 1)
    accounted = sum(layer_self.values())

    m = {
        "generate.busy_s": (busy["generate"] / it, "s"),
        "generate.pairs_per_s": (_div(pairs, busy["generate"]), "1/s"),
        "core.extract_windows.busy_s": (dur["core.extract_windows"] / it, "s"),
        "core.windows_built": (unit_sum("core.extract_windows", 0) / it, "count"),
        "core.window_bytes": (unit_sum("core.extract_windows", 1) / it, "B_computed"),
        "experiments.windows_to_batch.busy_s": (dur["nn.windows_to_batch"] / it, "s"),
        "experiments.batch_bytes": (unit_sum("nn.windows_to_batch", 1) / it, "B_computed"),
    }
    for fn in ("train_experiment", "predict_sample", "kfold_cv", "permutation_baseline"):
        m[f"experiments.{fn}.self_s"] = (slf[f"experiments.{fn}"] / it, "s")
    m.update({
        "nn.forward_train.calls": (calls["nn.forward_batch.train"] / it, "count"),
        "nn.forward_train.us_per_window": (
            1e6 * _div(dur["nn.forward_batch.train"], train_windows), "us"),
        "nn.train_step_ms": (1e3 * _div(dur["nn.loss_and_grads"]
                                        + dur["nn.Optimizer.step"], steps), "ms"),
        "nn.bptt.self_s": (slf["nn.loss_and_grads"] / it, "s"),
        "nn.bptt.us_per_window": (
            1e6 * _div(slf["nn.loss_and_grads"], unit_sum("nn.loss_and_grads", 0)), "us"),
        "nn.bptt.flops_per_window": (bptt_flops_per_window, "FLOP_computed"),
        "nn.optimizer.calls": (opt_calls / it, "count"),
        "nn.optimizer.us_per_step": (1e6 * _div(dur["nn.Optimizer.step"], opt_calls), "us"),
        "nn.forward_infer.calls": (calls["nn.forward_batch.infer"] / it, "count"),
        "nn.forward_infer.mean_batch": (
            _div(infer_windows, calls["nn.forward_batch.infer"]), "windows"),
        "nn.forward_infer.us_per_window": (
            1e6 * _div(dur["nn.forward_batch.infer"], infer_windows), "us"),
        "nn.forward.flops_per_window": (fwd_flops_per_window, "FLOP_computed"),
        "nn.forward.gflops": (1e-9 * _div(flops, fwd_time), "GFLOP/s"),
        "nn.forward.xw_bytes": (xw_bytes, "B_computed"),
        "metrics.build_report.busy_s": (dur["metrics.build_report"] / it, "s"),
        "cli.load_dataset.busy_s": (dur["cli.load_dataset"] / it, "s"),
        "cli.input_bytes": (unit_sum("cli.load_dataset", 0) / it, "B"),
    })
    for name in LAYERS:
        m[f"{name}.self_s"] = (layer_self[name] / it, "s")
    m["trace.accounted_frac"] = (_div(accounted, traced_wall), "fraction")
    m["trace.spans"] = (len(names) / it, "count")
    return m
