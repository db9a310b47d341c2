"""Per-layer trace of the package, recorded from outside it.

Inside `with Tracer() as t:` every public function of the package's
layer modules is wrapped at every name it is bound to. `from x import y`
copies a binding, so `distill.compute_context` is wrapped as well as
`temperature.compute_context`. Each binding keeps one counter of calls,
self time and failures, and nothing is stored per call, so memory stays
bounded however many rows an operation trains. Leaving the block
restores every binding: code timed outside it runs unwrapped.

A call's self time is its wall time minus the wall time of the traced
calls it made. Private helpers are not wrapped; their time is self time
of the nearest traced caller. The per-row loss callbacks that
`tinynet.sgd_fit` receives are wrapped too, and their self time counts
in the layer that defines them. The program is single-threaded and has
no queues, so no layer waits on another and there is no wait metric.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
from collections import Counter

PACKAGE = "antdistill"

# layer -> the package modules that make it up
LAYERS = {
    "numerics": ("numerics",),
    "tinynet": ("tinynet",),
    "temperature": ("temperature",),
    "distill": ("distill",),
    "selection": ("selection",),
    "metrics": ("metrics",),
    "cli": ("cli", "config"),
}
# called per row or more: counted and timed, never hooked
LEAF_LAYERS = ("numerics",)
LOSS_CALLBACK = "<loss callback>"
IO_FILE = "/proc/self/io"

# (name, unit, better) of every per-layer metric, in report order;
# trace_overhead_s is measured by run.py, the rest by Tracer
PER_LAYER_METRICS = [
    ("numerics.calls", "count", "lower"),
    ("numerics.self_s", "s", "lower"),
    ("numerics.failures", "count", "lower"),
    ("tinynet.loss_callbacks", "count", "lower"),
    ("tinynet.train_calls", "count", "lower"),
    ("tinynet.rows_trained", "count", "lower"),
    ("tinynet.forward_calls", "count", "lower"),
    ("tinynet.self_s", "s", "lower"),
    ("tinynet.failures", "count", "lower"),
    ("temperature.contexts", "count", "lower"),
    ("temperature.self_s", "s", "lower"),
    ("temperature.failures", "count", "lower"),
    ("distill.kd_loss_calls", "count", "lower"),
    ("distill.self_s", "s", "lower"),
    ("distill.failures", "count", "lower"),
    ("selection.unique_evaluations", "count", "lower"),
    ("selection.total_selections", "count", "lower"),
    ("selection.cache_hit_ratio", "1", "higher"),
    ("selection.teacher_trainings", "count", "lower"),
    ("selection.proxy_s", "s", "lower"),
    ("selection.eval_s", "s", "lower"),
    ("selection.self_s", "s", "lower"),
    ("selection.failures", "count", "lower"),
    ("metrics.calls", "count", "lower"),
    ("metrics.rows_validated", "count", "lower"),
    ("metrics.self_s", "s", "lower"),
    ("metrics.failures", "count", "lower"),
    ("cli.self_s", "s", "lower"),
    ("cli.io_bytes", "B", "lower"),
    ("cli.failures", "count", "lower"),
    ("trace_overhead_s", "s", "lower"),
]


def _layer_of_module(module_name: str) -> str | None:
    short = module_name.rpartition(".")[2]
    return next((layer for layer, mods in LAYERS.items() if short in mods), None)


def _public_functions() -> dict:
    """{function: (layer, name)} for every public function of every layer."""
    found = {}
    for layer, modules in LAYERS.items():
        for short in modules:
            mod = importlib.import_module(f"{PACKAGE}.{short}")
            for name, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not name.startswith("_")):
                    found[obj] = (layer, name)
    return found


def _package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")]


def _io_chars() -> tuple[int, int] | None:
    """(bytes this process read and wrote before this call, bytes this
    call read itself), or None where IO_FILE does not exist."""
    try:
        fd = os.open(IO_FILE, os.O_RDONLY)
    except OSError:
        return None
    try:
        data = os.read(fd, 4096)  # one read, so len(data) is all this call adds
    finally:
        os.close(fd)
    fields = dict(line.split(b":") for line in data.splitlines())
    return int(fields[b"rchar"]) + int(fields[b"wchar"]), len(data)


class Tracer:
    """Wraps the package while the `with` block runs; read the results after.

    Times are read from `clock`, run.py's own-time clock, which stands
    still while the speed sampler works.
    """

    def __init__(self, clock=time.perf_counter):
        self._clock = clock

    def __enter__(self) -> "Tracer":
        # (layer, function, binding module) -> [calls, self seconds, failures]
        self.stats: dict[tuple[str, str, str], list] = {}
        self.counters: Counter = Counter()
        self._stack = [0.0]  # wall time of traced children, per open call
        self._active: Counter = Counter()  # open calls per layer
        self._pool_dataset = None  # dataset of the selection run in progress
        self._last_failure = None
        self._saved = []
        try:
            self._install()
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc) -> bool:
        self._restore()
        self._last_failure = None
        return False

    # -- bindings -----------------------------------------------------------

    def _install(self) -> None:
        targets = _public_functions()
        for mod in _package_modules():
            site = mod.__name__.rpartition(".")[2]
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in targets:
                    layer, fname = targets[obj]
                    self._saved.append((mod, name, obj))
                    setattr(mod, name, self._wrap(obj, layer, fname, site))

    def _restore(self) -> None:
        while self._saved:
            mod, name, original = self._saved.pop()
            setattr(mod, name, original)

    def _wrap(self, fn, layer: str, name: str, site: str):
        stat = self.stats.setdefault((layer, name, site), [0, 0.0, 0])
        if layer in LEAF_LAYERS:
            return self._timed(fn, stat)
        before = after = None
        if layer == "tinynet" and name in ("sgd_fit", "loss_gradients"):
            before = functools.partial(self._wrap_loss_callback, inspect.signature(fn))
            if name == "sgd_fit":
                after = functools.partial(self._count_rows, inspect.signature(fn))
        elif (layer, name) in (("tinynet", "train_supervised"), ("distill", "distill_train")):
            after = functools.partial(self._selection_training, inspect.signature(fn), name)
        elif layer == "selection" and name.startswith("run_"):
            before, after = self._enter_selection, self._leave_selection
        elif (layer, name) == ("cli", "main"):
            before, after = self._io_before, self._io_after
        return self._timed(fn, stat, layer, before, after)

    def _timed(self, fn, stat, layer=None, before=None, after=None):
        stack, active, clock = self._stack, self._active, self._clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            token = None
            if before is not None:
                args, kwargs, token = before(args, kwargs)
            if layer is not None:
                active[layer] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                # count a failure once, in the innermost traced call it left
                if exc is not self._last_failure:
                    self._last_failure = exc
                    stat[2] += 1
                raise
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - stack.pop()
                stack[-1] += elapsed
                if layer is not None:
                    active[layer] -= 1
            if after is not None:
                after(token, args, kwargs, result, elapsed)
            return result

        return traced

    # -- hooks ----------------------------------------------------------------

    def _wrap_loss_callback(self, sig, args, kwargs):
        bound = sig.bind(*args, **kwargs)
        callback = bound.arguments.get("sample_loss")
        if callback is not None:
            layer = _layer_of_module(callback.__module__) or "tinynet"
            stat = self.stats.setdefault((layer, LOSS_CALLBACK, "tinynet"), [0, 0.0, 0])
            bound.arguments["sample_loss"] = self._timed(callback, stat)
        return bound.args, bound.kwargs, None

    def _count_rows(self, sig, token, args, kwargs, result, elapsed):
        bound = sig.bind(*args, **kwargs).arguments
        train_rows = bound["dataset"].indices("train").size
        self.counters["rows_trained"] += bound["cfg"].epochs * train_rows

    def _selection_training(self, sig, name, token, args, kwargs, result, elapsed):
        """Split selection's training time into proxy passes and evaluations.

        A proxy pass trains on a subsample, a copy of the pool's dataset;
        an evaluation trains on the pool's dataset itself. In pair mode,
        every supervised training on the pool's dataset is a teacher's.
        """
        if not self._active["selection"]:
            return
        dataset = sig.bind(*args, **kwargs).arguments["dataset"]
        if dataset is not self._pool_dataset:
            self.counters["proxy_s"] += elapsed
            return
        self.counters["eval_s"] += elapsed
        if name == "train_supervised":
            self.counters["teacher_trainings"] += 1

    def _enter_selection(self, args, kwargs):
        pool = args[0] if args else kwargs["pool"]
        self._pool_dataset = pool.dataset
        return args, kwargs, None

    def _leave_selection(self, token, args, kwargs, report, elapsed):
        self.counters["unique_evaluations"] += report.unique_evaluations
        self.counters["total_selections"] += report.total_selections

    def _io_before(self, args, kwargs):
        return args, kwargs, _io_chars()

    def _io_after(self, token, args, kwargs, result, elapsed):
        now = _io_chars()
        if token is not None and now is not None:
            self.counters["io_bytes"] += now[0] - sum(token)

    # -- results --------------------------------------------------------------

    def function_totals(self) -> dict[tuple[str, str], list]:
        """(layer, function) -> [calls, self seconds, failures], over all bindings."""
        totals: dict[tuple[str, str], list] = {}
        for (layer, name, _site), (calls, self_s, failures) in self.stats.items():
            t = totals.setdefault((layer, name), [0, 0.0, 0])
            t[0] += calls
            t[1] += self_s
            t[2] += failures
        return totals

    def layer_metrics(self) -> dict[str, float]:
        """Every per-layer metric except trace_overhead_s, for what was traced."""
        totals = self.function_totals()
        calls, self_s, failures = Counter(), Counter(), Counter()
        for (layer, _name), (n, s, f) in totals.items():
            calls[layer] += n
            self_s[layer] += s
            failures[layer] += f

        def fn_calls(layer, *names):
            return sum(totals.get((layer, n), (0,))[0] for n in names)

        c = self.counters
        unique, total = c["unique_evaluations"], c["total_selections"]
        m = {
            "numerics.calls": calls["numerics"],
            "tinynet.loss_callbacks": sum(
                t[0] for (_layer, name), t in totals.items() if name == LOSS_CALLBACK
            ),
            "tinynet.train_calls": fn_calls("tinynet", "sgd_fit"),
            "tinynet.rows_trained": c["rows_trained"],
            "tinynet.forward_calls": fn_calls("tinynet", "forward", "forward_batch"),
            "temperature.contexts": fn_calls("temperature", "compute_context"),
            "distill.kd_loss_calls": fn_calls("distill", "kd_loss"),
            "selection.unique_evaluations": unique,
            "selection.total_selections": total,
            "selection.cache_hit_ratio": 1.0 - unique / total if total else 0.0,
            "selection.teacher_trainings": c["teacher_trainings"],
            "selection.proxy_s": c["proxy_s"],
            "selection.eval_s": c["eval_s"],
            "metrics.calls": calls["metrics"],
            "metrics.rows_validated": sum(
                n for (layer, _name, site), (n, _s, _f) in self.stats.items()
                if layer == "numerics" and site == "metrics"
            ),
            "cli.io_bytes": c["io_bytes"],
        }
        for layer in LAYERS:
            m[f"{layer}.self_s"] = self_s[layer]
            m[f"{layer}.failures"] = failures[layer]
        return m
