"""Per-layer spans, recorded from outside the package.

The traced run replaces each public function of each weakmeas module, and
each public method, ``__init__`` and ``__post_init__`` written in the
classes a module defines, with a wrapper that records a span (layer, name, parent,
op, start, end). Names that other modules bound at import time
(``cli.resolve``, ``cli.with_overrides``, the package re-exports) are
re-bound to the same wrappers. numpy's FFT entry points are wrapped before
weakmeas is imported, so they are counted however the package refers to
them. Spans stay in memory and are written out when the run ends.

A span's self time is its duration minus the time its child spans cover.
A span whose parent belongs to the same layer is booked under the parent's
name, so a layer's helpers count toward the public call that used them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import time

LAYERS = ("cli", "scenarios", "linalg", "twostate", "pointer", "montecarlo", "textout")
# One span per table cell would cost more than the cell it times.
PER_CELL = {"textout.format_number", "textout.format_value"}
FFT_NAMES = ("fft", "ifft", "rfft", "irfft", "fft2", "ifft2", "fftn", "ifftn")

# metric -> span names whose self time it sums.
SELF_TIME = {
    "cli.self_ms": {"cli.main"},
    "scenarios.resolve_ms": {
        "scenarios.resolve", "scenarios.with_overrides", "scenarios.load_scenario",
        "scenarios.parse_scenario", "scenarios.three_box", "scenarios.spin_amplification",
        "scenarios.ensemble_average", "scenarios.Scenario.__post_init__",
    },
    "scenarios.fingerprint_ms": {"scenarios.Scenario.fingerprint", "scenarios.serialize_scenario"},
    "linalg.eig_hermitian_ms": {"linalg.eig_hermitian"},
    "twostate.weak_value_ms": {"twostate.weak_value"},
    "pointer.couple_ms": {"pointer.couple"},
    "pointer.post_select_ms": {"pointer.post_select"},
    "pointer.moments_ms": {"pointer.mean_q", "pointer.var_q", "pointer.mean_p", "pointer.var_p"},
    "pointer.fidelity_ms": {"pointer.gaussian_fidelity"},
    "pointer.make_gaussian_ms": {"pointer.make_gaussian"},
    "pointer.sequential_couple_ms": {"pointer.sequential_couple"},
    "montecarlo.run_records_ms": {"montecarlo.run_records"},
    "montecarlo.estimate_ms": {"montecarlo.estimate_from_records"},
    "montecarlo.write_ms": {"montecarlo.write_runs", "montecarlo.write_report"},
}
CALLS = {
    "linalg.eig_hermitian_calls": "linalg.eig_hermitian",
    "linalg.require_hermitian_calls": "linalg.require_hermitian",
}


class Tracer:
    def __init__(self):
        self.spans = []  # [layer, name, parent index, op, start_ns, end_ns]
        self.stack = []
        self.op = None
        self.ops = 0
        self.fft_calls = 0
        self.bytes_written = 0
        self._wrappers = {}  # id(original) -> wrapper

    def begin_op(self):
        self.op = self.ops

    def end_op(self):
        self.op = None
        self.ops += 1

    def _span(self, layer, name, fn, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            record = [layer, name, tracer.stack[-1] if tracer.stack else -1, tracer.op,
                      time.perf_counter_ns(), 0]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[5] = time.perf_counter_ns()
                tracer.stack.pop()
            if after is not None:
                after(args, kwargs)
            return result

        self._wrappers[id(fn)] = traced
        return traced

    def count_fft(self, np):
        def counter(fn):
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                if self.op is not None:
                    self.fft_calls += 1
                return fn(*args, **kwargs)
            return counted

        for name in FFT_NAMES:
            setattr(np.fft, name, counter(getattr(np.fft, name)))

    def _count_bytes(self, args, kwargs):
        target = args[0] if args else kwargs.get("target")
        if isinstance(target, (str, os.PathLike)):
            self.bytes_written += os.path.getsize(target)

    def install(self, wm):
        modules = [importlib.import_module(f"weakmeas.{layer}") for layer in LAYERS]
        for layer, module in zip(LAYERS, modules):
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj) and f"{layer}.{attr}" not in PER_CELL:
                    after = self._count_bytes if layer == "textout" else None
                    setattr(module, attr, self._span(layer, attr, obj, after))
                elif inspect.isclass(obj):
                    for meth, fn in list(vars(obj).items()):
                        public = not meth.startswith("_") or meth in ("__init__", "__post_init__")
                        # Methods a dataclass generates (a record's __init__) do no work
                        # of the layer and would add a span per record.
                        if (public and inspect.isfunction(fn)
                                and fn.__code__.co_filename == module.__file__):
                            setattr(obj, meth, self._span(layer, f"{attr}.{meth}", fn))
        for module in [wm] + modules:
            for attr, obj in list(vars(module).items()):
                wrapper = self._wrappers.get(id(obj))
                if wrapper is not None and wrapper is not obj:
                    setattr(module, attr, wrapper)

    def per_op(self, trials_per_op):
        """Per-layer metrics per op: self times in ms, counts as counts."""
        keys = []
        self_ns = {}
        children = [0] * len(self.spans)
        calls = {}
        for i, (layer, name, parent, _, start, end) in enumerate(self.spans):
            qualified = f"{layer}.{name}"
            calls[qualified] = calls.get(qualified, 0) + 1
            if parent >= 0:
                children[parent] += end - start
            same_layer = parent >= 0 and self.spans[parent][0] == layer
            keys.append(keys[parent] if same_layer else qualified)
        for i, (_, _, _, _, start, end) in enumerate(self.spans):
            self_ns[keys[i]] = self_ns.get(keys[i], 0) + (end - start - children[i])
        ops = max(self.ops, 1)

        def ms(names):
            return sum(self_ns.get(n, 0) for n in names) / 1e6 / ops

        metrics = {name: (ms(names), "ms") for name, names in SELF_TIME.items()}
        metrics["textout.write_ms"] = (
            ms([k for k in self_ns if k.startswith("textout.")]), "ms")
        run_records_us = metrics["montecarlo.run_records_ms"][0] * 1e3
        metrics["montecarlo.trial_us"] = (
            run_records_us / trials_per_op if trials_per_op else 0.0, "us")
        for name, span in CALLS.items():
            metrics[name] = (calls.get(span, 0) / ops, "count")
        metrics["pointer.fft_calls"] = (self.fft_calls / ops, "count")
        metrics["textout.bytes_written"] = (self.bytes_written / ops, "B")
        return metrics

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tlayer\tname\tstart_ns\tend_ns\n")
            for i, (layer, name, parent, op, start, end) in enumerate(self.spans):
                fh.write(f"{op}\t{i}\t{parent}\t{layer}\t{name}\t{start}\t{end}\n")
