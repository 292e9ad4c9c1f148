"""Outside-in tracer: wraps public functions of the frameprompt modules.

Nothing inside the package is edited. Each wrapped call becomes a span that
records its inclusive seconds and its self seconds (inclusive minus the time
of wrapped calls nested inside it), plus counters read off the call's
arguments and result. Spans live in memory; `value()` reads one per-layer
metric of BENCHMARK.json off them.

The wrappers only observe: they pass arguments and results through unchanged,
which the benchmark checks by comparing manifest hashes of a traced chain
with an untraced one.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import time
from collections import defaultdict

KERNELS = ("conv2d_forward", "conv2d_backward_input", "conv2d_backward_weight",
           "maxpool2_forward", "maxpool2_backward")


class _Span:
    __slots__ = ("calls", "s", "self_s", "counts")

    def __init__(self):
        self.calls = 0
        self.s = 0.0
        self.self_s = 0.0
        self.counts = defaultdict(float)


def _ratio(num, den):
    return num / den if den else 0.0


def _mib(*arrays):
    return sum(a.nbytes for a in arrays) / 2**20


def _conv_gflop(dy_shape, w_shape):
    """2·B·Cout·Cin·kh·kw·Ho·Wo, the same for every conv direction."""
    b, cout, ho, wo = dy_shape
    _, cin, kh, kw = w_shape
    return 2.0 * b * cout * cin * kh * kw * ho * wo / 1e9


def _kernel_key(name, a):
    """Conv ops are told apart by input channels (3 means conv1), pool ops
    by input side (32 means pool1, so a pooled output of 16)."""
    if name == "conv2d_forward":
        return "kernels.conv%d.fwd" % (1 if a["x"].shape[1] == 3 else 2)
    if name == "conv2d_backward_input":
        return "kernels.conv%d.bwd_input" % (1 if a["w"].shape[1] == 3 else 2)
    if name == "conv2d_backward_weight":
        return "kernels.conv%d.bwd_weight" % (1 if a["x"].shape[1] == 3 else 2)
    if name == "maxpool2_forward":
        return "kernels.pool%d.fwd" % (1 if a["x"].shape[2] == 32 else 2)
    return "kernels.pool%d.bwd" % (1 if a["dy"].shape[2] == 16 else 2)


def _count_kernel(c, name, a, out):
    """Batch, GFLOP and computed MiB (operand plus result array sizes, not a
    measured memory traffic) of one kernel call."""
    if name == "conv2d_forward":
        gflop, mib, b = _conv_gflop(out.shape, a["w"].shape), _mib(a["x"], a["w"], out), len(out)
    elif name == "conv2d_backward_input":
        gflop, mib, b = (_conv_gflop(a["dy"].shape, a["w"].shape),
                         _mib(a["dy"], a["w"], out), len(out))
    elif name == "conv2d_backward_weight":
        gflop, mib, b = (_conv_gflop(a["dy"].shape, out.shape),
                         _mib(a["x"], a["dy"], out), len(a["x"]))
    elif name == "maxpool2_forward":
        y, idx = out
        # 3 compares pick the max of each 2x2 window
        gflop, mib, b = 3.0 * y.size / 1e9, _mib(a["x"], y, idx), len(y)
    else:
        # one scatter per pooled output
        gflop, mib, b = a["dy"].size / 1e9, _mib(a["dy"], a["idx"], out), len(out)
    c["batch"] += b
    c["gflop"] += gflop
    c["computed_mb"] += mib


class Tracer:
    """`install()` wraps the functions in place; `restore()` unwraps them."""

    def __init__(self):
        self.spans = defaultdict(_Span)
        self._child = []    # per open span: seconds spent in nested spans
        self._open = []     # keys of open spans, innermost last
        self._patched = []  # (owner, attribute, original)

    def _wrap(self, key, fn, count=None):
        """Span around fn. key is a span name or a function of the bound
        arguments; count(counters, arguments, result) adds counters."""
        sig = inspect.signature(fn)

        def traced(*args, **kwargs):
            a = sig.bind(*args, **kwargs).arguments
            name = key(a) if callable(key) else key
            self._child.append(0.0)
            self._open.append(name)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                nested = self._child.pop()
                self._open.pop()
                if self._child:
                    self._child[-1] += dt
                span = self.spans[name]
                span.calls += 1
                span.s += dt
                span.self_s += dt - nested
            if count is not None:
                count(self.spans[name].counts, a, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _function(self, modules, mod, attr, key, count=None):
        """Wrap mod.attr and every copy of it bound by `from .x import attr`."""
        original = getattr(mod, attr)
        wrapped = self._wrap(key, original, count)
        for m in modules:
            for name, value in list(vars(m).items()):
                if value is original:
                    self._patched.append((m, name, original))
                    setattr(m, name, wrapped)

    def _method(self, cls, attr, key, count=None):
        original = cls.__dict__[attr]
        self._patched.append((cls, attr, original))
        setattr(cls, attr, self._wrap(key, original, count))

    def install(self) -> "Tracer":
        import frameprompt
        from frameprompt import (adapt, cli, clustering, data, encoder, kernels, meta,
                                 prompt, tensor)

        modules = [frameprompt] + [importlib.import_module(f"frameprompt.{m.name}")
                                   for m in pkgutil.iter_modules(frameprompt.__path__)]
        for name in KERNELS:
            self._function(modules, kernels, name,
                           lambda a, name=name: _kernel_key(name, a),
                           lambda c, a, out, name=name: _count_kernel(c, name, a, out))

        def count_backward(c, a, out):
            c["nodes"] += len(a["loss"].tape.nodes)
            if "adapt.adapt" in self._open:
                c["adapt_tapes"] += 1

        def count_adapt(c, a, out):
            c["samples"] += len(a["train"]) * a["cfg"].epochs
            c["clusters"] = out[0].n

        def count_agglomerate(c, a, out):
            c["max_n"] = max(c["max_n"], len(a["features"]))

        def count_images(c, a, out):
            x = a["x"]
            c["images"] += 1 if getattr(x, "ndim", 4) == 3 else len(x)

        def count_batch(c, a, out):
            c["batch"] += a["x_var"].value.shape[0]

        for mod, attr, count in (
                (tensor, "backward", count_backward),
                (encoder, "pretrain", None), (encoder, "load_encoder", None),
                (clustering, "agglomerate", count_agglomerate),
                (clustering, "route_features", None),
                (clustering, "calibrate_threshold", None),
                (adapt, "adapt", count_adapt), (adapt, "evaluate", None),
                (meta, "build_groups", None), (meta, "inner_update", None),
                (prompt, "save_bundle", None), (prompt, "load_bundle", None),
                (cli, "write_manifest", None),
                (data, "load_descriptor", None), (data, "split_dataset", None)):
            self._function(modules, mod, attr, f"{mod.__name__.split('.')[-1]}.{attr}", count)
        self._method(encoder.FrozenEncoder, "features_var", "encoder.features_var",
                     count_batch)
        self._method(encoder.FrozenEncoder, "forward_features",
                     "encoder.forward_features", count_images)
        self._method(prompt.PromptFrame, "grad_step", "prompt.grad_step")
        return self

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def value(self, metric: str) -> float:
        """One per-layer metric, `<module>.<function>.<field>`; a layer the
        chain never reached reads 0."""
        backward = self.spans.get("tensor.backward", _Span())
        if metric == "tensor.tape.mean_nodes":
            return _ratio(backward.counts["nodes"], backward.calls)
        if metric == "adapt.samples_per_tape":
            return _ratio(self.spans.get("adapt.adapt", _Span()).counts["samples"],
                          backward.counts["adapt_tapes"])
        if metric == "adapt.clusters":
            return self.spans.get("adapt.adapt", _Span()).counts["clusters"]
        key, field = metric.rsplit(".", 1)
        span = self.spans.get(key, _Span())
        if field in ("calls", "s", "self_s"):
            return getattr(span, field)
        if field == "mean_batch":
            return _ratio(span.counts["batch"], span.calls)
        if field in ("gflop", "computed_mb", "images", "max_n"):
            return span.counts[field]
        raise KeyError(f"no span field for metric {metric!r}")
