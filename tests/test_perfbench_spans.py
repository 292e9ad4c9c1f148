"""The benchmark's tracer wraps the package's public functions from outside,
tells conv1 from conv2 by argument shapes and reads counters off arguments
by name. These guards run it on one taped conv and on one tiny adaptation,
so a rename in the package fails here rather than first in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from frameprompt import adapt as A, encoder as E, kernels, tensor as T
from frameprompt.config import RunConfig

from _helpers import project

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_sees_each_conv1_direction_once():
    spans = _load_spans()
    originals = {name: getattr(kernels, name) for name in spans.KERNELS}
    backward = T.backward
    rng = np.random.default_rng(0)
    tracer = spans.Tracer().install()
    try:
        tape = T.Tape()
        x = tape.var(rng.standard_normal((2, 3, 32, 32)), requires_grad=True)
        w = tape.var(rng.standard_normal((16, 3, 3, 3)), requires_grad=True)
        T.backward(project(T.conv2d(x, w)))
    finally:
        tracer.restore()
    for key in ("kernels.conv1.fwd", "kernels.conv1.bwd_input", "kernels.conv1.bwd_weight"):
        assert tracer.value(key + ".calls") == 1, key
    # a backward kernel that nested the public forward would show up here
    assert tracer.value("kernels.conv2.fwd.calls") == 0
    assert tracer.value("tensor.tape.mean_nodes") > 0
    assert T.backward is backward
    for name, fn in originals.items():
        assert getattr(kernels, name) is fn, name


def test_tracer_counts_one_tiny_adapt(tiny_encoder):
    enc, ds = tiny_encoder
    spans = _load_spans()
    cfg = RunConfig(epochs=1, tau=1e-3, max_clusters=2, lr=0.05, warmup_epochs=1,
                    batch_size=16)
    tracer = spans.Tracer().install()
    try:
        bundle, _ = A.adapt(ds, enc, cfg, A.HeadMode("active", ds.class_count), seed=0)
    finally:
        tracer.restore()
    assert tracer.value("adapt.clusters") == bundle.n == 2
    for metric in ("clustering.route_features.calls", "encoder.features_var.calls",
                   "prompt.grad_step.calls"):
        assert tracer.value(metric) > 0, metric


def test_tracer_reads_the_fused_pool_taped_and_untaped(monkeypatch):
    """The pool kernels carry each stage's epilogue and skip the argmax when
    nothing is taped; the tracer must still see both pools on a 32 px
    prompted forward, taped and untaped, and read its counters off the
    (y, idx) result, idx an ndarray either way."""
    spans = _load_spans()
    rng = np.random.default_rng(0)
    spec = E.EncoderSpec()
    enc = E.FrozenEncoder(spec, E._init_params(spec, 0))
    x = rng.standard_normal((4, 3, 32, 32))
    stack = rng.standard_normal((2, 3, 32, 32))
    route = np.array([1, 0, 1, 1])
    tracer = spans.Tracer().install()
    idx_types = []
    traced = kernels.maxpool2_forward

    def recorded(*args, **kwargs):
        y, idx = traced(*args, **kwargs)
        idx_types.append((type(idx), kwargs.get("index", True)))
        return y, idx

    monkeypatch.setattr(kernels, "maxpool2_forward", recorded)
    try:
        tape = T.Tape()
        T.backward(project(enc.features_var(x, tape.var(stack, requires_grad=True), route)))
        enc.forward_features(x, stack, route)
    finally:
        monkeypatch.undo()
        tracer.restore()
    assert idx_types == [(np.ndarray, True)] * 2 + [(np.ndarray, False)] * 2
    for key in ("kernels.pool1.fwd", "kernels.pool2.fwd"):
        assert tracer.value(key + ".calls") >= 1, key
        assert tracer.value(key + ".mean_batch") == 4, key
        for field in ("gflop", "computed_mb", "self_s"):
            assert tracer.value(f"{key}.{field}") > 0, (key, field)
    for key in ("kernels.pool1.bwd", "kernels.pool2.bwd"):
        assert tracer.value(key + ".calls") == 1, key
