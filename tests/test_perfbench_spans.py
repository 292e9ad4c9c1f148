"""The benchmark's tracer wraps the package's public functions from outside,
tells conv1 from conv2 by argument shapes and reads counters off arguments
by name. These guards run it on one taped conv and on one tiny adaptation,
so a rename in the package fails here rather than first in a traced
benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from frameprompt import adapt as A, encoder as E, kernels, meta as M, tensor as T
from frameprompt.config import RunConfig
from frameprompt.prompt import FrameSpec, PromptFrame

from _helpers import make_modemix, project, routed_bundle

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
        bundle, _ = A.adapt(ds, enc, cfg, "active", seed=0)
    finally:
        tracer.restore()
    assert tracer.value("adapt.clusters") == bundle.n == 2
    # the stack leaf, the prompt conv2d, two conv_blocks, reshape, the fc's
    # linear, the head's take and cross_entropy: one node per layer
    assert tracer.value("tensor.tape.mean_nodes") == 8
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


def test_tracer_counts_conv1_once_per_image_chunk(tiny_encoder):
    """evaluate of 150 images runs conv1 once per 64-image chunk, for its
    routing and its scoring both, and once on the prompt stack; with one
    prototype it runs no routing pass at all. inner_update runs conv1 once
    on its images however many steps it takes, and once per step on the
    prompt."""
    enc, _ = tiny_encoder
    ds = make_modemix(3, 2, 25, 0.08, seed=9, size=16)
    bundle = routed_bundle(enc, ds, 3)
    spans = _load_spans()
    tracer = spans.Tracer().install()
    try:
        A.evaluate(ds, bundle, enc)
    finally:
        tracer.restore()
    assert tracer.value("kernels.conv1.fwd.calls") == 3 + 1
    # two passes of two stages per chunk; at 16 px both stages read as pool2
    assert tracer.value("kernels.pool2.fwd.calls") == 2 * 2 * 3
    assert tracer.value("encoder.forward_features.images") == 150
    # one prototype: no prompt-free pass, in evaluate and in adapt's routing
    single = routed_bundle(enc, ds, 1)
    tracer = spans.Tracer().install()
    try:
        A.evaluate(ds, single, enc)
        routes = A._route_split(ds, single.prototypes, single.head.k, enc)
    finally:
        tracer.restore()
    assert routes.tolist() == [0] * 150
    assert tracer.value("kernels.conv1.fwd.calls") == 3 + 1
    assert tracer.value("kernels.pool2.fwd.calls") == 2 * 3
    assert tracer.value("clustering.route_features.calls") == 0
    head = A.build_head(enc, "active", ds.class_count, 256, 0)
    start = PromptFrame.random(FrameSpec.for_input(3, 16, 16), 0.01, seed=[8])
    tracer = spans.Tracer().install()
    try:
        M.inner_update(start, ds.images[:16], ds.labels[:16], enc, head, eta=0.05, steps=4)
    finally:
        tracer.restore()
    # one 16-image call and four 1-prompt calls
    assert tracer.value("kernels.conv1.fwd.calls") == 1 + 4
    assert tracer.value("kernels.conv1.fwd.mean_batch") == (16 + 4) / 5
