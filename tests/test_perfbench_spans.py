"""The benchmark's tracer wraps the package's public kernel and tensor
functions from outside and tells conv1 from conv2 by argument shapes. This
guard runs it on one taped conv, so a rename in the package fails here rather
than first in a traced benchmark run."""

import importlib.util
from pathlib import Path

import numpy as np

from frameprompt import kernels, tensor as T

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
