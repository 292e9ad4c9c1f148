import dataclasses
import gc
import hashlib
import json
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from frameprompt import adapt as A
from frameprompt import clustering as C
from frameprompt import encoder as E
from frameprompt import meta as M
from frameprompt import tensor as T
from frameprompt.config import RunConfig
from frameprompt.data import SyntheticSpec, generate_modemix, split_dataset
from frameprompt.errors import (ConfigError, DataError, FrozenViolationError,
                                ShapeError)
from frameprompt.prompt import FrameSpec, PromptBundle, PromptFrame

from _helpers import make_modemix, project, routed_bundle, same_bits


@pytest.fixture(scope="module")
def splits():
    raw = generate_modemix(SyntheticSpec(modes=2, classes_per_mode=2,
                                         samples_per_class=12, jitter=0.08,
                                         seed=3, size=16))
    return split_dataset(raw, (0.7, 0.15, 0.15), seed=5)


def small_cfg(**kw):
    base = dict(epochs=3, tau=0.5, lr=0.05, warmup_epochs=1, batch_size=16)
    base.update(kw)
    return RunConfig(**base)


def weights_digest(encoder):
    h = hashlib.sha256()
    for name in sorted(encoder.weights):
        h.update(encoder.weights[name].tobytes())
    return h.hexdigest()


class _VarianceStub:
    def __init__(self, variance):
        self.variance = np.asarray(variance, dtype=np.float64)
        self.spec = SimpleNamespace(feature_dim=len(self.variance), head_dim=2)

    def probe_channel_variance(self, count, seed):
        return self.variance


# ---------------------------------------------------------------- head modes

def test_head_mode_validation(tiny_encoder):
    enc, _ = tiny_encoder
    with pytest.raises(ConfigError):
        A.build_head(enc, "linear", 4, 256, 0)
    with pytest.raises(ConfigError):
        A.build_head(enc, "tuning", 0, 256, 0)


def test_tuning_head(tiny_encoder):
    enc, _ = tiny_encoder
    head = A.build_head(enc, "tuning", 4, 256, 9)
    assert head.kind == "tuning" and head.trainable
    assert head.weight.shape == (enc.spec.feature_dim, 4)
    assert np.all(head.bias == 0)
    again = A.build_head(enc, "tuning", 4, 256, 9)
    assert np.array_equal(head.weight, again.weight)
    other = A.build_head(enc, "tuning", 4, 256, 10)
    assert not np.array_equal(head.weight, other.weight)


def test_freezing_head_slices_pretrain_head(tiny_encoder):
    enc, _ = tiny_encoder
    head = A.build_head(enc, "freezing", 4, 256, 0)
    assert head.kind == "freezing" and not head.trainable
    assert np.array_equal(head.weight, enc.weights["head_w"][:, :4])
    assert np.array_equal(head.bias, enc.weights["head_b"][:4])
    with pytest.raises(ConfigError):
        A.build_head(enc, "freezing", enc.spec.head_dim + 1, 256, 0)


def test_hardcoded_head(tiny_encoder):
    enc, _ = tiny_encoder
    head = A.build_head(enc, "hardcoded", 5, 256, 0)
    assert head.kind == "hardcoded"
    assert np.array_equal(head.indices, np.arange(5))
    with pytest.raises(ConfigError):
        A.build_head(enc, "hardcoded", enc.spec.feature_dim + 1, 256, 0)


def test_active_head_picks_top_variance_channels():
    stub = _VarianceStub([0.1, 5.0, 0.2, 3.0])
    head = A.build_head(stub, "active", 2, 256, 0)
    assert head.kind == "active"
    assert head.indices.tolist() == [1, 3]


def test_active_head_breaks_variance_ties_low():
    stub = _VarianceStub([1.0, 2.0, 2.0, 0.5])
    head = A.build_head(stub, "active", 2, 256, 0)
    assert head.indices.tolist() == [1, 2]


def test_head_logits_nd_matches_manual(tiny_encoder):
    enc, ds = tiny_encoder
    feats = enc.forward_features(ds.images[:6])
    affine = A.build_head(enc, "tuning", 4, 256, 1)
    assert np.array_equal(A.head_logits(affine, feats),
                          feats @ affine.weight + affine.bias)
    mapped = A.build_head(enc, "hardcoded", 3, 256, 0)
    assert np.array_equal(A.head_logits(mapped, feats), feats[:, :3])


def test_head_logits_on_tape_matches_plain_path(tiny_encoder):
    enc, ds = tiny_encoder
    feats = enc.forward_features(ds.images[:6])
    affine = A.build_head(enc, "tuning", 4, 256, 1)
    tape = T.Tape()
    fv = tape.var(feats, requires_grad=True)
    taped = dataclasses.replace(affine, weight=tape.var(affine.weight, requires_grad=True),
                                bias=tape.var(affine.bias, requires_grad=True))
    logits = A.head_logits(taped, fv)
    assert np.array_equal(logits.value, A.head_logits(affine, feats))
    T.backward(project(logits))
    assert np.array_equal(taped.weight.grad, feats.T @ np.ones((6, 4)))
    assert np.array_equal(taped.bias.grad, np.full(4, 6.0))
    assert np.array_equal(fv.grad, np.ones((6, 4)) @ affine.weight.T)
    mapped = A.build_head(enc, "hardcoded", 3, 256, 0)
    fv = T.Tape().var(feats, requires_grad=True)
    T.backward(project(A.head_logits(mapped, fv)))
    want = np.zeros_like(feats)
    want[:, :3] = 1.0
    assert np.array_equal(fv.grad, want)


def _live_tapes():
    return sum(isinstance(o, T.Tape) for o in gc.get_objects())


def test_prompt_step_frees_its_tape_without_the_cycle_collector(tiny_encoder):
    # a tape and its Vars must not form a reference cycle, or every finished
    # step's activations wait for the cyclic collector
    enc, ds = tiny_encoder
    head = A.build_head(enc, "tuning", ds.class_count, 256, 1)
    stack = np.zeros((1,) + ds.images.shape[1:])
    route = np.zeros(4, dtype=np.int64)
    gc.collect()
    gc.disable()
    try:
        before = _live_tapes()
        for _ in range(20):
            A.prompt_step(ds.images[:4], stack, route, ds.labels[:4], enc, head)
        after = _live_tapes()
    finally:
        gc.enable()
    assert after == before == 0


def test_prompt_step_peak_memory_at_batch_64():
    # the tape frees each activation once the forward moves past it: one step
    # at 64 images of 32 px and 8 prompts peaks near 48 MiB of traced
    # allocations, where a tape that kept every node's value peaked at 87 MiB
    spec = E.EncoderSpec()
    enc = E.FrozenEncoder(spec, E._init_params(spec, 0))
    rng = np.random.default_rng(0)
    images = rng.standard_normal((64, 3, 32, 32))
    stack = 0.1 * rng.standard_normal((8, 3, 32, 32))
    route = np.arange(64) % 8
    labels = rng.integers(0, 10, 64)
    head = A.build_head(enc, "tuning", 10, 256, 1)
    tracemalloc.start()
    try:
        A.prompt_step(images, stack, route, labels, enc, head)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 60 * 2**20, f"traced peak {peak / 2**20:.1f} MiB"


def test_one_tape_matches_per_cluster_tapes(tiny_encoder):
    # one tape over a minibatch that spans three prompts gives each prompt
    # the gradient of its own cluster's mean loss, and the head their sum,
    # as one tape per cluster on the prompted images does
    enc, ds = tiny_encoder
    head = A.build_head(enc, "tuning", ds.class_count, 256, 2)
    spec = FrameSpec.for_input(3, 16, 16)
    stack = np.stack([PromptFrame.random(spec, 0.5, seed=[4, t]).values
                      for t in range(3)])
    route = np.array([2, 0, 1, 2, 2, 0, 2, 1, 2, 2])
    images, labels = ds.images[:10], ds.labels[:10]
    _, _, grad, (gw, gb) = A.prompt_step(images, stack, route, labels, enc, head)
    want = np.zeros_like(stack)
    want_w, want_b = np.zeros_like(head.weight), np.zeros_like(head.bias)
    for t in range(3):
        sub = route == t
        tape = T.Tape()
        xv = tape.var(images[sub] + stack[t][None], requires_grad=True)
        taped = dataclasses.replace(head, weight=tape.var(head.weight, requires_grad=True),
                                    bias=tape.var(head.bias, requires_grad=True))
        logits = A.head_logits(taped, E._encode(xv, enc.weights))
        T.backward(T.cross_entropy(logits, labels[sub]))
        want[t] = xv.grad.sum(axis=0)
        want_w += taped.weight.grad
        want_b += taped.bias.grad
    for got, ref in ((grad, want), (gw, want_w), (gb, want_b)):
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


# ------------------------------------------------------------------- metrics

def test_metrics_csv_and_final():
    m = A.Metrics()
    m.add(0, "train", 1.5, 0.25, 0.01)
    m.add(0, "val", 1.4, 0.30, 0.02)
    m.add(1, "train", 1.2, 0.50, 0.03)
    text = m.to_csv()
    lines = text.splitlines()
    assert lines[0] == "epoch,split,loss,top1"
    assert lines[1:] == ["0,train,1.5,0.25", "0,val,1.4,0.3", "1,train,1.2,0.5"]
    assert m.rows[0] == (0, "train", 1.5, 0.25)
    assert m.seconds == {"train": [0.01, 0.03], "val": [0.02]}
    assert m.final("train") == (1, "train", 1.2, 0.5)
    assert m.final("test") is None


# ------------------------------------------------------------------ evaluate

def test_evaluate_matches_manual_cross_entropy(tiny_encoder):
    enc, ds = tiny_encoder
    sub = dataclasses.replace(ds, images=ds.images[:16], labels=ds.labels[:16])
    spec = FrameSpec.for_input(3, 16, 16)
    bundle = PromptBundle(
        [PromptFrame(spec)],
        np.zeros((1, enc.spec.feature_dim)),
        A.build_head(enc, "hardcoded", ds.class_count, 256, 0),
        enc.fingerprint, "{}")
    res = A.evaluate(sub, bundle, enc)
    logits = enc.forward_features(sub.images)[:, :ds.class_count]
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    want_loss = float(np.mean(lse - logits[np.arange(16), sub.labels]))
    want_top1 = float(np.mean(np.argmax(logits, axis=1) == sub.labels))
    assert res.loss == pytest.approx(want_loss, rel=1e-12)
    assert res.top1 == pytest.approx(want_top1, abs=0)
    assert res.histogram.sum() == 16


def test_evaluate_matches_input_space_oracle(tiny_encoder):
    """Scoring adds each routed prompt after conv1; an independent forward of
    the prompted pixels gives the same loss within 1e-12 and the same top-1
    and histogram, with two nonzero prompts and two prototypes in use."""
    from frameprompt import clustering
    enc, ds = tiny_encoder
    spec = FrameSpec.for_input(3, 16, 16)
    prompts = [PromptFrame.random(spec, 0.5, [9, t]) for t in range(2)]
    feats = enc.forward_features(ds.images)
    protos = feats[[0, int(np.argmax(((feats - feats[0]) ** 2).sum(axis=1)))]]
    head = A.build_head(enc, "tuning", ds.class_count, 256, 4)
    res = A.evaluate(ds, PromptBundle(prompts, protos, head, enc.fingerprint, "{}"), enc)
    routes = clustering.route_features(feats, protos)
    assert set(routes) == {0, 1}
    stack = np.stack([p.values for p in prompts])
    logits = enc.forward_features(ds.images + stack[routes]) @ head.weight + head.bias
    m = logits.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
    n = len(ds)
    assert res.loss == pytest.approx(float(np.mean(lse - logits[np.arange(n), ds.labels])),
                                     rel=1e-12)
    assert res.top1 == float(np.mean(np.argmax(logits, axis=1) == ds.labels))
    assert np.array_equal(res.histogram, np.bincount(routes, minlength=2))


def test_evaluate_rejects_fingerprint_mismatch(tiny_encoder):
    enc, ds = tiny_encoder
    spec = FrameSpec.for_input(3, 16, 16)
    bundle = PromptBundle(
        [PromptFrame(spec)],
        np.zeros((1, enc.spec.feature_dim)),
        A.build_head(enc, "hardcoded", 4, 256, 0),
        enc.fingerprint + 1, "{}")
    # a fingerprint of 0 is compared like any other, not read as "unknown"
    for fp in (enc.fingerprint + 1, 0):
        with pytest.raises(FrozenViolationError):
            A.evaluate(ds, dataclasses.replace(bundle, encoder_fingerprint=fp), enc)
    empty = dataclasses.replace(ds, images=ds.images[:0], labels=ds.labels[:0])
    good = dataclasses.replace(bundle, encoder_fingerprint=enc.fingerprint)
    with pytest.raises(DataError):
        A.evaluate(empty, good, enc)


@pytest.fixture(scope="module")
def set150():
    """150 16 px images in 6 classes: chunks of 64, 64 and a partial 22."""
    return make_modemix(3, 2, 25, 0.08, seed=9, size=16)


def _same_result(got, want):
    assert np.float64(got.loss).tobytes() == np.float64(want.loss).tobytes()
    assert got.top1 == want.top1
    assert got.histogram.dtype == want.histogram.dtype
    assert np.array_equal(got.histogram, want.histogram)


@pytest.mark.parametrize("count", [1, 3])
def test_evaluate_trunk_matches_two_passes(tiny_encoder, set150, count):
    """evaluate encodes each chunk's conv1 once for routing and scoring; the
    result is byte for byte that of two whole-split passes: routes from the
    prompt-free features (all zeros for one prototype), then evaluate given
    those routes. The result carries the routes it scored with."""
    from frameprompt import clustering
    enc, _ = tiny_encoder
    bundle = routed_bundle(enc, set150, count)
    res = A.evaluate(set150, bundle, enc)
    if count == 1:
        routes = np.zeros(len(set150), dtype=np.int64)
        assert res.histogram.tolist() == [150]
    else:
        routes = clustering.route_features(enc.forward_features(set150.images),
                                           bundle.prototypes)
        assert np.count_nonzero(res.histogram) > 1
    _same_result(res, A.evaluate(set150, bundle, enc, routes))
    same_bits(res.routes, routes)


def test_evaluate_checks_before_any_forward(tiny_encoder, set150, monkeypatch):
    """An empty set, labels past the head, or prototypes of another width
    than the encoder's features are refused before anything is encoded, a
    one-prototype bundle included, which never reaches route_features."""
    enc, _ = tiny_encoder
    bundles = [routed_bundle(enc, set150, count) for count in (1, 2)]

    def encoded(*args, **kwargs):
        raise AssertionError("evaluate encoded before its checks")

    monkeypatch.setattr(E.FrozenEncoder, "forward_features", encoded)
    for bundle in bundles:
        empty = dataclasses.replace(set150, images=set150.images[:0],
                                    labels=set150.labels[:0])
        with pytest.raises(DataError):
            A.evaluate(empty, bundle, enc)
        narrow = dataclasses.replace(bundle, head=A.build_head(enc, "hardcoded", 5, 256, 0))
        with pytest.raises(DataError):
            A.evaluate(set150, narrow, enc)
        thin = dataclasses.replace(bundle, prototypes=bundle.prototypes[:, :63])
        with pytest.raises(ShapeError):
            A.evaluate(set150, thin, enc)


# ----------------------------------------------------------------- adapt run

def test_adapt_is_deterministic(tiny_encoder, splits):
    enc, _ = tiny_encoder
    train = splits[0]
    cfg = small_cfg()
    b1, m1 = A.adapt(train, enc, cfg, "tuning", seed=5)
    b2, m2 = A.adapt(train, enc, cfg, "tuning", seed=5)
    assert len(b1.prompts) == len(b2.prompts)
    for p, q in zip(b1.prompts, b2.prompts):
        assert np.array_equal(p.values, q.values)
    assert np.array_equal(b1.prototypes, b2.prototypes)
    assert np.array_equal(b1.head.weight, b2.head.weight)
    assert m1.rows == m2.rows and m1.to_csv() == m2.to_csv()
    b3, _ = A.adapt(train, enc, cfg, "tuning", seed=6)
    assert not all(np.array_equal(p.values, q.values)
                   for p, q in zip(b1.prompts, b3.prompts))


def test_adapt_reduces_training_loss(tiny_encoder, splits):
    enc, _ = tiny_encoder
    train = splits[0]
    cfg = small_cfg(epochs=4)
    _, metrics = A.adapt(train, enc, cfg, "tuning", seed=0)
    train_rows = [r for r in metrics.rows if r[1] == "train"]
    assert train_rows[-1][2] < train_rows[0][2]


def test_adapt_val_and_test_rows(tiny_encoder, splits):
    enc, _ = tiny_encoder
    train, val, test = splits
    cfg = small_cfg(epochs=2)
    _, metrics = A.adapt(train, enc, cfg, "tuning", seed=0, val=val, test=test)
    seq = [(r[0], r[1]) for r in metrics.rows]
    assert seq == [(0, "train"), (0, "val"), (1, "train"), (1, "val"), (1, "test")]
    assert {k: len(v) for k, v in metrics.seconds.items()} == {"train": 2, "val": 2, "test": 1}


def test_adapt_scores_val_and_test_with_evaluate(tiny_encoder, splits):
    """adapt's val and test rows are evaluate's of the bundle it returns,
    byte for byte; at one epoch the val row scores that same bundle."""
    enc, _ = tiny_encoder
    train, val, test = splits
    bundle, metrics = A.adapt(train, enc, small_cfg(epochs=1), "tuning", seed=0,
                              val=val, test=test)
    for split, ds in (("val", val), ("test", test)):
        _, _, loss, top1 = metrics.final(split)
        r = A.evaluate(ds, bundle, enc)
        assert np.float64(loss).tobytes() == np.float64(r.loss).tobytes()
        assert top1 == r.top1


def test_adapt_checks_val_and_test_before_training(tiny_encoder, splits, monkeypatch):
    """A val or test split whose labels a k-logit head cannot score fails
    before the first prompt step."""
    enc, _ = tiny_encoder
    train, val, test = splits

    def stepped(*args, **kwargs):
        raise AssertionError("adapt stepped before checking its splits")

    monkeypatch.setattr(A, "prompt_step", stepped)
    k = train.class_count
    past = dataclasses.replace(val, labels=np.full(len(val), k), class_count=k + 1)
    for kw in ({"val": past, "test": test}, {"val": val, "test": past}):
        with pytest.raises(DataError):
            A.adapt(train, enc, small_cfg(epochs=1), "tuning", seed=0, **kw)


def test_baseline_matches_adapt_with_huge_tau(tiny_encoder, splits):
    # collapsing the dendrogram at tau=1e9 and forcing a single prompt are the
    # same computation, bit for bit
    enc, _ = tiny_encoder
    train = splits[0]
    via_tau, _ = A.adapt(train, enc, small_cfg(tau=1e9), "tuning", seed=3)
    forced, _ = A.adapt(train, enc, small_cfg(tau=1e9, force_single_prompt=True),
                        "tuning", seed=3)
    assert len(via_tau.prompts) == len(forced.prompts) == 1
    assert np.array_equal(via_tau.prompts[0].values, forced.prompts[0].values)
    assert np.array_equal(via_tau.prototypes, forced.prototypes)
    assert np.array_equal(via_tau.head.weight, forced.head.weight)
    assert forced.n == 1


def test_adapt_leaves_encoder_untouched(tiny_encoder, splits):
    enc, _ = tiny_encoder
    before = weights_digest(enc)
    A.adapt(splits[0], enc, small_cfg(epochs=1), "tuning", seed=0)
    assert weights_digest(enc) == before


def test_adapt_with_meta_prompt(tiny_encoder, splits):
    enc, _ = tiny_encoder
    train = splits[0]
    spec = FrameSpec.for_input(3, 16, 16)
    meta = PromptFrame.random(spec, 0.05, seed=[99])
    cfg = small_cfg(epochs=1)
    with_meta, _ = A.adapt(train, enc, cfg, "tuning", seed=0, meta=meta)
    without, _ = A.adapt(train, enc, cfg, "tuning", seed=0)
    assert with_meta.meta_initialized and not without.meta_initialized
    assert not np.array_equal(with_meta.prompts[0].values, without.prompts[0].values)


def test_adapt_input_validation(tiny_encoder, splits):
    enc, _ = tiny_encoder
    train = splits[0]
    empty = dataclasses.replace(train, images=train.images[:0],
                                labels=train.labels[:0])
    with pytest.raises(DataError):
        A.adapt(empty, enc, small_cfg(), "tuning")
    wrong = PromptFrame.random(FrameSpec(3, 8, 8, 1), 0.01, seed=[1])
    with pytest.raises(ShapeError):
        A.adapt(train, enc, small_cfg(), "tuning", meta=wrong)


def test_uncalibrated_tau_is_a_typed_error_where_it_cuts(tiny_encoder, splits,
                                                         monkeypatch):
    """The library reads tau as a number: "calibrate" is resolved by the
    command line, and reaching the clusterer unresolved is a DataError, not a
    TypeError, raised before anything is encoded or linked. So is a tau that
    is not positive. The forced single prompt cuts nothing, so it runs and
    its snapshot keeps the string."""
    enc, _ = tiny_encoder
    train = splits[0]
    bundle, _ = A.adapt(train, enc, small_cfg(tau="calibrate", force_single_prompt=True,
                                              epochs=1), "tuning")
    assert bundle.n == 1
    assert json.loads(bundle.config_snapshot)["tau"] == "calibrate"

    def reached(*args, **kwargs):
        raise AssertionError("encoded or linked before checking tau")

    monkeypatch.setattr(E.FrozenEncoder, "forward_features", reached)
    monkeypatch.setattr(C, "agglomerate", reached)
    for tau in ("calibrate", 0.0, -1.0, float("nan")):
        with pytest.raises(DataError, match="threshold must be a positive number"):
            A.adapt(train, enc, small_cfg(tau=tau), "tuning")
        with pytest.raises(DataError, match="threshold must be a positive number"):
            M.build_groups([train], enc, tau, probe_size=16, seed=0, noise_count=8)
    with pytest.raises(DataError, match="'calibrate'"):
        A.adapt(train, enc, small_cfg(tau="calibrate"), "tuning")


def test_check_frozen_flags_writeable_weights():
    stub = SimpleNamespace(weights={"conv1_w": np.zeros(3)})
    with pytest.raises(FrozenViolationError):
        A.check_frozen(stub)
