"""Small frozen convolutional encoder.

Architecture is fixed: conv3x3(C->16) / pool2 / relu / conv3x3(16->32) /
pool2 / relu / flatten / linear -> 64-d feature, plus a 16-way linear head
used only during pretraining and by the head-freezing adaptation mode.

Pooling runs before relu, so relu and its mask cover a quarter of the
elements. It is the same function as relu then pool, because relu is
monotone and so commutes with max. The gradients are equal under == too.
Where a window's max is positive, relu keeps it and zeroes only smaller
values, so both orders send dy to the same offset. Where the max is <= 0,
both orders give the whole window a zero gradient; only the place of a -0.0
in it can differ.

Spatial dims must be divisible by 4 (two pooling stages). The architecture is
written once, in _encode: two tensor.conv_block stages, then the fc as a
tensor.linear, so each layer is one tape node (the pretraining head is a
tensor.linear too). Each stage is one pass on the kernel lanes: conv, prompt
maps (first stage only), bias, pool and relu; untaped, the pool computes no
argmax. Inference, prompt training and scoring (frozen weights, the prompt
stack on a tape or not) and pretraining (trainable weights on a tape) all
run _encode. A prompt meets an image only there: conv1 is linear, so conv1
runs on the images and on the prompt stack, and each image's conv1 output
gets its prompt's map added inside the first stage. That gather's backward
sums each prompt's samples, so conv1's backward-input runs at batch T on a
minibatch that spans T prompts.

conv1 of the images is computed once per use, because the weights are
frozen. forward_features, given prototypes, encodes each chunk's conv1
once and continues from it twice: prompt-free to route the chunk, which
only reads it, then prompted to score it, which adds each image's map into
it. (Evaluation with a single prototype routes every image to it without
any prompt-free pass, see adapt.evaluate.)

Weights live in an ordered dict of read-only float64 arrays; an encoder's
fingerprint is the digest64 of their records (per array in PARAM_ORDER a
u32 rank, its u32 extents and its f64 payload). The encoder file is one
atomic.seal container, magic "DAMW", version 3, whose body is u32
in_channels, height and width, each PARAM_ORDER array's raw f64 payload in
the shape EncoderSpec.param_shapes gives, f64 train accuracy, u64 seed, the
pretraining dataset id as a u32 length and its UTF-8 bytes, and the
feature_dim f64 of f0 (the zero-input response the weights must give).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field

import numpy as np

from . import clustering, tensor as T
from .atomic import digest64, open_sealed, seal, write_atomic
from .errors import DataError, FingerprintMismatchError, FormatError, ShapeError

MAGIC = b"DAMW"
VERSION = 3

# Images per forward_features chunk. 64 holds half the transient memory of
# 128 (a traced peak of 26.7 against 53.1 MiB on 320 32px images) and runs
# faster. Chunks of 16, 64, 128 and the whole batch give bit-identical
# features; chunks of 1 or 5 do not. The convs give the same bits at any
# chunk, but BLAS runs the fc matmul (chunk, 2048) @ (2048, 64) with another
# summation order at 1 or 5 rows, which moves features by about 2e-14.
CHUNK = 64

PARAM_ORDER = ("conv1_w", "conv1_b", "conv2_w", "conv2_b",
               "fc_w", "fc_b", "head_w", "head_b")


@dataclass(frozen=True)
class EncoderSpec:
    in_channels: int = 3
    height: int = 32
    width: int = 32
    feature_dim: int = 64
    head_dim: int = 16

    def __post_init__(self):
        if self.height % 4 or self.width % 4:
            raise ShapeError(f"encoder input must be divisible by 4, got "
                             f"({self.height}, {self.width})")

    @property
    def fc_in(self) -> int:
        return 32 * (self.height // 4) * (self.width // 4)

    def param_shapes(self) -> dict:
        return {
            "conv1_w": (16, self.in_channels, 3, 3), "conv1_b": (16,),
            "conv2_w": (32, 16, 3, 3), "conv2_b": (32,),
            "fc_w": (self.fc_in, self.feature_dim), "fc_b": (self.feature_dim,),
            "head_w": (self.feature_dim, self.head_dim), "head_b": (self.head_dim,),
        }


def fingerprint_of(weights: dict) -> int:
    records = []
    for name in PARAM_ORDER:
        arr = np.asarray(weights[name], dtype="<f8")
        records += [struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape), arr.tobytes()]
    return digest64(b"".join(records))


def _freeze_arrays(weights: dict) -> dict:
    out = {}
    for name in PARAM_ORDER:
        arr = np.ascontiguousarray(weights[name], dtype=np.float64)
        arr.setflags(write=False)
        out[name] = arr
    return out


def _encode(x, params: dict, maps=None, route=None, conv1=None):
    """Features of a (B, C, H, W) batch, or of x + prompts[route] given maps,
    conv1 (unbiased) of a (T, C, H, W) prompt stack, and (B,) indices into
    it. x, params and maps may be plain ndarrays (nothing is taped) or Vars
    on one tape (gradients reach trainable Vars). conv1 is None or the plain
    conv1 (unbiased) of x itself, computed already, which the first stage
    owns as its conv output (see tensor.conv_block)."""
    # conv1(x + p) = conv1(x) + conv1(p): each sample's prompt map is added
    # to its conv1 output, and the maps' gradient is the per-prompt sum
    y = T.conv_block(x, params["conv1_w"], params["conv1_b"], maps, route, conv1)
    y = T.conv_block(y, params["conv2_w"], params["conv2_b"])
    return T.linear(T.reshape(y, (y.shape[0], -1)), params["fc_w"], params["fc_b"])


def _routed(x, params: dict, maps, protos) -> tuple:
    """(features, routes) of a plain chunk routed by its own prompt-free
    features to the nearest of protos, then prompted by maps[routes]. Both
    passes continue from one conv1 of x, which is freed on return, before
    the next chunk's is made. The routing pass only reads it, as
    FrozenEncoder's weights are finite (see tensor.conv_block); the scoring
    pass then adds each image's map into it in place."""
    conv1 = T.conv2d(x, params["conv1_w"])
    route = clustering.route_features(_encode(x, params, conv1=conv1), protos)
    return _encode(x, params, maps, route, conv1), route


class FrozenEncoder:
    """Immutable trained encoder. All forward passes are pure."""

    def __init__(self, spec: EncoderSpec, weights: dict, pretrain_dataset_id: str = "",
                 train_accuracy: float = 0.0, seed: int = 0):
        shapes = spec.param_shapes()
        for name in PARAM_ORDER:
            if name not in weights:
                raise FormatError(f"missing weight array {name}")
            if tuple(weights[name].shape) != shapes[name]:
                raise ShapeError(f"{name}: stored {tuple(weights[name].shape)} "
                                 f"vs spec {shapes[name]}")
            if not np.isfinite(weights[name]).all():
                raise FormatError(f"{name}: non-finite weights")
        self.spec = spec
        self.weights = _freeze_arrays(weights)
        self.fingerprint = fingerprint_of(self.weights)
        self.pretrain_dataset_id = pretrain_dataset_id
        self.train_accuracy = float(train_accuracy)
        self.seed = int(seed)
        self.f0 = self.forward_features(
            np.zeros((1, spec.in_channels, spec.height, spec.width)))[0]

    def forward_features(self, x: np.ndarray, prompts: np.ndarray | None = None,
                         route: np.ndarray | None = None,
                         prototypes: np.ndarray | None = None):
        """Features of a (B, C, H, W) batch, encoded CHUNK images at a time;
        with a (T, C, H, W) prompt stack and (B,) routes into it, of
        x + prompts[route] on prompt training's path.

        Given (N, d) prototypes in place of routes, each chunk routes itself:
        its prompt-free features go to their nearest prototype, and its
        prompted features are then taken with those routes, both from one
        conv1 of the chunk. Returns (features, routes) then."""
        s = self.spec
        x = np.ascontiguousarray(x, dtype=np.float64)
        if x.ndim != 4 or x.shape[1:] != (s.in_channels, s.height, s.width):
            raise ShapeError(f"encoder expects (B,{s.in_channels},{s.height},{s.width}), "
                             f"got {x.shape}")
        # the stack's conv1 does not depend on the chunk: one call serves all
        maps = None if prompts is None else T.conv2d(prompts, self.weights["conv1_w"])
        # untaped, so each chunk's intermediates are freed as it goes
        chunks = range(0, len(x), CHUNK)
        if prototypes is not None:
            feats, routes = zip(*(_routed(x[i:i + CHUNK], self.weights, maps, prototypes)
                                  for i in chunks))
            return np.concatenate(feats), np.concatenate(routes)
        parts = [_encode(x[i:i + CHUNK], self.weights, maps,
                         None if route is None else route[i:i + CHUNK]) for i in chunks]
        return np.concatenate(parts) if len(parts) > 1 else parts[0]

    def features_var(self, images: np.ndarray, x_var: T.Var, route: np.ndarray) -> T.Var:
        """Features of images + x_var[route] for a taped (T, C, H, W) prompt
        stack x_var, bit for bit forward_features(images, x_var.value, route);
        the gradient flows to x_var only."""
        return _encode(images, self.weights, T.conv2d(x_var, self.weights["conv1_w"]), route)

    def probe_channel_variance(self, count: int, seed: int) -> np.ndarray:
        """Unbiased per-channel feature variance over count standard-normal
        noise images from one generator, drawn and encoded CHUNK at a time:
        standard_normal fills C order, so the chunks hold the bits of one
        (count, C, H, W) draw, and forward_features encodes CHUNK at a time
        anyway."""
        if count < 2:
            raise DataError(f"probe needs at least 2 noise images, got {count}")
        s = self.spec
        image = (s.in_channels, s.height, s.width)
        if math.prod(image) * count * 8 > np.iinfo(np.intp).max:
            raise DataError(f"{count} noise images are more than any array can hold")
        rng = np.random.default_rng(seed)
        feats = np.concatenate([
            self.forward_features(rng.standard_normal((min(CHUNK, count - i),) + image))
            for i in range(0, count, CHUNK)])
        return feats.var(axis=0, ddof=1)

    # ---- persistence ----

    def save(self, path: str):
        s = self.spec
        ident = self.pretrain_dataset_id.encode("utf-8")
        body = b"".join([struct.pack("<3I", s.in_channels, s.height, s.width),
                         *(self.weights[name].astype("<f8").tobytes() for name in PARAM_ORDER),
                         struct.pack("<dQI", self.train_accuracy, self.seed, len(ident)),
                         ident, self.f0.astype("<f8").tobytes()])
        write_atomic(path, seal(MAGIC, VERSION, body))


def load_encoder(path: str) -> FrozenEncoder:
    """The encoder in a DAMW file. open_sealed checks the digest before any
    field is used, so an edited pretraining dataset id, which adapt and
    meta-train refuse to adapt to, does not load."""
    r = open_sealed(path, MAGIC, VERSION, "weight file")
    spec = EncoderSpec(*r.unpack("3I"))
    shapes, weights = spec.param_shapes(), {}
    for name in PARAM_ORDER:
        payload = r.take(8 * math.prod(shapes[name]))  # exact: np.prod wraps past 2**63
        weights[name] = np.frombuffer(payload, dtype="<f8").reshape(shapes[name]).copy()
    accuracy, seed = r.unpack("dQ")
    ident = r.text("pretraining dataset id")
    golden = np.frombuffer(r.take(8 * spec.feature_dim), dtype="<f8")
    r.end()
    enc = FrozenEncoder(spec, weights, pretrain_dataset_id=ident,
                        train_accuracy=accuracy, seed=seed)
    if not np.array_equal(golden, enc.f0):
        raise FingerprintMismatchError("stored zero-input response differs from "
                                       "recomputed one")
    return enc


def _init_params(spec: EncoderSpec, seed: int) -> dict:
    rng = np.random.default_rng(seed)
    params = {}
    for name, shape in spec.param_shapes().items():
        if name.endswith("_b"):
            params[name] = np.zeros(shape)
        else:
            fan_in = int(np.prod(shape[1:])) if len(shape) == 4 else shape[0]
            params[name] = rng.standard_normal(shape) * np.sqrt(2.0 / fan_in)
    return params


def _logits_var(tape: T.Tape, params: dict, x: np.ndarray):
    pvars = {k: tape.var(v, requires_grad=True) for k, v in params.items()}
    feats = _encode(tape.var(x), pvars)
    return T.linear(feats, pvars["head_w"], pvars["head_b"]), pvars


def pretrain(dataset, epochs: int, seed: int, lr: float = 1e-3,
             batch_size: int = 64) -> FrozenEncoder:
    """Supervised pretraining with Adam; horizontal flip is the only
    augmentation. Returns the frozen result; same seed gives the same bits."""
    from .optim import Adam

    if len(dataset) == 0:
        raise DataError("pretraining dataset is empty")
    if epochs < 1:
        raise DataError(f"epochs must be >= 1, got {epochs}")
    spec = EncoderSpec(*dataset.images.shape[1:])  # in_channels, height, width
    if dataset.class_count > spec.head_dim:
        raise DataError(f"dataset has {dataset.class_count} classes, head fits "
                        f"{spec.head_dim}")
    params = _init_params(spec, seed)
    opt = Adam(lr=lr)
    n = len(dataset)
    for epoch in range(epochs):
        erng = np.random.default_rng([seed, epoch, 0xB1])
        order = erng.permutation(n)
        flips = erng.random(n) < 0.5
        for start in range(0, n, batch_size):
            ids = order[start:start + batch_size]
            xb = dataset.images[ids]  # a gathered copy: the flips stay in it
            fl = flips[start:start + len(ids)]
            xb[fl] = xb[fl][:, :, :, ::-1]
            yb = dataset.labels[ids]
            tape = T.Tape()
            logits, pvars = _logits_var(tape, params, xb)
            loss = T.cross_entropy(logits, yb)
            T.backward(loss)
            T.require_finite(f"pretraining epoch {epoch}", loss.value,
                             *(pvars[name].grad for name in PARAM_ORDER))
            for name in PARAM_ORDER:
                params[name] = opt.step(name, params[name], pvars[name].grad)
    enc = FrozenEncoder(spec, params, pretrain_dataset_id=dataset.id, seed=seed)
    logits = T.linear(enc.forward_features(dataset.images), enc.weights["head_w"],
                      enc.weights["head_b"])
    pred = np.argmax(logits, axis=1)
    enc.train_accuracy = int((pred == dataset.labels).sum()) / n
    return enc
