"""Photo-frame pixel prompts and the bundle artifact.

A prompt is a dense (C, H, W) array whose interior rectangle is identically
zero; only the border band of width `border` is learnable. Application is a
plain unclamped addition, linear in the prompt values, made in conv1 space:
encoder._encode adds conv1 of the prompt to conv1 of the image, the same
function by conv1's linearity. There is one update rule, PromptFrame.grad_step
with an optimizer: adaptation passes its configured one, the meta inner loop a
momentum-free Sgd. A step that leaves any value beyond PROMPT_BOUND in
magnitude raises DataError, so a diverged run writes nothing.

A bundle is one atomic.seal container, magic "DAMP", version 2, whose body
is, all integers little-endian:
  u32 prompt count N, 4x u32 frame spec (channels, height, width, border),
  u32 feature dim d, N*d f64 prototypes,
  u8 head tag (the kind's index in HEAD_KINDS: 0 tuning / 1 freezing /
  2 hardcoded / 3 active),
  u8 flags (bit0 = meta-initialized), u32 k, head payload,
  u64 encoder fingerprint, N prompt payloads of C*H*W f64,
  u32 byte length + utf-8 config snapshot.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .atomic import open_sealed, seal, write_atomic
from .errors import DataError, FormatError, ShapeError

MAGIC = b"DAMP"
VERSION = 2

# Images are standardised per channel, and trained prompt values stay within
# a few units of zero: at most about 14 over the test suite and 3.4 over the
# benchmark workloads. A value past this bound only drowns the image, so a
# step that produces one has diverged, even where the loss stays finite: an
# untrained head reads a few feature channels and need not overflow.
PROMPT_BOUND = 1e6

# A head's kind by name; a bundle stores its index. The first two kinds hold
# an affine map, the others feature indices.
HEAD_KINDS = ("tuning", "freezing", "hardcoded", "active")


@dataclass(frozen=True)
class FrameSpec:
    channels: int
    height: int
    width: int
    border: int

    def __post_init__(self):
        if min(self.channels, self.height, self.width, self.border) < 1:
            raise ShapeError(f"bad frame spec {self}")
        if 2 * self.border >= min(self.height, self.width):
            raise ShapeError(f"border {self.border} leaves no interior in "
                             f"{self.height}x{self.width}")

    @classmethod
    def for_input(cls, channels: int, height: int, width: int):
        """Default border scales with resolution: 30 px at 224."""
        border = max(1, round(30 * height / 224))
        return cls(channels, height, width, border)

    @property
    def learnable_count(self) -> int:
        hole = (self.height - 2 * self.border) * (self.width - 2 * self.border)
        return self.channels * (self.height * self.width - hole)

    @property
    def interior(self) -> tuple:
        b = self.border
        return (slice(None), slice(b, self.height - b), slice(b, self.width - b))

    def mask(self) -> np.ndarray:
        m = np.ones((self.channels, self.height, self.width))
        m[self.interior] = 0.0
        return m


class PromptFrame:
    """Frame-band prompt values; the interior stays exactly zero."""

    def __init__(self, spec: FrameSpec, values: np.ndarray | None = None):
        self.spec = spec
        self._mask = spec.mask()
        if values is None:
            self.values = np.zeros((spec.channels, spec.height, spec.width))
        else:
            values = np.ascontiguousarray(values, dtype=np.float64)
            if values.shape != (spec.channels, spec.height, spec.width):
                raise ShapeError(f"prompt values {values.shape} vs spec {spec}")
            if not np.isfinite(values).all():
                raise DataError("prompt values are not all finite")
            if np.any(values[spec.interior] != 0.0):
                raise ShapeError("prompt interior carries nonzero values")
            self.values = values.copy()

    @classmethod
    def random(cls, spec: FrameSpec, sigma: float, seed) -> "PromptFrame":
        draw = np.random.default_rng(seed).standard_normal(
            (spec.channels, spec.height, spec.width))
        return cls(spec, sigma * draw * spec.mask())

    def copy(self) -> "PromptFrame":
        return PromptFrame(self.spec, self.values)

    def grad_step(self, optimizer, key: str, grad: np.ndarray):
        """The one update rule. Masked: interior gradient is discarded and the
        interior is re-zeroed afterwards regardless of what the optimizer
        returned. DataError unless every new value is within PROMPT_BOUND
        (NaN is not)."""
        if grad.shape != self.values.shape:
            raise ShapeError(f"grad {grad.shape} vs values {self.values.shape}")
        new = optimizer.step(key, self.values, grad * self._mask)
        self.values = new * self._mask
        peak = float(np.max(np.abs(self.values)))
        if not peak <= PROMPT_BOUND:
            raise DataError(f"prompt training diverged: |prompt| reached {peak:.3g}, "
                            f"past the bound {PROMPT_BOUND:g}")


@dataclass
class HeadState:
    """Classifier state carried in a bundle, of one of HEAD_KINDS.

    tuning/freezing hold an affine map (d,k)+(k,); the two mapping kinds hold
    k channel indices into the feature vector."""
    kind: str
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    indices: np.ndarray | None = None

    @property
    def k(self) -> int:
        # .shape serves plain arrays and taped Vars alike
        return (self.bias if self.indices is None else self.indices).shape[0]

    @property
    def trainable(self) -> bool:
        # only the tuning head learns; the kind alone decides
        return self.kind == "tuning"


@dataclass
class PromptBundle:
    prompts: list
    prototypes: np.ndarray  # (N, d), one per prompt
    head: HeadState
    encoder_fingerprint: int
    config_snapshot: str
    meta_initialized: bool = False

    @property
    def n(self) -> int:
        return len(self.prompts)


def _head_payload(head: HeadState, tag: int) -> bytes:
    if (head.indices is None) != (tag < 2):
        raise ShapeError(f"a {head.kind} head needs "
                         f"{'weight and bias' if tag < 2 else 'indices'}")
    if head.indices is None:
        w = np.ascontiguousarray(head.weight, dtype=np.float64)
        b = np.ascontiguousarray(head.bias, dtype=np.float64)
        if w.ndim != 2 or b.shape != (w.shape[1],):
            raise ShapeError(f"head arrays {w.shape}/{b.shape} disagree on k")
        return struct.pack("<I", w.shape[0]) + w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
    idx = np.ascontiguousarray(head.indices, dtype=np.int64)
    if idx.ndim != 1:
        raise ShapeError(f"head indices {idx.shape} are not one row")
    return idx.astype("<i8").tobytes()


def save_bundle(path: str, bundle: PromptBundle):
    if bundle.n < 1:
        raise FormatError("bundle must hold at least one prompt")
    spec = bundle.prompts[0].spec
    protos = bundle.prototypes
    if protos.shape[0] != bundle.n:
        raise ShapeError(f"{bundle.n} prompts vs {protos.shape[0]} prototypes")
    tag = HEAD_KINDS.index(bundle.head.kind)
    payload = _head_payload(bundle.head, tag)  # checks the arrays k is read off
    if any(p.spec != spec for p in bundle.prompts):
        raise ShapeError("all prompts in a bundle share one frame spec")
    snap = bundle.config_snapshot.encode("utf-8")
    body = b"".join([
        struct.pack("<6I", bundle.n, spec.channels, spec.height, spec.width, spec.border,
                    protos.shape[1]),
        np.ascontiguousarray(protos).astype("<f8").tobytes(),
        struct.pack("<BBI", tag, int(bundle.meta_initialized), bundle.head.k), payload,
        struct.pack("<Q", bundle.encoder_fingerprint),
        *(p.values.astype("<f8").tobytes() for p in bundle.prompts),
        struct.pack("<I", len(snap)), snap])
    write_atomic(path, seal(MAGIC, VERSION, body))


def load_bundle(path: str) -> PromptBundle:
    r = open_sealed(path, MAGIC, VERSION, "bundle")
    n, c, h, w, border, d = r.unpack("6I")
    if n < 1:
        raise FormatError(f"{path}: empty bundle")
    spec = FrameSpec(c, h, w, border)
    cents = np.frombuffer(r.take(8 * n * d), dtype="<f8").reshape(n, d).copy()
    tag, flags, k = r.unpack("BBI")
    if tag >= len(HEAD_KINDS):
        raise FormatError(f"{path}: unknown head tag {tag}")
    if flags & ~1:
        raise FormatError(f"{path}: unknown flag bits {flags:#x}")
    if tag < 2:
        (feat,) = r.unpack("I")
        weight = np.frombuffer(r.take(8 * feat * k), dtype="<f8").reshape(feat, k).copy()
        bias = np.frombuffer(r.take(8 * k), dtype="<f8").copy()
        head = HeadState(HEAD_KINDS[tag], weight=weight, bias=bias)
    else:
        idx = np.frombuffer(r.take(8 * k), dtype="<i8").astype(np.int64)
        head = HeadState(HEAD_KINDS[tag], indices=idx)
    (fp,) = r.unpack("Q")
    # PromptFrame keeps a copy of each payload view
    prompts = [PromptFrame(spec, np.frombuffer(r.take(8 * c * h * w), dtype="<f8")
                           .reshape(c, h, w)) for _ in range(n)]
    snap = r.text("config snapshot")
    r.end()
    return PromptBundle(prompts, cents, head, fp, snap, bool(flags & 1))
