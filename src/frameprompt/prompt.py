"""Photo-frame pixel prompts and the bundle artifact.

A prompt is a dense (C, H, W) array whose interior rectangle is identically
zero; only the border band of width `border` is learnable. Application is a
plain unclamped addition, so it is linear in the prompt values. A training
step that leaves any value beyond PROMPT_BOUND in magnitude raises
DataError, so a diverged run writes nothing.

Bundle format "DAMP" v1, all integers little-endian:
  magic, u32 version, u32 prompt count N,
  5x u32 frame spec (channels, height, width, border, reserved=0),
  u32 feature dim d, N*d f64 prototypes,
  u8 head tag (0 tuning / 1 freezing / 2 hardcoded / 3 active),
  u8 flags (bit0 = meta-initialized), u32 k, head payload,
  u64 encoder fingerprint, N prompt payloads of C*H*W f64,
  u32 byte length + utf-8 config snapshot.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .atomic import Reader, write_atomic
from .clustering import PrototypeSet
from .errors import BadMagicError, DataError, FormatError, ShapeError

MAGIC = b"DAMP"
VERSION = 1

# Images are standardized per channel, and trained prompt values stay within
# a few units of zero: at most about 14 over the test suite and 3.4 over the
# benchmark workloads. A value past this bound only drowns the image, so a
# step that produces one has diverged, even where the loss stays finite: an
# untrained head reads a few feature channels and need not overflow.
PROMPT_BOUND = 1e6

HEAD_TUNING, HEAD_FREEZING, HEAD_HARDCODED, HEAD_ACTIVE = 0, 1, 2, 3


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

    def mask(self) -> np.ndarray:
        m = np.ones((self.channels, self.height, self.width))
        b = self.border
        m[:, b:self.height - b, b:self.width - b] = 0.0
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
            interior = values * (1.0 - self._mask)
            if np.any(interior != 0.0):
                raise ShapeError("prompt interior carries nonzero values")
            self.values = values.copy()

    @classmethod
    def random(cls, spec: FrameSpec, sigma: float, seed) -> "PromptFrame":
        draw = np.random.default_rng(seed).standard_normal(
            (spec.channels, spec.height, spec.width))
        return cls(spec, sigma * draw * spec.mask())

    def copy(self) -> "PromptFrame":
        return PromptFrame(self.spec, self.values)

    def apply(self, x: np.ndarray) -> np.ndarray:
        """x + p, unclamped. Accepts (C,H,W) or (B,C,H,W)."""
        x = np.asarray(x, dtype=np.float64)
        s = self.spec
        if x.ndim == 3:
            if x.shape != (s.channels, s.height, s.width):
                raise ShapeError(f"image {x.shape} vs frame {s}")
            return x + self.values
        if x.ndim == 4 and x.shape[1:] == (s.channels, s.height, s.width):
            return x + self.values[None]
        raise ShapeError(f"image {x.shape} vs frame {s}")

    def grad_step(self, optimizer, key: str, grad: np.ndarray):
        """Masked update: interior gradient is discarded and the interior is
        re-zeroed afterwards regardless of what the optimizer returned."""
        if grad.shape != self.values.shape:
            raise ShapeError(f"grad {grad.shape} vs values {self.values.shape}")
        new = optimizer.step(key, self.values, grad * self._mask)
        self.values = new * self._mask
        self._check_bound()

    def sgd_step(self, eta: float, grad: np.ndarray):
        """Plain gradient descent step, masked; used by the fast inner loop."""
        self.values = (self.values - eta * grad * self._mask) * self._mask
        self._check_bound()

    def _check_bound(self):
        """DataError unless every value is within PROMPT_BOUND (NaN is not)."""
        peak = float(np.max(np.abs(self.values)))
        if not peak <= PROMPT_BOUND:
            raise DataError(f"prompt training diverged: |prompt| reached {peak:.3g}, "
                            f"past the bound {PROMPT_BOUND:g}")


@dataclass
class HeadState:
    """Classifier state carried in a bundle.

    tuning/freezing hold an affine map (d,k)+(k,); the two mapping modes hold
    k channel indices into the feature vector."""
    tag: int
    k: int
    weight: np.ndarray | None = None
    bias: np.ndarray | None = None
    indices: np.ndarray | None = None

    @property
    def trainable(self) -> bool:
        # only the tuning head learns; the tag alone decides
        return self.tag == HEAD_TUNING


@dataclass
class PromptBundle:
    prompts: list
    prototypes: PrototypeSet
    head: HeadState
    encoder_fingerprint: int
    config_snapshot: str
    meta_initialized: bool = False

    @property
    def n(self) -> int:
        return len(self.prompts)


def _head_payload(head: HeadState) -> bytes:
    if head.tag in (HEAD_TUNING, HEAD_FREEZING):
        w = np.ascontiguousarray(head.weight, dtype=np.float64)
        b = np.ascontiguousarray(head.bias, dtype=np.float64)
        if w.shape[1] != head.k or b.shape != (head.k,):
            raise ShapeError(f"head arrays {w.shape}/{b.shape} vs k={head.k}")
        return struct.pack("<I", w.shape[0]) + w.astype("<f8").tobytes() + b.astype("<f8").tobytes()
    idx = np.ascontiguousarray(head.indices, dtype=np.int64)
    if idx.shape != (head.k,):
        raise ShapeError(f"head indices {idx.shape} vs k={head.k}")
    return idx.astype("<i8").tobytes()


def save_bundle(path: str, bundle: PromptBundle):
    if bundle.n < 1:
        raise FormatError("bundle must hold at least one prompt")
    spec = bundle.prompts[0].spec
    protos = bundle.prototypes
    if protos.centroids.shape[0] != bundle.n:
        raise ShapeError(f"{bundle.n} prompts vs {protos.centroids.shape[0]} prototypes")
    out = [MAGIC, struct.pack("<II", VERSION, bundle.n)]
    out.append(struct.pack("<5I", spec.channels, spec.height, spec.width, spec.border, 0))
    out.append(struct.pack("<I", protos.centroids.shape[1]))
    out.append(np.ascontiguousarray(protos.centroids).astype("<f8").tobytes())
    flags = 1 if bundle.meta_initialized else 0
    out.append(struct.pack("<BBI", bundle.head.tag, flags, bundle.head.k))
    out.append(_head_payload(bundle.head))
    out.append(struct.pack("<Q", bundle.encoder_fingerprint))
    for p in bundle.prompts:
        if p.spec != spec:
            raise ShapeError("all prompts in a bundle share one frame spec")
        out.append(p.values.astype("<f8").tobytes())
    snap = bundle.config_snapshot.encode("utf-8")
    out.append(struct.pack("<I", len(snap)))
    out.append(snap)
    write_atomic(path, b"".join(out))


def load_bundle(path: str) -> PromptBundle:
    r = Reader(path)
    if r.take(4) != MAGIC:
        raise BadMagicError(f"{path}: bad magic")
    version, n = r.unpack("II")
    if version != VERSION:
        raise FormatError(f"{path}: unsupported bundle version {version}")
    if n < 1:
        raise FormatError(f"{path}: empty bundle")
    c, h, w, border, reserved = r.unpack("5I")
    if reserved != 0:
        raise FormatError(f"{path}: reserved field is {reserved}, expected 0")
    spec = FrameSpec(c, h, w, border)
    (d,) = r.unpack("I")
    cents = np.frombuffer(r.take(8 * n * d), dtype="<f8").reshape(n, d).copy()
    tag, flags, k = r.unpack("BBI")
    if tag not in (HEAD_TUNING, HEAD_FREEZING, HEAD_HARDCODED, HEAD_ACTIVE):
        raise FormatError(f"{path}: unknown head tag {tag}")
    if flags & ~1:
        raise FormatError(f"{path}: unknown flag bits {flags:#x}")
    if tag in (HEAD_TUNING, HEAD_FREEZING):
        (feat,) = r.unpack("I")
        weight = np.frombuffer(r.take(8 * feat * k), dtype="<f8").reshape(feat, k).copy()
        bias = np.frombuffer(r.take(8 * k), dtype="<f8").copy()
        head = HeadState(tag, k, weight=weight, bias=bias)
    else:
        idx = np.frombuffer(r.take(8 * k), dtype="<i8").astype(np.int64)
        head = HeadState(tag, k, indices=idx)
    (fp,) = r.unpack("Q")
    prompts = []
    for _ in range(n):
        vals = np.frombuffer(r.take(8 * c * h * w), dtype="<f8").reshape(c, h, w).copy()
        prompts.append(PromptFrame(spec, vals))
    (snap_len,) = r.unpack("I")
    try:
        snap = r.take(snap_len).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: config snapshot is not UTF-8 ({exc.reason})") from None
    r.end()
    return PromptBundle(prompts, PrototypeSet(cents, fp), head, fp, snap, bool(flags & 1))
