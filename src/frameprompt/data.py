"""Datasets and their IO.

An ImageDataset is its arrays: float64 images (n, C, H, W), int64 labels, a
string id and the class count. Raw images live in [0,1]. standardize(mean,
std) shifts them in place to zero mean and unit std per channel; the caller
chooses the statistics (channel_stats of the same data, or of the train
split for all three parts) and nothing about them is kept on the dataset.
split_dataset consumes its input: the parts it returns are row-slices of the
input's own buffer, reordered and standardized in place. A descriptor is
parsed, like every json input, only in atomic.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

from .atomic import is_finite, is_int, is_text, read_bytes, read_json_object
from .errors import BadMagicError, DataError, FormatError, TruncatedFileError

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801

# 8 anchor colors reused cyclically by the synthetic modes
PALETTE = np.array([
    [0.95, 0.15, 0.15], [0.15, 0.80, 0.20], [0.20, 0.25, 0.95],
    [0.90, 0.85, 0.10], [0.85, 0.15, 0.85], [0.10, 0.85, 0.85],
    [0.95, 0.55, 0.10], [0.55, 0.30, 0.90],
], dtype=np.float64)

PATTERNS = ("h_stripes", "v_stripes", "checker", "blob")


@dataclass
class ImageDataset:
    id: str
    images: np.ndarray
    labels: np.ndarray
    class_count: int

    def __post_init__(self):
        self.images = np.ascontiguousarray(self.images, dtype=np.float64)
        self.labels = np.ascontiguousarray(self.labels, dtype=np.int64)
        if self.images.ndim != 4:
            raise DataError(f"images must be (n,C,H,W), got {self.images.shape}")
        if self.labels.shape != (self.images.shape[0],):
            raise DataError(f"{self.labels.shape[0] if self.labels.ndim else 0} labels "
                            f"for {self.images.shape[0]} images")
        if len(self.labels) and (self.labels.min() < 0 or self.labels.max() >= self.class_count):
            raise DataError(f"labels outside [0,{self.class_count})")

    def __len__(self) -> int:
        return self.images.shape[0]

    def standardize(self, mean: np.ndarray, std: np.ndarray) -> None:
        """(images - mean) / std per channel, written into images: -= mean,
        then /= std, the same two roundings as the out-of-place form."""
        self.images -= mean[None, :, None, None]
        self.images /= std[None, :, None, None]

    def channel_stats(self) -> tuple[np.ndarray, np.ndarray]:
        if len(self) == 0:
            raise DataError("cannot compute statistics of an empty dataset")
        mean = self.images.mean(axis=(0, 2, 3))
        std = self.images.std(axis=(0, 2, 3))
        std = np.where(std < 1e-8, 1.0, std)
        return mean, std


def _read_idx(path: str, expect_magic: int):
    blob = read_bytes(path)
    if len(blob) < 4:
        raise TruncatedFileError(f"{path}: too short for a magic number")
    magic = struct.unpack(">i", blob[:4])[0]
    if magic != expect_magic:
        raise BadMagicError(f"{path}: magic {magic:#010x}, expected {expect_magic:#010x}")
    ndim = magic & 0xFF
    header = 4 + 4 * ndim
    if len(blob) < header:
        raise TruncatedFileError(f"{path}: header cut short")
    dims = struct.unpack(f">{ndim}i", blob[4:header])
    if min(dims) < 0:
        raise FormatError(f"{path}: negative extent in dims {dims}")
    count = math.prod(dims)  # exact: np.prod wraps past 2**63
    if len(blob) < header + count:
        raise TruncatedFileError(f"{path}: payload has {len(blob) - header} bytes, "
                                 f"dims promise {count}")
    return np.frombuffer(blob, dtype=np.uint8, count=count, offset=header).reshape(dims)


def load_idx(images_path: str, labels_path: str, dataset_id: str) -> ImageDataset:
    """Big-endian IDX pair. Grayscale images are replicated to 3 channels and
    scaled by 1/255, so byte 255 maps to exactly 1.0."""
    raw = _read_idx(images_path, IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, IDX_LABELS_MAGIC).astype(np.int64)
    if raw.shape[0] != labels.shape[0]:
        raise DataError(f"{raw.shape[0]} images but {labels.shape[0]} labels")
    imgs = np.empty((raw.shape[0], 3) + raw.shape[1:])
    np.divide(raw[:, None], 255.0, out=imgs)
    classes = int(labels.max()) + 1 if len(labels) else 0
    return ImageDataset(dataset_id, imgs, labels, classes)


@dataclass(frozen=True)
class SyntheticSpec:
    modes: int
    classes_per_mode: int
    samples_per_class: int
    jitter: float = 0.05
    seed: int = 0
    size: int = 32
    id: str = ""

    def dataset_id(self) -> str:
        if self.id:
            return self.id
        return (f"modemix-m{self.modes}c{self.classes_per_mode}"
                f"n{self.samples_per_class}j{self.jitter}s{self.seed}")


def _pattern_field(kind: str, size: int, freq: float, phase: float) -> np.ndarray:
    yy, xx = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    if kind == "h_stripes":
        return 0.5 * (1 + np.sin(2 * np.pi * freq * yy / size + phase))
    if kind == "v_stripes":
        return 0.5 * (1 + np.sin(2 * np.pi * freq * xx / size + phase))
    if kind == "checker":
        return 0.5 * (1 + np.sin(2 * np.pi * freq * yy / size + phase)
                      * np.sin(2 * np.pi * freq * xx / size + phase))
    if kind == "blob":
        cy = size / 2 + (size / 4) * np.sin(phase)
        cx = size / 2 + (size / 4) * np.cos(phase)
        r2 = (yy - cy) ** 2 + (xx - cx) ** 2
        return np.exp(-r2 / (2 * (size / (2 + freq)) ** 2))
    raise DataError(f"unknown pattern {kind}")


def generate_modemix(spec: SyntheticSpec) -> ImageDataset:
    """Mixture-of-modes synthetic images.

    Each mode pairs an anchor color with a pattern family; classes within a
    mode get distinct frequency/phase. Labels are mode-major: mode m, class c
    within the mode gives label m * classes_per_mode + c. jitter=0 degenerates
    to identical images per class."""
    if not 1 <= spec.modes <= len(PALETTE):
        raise DataError(f"modes must be in [1,{len(PALETTE)}], got {spec.modes}")
    if min(spec.classes_per_mode, spec.samples_per_class, spec.size) < 1:
        raise DataError("classes_per_mode, samples_per_class and size must be >= 1")
    if spec.jitter < 0 or spec.seed < 0:
        raise DataError(f"jitter and seed must be >= 0, got {spec.jitter} and {spec.seed}")
    size = spec.size
    classes = spec.modes * spec.classes_per_mode
    shape = (classes * spec.samples_per_class, 3, size, size)
    if math.prod(shape) * 8 > np.iinfo(np.intp).max:
        raise DataError(f"images of shape {shape} are more than any array can hold")
    rng = np.random.default_rng(spec.seed)
    images = np.empty(shape)
    labels = np.repeat(np.arange(classes), spec.samples_per_class)
    i = 0
    for m in range(spec.modes):
        color = PALETTE[m]
        kind = PATTERNS[m % len(PATTERNS)]
        for c in range(spec.classes_per_mode):
            freq = 2.0 + 1.7 * c + 0.3 * m
            phase = 0.9 * c + 2.1 * m
            base = _pattern_field(kind, size, freq, phase)
            img = 0.15 + 0.7 * base[None, :, :] * color[:, None, None]
            for _ in range(spec.samples_per_class):
                noisy = img + spec.jitter * rng.standard_normal((3, size, size))
                np.clip(noisy, 0.0, 1.0, out=images[i])
                i += 1
    return ImageDataset(spec.dataset_id(), images, labels, classes)


def split_dataset(dataset: ImageDataset, fractions, seed: int):
    """Stratified (train, val, test) split with train-split standardization.

    Per-class counts follow the fractions within one sample (largest
    remainder); a zero fraction yields an empty split. The split consumes
    the input: it reorders the rows of its images and labels in place into
    [train | val | test], each part in ascending source-row order,
    standardizes the whole buffer with the train rows' statistics, and
    returns the three parts as consecutive row-slices of it."""
    fr = np.asarray(fractions, dtype=np.float64)
    if fr.shape != (3,):
        raise DataError(f"need 3 fractions, got {fr.shape}")
    if fr.min() < 0:
        raise DataError(f"fractions must be nonnegative: {fractions}")
    if abs(fr.sum() - 1.0) > 1e-9:
        raise DataError(f"fractions sum to {fr.sum()!r}, not 1")
    rng = np.random.default_rng(seed)
    part_of_row = np.empty(len(dataset), dtype=np.int8)
    for cls in range(dataset.class_count):
        members = np.flatnonzero(dataset.labels == cls)
        if len(members) < 3:
            raise DataError(f"class {cls} has only {len(members)} samples; "
                            f"need at least 3 to split")
        members = rng.permutation(members)
        quota = fr * len(members)
        take = np.floor(quota).astype(np.int64)
        rem = quota - take
        short = len(members) - take.sum()
        for slot in np.argsort(-rem, kind="stable")[:short]:
            take[slot] += 1
        take[fr == 0] = 0
        # floor+remainder cannot overfill, but a zeroed slot can leave a gap
        gap = len(members) - take.sum()
        if gap:
            take[np.argmax(fr)] += gap
        part_of_row[members] = np.repeat(np.arange(3), take)
    ends = np.cumsum(np.bincount(part_of_row, minlength=3))
    if ends[0] == 0:
        raise DataError("train split is empty; cannot compute statistics")
    _reorder_rows(dataset, np.argsort(part_of_row, kind="stable"))
    parts = tuple(ImageDataset(f"{dataset.id}/{name}", dataset.images[lo:hi],
                               dataset.labels[lo:hi], dataset.class_count)
                  for name, lo, hi in zip(("train", "val", "test"), (0, *ends), ends))
    dataset.standardize(*parts[0].channel_stats())
    return parts


def _reorder_rows(dataset: ImageDataset, order: np.ndarray) -> None:
    """Row k of images and labels becomes the old row order[k], in place:
    each cycle of the permutation moves through one spare image."""
    images = dataset.images
    spare = np.empty_like(images[0])
    src = order.tolist()
    placed = bytearray(len(src))
    for start in range(len(src)):
        if placed[start] or src[start] == start:
            continue
        spare[...] = images[start]
        k = start
        while src[k] != start:
            images[k] = images[src[k]]
            placed[k] = 1
            k = src[k]
        images[k] = spare
        placed[k] = 1
    dataset.labels[:] = dataset.labels[order]


# descriptor fields by kind: name -> (check, required)
_DESCRIPTOR_FIELDS = {
    "synthetic": {"modes": (is_int, True), "classes_per_mode": (is_int, True),
                  "samples_per_class": (is_int, True), "jitter": (is_finite, False),
                  "seed": (is_int, False), "size": (is_int, False), "id": (is_text, False)},
    "idx": {"images": (is_text, True), "labels": (is_text, True), "id": (is_text, True)},
}
_WANT = {is_int: "an integer", is_finite: "a finite number", is_text: "UTF-8 text"}


def load_descriptor(path: str) -> ImageDataset:
    """Dataset descriptor json: {"kind": "synthetic"|"idx", ...}. DataError
    unless it is an object with every required field, each passing its
    check."""
    desc = read_json_object(path, "descriptor", DataError)
    kind = desc.get("kind")
    if not isinstance(kind, str) or kind not in _DESCRIPTOR_FIELDS:
        raise DataError(f"{path}: unknown dataset kind {kind!r}")
    fields = {k: desc[k] for k in _DESCRIPTOR_FIELDS[kind] if k in desc}
    for key, (check, required) in _DESCRIPTOR_FIELDS[kind].items():
        if required and key not in fields:
            raise DataError(f"{path}: {kind} descriptor missing {key!r}")
        if key in fields and not check(fields[key]):
            raise DataError(f"{path}: {kind} descriptor field {key!r} is not "
                            f"{_WANT[check]}: {fields[key]!r}")
    if kind == "synthetic":
        return generate_modemix(SyntheticSpec(**fields))
    return load_idx(fields["images"], fields["labels"], fields["id"])
