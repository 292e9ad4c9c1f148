import json
import struct
import tracemalloc

import numpy as np
import pytest

from frameprompt import data as D
from frameprompt.errors import BadMagicError, DataError, FormatError, TruncatedFileError

from _helpers import idx_bytes


def test_load_idx_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    imgs = rng.integers(0, 256, size=(7, 28, 28), dtype=np.uint8)
    imgs[0, 0, 0] = 255
    imgs[0, 0, 1] = 0
    labels = rng.integers(0, 10, size=7, dtype=np.uint8)
    ip = tmp_path / "img.idx"
    lp = tmp_path / "lab.idx"
    ip.write_bytes(idx_bytes(images=imgs))
    lp.write_bytes(idx_bytes(labels=labels))
    ds = D.load_idx(str(ip), str(lp), "digits")
    assert ds.images.shape == (7, 3, 28, 28)
    assert ds.images[0, 0, 0, 0] == 1.0  # byte 255 maps exactly to 1.0
    assert ds.images[0, 1, 0, 0] == 1.0  # grayscale replicated per channel
    assert ds.images[0, 2, 0, 1] == 0.0
    assert np.array_equal(ds.labels, labels.astype(np.int64))
    assert ds.id == "digits"


def test_load_idx_error_taxonomy(tmp_path):
    good = idx_bytes(images=np.zeros((2, 4, 4), dtype=np.uint8))
    bad = tmp_path / "bad.idx"
    bad.write_bytes(b"\x00\x00\x09\x03" + good[4:])
    lab = tmp_path / "lab.idx"
    lab.write_bytes(idx_bytes(labels=np.zeros(2, dtype=np.uint8)))
    with pytest.raises(BadMagicError):
        D.load_idx(str(bad), str(lab), "x")
    short = tmp_path / "short.idx"
    short.write_bytes(good[:-5])
    with pytest.raises(TruncatedFileError):
        D.load_idx(str(short), str(lab), "x")
    img = tmp_path / "img.idx"
    img.write_bytes(good)
    lab3 = tmp_path / "lab3.idx"
    lab3.write_bytes(idx_bytes(labels=np.zeros(3, dtype=np.uint8)))
    with pytest.raises(DataError):
        D.load_idx(str(img), str(lab3), "x")
    # a negative extent, with the payload of its absolute value, and extents
    # whose product wraps an int64 to 0 are refused, not reshaped
    for dims in ((-3, 4, 4), (2 ** 21, 2 ** 21, 2 ** 22)):
        odd = tmp_path / "odd.idx"
        odd.write_bytes(struct.pack(">iiii", 0x00000803, *dims) + bytes(64))
        lab4 = tmp_path / "lab4.idx"
        lab4.write_bytes(idx_bytes(labels=np.zeros(4, dtype=np.uint8)))
        with pytest.raises(FormatError):
            D.load_idx(str(odd), str(lab4), "x")


def test_modemix_shapes_and_labels():
    spec = D.SyntheticSpec(modes=3, classes_per_mode=2, samples_per_class=4,
                           jitter=0.05, seed=1)
    ds = D.generate_modemix(spec)
    assert ds.images.shape == (24, 3, 32, 32)
    assert ds.class_count == 6
    assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
    # mode-major labels: first block is mode 0 class 0
    assert list(ds.labels[:4]) == [0] * 4
    assert list(ds.labels[4:8]) == [1] * 4
    assert sorted(set(ds.labels)) == list(range(6))


def test_modemix_deterministic_and_jitter_zero_degenerates():
    spec = D.SyntheticSpec(modes=2, classes_per_mode=2, samples_per_class=3,
                           jitter=0.0, seed=2)
    a = D.generate_modemix(spec)
    b = D.generate_modemix(spec)
    assert np.array_equal(a.images, b.images)
    for cls in range(4):
        block = a.images[a.labels == cls]
        assert np.array_equal(block[0], block[1])
        assert np.array_equal(block[0], block[2])
    jittered = D.generate_modemix(D.SyntheticSpec(2, 2, 3, jitter=0.05, seed=2))
    assert not np.array_equal(a.images, jittered.images)


def _traced_peak(fn, *args):
    """fn(*args) and the peak bytes tracemalloc saw numpy allocate during it."""
    tracemalloc.start()
    try:
        out = fn(*args)
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_modemix_builds_its_images_once():
    # a list of samples plus np.stack held about 2.1x the images' bytes
    ds, peak = _traced_peak(D.generate_modemix, D.SyntheticSpec(4, 2, 50, 0.05, seed=0))
    assert len(ds) == 400
    assert peak <= 1.25 * ds.images.nbytes


def _split_rows(ds, fractions, seed):
    """Source rows of each part of split_dataset(ds, fractions, seed), taken
    without consuming ds. The split picks rows from the labels and the seed
    alone, so a dataset whose images are the row numbers gives them back:
    its parts together hold 0..n-1 under one increasing affine map."""
    n = len(ds)
    rows = np.arange(n, dtype=np.float64).reshape(n, 1, 1, 1)
    parts = D.split_dataset(D.ImageDataset("rows", rows, ds.labels.copy(), ds.class_count),
                            fractions, seed)
    both = np.concatenate([p.images.ravel() for p in parts])
    lo, hi = both.min(), both.max()
    return [np.rint((p.images.ravel() - lo) / (hi - lo) * (n - 1)).astype(np.int64)
            for p in parts]


def _standardized_by(raw, mean, std):
    return (raw - mean[None, :, None, None]) / std[None, :, None, None]


def test_split_standardizes_fresh_parts_in_place():
    """Each part is bit for bit the out-of-place (x - mean) / std of its raw
    rows, with the raw train rows' statistics. The split consumes its input:
    every part is a row-slice of the input's buffer, which ends up holding
    the parts in split order with image and label rows still paired."""
    ds = D.generate_modemix(D.SyntheticSpec(2, 2, 30, jitter=0.05, seed=3))
    before, labels = ds.images.copy(), ds.labels.copy()
    ids = _split_rows(ds, (0.6, 0.2, 0.2), seed=4)
    parts = D.split_dataset(ds, (0.6, 0.2, 0.2), seed=4)
    order = np.concatenate(ids)
    assert sorted(order.tolist()) == list(range(len(ds)))
    raw_train = D.ImageDataset("raw", before[ids[0]], labels[ids[0]], ds.class_count)
    want = _standardized_by(before, *raw_train.channel_stats())
    for p, mine in zip(parts, ids):
        assert np.array_equal(p.images, want[mine])
        assert np.array_equal(p.labels, labels[mine])
        assert np.shares_memory(p.images, ds.images)
        assert np.shares_memory(p.labels, ds.labels)
    assert np.array_equal(ds.images, want[order])
    assert np.array_equal(ds.labels, labels[order])


@pytest.mark.parametrize("fractions", [(0.1, 0.0, 0.9), (0.7, 0.15, 0.15)])
def test_split_bits_match_gather_then_standardize(fractions):
    """At the benchmark's eval fractions and the default ones, on 9 classes
    of 37: each part, byte for byte, is its rows gathered out of place, then
    (x - mean) / std with the gathered train rows' statistics. A numpy change
    to the reduction order or to fancy indexing fails here."""
    ds = D.generate_modemix(D.SyntheticSpec(3, 3, 37, jitter=0.05, seed=11))
    raw, labels = ds.images.copy(), ds.labels.copy()
    ids = _split_rows(ds, fractions, seed=12)
    assert all(np.all(np.diff(rows) > 0) for rows in ids)  # ascending source rows
    gathered = [raw[rows] for rows in ids]
    mean, std = D.ImageDataset("raw", gathered[0], labels[ids[0]],
                               ds.class_count).channel_stats()
    parts = D.split_dataset(ds, fractions, seed=12)
    assert [len(p) for p in parts] == [len(rows) for rows in ids]
    for part, x, rows in zip(parts, gathered, ids):
        assert part.images.tobytes() == _standardized_by(x, mean, std).tobytes()
        assert part.labels.tobytes() == labels[rows].tobytes()


def test_split_copies_no_part():
    # the held-out fractions of the benchmark's eval; gathering every part
    # and then standardizing in place peaked near 1.1x the images' bytes, and
    # out of place near 2.9x; reordering in place leaves std's train-sized
    # temporary
    ds = D.generate_modemix(D.SyntheticSpec(4, 2, 50, 0.05, seed=1))
    nbytes = ds.images.nbytes
    parts, peak = _traced_peak(D.split_dataset, ds, (0.1, 0.0, 0.9), 0)
    assert sum(len(p) for p in parts) == len(ds)
    assert peak <= 0.2 * nbytes


def test_modemix_validation():
    with pytest.raises(DataError):
        D.generate_modemix(D.SyntheticSpec(0, 2, 2))
    with pytest.raises(DataError):
        D.generate_modemix(D.SyntheticSpec(9, 2, 2))
    with pytest.raises(DataError):
        D.generate_modemix(D.SyntheticSpec(2, 2, 2, jitter=-0.1))


def test_split_is_stratified_and_standardized():
    ds = D.generate_modemix(D.SyntheticSpec(2, 2, 30, jitter=0.05, seed=3))
    raw, labels = ds.images.copy(), ds.labels.copy()
    ids = _split_rows(ds, (0.7, 0.15, 0.15), seed=4)
    train, val, test = D.split_dataset(ds, (0.7, 0.15, 0.15), seed=4)
    assert len(train) + len(val) + len(test) == len(ds)
    for part, frac in ((train, 0.7), (val, 0.15), (test, 0.15)):
        for cls in range(4):
            got = int((part.labels == cls).sum())
            assert abs(got - frac * 30) <= 1  # proportions within one sample
    # statistics come from the raw train rows and are shared
    assert np.allclose(train.images.mean(axis=(0, 2, 3)), 0.0, atol=1e-9)
    assert np.allclose(train.images.std(axis=(0, 2, 3)), 1.0, atol=1e-9)
    mean, std = D.ImageDataset("raw", raw[ids[0]], labels[ids[0]],
                               ds.class_count).channel_stats()
    for part, rows in zip((val, test), ids[1:]):
        assert np.array_equal(part.images, _standardized_by(raw[rows], mean, std))
    assert abs(float(val.images.mean())) > 1e-12  # val uses train stats, not its own


def test_split_deterministic_and_disjoint():
    def split(seed):  # each split consumes a freshly generated dataset
        ds = D.generate_modemix(D.SyntheticSpec(1, 3, 12, jitter=0.03, seed=5))
        return D.split_dataset(ds, (0.5, 0.25, 0.25), seed=seed)
    a, b, c = split(6), split(6), split(7)
    for x, y in zip(a, b):
        assert np.array_equal(x.images, y.images)
    assert not np.array_equal(a[0].images, c[0].images)


def test_split_zero_fraction_and_errors():
    ds = D.generate_modemix(D.SyntheticSpec(1, 2, 10, jitter=0.02, seed=8))
    train, val, test = D.split_dataset(ds, (1.0, 0.0, 0.0), seed=0)
    assert len(train) == 20 and len(val) == 0 and len(test) == 0
    with pytest.raises(DataError):
        D.split_dataset(ds, (0.5, 0.5, 0.5), seed=0)
    with pytest.raises(DataError):
        D.split_dataset(ds, (1.2, -0.2, 0.0), seed=0)
    tiny = D.ImageDataset("tiny", np.zeros((2, 3, 4, 4)), np.array([0, 0]), 1)
    with pytest.raises(DataError):
        D.split_dataset(tiny, (0.5, 0.25, 0.25), seed=0)


def test_standardize_writes_out_of_place_bits_in_place():
    ds = D.generate_modemix(D.SyntheticSpec(2, 1, 8, jitter=0.05, seed=9))
    mean, std = ds.channel_stats()
    want = _standardized_by(ds.images, mean, std)
    buffer = ds.images
    assert ds.standardize(mean, std) is None
    assert ds.images is buffer
    assert np.array_equal(ds.images, want)


def test_descriptor_loading(tmp_path):
    desc = tmp_path / "d.json"
    desc.write_text(json.dumps({"kind": "synthetic", "modes": 2,
                                "classes_per_mode": 1, "samples_per_class": 5,
                                "jitter": 0.01, "seed": 3, "id": "demo"}))
    ds = D.load_descriptor(str(desc))
    assert ds.id == "demo"
    assert len(ds) == 10
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(DataError) as e:
        D.load_descriptor(str(bad))
    assert "line 1" in str(e.value)
    unk = tmp_path / "unk.json"
    unk.write_text('{"kind": "parquet"}')
    with pytest.raises(DataError):
        D.load_descriptor(str(unk))
