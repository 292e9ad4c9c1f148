import os
import struct

import numpy as np
import pytest

import _helpers as H
from frameprompt import encoder as E
from frameprompt.errors import (BadMagicError, DataError,
                                FingerprintMismatchError, FormatError,
                                ShapeError, TruncatedFileError)


def test_spec_rejects_indivisible_input():
    with pytest.raises(ShapeError):
        E.EncoderSpec(height=30, width=32)
    spec = E.EncoderSpec(height=16, width=16)
    assert spec.fc_in == 32 * 4 * 4


def test_pretrain_is_deterministic(tiny_encoder):
    enc, ds = tiny_encoder
    again = E.pretrain(ds, epochs=6, seed=7, batch_size=24)
    assert again.fingerprint == enc.fingerprint
    assert again.train_accuracy == enc.train_accuracy
    other = E.pretrain(ds, epochs=6, seed=8, batch_size=24)
    assert other.fingerprint != enc.fingerprint


def test_pretrain_learns_above_chance(tiny_encoder):
    enc, ds = tiny_encoder
    assert enc.train_accuracy > 1.5 / ds.class_count


def test_forward_features_shapes_and_purity(tiny_encoder):
    enc, ds = tiny_encoder
    x = ds.images[:5]
    before = {k: v.copy() for k, v in enc.weights.items()}
    batch = enc.forward_features(x)
    single = enc.forward_features(x[:1])
    assert batch.shape == (5, 64)
    assert single.shape == (1, 64)
    # single vs batched goes through different gemm shapes: working precision
    assert np.allclose(batch[:1], single, rtol=1e-12, atol=1e-12)
    again = enc.forward_features(x)
    assert np.array_equal(batch, again)  # same shape: bit-identical
    for k in before:
        assert np.array_equal(before[k], enc.weights[k])


def test_forward_features_chunking_is_invisible(tiny_encoder, monkeypatch):
    enc, ds = tiny_encoder
    x = ds.images[:10]
    whole = enc.forward_features(x)
    monkeypatch.setattr(E, "CHUNK", 3)
    assert np.allclose(enc.forward_features(x), whole, rtol=1e-12, atol=1e-12)


def test_forward_features_chunks_are_bit_identical(monkeypatch):
    """Chunks of 16, 64 (CHUNK), 128 and the whole batch give the same
    bits on 320 images of the 32px encoder, plain and with a prompt stack
    routed per image. Chunks of 1 or 5 are left out: the convs give the same
    bits there too, but BLAS sums the fc matmul (chunk, 2048) @ (2048, 64) in
    another order at 1 or 5 rows and the features move by about 2e-14."""
    spec = E.EncoderSpec()
    enc = E.FrozenEncoder(spec, E._init_params(spec, 5))
    rng = np.random.default_rng(6)
    x = rng.standard_normal((320, 3, 32, 32))
    prompted = (rng.standard_normal((3, 3, 32, 32)), rng.integers(0, 3, len(x)))
    assert E.CHUNK == 64
    for extra in ((), prompted):
        default = enc.forward_features(x, *extra)
        for chunk in (16, 64, 128, len(x)):
            monkeypatch.setattr(E, "CHUNK", chunk)
            assert np.array_equal(enc.forward_features(x, *extra),
                                  default), (chunk, len(extra))
        monkeypatch.undo()


def test_var_path_matches_pure_path(tiny_encoder):
    """Training (the taped stack) and scoring (forward_features with the
    stack) run one function with the same bits; a zero stack leaves the
    prompt-free features as they are."""
    from frameprompt import tensor as T
    enc, ds = tiny_encoder
    x = ds.images[:6]
    route = np.array([0, 2, 1, 1, 0, 2])
    tape = T.Tape()
    zero = tape.var(np.zeros((3,) + x.shape[1:]), requires_grad=True)
    assert np.array_equal(enc.features_var(x, zero, route).value, enc.forward_features(x))
    stack = np.random.default_rng(2).standard_normal((3,) + x.shape[1:])
    var_feats = enc.features_var(x, T.Tape().var(stack, requires_grad=True), route).value
    pure = enc.forward_features(x, stack, route)
    assert np.array_equal(var_feats, pure)
    assert not np.array_equal(pure, enc.forward_features(x))


def test_conv1_is_only_read_by_the_routing_pass(tiny_encoder):
    """The prompt-free and the prompted continuation from one conv1 output
    give the bits of an encode that runs its own conv1. The prompt-free
    pass, which routes a chunk, leaves it unwritten (it is read-only here,
    so a write would raise): an encoder's weights are finite, so its bias
    goes after the max. The prompted pass, which scores the chunk, adds
    each image's map into the conv1 it is handed (a writable copy here).
    Non-finite weights are refused before any pass, see
    test_non_finite_weights_are_refused_before_any_forward_pass."""
    from frameprompt import tensor as T
    from _helpers import same_bits
    enc, ds = tiny_encoder
    x = ds.images[:10]
    route = np.arange(10) % 3
    stack = np.random.default_rng(4).standard_normal((3,) + x.shape[1:])
    conv1 = T.conv2d(x, enc.weights["conv1_w"])
    conv1.setflags(write=False)
    before = conv1.copy()
    same_bits(E._encode(x, enc.weights, conv1=conv1), E._encode(x, enc.weights))
    same_bits(conv1, before)
    maps = T.conv2d(stack, enc.weights["conv1_w"])
    handed = conv1.copy()
    same_bits(E._encode(x, enc.weights, maps, route, handed),
              E._encode(x, enc.weights, maps, route))
    same_bits(handed, before + maps[route])


def test_non_finite_weights_are_refused_before_any_forward_pass(monkeypatch, tiny_encoder):
    """+inf, -inf or NaN in any weight array is a FormatError naming it,
    raised before the encoder computes f0: relu would turn the NaNs such a
    bias makes into zeros, so f0 alone does not show it."""
    enc, _ = tiny_encoder

    def forward(*args, **kwargs):
        raise AssertionError("forward pass before the weights were checked")

    monkeypatch.setattr(E.FrozenEncoder, "forward_features", forward)
    for name, value in (("conv1_b", np.inf), ("conv2_w", -np.inf), ("fc_w", np.nan),
                        ("head_b", np.nan)):
        weights = {k: v.copy() for k, v in enc.weights.items()}
        weights[name].flat[1] = value
        with pytest.raises(FormatError, match=f"{name}: non-finite weights"):
            E.FrozenEncoder(enc.spec, weights)


def test_weights_are_frozen(tiny_encoder):
    enc, _ = tiny_encoder
    with pytest.raises(ValueError):
        enc.weights["conv1_w"][0, 0, 0, 0] = 5.0


def test_zero_input_response_recorded(tiny_encoder):
    enc, _ = tiny_encoder
    s = enc.spec
    want = enc.forward_features(np.zeros((1, s.in_channels, s.height, s.width)))
    assert np.array_equal(enc.f0, want[0])
    assert np.any(enc.f0 != 0.0)  # bias-only response survives training


def test_input_shape_validated(tiny_encoder):
    enc, _ = tiny_encoder
    with pytest.raises(ShapeError):
        enc.forward_features(np.zeros((3, 8, 8)))
    with pytest.raises(ShapeError):  # one image is a batch of one, not (C, H, W)
        enc.forward_features(np.zeros((enc.spec.in_channels, enc.spec.height,
                                       enc.spec.width)))


def _noise(enc, count, seed):
    s = enc.spec
    return np.random.default_rng(seed).standard_normal((count, s.in_channels, s.height,
                                                        s.width))


def test_probe_variance_matches_two_pass_oracle(tiny_encoder):
    enc, _ = tiny_encoder
    got = enc.probe_channel_variance(64, seed=11)
    feats = enc.forward_features(_noise(enc, 64, 11))
    mean = feats.mean(axis=0)
    want = ((feats - mean) ** 2).sum(axis=0) / (64 - 1)
    rel = np.abs(got - want) / np.maximum(1e-30, np.abs(want))
    assert rel.max() < 1e-10
    assert enc.probe_channel_variance(64, seed=11)[0] == got[0]  # deterministic


@pytest.mark.parametrize("count", [256, 150])
def test_probe_variance_draws_noise_by_chunk_with_whole_draw_bits(tiny_encoder, count):
    """The probe draws and encodes its noise CHUNK images at a time from one
    generator, and gets the variance of one whole-batch draw byte for byte,
    the last chunk short or not."""
    enc, _ = tiny_encoder
    whole = enc.forward_features(_noise(enc, count, 11)).var(axis=0, ddof=1)
    H.same_bits(enc.probe_channel_variance(count, seed=11), whole)


def test_probe_variance_needs_two(tiny_encoder):
    enc, _ = tiny_encoder
    with pytest.raises(DataError):
        enc.probe_channel_variance(1, seed=0)


def test_save_load_roundtrip(tmp_path, tiny_encoder):
    enc, ds = tiny_encoder
    path = str(tmp_path / "enc.damw")
    enc.save(path)
    loaded = E.load_encoder(path)
    assert loaded.fingerprint == enc.fingerprint
    assert loaded.pretrain_dataset_id == enc.pretrain_dataset_id
    x = ds.images[:3]
    assert np.array_equal(loaded.forward_features(x), enc.forward_features(x))
    # byte-for-byte stable on re-save
    loaded.save(str(tmp_path / "enc2.damw"))
    assert (tmp_path / "enc.damw").read_bytes() == (tmp_path / "enc2.damw").read_bytes()


def test_load_distinguishes_failure_modes(tmp_path, tiny_encoder):
    """Bad magic, a file cut inside its header, a flipped payload byte and
    bytes after the digest each raise their own error. A cut past the
    header or trailing bytes move the digest, so both are a digest mismatch."""
    enc, _ = tiny_encoder
    path = str(tmp_path / "enc.damw")
    enc.save(path)
    blob = open(path, "rb").read()

    bad_magic = tmp_path / "bad_magic.damw"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(BadMagicError):
        E.load_encoder(str(bad_magic))

    truncated = tmp_path / "short.damw"
    truncated.write_bytes(blob[:12])
    with pytest.raises(TruncatedFileError):
        E.load_encoder(str(truncated))
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(FingerprintMismatchError):
        E.load_encoder(str(truncated))

    corrupt = bytearray(blob)
    corrupt[100] ^= 0xFF  # flip a payload byte
    flipped = tmp_path / "flip.damw"
    flipped.write_bytes(bytes(corrupt))
    with pytest.raises(FingerprintMismatchError):
        E.load_encoder(str(flipped))

    trailing = tmp_path / "trailing.damw"
    trailing.write_bytes(blob + b"\x00\x01")
    with pytest.raises(FingerprintMismatchError, match="digest mismatch"):
        E.load_encoder(str(trailing))


def test_weight_file_is_the_whole_encoder(tmp_path, tiny_encoder):
    """One file, laid out as the format says: its metadata fields and
    payloads read back as written, the digest covers the whole body, and
    the fingerprint is still the digest of the records alone."""
    enc, _ = tiny_encoder
    path = tmp_path / "enc.damw"
    enc.save(str(path))
    assert os.listdir(tmp_path) == ["enc.damw"]
    blob = path.read_bytes()
    f = H.damw_fields(enc)
    field = lambda name: blob[slice(*f[name])]
    assert field("magic") == b"DAMW" and struct.unpack("<I", field("version")) == (3,)
    assert struct.unpack("<3I", blob[f["in_channels"][0]:f["width"][1]]) == (3, 16, 16)
    assert struct.unpack("<d", field("train_accuracy"))[0] == enc.train_accuracy
    assert struct.unpack("<Q", field("seed"))[0] == enc.seed == 7
    assert field("id").decode("utf-8") == enc.pretrain_dataset_id
    assert struct.unpack("<I", field("id_length"))[0] == len(field("id"))
    assert field("f0") == enc.f0.astype("<f8").tobytes()
    assert struct.unpack("<Q", field("digest"))[0] == H.sealed_digest(blob[8:-8])
    records = b""
    for name, arr in enc.weights.items():
        assert field(f"{name}.payload") == arr.astype("<f8").tobytes()
        records += struct.pack(f"<{arr.ndim + 1}I", arr.ndim, *arr.shape)
        records += field(f"{name}.payload")
    assert enc.fingerprint == H.sealed_digest(records)


def test_every_corruption_of_the_weight_file_is_refused(tmp_path, tiny_encoder):
    """A flipped byte at each end of every field, a cut at each field
    boundary, trailing bytes, a version 1 or 2 header, and a spec no array
    fits, a non-UTF-8 id or a non-finite weight under a valid digest each
    raise their own FormatError."""
    enc, _ = tiny_encoder
    path = tmp_path / "enc.damw"
    enc.save(str(path))
    for case, blob, kind in H.corrupt_damw(enc, path.read_bytes()):
        bad = tmp_path / "bad.damw"
        bad.write_bytes(blob)
        with pytest.raises(FormatError) as info:
            E.load_encoder(str(bad))
        assert type(info.value).__name__ == kind, case
        if case.startswith("version "):
            assert f"unsupported weight file {case}" in str(info.value)
        if case == "non-UTF-8 id":
            assert "UTF-8" in str(info.value)
        if case.endswith(("in conv1_b", "in fc_w")):
            assert "non-finite weights" in str(info.value)


def test_any_one_byte_edit_is_refused(tmp_path, tiny_encoder):
    """Every byte outside the weight payloads, and every 997th byte inside
    them, flipped: each file is refused with a FormatError."""
    enc, _ = tiny_encoder
    path = tmp_path / "enc.damw"
    enc.save(str(path))
    blob = path.read_bytes()
    payloads = [range(*span) for name, span in H.damw_fields(enc).items()
                if name.endswith(".payload")]
    bad = tmp_path / "bad.damw"
    for at in range(len(blob)):
        if any(at in p for p in payloads) and at % 997:
            continue
        flipped = bytearray(blob)
        flipped[at] ^= 0xFF
        bad.write_bytes(bytes(flipped))
        with pytest.raises(FormatError):
            E.load_encoder(str(bad))


def test_edited_pretraining_id_is_refused(tmp_path, tiny_encoder):
    """The id names the pretraining dataset that adapt and meta-train refuse
    to adapt to: editing it, to the same or another length, breaks the digest."""
    enc, _ = tiny_encoder
    path = tmp_path / "enc.damw"
    enc.save(str(path))
    blob = path.read_bytes()
    start, end = H.damw_fields(enc)["id"]
    ident = blob[start:end]
    for edited in (b"X" + ident[1:], b"other"):
        path.write_bytes(blob[:start - 4] + struct.pack("<I", len(edited)) + edited
                         + blob[end:])
        with pytest.raises(FingerprintMismatchError):
            E.load_encoder(str(path))


def test_pretrain_validates_inputs(tiny_encoder):
    _, ds = tiny_encoder
    with pytest.raises(DataError):
        E.pretrain(ds, epochs=0, seed=0)
    import dataclasses
    empty = dataclasses.replace(ds, images=ds.images[:0], labels=ds.labels[:0])
    with pytest.raises(DataError):
        E.pretrain(empty, epochs=1, seed=0)
