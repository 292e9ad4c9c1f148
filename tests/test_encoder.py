import numpy as np
import pytest

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
    single = enc.forward_features(x[0])
    assert batch.shape == (5, 64)
    assert single.shape == (64,)
    # single vs batched goes through different gemm shapes: working precision
    assert np.allclose(batch[0], single, rtol=1e-12, atol=1e-12)
    again = enc.forward_features(x)
    assert np.array_equal(batch, again)  # same shape: bit-identical
    for k in before:
        assert np.array_equal(before[k], enc.weights[k])


def test_forward_features_chunking_is_invisible(tiny_encoder):
    enc, ds = tiny_encoder
    x = ds.images[:10]
    assert np.allclose(enc.forward_features(x, chunk=3),
                       enc.forward_features(x, chunk=128),
                       rtol=1e-12, atol=1e-12)


def test_forward_features_chunks_are_bit_identical():
    """Chunks of 16, 64 (the default), 128 and the whole batch give the same
    bits on 320 images of the 32px encoder. Chunks of 1 or 5 are left out:
    there einsum's optimize=True picks another contraction path and the
    features move by about 2e-14."""
    spec = E.EncoderSpec()
    enc = E.FrozenEncoder(spec, E._init_params(spec, 5))
    x = np.random.default_rng(6).standard_normal((320, 3, 32, 32))
    whole = enc.forward_features(x, chunk=len(x))
    assert np.array_equal(enc.forward_features(x), whole)
    for chunk in (16, 64, 128):
        assert np.array_equal(enc.forward_features(x, chunk=chunk), whole), chunk


def test_var_path_matches_pure_path(tiny_encoder):
    from frameprompt import tensor as T
    enc, ds = tiny_encoder
    x = ds.images[:4]
    tape = T.Tape(0)
    var_feats = enc.features_var(tape, tape.var(x)).value
    assert np.array_equal(var_feats, enc.forward_features(x))


def test_weights_are_frozen(tiny_encoder):
    enc, _ = tiny_encoder
    with pytest.raises(ValueError):
        enc.weights["conv1_w"][0, 0, 0, 0] = 5.0


def test_zero_input_response_recorded(tiny_encoder):
    enc, _ = tiny_encoder
    s = enc.spec
    want = enc.forward_features(np.zeros((s.in_channels, s.height, s.width)))
    assert np.array_equal(enc.f0, want)
    assert np.any(enc.f0 != 0.0)  # bias-only response survives training


def test_input_shape_validated(tiny_encoder):
    enc, _ = tiny_encoder
    with pytest.raises(ShapeError):
        enc.forward_features(np.zeros((3, 8, 8)))


def test_probe_variance_matches_two_pass_oracle(tiny_encoder):
    from frameprompt import tensor as T
    enc, _ = tiny_encoder
    got = enc.probe_channel_variance(64, seed=11)
    s = enc.spec
    noise = T.randn((64, s.in_channels, s.height, s.width), 11)
    feats = enc.forward_features(noise)
    mean = feats.mean(axis=0)
    want = ((feats - mean) ** 2).sum(axis=0) / (64 - 1)
    rel = np.abs(got - want) / np.maximum(1e-30, np.abs(want))
    assert rel.max() < 1e-10
    assert enc.probe_channel_variance(64, seed=11)[0] == got[0]  # deterministic


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
    enc, _ = tiny_encoder
    path = str(tmp_path / "enc.damw")
    enc.save(path)
    blob = open(path, "rb").read()

    bad_magic = tmp_path / "bad_magic.damw"
    bad_magic.write_bytes(b"XXXX" + blob[4:])
    with pytest.raises(BadMagicError):
        E.load_weights(str(bad_magic))

    truncated = tmp_path / "short.damw"
    truncated.write_bytes(blob[: len(blob) // 2])
    with pytest.raises(TruncatedFileError):
        E.load_weights(str(truncated))

    corrupt = bytearray(blob)
    corrupt[100] ^= 0xFF  # flip a payload byte
    flipped = tmp_path / "flip.damw"
    flipped.write_bytes(bytes(corrupt))
    with pytest.raises(FingerprintMismatchError):
        E.load_weights(str(flipped))

    trailing = tmp_path / "trailing.damw"
    trailing.write_bytes(blob + b"\x00\x01")
    with pytest.raises(FormatError) as info:
        E.load_weights(str(trailing))
    assert type(info.value) is FormatError and "2 trailing bytes" in str(info.value)


def test_load_without_sidecar_infers_square_input(tmp_path, tiny_encoder):
    enc, ds = tiny_encoder
    path = str(tmp_path / "enc.damw")
    enc.save(path)
    (tmp_path / "enc.damw.meta.json").unlink()
    loaded = E.load_encoder(path)
    assert loaded.spec.height == enc.spec.height
    assert np.array_equal(loaded.forward_features(ds.images[:2]),
                          enc.forward_features(ds.images[:2]))


def test_pretrain_validates_inputs(tiny_encoder):
    _, ds = tiny_encoder
    with pytest.raises(DataError):
        E.pretrain(ds, epochs=0, seed=0)
    import dataclasses
    empty = dataclasses.replace(ds, images=ds.images[:0], labels=ds.labels[:0])
    with pytest.raises(DataError):
        E.pretrain(empty, epochs=1, seed=0)
