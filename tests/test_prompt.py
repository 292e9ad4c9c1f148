import struct
import warnings
from pathlib import Path

import numpy as np
import pytest

import _helpers as H
from frameprompt import prompt as P
from frameprompt.errors import (BadMagicError, DataError, FingerprintMismatchError,
                                FormatError, ShapeError, TruncatedFileError)
from frameprompt.optim import Adam, Sgd


def test_default_border_scales_with_resolution():
    assert P.FrameSpec.for_input(3, 224, 224).border == 30
    assert P.FrameSpec.for_input(3, 32, 32).border == 4
    assert P.FrameSpec.for_input(3, 8, 8).border == 1  # clamped to minimum


def test_learnable_count():
    spec = P.FrameSpec(3, 224, 224, 30)
    assert spec.learnable_count == 69840
    spec32 = P.FrameSpec(3, 32, 32, 4)
    assert spec32.learnable_count == 3 * (32 * 32 - 24 * 24)


def test_frame_spec_validation():
    with pytest.raises(ShapeError):
        P.FrameSpec(3, 8, 8, 4)  # band swallows the whole image
    with pytest.raises(ShapeError):
        P.FrameSpec(3, 16, 16, 0)


def test_mask_counts_and_interior():
    spec = P.FrameSpec(2, 12, 10, 2)
    m = spec.mask()
    assert m.sum() == spec.learnable_count
    assert np.all(m[:, 2:-2, 2:-2] == 0.0)
    assert np.all(m[:, :2, :] == 1.0)


def test_random_prompt_interior_zero_and_deterministic():
    spec = P.FrameSpec(3, 16, 16, 3)
    a = P.PromptFrame.random(spec, 0.05, seed=4)
    b = P.PromptFrame.random(spec, 0.05, seed=4)
    c = P.PromptFrame.random(spec, 0.05, seed=5)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    assert np.all(a.values[:, 3:-3, 3:-3] == 0.0)
    assert np.any(a.values != 0.0)


def test_constructor_rejects_interior_payload():
    spec = P.FrameSpec(1, 8, 8, 1)
    vals = np.zeros((1, 8, 8))
    vals[0, 4, 4] = 1e-9
    with pytest.raises(ShapeError, match="interior"):
        P.PromptFrame(spec, vals)
    # a non-finite value is refused as such, in the band or inside it, and
    # no arithmetic on it warns
    for at in ((0, 0, 3), (0, 4, 4)):
        for value in (np.nan, np.inf, -np.inf):
            vals = np.zeros((1, 8, 8))
            vals[at] = value
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DataError, match="not all finite"):
                    P.PromptFrame(spec, vals)


def test_masked_steps_keep_interior_zero():
    spec = P.FrameSpec(3, 16, 16, 2)
    interior = (slice(None), slice(2, -2), slice(2, -2))
    rng = np.random.default_rng(6)
    for opt in (Sgd(0.5, momentum=0.9), Adam(0.5)):
        p = P.PromptFrame.random(spec, 0.1, seed=7)
        for step in range(100):
            grad = rng.standard_normal(p.values.shape)  # dense, interior too
            p.grad_step(opt, "p", grad)
            assert np.all(p.values[interior] == 0.0)
        assert np.any(p.values != 0.0)


def test_sgd_inner_step_masked():
    spec = P.FrameSpec(1, 8, 8, 1)
    p = P.PromptFrame(spec)
    g = np.ones((1, 8, 8))
    p.grad_step(Sgd(0.5, momentum=0.0), "p", g)
    assert np.all(p.values[0, 1:-1, 1:-1] == 0.0)
    assert np.all(p.values[0, 0, :] == -0.5)
    p2 = p.copy()
    p2.grad_step(Sgd(0.0, momentum=0.0), "p", g)  # eta 0: no movement
    assert np.array_equal(p2.values, p.values)


def test_steps_refuse_a_prompt_past_the_bound():
    spec = P.FrameSpec(1, 8, 8, 1)
    g = np.ones((1, 8, 8))
    p = P.PromptFrame(spec)
    # landing on the bound is allowed
    p.grad_step(Sgd(P.PROMPT_BOUND, momentum=0.0), "p", -g)
    assert np.max(np.abs(p.values)) == P.PROMPT_BOUND
    with pytest.raises(DataError, match="diverged"):
        P.PromptFrame(spec).grad_step(Sgd(2 * P.PROMPT_BOUND, momentum=0.0), "p", g)
    with pytest.raises(DataError, match="diverged"):
        P.PromptFrame(spec).grad_step(Sgd(1.0, momentum=0.0), "p",
                                      np.full((1, 8, 8), np.nan))


# the on-disk tag of each head kind: existing bundles are read by these
TAGS = {0: "tuning", 1: "freezing", 2: "hardcoded", 3: "active"}


def _bundle(n=3, meta=False, kind="active"):
    spec = P.FrameSpec(3, 16, 16, 2)
    prompts = [P.PromptFrame.random(spec, 0.1, seed=i) for i in range(n)]
    rng = np.random.default_rng(9)
    protos = rng.standard_normal((n, 64))
    if kind in ("tuning", "freezing"):
        head = P.HeadState(kind, weight=rng.standard_normal((64, 5)),
                           bias=rng.standard_normal(5))
    else:
        head = P.HeadState(kind, indices=np.array([3, 1, 60, 2, 7]))
    return P.PromptBundle(prompts, protos, head, 0xABCD,
                          '{"lr": 0.1}', meta_initialized=meta)


@pytest.mark.parametrize("tag", sorted(TAGS))
def test_bundle_roundtrip_bit_exact(tmp_path, tag):
    bundle = _bundle(kind=TAGS[tag])
    path = str(tmp_path / "run.dampb")
    P.save_bundle(path, bundle)
    assert (tmp_path / "run.dampb").read_bytes()[H.damp_fields(bundle)["head_tag"][0]] == tag
    loaded = P.load_bundle(path)
    assert loaded.n == bundle.n
    assert loaded.head.kind == TAGS[tag] and loaded.head.k == 5
    assert loaded.encoder_fingerprint == bundle.encoder_fingerprint
    assert loaded.config_snapshot == bundle.config_snapshot
    assert np.array_equal(loaded.prototypes, bundle.prototypes)
    for a, b in zip(loaded.prompts, bundle.prompts):
        assert np.array_equal(a.values, b.values)
    if tag < 2:
        assert np.array_equal(loaded.head.weight, bundle.head.weight)
        assert np.array_equal(loaded.head.bias, bundle.head.bias)
    else:
        assert np.array_equal(loaded.head.indices, bundle.head.indices)
    path2 = str(tmp_path / "again.dampb")
    P.save_bundle(path2, loaded)
    assert (tmp_path / "run.dampb").read_bytes() == (tmp_path / "again.dampb").read_bytes()


def test_meta_flag_roundtrip(tmp_path):
    path = str(tmp_path / "meta.dampb")
    P.save_bundle(path, _bundle(n=1, meta=True))
    assert P.load_bundle(path).meta_initialized is True
    path2 = str(tmp_path / "plain.dampb")
    P.save_bundle(path2, _bundle(n=1, meta=False))
    assert P.load_bundle(path2).meta_initialized is False


def test_bundle_error_taxonomy(tmp_path):
    bundle = _bundle()
    path = str(tmp_path / "run.dampb")
    P.save_bundle(path, bundle)
    blob = Path(path).read_bytes()
    fields = H.damp_fields(bundle)

    (tmp_path / "magic.dampb").write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(BadMagicError):
        P.load_bundle(str(tmp_path / "magic.dampb"))

    # cut inside the header, then past it: the latter moves the digest
    (tmp_path / "short.dampb").write_bytes(blob[:12])
    with pytest.raises(TruncatedFileError):
        P.load_bundle(str(tmp_path / "short.dampb"))
    (tmp_path / "short.dampb").write_bytes(blob[:30])
    with pytest.raises(FingerprintMismatchError):
        P.load_bundle(str(tmp_path / "short.dampb"))

    (tmp_path / "trail.dampb").write_bytes(blob + b"\x00")
    with pytest.raises(FingerprintMismatchError):
        P.load_bundle(str(tmp_path / "trail.dampb"))

    # v2 has no reserved field: an edit to the frame spec is an edit like any other
    edited_spec = bytearray(blob)
    edited_spec[fields["border"][0]] ^= 1
    (tmp_path / "spec.dampb").write_bytes(bytes(edited_spec))
    with pytest.raises(FingerprintMismatchError):
        P.load_bundle(str(tmp_path / "spec.dampb"))

    (tmp_path / "v1.dampb").write_bytes(blob[:4] + struct.pack("<I", 1) + blob[8:])
    with pytest.raises(FormatError, match="unsupported bundle version 1"):
        P.load_bundle(str(tmp_path / "v1.dampb"))

    start, end = fields["head_tag"]
    (tmp_path / "tag.dampb").write_bytes(
        H.resealed(blob, start, end, bytes([len(P.HEAD_KINDS)])))
    with pytest.raises(FormatError, match="head tag"):
        P.load_bundle(str(tmp_path / "tag.dampb"))

    # a head whose arrays do not match its kind would write an unreadable file
    mismatched = _bundle()
    mismatched.head = P.HeadState("tuning", indices=np.arange(5))
    with pytest.raises(ShapeError):
        P.save_bundle(str(tmp_path / "mismatched.dampb"), mismatched)

    # the config snapshot is the last field; 0xFF never occurs in UTF-8
    end = fields["snapshot"][1]
    (tmp_path / "snap.dampb").write_bytes(H.resealed(blob, end - 1, end, b"\xff"))
    with pytest.raises(FormatError, match="UTF-8"):
        P.load_bundle(str(tmp_path / "snap.dampb"))


def test_interior_enforced_through_deserialization(tmp_path):
    path = str(tmp_path / "run.dampb")
    bundle = _bundle(n=1)
    P.save_bundle(path, bundle)
    blob = Path(path).read_bytes()
    # a mid-image coordinate of the first prompt, under a fresh digest so the
    # edit reaches PromptFrame's own check
    centre = H.damp_fields(bundle)["prompt0"][0] + 8 * ((16 * 8 + 8) * 3 // 2)
    (tmp_path / "dirty.dampb").write_bytes(
        H.resealed(blob, centre, centre + 8, struct.pack("<d", 0.5)))
    with pytest.raises(ShapeError):
        P.load_bundle(str(tmp_path / "dirty.dampb"))


@pytest.mark.parametrize("kind", ["tuning", "active"])
def test_every_corruption_of_a_bundle_is_refused(tmp_path, kind):
    """A flipped byte at each end of every field, a cut at each field
    boundary, trailing bytes, a version 1 header, and a non-UTF-8 snapshot,
    an unknown head tag, unknown flag bits or a nonzero prompt interior
    under a valid digest each raise their own typed error."""
    bundle = _bundle(kind=kind)
    path = tmp_path / "run.dampb"
    P.save_bundle(str(path), bundle)
    bad = tmp_path / "bad.dampb"
    for case, blob, name in H.corrupt_damp(bundle, path.read_bytes()):
        bad.write_bytes(blob)
        with pytest.raises((FormatError, ShapeError)) as info:
            P.load_bundle(str(bad))
        assert type(info.value).__name__ == name, case
        if case == "version 1":
            assert "unsupported bundle version 1" in str(info.value)


def test_any_one_byte_edit_of_a_bundle_is_refused(tmp_path):
    """Every byte outside the array payloads, and every 97th byte inside
    them, flipped: each file is refused with a FormatError."""
    bundle = _bundle(kind="tuning")
    path = tmp_path / "run.dampb"
    P.save_bundle(str(path), bundle)
    blob = path.read_bytes()
    payloads = [range(*span) for name, span in H.damp_fields(bundle).items()
                if name in ("prototypes", "head_weight", "head_bias")
                or name.startswith("prompt")]
    bad = tmp_path / "bad.dampb"
    for at in range(len(blob)):
        if any(at in p for p in payloads) and at % 97:
            continue
        flipped = bytearray(blob)
        flipped[at] ^= 0xFF
        bad.write_bytes(bytes(flipped))
        with pytest.raises(FormatError):
            P.load_bundle(str(bad))
