import numpy as np
import pytest

from frameprompt import prompt as P
from frameprompt.errors import (BadMagicError, DataError, FormatError,
                                ShapeError, TruncatedFileError)
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
    with pytest.raises(ShapeError):
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


def _tag_offset(bundle):
    # header 12 + spec 20 + d-field 4 + prototypes
    return 12 + 20 + 4 + 8 * bundle.prototypes.size


@pytest.mark.parametrize("tag", sorted(TAGS))
def test_bundle_roundtrip_bit_exact(tmp_path, tag):
    bundle = _bundle(kind=TAGS[tag])
    path = str(tmp_path / "run.dampb")
    P.save_bundle(path, bundle)
    assert (tmp_path / "run.dampb").read_bytes()[_tag_offset(bundle)] == tag
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
    path = str(tmp_path / "run.dampb")
    P.save_bundle(path, _bundle())
    blob = open(path, "rb").read()

    (tmp_path / "magic.dampb").write_bytes(b"NOPE" + blob[4:])
    with pytest.raises(BadMagicError):
        P.load_bundle(str(tmp_path / "magic.dampb"))

    (tmp_path / "short.dampb").write_bytes(blob[:30])
    with pytest.raises(TruncatedFileError):
        P.load_bundle(str(tmp_path / "short.dampb"))

    (tmp_path / "trail.dampb").write_bytes(blob + b"\x00")
    with pytest.raises(FormatError):
        P.load_bundle(str(tmp_path / "trail.dampb"))

    bad_reserved = bytearray(blob)
    bad_reserved[12 + 16] = 1  # reserved u32 of the frame spec
    (tmp_path / "reserved.dampb").write_bytes(bytes(bad_reserved))
    with pytest.raises(FormatError):
        P.load_bundle(str(tmp_path / "reserved.dampb"))

    bad_tag = bytearray(blob)
    bad_tag[_tag_offset(_bundle())] = len(P.HEAD_KINDS)
    (tmp_path / "tag.dampb").write_bytes(bytes(bad_tag))
    with pytest.raises(FormatError, match="head tag"):
        P.load_bundle(str(tmp_path / "tag.dampb"))

    # a head whose arrays do not match its kind would write an unreadable file
    mismatched = _bundle()
    mismatched.head = P.HeadState("tuning", indices=np.arange(5))
    with pytest.raises(ShapeError):
        P.save_bundle(str(tmp_path / "mismatched.dampb"), mismatched)

    # the config snapshot is the last field; 0xFF never occurs in UTF-8
    (tmp_path / "snap.dampb").write_bytes(blob[:-1] + b"\xff")
    with pytest.raises(FormatError, match="UTF-8"):
        P.load_bundle(str(tmp_path / "snap.dampb"))


def test_interior_enforced_through_deserialization(tmp_path):
    path = str(tmp_path / "run.dampb")
    bundle = _bundle(n=1)
    P.save_bundle(path, bundle)
    blob = bytearray(open(path, "rb").read())
    # prompt payload begins after: header 12 + spec 20 + d-field 4 + protos
    # 1*64*8 + head 6 + 5*8 indices + fingerprint 8
    start = 12 + 20 + 4 + 512 + 6 + 40 + 8
    centre = start + 8 * ((16 * 8 + 8) * 3 // 2)  # a mid-image coordinate
    import struct
    blob[centre:centre + 8] = struct.pack("<d", 0.5)
    (tmp_path / "dirty.dampb").write_bytes(bytes(blob))
    with pytest.raises(ShapeError):
        P.load_bundle(str(tmp_path / "dirty.dampb"))
