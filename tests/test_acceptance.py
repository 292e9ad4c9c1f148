"""Project acceptance checks.

One test per criterion. Property checks pin exact tolerances; directional
checks pin the datasets, seeds and budgets they were sized on. Each test
enforces its own runtime budget, with encoder pretraining charged to the
calibration check (the first one that needs a trained encoder).
"""

import hashlib
import json
import time

import numpy as np
import pytest

from _helpers import make_modemix, oracle_agglomerate, project
from frameprompt import cli, clustering as C, encoder as E, tensor as T
from frameprompt.adapt import adapt
from frameprompt.config import RunConfig
from frameprompt.data import SyntheticSpec, generate_modemix, split_dataset
from frameprompt.meta import meta_train, meta_update
from frameprompt.optim import make_optimizer
from frameprompt.prompt import FrameSpec, PromptFrame, load_bundle, save_bundle

SUITE_SEEDS = (31, 32, 33)
EVAL_SEEDS = (51, 52, 53, 54, 55)


def suite_splits(modes, seed):
    """One downstream task: raw 32px modemix, stratified 70/15/15 split."""
    raw = generate_modemix(SyntheticSpec(modes=modes, classes_per_mode=2,
                                         samples_per_class=60, jitter=0.03,
                                         seed=seed))
    return split_dataset(raw, (0.7, 0.15, 0.15), seed=seed)


def suite_cfg(desk, **kw):
    base = dict(epochs=6, tau=desk.tau_star, lr=0.1, warmup_epochs=2,
                batch_size=64)
    base.update(kw)
    return RunConfig(**base)


def weights_digest(enc):
    h = hashlib.sha256()
    for name in sorted(enc.weights):
        h.update(enc.weights[name].tobytes())
    return h.hexdigest()


# 1 -------------------------------------------------------------------------

def test_autodiff_matches_finite_differences_everywhere():
    """Every op and the end-to-end prompt gradient agree with central
    differences (step 1e-5) to rel err < 1e-6 on 10 seeded instances."""
    from _helpers import assert_gradcheck

    t0 = time.perf_counter()
    w3 = np.random.default_rng(90).standard_normal((2, 2, 3, 3))
    # one encoder stage: 3 images, 2 prompt maps, a repeated route
    x3, m3, b3, r3 = (np.random.default_rng(94 + i).standard_normal(s) for i, s in
                      enumerate(((3, 2, 4, 4), (2, 2, 4, 4), (2,), (3, 2, 2, 2))))
    route3 = np.array([1, 0, 1])
    # one affine layer
    x4, w4, b4, r4 = (np.random.default_rng(80 + i).standard_normal(s) for i, s in
                      enumerate(((3, 4), (4, 2), (2,), (3, 2))))
    r_rows = np.random.default_rng(6).standard_normal((5, 2, 3))
    r_cols = np.random.default_rng(7).standard_normal((3, 3))
    cases = {
        "conv_block_x": ((3, 2, 4, 4), lambda t, x: project(
            T.conv_block(x, w3, b3, m3, route3), r3)),
        "conv_block_w": ((2, 2, 3, 3), lambda t, x: project(
            T.conv_block(x3, x, b3, m3, route3), r3)),
        "conv_block_b": ((2,), lambda t, x: project(
            T.conv_block(x3, w3, x, m3, route3), r3)),
        "conv_block_maps": ((2, 2, 4, 4), lambda t, x: project(
            T.conv_block(x3, w3, b3, x, route3), r3)),
        "linear_x": ((3, 4), lambda t, x: project(T.linear(x, w4, b4), r4)),
        "linear_w": ((4, 2), lambda t, x: project(T.linear(x4, x, b4), r4)),
        "linear_b": ((2,), lambda t, x: project(T.linear(x4, w4, x), r4)),
        "conv2d_x": ((1, 2, 6, 6), lambda t, x: project(T.conv2d(x, w3))),
        "conv2d_w": ((2, 2, 3, 3), lambda t, x: project(T.conv2d(t.var(
            np.random.default_rng(5).standard_normal((1, 2, 6, 6))), x))),
        "reshape": ((2, 6), lambda t, x: project(T.reshape(x, (3, 4)),
                                                 T.reshape(x, (3, 4)))),
        # a repeated route, as a prompt that several samples share
        "take_axis0": ((3, 2, 3), lambda t, x: project(T.take(
            x, np.array([2, 0, 2, 2, 1]), 0), r_rows)),
        "take_axis1": ((3, 5), lambda t, x: project(T.take(
            x, np.array([0, 2, 2]), 1), r_cols)),
        "cross_entropy": ((4, 5), lambda t, x: T.cross_entropy(
            x, np.array([0, 3, 1, 4]))),
    }
    for name, (shape, build) in cases.items():
        for trial in range(10):
            rng = np.random.default_rng([91, trial])
            x = rng.standard_normal(shape)
            coords = rng.choice(x.size, size=min(5, x.size), replace=False)
            assert_gradcheck(build, x, coords=coords, tol=1e-6)

    # end to end: d(cross entropy)/d(frame prompt) through the encoder
    spec8 = E.EncoderSpec(height=8, width=8)
    frame = FrameSpec.for_input(3, 8, 8)
    border = np.flatnonzero(frame.mask().reshape(-1))
    for trial in range(10):
        rng = np.random.default_rng([92, trial])
        enc = E.FrozenEncoder(spec8, E._init_params(spec8, trial))
        x = rng.standard_normal((2, 3, 8, 8))
        labels = rng.integers(0, 4, size=2)
        p = PromptFrame.random(frame, 0.05, seed=[93, trial])

        def loss_of(pvals):
            logits = enc.forward_features(x + pvals[None])[:, :4]
            m = logits.max(axis=1, keepdims=True)
            lse = m[:, 0] + np.log(np.exp(logits - m).sum(axis=1))
            return float(np.mean(lse - logits[np.arange(2), labels]))

        tape = T.Tape()
        pv = tape.var(p.values[None], requires_grad=True)
        logits = T.take(enc.features_var(x, pv, np.zeros(2, dtype=np.int64)),
                        np.arange(4), 1)
        T.backward(T.cross_entropy(logits, labels))
        ad = pv.grad[0].reshape(-1)

        h = 1e-5
        for c in rng.choice(border, size=4, replace=False):
            flat = p.values.reshape(-1)
            orig = flat[c]
            flat[c] = orig + h
            up = loss_of(p.values)
            flat[c] = orig - h
            dn = loss_of(p.values)
            flat[c] = orig
            fd = (up - dn) / (2 * h)
            rel = abs(ad[c] - fd) / max(1.0, abs(fd))
            assert rel < 1e-6, f"prompt coord {c}: ad {ad[c]} fd {fd}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 30, f"gradient checks took {elapsed:.1f}s"
    print(f"criterion 1 PASS: all ops + end-to-end prompt grad, {elapsed:.1f}s")


# 2 -------------------------------------------------------------------------

def test_linkage_matches_brute_force_oracle():
    """Merge sequence identical to the O(n^3) recomputing oracle on 50
    random instances up to n=64."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(95)
    for trial in range(50):
        n = int(rng.integers(2, 65))
        d = int(rng.integers(1, 9))
        x = rng.standard_normal((n, d)) * rng.uniform(0.3, 3.0)
        got = C.agglomerate(x).merges
        want = oracle_agglomerate(x)
        assert [m[:2] for m in got] == [m[:2] for m in want], f"trial {trial}"
        assert [m[3] for m in got] == [m[3] for m in want]
        for g, w in zip(got, want):
            assert abs(g[2] - w[2]) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert elapsed < 20, f"oracle comparison took {elapsed:.1f}s"
    print(f"criterion 2 PASS: 50 instances identical, {elapsed:.1f}s")


# 3 -------------------------------------------------------------------------

def test_prototypes_and_routing_are_exact():
    """Prototypes equal independent per-subset means to 1e-12; routing equals
    an exhaustive scan on 1000 random features."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(96)
    feats = rng.standard_normal((500, 16))
    labels = np.concatenate([np.arange(7), rng.integers(0, 7, size=493)])
    cut = C.ClusterCut(labels.astype(np.int64), 7)
    protos = C.prototypes(feats, cut)
    for t in range(7):
        want = feats[labels == t].mean(axis=0)
        assert np.max(np.abs(protos[t] - want)) < 1e-12

    queries = rng.standard_normal((1000, 16))
    got = C.route_features(queries, protos)
    for i in range(1000):
        d2 = ((protos - queries[i]) ** 2).sum(axis=1)
        best, scan = 0, d2[0]
        for j in range(1, 7):
            if d2[j] < scan:
                best, scan = j, d2[j]
        assert got[i] == best, f"query {i}"
        assert C.route_features(queries[i:i + 1], protos)[0] == best
    elapsed = time.perf_counter() - t0
    assert elapsed < 5, f"exactness checks took {elapsed:.1f}s"
    print(f"criterion 3 PASS: means exact, 1000 routes exact, {elapsed:.1f}s")


# 4 -------------------------------------------------------------------------

def test_meta_update_closed_form_and_fixed_point():
    """The meta step is pure arithmetic: componentwise error must be exactly
    zero, and identical snapshots leave the prompt unchanged."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(97)
    for trial in range(20):
        pm = rng.standard_normal((3, 8, 8))
        k = int(rng.integers(1, 6))
        snaps = [rng.standard_normal((3, 8, 8)) for _ in range(k)]
        gamma = float(rng.uniform(0.05, 0.95))
        acc = np.zeros_like(pm)
        for s in snaps:
            acc += s - pm
        want = pm + gamma * (acc / k)
        assert np.array_equal(meta_update(pm, snaps, gamma), want)
        assert np.array_equal(meta_update(pm, [pm.copy() for _ in range(k)],
                                          gamma), pm)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1, f"meta step checks took {elapsed:.2f}s"
    print(f"criterion 4 PASS: closed form exact, fixed point held, {elapsed:.2f}s")


# 5 -------------------------------------------------------------------------

def test_calibrated_threshold_adapts_cluster_count_to_diversity(desk):
    """With the calibrated threshold, 1-mode data stays near one prompt
    (N <= 2) and 8-mode data splits into many (N >= 4), for every seed.
    Budget includes encoder pretraining and calibration."""
    t0 = time.perf_counter()
    enc = desk.encoder
    counts = {1: [], 8: []}
    for modes in (1, 8):
        for seed in SUITE_SEEDS:
            train = suite_splits(modes, seed)[0]
            feats = enc.forward_features(train.images)
            dend = C.agglomerate(feats)
            cut = C.cut(dend, desk.tau_star, max_clusters=train.class_count)
            counts[modes].append(cut.n_clusters)
    assert all(n <= 2 for n in counts[1]), f"1-mode clusters {counts[1]}"
    assert all(n >= 4 for n in counts[8]), f"8-mode clusters {counts[8]}"
    elapsed = time.perf_counter() - t0 + desk.setup_seconds
    assert elapsed < 120, f"calibration path took {elapsed:.1f}s with pretraining"
    print(f"criterion 5 PASS: N(1 mode)={counts[1]}, N(8 modes)={counts[8]}, "
          f"{elapsed:.1f}s incl. pretraining")


# 6 -------------------------------------------------------------------------

def test_gain_over_single_prompt_grows_with_diversity(desk):
    """3-seed mean gain (multi-prompt minus single-prompt test accuracy) is
    >= 0 on every suite dataset, strictly positive at 8 modes, and within
    one accuracy point of zero at 1 mode."""
    t0 = time.perf_counter()
    enc = desk.encoder
    cfg = suite_cfg(desk)
    vp_cfg = suite_cfg(desk, force_single_prompt=True)
    means = {}
    for modes in (1, 2, 4, 8):
        gains = []
        for seed in SUITE_SEEDS:
            train, _, test = suite_splits(modes, seed)
            _, m_dam = adapt(train, enc, cfg, "active", seed=seed, test=test)
            _, m_vp = adapt(train, enc, vp_cfg, "active", seed=seed, test=test)
            gains.append(m_dam.final("test")[3] - m_vp.final("test")[3])
        means[modes] = float(np.mean(gains))
    assert all(v >= -1e-12 for v in means.values()), f"negative mean gain {means}"
    assert means[8] > 0.0, f"8-mode gain not positive: {means}"
    assert abs(means[1]) <= 0.01 + 1e-12, f"1-mode gain off zero: {means}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 900, f"suite took {elapsed:.1f}s"
    print("criterion 6 PASS: mean gains "
          + ", ".join(f"{m} modes {v:+.4f}" for m, v in means.items())
          + f", {elapsed:.1f}s")


# 7 -------------------------------------------------------------------------

def test_meta_initialization_speeds_up_and_stabilizes_adaptation(desk):
    """Meta prompt trained on two disjoint 4-mode datasets: epoch-1 test
    accuracy (5-seed mean) is at least the random-init value, and the spread
    of final accuracy does not widen."""
    t0 = time.perf_counter()
    enc = desk.encoder
    cfg = suite_cfg(desk, meta_epochs=10, inner_steps=4, eta=0.5, gamma=0.5,
                     meta_batch_size=16)
    meta_sets = [make_modemix(4, 2, 40, 0.05, seed=41),
                 make_modemix(4, 2, 40, 0.05, seed=42)]
    result = meta_train(meta_sets, enc, cfg, seed=7)
    assert result.epoch_losses[-1] < result.epoch_losses[0]

    first = {"meta": [], "random": []}
    final = {"meta": [], "random": []}
    for seed in EVAL_SEEDS:
        train, _, test = suite_splits(4, seed)
        for arm, init in (("meta", result.prompt), ("random", None)):
            _, metrics = adapt(train, enc, cfg, "active", seed=seed, meta=init,
                               val=test, test=test)
            val_rows = [r for r in metrics.rows if r[1] == "val"]
            first[arm].append(val_rows[0][3])
            final[arm].append(metrics.final("test")[3])
    e1_meta, e1_rand = np.mean(first["meta"]), np.mean(first["random"])
    sd_meta, sd_rand = np.std(final["meta"]), np.std(final["random"])
    assert e1_meta >= e1_rand - 1e-12, \
        f"epoch-1 meta {e1_meta:.4f} < random {e1_rand:.4f}"
    assert sd_meta <= sd_rand + 1e-12, \
        f"final std meta {sd_meta:.4f} > random {sd_rand:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 1200, f"meta comparison took {elapsed:.1f}s"
    print(f"criterion 7 PASS: epoch-1 {e1_meta:.3f} vs {e1_rand:.3f}, "
          f"final std {sd_meta:.4f} vs {sd_rand:.4f}, {elapsed:.1f}s")


# 8 -------------------------------------------------------------------------

def test_variance_selected_mapping_beats_first_channels(desk):
    """ActiveMapping >= HardCodedMapping on the 4-mode dataset (3-seed mean
    of final test accuracy)."""
    t0 = time.perf_counter()
    enc = desk.encoder
    cfg = suite_cfg(desk)
    accs = {"active": [], "hardcoded": []}
    for seed in SUITE_SEEDS:
        train, _, test = suite_splits(4, seed)
        for kind in accs:
            _, metrics = adapt(train, enc, cfg, kind, seed=seed, test=test)
            accs[kind].append(metrics.final("test")[3])
    mean_active = float(np.mean(accs["active"]))
    mean_hard = float(np.mean(accs["hardcoded"]))
    assert mean_active >= mean_hard - 1e-12, \
        f"active {mean_active:.4f} < hardcoded {mean_hard:.4f}"
    elapsed = time.perf_counter() - t0
    assert elapsed < 600, f"mapping comparison took {elapsed:.1f}s"
    print(f"criterion 8 PASS: active {mean_active:.4f} vs hardcoded "
          f"{mean_hard:.4f}, {elapsed:.1f}s")


# 9 -------------------------------------------------------------------------

def test_frozen_bytes_roundtrips_and_reproducible_manifests(desk, tmp_path):
    """Adaptation and meta training leave the encoder bytes untouched; weight
    and bundle files round-trip bit-exactly; rerunning the same command
    reproduces the same manifest output hashes."""
    t0 = time.perf_counter()
    enc = desk.encoder
    before = weights_digest(enc)

    raw = generate_modemix(SyntheticSpec(modes=1, classes_per_mode=2,
                                         samples_per_class=20, jitter=0.03,
                                         seed=81))
    train, _, _ = split_dataset(raw, (0.7, 0.15, 0.15), seed=81)
    cfg = suite_cfg(desk, epochs=1, meta_epochs=1, inner_steps=1,
                     meta_batch_size=8)
    bundle, _ = adapt(train, enc, cfg, "active", seed=81)
    meta_train([make_modemix(2, 2, 10, 0.05, seed=82)], enc, cfg, seed=82)
    assert weights_digest(enc) == before, "encoder bytes changed"

    wpath = tmp_path / "enc.damw"
    enc.save(str(wpath))
    reloaded = E.load_encoder(str(wpath))
    again = tmp_path / "enc2.damw"
    reloaded.save(str(again))
    assert wpath.read_bytes() == again.read_bytes(), "weight file not stable"
    assert reloaded.fingerprint == enc.fingerprint

    b1 = tmp_path / "run.dampb"
    save_bundle(str(b1), bundle)
    b2 = tmp_path / "run2.dampb"
    save_bundle(str(b2), load_bundle(str(b1)))
    assert b1.read_bytes() == b2.read_bytes(), "bundle file not stable"

    desc = tmp_path / "task.json"
    desc.write_text(json.dumps({"kind": "synthetic", "modes": 1,
                                "classes_per_mode": 2, "samples_per_class": 20,
                                "jitter": 0.03, "seed": 81}))
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"epochs": 1, "tau": desk.tau_star,
                                    "batch_size": 64}))
    hashes = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        rc = cli.main(["adapt", "--data", str(desc), "--encoder", str(wpath),
                       "--mode", "active", "--seed", "81",
                       "--config", str(cfg_path),
                       "--out", str(d / "run.dampb")])
        assert rc == 0
        hashes.append(json.load(open(d / "run.manifest.json"))["outputs_hash"])
    assert hashes[0] == hashes[1], "manifest hashes differ across identical runs"
    elapsed = time.perf_counter() - t0
    assert elapsed < 60, f"format guarantees took {elapsed:.1f}s"
    print(f"criterion 9 PASS: frozen bytes, stable files, equal manifests, "
          f"{elapsed:.1f}s")


# 10 ------------------------------------------------------------------------

def test_frame_geometry_and_interior_stays_zero():
    """A 224px frame of width 30 exposes exactly 69840 learnable values, and
    100 optimizer steps with dense gradients never touch the interior."""
    t0 = time.perf_counter()
    spec = FrameSpec(3, 224, 224, 30)
    assert spec.learnable_count == 69840
    assert int(spec.mask().sum()) == 69840

    small = FrameSpec(3, 32, 32, 4)
    interior = ~small.mask().astype(bool)
    rng = np.random.default_rng(99)
    for name in ("adam", "sgd"):
        p = PromptFrame.random(small, 0.01, seed=[99])
        opt = make_optimizer(name, 0.05, momentum=0.9)
        for step in range(100):
            p.grad_step(opt, "p", rng.standard_normal(p.values.shape))
        assert np.all(p.values[interior] == 0.0), name
        assert np.array_equal(p.values, p.values * small.mask())
    elapsed = time.perf_counter() - t0
    assert elapsed < 10, f"geometry checks took {elapsed:.1f}s"
    print(f"criterion 10 PASS: 69840 learnable, interior untouched, {elapsed:.1f}s")
