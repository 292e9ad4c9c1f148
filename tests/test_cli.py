"""End-to-end command line coverage on 16px synthetic data."""

import json
import os
import shutil

import numpy as np
import pytest

from frameprompt import cli, encoder as E
from frameprompt.prompt import HeadState, load_bundle, save_bundle

CONFIG = {"pretrain_epochs": 2, "epochs": 2, "batch_size": 16, "lr": 0.05,
          "warmup_epochs": 1, "probe_size": 128, "pairs": 200,
          "noise_count": 32, "meta_epochs": 2, "inner_steps": 2,
          "meta_batch_size": 4, "eta": 0.1}


def _descriptor(path, **kw):
    kw.setdefault("kind", "synthetic")
    kw.setdefault("size", 16)
    kw.setdefault("jitter", 0.08)
    kw.setdefault("classes_per_mode", 2)
    path.write_text(json.dumps(kw))
    return str(path)


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Run every subcommand once and hand the artifact paths to the tests."""
    root = tmp_path_factory.mktemp("cli")
    runs = root / "runs"
    runs.mkdir()
    p = {
        "root": root,
        "runs": runs,
        "config": root / "config.json",
        "vp_config": root / "vp_config.json",
        "pre": _descriptor(root / "pre.json", modes=2, samples_per_class=12, seed=3),
        "ref": _descriptor(root / "ref.json", modes=1, samples_per_class=20, seed=21),
        "meta1": _descriptor(root / "meta1.json", modes=2, samples_per_class=10, seed=61),
        "meta2": _descriptor(root / "meta2.json", modes=2, samples_per_class=10, seed=62),
        "down": _descriptor(root / "down.json", modes=2, samples_per_class=12, seed=5),
        "enc": str(root / "enc.damw"),
        "calib": str(root / "enc.calib.json"),
        "meta_bundle": str(root / "meta.dampb"),
        "dam_bundle": str(runs / "dam.dampb"),
        "vp_bundle": str(runs / "vp.dampb"),
        "div_csv": str(runs / "down.diversity.csv"),
        "eval_json": str(runs / "eval.json"),
        "report_csv": str(root / "report.csv"),
    }
    p["config"].write_text(json.dumps(CONFIG))
    p["vp_config"].write_text(json.dumps({**CONFIG, "force_single_prompt": True}))
    cfg = ["--config", str(p["config"])]
    steps = [
        ["pretrain", "--data", p["pre"], "--out", p["enc"], "--seed", "3"] + cfg,
        ["calibrate", "--encoder", p["enc"], "--reference", p["ref"],
         "--out", p["calib"]] + cfg,
        ["diversity", "--data", p["down"], "--encoder", p["enc"],
         "--space", "feature_l2", "--out", p["div_csv"]] + cfg,
        ["meta-train", "--datasets", f"{p['meta1']},{p['meta2']}",
         "--encoder", p["enc"], "--out", p["meta_bundle"]] + cfg,
        ["adapt", "--data", p["down"], "--encoder", p["enc"], "--meta",
         p["meta_bundle"], "--mode", "active", "--out", p["dam_bundle"],
         "--seed", "1"] + cfg,
        ["adapt", "--data", p["down"], "--encoder", p["enc"], "--mode",
         "active", "--out", p["vp_bundle"], "--seed", "1",
         "--config", str(p["vp_config"])],
        ["eval", "--data", p["down"], "--bundle", p["dam_bundle"],
         "--encoder", p["enc"], "--out", p["eval_json"], "--seed", "1"] + cfg,
        ["report", "--runs", str(runs), "--out", p["report_csv"]],
    ]
    for argv in steps:
        rc = cli.main(argv)
        assert rc == 0, f"{argv[0]} exited {rc}"
    return p


def test_pretrain_writes_weights_sidecar_and_manifest(pipeline):
    assert os.path.exists(pipeline["enc"])
    meta = json.load(open(pipeline["enc"] + ".meta.json"))
    assert meta["pretrain_dataset_id"].startswith("modemix-m2c2n12")
    manifest = json.load(open(pipeline["enc"] + ".manifest.json"))
    assert manifest["command"] == "pretrain"
    assert set(manifest["inputs"]) == {"data", "config"}
    assert len(manifest["outputs_hash"]) == 64


def test_calibrate_writes_threshold(pipeline):
    doc = json.load(open(pipeline["calib"]))
    assert doc["tau_star"] > 0
    assert doc["probe_size"] == 128
    meta = json.load(open(pipeline["enc"] + ".meta.json"))
    assert doc["encoder_fingerprint"] == meta["fingerprint"]


def test_diversity_csv_shape(pipeline):
    lines = open(pipeline["div_csv"]).read().splitlines()
    assert lines[0] == "dataset,metric,pairs,seed,score,score_std"
    cells = lines[1].split(",")
    assert cells[1] == "feature_l2" and int(cells[2]) == 200
    assert float(cells[4]) > 0


def test_meta_bundle_flag_round_trips(pipeline):
    bundle = load_bundle(pipeline["meta_bundle"])
    assert bundle.meta_initialized and bundle.n == 1
    snap = json.loads(bundle.config_snapshot)
    assert len(snap["meta_dataset_ids"]) == 2
    assert len(snap["epoch_losses"]) == CONFIG["meta_epochs"]


def test_adapt_artifacts(pipeline):
    stem = pipeline["dam_bundle"][: -len(".dampb")]
    summary = json.load(open(stem + ".summary.json"))
    assert summary["mode"] == "active" and summary["meta_initialized"]
    assert summary["n_clusters"] >= 1
    assert 0 <= summary["test_top1"] <= 1
    lines = open(stem + ".metrics.csv").read().splitlines()
    assert lines[0] == "epoch,split,loss,top1"
    # 2 epochs x (train+val) + test
    assert len(lines) == 1 + 2 * 2 + 1
    assert [len(summary["seconds"][k]) for k in ("train", "val", "test")] == [2, 2, 1]
    assert all(t >= 0 for ts in summary["seconds"].values() for t in ts)
    # the rows hold no timing, so the manifest hashes the csv as written
    csv = stem + ".metrics.csv"
    assert cli.canonical_bytes(csv) == open(csv, "rb").read()
    vp_summary = json.load(open(pipeline["vp_bundle"][: -len(".dampb")]
                                + ".summary.json"))
    assert vp_summary["force_single_prompt"] and vp_summary["n_clusters"] == 1


def test_eval_histogram_covers_test_split(pipeline):
    doc = json.load(open(pipeline["eval_json"]))
    assert doc["split"] == "test"
    bundle = load_bundle(pipeline["dam_bundle"])
    assert len(doc["routing_histogram"]) == bundle.n
    assert sum(doc["routing_histogram"]) > 0
    assert 0 <= doc["top1"] <= 1


def test_report_aggregates_both_arms(pipeline):
    lines = open(pipeline["report_csv"]).read().splitlines()
    assert lines[0] == "dataset,diversity,vp_accuracy,damvp_accuracy,gain"
    rows = {l.split(",")[0]: l.split(",") for l in lines[1:]}
    ds_id = json.load(open(pipeline["dam_bundle"][: -len(".dampb")]
                           + ".summary.json"))["dataset"]
    row = rows[ds_id]
    vp, dam, gain = float(row[2]), float(row[3]), float(row[4])
    assert gain == pytest.approx((dam - vp) * 100.0, abs=1e-9)
    assert float(row[1]) > 0  # diversity column joined from the csv


def test_report_leaves_runs_without_test_accuracy_out(pipeline, tmp_path, capsys):
    # an empty test split makes adapt write "test_top1": null
    no_test = tmp_path / "no_test.json"
    no_test.write_text(json.dumps({**CONFIG, "epochs": 1, "split_fractions": [0.8, 0.2, 0.0]}))
    runs = tmp_path / "runs"
    runs.mkdir()
    assert cli.main(["adapt", "--data", pipeline["down"], "--encoder", pipeline["enc"],
                     "--mode", "active", "--out", str(runs / "no_test.dampb"), "--seed", "1",
                     "--config", str(no_test)]) == 0
    summary = json.load(open(runs / "no_test.summary.json"))
    assert summary["test_top1"] is None and not summary["force_single_prompt"]
    capsys.readouterr()
    assert cli.main(["report", "--runs", str(runs)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == [f"{summary['dataset']},nan,nan,nan,nan"]
    # next to a run with a test accuracy, the mean is that run's accuracy
    vp_summary = pipeline["vp_bundle"][: -len(".dampb")] + ".summary.json"
    shutil.copy(vp_summary, runs / "vp.summary.json")
    assert cli.main(["report", "--runs", str(runs)]) == 0
    vp = json.load(open(vp_summary))["test_top1"]
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == [f"{summary['dataset']},nan,{vp:.6f},nan,nan"]


def test_report_refuses_malformed_summaries(tmp_path, capsys):
    texts = ["{", "[1]", json.dumps({"mode": "active", "test_top1": 0.5}),
             json.dumps({"dataset": "d", "test_top1": "high"})]
    files = [("run.summary.json", text) for text in texts]
    # diversity csvs whose score is not a number or whose row is cut short
    for row in ("d,feature_l2,10,0,abc,0", "d,feature_l2"):
        files.append(("d.diversity.csv", "dataset,metric,pairs,seed,score,score_std\n"
                                         + row + "\n"))
    for i, (name, text) in enumerate(files):
        runs = tmp_path / f"runs{i}"
        runs.mkdir()
        (runs / name).write_text(text)
        out = tmp_path / f"report{i}.csv"
        assert cli.main(["report", "--runs", str(runs), "--out", str(out)]) == 2, text
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: FormatError:"), err
        assert not out.exists()


def test_meta_bundle_snapshot_must_list_dataset_ids(pipeline, tmp_path, capsys):
    # a snapshot that does not name the meta datasets would switch off the
    # check that adaptation data was not used for meta training
    bundle = load_bundle(pipeline["meta_bundle"])
    for i, snapshot in enumerate(["[1]", json.dumps({"meta_dataset_ids": 5}), "{"]):
        bundle.config_snapshot = snapshot
        meta = str(tmp_path / f"meta{i}.dampb")
        save_bundle(meta, bundle)
        out = tmp_path / f"run{i}.dampb"
        capsys.readouterr()
        rc = cli.main(["adapt", "--data", pipeline["down"], "--encoder", pipeline["enc"],
                       "--meta", meta, "--mode", "active", "--out", str(out),
                       "--config", str(pipeline["config"])])
        assert rc == 2, snapshot
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: FormatError:"), err
        assert not out.exists()


def test_manifest_hash_reproducible(pipeline, tmp_path):
    argv = ["adapt", "--data", pipeline["down"], "--encoder", pipeline["enc"],
            "--mode", "active", "--seed", "1",
            "--config", str(pipeline["config"])]
    outs = []
    for sub in ("a", "b"):
        d = tmp_path / sub
        d.mkdir()
        out = str(d / "run.dampb")
        assert cli.main(argv + ["--out", out]) == 0
        outs.append(json.load(open(str(d / "run.manifest.json"))))
    assert outs[0]["outputs_hash"] == outs[1]["outputs_hash"]
    assert outs[0]["outputs"] == outs[1]["outputs"]
    # the bundle and the metrics csv are the same bytes, not only the same hash
    for name in ("run.dampb", "run.metrics.csv"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


_CHAIN = """
import json, os, sys
from frameprompt import cli
root, config = sys.argv[1], json.loads(sys.argv[2])
def path(name, doc=None):
    p = os.path.join(root, name)
    if doc is not None:
        with open(p, "w") as fh:
            json.dump(doc, fh)
    return p
def desc(modes, per_class, seed):
    return {"kind": "synthetic", "size": 16, "jitter": 0.08, "classes_per_mode": 2,
            "modes": modes, "samples_per_class": per_class, "seed": seed}
cfg = ["--config", path("config.json", config)]
enc = path("enc.damw")
for argv in (
        ["pretrain", "--data", path("pre.json", desc(2, 12, 3)), "--out", enc],
        ["calibrate", "--encoder", enc, "--reference", path("ref.json", desc(1, 20, 21)),
         "--out", path("enc.calib.json")],
        ["adapt", "--data", path("down.json", desc(2, 12, 5)), "--encoder", enc,
         "--mode", "active", "--out", path("dam.dampb")],
        ["eval", "--data", path("down.json"), "--bundle", path("dam.dampb"),
         "--encoder", enc, "--out", path("eval.json")],
        ["meta-train", "--datasets", path("m1.json", desc(2, 10, 61)) + ","
         + path("m2.json", desc(2, 10, 62)), "--encoder", enc, "--out", path("meta.dampb")]):
    if cli.main(argv + cfg) != 0:
        sys.exit(f"{argv[0]} failed")
# at 32 px: features of 320 images and one prompt step at batch 64
import hashlib
import numpy as np
from frameprompt import adapt, encoder as E, kernels
spec = E.EncoderSpec()
enc = E.FrozenEncoder(spec, E._init_params(spec, 0))
rng = np.random.default_rng(0)
images = rng.standard_normal((320, 3, 32, 32))
stack = 0.1 * rng.standard_normal((8, 3, 32, 32))
head = adapt.build_head(enc, "tuning", 10, 256, 1)
loss, logits, grad, (gw, gb) = adapt.prompt_step(
    images[:64], stack, np.arange(64) % 8, rng.integers(0, 10, 64), enc, head)
digest = hashlib.sha256()
for a in (enc.forward_features(images), logits, grad, gw, gb, np.float64(loss)):
    digest.update(np.ascontiguousarray(a).tobytes())
path("lanes.json", {"lanes": kernels.LANES, "sha256": digest.hexdigest()})
"""


def test_outputs_hash_independent_of_blas_threads(tmp_path):
    """The same chain in three processes writes the same outputs_hash for
    every command: one with OPENBLAS_NUM_THREADS=1, one at the default and
    one restricted to a single CPU, so its kernels run one lane against the
    others' one per CPU. Each also hashes the bytes of 32 px features of 320
    images and of one prompt step at batch 64, which must agree too."""
    import subprocess
    import sys

    from frameprompt import kernels

    src = os.path.dirname(os.path.dirname(cli.__file__))
    cpu = min(os.sched_getaffinity(0))
    runs = []
    for name, threads, preexec in (("threads-1", "1", None), ("default", None, None),
                                   ("one-cpu", None, lambda: os.sched_setaffinity(0, {cpu}))):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        root = tmp_path / name
        root.mkdir()
        run = subprocess.run([sys.executable, "-c", _CHAIN, str(root), json.dumps(CONFIG)],
                             env=env, capture_output=True, text=True, timeout=120,
                             preexec_fn=preexec)
        assert run.returncode == 0, run.stderr
        hashes = {name: json.load(open(root / name))["outputs_hash"]
                  for name in sorted(os.listdir(root)) if name.endswith(".manifest.json")}
        runs.append((hashes, json.load(open(root / "lanes.json"))))
    assert len(runs[0][0]) == 5, runs[0][0]
    assert [lanes["lanes"] for _, lanes in runs] == [kernels.LANES, kernels.LANES, 1]
    assert runs[0][0] == runs[1][0] == runs[2][0]
    assert len({lanes["sha256"] for _, lanes in runs}) == 1


def test_usage_errors_exit_1(capsys):
    assert cli.main(["adapt"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("usage error:")
    assert cli.main(["no-such-command"]) == 1
    assert cli.main([]) == 1


def test_help_exits_0(capsys):
    assert cli.main(["--help"]) == 0
    assert "pretrain" in capsys.readouterr().out


def test_contract_violations_exit_2(pipeline, tmp_path, capsys):
    # adapting the pretraining dataset is refused
    rc = cli.main(["adapt", "--data", pipeline["pre"], "--encoder",
                   pipeline["enc"], "--mode", "active",
                   "--out", str(tmp_path / "x.dampb"),
                   "--config", str(pipeline["config"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error:")
    # a bundle whose prompts never saw a meta prompt is not a meta init
    rc = cli.main(["adapt", "--data", pipeline["down"], "--encoder",
                   pipeline["enc"], "--meta", pipeline["vp_bundle"],
                   "--mode", "active", "--out", str(tmp_path / "y.dampb"),
                   "--config", str(pipeline["config"])])
    assert rc == 2
    # adapting a dataset that was used for meta training is refused
    rc = cli.main(["adapt", "--data", pipeline["meta1"], "--encoder",
                   pipeline["enc"], "--meta", pipeline["meta_bundle"],
                   "--mode", "active", "--out", str(tmp_path / "z.dampb"),
                   "--config", str(pipeline["config"])])
    assert rc == 2
    # a 2-logit head cannot score the 4-class downstream data
    bundle = load_bundle(pipeline["dam_bundle"])
    bundle.head = HeadState("hardcoded", indices=np.arange(2))
    small = str(tmp_path / "k2.dampb")
    save_bundle(small, bundle)
    capsys.readouterr()
    rc = cli.main(["eval", "--data", pipeline["down"], "--bundle", small,
                   "--encoder", pipeline["enc"], "--out", str(tmp_path / "k2.json"),
                   "--config", str(pipeline["config"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: DataError:")
    assert not os.path.exists(tmp_path / "k2.json")
    # a 16px bundle carrying a 32px encoder's fingerprint cannot score 32px data
    spec32 = E.EncoderSpec()
    enc32 = E.FrozenEncoder(spec32, E._init_params(spec32, 0))
    enc32.save(str(tmp_path / "enc32.damw"))
    bundle = load_bundle(pipeline["dam_bundle"])
    bundle.encoder_fingerprint = enc32.fingerprint
    save_bundle(str(tmp_path / "px16.dampb"), bundle)
    rc = cli.main(["eval", "--data", _descriptor(tmp_path / "px32.json", modes=2,
                                                  samples_per_class=12, seed=5, size=32),
                   "--bundle", str(tmp_path / "px16.dampb"),
                   "--encoder", str(tmp_path / "enc32.damw"),
                   "--out", str(tmp_path / "px16.json"), "--config", str(pipeline["config"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ShapeError:"), err
    assert not os.path.exists(tmp_path / "px16.json")
    # a weight file with bytes after its fingerprint is refused
    padded = tmp_path / "padded.damw"
    shutil.copy(pipeline["enc"], padded)
    with open(padded, "ab") as fh:
        fh.write(b"\x00\x01")
    shutil.copy(pipeline["enc"] + ".meta.json", str(padded) + ".meta.json")
    rc = cli.main(["eval", "--data", pipeline["down"], "--bundle", pipeline["dam_bundle"],
                   "--encoder", str(padded), "--out", str(tmp_path / "padded.json"),
                   "--config", str(pipeline["config"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: FormatError:")
    assert "trailing bytes" in err
    assert not os.path.exists(tmp_path / "padded.json")
    # a bundle whose config snapshot is not UTF-8 is refused
    blob = open(pipeline["dam_bundle"], "rb").read()
    garbled = tmp_path / "garbled.dampb"
    garbled.write_bytes(blob[:-1] + b"\xff")
    rc = cli.main(["eval", "--data", pipeline["down"], "--bundle", str(garbled),
                   "--encoder", pipeline["enc"], "--out", str(tmp_path / "garbled.json"),
                   "--config", str(pipeline["config"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: FormatError:")
    assert not os.path.exists(tmp_path / "garbled.json")
    # malformed descriptors and missing input files end as one error line
    good = {"kind": "synthetic", "modes": 2, "classes_per_mode": 2, "samples_per_class": 3}
    descriptors = {"no_fields": {"kind": "synthetic"}, "not_object": [1, 2],
                   "bad_type": {**good, "samples_per_class": "x"},
                   "negative_seed": {**good, "seed": -1}, "zero_size": {**good, "size": 0}}
    runs = []
    for name, doc in descriptors.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(doc))
        runs.append((str(path), str(pipeline["config"]), "error: DataError:"))
    runs.append((str(tmp_path / "absent.json"), str(pipeline["config"]), "error:"))
    runs.append((pipeline["pre"], str(tmp_path / "absent_config.json"), "error:"))
    latin1 = tmp_path / "latin1_config.json"
    latin1.write_bytes(b'{"optimizer": "adam\xe9"}')
    runs.append((pipeline["pre"], str(latin1), "error: ConfigError:"))
    nan_tau = tmp_path / "nan_tau.json"
    nan_tau.write_text('{"tau": NaN}')
    runs.append((pipeline["pre"], str(nan_tau), "error: ConfigError:"))
    for i, (desc, config, prefix) in enumerate(runs):
        out = tmp_path / f"bad{i}.damw"
        rc = cli.main(["pretrain", "--data", desc, "--out", str(out), "--config", config])
        assert rc == 2, desc
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(prefix), err
        assert not os.path.exists(out)
    # a diversity csv under report --runs that is not UTF-8
    latin1_runs = tmp_path / "latin1_runs"
    latin1_runs.mkdir()
    (latin1_runs / "d.csv").write_bytes(b"dataset,metric,pairs,seed,score,score_std\n"
                                        b"caf\xe9,feature_l2,10,0,1.0,0.0\n")
    assert cli.main(["report", "--runs", str(latin1_runs)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: FormatError:"), err
    # unreadable, incomplete or missing json sidecars next to a good weight
    # file; without its metadata an encoder would not know its pretraining set
    meta = json.load(open(pipeline["enc"] + ".meta.json"))
    without = {key: json.dumps({k: v for k, v in meta.items() if k != key})
               for key in ("f0", "pretrain_dataset_id")}
    calib = {"encoder_fingerprint": meta["fingerprint"]}
    sidecars = [("enc.calib.json", "[1]"), ("enc.calib.json", "{"),
                ("enc.calib.json", json.dumps(calib)),
                *(("enc.calib.json", json.dumps({**calib, "tau_star": tau}))
                  for tau in (float("nan"), float("inf"), 0.0)),
                ("enc.damw.meta.json", "{"), ("enc.damw.meta.json", "{}"),
                ("enc.damw.meta.json", without["f0"]),
                ("enc.damw.meta.json", without["pretrain_dataset_id"]),
                ("enc.damw.meta.json", None)]
    for i, (name, text) in enumerate(sidecars):
        d = tmp_path / f"sidecar{i}"
        d.mkdir()
        shutil.copy(pipeline["enc"], d / "enc.damw")
        shutil.copy(pipeline["enc"] + ".meta.json", d / "enc.damw.meta.json")
        if text is None:
            (d / name).unlink()
        else:
            (d / name).write_text(text)
        rc = cli.main(["adapt", "--data", pipeline["down"], "--encoder", str(d / "enc.damw"),
                       "--mode", "active", "--out", str(d / "run.dampb"),
                       "--config", str(pipeline["config"])])
        assert rc == 2, (name, text)
        err = capsys.readouterr().err
        prefix = "error: FileNotFoundError:" if text is None else "error: FormatError:"
        assert err.count("\n") == 1 and err.startswith(prefix), err
        assert not os.path.exists(d / "run.dampb")


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                            "ignore:invalid value:RuntimeWarning")
def test_divergence_exits_2_and_writes_nothing(pipeline, tmp_path, capsys):
    bad = tmp_path / "diverge.json"
    bad.write_text(json.dumps({**CONFIG, "optimizer": "sgd", "lr": 1e300,
                               "pretrain_lr": 1e300}))
    # the active head has no weights to blow up: its loss stays finite while
    # the prompt grows past prompt.PROMPT_BOUND
    runs = [["adapt", "--data", pipeline["down"], "--encoder", pipeline["enc"],
             "--mode", mode, "--out", str(tmp_path / f"{mode}.dampb"), "--seed", "1"]
            for mode in ("tuning", "active")]
    runs.append(["pretrain", "--data", pipeline["pre"], "--out", str(tmp_path / "e.damw")])
    for argv in runs:
        capsys.readouterr()
        assert cli.main(argv + ["--config", str(bad)]) == 2, argv[:4]
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err
        assert err.startswith("error: DataError:") and "diverged" in err
    assert os.listdir(tmp_path) == ["diverge.json"]


def test_extents_no_array_can_hold_exit_2(tmp_path, pipeline, capsys):
    """A descriptor size or a config integer past what any array can hold
    is refused by its shape check, before anything large is allocated."""
    out = str(tmp_path / "out")
    huge = _descriptor(tmp_path / "huge.json", modes=2, samples_per_class=3,
                       size=10 ** 20)
    assert cli.main(["diversity", "--data", huge, "--space", "pixel_l2",
                     "--out", out]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "noise_count": 10 ** 20}))
    assert cli.main(["adapt", "--data", pipeline["down"], "--encoder", pipeline["enc"],
                     "--mode", "active", "--out", out, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ConfigError:"), err
    assert "noise_count" in err
    # within sys.maxsize, so the config takes them, but past any array's bytes
    cfg.write_text(json.dumps({**CONFIG, "noise_count": 2 ** 62, "tau": 5.0}))
    assert cli.main(["adapt", "--data", pipeline["down"], "--encoder", pipeline["enc"],
                     "--mode", "active", "--out", out, "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
    assert "noise images" in err
    cfg.write_text(json.dumps({**CONFIG, "pairs": 2 ** 62}))
    for space in ("feature_l2", "pixel_l2"):
        assert cli.main(["diversity", "--data", pipeline["down"], "--encoder",
                         pipeline["enc"], "--space", space, "--out", out,
                         "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
        assert "pairs" in err
    assert sorted(os.listdir(tmp_path)) == ["cfg.json", "huge.json"]


def test_array_past_memory_exits_2(tmp_path, pipeline):
    """A pair count that fits an array's extents but not the memory the
    process may map ends as one typed error line and exit 2, with nothing
    written. The address-space limit (RLIMIT_AS, 4 GiB) is set in the child
    process only, so the 8 TiB draw fails at once."""
    import resource
    import subprocess
    import sys

    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    limit = 4 << 30 if hard == resource.RLIM_INFINITY else min(4 << 30, hard)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**CONFIG, "pairs": 2 ** 40}))
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", "import sys; from frameprompt import cli; "
         "sys.exit(cli.main(sys.argv[1:]))", "diversity", "--data", pipeline["down"],
         "--space", "pixel_l2", "--out", str(tmp_path / "d.csv"), "--config", str(cfg)],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)))
    assert run.returncode == 2, run.stderr
    assert run.stderr.count("\n") == 1, run.stderr
    assert run.stderr.startswith("error: MemoryError:"), run.stderr
    assert os.listdir(tmp_path) == ["cfg.json"]


def test_eval_refuses_prototype_width_of_one_prototype_bundle(tmp_path, pipeline, capsys):
    """A one-prototype bundle routes without a forward, so nothing compares
    its prototype with the features on the way; eval still refuses a width
    of 63 against the encoder's 64."""
    bundle = load_bundle(pipeline["vp_bundle"])
    assert bundle.n == 1 and E.load_encoder(pipeline["enc"]).spec.feature_dim == 64
    bundle.prototypes = bundle.prototypes[:, :63]
    thin = str(tmp_path / "thin.dampb")
    save_bundle(thin, bundle)
    out = tmp_path / "thin.json"
    rc = cli.main(["eval", "--data", pipeline["down"], "--bundle", thin,
                   "--encoder", pipeline["enc"], "--out", str(out),
                   "--config", str(pipeline["config"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: ShapeError:"), err
    assert not out.exists()


def test_descriptor_parse_error_exits_2(tmp_path, pipeline, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["diversity", "--data", str(bad), "--space", "pixel_l2",
                   "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "line" in capsys.readouterr().err
    bad.write_bytes(b'{"kind": "synthetic", "id": "caf\xe9"}')
    rc = cli.main(["diversity", "--data", str(bad), "--space", "pixel_l2",
                   "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
    assert "UTF-8" in err
    # an integer literal longer than Python parses (4300 digits)
    bad.write_text('{"kind": "synthetic", "size": 1%s}' % ("0" * 5000))
    rc = cli.main(["diversity", "--data", str(bad), "--space", "pixel_l2",
                   "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
