"""End-to-end command line coverage on 16px synthetic data."""

import json
import os
import shutil

import numpy as np
import pytest

from frameprompt import cli
from frameprompt.prompt import HEAD_HARDCODED, HeadState, load_bundle, save_bundle

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
    assert lines[0] == "epoch,split,loss,top1,n_clusters,seconds"
    # 2 epochs x (train+val) + test
    assert len(lines) == 1 + 2 * 2 + 1
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
    bundle.head = HeadState(HEAD_HARDCODED, 2, indices=np.arange(2))
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


def test_descriptor_parse_error_exits_2(tmp_path, pipeline, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = cli.main(["diversity", "--data", str(bad), "--space", "pixel_l2",
                   "--out", str(tmp_path / "d.csv")])
    assert rc == 2
    assert "line" in capsys.readouterr().err
