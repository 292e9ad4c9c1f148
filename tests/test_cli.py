"""End-to-end command line coverage on 16px synthetic data."""

import hashlib
import json
import os
import shlex
import shutil
from pathlib import Path

import numpy as np
import pytest

from frameprompt import atomic, cli, encoder as E
from frameprompt.prompt import HeadState, load_bundle, save_bundle

from _helpers import corrupt_damp, corrupt_damw, damp_fields, damw_fields, idx_bytes, resealed

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
        "div_json": str(runs / "down.diversity.json"),
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
         "--out", p["div_json"]] + cfg,
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


def test_pretrain_writes_weights_and_manifest(pipeline):
    """The encoder is one file: its pretraining dataset id is inside it."""
    assert sorted(n for n in os.listdir(pipeline["root"]) if n.startswith("enc.damw")) == [
        "enc.damw", "enc.damw.manifest.json"]
    assert E.load_encoder(pipeline["enc"]).pretrain_dataset_id.startswith("modemix-m2c2n12")
    manifest = _json(pipeline["enc"] + ".manifest.json")
    assert manifest["command"] == "pretrain"
    assert manifest["inputs"] == _hashed(pipeline["config"], pipeline["pre"])
    assert set(manifest["outputs"]) == {"enc.damw"}
    assert len(manifest["outputs_hash"]) == 64


def test_calibrate_writes_threshold(pipeline):
    doc = _json(pipeline["calib"])
    assert doc["tau_star"] > 0
    assert doc["probe_size"] == 128
    assert doc["encoder_fingerprint"] == E.load_encoder(pipeline["enc"]).fingerprint


def test_diversity_record_shape(pipeline):
    doc = _json(pipeline["div_json"])
    assert sorted(doc) == ["dataset", "pairs", "score", "score_std", "seed"]
    assert doc["dataset"] == _json(pipeline["eval_json"])["dataset"]
    assert doc["pairs"] == 200 and doc["seed"] == 0
    assert doc["score"] > 0 and doc["score_std"] > 0


def test_meta_bundle_flag_round_trips(pipeline):
    bundle = load_bundle(pipeline["meta_bundle"])
    assert bundle.meta_initialized and bundle.n == 1
    snap = json.loads(bundle.config_snapshot)
    assert len(snap["meta_dataset_ids"]) == 2
    assert len(snap["epoch_losses"]) == CONFIG["meta_epochs"]


def test_adapt_artifacts(pipeline):
    stem = pipeline["dam_bundle"][: -len(".dampb")]
    summary = _json(stem + ".summary.json")
    assert summary["mode"] == "active" and summary["meta_initialized"]
    assert summary["n_clusters"] >= 1
    assert 0 <= summary["test_top1"] <= 1
    lines = Path(stem + ".metrics.csv").read_text().splitlines()
    assert lines[0] == "epoch,split,loss,top1"
    # 2 epochs x (train+val) + test
    assert len(lines) == 1 + 2 * 2 + 1
    assert [len(summary["seconds"][k]) for k in ("train", "val", "test")] == [2, 2, 1]
    assert all(t >= 0 for ts in summary["seconds"].values() for t in ts)
    # the rows hold no timing, so the manifest hashes the csv as written
    csv = Path(stem + ".metrics.csv").read_bytes()
    assert atomic.canonical_bytes(stem + ".metrics.csv", csv) == csv
    vp_summary = _json(pipeline["vp_bundle"][: -len(".dampb")] + ".summary.json")
    assert vp_summary["force_single_prompt"] and vp_summary["n_clusters"] == 1


def _json(path):
    return json.loads(Path(path).read_text())


def _sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _hashed(*paths):
    """A manifest's inputs for these files, read in this order: [path as
    opened, sha256] each."""
    return [[str(p), _sha256(p)] for p in paths]


def _encoder_copy(pipeline, d, calib=None):
    """The pipeline's encoder in directory d, with calib as its
    enc.calib.json sidecar unless calib is None."""
    d.mkdir()
    shutil.copy(pipeline["enc"], d / "enc.damw")
    if calib is not None:
        (d / "enc.calib.json").write_text(json.dumps(calib))
    return str(d / "enc.damw")


def test_clustered_runs_record_the_calibrated_threshold(pipeline):
    """adapt and meta-train resolve "calibrate" from the encoder's sidecar:
    the manifest lists the sidecar and both the manifest's config and the
    bundle's snapshot hold the number. The forced single prompt reads no
    sidecar and keeps the string."""
    tau = _json(pipeline["calib"])["tau_star"]
    calib = _sha256(pipeline["calib"])
    dam = _json(pipeline["dam_bundle"][: -len(".dampb")] + ".manifest.json")
    assert dict(dam["inputs"])[pipeline["calib"]] == calib
    assert dam["config"]["tau"] == tau
    assert json.loads(load_bundle(pipeline["dam_bundle"]).config_snapshot)["tau"] == tau
    meta = _json(pipeline["meta_bundle"] + ".manifest.json")
    assert dict(meta["inputs"])[pipeline["calib"]] == calib
    assert meta["config"]["tau"] == tau
    snapshot = json.loads(load_bundle(pipeline["meta_bundle"]).config_snapshot)
    assert snapshot["config"]["tau"] == tau
    vp = _json(pipeline["vp_bundle"][: -len(".dampb")] + ".manifest.json")
    assert vp["inputs"] == _hashed(pipeline["vp_config"], pipeline["enc"],
                                   pipeline["down"])
    assert vp["config"]["tau"] == "calibrate"
    assert json.loads(load_bundle(pipeline["vp_bundle"]).config_snapshot)["tau"] == "calibrate"


def test_meta_train_manifest_lists_every_descriptor(pipeline, tmp_path):
    """The descriptors are listed in --datasets order, which numbers the
    datasets and so decides the groups: reversed, both the inputs and the
    outputs differ."""
    inputs = _json(pipeline["meta_bundle"] + ".manifest.json")["inputs"]
    assert inputs == _hashed(pipeline["config"], pipeline["enc"],
                             pipeline["calib"], pipeline["meta1"], pipeline["meta2"])
    out = str(tmp_path / "meta.dampb")
    assert cli.main(["meta-train", "--datasets", f"{pipeline['meta2']},{pipeline['meta1']}",
                     "--encoder", pipeline["enc"], "--out", out,
                     "--config", str(pipeline["config"])]) == 0
    reversed_ = _json(out + ".manifest.json")
    assert reversed_["inputs"] == inputs[:-2] + inputs[:-3:-1]
    forward = _json(pipeline["meta_bundle"] + ".manifest.json")
    assert reversed_["outputs_hash"] != forward["outputs_hash"]


def test_editing_the_sidecar_moves_its_hash_and_the_snapshot(pipeline, tmp_path):
    doc = _json(pipeline["calib"])
    doc["tau_star"] *= 2
    enc = _encoder_copy(pipeline, tmp_path / "enc", doc)
    out = tmp_path / "run.dampb"
    assert cli.main(["adapt", "--data", pipeline["down"], "--encoder", enc,
                     "--mode", "active", "--out", str(out), "--seed", "1",
                     "--config", str(pipeline["config"])]) == 0
    inputs = dict(_json(tmp_path / "run.manifest.json")["inputs"])
    calib = str(tmp_path / "enc" / "enc.calib.json")
    assert inputs[calib] == _sha256(calib)
    assert inputs[calib] != _sha256(pipeline["calib"])
    assert json.loads(load_bundle(str(out)).config_snapshot)["tau"] == doc["tau_star"]


def test_a_missing_or_stale_calibration_exits_2(pipeline, tmp_path, capsys):
    """A sidecar for another encoder is refused, not skipped; a clustered
    run without a sidecar names the path it looked for."""
    stale = {**_json(pipeline["calib"]), "encoder_fingerprint": 12345}
    cases = [(_encoder_copy(pipeline, tmp_path / "stale", stale), "error: DataError:"),
             (_encoder_copy(pipeline, tmp_path / "none"), "error: ConfigError:")]
    for enc, prefix in cases:
        d = os.path.dirname(enc)
        for argv in (["adapt", "--data", pipeline["down"], "--mode", "active"],
                     ["meta-train", "--datasets", pipeline["meta1"]]):
            out = os.path.join(d, "run.dampb")
            capsys.readouterr()
            rc = cli.main(argv + ["--encoder", enc, "--out", out,
                                  "--config", str(pipeline["config"])])
            assert rc == 2, (prefix, argv[0])
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith(prefix), err
            assert os.path.join(d, "enc.calib.json") in err
            assert not os.path.exists(out)


def test_force_single_prompt_runs_without_a_sidecar(pipeline, tmp_path):
    enc = _encoder_copy(pipeline, tmp_path / "enc")
    out = tmp_path / "vp.dampb"
    assert cli.main(["adapt", "--data", pipeline["down"], "--encoder", enc,
                     "--mode", "active", "--out", str(out), "--seed", "1",
                     "--config", str(pipeline["vp_config"])]) == 0
    assert json.loads(load_bundle(str(out)).config_snapshot)["tau"] == "calibrate"
    manifest = _json(tmp_path / "vp.manifest.json")
    assert manifest["inputs"] == _hashed(pipeline["vp_config"], enc,
                                         pipeline["down"])
    # the same bundle as the pipeline's, whose encoder had a sidecar beside it
    assert out.read_bytes() == Path(pipeline["vp_bundle"]).read_bytes()


def test_eval_histogram_covers_test_split(pipeline):
    doc = _json(pipeline["eval_json"])
    assert doc["split"] == "test"
    bundle = load_bundle(pipeline["dam_bundle"])
    assert len(doc["routing_histogram"]) == bundle.n
    assert sum(doc["routing_histogram"]) > 0
    assert 0 <= doc["top1"] <= 1


def test_report_aggregates_both_arms(pipeline):
    """The pipeline's two adapt runs are two arms of one (dataset, mode):
    the meta-initialised multi-prompt run and the forced single prompt from a
    random start. Each gets its own row, so neither column mixes them."""
    lines = Path(pipeline["report_csv"]).read_text().splitlines()
    assert lines[0] == ("dataset,mode,meta_initialized,diversity,vp_accuracy,"
                        "damvp_accuracy,gain")
    stem = lambda bundle: bundle[: -len(".dampb")] + ".summary.json"
    dam = _json(stem(pipeline["dam_bundle"]))
    vp = _json(stem(pipeline["vp_bundle"]))
    div = _json(pipeline["div_json"])["score"]
    ds = dam["dataset"]
    assert lines[1:] == [f"{ds},active,false,{div:.6f},{vp['test_top1']:.6f},nan,nan",
                         f"{ds},active,true,{div:.6f},nan,{dam['test_top1']:.6f},nan"]


def _summary(runs, name, **fields):
    doc = {"dataset": "d", "mode": "active", "force_single_prompt": False,
           "meta_initialized": False, **fields}
    (runs / f"{name}.summary.json").write_text(json.dumps(doc))


def test_report_keeps_each_arm_in_its_own_row(tmp_path, capsys):
    """A tuning head, an active head, a meta-initialised active head and a
    forced single active prompt of one dataset: three rows, and the active
    row from a random start sets its one prompt against its many."""
    runs = tmp_path / "runs"
    runs.mkdir()
    _summary(runs, "tuning", mode="tuning", test_top1=0.9)
    _summary(runs, "active", test_top1=0.5)
    _summary(runs, "meta", meta_initialized=True, test_top1=0.7)
    _summary(runs, "single", force_single_prompt=True, test_top1=0.4)
    capsys.readouterr()
    assert cli.main(["report", "--runs", str(runs)]) == 0
    assert capsys.readouterr().out.splitlines()[1:] == [
        "d,active,false,nan,0.400000,0.500000,10.000000",
        "d,active,true,nan,nan,0.700000,nan",
        "d,tuning,false,nan,nan,0.900000,nan"]
    # a forced single prompt from the meta start is the vp column of the meta row
    _summary(runs, "meta_single", meta_initialized=True, force_single_prompt=True,
             test_top1=0.6)
    assert cli.main(["report", "--runs", str(runs)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[2] == "d,active,true,nan,0.600000,0.700000,10.000000"


def test_report_keeps_a_dataset_name_with_commas_and_quotes_in_one_cell(
        pipeline, tmp_path, capsys):
    """A dataset id holding a comma and a double quote goes through diversity
    and report as one quoted cell, so its row keeps seven cells and the
    record's score."""
    import csv

    name = 'a,"b'
    desc = _descriptor(tmp_path / "odd.json", modes=2, samples_per_class=3, seed=5, id=name)
    runs = tmp_path / "runs"
    runs.mkdir()
    assert cli.main(["diversity", "--data", desc, "--encoder", pipeline["enc"],
                     "--out", str(runs / "odd.diversity.json"),
                     "--config", str(pipeline["config"])]) == 0
    record = _json(runs / "odd.diversity.json")
    assert record["dataset"] == name
    _summary(runs, "odd", dataset=name, test_top1=0.5)
    out = tmp_path / "report.csv"
    capsys.readouterr()
    assert cli.main(["report", "--runs", str(runs), "--out", str(out)]) == 0
    assert capsys.readouterr().out == out.read_text()
    rows = list(csv.reader(out.read_text().splitlines()))
    assert rows[1:] == [[name, "active", "false", f"{record['score']:.6f}", "nan",
                         "0.500000", "nan"]]


def test_report_leaves_runs_without_test_accuracy_out(pipeline, tmp_path, capsys):
    # an empty test split makes adapt write "test_top1": null
    no_test = tmp_path / "no_test.json"
    no_test.write_text(json.dumps({**CONFIG, "epochs": 1, "split_fractions": [0.8, 0.2, 0.0]}))
    runs = tmp_path / "runs"
    runs.mkdir()
    assert cli.main(["adapt", "--data", pipeline["down"], "--encoder", pipeline["enc"],
                     "--mode", "active", "--out", str(runs / "no_test.dampb"), "--seed", "1",
                     "--config", str(no_test)]) == 0
    summary = _json(runs / "no_test.summary.json")
    assert summary["test_top1"] is None and not summary["force_single_prompt"]
    capsys.readouterr()
    assert cli.main(["report", "--runs", str(runs)]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == [f"{summary['dataset']},active,false,nan,nan,nan,nan"]
    # next to a run of its arm with a test accuracy, the mean is that run's accuracy
    vp_summary = pipeline["vp_bundle"][: -len(".dampb")] + ".summary.json"
    shutil.copy(vp_summary, runs / "vp.summary.json")
    assert cli.main(["report", "--runs", str(runs)]) == 0
    vp = _json(vp_summary)["test_top1"]
    rows = capsys.readouterr().out.splitlines()
    assert rows[1:] == [f"{summary['dataset']},active,false,nan,{vp:.6f},nan,nan"]


def test_report_manifest_lists_every_file_it_read(pipeline, tmp_path):
    """report reads the summaries and the diversity records, and no other
    file under --runs, such as an adapt run's metrics csv."""
    manifest = _json(pipeline["report_csv"] + ".manifest.json")
    read = ["dam.summary.json", "down.diversity.json", "vp.summary.json"]
    assert manifest["inputs"] == _hashed(*(pipeline["runs"] / name for name in read))
    # a file in a subdirectory is keyed by the path report opened
    runs = tmp_path / "runs"
    (runs / "sub").mkdir(parents=True)
    shutil.copy(pipeline["runs"] / "vp.summary.json", runs / "sub")
    out = str(tmp_path / "report.csv")
    assert cli.main(["report", "--runs", str(runs), "--out", out]) == 0
    inputs = _json(out + ".manifest.json")["inputs"]
    assert [p for p, _ in inputs] == [os.path.join(str(runs), "sub", "vp.summary.json")]


def test_report_over_its_stale_output_lists_the_bytes_it_read(pipeline, tmp_path,
                                                              monkeypatch):
    """report does not read its own earlier output under --runs; the manifest
    lists only the summary it read, and the output it wrote over the stale one."""
    monkeypatch.chdir(tmp_path)
    os.mkdir("runs")
    shutil.copy(pipeline["runs"] / "vp.summary.json", "runs")
    stale = b"dataset,diversity,vp_accuracy,damvp_accuracy,gain\nold,0,0,0,0\n"
    with open("runs/report.csv", "wb") as fh:
        fh.write(stale)
    assert cli.main(["report", "--runs", "runs", "--out", "runs/report.csv"]) == 0
    manifest = _json("runs/report.csv.manifest.json")
    assert manifest["inputs"] == [
        [os.path.join("runs", "vp.summary.json"), _sha256("runs/vp.summary.json")]]
    assert manifest["outputs"] == {"report.csv": _sha256("runs/report.csv")}
    assert _sha256("runs/report.csv") != hashlib.sha256(stale).hexdigest()


def test_manifest_inputs_resolve_against_its_cwd(pipeline, tmp_path, monkeypatch):
    """Relative --data and --config are keyed as opened; joined to the
    manifest's cwd, each names the file whose bytes it records."""
    monkeypatch.chdir(tmp_path)
    shutil.copy(pipeline["down"], "down.json")
    shutil.copy(pipeline["config"], "config.json")
    shutil.copy(pipeline["enc"], "enc.damw")
    assert cli.main(["diversity", "--data", "down.json", "--encoder", "enc.damw",
                     "--out", "d.diversity.json", "--config", "config.json"]) == 0
    monkeypatch.chdir(pipeline["root"])
    manifest = _json(tmp_path / "d.diversity.json.manifest.json")
    assert os.path.samefile(manifest["cwd"], tmp_path)
    assert [p for p, _ in manifest["inputs"]] == ["config.json", "down.json", "enc.damw"]
    for path, sha in manifest["inputs"]:
        assert _sha256(os.path.join(manifest["cwd"], path)) == sha


def test_adapt_over_idx_lists_every_file_it_read(pipeline, tmp_path):
    """The files a loader opens under a flag are inputs too: the IDX pair an
    idx descriptor points at and the encoder's calibration sidecar."""
    rng = np.random.default_rng(0)
    images, labels = str(tmp_path / "img.idx"), str(tmp_path / "lab.idx")
    with open(images, "wb") as fh:
        fh.write(idx_bytes(images=rng.integers(0, 256, (40, 16, 16), dtype=np.uint8)))
    with open(labels, "wb") as fh:
        fh.write(idx_bytes(labels=np.arange(40, dtype=np.uint8) % 2))
    desc = tmp_path / "digits.json"
    desc.write_text(json.dumps({"kind": "idx", "images": images, "labels": labels,
                                "id": "digits"}))
    out = tmp_path / "digits.dampb"
    assert cli.main(["adapt", "--data", str(desc), "--encoder", pipeline["enc"],
                     "--mode", "active", "--out", str(out), "--seed", "1",
                     "--config", str(pipeline["config"])]) == 0
    manifest = _json(tmp_path / "digits.manifest.json")
    assert manifest["inputs"] == _hashed(pipeline["config"], pipeline["enc"],
                                         pipeline["calib"], desc, images, labels)
    assert set(manifest["outputs"]) == {"digits.dampb", "digits.metrics.csv",
                                        "digits.summary.json"}


def test_report_on_a_missing_runs_directory_exits_2(tmp_path, capsys):
    out = tmp_path / "report.csv"
    capsys.readouterr()
    assert cli.main(["report", "--runs", str(tmp_path / "absent"), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err
    assert err.count("\n") == 1 and err.startswith("error: FileNotFoundError:"), err
    assert "absent" in err
    assert not out.exists()


def test_report_refuses_malformed_summaries(tmp_path, capsys):
    texts = ["{", "[1]", json.dumps({"mode": "active", "test_top1": 0.5}),
             json.dumps({"dataset": "d", "test_top1": "high"})]
    # a mode, force_single_prompt or meta_initialized missing or mistyped
    arm = {"dataset": "d", "mode": "active", "force_single_prompt": False,
           "meta_initialized": False, "test_top1": 0.5}
    for key, bad in (("mode", None), ("mode", 1), ("force_single_prompt", None),
                     ("force_single_prompt", 0), ("meta_initialized", "false")):
        texts.append(json.dumps({k: v for k, v in arm.items() if k != key}
                                if bad is None else {**arm, key: bad}))
    # a test_top1 that is not finite, a dataset or mode that is not UTF-8
    # text (json's "\ud800" is a lone surrogate), a repeated key whose values
    # are both valid, a file that is UTF-16 or starts with a BOM, and nesting
    # past the recursion limit
    for key, bad in (("test_top1", float("nan")), ("test_top1", float("inf")),
                     ("test_top1", -float("inf")), ("test_top1", 10 ** 400),
                     ("dataset", "\ud800"), ("mode", "\ud800")):
        texts.append(json.dumps({**arm, key: bad}))
    texts += [json.dumps(arm).replace("0.5", "1e400"),
              '{"dataset": "e", ' + json.dumps(arm)[1:],
              json.dumps(arm).encode("utf-16"), b"\xef\xbb\xbf" + json.dumps(arm).encode(),
              "[" * 100000 + "]" * 100000]
    files = [("run.summary.json", text) for text in texts]
    # diversity records whose score is not a number, is not finite or is a
    # boolean, whose score or dataset is missing, whose dataset is not UTF-8
    # text, files that are no diversity record, and a score given twice
    record = {"dataset": "d", "pairs": 10, "seed": 0, "score": 1.0, "score_std": 0.0}
    for key, bad in (("score", "abc"), ("score", float("nan")), ("score", float("inf")),
                     ("score", -float("inf")), ("score", 10 ** 400), ("score", True),
                     ("score", None), ("dataset", None), ("dataset", 7),
                     ("dataset", "\ud800")):
        files.append(("d.diversity.json", json.dumps(
            {k: v for k, v in record.items() if k != key} if bad is None
            else {**record, key: bad})))
    files += [("d.diversity.json", ""), ("d.diversity.json", json.dumps({"tau_star": 1.0})),
              ("d.diversity.json", json.dumps([record])),
              ("d.diversity.json", '{"score": 2.0, ' + json.dumps(record)[1:])]
    for i, (name, text) in enumerate(files):
        runs = tmp_path / f"runs{i}"
        runs.mkdir()
        (runs / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        out = tmp_path / f"report{i}.csv"
        assert cli.main(["report", "--runs", str(runs), "--out", str(out)]) == 2, text
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: FormatError:"), err
        assert not out.exists()


def test_meta_bundle_snapshot_must_list_dataset_ids(pipeline, tmp_path, capsys):
    # a snapshot that does not name the meta datasets would switch off the
    # check that adaptation data was not used for meta training
    bundle = load_bundle(pipeline["meta_bundle"])
    ids = json.dumps({"meta_dataset_ids": ["a"]})
    snapshots = ["[1]", json.dumps({"meta_dataset_ids": 5}), "{",
                 json.dumps({"meta_dataset_ids": ["\ud800"]}),
                 '{"meta_dataset_ids": ["b"], ' + ids[1:], "[" * 100000 + "]" * 100000]
    for i, snapshot in enumerate(snapshots):
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
        outs.append(_json(d / "run.manifest.json"))
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
        hashes = {name: _json(root / name)["outputs_hash"]
                  for name in sorted(os.listdir(root)) if name.endswith(".manifest.json")}
        runs.append((hashes, _json(root / "lanes.json")))
    assert len(runs[0][0]) == 5, runs[0][0]
    assert [lanes["lanes"] for _, lanes in runs] == [kernels.LANES, kernels.LANES, 1]
    assert runs[0][0] == runs[1][0] == runs[2][0]
    assert len({lanes["sha256"] for _, lanes in runs}) == 1


def test_readme_command_lines_parse():
    """Each example in README's "Command line" block, continuation lines
    joined, parses with the command's own parser."""
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    examples = block.replace("\\\n", " ").split("\n")
    commands = [shlex.split(line) for line in examples if line.strip()]
    assert [argv[1] for argv in commands] == ["pretrain", "calibrate", "diversity",
                                              "meta-train", "adapt", "eval", "report"]
    for argv in commands:
        assert argv[0] == "frameprompt"
        args = cli.build_parser().parse_args(argv[1:])
        assert args.command == argv[1]


def test_usage_errors_exit_1(capsys):
    assert cli.main(["adapt"]) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("usage error:")
    # diversity is scored in an encoder's feature space, and has no --space
    assert cli.main(["diversity", "--data", "d.json", "--out", "d.diversity.json"]) == 1
    assert "--encoder" in capsys.readouterr().err
    assert cli.main(["diversity", "--data", "d.json", "--encoder", "enc.damw",
                     "--space", "pixel_l2", "--out", "d.diversity.json"]) == 1
    assert "--space" in capsys.readouterr().err
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
    # a weight file with bytes after its digest is refused: they move the digest
    padded = tmp_path / "padded.damw"
    shutil.copy(pipeline["enc"], padded)
    with open(padded, "ab") as fh:
        fh.write(b"\x00\x01")
    rc = cli.main(["eval", "--data", pipeline["down"], "--bundle", pipeline["dam_bundle"],
                   "--encoder", str(padded), "--out", str(tmp_path / "padded.json"),
                   "--config", str(pipeline["config"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: FingerprintMismatchError:")
    assert "digest mismatch" in err
    assert not os.path.exists(tmp_path / "padded.json")
    # a bundle whose config snapshot is not UTF-8, under a valid digest, is refused
    blob = Path(pipeline["dam_bundle"]).read_bytes()
    end = damp_fields(load_bundle(pipeline["dam_bundle"]))["snapshot"][1]
    garbled = tmp_path / "garbled.dampb"
    garbled.write_bytes(resealed(blob, end - 1, end, b"\xff"))
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
                   "negative_seed": {**good, "seed": -1}, "zero_size": {**good, "size": 0},
                   "huge_jitter": {**good, "jitter": 10 ** 400}}
    deep = "[" * 100000 + "]" * 100000
    texts = {name: json.dumps(doc) for name, doc in descriptors.items()}
    # a repeated key whose last value is valid, and nesting past the recursion limit
    texts.update(repeated_modes='{"modes": 9, ' + json.dumps(good)[1:], deep=deep)
    runs = []
    for name, text in texts.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text)
        runs.append((str(path), str(pipeline["config"]), "error: DataError:"))
    runs.append((str(tmp_path / "absent.json"), str(pipeline["config"]), "error:"))
    runs.append((pipeline["pre"], str(tmp_path / "absent_config.json"), "error:"))
    latin1 = tmp_path / "latin1_config.json"
    latin1.write_bytes(b'{"optimizer": "adam\xe9"}')
    runs.append((pipeline["pre"], str(latin1), "error: ConfigError:"))
    nan_tau = tmp_path / "nan_tau.json"
    nan_tau.write_text('{"tau": NaN}')
    runs.append((pipeline["pre"], str(nan_tau), "error: ConfigError:"))
    deep_config = tmp_path / "deep_config.json"
    deep_config.write_text(deep)
    runs.append((pipeline["pre"], str(deep_config), "error: ConfigError:"))
    for i, (desc, config, prefix) in enumerate(runs):
        out = tmp_path / f"bad{i}.damw"
        rc = cli.main(["pretrain", "--data", desc, "--out", str(out), "--config", config])
        assert rc == 2, desc
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(prefix), err
        assert not os.path.exists(out)
    # a jitter that is not finite would make every image NaN
    for literal in ("nan", "inf"):
        d = tmp_path / f"jitter_{literal}"
        d.mkdir()
        desc = _descriptor(d / "data.json", modes=2, samples_per_class=12, seed=5,
                           jitter=float(literal))
        for argv in (["adapt", "--mode", "active", "--out", str(d / "run.dampb")],
                     ["diversity", "--out", str(d / "run.diversity.json")]):
            rc = cli.main(argv + ["--data", desc, "--encoder", pipeline["enc"],
                                  "--config", str(pipeline["config"])])
            assert rc == 2, argv
            err = capsys.readouterr().err
            assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
            assert os.listdir(d) == ["data.json"]
    # a diversity record under report --runs that is not UTF-8
    latin1_runs = tmp_path / "latin1_runs"
    latin1_runs.mkdir()
    (latin1_runs / "d.diversity.json").write_bytes(b'{"dataset": "caf\xe9", "score": 1.0}')
    assert cli.main(["report", "--runs", str(latin1_runs)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: FormatError:"), err
    # unreadable or incomplete calibration sidecars next to a good weight file
    calib = {"encoder_fingerprint": E.load_encoder(pipeline["enc"]).fingerprint}
    sidecars = ["[1]", "{", json.dumps(calib),
                *(json.dumps({**calib, "tau_star": tau})
                  for tau in (float("nan"), float("inf"), 0.0)),
                '{"tau_star": 2.0, ' + json.dumps({**calib, "tau_star": 1.0})[1:]]
    for i, text in enumerate(sidecars):
        d = tmp_path / f"sidecar{i}"
        _encoder_copy(pipeline, d)
        (d / "enc.calib.json").write_text(text)
        rc = cli.main(["adapt", "--data", pipeline["down"], "--encoder", str(d / "enc.damw"),
                       "--mode", "active", "--out", str(d / "run.dampb"),
                       "--config", str(pipeline["config"])])
        assert rc == 2, text
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: FormatError:"), err
        assert not os.path.exists(d / "run.dampb")


def test_corrupt_encoder_files_exit_2(pipeline, tmp_path, capsys):
    """A flipped byte at either end of any field of the weight file, a cut
    at any field boundary, trailing bytes, a version 1 or 2 file, and a spec
    no array fits, a non-UTF-8 id, a non-finite weight or an edited f0 under
    a valid digest each end as one typed error line, exit 2 and no output."""
    enc = E.load_encoder(pipeline["enc"])
    bad, out = tmp_path / "enc.damw", tmp_path / "run.dampb"
    for case, blob, kind in corrupt_damw(enc, Path(pipeline["enc"]).read_bytes()):
        bad.write_bytes(blob)
        capsys.readouterr()
        rc = cli.main(["adapt", "--data", pipeline["down"], "--encoder", str(bad),
                       "--mode", "active", "--out", str(out),
                       "--config", str(pipeline["config"])])
        assert rc == 2, case
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"error: {kind}:"), (case, err)
        assert sorted(os.listdir(tmp_path)) == ["enc.damw"], case


def test_corrupt_bundles_exit_2(pipeline, tmp_path, capsys):
    """Every corrupt_damp case of the adapted bundle under eval --bundle and
    of the meta bundle under adapt --meta, and on eval a sound bundle of
    another encoder, each end as one typed error line, exit 2 and no output."""
    common = ["--data", pipeline["down"], "--encoder", pipeline["enc"],
              "--config", str(pipeline["config"])]
    bad = tmp_path / "bad.dampb"
    other = load_bundle(pipeline["dam_bundle"])
    other.encoder_fingerprint ^= 1
    save_bundle(str(bad), other)
    foreign = [("another encoder's bundle", bad.read_bytes(), "FrozenViolationError")]
    runs = [(pipeline["dam_bundle"], ["eval", "--bundle", str(bad),
                                      "--out", str(tmp_path / "eval.json")], foreign),
            (pipeline["meta_bundle"], ["adapt", "--meta", str(bad), "--mode", "active",
                                       "--out", str(tmp_path / "run.dampb")], [])]
    for source, argv, extra in runs:
        blob = Path(source).read_bytes()
        for case, damaged, kind in corrupt_damp(load_bundle(source), blob) + extra:
            bad.write_bytes(damaged)
            capsys.readouterr()
            rc = cli.main(argv + common)
            assert rc == 2, (argv[0], case)
            captured = capsys.readouterr()
            assert captured.err.count("\n") == 1, (argv[0], case, captured.err)
            assert captured.err.startswith(f"error: {kind}:"), (argv[0], case, captured.err)
            assert "Traceback" not in captured.out + captured.err
            assert sorted(os.listdir(tmp_path)) == ["bad.dampb"], (argv[0], case)


def test_an_edited_pretraining_id_is_refused(pipeline, tmp_path, capsys):
    """Renaming the pretraining dataset inside the encoder file would lift
    the refusal to adapt to it; the digest over the id refuses the file."""
    blob = Path(pipeline["enc"]).read_bytes()
    start, end = damw_fields(E.load_encoder(pipeline["enc"]))["id"]
    edited = tmp_path / "enc.damw"
    edited.write_bytes(blob[:start] + b"X" * (end - start) + blob[end:])
    out = tmp_path / "pre.dampb"
    capsys.readouterr()
    rc = cli.main(["adapt", "--data", pipeline["pre"], "--encoder", str(edited),
                   "--mode", "active", "--out", str(out), "--config", str(pipeline["config"])])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: FingerprintMismatchError:"), err
    assert not out.exists()


def test_descriptor_strings_that_are_not_utf8_exit_2(pipeline, tmp_path, capsys):
    """json reads "\\ud800" as a lone surrogate, which no id or file name
    can hold: the descriptor is refused before any work, so neither a full
    pretraining run nor the diversity score reaches the write."""
    synthetic = tmp_path / "synthetic.json"
    synthetic.write_text('{"kind": "synthetic", "modes": 2, "classes_per_mode": 2, '
                         '"samples_per_class": 6, "size": 16, "id": "bad\\ud800"}')
    idx = tmp_path / "idx.json"
    idx.write_text('{"kind": "idx", "images": "im\\ud800.idx", "labels": "lb.idx", '
                   '"id": "idx"}')
    out = str(tmp_path / "out")
    runs = [["pretrain", "--data", str(synthetic), "--out", out],
            ["diversity", "--data", str(synthetic), "--encoder", pipeline["enc"],
             "--out", out],
            ["pretrain", "--data", str(idx), "--out", out]]
    for argv in runs:
        capsys.readouterr()
        assert cli.main(argv + ["--config", str(pipeline["config"])]) == 2, argv
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
        assert "not UTF-8" in err
        assert sorted(os.listdir(tmp_path)) == ["idx.json", "synthetic.json"]


def test_seed_outside_u64_is_a_usage_error(pipeline, tmp_path, capsys):
    """--seed is an integer in [0, 2**64) on every command that takes it."""
    out = str(tmp_path / "out")
    commands = [["pretrain", "--data", pipeline["pre"]],
                ["calibrate", "--encoder", pipeline["enc"], "--reference", pipeline["ref"]],
                ["diversity", "--data", pipeline["down"], "--encoder", pipeline["enc"]],
                ["meta-train", "--datasets", pipeline["meta1"], "--encoder", pipeline["enc"]],
                ["adapt", "--data", pipeline["down"], "--encoder", pipeline["enc"],
                 "--mode", "active"],
                ["eval", "--data", pipeline["down"], "--bundle", pipeline["dam_bundle"],
                 "--encoder", pipeline["enc"]]]
    for argv in commands:
        for seed in ("-1", str(2 ** 64), "1.5"):
            capsys.readouterr()
            rc = cli.main(argv + ["--out", out, "--seed", seed,
                                  "--config", str(pipeline["config"])])
            assert rc == 1, (argv[0], seed)
            captured = capsys.readouterr()
            assert captured.out == ""
            err = captured.err
            assert err.count("\n") == 1 and err.startswith("usage error:"), err
            assert os.listdir(tmp_path) == []
    assert cli.build_parser().parse_args(commands[0] + ["--out", out, "--seed",
                                                        str(2 ** 64 - 1)]).seed == 2 ** 64 - 1


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


def test_calibrate_on_a_one_sample_probe_exits_2(pipeline, tmp_path, capsys):
    """A probe of one point has no linkage distance to scale a threshold by."""
    one = tmp_path / "probe1.json"
    one.write_text(json.dumps({"probe_size": 1}))
    out = tmp_path / "probe1.calib.json"
    capsys.readouterr()
    assert cli.main(["calibrate", "--encoder", pipeline["enc"], "--reference", pipeline["ref"],
                     "--out", str(out), "--config", str(one)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
    assert os.listdir(tmp_path) == ["probe1.json"]


def test_extents_no_array_can_hold_exit_2(tmp_path, pipeline, capsys):
    """A descriptor size or a config integer past what any array can hold
    is refused by its shape check, before anything large is allocated."""
    out = str(tmp_path / "out")
    huge = _descriptor(tmp_path / "huge.json", modes=2, samples_per_class=3,
                       size=10 ** 20)
    assert cli.main(["diversity", "--data", huge, "--encoder", pipeline["enc"],
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
    assert cli.main(["diversity", "--data", pipeline["down"], "--encoder", pipeline["enc"],
                     "--out", out, "--config", str(cfg)]) == 2
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
         "--encoder", pipeline["enc"], "--out", str(tmp_path / "d.json"), "--config", str(cfg)],
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
    rc = cli.main(["diversity", "--data", str(bad), "--encoder", pipeline["enc"],
                   "--out", str(tmp_path / "d.json")])
    assert rc == 2
    assert "line" in capsys.readouterr().err
    bad.write_bytes(b'{"kind": "synthetic", "id": "caf\xe9"}')
    rc = cli.main(["diversity", "--data", str(bad), "--encoder", pipeline["enc"],
                   "--out", str(tmp_path / "d.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
    assert "UTF-8" in err
    # an integer literal longer than Python parses (4300 digits)
    bad.write_text('{"kind": "synthetic", "size": 1%s}' % ("0" * 5000))
    rc = cli.main(["diversity", "--data", str(bad), "--encoder", pipeline["enc"],
                   "--out", str(tmp_path / "d.json")])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("error: DataError:"), err
