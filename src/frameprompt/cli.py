"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 data or contract violation, a
path that cannot be read or written, or an array too large for memory. Every
hyperparameter lives in the config file; flags carry only paths, the seed (an
integer in [0, 2**64)) and the head mode; the encoder is its one .damw file;
adapt and meta-train resolve tau "calibrate" from the encoder's
calibration sidecar. A command that writes artifacts writes a manifest of
what it read and wrote (atomic.recording): its working directory, [path as
opened, sha256] of each file read, in read order, and the sha256 of each
(canonicalized) output; timings live only under the seconds key of adapt's
summary json, which the hash leaves out, so a rerun on the same inputs
writes the same bytes and hashes. report reads the *.summary.json and
*.diversity.json records under --runs and writes one csv row per (dataset,
mode, meta_initialized) arm, with the diversity of its dataset.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__, kernels
from . import adapt as adapt_mod
from . import clustering, data, diversity, encoder as encoder_mod, meta as meta_mod
from .atomic import read_json_object, recorded, recording, write_atomic, write_json
from .config import RunConfig, load_config
from .errors import ConfigError, DataError, FormatError, FramePromptError
from .prompt import HEAD_KINDS, HeadState, PromptBundle, load_bundle, save_bundle


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def write_manifest(out_path: str, command: str, seed: int, cfg: RunConfig | None):
    """The running command's record (atomic.recorded) as its manifest; inputs
    keep read order, which can decide the outputs (meta-train's --datasets)."""
    inputs, written = recorded()
    entries = {os.path.basename(p): sha for p, sha in written.items()}
    joined = "".join(f"{k}:{v};" for k, v in sorted(entries.items()))
    manifest = {
        "command": command,
        "cwd": os.getcwd(),
        "seed": seed,
        "config": json.loads(cfg.snapshot()) if cfg is not None else None,
        "backend": kernels.BACKEND,
        "version": __version__,
        "inputs": [[p, sha] for p, sha in inputs.items()],
        "outputs": entries,
        "outputs_hash": hashlib.sha256(joined.encode("utf-8")).hexdigest(),
    }
    write_json(out_path, manifest)


def _load_cfg(args) -> RunConfig:
    return load_config(args.config) if args.config else RunConfig()


def _base_id(dataset_id: str) -> str:
    return dataset_id.split("/")[0]


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _calibrated(cfg: RunConfig, enc, encoder_path: str) -> RunConfig:
    """cfg with tau set to the tau_star that calibrate wrote beside enc's weights."""
    path = os.path.splitext(encoder_path)[0] + ".calib.json"
    if not os.path.exists(path):
        raise ConfigError(f"no {path} for tau \"calibrate\"; run the calibrate command first")
    doc = read_json_object(path, "calibration")
    if doc.get("encoder_fingerprint") != enc.fingerprint:
        raise DataError(f"{path}: calibrated for another encoder than {enc.fingerprint:#x}")
    tau = doc.get("tau_star")
    if not (_is_number(tau) and 0 < tau <= sys.float_info.max):
        raise FormatError(f"{path}: calibration needs a finite positive "
                          f"tau_star, got {tau!r}")
    return replace(cfg, tau=float(tau))


def cmd_pretrain(args) -> int:
    cfg = _load_cfg(args)
    ds = data.load_descriptor(args.data)
    ds.standardize(*ds.channel_stats())
    enc = encoder_mod.pretrain(ds, cfg.pretrain_epochs, args.seed,
                               lr=cfg.pretrain_lr, batch_size=cfg.pretrain_batch_size)
    enc.save(args.out)
    write_manifest(args.out + ".manifest.json", "pretrain", args.seed, cfg)
    print(f"pretrained encoder on {ds.id}: train_top1={enc.train_accuracy:.4f} "
          f"fingerprint={enc.fingerprint:#x} -> {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    cfg = _load_cfg(args)
    enc = encoder_mod.load_encoder(args.encoder)
    ref = data.load_descriptor(args.reference)
    ref.standardize(*ref.channel_stats())
    tau = clustering.calibrate_threshold(enc, ref, probe_size=cfg.probe_size,
                                         seed=args.seed)
    doc = {"tau_star": tau, "encoder_fingerprint": enc.fingerprint,
           "reference_dataset_id": _base_id(ref.id), "probe_size": cfg.probe_size,
           "seed": args.seed}
    write_json(args.out, doc)
    write_manifest(args.out + ".manifest.json", "calibrate", args.seed, cfg)
    print(f"calibrated tau_star={tau:.6f} on {ref.id} -> {args.out}")
    return 0


def cmd_diversity(args) -> int:
    cfg = _load_cfg(args)
    ds = data.load_descriptor(args.data)
    enc = encoder_mod.load_encoder(args.encoder)
    res = diversity.diversity_score(ds, enc, pairs=cfg.pairs, seed=args.seed)
    write_json(args.out, {"dataset": _base_id(ds.id), "pairs": res.pairs, "seed": args.seed,
                          "score": res.score, "score_std": res.spread})
    write_manifest(args.out + ".manifest.json", "diversity", args.seed, cfg)
    print(f"diversity of {ds.id}: score={res.score:.6f} score_std={res.spread:.6f} "
          f"over {res.pairs} pairs -> {args.out}")
    return 0


def cmd_meta_train(args) -> int:
    cfg = _load_cfg(args)
    enc = encoder_mod.load_encoder(args.encoder)
    paths = [p for p in args.datasets.split(",") if p]
    if not paths:
        raise UsageError("--datasets must list at least one descriptor")
    if cfg.tau == "calibrate":
        cfg = _calibrated(cfg, enc, args.encoder)
    datasets = [data.load_descriptor(p) for p in paths]
    for ds in datasets:
        if _base_id(ds.id) == _base_id(enc.pretrain_dataset_id):
            raise DataError(f"meta dataset {ds.id} equals the pretraining dataset")
        ds.standardize(*ds.channel_stats())
    result = meta_mod.meta_train(datasets, enc, cfg, seed=args.seed)
    protos = np.zeros((1, enc.spec.feature_dim))
    head = HeadState("hardcoded", indices=np.zeros(1, np.int64))
    snapshot = json.dumps({"meta_dataset_ids": [ds.id for ds in datasets],
                           "config": json.loads(cfg.snapshot()),
                           "epoch_losses": result.epoch_losses,
                           "update_norms": result.update_norms}, sort_keys=True)
    bundle = PromptBundle([result.prompt], protos, head, enc.fingerprint,
                          snapshot, meta_initialized=True)
    save_bundle(args.out, bundle)
    write_manifest(args.out + ".manifest.json", "meta-train", args.seed, cfg)
    print(f"meta prompt over {len(datasets)} datasets: "
          f"loss {result.epoch_losses[0]:.4f} -> {result.epoch_losses[-1]:.4f}, "
          f"out {args.out}")
    return 0


def _load_meta_prompt(path: str, enc):
    bundle = load_bundle(path)
    if not bundle.meta_initialized:
        raise DataError(f"{path} is not a meta-initialized bundle")
    if bundle.encoder_fingerprint != enc.fingerprint:
        raise DataError(f"meta bundle encoder {bundle.encoder_fingerprint:#x} "
                        f"vs {enc.fingerprint:#x}")
    try:
        doc = json.loads(bundle.config_snapshot)
    except ValueError as e:
        raise FormatError(f"{path}: meta bundle snapshot is not valid json: {e}") from None
    ids = doc.get("meta_dataset_ids") if isinstance(doc, dict) else None
    if not (isinstance(ids, list) and all(isinstance(i, str) for i in ids)):
        raise FormatError(f"{path}: meta bundle snapshot needs a json object whose "
                          f"meta_dataset_ids is a list of strings")
    return bundle.prompts[0], set(ids)


def cmd_adapt(args) -> int:
    cfg = _load_cfg(args)
    enc = encoder_mod.load_encoder(args.encoder)
    if cfg.tau == "calibrate" and not cfg.force_single_prompt:
        cfg = _calibrated(cfg, enc, args.encoder)
    full = data.load_descriptor(args.data)
    base = _base_id(full.id)
    if base == _base_id(enc.pretrain_dataset_id):
        raise DataError(f"adaptation dataset {base} equals the pretraining dataset")
    meta_prompt = None
    if args.meta:
        meta_prompt, meta_ids = _load_meta_prompt(args.meta, enc)
        if base in {_base_id(i) for i in meta_ids}:
            raise DataError(f"adaptation dataset {base} was used for meta training")
    train, val, test = data.split_dataset(full, cfg.split_fractions, args.seed)
    bundle, metrics = adapt_mod.adapt(train, enc, cfg, args.mode, seed=args.seed,
                                      meta=meta_prompt, val=val, test=test)
    save_bundle(args.out, bundle)
    stem = args.out[:-len(".dampb")] if args.out.endswith(".dampb") else args.out
    write_atomic(stem + ".metrics.csv", metrics.to_csv().encode("utf-8"))
    test_row = metrics.final("test")
    train_row = metrics.final("train")
    summary = {
        "dataset": base,
        "mode": args.mode,
        "seed": args.seed,
        "force_single_prompt": cfg.force_single_prompt,
        "meta_initialized": meta_prompt is not None,
        "n_clusters": bundle.n,
        "train_top1": train_row[3],
        "test_top1": test_row[3] if test_row else None,
        "test_loss": test_row[2] if test_row else None,
        "encoder_fingerprint": enc.fingerprint,
        "seconds": metrics.seconds,
    }
    write_json(stem + ".summary.json", summary)
    write_manifest(stem + ".manifest.json", "adapt", args.seed, cfg)
    shown = "nan" if test_row is None else f"{test_row[3]:.4f}"
    print(f"adapted {base} mode={args.mode} n_clusters={bundle.n} "
          f"test_top1={shown} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    enc = encoder_mod.load_encoder(args.encoder)
    bundle = load_bundle(args.bundle)
    full = data.load_descriptor(args.data)
    base = _base_id(full.id)
    _, _, test = data.split_dataset(full, cfg.split_fractions, args.seed)
    if len(test) == 0:
        raise DataError("test split is empty under the configured fractions")
    res = adapt_mod.evaluate(test, bundle, enc)
    doc = {"dataset": base, "split": "test",
           "loss": res.loss, "top1": res.top1, "n_clusters": bundle.n,
           "routing_histogram": [int(v) for v in res.histogram]}
    write_json(args.out, doc)
    write_manifest(args.out + ".manifest.json", "eval", args.seed, cfg)
    print(f"eval {doc['dataset']}/{doc['split']}: top1={res.top1:.4f} "
          f"loss={res.loss:.4f} n_clusters={bundle.n}")
    return 0


def cmd_report(args) -> int:
    div_by_dataset = {}
    by_arm = {}
    for root, _, files in sorted(os.walk(args.runs, onerror=_raise)):
        for name in sorted(files):
            path = os.path.join(root, name)
            if name.endswith(".summary.json"):
                s = _read_summary(path)
                slot = by_arm.setdefault((s["dataset"], s["mode"], s["meta_initialized"]),
                                         {True: [], False: []})
                # a run without a test accuracy (an empty test split) stays out
                if s["test_top1"] is not None:
                    slot[s["force_single_prompt"]].append(s["test_top1"])
            elif name.endswith(".diversity.json"):
                record = _read_diversity(path)
                div_by_dataset[record["dataset"]] = record["score"]
    out = io.StringIO()
    rows = csv.writer(out, lineterminator="\n")
    rows.writerow(["dataset", "mode", "meta_initialized", "diversity", "vp_accuracy",
                   "damvp_accuracy", "gain"])
    for (ds, mode, meta), slot in sorted(by_arm.items()):
        # slot[True] holds the forced single prompts, slot[False] the rest
        vp, dam = (np.mean(slot[k]) if slot[k] else float("nan") for k in (True, False))
        gain = (dam - vp) * 100.0
        div = div_by_dataset.get(ds, float("nan"))
        rows.writerow([ds, mode, str(meta).lower(),
                       *(f"{v:.6f}" for v in (div, vp, dam, gain))])
    blob = out.getvalue()
    if args.out:
        write_atomic(args.out, blob.encode("utf-8"))
        write_manifest(args.out + ".manifest.json", "report", 0, None)
    sys.stdout.write(blob)
    return 0


def _raise(error: OSError):
    raise error


def _read_summary(path: str) -> dict:
    doc = read_json_object(path, "run summary")
    top1 = doc.get("test_top1")
    if not (isinstance(doc.get("dataset"), str) and isinstance(doc.get("mode"), str)
            and isinstance(doc.get("force_single_prompt"), bool)
            and isinstance(doc.get("meta_initialized"), bool)
            and (top1 is None or _is_number(top1))):
        raise FormatError(f"{path}: run summary needs string dataset and mode, "
                          f"boolean force_single_prompt and meta_initialized, and a "
                          f"numeric or null test_top1")
    return doc


def _read_diversity(path: str) -> dict:
    doc = read_json_object(path, "diversity record")
    score = doc.get("score")
    # exact comparisons: json's NaN and Infinity fail them, and so does an
    # integer past any float, which float() would overflow on
    if not (isinstance(doc.get("dataset"), str) and _is_number(score)
            and abs(score) <= sys.float_info.max):
        raise FormatError(f"{path}: diversity record needs a string dataset and a "
                          f"finite numeric score")
    return doc


def _seed(text: str) -> int:
    """A --seed value, which the encoder file keeps in a u64 field."""
    seed = int(text)  # a ValueError becomes argparse's "invalid _seed value"
    if not 0 <= seed < 2 ** 64:
        raise argparse.ArgumentTypeError(f"seed must be in [0, 2**64), got {seed}")
    return seed


def build_parser() -> _Parser:
    p = _Parser(prog="frameprompt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--seed", type=_seed, default=0)
        sp.add_argument("--config", default=None)

    sp = sub.add_parser("pretrain", help="train and freeze the encoder")
    sp.add_argument("--data", required=True)
    sp.add_argument("--out", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_pretrain)

    sp = sub.add_parser("calibrate", help="derive the cluster threshold")
    sp.add_argument("--encoder", required=True)
    sp.add_argument("--reference", required=True)
    sp.add_argument("--out", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_calibrate)

    sp = sub.add_parser("diversity", help="dataset diversity score")
    sp.add_argument("--data", required=True)
    sp.add_argument("--encoder", required=True)
    sp.add_argument("--out", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_diversity)

    sp = sub.add_parser("meta-train", help="train the meta prompt")
    sp.add_argument("--datasets", required=True,
                    help="comma-separated descriptor paths")
    sp.add_argument("--encoder", required=True)
    sp.add_argument("--out", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_meta_train)

    sp = sub.add_parser("adapt", help="cluster and train per-cluster prompts")
    sp.add_argument("--data", required=True)
    sp.add_argument("--encoder", required=True)
    sp.add_argument("--meta", default=None)
    sp.add_argument("--mode", required=True, choices=HEAD_KINDS)
    sp.add_argument("--out", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_adapt)

    sp = sub.add_parser("eval", help="evaluate a bundle")
    sp.add_argument("--data", required=True)
    sp.add_argument("--bundle", required=True)
    sp.add_argument("--encoder", required=True)
    sp.add_argument("--out", required=True)
    common(sp)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("report", help="aggregate run summaries")
    sp.add_argument("--runs", required=True)
    sp.add_argument("--out", default=None)
    sp.set_defaults(fn=cmd_report)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        with recording():
            return args.fn(args)
    except SystemExit as e:  # --help and friends
        return int(e.code or 0)
    except UsageError as e:
        msg = str(e).replace("\n", " ")
        print(f"usage error: {msg}", file=sys.stderr)
        return 1
    except (FramePromptError, OSError, MemoryError) as e:
        # OSError: a path that cannot be read; MemoryError: an array within
        # any address space but past this machine's memory (numpy raises a
        # private subclass, so its public name is printed)
        kind = "MemoryError" if isinstance(e, MemoryError) else type(e).__name__
        msg = str(e).replace("\n", " ")
        print(f"error: {kind}: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
