"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 data or contract violation. Every
hyperparameter lives in the config file; flags carry only paths, the seed and
the head mode. Each command that writes artifacts also writes a manifest with
content hashes of inputs and (canonicalized) outputs, so re-running with the
same inputs yields the same hashes regardless of wall clock.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys

import numpy as np

from . import __version__, kernels
from . import adapt as adapt_mod
from . import clustering, data, diversity, encoder as encoder_mod, meta as meta_mod
from .atomic import write_atomic
from .config import RunConfig, load_config
from .errors import ConfigError, DataError, FramePromptError
from .prompt import PromptBundle, load_bundle, save_bundle


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def _file_sha(path: str) -> str:
    with open(path, "rb") as fh:
        return _sha(fh.read())


def canonical_bytes(path: str) -> bytes:
    """Output bytes with volatile fields removed: the seconds column of
    metrics CSVs is blanked, wall-clock keys of json files are dropped."""
    with open(path, "rb") as fh:
        blob = fh.read()
    name = os.path.basename(path)
    if name.endswith(".csv"):
        text = blob.decode("utf-8")
        lines = text.splitlines()
        if lines and "seconds" in lines[0].split(","):
            col = lines[0].split(",").index("seconds")
            out = [lines[0]]
            for line in lines[1:]:
                cells = line.split(",")
                if len(cells) > col:
                    cells[col] = ""
                out.append(",".join(cells))
            return ("\n".join(out) + "\n").encode("utf-8")
        return blob
    if name.endswith(".json"):
        doc = json.loads(blob)
        if isinstance(doc, dict):
            for key in ("seconds", "wall_clock"):
                doc.pop(key, None)
        return json.dumps(doc, sort_keys=True).encode("utf-8")
    return blob


def write_manifest(out_path: str, command: str, seed: int, cfg: RunConfig | None,
                   inputs: dict, outputs: list):
    entries = {os.path.basename(p): _sha(canonical_bytes(p)) for p in outputs}
    joined = "".join(f"{k}:{v};" for k, v in sorted(entries.items()))
    manifest = {
        "command": command,
        "seed": seed,
        "config": json.loads(cfg.snapshot()) if cfg is not None else None,
        "backend": kernels.BACKEND,
        "version": __version__,
        "inputs": {flag: {"path": os.path.basename(p), "sha256": _file_sha(p)}
                   for flag, p in inputs.items()},
        "outputs": entries,
        "outputs_hash": _sha(joined.encode("utf-8")),
    }
    write_atomic(out_path, (json.dumps(manifest, indent=1, sort_keys=True) + "\n")
                 .encode("utf-8"))


def _load_cfg(args) -> RunConfig:
    return load_config(args.config) if args.config else RunConfig()


def _base_id(dataset_id: str) -> str:
    return dataset_id.split("/")[0]


def _load_encoder_with_tau(path: str):
    enc = encoder_mod.load_encoder(path)
    calib = encoder_mod.calib_path(path)
    if os.path.exists(calib):
        with open(calib) as fh:
            doc = json.load(fh)
        if doc.get("encoder_fingerprint") == enc.fingerprint:
            enc.tau_star = float(doc["tau_star"])
    return enc


def cmd_pretrain(args) -> int:
    cfg = _load_cfg(args)
    ds = data.load_descriptor(args.data)
    mean, std = ds.channel_stats()
    ds = ds.standardize(mean, std)
    enc = encoder_mod.pretrain(ds, cfg.pretrain_epochs, args.seed,
                               lr=cfg.pretrain_lr, batch_size=cfg.pretrain_batch_size)
    enc.save(args.out)
    write_manifest(args.out + ".manifest.json", "pretrain", args.seed, cfg,
                   _inputs(args, "data", "config"),
                   [args.out, encoder_mod.meta_path(args.out)])
    print(f"pretrained encoder on {ds.id}: train_top1={enc.train_accuracy:.4f} "
          f"fingerprint={enc.fingerprint:#x} -> {args.out}")
    return 0


def cmd_calibrate(args) -> int:
    cfg = _load_cfg(args)
    enc = encoder_mod.load_encoder(args.encoder)
    ref = data.load_descriptor(args.reference)
    mean, std = ref.channel_stats()
    ref = ref.standardize(mean, std)
    tau = clustering.calibrate_threshold(enc, ref, probe_size=cfg.probe_size,
                                         seed=args.seed)
    doc = {"tau_star": tau, "encoder_fingerprint": enc.fingerprint,
           "reference_dataset_id": _base_id(ref.id), "probe_size": cfg.probe_size,
           "seed": args.seed}
    write_atomic(args.out, (json.dumps(doc, indent=1, sort_keys=True) + "\n")
                 .encode("utf-8"))
    write_manifest(args.out + ".manifest.json", "calibrate", args.seed, cfg,
                   _inputs(args, "encoder", "reference", "config"), [args.out])
    print(f"calibrated tau_star={tau:.6f} on {ref.id} -> {args.out}")
    return 0


def cmd_diversity(args) -> int:
    cfg = _load_cfg(args)
    ds = data.load_descriptor(args.data)
    enc = encoder_mod.load_encoder(args.encoder) if args.encoder else None
    pairs = args.pairs if args.pairs is not None else cfg.pairs
    res = diversity.diversity_score(ds, enc, pairs=pairs, seed=args.seed,
                                    metric=args.space)
    row = (f"{_base_id(ds.id)},{res.metric},{res.pairs},{args.seed},"
           f"{res.score:.6f},{res.spread:.6f}")
    blob = "dataset,metric,pairs,seed,score,score_std\n" + row + "\n"
    write_atomic(args.out, blob.encode("utf-8"))
    write_manifest(args.out + ".manifest.json", "diversity", args.seed, cfg,
                   _inputs(args, "data", "encoder", "config"), [args.out])
    print(row)
    return 0


def cmd_meta_train(args) -> int:
    cfg = _load_cfg(args)
    enc = _load_encoder_with_tau(args.encoder)
    paths = [p for p in args.datasets.split(",") if p]
    if not paths:
        raise UsageError("--datasets must list at least one descriptor")
    datasets = []
    for p in paths:
        ds = data.load_descriptor(p)
        mean, std = ds.channel_stats()
        datasets.append(ds.standardize(mean, std))
    for ds in datasets:
        if _base_id(ds.id) == _base_id(enc.pretrain_dataset_id):
            raise DataError(f"meta dataset {ds.id} equals the pretraining dataset")
    result = meta_mod.meta_train(datasets, enc, cfg, seed=args.seed)
    protos = clustering.PrototypeSet(np.zeros((1, enc.spec.feature_dim)), 0.0,
                                     enc.fingerprint)
    head = adapt_mod.build_head(enc, adapt_mod.HeadMode("hardcoded", 1))
    snapshot = json.dumps({"meta_dataset_ids": result.dataset_ids,
                           "config": json.loads(cfg.snapshot()),
                           "epoch_losses": result.epoch_losses,
                           "update_norms": result.update_norms}, sort_keys=True)
    bundle = PromptBundle([result.prompt], protos, head, enc.fingerprint,
                          snapshot, meta_initialized=True)
    save_bundle(args.out, bundle)
    write_manifest(args.out + ".manifest.json", "meta-train", args.seed, cfg,
                   _inputs(args, "encoder", "config"), [args.out])
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
        meta_ids = set(json.loads(bundle.config_snapshot).get("meta_dataset_ids", []))
    except json.JSONDecodeError:
        meta_ids = set()
    return bundle.prompts[0], meta_ids


def cmd_adapt(args) -> int:
    cfg = _load_cfg(args)
    enc = _load_encoder_with_tau(args.encoder)
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
    mode = adapt_mod.HeadMode(args.mode, full.class_count,
                              noise_count=cfg.noise_count, seed=args.seed)
    bundle, metrics = adapt_mod.adapt(train, enc, cfg, mode, seed=args.seed,
                                      meta=meta_prompt, val=val, test=test)
    save_bundle(args.out, bundle)
    stem = args.out[:-len(".dampb")] if args.out.endswith(".dampb") else args.out
    metrics.write_csv(stem + ".metrics.csv")
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
        "seconds": sum(r[5] for r in metrics.rows),
    }
    write_atomic(stem + ".summary.json",
                 (json.dumps(summary, indent=1, sort_keys=True) + "\n").encode("utf-8"))
    ins = _inputs(args, "data", "encoder", "config")
    if args.meta:
        ins["meta"] = args.meta
    write_manifest(stem + ".manifest.json", "adapt", args.seed, cfg, ins,
                   [args.out, stem + ".metrics.csv", stem + ".summary.json"])
    shown = "nan" if test_row is None else f"{test_row[3]:.4f}"
    print(f"adapted {base} mode={args.mode} n_clusters={bundle.n} "
          f"test_top1={shown} -> {args.out}")
    return 0


def cmd_eval(args) -> int:
    cfg = _load_cfg(args)
    enc = encoder_mod.load_encoder(args.encoder)
    bundle = load_bundle(args.bundle)
    full = data.load_descriptor(args.data)
    _, _, test = data.split_dataset(full, cfg.split_fractions, args.seed)
    if len(test) == 0:
        raise DataError("test split is empty under the configured fractions")
    target = test
    res = adapt_mod.evaluate(target, bundle, enc)
    doc = {"dataset": _base_id(full.id), "split": target.split,
           "loss": res.loss, "top1": res.top1, "n_clusters": bundle.n,
           "routing_histogram": [int(v) for v in res.histogram]}
    write_atomic(args.out, (json.dumps(doc, indent=1, sort_keys=True) + "\n")
                 .encode("utf-8"))
    write_manifest(args.out + ".manifest.json", "eval", args.seed, cfg,
                   _inputs(args, "data", "encoder", "bundle", "config"), [args.out])
    print(f"eval {doc['dataset']}/{doc['split']}: top1={res.top1:.4f} "
          f"loss={res.loss:.4f} n_clusters={bundle.n}")
    return 0


def cmd_report(args) -> int:
    div_by_dataset = {}
    summaries = []
    for root, _, files in sorted(os.walk(args.runs)):
        for name in sorted(files):
            path = os.path.join(root, name)
            if name.endswith(".summary.json"):
                with open(path) as fh:
                    summaries.append(json.load(fh))
            elif name.endswith(".csv"):
                with open(path) as fh:
                    lines = fh.read().splitlines()
                if lines and lines[0].startswith("dataset,metric,"):
                    for line in lines[1:]:
                        cells = line.split(",")
                        if len(cells) >= 5:
                            div_by_dataset[cells[0]] = float(cells[4])
    by_dataset = {}
    for s in summaries:
        slot = by_dataset.setdefault(s["dataset"], {})
        key = "vp" if s.get("force_single_prompt") else "damvp"
        slot.setdefault(key, []).append(s.get("test_top1"))
    lines = ["dataset,diversity,vp_accuracy,damvp_accuracy,gain"]
    for ds in sorted(by_dataset):
        slot = by_dataset[ds]
        vp = np.mean(slot["vp"]) if slot.get("vp") else float("nan")
        dam = np.mean(slot["damvp"]) if slot.get("damvp") else float("nan")
        gain = (dam - vp) * 100.0
        div = div_by_dataset.get(ds, float("nan"))
        lines.append(f"{ds},{div:.6f},{vp:.6f},{dam:.6f},{gain:.6f}")
    blob = "\n".join(lines) + "\n"
    if args.out:
        write_atomic(args.out, blob.encode("utf-8"))
        write_manifest(args.out + ".manifest.json", "report", 0, None, {},
                       [args.out])
    sys.stdout.write(blob)
    return 0


def _inputs(args, *flags) -> dict:
    out = {}
    for flag in flags:
        path = getattr(args, flag, None)
        if path:
            out[flag] = path
    return out


def build_parser() -> _Parser:
    p = _Parser(prog="frameprompt", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, config=True):
        sp.add_argument("--seed", type=int, default=0)
        if config:
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
    sp.add_argument("--encoder", default=None)
    sp.add_argument("--pairs", type=int, default=None)
    sp.add_argument("--space", choices=("feature_l2", "pixel_l2"),
                    default="feature_l2")
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
    sp.add_argument("--mode", required=True, choices=sorted(adapt_mod.MODE_TAGS))
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
        return args.fn(args)
    except SystemExit as e:  # --help and friends
        return int(e.code or 0)
    except UsageError as e:
        msg = str(e).replace("\n", " ")
        print(f"usage error: {msg}", file=sys.stderr)
        return 1
    except FramePromptError as e:
        msg = str(e).replace("\n", " ")
        print(f"error: {type(e).__name__}: {msg}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
