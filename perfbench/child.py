"""One benchmark process: run CLI commands in order, then check their outputs.

Started by run.py as `python3 perfbench/child.py SPEC.json`. The spec names
the package source directory, descriptors to generate and size-check before
the commands (part of set-up), the commands (argv for frameprompt.cli.main,
each with its artifact, manifest and check kind) and the per-layer metrics
to trace, if any.
Prints one json line: per-command exit code, seconds, manifest outputs_hash
and check result, the peak resident memory of this process after the
commands, the facts read from the outputs and, when traced, the per-layer
metrics. The checks run after the peak memory and the trace are read, so they
count in neither.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import sys
import time


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _check(kind, command, mods):
    """Reload a command's artifact through the package's own loaders and
    return the facts it carries; raises on anything malformed."""
    data, encoder, prompt, config = mods
    out = command["out"]
    if kind == "encoder":
        enc = encoder.load_encoder(out)
        return {"train_top1": enc.train_accuracy, "fingerprint": f"{enc.fingerprint:#x}"}
    if kind == "calib":
        with open(out) as fh:
            tau = json.load(fh)["tau_star"]
        if not (math.isfinite(tau) and tau > 0):
            raise ValueError(f"tau_star {tau!r} is not a positive number")
        return {"tau_star": tau}
    if kind == "bundle":
        bundle = prompt.load_bundle(out)
        with open(out[:-len(".dampb")] + ".summary.json") as fh:
            summary = json.load(fh)
        if summary["n_clusters"] != bundle.n:
            raise ValueError(f"summary says {summary['n_clusters']} clusters, "
                             f"bundle holds {bundle.n}")
        argv = command["argv"]
        cfg = config.load_config(_flag(argv, "--config"))
        full = data.load_descriptor(_flag(argv, "--data"))
        train = data.split_dataset(full, cfg.split_fractions, int(_flag(argv, "--seed", 0)))[0]
        return {"n_clusters": bundle.n, "train_size": len(train),
                "adapt_test_top1": summary["test_top1"]}
    if kind == "meta":
        bundle = prompt.load_bundle(out)
        if not bundle.meta_initialized:
            raise ValueError("meta-train wrote a bundle without the meta flag")
        losses = json.loads(bundle.config_snapshot)["epoch_losses"]
        return {"meta_loss_first": losses[0], "meta_loss_last": losses[-1],
                "meta_loss_drop": losses[0] - losses[-1]}
    if kind == "eval":
        with open(out) as fh:
            doc = json.load(fh)
        hist = doc["routing_histogram"]
        if sum(hist) != command["images"]:
            raise ValueError(f"eval routed {sum(hist)} images, expected {command['images']}")
        return {"test_top1": doc["top1"], "routing_histogram": hist,
                "images": command["images"]}
    raise ValueError(f"unknown check kind {kind!r}")


def main(spec_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from frameprompt import cli, config, data, encoder, prompt

    mods = (data, encoder, prompt, config)
    report = {"load_s": 0.0, "commands": [], "facts": {}}

    t0 = time.perf_counter()
    for path, count in spec["loads"]:
        n = len(data.load_descriptor(path))
        if n != count:
            print(f"{path}: {n} images, expected {count}", file=sys.stderr)
            return 3
    report["load_s"] = time.perf_counter() - t0

    tracer = None
    if spec["layer_metrics"]:
        from spans import Tracer
        tracer = Tracer().install()

    for command in spec["commands"]:
        buf = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(command["argv"])
        except Exception as e:  # a traceback from the program is a failed command
            rc, err = -1, f"{type(e).__name__}: {e}"
        else:
            err = None if rc == 0 else f"exit code {rc}"
        seconds = time.perf_counter() - t0
        report["commands"].append({"name": command["name"], "rc": rc, "seconds": seconds,
                                   "error": err, "hash": None})
        if rc != 0:
            break

    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        report["layers"] = {m: tracer.value(m) for m in spec["layer_metrics"]}
        tracer.restore()

    for command, row in zip(spec["commands"], report["commands"]):
        if row["rc"] != 0:
            continue
        try:
            with open(command["manifest"]) as fh:
                row["hash"] = json.load(fh)["outputs_hash"]
            report["facts"][command["name"]] = _check(command["check"], command, mods)
        except Exception as e:  # any malformed artifact fails the command
            row["error"] = f"output check: {type(e).__name__}: {e}"
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
