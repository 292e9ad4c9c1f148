"""End-to-end benchmark of the frameprompt command line.

Run from the repository root:

    python3 perfbench/run.py --workload adapt-8mode --seed 0 --seconds 12 --trace 0

Each workload is a chain of CLI subcommands (frameprompt.cli.main, as a user
chains them) on synthetic modemix descriptors generated from --seed; seed 0
reproduces the acceptance-suite datasets. One run:

1. writes the descriptors and configs into a scratch directory inside the
   checkout (removed afterwards);
2. sets up `setup_reps` times, each in a fresh process: generate and
   size-check every descriptor the timed chain reads, then run the set-up
   commands (for most workloads: pretrain and calibrate the acceptance
   suite's desk encoder). setup_s is the median;
3. runs the timed chain in a fresh process per repetition, repeating while
   another repetition still fits in --seconds (at least once). Timings are
   medians over the repetitions; peak_rss_mb is the chain process's peak
   resident memory;
4. checks every command: exit code 0, its artifact reloads through the
   package's own loader, its manifest outputs_hash is identical across the
   repetitions, and the workload's learning guard holds (a floor on test
   accuracy, pretraining accuracy or the meta loss drop, so a speed-up that
   breaks learning fails). Any failure counts against the operations
   attempted: the commands, plus one descriptor check per set-up.

With --trace 1 it runs the chain once untraced and once traced (spans.py
wraps the package's public functions from outside) and reports the
per-layer metrics, the tracing overhead, and checks that both chains wrote
identical outputs_hash values.

Human-readable lines come first: the environment, the per-workload facts and
every metric with its unit and sample count. The last line is the json
result: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench-work")
DEADLINE_S = 170.0  # the whole run, set-up included, must end within 180 s

SEED_STRIDE = 1000  # descriptor seed = acceptance-suite seed + SEED_STRIDE * --seed


def _synthetic(modes, classes, per_class, jitter, seed):
    return {"kind": "synthetic", "modes": modes, "classes_per_mode": classes,
            "samples_per_class": per_class, "jitter": jitter, "seed": seed}


@dataclass
class Command:
    name: str
    argv: list
    out: str            # artifact the check reloads
    check: str          # kind of check, see child._check
    manifest: str = ""  # defaults to out + ".manifest.json"
    images: int = 0     # eval only: images the routing histogram must cover

    def spec(self, dirs: dict) -> dict:
        fill = lambda s: s.format(**dirs)
        return {"name": self.name, "argv": [fill(a) for a in self.argv],
                "out": fill(self.out), "check": self.check,
                "manifest": fill(self.manifest or self.out + ".manifest.json"),
                "images": self.images}


@dataclass
class Workload:
    name: str
    descriptors: dict          # file name -> descriptor (seeds already offset)
    configs: dict              # file name -> RunConfig overrides
    loads: list                # (descriptor file, image count) checked in set-up
    setup: list                # set-up commands
    chain: list                # timed commands
    train: str                 # the chain command reported as train_s
    guards: list               # (command, fact, floor): the fact must exceed the floor
    setup_reps: int = 2


# ---- command builders; {in} is the inputs dir, {setup} the set-up output
# ---- dir of the first set-up, {here} the directory of this repetition

def _pretrain(where):
    return Command("pretrain", ["pretrain", "--data", "{in}/pretrain.json",
                                "--out", where + "/enc.damw", "--seed", "11",
                                "--config", "{in}/pretrain.cfg.json"],
                   where + "/enc.damw", "encoder")


def _calibrate(where, reference, config):
    return Command("calibrate", ["calibrate", "--encoder", where + "/enc.damw",
                                 "--reference", "{in}/" + reference,
                                 "--out", where + "/enc.calib.json", "--seed", "0",
                                 "--config", "{in}/" + config],
                   where + "/enc.calib.json", "calib")


def _adapt_chain(config):
    return [
        Command("adapt", ["adapt", "--data", "{in}/task.json", "--encoder", "{setup}/enc.damw",
                          "--mode", "active", "--out", "{here}/task.dampb", "--seed", "31",
                          "--config", "{in}/" + config],
                "{here}/task.dampb", "bundle", manifest="{here}/task.manifest.json"),
        Command("eval", ["eval", "--data", "{in}/heldout.json", "--bundle", "{here}/task.dampb",
                         "--encoder", "{setup}/enc.damw", "--out", "{here}/heldout.eval.json",
                         "--seed", "61", "--config", "{in}/eval.cfg.json"],
                "{here}/heldout.eval.json", "eval", images=2880),
    ]


def build_workload(name: str, seed: int) -> Workload:
    """The four pinned workloads. Every descriptor seed is the acceptance
    suite's seed shifted by SEED_STRIDE * seed; command seeds stay pinned."""
    off = SEED_STRIDE * seed
    desk_data = {"pretrain.json": _synthetic(4, 4, 30, 0.06, 11 + off),
                 "reference.json": _synthetic(1, 2, 150, 0.05, 21 + off)}
    desk_cfg = {"pretrain.cfg.json": {"pretrain_epochs": 4},
                "calibrate.cfg.json": {"probe_size": 300}}
    desk_setup = [_pretrain("{here}"), _calibrate("{here}", "reference.json",
                                                  "calibrate.cfg.json")]
    suite = {"epochs": 6, "lr": 0.1, "warmup_epochs": 2, "batch_size": 64}
    if name in ("adapt-8mode", "vp-8mode"):
        single = name == "vp-8mode"
        return Workload(
            name,
            {**desk_data, "task.json": _synthetic(8, 2, 60, 0.03, 31 + off),
             "heldout.json": _synthetic(8, 2, 200, 0.03, 61 + off)},
            {**desk_cfg, "adapt.cfg.json": {**suite, "force_single_prompt": single},
             "eval.cfg.json": {"split_fractions": [0.1, 0.0, 0.9]}},
            [("task.json", 960), ("heldout.json", 3200)],
            desk_setup, _adapt_chain("adapt.cfg.json"), "adapt",
            # chance is 1/16; one prompt per cluster separates all 8 modes
            [("eval", "test_top1", 0.5 if single else 0.9)])
    if name == "pretrain-calibrate":
        return Workload(
            name,
            {"pretrain.json": desk_data["pretrain.json"],
             "reference.json": _synthetic(1, 2, 500, 0.05, 21 + off)},
            {"pretrain.cfg.json": desk_cfg["pretrain.cfg.json"], "calibrate.cfg.json": {}},
            [("pretrain.json", 480), ("reference.json", 1000)],
            [],
            [_pretrain("{here}"), _calibrate("{here}", "reference.json",
                                             "calibrate.cfg.json")],
            "pretrain", [("pretrain", "train_top1", 0.9)], setup_reps=5)
    if name == "meta-train":
        meta_cfg = {**suite, "meta_epochs": 10, "inner_steps": 4, "eta": 0.5,
                    "gamma": 0.5, "meta_batch_size": 16}
        return Workload(
            name,
            {**desk_data, "meta-a.json": _synthetic(4, 2, 40, 0.05, 41 + off),
             "meta-b.json": _synthetic(4, 2, 40, 0.05, 42 + off)},
            {**desk_cfg, "meta.cfg.json": meta_cfg},
            [("meta-a.json", 320), ("meta-b.json", 320)],
            desk_setup,
            [Command("meta-train", ["meta-train", "--datasets",
                                    "{in}/meta-a.json,{in}/meta-b.json",
                                    "--encoder", "{setup}/enc.damw", "--out",
                                    "{here}/meta.dampb", "--seed", "7",
                                    "--config", "{in}/meta.cfg.json"],
                     "{here}/meta.dampb", "meta")],
            "meta-train", [("meta-train", "meta_loss_drop", 0.0)])
    raise KeyError(name)


WORKLOADS = ("adapt-8mode", "vp-8mode", "pretrain-calibrate", "meta-train")


# ---- environment ----

def _blas_threads():
    """OpenBLAS's own thread count, read from numpy's bundled library."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment() -> dict:
    import numpy as np

    sys.path.insert(0, SRC)
    from frameprompt import kernels

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"backend": kernels.BACKEND, "python": platform.python_version(),
            "numpy": np.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": _blas_threads(), "nproc": os.cpu_count()}


# ---- running ----

class Runner:
    """Starts the benchmark processes of one run and books every operation
    attempted and every operation failed, once each."""

    def __init__(self, wl: Workload, work: str, start: float, layer_metrics: list):
        self.wl = wl
        self.layer_metrics = layer_metrics
        self.work = work
        self.start = start
        self.attempted = 0
        self.failures = {}  # (repetition tag, command) -> first reason

    def fail(self, tag: str, name: str, why: str):
        self.failures.setdefault((tag, name), why)

    def left(self) -> float:
        return DEADLINE_S - (time.monotonic() - self.start)

    def child(self, tag: str, commands: list, loads=(), trace=False):
        """Run commands in a fresh process; returns its report or None. The
        descriptor check of a set-up counts as one more operation."""
        here = os.path.join(self.work, tag)
        os.makedirs(here)
        dirs = {"in": os.path.join(self.work, "inputs"), "here": here,
                "setup": os.path.join(self.work, "setup-0")}
        spec = {"src": SRC, "layer_metrics": self.layer_metrics if trace else [],
                "loads": [[os.path.join(dirs["in"], f), n] for f, n in loads],
                "commands": [c.spec(dirs) for c in commands]}
        spec_path = os.path.join(here, "spec.json")
        with open(spec_path, "w") as fh:
            json.dump(spec, fh)
        names = [c.name for c in commands] + (["descriptors"] if loads else [])
        self.attempted += len(names)
        try:
            proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py"), spec_path],
                                  stdout=subprocess.PIPE, text=True,
                                  timeout=max(self.left(), 1.0))
        except subprocess.TimeoutExpired:
            for name in names:
                self.fail(tag, name, "timed out")
            return None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            for name in names:
                self.fail(tag, name, f"benchmark process exited {proc.returncode}")
            return None
        report = json.loads(lines[-1])
        report["tag"] = tag
        for c, row in zip(commands, report["commands"]):
            if row["error"]:
                self.fail(tag, c.name, row["error"])
        for c in commands[len(report["commands"]):]:
            self.fail(tag, c.name, "not run after an earlier failure")
        return report

    def check_guards(self, report):
        for name, fact, floor in self.wl.guards:
            value = report["facts"].get(name, {}).get(fact)
            if value is not None and not value > floor:
                self.fail(report["tag"], name, f"{fact} = {value} is not above {floor}")

    def same_hashes(self, reports: list):
        """Every command's outputs_hash must equal the first repetition's."""
        reports = [r for r in reports if r is not None]
        for r in reports[1:]:
            for first, row in zip(reports[0]["commands"], r["commands"]):
                if row["hash"] != first["hash"]:
                    self.fail(r["tag"], row["name"], f"outputs_hash {row['hash']} differs "
                              f"from {reports[0]['tag']}'s {first['hash']}")


def _wall(report) -> float:
    return sum(c["seconds"] for c in report["commands"])


def run(wl: Workload, seconds: float, work: str, start: float, layer_metrics: list):
    trace = bool(layer_metrics)
    inputs = os.path.join(work, "inputs")
    os.makedirs(inputs)
    for name, doc in {**wl.descriptors, **wl.configs}.items():
        with open(os.path.join(inputs, name), "w") as fh:
            json.dump(doc, fh)
    r = Runner(wl, work, start, layer_metrics)

    setups = [r.child(f"setup-{i}", wl.setup, wl.loads)
              for i in range(1 if trace else wl.setup_reps)]
    r.same_hashes(setups)
    if setups[0] is None or any(c["rc"] for c in setups[0]["commands"]):
        return r, setups, [], None

    chains = []
    if trace:
        chains.append(r.child("chain-0", wl.chain))
        traced = r.child("chain-traced", wl.chain, trace=True)
        for rep in chains + [traced]:
            if rep is not None:
                r.check_guards(rep)
        r.same_hashes(chains + [traced])
        return r, setups, chains, traced
    measured = 0.0
    while True:
        rep = r.child(f"chain-{len(chains)}", wl.chain)
        chains.append(rep)
        if rep is None:
            break
        r.check_guards(rep)
        last = _wall(rep)
        measured += last
        if measured + last > seconds or last > r.left():
            break
    r.same_hashes(chains)
    return r, setups, chains, None


# ---- reporting ----

def _median(values):
    return statistics.median(values) if values else 0.0  # only when nothing ran


def summarize(wl: Workload, setups, chains, traced, trace: bool):
    setups = [s for s in setups if s is not None]
    chains = [c for c in chains if c is not None and len(c["commands"]) == len(wl.chain)]
    samples = {}

    def put(name, values, unit):
        samples[name] = (_median(values), values, unit)

    put("setup_s", [s["load_s"] + _wall(s) for s in setups], "s")
    put("wall_s", [_wall(c) for c in chains], "s")
    for i, cmd in enumerate(wl.chain):
        put(cmd.name.replace("-", "_") + "_s",
            [c["commands"][i]["seconds"] for c in chains], "s")
        if cmd.name == wl.train:
            put("train_s", [c["commands"][i]["seconds"] for c in chains], "s")
        if cmd.check == "eval":
            put("eval_images_per_s",
                [cmd.images / c["commands"][i]["seconds"] for c in chains], "images/s")
    put("peak_rss_mb", [c["peak_rss_mb"] for c in chains], "MiB")
    facts = chains[0]["facts"] if chains else {}
    if "eval" in facts:
        put("test_top1", [c["facts"]["eval"]["test_top1"] for c in chains], "fraction")
    setup_facts = setups[0]["facts"] if setups else {}
    facts = {**{f"setup.{k}": v for k, v in setup_facts.items()}, **facts}
    hashes = {c["name"]: c["hash"] for c in (chains[0]["commands"] if chains else [])}
    hashes.update({f"setup.{c['name']}": c["hash"]
                   for c in (setups[0]["commands"] if setups else [])})

    layers = None
    if trace and traced is not None and chains:
        layers = dict(traced["layers"])
        layers["trace.untraced_wall_s"] = _wall(chains[0])
        layers["trace.traced_wall_s"] = _wall(traced)
        layers["trace.overhead_s"] = _wall(traced) - _wall(chains[0])
    return samples, facts, hashes, layers


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    if not os.path.isfile(os.path.join(SRC, "frameprompt", "cli.py")):
        print(f"perfbench: no frameprompt sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2

    start = time.monotonic()
    wl = build_workload(args.workload, args.seed)
    trace = bool(args.trace)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    # trace.* rows come from comparing the two chains, the rest from spans
    layer_metrics = [m["name"] for m in declared
                     if trace and not m["name"].startswith("trace.")]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT)
    try:
        r, setups, chains, traced = run(wl, args.seconds, work, start, layer_metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass
    samples, facts, hashes, layers = summarize(wl, setups, chains, traced, trace)
    failed = len(r.failures)

    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    print("facts " + json.dumps(facts, sort_keys=True))
    print("outputs_hash " + json.dumps(hashes, sort_keys=True))
    for name, (value, values, unit) in samples.items():
        shown = ", ".join(f"{v:.4g}" for v in values)
        print(f"  {name:<20} {value:>14.6g} {unit:<9} median of {len(values)}: {shown}")
    print(f"  {'error_rate':<20} {failed / max(r.attempted, 1):>14.6g} {'fraction':<9} "
          f"{failed} failed of {r.attempted} operations")
    for (tag, name), why in r.failures.items():
        print(f"  FAILED {tag}/{name}: {why}")

    if trace:
        values = layers or {}
    else:
        values = {k: v[0] for k, v in samples.items()}
    missing = [m["name"] for m in declared if m["name"] not in values]
    if values and missing:
        raise KeyError(f"BENCHMARK.json declares metrics the run does not measure: {missing}")
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
               for m in declared}
    ok = failed == 0 and any(c is not None for c in chains)
    print(json.dumps({"correct": ok, "attempted": max(r.attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
