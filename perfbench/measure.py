"""The measured process: loads one workload instance's inputs and runs the
timed public calls in rounds, checking every result.

    python3 perfbench/measure.py --workload NAME --instance I --inputs DIR
        --seconds S --cpu N [--trace] [--spans-dir DIR]

Each round makes one timed `adapt` call. The first round also sets up: it
loads the inputs `SETUP_REPEATS` times, and more until `SETUP_MIN_S` has
passed, and, where adapt does not start from the input checkpoint, runs
`pretrain_source` on the source graph. Rounds repeat while another one is
expected to end within `--seconds` (the median wall time of the `adapt`
calls so far); the first two always run, the first being the warm-up. Each
round prints one JSON line as soon as it ends; the last line carries the
peak RSS and the environment. With `--trace`, rounds alternate traced and
untraced, starting with a traced one, so that the first round's spans
cover set-up and pretraining and its RSS growth is measured in a fresh
process (see tracer.py); traced rounds add their per-layer metrics under
"layer" and write their spans to `--spans-dir`.

The process runs on core `--cpu` only, beside the reference loop of
calibrate.py. Every timed call is recorded as [start, end, CPU seconds]
(start and end on CLOCK_MONOTONIC), with its epoch count where it has one;
the parent scales the CPU time by the core's speed over that interval.
BLAS/OpenMP thread counts come from the environment the parent sets.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import numpy as np

import workloads as W
from tracer import Tracer

REFERENCE = Path(__file__).resolve().parent / "reference.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment() -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "nproc": os.cpu_count(),
        **{v: os.environ.get(v) for v in THREAD_VARS},
    }


def within(value: float, ref: float, count: int) -> bool:
    """Accuracies over `count` nodes agree when they differ by at most
    max(1, 0.1% of count) nodes."""
    return abs(value - ref) * count <= max(1.0, 0.001 * count) + 1e-9


def timed(fn):
    """Run `fn`; return its result and [start, end, CPU seconds]."""
    w0, c0 = time.monotonic(), time.process_time()
    try:
        result = fn()
    finally:
        c1, w1 = time.process_time(), time.monotonic()
    return result, [w0, w1, c1 - c0]


def pred_hash(pred) -> str:
    return hashlib.sha256(np.asarray(pred, dtype="<i8").tobytes()).hexdigest()[:16]


class Round:
    """Timings of one round, the calls it attempted and why any failed."""

    def __init__(self, index: int, traced: bool):
        self.out = {"round": index, "traced": traced, "attempted": 0, "failures": {}}

    def call(self, name: str, fn):
        """Run one public call; an exception counts it as failed."""
        self.out["attempted"] += 1
        try:
            return fn()
        except Exception:  # boundary: the failure is counted and reported
            traceback.print_exc(file=sys.stderr)
            self.fail(name, "raised")
            return None

    def expect(self, ok: bool, name: str, what: str) -> None:
        if not ok:
            self.fail(name, what)

    def fail(self, name: str, what: str) -> None:
        self.out["failures"].setdefault(name, []).append(what)


class Workload:
    """The timed calls of one workload instance."""

    def __init__(self, name: str, instance: int, inputs: Path):
        # public calls go through module attributes, so traced bindings are used
        import graphsfda
        import graphsfda.gnn

        self.G = graphsfda
        self.wl = W.WORKLOADS[name]
        self.instance = instance
        self.inputs = inputs
        self.ref = json.loads(REFERENCE.read_text()).get(name, {}).get(str(instance))
        self.uses_checkpoint = bool(self.wl["input_pretrain_epochs"])
        self.target = self.model = None

    def setup(self, r: Round):
        def load():
            target = self.G.load_graph(self.inputs / "tgt")
            if self.uses_checkpoint:
                return target, self.G.gnn.load_checkpoint(self.inputs / "model.ckpt")
            return target, self.G.load_graph(self.inputs / "src")

        loads = r.out["setup"] = []
        while len(loads) < W.SETUP_REPEATS or loads[-1][1] - loads[0][0] < W.SETUP_MIN_S:
            loaded, interval = timed(load)
            loads.append(interval)
        return loaded

    def run(self, r: Round) -> None:
        if self.model is None:  # set up in the first round (again if pretraining failed)
            self.target, loaded = self.setup(r)
            gc.collect()  # garbage of the repeated loads must not reach the timed calls
            self.model = loaded if self.uses_checkpoint else self.pretrain(r, loaded)
        if self.model is None:
            r.out["attempted"] += 1
            r.fail("adapt", "not run: pretrain_source failed")
        else:
            self.adapt(r, self.model, self.target)

    def pretrain(self, r: Round, source):
        G, epochs, name = self.G, self.wl["timed_pretrain_epochs"], "pretrain_source"
        model = G.init_model(
            source.feature_dim, W.HIDDEN_DIM, source.num_classes, W.NUM_LAYERS, self.instance
        )
        split = G.graph_store.split_nodes(source, self.instance)
        result, interval = timed(lambda: r.call(
            name,
            lambda: G.pretrain_source(model, source, split, epochs=epochs, lr=W.PRETRAIN_LR),
        ))
        r.out["pretrain"] = interval + [epochs]
        if result is None:
            return None
        trained, metrics = result
        losses = metrics["train_loss"]
        r.expect(
            len(losses) == epochs and bool(np.all(np.isfinite(losses))),
            name,
            f"{len(losses)} finite epochs, expected {epochs}",
        )
        r.out["val_acc"] = metrics["val_acc"]
        if self.ref is not None:
            r.expect(
                within(metrics["val_acc"], self.ref["val_acc"], split.val.size),
                name,
                f"val_acc {metrics['val_acc']} vs reference {self.ref['val_acc']}",
            )
        return trained

    def adapt(self, r: Round, model, target) -> None:
        cfg = self.G.AdaptConfig(seed=self.instance, **self.wl["adapt"])
        result, interval = timed(lambda: r.call("adapt", lambda: self.G.adapt(model, target, cfg)))
        r.out["adapt"] = interval + [cfg.epochs]
        if result is None:
            return
        _, _, pred, report = result
        epochs_run = len(report.loss_model_trace)
        r.expect(
            epochs_run == cfg.epochs,
            "adapt",
            f"stopped early after {epochs_run} of {cfg.epochs} epochs",
        )
        r.expect(
            pred.shape == (target.n,) and pred.min() >= 0 and pred.max() < target.num_classes,
            "adapt",
            "predictions out of range",
        )
        r.out.update(
            final_acc=report.final_accuracy, epochs_run=epochs_run, pred_hash=pred_hash(pred)
        )
        if self.ref is None:
            r.fail("adapt", f"no reference for instance {self.instance}")
            return
        r.out["final_acc_rel"] = report.final_accuracy / self.ref["final_acc"]
        r.out["pred_hash_match"] = r.out["pred_hash"] == self.ref["pred_hash"]
        r.expect(
            within(report.final_accuracy, self.ref["final_acc"], target.n),
            "adapt",
            f"final_acc {report.final_accuracy} vs reference {self.ref['final_acc']}",
        )


def emit(record: dict) -> None:
    print(json.dumps(record), flush=True)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--instance", type=int, required=True)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans-dir")
    ap.add_argument("--cpu", type=int, required=True)
    args = ap.parse_args()
    os.sched_setaffinity(0, {args.cpu})

    started = time.monotonic()
    work = Workload(args.workload, args.instance, Path(args.inputs))
    durations = []  # of the rounds' adapt calls: what a further round takes
    index = 0
    while True:
        traced = args.trace and index % 2 == 0
        r = Round(index, traced)
        tracer = Tracer(f"{args.workload}/i{args.instance}/round{index}") if traced else None
        if tracer is not None:
            tracer.install()
        try:
            _, r.out["interval"] = timed(lambda: work.run(r))
        finally:
            if tracer is not None:
                tracer.uninstall()
        if "adapt" in r.out:
            durations.append(r.out["adapt"][1] - r.out["adapt"][0])
        if tracer is not None:
            r.out["layer"] = tracer.metrics()
            if args.spans_dir:
                tracer.dump(Path(args.spans_dir) / f"round{index}.json")
        emit(r.out)
        gc.collect()  # garbage of one round must not reach into the next
        index += 1
        if index == 1:
            continue  # the first round warms up: a run times at least one more
        if not durations or time.monotonic() - started + statistics.median(durations) > args.seconds:
            break
    emit({
        "end": True,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    })
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
