"""Record the reference results that every run is checked against.

    python3 perfbench/make_reference.py [--workload NAME ...]

For each instance of each named workload (all by default) this makes the
inputs, runs one untraced round and stores its final accuracy, epochs run,
prediction hash and, where the round pretrains, validation accuracy in
`perfbench/reference.json`. Run it from the root of a checkout, and only at
a commit whose results are meant to become the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import run
import workloads as W

REQUIRED = ("final_acc", "epochs_run", "pred_hash")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", action="append", choices=sorted(W.WORKLOADS))
    args = ap.parse_args()
    root = Path.cwd()
    path = run.HERE / "reference.json"
    ref = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
    for name in args.workload or sorted(W.WORKLOADS):
        for instance in range(W.POOL):
            inputs = run.ensure_inputs(root, name, instance, 600)
            opts = argparse.Namespace(workload=name, seed=instance, seconds=0, trace=0)
            cpu = max(os.sched_getaffinity(0))
            result = run.measure(root, opts, instance, inputs, 600, cpu)[0]
            missing = [k for k in REQUIRED if k not in result]
            if missing:
                print(f"{name} i{instance}: no {missing}: {result.get('failures')}",
                      file=sys.stderr)
                return 1
            kept = {k: result[k] for k in REQUIRED + ("val_acc",) if k in result}
            ref.setdefault(name, {})[str(instance)] = kept
            print(f"{name} i{instance}: {ref[name][str(instance)]}", flush=True)
            path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
