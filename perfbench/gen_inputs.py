"""Make one workload instance's input files, in a process of its own.

    python3 perfbench/gen_inputs.py --workload NAME --instance I --out DIR

Writes `DIR/src.*` and `DIR/tgt.*` (graph text format) and, for workloads
that adapt a pretrained checkpoint, `DIR/model.ckpt`. `DIR/done` is written
last, so a directory without it is incomplete and is made again.
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

from graphsfda import ShiftSpec, init_model, make_shift_pair, pretrain_source, save_graph
from graphsfda.gnn import save_checkpoint
from graphsfda.graph_store import split_nodes

import workloads as W


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(W.WORKLOADS))
    ap.add_argument("--instance", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    wl = W.WORKLOADS[args.workload]

    source, target = make_shift_pair(ShiftSpec(**W.spec_kwargs(args.workload, args.instance)))
    save_graph(source, out / "src")
    save_graph(target, out / "tgt")
    info = {"n": target.n, "source_edges": source.num_edges, "target_edges": target.num_edges}
    if wl["input_pretrain_epochs"]:
        model = init_model(
            source.feature_dim, W.HIDDEN_DIM, source.num_classes, W.NUM_LAYERS, args.instance
        )
        trained, metrics = pretrain_source(
            model,
            source,
            split_nodes(source, args.instance),
            epochs=wl["input_pretrain_epochs"],
            lr=W.PRETRAIN_LR,
        )
        save_checkpoint(trained, out / "model.ckpt")
        info["source_val_acc"] = metrics["val_acc"]
    (out / "done").write_text(json.dumps(info, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
