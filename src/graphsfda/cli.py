"""Command-line entry point.

Subcommands wire the library into reproducible runs: `gen-synth` writes a
synthetic source/target pair, `pretrain` fits the source model, `adapt` runs
the adaptation loop and exports its artifacts, `eval` scores a checkpoint on
a labelled graph, `export-embeddings` dumps node representations.

Metrics go to stdout as `key=value` lines; diagnostics go to stderr. Exit
codes: 0 success, 2 usage, 3 missing or invalid data or an unwritable
output path, 4 incompatible artifacts, 5 numerical abort.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .driver import AdaptConfig, adapt, evaluate_accuracy, export_embeddings
from .errors import ContractError, NumericalError, ParseError, ShapeError
from .gnn import init_model, load_checkpoint, predict, pretrain_source, save_checkpoint
from .graph_adaptation import AdaptationDeltas
from .graph_store import (
    ShiftSpec,
    load_graph,
    make_shift_pair,
    normalize_adjacency,
    read_table,
    read_text,
    save_graph,
    split_nodes,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_INCOMPATIBLE = 4
EXIT_NUMERICAL = 5

_ADAPT_FIELDS = {f.name: f.default for f in fields(AdaptConfig)}
_EXTRA_DEFAULTS = {
    # pretraining only: adapt takes the backbone shape from the checkpoint
    "num_layers": 2,
    "hidden_dim": 128,
    "pretrain_epochs": 200,
    "pretrain_lr": 1e-2,
    "pretrain_weight_decay": 5e-4,
    "source_graph": None,
    "target_graph": None,
    "checkpoint": None,
    "output_dir": ".",
}


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _unwritable(command: str, exc: OSError) -> int:
    return _fail(EXIT_DATA, f"{command}: cannot write output: {exc}")


def _load_graph(path, command: str):
    """`load_graph`, printing each warning it raises (a symmetrized pair) as
    one `<command>: warning: ...` line on stderr."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            return load_graph(path)
        finally:
            for w in caught:
                print(f"{command}: warning: {w.message}", file=sys.stderr)


def load_run_config(path) -> dict:
    """Read a JSON run config; unknown keys are rejected, missing keys get
    the documented defaults."""
    raw = json.loads(read_text(path))
    if not isinstance(raw, dict):
        raise ParseError(f"{path}: config must be a JSON object")
    known = set(_ADAPT_FIELDS) | set(_EXTRA_DEFAULTS)
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ParseError(f"{path}: unknown config keys: {', '.join(unknown)}")
    resolved = {**_ADAPT_FIELDS, **_EXTRA_DEFAULTS}
    resolved.update(raw)
    return resolved


def _check_type(key: str, value, default) -> None:
    """A config value has its default's type; a path defaulting to null may be null."""
    if default is None or isinstance(default, str):
        ok = isinstance(value, str) or (default is None and value is None)
        kind = "a path string"
    elif isinstance(default, bool):
        ok, kind = isinstance(value, bool), "true or false"
    elif isinstance(default, int):
        ok, kind = isinstance(value, int) and not isinstance(value, bool), "an integer"
    else:
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok, kind = ok and math.isfinite(value), "a finite number"
    if not ok:
        raise ContractError(f"{key} must be {kind}, got {value!r}")


def _resolve_config(args):
    """Run config with overrides, and its AdaptConfig; ContractError if invalid."""
    if getattr(args, "config", None):
        cfg = load_run_config(args.config)
    else:
        cfg = {**_ADAPT_FIELDS, **_EXTRA_DEFAULTS}
    if getattr(args, "seed", None) is not None:
        cfg["seed"] = args.seed
    if getattr(args, "out", None) is not None:
        cfg["output_dir"] = args.out
    for flag, key in (
        ("tm", "model_steps"),
        ("tf", "feature_steps"),
        ("ts", "structure_steps"),
        ("epochs", "epochs"),
    ):
        value = getattr(args, flag, None)
        if value is not None:
            cfg[key] = value
    for key, default in {**_ADAPT_FIELDS, **_EXTRA_DEFAULTS}.items():
        _check_type(key, cfg[key], default)
    if min(cfg["hidden_dim"], cfg["num_layers"]) < 1:
        raise ContractError("hidden_dim and num_layers must be at least 1")
    if min(cfg["pretrain_epochs"], cfg["pretrain_lr"], cfg["pretrain_weight_decay"]) < 0:
        raise ContractError(
            "pretrain_epochs, pretrain_lr and pretrain_weight_decay must be nonnegative"
        )
    return cfg, AdaptConfig(**{k: cfg[k] for k in _ADAPT_FIELDS})


def _echo_config(cfg: dict, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.resolved.json").write_text(
        json.dumps(cfg, indent=2, sort_keys=True), encoding="utf-8"
    )


def _read_mask(path, num_edges: int) -> np.ndarray:
    values, lines = read_table(path, 1, np.float64)
    mask = values.ravel()
    outside = np.flatnonzero(~((mask >= 0.0) & (mask <= 1.0)))  # NaN fails too
    if outside.size:
        i = outside[0]
        raise ParseError(f"{path}:{lines[i]}: mask entry {mask[i]} outside [0,1]")
    if mask.size != num_edges:
        raise ContractError(f"{path}: {mask.size} mask entries for {num_edges} edges")
    return mask


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_synth(args) -> int:
    try:
        spec = ShiftSpec(
            nodes_per_class=args.nodes_per_class,
            num_classes=args.classes,
            intra_p=args.intra_p,
            inter_p=args.inter_p,
            feature_dim=args.feature_dim,
            class_mean_separation=args.separation,
            target_mean_shift=args.shift,
            edge_noise=args.edge_noise,
            seed=args.seed if args.seed is not None else 0,
        )
        source, target = make_shift_pair(spec)
    except ContractError as exc:
        return _fail(EXIT_USAGE, f"gen-synth: {exc}")
    try:
        save_graph(source, f"{args.out_prefix}_src")
        save_graph(target, f"{args.out_prefix}_tgt")
    except OSError as exc:
        return _unwritable("gen-synth", exc)
    print(f"source={args.out_prefix}_src")
    print(f"target={args.out_prefix}_tgt")
    print(f"source_edges={source.num_edges}")
    print(f"target_edges={target.num_edges}")
    return EXIT_OK


def cmd_pretrain(args) -> int:
    try:
        cfg, _ = _resolve_config(args)
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_DATA, f"pretrain: {exc}")
    except ContractError as exc:
        return _fail(EXIT_USAGE, f"pretrain: config: {exc}")
    if not cfg["source_graph"]:
        return _fail(EXIT_DATA, "pretrain: config needs source_graph")
    try:
        source = _load_graph(cfg["source_graph"], "pretrain")
    except (ParseError, ContractError, OSError) as exc:
        return _fail(EXIT_DATA, f"pretrain: {exc}")
    if source.labels is None:
        return _fail(EXIT_DATA, f"pretrain: {cfg['source_graph']} has no labels")

    out_dir = Path(cfg["output_dir"])
    try:
        _echo_config(cfg, out_dir)
    except OSError as exc:
        return _unwritable("pretrain", exc)
    model = init_model(
        source.feature_dim,
        cfg["hidden_dim"],
        source.num_classes,
        cfg["num_layers"],
        cfg["seed"],
    )
    split = split_nodes(source, cfg["seed"])
    try:
        trained, metrics = pretrain_source(
            model,
            source,
            split,
            epochs=cfg["pretrain_epochs"],
            lr=cfg["pretrain_lr"],
            weight_decay=cfg["pretrain_weight_decay"],
        )
    except NumericalError as exc:
        return _fail(EXIT_NUMERICAL, f"pretrain: {exc}")
    ckpt = Path(cfg["checkpoint"] or out_dir / "model.ckpt")
    try:
        save_checkpoint(trained, ckpt)
    except OSError as exc:
        return _unwritable("pretrain", exc)
    print(f"checkpoint={ckpt}")
    print(f"val_acc={metrics['val_acc']:.6f}")
    print(f"test_acc={metrics['test_acc']:.6f}")
    return EXIT_OK


def cmd_adapt(args) -> int:
    try:
        cfg, adapt_cfg = _resolve_config(args)
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        return _fail(EXIT_DATA, f"adapt: {exc}")
    except ContractError as exc:
        return _fail(EXIT_USAGE, f"adapt: config: {exc}")
    if not cfg["target_graph"] or not cfg["checkpoint"]:
        return _fail(EXIT_DATA, "adapt: config needs target_graph and checkpoint")
    try:
        target = _load_graph(cfg["target_graph"], "adapt")
    except (ParseError, ContractError, OSError) as exc:
        return _fail(EXIT_DATA, f"adapt: {exc}")
    try:
        model = load_checkpoint(cfg["checkpoint"])
    except (OSError, ContractError) as exc:
        return _fail(EXIT_INCOMPATIBLE, f"adapt: checkpoint: {exc}")

    out_dir = Path(cfg["output_dir"])
    try:
        _echo_config(cfg, out_dir)
    except OSError as exc:
        return _unwritable("adapt", exc)
    try:
        adapted, refined, predictions, report = adapt(model, target, adapt_cfg)
    except (ContractError, ShapeError) as exc:
        return _fail(EXIT_INCOMPATIBLE, f"adapt: {exc}")
    except NumericalError as exc:
        return _fail(EXIT_NUMERICAL, f"adapt: {exc}")

    try:
        save_graph(refined, out_dir / "refined")
        np.savetxt(out_dir / "refined.mask", report.deltas.delta_a[report.keep], fmt="%.17g")
        save_checkpoint(adapted, out_dir / "adapted.ckpt")
        report.save(out_dir / "report.json")
        np.savetxt(out_dir / "predictions.txt", predictions, fmt="%d")
    except OSError as exc:
        return _unwritable("adapt", exc)
    print(f"refined={out_dir / 'refined'}")
    print(f"checkpoint={out_dir / 'adapted.ckpt'}")
    print(f"report={out_dir / 'report.json'}")
    print(f"edges_deleted={report.edges_deleted}")
    if report.final_accuracy is not None:
        print(f"final_acc={report.final_accuracy:.9f}")
    return EXIT_OK


def _load_eval_inputs(args, command: str):
    """The graph, checkpoint and optional mask of `eval` and
    `export-embeddings`, or the exit code of the first one that fails: a
    missing or invalid graph or mask is bad data (3); a checkpoint that is
    missing, unreadable or does not fit the graph, and a mask whose length
    does not fit it, are incompatible artifacts (4)."""
    try:
        graph = _load_graph(args.graph, command)
    except (ParseError, ContractError, OSError) as exc:
        return _fail(EXIT_DATA, f"{command}: {exc}")
    try:
        model = load_checkpoint(args.checkpoint)
    except (OSError, ContractError) as exc:
        return _fail(EXIT_INCOMPATIBLE, f"{command}: checkpoint: {exc}")
    if model.input_dim != graph.feature_dim or (
        graph.num_classes and model.num_classes != graph.num_classes
    ):
        return _fail(
            EXIT_INCOMPATIBLE,
            f"{command}: checkpoint ({model.input_dim}d/{model.num_classes}c) does not "
            f"fit graph ({graph.feature_dim}d/{graph.num_classes}c)",
        )
    mask = None
    if args.mask:
        try:
            mask = _read_mask(args.mask, graph.num_edges)
        except (ParseError, OSError) as exc:
            return _fail(EXIT_DATA, f"{command}: {exc}")
        except ContractError as exc:
            return _fail(EXIT_INCOMPATIBLE, f"{command}: {exc}")
    return graph, model, mask


def cmd_eval(args) -> int:
    loaded = _load_eval_inputs(args, "eval")
    if isinstance(loaded, int):
        return loaded
    graph, model, mask = loaded
    if graph.labels is None:
        return _fail(EXIT_DATA, f"eval: {args.graph} has no labels")
    weights = None if mask is None else 1.0 - mask
    pred = predict(model, normalize_adjacency(graph, weights), graph.features)
    print(f"acc={evaluate_accuracy(pred, graph.labels):.9f}")
    return EXIT_OK


def cmd_export_embeddings(args) -> int:
    loaded = _load_eval_inputs(args, "export-embeddings")
    if isinstance(loaded, int):
        return loaded
    graph, model, mask = loaded
    deltas = None
    if mask is not None:
        deltas = AdaptationDeltas(
            np.zeros((graph.n, graph.feature_dim)), mask, float(mask.sum())
        )
    try:
        export_embeddings(model, graph, deltas, args.out_file)
    except OSError as exc:
        return _unwritable("export-embeddings", exc)
    print(f"embeddings={args.out_file}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphsfda",
        description="Source-free graph domain adaptation toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-synth", help="write a synthetic source/target pair")
    gen.add_argument("out_prefix")
    gen.add_argument("--nodes-per-class", type=int, default=100)
    gen.add_argument("--classes", type=int, default=3)
    gen.add_argument("--intra-p", type=float, default=0.05)
    gen.add_argument("--inter-p", type=float, default=0.005)
    gen.add_argument("--feature-dim", type=int, default=16)
    gen.add_argument("--separation", type=float, default=2.0)
    gen.add_argument("--shift", type=float, default=1.0)
    gen.add_argument("--edge-noise", type=float, default=0.15)
    gen.add_argument("--seed", type=int, default=None)
    gen.set_defaults(func=cmd_gen_synth)

    pre = sub.add_parser("pretrain", help="supervised pretraining on the source graph")
    pre.add_argument("--config", required=True)
    pre.add_argument("--seed", type=int, default=None)
    pre.add_argument("--out", default=None)
    pre.set_defaults(func=cmd_pretrain)

    ada = sub.add_parser("adapt", help="adapt a checkpoint to a target graph")
    ada.add_argument("--config", required=True)
    ada.add_argument("--seed", type=int, default=None)
    ada.add_argument("--out", default=None)
    ada.add_argument("--tm", type=int, default=None, help="model steps per epoch")
    ada.add_argument("--tf", type=int, default=None, help="feature steps per epoch")
    ada.add_argument("--ts", type=int, default=None, help="structure steps per epoch")
    ada.add_argument("--epochs", type=int, default=None)
    ada.set_defaults(func=cmd_adapt)

    ev = sub.add_parser("eval", help="accuracy of a checkpoint on a labelled graph")
    ev.add_argument("--checkpoint", required=True)
    ev.add_argument("--graph", required=True)
    ev.add_argument("--mask", default=None)
    ev.set_defaults(func=cmd_eval)

    exp = sub.add_parser("export-embeddings", help="write node representations")
    exp.add_argument("--checkpoint", required=True)
    exp.add_argument("--graph", required=True)
    exp.add_argument("--mask", default=None)
    exp.add_argument("--out-file", required=True)
    exp.set_defaults(func=cmd_export_embeddings)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
