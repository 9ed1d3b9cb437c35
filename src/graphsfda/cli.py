"""Command-line entry point.

Subcommands wire the library into reproducible runs: `gen-synth` writes a
synthetic source/target pair, `pretrain` fits the source model, `adapt` runs
the adaptation loop and exports its artifacts, `eval` scores a checkpoint on
a labelled graph, `export-embeddings` dumps node representations.

Metrics go to stdout as `key=value` lines; diagnostics go to stderr, one
line each, prefixed with the subcommand's name. Exit codes: 0 success, 2
usage, 3 missing or invalid data or an unwritable output path, 4
incompatible artifacts, 5 numerical abort.

Where the exit codes come from: a subcommand raises, naming once per stage
the errors that stage maps to a code (`_exit_on`) or raising `_Exit` on a
failed precondition; `main` alone prints the error line and returns the
code, and maps `ParseError` to 3 and `NumericalError` to 5 everywhere. Any
other exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np

from .driver import AdaptConfig, adapt, evaluate_accuracy, export_embeddings
from .errors import ContractError, NumericalError, ParseError, ShapeError
from .gnn import init_model, load_checkpoint, predict, pretrain_source, save_checkpoint
from .graph_adaptation import apply_structure_delta
from .graph_store import (
    AdjacencyLayout,
    ShiftSpec,
    load_graph,
    make_shift_pair,
    mask_fault,
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


class _Exit(Exception):
    """`_Exit(code, message)`: a documented failure; `main` prints
    `<command>: <message>` and returns `code`."""


@contextlib.contextmanager
def _exit_on(code: int, *errors, prefix: str = ""):
    """Re-raise the listed exceptions from the block as `_Exit(code, prefix + message)`."""
    try:
        yield
    except errors as exc:
        raise _Exit(code, prefix + str(exc)) from None


def _writing_output():
    """An output path that cannot be written is bad data (3)."""
    return _exit_on(EXIT_DATA, OSError, prefix="cannot write output: ")


@contextlib.contextmanager
def _warnings_to_stderr(command: str):
    """Print each distinct warning raised in the block (a symmetrized pair,
    a NumPy overflow) once, as one `<command>: warning: ...` line on stderr,
    when the block ends, before any error it raises is reported."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            yield
        finally:
            for message in dict.fromkeys(str(w.message) for w in caught):
                print(f"{command}: warning: {message}", file=sys.stderr)


def load_run_config(path) -> dict:
    """Read a JSON run config; unknown keys are rejected, missing keys get
    the documented defaults. Text that is not JSON, or nests or spells a
    number beyond what the decoder takes, is a ParseError naming the file."""
    text = read_text(path)
    try:
        raw = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise ParseError(f"{path}: {exc}") from None
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
        # also false for NaN and for an integer beyond the float range
        ok = isinstance(value, (int, float)) and not isinstance(value, bool)
        ok, kind = ok and abs(value) <= sys.float_info.max, "a finite number"
    if not ok:
        raise ContractError(f"{key} must be {kind}, got {value!r}")


def _resolve_config(args):
    """Run config with overrides, and its AdaptConfig: a config file that
    cannot be read is bad data (3), an invalid value a usage error (2)."""
    with _exit_on(EXIT_DATA, OSError):
        cfg = load_run_config(args.config)
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.out is not None:
        cfg["output_dir"] = args.out
    for flag, key in [("tm", "model_steps"), ("tf", "feature_steps"),
                      ("ts", "structure_steps"), ("epochs", "epochs")]:
        value = getattr(args, flag, None)
        if value is not None:
            cfg[key] = value
    with _exit_on(EXIT_USAGE, ContractError, prefix="config: "):
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
    fault = mask_fault(mask)
    if fault is not None:
        raise ParseError(f"{path}:{lines[fault[0]]}: mask {fault[1]}")
    if mask.size != num_edges:
        raise ContractError(f"{path}: {mask.size} mask entries for {num_edges} edges")
    return mask


def _load_graph(path):
    """The graph at `path`; a missing or invalid one is bad data (3)."""
    with _exit_on(EXIT_DATA, ContractError, OSError):
        return load_graph(path)


def _load_checkpoint(path):
    """The model at `path`; a missing or unreadable one is an incompatible artifact (4)."""
    with _exit_on(EXIT_INCOMPATIBLE, ContractError, OSError, prefix="checkpoint: "):
        return load_checkpoint(path)


def _load_eval_inputs(args):
    """The graph, checkpoint and edge mask (all zeros without `--mask`) of
    `eval` and `export-embeddings`: a missing or invalid graph or mask is
    bad data (3); a checkpoint that is missing, unreadable or does not fit
    the graph, and a mask whose length does not fit it, are incompatible
    artifacts (4)."""
    graph = _load_graph(args.graph)
    model = _load_checkpoint(args.checkpoint)
    if model.input_dim != graph.feature_dim or (
        graph.num_classes and model.num_classes != graph.num_classes
    ):
        raise _Exit(
            EXIT_INCOMPATIBLE,
            f"checkpoint ({model.input_dim}d/{model.num_classes}c) does not "
            f"fit graph ({graph.feature_dim}d/{graph.num_classes}c)",
        )
    if not args.mask:
        return graph, model, np.zeros(graph.num_edges)
    with _exit_on(EXIT_DATA, OSError), _exit_on(EXIT_INCOMPATIBLE, ContractError):
        return graph, model, _read_mask(args.mask, graph.num_edges)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_gen_synth(args) -> None:
    with _exit_on(EXIT_USAGE, ContractError):
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
    with _writing_output():
        save_graph(source, f"{args.out_prefix}_src")
        save_graph(target, f"{args.out_prefix}_tgt")
    print(f"source={args.out_prefix}_src")
    print(f"target={args.out_prefix}_tgt")
    print(f"source_edges={source.num_edges}")
    print(f"target_edges={target.num_edges}")


def cmd_pretrain(args) -> None:
    cfg, _ = _resolve_config(args)
    if not cfg["source_graph"]:
        raise _Exit(EXIT_DATA, "config needs source_graph")
    source = _load_graph(cfg["source_graph"])
    if source.labels is None:
        raise _Exit(EXIT_DATA, f"{cfg['source_graph']} has no labels")
    # a backbone too large to build stops at init_model's count of its
    # parameters, or, where the platform does not report its memory, at
    # NumPy's dimension limit, an index-sized layer count or the allocation
    sizes = f"hidden_dim {cfg['hidden_dim']} and num_layers {cfg['num_layers']}"
    with _exit_on(EXIT_USAGE, ValueError, OverflowError, MemoryError,
                  prefix=f"config: cannot build a backbone of {sizes}: "):
        model = init_model(
            source.feature_dim, cfg["hidden_dim"], source.num_classes, cfg["num_layers"], cfg["seed"]
        )

    out_dir = Path(cfg["output_dir"])
    with _writing_output():
        _echo_config(cfg, out_dir)
    split = split_nodes(source, cfg["seed"])
    trained, metrics = pretrain_source(
        model, source, split, epochs=cfg["pretrain_epochs"], lr=cfg["pretrain_lr"],
        weight_decay=cfg["pretrain_weight_decay"],
    )
    ckpt = Path(cfg["checkpoint"] or out_dir / "model.ckpt")
    with _writing_output():
        save_checkpoint(trained, ckpt)
    print(f"checkpoint={ckpt}")
    print(f"val_acc={metrics['val_acc']:.6f}")
    print(f"test_acc={metrics['test_acc']:.6f}")


def cmd_adapt(args) -> None:
    cfg, adapt_cfg = _resolve_config(args)
    if not cfg["target_graph"] or not cfg["checkpoint"]:
        raise _Exit(EXIT_DATA, "config needs target_graph and checkpoint")
    target = _load_graph(cfg["target_graph"])
    model = _load_checkpoint(cfg["checkpoint"])

    out_dir = Path(cfg["output_dir"])
    with _writing_output():
        _echo_config(cfg, out_dir)
    with _exit_on(EXIT_INCOMPATIBLE, ContractError, ShapeError):
        adapted, refined, predictions, report = adapt(model, target, adapt_cfg)
    with _writing_output():
        save_graph(refined, out_dir / "refined")
        np.savetxt(out_dir / "refined.mask", report.edge_mask[report.keep], fmt="%.17g")
        save_checkpoint(adapted, out_dir / "adapted.ckpt")
        report.save(out_dir / "report.json")
        np.savetxt(out_dir / "predictions.txt", predictions, fmt="%d")
    print(f"refined={out_dir / 'refined'}")
    print(f"checkpoint={out_dir / 'adapted.ckpt'}")
    print(f"report={out_dir / 'report.json'}")
    print(f"edges_deleted={report.edges_deleted}")
    if report.final_accuracy is not None:
        print(f"final_acc={report.final_accuracy:.9f}")


def cmd_eval(args) -> None:
    graph, model, mask = _load_eval_inputs(args)
    if graph.labels is None:
        raise _Exit(EXIT_DATA, f"{args.graph} has no labels")
    adj = AdjacencyLayout(graph.n, graph.edges).normalized(apply_structure_delta(mask))
    pred = predict(model, adj, graph.features)
    print(f"acc={evaluate_accuracy(pred, graph.labels):.9f}")


def cmd_export_embeddings(args) -> None:
    graph, model, mask = _load_eval_inputs(args)
    with _writing_output():
        export_embeddings(model, graph, mask, args.out_file)
    print(f"embeddings={args.out_file}")


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
    """Run one subcommand and return its exit code. Warnings print when it
    ends, then a documented failure prints as one `<command>: <message>`
    line; any other exception propagates with its traceback."""
    args = build_parser().parse_args(argv)
    try:
        with (
            _warnings_to_stderr(args.command),
            _exit_on(EXIT_DATA, ParseError),
            _exit_on(EXIT_NUMERICAL, NumericalError),
        ):
            args.func(args)
    except _Exit as exc:
        code, message = exc.args
        print(f"{args.command}: {message}", file=sys.stderr)
        return code
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
