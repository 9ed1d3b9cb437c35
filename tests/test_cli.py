import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import graphsfda
from graphsfda.cli import main
from graphsfda.graph_store import load_graph


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def kv(stdout, key):
    m = re.search(rf"^{key}=(.*)$", stdout, re.MULTILINE)
    assert m, f"missing {key}= line in output:\n{stdout}"
    return m.group(1)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Synthetic pair, pretrained checkpoint and a finished adaptation run."""
    root = tmp_path_factory.mktemp("cliws")
    assert main([
        "gen-synth", str(root / "pair"),
        "--nodes-per-class", "40", "--feature-dim", "8",
        "--separation", "3.0", "--seed", "4",
    ]) == 0
    config = {
        "source_graph": str(root / "pair_src"),
        "target_graph": str(root / "pair_tgt"),
        "checkpoint": str(root / "model.ckpt"),
        "output_dir": str(root / "out"),
        "hidden_dim": 8,
        "pretrain_epochs": 80,
        "epochs": 3,
        "seed": 4,
    }
    (root / "run.json").write_text(json.dumps(config))
    assert main(["pretrain", "--config", str(root / "run.json")]) == 0
    assert main(["adapt", "--config", str(root / "run.json")]) == 0
    return root


class TestGenSynth:
    def test_outputs_loadable(self, tmp_path, capsys):
        code, out, _ = run(capsys, "gen-synth", str(tmp_path / "p"), "--nodes-per-class", "10")
        assert code == 0
        src = load_graph(kv(out, "source"))
        tgt = load_graph(kv(out, "target"))
        assert src.n == tgt.n == 30

    def test_seed_reproducible_bytes(self, tmp_path, capsys):
        for name in ("a", "b"):
            assert run(capsys, "gen-synth", str(tmp_path / name), "--seed", "7",
                       "--nodes-per-class", "10")[0] == 0
        for suffix in (".meta", ".edges", ".feat", ".labels"):
            assert (tmp_path / f"a_src{suffix}").read_bytes() == (tmp_path / f"b_src{suffix}").read_bytes()
            assert (tmp_path / f"a_tgt{suffix}").read_bytes() == (tmp_path / f"b_tgt{suffix}").read_bytes()

    def test_bad_noise_is_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "gen-synth", str(tmp_path / "p"), "--edge-noise", "1.5")
        assert code == 2
        assert "edge_noise" in err


class TestPretrain:
    def test_metrics_and_quality(self, workspace, capsys):
        code, out, _ = run(capsys, "pretrain", "--config", str(workspace / "run.json"))
        assert code == 0
        assert float(kv(out, "val_acc")) >= 0.0
        assert float(kv(out, "test_acc")) >= 0.9

    def test_reproducible_checkpoint_bytes(self, workspace, capsys):
        first = Path(kv(run(capsys, "pretrain", "--config", str(workspace / "run.json"))[1], "checkpoint")).read_bytes()
        second = Path(kv(run(capsys, "pretrain", "--config", str(workspace / "run.json"))[1], "checkpoint")).read_bytes()
        assert first == second

    def test_missing_labels_exit_3(self, tmp_path, capsys):
        (tmp_path / "g.meta").write_text("2 1 2\n")
        (tmp_path / "g.edges").write_text("0 1\n")
        (tmp_path / "g.feat").write_text("1\n2\n")
        cfg = {"source_graph": str(tmp_path / "g"), "output_dir": str(tmp_path)}
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert run(capsys, "pretrain", "--config", str(tmp_path / "c.json"))[0] == 3

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        (tmp_path / "c.json").write_text(json.dumps({"not_a_key": 1}))
        code, _, err = run(capsys, "pretrain", "--config", str(tmp_path / "c.json"))
        assert code == 3
        assert "not_a_key" in err


class TestAdapt:
    def test_artifacts_written(self, workspace):
        out = workspace / "out"
        for name in ("refined.meta", "refined.edges", "refined.feat", "refined.mask",
                     "adapted.ckpt", "report.json", "config.resolved.json"):
            assert (out / name).exists(), name
        report = json.loads((out / "report.json").read_text())
        assert len(report["loss_m"]) == 3
        refined = load_graph(out / "refined")
        mask_lines = (out / "refined.mask").read_text().strip().splitlines()
        assert len(mask_lines) == refined.num_edges

    def test_zero_step_override_matches_spm(self, workspace, capsys, tmp_path):
        outdir = tmp_path / "noop"
        code, out, _ = run(
            capsys, "adapt", "--config", str(workspace / "run.json"),
            "--tm", "0", "--tf", "0", "--ts", "0", "--out", str(outdir),
        )
        assert code == 0
        code2, out2, _ = run(
            capsys, "eval", "--checkpoint", str(workspace / "model.ckpt"),
            "--graph", str(workspace / "pair_tgt"),
        )
        assert code2 == 0
        assert abs(float(kv(out, "final_acc")) - float(kv(out2, "acc"))) <= 1e-9

    def test_absent_checkpoint_exit_4(self, workspace, capsys, tmp_path):
        cfg = json.loads((workspace / "run.json").read_text())
        cfg["checkpoint"] = str(tmp_path / "missing.ckpt")
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        assert run(capsys, "adapt", "--config", str(tmp_path / "c.json"))[0] == 4

    @pytest.mark.parametrize("keep", [10, 24, -8, -1], ids=["in-header", "header-only",
                                                          "one-weight-short", "one-byte-short"])
    def test_truncated_checkpoint_exit_4(self, workspace, capsys, tmp_path, keep):
        blob = (workspace / "model.ckpt").read_bytes()
        (tmp_path / "cut.ckpt").write_bytes(blob[:keep])
        cfg = json.loads((workspace / "run.json").read_text())
        cfg["checkpoint"] = str(tmp_path / "cut.ckpt")
        (tmp_path / "c.json").write_text(json.dumps(cfg))
        code, _, err = run(capsys, "adapt", "--config", str(tmp_path / "c.json"))
        assert code == 4
        assert "truncated" in err


class TestEval:
    def test_adapted_on_refined_matches_report(self, workspace, capsys):
        report = json.loads((workspace / "out" / "report.json").read_text())
        code, out, _ = run(
            capsys, "eval",
            "--checkpoint", str(workspace / "out" / "adapted.ckpt"),
            "--graph", str(workspace / "out" / "refined"),
        )
        assert code == 0
        assert abs(float(kv(out, "acc")) - report["final_acc"]) <= 1e-9

    def test_random_checkpoint_near_chance(self, workspace, capsys, tmp_path):
        from graphsfda.gnn import init_model, save_checkpoint

        save_checkpoint(init_model(8, 8, 3, 2, seed=99), tmp_path / "rand.ckpt")
        code, out, _ = run(
            capsys, "eval", "--checkpoint", str(tmp_path / "rand.ckpt"),
            "--graph", str(workspace / "pair_tgt"),
        )
        assert code == 0
        assert abs(float(kv(out, "acc")) - 1.0 / 3.0) <= 0.1

    def test_missing_labels_exit_3(self, workspace, capsys, tmp_path):
        src = load_graph(workspace / "pair_tgt")
        from graphsfda.graph_store import TargetGraph, save_graph

        unlabelled = TargetGraph(src.n, src.edges, src.features, None, src.num_classes)
        save_graph(unlabelled, tmp_path / "nolab")
        code, _, _ = run(
            capsys, "eval", "--checkpoint", str(workspace / "model.ckpt"),
            "--graph", str(tmp_path / "nolab"),
        )
        assert code == 3

    def test_incompatible_checkpoint_exit_4(self, workspace, capsys, tmp_path):
        from graphsfda.gnn import init_model, save_checkpoint

        save_checkpoint(init_model(5, 8, 3, 2, seed=0), tmp_path / "wrong.ckpt")
        code, _, _ = run(
            capsys, "eval", "--checkpoint", str(tmp_path / "wrong.ckpt"),
            "--graph", str(workspace / "pair_tgt"),
        )
        assert code == 4

    def test_eval_with_mask(self, workspace, capsys):
        code, out, _ = run(
            capsys, "eval",
            "--checkpoint", str(workspace / "out" / "adapted.ckpt"),
            "--graph", str(workspace / "out" / "refined"),
            "--mask", str(workspace / "out" / "refined.mask"),
        )
        assert code == 0
        assert 0.0 <= float(kv(out, "acc")) <= 1.0


class TestExportEmbeddings:
    def test_writes_matrix(self, workspace, capsys, tmp_path):
        code, out, _ = run(
            capsys, "export-embeddings",
            "--checkpoint", str(workspace / "model.ckpt"),
            "--graph", str(workspace / "pair_tgt"),
            "--out-file", str(tmp_path / "z.txt"),
        )
        assert code == 0
        z = np.loadtxt(tmp_path / "z.txt")
        assert z.shape == (120, 8)

    def test_mask_rows_equal_forward(self, workspace, capsys, tmp_path):
        from graphsfda.gnn import forward, load_checkpoint
        from graphsfda.graph_store import AdjacencyLayout

        out_dir = workspace / "out"
        code, out, _ = run(
            capsys, "export-embeddings",
            "--checkpoint", str(out_dir / "adapted.ckpt"),
            "--graph", str(out_dir / "refined"),
            "--mask", str(out_dir / "refined.mask"),
            "--out-file", str(tmp_path / "z.txt"),
        )
        assert code == 0 and kv(out, "embeddings") == str(tmp_path / "z.txt")
        refined = load_graph(out_dir / "refined")
        mask = np.loadtxt(out_dir / "refined.mask", ndmin=1)
        assert mask.any()
        adj = AdjacencyLayout(refined.n, refined.edges).normalized(1.0 - mask)
        z, _ = forward(load_checkpoint(out_dir / "adapted.ckpt"), adj, refined.features)
        assert np.loadtxt(tmp_path / "z.txt").tobytes() == z.tobytes()


def test_usage_error_is_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["adapt"])  # missing required --config
    assert exc.value.code == 2


def _config(ws, tmp, **changes):
    cfg = json.loads((ws / "run.json").read_text())
    cfg.update({"output_dir": str(tmp / "out"), **changes})
    (tmp / "c.json").write_text(json.dumps(cfg))
    return ["--config", str(tmp / "c.json")]


def _too_deep_config(tmp):
    """A config of 100,000 nested arrays: past any decoder's recursion limit."""
    (tmp / "deep.json").write_text("[" * 100_000 + "]" * 100_000)
    return str(tmp / "deep.json")


def _long_seed_config(ws, tmp):
    """The run config with a 5000-digit negative seed: past the digit limit of
    int conversion where there is one, and a negative seed where there is not."""
    path = Path(_config(ws, tmp, seed=-1)[1])
    path.write_text(path.read_text().replace('"seed": -1', '"seed": -' + "9" * 5000))
    return str(path)


def _bad_mask(ws, tmp, value):
    lines = (ws / "out" / "refined.mask").read_text().splitlines()
    lines[1] = value
    (tmp / "bad.mask").write_text("\n".join(lines) + "\n")
    return str(tmp / "bad.mask")


def _graph_copy(ws, tmp, name):
    for suffix in (".meta", ".edges", ".feat", ".labels"):
        shutil.copy(ws / f"pair_tgt{suffix}", tmp / f"{name}{suffix}")
    return str(tmp / name)


def _not_utf8(path):
    """Overwrite the file's first byte with 0xFF, which never occurs in UTF-8."""
    path = Path(path)
    path.write_bytes(b"\xff" + path.read_bytes()[1:])
    return str(path)


def _nan_feature_graph(ws, tmp):
    _graph_copy(ws, tmp, "nan")
    lines = (tmp / "nan.feat").read_text().splitlines()
    lines[2] = " ".join(["nan"] + lines[2].split()[1:])
    (tmp / "nan.feat").write_text("\n".join(lines) + "\n")
    return str(tmp / "nan")


def _oversized_label_graph(ws, tmp):
    _graph_copy(ws, tmp, "big")
    lines = (tmp / "big.labels").read_text().splitlines()
    lines[1] = "99999999999999999999"  # beyond int64
    (tmp / "big.labels").write_text("\n".join(lines) + "\n")
    return str(tmp / "big")


def _short_feature_graph(ws, tmp):
    _graph_copy(ws, tmp, "short")
    lines = (tmp / "short.feat").read_text().splitlines()
    (tmp / "short.feat").write_text("\n".join(lines[:-1]) + "\n")
    return str(tmp / "short")


def _zero_node_graph(ws, tmp):
    """The target's sizes with n = 0, and empty node and edge files."""
    _, d, num_classes = (ws / "pair_tgt.meta").read_text().split()
    (tmp / "zero.meta").write_text(f"0 {d} {num_classes}\n")
    for suffix in (".edges", ".feat", ".labels"):
        (tmp / f"zero{suffix}").write_text("")
    return str(tmp / "zero")


def _undecodable_feature_graph(ws, tmp):
    prefix = _graph_copy(ws, tmp, "latin")
    _not_utf8(prefix + ".feat")
    return prefix


def _a_file(tmp):
    (tmp / "afile").write_text("not a directory\n")
    return str(tmp / "afile")


def _report_path_taken(tmp):
    """An output directory where `report.json` already names a directory."""
    (tmp / "taken" / "report.json").mkdir(parents=True)
    return str(tmp / "taken")


def _truncated_checkpoint(ws, tmp):
    (tmp / "cut.ckpt").write_bytes((ws / "model.ckpt").read_bytes()[:-8])
    return str(tmp / "cut.ckpt")


def _overflowing_checkpoint(ws, tmp):
    """The trained checkpoint with every parameter scaled by 1e200: finite,
    but its forward pass overflows."""
    from graphsfda.gnn import GnnModel, load_checkpoint, save_checkpoint

    params = [1e200 * w for w in load_checkpoint(ws / "model.ckpt").parameters()]
    save_checkpoint(GnnModel(params[:-2], params[-2], params[-1]), tmp / "huge.ckpt")
    return str(tmp / "huge.ckpt")


def _scored(ws, tmp, command, graph, mask_value=None, checkpoint="model.ckpt"):
    argv = [command, "--checkpoint", str(ws / checkpoint), "--graph", graph]
    if mask_value is not None:
        argv += ["--mask", _bad_mask(ws, tmp, mask_value)]
    if command == "export-embeddings":
        argv += ["--out-file", str(tmp / "z.txt")]
    return argv


# one row per documented exit code and per way of reaching it
EXIT_CASES = {
    "adapt-ok": (0, lambda ws, tmp: ["adapt", *_config(ws, tmp)]),
    "epochs-string": (2, lambda ws, tmp: ["adapt", *_config(ws, tmp, epochs="3")]),
    "epochs-fraction": (2, lambda ws, tmp: ["adapt", *_config(ws, tmp, epochs=2.5)]),
    "model-lr-string": (2, lambda ws, tmp: ["adapt", *_config(ws, tmp, model_lr="x")]),
    "epochs-flag-negative": (2, lambda ws, tmp: ["adapt", *_config(ws, tmp), "--epochs", "-1"]),
    "pretrain-seed-negative": (2, lambda ws, tmp: ["pretrain", *_config(ws, tmp, seed=-1)]),
    "pretrain-hidden-zero": (2, lambda ws, tmp: ["pretrain", *_config(ws, tmp, hidden_dim=0)]),
    "model-lr-int-overflow": (2, lambda ws, tmp: ["adapt", *_config(ws, tmp, model_lr=10**400)]),
    "pretrain-lr-int-overflow": (2, lambda ws, tmp: [
        "pretrain", *_config(ws, tmp, pretrain_lr=10**400)]),
    "pretrain-hidden-huge": (2, lambda ws, tmp: ["pretrain", *_config(ws, tmp, hidden_dim=10**20)]),
    "pretrain-layers-huge": (2, lambda ws, tmp: ["pretrain", *_config(ws, tmp, num_layers=10**20)]),
    # index-sized, drawn one 8 MB layer at a time: 80 TB of parameters in all
    "pretrain-layers-many": (2, lambda ws, tmp: [
        "pretrain", *_config(ws, tmp, hidden_dim=1000, num_layers=10**7)]),
    "model-lr-negative": (2, lambda ws, tmp: ["adapt", *_config(ws, tmp, model_lr=-1)]),
    "delta-lr-negative": (2, lambda ws, tmp: ["adapt", *_config(ws, tmp, delta_lr=-0.1)]),
    "pretrain-epochs-negative": (2, lambda ws, tmp: [
        "pretrain", *_config(ws, tmp, pretrain_epochs=-1)]),
    "pretrain-lr-negative": (2, lambda ws, tmp: ["pretrain", *_config(ws, tmp, pretrain_lr=-1)]),
    "pretrain-weight-decay-negative": (2, lambda ws, tmp: [
        "pretrain", *_config(ws, tmp, pretrain_weight_decay=-3)]),
    "gen-synth-separation-inf": (2, lambda ws, tmp: [
        "gen-synth", str(tmp / "pair"), "--nodes-per-class", "5", "--separation", "inf"]),
    "gen-synth-shift-nan": (2, lambda ws, tmp: [
        "gen-synth", str(tmp / "pair"), "--nodes-per-class", "5", "--shift", "nan"]),
    "gen-synth-means-overflow": (2, lambda ws, tmp: [
        "gen-synth", str(tmp / "pair"), "--nodes-per-class", "5", "--feature-dim", "1",
        "--separation", "1.7e308", "--shift", "1.7e308"]),
    "gen-synth-seed-negative": (2, lambda ws, tmp: [
        "gen-synth", str(tmp / "pair"), "--nodes-per-class", "5", "--seed", "-1"]),
    "eval-mask-above-one": (3, lambda ws, tmp: _scored(
        ws, tmp, "eval", str(ws / "out" / "refined"), "1.5", "out/adapted.ckpt")),
    "export-mask-nan": (3, lambda ws, tmp: _scored(
        ws, tmp, "export-embeddings", str(ws / "out" / "refined"), "nan", "out/adapted.ckpt")),
    "adapt-feature-nan": (3, lambda ws, tmp: [
        "adapt", *_config(ws, tmp, target_graph=_nan_feature_graph(ws, tmp))]),
    "eval-feature-nan": (3, lambda ws, tmp: _scored(ws, tmp, "eval", _nan_feature_graph(ws, tmp))),
    "eval-label-overflow": (3, lambda ws, tmp: _scored(
        ws, tmp, "eval", _oversized_label_graph(ws, tmp))),
    "eval-feature-short": (3, lambda ws, tmp: _scored(ws, tmp, "eval", _short_feature_graph(ws, tmp))),
    "export-feature-short": (3, lambda ws, tmp: _scored(
        ws, tmp, "export-embeddings", _short_feature_graph(ws, tmp))),
    "adapt-zero-nodes": (3, lambda ws, tmp: [
        "adapt", *_config(ws, tmp, target_graph=_zero_node_graph(ws, tmp))]),
    "eval-graph-missing": (3, lambda ws, tmp: _scored(ws, tmp, "eval", str(tmp / "absent"))),
    "eval-mask-missing": (3, lambda ws, tmp: [
        *_scored(ws, tmp, "eval", str(ws / "pair_tgt")), "--mask", str(tmp / "absent.mask")]),
    "adapt-config-not-utf8": (3, lambda ws, tmp: [
        "adapt", "--config", _not_utf8(_config(ws, tmp)[1])]),
    "adapt-config-too-deep": (3, lambda ws, tmp: ["adapt", "--config", _too_deep_config(tmp)]),
    "adapt-config-int-too-long": (3, lambda ws, tmp: [
        "adapt", "--config", _long_seed_config(ws, tmp)]),
    "adapt-feature-not-utf8": (3, lambda ws, tmp: [
        "adapt", *_config(ws, tmp, target_graph=_undecodable_feature_graph(ws, tmp))]),
    "eval-mask-not-utf8": (3, lambda ws, tmp: [
        *_scored(ws, tmp, "eval", str(ws / "out" / "refined"), checkpoint="out/adapted.ckpt"),
        "--mask", _not_utf8(shutil.copy(ws / "out" / "refined.mask", tmp / "u.mask"))]),
    "gen-synth-prefix-under-file": (3, lambda ws, tmp: [
        "gen-synth", str(Path(_a_file(tmp)) / "pair"), "--nodes-per-class", "5"]),
    "pretrain-output-dir-is-file": (3, lambda ws, tmp: [
        "pretrain", *_config(ws, tmp, output_dir=_a_file(tmp))]),
    "adapt-output-dir-is-file": (3, lambda ws, tmp: [
        "adapt", *_config(ws, tmp, output_dir=_a_file(tmp))]),
    "adapt-artifact-unwritable": (3, lambda ws, tmp: [
        "adapt", *_config(ws, tmp, output_dir=_report_path_taken(tmp))]),
    "export-out-file-parent-is-file": (3, lambda ws, tmp: [
        *_scored(ws, tmp, "export-embeddings", str(ws / "pair_tgt")),
        "--out-file", str(Path(_a_file(tmp)) / "z.txt")]),
    "adapt-config-directory": (3, lambda ws, tmp: ["adapt", "--config", str(tmp)]),
    "eval-mask-directory": (3, lambda ws, tmp: [
        *_scored(ws, tmp, "eval", str(ws / "pair_tgt")), "--mask", str(tmp)]),
    "truncated-checkpoint": (4, lambda ws, tmp: [
        "adapt", *_config(ws, tmp, checkpoint=_truncated_checkpoint(ws, tmp))]),
    "adapt-checkpoint-directory": (4, lambda ws, tmp: [
        "adapt", *_config(ws, tmp, checkpoint=str(tmp))]),
    "eval-checkpoint-directory": (4, lambda ws, tmp: [
        "eval", "--checkpoint", str(tmp), "--graph", str(ws / "pair_tgt")]),
    "temperature-overflow": (5, lambda ws, tmp: ["adapt", *_config(ws, tmp, temperature=1e-300)]),
    "pretrain-lr-overflow": (5, lambda ws, tmp: ["pretrain", *_config(ws, tmp, pretrain_lr=1e300)]),
    "model-lr-overflow": (5, lambda ws, tmp: ["adapt", *_config(ws, tmp, model_lr=1e300)]),
    # the last epoch's pass, reused for the final predictions, reads the overflowed model
    "adapt-final-pass-overflow": (5, lambda ws, tmp: [
        "adapt", *_config(ws, tmp, model_lr=1e300, epochs=1), "--tf", "0", "--ts", "0"]),
    "eval-checkpoint-overflow": (5, lambda ws, tmp: _scored(
        ws, tmp, "eval", str(ws / "pair_tgt"), checkpoint=_overflowing_checkpoint(ws, tmp))),
    "export-checkpoint-overflow": (5, lambda ws, tmp: _scored(
        ws, tmp, "export-embeddings", str(ws / "pair_tgt"),
        checkpoint=_overflowing_checkpoint(ws, tmp))),
}


def _cli_env():
    """The environment of a fresh interpreter that imports this package."""
    src = str(Path(graphsfda.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))


def _cli_process(argv):
    """The CLI run in a fresh interpreter, as a shell runs it."""
    return subprocess.run(
        [sys.executable, "-m", "graphsfda.cli", *argv],
        capture_output=True, text=True, env=_cli_env(), timeout=300,
    )


@pytest.mark.parametrize("case", list(EXIT_CASES))
def test_documented_exit_codes(workspace, tmp_path, case):
    code, make_argv = EXIT_CASES[case]
    argv = make_argv(workspace, tmp_path)
    proc = _cli_process(argv)
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    if 2 <= code <= 4:
        assert "Warning" not in proc.stderr, proc.stderr
    if code:
        lines = proc.stderr.strip().splitlines()
        assert lines and all(line.startswith(f"{argv[0]}: ") for line in lines), proc.stderr
        errors = [line for line in lines if not line.startswith(f"{argv[0]}: warning: ")]
        assert len(errors) == 1, proc.stderr


def test_malformed_config_names_the_file(workspace, tmp_path, capsys):
    path = Path(_config(workspace, tmp_path)[1])
    path.write_text(path.read_text().replace("}", ",}"))  # a trailing comma
    code, _, err = run(capsys, "adapt", "--config", str(path))
    assert code == 3
    assert err.startswith(f"adapt: {path}: "), err


def test_unnamed_exception_propagates(workspace, tmp_path, monkeypatch):
    """An exception no stage names is a bug: `main` has no catch-all."""
    def broken(*args, **kwargs):
        raise RuntimeError("not a documented failure")

    monkeypatch.setattr("graphsfda.cli.adapt", broken)
    with pytest.raises(RuntimeError, match="not a documented failure"):
        main(["adapt", *_config(workspace, tmp_path)])


def test_overflow_warnings_print_once_in_one_line(workspace, tmp_path):
    # a delta_lr this large overflows a feature step but the run finishes
    proc = _cli_process(["adapt", *_config(workspace, tmp_path, delta_lr=1e300)])
    assert proc.returncode == 0, proc.stderr
    lines = proc.stderr.splitlines()
    assert lines and all(line.startswith("adapt: warning: ") for line in lines), proc.stderr
    assert len(set(lines)) == len(lines)


def test_symmetrized_pair_warns_in_one_line(workspace, tmp_path):
    prefix = _graph_copy(workspace, tmp_path, "mirrored")
    edges = Path(prefix + ".edges")
    u, v = edges.read_text().splitlines()[0].split()
    edges.write_text(edges.read_text() + f"{v} {u}\n")
    proc = _cli_process(["eval", "--checkpoint", str(workspace / "model.ckpt"), "--graph", prefix])
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == [
        f"eval: warning: {edges}:{len(edges.read_text().splitlines())}: "
        f"directed pair {v} {u} symmetrized"
    ]


def test_readme_demo_runs(tmp_path):
    """README's "Command line" block, with its /tmp/ paths under tmp_path, run
    under `bash -e`: every step exits 0 and prints its documented keys."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    script = section.split("```sh\n", 1)[1].split("```", 1)[0].replace("/tmp/", f"{tmp_path}/")
    prelude = f'graphsfda() {{ "{sys.executable}" -m graphsfda.cli "$@"; }}\n'
    proc = subprocess.run(
        ["bash", "-e", "-c", prelude + script],
        capture_output=True, text=True, env=_cli_env(), timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    for key in ("val_acc", "final_acc", "acc", "embeddings"):
        kv(proc.stdout, key)
    assert np.loadtxt(tmp_path / "demo_z.txt").shape == (300, 32)
