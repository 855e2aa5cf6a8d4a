import argparse
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from domainlm import cli, corpus, evaluation, training
from domainlm.configio import atomic_open
from domainlm.corpus import save_corpus, split_corpus, SplitSpec, write_split_manifests
from domainlm.model import Checkpoint, load_checkpoint, save_checkpoint, with_fresh_classifier
from domainlm.training import TrainingDivergedError


@pytest.fixture(scope="module")
def workspace(tmp_path_factory, toy_docs, toy_tokenizer, toy_base_checkpoint):
    root = tmp_path_factory.mktemp("cli")
    corpus_path = save_corpus(toy_docs, root / "corpus.jsonl")
    tokenizer_dir = root / "tokenizer"
    toy_tokenizer.save(tokenizer_dir)
    splits = split_corpus(toy_docs, SplitSpec(seed=1))
    splits_dir = root / "splits"
    write_split_manifests(splits, splits_dir)
    checkpoint_path = root / "base.npz"
    save_checkpoint(toy_base_checkpoint, checkpoint_path)
    config_path = root / "train.cfg"
    config_path.write_text(
        "learning_rate = 1e-3\n"
        "batch_size = 8\n"
        "epochs = 1\n"
        "eval_checkpoints = 2\n"
        "log_every = 10\n"
        "seed = 4\n"
        "segment_length = 32\n"
        "# model settings for fresh pretraining\n"
        "num_layers = 1\n"
        "num_heads = 2\n"
        "hidden_dim = 32\n"
        "ff_dim = 64\n"
        "max_positions = 64\n"
        "dropout_rate = 0.0\n",
        encoding="utf-8",
    )
    return {
        "root": root,
        "corpus": corpus_path,
        "tokenizer": tokenizer_dir,
        "splits": splits_dir,
        "checkpoint": checkpoint_path,
        "config": config_path,
    }


def test_tokenizer_train_writes_files_and_is_reproducible(tmp_path, workspace):
    out_a = tmp_path / "tok-a"
    out_b = tmp_path / "tok-b"
    assert cli.main(["tokenizer-train", str(workspace["corpus"]), "--vocab-size", "300", "--out", str(out_a)]) == 0
    assert cli.main(["tokenizer-train", str(workspace["corpus"]), "--vocab-size", "300", "--out", str(out_b)]) == 0
    assert (out_a / "vocab.txt").read_bytes() == (out_b / "vocab.txt").read_bytes()
    assert (out_a / "merges.txt").read_bytes() == (out_b / "merges.txt").read_bytes()
    assert json.loads((out_a / "manifest.json").read_text())["command"] == "tokenizer-train"


def test_missing_corpus_names_path(tmp_path, capsys):
    code = cli.main(["tokenizer-train", str(tmp_path / "ghost.jsonl"), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "ghost.jsonl" in capsys.readouterr().err


def test_atomic_open_creates_missing_directories(tmp_path):
    path = tmp_path / "a" / "b" / "file.txt"
    with atomic_open(path, encoding="utf-8") as handle:
        handle.write("text")
    assert path.read_text(encoding="utf-8") == "text"
    assert [p.name for p in path.parent.iterdir()] == ["file.txt"]


def test_split_command_writes_manifests(tmp_path, workspace, capsys):
    out = tmp_path / "splits"
    assert cli.main(["split", str(workspace["corpus"]), "--out", str(out), "--seed", "3"]) == 0
    for name in ("pretrain", "finetune_train", "finetune_validation", "test"):
        assert (out / f"{name}.txt").exists()
    assert "pretrain=224" in capsys.readouterr().out  # 80% of 280


def test_pretrain_fresh_run_and_replay(tmp_path, workspace):
    out_a = tmp_path / "run-a"
    out_b = tmp_path / "run-b"
    argv = [
        "pretrain",
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--total_steps", "12",
    ]
    assert cli.main(argv + ["--out", str(out_a)]) == 0
    assert cli.main(argv + ["--out", str(out_b)]) == 0
    assert (out_a / "config.txt").exists()
    assert (out_a / "checkpoints" / "final.npz").exists()
    assert (out_a / "loss_history.csv").read_bytes() == (out_b / "loss_history.csv").read_bytes()
    manifest = json.loads((out_a / "manifest.json").read_text())
    assert manifest["command"] == "pretrain"
    assert manifest["input_hashes"]["corpus"]
    assert manifest["seed"] == 4
    resources = manifest["resources"]
    assert set(resources) == {"peak_rss_mb", "minor_page_faults", "user_cpu_s", "system_cpu_s"}
    assert all(value >= 0 for value in resources.values())
    assert resources["peak_rss_mb"] > 0


def test_manifest_leaves_out_resources_without_the_resource_module(monkeypatch, workspace, tmp_path):
    monkeypatch.setattr(cli, "resource", None)
    assert cli.main(["split", str(workspace["corpus"]), "--out", str(tmp_path / "s")]) == 0
    manifest = json.loads((tmp_path / "s" / "manifest.json").read_text())
    assert manifest["command"] == "split" and "resources" not in manifest


def _manifest(out: Path) -> dict:
    return json.loads((out / "manifest.json").read_text())


def test_manifest_records_the_tokenizer_fingerprint(tmp_path, workspace):
    """The tokenizer's hash covers `merges.txt` too and is the one its checkpoint stores."""
    short = tmp_path / "tokenizer-short"
    short.mkdir()
    (short / "vocab.txt").write_bytes((workspace["tokenizer"] / "vocab.txt").read_bytes())
    merges = (workspace["tokenizer"] / "merges.txt").read_text(encoding="utf-8").splitlines(keepends=True)
    (short / "merges.txt").write_text("".join(merges[:-1]), encoding="utf-8")  # last merge dropped
    hashes = []
    for tokenizer_dir in (workspace["tokenizer"], short):
        out = tmp_path / f"run-{tokenizer_dir.name}"
        assert cli.main([
            "pretrain",
            "--config", str(workspace["config"]),
            "--corpus", str(workspace["corpus"]),
            "--tokenizer", str(tokenizer_dir),
            "--total_steps", "1",
            "--out", str(out),
        ]) == 0
        hashes.append(_manifest(out)["input_hashes"]["tokenizer"])
        assert hashes[-1] == load_checkpoint(out / "checkpoints" / "final.npz").tokenizer_hash
    assert hashes[0] != hashes[1]


def _recorded_run(command: str, w: dict) -> tuple[list[str], set[str]]:
    """The argv, without `--out`, of one run of `command`, and the inputs its manifest must hash."""
    train = [
        "--config", str(w["config"]),
        "--corpus", str(w["corpus"]),
        "--tokenizer", str(w["tokenizer"]),
        "--total_steps", "2",
    ]
    split_inputs = {"split:finetune_train", "split:finetune_validation"}
    runs = {
        "tokenizer-train": (["tokenizer-train", str(w["corpus"]), "--vocab-size", "300"], {"corpus"}),
        "split": (["split", str(w["corpus"])], {"corpus"}),
        "pretrain": (
            ["pretrain", *train, "--val-corpus", str(w["corpus"]), "--init", str(w["checkpoint"])],
            {"config", "corpus", "val_corpus", "tokenizer", "init_checkpoint"},
        ),
        "finetune": (
            ["finetune", *train, "--splits", str(w["splits"]), "--task", "binary", "--init", str(w["checkpoint"])],
            {"config", "corpus", "tokenizer", "init_checkpoint", *split_inputs},
        ),
        "eval": (
            [
                "eval",
                "--checkpoint", str(w["classifier"]),
                "--corpus", str(w["corpus"]),
                "--split", str(w["splits"] / "test.txt"),
                "--task", "binary",
                "--tokenizer", str(w["tokenizer"]),
            ],
            {"corpus", "tokenizer", "checkpoint", "split"},
        ),
        "scale-study": (
            ["scale-study", *train, "--splits", str(w["splits"]), "--init", f"base={w['checkpoint']}", "--fractions", "0.5,1.0"],
            {"config", "corpus", "tokenizer", "init:base", *split_inputs, "split:test"},
        ),
        "topics": (
            [
                "topics",
                "--checkpoint", str(w["checkpoint"]),
                "--tokenizer", str(w["tokenizer"]),
                "--corpus", str(w["corpus"]),
                "--split", str(w["splits"] / "pretrain.txt"),
                "--sample", "60",
                "--radius", "2.0",
            ],
            {"corpus", "tokenizer", "checkpoint", "split"},
        ),
    }
    return runs[command]


@pytest.mark.parametrize("command", ["tokenizer-train", "split", "pretrain", "finetune", "eval", "scale-study", "topics"])
def test_manifest_names_every_file_read_and_written(tmp_path, workspace, classifier_checkpoint, command):
    argv, read = _recorded_run(command, {**workspace, "classifier": classifier_checkpoint})
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 0
    manifest = _manifest(out)
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert manifest["command"] == command
    assert manifest["outputs"] == [path for path in written if path != "manifest.json"]
    assert set(manifest["input_hashes"]) == read
    assert [name for name, digest in manifest["input_hashes"].items() if digest is None] == []


def test_checkpoint_index_names_files_relative_to_the_run_directory(tmp_path, workspace, classifier_checkpoint):
    """The same run in two out dirs writes the same index, and each path resolves in its own run dir."""
    argv, _ = _recorded_run("finetune", {**workspace, "classifier": classifier_checkpoint})
    outs = [tmp_path / "a", tmp_path / "b" / "c"]
    for out in outs:
        assert cli.main([*argv, "--out", str(out)]) == 0
    first, second = ((out / "checkpoints.csv").read_bytes() for out in outs)
    assert first == second
    for out in outs:
        with (out / "checkpoints.csv").open(newline="") as handle:
            paths = [row["path"] for row in csv.DictReader(handle)]
        assert paths
        for path in paths:
            assert (out / path).is_file() and (out / path).resolve().is_relative_to(out.resolve()), path


@pytest.mark.parametrize("command", ["finetune", "scale-study"])
def test_command_reads_the_corpus_once(monkeypatch, tmp_path, workspace, classifier_checkpoint, command):
    """A command that reads several split manifests parses the corpus once and picks each split from it."""
    loads = []
    load_corpus = corpus.load_corpus
    monkeypatch.setattr(corpus, "load_corpus", lambda path: loads.append(path) or load_corpus(path))
    argv, _ = _recorded_run(command, {**workspace, "classifier": classifier_checkpoint})
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert loads == [str(workspace["corpus"])]


def test_pretrain_continued_from_checkpoint(tmp_path, workspace):
    out = tmp_path / "dapt"
    code = cli.main([
        "pretrain",
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--init", str(workspace["checkpoint"]),
        "--total_steps", "6",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "checkpoints" / "final.npz").exists()


def test_invalid_learning_rate_names_field(tmp_path, workspace, capsys):
    code = cli.main([
        "pretrain",
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--learning_rate", "0",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "learning_rate" in err
    assert not (tmp_path / "x").exists()  # no partial writes on validation failure


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("field", ["learning_rate", "weight_decay", "adam_eps"])
def test_non_finite_training_setting_rejected_before_any_step(
    tmp_path, workspace, classifier_checkpoint, capsys, monkeypatch, field, value
):
    steps = []
    monkeypatch.setattr(training, "_train_step", lambda *a: steps.append(a))
    argv, _ = _recorded_run("finetune", {**workspace, "classifier": classifier_checkpoint})
    out = tmp_path / "x"
    assert cli.main([*argv, f"--{field}", value, "--out", str(out)]) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert errors == [f"error: {field} must be finite, got {float(value)}"]
    assert steps == []
    assert not out.exists()


def test_all_config_errors_reported_at_once(tmp_path, workspace, capsys):
    code = cli.main([
        "pretrain",
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--learning_rate", "-1",
        "--batch_size", "0",
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    err = capsys.readouterr().err
    assert "learning_rate" in err and "batch_size" in err


def test_unknown_config_key_rejected(tmp_path, workspace, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("learning_rate = 1e-3\nmystery_knob = 7\n", encoding="utf-8")
    code = cli.main([
        "pretrain",
        "--config", str(bad),
        "--corpus", str(workspace["corpus"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "mystery_knob" in capsys.readouterr().err


def test_finetune_binary_end_to_end(tmp_path, workspace, capsys):
    out = tmp_path / "ft"
    code = cli.main([
        "finetune",
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--splits", str(workspace["splits"]),
        "--task", "binary",
        "--init", str(workspace["checkpoint"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "checkpoints" / "best.npz").exists()
    assert (out / "metrics.json").exists()
    assert "best checkpoint at step" in capsys.readouterr().out


def test_finetune_requires_init(workspace, tmp_path, capsys):
    code = cli.main([
        "finetune",
        "--corpus", str(workspace["corpus"]),
        "--splits", str(workspace["splits"]),
        "--task", "binary",
        "--tokenizer", str(workspace["tokenizer"]),
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "--init" in capsys.readouterr().err


def test_finetune_multiclass_infers_class_count(tmp_path, workspace):
    out = tmp_path / "ft-multi"
    code = cli.main([
        "finetune",
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--splits", str(workspace["splits"]),
        "--task", "multiclass",
        "--init", str(workspace["checkpoint"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "metrics.json").read_text())
    assert len(report["per_class"]) == 8  # one per synthetic category code


def test_eval_command_writes_metrics(tmp_path, workspace, capsys):
    ft_out = tmp_path / "ft"
    assert cli.main([
        "finetune",
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--splits", str(workspace["splits"]),
        "--task", "binary",
        "--init", str(workspace["checkpoint"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--out", str(ft_out),
    ]) == 0
    capsys.readouterr()
    out = tmp_path / "eval"
    code = cli.main([
        "eval",
        "--checkpoint", str(ft_out / "checkpoints" / "best.npz"),
        "--corpus", str(workspace["corpus"]),
        "--split", str(workspace["splits"] / "test.txt"),
        "--task", "binary",
        "--tokenizer", str(workspace["tokenizer"]),
        "--out", str(out),
    ])
    assert code == 0
    assert "accuracy" in capsys.readouterr().out
    assert (out / "metrics.json").exists()
    assert (out / "metrics.txt").exists()


def test_an_mlm_eval_writes_only_its_loss(tmp_path, workspace, capsys):
    """An MLM evaluation has no accuracy, precision, recall or F1 to report."""
    out = tmp_path / "eval"
    code = cli.main([
        "eval",
        "--checkpoint", str(workspace["checkpoint"]),
        "--corpus", str(workspace["corpus"]),
        "--split", str(workspace["splits"] / "test.txt"),
        "--task", "mlm",
        "--tokenizer", str(workspace["tokenizer"]),
        "--out", str(out),
    ])
    assert code == 0
    report = json.loads((out / "metrics.json").read_text())
    assert sorted(report) == ["loss", "mode"] and report["mode"] == "mlm"
    assert f"{report['loss']:.4f}" in capsys.readouterr().out


@pytest.fixture(scope="module")
def classifier_checkpoint(workspace, toy_base_checkpoint):
    """The base encoder with an untrained binary head: enough for `eval --task binary`."""
    config, params = with_fresh_classifier(toy_base_checkpoint, 2, seed=0)
    extra = {"objective": "binary", "class_labels": [False, True]}
    checkpoint = Checkpoint(config, params, toy_base_checkpoint.tokenizer_hash, extra)
    return save_checkpoint(checkpoint, workspace["root"] / "classifier.npz")


@pytest.mark.parametrize("task", ["binary", "mlm"])
@pytest.mark.parametrize("batch_size", ["0", "-3"])
def test_eval_rejects_batch_size_below_one(workspace, classifier_checkpoint, capsys, task, batch_size):
    code = cli.main([
        "eval",
        "--checkpoint", str(classifier_checkpoint),
        "--corpus", str(workspace["corpus"]),
        "--split", str(workspace["splits"] / "test.txt"),
        "--task", task,
        "--tokenizer", str(workspace["tokenizer"]),
        "--batch-size", batch_size,
    ])
    assert code == 1
    assert capsys.readouterr().err == f"error: batch_size must be at least 1, got {batch_size}\n"


def _truncated(data: bytes) -> bytes:
    return data[: len(data) // 2]


def _empty(data: bytes) -> bytes:
    return b""


def _with_meta(data: bytes, edit) -> bytes:
    """The checkpoint with `edit(meta)` as its `__meta__`."""
    with np.load(io.BytesIO(data)) as archive:
        arrays = {key: archive[key] for key in archive.files}
    arrays["__meta__"] = np.array(json.dumps(edit(json.loads(str(arrays["__meta__"])))))
    buffer = io.BytesIO()
    np.savez(buffer, **arrays)
    return buffer.getvalue()


def _unknown_config_key(data: bytes) -> bytes:
    return _with_meta(data, lambda meta: {**meta, "config": {**meta["config"], "mystery_knob": 1}})


def _no_tokenizer_hash(data: bytes) -> bytes:
    return _with_meta(data, lambda meta: {key: value for key, value in meta.items() if key != "tokenizer_hash"})


def _meta_not_an_object(data: bytes) -> bytes:
    return _with_meta(data, lambda meta: [meta])


def _extra_not_an_object(data: bytes) -> bytes:
    return _with_meta(data, lambda meta: {**meta, "extra": []})


def _eval_binary(workspace, checkpoint) -> int:
    return cli.main([
        "eval",
        "--checkpoint", str(checkpoint),
        "--corpus", str(workspace["corpus"]),
        "--split", str(workspace["splits"] / "test.txt"),
        "--task", "binary",
        "--tokenizer", str(workspace["tokenizer"]),
    ])


@pytest.mark.parametrize(
    "damage",
    [_truncated, _empty, _unknown_config_key, _no_tokenizer_hash, _meta_not_an_object, _extra_not_an_object],
    ids=lambda f: f.__name__.strip("_"),
)
def test_eval_names_an_unreadable_checkpoint(workspace, classifier_checkpoint, tmp_path, capsys, damage):
    damaged = tmp_path / "damaged.npz"
    damaged.write_bytes(damage(Path(classifier_checkpoint).read_bytes()))
    assert _eval_binary(workspace, damaged) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {damaged} is not a readable checkpoint: ")


@pytest.mark.parametrize(
    "field, value",
    [
        ("num_layers", lambda n: n + 0.5),
        ("num_heads", lambda n: True),
        ("hidden_dim", float),
        ("tie_mlm_weights", lambda flag: 1),
        ("pooler_tanh", lambda flag: "false"),
        ("dropout_rate", lambda rate: False),
    ],
    ids=["fractional_layers", "bool_heads", "float_hidden_dim", "int_tie", "string_pooler", "bool_dropout"],
)
def test_eval_refuses_a_checkpoint_config_of_the_wrong_type(
    workspace, classifier_checkpoint, tmp_path, capsys, field, value
):
    """A config value of the wrong type is named, not loaded as its nearest meaning or left to a traceback."""
    damaged = tmp_path / "config.npz"
    damaged.write_bytes(_with_meta(
        Path(classifier_checkpoint).read_bytes(),
        lambda meta: {**meta, "config": {**meta["config"], field: value(meta["config"][field])}},
    ))
    assert _eval_binary(workspace, damaged) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {field} must be ")


@pytest.mark.parametrize(
    "labels", [5, [True], [False, True, True], [[0], [1]]], ids=["number", "one", "three", "lists"]
)
def test_eval_refuses_class_labels_that_do_not_fit_the_head(
    workspace, classifier_checkpoint, tmp_path, capsys, labels
):
    """The binary head has two outputs, so `class_labels` must be a list of two labels."""
    damaged = tmp_path / "labels.npz"
    damaged.write_bytes(_with_meta(
        Path(classifier_checkpoint).read_bytes(),
        lambda meta: {**meta, "extra": {**meta["extra"], "class_labels": labels}},
    ))
    assert _eval_binary(workspace, damaged) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: checkpoint class_labels must be 2 ")


@pytest.fixture(scope="module")
def finetune_runs(workspace, tmp_path_factory):
    """One `finetune` run directory per task, on the workspace splits."""
    runs = {}
    for task in ("binary", "multiclass"):
        runs[task] = tmp_path_factory.mktemp(f"ft-{task}")
        assert cli.main([
            "finetune",
            "--config", str(workspace["config"]),
            "--corpus", str(workspace["corpus"]),
            "--splits", str(workspace["splits"]),
            "--task", task,
            "--init", str(workspace["checkpoint"]),
            "--tokenizer", str(workspace["tokenizer"]),
            "--out", str(runs[task]),
        ]) == 0
    return runs


def _eval(workspace, checkpoint, task: str, split: str, *extra: str) -> int:
    return cli.main([
        "eval",
        "--checkpoint", str(checkpoint),
        "--corpus", str(workspace["corpus"]),
        "--split", str(workspace["splits"] / split),
        "--task", task,
        "--tokenizer", str(workspace["tokenizer"]),
        *extra,
    ])


@pytest.mark.parametrize(
    "source, task, message",
    [
        ("multiclass", "binary", "error: checkpoint was fine-tuned for 'multiclass', not for the 'binary' task"),
        ("binary", "multiclass", "error: checkpoint was fine-tuned for 'binary', not for the 'multiclass' task"),
        ("base", "binary", "error: checkpoint has no classifier head metadata; fine-tune first"),
    ],
    ids=["multiclass-as-binary", "binary-as-multiclass", "base-as-binary"],
)
def test_eval_refuses_a_checkpoint_not_fine_tuned_for_its_task(
    workspace, finetune_runs, capsys, source, task, message
):
    checkpoint = workspace["checkpoint"] if source == "base" else finetune_runs[source] / "checkpoints" / "best.npz"
    capsys.readouterr()
    assert _eval(workspace, checkpoint, task, "test.txt") == 1
    assert capsys.readouterr().err.splitlines() == [message]


@pytest.mark.parametrize("task", ["binary", "multiclass"])
def test_eval_of_the_best_checkpoint_reproduces_the_finetune_metrics(workspace, finetune_runs, tmp_path, task):
    """`eval` on the validation split at the run's batch size (8) writes the run's own `metrics.json`."""
    run = finetune_runs[task]
    out = tmp_path / "eval"
    checkpoint = run / "checkpoints" / "best.npz"
    assert _eval(workspace, checkpoint, task, "finetune_validation.txt", "--batch-size", "8", "--out", str(out)) == 0
    assert (out / "metrics.json").read_bytes() == (run / "metrics.json").read_bytes()


def test_mask_predict_requires_sentinel(workspace, capsys):
    code = cli.main([
        "mask-predict",
        "--checkpoint", str(workspace["checkpoint"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--text", "no sentinel here",
    ])
    assert code == 1
    assert "sentinel" in capsys.readouterr().err


def test_mask_predict_outputs_descending_scores(workspace, capsys):
    code = cli.main([
        "mask-predict",
        "--checkpoint", str(workspace["checkpoint"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--text", "the fuel [MASK] assembly",
        "--k", "5",
    ])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 6  # header + 5 rows
    scores = [float(line.split()[-1]) for line in lines[1:]]
    assert scores == sorted(scores, reverse=True)


def test_scale_study_command(tmp_path, workspace):
    out = tmp_path / "scaling"
    code = cli.main([
        "scale-study",
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--splits", str(workspace["splits"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--init", f"base={workspace['checkpoint']}",
        "--fractions", "0.5,1.0",
        "--out", str(out),
    ])
    assert code == 0
    with (out / "scaling_study.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["init_name", "fraction", "train_size", "log_loss"]
    assert len(rows) == 3


def test_scale_study_requires_init(workspace, tmp_path, capsys):
    code = cli.main([
        "scale-study",
        "--corpus", str(workspace["corpus"]),
        "--splits", str(workspace["splits"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--out", str(tmp_path / "x"),
    ])
    assert code == 1
    assert "--init" in capsys.readouterr().err


def test_scale_study_refuses_a_repeated_init_name(workspace, tmp_path, capsys, monkeypatch):
    loaded = []
    monkeypatch.setattr(cli, "load_checkpoint", lambda path: loaded.append(path))
    out = tmp_path / "x"
    code = cli.main([
        "scale-study",
        "--corpus", str(workspace["corpus"]),
        "--splits", str(workspace["splits"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--init", f"a={workspace['checkpoint']}",
        "--init", f"a={workspace['checkpoint']}.other",
        "--out", str(out),
    ])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: --init names 'a' more than once"]
    assert loaded == [] and not out.exists()


def test_topics_command(tmp_path, workspace, capsys):
    out = tmp_path / "topics"
    code = cli.main([
        "topics",
        "--checkpoint", str(workspace["checkpoint"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--corpus", str(workspace["corpus"]),
        "--split", str(workspace["splits"] / "pretrain.txt"),
        "--sample", "60",
        "--top-k", "3",
        "--min-cluster-size", "5",
        "--radius", "2.0",
        "--out", str(out),
    ])
    assert code == 0
    assert (out / "projection.csv").exists()
    assert (out / "topics.csv").exists()
    assert (out / "embeddings.npy").exists()
    assert "clusters" in capsys.readouterr().out


@pytest.mark.parametrize("command, manifest", [("topics", "pretrain.txt"), ("finetune", "finetune_train.txt")])
def test_a_repeated_manifest_id_is_refused(tmp_path, workspace, command, manifest, capsys):
    """A repeated id would pair a document with its copy in `topics` and weight it twice in training."""
    splits = tmp_path / "splits"
    splits.mkdir()
    for path in workspace["splits"].iterdir():
        (splits / path.name).write_bytes(path.read_bytes())
    ids = (splits / manifest).read_text(encoding="utf-8").splitlines()
    (splits / manifest).write_text("".join(f"{i}\n" for i in ids + ids[:3]), encoding="utf-8")
    argv, _ = _recorded_run(command, {**workspace, "splits": splits, "classifier": workspace["checkpoint"]})
    out = tmp_path / "out"
    assert cli.main([*argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        f"error: {splits / manifest}:{len(ids) + 1}: id {ids[0]!r} repeats line 1"
    ]
    assert not out.exists()


def test_topics_runs_one_svd_and_no_k_d_tree(tmp_path, workspace, monkeypatch):
    """The projection and the clusterer share one PCA, and the radius graph needs no `scipy.spatial`."""
    svd_calls = []
    svd = np.linalg.svd

    def counted_svd(*args, **kwargs):
        svd_calls.append(args[0].shape)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    argv, _ = _recorded_run("topics", {**workspace, "classifier": workspace["checkpoint"]})
    assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert len(svd_calls) == 1

    code = (
        "import sys; from domainlm import cli; "
        "assert cli.main(sys.argv[1:]) == 0; "
        "print('scipy.spatial' in sys.modules)"
    )
    assert _run_child(code, *argv, "--out", str(tmp_path / "child")).splitlines()[-1] == "False"


def test_runtime_errors_exit_two(monkeypatch, workspace, tmp_path, capsys):
    def diverge(*args, **kwargs):
        raise TrainingDivergedError("non-finite MLM loss at step 1")

    monkeypatch.setattr(cli.training, "pretrain_mlm", diverge)
    code = cli.main([
        "pretrain",
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--out", str(tmp_path / "x"),
    ])
    assert code == 2
    assert "step 1" in capsys.readouterr().err


def test_float32_pretrain_and_finetune_stay_float32(tmp_path, workspace, capsys):
    pretrain_out = tmp_path / "pre32"
    assert cli.main([
        "pretrain",
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--dtype", "float32",
        "--total_steps", "40",
        "--out", str(pretrain_out),
    ]) == 0
    final = load_checkpoint(pretrain_out / "checkpoints" / "final.npz")
    assert final.config.dtype == "float32"
    assert {p.data.dtype for p in final.params.values()} == {np.dtype(np.float32)}

    finetune_out = tmp_path / "ft32"
    assert cli.main([
        "finetune",
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--splits", str(workspace["splits"]),
        "--task", "binary",
        "--init", str(pretrain_out / "checkpoints" / "final.npz"),
        "--tokenizer", str(workspace["tokenizer"]),
        "--dtype", "float32",
        "--epochs", "10",
        "--out", str(finetune_out),
    ]) == 0
    best = load_checkpoint(finetune_out / "checkpoints" / "best.npz")
    assert {p.data.dtype for p in best.params.values()} == {np.dtype(np.float32)}
    assert json.loads((finetune_out / "metrics.json").read_text())["accuracy"] >= 0.95
    # The validation split holds two documents; the test split is the larger check.
    assert cli.main([
        "eval",
        "--checkpoint", str(finetune_out / "checkpoints" / "best.npz"),
        "--corpus", str(workspace["corpus"]),
        "--split", str(workspace["splits"] / "test.txt"),
        "--task", "binary",
        "--tokenizer", str(workspace["tokenizer"]),
        "--out", str(tmp_path / "eval32"),
    ]) == 0
    assert json.loads((tmp_path / "eval32" / "metrics.json").read_text())["accuracy"] >= 0.95


@pytest.mark.parametrize("command", ["finetune", "pretrain"])
def test_model_flag_differing_from_checkpoint_rejected(tmp_path, workspace, capsys, command):
    argv = [
        command,
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--init", str(workspace["checkpoint"]),
        "--out", str(tmp_path / "x"),
    ]
    if command == "finetune":
        argv += ["--splits", str(workspace["splits"]), "--task", "binary"]
    assert cli.main(argv + ["--dtype", "float32", "--dropout_rate", "0.1"]) == 1
    err = capsys.readouterr().err
    assert "--dtype float32 differs from the checkpoint's dtype float64" in err
    assert "--dropout_rate 0.1 differs from the checkpoint's dropout_rate 0.0" in err
    assert not (tmp_path / "x").exists()

    # Repeating the checkpoint's own values is accepted.
    assert cli.main(argv + ["--dtype", "float64", "--dropout_rate", "0.0", "--total_steps", "2"]) == 0


@pytest.mark.parametrize("init", [False, True], ids=["fresh", "init"])
def test_segment_length_beyond_max_positions_reported_with_other_problems(
    tmp_path, workspace, capsys, monkeypatch, init
):
    steps = []
    monkeypatch.setattr(cli.training, "pretrain_mlm", lambda *a, **k: steps.append(a))
    argv = [
        "pretrain",
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--segment_length", "100",
        "--learning_rate", "-1",
        "--out", str(tmp_path / "x"),
    ]
    if init:
        argv += ["--init", str(workspace["checkpoint"])]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    whose = "the checkpoint's " if init else ""
    assert "learning_rate must be positive, got -1.0" in err
    assert f"segment_length 100 exceeds {whose}max_positions 64" in err
    assert steps == []
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize(
    "command, flag",
    [("pretrain", "--eval_checkpoints"), ("finetune", "--segment_length"), ("scale-study", "--segment_length")],
)
def test_a_command_refuses_a_config_flag_it_does_not_read(tmp_path, workspace, capsys, command, flag):
    """The flag is refused; the same key in the shared config file is still accepted."""
    argv = [
        command,
        "--config", str(workspace["config"]),
        "--corpus", str(workspace["corpus"]),
        "--tokenizer", str(workspace["tokenizer"]),
        "--out", str(tmp_path / "x"),
    ]
    if command == "finetune":
        argv += ["--splits", str(workspace["splits"]), "--task", "binary", "--init", str(workspace["checkpoint"])]
    elif command == "scale-study":
        argv += ["--splits", str(workspace["splits"]), "--init", f"base={workspace['checkpoint']}"]
    assert cli.main(argv + [flag, "8"]) == 1
    assert capsys.readouterr().err == f"error: unrecognized arguments: {flag} 8\n"
    assert not (tmp_path / "x").exists()


def test_a_config_field_in_both_dataclasses_fails_when_the_parser_is_built(monkeypatch):
    """A name both configs own would be routed to one of them only, so it is refused outright."""

    @dataclasses.dataclass
    class Clashing:
        seed: int = 0

    monkeypatch.setattr(cli, "ModelConfig", Clashing)
    with pytest.raises(argparse.ArgumentError, match="--seed"):
        cli.build_parser()


# -- the process memory policy ----------------------------------------------------

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def policy_unset():
    """Clear the once-guard before and after, so a `main` in the test sets the policy again.

    A later `main` then sets the real policy once more, which changes nothing.
    """
    cli._keep_freed_memory.cache_clear()
    yield
    cli._keep_freed_memory.cache_clear()


@pytest.fixture
def mallopt_calls(monkeypatch, policy_unset):
    """Calls that reach the C library's `mallopt`, through a spy in place of the cached lookup."""
    calls = []

    def mallopt(option, value):
        calls.append((option, value))
        return 1

    monkeypatch.setattr(cli, "_libc_mallopt", lambda: mallopt)
    return calls


def test_command_sets_the_malloc_policy_once_per_process(mallopt_calls, workspace, tmp_path):
    for run in ("a", "b"):
        assert cli.main(["split", str(workspace["corpus"]), "--out", str(tmp_path / run)]) == 0
    # M_MMAP_THRESHOLD (-3) to 4 MiB + 64 KiB, then M_TRIM_THRESHOLD (-1) to 1 GiB.
    assert mallopt_calls == [(-3, 4 * 2**20 + 64 * 2**10), (-1, 2**30)]


@pytest.mark.parametrize("lookup", [lambda: None, lambda: lambda option, value: 0], ids=["missing", "fails"])
def test_command_runs_without_mallopt(monkeypatch, policy_unset, workspace, tmp_path, capsys, lookup):
    monkeypatch.setattr(cli, "_libc_mallopt", lookup)
    assert cli.main(["split", str(workspace["corpus"]), "--out", str(tmp_path / "s")]) == 0
    assert "pretrain=" in capsys.readouterr().out


def test_library_calls_leave_the_allocator_alone(
    monkeypatch, policy_unset, toy_docs, toy_tokenizer, toy_base_checkpoint
):
    looked_up = []
    monkeypatch.setattr(cli, "_libc_mallopt", lambda: looked_up.append(1))
    config = training.TrainingConfig(learning_rate=1e-3, batch_size=8, total_steps=2, eval_checkpoints=1, seed=1)
    result = training.finetune_classifier(
        config, toy_base_checkpoint, "binary", toy_docs[:16], toy_docs[16:24], toy_tokenizer
    )
    sequences = [toy_tokenizer.encode(d.text)[:20] for d in toy_docs[:10]]
    best = result.best_checkpoint
    evaluation.cls_vectors(best.params, best.config, sequences, toy_tokenizer.pad_id, batch_size=4)
    assert looked_up == []


def _run_child(code: str, *args: str) -> str:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return result.stdout


needs_mallopt = pytest.mark.skipif(cli._libc_mallopt() is None, reason="the C library has no mallopt")

# Six two-batch inference passes at hidden 64, ff 256, 8 x 64 tokens in
# float64: the feed-forward activations are 1 MiB, the attention
# probabilities 512 KiB, both above glibc's default 128 KiB mmap threshold.
_PASSES_CHILD = """
import resource, sys
import numpy as np
from domainlm import cli, evaluation
from domainlm.model import ModelConfig, init_parameters

if sys.argv[1] == "hold":
    cli._keep_freed_memory()
config = ModelConfig(num_layers=2, num_heads=2, hidden_dim=64, ff_dim=256, vocab_size=300, max_positions=64)
params = init_parameters(config, 0)
rng = np.random.default_rng(0)
sequences = [rng.integers(5, 300, 64) for _ in range(16)]
faults = []
for _ in range(6):
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    evaluation.cls_vectors(params, config, sequences, 0, batch_size=8)
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(sum(faults[1:]))
"""


@needs_mallopt
def test_held_memory_is_not_faulted_in_again_pass_after_pass():
    held = int(_run_child(_PASSES_CHILD, "hold"))
    default = int(_run_child(_PASSES_CHILD, "default"))
    assert held * 4 <= default, (held, default)


_FINETUNE_CHILD = """
import sys
from domainlm import cli

if sys.argv[1] == "default":
    cli._libc_mallopt = lambda: None
sys.exit(cli.main(sys.argv[2:]))
"""


@needs_mallopt
def test_malloc_policy_does_not_change_the_numbers(workspace, tmp_path):
    outs = {}
    for policy in ("hold", "default"):
        outs[policy] = tmp_path / policy
        _run_child(
            _FINETUNE_CHILD, policy,
            "finetune",
            "--config", str(workspace["config"]),
            "--corpus", str(workspace["corpus"]),
            "--splits", str(workspace["splits"]),
            "--task", "binary",
            "--init", str(workspace["checkpoint"]),
            "--tokenizer", str(workspace["tokenizer"]),
            "--out", str(outs[policy]),
        )
    compared = sorted(
        path.relative_to(outs["hold"]).as_posix()
        for path in outs["hold"].rglob("*")
        if path.suffix == ".npz" or path.name in ("metrics.json", "loss_history.csv")
    )
    assert "checkpoints/best.npz" in compared and len(compared) >= 4
    for name in compared:
        assert (outs["hold"] / name).read_bytes() == (outs["default"] / name).read_bytes(), name
