"""Command-line pipeline driver.

One binary with subcommands for tokenizer training, corpus splitting,
pretraining (fresh or continued), classifier fine-tuning, evaluation, masked
token prediction, the training-set-size scaling study, and topic analysis.
Training commands read a flat key=value config file; every key can be
overridden by a flag of the same name. Exit codes: 0 success, 1 validation
error, 2 runtime or numerical error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import analysis, corpus, evaluation, training
from .configio import ConfigError, build_dataclass, read_flat_config, split_known_keys
from .model import Checkpoint, ModelBundle, ModelConfig, load_checkpoint, predict_top_k
from .tokenizer import Tokenizer
from .training import TrainingConfig, TrainingDivergedError

__all__ = ["main"]


class CliValidationError(Exception):
    def __init__(self, problems):
        self.problems = [problems] if isinstance(problems, str) else list(problems)
        super().__init__("; ".join(self.problems))


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliValidationError(message)


# -- run manifest --------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_manifest(
    out_dir: Path,
    command: str,
    config_snapshot: dict,
    inputs: dict[str, Path | None],
    outputs: list[str],
    seed: int | None,
    started: float,
) -> Path:
    manifest = {
        "command": command,
        "config": config_snapshot,
        "input_hashes": {
            name: (_sha256_file(path) if path is not None and Path(path).is_file() else None)
            for name, path in inputs.items()
        },
        "outputs": sorted(outputs),
        "wall_clock_seconds": round(time.time() - started, 3),
        "seed": seed,
    }
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "manifest.json"
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n", encoding="utf-8")
    os.replace(tmp, path)
    return path


def _tokenizer_input_hash(tokenizer_dir: Path) -> Path | None:
    vocab = Path(tokenizer_dir) / "vocab.txt"
    return vocab if vocab.exists() else None


# -- config plumbing -------------------------------------------------------------


def _add_config_override_flags(parser: argparse.ArgumentParser) -> None:
    seen = set()
    for cls in (TrainingConfig, ModelConfig):
        for f in dataclasses.fields(cls):
            if f.name in seen:
                continue
            seen.add(f.name)
            parser.add_argument(f"--{f.name}", dest=f"cfg__{f.name}", default=None, metavar="VALUE")


def _collect_overrides(args) -> dict[str, str]:
    return {
        key[len("cfg__"):]: value
        for key, value in vars(args).items()
        if key.startswith("cfg__") and value is not None
    }


def _load_configs(
    args,
    need_model: bool,
    default_vocab_size: int | None = None,
) -> tuple[TrainingConfig, ModelConfig | None, dict]:
    """Merge config file and flag overrides; report every problem at once."""
    problems: list[str] = []
    mapping: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            mapping.update(read_flat_config(args.config))
        except (ConfigError, FileNotFoundError) as exc:
            raise CliValidationError(str(exc))
    mapping.update(_collect_overrides(args))

    owned, unknown = split_known_keys(mapping, TrainingConfig, ModelConfig)
    for key in unknown:
        problems.append(f"unknown config key {key!r}")

    train_config = build_dataclass(TrainingConfig, owned["TrainingConfig"], problems)
    if train_config is not None:
        problems.extend(train_config.problems())

    model_config = None
    if need_model:
        model_mapping = dict(owned["ModelConfig"])
        if "vocab_size" not in model_mapping and default_vocab_size is not None:
            model_mapping["vocab_size"] = str(default_vocab_size)
        model_config = build_dataclass(ModelConfig, model_mapping, problems)
        if model_config is not None:
            try:
                model_config.validate()
            except ValueError as exc:
                problems.append(str(exc))
    if problems:
        raise CliValidationError(problems)
    return train_config, model_config, dict(mapping)


def _load_tokenizer(path) -> Tokenizer:
    path = Path(path)
    if not path.exists():
        raise CliValidationError(f"tokenizer directory not found: {path}")
    return Tokenizer.load(path)


def _load_split_docs(corpus_path, manifest_path) -> list[corpus.Document]:
    docs = corpus.load_corpus(corpus_path)
    ids = corpus.read_split_manifest(manifest_path)
    return corpus.select_documents(docs, ids)


# -- subcommands -----------------------------------------------------------------


def _cmd_tokenizer_train(args) -> int:
    started = time.time()
    docs = corpus.load_corpus(args.corpus)
    tokenizer = Tokenizer.train((d.text for d in docs), args.vocab_size)
    out_dir = Path(args.out)
    vocab_path, merges_path = tokenizer.save(out_dir)
    _write_manifest(
        out_dir,
        "tokenizer-train",
        {"vocab_size": args.vocab_size},
        {"corpus": Path(args.corpus)},
        [vocab_path.name, merges_path.name],
        seed=None,
        started=started,
    )
    print(f"trained tokenizer with {tokenizer.vocab_size} tokens -> {out_dir}")
    return 0


def _cmd_split(args) -> int:
    started = time.time()
    spec = corpus.SplitSpec(
        pretrain_fraction=args.pretrain_fraction,
        finetune_fraction=args.finetune_fraction,
        test_fraction=args.test_fraction,
        validation_fraction_of_finetune=args.validation_fraction,
        seed=args.seed,
    )
    spec.validate()
    docs = corpus.load_corpus(args.corpus)
    splits = corpus.split_corpus(docs, spec)
    out_dir = Path(args.out)
    paths = corpus.write_split_manifests(splits, out_dir)
    _write_manifest(
        out_dir,
        "split",
        dataclasses.asdict(spec),
        {"corpus": Path(args.corpus)},
        [p.name for p in paths.values()],
        seed=args.seed,
        started=started,
    )
    print(" ".join(f"{name}={len(docs)}" for name, docs in splits.as_dict().items()))
    return 0


def _cmd_pretrain(args) -> int:
    started = time.time()
    tokenizer = _load_tokenizer(args.tokenizer)
    init: ModelConfig | Checkpoint
    if args.init:
        init = load_checkpoint(args.init)
        config, _, snapshot = _load_configs(args, need_model=False)
    else:
        config, model_config, snapshot = _load_configs(
            args, need_model=True, default_vocab_size=tokenizer.vocab_size
        )
        init = model_config
    docs = corpus.load_corpus(args.corpus)
    segments = training.pack_segments(
        (tokenizer.encode(d.text) for d in docs), tokenizer.sep_id, config.segment_length
    )
    val_segments = None
    if args.val_corpus:
        val_docs = corpus.load_corpus(args.val_corpus)
        val_segments = training.pack_segments(
            (tokenizer.encode(d.text) for d in val_docs), tokenizer.sep_id, config.segment_length
        )
    out_dir = Path(args.out)
    result = training.pretrain_mlm(
        config, segments, init, tokenizer, val_segments=val_segments, out_dir=out_dir
    )
    _write_manifest(
        out_dir,
        "pretrain",
        snapshot,
        {
            "corpus": Path(args.corpus),
            "tokenizer": _tokenizer_input_hash(args.tokenizer),
            "init_checkpoint": Path(args.init) if args.init else None,
        },
        ["config.txt", "loss_history.csv", "checkpoints/final.npz"],
        seed=config.seed,
        started=started,
    )
    final = result.history[-1] if result.history else None
    if final is not None:
        print(f"pretrained {len(segments)} segments; final train loss {final.train_loss:.4f}")
    print(f"checkpoint: {result.checkpoint_path}")
    return 0


def _cmd_finetune(args) -> int:
    started = time.time()
    tokenizer = _load_tokenizer(args.tokenizer)
    config, _, snapshot = _load_configs(args, need_model=False)
    splits_dir = Path(args.splits)
    train_docs = _load_split_docs(args.corpus, splits_dir / "finetune_train.txt")
    val_docs = _load_split_docs(args.corpus, splits_dir / "finetune_validation.txt")
    out_dir = Path(args.out)
    result = training.finetune_classifier(
        config, args.init, args.task, train_docs, val_docs, tokenizer, out_dir=out_dir
    )
    _write_manifest(
        out_dir,
        "finetune",
        snapshot,
        {
            "corpus": Path(args.corpus),
            "tokenizer": _tokenizer_input_hash(args.tokenizer),
            "init_checkpoint": Path(args.init),
        },
        ["config.txt", "loss_history.csv", "checkpoints.csv", "metrics.json", "checkpoints/best.npz"],
        seed=config.seed,
        started=started,
    )
    print(
        f"best checkpoint at step {result.best.step} "
        f"(validation loss {result.best.validation_loss:.4f}, accuracy {result.metrics.accuracy:.4f})"
    )
    return 0


def _cmd_eval(args) -> int:
    started = time.time()
    tokenizer = _load_tokenizer(args.tokenizer)
    checkpoint = load_checkpoint(args.checkpoint)
    docs = _load_split_docs(args.corpus, args.split)
    report = evaluation.evaluate_checkpoint(checkpoint, docs, args.task, tokenizer, batch_size=args.batch_size)
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        (out_dir / "metrics.json").write_text(report.to_json(), encoding="utf-8")
        (out_dir / "metrics.txt").write_text(report.format_table() + "\n", encoding="utf-8")
        _write_manifest(
            out_dir,
            "eval",
            {"task": args.task, "batch_size": args.batch_size},
            {
                "corpus": Path(args.corpus),
                "tokenizer": _tokenizer_input_hash(args.tokenizer),
                "checkpoint": Path(args.checkpoint),
                "split": Path(args.split),
            },
            ["metrics.json", "metrics.txt"],
            seed=None,
            started=started,
        )
    print(report.format_table())
    return 0


def _cmd_mask_predict(args) -> int:
    tokenizer = _load_tokenizer(args.tokenizer)
    checkpoint = load_checkpoint(args.checkpoint)
    if checkpoint.tokenizer_hash != tokenizer.fingerprint():
        raise CliValidationError("tokenizer fingerprint does not match the checkpoint")
    bundle = ModelBundle(checkpoint.params, checkpoint.config, tokenizer)
    rows = predict_top_k(args.text, args.k, bundle)
    print(f"{'token':<20} score")
    for token, score in rows:
        display = token.strip() or repr(token)
        print(f"{display:<20} {score:.4f}")
    return 0


def _cmd_scale_study(args) -> int:
    started = time.time()
    tokenizer = _load_tokenizer(args.tokenizer)
    config, _, snapshot = _load_configs(args, need_model=False)
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f]
    except ValueError:
        raise CliValidationError(f"cannot parse --fractions {args.fractions!r}")
    inits: dict[str, Checkpoint] = {}
    init_paths: dict[str, Path] = {}
    for item in args.init or []:
        name, _, path = item.partition("=")
        if not name or not path:
            raise CliValidationError(f"--init expects name=path, got {item!r}")
        init_paths[name] = Path(path)
        inits[name] = load_checkpoint(path)
    if not inits:
        raise CliValidationError("at least one --init name=path is required")
    splits_dir = Path(args.splits)
    train_pool = _load_split_docs(args.corpus, splits_dir / "finetune_train.txt")
    validation = _load_split_docs(args.corpus, splits_dir / "finetune_validation.txt")
    holdout = _load_split_docs(args.corpus, splits_dir / "test.txt")
    out_dir = Path(args.out)
    results = training.scaling_study(
        fractions,
        config,
        inits,
        train_pool,
        validation,
        holdout,
        tokenizer,
        subset_seed=args.subset_seed,
        out_dir=out_dir,
    )
    _write_manifest(
        out_dir,
        "scale-study",
        {**snapshot, "fractions": fractions},
        {
            "corpus": Path(args.corpus),
            "tokenizer": _tokenizer_input_hash(args.tokenizer),
            **{f"init:{name}": path for name, path in init_paths.items()},
        },
        ["scaling_study.csv"],
        seed=config.seed,
        started=started,
    )
    for result in results:
        for fraction, size, loss, _ in result.rows():
            print(f"{result.init_name:<12} fraction={fraction:<6} n={size:<6} log_loss={loss:.4f}")
    return 0


def _cmd_topics(args) -> int:
    started = time.time()
    tokenizer = _load_tokenizer(args.tokenizer)
    checkpoint = load_checkpoint(args.checkpoint)
    docs = _load_split_docs(args.corpus, args.split)
    sample_size = min(args.sample, len(docs))
    matrix = analysis.export_cls_embeddings(checkpoint, docs, sample_size, args.seed, tokenizer)
    coords = analysis.project_2d(matrix)
    assignment = analysis.cluster_embeddings(
        matrix, min_cluster_size=args.min_cluster_size, radius=args.radius
    )
    sampled_docs = corpus.select_documents(docs, matrix.ids)
    summary = analysis.cbtfidf_topics(assignment, sampled_docs, args.top_k)
    out_dir = Path(args.out)
    analysis.save_embeddings(matrix, out_dir / "embeddings")
    analysis.write_projection_csv(matrix, coords, assignment, sampled_docs, out_dir / "projection.csv")
    analysis.write_topic_csv(summary, out_dir / "topics.csv")
    _write_manifest(
        out_dir,
        "topics",
        {
            "sample": sample_size,
            "top_k": args.top_k,
            "min_cluster_size": args.min_cluster_size,
            "radius": args.radius,
        },
        {
            "corpus": Path(args.corpus),
            "tokenizer": _tokenizer_input_hash(args.tokenizer),
            "checkpoint": Path(args.checkpoint),
        },
        ["embeddings.npy", "embeddings.ids.txt", "projection.csv", "topics.csv"],
        seed=args.seed,
        started=started,
    )
    print(f"{assignment.n_clusters} clusters, {len(assignment.outliers())} outliers")
    print(analysis.topic_report(summary))
    return 0


# -- parser ------------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="domainlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tokenizer-train", help="train a byte-level BPE tokenizer")
    p.add_argument("corpus", help="line-delimited JSON corpus file")
    p.add_argument("--vocab-size", type=int, default=4096)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tokenizer_train)

    p = sub.add_parser("split", help="write deterministic split manifests")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pretrain-fraction", type=float, default=0.8)
    p.add_argument("--finetune-fraction", type=float, default=0.1)
    p.add_argument("--test-fraction", type=float, default=0.1)
    p.add_argument("--validation-fraction", type=float, default=0.1)
    p.set_defaults(func=_cmd_split)

    p = sub.add_parser("pretrain", help="masked-token pretraining (use --init to continue)")
    p.add_argument("--config", help="flat key=value config file")
    p.add_argument("--corpus", required=True)
    p.add_argument("--val-corpus")
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--init", help="existing checkpoint to continue pretraining from")
    p.add_argument("--out", required=True)
    _add_config_override_flags(p)
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a classifier from a pretrained checkpoint")
    p.add_argument("--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--splits", required=True, help="directory of split manifest files")
    p.add_argument("--task", choices=("binary", "multiclass"), required=True)
    p.add_argument("--init", required=True, help="pretrained checkpoint path")
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--out", required=True)
    _add_config_override_flags(p)
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a split")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", required=True, help="split manifest file")
    p.add_argument("--task", choices=("binary", "multiclass", "mlm"), required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--batch-size", type=int, default=32)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("mask-predict", help="top-k predictions for one masked token")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--text", required=True, help="text containing the mask token once")
    p.add_argument("--k", type=int, default=5)
    p.set_defaults(func=_cmd_mask_predict)

    p = sub.add_parser("scale-study", help="hold-out log-loss across nested training subsets")
    p.add_argument("--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--splits", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--init", action="append", metavar="NAME=PATH")
    p.add_argument("--fractions", default="0.05,0.25,1.0")
    p.add_argument("--subset-seed", type=int, default=0)
    p.add_argument("--out", required=True)
    _add_config_override_flags(p)
    p.set_defaults(func=_cmd_scale_study)

    p = sub.add_parser("topics", help="embedding projection, clustering, and topic words")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--split", required=True, help="split manifest file")
    p.add_argument("--sample", type=int, default=1000)
    p.add_argument("--top-k", type=int, default=3)
    p.add_argument("--min-cluster-size", type=int, default=5)
    p.add_argument("--radius", type=float, default=1.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_topics)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args) or 0
    except CliValidationError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except (FileNotFoundError, ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (TrainingDivergedError, RuntimeError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
