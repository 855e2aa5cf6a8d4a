"""Command-line pipeline driver.

One binary with subcommands for tokenizer training, corpus splitting,
pretraining (fresh or continued), classifier fine-tuning, evaluation, masked
token prediction, the training-set-size scaling study, and topic analysis.
Training commands read a flat key=value config file; every key a command
reads can be overridden by a flag of the same name. Exit codes: 0 success,
1 validation error, 2 runtime or numerical error.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import hashlib
import json
import sys
import time
from pathlib import Path
from typing import Sequence

import numpy as np

try:
    import resource
except ImportError:  # not on Windows
    resource = None

from . import analysis, corpus, evaluation, training
from .configio import (
    ConfigError,
    atomic_write_text,
    build_dataclass,
    dataclass_to_mapping,
    read_flat_config,
    split_known_keys,
)
from .model import Checkpoint, ModelConfig, load_checkpoint, predict_top_k
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


# -- process memory policy -------------------------------------------------------
#
# A training step or inference pass frees its arrays and allocates them again
# in the next one. By default glibc serves each block over 128 KiB (a limit it
# raises as such blocks are freed) from a fresh mmap and trims the heap top
# past twice that, so the next step faults the same memory back in,
# zero-filled: a `finetune` stage took about 200k minor faults and 0.6 s of
# system CPU. Both limits must move: the trim threshold alone left 163k
# faults, the mmap threshold alone 174k-190k. 4 MiB covers the mid-size
# arrays of `finetune` (9.4k faults) and `topics` (65k -> 6.2k; 74k at
# 1 MiB). The extra 64 KiB keeps the exactly-4 MiB arrays of a `pretrain`
# half-batch step (8 x 128 x 512 float64), which malloc's header puts just
# over 4 MiB, on the heap: a 4-step pretrain fell from 146k-162k to 95k-96k
# faults and from 0.53 to 0.34 s of system CPU, at the same peak RSS.
# 32 MiB, glibc's largest, left 88k-90k faults but raised its peak RSS by 2%.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD_BYTES = (4 << 20) + (64 << 10)
_TRIM_THRESHOLD_BYTES = 1 << 30


@functools.cache
def _libc_mallopt():
    """The C library's `mallopt`, or None where it has none (glibc has it)."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return None
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    return mallopt


@functools.cache
def _keep_freed_memory() -> None:
    """Keep blocks up to 4 MiB + 64 KiB on the heap, and the heap untrimmed, for the rest of the process.

    The setting is process-wide and cannot be read back, so only the command,
    which owns its process, makes it; library calls leave the allocator as
    they find it. Without `mallopt`, or where a call fails, nothing changes.
    """
    mallopt = _libc_mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD_BYTES)
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD_BYTES)


# -- run manifest --------------------------------------------------------------


def _sha256_file(path: Path) -> str:
    h = hashlib.sha256()
    with Path(path).open("rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()


def _resource_totals() -> dict:
    """This process's peak RSS, minor page faults and CPU time so far."""
    usage = resource.getrusage(resource.RUSAGE_SELF)
    maxrss_unit = 1 if sys.platform == "darwin" else 1024  # bytes on macOS, KiB elsewhere
    return {
        "peak_rss_mb": round(usage.ru_maxrss * maxrss_unit / 2**20, 1),
        "minor_page_faults": usage.ru_minflt,
        "user_cpu_s": round(usage.ru_utime, 3),
        "system_cpu_s": round(usage.ru_stime, 3),
    }


@dataclasses.dataclass(frozen=True)
class _Run:
    """What one command read and wrote; `main` records it in `out_dir/manifest.json`.

    `inputs` maps a name to a file the command read (recorded by its SHA-256),
    to the loaded `Tokenizer` (recorded by its fingerprint, the hash its
    checkpoints store) or to None for an optional input it was not given.
    `outputs` are the paths it wrote, relative to `out_dir`.
    """

    out_dir: Path
    config: dict
    inputs: dict[str, Path | str | Tokenizer | None]
    outputs: list[str]
    seed: int | None = None


def _input_hash(source: Path | str | Tokenizer | None) -> str | None:
    if isinstance(source, Tokenizer):
        return source.fingerprint()
    return None if source is None else _sha256_file(source)


def _write_manifest(command: str, run: _Run, started: float) -> Path:
    manifest = {
        "command": command,
        "config": run.config,
        "input_hashes": {name: _input_hash(source) for name, source in run.inputs.items()},
        "outputs": sorted(run.outputs),
        "wall_clock_seconds": round(time.time() - started, 3),
        "seed": run.seed,
    }
    if resource is not None:
        manifest["resources"] = _resource_totals()
    return atomic_write_text(run.out_dir / "manifest.json", json.dumps(manifest, indent=2) + "\n")


# -- config plumbing -------------------------------------------------------------


def _add_config_override_flags(parser: argparse.ArgumentParser, unread: str) -> None:
    """A `--<field>` flag for each config field but `unread`, the one the command does not read."""
    for f in dataclasses.fields(TrainingConfig) + dataclasses.fields(ModelConfig):
        if f.name != unread:
            parser.add_argument(f"--{f.name}", dest=f"cfg__{f.name}", default=None, metavar="VALUE")


def _collect_overrides(args) -> dict[str, str]:
    return {
        key[len("cfg__"):]: value
        for key, value in vars(args).items()
        if key.startswith("cfg__") and value is not None
    }


def _load_configs(
    args,
    inits: Sequence[ModelConfig] = (),
    default_vocab_size: int | None = None,
    packs_segments: bool = False,
) -> tuple[TrainingConfig, ModelConfig | None, dict]:
    """Merge config file and flag overrides; report every problem at once.

    Without `inits` the model config is built from the merged keys. With
    them the model comes from checkpoints: a model flag must then repeat each
    checkpoint's value, because it cannot change it. Model keys in a config
    file describe fresh pretraining and are ignored then. `packs_segments`
    (pretraining) also requires `segment_length` to fit the model's
    `max_positions`.
    """
    problems: list[str] = []
    mapping: dict[str, str] = {}
    if getattr(args, "config", None):
        try:
            mapping.update(read_flat_config(args.config))
        except (ConfigError, FileNotFoundError) as exc:
            raise CliValidationError(str(exc))
    flags = _collect_overrides(args)
    mapping.update(flags)

    owned, unknown = split_known_keys(mapping, TrainingConfig, ModelConfig)
    for key in unknown:
        problems.append(f"unknown config key {key!r}")

    train_config = build_dataclass(TrainingConfig, owned["TrainingConfig"], problems)
    if train_config is not None:
        problems.extend(train_config.problems())

    model_config = None
    if not inits:
        model_mapping = dict(owned["ModelConfig"])
        if "vocab_size" not in model_mapping and default_vocab_size is not None:
            model_mapping["vocab_size"] = str(default_vocab_size)
        model_config = build_dataclass(ModelConfig, model_mapping, problems)
        if model_config is not None:
            try:
                model_config.validate()
            except ValueError as exc:
                problems.append(str(exc))
    model_flags = {k: v for k, v in flags.items() if k in owned["ModelConfig"]}
    for init in inits:
        requested = build_dataclass(ModelConfig, {**dataclass_to_mapping(init), **model_flags}, problems)
        problems.extend(
            f"--{key} {getattr(requested, key)} differs from the checkpoint's {key} "
            f"{getattr(init, key)}; the model settings come from --init"
            for key in model_flags
            if getattr(requested, key) != getattr(init, key)
        )
    if packs_segments and train_config is not None:
        whose = "the checkpoint's " if inits else ""
        problems.extend(
            f"segment_length {train_config.segment_length} exceeds {whose}max_positions {model.max_positions}"
            for model in ([model_config] if model_config is not None else inits)
            if train_config.segment_length > model.max_positions
        )
    if problems:
        raise CliValidationError(problems)
    return train_config, model_config, dict(mapping)


def _load_tokenizer(path) -> Tokenizer:
    path = Path(path)
    if not path.exists():
        raise CliValidationError(f"tokenizer directory not found: {path}")
    return Tokenizer.load(path)


def _load_split_docs(corpus_path, manifest_paths: Sequence[Path]) -> list[list[corpus.Document]]:
    """The corpus, read once, cut into the documents of each split manifest in turn."""
    docs = corpus.load_corpus(corpus_path)
    return [corpus.select_documents(docs, corpus.read_split_manifest(path)) for path in manifest_paths]


# -- subcommands -----------------------------------------------------------------
#
# A command that writes a run directory returns a `_Run`; `main` writes its
# manifest. `mask-predict`, and `eval` without `--out`, write nothing.


def _cmd_tokenizer_train(args) -> _Run:
    docs = corpus.load_corpus(args.corpus)
    tokenizer = Tokenizer.train((d.text for d in docs), args.vocab_size)
    out_dir = Path(args.out)
    paths = tokenizer.save(out_dir)
    print(f"trained tokenizer with {tokenizer.vocab_size} tokens -> {out_dir}")
    return _Run(out_dir, {"vocab_size": args.vocab_size}, {"corpus": args.corpus}, [p.name for p in paths])


def _cmd_split(args) -> _Run:
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
    print(" ".join(f"{name}={len(docs)}" for name, docs in splits.as_dict().items()))
    outputs = [p.name for p in paths.values()]
    return _Run(out_dir, dataclasses.asdict(spec), {"corpus": args.corpus}, outputs, args.seed)


def _cmd_pretrain(args) -> _Run:
    tokenizer = _load_tokenizer(args.tokenizer)
    init: ModelConfig | Checkpoint
    if args.init:
        init = load_checkpoint(args.init)
        config, _, snapshot = _load_configs(args, [init.config], packs_segments=True)
    else:
        config, init, snapshot = _load_configs(args, default_vocab_size=tokenizer.vocab_size, packs_segments=True)
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
    final = result.history[-1] if result.history else None
    if final is not None:
        print(f"pretrained {len(segments)} segments; final train loss {final.train_loss:.4f}")
    print(f"checkpoint: {result.checkpoint_path}")
    inputs = {
        "config": args.config,
        "corpus": args.corpus,
        "val_corpus": args.val_corpus,
        "tokenizer": tokenizer,
        "init_checkpoint": args.init,
    }
    return _Run(out_dir, snapshot, inputs, ["config.txt", "loss_history.csv", "checkpoints/final.npz"], config.seed)


def _cmd_finetune(args) -> _Run:
    tokenizer = _load_tokenizer(args.tokenizer)
    init = load_checkpoint(args.init)
    config, _, snapshot = _load_configs(args, [init.config])
    splits = [Path(args.splits) / f"{name}.txt" for name in ("finetune_train", "finetune_validation")]
    train_docs, val_docs = _load_split_docs(args.corpus, splits)
    out_dir = Path(args.out)
    result = training.finetune_classifier(
        config, init, args.task, train_docs, val_docs, tokenizer, out_dir=out_dir
    )
    print(
        f"best checkpoint at step {result.best.step} "
        f"(validation loss {result.best.validation_loss:.4f}, accuracy {result.metrics.accuracy:.4f})"
    )
    inputs = {
        "config": args.config,
        "corpus": args.corpus,
        "tokenizer": tokenizer,
        "init_checkpoint": args.init,
        **{f"split:{path.stem}": path for path in splits},
    }
    outputs = ["config.txt", "loss_history.csv", "checkpoints.csv", "metrics.json", "checkpoints/best.npz"]
    outputs += [f"checkpoints/{meta.path.name}" for meta in result.checkpoints]
    return _Run(out_dir, snapshot, inputs, outputs, config.seed)


def _cmd_eval(args) -> _Run | None:
    tokenizer = _load_tokenizer(args.tokenizer)
    checkpoint = load_checkpoint(args.checkpoint)
    [docs] = _load_split_docs(args.corpus, [args.split])
    report = evaluation.evaluate_checkpoint(checkpoint, docs, args.task, tokenizer, batch_size=args.batch_size)
    print(report.format_table())
    if not args.out:
        return None
    out_dir = Path(args.out)
    atomic_write_text(out_dir / "metrics.json", report.to_json())
    atomic_write_text(out_dir / "metrics.txt", report.format_table() + "\n")
    inputs = {"corpus": args.corpus, "tokenizer": tokenizer, "checkpoint": args.checkpoint, "split": args.split}
    config = {"task": args.task, "batch_size": args.batch_size}
    return _Run(out_dir, config, inputs, ["metrics.json", "metrics.txt"])


def _cmd_mask_predict(args) -> None:
    tokenizer = _load_tokenizer(args.tokenizer)
    rows = predict_top_k(args.text, args.k, load_checkpoint(args.checkpoint), tokenizer)
    print(f"{'token':<20} score")
    for token, score in rows:
        display = token.strip() or repr(token)
        print(f"{display:<20} {score:.4f}")


def _cmd_scale_study(args) -> _Run:
    tokenizer = _load_tokenizer(args.tokenizer)
    try:
        fractions = [float(f) for f in args.fractions.split(",") if f]
    except ValueError:
        raise CliValidationError(f"cannot parse --fractions {args.fractions!r}")
    init_paths: dict[str, str] = {}
    for item in args.init or []:
        name, _, path = item.partition("=")
        if not name or not path:
            raise CliValidationError(f"--init expects name=path, got {item!r}")
        if name in init_paths:
            raise CliValidationError(f"--init names {name!r} more than once")
        init_paths[name] = path
    if not init_paths:
        raise CliValidationError("at least one --init name=path is required")
    inits = {name: load_checkpoint(path) for name, path in init_paths.items()}
    config, _, snapshot = _load_configs(args, [ckpt.config for ckpt in inits.values()])
    splits = [Path(args.splits) / f"{name}.txt" for name in ("finetune_train", "finetune_validation", "test")]
    train_pool, validation, holdout = _load_split_docs(args.corpus, splits)
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
    for result in results:
        for fraction, size, loss in result.rows():
            print(f"{result.init_name:<12} fraction={fraction:<6} n={size:<6} log_loss={loss:.4f}")
    inputs = {
        "config": args.config,
        "corpus": args.corpus,
        "tokenizer": tokenizer,
        **{f"init:{name}": path for name, path in init_paths.items()},
        **{f"split:{path.stem}": path for path in splits},
    }
    return _Run(out_dir, {**snapshot, "fractions": fractions}, inputs, ["scaling_study.csv"], config.seed)


def _cmd_topics(args) -> _Run:
    tokenizer = _load_tokenizer(args.tokenizer)
    checkpoint = load_checkpoint(args.checkpoint)
    [docs] = _load_split_docs(args.corpus, [args.split])
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
    print(f"{assignment.n_clusters} clusters, {len(assignment.outliers())} outliers")
    print(analysis.topic_report(summary))
    config = {
        "sample": sample_size,
        "top_k": args.top_k,
        "min_cluster_size": args.min_cluster_size,
        "radius": args.radius,
    }
    inputs = {"corpus": args.corpus, "tokenizer": tokenizer, "checkpoint": args.checkpoint, "split": args.split}
    outputs = ["embeddings.npy", "embeddings.ids.txt", "projection.csv", "topics.csv"]
    return _Run(out_dir, config, inputs, outputs, args.seed)


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
    _add_config_override_flags(p, unread="eval_checkpoints")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", help="fine-tune a classifier from a pretrained checkpoint")
    p.add_argument("--config")
    p.add_argument("--corpus", required=True)
    p.add_argument("--splits", required=True, help="directory of split manifest files")
    p.add_argument("--task", choices=("binary", "multiclass"), required=True)
    p.add_argument("--init", required=True, help="pretrained checkpoint path")
    p.add_argument("--tokenizer", required=True)
    p.add_argument("--out", required=True)
    _add_config_override_flags(p, unread="segment_length")
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
    _add_config_override_flags(p, unread="segment_length")
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
    _keep_freed_memory()
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        started = time.time()
        run = args.func(args)
        if run is not None:
            _write_manifest(args.command, run, started)
        return 0
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
