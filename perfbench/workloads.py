"""Workload definitions: seeded input generation, the timed stage, output checks.

Each workload prepares its inputs in a directory (`setup`), names the
`domainlm` subcommand its timed stage runs (`argv`), and checks the stage's
outputs afterwards (`check`). Everything is a function of the workload seed
and the size preset, so the same seed gives the same inputs and outputs.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from domainlm import corpus, synthetic
from domainlm.analysis import OUTLIER
from domainlm.evaluation import evaluate_mlm, mlm_cross_entropy
from domainlm.model import Checkpoint, ModelConfig, init_parameters, load_checkpoint, save_checkpoint
from domainlm.tokenizer import Tokenizer
from domainlm.training import (
    CheckpointMeta,
    TrainingConfig,
    finetune_classifier,
    pack_segments,
    select_best_checkpoint,
)

WORKLOADS = ("pretrain", "finetune", "tokenizer", "topics")

# Output checks per workload; `run.py` adds "reps_agree" (every rep of the
# stage produced the same token count and checkpoints).
CHECK_NAMES = {
    "pretrain": ("losses_finite", "checkpoint_reloads", "heldout_loss_below_step0", "reps_agree"),
    "finetune": ("evaluated_every_checkpoint", "best_is_argmin", "checkpoint_reloads", "accuracy_at_least_0.95",
                 "reps_agree"),
    "tokenizer": ("roundtrip", "vocab_reaches_target", "specials_first", "reps_agree"),
    "topics": ("has_cluster", "every_sampled_id_assigned", "topic_scores_finite", "reps_agree"),
}

# The ROADMAP's throughput shape: 4 layers, 4 heads, hidden 128, ff 512.
_SHAPE = dict(num_layers=4, num_heads=4, hidden_dim=128, ff_dim=512)
_SMALL_SHAPE = dict(num_layers=2, num_heads=2, hidden_dim=64, ff_dim=256)
_TINY_SHAPE = dict(num_layers=2, num_heads=2, hidden_dim=32, ff_dim=64)


@dataclass(frozen=True)
class Sizes:
    docs: int  # training (or sampled) documents
    val_docs: int  # validation / held-out documents
    vocab: int  # tokenizer target vocabulary
    shape: dict
    max_positions: int = 128
    batch: int = 16
    steps: int = 4
    lr: float = 1e-3
    eval_checkpoints: int = 20
    words_per_doc: int = 60  # tokenizer workload: Zipf words per document
    lexicon: int = 4000  # tokenizer workload: distinct words available
    setup_steps: int = 40  # topics workload: fine-tuning steps done in setup
    radius: float = 1.5  # topics workload: clustering radius


SIZES = {
    "full": {
        "pretrain": Sizes(docs=1200, val_docs=120, vocab=1024, shape=_SHAPE, steps=4),
        "finetune": Sizes(docs=320, val_docs=64, vocab=1024, shape=_SHAPE, steps=40, lr=3e-4),
        "tokenizer": Sizes(docs=600, val_docs=600, vocab=360, shape=_SHAPE),
        # A smaller encoder keeps the set-up fine-tune cheap enough to repeat
        # five times per run; the 2000-document sample keeps the dense
        # (n, n, d) distance tensor of the clustering at its full size.
        "topics": Sizes(docs=2000, val_docs=64, vocab=1024, shape=_SMALL_SHAPE),
    },
    "tiny": {
        "pretrain": Sizes(docs=120, val_docs=24, vocab=300, shape=_TINY_SHAPE, max_positions=32,
                          batch=4, steps=3, lr=3e-3),
        "finetune": Sizes(docs=64, val_docs=16, vocab=1024, shape=_TINY_SHAPE, max_positions=32,
                          batch=16, steps=24, lr=3e-3, eval_checkpoints=4),
        "tokenizer": Sizes(docs=60, val_docs=60, vocab=300, shape=_TINY_SHAPE, words_per_doc=20,
                           lexicon=400),
        "topics": Sizes(docs=120, val_docs=16, vocab=300, shape=_TINY_SHAPE, max_positions=32,
                        batch=8, setup_steps=16, lr=1e-2),
    },
}

# Model dtype per workload; `finetune` is the one that runs the float32 path.
DTYPES = {"pretrain": "float64", "finetune": "float32", "tokenizer": None, "topics": "float64"}


def _model_config(sizes: Sizes, vocab_size: int, dtype: str) -> ModelConfig:
    return ModelConfig(
        vocab_size=vocab_size, max_positions=sizes.max_positions, dropout_rate=0.1, dtype=dtype,
        **sizes.shape,
    )


def _write_manifest(path: Path, docs) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("".join(d.id + "\n" for d in docs), encoding="utf-8")


def zipf_corpus(n_docs: int, words_per_doc: int, lexicon: int, seed: int, stream: int, prefix: str):
    """Documents of Zipf-distributed words (exponent 1.1) over a fixed lexicon.

    The lexicon is the same for every seed, like a language; the seed and
    `stream` select the documents, so a held-out corpus shares the language
    but not the text, and many of its rare words are unseen in training.
    """
    lex_rng = np.random.default_rng(np.random.SeedSequence((lexicon, 0x1E)))
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    lengths = lex_rng.integers(2, 11, size=lexicon)
    words = ["".join(lex_rng.choice(letters, size=n)) for n in lengths]
    weights = 1.0 / np.arange(1, lexicon + 1) ** 1.1
    rng = np.random.default_rng(np.random.SeedSequence((seed, stream)))
    draws = rng.choice(lexicon, size=(n_docs, words_per_doc), p=weights / weights.sum())
    return [
        corpus.make_document(f"{prefix}-{i:05d}", " ".join(words[j] for j in row))
        for i, row in enumerate(draws)
    ]


# -- setup -------------------------------------------------------------------------


def setup(workload: str, seed: int, size: str, root: Path) -> None:
    """Write every input the workload's stage reads into `root`."""
    sizes = SIZES[size][workload]
    root.mkdir(parents=True, exist_ok=True)
    if workload == "tokenizer":
        docs = zipf_corpus(sizes.docs, sizes.words_per_doc, sizes.lexicon, seed, 0x71, "train")
        held = zipf_corpus(sizes.val_docs, sizes.words_per_doc, sizes.lexicon, seed, 0x72, "held")
        corpus.save_corpus(docs, root / "train.jsonl")
        corpus.save_corpus(held, root / "heldout.jsonl")
        return

    if workload == "pretrain":
        docs = synthetic.binary_corpus(sizes.docs, seed=seed)
        val = synthetic.make_corpus(
            sizes.val_docs, synthetic.NFC_TOY_CODES + synthetic.GENERAL_TOY_CODES, seed=seed + 1, prefix="val"
        )
        corpus.save_corpus(docs, root / "train.jsonl")
        corpus.save_corpus(val, root / "val.jsonl")
        Tokenizer.train((d.text for d in docs), sizes.vocab).save(root / "tokenizer")
        return

    if workload == "finetune":
        docs = synthetic.binary_corpus(sizes.docs + sizes.val_docs, seed=seed)
        train, val = docs[: sizes.docs], docs[sizes.docs :]
        corpus.save_corpus(docs, root / "corpus.jsonl")
        _write_manifest(root / "splits" / "finetune_train.txt", train)
        _write_manifest(root / "splits" / "finetune_validation.txt", val)
        tokenizer = Tokenizer.train((d.text for d in docs), sizes.vocab)
        tokenizer.save(root / "tokenizer")
        config = _model_config(sizes, tokenizer.vocab_size, DTYPES["finetune"])
        init = Checkpoint(config, init_parameters(config, seed, include_classifier=False), tokenizer.fingerprint())
        save_checkpoint(init, root / "init.npz")
        return

    # topics: a briefly fine-tuned multiclass checkpoint and a document pool.
    docs = synthetic.make_corpus(sizes.docs + sizes.val_docs, tuple(synthetic.CODE_POOLS), seed=seed, prefix="top")
    pool, val = docs[: sizes.docs], docs[sizes.docs :]
    corpus.save_corpus(docs, root / "corpus.jsonl")
    _write_manifest(root / "sample.txt", pool)
    tokenizer = Tokenizer.train((d.text for d in docs), sizes.vocab)
    tokenizer.save(root / "tokenizer")
    config = _model_config(sizes, tokenizer.vocab_size, DTYPES["topics"])
    init = Checkpoint(config, init_parameters(config, seed, include_classifier=False), tokenizer.fingerprint())
    train_config = TrainingConfig(
        learning_rate=sizes.lr, batch_size=sizes.batch, total_steps=sizes.setup_steps,
        eval_checkpoints=4, log_every=sizes.setup_steps, seed=seed,
    )
    result = finetune_classifier(train_config, init, "multiclass", pool, val, tokenizer)
    save_checkpoint(result.best_checkpoint, root / "checkpoint.npz")


# -- the timed stage ----------------------------------------------------------------


def argv(workload: str, seed: int, size: str, inputs: Path, out: Path) -> list[str]:
    """The `domainlm` command line of the workload's timed stage."""
    sizes = SIZES[size][workload]
    if workload == "tokenizer":
        return ["tokenizer-train", str(inputs / "train.jsonl"), "--vocab-size", str(sizes.vocab), "--out", str(out)]
    if workload == "pretrain":
        shape = [f"--{k}={v}" for k, v in sizes.shape.items()]
        return [
            "pretrain", "--corpus", str(inputs / "train.jsonl"), "--val-corpus", str(inputs / "val.jsonl"),
            "--tokenizer", str(inputs / "tokenizer"), "--out", str(out), *shape,
            f"--max_positions={sizes.max_positions}", "--dropout_rate=0.1", f"--dtype={DTYPES[workload]}",
            f"--segment_length={sizes.max_positions}", f"--batch_size={sizes.batch}",
            f"--total_steps={sizes.steps}", f"--log_every={sizes.steps}", f"--learning_rate={sizes.lr}",
            f"--seed={seed}",
        ]
    if workload == "finetune":
        return [
            "finetune", "--corpus", str(inputs / "corpus.jsonl"), "--splits", str(inputs / "splits"),
            "--task", "binary", "--init", str(inputs / "init.npz"), "--tokenizer", str(inputs / "tokenizer"),
            "--out", str(out), f"--batch_size={sizes.batch}", f"--total_steps={sizes.steps}",
            f"--eval_checkpoints={sizes.eval_checkpoints}", f"--learning_rate={sizes.lr}", f"--seed={seed}",
        ]
    return [
        "topics", "--checkpoint", str(inputs / "checkpoint.npz"), "--tokenizer", str(inputs / "tokenizer"),
        "--corpus", str(inputs / "corpus.jsonl"), "--split", str(inputs / "sample.txt"),
        "--sample", str(sizes.docs), "--radius", str(sizes.radius), "--min-cluster-size", "5",
        "--seed", str(seed), "--out", str(out),
    ]


def encode_heldout(inputs: Path, out: Path) -> list[list[int]]:
    """Second half of the tokenizer stage: encode the held-out corpus."""
    tokenizer = Tokenizer.load(out)
    return [tokenizer.encode(d.text) for d in corpus.load_corpus(inputs / "heldout.jsonl")]


# -- output checks --------------------------------------------------------------------


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="", encoding="utf-8") as handle:
        return list(csv.DictReader(handle))


def check(workload: str, seed: int, size: str, inputs: Path, out: Path, artifacts: dict) -> tuple[dict, float]:
    """Check a stage's outputs; returns ({check name: passed}, final_loss).

    `artifacts` maps saved checkpoint file names to the fingerprint of the
    in-memory checkpoint at the time it was written, and for the tokenizer
    workload holds the encoded held-out ids.
    """
    sizes = SIZES[size][workload]
    checks: dict[str, bool] = {}

    if workload == "pretrain":
        history = _read_csv(out / "loss_history.csv")
        losses = [float(r["train_loss"]) for r in history] + [
            float(r["validation_loss"]) for r in history if r["validation_loss"]
        ]
        checks["losses_finite"] = bool(history) and all(math.isfinite(x) for x in losses)
        final_loss = float(history[-1]["validation_loss"])
        saved = load_checkpoint(out / "checkpoints" / "final.npz")
        checks["checkpoint_reloads"] = saved.fingerprint() == artifacts.get("final.npz")
        tokenizer = Tokenizer.load(inputs / "tokenizer")
        val_segments = pack_segments(
            (tokenizer.encode(d.text) for d in corpus.load_corpus(inputs / "val.jsonl")),
            tokenizer.sep_id,
            sizes.max_positions,
        )
        step0 = evaluate_mlm(
            init_parameters(saved.config, seed, include_classifier=False), saved.config, val_segments,
            tokenizer, seed=seed,
        )
        checks["heldout_loss_below_step0"] = final_loss < step0
        return checks, final_loss

    if workload == "finetune":
        rows = _read_csv(out / "checkpoints.csv")
        metas = [CheckpointMeta(int(r["step"]), float(r["validation_loss"])) for r in rows]
        best = select_best_checkpoint(metas)
        flagged = [int(r["step"]) for r in rows if r["is_best"] == "1"]
        saved = load_checkpoint(out / "checkpoints" / "best.npz")
        checks["evaluated_every_checkpoint"] = len(rows) == sizes.eval_checkpoints
        checks["best_is_argmin"] = flagged == [best.step] and saved.extra.get("step") == best.step
        checks["checkpoint_reloads"] = saved.fingerprint() == artifacts.get("best.npz")
        accuracy = json.loads((out / "metrics.json").read_text(encoding="utf-8"))["accuracy"]
        checks["accuracy_at_least_0.95"] = accuracy >= 0.95
        return checks, best.validation_loss

    if workload == "tokenizer":
        tokenizer = Tokenizer.load(out)
        held = corpus.load_corpus(inputs / "heldout.jsonl")
        encoded = artifacts["encoded"]
        checks["roundtrip"] = len(encoded) == len(held) and all(
            tokenizer.decode(ids) == d.text for ids, d in zip(encoded, held)
        )
        checks["vocab_reaches_target"] = tokenizer.vocab_size == sizes.vocab
        specials = tokenizer.specials.as_tuple()
        checks["specials_first"] = [tokenizer.vocab.id_of(s) for s in specials] == list(range(len(specials)))
        # Unigram code length of the held-out text, in nats per byte.
        counts = np.bincount(np.concatenate([np.asarray(ids, dtype=np.int64) for ids in encoded]))
        counts = counts[counts > 0]
        n_bytes = sum(len(d.text.encode("utf-8")) for d in held)
        final_loss = float(-(counts * np.log(counts / counts.sum())).sum() / n_bytes)
        return checks, final_loss

    # topics
    rows = _read_csv(out / "projection.csv")
    sample_ids = (out / "embeddings.ids.txt").read_text(encoding="utf-8").splitlines()[1:]
    clusters = [int(r["cluster"]) for r in rows]
    checks["has_cluster"] = max(clusters, default=OUTLIER) >= 1
    checks["every_sampled_id_assigned"] = (
        len(rows) == sizes.docs and [r["id"] for r in rows] == sample_ids and min(clusters) >= OUTLIER
    )
    topic_rows = _read_csv(out / "topics.csv")
    checks["topic_scores_finite"] = bool(topic_rows) and all(math.isfinite(float(r["score"])) for r in topic_rows)
    # Log-loss of the checkpoint's classifier head on the exported vectors: it
    # moves if the inference path computes different embeddings.
    checkpoint = load_checkpoint(inputs / "checkpoint.npz")
    matrix = np.load(out / "embeddings.npy")
    if checkpoint.config.pooler_tanh:
        matrix = np.tanh(matrix)
    logits = matrix @ checkpoint.params["cls.w"].data + checkpoint.params["cls.b"].data
    labels = [int(c) for c in checkpoint.extra["class_labels"]]
    by_id = {d.id: d for d in corpus.load_corpus(inputs / "corpus.jsonl")}
    targets = np.array([labels.index(by_id[i].primary_category) for i in sample_ids], dtype=np.int64)
    return checks, mlm_cross_entropy(logits, targets)

