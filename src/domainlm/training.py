"""Training loops: masked-token pretraining (fresh or continued from a
checkpoint), classifier fine-tuning with best-checkpoint selection, the
learning-rate/batch-size grid search, and the training-set-size scaling study.

Every random draw comes from a generator seeded by (config.seed, stream, step),
so runs are bitwise reproducible from (config, data, init).
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Tensor
from .configio import write_flat_config
from .corpus import Document, nested_subsets
from .data import (
    _STREAM_MASK,
    MaskingPolicy,
    TrainingError,
    apply_dynamic_masking,
    assemble_mlm_batch,
    encode_for_classification,
    pack_segments,
    pad_batch,
)
from .evaluation import (
    EvaluationError,
    MetricsReport,
    batched_cls_logits,
    document_label,
    evaluate_classifier,
    evaluate_mlm,
    mlm_cross_entropy,
)
from .model import (
    Checkpoint,
    ModelConfig,
    backward as model_backward,
    cls_logits_from_hidden,
    cross_entropy,
    encoder_forward,
    init_parameters,
    load_checkpoint,
    mlm_logits_from_hidden,
    save_checkpoint,
    with_fresh_classifier,
)
from .tokenizer import Tokenizer

# MaskingPolicy, TrainingError and the masking and packing functions live in
# `data`; they are re-exported here under their established import path.
__all__ = [
    "MaskingPolicy",
    "TrainingConfig",
    "CheckpointMeta",
    "LossRecord",
    "TrainingError",
    "TrainingDivergedError",
    "AdamW",
    "learning_rate_at",
    "pack_segments",
    "apply_dynamic_masking",
    "assemble_mlm_batch",
    "pretrain_mlm",
    "finetune_classifier",
    "hyperparameter_grid",
    "checkpoint_steps",
    "select_best_checkpoint",
    "PretrainResult",
    "FinetuneResult",
    "GridCell",
    "REFERENCE_PRETRAIN_CONFIG",
    "REFERENCE_FINETUNE_CONFIG",
    "REFERENCE_GRID_LEARNING_RATES",
    "REFERENCE_GRID_BATCH_SIZES",
    "ScalingStudyResult",
    "scaling_study",
    "write_scaling_csv",
]

# Seed-stream salts so independent random streams never collide.
_STREAM_ORDER = 0xB0
_STREAM_DROPOUT = 0xD7


class TrainingDivergedError(RuntimeError):
    pass


@dataclass(frozen=True)
class TrainingConfig:
    learning_rate: float = 1e-5
    batch_size: int = 64
    total_steps: int | None = None
    epochs: int | None = None
    warmup_fraction: float = 0.06
    weight_decay: float = 0.01
    adam_beta1: float = 0.9
    adam_beta2: float = 0.98
    adam_eps: float = 1e-6
    seed: int = 0
    eval_checkpoints: int = 20
    log_every: int = 50
    segment_length: int = 512

    def validate(self) -> None:
        problems = self.problems()
        if problems:
            raise TrainingError("; ".join(problems))

    def problems(self) -> list[str]:
        out = []
        if self.learning_rate <= 0:
            out.append(f"learning_rate must be positive, got {self.learning_rate}")
        if self.batch_size < 1:
            out.append(f"batch_size must be at least 1, got {self.batch_size}")
        if self.total_steps is not None and self.total_steps < 1:
            out.append(f"total_steps must be positive, got {self.total_steps}")
        if self.epochs is not None and self.epochs < 1:
            out.append(f"epochs must be positive, got {self.epochs}")
        if not (0.0 <= self.warmup_fraction < 1.0):
            out.append(f"warmup_fraction must be in [0, 1), got {self.warmup_fraction}")
        if self.weight_decay < 0:
            out.append(f"weight_decay must be nonnegative, got {self.weight_decay}")
        for name in ("adam_beta1", "adam_beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                out.append(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.adam_eps <= 0:
            out.append(f"adam_eps must be positive, got {self.adam_eps}")
        if self.eval_checkpoints < 1:
            out.append(f"eval_checkpoints must be at least 1, got {self.eval_checkpoints}")
        if self.log_every < 1:
            out.append(f"log_every must be at least 1, got {self.log_every}")
        if self.segment_length < 1:
            out.append(f"segment_length must be at least 1, got {self.segment_length}")
        return out


# Reference settings mirroring the full-scale recipe this pipeline scales down
# from: 13K pretraining steps at batch 256; five fine-tuning epochs at batch 64
# with learning rate 1e-5 evaluated at 20 checkpoints. The pretraining peak
# learning rate is a declared default, not taken from that recipe.
REFERENCE_PRETRAIN_CONFIG = TrainingConfig(learning_rate=1e-4, batch_size=256, total_steps=13000)
REFERENCE_FINETUNE_CONFIG = TrainingConfig(learning_rate=1e-5, batch_size=64, epochs=5, eval_checkpoints=20)
REFERENCE_GRID_LEARNING_RATES = (1e-5, 2e-5, 5e-5)
REFERENCE_GRID_BATCH_SIZES = (16, 64)


@dataclass
class CheckpointMeta:
    step: int
    validation_loss: float
    path: Path | None = None
    is_best: bool = False


@dataclass
class LossRecord:
    step: int
    train_loss: float
    validation_loss: float | None = None


# -- optimizer and schedule --------------------------------------------------------


class AdamW:
    """Adam with decoupled weight decay; updates parameters in name order."""

    def __init__(
        self,
        params: dict[str, Tensor],
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.98,
        eps: float = 1e-6,
        weight_decay: float = 0.01,
    ):
        self.params = params
        self.learning_rate = learning_rate
        self.beta1, self.beta2, self.eps = beta1, beta2, eps
        self.weight_decay = weight_decay
        self._names = sorted(params)
        self.m = {n: np.zeros_like(params[n].data) for n in self._names}
        self.v = {n: np.zeros_like(params[n].data) for n in self._names}
        self.t = 0

    @classmethod
    def from_config(cls, params: dict[str, Tensor], config: TrainingConfig) -> "AdamW":
        return cls(
            params,
            learning_rate=config.learning_rate,
            beta1=config.adam_beta1,
            beta2=config.adam_beta2,
            eps=config.adam_eps,
            weight_decay=config.weight_decay,
        )

    def step(self, grads: dict[str, np.ndarray], learning_rate: float | None = None) -> None:
        lr = self.learning_rate if learning_rate is None else learning_rate
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name in self._names:
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * g * g
            update = (m / bc1) / (np.sqrt(v / bc2) + self.eps)
            p = self.params[name].data
            p -= lr * (update + self.weight_decay * p)


def learning_rate_at(step: int, total_steps: int, peak: float, warmup_fraction: float) -> float:
    """Linear warmup to `peak`, then linear decay toward 0 at `total_steps`."""
    warmup = int(round(warmup_fraction * total_steps))
    if step < warmup:
        return peak * (step + 1) / warmup
    if total_steps == warmup:
        return peak
    return peak * (total_steps - step) / (total_steps - warmup)


def _batch_index_stream(n_items: int, batch_size: int, seed: int):
    epoch = 0
    while True:
        rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_ORDER, epoch)))
        order = rng.permutation(n_items)
        for start in range(0, n_items, batch_size):
            yield order[start : start + batch_size]
        epoch += 1


def _resolve_total_steps(config: TrainingConfig, n_items: int) -> int:
    if config.total_steps is not None:
        return config.total_steps
    if config.epochs is not None:
        return config.epochs * math.ceil(n_items / config.batch_size)
    raise TrainingError("config must set total_steps or epochs")


def _check_compat(checkpoint: Checkpoint, tokenizer: Tokenizer) -> None:
    if checkpoint.tokenizer_hash != tokenizer.fingerprint():
        raise TrainingError(
            "tokenizer fingerprint mismatch: checkpoint was trained with a different tokenizer"
        )
    if checkpoint.config.vocab_size != tokenizer.vocab_size:
        raise TrainingError(
            f"checkpoint vocab_size {checkpoint.config.vocab_size} != tokenizer size {tokenizer.vocab_size}"
        )


# -- pretraining -------------------------------------------------------------------


@dataclass
class PretrainResult:
    checkpoint: Checkpoint
    history: list[LossRecord]
    checkpoint_path: Path | None = None


def pretrain_mlm(
    config: TrainingConfig,
    segments: Sequence[np.ndarray],
    init: ModelConfig | Checkpoint | str | Path,
    tokenizer: Tokenizer,
    val_segments: Sequence[np.ndarray] | None = None,
    policy: MaskingPolicy | None = None,
    out_dir=None,
) -> PretrainResult:
    """Masked-token pretraining, either from scratch or continued from a checkpoint.

    Continuing from a checkpoint keeps the weights but resets the step counter
    and optimizer state, which is exactly the domain-adaptive continuation
    setting. The loss history gets one record per `log_every` steps (plus the
    final step); validation loss is evaluated with a fixed masking draw when
    `val_segments` is given.
    """
    config.validate()
    policy = policy or MaskingPolicy()
    policy.validate()
    if not segments:
        raise TrainingError("no training segments")

    if isinstance(init, (str, Path)):
        init = load_checkpoint(init)
    if isinstance(init, Checkpoint):
        _check_compat(init, tokenizer)
        model_config = init.config
        params = {
            name: Tensor(p.data.copy(), requires_grad=True)
            for name, p in init.params.items()
            if not name.startswith("cls.")
        }
    else:
        model_config = init
        model_config.validate()
        params = init_parameters(model_config, config.seed, include_classifier=False)
    if model_config.vocab_size != tokenizer.vocab_size:
        raise TrainingError(
            f"model vocab_size {model_config.vocab_size} != tokenizer size {tokenizer.vocab_size}"
        )

    total_steps = _resolve_total_steps(config, len(segments))
    optimizer = AdamW.from_config(params, config)
    batches = _batch_index_stream(len(segments), config.batch_size, config.seed)
    history: list[LossRecord] = []

    def validation_loss() -> float | None:
        if val_segments is None:
            return None
        return evaluate_mlm(params, model_config, val_segments, tokenizer, policy=policy, seed=config.seed)

    for step in range(total_steps):
        batch_idx = next(batches)
        mask_rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_MASK, step)))
        masked = [apply_dynamic_masking(segments[i], policy, mask_rng, tokenizer) for i in batch_idx]
        ids, pad_mask, rows, cols, targets = assemble_mlm_batch(masked, tokenizer.pad_id)

        if targets.size == 0:
            train_loss = 0.0
        else:
            dropout_rng = (
                np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_DROPOUT, step)))
                if model_config.dropout_rate > 0
                else None
            )
            hidden = encoder_forward(params, model_config, ids, pad_mask=pad_mask, dropout_rng=dropout_rng)
            logits = mlm_logits_from_hidden(hidden[rows, cols], params, model_config)
            loss = cross_entropy(logits, targets)
            train_loss = float(loss.data)
            if not np.isfinite(train_loss):
                raise TrainingDivergedError(f"non-finite MLM loss at step {step + 1}")
            grads = model_backward(loss, params)
            optimizer.step(grads, learning_rate_at(step, total_steps, config.learning_rate, config.warmup_fraction))

        if (step + 1) % config.log_every == 0 or step + 1 == total_steps:
            history.append(LossRecord(step + 1, train_loss, validation_loss()))

    checkpoint = Checkpoint(
        config=model_config,
        params=params,
        tokenizer_hash=tokenizer.fingerprint(),
        extra={"objective": "mlm", "steps": total_steps},
    )
    checkpoint_path = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        _write_run_dir(out_dir, config, history)
        checkpoint_path = save_checkpoint(checkpoint, out_dir / "checkpoints" / "final.npz")
    return PretrainResult(checkpoint=checkpoint, history=history, checkpoint_path=checkpoint_path)


# -- fine-tuning -------------------------------------------------------------------


@dataclass
class FinetuneResult:
    best: CheckpointMeta
    checkpoints: list[CheckpointMeta]
    history: list[LossRecord]
    metrics: MetricsReport
    params: dict[str, Tensor]
    model_config: ModelConfig
    class_labels: list
    best_checkpoint: Checkpoint | None = None


def checkpoint_steps(total_steps: int, eval_checkpoints: int) -> list[int]:
    """Evenly spaced evaluation steps, ending exactly at the final step."""
    if total_steps < eval_checkpoints:
        raise TrainingError(
            f"total_steps ({total_steps}) must be at least eval_checkpoints ({eval_checkpoints})"
        )
    return [round(total_steps * i / eval_checkpoints) for i in range(1, eval_checkpoints + 1)]


def select_best_checkpoint(checkpoints: Sequence[CheckpointMeta]) -> CheckpointMeta:
    """The checkpoint minimizing validation loss; earliest step wins ties."""
    if not checkpoints:
        raise TrainingError("no checkpoints recorded")
    return min(checkpoints, key=lambda meta: (meta.validation_loss, meta.step))


def finetune_classifier(
    config: TrainingConfig,
    init: Checkpoint | str | Path,
    task: str,
    train_docs: Sequence[Document],
    validation_docs: Sequence[Document],
    tokenizer: Tokenizer,
    out_dir=None,
) -> FinetuneResult:
    """Fine-tune a classifier head (and the whole encoder) on labeled documents.

    The encoder is warm-started from `init`; the head is freshly initialized.
    Validation loss is computed at `eval_checkpoints` evenly spaced steps and
    the returned best checkpoint is the argmin (earliest on ties).
    """
    config.validate()
    if task not in ("binary", "multiclass"):
        raise TrainingError(f"task must be binary or multiclass, got {task!r}")
    if not train_docs:
        raise TrainingError("no fine-tuning documents")
    if not validation_docs:
        raise TrainingError("validation split is empty; checkpoint selection needs it")

    if isinstance(init, (str, Path)):
        init = load_checkpoint(init)
    _check_compat(init, tokenizer)

    train_labels = [document_label(d, task) for d in train_docs]
    val_labels = [document_label(d, task) for d in validation_docs]
    if task == "binary":
        class_labels: list = [False, True]
    else:
        class_labels = sorted(set(train_labels) | set(val_labels))
    missing = sorted(set(val_labels) - set(train_labels), key=str)
    if missing:
        warnings.warn(
            f"classes {missing} appear in validation but not in training; "
            "metrics will report zero support for them"
        )

    model_config, params = with_fresh_classifier(init, len(class_labels), config.seed)
    index = {label: i for i, label in enumerate(class_labels)}
    train_idx = np.array([index[lab] for lab in train_labels], dtype=np.int64)
    val_idx = np.array([index[lab] for lab in val_labels], dtype=np.int64)

    train_seqs = [encode_for_classification(d, tokenizer, model_config.max_positions) for d in train_docs]
    val_seqs = [encode_for_classification(d, tokenizer, model_config.max_positions) for d in validation_docs]

    total_steps = _resolve_total_steps(config, len(train_seqs))
    eval_steps = set(checkpoint_steps(total_steps, config.eval_checkpoints))
    optimizer = AdamW.from_config(params, config)
    batches = _batch_index_stream(len(train_seqs), config.batch_size, config.seed)

    serializable_labels = [bool(c) if task == "binary" else int(c) for c in class_labels]
    checkpoints: list[CheckpointMeta] = []
    history: list[LossRecord] = []
    best_meta: CheckpointMeta | None = None
    best_params: dict[str, Tensor] | None = None
    out_dir = Path(out_dir) if out_dir is not None else None

    def validation_loss() -> float:
        logits = batched_cls_logits(params, model_config, val_seqs, tokenizer.pad_id, config.batch_size)
        return mlm_cross_entropy(logits, val_idx)

    for step in range(total_steps):
        batch_idx = next(batches)
        ids, pad_mask = pad_batch([train_seqs[i] for i in batch_idx], tokenizer.pad_id)
        dropout_rng = (
            np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_DROPOUT, step)))
            if model_config.dropout_rate > 0
            else None
        )
        hidden = encoder_forward(params, model_config, ids, pad_mask=pad_mask, dropout_rng=dropout_rng)
        logits = cls_logits_from_hidden(hidden[:, 0], params, model_config)
        loss = cross_entropy(logits, train_idx[batch_idx])
        train_loss = float(loss.data)
        if not np.isfinite(train_loss):
            raise TrainingDivergedError(f"non-finite classification loss at step {step + 1}")
        grads = model_backward(loss, params)
        optimizer.step(grads, learning_rate_at(step, total_steps, config.learning_rate, config.warmup_fraction))

        step_1 = step + 1
        if step_1 in eval_steps:
            val_loss = validation_loss()
            path = None
            if out_dir is not None:
                ckpt = Checkpoint(
                    config=model_config,
                    params=params,
                    tokenizer_hash=tokenizer.fingerprint(),
                    extra={"objective": task, "class_labels": serializable_labels, "step": step_1},
                )
                path = save_checkpoint(ckpt, out_dir / "checkpoints" / f"step_{step_1:06d}.npz")
            meta = CheckpointMeta(step=step_1, validation_loss=val_loss, path=path)
            checkpoints.append(meta)
            if best_meta is None or val_loss < best_meta.validation_loss:
                best_meta = meta
                best_params = {n: Tensor(p.data.copy(), requires_grad=True) for n, p in params.items()}
            history.append(LossRecord(step_1, train_loss, val_loss))
        elif step_1 % config.log_every == 0 or step_1 == total_steps:
            history.append(LossRecord(step_1, train_loss, None))

    assert best_meta is not None and best_params is not None
    assert best_meta is select_best_checkpoint(checkpoints)
    best_meta.is_best = True

    best_checkpoint = Checkpoint(
        config=model_config,
        params=best_params,
        tokenizer_hash=tokenizer.fingerprint(),
        extra={"objective": task, "class_labels": serializable_labels, "step": best_meta.step},
    )
    metrics = evaluate_classifier(
        best_params, model_config, validation_docs, class_labels, task, tokenizer, config.batch_size
    )
    if out_dir is not None:
        _write_run_dir(out_dir, config, history)
        save_checkpoint(best_checkpoint, out_dir / "checkpoints" / "best.npz")
        _write_checkpoint_index(out_dir / "checkpoints.csv", checkpoints)
        (out_dir / "metrics.json").write_text(metrics.to_json(), encoding="utf-8")

    return FinetuneResult(
        best=best_meta,
        checkpoints=checkpoints,
        history=history,
        metrics=metrics,
        params=best_params,
        model_config=model_config,
        class_labels=list(class_labels),
        best_checkpoint=best_checkpoint,
    )


# -- hyperparameter grid -------------------------------------------------------------


@dataclass
class GridCell:
    learning_rate: float
    batch_size: int
    accuracy: float
    f1: float
    loss: float
    status: str


def hyperparameter_grid(
    task: str,
    base_config: TrainingConfig,
    learning_rates: Sequence[float],
    batch_sizes: Sequence[int],
    init: Checkpoint | str | Path,
    train_docs: Sequence[Document],
    validation_docs: Sequence[Document],
    tokenizer: Tokenizer,
    out_dir=None,
) -> list[GridCell]:
    """Fine-tune once per (learning rate, batch size) cell; never aborts the grid.

    Each cell reuses base_config's seed, so rerunning a cell's settings
    standalone reproduces its row exactly.
    """
    if not learning_rates or not batch_sizes:
        raise TrainingError("grid must have at least one learning rate and one batch size")
    cells: list[GridCell] = []
    for lr in learning_rates:
        for bs in batch_sizes:
            config = replace(base_config, learning_rate=lr, batch_size=bs)
            try:
                run = finetune_classifier(
                    config, init, task, train_docs, validation_docs, tokenizer
                )
                cells.append(
                    GridCell(lr, bs, run.metrics.accuracy, run.metrics.f1, run.best.validation_loss, "ok")
                )
            except TrainingDivergedError:
                cells.append(GridCell(lr, bs, float("nan"), float("nan"), float("nan"), "failed"))
    if out_dir is not None:
        write_grid_csv(cells, Path(out_dir) / "grid_results.csv")
    return cells


def write_grid_csv(cells: Sequence[GridCell], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["learning_rate", "batch_size", "accuracy", "f1", "loss", "status"])
        for cell in cells:
            writer.writerow(
                [cell.learning_rate, cell.batch_size, f"{cell.accuracy:.10f}", f"{cell.f1:.10f}", f"{cell.loss:.10f}", cell.status]
            )
    return path


# -- scaling study ---------------------------------------------------------------


@dataclass
class ScalingStudyResult:
    init_name: str
    fractions: list[float]
    train_sizes: list[int]
    holdout_log_losses: list[float]
    checkpoint_refs: list

    def rows(self):
        return list(zip(self.fractions, self.train_sizes, self.holdout_log_losses, self.checkpoint_refs))


def scaling_study(
    fractions: Sequence[float],
    base_config: TrainingConfig,
    inits: dict[str, Checkpoint],
    train_pool: Sequence[Document],
    validation: Sequence[Document],
    holdout: Sequence[Document],
    tokenizer: Tokenizer,
    subset_seed: int = 0,
    out_dir=None,
) -> list[ScalingStudyResult]:
    """Fine-tune each init on nested subsets and track hold-out log-loss.

    Every (init, fraction) cell runs the same fine-tuning protocol on its
    subset; the tracked quantity is mean cross-entropy on the hold-out split
    under the best checkpoint of that run.
    """
    if not inits:
        raise EvaluationError("need at least one model init")
    subsets = nested_subsets(train_pool, fractions, subset_seed)

    results = []
    for name, init in inits.items():
        sizes, losses, refs = [], [], []
        for fraction, subset in zip(fractions, subsets):
            if len(subset) == 0:
                raise EvaluationError(f"fraction {fraction} selects zero documents")
            config = base_config
            if config.batch_size > len(subset):
                warnings.warn(
                    f"subset of {len(subset)} documents smaller than batch size "
                    f"{config.batch_size}; reducing batch size"
                )
                config = replace(config, batch_size=len(subset))
            if config.total_steps is None and config.epochs is not None:
                steps = _resolve_total_steps(config, len(subset))
                if steps < config.eval_checkpoints:
                    warnings.warn(
                        f"subset of {len(subset)} documents yields only {steps} steps; "
                        f"reducing eval_checkpoints from {config.eval_checkpoints}"
                    )
                    config = replace(config, eval_checkpoints=steps)
            run = finetune_classifier(
                config,
                init,
                "binary",
                train_docs=subset,
                validation_docs=validation,
                tokenizer=tokenizer,
            )
            holdout_report = evaluate_classifier(
                run.params, run.model_config, holdout, run.class_labels, "binary", tokenizer
            )
            sizes.append(len(subset))
            losses.append(holdout_report.loss)
            refs.append(run.best)
        results.append(
            ScalingStudyResult(
                init_name=name,
                fractions=list(fractions),
                train_sizes=sizes,
                holdout_log_losses=losses,
                checkpoint_refs=refs,
            )
        )
    if out_dir is not None:
        write_scaling_csv(results, Path(out_dir) / "scaling_study.csv")
    return results


def write_scaling_csv(results: Sequence[ScalingStudyResult], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["init_name", "fraction", "train_size", "log_loss"])
        for result in results:
            for fraction, size, loss, _ in result.rows():
                writer.writerow([result.init_name, fraction, size, f"{loss:.10f}"])
    return path


# -- run directory ---------------------------------------------------------------


def _write_run_dir(out_dir: Path, config: TrainingConfig, history: Sequence[LossRecord]) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    write_flat_config(config, out_dir / "config.txt")
    write_loss_history(history, out_dir / "loss_history.csv")


def write_loss_history(history: Sequence[LossRecord], path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "train_loss", "validation_loss"])
        for record in history:
            writer.writerow(
                [
                    record.step,
                    f"{record.train_loss:.10f}",
                    "" if record.validation_loss is None else f"{record.validation_loss:.10f}",
                ]
            )
    return path


def _write_checkpoint_index(path: Path, checkpoints: Sequence[CheckpointMeta]) -> None:
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["step", "validation_loss", "path", "is_best"])
        for meta in checkpoints:
            writer.writerow(
                [meta.step, f"{meta.validation_loss:.10f}", "" if meta.path is None else str(meta.path), int(meta.is_best)]
            )
