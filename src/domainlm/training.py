"""Training loops: masked-token pretraining (fresh or continued from a
checkpoint), classifier fine-tuning with best-checkpoint selection, the
learning-rate/batch-size grid search, and the training-set-size scaling study.

Every random draw comes from a generator seeded by (config.seed, stream, step),
and for dropout also by batch row, and each run holds numpy's BLAS at one
thread (`autodiff.one_blas_thread`), so runs are bitwise reproducible from
(config, data, init) on any CPU count.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import Tensor, one_blas_thread, run_tasks, submit
from .configio import atomic_write_text, write_csv, write_flat_config
from .corpus import Document, nested_subsets
from .data import (
    _STREAM_MASK,
    TrainingError,
    apply_dynamic_masking,
    assemble_mlm_batch,
    cls_positions,
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
    draw_dropout_masks,
    encoder_forward,
    init_parameters,
    mlm_logits_from_hidden,
    save_checkpoint,
    with_fresh_classifier,
)
from .tokenizer import Tokenizer

# TrainingError and the masking and packing functions live in `data`. They are
# re-exported here, the path the CLI, the demos and the benchmark use; its
# tracer patches `training.pack_segments` and the masking functions by name.
__all__ = [
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
    "ScalingStudyResult",
    "scaling_study",
    "write_scaling_csv",
]

# Seed-stream salts so independent random streams never collide.
_STREAM_ORDER = 0xB0
_STREAM_DROPOUT = 0xD7

# A step whose padded batch holds at least this many token rows (batch x
# length), over at least two sequences, runs as two half-batches, each on its
# own thread. Per-step medians on 2 cores at 4 layers, hidden 128, ff 512,
# BLAS on one thread, whole batch against two halves, in a quiet stretch:
# float32 16 x 20, 34-35 against 27-28 ms; 16 x 32, float32 53-54 against
# 36 ms and float64 96-98 against 60 ms; 16 x 64, float32 106-107 against
# 63 ms and float64 199-202 against 109-110 ms; 16 x 128, float32 239-243
# against 133-134 ms and float64 438-450 against 246-272 ms. Under
# contention the halves lost or drew below 1024 rows in float32. A lower
# threshold would change the bits of short-document fine-tuning (README).
_SPLIT_ROWS = 1024


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
        out = [
            f"{name} must be finite, got {getattr(self, name)}"
            for name in ("learning_rate", "weight_decay", "adam_eps")
            if not math.isfinite(getattr(self, name))
        ]
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
    """Adam with decoupled weight decay; updates parameters in name order.

    The update works in place, through two scratch buffers per dtype sized to
    the largest tensor, in the same operations and order as the formula
    m_hat / (sqrt(v_hat) + eps), so the parameters come out the same bit for bit.
    """

    def __init__(
        self,
        params: dict[str, Tensor],
        config: TrainingConfig,
    ):
        self.params = params
        self.beta1, self.beta2, self.eps = config.adam_beta1, config.adam_beta2, config.adam_eps
        self.weight_decay = config.weight_decay
        self._names = sorted(params)
        self.m = {n: np.zeros_like(params[n].data) for n in self._names}
        self.v = {n: np.zeros_like(params[n].data) for n in self._names}
        self.t = 0
        size = max((p.data.size for p in params.values()), default=0)
        self._scratch = {
            dtype: (np.empty(size, dtype), np.empty(size, dtype)) for dtype in {p.data.dtype for p in params.values()}
        }

    def step(self, grads: dict[str, np.ndarray], lr: float) -> None:
        """One update at learning rate `lr`, the schedule's value for this step."""
        self.t += 1
        bc1 = 1.0 - self.beta1 ** self.t
        bc2 = 1.0 - self.beta2 ** self.t
        for name in self._names:
            g = grads[name]
            m = self.m[name]
            v = self.v[name]
            p = self.params[name].data
            a, b = (buf[: p.size].reshape(p.shape) for buf in self._scratch[p.dtype])
            m *= self.beta1
            m += np.multiply(g, 1.0 - self.beta1, out=a)
            v *= self.beta2
            np.multiply(g, 1.0 - self.beta2, out=a)
            v += np.multiply(a, g, out=a)
            np.sqrt(np.divide(v, bc2, out=a), out=a)
            a += self.eps
            np.divide(m, bc1, out=b)
            b /= a  # the update
            np.multiply(p, self.weight_decay, out=a)
            a += b
            a *= lr
            p -= a


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


def _check_gradients(grads: dict[str, np.ndarray], step: int) -> None:
    """Raise if the gradient norm is not finite, naming the first parameter at fault.

    One dot product per tensor keeps the check to one read of the
    gradients; the per-parameter scan runs only once the norm is already bad.
    """
    if math.isfinite(math.fsum(np.vdot(g, g) for g in grads.values())):
        return
    bad = [name for name in sorted(grads) if not np.isfinite(grads[name]).all()]
    if bad:
        raise TrainingDivergedError(f"non-finite gradient of parameter {bad[0]!r} at step {step}")
    raise TrainingDivergedError(f"gradient norm overflows at step {step}")


def _split(batch: int, length: int) -> list[slice]:
    """The row ranges a training step computes apart: two halves from `_SPLIT_ROWS` token rows on."""
    if batch < 2 or batch * length < _SPLIT_ROWS:
        return [slice(0, batch)]
    return [slice(0, batch // 2), slice(batch // 2, batch)]


def _train_step(
    optimizer: AdamW,
    config: TrainingConfig,
    model_config: ModelConfig,
    step: int,
    total_steps: int,
    objective: str,
    batch: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
) -> float:
    """Forward, backward, gradient check and one AdamW step over a padded batch; returns the loss.

    `batch` is (ids, pad_mask, positions, targets), the (B, Q) targets padded
    with -1. Each part of `_split` draws the dropout masks of its own batch
    rows, runs the encoder on its own leaf tensors over the shared parameter
    arrays and takes the mean cross-entropy of the `objective` head ("MLM" or
    "classification") over its real targets. Two halves weight their losses
    by their share of the targets and add their gradients, the second into
    the first, so the step follows the mean loss of the batch.
    """
    ids, pad_mask, positions, targets = batch
    parts = _split(*ids.shape)
    dropout_key = (config.seed, _STREAM_DROPOUT, step)
    n_targets = int((targets >= 0).sum())

    def run(i: int) -> tuple[float, dict[str, np.ndarray]]:
        rows = parts[i]
        leaves = {name: Tensor(p.data, requires_grad=True) for name, p in optimizer.params.items()}
        hidden = encoder_forward(
            leaves, model_config, ids[rows], pad_mask=pad_mask[rows], positions=positions[rows],
            dropout_masks=draw_dropout_masks(model_config, ids.shape[1], dropout_key, range(len(ids))[rows]),
        )
        real = targets[rows] >= 0
        head = mlm_logits_from_hidden if objective == "MLM" else cls_logits_from_hidden
        loss = cross_entropy(head(hidden[real], leaves, model_config), targets[rows][real])
        if not np.isfinite(float(loss.data)):
            raise TrainingDivergedError(f"non-finite {objective} loss at step {step + 1}")
        if len(parts) > 1:
            loss = loss * (int(real.sum()) / n_targets)
        return float(loss.data), model_backward(loss, leaves)

    results = run_tasks([functools.partial(run, i) for i in range(len(parts))])
    grads = results[0][1]
    for _, more in results[1:]:
        for name, g in grads.items():
            g += more[name]
    _check_gradients(grads, step + 1)
    optimizer.step(grads, learning_rate_at(step, total_steps, config.learning_rate, config.warmup_fraction))
    return sum(loss for loss, _ in results)


# -- pretraining -------------------------------------------------------------------


@dataclass
class PretrainResult:
    checkpoint: Checkpoint
    history: list[LossRecord]
    checkpoint_path: Path | None = None


@one_blas_thread()
def pretrain_mlm(
    config: TrainingConfig,
    segments: Sequence[np.ndarray],
    init: ModelConfig | Checkpoint,
    tokenizer: Tokenizer,
    val_segments: Sequence[np.ndarray] | None = None,
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
    if not segments:
        raise TrainingError("no training segments")
    if val_segments is not None and not val_segments:
        raise TrainingError("no validation segments")

    if isinstance(init, Checkpoint):
        init.check_tokenizer(tokenizer)
        model_config = init.config
        params = init.encoder_params()
    else:
        model_config = init
        model_config.validate()
        if model_config.vocab_size != tokenizer.vocab_size:
            raise TrainingError(
                f"model vocab_size {model_config.vocab_size} != tokenizer size {tokenizer.vocab_size}"
            )
        params = init_parameters(model_config, config.seed, include_classifier=False)

    total_steps = _resolve_total_steps(config, len(segments))
    optimizer = AdamW(params, config)
    batches = _batch_index_stream(len(segments), config.batch_size, config.seed)
    history: list[LossRecord] = []

    def validation_loss() -> float | None:
        if val_segments is None:
            return None
        return evaluate_mlm(params, model_config, val_segments, tokenizer, seed=config.seed)

    for step in range(total_steps):
        batch_idx = next(batches)
        mask_rng = np.random.default_rng(np.random.SeedSequence((config.seed, _STREAM_MASK, step)))
        masked = [apply_dynamic_masking(segments[i], mask_rng, tokenizer) for i in batch_idx]
        batch = assemble_mlm_batch(masked, tokenizer.pad_id)
        train_loss = _train_step(optimizer, config, model_config, step, total_steps, "MLM", batch)

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
    best_checkpoint: Checkpoint


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


@one_blas_thread()
def finetune_classifier(
    config: TrainingConfig,
    init: Checkpoint,
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

    At an evaluation step the weights are copied, and a job submitted to the
    run's worker (`autodiff.submit`) writes the step's checkpoint from the
    copy and runs the validation pass on it, on the second core while the
    next steps train. Its loss, or its error, is collected in step order,
    before the next job starts and after the last step, so the results are
    those of jobs run in turn.
    """
    config.validate()
    if task not in ("binary", "multiclass"):
        raise TrainingError(f"task must be binary or multiclass, got {task!r}")
    if not train_docs:
        raise TrainingError("no fine-tuning documents")
    if not validation_docs:
        raise TrainingError("validation split is empty; checkpoint selection needs it")

    init.check_tokenizer(tokenizer)

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
            "the head has an output for each but no training example of it"
        )

    model_config, params = with_fresh_classifier(init, len(class_labels), config.seed)
    index = {label: i for i, label in enumerate(class_labels)}
    train_idx = np.array([index[lab] for lab in train_labels], dtype=np.int64)
    val_idx = np.array([index[lab] for lab in val_labels], dtype=np.int64)

    train_seqs = [encode_for_classification(d, tokenizer, model_config.max_positions) for d in train_docs]
    val_seqs = [encode_for_classification(d, tokenizer, model_config.max_positions) for d in validation_docs]

    total_steps = _resolve_total_steps(config, len(train_seqs))
    eval_steps = set(checkpoint_steps(total_steps, config.eval_checkpoints))
    optimizer = AdamW(params, config)
    batches = _batch_index_stream(len(train_seqs), config.batch_size, config.seed)

    checkpoints: list[CheckpointMeta] = []
    history: list[LossRecord] = []
    best_meta: CheckpointMeta | None = None
    best_params: dict[str, Tensor] | None = None
    # A collected weights copy that is not the best. The next evaluation step copies the weights into it, so at
    # most two copies live, the best and the one in flight; a step's Checkpoint object does not keep its weights.
    spare: dict[str, Tensor] | None = None
    out_dir = Path(out_dir) if out_dir is not None else None

    def checkpoint_at(step_1: int, weights: dict[str, Tensor]) -> Checkpoint:
        extra = {"objective": task, "class_labels": class_labels, "step": step_1}
        return Checkpoint(config=model_config, params=weights, tokenizer_hash=tokenizer.fingerprint(), extra=extra)

    def write_and_validate(step_1: int, path: Path | None, weights: dict[str, Tensor]) -> float:
        """Write the step's checkpoint, if a path is given, then return the validation loss of `weights`."""
        if path is not None:
            save_checkpoint(checkpoint_at(step_1, weights), path)
        logits = batched_cls_logits(weights, model_config, val_seqs, tokenizer.pad_id, config.batch_size)
        return mlm_cross_entropy(logits, val_idx)

    def collect_validation(record: LossRecord, path: Path | None, weights: dict[str, Tensor], collect) -> None:
        """Fill in an evaluation step's validation loss once its pass is done, and keep its weights if best."""
        nonlocal best_meta, best_params, spare
        record.validation_loss = collect()
        meta = CheckpointMeta(step=record.step, validation_loss=record.validation_loss, path=path)
        checkpoints.append(meta)
        if best_meta is None or meta.validation_loss < best_meta.validation_loss:
            best_meta, best_params, weights = meta, weights, best_params
        spare = weights

    pending = None  # collect_validation's arguments for the pass in flight; its weights copy is the best if it wins
    for step in range(total_steps):
        batch_idx = next(batches)
        ids, pad_mask = pad_batch([train_seqs[i] for i in batch_idx], tokenizer.pad_id)
        batch = (ids, pad_mask, cls_positions(len(ids)), train_idx[batch_idx][:, None])
        train_loss = _train_step(optimizer, config, model_config, step, total_steps, "classification", batch)

        step_1 = step + 1
        if step_1 in eval_steps:
            if pending is not None:
                collect_validation(*pending)
            record = LossRecord(step_1, train_loss)
            history.append(record)
            weights, spare = spare or {n: Tensor(np.empty_like(p.data)) for n, p in params.items()}, None
            for name, p in params.items():
                np.copyto(weights[name].data, p.data)
            path = None if out_dir is None else out_dir / "checkpoints" / f"step_{step_1:06d}.npz"
            pending = (record, path, weights, submit(functools.partial(write_and_validate, step_1, path, weights)))
        elif step_1 % config.log_every == 0 or step_1 == total_steps:
            history.append(LossRecord(step_1, train_loss, None))
    collect_validation(*pending)

    assert best_meta is not None and best_params is not None
    assert best_meta is select_best_checkpoint(checkpoints)
    best_meta.is_best = True

    best_checkpoint = checkpoint_at(best_meta.step, best_params)
    metrics = evaluate_classifier(best_checkpoint, validation_docs, task, tokenizer, config.batch_size)
    if out_dir is not None:
        _write_run_dir(out_dir, config, history)
        save_checkpoint(best_checkpoint, out_dir / "checkpoints" / "best.npz")
        # Paths relative to the run directory: the index reads the same from any --out and after a move.
        index = [replace(meta, path=meta.path.relative_to(out_dir)) for meta in checkpoints]
        _write_checkpoint_index(out_dir / "checkpoints.csv", index)
        atomic_write_text(out_dir / "metrics.json", metrics.to_json())

    return FinetuneResult(
        best=best_meta,
        checkpoints=checkpoints,
        history=history,
        metrics=metrics,
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
    init: Checkpoint,
    train_docs: Sequence[Document],
    validation_docs: Sequence[Document],
    tokenizer: Tokenizer,
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
    return cells


# -- scaling study ---------------------------------------------------------------


@dataclass
class ScalingStudyResult:
    init_name: str
    fractions: list[float]
    train_sizes: list[int]
    holdout_log_losses: list[float]

    def rows(self):
        return list(zip(self.fractions, self.train_sizes, self.holdout_log_losses))


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
        sizes, losses = [], []
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
            holdout_report = evaluate_classifier(run.best_checkpoint, holdout, "binary", tokenizer)
            sizes.append(len(subset))
            losses.append(holdout_report.loss)
        results.append(
            ScalingStudyResult(
                init_name=name,
                fractions=list(fractions),
                train_sizes=sizes,
                holdout_log_losses=losses,
            )
        )
    if out_dir is not None:
        write_scaling_csv(results, Path(out_dir) / "scaling_study.csv")
    return results


def write_scaling_csv(results: Sequence[ScalingStudyResult], path) -> Path:
    rows = (
        [result.init_name, fraction, size, f"{loss:.10f}"]
        for result in results
        for fraction, size, loss in result.rows()
    )
    return write_csv(path, ["init_name", "fraction", "train_size", "log_loss"], rows)


# -- run directory ---------------------------------------------------------------


def _write_run_dir(out_dir: Path, config: TrainingConfig, history: Sequence[LossRecord]) -> None:
    write_flat_config(config, out_dir / "config.txt")
    write_loss_history(history, out_dir / "loss_history.csv")


def write_loss_history(history: Sequence[LossRecord], path) -> Path:
    rows = (
        [
            record.step,
            f"{record.train_loss:.10f}",
            "" if record.validation_loss is None else f"{record.validation_loss:.10f}",
        ]
        for record in history
    )
    return write_csv(path, ["step", "train_loss", "validation_loss"], rows)


def _write_checkpoint_index(path: Path, checkpoints: Sequence[CheckpointMeta]) -> None:
    rows = (
        [meta.step, f"{meta.validation_loss:.10f}", "" if meta.path is None else str(meta.path), int(meta.is_best)]
        for meta in checkpoints
    )
    write_csv(path, ["step", "validation_loss", "path", "is_best"], rows)
