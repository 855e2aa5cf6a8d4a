"""Quantitative evaluation: masked-token cross-entropy, classification metrics,
and checkpoint evaluation.

Classification metrics are computed in exact rational arithmetic from integer
confusion counts and converted to float at the end, so algebraic identities
(weighted recall == accuracy) hold exactly, not merely to rounding error.
"""

from __future__ import annotations

import functools
import json
import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

import numpy as np

from .autodiff import Tensor, log_softmax, one_blas_thread, run_tasks
from .corpus import Document
from .data import (
    apply_dynamic_masking,
    assemble_mlm_batch,
    cls_positions,
    encode_for_classification,
    pack_segments,
    pad_batch,
)
from .model import (
    Checkpoint,
    ModelConfig,
    cls_logits_from_hidden,
    encoder_forward,
    mlm_logits_from_hidden,
)
from .tokenizer import Tokenizer

__all__ = [
    "MetricsReport",
    "EvaluationError",
    "mlm_cross_entropy",
    "classification_metrics",
    "cls_vectors",
    "evaluate_checkpoint",
    "evaluate_mlm",
]


class EvaluationError(ValueError):
    pass


# -- classification metrics -------------------------------------------------------


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    mode: str
    per_class: dict = field(default_factory=dict)
    loss: float | None = None
    flags: list[str] = field(default_factory=list)

    def validate(self) -> None:
        for name in ("accuracy", "precision", "recall", "f1"):
            value = getattr(self, name)
            if not (0.0 <= value <= 1.0):
                raise EvaluationError(f"{name} = {value} outside [0, 1]")

    def to_dict(self) -> dict:
        if self.mode == "mlm":
            return {"mode": "mlm", "loss": self.loss}
        return {
            "mode": self.mode,
            "accuracy": self.accuracy,
            "precision": self.precision,
            "recall": self.recall,
            "f1": self.f1,
            "loss": self.loss,
            "per_class": {
                str(label): {
                    "precision": m.precision,
                    "recall": m.recall,
                    "f1": m.f1,
                    "support": m.support,
                }
                for label, m in self.per_class.items()
            },
            "flags": list(self.flags),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def format_table(self) -> str:
        if self.mode == "mlm":
            return f"{'metric':<12} value\n{'mlm loss':<12} {self.loss:.4f}"
        lines = [
            f"{'metric':<12} value",
            f"{'accuracy':<12} {self.accuracy:.4f}",
            f"{'precision':<12} {self.precision:.4f}",
            f"{'recall':<12} {self.recall:.4f}",
            f"{'f1':<12} {self.f1:.4f}",
        ]
        if self.loss is not None:
            lines.append(f"{'loss':<12} {self.loss:.4f}")
        lines.append("")
        lines.append(f"{'class':<24} {'prec':>8} {'recall':>8} {'f1':>8} {'support':>8}")
        for label, m in self.per_class.items():
            lines.append(
                f"{str(label):<24} {m.precision:>8.4f} {m.recall:>8.4f} {m.f1:>8.4f} {m.support:>8d}"
            )
        for flag in self.flags:
            lines.append(f"note: {flag}")
        return "\n".join(lines)


def _safe_ratio(num: int, den: int, flags: list[str], what: str) -> Fraction:
    if den == 0:
        flags.append(f"{what} undefined (zero denominator), reported as 0")
        return Fraction(0)
    return Fraction(num, den)


def classification_metrics(
    predictions: Sequence,
    labels: Sequence,
    mode: str = "weighted",
    class_labels: Sequence | None = None,
    loss: float | None = None,
) -> MetricsReport:
    """Accuracy plus precision/recall/F1, aggregated per `mode`.

    weighted: per-class metrics averaged with weights = class support / total
    (zero-support classes drop out of the weighting). binary: precision,
    recall, and F1 of the `True` class only. Zero-denominator metrics are
    reported as 0 and flagged.
    """
    if mode not in ("weighted", "binary"):
        raise EvaluationError(f"unknown metrics mode {mode!r}")
    if len(predictions) != len(labels):
        raise EvaluationError(f"got {len(predictions)} predictions for {len(labels)} labels")
    n = len(labels)
    if n == 0:
        raise EvaluationError("cannot compute metrics over zero examples")
    if class_labels is None:
        class_labels = sorted(set(labels) | set(predictions))
    class_labels = list(class_labels)
    index = {label: i for i, label in enumerate(class_labels)}
    if len(index) < len(class_labels):
        repeated = next(label for i, label in enumerate(class_labels) if index[label] != i)
        raise EvaluationError(f"class_labels repeat label {repeated!r}: {class_labels}")
    unknown = [x for x in list(labels) + list(predictions) if x not in index]
    if unknown:
        raise EvaluationError(f"label {unknown[0]!r} not in class set {class_labels}")
    # Rows are true classes, columns are predicted classes.
    counts = np.zeros((len(class_labels), len(class_labels)), dtype=np.int64)
    for pred, true in zip(predictions, labels):
        counts[index[true], index[pred]] += 1

    flags: list[str] = []
    per_class: dict = {}
    fractions: dict = {}
    for i, label in enumerate(class_labels):
        tp = int(counts[i, i])
        predicted = int(counts[:, i].sum())
        support = int(counts[i, :].sum())
        precision = _safe_ratio(tp, predicted, flags, f"precision[{label}]")
        recall = _safe_ratio(tp, support, flags, f"recall[{label}]")
        if precision + recall == 0:
            f1 = Fraction(0)
        else:
            f1 = 2 * precision * recall / (precision + recall)
        fractions[label] = (precision, recall, f1, support)
        per_class[label] = ClassMetrics(float(precision), float(recall), float(f1), support)

    accuracy = Fraction(int(np.trace(counts)), n)

    if mode == "weighted":
        # Exact rationals: a zero-support class adds exactly 0.
        precision_agg, recall_agg, f1_agg = (
            sum(Fraction(fractions[label][3], n) * fractions[label][k] for label in class_labels)
            for k in range(3)
        )
    else:
        if True not in fractions:
            raise EvaluationError("positive label True not in class set")
        precision_agg, recall_agg, f1_agg, _ = fractions[True]

    report = MetricsReport(
        accuracy=float(accuracy),
        precision=float(precision_agg),
        recall=float(recall_agg),
        f1=float(f1_agg),
        mode=mode,
        per_class=per_class,
        loss=loss,
        flags=flags,
    )
    report.validate()
    return report


# -- masked-token cross-entropy -----------------------------------------------------


def mlm_cross_entropy(logits: np.ndarray, target_ids: Sequence[int]) -> float:
    """Mean categorical cross-entropy of true ids (tokens or classes) under softmax(logits)."""
    target_ids = np.asarray(target_ids, dtype=np.int64)
    logits = np.asarray(logits, dtype=np.float64)
    if target_ids.size == 0:
        raise EvaluationError("no targets")
    if logits.shape[0] != target_ids.shape[0]:
        raise EvaluationError(
            f"{logits.shape[0]} logit rows for {target_ids.shape[0]} targets"
        )
    log_probs = log_softmax(logits)
    return float(np.mean(-log_probs[np.arange(target_ids.shape[0]), target_ids]))


# -- batched classifier evaluation ----------------------------------------------------


def cls_vectors(
    params,
    config: ModelConfig,
    sequences: Sequence[np.ndarray],
    pad_id: int,
    batch_size: int = 32,
) -> np.ndarray:
    """Final-layer position-0 vectors (N, H), one padded batch at a time.

    Every batch is padded to the longest sequence in the call, so within one
    call batch composition cannot change the numbers, given a BLAS that sums
    each row the same way whatever the row count (the README names the one
    known exception). Across calls a vector can move in the last bits, since
    that longest sequence sets its padded length. The last encoder layer
    runs at position 0 only. The batches are spread over two threads by
    `run_tasks`, which leaves each batch as it is, so the thread count cannot
    change the numbers either; in a fine-tuning validation pass, which runs as
    a background job, they run in turn on the job's thread.
    """
    if batch_size < 1:
        raise EvaluationError(f"batch_size must be at least 1, got {batch_size}")
    if len(sequences) == 0:
        raise EvaluationError("no sequences to encode")
    pad_to = max(len(s) for s in sequences)

    def batch(start: int) -> np.ndarray:
        ids, mask = pad_batch(sequences[start : start + batch_size], pad_id, pad_to)
        return encoder_forward(params, config, ids, pad_mask=mask, positions=cls_positions(len(ids))).data[:, 0]

    with one_blas_thread():
        rows = run_tasks([functools.partial(batch, start) for start in range(0, len(sequences), batch_size)])
    return np.concatenate(rows, axis=0)


def batched_cls_logits(
    params,
    config: ModelConfig,
    sequences: Sequence[np.ndarray],
    pad_id: int,
    batch_size: int = 32,
) -> np.ndarray:
    """Class logits for each sequence; padding cannot affect the results."""
    vectors = cls_vectors(params, config, sequences, pad_id, batch_size)
    with one_blas_thread():
        return cls_logits_from_hidden(Tensor(vectors), params, config).data


def document_label(doc: Document, task: str):
    if task == "binary":
        if doc.nfc_label is None:
            raise EvaluationError(f"document {doc.id!r} has no label")
        return bool(doc.nfc_label)
    if task == "multiclass":
        if doc.primary_category is None:
            raise EvaluationError(f"document {doc.id!r} has no category")
        return int(doc.primary_category)
    raise EvaluationError(f"unknown task {task!r}")


def evaluate_classifier(
    checkpoint: Checkpoint,
    documents: Sequence[Document],
    task: str,
    tokenizer: Tokenizer,
    batch_size: int = 32,
) -> MetricsReport:
    """Metrics of a fine-tuned classifier on labeled documents; the one reader of
    the `objective` and `class_labels` (one per head output) that fine-tuning
    writes into `checkpoint.extra`."""
    class_labels = checkpoint.extra.get("class_labels")
    if class_labels is None:
        raise EvaluationError("checkpoint has no classifier head metadata; fine-tune first")
    objective = checkpoint.extra.get("objective")
    if objective != task:
        raise EvaluationError(f"checkpoint was fine-tuned for {objective!r}, not for the {task!r} task")
    config = checkpoint.config
    if not (isinstance(class_labels, list) and len(class_labels) == config.num_classes
            and all(isinstance(c, int) for c in class_labels)):
        raise EvaluationError(
            f"checkpoint class_labels must be {config.num_classes} integer or boolean labels, got {class_labels!r}"
        )
    class_labels = [bool(c) if task == "binary" else int(c) for c in class_labels]
    if not documents:
        raise EvaluationError("no documents to evaluate")
    sequences = [encode_for_classification(d, tokenizer, config.max_positions) for d in documents]
    logits = batched_cls_logits(checkpoint.params, config, sequences, tokenizer.pad_id, batch_size)
    index = {label: i for i, label in enumerate(class_labels)}
    predictions = [class_labels[i] for i in logits.argmax(axis=-1)]
    labels = [document_label(d, task) for d in documents]

    in_set = np.array([lab in index for lab in labels])
    if not in_set.all():
        missing = sorted({lab for lab, ok in zip(labels, in_set) if not ok})
        warnings.warn(
            f"{int((~in_set).sum())} documents have labels outside the model's class set "
            f"{missing}; they count toward metrics but not loss"
        )
    if in_set.any():
        label_idx = np.array([index[lab] for lab, ok in zip(labels, in_set) if ok])
        loss = mlm_cross_entropy(logits[in_set], label_idx)
    else:
        loss = None

    mode = "binary" if task == "binary" else "weighted"
    all_classes = sorted(set(class_labels) | set(labels))
    return classification_metrics(
        predictions, labels, mode=mode, class_labels=all_classes, loss=loss
    )


def evaluate_mlm(
    params,
    config: ModelConfig,
    segments: Sequence[np.ndarray],
    tokenizer: Tokenizer,
    seed: int = 0,
    batch_size: int = 16,
) -> float:
    """Masked cross-entropy over segments with a fixed masking draw.

    The mask positions are a deterministic function of `seed`, so two
    evaluations of different checkpoints on the same data are paired. Batches
    of at most half the segments (so even one batch runs on two threads),
    padded to the call's longest segment and most targets, and one sum over
    the per-target losses: `batch_size` does not change the loss, save in
    the small-matrix case the README names.
    """
    if batch_size < 1:
        raise EvaluationError(f"batch_size must be at least 1, got {batch_size}")
    if len(segments) == 0:
        raise EvaluationError("no segments to evaluate")
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE7A1)))
    masked = [apply_dynamic_masking(seg, rng, tokenizer) for seg in segments]
    length = max(len(m.input_ids) for m in masked)
    slots = max(len(m.target_ids) for m in masked)
    size = min(batch_size, -(-len(masked) // 2))

    def batch(start: int) -> np.ndarray:
        chunk = masked[start : start + size]
        ids, pad_mask, positions, targets = assemble_mlm_batch(chunk, tokenizer.pad_id, length, slots)
        hidden = encoder_forward(params, config, ids, pad_mask=pad_mask, positions=positions)
        real = targets >= 0
        log_probs = log_softmax(mlm_logits_from_hidden(hidden[real], params, config).data)
        return -log_probs[np.arange(len(log_probs)), targets[real]]

    with one_blas_thread():
        losses = np.concatenate(run_tasks([functools.partial(batch, start) for start in range(0, len(masked), size)]))
    return float(np.sum(losses)) / losses.size


def evaluate_checkpoint(
    checkpoint: Checkpoint,
    documents: Sequence[Document],
    task: str,
    tokenizer: Tokenizer,
    batch_size: int = 32,
) -> MetricsReport:
    """Evaluate a checkpoint on a document split; deterministic, and batch-invariant within one call."""
    checkpoint.check_tokenizer(tokenizer)
    if task == "mlm":
        token_stream = (tokenizer.encode(d.text) for d in documents)
        segments = pack_segments(token_stream, tokenizer.sep_id, checkpoint.config.max_positions)
        loss = evaluate_mlm(checkpoint.params, checkpoint.config, segments, tokenizer, batch_size=batch_size)
        return MetricsReport(
            accuracy=0.0, precision=0.0, recall=0.0, f1=0.0, mode="mlm", loss=loss
        )
    return evaluate_classifier(checkpoint, documents, task, tokenizer, batch_size)
