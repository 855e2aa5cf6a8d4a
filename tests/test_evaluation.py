import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import domainlm.autodiff as autodiff_module
import domainlm.evaluation as evaluation_module
from domainlm.autodiff import log_softmax, one_blas_thread
from domainlm.data import (
    apply_dynamic_masking,
    assemble_mlm_batch,
    cls_positions,
    encode_for_classification,
    pad_batch,
)
from domainlm.evaluation import (
    EvaluationError,
    batched_cls_logits,
    classification_metrics,
    cls_vectors,
    evaluate_checkpoint,
    evaluate_mlm,
    mlm_cross_entropy,
)
from domainlm.model import ModelConfig, encoder_forward, init_parameters, mlm_logits_from_hidden
from domainlm.corpus import nested_subsets
from domainlm.model import ModelError
from domainlm.training import (
    TrainingConfig,
    finetune_classifier,
    pack_segments,
    scaling_study,
    write_scaling_csv,
)

# Frozen expected values, computed independently at 30 digits.
LN_4096 = 8.317766166719343
LOSS_ONE_ZERO_ZERO = 0.5514447139320511  # -ln(e / (e + 2))


# -- mlm cross-entropy ------------------------------------------------------------


def test_uniform_logits_give_log_vocab():
    logits = np.zeros((5, 4096))
    assert mlm_cross_entropy(logits, [1, 2, 3, 4, 5]) == pytest.approx(LN_4096, abs=1e-12)


def test_near_certain_prediction_gives_near_zero_loss():
    # p(correct) = 1 - 1e-9 up to rounding; loss ~ 1e-9.
    big = np.log(2.0 * (1.0 - 1e-9) / 1e-9)
    logits = np.array([[big, 0.0, 0.0]])
    loss = mlm_cross_entropy(logits, [0])
    assert 0.0 < loss < 2e-9


def test_hand_computed_three_logit_case():
    logits = np.array([[1.0, 0.0, 0.0]])
    assert mlm_cross_entropy(logits, [0]) == pytest.approx(LOSS_ONE_ZERO_ZERO, abs=1e-12)


def test_no_targets_is_an_evaluation_error():
    with pytest.raises(EvaluationError, match="no targets"):
        mlm_cross_entropy(np.zeros((0, 7)), [])


def test_loss_finite_for_extreme_finite_logits():
    logits = np.array([[1e4, -1e4, 0.0], [708.0, -708.0, 0.0]])
    assert np.isfinite(mlm_cross_entropy(logits, [1, 1]))


def test_row_target_mismatch_rejected():
    with pytest.raises(EvaluationError, match="rows"):
        mlm_cross_entropy(np.zeros((2, 4)), [1, 2, 3])


# -- classification metrics -----------------------------------------------------------


def test_all_correct_predictions():
    report = classification_metrics([0, 1, 2, 1], [0, 1, 2, 1], mode="weighted")
    assert report.accuracy == report.precision == report.recall == report.f1 == 1.0


def test_hand_computed_binary_confusion():
    # TP=3, FP=1, FN=2, TN=4.
    labels = [True] * 5 + [False] * 5
    predictions = [True, True, True, False, False, True, False, False, False, False]
    report = classification_metrics(predictions, labels, mode="binary")
    assert report.precision == pytest.approx(0.75, abs=1e-15)
    assert report.recall == pytest.approx(0.6, abs=1e-15)
    assert report.f1 == pytest.approx(2 * 0.75 * 0.6 / 1.35, abs=1e-15)
    assert report.accuracy == pytest.approx(0.7, abs=1e-15)


def _oracle_metrics(predictions, labels, mode, positive=True):
    """Independent float recomputation straight from the pairs."""
    classes = sorted(set(labels) | set(predictions))
    n = len(labels)
    accuracy = sum(p == t for p, t in zip(predictions, labels)) / n
    stats = {}
    for c in classes:
        tp = sum(1 for p, t in zip(predictions, labels) if p == c and t == c)
        pred = sum(1 for p in predictions if p == c)
        sup = sum(1 for t in labels if t == c)
        precision = tp / pred if pred else 0.0
        recall = tp / sup if sup else 0.0
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        stats[c] = (precision, recall, f1, sup)
    if mode == "binary":
        p, r, f, _ = stats[positive]
        return accuracy, p, r, f
    weighted = [sum(stats[c][i] * stats[c][3] / n for c in classes if stats[c][3]) for i in range(3)]
    return (accuracy, *weighted)


def test_metrics_match_independent_oracle_on_random_sets():
    rng = np.random.default_rng(7)
    for _ in range(300):
        n_classes = int(rng.integers(2, 9))
        n = int(rng.integers(20, 120))
        labels = rng.integers(0, n_classes, size=n).tolist()
        predictions = rng.integers(0, n_classes, size=n).tolist()
        report = classification_metrics(predictions, labels, mode="weighted")
        acc, p, r, f = _oracle_metrics(predictions, labels, "weighted")
        assert abs(report.accuracy - acc) < 1e-9
        assert abs(report.precision - p) < 1e-9
        assert abs(report.recall - r) < 1e-9
        assert abs(report.f1 - f) < 1e-9
        assert report.recall == report.accuracy  # exact identity


def test_weighted_recall_equals_accuracy_exactly():
    rng = np.random.default_rng(3)
    for _ in range(100):
        n = int(rng.integers(3, 50))
        labels = rng.integers(0, 5, size=n).tolist()
        predictions = rng.integers(0, 5, size=n).tolist()
        report = classification_metrics(predictions, labels, mode="weighted")
        assert report.recall == report.accuracy


def test_metrics_are_order_invariant():
    rng = np.random.default_rng(11)
    labels = rng.integers(0, 3, size=40).tolist()
    predictions = rng.integers(0, 3, size=40).tolist()
    base = classification_metrics(predictions, labels)
    perm = rng.permutation(40)
    shuffled = classification_metrics([predictions[i] for i in perm], [labels[i] for i in perm])
    assert base.to_dict() == shuffled.to_dict()


def test_zero_predicted_positives_flagged():
    report = classification_metrics([0, 0, 0], [0, 1, 0], mode="weighted")
    assert report.per_class[1].precision == 0.0
    assert any("precision[1]" in f for f in report.flags)


def test_zero_support_class_excluded_from_weighting():
    # Class 2 is predicted but never true: support 0, weight 0.
    report = classification_metrics([0, 2, 1], [0, 1, 1], mode="weighted", class_labels=[0, 1, 2])
    acc, p, r, f = _oracle_metrics([0, 2, 1], [0, 1, 1], "weighted")
    assert report.precision == pytest.approx(p, abs=1e-12)
    assert report.per_class[2].support == 0


def test_binary_equals_weighted_when_only_positives_present():
    labels = [True] * 6
    predictions = [True, True, False, True, False, True]
    binary = classification_metrics(predictions, labels, mode="binary")
    weighted = classification_metrics(predictions, labels, mode="weighted")
    assert binary.precision == weighted.precision
    assert binary.recall == weighted.recall
    assert binary.f1 == weighted.f1


def test_all_metrics_within_unit_interval():
    rng = np.random.default_rng(5)
    for _ in range(50):
        labels = rng.integers(0, 4, size=30).tolist()
        predictions = rng.integers(0, 4, size=30).tolist()
        report = classification_metrics(predictions, labels)
        report.validate()


def test_empty_inputs_rejected():
    with pytest.raises(EvaluationError, match="zero"):
        classification_metrics([], [])


def test_length_mismatch_rejected():
    with pytest.raises(EvaluationError):
        classification_metrics([1], [1, 2])


@pytest.mark.parametrize("class_labels, repeated", [([0, 0, 1], "0"), ([0, 1, 1], "1"), ([1, True], "1")])
def test_repeated_class_labels_rejected(class_labels, repeated):
    with pytest.raises(EvaluationError, match=rf"^class_labels repeat label {repeated}: "):
        classification_metrics([0, 1, 1], [0, 1, 1], class_labels=class_labels)


def test_unknown_mode_rejected():
    with pytest.raises(EvaluationError, match="mode"):
        classification_metrics([1], [1], mode="macro")


def test_confusion_matrix_counts():
    """Rows are true classes and columns predicted ones, so an asymmetric case tells them apart."""
    report = classification_metrics([0, 0, 0, 1], [0, 1, 1, 1], class_labels=[0, 1])
    per_class = {label: (m.precision, m.recall, m.support) for label, m in report.per_class.items()}
    assert per_class == {0: (1 / 3, 1.0, 1), 1: (1.0, 1 / 3, 3)}
    assert report.accuracy == 0.5


# -- checkpoint evaluation -------------------------------------------------------------


@pytest.fixture(scope="module")
def finetuned(toy_docs, toy_tokenizer, toy_base_checkpoint):
    config = TrainingConfig(learning_rate=1e-3, batch_size=16, epochs=2, eval_checkpoints=3, seed=6)
    result = finetune_classifier(
        config, toy_base_checkpoint, "binary", toy_docs[:160], toy_docs[160:200], toy_tokenizer
    )
    return result.best_checkpoint


def test_evaluating_twice_is_identical(finetuned, toy_docs, toy_tokenizer):
    a = evaluate_checkpoint(finetuned, toy_docs[200:240], "binary", toy_tokenizer)
    b = evaluate_checkpoint(finetuned, toy_docs[200:240], "binary", toy_tokenizer)
    assert a.to_dict() == b.to_dict()


def test_batch_size_does_not_change_metrics(finetuned, toy_docs, toy_tokenizer):
    small = evaluate_checkpoint(finetuned, toy_docs[200:240], "binary", toy_tokenizer, batch_size=8)
    large = evaluate_checkpoint(finetuned, toy_docs[200:240], "binary", toy_tokenizer, batch_size=64)
    assert small.accuracy == large.accuracy
    assert abs(small.loss - large.loss) < 1e-10


def test_tokenizer_mismatch_rejected(finetuned, toy_docs):
    from domainlm.tokenizer import Tokenizer

    other = Tokenizer.train([d.text for d in toy_docs[:20]], 300)
    with pytest.raises(ModelError, match="tokenizer"):
        evaluate_checkpoint(finetuned, toy_docs[200:220], "binary", other)


def test_mlm_evaluation_is_deterministic(toy_docs, toy_tokenizer, toy_base_checkpoint):
    report_a = evaluate_checkpoint(toy_base_checkpoint, toy_docs[200:230], "mlm", toy_tokenizer)
    report_b = evaluate_checkpoint(toy_base_checkpoint, toy_docs[200:230], "mlm", toy_tokenizer)
    assert report_a.loss == report_b.loss
    assert report_a.mode == "mlm"
    assert report_a.loss > 0


def test_evaluate_mlm_batch_invariance(toy_docs, toy_tokenizer, toy_base_checkpoint):
    segments = pack_segments(
        (toy_tokenizer.encode(d.text) for d in toy_docs[200:230]), toy_tokenizer.sep_id, 32
    )
    ckpt = toy_base_checkpoint
    losses = {
        size: evaluate_mlm(ckpt.params, ckpt.config, segments, toy_tokenizer, seed=1, batch_size=size)
        for size in range(1, len(segments) + 1)
    }
    assert len(set(losses.values())) == 1, losses


# The `topics` bench model's shape. At ff 256 no product has an inner
# dimension above 256, the case in which OpenBLAS's small-matrix kernel can
# sum a short batch otherwise than the full-size kernel (see the README).
_TOPICS_CONFIG = ModelConfig(
    num_layers=2, num_heads=2, hidden_dim=64, ff_dim=256, vocab_size=300, max_positions=64, dropout_rate=0.0
)
_TOPICS_PARAMS = init_parameters(_TOPICS_CONFIG, seed=5)


@settings(max_examples=25, deadline=None)
@given(
    lengths=st.lists(st.integers(2, 48), min_size=2, max_size=48),
    batch_fraction=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_cls_vectors_are_bitwise_batch_invariant_at_the_topics_shape(lengths, batch_fraction, seed):
    rng = np.random.default_rng(seed)
    sequences = [rng.integers(1, _TOPICS_CONFIG.vocab_size, size=n) for n in lengths]
    batch_size = 1 + int(batch_fraction * (len(sequences) - 1))
    order = rng.permutation(len(sequences))
    whole = cls_vectors(_TOPICS_PARAMS, _TOPICS_CONFIG, sequences, 0, batch_size=len(sequences))
    shuffled = cls_vectors(_TOPICS_PARAMS, _TOPICS_CONFIG, [sequences[i] for i in order], 0, batch_size=batch_size)
    np.testing.assert_array_equal(shuffled, whole[order])


@pytest.mark.parametrize("function", [cls_vectors, batched_cls_logits])
def test_no_sequences_is_an_evaluation_error(function, toy_tokenizer, toy_base_checkpoint):
    ckpt = toy_base_checkpoint
    with pytest.raises(EvaluationError, match="no sequences"):
        function(ckpt.params, ckpt.config, [], toy_tokenizer.pad_id)


def test_no_segments_is_an_evaluation_error(toy_tokenizer, toy_base_checkpoint):
    """An empty validation set has no loss; 0.0 would read as a perfect model."""
    ckpt = toy_base_checkpoint
    with pytest.raises(EvaluationError, match="no segments to evaluate"):
        evaluate_mlm(ckpt.params, ckpt.config, [], toy_tokenizer)


# -- batches on two threads -------------------------------------------------------------


def _serial_cls_vectors(params, config, sequences, pad_id, batch_size):
    """The one-thread loop that the two-thread pass replaced: the oracle."""
    pad_to = max(len(s) for s in sequences)
    rows = []
    for start in range(0, len(sequences), batch_size):
        ids, mask = pad_batch(sequences[start : start + batch_size], pad_id, pad_to)
        hidden = encoder_forward(params, config, ids, pad_mask=mask, positions=cls_positions(len(ids)))
        rows.append(hidden.data[:, 0])
    return np.concatenate(rows, axis=0)


def _serial_evaluate_mlm(params, config, segments, tokenizer, seed, batch_size):
    """The one-thread loop of the two-thread pass's definition: the oracle.

    Batches of at most half the segments, each padded to the longest segment
    and the most targets of the call; one sum over the per-target losses.
    """
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE7A1)))
    masked = [apply_dynamic_masking(seg, rng, tokenizer) for seg in segments]
    length = max(len(m.input_ids) for m in masked)
    slots = max(len(m.target_ids) for m in masked)
    size = min(batch_size, -(-len(masked) // 2))
    losses = []
    for start in range(0, len(masked), size):
        ids, pad_mask, positions, targets = assemble_mlm_batch(
            masked[start : start + size], tokenizer.pad_id, length, slots
        )
        hidden = encoder_forward(params, config, ids, pad_mask=pad_mask, positions=positions)
        real = targets >= 0
        log_probs = log_softmax(mlm_logits_from_hidden(hidden[real], params, config).data)
        losses.append(-log_probs[np.arange(real.sum()), targets[real]])
    losses = np.concatenate(losses)
    return float(np.sum(losses)) / losses.size


def _record_forwards(monkeypatch):
    """(thread id, output requires_grad) of each encoder call of an evaluation pass."""
    calls = []
    real = evaluation_module.encoder_forward

    def spy(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append((threading.get_ident(), out.requires_grad))
        return out

    monkeypatch.setattr(evaluation_module, "encoder_forward", spy)
    return calls


def test_two_thread_passes_give_the_bits_of_the_serial_loop(monkeypatch, toy_docs, toy_tokenizer, toy_base_checkpoint):
    if autodiff_module._blas_thread_controls() is None:
        pytest.skip("numpy's BLAS does not export its thread-count functions")
    ckpt = toy_base_checkpoint
    sequences = [encode_for_classification(d, toy_tokenizer, ckpt.config.max_positions) for d in toy_docs[:70]]
    segments = pack_segments((toy_tokenizer.encode(d.text) for d in toy_docs[200:245]), toy_tokenizer.sep_id, 32)
    assert len(sequences) % 16 and len(sequences) > 3 * 16  # five batches, the last one short
    assert len(segments) % 8 and len(segments) > 3 * 8  # four batches, the last one short

    def passes():
        vectors = cls_vectors(ckpt.params, ckpt.config, sequences, toy_tokenizer.pad_id, batch_size=16)
        loss = evaluate_mlm(ckpt.params, ckpt.config, segments, toy_tokenizer, seed=4, batch_size=8)
        return vectors, loss

    with one_blas_thread():
        serial = (
            _serial_cls_vectors(ckpt.params, ckpt.config, sequences, toy_tokenizer.pad_id, 16),
            _serial_evaluate_mlm(ckpt.params, ckpt.config, segments, toy_tokenizer, 4, 8),
        )
    here = threading.get_ident()
    calls = _record_forwards(monkeypatch)

    monkeypatch.setattr(autodiff_module.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    two_threads = passes()
    threads = [thread for thread, _ in calls]
    assert threads.count(here) == 3 + 2 and len(threads) == 5 + 4  # batches 0, 2 and 4 of each pass here
    assert not any(requires_grad for _, requires_grad in calls)  # no tape on either thread

    calls.clear()
    monkeypatch.setattr(autodiff_module.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    in_turn = passes()
    assert {thread for thread, _ in calls} == {here}

    for got in (two_threads, in_turn):
        np.testing.assert_array_equal(got[0], serial[0])
        assert got[1] == serial[1]


# -- scaling study ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def scaling_config():
    return TrainingConfig(learning_rate=1e-3, batch_size=16, epochs=1, eval_checkpoints=2, seed=8)


def test_full_fraction_study_matches_single_finetune(
    toy_docs, toy_tokenizer, toy_base_checkpoint, scaling_config
):
    train_pool = toy_docs[:80]
    validation = toy_docs[80:100]
    holdout = toy_docs[100:140]
    (result,) = scaling_study(
        [1.0], scaling_config, {"base": toy_base_checkpoint}, train_pool, validation, holdout, toy_tokenizer
    )
    subset = nested_subsets(train_pool, [1.0], seed=0)[0]
    run = finetune_classifier(
        scaling_config, toy_base_checkpoint, "binary", subset, validation, toy_tokenizer
    )
    from domainlm.data import encode_for_classification
    from domainlm.evaluation import batched_cls_logits

    best = run.best_checkpoint
    seqs = [encode_for_classification(d, toy_tokenizer, best.config.max_positions) for d in holdout]
    logits = batched_cls_logits(best.params, best.config, seqs, toy_tokenizer.pad_id)
    index = {lab: i for i, lab in enumerate(best.extra["class_labels"])}
    expected = mlm_cross_entropy(logits, np.array([index[bool(d.nfc_label)] for d in holdout]))
    assert result.holdout_log_losses[0] == pytest.approx(expected, abs=1e-12)
    assert result.train_sizes == [80]


def test_scaling_subsets_are_nested(toy_docs, toy_tokenizer, toy_base_checkpoint, scaling_config):
    subsets = nested_subsets(toy_docs[:80], [0.25, 1.0], seed=0)
    ids = [set(d.id for d in s) for s in subsets]
    assert ids[0] <= ids[1]
    results = scaling_study(
        [0.25, 1.0], scaling_config, {"base": toy_base_checkpoint},
        toy_docs[:80], toy_docs[80:100], toy_docs[100:120], toy_tokenizer,
    )
    assert results[0].train_sizes == [20, 80]


def test_scaling_warns_and_shrinks_batch_for_tiny_subsets(
    toy_docs, toy_tokenizer, toy_base_checkpoint
):
    config = TrainingConfig(learning_rate=1e-3, batch_size=64, epochs=1, eval_checkpoints=1, seed=8)
    with pytest.warns(UserWarning, match="reducing batch size"):
        scaling_study(
            [0.1], config, {"base": toy_base_checkpoint},
            toy_docs[:80], toy_docs[80:100], toy_docs[100:110], toy_tokenizer,
        )


def test_scaling_csv_format(tmp_path, toy_docs, toy_tokenizer, toy_base_checkpoint, scaling_config):
    results = scaling_study(
        [1.0], scaling_config, {"base": toy_base_checkpoint},
        toy_docs[:40], toy_docs[40:50], toy_docs[50:60], toy_tokenizer,
    )
    path = write_scaling_csv(results, tmp_path / "scaling.csv")
    import csv

    with path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["init_name", "fraction", "train_size", "log_loss"]
    assert rows[1][0] == "base"
