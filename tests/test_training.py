import csv
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from domainlm.autodiff import Tensor
from domainlm.data import encode_for_classification
from domainlm.evaluation import cls_vectors, evaluate_classifier, evaluate_mlm
from domainlm.model import ModelConfig, ModelError
from domainlm.training import (
    AdamW,
    TrainingConfig,
    TrainingDivergedError,
    TrainingError,
    apply_dynamic_masking,
    checkpoint_steps,
    finetune_classifier,
    hyperparameter_grid,
    learning_rate_at,
    pack_segments,
    pretrain_mlm,
    select_best_checkpoint,
    CheckpointMeta,
)
import domainlm.autodiff as autodiff_module
import domainlm.evaluation as evaluation_module
import domainlm.training as training_module

_check_gradients = training_module._check_gradients


@pytest.fixture(scope="module")
def small_model_config(toy_tokenizer):
    return ModelConfig(
        num_layers=1, num_heads=2, hidden_dim=32, ff_dim=64,
        vocab_size=toy_tokenizer.vocab_size, max_positions=64, dropout_rate=0.0,
    )


# -- packing -----------------------------------------------------------------------


def test_packing_crosses_document_boundaries(toy_tokenizer):
    sep = toy_tokenizer.sep_id
    docs = [list(range(5, 305)), list(range(5, 305))]
    segments = pack_segments(docs, sep, 512)
    assert [len(s) for s in segments] == [512, 89]
    assert segments[0][300] == sep


def test_packing_exact_single_segment(toy_tokenizer):
    segments = pack_segments([list(range(5, 517))], toy_tokenizer.sep_id, 512)
    assert len(segments) == 1
    assert len(segments[0]) == 512


def test_packing_single_token_stream(toy_tokenizer):
    segments = pack_segments([[7]], toy_tokenizer.sep_id, 512)
    assert [len(s) for s in segments] == [1]


def test_packing_empty_stream_rejected(toy_tokenizer):
    with pytest.raises(TrainingError, match="empty"):
        pack_segments([], toy_tokenizer.sep_id, 512)


def _pack_token_by_token(docs, separator_id, segment_length):
    """Reference packing, one token at a time: a separator between documents, a segment every `segment_length`
    tokens, and the short tail kept."""
    segments, current = [], []
    for i, tokens in enumerate(docs):
        for token in ([separator_id] if i else []) + list(tokens):
            current.append(int(token))
            if len(current) == segment_length:
                segments.append(current)
                current = []
    return segments + [current] if current else segments


_token_lists = st.lists(st.integers(5, 600), max_size=40)
_documents = st.lists(
    st.one_of(_token_lists, _token_lists.map(lambda ids: np.array(ids, dtype=np.int64)),
              _token_lists.map(lambda ids: [np.int32(t) for t in ids])),
    max_size=8,
)


@settings(max_examples=200, deadline=None)
@given(docs=_documents, segment_length=st.integers(1, 24))
@example(docs=[[], [7, 8], [], []], segment_length=3)  # empty documents, first and last among them
@example(docs=[list(range(5, 60)), [np.int64(9)]], segment_length=16)  # a document longer than a segment
@example(docs=[[5, np.int64(6)], np.array([7])], segment_length=1)
def test_packing_matches_a_token_by_token_reference(docs, segment_length):
    expected = _pack_token_by_token(docs, 2, segment_length)
    if not expected:
        with pytest.raises(TrainingError, match="empty"):
            pack_segments(docs, 2, segment_length)
        return
    segments = pack_segments(docs, 2, segment_length)
    assert [s.tolist() for s in segments] == expected
    assert {s.dtype for s in segments} == {np.dtype(np.int64)}
    # Views of one packed array, not a copy per segment.
    assert segments[0].base is not None and all(s.base is segments[0].base for s in segments)


# -- masking -----------------------------------------------------------------------


def _plain_segment(length=512, lo=5, hi=400, seed=0):
    rng = np.random.default_rng(seed)
    return rng.integers(lo, hi, size=length).astype(np.int64)


def test_masking_selects_seventy_seven_of_512(toy_tokenizer):
    segment = _plain_segment()
    masked = apply_dynamic_masking(segment, 0, toy_tokenizer)
    assert len(masked.target_positions) == 77  # round(0.15 * 512)
    np.testing.assert_array_equal(masked.target_ids, segment[masked.target_positions])


def test_masking_never_selects_special_positions(toy_tokenizer):
    segment = _plain_segment(128)
    segment[::7] = toy_tokenizer.sep_id
    segment[1] = toy_tokenizer.cls_id
    for step in range(20):
        masked = apply_dynamic_masking(segment, step, toy_tokenizer)
        originals = segment[masked.target_positions]
        assert not set(originals.tolist()) & set(toy_tokenizer.special_ids)


def test_masking_is_deterministic_per_seed(toy_tokenizer):
    segment = _plain_segment()
    a = apply_dynamic_masking(segment, 123, toy_tokenizer)
    b = apply_dynamic_masking(segment, 123, toy_tokenizer)
    np.testing.assert_array_equal(a.input_ids, b.input_ids)
    np.testing.assert_array_equal(a.target_positions, b.target_positions)


def test_masking_differs_across_steps(toy_tokenizer):
    segment = _plain_segment()
    differing = 0
    for step in range(50):
        a = apply_dynamic_masking(segment, step, toy_tokenizer)
        b = apply_dynamic_masking(segment, step + 1000, toy_tokenizer)
        if set(a.target_positions) != set(b.target_positions):
            differing += 1
    assert differing == 50


def test_masking_actions_recoverable_and_roughly_split(toy_tokenizer):
    n_mask = n_keep = n_random = 0
    for step in range(200):
        segment = _plain_segment(seed=step)
        masked = apply_dynamic_masking(segment, step, toy_tokenizer)
        corrupted = masked.input_ids[masked.target_positions]
        originals = segment[masked.target_positions]
        n_mask += int((corrupted == toy_tokenizer.mask_id).sum())
        n_keep += int((corrupted == originals).sum())
        n_random += int(((corrupted != originals) & (corrupted != toy_tokenizer.mask_id)).sum())
    total = n_mask + n_keep + n_random
    assert abs(n_mask / total - 0.8) < 0.02
    assert abs(n_keep / total - 0.1) < 0.02
    assert abs(n_random / total - 0.1) < 0.02


def test_all_special_segment_rejected(toy_tokenizer):
    segment = np.full(16, toy_tokenizer.sep_id, dtype=np.int64)
    with pytest.raises(TrainingError, match="special"):
        apply_dynamic_masking(segment, 0, toy_tokenizer)


def test_tiny_segment_still_masks_one_position(toy_tokenizer):
    masked = apply_dynamic_masking(np.array([9, 10], dtype=np.int64), 0, toy_tokenizer)
    assert len(masked.target_positions) == 1


# -- optimizer and schedule -----------------------------------------------------------


def test_adam_zero_gradient_changes_params_only_by_weight_decay():
    params = {"w": Tensor(np.full((3,), 2.0), requires_grad=True)}
    opt = AdamW(params, TrainingConfig(learning_rate=0.1, weight_decay=0.01))
    opt.step({"w": np.zeros(3)}, 0.1)
    np.testing.assert_allclose(params["w"].data, 2.0 * (1 - 0.1 * 0.01), atol=1e-15)

    params2 = {"w": Tensor(np.full((3,), 2.0), requires_grad=True)}
    opt2 = AdamW(params2, TrainingConfig(learning_rate=0.1, weight_decay=0.0))
    opt2.step({"w": np.zeros(3)}, 0.1)
    np.testing.assert_array_equal(params2["w"].data, np.full((3,), 2.0))


def test_adam_first_step_matches_closed_form():
    lr, eps, g = 0.1, 1e-6, 0.5
    params = {"w": Tensor(np.array([1.0]), requires_grad=True)}
    opt = AdamW(params, TrainingConfig(learning_rate=lr, adam_eps=eps, weight_decay=0.0))
    opt.step({"w": np.array([g])}, lr)
    # After bias correction the first update is g / (|g| + eps).
    expected = 1.0 - lr * g / (abs(g) + eps)
    np.testing.assert_allclose(params["w"].data, [expected], atol=1e-12)


def test_adam_update_order_is_fixed():
    rng = np.random.default_rng(0)
    make = lambda: {
        "b": Tensor(rng.normal(size=(4,)).copy(), requires_grad=True),
        "a": Tensor(rng.normal(size=(4,)).copy(), requires_grad=True),
    }
    rng = np.random.default_rng(0)
    p1 = make()
    rng = np.random.default_rng(0)
    p2 = make()
    g = {"a": np.ones(4), "b": np.ones(4)}
    AdamW(p1, TrainingConfig(learning_rate=0.01)).step(g, 0.01)
    AdamW(p2, TrainingConfig(learning_rate=0.01)).step(g, 0.01)
    for k in p1:
        np.testing.assert_array_equal(p1[k].data, p2[k].data)


def test_learning_rate_schedule_shape():
    total, peak, warmup_fraction = 100, 1.0, 0.1
    rates = [learning_rate_at(s, total, peak, warmup_fraction) for s in range(total)]
    assert rates[9] == pytest.approx(peak)  # end of 10-step warmup
    assert all(a < b for a, b in zip(rates[:9], rates[1:10]))
    assert all(a > b for a, b in zip(rates[10:], rates[11:]))
    assert rates[-1] == pytest.approx(peak * 1 / 90)
    assert all(r > 0 for r in rates)


def test_learning_rate_no_warmup():
    rates = [learning_rate_at(s, 10, 2.0, 0.0) for s in range(10)]
    assert rates[0] == pytest.approx(2.0)
    assert rates[-1] == pytest.approx(0.2)


# -- checkpoint schedule ---------------------------------------------------------------


def test_checkpoint_steps_evenly_spaced_and_final():
    steps = checkpoint_steps(75, 20)
    assert len(steps) == len(set(steps)) == 20
    assert steps[-1] == 75
    assert steps == sorted(steps)


def test_checkpoint_steps_exact_when_equal():
    assert checkpoint_steps(20, 20) == list(range(1, 21))


def test_checkpoint_steps_too_few_steps():
    with pytest.raises(TrainingError, match="eval_checkpoints"):
        checkpoint_steps(5, 20)


def test_select_best_is_argmin_earliest_tie():
    metas = [
        CheckpointMeta(step=1, validation_loss=0.5),
        CheckpointMeta(step=2, validation_loss=0.3),
        CheckpointMeta(step=3, validation_loss=0.4),
    ]
    assert select_best_checkpoint(metas).step == 2
    tie = [CheckpointMeta(step=1, validation_loss=0.3), CheckpointMeta(step=2, validation_loss=0.3)]
    assert select_best_checkpoint(tie).step == 1


# -- pretraining ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def small_segments(toy_docs, toy_tokenizer):
    return pack_segments(
        (toy_tokenizer.encode(d.text) for d in toy_docs[:120]), toy_tokenizer.sep_id, 32
    )


def test_overfit_one_batch_collapses_loss(toy_tokenizer, small_model_config, small_segments):
    config = TrainingConfig(
        learning_rate=1e-2, batch_size=4, total_steps=300, log_every=1, seed=0
    )
    result = pretrain_mlm(config, small_segments[:4], small_model_config, toy_tokenizer)
    initial = result.history[0].train_loss
    final = result.history[-1].train_loss
    assert final < 0.1 * initial

    # The memorized model restores the true token when any single position
    # is masked.
    from domainlm.model import encoder_forward, mlm_logits_from_hidden

    params = result.checkpoint.params
    segment = small_segments[0]
    for position in range(len(segment)):
        if segment[position] in toy_tokenizer.special_ids:
            continue
        corrupted = segment.copy()
        corrupted[position] = toy_tokenizer.mask_id
        hidden = encoder_forward(params, small_model_config, corrupted[None, :])
        logits = mlm_logits_from_hidden(hidden[0, [position]], params, small_model_config).data
        assert logits.argmax() == segment[position], f"position {position}"


def test_pretraining_reduces_loss(toy_tokenizer, small_model_config, small_segments):
    config = TrainingConfig(learning_rate=3e-3, batch_size=16, total_steps=120, log_every=10, seed=1)
    result = pretrain_mlm(config, small_segments, small_model_config, toy_tokenizer)
    assert result.history[-1].train_loss < result.history[0].train_loss


def test_pretraining_is_bitwise_deterministic(toy_tokenizer, small_model_config, small_segments):
    config = TrainingConfig(learning_rate=1e-3, batch_size=8, total_steps=30, log_every=5, seed=9)
    a = pretrain_mlm(config, small_segments, small_model_config, toy_tokenizer)
    b = pretrain_mlm(config, small_segments, small_model_config, toy_tokenizer)
    assert [(r.step, r.train_loss) for r in a.history] == [(r.step, r.train_loss) for r in b.history]
    for name in a.checkpoint.params:
        np.testing.assert_array_equal(a.checkpoint.params[name].data, b.checkpoint.params[name].data)


def test_continued_pretraining_carries_weights_and_resets_steps(
    toy_tokenizer, small_model_config, small_segments
):
    base_config = TrainingConfig(learning_rate=3e-3, batch_size=8, total_steps=150, log_every=1, seed=2)
    base = pretrain_mlm(base_config, small_segments, small_model_config, toy_tokenizer)

    # A continuation with a vanishing learning rate must start from the
    # checkpoint's weights, with the step counter back at 1.
    frozen_config = TrainingConfig(
        learning_rate=1e-12, weight_decay=0.0, batch_size=8, total_steps=1, log_every=1, seed=3
    )
    continued = pretrain_mlm(frozen_config, small_segments, base.checkpoint, toy_tokenizer)
    assert continued.history[0].step == 1
    for name, p in base.checkpoint.params.items():
        np.testing.assert_allclose(continued.checkpoint.params[name].data, p.data, atol=1e-9)

    # Behaviorally, continuing from a trained model starts well below fresh.
    probe_config = TrainingConfig(learning_rate=1e-3, batch_size=8, total_steps=3, log_every=1, seed=3)
    warm = pretrain_mlm(probe_config, small_segments, base.checkpoint, toy_tokenizer)
    fresh = pretrain_mlm(probe_config, small_segments, small_model_config, toy_tokenizer)
    assert warm.history[0].train_loss < fresh.history[0].train_loss - 1.0


def test_pretrain_reports_validation_loss(toy_tokenizer, small_model_config, small_segments):
    config = TrainingConfig(learning_rate=1e-3, batch_size=8, total_steps=10, log_every=5, seed=0)
    result = pretrain_mlm(
        config, small_segments[:20], small_model_config, toy_tokenizer, val_segments=small_segments[20:30]
    )
    assert all(r.validation_loss is not None for r in result.history)


def test_pretrain_refuses_empty_validation_segments(monkeypatch, toy_tokenizer, small_model_config, small_segments):
    steps = []
    monkeypatch.setattr(training_module, "_train_step", lambda *args: steps.append(args))
    config = TrainingConfig(learning_rate=1e-3, batch_size=8, total_steps=2, log_every=1, seed=0)
    with pytest.raises(TrainingError, match="no validation segments"):
        pretrain_mlm(config, small_segments[:8], small_model_config, toy_tokenizer, val_segments=[])
    assert steps == []


def test_pretrain_writes_run_directory(tmp_path, toy_tokenizer, small_model_config, small_segments):
    config = TrainingConfig(learning_rate=1e-3, batch_size=8, total_steps=6, log_every=2, seed=0)
    result = pretrain_mlm(
        config, small_segments[:16], small_model_config, toy_tokenizer, out_dir=tmp_path
    )
    assert (tmp_path / "config.txt").exists()
    assert result.checkpoint_path == tmp_path / "checkpoints" / "final.npz"
    assert result.checkpoint_path.exists()
    with (tmp_path / "loss_history.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["step", "train_loss", "validation_loss"]
    assert len(rows) - 1 == len(result.history)


def test_nan_loss_aborts_naming_step(monkeypatch, toy_tokenizer, small_model_config, small_segments):
    calls = {"n": 0}
    real = training_module.cross_entropy

    def poisoned(logits, targets):
        calls["n"] += 1
        if calls["n"] >= 3:
            return Tensor(np.float64("nan"))
        return real(logits, targets)

    monkeypatch.setattr(training_module, "cross_entropy", poisoned)
    config = TrainingConfig(learning_rate=1e-3, batch_size=4, total_steps=10, log_every=1, seed=0)
    with pytest.raises(TrainingDivergedError, match="step 3"):
        pretrain_mlm(config, small_segments, small_model_config, toy_tokenizer)


def _poison_gradient(monkeypatch, name, at_call):
    """Make `model_backward` return a NaN in one entry of `name`'s gradient from call `at_call` on."""
    calls = {"n": 0}
    real = training_module.model_backward

    def poisoned(loss, params):
        grads = real(loss, params)
        calls["n"] += 1
        if calls["n"] >= at_call:
            grads[name].flat[3] = np.nan
        return grads

    monkeypatch.setattr(training_module, "model_backward", poisoned)


def test_nan_gradient_aborts_pretraining_naming_step_and_parameter(
    monkeypatch, toy_tokenizer, small_model_config, small_segments
):
    _poison_gradient(monkeypatch, "layer0.ff.w1", at_call=2)
    config = TrainingConfig(learning_rate=1e-3, batch_size=4, total_steps=5, seed=0)
    with pytest.raises(TrainingDivergedError, match=r"parameter 'layer0\.ff\.w1' at step 2$"):
        pretrain_mlm(config, small_segments, small_model_config, toy_tokenizer)


def test_nan_gradient_aborts_finetuning_naming_the_first_parameter(
    monkeypatch, toy_docs, toy_tokenizer, toy_base_checkpoint
):
    # Both tensors are bad; the error names the first in name order.
    _poison_gradient(monkeypatch, "tok_emb", at_call=1)
    _poison_gradient(monkeypatch, "cls.w", at_call=1)
    config = TrainingConfig(learning_rate=1e-3, batch_size=8, total_steps=4, eval_checkpoints=2, seed=0)
    with pytest.raises(TrainingDivergedError, match=r"parameter 'cls\.w' at step 1$"):
        finetune_classifier(config, toy_base_checkpoint, "binary", toy_docs[:32], toy_docs[32:40], toy_tokenizer)


def test_pretrain_rejects_mismatched_tokenizer(toy_docs, toy_base_checkpoint):
    from domainlm.tokenizer import Tokenizer

    other = Tokenizer.train([d.text for d in toy_docs[:10]], 300)
    segments = pack_segments((other.encode(d.text) for d in toy_docs[:10]), other.sep_id, 32)
    config = TrainingConfig(learning_rate=1e-3, batch_size=4, total_steps=2, seed=0)
    with pytest.raises(ModelError, match="tokenizer"):
        pretrain_mlm(config, segments, toy_base_checkpoint, other)


# -- fine-tuning ------------------------------------------------------------------------


@pytest.fixture(scope="module")
def ft_config():
    return TrainingConfig(
        learning_rate=1e-3, batch_size=16, epochs=3, eval_checkpoints=5, log_every=50, seed=4
    )


def test_finetune_selects_argmin_checkpoint(toy_docs, toy_tokenizer, toy_base_checkpoint, ft_config):
    result = finetune_classifier(
        ft_config, toy_base_checkpoint, "binary", toy_docs[:160], toy_docs[160:200], toy_tokenizer
    )
    losses = [m.validation_loss for m in result.checkpoints]
    assert len(result.checkpoints) == ft_config.eval_checkpoints
    assert result.best.validation_loss == min(losses)
    assert [m.is_best for m in result.checkpoints].count(True) == 1
    assert result.best is select_best_checkpoint(result.checkpoints)


def test_finetune_scores_each_evaluation_step_once_and_reports_the_best_steps_pass(
    monkeypatch, toy_docs, toy_tokenizer, toy_base_checkpoint
):
    """One classifier pass per evaluation step and none after the loop; `metrics` is the best step's own report,
    field for field what evaluating the best checkpoint afresh gives, here for a best step before the last."""
    passes = []
    real = evaluation_module.batched_cls_logits
    monkeypatch.setattr(evaluation_module, "batched_cls_logits", lambda *a, **k: passes.append(1) or real(*a, **k))
    config = TrainingConfig(learning_rate=0.05, batch_size=16, total_steps=12, eval_checkpoints=6, seed=4)
    validation = toy_docs[64:100]
    result = finetune_classifier(config, toy_base_checkpoint, "binary", toy_docs[:64], validation, toy_tokenizer)
    assert len(passes) == config.eval_checkpoints
    assert result.best.step == 6 and result.checkpoints[-1].step == 12
    assert result.metrics.loss == result.best.validation_loss
    fresh = evaluate_classifier(result.best_checkpoint, validation, "binary", toy_tokenizer, config.batch_size)
    assert result.metrics == fresh


def test_finetune_best_checkpoint_is_the_one_its_step_saved(
    monkeypatch, tmp_path, toy_docs, toy_tokenizer, toy_base_checkpoint
):
    """The result's best checkpoint is the object the best step's job saved, and best.npz is that step's file
    byte for byte, here for a best step before the last."""
    saved = {}
    real = training_module.save_checkpoint

    def spy(checkpoint, path):
        saved[Path(path).name] = checkpoint
        return real(checkpoint, path)

    monkeypatch.setattr(training_module, "save_checkpoint", spy)
    config = TrainingConfig(learning_rate=0.05, batch_size=16, total_steps=12, eval_checkpoints=6, seed=4)
    result = finetune_classifier(
        config, toy_base_checkpoint, "binary", toy_docs[:64], toy_docs[64:100], toy_tokenizer, out_dir=tmp_path
    )
    assert result.best.step == 6 and result.checkpoints[-1].step == 12
    step_file = f"step_{result.best.step:06d}.npz"
    assert result.best_checkpoint is saved[step_file]
    assert (tmp_path / "checkpoints" / "best.npz").read_bytes() == (tmp_path / "checkpoints" / step_file).read_bytes()


def test_finetune_single_checkpoint_evaluates_final_step(
    toy_docs, toy_tokenizer, toy_base_checkpoint
):
    config = TrainingConfig(learning_rate=1e-3, batch_size=16, epochs=1, eval_checkpoints=1, seed=4)
    result = finetune_classifier(
        config, toy_base_checkpoint, "binary", toy_docs[:64], toy_docs[64:80], toy_tokenizer
    )
    assert len(result.checkpoints) == 1
    total = 1 * int(np.ceil(64 / 16))
    assert result.checkpoints[0].step == total
    assert result.checkpoints[0].is_best


def test_finetune_multiclass_infers_classes(toy_docs, toy_tokenizer, toy_base_checkpoint, ft_config):
    result = finetune_classifier(
        ft_config, toy_base_checkpoint, "multiclass", toy_docs[:120], toy_docs[120:150], toy_tokenizer
    )
    codes = {d.primary_category for d in toy_docs[:150]}
    assert set(result.best_checkpoint.extra["class_labels"]) == codes
    assert result.best_checkpoint.config.num_classes == len(codes)


def test_finetune_warns_on_validation_only_class(toy_tokenizer, toy_base_checkpoint):
    """Class 1 is in validation only: the head still has an output for it, and metrics count its documents."""
    from domainlm.synthetic import make_corpus

    train = make_corpus(32, (5,), seed=0, prefix="tr")
    val = make_corpus(8, (5, 1), seed=1, prefix="va")
    config = TrainingConfig(learning_rate=1e-3, batch_size=8, epochs=1, eval_checkpoints=2, seed=0)
    with pytest.warns(UserWarning) as caught:
        result = finetune_classifier(config, toy_base_checkpoint, "multiclass", train, val, toy_tokenizer)
    (message,) = [str(w.message) for w in caught if "validation but not in training" in str(w.message)]
    assert message.startswith("classes [1] ") and "no training example" in message
    assert result.best_checkpoint.extra["class_labels"] == [1, 5]
    assert result.metrics.per_class[1].support == 4


def test_finetune_requires_validation_docs(toy_docs, toy_tokenizer, toy_base_checkpoint, ft_config):
    with pytest.raises(TrainingError, match="validation"):
        finetune_classifier(ft_config, toy_base_checkpoint, "binary", toy_docs[:32], [], toy_tokenizer)


def test_finetune_rejects_unknown_task(toy_docs, toy_tokenizer, toy_base_checkpoint, ft_config):
    with pytest.raises(TrainingError, match="task"):
        finetune_classifier(ft_config, toy_base_checkpoint, "regression", toy_docs[:32], toy_docs[32:40], toy_tokenizer)


def test_finetune_writes_run_directory(tmp_path, toy_docs, toy_tokenizer, toy_base_checkpoint):
    config = TrainingConfig(learning_rate=1e-3, batch_size=16, epochs=1, eval_checkpoints=2, seed=4)
    result = finetune_classifier(
        config, toy_base_checkpoint, "binary", toy_docs[:64], toy_docs[64:80], toy_tokenizer,
        out_dir=tmp_path,
    )
    assert (tmp_path / "config.txt").exists()
    assert (tmp_path / "loss_history.csv").exists()
    assert (tmp_path / "metrics.json").exists()
    assert (tmp_path / "checkpoints" / "best.npz").exists()
    for meta in result.checkpoints:
        assert meta.path is not None and meta.path.exists()
    with (tmp_path / "checkpoints.csv").open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["step", "validation_loss", "path", "is_best"]
    assert sum(int(r[3]) for r in rows[1:]) == 1


def test_finetune_is_deterministic(toy_docs, toy_tokenizer, toy_base_checkpoint):
    config = TrainingConfig(learning_rate=1e-3, batch_size=16, epochs=1, eval_checkpoints=2, seed=4)
    a = finetune_classifier(config, toy_base_checkpoint, "binary", toy_docs[:64], toy_docs[64:80], toy_tokenizer)
    b = finetune_classifier(config, toy_base_checkpoint, "binary", toy_docs[:64], toy_docs[64:80], toy_tokenizer)
    assert a.best.validation_loss == b.best.validation_loss
    assert a.metrics.accuracy == b.metrics.accuracy


# -- hyperparameter grid -------------------------------------------------------------------


def test_single_cell_grid_matches_standalone_finetune(
    toy_docs, toy_tokenizer, toy_base_checkpoint
):
    from dataclasses import replace

    base = TrainingConfig(learning_rate=1e-3, batch_size=16, epochs=1, eval_checkpoints=2, seed=4)
    cells = hyperparameter_grid(
        "binary", base, [2e-3], [8], toy_base_checkpoint, toy_docs[:64], toy_docs[64:80], toy_tokenizer
    )
    standalone = finetune_classifier(
        replace(base, learning_rate=2e-3, batch_size=8),
        toy_base_checkpoint, "binary", toy_docs[:64], toy_docs[64:80], toy_tokenizer,
    )
    assert len(cells) == 1
    assert cells[0].loss == standalone.best.validation_loss
    assert cells[0].accuracy == standalone.metrics.accuracy


def test_grid_continues_past_failed_cells(monkeypatch, toy_docs, toy_tokenizer, toy_base_checkpoint):
    real = training_module.finetune_classifier

    def flaky(config, *args, **kwargs):
        if config.learning_rate == 2e-3:
            raise TrainingDivergedError("non-finite classification loss at step 1")
        return real(config, *args, **kwargs)

    monkeypatch.setattr(training_module, "finetune_classifier", flaky)
    base = TrainingConfig(learning_rate=1e-3, batch_size=16, epochs=1, eval_checkpoints=2, seed=4)
    cells = hyperparameter_grid(
        "binary", base, [1e-3, 2e-3], [8], toy_base_checkpoint,
        toy_docs[:64], toy_docs[64:80], toy_tokenizer,
    )
    statuses = {(c.learning_rate, c.status) for c in cells}
    assert (2e-3, "failed") in statuses
    assert (1e-3, "ok") in statuses
    failed = next(c for c in cells if c.status == "failed")
    assert np.isnan(failed.loss)


def test_empty_grid_rejected(toy_docs, toy_tokenizer, toy_base_checkpoint):
    base = TrainingConfig()
    with pytest.raises(TrainingError, match="grid"):
        hyperparameter_grid("binary", base, [], [16], toy_base_checkpoint, toy_docs[:10], toy_docs[10:12], toy_tokenizer)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_adam_in_place_update_matches_the_formula_bitwise(dtype):
    rng = np.random.default_rng(3)
    shapes = {"w": (6, 5), "b": (5,), "emb": (11, 6)}
    start = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
    params = {name: Tensor(value.copy(), requires_grad=True) for name, value in start.items()}
    config = TrainingConfig(learning_rate=0.01, adam_beta1=0.9, adam_beta2=0.98, adam_eps=1e-6, weight_decay=0.01)
    opt = AdamW(params, config)
    expected = {name: value.copy() for name, value in start.items()}
    m = {name: np.zeros_like(value) for name, value in start.items()}
    v = {name: np.zeros_like(value) for name, value in start.items()}
    for t in range(1, 21):
        grads = {name: rng.normal(size=shape).astype(dtype) for name, shape in shapes.items()}
        lr = 0.01 * t / 20
        opt.step(grads, lr)
        # The formula the in-place update replaced, operation for operation.
        bc1, bc2 = 1.0 - 0.9 ** t, 1.0 - 0.98 ** t
        for name in sorted(shapes):
            g, p = grads[name], expected[name]
            m[name] *= 0.9
            m[name] += (1.0 - 0.9) * g
            v[name] *= 0.98
            v[name] += (1.0 - 0.98) * g * g
            update = (m[name] / bc1) / (np.sqrt(v[name] / bc2) + 1e-6)
            p -= lr * (update + 0.01 * p)
        for name in shapes:
            assert params[name].data.dtype == dtype
            np.testing.assert_array_equal(params[name].data, expected[name])
            np.testing.assert_array_equal(opt.m[name], m[name])
            np.testing.assert_array_equal(opt.v[name], v[name])


def test_adam_keeps_float32_parameters_and_state():
    f32 = np.dtype(np.float32)
    params = {"w": Tensor(np.full((3,), 2.0, dtype=f32), requires_grad=True)}
    opt = AdamW(params, TrainingConfig(learning_rate=0.1))
    opt.step({"w": np.array([0.5, -1.0, 0.0], dtype=f32)}, 0.05)
    assert params["w"].data.dtype == opt.m["w"].dtype == opt.v["w"].dtype == f32


def test_failed_loss_history_write_keeps_previous_file(tmp_path):
    path = tmp_path / "loss_history.csv"
    training_module.write_loss_history([training_module.LossRecord(1, 2.5, 2.75)], path)
    before = path.read_bytes()
    # The second record cannot be formatted, so the write fails after the
    # header and the first row are already in the temporary file.
    broken = [training_module.LossRecord(1, 2.0), training_module.LossRecord(2, None)]
    with pytest.raises(TypeError):
        training_module.write_loss_history(broken, path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["loss_history.csv"]


def _csv_cases():
    from pathlib import Path

    from domainlm import analysis
    from domainlm.corpus import Document

    t = training_module
    matrix = analysis.EmbeddingMatrix(ids=["a", "b"], matrix=np.ones((2, 2)), checkpoint_hash="x")
    coords = np.array([[0.5, -0.25], [1.0, 2.0]])
    assignment = analysis.ClusterAssignment({"a": 1, "b": analysis.OUTLIER}, n_clusters=1)
    documents = [Document("a", "fuel rod", (1,), nfc_label=True), Document("b", "unlabeled text")]
    summary = analysis.TopicSummary(
        scores={}, top_words={2: [("fuel", 0.5)], 1: [("rod", 0.25), ("pin", 0.125)]}
    )
    scaling = t.ScalingStudyResult("base", [0.25, 1.0], [2, 8], [0.5, 0.125])
    index = [CheckpointMeta(2, 0.5, Path("ck") / "step_000002.npz"), CheckpointMeta(4, 0.25, None, is_best=True)]
    return {
        "scaling": (
            lambda path: t.write_scaling_csv([scaling], path),
            b"init_name,fraction,train_size,log_loss\r\nbase,0.25,2,0.5000000000\r\nbase,1.0,8,0.1250000000\r\n",
        ),
        "loss_history": (
            lambda path: t.write_loss_history([t.LossRecord(50, 1.5), t.LossRecord(100, 1.25, 1.375)], path),
            b"step,train_loss,validation_loss\r\n50,1.5000000000,\r\n100,1.2500000000,1.3750000000\r\n",
        ),
        "checkpoint_index": (
            lambda path: t._write_checkpoint_index(path, index),
            b"step,validation_loss,path,is_best\r\n2,0.5000000000,ck/step_000002.npz,0\r\n4,0.2500000000,,1\r\n",
        ),
        "projection": (
            lambda path: analysis.write_projection_csv(matrix, coords, assignment, documents, path),
            b"id,x,y,cluster,true_label\r\na,0.50000000,-0.25000000,1,1\r\nb,1.00000000,2.00000000,0,\r\n",
        ),
        "topics": (
            lambda path: analysis.write_topic_csv(summary, path),
            b"cluster,rank,word,score\r\n1,1,rod,0.250000000000\r\n1,2,pin,0.125000000000\r\n"
            b"2,1,fuel,0.500000000000\r\n",
        ),
    }


@pytest.mark.parametrize("writer", ["scaling", "loss_history", "checkpoint_index", "projection", "topics"])
def test_csv_writers_write_exact_bytes(tmp_path, writer):
    write, expected = _csv_cases()[writer]
    path = tmp_path / "sub" / f"{writer}.csv"
    path.parent.mkdir()
    write(path)
    assert path.read_bytes() == expected
    assert [p.name for p in path.parent.iterdir()] == [path.name]


# -- split steps ---------------------------------------------------------------------


@pytest.fixture(scope="module")
def split_model_config(toy_tokenizer):
    # Small, so the suite stays fast; its 16 x 128 batches cross _SPLIT_ROWS.
    return ModelConfig(
        num_layers=2, num_heads=2, hidden_dim=32, ff_dim=64,
        vocab_size=toy_tokenizer.vocab_size, max_positions=128, dropout_rate=0.1,
    )


@pytest.fixture(scope="module")
def long_segments(toy_docs, toy_tokenizer):
    return pack_segments((toy_tokenizer.encode(d.text) for d in toy_docs), toy_tokenizer.sep_id, 128)


def _pretrain_16x128(monkeypatch, model_config, segments, tokenizer, steps=2):
    """(loss history, step-1 gradients, final parameters) of pretraining at batch 16."""
    grads = {}

    def spy(g, step):
        if step == 1:
            grads.update({name: value.copy() for name, value in g.items()})
        _check_gradients(g, step)

    monkeypatch.setattr(training_module, "_check_gradients", spy)
    config = TrainingConfig(learning_rate=1e-3, batch_size=16, total_steps=steps, log_every=1, seed=5)
    result = pretrain_mlm(config, segments, model_config, tokenizer)
    return result.history, grads, {name: p.data for name, p in result.checkpoint.params.items()}


def _assert_bitwise(a, b):
    assert a[0] == b[0]
    for got, want in zip(a[1:], b[1:]):
        assert got.keys() == want.keys()
        for name in want:
            np.testing.assert_array_equal(got[name], want[name], err_msg=name)


def _record_threads(monkeypatch):
    """Thread ids of the encoder calls of training steps, in call order."""
    threads = []
    real = training_module.encoder_forward

    def spy(*args, **kwargs):
        threads.append(threading.get_ident())
        return real(*args, **kwargs)

    monkeypatch.setattr(training_module, "encoder_forward", spy)
    return threads


def _needs_blas_thread_controls():
    if autodiff_module._blas_thread_controls() is None:
        pytest.skip("numpy's BLAS does not export its thread-count functions")
    return autodiff_module._blas_thread_controls()


def test_split_rule_on_the_bench_shapes():
    assert training_module._SPLIT_ROWS <= 16 * 128
    assert training_module._split(16, 128) == [slice(0, 8), slice(8, 16)]  # pretrain bench batch
    assert training_module._split(16, 20) == [slice(0, 16)]  # finetune bench batch
    assert training_module._split(16, 39) == [slice(0, 16)]
    assert training_module._split(1, 4096) == [slice(0, 1)]
    assert training_module._split(3, 1024) == [slice(0, 1), slice(1, 3)]


@pytest.mark.parametrize("cpus, workers", [(1, 1), (2, 2), (64, 2)])
def test_worker_count_is_the_usable_cpus_up_to_two(cpus, workers):
    assert autodiff_module._worker_count(set(range(cpus))) == workers


def test_split_step_matches_whole_batch_step_and_reruns_bitwise(
    monkeypatch, toy_tokenizer, split_model_config, long_segments
):
    args = (monkeypatch, split_model_config, long_segments, toy_tokenizer)
    drawn = {}  # (seed, stream, step, row) -> that row's masks, once per draw
    calls = []
    real_draw = training_module.draw_dropout_masks

    def spy(config, length, key, rows):
        masks = real_draw(config, length, key, rows)
        calls.append((key[2], list(rows)))
        for i, row in enumerate(rows):
            drawn.setdefault(key + (row,), []).append([m[i] for m in masks])
        return masks

    monkeypatch.setattr(training_module, "draw_dropout_masks", spy)
    split = _pretrain_16x128(*args)
    _assert_bitwise(_pretrain_16x128(*args), split)

    monkeypatch.setattr(training_module, "_SPLIT_ROWS", 10**9)
    whole = _pretrain_16x128(*args)
    halves, batch = [list(range(8)), list(range(8, 16))], [list(range(16))]
    assert sorted(calls) == sorted([(step, rows) for step in (0, 1) for rows in halves * 2 + batch])
    assert len(drawn) == 2 * 16
    for key, draws in drawn.items():
        assert len(draws) == 3  # split, its rerun, whole
        for masks in draws[1:]:
            for got, want in zip(masks, draws[0]):
                np.testing.assert_array_equal(got, want, err_msg=str(key))
    first_split, first_whole = split[0][0].train_loss, whole[0][0].train_loss
    assert abs(first_split - first_whole) <= 1e-12 * abs(first_whole)
    split_grads, whole_grads = split[1], whole[1]
    assert split_grads.keys() == whole_grads.keys()
    scale = max(np.abs(g).max() for g in whole_grads.values())
    for name, want in whole_grads.items():
        # attn.bk's gradient is zero in exact arithmetic: both hold rounding noise.
        reference = scale if name.endswith("attn.bk") else np.abs(want).max()
        assert np.abs(split_grads[name] - want).max() <= 1e-12 * reference, name


def test_concurrent_halves_give_the_bits_of_halves_run_in_turn(
    monkeypatch, toy_tokenizer, split_model_config, long_segments
):
    _needs_blas_thread_controls()
    args = (monkeypatch, split_model_config, long_segments, toy_tokenizer)
    threads = _record_threads(monkeypatch)
    here = threading.get_ident()

    monkeypatch.setattr(autodiff_module.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    concurrent = _pretrain_16x128(*args)
    assert len(threads) == 4  # two steps of two halves, each with one half on a worker thread
    assert threads.count(here) == 2

    threads.clear()
    monkeypatch.setattr(autodiff_module.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    in_turn = _pretrain_16x128(*args)
    assert threads == [here] * 4
    _assert_bitwise(in_turn, concurrent)


def test_split_step_pins_blas_to_one_thread_and_restores_it(
    monkeypatch, toy_tokenizer, split_model_config, long_segments
):
    get_threads, set_threads = _needs_blas_thread_controls()
    args = (monkeypatch, split_model_config, long_segments, toy_tokenizer)
    during = []
    real_forward = training_module.encoder_forward

    def spy(*a, **k):
        during.append(get_threads())
        return real_forward(*a, **k)

    monkeypatch.setattr(training_module, "encoder_forward", spy)
    original = get_threads()
    try:
        set_threads(2)
        _pretrain_16x128(*args)
        assert during == [1] * 4
        assert get_threads() == 2

        # A NaN gradient in the second half: found after the halves, in the sum.
        _poison_gradient(monkeypatch, "layer0.ff.w1", at_call=2)
        with pytest.raises(TrainingDivergedError, match=r"parameter 'layer0\.ff\.w1' at step 1$"):
            _pretrain_16x128(*args)
        assert get_threads() == 2

        # A half that raises on the worker thread.
        real_loss = training_module.cross_entropy

        def poisoned(logits, targets):
            if threading.current_thread() is not threading.main_thread():
                return Tensor(np.float64("nan"))
            return real_loss(logits, targets)

        monkeypatch.setattr(training_module, "cross_entropy", poisoned)
        with pytest.raises(TrainingDivergedError, match="non-finite MLM loss at step 1"):
            _pretrain_16x128(*args)
        assert get_threads() == 2
    finally:
        set_threads(original)


def test_without_blas_thread_controls_the_halves_run_in_turn(
    monkeypatch, toy_tokenizer, split_model_config, long_segments
):
    monkeypatch.setattr(autodiff_module, "_blas_thread_controls", lambda: None)
    threads = _record_threads(monkeypatch)
    history, _, _ = _pretrain_16x128(monkeypatch, split_model_config, long_segments, toy_tokenizer)
    assert threads == [threading.get_ident()] * 4
    assert all(np.isfinite(record.train_loss) for record in history)


def test_outputs_do_not_depend_on_the_blas_thread_count(toy_docs, toy_tokenizer, toy_base_checkpoint):
    """Whole-batch steps, validation passes and inference give the same bits at one and two BLAS threads."""
    get_threads, set_threads = _needs_blas_thread_controls()
    ckpt = toy_base_checkpoint
    sequences = [encode_for_classification(d, toy_tokenizer, ckpt.config.max_positions) for d in toy_docs[:40]]
    segments = pack_segments((toy_tokenizer.encode(d.text) for d in toy_docs[:40]), toy_tokenizer.sep_id, 32)
    config = TrainingConfig(learning_rate=1e-3, batch_size=16, total_steps=4, eval_checkpoints=2, seed=9)
    longest = max(len(encode_for_classification(d, toy_tokenizer, ckpt.config.max_positions)) for d in toy_docs[40:104])
    assert training_module._split(16, longest) == [slice(0, 16)]  # whole-batch steps

    def run(threads):
        set_threads(threads)
        result = finetune_classifier(config, ckpt, "binary", toy_docs[40:104], toy_docs[104:140], toy_tokenizer)
        vectors = cls_vectors(ckpt.params, ckpt.config, sequences, toy_tokenizer.pad_id, batch_size=16)
        loss = evaluate_mlm(ckpt.params, ckpt.config, segments, toy_tokenizer, batch_size=8)
        assert get_threads() == threads
        history = [(r.step, r.train_loss, r.validation_loss) for r in result.history]
        return history, {n: p.data for n, p in result.best_checkpoint.params.items()}, vectors, loss

    original = get_threads()
    try:
        one, two = run(1), run(2)
    finally:
        set_threads(original)
    assert one[0] == two[0]
    for name, want in one[1].items():
        np.testing.assert_array_equal(two[1][name], want, err_msg=name)
    np.testing.assert_array_equal(two[2], one[2])
    assert one[3] == two[3]


# -- validation on the second core ---------------------------------------------------


def _two_usable_cpus(monkeypatch):
    _needs_blas_thread_controls()
    monkeypatch.setattr(autodiff_module.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


def _finetune_outputs(out_dir, config, docs, tokenizer, checkpoint) -> dict:
    """Every output of a binary fine-tuning run: each .npz array as (dtype, shape, bytes), every other file's bytes."""
    finetune_classifier(config, checkpoint, "binary", docs[:128], docs[128:228], tokenizer, out_dir=out_dir)
    outputs = {}
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        name = str(path.relative_to(out_dir))
        if path.suffix == ".npz":
            with np.load(path) as arrays:
                for key in arrays:
                    outputs[f"{name}:{key}"] = (arrays[key].dtype.str, arrays[key].shape, arrays[key].tobytes())
        else:
            outputs[name] = path.read_bytes()
    return outputs


@pytest.mark.parametrize("batch_size, parts", [(16, 1), (64, 2)])
def test_background_validation_writes_the_bytes_of_validation_in_turn(
    monkeypatch, tmp_path, toy_docs, toy_tokenizer, toy_base_checkpoint, batch_size, parts
):
    """One-part and split steps: the same files whether the job that writes a step's checkpoint and validates it runs
    on the worker or on the calling thread, and each step file holds the weights of its step."""
    _two_usable_cpus(monkeypatch)
    config = TrainingConfig(
        learning_rate=1e-3, batch_size=batch_size, total_steps=6, eval_checkpoints=3, log_every=1, seed=4
    )
    splits, validation_threads, write_threads, weights_at = [], [], [], {}
    real_split, real_logits = training_module._split, evaluation_module.batched_cls_logits
    real_step, real_save = training_module._train_step, training_module.save_checkpoint

    def train_step(optimizer, *args):
        loss = real_step(optimizer, *args)
        weights_at[args[2] + 1] = {name: p.data.copy() for name, p in optimizer.params.items()}
        return loss

    def save(checkpoint, path):
        write_threads.append(threading.get_ident())
        return real_save(checkpoint, path)

    def split(batch, length):
        rows = real_split(batch, length)
        splits.append(len(rows))
        return rows

    def logits(*args, **kwargs):
        validation_threads.append(threading.get_ident())
        return real_logits(*args, **kwargs)

    monkeypatch.setattr(training_module, "_split", split)
    monkeypatch.setattr(evaluation_module, "batched_cls_logits", logits)
    monkeypatch.setattr(training_module, "_train_step", train_step)
    monkeypatch.setattr(training_module, "save_checkpoint", save)
    here = threading.get_ident()
    on_worker = _finetune_outputs(tmp_path / "worker", config, toy_docs, toy_tokenizer, toy_base_checkpoint)
    assert splits == [parts] * 6
    assert len(validation_threads) == 3 and here not in validation_threads
    assert len(write_threads) == 4 and here not in write_threads[:3] and write_threads[3] == here  # best.npz here

    validation_threads.clear()
    write_threads.clear()
    monkeypatch.setattr(autodiff_module, "_worker_count", lambda cpus: 1)
    in_turn = _finetune_outputs(tmp_path / "in_turn", config, toy_docs, toy_tokenizer, toy_base_checkpoint)
    assert validation_threads == [here] * 3 and write_threads == [here] * 4
    for step in (2, 4, 6):
        for name, want in weights_at[step].items():
            key = f"checkpoints/step_{step:06d}.npz:param:{name}"
            assert in_turn[key] == on_worker[key] == (want.dtype.str, want.shape, want.tobytes()), key

    assert sorted(on_worker) == sorted(in_turn)
    assert len([name for name in on_worker if name.endswith("__meta__")]) == 4  # three steps and best.npz
    for name, want in in_turn.items():
        assert on_worker[name] == want, name
    history = on_worker["loss_history.csv"].decode().splitlines()
    assert [row.split(",")[0] for row in history[1:]] == ["1", "2", "3", "4", "5", "6"]
    assert [row.endswith(",") for row in history[1:]] == [True, False] * 3


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_validation_pass_raises_on_the_caller(
    monkeypatch, toy_docs, toy_tokenizer, toy_base_checkpoint, workers
):
    _two_usable_cpus(monkeypatch)
    monkeypatch.setattr(autodiff_module, "_worker_count", lambda cpus: workers)
    calls = []
    real = evaluation_module.batched_cls_logits

    def fails_second(*args, **kwargs):
        calls.append(threading.get_ident())
        if len(calls) == 2:
            raise FloatingPointError("validation pass 2 failed")
        return real(*args, **kwargs)

    monkeypatch.setattr(evaluation_module, "batched_cls_logits", fails_second)
    config = TrainingConfig(learning_rate=1e-3, batch_size=16, total_steps=6, eval_checkpoints=3, seed=4)
    before = threading.active_count()
    with pytest.raises(FloatingPointError, match="^validation pass 2 failed$"):
        finetune_classifier(config, toy_base_checkpoint, "binary", toy_docs[:64], toy_docs[64:100], toy_tokenizer)
    assert threading.active_count() == before
    assert len(calls) == 2 and (threading.get_ident() in calls) == (workers == 1)


@pytest.mark.parametrize("workers", [1, 2])
def test_a_failing_checkpoint_write_raises_on_the_caller(
    monkeypatch, tmp_path, toy_docs, toy_tokenizer, toy_base_checkpoint, workers
):
    """The second step file's write error surfaces when its job is collected, after the next evaluation step."""
    _two_usable_cpus(monkeypatch)
    monkeypatch.setattr(autodiff_module, "_worker_count", lambda cpus: workers)
    paths, steps = [], []
    real_step = training_module._train_step

    def fails_second(checkpoint, path):
        paths.append(path)
        if len(paths) == 2:
            raise PermissionError(f"cannot write {path}")
        return path

    def train_step(*args):
        steps.append(args[3])
        return real_step(*args)

    monkeypatch.setattr(training_module, "save_checkpoint", fails_second)
    monkeypatch.setattr(training_module, "_train_step", train_step)
    config = TrainingConfig(learning_rate=1e-3, batch_size=16, total_steps=6, eval_checkpoints=3, seed=4)
    before = threading.active_count()
    second = tmp_path / "checkpoints" / "step_000004.npz"
    with pytest.raises(PermissionError, match=f"^cannot write {second}$"):
        finetune_classifier(
            config, toy_base_checkpoint, "binary", toy_docs[:64], toy_docs[64:100], toy_tokenizer, out_dir=tmp_path
        )
    assert threading.active_count() == before
    assert paths == [tmp_path / "checkpoints" / "step_000002.npz", second] and steps == list(range(6))


def test_no_thread_outlives_fine_tuning(monkeypatch, toy_docs, toy_tokenizer, toy_base_checkpoint):
    """Not after a run, nor after a step diverges while a validation pass is in flight."""
    _two_usable_cpus(monkeypatch)
    config = TrainingConfig(learning_rate=1e-3, batch_size=16, total_steps=6, eval_checkpoints=3, seed=4)
    args = (config, toy_base_checkpoint, "binary", toy_docs[:64], toy_docs[64:100], toy_tokenizer)
    before = threading.active_count()
    finetune_classifier(*args)
    assert threading.active_count() == before

    started, release = threading.Event(), threading.Event()
    real = evaluation_module.batched_cls_logits
    seen = []

    def held(*a, **k):
        started.set()
        assert release.wait(timeout=30)
        return real(*a, **k)

    def diverges_at_step_3(grads, step):
        if step == 3:  # the pass of evaluation step 2 waits for `release`, so it is in flight
            seen.append((started.wait(timeout=30), threading.active_count()))
            release.set()
            raise TrainingDivergedError("non-finite gradient at step 3")
        _check_gradients(grads, step)

    monkeypatch.setattr(evaluation_module, "batched_cls_logits", held)
    monkeypatch.setattr(training_module, "_check_gradients", diverges_at_step_3)
    with pytest.raises(TrainingDivergedError, match="step 3"):
        finetune_classifier(*args)
    assert seen == [(True, before + 1)]
    assert threading.active_count() == before


def test_a_run_starts_one_thread(
    monkeypatch, toy_docs, toy_tokenizer, toy_base_checkpoint, split_model_config, long_segments
):
    """A split-step pretraining run with a held-out pass, and a fine-tuning run with its validation jobs, each put all
    their second-core work on one worker thread, joined when the run ends."""
    _two_usable_cpus(monkeypatch)
    started, halves = [], _record_threads(monkeypatch)
    real_start = threading.Thread.start
    monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread.name) or real_start(thread))
    before = threading.active_count()

    config = TrainingConfig(learning_rate=1e-3, batch_size=16, total_steps=2, log_every=1, seed=5)
    result = pretrain_mlm(config, long_segments, split_model_config, toy_tokenizer, val_segments=long_segments[:4])
    assert len(halves) == 4 and len(set(halves)) == 2  # two split steps, one half of each on the worker
    assert all(record.validation_loss is not None for record in result.history)
    assert len(started) == 1 and threading.active_count() == before

    started.clear()
    config = TrainingConfig(learning_rate=1e-3, batch_size=8, total_steps=6, eval_checkpoints=3, seed=4)
    finetune_classifier(config, toy_base_checkpoint, "binary", toy_docs[:64], toy_docs[64:100], toy_tokenizer)
    assert len(started) == 1 and threading.active_count() == before


def test_at_most_two_threads_run_the_encoder(monkeypatch, toy_docs, toy_tokenizer, toy_base_checkpoint):
    """Split steps and validation passes of two batches each: the halves and the pass never make three."""
    _two_usable_cpus(monkeypatch)
    lock = threading.Lock()
    inside = {"now": 0, "peak": 0}

    def counted(forward):
        def wrapper(*args, **kwargs):
            with lock:
                inside["now"] += 1
                inside["peak"] = max(inside["peak"], inside["now"])
            try:
                time.sleep(0.005)  # long enough for calls that may overlap to do so
                return forward(*args, **kwargs)
            finally:
                with lock:
                    inside["now"] -= 1

        return wrapper

    monkeypatch.setattr(training_module, "encoder_forward", counted(training_module.encoder_forward))
    monkeypatch.setattr(evaluation_module, "encoder_forward", counted(evaluation_module.encoder_forward))
    config = TrainingConfig(learning_rate=1e-3, batch_size=64, total_steps=6, eval_checkpoints=6, seed=4)
    assert training_module._split(64, 16) == [slice(0, 32), slice(32, 64)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # many more thread switches, so an interleaving that breaks the bound is likely
    try:
        finetune_classifier(config, toy_base_checkpoint, "binary", toy_docs[:128], toy_docs[128:228], toy_tokenizer)
    finally:
        sys.setswitchinterval(interval)
    assert inside == {"now": 0, "peak": 2}
