import numpy as np
import pytest

from domainlm.autodiff import GraphError, Tensor
from domainlm.model import (
    Checkpoint,
    ModelBundle,
    ModelConfig,
    ModelError,
    backward,
    cls_logits_from_hidden,
    cross_entropy,
    encoder_forward,
    init_parameters,
    load_checkpoint,
    mlm_logits_from_hidden,
    parameter_shapes,
    predict_top_k,
    save_checkpoint,
    with_fresh_classifier,
)
from domainlm.tokenizer import Tokenizer

from conftest import finite_difference_gradients, max_relative_error


@pytest.fixture(scope="module")
def tiny_config():
    return ModelConfig(
        num_layers=2, num_heads=2, hidden_dim=16, ff_dim=32,
        vocab_size=64, max_positions=8, num_classes=2, dropout_rate=0.0,
    )


@pytest.fixture
def tiny_params(tiny_config):
    return init_parameters(tiny_config, seed=3)


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def _hidden(ids, params, config):
    """(L, H) final hidden states of one unpadded sequence."""
    return encoder_forward(params, config, np.array([ids], dtype=np.int64))[0]


def _mlm_logits(ids, positions, params, config):
    return mlm_logits_from_hidden(_hidden(ids, params, config)[positions], params, config).data


def _cls_logits(ids, params, config):
    return cls_logits_from_hidden(_hidden(ids, params, config)[[0]], params, config).data[0]


# -- config ---------------------------------------------------------------------


def test_config_requires_divisible_heads():
    with pytest.raises(ModelError, match="divisible"):
        ModelConfig(num_layers=1, num_heads=3, hidden_dim=16, ff_dim=8, vocab_size=10).validate()


def test_config_rejects_nonpositive_dims():
    with pytest.raises(ModelError, match="num_layers"):
        ModelConfig(num_layers=0, num_heads=1, hidden_dim=4, ff_dim=4, vocab_size=10).validate()


# -- forward pass ----------------------------------------------------------------


def test_attention_rows_are_distributions(tiny_config, tiny_params):
    sink = []
    ids = np.array([[1, 7, 13, 25, 2, 9]])
    encoder_forward(tiny_params, tiny_config, ids, attention_sink=sink)
    assert len(sink) == tiny_config.num_layers
    for attn in sink:
        assert attn.shape[:2] == (1, tiny_config.num_heads)
        np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-6)
        assert (attn >= 0).all()


def test_zeroed_attention_projections_give_uniform_weights(tiny_config, tiny_params):
    for i in range(tiny_config.num_layers):
        for name in ("wq", "wk", "bq", "bk"):
            tiny_params[f"layer{i}.attn.{name}"].data[:] = 0.0
    sink = []
    ids = np.array([[1, 7, 13, 25, 2]])
    encoder_forward(tiny_params, tiny_config, ids, attention_sink=sink)
    for attn in sink:
        np.testing.assert_allclose(attn, 1.0 / 5.0, atol=1e-12)


def test_permuting_positions_with_zero_position_embeddings(tiny_config, tiny_params):
    tiny_params["pos_emb"].data[:] = 0.0
    base = np.array([3, 10, 20, 30, 40], dtype=np.int64)
    swapped = base.copy()
    swapped[[2, 3]] = swapped[[3, 2]]
    out_base = _hidden(base, tiny_params, tiny_config).data
    out_swapped = _hidden(swapped, tiny_params, tiny_config).data
    np.testing.assert_allclose(out_swapped[2], out_base[3], atol=1e-12)
    np.testing.assert_allclose(out_swapped[3], out_base[2], atol=1e-12)
    for pos in (0, 1, 4):
        np.testing.assert_allclose(out_swapped[pos], out_base[pos], atol=1e-12)


def test_forward_is_deterministic(tiny_config, tiny_params):
    ids = [5, 6, 7, 8]
    a = _hidden(ids, tiny_params, tiny_config).data
    b = _hidden(ids, tiny_params, tiny_config).data
    np.testing.assert_array_equal(a, b)


def test_overlong_sequence_rejected(tiny_config, tiny_params):
    with pytest.raises(ModelError, match="max_positions"):
        encoder_forward(tiny_params, tiny_config, np.arange(9)[None, :])


def test_invalid_token_id_rejected(tiny_config, tiny_params):
    with pytest.raises(ModelError, match="64"):
        encoder_forward(tiny_params, tiny_config, np.array([[1, 64]]))


def test_empty_sequence_rejected(tiny_config, tiny_params):
    with pytest.raises(ModelError, match="empty"):
        encoder_forward(tiny_params, tiny_config, np.zeros((1, 0), dtype=np.int64))


def test_padding_does_not_change_cls_logits(tiny_config, tiny_params):
    short = np.array([[1, 9, 17, 33]])
    padded = np.array([[1, 9, 17, 33, 3, 3, 3, 3]])
    mask = np.array([[True, True, True, True, False, False, False, False]])
    hidden_short = encoder_forward(tiny_params, tiny_config, short)
    hidden_padded = encoder_forward(tiny_params, tiny_config, padded, pad_mask=mask)
    logits_short = cls_logits_from_hidden(hidden_short[:, 0], tiny_params, tiny_config).data
    logits_padded = cls_logits_from_hidden(hidden_padded[:, 0], tiny_params, tiny_config).data
    np.testing.assert_allclose(logits_short, logits_padded, atol=1e-12)


# -- prediction heads --------------------------------------------------------------


def test_mlm_logit_softmax_rows_sum_to_one(tiny_config, tiny_params):
    logits = _mlm_logits([1, 2, 3, 4], [1, 3], tiny_params, tiny_config)
    assert logits.shape == (2, tiny_config.vocab_size)
    np.testing.assert_allclose(_softmax(logits).sum(axis=-1), 1.0, atol=1e-9)


def test_zero_untied_projection_gives_uniform_distribution():
    config = ModelConfig(
        num_layers=1, num_heads=2, hidden_dim=16, ff_dim=32, vocab_size=32,
        max_positions=8, dropout_rate=0.0, tie_mlm_weights=False,
    )
    params = init_parameters(config, seed=0)
    params["mlm.w"].data[:] = 0.0
    params["mlm.bias"].data[:] = 0.0
    logits = _mlm_logits([1, 2, 3], [0, 1, 2], params, config)
    probs = _softmax(logits)
    np.testing.assert_allclose(probs, 1.0 / 32, atol=1e-12)
    loss = cross_entropy(Tensor(logits), np.array([4, 5, 6]))
    np.testing.assert_allclose(float(loss.data), np.log(32), atol=1e-12)


def test_zero_classifier_weights_give_uniform_classes(tiny_config, tiny_params):
    tiny_params["cls.w"].data[:] = 0.0
    tiny_params["cls.b"].data[:] = 0.0
    logits = _cls_logits([1, 2, 3], tiny_params, tiny_config)
    assert logits.shape == (2,)
    np.testing.assert_allclose(_softmax(logits), 0.5, atol=1e-12)


def test_cls_logit_length_matches_num_classes(tiny_config, tiny_params):
    assert _cls_logits([1, 2], tiny_params, tiny_config).shape == (tiny_config.num_classes,)


def test_classifier_head_shape_mismatch_rejected(tiny_config, tiny_params):
    bad = dict(tiny_params)
    bad["cls.w"] = Tensor(np.zeros((tiny_config.hidden_dim, 5)), requires_grad=True)
    with pytest.raises(ModelError, match="classifier"):
        _cls_logits([1, 2], bad, tiny_config)


def test_identical_cls_vectors_give_identical_logits(tiny_config, tiny_params):
    hidden = _hidden([4, 5, 6], tiny_params, tiny_config)[[0]]
    a = cls_logits_from_hidden(hidden, tiny_params, tiny_config).data
    b = cls_logits_from_hidden(hidden, tiny_params, tiny_config).data
    np.testing.assert_array_equal(a, b)


# -- gradients ----------------------------------------------------------------------


def test_cross_entropy_gradient_is_softmax_minus_onehot():
    logits = Tensor(np.zeros((1, 4)), requires_grad=True)
    loss = cross_entropy(logits, np.array([1]))
    loss.backward()
    expected = np.full((1, 4), 0.25)
    expected[0, 1] -= 1.0
    np.testing.assert_allclose(logits.grad, expected, atol=1e-12)


def test_gradients_match_finite_differences_small_model():
    config = ModelConfig(
        num_layers=1, num_heads=2, hidden_dim=8, ff_dim=16, vocab_size=24,
        max_positions=6, num_classes=2, dropout_rate=0.0,
    )
    params = init_parameters(config, seed=1)
    ids = np.array([[1, 5, 9, 13, 17]])
    mask_rows = np.array([0, 0])
    mask_cols = np.array([1, 3])
    targets = np.array([5, 13])

    def loss_value():
        hidden = encoder_forward(params, config, ids)
        mlm = cross_entropy(mlm_logits_from_hidden(hidden[mask_rows, mask_cols], params, config), targets)
        cls = cross_entropy(cls_logits_from_hidden(hidden[:, 0], params, config), np.array([1]))
        return mlm + cls

    loss = loss_value()
    grads = backward(loss, params)
    fd = finite_difference_gradients(lambda: float(loss_value().data), params)
    for name in params:
        err = max_relative_error(grads[name], fd[name])
        assert err < 1e-4, f"{name}: relative error {err}"


def test_backward_before_forward_raises(tiny_params):
    with pytest.raises(GraphError):
        backward(Tensor(1.0), tiny_params)


def test_constant_loss_gives_zero_gradients(tiny_config, tiny_params):
    loss = (tiny_params["tok_emb"] * 0.0).sum()
    grads = backward(loss, tiny_params)
    for g in grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))


# -- predict_top_k -------------------------------------------------------------------


@pytest.fixture(scope="module")
def bundle(tiny_config):
    tok = Tokenizer.train(["alpha beta gamma delta epsilon zeta"] * 3, 280)
    config = ModelConfig(
        num_layers=1, num_heads=2, hidden_dim=16, ff_dim=32,
        vocab_size=tok.vocab_size, max_positions=32, dropout_rate=0.0,
    )
    return ModelBundle(init_parameters(config, seed=9), config, tok)


def test_predict_top_k_contract(bundle):
    rows = predict_top_k("alpha [MASK] gamma", 5, bundle)
    assert len(rows) == 5
    scores = [s for _, s in rows]
    assert all(0.0 < s < 1.0 for s in scores)
    assert scores == sorted(scores, reverse=True)


def test_predict_top_one(bundle):
    rows = predict_top_k("alpha [MASK]", 1, bundle)
    assert len(rows) == 1


def test_predict_requires_exactly_one_sentinel(bundle):
    with pytest.raises(ModelError, match="exactly one"):
        predict_top_k("no sentinel here", 3, bundle)
    with pytest.raises(ModelError, match="exactly one"):
        predict_top_k("[MASK] two [MASK]", 3, bundle)


def test_predict_rejects_bad_k(bundle):
    with pytest.raises(ModelError, match="k"):
        predict_top_k("alpha [MASK]", 0, bundle)


# -- checkpoints ----------------------------------------------------------------------


def test_checkpoint_roundtrip(tmp_path, tiny_config, tiny_params):
    ckpt = Checkpoint(tiny_config, tiny_params, tokenizer_hash="abc123", extra={"objective": "mlm"})
    path = save_checkpoint(ckpt, tmp_path / "model.npz")
    loaded = load_checkpoint(path)
    assert loaded.config == tiny_config
    assert loaded.tokenizer_hash == "abc123"
    assert loaded.extra["objective"] == "mlm"
    for name, p in tiny_params.items():
        np.testing.assert_array_equal(loaded.params[name].data, p.data)


def test_checkpoint_shape_validation(tmp_path, tiny_config, tiny_params):
    ckpt = Checkpoint(tiny_config, dict(tiny_params), tokenizer_hash="x")
    ckpt.params["tok_emb"] = Tensor(np.zeros((1, 1)), requires_grad=True)
    path = save_checkpoint(ckpt, tmp_path / "bad.npz")
    with pytest.raises(ModelError, match="tok_emb"):
        load_checkpoint(path)


def test_checkpoint_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_checkpoint(tmp_path / "missing.npz")


def test_checkpoint_fingerprint_tracks_content(tiny_config, tiny_params):
    ckpt = Checkpoint(tiny_config, tiny_params, tokenizer_hash="x")
    base = ckpt.fingerprint()
    assert base == ckpt.fingerprint()
    original = ckpt.params["tok_emb"].data[0, 0]
    ckpt.params["tok_emb"].data[0, 0] = original + 1.0
    assert ckpt.fingerprint() != base
    ckpt.params["tok_emb"].data[0, 0] = original
    assert ckpt.fingerprint() == base


def test_fresh_classifier_resets_head_keeps_encoder(tiny_config, tiny_params):
    ckpt = Checkpoint(tiny_config, tiny_params, tokenizer_hash="x")
    config, params = with_fresh_classifier(ckpt, num_classes=4, seed=11)
    assert config.num_classes == 4
    assert params["cls.w"].data.shape == (tiny_config.hidden_dim, 4)
    np.testing.assert_array_equal(params["tok_emb"].data, tiny_params["tok_emb"].data)
    assert params["tok_emb"] is not tiny_params["tok_emb"]


def test_parameter_shapes_cover_all_params(tiny_config, tiny_params):
    shapes = parameter_shapes(tiny_config)
    assert set(shapes) == set(tiny_params)
    for name, shape in shapes.items():
        assert tiny_params[name].data.shape == shape
