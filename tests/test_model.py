import inspect
import json
import tracemalloc
import zipfile
from dataclasses import asdict, replace

import numpy as np
import pytest

import domainlm.model as fused
import unfused_encoder
from domainlm.autodiff import GraphError, Tensor, _apply_keep, attention
from domainlm.data import MaskedSegment, assemble_mlm_batch
from domainlm.model import (
    CHECKPOINT_FORMAT,
    Checkpoint,
    ModelConfig,
    ModelError,
    backward,
    cls_logits_from_hidden,
    cross_entropy,
    draw_dropout_masks,
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
from domainlm.training import AdamW, TrainingConfig

from conftest import as_leaves, finite_difference_gradients, max_relative_error


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


def test_zeroed_attention_projections_give_uniform_weights(tiny_config):
    """With q = k = 0 every score is equal, so every attention probability is exactly 1/L."""
    zeros = Tensor(np.zeros((2, 5, tiny_config.hidden_dim)))
    values = Tensor(np.random.default_rng(0).normal(size=zeros.shape))
    _, probs = attention(zeros, zeros, values, tiny_config.num_heads)
    assert probs.shape == (2, tiny_config.num_heads, 5, 5)
    np.testing.assert_array_equal(probs, 1.0 / 5.0)


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
    params = as_leaves(init_parameters(config, seed=1))
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
    params = as_leaves(tiny_params)
    loss = (params["tok_emb"] * 0.0).sum()
    grads = backward(loss, params)
    for g in grads.values():
        np.testing.assert_array_equal(g, np.zeros_like(g))


def _mlm_batch(config, batch, length, seed):
    """Random ids with the last row padded from the middle, and masked-token targets."""
    rng = np.random.default_rng(seed)
    ids = rng.integers(5, config.vocab_size, size=(batch, length))
    pad_mask = np.ones((batch, length), dtype=bool)
    pad_mask[-1, length // 2 :] = False
    ids[~pad_mask] = 0
    per_row = max(1, length * 15 // 100)
    rows = np.repeat(np.arange(batch), per_row)
    cols = np.concatenate([
        rng.choice(int(row.sum()), size=per_row, replace=False) for row in pad_mask
    ])
    targets = rng.integers(5, config.vocab_size, size=rows.size)
    return ids, pad_mask, rows, cols, targets


def _encode(impl, params, config, ids, pad_mask, dropout_key):
    """The encoder's output with dropout keyed by `dropout_key`: both encoders read
    the same masks of `draw_dropout_masks`."""
    masks = draw_dropout_masks(config, ids.shape[1], dropout_key, range(len(ids)))
    return impl.encoder_forward(params, config, ids, pad_mask=pad_mask, dropout_masks=masks)


def _mlm_loss(impl, params, config, batch, dropout_key):
    ids, pad_mask, rows, cols, targets = batch
    hidden = _encode(impl, params, config, ids, pad_mask, dropout_key)
    return impl.cross_entropy(impl.mlm_logits_from_hidden(hidden[rows, cols], params, config), targets)


def test_fused_training_matches_unfused_encoder_over_20_steps():
    """The benchmark's pretraining shape, float64, with dropout and a padded row."""
    config = ModelConfig(
        num_layers=4, num_heads=4, hidden_dim=128, ff_dim=512, vocab_size=1024,
        max_positions=128, dropout_rate=0.1,
    )
    batch = _mlm_batch(config, 16, 128, seed=0)
    runs = {}
    for impl in (fused, unfused_encoder):
        params = as_leaves(init_parameters(config, seed=1, include_classifier=False))
        optimizer = AdamW(params, TrainingConfig(learning_rate=1e-3))
        losses = []
        for step in range(20):
            loss = _mlm_loss(impl, params, config, batch, (7, step))
            optimizer.step(backward(loss, params), 1e-3)
            losses.append(float(loss.data))
        runs[impl] = np.array(losses), {name: p.data for name, p in params.items()}
    (fused_losses, fused_params), (losses, params) = runs[fused], runs[unfused_encoder]
    assert np.max(np.abs(fused_losses - losses) / np.abs(losses)) < 1e-12
    # The key biases get an exactly-zero gradient (softmax ignores a shift
    # shared by all keys), so their values are rounding noise of both paths;
    # they are held to the scale of the whole parameter set instead.
    scale = max(np.abs(p).max() for p in params.values())
    for name, p in params.items():
        denominator = scale if name.endswith("attn.bk") else np.abs(p).max()
        assert np.abs(fused_params[name] - p).max() < 1e-12 * denominator, name


@pytest.mark.parametrize("pooler_tanh", [False, True])
def test_fused_gradients_match_unfused_encoder(pooler_tanh):
    config = ModelConfig(
        num_layers=2, num_heads=2, hidden_dim=16, ff_dim=32, vocab_size=64, max_positions=12,
        num_classes=3, dropout_rate=0.2, tie_mlm_weights=False, pooler_tanh=pooler_tanh,
    )
    ids, pad_mask, rows, cols, targets = _mlm_batch(config, 3, 12, seed=4)
    grads = []
    for impl in (fused, unfused_encoder):
        params = as_leaves(init_parameters(config, seed=2))
        hidden = _encode(impl, params, config, ids, pad_mask, (9,))
        mlm = impl.cross_entropy(impl.mlm_logits_from_hidden(hidden[rows, cols], params, config), targets)
        cls = impl.cross_entropy(impl.cls_logits_from_hidden(hidden[:, 0], params, config), np.array([0, 2, 1]))
        grads.append(backward(mlm + cls, params))
    for name in grads[0]:
        np.testing.assert_allclose(grads[0][name], grads[1][name], rtol=1e-10, atol=1e-13, err_msg=name)


def _tape_nodes(loss):
    """Every tensor the tape of `loss` reaches, `loss` included."""
    nodes, stack, seen = [], [loss], set()
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            nodes.append(node)
            stack.extend(node._parents)
    return nodes


def _record_vjp_calls(nodes) -> dict:
    """Wrap the VJP of each interior node of `nodes`; the dict lists, per node id, what each call returned."""
    calls = {}
    for node in nodes:
        if node._vjp is not None:
            calls[id(node)] = record = []

            def wrapped(g, vjp=node._vjp, record=record):
                record.append(vjp(g))
                return record[-1]

            node._vjp = wrapped
    return calls


@pytest.mark.parametrize("objective", ["mlm", "classifier"])
def test_float32_step_keeps_every_node_and_gradient_float32(objective):
    config = ModelConfig(
        num_layers=2, num_heads=2, hidden_dim=16, ff_dim=32, vocab_size=64, max_positions=8,
        dropout_rate=0.1, dtype="float32",
    )
    params = as_leaves(init_parameters(config, seed=3))
    ids, pad_mask, rows, cols, targets = batch = _mlm_batch(config, 3, 8, seed=1)
    if objective == "mlm":
        loss = _mlm_loss(fused, params, config, batch, (0,))
    else:
        masks = draw_dropout_masks(config, ids.shape[1], (0,), range(len(ids)))
        hidden = encoder_forward(params, config, ids, pad_mask=pad_mask, dropout_masks=masks)
        loss = cross_entropy(cls_logits_from_hidden(hidden[:, 0], params, config), np.array([0, 1, 1]))

    nodes = _tape_nodes(loss)
    assert {n.data.dtype for n in nodes} == {np.dtype(np.float32)}

    calls = _record_vjp_calls(nodes)
    grads = backward(loss, params)
    contributions = [c for returns in calls.values() for returned in returns for c in returned]
    assert contributions
    assert {c.dtype for c in contributions} == {np.dtype(np.float32)}
    assert {g.dtype for g in grads.values()} == {np.dtype(np.float32)}


# -- dropout -----------------------------------------------------------------------


def _dropout_config(rate=0.1, dtype="float64"):
    """The benchmark's pretraining shape: 4 layers, 4 heads, hidden 128."""
    return ModelConfig(
        num_layers=4, num_heads=4, hidden_dim=128, ff_dim=512, vocab_size=64, max_positions=128,
        dropout_rate=rate, dtype=dtype,
    )


@pytest.mark.parametrize("rate", [0.1, 0.5])
def test_each_dropout_site_keeps_a_binomial_share(rate):
    config = _dropout_config(rate)
    masks = draw_dropout_masks(config, 128, (11, 0xD7, 3), range(16))
    assert [m.shape for m in masks] == [(16, 128, 128)] + [(16, 4, 128, 128), (16, 128, 128), (16, 128, 128)] * 4
    keep = 1.0 - round(rate * 2**16) / 2**16
    for site, m in enumerate(masks):
        assert m.dtype == bool
        sigma = np.sqrt(m.size * keep * (1.0 - keep))
        assert abs(np.count_nonzero(m) - m.size * keep) <= 5 * sigma, site


def test_dropout_drops_the_same_positions_in_float32_and_float64():
    key, rows = (4, 0xD7, 0), range(3)
    masks = {dtype: draw_dropout_masks(_dropout_config(dtype=dtype), 40, key, rows) for dtype in ("float32", "float64")}
    for single, double in zip(masks["float32"], masks["float64"]):
        np.testing.assert_array_equal(single, double)
        for dtype in ("float32", "float64"):
            dropped = _apply_keep(np.ones(single.shape, dtype=dtype), single, 1.0 / 0.9)
            assert dropped.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(dropped == 0, ~single)


def test_a_rows_dropout_masks_do_not_depend_on_the_other_rows():
    config = _dropout_config()
    key = (4, 0xD7, 2)
    batch = draw_dropout_masks(config, 128, key, range(16))
    for rows in ([5], [15, 3], range(8, 16)):
        for part, whole in zip(draw_dropout_masks(config, 128, key, rows), batch):
            np.testing.assert_array_equal(part, whole[list(rows)])
    other_step = draw_dropout_masks(config, 128, (4, 0xD7, 3), [5])
    assert not np.array_equal(other_step[1], batch[1][[5]])


def test_float_dropout_masks_are_refused():
    """A float mask would be multiplied in and then scaled a second time."""
    config = _dropout_config()
    params = init_parameters(config, seed=0)
    ids = np.full((2, 8), 5)
    masks = draw_dropout_masks(config, 8, (0,), range(2))
    masks[2] = masks[2] / 0.9
    with pytest.raises(ModelError, match="dropout mask 2 has dtype float64"):
        encoder_forward(params, config, ids, dropout_masks=masks)


def _tape_bytes(config, masks):
    """Bytes allocated by a taped forward and still held while its output lives."""
    params = as_leaves(init_parameters(config, seed=0))
    ids = np.random.default_rng(0).integers(0, config.vocab_size, size=(4, 64))
    tracemalloc.start()
    try:
        hidden = encoder_forward(params, config, ids, dropout_masks=masks)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert hidden.requires_grad
    return held


def test_dropout_costs_the_tape_only_its_bits():
    """The masks are drawn beforehand, so dropout may add no float array to the tape."""
    config = ModelConfig(
        num_layers=2, num_heads=4, hidden_dim=64, ff_dim=256, vocab_size=128, max_positions=64, dropout_rate=0.1,
    )
    masks = draw_dropout_masks(config, 64, (3,), range(4))
    gap = _tape_bytes(config, masks) - _tape_bytes(replace(config, dropout_rate=0.0), None)
    assert gap <= 16 * 1024


@pytest.mark.parametrize("select", [False, True])
def test_every_layer_adds_into_one_residual_stream_array(monkeypatch, select):
    """The attention-output projection and the feed-forward block write their sums into the embedding output's
    array; under `positions`, the last layer writes into its copy of the selected rows."""
    config = _selection_config(3, "float64", 0.1)
    params = init_parameters(config, seed=2)
    ids, pad_mask, positions, *_ = _ragged_mlm_batch(config, 1)
    masks = draw_dropout_masks(config, ids.shape[1], (0,), range(len(ids)))
    returned = {name: [] for name in ("embedding", "linear", "feed_forward")}  # the Tensors each node returned
    for name, seen in returned.items():
        def spy(*args, _node=getattr(fused, name), _seen=seen, **kwargs):
            _seen.append(_node(*args, **kwargs))
            return _seen[-1]

        monkeypatch.setattr(fused, name, spy)
    encoder_forward(
        params, config, ids, pad_mask=pad_mask, dropout_masks=masks, positions=positions if select else None
    )
    [stream] = [t.data for t in returned["embedding"]]
    linears = returned["linear"]
    assert len(linears) == 4 * config.num_layers  # q, k, v, then the attention output of each layer
    carried = [t.data for pair in zip(linears[3::4], returned["feed_forward"]) for t in pair]
    if select:
        *carried, projection, block = carried
        assert block.shape == (len(ids), positions.shape[1], config.hidden_dim)
        assert np.shares_memory(projection, block) and not np.shares_memory(block, stream)
    for a in carried:
        assert np.shares_memory(a, stream)
    for i, t in enumerate(linears):
        if i % 4 != 3:
            assert not np.shares_memory(t.data, stream)


def _undonated(node):
    """`node` that returns residual + its output as a separate sum node, the residual array left as it was."""
    signature = inspect.signature(node)

    def call(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        residual = bound.arguments.pop("residual", None)
        out = node(*bound.args, **bound.kwargs)
        return out if residual is None else residual + out

    return call


def test_the_residual_stream_costs_the_tape_one_array(monkeypatch):
    """Each layer's two residual sums and the two outputs added into them are no longer held by the tape."""
    config = ModelConfig(
        num_layers=2, num_heads=4, hidden_dim=64, ff_dim=256, vocab_size=128, max_positions=64, dropout_rate=0.1,
    )
    masks = draw_dropout_masks(config, 64, (3,), range(4))
    _tape_bytes(config, masks)  # the first taped forward of a process also holds one-time caches (4 KB)
    donated = _tape_bytes(config, masks)
    for name in ("linear", "feed_forward"):
        monkeypatch.setattr(fused, name, _undonated(getattr(fused, name)))
    composed = _tape_bytes(config, masks)
    batch, length = 4, 64  # the shape of `_tape_bytes`' ids
    stream_array = batch * length * config.hidden_dim * np.dtype(config.np_dtype).itemsize
    assert composed - donated >= 4 * config.num_layers * stream_array


# -- last-layer row selection ----------------------------------------------------------


def _selection_config(num_layers, dtype, dropout_rate):
    return ModelConfig(
        num_layers=num_layers, num_heads=2, hidden_dim=16, ff_dim=32, vocab_size=64, max_positions=12,
        num_classes=3, dropout_rate=dropout_rate, dtype=dtype,
    )


def _ragged_mlm_batch(config, seed):
    """Three padded segments with 4, 1 and 2 targets, as `assemble_mlm_batch` packs them, and the segments."""
    rng = np.random.default_rng(seed)
    masked = []
    for length, count in ((12, 4), (9, 1), (5, 2)):
        ids = rng.integers(5, config.vocab_size, size=length)
        where = np.sort(rng.choice(length, size=count, replace=False))
        masked.append(MaskedSegment(ids, where, rng.integers(5, config.vocab_size, size=count)))
    return *assemble_mlm_batch(masked, pad_id=0), masked


def test_assemble_mlm_batch_takes_targets_in_segment_order():
    ids, pad_mask, positions, targets, masked = _ragged_mlm_batch(_selection_config(1, "float64", 0.0), 0)
    assert positions.shape == targets.shape == (3, 4)
    np.testing.assert_array_equal(targets[targets >= 0], np.concatenate([m.target_ids for m in masked]))
    real = np.arange(4) < np.array([[4], [1], [2]])
    np.testing.assert_array_equal(positions[real], np.concatenate([m.target_positions for m in masked]))
    assert (targets[~real] == -1).all() and (positions[~real] == 0).all()
    assert (positions < pad_mask.sum(axis=1, keepdims=True)).all()


def _selection_losses(params, config, objective, dropout_seed):
    """(full-layer loss, row-selected loss, selected hidden, full hidden at the same rows)."""
    ids, pad_mask, positions, targets, masked = _ragged_mlm_batch(config, 1)

    def masks():
        return draw_dropout_masks(config, ids.shape[1], (dropout_seed,), range(len(ids)))

    if objective == "cls":
        positions = np.zeros((len(ids), 1), dtype=np.int64)
    full = encoder_forward(params, config, ids, pad_mask=pad_mask, dropout_masks=masks())
    selected = encoder_forward(params, config, ids, pad_mask=pad_mask, dropout_masks=masks(), positions=positions)
    if objective == "cls":
        labels = np.array([0, 2, 1])
        full_loss = cross_entropy(cls_logits_from_hidden(full[:, 0], params, config), labels)
        selected_loss = cross_entropy(cls_logits_from_hidden(selected[:, 0], params, config), labels)
    else:
        rows = np.repeat(np.arange(len(masked)), [len(m.target_positions) for m in masked])
        cols = np.concatenate([m.target_positions for m in masked])
        flat_targets = targets[targets >= 0]
        full_loss = cross_entropy(mlm_logits_from_hidden(full[rows, cols], params, config), flat_targets)
        selected_loss = cross_entropy(mlm_logits_from_hidden(selected[targets >= 0], params, config), flat_targets)
    at_rows = full.data[np.arange(len(ids))[:, None], positions]
    return full_loss, selected_loss, selected.data, at_rows


@pytest.mark.parametrize("num_layers", [1, 4])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("dropout_rate", [0.0, 0.2])
@pytest.mark.parametrize("objective", ["cls", "mlm"])
def test_row_selection_matches_the_full_last_layer(num_layers, dtype, dropout_rate, objective):
    """Q = 1 ([CLS]) and ragged Q (masked positions), padded rows: outputs and loss bitwise,
    gradients to rounding."""
    config = _selection_config(num_layers, dtype, dropout_rate)
    grads = []
    for select in (False, True):
        params = as_leaves(init_parameters(config, seed=2))
        full_loss, selected_loss, selected, at_rows = _selection_losses(params, config, objective, dropout_seed=9)
        np.testing.assert_array_equal(selected, at_rows)
        assert selected_loss.data.tobytes() == full_loss.data.tobytes()
        grads.append(backward(selected_loss if select else full_loss, params))
    full_grads, selected_grads = grads
    tol = 1e-12 if dtype == "float64" else 1e-5
    # The key biases' exact gradient is zero (softmax ignores a shift shared
    # by all keys); theirs is rounding noise, held to the scale of all gradients.
    scale = max(np.abs(g).max() for g in full_grads.values())
    for name, g in full_grads.items():
        bound = tol * (scale if name.endswith("attn.bk") else np.abs(g).max())
        assert np.abs(selected_grads[name] - g).max() <= bound, name


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_each_node_runs_its_one_vjp_one_time_per_backward(dtype):
    """A padded, row-selected MLM loss with dropout: each interior node's VJP runs once and returns one gradient
    per parent, in that parent's shape and dtype."""
    config = _selection_config(3, dtype, 0.1)
    params = as_leaves(init_parameters(config, seed=2))
    _, loss, *_ = _selection_losses(params, config, "mlm", dropout_seed=9)
    interior = [node for node in _tape_nodes(loss) if node._parents]
    expected = {id(node): [[(p.data.shape, p.data.dtype) for p in node._parents]] for node in interior}
    calls = _record_vjp_calls(interior)
    backward(loss, params)
    assert {
        key: [[(a.shape, a.dtype) for a in returned] for returned in returns] for key, returns in calls.items()
    } == expected


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_one_selected_row_of_one_sequence_matches_the_full_last_layer(dtype):
    """One row in all: the products that would go to BLAS gemv must still match gemm's rows."""
    config = _selection_config(2, dtype, 0.0)
    params = init_parameters(config, seed=2)
    ids = np.array([[1, 7, 13, 25, 2, 9, 40, 33, 12]])
    full = encoder_forward(params, config, ids).data
    np.testing.assert_array_equal(encoder_forward(params, config, ids, positions=np.array([[4]])).data, full[:, [4]])


def test_last_layer_runs_feed_forward_only_at_selected_rows(monkeypatch):
    config = _selection_config(3, "float64", 0.1)
    params = init_parameters(config, seed=2)
    ids, pad_mask, positions, *_ = _ragged_mlm_batch(config, 1)
    feed_forward_rows = []
    real_feed_forward = fused.feed_forward

    def spy(x, *args):
        feed_forward_rows.append(int(np.prod(x.data.shape[:-1])))
        return real_feed_forward(x, *args)

    monkeypatch.setattr(fused, "feed_forward", spy)
    masks = draw_dropout_masks(config, ids.shape[1], (0,), range(len(ids)))
    encoder_forward(params, config, ids, pad_mask=pad_mask, dropout_masks=masks, positions=positions)
    assert feed_forward_rows == [ids.size] * (config.num_layers - 1) + [positions.size]


@pytest.mark.parametrize(
    "positions, message",
    [
        (np.array([0, 1]), "2-D"),
        (np.zeros((2, 0), dtype=np.int64), "2-D"),
        (np.zeros((2, 1)), "integer"),
        (np.zeros((3, 1), dtype=np.int64), "3 rows for a batch of 2"),
        (np.array([[0], [4]]), r"\[0, 4\)"),
        (np.array([[-1], [0]]), r"\[0, 4\)"),
    ],
)
def test_bad_positions_rejected(tiny_config, tiny_params, positions, message):
    with pytest.raises(ModelError, match=message):
        encoder_forward(tiny_params, tiny_config, np.ones((2, 4), dtype=np.int64), positions=positions)


# -- predict_top_k -------------------------------------------------------------------


@pytest.fixture(scope="module")
def predictor(tiny_config):
    """A checkpoint and the tokenizer it was made with."""
    tok = Tokenizer.train(["alpha beta gamma delta epsilon zeta"] * 3, 280)
    config = ModelConfig(
        num_layers=1, num_heads=2, hidden_dim=16, ff_dim=32,
        vocab_size=tok.vocab_size, max_positions=32, dropout_rate=0.0,
    )
    return Checkpoint(config, init_parameters(config, seed=9), tok.fingerprint()), tok


def test_predict_top_k_contract(predictor):
    rows = predict_top_k("alpha [MASK] gamma", 5, *predictor)
    assert len(rows) == 5
    scores = [s for _, s in rows]
    assert all(0.0 < s < 1.0 for s in scores)
    assert scores == sorted(scores, reverse=True)


def test_predict_top_one(predictor):
    rows = predict_top_k("alpha [MASK]", 1, *predictor)
    assert len(rows) == 1


def test_predict_requires_exactly_one_sentinel(predictor):
    with pytest.raises(ModelError, match="exactly one"):
        predict_top_k("no sentinel here", 3, *predictor)
    with pytest.raises(ModelError, match="exactly one"):
        predict_top_k("[MASK] two [MASK]", 3, *predictor)


def test_predict_rejects_bad_k(predictor):
    with pytest.raises(ModelError, match="k"):
        predict_top_k("alpha [MASK]", 0, *predictor)


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


def test_compressed_checkpoint_still_loads(tmp_path, tiny_config, tiny_params):
    """Checkpoints are written uncompressed now; files written with zlib still load."""
    ckpt = Checkpoint(tiny_config, tiny_params, tokenizer_hash="abc", extra={"step": 3})
    meta = {"format": CHECKPOINT_FORMAT, "config": asdict(tiny_config), "tokenizer_hash": "abc", "extra": {"step": 3}}
    old = tmp_path / "old.npz"
    np.savez_compressed(
        old, __meta__=np.array(json.dumps(meta)), **{f"param:{n}": p.data for n, p in tiny_params.items()}
    )
    assert load_checkpoint(old).fingerprint() == ckpt.fingerprint()
    new = save_checkpoint(ckpt, tmp_path / "new.npz")
    with zipfile.ZipFile(new) as archive:
        assert {info.compress_type for info in archive.infolist()} == {zipfile.ZIP_STORED}
    assert load_checkpoint(new).fingerprint() == ckpt.fingerprint()


def test_failed_checkpoint_write_keeps_previous_file(tmp_path, monkeypatch, tiny_config, tiny_params):
    path = tmp_path / "model.npz"
    save_checkpoint(Checkpoint(tiny_config, tiny_params, tokenizer_hash="first"), path)
    before = path.read_bytes()

    def fail_partway(file, **arrays):
        file.write(b"PK partial archive")
        raise OSError("disk full")

    monkeypatch.setattr(np, "savez", fail_partway)
    with pytest.raises(OSError, match="disk full"):
        save_checkpoint(Checkpoint(tiny_config, tiny_params, tokenizer_hash="second"), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]


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


# -- checkpoint-tokenizer check -------------------------------------------------------

FOREIGN_TOKENIZER = "^tokenizer fingerprint mismatch: checkpoint was trained with a different tokenizer$"


@pytest.mark.parametrize(
    "entry",
    [
        "pretrain_mlm", "finetune_classifier", "evaluate_checkpoint", "export_cls_embeddings", "predict_top_k",
        "cli mask-predict",
    ],
)
def test_every_entry_point_rejects_a_foreign_tokenizer(entry, tmp_path, capsys, toy_docs, toy_base_checkpoint):
    from domainlm import cli
    from domainlm.analysis import export_cls_embeddings
    from domainlm.evaluation import evaluate_checkpoint
    from domainlm.training import TrainingConfig, finetune_classifier, pack_segments, pretrain_mlm

    other = Tokenizer.train(["different text entirely"], 280)
    config = TrainingConfig(learning_rate=1e-3, batch_size=4, total_steps=2, eval_checkpoints=1, seed=0)
    if entry == "cli mask-predict":
        checkpoint_path = save_checkpoint(toy_base_checkpoint, tmp_path / "base.npz")
        other.save(tmp_path / "other")
        argv = ["mask-predict", "--checkpoint", str(checkpoint_path), "--tokenizer", str(tmp_path / "other"),
                "--text", "the fuel [MASK] assembly"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"error: {FOREIGN_TOKENIZER[1:-1]}\n"
        return
    calls = {
        "pretrain_mlm": lambda: pretrain_mlm(
            config, pack_segments((other.encode(d.text) for d in toy_docs[:10]), other.sep_id, 32),
            toy_base_checkpoint, other,
        ),
        "finetune_classifier": lambda: finetune_classifier(
            config, toy_base_checkpoint, "binary", toy_docs[:8], toy_docs[8:12], other
        ),
        "evaluate_checkpoint": lambda: evaluate_checkpoint(toy_base_checkpoint, toy_docs[:8], "mlm", other),
        "export_cls_embeddings": lambda: export_cls_embeddings(toy_base_checkpoint, toy_docs[:10], 5, 0, other),
        "predict_top_k": lambda: predict_top_k("the fuel [MASK] assembly", 3, toy_base_checkpoint, other),
    }
    with pytest.raises(ModelError, match=FOREIGN_TOKENIZER):
        calls[entry]()


def test_check_tokenizer_names_both_vocab_sizes(toy_tokenizer, toy_base_checkpoint):
    size = toy_tokenizer.vocab_size
    config = ModelConfig(**{**asdict(toy_base_checkpoint.config), "vocab_size": size + 1})
    checkpoint = Checkpoint(config, toy_base_checkpoint.params, tokenizer_hash=toy_tokenizer.fingerprint())
    with pytest.raises(ModelError, match=f"^checkpoint vocab_size {size + 1} != tokenizer size {size}$"):
        checkpoint.check_tokenizer(toy_tokenizer)
    toy_base_checkpoint.check_tokenizer(toy_tokenizer)
