import threading

import numpy as np
import pytest

import domainlm.autodiff as autodiff_module
from domainlm.autodiff import (
    GraphError,
    Tensor,
    _apply_keep,
    attention,
    background_jobs,
    embedding,
    feed_forward,
    layer_norm,
    linear,
    log_softmax,
    one_blas_thread,
    run_tasks,
    softmax_cross_entropy,
)

from domainlm.data import cls_positions
from domainlm.model import ModelConfig, draw_dropout_masks, encoder_forward, init_parameters

import unfused_encoder
from conftest import max_relative_error


def _dropout(batch, length, heads, hidden, rate):
    """The keep bits of a one-layer encoder, in the order it reads them: residual, attention, residual, residual."""
    config = ModelConfig(num_layers=1, num_heads=heads, hidden_dim=hidden, ff_dim=4, vocab_size=16, dropout_rate=rate)
    return draw_dropout_masks(config, length, (5,), range(batch))


def _fd_scalar(fn, x: Tensor, h=1e-6):
    flat = x.data.reshape(-1)
    g = np.zeros_like(flat)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        up = fn().data
        flat[i] = orig - h
        down = fn().data
        flat[i] = orig
        g[i] = (up - down) / (2 * h)
    return g.reshape(x.data.shape)


def _check_op(build_loss, *tensors, tol=1e-6):
    for t in tensors:
        t.grad = None
    loss = build_loss()
    loss.backward()
    for t in tensors:
        analytic = t.grad.copy()
        fd = _fd_scalar(build_loss, t)
        assert max_relative_error(analytic, fd) < tol, f"gradient mismatch for shape {t.shape}"


@pytest.fixture
def rng():
    return np.random.default_rng(42)


def test_add_with_broadcasting(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4,)), requires_grad=True)
    _check_op(lambda: ((a + b) * (a + b)).sum(), a, b)


def test_mul_div_sub(rng):
    a = Tensor(rng.normal(size=(2, 3)) + 3.0, requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3)) + 3.0, requires_grad=True)
    _check_op(lambda: ((a * b - a) / b).sum(), a, b)


def test_matmul_2d(rng):
    a = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 2)), requires_grad=True)
    _check_op(lambda: (a @ b).sum(), a, b)


def test_matmul_batched_with_2d_rhs(rng):
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    _check_op(lambda: ((a @ b) * (a @ b)).sum(), a, b)


def test_matmul_batched_4d(rng):
    a = Tensor(rng.normal(size=(2, 2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 2, 4, 3)), requires_grad=True)
    _check_op(lambda: (a @ b).sum(), a, b)


def test_getitem_gather_accumulates_repeats(rng):
    table = Tensor(rng.normal(size=(6, 3)), requires_grad=True)
    idx = np.array([0, 2, 2, 5])
    loss = (table[idx] * table[idx]).sum()
    loss.backward()
    expected = np.zeros_like(table.data)
    for i in idx:
        expected[i] += 2 * table.data[i]
    np.testing.assert_allclose(table.grad, expected, atol=1e-12)


def test_reductions_and_shapes(rng):
    a = Tensor(rng.normal(size=(3, 4, 2)), requires_grad=True)
    _check_op(lambda: a.sum(axis=1).mean(), a)
    _check_op(lambda: a.mean(axis=-1, keepdims=True).sum(), a)
    _check_op(lambda: a.reshape(6, 4).transpose(1, 0).sum(axis=0).mean(), a)
    _check_op(lambda: a.swapaxes(0, 2).sum(), a)


def test_elementwise_nonlinearities(rng):
    a = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    _check_op(lambda: a.tanh().sum(), a)
    _check_op(lambda: unfused_encoder.gelu(a).sum(), a)


def test_softmax_rows_and_gradient(rng):
    """The softmax lives inside the attention core and the cross-entropy node."""
    x = rng.normal(size=(5, 7)) * 3
    log_probs = log_softmax(x)
    np.testing.assert_allclose(np.exp(log_probs).sum(axis=-1), 1.0, atol=1e-12)
    assert (log_probs <= 0).all()
    np.testing.assert_allclose(log_probs, x - np.log(np.exp(x).sum(axis=-1, keepdims=True)), atol=1e-12)

    logits = Tensor(x, requires_grad=True)
    targets = rng.integers(0, 7, size=5)
    loss = softmax_cross_entropy(logits, targets)
    np.testing.assert_allclose(float(loss.data), -np.mean(log_probs[np.arange(5), targets]), atol=1e-12)
    _check_op(lambda: softmax_cross_entropy(logits, targets), logits)

    q, k, v = (Tensor(rng.normal(size=(2, 4, 6)), requires_grad=True) for _ in range(3))
    _, probs = attention(q, k, v, num_heads=3)
    np.testing.assert_allclose(probs.sum(axis=-1), 1.0, atol=1e-12)
    assert probs.shape == (2, 3, 4, 4) and (probs >= 0).all()


# -- fused nodes --------------------------------------------------------------------


def test_linear_is_one_affine_map_with_gradients(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)
    np.testing.assert_allclose(linear(x, w, b).data, x.data @ w.data + b.data, atol=1e-12)
    weights = rng.normal(size=(2, 3, 5))
    _check_op(lambda: (linear(x, w, b) * weights).sum(), x, w, b)
    rows = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    _check_op(lambda: (linear(rows, w, b) * weights[0]).sum(), rows, w, b)


def test_linear_with_keep_bits_gradients(rng):
    x = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    w = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    b = Tensor(rng.normal(size=(5,)), requires_grad=True)
    keep = rng.random(size=(2, 3, 5)) >= 0.3
    np.testing.assert_array_equal(linear(x, w, b, keep, 2.0).data, linear(x, w, b).data * keep * 2.0)
    weights = rng.normal(size=(2, 3, 5))
    _check_op(lambda: (linear(x, w, b, keep, 1 / 0.7) * weights).sum(), x, w, b)


def _feed_forward_operands(rng, dtype="float64"):
    x = Tensor(rng.normal(size=(2, 3, 4)).astype(dtype), requires_grad=True)
    w1 = Tensor(rng.normal(size=(4, 6)).astype(dtype), requires_grad=True)
    b1 = Tensor(rng.normal(size=(6,)).astype(dtype), requires_grad=True)
    w2 = Tensor(rng.normal(size=(6, 4)).astype(dtype), requires_grad=True)
    b2 = Tensor(rng.normal(size=(4,)).astype(dtype), requires_grad=True)
    return x, w1, b1, w2, b2


@pytest.mark.parametrize("dropping", [False, True])
def test_feed_forward_gradients(rng, dropping):
    operands = _feed_forward_operands(rng)
    keep = rng.random(size=(2, 3, 4)) >= 0.3 if dropping else None
    weights = rng.normal(size=(2, 3, 4))
    _check_op(lambda: (feed_forward(*operands, keep, 1 / 0.7) * weights).sum(), *operands)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("dropping", [False, True])
def test_feed_forward_equals_the_composed_block_bit_for_bit(rng, dtype, dropping):
    """linear, the oracle GELU, linear and a float dropout mask give the fused node's bytes, forward and backward."""
    operands = _feed_forward_operands(rng, dtype)
    x, w1, b1, w2, b2 = operands
    keep = rng.random(size=(2, 3, 4)) >= 0.3 if dropping else None
    weights = rng.normal(size=(2, 3, 4)).astype(dtype)

    def composed():
        out = linear(unfused_encoder.gelu(linear(x, w1, b1)), w2, b2)
        return out * (keep / 0.7) if dropping else out

    results = []
    for build in (lambda: feed_forward(*operands, keep, 1 / 0.7), composed):
        for t in operands:
            t.grad = None
        out = build()
        (out * weights).sum().backward()
        results.append([out.data] + [t.grad for t in operands])
    for fused, expected in zip(*results):
        assert fused.dtype == np.dtype(dtype) and fused.tobytes() == expected.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_a_one_row_product_equals_its_row_of_a_16_row_product(dtype):
    """numpy sends a one-row product to BLAS gemv, which sums in another order; `_gemm` keeps it on gemm.

    Inner dimensions above 256 and outputs narrower than 128 are left out:
    there the doubled row differs too (the open small-matrix case).
    """
    rng = np.random.default_rng(7)
    x = rng.normal(size=(16, 128)).astype(dtype)
    for width in (128, 512, 1024):
        w, b = (Tensor(rng.normal(size=shape).astype(dtype)) for shape in ((128, width), (width,)))
        np.testing.assert_array_equal(linear(Tensor(x[:1]), w, b).data, linear(Tensor(x), w, b).data[:1])
    for ff in (128, 256):
        shapes = ((128, ff), (ff,), (ff, 128), (128,))
        ff_params = [Tensor(0.1 * rng.normal(size=shape).astype(dtype)) for shape in shapes]
        one = feed_forward(Tensor(x[:1]), *ff_params).data
        np.testing.assert_array_equal(one, feed_forward(Tensor(x), *ff_params).data[:1])


def test_embedding_gradients(rng):
    table = Tensor(rng.normal(size=(7, 4)), requires_grad=True)
    positions = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    ids = np.array([[1, 6, 1], [0, 3, 6]])
    keep = rng.random(size=(2, 3, 4)) >= 0.3
    expected = (table.data[ids] + positions.data[:3]) * keep / 0.7
    np.testing.assert_allclose(embedding(table, positions, ids, keep, 1 / 0.7).data, expected, atol=1e-12)
    weights = rng.normal(size=(2, 3, 4))
    _check_op(lambda: (embedding(table, positions, ids, keep, 1 / 0.7) * weights).sum(), table, positions)
    _check_op(lambda: (embedding(table, positions, ids) * weights).sum(), table, positions)


def test_layer_norm_normalizes_rows_with_gradients(rng):
    """Covers the square root and the -0.5 power the unfused layer norm was built from."""
    x = Tensor(rng.normal(size=(2, 3, 6)) * 2 + 1, requires_grad=True)
    g = Tensor(rng.normal(size=(6,)), requires_grad=True)
    b = Tensor(rng.normal(size=(6,)), requires_grad=True)
    unit = layer_norm(x, Tensor(np.ones(6)), Tensor(np.zeros(6))).data
    np.testing.assert_allclose(unit.mean(axis=-1), 0.0, atol=1e-12)
    np.testing.assert_allclose(unit.var(axis=-1), 1.0, rtol=1e-4)
    weights = rng.normal(size=(2, 3, 6))
    _check_op(lambda: (layer_norm(x, g, b) * weights).sum(), x, g, b)


def test_attention_gradients_with_pad_bias_and_dropout(rng):
    """Covers the exp and softmax the unfused attention was built from."""
    batch, length, heads, hidden = 2, 5, 2, 6
    q, k, v = (Tensor(rng.normal(size=(batch, length, hidden)) * 0.5, requires_grad=True) for _ in range(3))
    real = np.ones((batch, length), dtype=bool)
    real[1, 3:] = False
    bias = np.where(real, 0.0, -1e30)[:, None, None, :]
    keep = _dropout(batch, length, heads, hidden, 0.3)[1]
    assert 0 < np.count_nonzero(keep) < keep.size
    weights = rng.normal(size=(batch, length, hidden))

    def loss():
        return (attention(q, k, v, heads, bias, keep, 1 / 0.7)[0] * weights).sum()

    _check_op(loss, q, k, v)
    _, probs = attention(q, k, v, heads, bias)
    np.testing.assert_array_equal(probs[1, :, :, 3:], 0.0)


def test_attention_at_selected_query_rows(rng):
    """`rows` gives the named rows of the full attention, and gradients that pass the same oracle."""
    batch, length, heads, hidden = 2, 5, 2, 6
    q, k, v = (Tensor(rng.normal(size=(batch, length, hidden)) * 0.5, requires_grad=True) for _ in range(3))
    real = np.ones((batch, length), dtype=bool)
    real[1, 3:] = False
    bias = np.where(real, 0.0, -1e30)[:, None, None, :]
    rows = np.array([[4, 0, 4], [2, 2, 0]])  # repeated rows, like the padded slots of a ragged batch
    keep = _dropout(batch, length, heads, hidden, 0.3)[1]
    weights = rng.normal(size=(batch, 3, hidden))

    full, full_probs = attention(q, k, v, heads, bias, keep, 1 / 0.7)
    context, probs = attention(q, k, v, heads, bias, keep, 1 / 0.7, rows)
    pick = (np.arange(batch)[:, None], rows)
    np.testing.assert_array_equal(context.data, full.data[pick])
    np.testing.assert_array_equal(probs, np.take_along_axis(full_probs, rows[:, None, :, None], axis=2))

    def loss():
        return (attention(q, k, v, heads, bias, keep, 1 / 0.7, rows)[0] * weights).sum()

    _check_op(loss, q, k, v)


def test_softmax_cross_entropy_gradient_is_softmax_minus_onehot(rng):
    """Covers the exp and log of the taped log-softmax it replaced."""
    x = rng.normal(size=(4, 6))
    logits = Tensor(x, requires_grad=True)
    targets = np.array([0, 5, 5, 2])
    softmax_cross_entropy(logits, targets).backward()
    expected = np.exp(log_softmax(x))
    expected[np.arange(4), targets] -= 1.0
    np.testing.assert_allclose(logits.grad, expected / 4, atol=1e-12)


def test_float32_stays_float32(rng):
    """Constants, dropout keep bits and every fused node keep a float32 operand float32."""
    f32 = np.float32
    x = Tensor(rng.normal(size=(2, 4, 6)).astype(f32), requires_grad=True)
    w = Tensor(rng.normal(size=(6, 6)).astype(f32), requires_grad=True)
    g = Tensor(np.ones(6, dtype=f32), requires_grad=True)
    b = Tensor(np.zeros(6, dtype=f32), requires_grad=True)
    table = Tensor(rng.normal(size=(9, 6)).astype(f32), requires_grad=True)
    residual, keep = _dropout(2, 4, 2, 6, 0.1)[:2]
    assert keep.dtype == residual.dtype == bool
    embedded = embedding(table, table, np.array([[1, 8, 0, 3], [2, 2, 5, 7]]), residual, 1 / 0.9)
    normed = layer_norm(x * 0.5 + 1.0 - 2.0 / (x * x + 1.0), g, b)
    bias = np.zeros((2, 1, 1, 4), dtype=f32)
    context, probs = attention(linear(normed, w, b), linear(x, w, b), normed, 2, bias, keep, 1 / 0.9)
    projected = linear(context, w, b, residual, 1 / 0.9)
    hidden = (feed_forward(projected, w, b, w, b, residual, 1 / 0.9) + embedded).tanh()
    loss = softmax_cross_entropy(hidden[:, 0], np.array([1, 2])) + hidden.mean()
    assert probs.dtype == f32 and loss.data.dtype == f32
    loss.backward()
    for t in (x, w, g, b, table):
        assert t.grad.dtype == f32


def test_shared_tensor_accumulates_both_paths(rng):
    w = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    loss = (w * w).sum()
    loss.backward()
    np.testing.assert_allclose(w.grad, 2 * w.data, atol=1e-12)


def test_backward_requires_scalar(rng):
    a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    with pytest.raises(GraphError):
        (a * 2).backward()


def test_backward_without_forward_raises():
    with pytest.raises(GraphError, match="forward"):
        Tensor(3.0).backward()


def test_no_grad_blocks_graph(rng):
    """A graph whose leaves do not require grad records nothing, so there is nothing to walk back."""
    a = Tensor(rng.normal(size=(2, 2)))
    loss = (a * a).sum()
    assert not loss.requires_grad and loss._parents == ()
    with pytest.raises(GraphError):
        loss.backward()


def test_constant_path_gives_zero_gradient(rng):
    a = Tensor(rng.normal(size=(2, 2)), requires_grad=True)
    loss = (a * 0.0).sum()
    loss.backward()
    np.testing.assert_array_equal(a.grad, np.zeros_like(a.data))


def test_dropout_zero_rate_is_identity(rng):
    # Keep-all bits at scale 1 leave an array as it is, and a zero rate draws no masks at all.
    config = ModelConfig(num_layers=2, num_heads=2, hidden_dim=4, ff_dim=8, vocab_size=16, dropout_rate=0.0)
    x = rng.normal(size=(4, 4))
    np.testing.assert_array_equal(_apply_keep(x, np.ones((4, 4), dtype=bool), 1.0), x)
    assert draw_dropout_masks(config, 4, (0,), range(2)) == []


def test_dropout_scales_kept_entries():
    masks = _dropout(2, 10, 2, 10, 0.25)
    out = np.concatenate([_apply_keep(np.ones(m.shape), m, 1.0 / 0.75).reshape(-1) for m in masks])
    assert out.dtype == np.float64 and out.size == 1000
    kept = out[out > 0]
    np.testing.assert_array_equal(kept, 1.0 / 0.75)
    assert 0.6 < kept.size / 1000 < 0.9


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_keep_bits_equal_the_float_mask_bit_for_bit(rng, dtype):
    """Bits then scale give the bytes of one multiply by keep * scale, signs of zero included."""
    a = rng.normal(size=(3, 50)).astype(dtype)
    keep = rng.random(size=a.shape) >= 0.3
    mask = keep.astype(dtype)
    mask *= 1 / 0.7
    expected = a * mask
    assert np.signbit(expected[~keep]).any()
    for got in (_apply_keep(a, keep, 1 / 0.7), _apply_keep(a, keep, 1 / 0.7, out=a.copy())):
        assert got.dtype == np.dtype(dtype) and got.tobytes() == expected.tobytes()


# -- blocks of leading rows -----------------------------------------------------------


def _record_blocks(monkeypatch):
    """The block count of each `_blocks` call, in call order."""
    counts = []
    real = autodiff_module._blocks

    def spy(n, nbytes):
        blocks = real(n, nbytes)
        counts.append(len(blocks))
        return blocks

    monkeypatch.setattr(autodiff_module, "_blocks", spy)
    return counts


@pytest.mark.parametrize("block_bytes", [8, 160])
@pytest.mark.parametrize("width", [None, 1, 3])
@pytest.mark.parametrize("padded", [False, True])
@pytest.mark.parametrize("dropping", [False, True])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_several_blocks_give_the_bits_of_one(monkeypatch, dtype, dropping, padded, width, block_bytes):
    """With the block size patched down, attention and feed_forward give the bytes of one block, forward and backward.

    `width` is the number of selected query `rows` (1: the [CLS] row), and
    the feed-forward input has as many rows per sequence.
    """
    rng = np.random.default_rng(5)
    batch, length, heads, hidden, ff = 7, 7, 2, 8, 24
    q, k, v = (Tensor(rng.normal(size=(batch, length, hidden)).astype(dtype), requires_grad=True) for _ in range(3))
    real = np.arange(length) < rng.integers(2, length + 1, size=(batch, 1))
    bias = np.where(real, 0.0, -1e30).astype(dtype)[:, None, None, :] if padded else None
    rows = None if width is None else rng.integers(0, length, size=(batch, width))
    attn_keep = rng.random(size=(batch, heads, length, length)) >= 0.3 if dropping else None
    n = length if width is None else width
    x = Tensor(rng.normal(size=(batch, n, hidden)).astype(dtype), requires_grad=True)
    ff_params = [
        Tensor((0.3 * rng.normal(size=shape)).astype(dtype), requires_grad=True)
        for shape in ((hidden, ff), (ff,), (ff, hidden), (hidden,))
    ]
    ff_keep = rng.random(size=(batch, n, hidden)) >= 0.3 if dropping else None
    weights = Tensor(rng.normal(size=(batch, n, hidden)).astype(dtype))

    def run():
        leaves = (q, k, v, x, *ff_params)
        for t in leaves:
            t.grad = None
        context, probs = attention(q, k, v, heads, bias, attn_keep, 1 / 0.7, rows)
        out = feed_forward(x, *ff_params, ff_keep, 1 / 0.7)
        ((context + out) * weights).sum().backward()
        return [context.data, probs, out.data] + [t.grad for t in leaves]

    counts = _record_blocks(monkeypatch)
    one = run()
    assert counts == [1, 1]
    monkeypatch.setattr(autodiff_module, "_BLOCK_BYTES", block_bytes)
    several = run()
    assert counts[2] > 1 and counts[3] > 1
    for got, expected in zip(several, one):
        assert got.dtype == np.dtype(dtype) and got.tobytes() == expected.tobytes()


def _encoder_pass(batch, length, dtype, heads, hidden, ff, cls, taped):
    """The encoder's output and, when `taped`, every parameter's gradient, over a ragged batch with dropout."""
    config = ModelConfig(
        num_layers=2, num_heads=heads, hidden_dim=hidden, ff_dim=ff, vocab_size=64, max_positions=length,
        dropout_rate=0.1 if taped else 0.0, dtype=dtype,
    )
    rng = np.random.default_rng(9)
    params = {name: Tensor(p.data, requires_grad=taped) for name, p in init_parameters(config, 0).items()}
    ids = rng.integers(0, 64, size=(batch, length))
    pad_mask = np.arange(length) < rng.integers(length // 2, length + 1, size=(batch, 1))
    positions = cls_positions(batch) if cls else np.sort(rng.integers(0, length, size=(batch, 19)), axis=1)
    masks = draw_dropout_masks(config, length, (3,), range(batch)) if taped else None
    hidden_rows = encoder_forward(params, config, ids, pad_mask=pad_mask, positions=positions, dropout_masks=masks)
    if not taped:
        return [hidden_rows.data]
    (hidden_rows * Tensor(rng.normal(size=hidden_rows.shape).astype(dtype))).sum().backward()
    return [hidden_rows.data] + [p.grad for p in params.values() if p.grad is not None]


def test_blocks_start_above_l2_size(monkeypatch):
    """One block at the fine-tuning and topic-export shapes; an 8 x 128 float64 half-step blocks, with the same bits.

    The calls run in the order layer 0 attention, layer 0 feed-forward,
    layer 1 attention, layer 1 feed-forward; the last layer's feed-forward
    runs at the selected rows only.
    """
    counts = _record_blocks(monkeypatch)
    _encoder_pass(16, 17, "float32", 4, 128, 512, cls=True, taped=True)  # a `finetune` step
    _encoder_pass(32, 17, "float64", 2, 64, 256, cls=True, taped=False)  # a `topics` export batch
    assert counts == [1] * 8
    counts.clear()
    blocked = _encoder_pass(8, 128, "float64", 4, 128, 512, cls=False, taped=True)  # a `pretrain` half-step
    assert counts == [8, 8, 8, 1]
    monkeypatch.setattr(autodiff_module, "_BLOCK_BYTES", 1 << 40)
    whole = _encoder_pass(8, 128, "float64", 4, 128, 512, cls=False, taped=True)
    assert counts[4:] == [1, 1, 1, 1]
    for got, expected in zip(blocked, whole, strict=True):
        assert got.tobytes() == expected.tobytes()


# -- run_tasks -------------------------------------------------------------------


def _usable_cpus(monkeypatch, cpus):
    monkeypatch.setattr(autodiff_module.os, "sched_getaffinity", lambda pid: cpus, raising=False)


def _blas_controls():
    controls = autodiff_module._blas_thread_controls()
    if controls is None:
        pytest.skip("numpy's BLAS does not export its thread-count functions")
    return controls


@pytest.mark.parametrize("cpus", [{0}, {0, 1}])
@pytest.mark.parametrize("n", [0, 1, 2, 7])
def test_run_tasks_returns_results_in_task_order(monkeypatch, cpus, n):
    _usable_cpus(monkeypatch, cpus)
    assert run_tasks([lambda i=i: i * i for i in range(n)]) == [i * i for i in range(n)]


def test_run_tasks_spreads_over_the_calling_thread_and_one_worker(monkeypatch):
    _blas_controls()
    here = threading.get_ident()
    _usable_cpus(monkeypatch, {0, 1})
    threads = run_tasks([threading.get_ident for _ in range(6)])
    assert threads[0::2] == [here] * 3
    assert len(set(threads[1::2])) == 1 and threads[1] != here

    _usable_cpus(monkeypatch, {0})
    assert run_tasks([threading.get_ident for _ in range(6)]) == [here] * 6


@pytest.mark.parametrize("low, high, runs", [(1, 2, [0, 1, 2]), (0, 3, [0, 1, 3])])
def test_run_tasks_raises_the_lowest_numbered_failure(monkeypatch, low, high, runs):
    """One failing task on each thread; the lower one waits until the higher one has started."""
    _blas_controls()
    _usable_cpus(monkeypatch, {0, 1})
    higher_started = threading.Event()
    ran = []

    def task(i):
        ran.append(i)
        if i == high:
            higher_started.set()
            raise KeyError(i)
        if i == low:
            assert higher_started.wait(timeout=30)
            raise ValueError(i)
        return i

    with pytest.raises(ValueError) as raised:
        run_tasks([lambda i=i: task(i) for i in range(8)])
    assert raised.value.args == (low,)
    # Each thread stops at its own failure and starts no later task.
    assert sorted(ran) == runs


def test_run_tasks_holds_blas_at_one_thread_and_restores_it_after_a_worker_failure(monkeypatch):
    get_threads, set_threads = _blas_controls()
    _usable_cpus(monkeypatch, {0, 1})
    original = get_threads()
    try:
        set_threads(2)
        assert run_tasks([get_threads] * 4) == [1] * 4
        assert get_threads() == 2

        def fail_on_the_worker():
            if threading.current_thread() is not threading.main_thread():
                raise RuntimeError("worker")

        with pytest.raises(RuntimeError, match="worker"):
            run_tasks([fail_on_the_worker] * 2)
        assert get_threads() == 2

        with one_blas_thread():
            assert get_threads() == 1
            with one_blas_thread():
                assert get_threads() == 1
            assert get_threads() == 1  # the nested exit left the outer hold in place
        assert get_threads() == 2
    finally:
        set_threads(original)


def test_without_blas_thread_controls_tasks_run_in_turn(monkeypatch):
    monkeypatch.setattr(autodiff_module, "_blas_thread_controls", lambda: None)
    _usable_cpus(monkeypatch, {0, 1})
    with one_blas_thread():
        threads = run_tasks([threading.get_ident for _ in range(4)])
    assert threads == [threading.get_ident()] * 4


def test_run_tasks_inside_a_task_runs_in_turn(monkeypatch):
    _blas_controls()
    _usable_cpus(monkeypatch, {0, 1})
    inner = run_tasks([lambda: run_tasks([threading.get_ident] * 4)] * 2)
    assert [len(set(threads)) for threads in inner] == [1, 1]
    assert inner[0][0] == threading.get_ident() != inner[1][0]


def test_a_background_worker_is_the_only_other_thread(monkeypatch):
    """Inside a job tasks run in turn; the caller's odd tasks run on the same worker, after the job."""
    _blas_controls()
    _usable_cpus(monkeypatch, {0, 1})
    here = threading.get_ident()
    release = threading.Event()
    ran = []

    def job():
        assert release.wait(timeout=30)
        ran.append("job")
        return run_tasks([threading.get_ident] * 4)

    def releases_the_job():
        release.set()
        return threading.get_ident()

    def odd():
        ran.append("odd")
        return threading.get_ident()

    before = threading.active_count()
    with background_jobs() as submit:
        collect = submit(job)
        threads = run_tasks([releases_the_job, odd, threading.get_ident, odd])
        on_worker = collect()
        assert len(set(on_worker)) == 1 and here not in on_worker
        assert threads == [here, on_worker[0]] * 2
        assert ran == ["job", "odd", "odd"]
        failing = submit(lambda: 1 / 0)
        with pytest.raises(ZeroDivisionError):
            failing()
    assert threading.active_count() == before


def test_with_one_cpu_a_background_job_runs_on_the_caller_when_collected(monkeypatch):
    _usable_cpus(monkeypatch, {0})
    ran = []
    with background_jobs() as submit:
        collect = submit(lambda: ran.append(threading.get_ident()) or 7)
        assert ran == []
        assert collect() == 7
    assert ran == [threading.get_ident()]
