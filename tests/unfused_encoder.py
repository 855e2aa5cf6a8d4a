"""The encoder and losses composed from elementwise tape operations, as they
were before layer norm, the projections, the attention core and the loss
became fused nodes. Test-only oracle: the fused path must reproduce its
losses, gradients and training trajectory in float64.

The elementwise operations the fused nodes replaced (exp, log, power, GELU,
softmax and the taped log-softmax) are rebuilt here on `Tensor._make`.
"""

import math

import numpy as np
from scipy.special import erf

from domainlm.autodiff import Tensor
from domainlm.model import ATTENTION_MASK_BIAS, ModelConfig


def power(t: Tensor, exponent: float) -> Tensor:
    data = t.data
    return Tensor._make(data ** exponent, (t,), lambda g: (g * exponent * data ** (exponent - 1),))


def exp(t: Tensor) -> Tensor:
    out = np.exp(t.data)
    return Tensor._make(out, (t,), lambda g: (g * out,))


def log(t: Tensor) -> Tensor:
    data = t.data
    return Tensor._make(np.log(data), (t,), lambda g: (g / data,))


def gelu(t: Tensor) -> Tensor:
    """Gaussian error linear unit, exact erf form: x * Phi(x)."""
    x = t.data
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    density = 1.0 / math.sqrt(2.0 * math.pi)
    return Tensor._make(x * cdf, (t,), lambda g: (g * (cdf + x * (density * np.exp(-0.5 * x * x))),))


def softmax(t: Tensor, axis: int = -1) -> Tensor:
    shifted = t - t.data.max(axis=axis, keepdims=True)
    e = exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def log_softmax(t: Tensor, axis: int = -1) -> Tensor:
    shifted = t - t.data.max(axis=axis, keepdims=True)
    return shifted - log(exp(shifted).sum(axis=axis, keepdims=True))


def dropout(t: Tensor, rate: float, keep) -> Tensor:
    """Inverted dropout with the next keep mask of `keep`, an iterator over the fused encoder's masks."""
    if rate <= 0.0:
        return t
    return t * (next(keep) / (1.0 - rate))


def layer_norm(x: Tensor, g: Tensor, b: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * power(var + eps, -0.5) * g + b


def encoder_forward(params, config: ModelConfig, ids, pad_mask=None, dropout_masks=None):
    ids = np.asarray(ids, dtype=np.int64)
    batch, length = ids.shape
    nh, dh = config.num_heads, config.hidden_dim // config.num_heads
    scale = 1.0 / np.sqrt(dh)

    if pad_mask is None:
        attn_bias = None
    else:
        pad_mask = np.asarray(pad_mask, dtype=bool).reshape(batch, length)
        attn_bias = np.where(pad_mask, 0.0, ATTENTION_MASK_BIAS)[:, None, None, :]

    rate = config.dropout_rate if dropout_masks else 0.0
    keep = iter(dropout_masks or ())

    x = params["tok_emb"][ids] + params["pos_emb"][np.arange(length)]
    x = dropout(x, rate, keep)

    for i in range(config.num_layers):
        p = f"layer{i}"
        normed = layer_norm(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])

        def heads(name):
            projected = normed @ params[f"{p}.attn.w{name}"] + params[f"{p}.attn.b{name}"]
            return projected.reshape(batch, length, nh, dh).transpose(0, 2, 1, 3)

        q, k, v = heads("q"), heads("k"), heads("v")
        scores = (q @ k.swapaxes(-1, -2)) * scale
        if attn_bias is not None:
            scores = scores + attn_bias
        attn = softmax(scores, axis=-1)
        attn = dropout(attn, rate, keep)
        context = (attn @ v).transpose(0, 2, 1, 3).reshape(batch, length, config.hidden_dim)
        attn_out = dropout(context @ params[f"{p}.attn.wo"] + params[f"{p}.attn.bo"], rate, keep)
        x = x + attn_out

        normed2 = layer_norm(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        inner = gelu(normed2 @ params[f"{p}.ff.w1"] + params[f"{p}.ff.b1"])
        x = x + dropout(inner @ params[f"{p}.ff.w2"] + params[f"{p}.ff.b2"], rate, keep)

    return layer_norm(x, params["final_ln.g"], params["final_ln.b"])


def mlm_logits_from_hidden(hidden: Tensor, params, config: ModelConfig) -> Tensor:
    projection = params["tok_emb"].swapaxes(0, 1) if config.tie_mlm_weights else params["mlm.w"]
    return hidden @ projection + params["mlm.bias"]


def cls_logits_from_hidden(cls_rows: Tensor, params, config: ModelConfig) -> Tensor:
    if config.pooler_tanh:
        cls_rows = cls_rows.tanh()
    return cls_rows @ params["cls.w"] + params["cls.b"]


def cross_entropy(logits: Tensor, targets) -> Tensor:
    targets = np.asarray(targets, dtype=np.int64)
    picked = log_softmax(logits, axis=-1)[np.arange(targets.shape[0]), targets]
    return -picked.mean()
