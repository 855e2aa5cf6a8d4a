"""Transformer encoder with a masked-token prediction head and a classifier head.

The encoder is the pre-layer-norm variant with learned position embeddings and
GELU feed-forward blocks. The masked-token head projects final-layer hidden
states onto the vocabulary (weights tied to the input embeddings by default);
the classifier head is a single affine layer over the hidden state at
position 0. All math runs through the autodiff tape in the configured dtype:
float64 by default, so gradients can be validated against finite
differences, or float32.
"""

from __future__ import annotations

import hashlib
import json
import math
import zipfile
from dataclasses import dataclass, asdict, field, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import (
    Tensor,
    attention,
    embedding,
    feed_forward,
    layer_norm,
    linear,
    log_softmax,
    one_blas_thread,
    softmax_cross_entropy,
)
from .configio import atomic_open
from .tokenizer import Tokenizer

__all__ = [
    "ModelConfig",
    "ModelError",
    "Checkpoint",
    "init_parameters",
    "draw_dropout_masks",
    "encoder_forward",
    "mlm_logits_from_hidden",
    "cls_logits_from_hidden",
    "cross_entropy",
    "predict_top_k",
    "backward",
    "save_checkpoint",
    "load_checkpoint",
]

ATTENTION_MASK_BIAS = -1e30


class ModelError(ValueError):
    pass


@dataclass(frozen=True)
class ModelConfig:
    num_layers: int
    num_heads: int
    hidden_dim: int
    ff_dim: int
    vocab_size: int
    max_positions: int = 512
    num_classes: int = 2
    dropout_rate: float = 0.1
    tie_mlm_weights: bool = True
    pooler_tanh: bool = False
    dtype: str = "float64"

    def validate(self) -> None:
        for name in ("num_layers", "num_heads", "hidden_dim", "ff_dim", "vocab_size", "max_positions", "num_classes"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int) or value < 1:
                raise ModelError(f"{name} must be a positive integer, got {value!r}")
        for name in ("tie_mlm_weights", "pooler_tanh"):
            if not isinstance(getattr(self, name), bool):
                raise ModelError(f"{name} must be true or false, got {getattr(self, name)!r}")
        if self.hidden_dim % self.num_heads != 0:
            raise ModelError(
                f"hidden_dim ({self.hidden_dim}) must be divisible by num_heads ({self.num_heads})"
            )
        rate = self.dropout_rate
        if isinstance(rate, bool) or not isinstance(rate, (int, float)) or not (0.0 <= rate < 1.0):
            raise ModelError(f"dropout_rate must be a number in [0, 1), got {rate!r}")
        if self.dtype not in ("float64", "float32"):
            raise ModelError(f"dtype must be float64 or float32, got {self.dtype!r}")

    @property
    def np_dtype(self):
        return np.float64 if self.dtype == "float64" else np.float32


def parameter_shapes(config: ModelConfig, include_classifier: bool = True) -> dict[str, tuple[int, ...]]:
    h, f, v = config.hidden_dim, config.ff_dim, config.vocab_size
    shapes: dict[str, tuple[int, ...]] = {
        "tok_emb": (v, h),
        "pos_emb": (config.max_positions, h),
    }
    for i in range(config.num_layers):
        p = f"layer{i}"
        shapes.update({
            f"{p}.ln1.g": (h,), f"{p}.ln1.b": (h,),
            f"{p}.attn.wq": (h, h), f"{p}.attn.bq": (h,),
            f"{p}.attn.wk": (h, h), f"{p}.attn.bk": (h,),
            f"{p}.attn.wv": (h, h), f"{p}.attn.bv": (h,),
            f"{p}.attn.wo": (h, h), f"{p}.attn.bo": (h,),
            f"{p}.ln2.g": (h,), f"{p}.ln2.b": (h,),
            f"{p}.ff.w1": (h, f), f"{p}.ff.b1": (f,),
            f"{p}.ff.w2": (f, h), f"{p}.ff.b2": (h,),
        })
    shapes["final_ln.g"] = (h,)
    shapes["final_ln.b"] = (h,)
    shapes["mlm.bias"] = (v,)
    if not config.tie_mlm_weights:
        shapes["mlm.w"] = (h, v)
    if include_classifier:
        shapes["cls.w"] = (h, config.num_classes)
        shapes["cls.b"] = (config.num_classes,)
    return shapes


def init_parameters(config: ModelConfig, seed: int, include_classifier: bool = True) -> dict[str, Tensor]:
    """Normal(0, 0.02) for projection matrices and embeddings, zeros for biases."""
    config.validate()
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xD0)))
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config, include_classifier).items():
        leaf = name.rsplit(".", 1)[-1]
        if leaf in ("g",):
            data = np.ones(shape)
        elif leaf in ("b", "bias", "bq", "bk", "bv", "bo", "b1", "b2"):
            data = np.zeros(shape)
        else:
            data = rng.normal(0.0, 0.02, size=shape)
        params[name] = Tensor(data.astype(config.np_dtype))
    return params


def init_classifier_head(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC1)))
    dtype = config.np_dtype
    return {
        "cls.w": Tensor(rng.normal(0.0, 0.02, size=(config.hidden_dim, config.num_classes)).astype(dtype)),
        "cls.b": Tensor(np.zeros(config.num_classes, dtype=dtype)),
    }


def _check_ids(ids: np.ndarray, config: ModelConfig) -> np.ndarray:
    ids = np.asarray(ids)
    if ids.ndim != 2:
        raise ModelError(f"token ids must be 2-D (batch, length), got shape {ids.shape}")
    if ids.shape[1] == 0:
        raise ModelError("cannot encode an empty sequence")
    if ids.shape[1] > config.max_positions:
        raise ModelError(
            f"sequence length {ids.shape[1]} exceeds max_positions {config.max_positions}"
        )
    if ids.min() < 0 or ids.max() >= config.vocab_size:
        bad = ids[(ids < 0) | (ids >= config.vocab_size)][0]
        raise ModelError(f"token id {int(bad)} outside vocabulary of size {config.vocab_size}")
    return ids.astype(np.int64)


def _check_positions(positions, batch: int, length: int) -> np.ndarray | None:
    if positions is None:
        return None
    positions = np.asarray(positions)
    if positions.ndim != 2 or positions.shape[1] == 0 or positions.dtype.kind not in "iu":
        raise ModelError(
            f"positions must be a 2-D (batch, Q) integer array with Q >= 1, got "
            f"{positions.dtype} array of shape {positions.shape}"
        )
    if positions.shape[0] != batch:
        raise ModelError(f"positions has {positions.shape[0]} rows for a batch of {batch}")
    if positions.min() < 0 or positions.max() >= length:
        raise ModelError(
            f"positions must lie in [0, {length}), got values in [{positions.min()}, {positions.max()}]"
        )
    return positions.astype(np.int64)


def _dropout_shapes(config: ModelConfig, batch: int, length: int) -> list[tuple[int, ...]]:
    residual = (batch, length, config.hidden_dim)
    attention_probs = (batch, config.num_heads, length, length)
    return [residual] + [attention_probs, residual, residual] * config.num_layers


def draw_dropout_masks(
    config: ModelConfig, length: int, key: tuple[int, ...], rows: Sequence[int]
) -> list[np.ndarray]:
    """Every keep mask of one encoder forward over batch rows `rows`, in the order it reads them.

    True keeps a position. The embedding mask comes first, then per layer the
    attention, attention output and feed-forward masks, each with one row per
    entry of `rows`. Batch row r draws all its masks from one counter-based
    stream, PCG64 seeded by `key + (r,)`, read as 16-bit lanes: a lane at or
    above round(rate * 2**16) keeps its position. A row's masks thus depend on
    neither the other rows nor the dtype. Empty without dropout.
    """
    if config.dropout_rate == 0.0:
        return []
    shapes = [shape[1:] for shape in _dropout_shapes(config, 1, length)]
    sizes = [math.prod(shape) for shape in shapes]
    lanes = sum(sizes)
    threshold = round(config.dropout_rate * 2**16)
    keep = np.empty((len(rows), lanes), dtype=bool)
    for i, row in enumerate(rows):
        raw = np.random.PCG64(np.random.SeedSequence(key + (int(row),))).random_raw(-(-lanes // 4))  # 4 lanes each
        np.greater_equal(raw.astype("<u8", copy=False).view("<u2")[:lanes], threshold, out=keep[i])
    starts = np.cumsum([0] + sizes).tolist()
    return [
        keep[:, start : start + size].reshape((len(rows),) + shape)
        for start, size, shape in zip(starts, sizes, shapes)
    ]


def encoder_forward(
    params: dict[str, Tensor],
    config: ModelConfig,
    ids: np.ndarray,
    pad_mask: np.ndarray | None = None,
    positions: np.ndarray | None = None,
    dropout_masks: list[np.ndarray] | None = None,
) -> Tensor:
    """Run the encoder over a (batch, length) id array; returns (B, L, H).

    `pad_mask` marks real tokens with True; padded positions receive a large
    negative attention bias so they contribute exactly zero attention weight.
    Dropout is active when `dropout_masks`, the keep masks of
    `draw_dropout_masks` for these rows, are given.

    `positions` (B, Q) names the rows a head reads; the result is then
    (B, Q, H), row [b, j] being row [b, positions[b, j]] of the full result.
    The last layer computes queries, keys, values and attention scores over
    every row, since every query attends to every key, and the softmax and
    everything after it only at those rows, with those rows of its dropout
    masks.
    """
    ids = _check_ids(ids, config)
    batch, length = ids.shape
    positions = _check_positions(positions, batch, length)
    dtype = config.np_dtype
    hidden, heads = config.hidden_dim, config.num_heads

    dropping = bool(dropout_masks)
    if dropping and [m.shape for m in dropout_masks] != _dropout_shapes(config, batch, length):
        raise ModelError(f"dropout masks do not match a {batch} x {length} batch of this model")
    for index, mask in enumerate(dropout_masks or ()):
        if mask.dtype != bool:
            raise ModelError(f"dropout mask {index} has dtype {mask.dtype}; masks are bool keep bits")
    masks = iter(dropout_masks or ())
    keep_scale = 1.0 / (1.0 - config.dropout_rate)

    if pad_mask is None:
        attn_bias = None
    else:
        pad_mask = np.asarray(pad_mask, dtype=bool).reshape(batch, length)
        attn_bias = np.where(pad_mask, 0.0, ATTENTION_MASK_BIAS).astype(dtype)[:, None, None, :]

    def every_row(a):
        return a

    def selected_rows(a):  # (B, L, ...) -> (B, Q, ...), array or Tensor
        return a[np.arange(batch)[:, None], positions]

    def site(rows=every_row):
        """The `rows` of the next dropout site's keep bits; None without dropout."""
        return rows(next(masks)) if dropping else None

    def layer(i: int, x: Tensor) -> Tensor:
        """Layer i. Without a tape, each intermediate is freed once the layer no longer reads it."""
        p = f"layer{i}"
        selecting = positions is not None and i == config.num_layers - 1
        rows = selected_rows if selecting else every_row
        normed = layer_norm(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        q = linear(normed, params[f"{p}.attn.wq"], params[f"{p}.attn.bq"])
        k = linear(normed, params[f"{p}.attn.wk"], params[f"{p}.attn.bk"])
        v = linear(normed, params[f"{p}.attn.wv"], params[f"{p}.attn.bv"])
        context = attention(q, k, v, heads, attn_bias, site(), keep_scale, positions if selecting else None)[0]
        del normed, q, k, v
        # The residual stream is one array: each sum below is written into it.
        x = linear(context, params[f"{p}.attn.wo"], params[f"{p}.attn.bo"], site(rows), keep_scale, rows(x))
        del context

        normed = layer_norm(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        ff = [params[f"{p}.ff.{name}"] for name in ("w1", "b1", "w2", "b2")]
        return feed_forward(normed, *ff, site(rows), keep_scale, x)

    x = embedding(params["tok_emb"], params["pos_emb"], ids, site(), keep_scale)
    for i in range(config.num_layers):
        x = layer(i, x)
    return layer_norm(x, params["final_ln.g"], params["final_ln.b"])


def _mlm_projection(params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    if config.tie_mlm_weights:
        return params["tok_emb"].swapaxes(0, 1)
    return params["mlm.w"]


def mlm_logits_from_hidden(hidden: Tensor, params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    """Project hidden rows (N, H) onto the vocabulary -> (N, V)."""
    return linear(hidden, _mlm_projection(params, config), params["mlm.bias"])


def cls_logits_from_hidden(cls_rows: Tensor, params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    if "cls.w" not in params:
        raise ModelError("classifier head not initialized")
    if params["cls.w"].data.shape != (config.hidden_dim, config.num_classes):
        raise ModelError(
            f"classifier head shape {params['cls.w'].data.shape} does not match "
            f"(hidden_dim, num_classes) = {(config.hidden_dim, config.num_classes)}"
        )
    if config.pooler_tanh:
        cls_rows = cls_rows.tanh()
    return linear(cls_rows, params["cls.w"], params["cls.b"])


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under softmax(logits)."""
    return softmax_cross_entropy(logits, np.asarray(targets, dtype=np.int64))


def backward(loss: Tensor, params: dict[str, Tensor]) -> dict[str, np.ndarray]:
    """Gradients of a scalar loss for every parameter tensor."""
    for p in params.values():
        p.grad = None
    loss.backward()
    return {
        name: (p.grad if p.grad is not None else np.zeros_like(p.data))
        for name, p in params.items()
    }


# -- prediction ------------------------------------------------------------------


def predict_top_k(text: str, k: int, checkpoint: Checkpoint, tokenizer: Tokenizer) -> list[tuple[str, float]]:
    """Top-k fill-in predictions for the single mask sentinel in `text`.

    The sentinel is the tokenizer's literal mask token string. A space
    immediately before the sentinel is folded into the predicted token (the
    vocabulary marks word starts with a leading-space symbol). Returned scores
    are softmax probabilities, sorted descending. The checkpoint must have
    been trained with `tokenizer`.
    """
    checkpoint.check_tokenizer(tokenizer)
    if k < 1:
        raise ModelError("k must be at least 1")
    sentinel = tokenizer.specials.mask
    count = text.count(sentinel)
    if count != 1:
        raise ModelError(f"text must contain exactly one {sentinel} sentinel, found {count}")
    prefix, suffix = text.split(sentinel)
    if prefix.endswith(" "):
        prefix = prefix[:-1]
    # Match the pretraining distribution: packed segments carry separator
    # tokens at document ends but no leading classification token.
    prefix_ids = tokenizer.encode(prefix)
    ids = prefix_ids + [tokenizer.mask_id] + tokenizer.encode(suffix) + [tokenizer.sep_id]
    mask_position = len(prefix_ids)

    with one_blas_thread():
        hidden = encoder_forward(
            checkpoint.params, checkpoint.config, np.array([ids]), positions=np.array([[mask_position]])
        )
        logits = mlm_logits_from_hidden(hidden[0], checkpoint.params, checkpoint.config)
    log_probs = log_softmax(logits.data)[0]
    top = np.argsort(-log_probs, kind="stable")[:k]
    return [(tokenizer.token_text(i), float(np.exp(log_probs[i]))) for i in top]


# -- checkpoints -------------------------------------------------------------------

CHECKPOINT_FORMAT = "domainlm-checkpoint v1"


@dataclass
class Checkpoint:
    config: ModelConfig
    params: dict[str, Tensor]
    tokenizer_hash: str
    extra: dict = field(default_factory=dict)

    def fingerprint(self) -> str:
        """Content hash over config and every parameter tensor."""
        h = hashlib.sha256()
        h.update(json.dumps(asdict(self.config), sort_keys=True).encode())
        h.update(self.tokenizer_hash.encode())
        for name in sorted(self.params):
            h.update(name.encode())
            h.update(np.ascontiguousarray(self.params[name].data).tobytes())
        return h.hexdigest()

    def check_tokenizer(self, tokenizer: Tokenizer) -> None:
        """Raise unless `tokenizer` is the one this checkpoint was trained with."""
        if self.tokenizer_hash != tokenizer.fingerprint():
            raise ModelError("tokenizer fingerprint mismatch: checkpoint was trained with a different tokenizer")
        if self.config.vocab_size != tokenizer.vocab_size:
            raise ModelError(f"checkpoint vocab_size {self.config.vocab_size} != tokenizer size {tokenizer.vocab_size}")

    def encoder_params(self) -> dict[str, Tensor]:
        """Copies of every tensor but the classifier head."""
        return {
            name: Tensor(p.data.copy())
            for name, p in self.params.items()
            if not name.startswith("cls.")
        }


def save_checkpoint(checkpoint: Checkpoint, path) -> Path:
    path = Path(path)
    meta = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(checkpoint.config),
        "tokenizer_hash": checkpoint.tokenizer_hash,
        "extra": checkpoint.extra,
    }
    arrays = {f"param:{name}": p.data for name, p in checkpoint.params.items()}
    # Uncompressed: zlib cost far more time per write than the disk it saved.
    with atomic_open(path, "wb") as handle:
        np.savez(handle, __meta__=np.array(json.dumps(meta)), **arrays)
    return path


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    try:
        with np.load(path, allow_pickle=False) as data:
            meta = json.loads(str(data["__meta__"]))
            if not isinstance(meta, dict):
                raise ValueError("__meta__ is not a JSON object")
            if meta.get("format") != CHECKPOINT_FORMAT:
                raise ModelError(f"unrecognized checkpoint format in {path}")
            config = ModelConfig(**meta["config"])
            config.validate()
            tokenizer_hash = meta["tokenizer_hash"]
            extra = meta.get("extra", {})
            if not isinstance(extra, dict):
                raise ValueError("extra is not a JSON object")
            params = {
                key[len("param:"):]: Tensor(data[key])
                for key in data.files
                if key.startswith("param:")
            }
    except ModelError:
        raise
    except (EOFError, KeyError, TypeError, ValueError, zipfile.BadZipFile) as exc:
        raise ModelError(f"{path} is not a readable checkpoint: {exc}") from exc
    expected = parameter_shapes(config, include_classifier="cls.w" in params)
    for name, shape in expected.items():
        if name not in params:
            raise ModelError(f"checkpoint missing parameter {name!r}")
        if params[name].data.shape != shape:
            raise ModelError(
                f"parameter {name!r} has shape {params[name].data.shape}, config expects {shape}"
            )
        if params[name].data.dtype != config.np_dtype:
            raise ModelError(f"parameter {name!r} has dtype {params[name].data.dtype}, config expects {config.dtype}")
        if not np.all(np.isfinite(params[name].data)):
            raise ModelError(f"parameter {name!r} contains non-finite values")
    unexpected = set(params) - set(expected)
    if unexpected:
        raise ModelError(f"checkpoint has unexpected parameters: {sorted(unexpected)}")
    return Checkpoint(config=config, params=params, tokenizer_hash=tokenizer_hash, extra=extra)


def with_fresh_classifier(checkpoint: Checkpoint, num_classes: int, seed: int) -> tuple[ModelConfig, dict[str, Tensor]]:
    """Encoder weights from a checkpoint plus a newly initialized classifier head."""
    config = replace(checkpoint.config, num_classes=num_classes)
    params = checkpoint.encoder_params()
    params.update(init_classifier_head(config, seed))
    return config, params
