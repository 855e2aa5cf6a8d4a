"""Transformer encoder with a masked-token prediction head and a classifier head.

The encoder is the pre-layer-norm variant with learned position embeddings and
GELU feed-forward blocks. The masked-token head projects final-layer hidden
states onto the vocabulary (weights tied to the input embeddings by default);
the classifier head is a single affine layer over the hidden state at
position 0. All math runs through the autodiff tape in float64 by default so
gradients can be validated against finite differences.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, asdict, field, replace
from pathlib import Path

import numpy as np

from .autodiff import Tensor, no_grad, softmax, log_softmax, dropout
from .tokenizer import Tokenizer

__all__ = [
    "ModelConfig",
    "ModelError",
    "ModelBundle",
    "Checkpoint",
    "init_parameters",
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
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be a positive integer")
        if self.hidden_dim % self.num_heads != 0:
            raise ModelError(
                f"hidden_dim ({self.hidden_dim}) must be divisible by num_heads ({self.num_heads})"
            )
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ModelError("dropout_rate must be in [0, 1)")
        if self.dtype not in ("float64", "float32"):
            raise ModelError(f"dtype must be float64 or float32, got {self.dtype!r}")

    @property
    def head_dim(self) -> int:
        return self.hidden_dim // self.num_heads

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
        params[name] = Tensor(data.astype(config.np_dtype), requires_grad=True)
    return params


def init_classifier_head(config: ModelConfig, seed: int) -> dict[str, Tensor]:
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xC1)))
    dtype = config.np_dtype
    return {
        "cls.w": Tensor(rng.normal(0.0, 0.02, size=(config.hidden_dim, config.num_classes)).astype(dtype), requires_grad=True),
        "cls.b": Tensor(np.zeros(config.num_classes, dtype=dtype), requires_grad=True),
    }


def _layer_norm(x: Tensor, g: Tensor, b: Tensor, eps: float = 1e-5) -> Tensor:
    mu = x.mean(axis=-1, keepdims=True)
    centered = x - mu
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * (var + eps) ** -0.5 * g + b


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


def encoder_forward(
    params: dict[str, Tensor],
    config: ModelConfig,
    ids: np.ndarray,
    pad_mask: np.ndarray | None = None,
    dropout_rng: np.random.Generator | None = None,
    attention_sink: list | None = None,
) -> Tensor:
    """Run the encoder over a (batch, length) id array; returns (B, L, H).

    `pad_mask` marks real tokens with True; padded positions receive a large
    negative attention bias so they contribute exactly zero attention weight.
    Dropout is active only when `dropout_rng` is given.
    """
    ids = _check_ids(ids, config)
    batch, length = ids.shape
    nh, dh = config.num_heads, config.head_dim
    scale = 1.0 / np.sqrt(dh)

    if pad_mask is None:
        attn_bias = None
    else:
        pad_mask = np.asarray(pad_mask, dtype=bool).reshape(batch, length)
        attn_bias = np.where(pad_mask, 0.0, ATTENTION_MASK_BIAS)[:, None, None, :]

    rate = config.dropout_rate if dropout_rng is not None else 0.0

    x = params["tok_emb"][ids] + params["pos_emb"][np.arange(length)]
    if rate > 0.0:
        x = dropout(x, rate, dropout_rng)

    for i in range(config.num_layers):
        p = f"layer{i}"
        normed = _layer_norm(x, params[f"{p}.ln1.g"], params[f"{p}.ln1.b"])
        q = (normed @ params[f"{p}.attn.wq"] + params[f"{p}.attn.bq"]).reshape(batch, length, nh, dh).transpose(0, 2, 1, 3)
        k = (normed @ params[f"{p}.attn.wk"] + params[f"{p}.attn.bk"]).reshape(batch, length, nh, dh).transpose(0, 2, 1, 3)
        v = (normed @ params[f"{p}.attn.wv"] + params[f"{p}.attn.bv"]).reshape(batch, length, nh, dh).transpose(0, 2, 1, 3)
        scores = (q @ k.swapaxes(-1, -2)) * scale
        if attn_bias is not None:
            scores = scores + attn_bias
        attn = softmax(scores, axis=-1)
        if attention_sink is not None:
            attention_sink.append(attn.data.copy())
        if rate > 0.0:
            attn = dropout(attn, rate, dropout_rng)
        context = (attn @ v).transpose(0, 2, 1, 3).reshape(batch, length, config.hidden_dim)
        attn_out = context @ params[f"{p}.attn.wo"] + params[f"{p}.attn.bo"]
        if rate > 0.0:
            attn_out = dropout(attn_out, rate, dropout_rng)
        x = x + attn_out

        normed2 = _layer_norm(x, params[f"{p}.ln2.g"], params[f"{p}.ln2.b"])
        ff = (normed2 @ params[f"{p}.ff.w1"] + params[f"{p}.ff.b1"]).gelu() @ params[f"{p}.ff.w2"] + params[f"{p}.ff.b2"]
        if rate > 0.0:
            ff = dropout(ff, rate, dropout_rng)
        x = x + ff

    return _layer_norm(x, params["final_ln.g"], params["final_ln.b"])


def _mlm_projection(params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    if config.tie_mlm_weights:
        return params["tok_emb"].swapaxes(0, 1)
    return params["mlm.w"]


def mlm_logits_from_hidden(hidden: Tensor, params: dict[str, Tensor], config: ModelConfig) -> Tensor:
    """Project hidden rows (N, H) onto the vocabulary -> (N, V)."""
    return hidden @ _mlm_projection(params, config) + params["mlm.bias"]


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
    return cls_rows @ params["cls.w"] + params["cls.b"]


def cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean negative log-likelihood of integer targets under softmax(logits)."""
    targets = np.asarray(targets, dtype=np.int64)
    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[np.arange(targets.shape[0]), targets]
    return -picked.mean()


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


@dataclass
class ModelBundle:
    params: dict[str, Tensor]
    config: ModelConfig
    tokenizer: Tokenizer


def predict_top_k(text: str, k: int, bundle: ModelBundle) -> list[tuple[str, float]]:
    """Top-k fill-in predictions for the single mask sentinel in `text`.

    The sentinel is the tokenizer's literal mask token string. A space
    immediately before the sentinel is folded into the predicted token (the
    vocabulary marks word starts with a leading-space symbol). Returned scores
    are softmax probabilities, sorted descending.
    """
    if k < 1:
        raise ModelError("k must be at least 1")
    tok = bundle.tokenizer
    sentinel = tok.specials.mask
    count = text.count(sentinel)
    if count != 1:
        raise ModelError(f"text must contain exactly one {sentinel} sentinel, found {count}")
    prefix, suffix = text.split(sentinel)
    if prefix.endswith(" "):
        prefix = prefix[:-1]
    # Match the pretraining distribution: packed segments carry separator
    # tokens at document ends but no leading classification token.
    ids = tok.encode(prefix) + [tok.mask_id] + tok.encode(suffix) + [tok.sep_id]
    mask_position = len(tok.encode(prefix))

    with no_grad():
        hidden = encoder_forward(bundle.params, bundle.config, np.array([ids]))
        logits = mlm_logits_from_hidden(hidden[0, [mask_position]], bundle.params, bundle.config)
        log_probs = log_softmax(logits).data[0]
    top = np.argsort(-log_probs, kind="stable")[:k]
    return [(tok.token_text(i), float(np.exp(log_probs[i]))) for i in top]


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


def save_checkpoint(checkpoint: Checkpoint, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    meta = {
        "format": CHECKPOINT_FORMAT,
        "config": asdict(checkpoint.config),
        "tokenizer_hash": checkpoint.tokenizer_hash,
        "extra": checkpoint.extra,
    }
    arrays = {f"param:{name}": p.data for name, p in checkpoint.params.items()}
    np.savez_compressed(path, __meta__=np.array(json.dumps(meta)), **arrays)
    return path


def load_checkpoint(path) -> Checkpoint:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with np.load(path, allow_pickle=False) as data:
        meta = json.loads(str(data["__meta__"]))
        if meta.get("format") != CHECKPOINT_FORMAT:
            raise ModelError(f"unrecognized checkpoint format in {path}")
        config = ModelConfig(**meta["config"])
        config.validate()
        params = {
            key[len("param:"):]: Tensor(data[key], requires_grad=True)
            for key in data.files
            if key.startswith("param:")
        }
    expected = parameter_shapes(config, include_classifier="cls.w" in params)
    for name, shape in expected.items():
        if name not in params:
            raise ModelError(f"checkpoint missing parameter {name!r}")
        if params[name].data.shape != shape:
            raise ModelError(
                f"parameter {name!r} has shape {params[name].data.shape}, config expects {shape}"
            )
        if not np.all(np.isfinite(params[name].data)):
            raise ModelError(f"parameter {name!r} contains non-finite values")
    unexpected = set(params) - set(expected)
    if unexpected:
        raise ModelError(f"checkpoint has unexpected parameters: {sorted(unexpected)}")
    return Checkpoint(config=config, params=params, tokenizer_hash=meta["tokenizer_hash"], extra=meta.get("extra", {}))


def with_fresh_classifier(checkpoint: Checkpoint, num_classes: int, seed: int) -> tuple[ModelConfig, dict[str, Tensor]]:
    """Encoder weights from a checkpoint plus a newly initialized classifier head."""
    config = replace(checkpoint.config, num_classes=num_classes)
    params = {
        name: Tensor(p.data.copy(), requires_grad=True)
        for name, p in checkpoint.params.items()
        if not name.startswith("cls.")
    }
    params.update(init_classifier_head(config, seed))
    return config, params
