"""Token-level data preparation shared by training, evaluation and analysis:
segment packing, dynamic masking, batch padding and classifier inputs.

Masking follows the dynamic recipe: a fresh selection of positions is drawn
every time a segment is masked, from a generator the caller seeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .corpus import Document
from .tokenizer import Tokenizer

__all__ = [
    "TrainingError",
    "MaskedSegment",
    "pack_segments",
    "apply_dynamic_masking",
    "pad_batch",
    "assemble_mlm_batch",
    "encode_for_classification",
    "cls_positions",
]

# Seed-stream salt of the masking draws (see training for the other streams).
_STREAM_MASK = 0x3A
# The BERT/RoBERTa recipe: 15% of maskable tokens are selected; of those, 80%
# become the mask token, 10% a random other token, and the rest stay unchanged.
_MASK_RATE = 0.15
_REPLACE_WITH_MASK = 0.8
_REPLACE_WITH_RANDOM = 0.1


class TrainingError(ValueError):
    pass


def pack_segments(
    token_stream: Iterable[Sequence[int]],
    separator_id: int,
    segment_length: int = 512,
) -> list[np.ndarray]:
    """Pack per-document token sequences into fixed-length training segments.

    Documents are concatenated with a separator token between them and the
    stream is chopped every `segment_length` tokens, so segments freely cross
    document boundaries. A final short segment is kept (it is padded at batch
    assembly, not dropped).
    """
    if segment_length < 1:
        raise TrainingError("segment_length must be at least 1")
    segments: list[np.ndarray] = []
    buffer: list[int] = []
    for i, tokens in enumerate(token_stream):
        if i > 0:
            buffer.append(separator_id)
        buffer.extend(int(t) for t in tokens)
        while len(buffer) >= segment_length:
            segments.append(np.array(buffer[:segment_length], dtype=np.int64))
            del buffer[:segment_length]
    if buffer:
        segments.append(np.array(buffer, dtype=np.int64))
    if not segments:
        raise TrainingError("token stream is empty; nothing to pack")
    return segments


@dataclass
class MaskedSegment:
    input_ids: np.ndarray
    target_positions: np.ndarray
    target_ids: np.ndarray


def apply_dynamic_masking(
    segment: np.ndarray,
    rng: np.random.Generator | int,
    tokenizer: Tokenizer,
) -> MaskedSegment:
    """Corrupt a fresh random selection of non-special positions.

    round(0.15 * maskable) positions are selected, at least one; targets
    record the original token ids at exactly those positions. Random
    replacements are drawn from non-special tokens and never equal the
    original token, so the corruption kind is recoverable from the output.
    """
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(np.random.SeedSequence((int(rng), _STREAM_MASK)))
    segment = np.asarray(segment, dtype=np.int64)
    special_ids = np.fromiter(tokenizer.special_ids, dtype=np.int64)
    maskable = ~np.isin(segment, special_ids)
    n_maskable = int(maskable.sum())
    if n_maskable == 0:
        raise TrainingError("segment contains only special tokens; nothing to mask")

    n_select = max(1, int(_MASK_RATE * n_maskable + 0.5))
    candidates = np.flatnonzero(maskable)
    selected = np.sort(rng.choice(candidates, size=n_select, replace=False))
    originals = segment[selected]

    draw = rng.random(n_select)
    corrupted = segment.copy()
    to_mask = draw < _REPLACE_WITH_MASK
    to_random = (~to_mask) & (draw < _REPLACE_WITH_MASK + _REPLACE_WITH_RANDOM)
    corrupted[selected[to_mask]] = tokenizer.mask_id

    n_random = int(to_random.sum())
    if n_random:
        lo = len(tokenizer.specials.as_tuple())
        hi = tokenizer.vocab_size
        if hi - lo < 2:
            raise TrainingError("vocabulary too small to draw replacement tokens")
        repl = rng.integers(lo, hi - 1, size=n_random)
        repl = repl + (repl >= originals[to_random])
        corrupted[selected[to_random]] = repl

    return MaskedSegment(corrupted, selected, originals)


def pad_batch(
    sequences: Sequence[Sequence[int]], pad_id: int, length: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Right-pad id sequences to `length` (default: the longest one).

    Returns (ids, pad_mask), both (batch, length); pad_mask is True at real
    tokens.
    """
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    if length is None:
        length = int(lengths.max())
    pad_mask = np.arange(length) < lengths[:, None]
    ids = np.full((len(sequences), length), pad_id, dtype=np.int64)
    ids[pad_mask] = np.concatenate([np.asarray(s, dtype=np.int64) for s in sequences])
    return ids, pad_mask


def assemble_mlm_batch(masked: Sequence[MaskedSegment], pad_id: int):
    """Pad masked segments to a common length; returns (ids, pad_mask, positions, targets).

    positions (B, Qmax) holds each segment's target positions, padded with
    position 0, the form `encoder_forward(positions=...)` reads; targets
    (B, Qmax) holds the target ids at the same slots, padded with -1.
    """
    ids, pad_mask = pad_batch([m.input_ids for m in masked], pad_id)
    positions, _ = pad_batch([m.target_positions for m in masked], 0)
    targets, _ = pad_batch([m.target_ids for m in masked], -1)
    return ids, pad_mask, positions, targets


def encode_for_classification(doc: Document, tokenizer: Tokenizer, max_positions: int) -> np.ndarray:
    """[CLS] + the document's tokens, truncated to fit, + [SEP]."""
    body = tokenizer.encode(doc.text)[: max_positions - 2]
    return np.array([tokenizer.cls_id] + body + [tokenizer.sep_id], dtype=np.int64)


def cls_positions(batch: int) -> np.ndarray:
    """(batch, 1) positions of the [CLS] token `encode_for_classification` puts first."""
    return np.zeros((batch, 1), dtype=np.int64)
