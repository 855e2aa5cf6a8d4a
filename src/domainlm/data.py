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
    "MaskingPolicy",
    "MaskedSegment",
    "pack_segments",
    "apply_dynamic_masking",
    "pad_batch",
    "assemble_mlm_batch",
    "encode_for_classification",
]

# Seed-stream salt of the masking draws (see training for the other streams).
_STREAM_MASK = 0x3A


class TrainingError(ValueError):
    pass


@dataclass(frozen=True)
class MaskingPolicy:
    """Which fraction of maskable tokens to corrupt, and how.

    Of the selected positions, `replace_with_mask` become the mask token,
    `replace_with_random` become a random non-special token different from the
    original, and `keep_original` stay unchanged (the model must still predict
    them).
    """

    mask_rate: float = 0.15
    replace_with_mask: float = 0.8
    replace_with_random: float = 0.1
    keep_original: float = 0.1

    def validate(self) -> None:
        if not (0.0 <= self.mask_rate < 1.0):
            raise TrainingError(f"mask_rate must be in [0, 1), got {self.mask_rate}")
        parts = (self.replace_with_mask, self.replace_with_random, self.keep_original)
        if any(p < 0 for p in parts):
            raise TrainingError("replacement ratios must be nonnegative")
        if abs(sum(parts) - 1.0) > 1e-12:
            raise TrainingError(f"replacement ratios must sum to 1, got {sum(parts)!r}")


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
    policy: MaskingPolicy,
    rng: np.random.Generator | int,
    tokenizer: Tokenizer,
) -> MaskedSegment:
    """Corrupt a fresh random selection of non-special positions.

    round(mask_rate * maskable) positions are selected (at least one whenever
    mask_rate > 0); targets record the original token ids at exactly those
    positions. Random replacements are drawn from non-special tokens and never
    equal the original token, so the corruption kind is recoverable from the
    output.
    """
    policy.validate()
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(np.random.SeedSequence((int(rng), _STREAM_MASK)))
    segment = np.asarray(segment, dtype=np.int64)
    special_ids = np.fromiter(tokenizer.special_ids, dtype=np.int64)
    maskable = ~np.isin(segment, special_ids)
    n_maskable = int(maskable.sum())
    if n_maskable == 0:
        raise TrainingError("segment contains only special tokens; nothing to mask")

    if policy.mask_rate == 0.0:
        empty = np.array([], dtype=np.int64)
        return MaskedSegment(segment.copy(), empty, empty.copy())

    n_select = max(1, int(policy.mask_rate * n_maskable + 0.5))
    candidates = np.flatnonzero(maskable)
    selected = np.sort(rng.choice(candidates, size=n_select, replace=False))
    originals = segment[selected]

    draw = rng.random(n_select)
    corrupted = segment.copy()
    to_mask = draw < policy.replace_with_mask
    to_random = (~to_mask) & (draw < policy.replace_with_mask + policy.replace_with_random)
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
    """Pad masked segments to a common length; returns (ids, pad_mask, rows, cols, targets)."""
    ids, pad_mask = pad_batch([m.input_ids for m in masked], pad_id)
    counts = [len(m.target_positions) for m in masked]
    rows = np.repeat(np.arange(len(masked), dtype=np.int64), counts)
    cols = np.concatenate([m.target_positions for m in masked])
    targets = np.concatenate([m.target_ids for m in masked])
    return ids, pad_mask, rows, cols, targets


def encode_for_classification(doc: Document, tokenizer: Tokenizer, max_positions: int) -> np.ndarray:
    """[CLS] + the document's tokens, truncated to fit, + [SEP]."""
    body = tokenizer.encode(doc.text)[: max_positions - 2]
    return np.array([tokenizer.cls_id] + body + [tokenizer.sep_id], dtype=np.int64)
