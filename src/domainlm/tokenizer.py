"""Byte-level BPE tokenizer with reserved special tokens.

Text is pre-tokenized into chunks (a chunk is a whitespace run or a word with
at most one attached leading space), each chunk is mapped to a sequence of
printable single-byte symbols, and merge rules learned by byte-pair encoding
are applied within chunks. Working on bytes guarantees every valid string can
be encoded and decoded losslessly with no out-of-vocabulary fallback.
"""

from __future__ import annotations

import hashlib
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "SpecialTokens",
    "Vocabulary",
    "MergeTable",
    "Tokenizer",
    "TokenizerError",
    "train_bpe",
    "decode",
]

VOCAB_FILE_HEADER = "domainlm-vocab v1"
MERGES_FILE_HEADER = "domainlm-merges v1"

# A chunk is either a word with at most one attached leading space, a
# whitespace run that precedes a word (minus the space that attaches to it),
# or a trailing whitespace run. The three alternatives partition any string.
_PRETOKEN_RE = re.compile(r" ?\S+|\s+(?!\S)|\s+")


class TokenizerError(ValueError):
    pass


def _bytes_to_unicode() -> dict[int, str]:
    """Map every byte value to a printable unicode character (bijective)."""
    keep = (
        list(range(ord("!"), ord("~") + 1))
        + list(range(ord("¡"), ord("¬") + 1))
        + list(range(ord("®"), ord("ÿ") + 1))
    )
    mapping = {b: chr(b) for b in keep}
    shift = 0
    for b in range(256):
        if b not in mapping:
            mapping[b] = chr(256 + shift)
            shift += 1
    return mapping


_BYTE_TO_CHAR = _bytes_to_unicode()
_CHAR_TO_BYTE = {c: b for b, c in _BYTE_TO_CHAR.items()}


@dataclass(frozen=True)
class SpecialTokens:
    """Reserved tokens; their ids always occupy the first vocabulary slots."""

    cls: str = "[CLS]"
    sep: str = "[SEP]"
    mask: str = "[MASK]"
    pad: str = "[PAD]"
    unk: str = "[UNK]"

    def as_tuple(self) -> tuple[str, ...]:
        return (self.cls, self.sep, self.mask, self.pad, self.unk)


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: dict[int, str]
    specials: SpecialTokens = field(default_factory=SpecialTokens)

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    @property
    def special_ids(self) -> frozenset[int]:
        return frozenset(self.token_to_id[t] for t in self.specials.as_tuple())

    def id_of(self, token: str) -> int:
        return self.token_to_id[token]

    def validate(self) -> None:
        if len(self.token_to_id) != len(self.id_to_token):
            raise TokenizerError("token/id maps are not a bijection")
        for token, idx in self.token_to_id.items():
            if self.id_to_token.get(idx) != token:
                raise TokenizerError(f"token/id maps disagree at id {idx}")
        missing = [c for c in _BYTE_TO_CHAR.values() if c not in self.token_to_id]
        if missing:
            raise TokenizerError(f"{len(missing)} single-byte tokens missing from vocabulary")


@dataclass
class MergeTable:
    """Ordered merge rules; the position of a pair is its rank."""

    pairs: list[tuple[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.pairs)

    def rank_map(self) -> dict[tuple[str, str], int]:
        return {pair: rank for rank, pair in enumerate(self.pairs)}


def _base_vocabulary(specials: SpecialTokens) -> Vocabulary:
    token_to_id: dict[str, int] = {}
    for token in specials.as_tuple():
        token_to_id[token] = len(token_to_id)
    for b in range(256):
        token_to_id[_BYTE_TO_CHAR[b]] = len(token_to_id)
    id_to_token = {i: t for t, i in token_to_id.items()}
    return Vocabulary(token_to_id, id_to_token, specials)


def _chunk_to_symbols(chunk: str) -> tuple[str, ...]:
    try:
        raw = chunk.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise TokenizerError(f"text is not valid UTF-8: {exc}") from exc
    return tuple(_BYTE_TO_CHAR[b] for b in raw)


def _count_pairs(words: dict[tuple[str, ...], int]) -> Counter:
    counts: Counter = Counter()
    for symbols, freq in words.items():
        for pair in zip(symbols, symbols[1:]):
            counts[pair] += freq
    return counts


def _merge_word(symbols: tuple[str, ...], pair: tuple[str, str], merged: str) -> tuple[str, ...]:
    out = []
    i = 0
    n = len(symbols)
    while i < n:
        if i + 1 < n and symbols[i] == pair[0] and symbols[i + 1] == pair[1]:
            out.append(merged)
            i += 2
        else:
            out.append(symbols[i])
            i += 1
    return tuple(out)


def train_bpe(
    corpus,
    target_vocab_size: int,
    specials: SpecialTokens | None = None,
) -> tuple[Vocabulary, MergeTable]:
    """Learn merge rules until the vocabulary reaches `target_vocab_size`.

    Each round merges the adjacent symbol pair with the highest total
    frequency across the corpus; ties break to the lexicographically smallest
    pair so training is deterministic. Merging stops early when no adjacent
    pair occurs more than once.
    """
    specials = specials or SpecialTokens()
    floor = 256 + len(specials.as_tuple())
    if target_vocab_size < floor:
        raise TokenizerError(
            f"target_vocab_size must be at least {floor} (256 bytes + {len(specials.as_tuple())} specials)"
        )

    words: dict[tuple[str, ...], int] = {}
    total_bytes = 0
    empty = True
    for text in corpus:
        empty = False
        for chunk in _PRETOKEN_RE.findall(text):
            symbols = _chunk_to_symbols(chunk)
            total_bytes += len(symbols)
            words[symbols] = words.get(symbols, 0) + 1
    if empty:
        raise TokenizerError("training corpus is empty")
    if total_bytes == 0:
        raise TokenizerError("training corpus contains zero bytes of text")

    vocab = _base_vocabulary(specials)
    merges = MergeTable()
    reserved = set(specials.as_tuple())

    while vocab.size < target_vocab_size:
        counts = _count_pairs(words)
        # A merge must never form a reserved token string, or encoding the
        # literal text would collide with the special id.
        candidates = [(pair, c) for pair, c in counts.items() if pair[0] + pair[1] not in reserved]
        if not candidates:
            break
        pair, freq = min(candidates, key=lambda kv: (-kv[1], kv[0]))
        if freq < 2:
            break
        merged = pair[0] + pair[1]
        if merged in vocab.token_to_id:
            # Already a token via a different merge path; record the rule only.
            words = {_merge_word(w, pair, merged): f for w, f in _merge_items(words, pair)}
            merges.pairs.append(pair)
            continue
        new_id = vocab.size
        vocab.token_to_id[merged] = new_id
        vocab.id_to_token[new_id] = merged
        merges.pairs.append(pair)
        words = {_merge_word(w, pair, merged): f for w, f in _merge_items(words, pair)}

    return vocab, merges


def _merge_items(words: dict[tuple[str, ...], int], pair: tuple[str, str]):
    merged_symbol = pair[0] + pair[1]
    out: dict[tuple[str, ...], int] = {}
    for symbols, freq in words.items():
        new = _merge_word(symbols, pair, merged_symbol)
        out[new] = out.get(new, 0) + freq
    return out.items()


def _apply_merges(symbols: list[str], ranks: dict[tuple[str, str], int]) -> list[str]:
    while len(symbols) >= 2:
        best_rank = None
        best_pair = None
        for pair in zip(symbols, symbols[1:]):
            rank = ranks.get(pair)
            if rank is not None and (best_rank is None or rank < best_rank):
                best_rank = rank
                best_pair = pair
        if best_pair is None:
            break
        symbols = list(_merge_word(tuple(symbols), best_pair, best_pair[0] + best_pair[1]))
    return symbols


def decode(ids, vocab: Vocabulary, allow_special: bool = False) -> str:
    """Invert encode(); rejects special-token ids unless `allow_special`."""
    special_ids = vocab.special_ids
    pieces: list[str] = []
    buffered_bytes = bytearray()
    for idx in ids:
        idx = int(idx)
        token = vocab.id_to_token.get(idx)
        if token is None:
            raise TokenizerError(f"unknown token id {idx}")
        if idx in special_ids:
            if not allow_special:
                raise TokenizerError(f"special token id {idx} ({token}) not allowed in decode")
            pieces.append(buffered_bytes.decode("utf-8"))
            buffered_bytes = bytearray()
            pieces.append(token)
            continue
        buffered_bytes.extend(_CHAR_TO_BYTE[c] for c in token)
    pieces.append(buffered_bytes.decode("utf-8"))
    return "".join(pieces)


def token_display(token: str, vocab: Vocabulary) -> str:
    """Human-readable form of a single token (for prediction tables)."""
    if token in vocab.specials.as_tuple():
        return token
    raw = bytes(_CHAR_TO_BYTE[c] for c in token)
    return raw.decode("utf-8", errors="replace")


@dataclass
class Tokenizer:
    """Immutable trained tokenizer; shareable across threads."""

    vocab: Vocabulary
    merges: MergeTable

    def __post_init__(self):
        self._ranks = self.merges.rank_map()
        self._chunk_cache: dict[str, list[int]] = {}

    @classmethod
    def train(cls, corpus, target_vocab_size: int) -> "Tokenizer":
        vocab, merges = train_bpe(corpus, target_vocab_size)
        return cls(vocab, merges)

    @property
    def specials(self) -> SpecialTokens:
        return self.vocab.specials

    @property
    def vocab_size(self) -> int:
        return self.vocab.size

    @property
    def cls_id(self) -> int:
        return self.vocab.id_of(self.specials.cls)

    @property
    def sep_id(self) -> int:
        return self.vocab.id_of(self.specials.sep)

    @property
    def mask_id(self) -> int:
        return self.vocab.id_of(self.specials.mask)

    @property
    def pad_id(self) -> int:
        return self.vocab.id_of(self.specials.pad)

    @property
    def special_ids(self) -> frozenset[int]:
        return self.vocab.special_ids

    def encode(self, text: str) -> list[int]:
        """Encode text to token ids; every byte is covered by exactly one token."""
        ids: list[int] = []
        for chunk in _PRETOKEN_RE.findall(text):
            cached = self._chunk_cache.get(chunk)
            if cached is None:
                symbols = _apply_merges(list(_chunk_to_symbols(chunk)), self._ranks)
                cached = [self.vocab.token_to_id[s] for s in symbols]
                self._chunk_cache[chunk] = cached
            ids.extend(cached)
        return ids

    def decode(self, ids, allow_special: bool = False) -> str:
        return decode(ids, self.vocab, allow_special=allow_special)

    def token_text(self, token_id: int) -> str:
        token = self.vocab.id_to_token.get(int(token_id))
        if token is None:
            raise TokenizerError(f"unknown token id {token_id}")
        return token_display(token, self.vocab)

    # -- serialization ---------------------------------------------------------

    def vocab_file_text(self) -> str:
        lines = [VOCAB_FILE_HEADER]
        for idx in sorted(self.vocab.id_to_token):
            lines.append(f"{self.vocab.id_to_token[idx]}\t{idx}")
        return "\n".join(lines) + "\n"

    def merges_file_text(self) -> str:
        lines = [MERGES_FILE_HEADER]
        for left, right in self.merges.pairs:
            lines.append(f"{left} {right}")
        return "\n".join(lines) + "\n"

    def save(self, directory) -> tuple[Path, Path]:
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        vocab_path = directory / "vocab.txt"
        merges_path = directory / "merges.txt"
        vocab_path.write_text(self.vocab_file_text(), encoding="utf-8")
        merges_path.write_text(self.merges_file_text(), encoding="utf-8")
        return vocab_path, merges_path

    @classmethod
    def load(cls, directory) -> "Tokenizer":
        directory = Path(directory)
        vocab_lines = (directory / "vocab.txt").read_text(encoding="utf-8").splitlines()
        merges_lines = (directory / "merges.txt").read_text(encoding="utf-8").splitlines()
        if not vocab_lines or vocab_lines[0] != VOCAB_FILE_HEADER:
            raise TokenizerError(f"bad vocabulary file header in {directory / 'vocab.txt'}")
        if not merges_lines or merges_lines[0] != MERGES_FILE_HEADER:
            raise TokenizerError(f"bad merges file header in {directory / 'merges.txt'}")
        token_to_id: dict[str, int] = {}
        for line in vocab_lines[1:]:
            if not line:
                continue
            token, _, idx = line.rpartition("\t")
            token_to_id[token] = int(idx)
        id_to_token = {i: t for t, i in token_to_id.items()}
        vocab = Vocabulary(token_to_id, id_to_token)
        vocab.validate()
        pairs = []
        for line in merges_lines[1:]:
            if not line:
                continue
            left, _, right = line.partition(" ")
            pairs.append((left, right))
        return cls(vocab, MergeTable(pairs))

    def fingerprint(self) -> str:
        """Stable content hash; checkpoints record it to detect mismatches."""
        h = hashlib.sha256()
        h.update(self.vocab_file_text().encode("utf-8"))
        h.update(self.merges_file_text().encode("utf-8"))
        return h.hexdigest()
