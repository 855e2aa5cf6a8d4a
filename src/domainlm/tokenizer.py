"""Byte-level BPE tokenizer with reserved special tokens.

Text is pre-tokenized into chunks (a chunk is a whitespace run or a word with
at most one attached leading space), each chunk is mapped to a sequence of
printable single-byte symbols, and merge rules learned by byte-pair encoding
are applied within chunks. Working on bytes guarantees every valid string can
be encoded and decoded losslessly with no out-of-vocabulary fallback.
"""

from __future__ import annotations

import hashlib
import heapq
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from .configio import atomic_open

__all__ = [
    "SpecialTokens",
    "SPECIALS",
    "Vocabulary",
    "MergeTable",
    "Tokenizer",
    "TokenizerError",
    "train_bpe",
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

    cls: str
    sep: str
    mask: str
    pad: str
    unk: str

    def as_tuple(self) -> tuple[str, ...]:
        return (self.cls, self.sep, self.mask, self.pad, self.unk)


SPECIALS = SpecialTokens("[CLS]", "[SEP]", "[MASK]", "[PAD]", "[UNK]")


@dataclass
class Vocabulary:
    token_to_id: dict[str, int]
    id_to_token: dict[int, str]

    @property
    def size(self) -> int:
        return len(self.token_to_id)

    @property
    def special_ids(self) -> frozenset[int]:
        return frozenset(self.token_to_id[t] for t in SPECIALS.as_tuple())

    def id_of(self, token: str) -> int:
        return self.token_to_id[token]

    def validate(self) -> None:
        if len(self.token_to_id) != len(self.id_to_token):
            raise TokenizerError("token/id maps are not a bijection")
        for token, idx in self.token_to_id.items():
            if self.id_to_token.get(idx) != token:
                raise TokenizerError(f"token/id maps disagree at id {idx}")
        # Masking draws random replacements from the ids after the specials and below the size.
        for idx, token in enumerate(SPECIALS.as_tuple()):
            if self.token_to_id.get(token) != idx:
                raise TokenizerError(f"special token {token} must have id {idx}")
        outside = [idx for idx in self.id_to_token if not 0 <= idx < self.size]
        if outside:
            raise TokenizerError(f"token id {outside[0]} is outside 0..{self.size - 1}")
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


def _base_vocabulary() -> Vocabulary:
    token_to_id: dict[str, int] = {}
    for token in SPECIALS.as_tuple():
        token_to_id[token] = len(token_to_id)
    for b in range(256):
        token_to_id[_BYTE_TO_CHAR[b]] = len(token_to_id)
    id_to_token = {i: t for t, i in token_to_id.items()}
    return Vocabulary(token_to_id, id_to_token)


def _chunk_to_symbols(chunk: str) -> tuple[str, ...]:
    try:
        raw = chunk.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise TokenizerError(f"text is not valid UTF-8: {exc}") from exc
    return tuple(_BYTE_TO_CHAR[b] for b in raw)


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
) -> tuple[Vocabulary, MergeTable]:
    """Learn merge rules until the vocabulary reaches `target_vocab_size`.

    Each round merges the adjacent symbol pair with the highest total
    frequency across the corpus; ties break to the lexicographically smallest
    pair so training is deterministic. Merging stops early when no adjacent
    pair occurs more than once. Pair counts are kept across rounds, and a
    merge updates only the words that contain its pair.
    """
    reserved = set(SPECIALS.as_tuple())
    floor = 256 + len(reserved)
    if target_vocab_size < floor:
        raise TokenizerError(f"target_vocab_size must be at least {floor} (256 bytes + {len(reserved)} specials)")

    chunks: Counter = Counter()
    empty = True
    for text in corpus:
        empty = False
        chunks.update(_PRETOKEN_RE.findall(text))
    if empty:
        raise TokenizerError("training corpus is empty")
    # Every chunk holds at least one character, so no chunk means no bytes.
    if not chunks:
        raise TokenizerError("training corpus contains zero bytes of text")

    vocab = _base_vocabulary()
    merges = MergeTable()

    # Incremental state (Sennrich et al. 2016): each distinct chunk once as
    # byte symbols with its frequency, the corpus count of every adjacent
    # pair, and for every pair the set of words that contain it. A merge then
    # revisits only the words the index names.
    word_symbols = [_chunk_to_symbols(chunk) for chunk in chunks]
    word_freqs = list(chunks.values())
    counts: dict[tuple[str, str], int] = {}
    where: dict[tuple[str, str], set[int]] = {}
    for i, symbols in enumerate(word_symbols):
        freq = word_freqs[i]
        for pair in zip(symbols, symbols[1:]):
            counts[pair] = counts.get(pair, 0) + freq
            where.setdefault(pair, set()).add(i)

    # Max-heap by count with lazy deletion: an entry is live only while its
    # count equals counts[pair]; every count change pushes a fresh entry.
    # Ordering by (-count, pair) breaks ties to the lexicographically
    # smallest pair. A merge must never form a reserved token string, or
    # encoding the literal text would collide with the special id, so such
    # pairs never enter the heap; nor does a pair seen once, which can never
    # be merged (its entry is pushed if its count later reaches 2).
    def mergeable(pair: tuple[str, str], count: int) -> bool:
        return count >= 2 and pair[0] + pair[1] not in reserved

    heap = [(-count, pair) for pair, count in counts.items() if mergeable(pair, count)]
    heapq.heapify(heap)

    while vocab.size < target_vocab_size:
        while heap and -heap[0][0] != counts.get(heap[0][1]):
            heapq.heappop(heap)
        if not heap:
            break
        _, pair = heapq.heappop(heap)
        merged = pair[0] + pair[1]
        merges.pairs.append(pair)
        # A rule merges every occurrence of its pair, so no later pair should
        # spell an existing token; if one did, it would record the rule and
        # merge the words but keep the token's id.
        if merged not in vocab.token_to_id:
            new_id = vocab.size
            vocab.token_to_id[merged] = new_id
            vocab.id_to_token[new_id] = merged

        # The index is exact, so every word it names contains the pair. A
        # merged word never contains the pair again, so it leaves the index.
        delta: dict[tuple[str, str], int] = {}
        for i in where.pop(pair):
            old = word_symbols[i]
            new = _merge_word(old, pair, merged)
            word_symbols[i] = new
            freq = word_freqs[i]
            old_pairs = list(zip(old, old[1:]))
            new_pairs = list(zip(new, new[1:]))
            for p in old_pairs:
                delta[p] = delta.get(p, 0) - freq
            for p in new_pairs:
                delta[p] = delta.get(p, 0) + freq
            for p in set(old_pairs).difference(new_pairs):
                if p != pair:
                    where[p].discard(i)
            for p in set(new_pairs).difference(old_pairs):
                where.setdefault(p, set()).add(i)
        for p, d in delta.items():
            if d == 0:
                continue
            count = counts.get(p, 0) + d
            if count:
                counts[p] = count
            else:
                del counts[p]
            if mergeable(p, count):
                heapq.heappush(heap, (-count, p))

    return vocab, merges


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
        return SPECIALS

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

    def decode(self, ids) -> str:
        """Invert encode(); special-token ids are rejected."""
        special_ids = self.special_ids
        buffered_bytes = bytearray()
        for idx in ids:
            idx = int(idx)
            token = self.vocab.id_to_token.get(idx)
            if token is None:
                raise TokenizerError(f"unknown token id {idx}")
            if idx in special_ids:
                raise TokenizerError(f"special token id {idx} ({token}) not allowed in decode")
            buffered_bytes.extend(_CHAR_TO_BYTE[c] for c in token)
        return buffered_bytes.decode("utf-8")

    def token_text(self, token_id: int) -> str:
        """Human-readable form of a single token (for prediction tables)."""
        token = self.vocab.id_to_token.get(int(token_id))
        if token is None:
            raise TokenizerError(f"unknown token id {token_id}")
        if token in self.specials.as_tuple():
            return token
        return bytes(_CHAR_TO_BYTE[c] for c in token).decode("utf-8", errors="replace")

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
        vocab_path = directory / "vocab.txt"
        merges_path = directory / "merges.txt"
        # Both files are written in full before either is renamed into place,
        # so a failed write leaves the previous pair untouched.
        with atomic_open(vocab_path, encoding="utf-8") as vocab_file:
            with atomic_open(merges_path, encoding="utf-8") as merges_file:
                vocab_file.write(self.vocab_file_text())
                merges_file.write(self.merges_file_text())
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
        for number, line in enumerate(vocab_lines[1:], start=2):
            if not line:
                continue
            token, tab, idx = line.rpartition("\t")
            if not (tab and idx.isascii() and idx.isdecimal()):
                raise TokenizerError(
                    f"{directory / 'vocab.txt'} line {number}: expected <token>\\t<decimal id>, got {line!r}"
                )
            token_to_id[token] = int(idx)
        id_to_token = {i: t for t, i in token_to_id.items()}
        vocab = Vocabulary(token_to_id, id_to_token)
        try:
            vocab.validate()
        except TokenizerError as exc:
            raise TokenizerError(f"{directory / 'vocab.txt'}: {exc}") from exc
        pairs = []
        for number, line in enumerate(merges_lines[1:], start=2):
            if not line:
                continue
            left, _, right = line.partition(" ")
            # A merge whose pieces or result the vocabulary lacks belongs to
            # another vocabulary; encoding would fail on the first word it
            # reaches.
            missing = [t for t in (left, right, left + right) if t not in token_to_id]
            if missing:
                raise TokenizerError(
                    f"{directory / 'merges.txt'} line {number}: merge {line!r} uses "
                    f"{missing[0]!r}, which is not in {directory / 'vocab.txt'}"
                )
            pairs.append((left, right))
        return cls(vocab, MergeTable(pairs))

    def fingerprint(self) -> str:
        """Stable content hash; checkpoints record it to detect mismatches."""
        h = hashlib.sha256()
        h.update(self.vocab_file_text().encode("utf-8"))
        h.update(self.merges_file_text().encode("utf-8"))
        return h.hexdigest()
