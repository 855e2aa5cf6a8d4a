"""The BPE trainer as it was before the merge loop became incremental: each
round recounts every adjacent pair over every word type and rebuilds the word
dict. Test-only oracle: `tokenizer.train_bpe` must produce byte-identical
`vocab.txt` and `merges.txt` on every corpus.

Pre-tokenisation, the byte alphabet and the vocabulary types are shared with
`domainlm.tokenizer`; the merge loop and its helpers are kept here verbatim.
"""

from collections import Counter

from domainlm.tokenizer import (
    _PRETOKEN_RE,
    SPECIALS,
    MergeTable,
    TokenizerError,
    Vocabulary,
    _base_vocabulary,
    _chunk_to_symbols,
)


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
) -> tuple[Vocabulary, MergeTable]:
    """Learn merge rules until the vocabulary reaches `target_vocab_size`.

    Each round merges the adjacent symbol pair with the highest total
    frequency across the corpus; ties break to the lexicographically smallest
    pair so training is deterministic. Merging stops early when no adjacent
    pair occurs more than once.
    """
    specials = SPECIALS
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

    vocab = _base_vocabulary()
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
