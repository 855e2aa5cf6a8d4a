import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainlm.tokenizer import (
    SpecialTokens,
    Tokenizer,
    TokenizerError,
    decode,
    train_bpe,
)

MIN_VOCAB = 256 + len(SpecialTokens().as_tuple())


@pytest.fixture(scope="module")
def trained():
    corpus = [
        "the heavy water reactor uses heavy water as moderator",
        "water is the moderator in the reactor",
        "heavy heavy heavy water water water",
    ]
    return Tokenizer.train(corpus, 320)


def test_most_frequent_pair_merges_first():
    # "aaaa aaaa": pair (a, a) occurs 6 times, (space, a) once.
    _, merges = train_bpe(["aaaa aaaa"], MIN_VOCAB + 1)
    assert merges.pairs[0] == ("a", "a")


def test_minimum_vocab_learns_no_merges():
    vocab, merges = train_bpe(["some text here"], MIN_VOCAB)
    assert len(merges) == 0
    assert vocab.size == MIN_VOCAB


def test_training_is_deterministic():
    corpus = ["abc abc abd abd", "xyz xyz"]
    first = train_bpe(corpus, 300)
    second = train_bpe(corpus, 300)
    assert first[0].token_to_id == second[0].token_to_id
    assert first[1].pairs == second[1].pairs


def test_merged_pair_encodes_to_single_token():
    vocab, merges = train_bpe(["aaaa aaaa"], MIN_VOCAB + 1)
    ids = Tokenizer(vocab, merges).encode("aa")
    assert len(ids) == 1
    assert vocab.id_to_token[ids[0]] == "aa"


def test_encode_empty_is_empty(trained):
    assert trained.encode("") == []
    assert trained.decode([]) == ""


def test_roundtrip_examples(trained):
    for text in [
        "heavy water",
        "tabs\tand\nnewlines",
        "  leading and trailing  ",
        "ünïcode façade 水素 🙂",
        "punctuation, too! (yes?)",
    ]:
        assert trained.decode(trained.encode(text)) == text


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=60))
def test_roundtrip_property(text):
    tok = _canonical(None)
    assert tok.decode(tok.encode(text)) == text


_CANONICAL = None


def _canonical(_):
    global _CANONICAL
    if _CANONICAL is None:
        _CANONICAL = Tokenizer.train(["the quick brown fox", "jumps over the lazy dog"], 300)
    return _CANONICAL


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=80))
def test_token_count_never_exceeds_byte_count(text):
    tok = _canonical(None)
    assert len(tok.encode(text)) <= len(text.encode("utf-8"))


def test_special_tokens_have_reserved_ids(trained):
    specials = trained.specials
    assert [trained.vocab.id_of(t) for t in specials.as_tuple()] == [0, 1, 2, 3, 4]


def test_encode_never_emits_special_ids(trained):
    ids = trained.encode("[MASK] and [CLS] written out literally")
    assert not set(ids) & set(trained.special_ids)


def test_merges_never_form_special_token_strings():
    # A corpus saturated with the literal text of a special token must not
    # learn a merge that collides with the reserved id.
    tok = Tokenizer.train(["[MASK] [MASK] [MASK] [MASK] [MASK]"] * 20, 400)
    assert "[MASK]" not in {l + r for l, r in tok.merges.pairs}
    ids = tok.encode("[MASK]")
    assert tok.mask_id not in ids
    assert tok.decode(ids) == "[MASK]"


def test_decode_rejects_special_ids_unless_allowed(trained):
    with pytest.raises(TokenizerError, match="special"):
        trained.decode([trained.mask_id])
    assert trained.decode([trained.mask_id], allow_special=True) == "[MASK]"


def test_decode_unknown_id_names_it(trained):
    with pytest.raises(TokenizerError, match="999999"):
        trained.decode([999999])


def test_bijection_and_byte_coverage(trained):
    trained.vocab.validate()
    assert len(trained.vocab.token_to_id) == len(trained.vocab.id_to_token)


def test_vocab_size_never_exceeds_target(trained):
    assert trained.vocab_size <= 320


def test_merge_ranks_have_nonincreasing_frequency():
    corpus = ["aaab aaab aaab ab ab cdcd cdcd"] * 3
    words = corpus
    vocab, merges = train_bpe(words, 310)

    # Independent recount: replay merges and record each rule's frequency
    # at the time it applied.
    import re

    chunks = []
    for text in words:
        chunks.extend(re.findall(r" ?\S+|\s+(?!\S)|\s+", text))
    symbol_lists = [[c for c in chunk] for chunk in chunks]
    freqs = []
    for left, right in merges.pairs:
        count = 0
        for symbols in symbol_lists:
            i = 0
            while i < len(symbols) - 1:
                if symbols[i] == left and symbols[i + 1] == right:
                    count += 1
                i += 1
        freqs.append(count)
        merged = left + right
        for symbols in symbol_lists:
            i = 0
            while i < len(symbols) - 1:
                if symbols[i] == left and symbols[i + 1] == right:
                    symbols[i : i + 2] = [merged]
                else:
                    i += 1
    assert all(a >= b for a, b in zip(freqs, freqs[1:]))


def test_target_below_minimum_rejected():
    with pytest.raises(TokenizerError, match="target_vocab_size"):
        train_bpe(["text"], 100)


def test_empty_corpus_rejected():
    with pytest.raises(TokenizerError, match="empty"):
        train_bpe([], 300)
    with pytest.raises(TokenizerError, match="zero bytes"):
        train_bpe([""], 300)


def test_encode_rejects_unencodable_text(trained):
    with pytest.raises(TokenizerError, match="UTF-8"):
        trained.encode("broken \ud800 surrogate")


def test_serialization_roundtrip(tmp_path, trained):
    trained.save(tmp_path)
    loaded = Tokenizer.load(tmp_path)
    text = "heavy water reactor"
    assert loaded.encode(text) == trained.encode(text)
    assert loaded.merges.pairs == trained.merges.pairs
    assert loaded.fingerprint() == trained.fingerprint()


def test_serialization_is_byte_identical_across_saves(tmp_path, trained):
    a = tmp_path / "a"
    b = tmp_path / "b"
    trained.save(a)
    trained.save(b)
    assert (a / "vocab.txt").read_bytes() == (b / "vocab.txt").read_bytes()
    assert (a / "merges.txt").read_bytes() == (b / "merges.txt").read_bytes()


def test_load_rejects_bad_header(tmp_path, trained):
    trained.save(tmp_path)
    (tmp_path / "vocab.txt").write_text("wrong header\n", encoding="utf-8")
    with pytest.raises(TokenizerError, match="header"):
        Tokenizer.load(tmp_path)


def test_fingerprint_distinguishes_tokenizers(trained):
    other = Tokenizer.train(["completely different corpus text"], 280)
    assert other.fingerprint() != trained.fingerprint()


def test_token_display_roundtrips_word_marker(trained):
    ids = trained.encode("heavy water")
    rendered = "".join(trained.token_text(i) for i in ids)
    assert rendered == "heavy water"
