import os
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_bpe
from conftest import MEMO_SENTENCE
from domainlm import tokenizer as tokenizer_module
from domainlm.tokenizer import (
    SPECIALS,
    Tokenizer,
    TokenizerError,
    train_bpe,
)

MIN_VOCAB = 256 + len(SPECIALS.as_tuple())


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


def test_decode_rejects_special_ids(trained):
    with pytest.raises(TokenizerError, match="special"):
        trained.decode([trained.mask_id])


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


def test_load_rejects_merges_of_another_vocabulary(tmp_path):
    """A vocab.txt with a merges.txt trained on another corpus fails at load, naming the line."""
    Tokenizer.train(["heavy water heavy water heavy water"], 270).save(tmp_path / "a")
    Tokenizer.train(["uranium oxide uranium oxide uranium oxide"], 270).save(tmp_path / "b")
    (tmp_path / "a" / "merges.txt").write_bytes((tmp_path / "b" / "merges.txt").read_bytes())
    with pytest.raises(TokenizerError, match=r"merges\.txt line \d+: merge .* not in .*vocab\.txt"):
        Tokenizer.load(tmp_path / "a")


@pytest.mark.parametrize("line", ["abc\tx", "999"], ids=["id_not_decimal", "no_tab"])
def test_load_names_a_malformed_vocabulary_line(tmp_path, trained, line):
    trained.save(tmp_path)
    lines = (tmp_path / "vocab.txt").read_text(encoding="utf-8").splitlines() + [line]
    (tmp_path / "vocab.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    expected = f"{tmp_path / 'vocab.txt'} line {len(lines)}: expected <token>\\t<decimal id>, got {line!r}"
    with pytest.raises(TokenizerError, match=re.escape(expected)):
        Tokenizer.load(tmp_path)


def _swap_cls_with_id_5(lines):
    cls, fifth = lines.index("[CLS]\t0"), next(i for i, line in enumerate(lines) if line.endswith("\t5"))
    lines[cls], lines[fifth] = "[CLS]\t5", lines[fifth].replace("\t5", "\t0")
    return lines, "[CLS]"


def _delete_mask(lines):
    return [line for line in lines if line != "[MASK]\t2"], "[MASK]"


@pytest.mark.parametrize("edit", [_swap_cls_with_id_5, _delete_mask], ids=["cls_moved", "mask_deleted"])
def test_load_rejects_special_tokens_out_of_place(tmp_path, trained, edit):
    """Masking draws replacements above the specials' ids 0-4, so a vocabulary that moves one is refused at load."""
    trained.save(tmp_path)
    lines, token = edit((tmp_path / "vocab.txt").read_text(encoding="utf-8").splitlines())
    (tmp_path / "vocab.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TokenizerError, match=re.escape(f"vocab.txt: special token {token} must have id")):
        Tokenizer.load(tmp_path)


def test_load_rejects_ids_outside_the_vocabulary(tmp_path, trained):
    """Ids must be 0 to n - 1: masking draws replacements from below vocab_size, and the model embeds no other id."""
    trained.save(tmp_path)
    lines = (tmp_path / "vocab.txt").read_text(encoding="utf-8").splitlines()
    last = lines[-1].rpartition("\t")[0]
    lines[-1] = f"{last}\t9999"
    (tmp_path / "vocab.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(TokenizerError, match=re.escape(f"vocab.txt: token id 9999 is outside 0..{trained.vocab_size - 1}")):
        Tokenizer.load(tmp_path)


def test_fingerprint_distinguishes_tokenizers(trained):
    other = Tokenizer.train(["completely different corpus text"], 280)
    assert other.fingerprint() != trained.fingerprint()


def test_token_display_roundtrips_word_marker(trained):
    ids = trained.encode("heavy water")
    rendered = "".join(trained.token_text(i) for i in ids)
    assert rendered == "heavy water"


# -- incremental trainer ---------------------------------------------------------


def _zipf_texts(n_docs, words_per_doc, lexicon, seed):
    """Documents of Zipf-distributed (exponent 1.1) random lowercase words."""
    rng = np.random.default_rng(np.random.SeedSequence((lexicon, seed)))
    letters = np.array(list("abcdefghijklmnopqrstuvwxyz"))
    words = ["".join(rng.choice(letters, size=n)) for n in rng.integers(2, 11, size=lexicon)]
    weights = 1.0 / np.arange(1, lexicon + 1) ** 1.1
    draws = rng.choice(lexicon, size=(n_docs, words_per_doc), p=weights / weights.sum())
    return [" ".join(words[j] for j in row) for row in draws]


def _assert_matches_reference(corpus, target):
    new = Tokenizer(*train_bpe(corpus, target))
    ref = Tokenizer(*reference_bpe.train_bpe(corpus, target))
    assert new.vocab_file_text() == ref.vocab_file_text()
    assert new.merges_file_text() == ref.merges_file_text()
    return new


@pytest.mark.parametrize(
    "corpus, target",
    [
        (["the heavy water reactor uses heavy water as moderator", "water is the moderator in the reactor",
          "heavy heavy heavy water water water"], 320),
        (["the quick brown fox", "jumps over the lazy dog"], 300),
        (["aaaa aaaa"], MIN_VOCAB + 1),
        (["abc abc abd abd", "xyz xyz"], 300),
        (["aaab aaab aaab ab ab cdcd cdcd"] * 3, 310),
        (["[MASK] [MASK] [MASK] [MASK] [MASK]"] * 20, 400),
        (["completely different corpus text"], 280),
        (["some text here"], MIN_VOCAB),
    ],
)
def test_matches_reference_trainer_on_fixtures(corpus, target):
    _assert_matches_reference(corpus, target)


def test_matches_reference_trainer_on_toy_corpus(toy_docs):
    _assert_matches_reference([d.text for d in toy_docs] + [MEMO_SENTENCE] * 5, 512)


def test_matches_reference_trainer_on_zipf_corpus():
    _assert_matches_reference(_zipf_texts(600, 60, 4000, seed=31), 360)


# Few distinct symbols force count ties; whole special-token strings among
# the fragments make the pairs that would spell one frequent candidates.
_TINY_ALPHABET = "[]CLSMAKPDUNE "
_TINY_TEXTS = st.one_of(
    st.text(alphabet=_TINY_ALPHABET, min_size=1, max_size=40),
    st.lists(st.sampled_from([*SPECIALS.as_tuple(), *_TINY_ALPHABET]), min_size=1, max_size=30).map("".join),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_TINY_TEXTS, min_size=1, max_size=6), st.integers(min_value=0, max_value=40))
def test_matches_reference_trainer_on_tiny_alphabet(corpus, extra):
    _assert_matches_reference(corpus, MIN_VOCAB + extra)


def test_count_ties_break_to_smallest_pair():
    # ("c", "d") is seen first, but ("a", "b") occurs as often and sorts first.
    tok = _assert_matches_reference(["cd", "ab", "cd", "ab"], MIN_VOCAB + 1)
    assert tok.merges.pairs == [("a", "b")]


def test_reserved_string_is_skipped_for_the_next_pair():
    # Once "[" and "CLS]" are the most frequent pair (6), joining them would
    # spell "[CLS]"; training skips it and merges ("o", "k") at count 2.
    tok = _assert_matches_reference(["[CLS]"] * 6 + ["ok"] * 2, 300)
    assert tok.merges.pairs == [("C", "L"), ("CL", "S"), ("CLS", "]"), ("o", "k")]


@pytest.mark.parametrize(
    "corpus, expected",
    [
        (["ab"] * 3 + ["bc"] * 3 + ["abc"] * 4, [("a", "b"), ("ab", "c"), ("b", "c")]),
        (["bc"] * 4 + ["ab"] * 3 + ["abc"] * 4, [("b", "c"), ("a", "bc"), ("a", "b")]),
    ],
)
def test_token_reachable_by_two_pairs_is_formed_once(corpus, expected):
    # "abc" could come from (a, bc) or from (ab, c). A rule merges every
    # occurrence at once, so whichever of (a, b) and (b, c) wins first leaves
    # no other route to "abc": the branch for a merge whose token is already
    # in the vocabulary records no second rule.
    tok = _assert_matches_reference(corpus, 300)
    assert tok.merges.pairs == expected


def test_stops_when_no_pair_repeats():
    tok = _assert_matches_reference(["abcdef ghij"], 400)
    assert len(tok.merges) == 0


def test_merge_visits_only_words_containing_the_pair(monkeypatch):
    calls = []
    real_merge_word = tokenizer_module._merge_word

    def recording_merge_word(symbols, pair, merged):
        out = real_merge_word(symbols, pair, merged)
        calls.append((symbols, out))
        return out

    monkeypatch.setattr(tokenizer_module, "_merge_word", recording_merge_word)
    _, merges = train_bpe(_zipf_texts(200, 30, 1000, seed=3), 360)
    assert len(merges) == 360 - MIN_VOCAB
    assert calls
    assert all(out != symbols for symbols, out in calls)


def test_vocab_2400_trains_within_budget():
    # About 1.2 s on a 2-core box; the per-round recount took 150 s or more.
    corpus = _zipf_texts(1500, 120, 20000, seed=5)
    start = time.perf_counter()
    vocab, _ = train_bpe(corpus, 2400)
    elapsed = time.perf_counter() - start
    assert vocab.size == 2400
    assert elapsed < 15.0, f"train_bpe to vocab 2400 took {elapsed:.1f} s"


def test_failed_save_keeps_previous_files(tmp_path, trained, monkeypatch):
    trained.save(tmp_path)
    before = {name: (tmp_path / name).read_bytes() for name in ("vocab.txt", "merges.txt")}
    other = Tokenizer.train(["completely different corpus text"], 280)

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError, match="disk full"):
        other.save(tmp_path)
    monkeypatch.undo()
    assert {name: (tmp_path / name).read_bytes() for name in before} == before
    assert sorted(p.name for p in tmp_path.iterdir()) == ["merges.txt", "vocab.txt"]
    assert Tokenizer.load(tmp_path).fingerprint() == trained.fingerprint()
