import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from domainlm.corpus import (
    CATEGORY_DESCRIPTIONS,
    CorpusError,
    CorpusFormatError,
    SplitSpec,
    load_corpus,
    make_document,
    map_binary_label,
    nested_subsets,
    read_split_manifest,
    save_corpus,
    select_documents,
    split_corpus,
    write_split_manifests,
)

NFC_CODES = {5, 7, 11, 12, 21, 22, 38, 46, 73}


def _docs(n, labeled=True):
    return [
        make_document(f"d{i:04d}", f"document body {i}", [5 if i % 2 else 1] if labeled else [])
        for i in range(n)
    ]


# -- label scheme ------------------------------------------------------------------


def test_exactly_nine_codes_are_positive():
    positives = {c for c in CATEGORY_DESCRIPTIONS if map_binary_label(c)}
    assert positives == NFC_CODES


def test_label_map_total_over_catalog():
    for code in CATEGORY_DESCRIPTIONS:
        assert map_binary_label(code) in (True, False)


def test_known_code_examples():
    assert map_binary_label(5) is True  # nuclear fuels
    assert map_binary_label(1) is False  # coal, lignite, and peat
    assert map_binary_label(73) is True  # nuclear physics and radiation physics


def test_unknown_code_is_an_error():
    with pytest.raises(CorpusError, match="6"):
        map_binary_label(6)


# -- documents and loading ------------------------------------------------------------


def test_primary_category_is_first():
    doc = make_document("a", "text", [5, 73])
    assert doc.primary_category == 5
    assert doc.nfc_label is True


def test_document_without_categories_is_unlabeled():
    doc = make_document("a", "text", [])
    assert doc.primary_category is None
    assert doc.nfc_label is None
    assert not doc.is_labeled


def _write_jsonl(path, records):
    with path.open("w", encoding="utf-8") as handle:
        for record in records:
            handle.write(json.dumps(record) + "\n")


def test_load_preserves_file_order(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "a", "text": "first", "categories": [5, 73]},
            {"id": "b", "text": "second", "categories": []},
            {"id": "c", "text": "third", "categories": [1]},
        ],
    )
    docs = load_corpus(path)
    assert [d.id for d in docs] == ["a", "b", "c"]
    assert docs[0].primary_category == 5
    assert docs[1].nfc_label is None
    assert docs[2].nfc_label is False


def test_load_rejects_empty_text_with_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "a", "text": "fine", "categories": [5]},
            {"id": "b", "text": "   ", "categories": [5]},
        ],
    )
    with pytest.raises(CorpusFormatError, match=":2"):
        load_corpus(path)


def test_load_rejects_malformed_json_with_line_number(tmp_path):
    path = tmp_path / "corpus.jsonl"
    path.write_text('{"id": "a", "text": "ok", "categories": []}\nnot json\n', encoding="utf-8")
    with pytest.raises(CorpusFormatError, match=":2"):
        load_corpus(path)


def test_load_rejects_duplicate_ids(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(
        path,
        [
            {"id": "a", "text": "one", "categories": []},
            {"id": "a", "text": "two", "categories": []},
        ],
    )
    with pytest.raises(CorpusFormatError, match="duplicate"):
        load_corpus(path)


def test_load_rejects_unknown_category_with_line(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"id": "a", "text": "one", "categories": [999]}])
    with pytest.raises(CorpusFormatError, match="999"):
        load_corpus(path)


@pytest.mark.parametrize("categories", ["12", 5, None, [5.7], [True], ["5"], {"5": 1}, [[5]]], ids=repr)
def test_load_rejects_categories_that_are_not_a_list_of_integers(tmp_path, categories):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"id": "a", "text": "one", "categories": [5]}, {"id": "b", "text": "two", "categories": categories}])
    with pytest.raises(CorpusFormatError, match=re.escape(f"{path}:2: categories must be a list of integer codes")):
        load_corpus(path)


def test_load_reads_absent_categories_as_unlabeled(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _write_jsonl(path, [{"id": "a", "text": "one"}])
    assert [doc.is_labeled for doc in load_corpus(path)] == [False]


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError, match="nope"):
        load_corpus(tmp_path / "nope.jsonl")


def test_save_load_roundtrip(tmp_path):
    docs = _docs(20)
    path = save_corpus(docs, tmp_path / "c.jsonl")
    assert load_corpus(path) == docs


# -- splitting ---------------------------------------------------------------------


def test_split_sizes_match_fractions_exactly():
    docs = _docs(1000)
    splits = split_corpus(docs, SplitSpec(seed=7))
    assert len(splits.pretrain) == 800
    assert len(splits.finetune_train) + len(splits.finetune_validation) == 100
    assert len(splits.test) == 100
    assert len(splits.finetune_validation) == 10


def test_split_is_deterministic():
    docs = _docs(300)
    a = split_corpus(docs, SplitSpec(seed=7))
    b = split_corpus(docs, SplitSpec(seed=7))
    for name in ("pretrain", "finetune_train", "finetune_validation", "test"):
        assert [d.id for d in getattr(a, name)] == [d.id for d in getattr(b, name)]


def test_split_depends_on_seed():
    docs = _docs(300)
    a = split_corpus(docs, SplitSpec(seed=1))
    b = split_corpus(docs, SplitSpec(seed=2))
    assert {d.id for d in a.pretrain} != {d.id for d in b.pretrain}


def test_split_partition_is_disjoint_and_exhaustive():
    docs = _docs(237)
    splits = split_corpus(docs, SplitSpec(seed=3))
    buckets = [set(d.id for d in docs_) for docs_ in splits.as_dict().values()]
    union = set().union(*buckets)
    assert union == {d.id for d in docs}
    assert sum(len(b) for b in buckets) == len(docs)


def test_hundred_documents_give_single_validation_doc():
    splits = split_corpus(_docs(100), SplitSpec(seed=0))
    assert len(splits.finetune_validation) == 1
    assert len(splits.finetune_train) == 9


def test_too_few_documents_rejected():
    with pytest.raises(CorpusError, match="10"):
        split_corpus(_docs(9), SplitSpec())


def test_unlabeled_documents_go_to_pretrain_only():
    docs = _docs(50, labeled=True) + [
        make_document(f"u{i}", f"unlabeled {i}", []) for i in range(50)
    ]
    splits = split_corpus(docs, SplitSpec(seed=5))
    for name in ("finetune_train", "finetune_validation", "test"):
        assert all(d.is_labeled for d in getattr(splits, name))
    unlabeled_ids = {d.id for d in docs if not d.is_labeled}
    assert unlabeled_ids <= {d.id for d in splits.pretrain}


def test_growing_corpus_perturbs_splits_minimally():
    docs = _docs(400)
    before = split_corpus(docs, SplitSpec(seed=9))
    after = split_corpus(docs + [make_document("extra", "extra doc", [5])], SplitSpec(seed=9))
    moved = sum(
        1
        for name in ("pretrain", "finetune_train", "finetune_validation", "test")
        for d in getattr(before, name)
        if d.id not in {x.id for x in getattr(after, name)}
    )
    assert moved <= 6


@settings(max_examples=60, deadline=None)
@given(n_docs=st.integers(10, 400), seed=st.integers(0, 2**32 - 1))
def test_partition_property_across_sizes_and_seeds(n_docs, seed):
    docs = _docs(n_docs)
    spec = SplitSpec(seed=seed)
    splits = split_corpus(docs, spec)
    buckets = [[d.id for d in group] for group in splits.as_dict().values()]
    flat = [i for bucket in buckets for i in bucket]
    assert len(flat) == len(set(flat)) == n_docs  # exactly one split each
    rerun = split_corpus(docs, spec)
    assert [[d.id for d in g] for g in rerun.as_dict().values()] == buckets


def test_invalid_fractions_rejected():
    with pytest.raises(CorpusError, match="sum"):
        split_corpus(_docs(100), SplitSpec(pretrain_fraction=0.8, finetune_fraction=0.1, test_fraction=0.2))
    with pytest.raises(CorpusError, match="\\(0, 1\\)"):
        split_corpus(_docs(100), SplitSpec(pretrain_fraction=1.0, finetune_fraction=-0.05, test_fraction=0.05))


# -- nested subsets ---------------------------------------------------------------


def test_nested_subset_sizes_and_inclusion():
    docs = _docs(1000)
    subsets = nested_subsets(docs, [0.004, 0.1, 1.0], seed=4)
    assert [len(s) for s in subsets] == [4, 100, 1000]
    ids = [set(d.id for d in s) for s in subsets]
    assert ids[0] <= ids[1] <= ids[2]


def test_single_full_fraction_returns_everything():
    docs = _docs(37)
    (subset,) = nested_subsets(docs, [1.0], seed=0)
    assert {d.id for d in subset} == {d.id for d in docs}


def test_non_ascending_fractions_rejected():
    with pytest.raises(CorpusError, match="ascending"):
        nested_subsets(_docs(10), [0.5, 0.5])


def test_empty_fraction_list_rejected():
    with pytest.raises(CorpusError, match="empty"):
        nested_subsets(_docs(10), [])


def test_out_of_range_fraction_rejected():
    with pytest.raises(CorpusError, match="\\(0, 1\\]"):
        nested_subsets(_docs(10), [0.0, 0.5])


def test_subset_order_is_deterministic():
    docs = _docs(64)
    a = nested_subsets(docs, [0.25, 0.75], seed=2)
    b = nested_subsets(docs, [0.25, 0.75], seed=2)
    assert [[d.id for d in s] for s in a] == [[d.id for d in s] for s in b]


# -- manifests ---------------------------------------------------------------------


def test_manifest_roundtrip(tmp_path):
    docs = _docs(40)
    splits = split_corpus(docs, SplitSpec(seed=1))
    paths = write_split_manifests(splits, tmp_path)
    assert set(paths) == {"pretrain", "finetune_train", "finetune_validation", "test"}
    ids = read_split_manifest(paths["test"])
    assert ids == [d.id for d in splits.test]
    assert select_documents(docs, ids) == splits.test


def test_select_documents_reports_missing_ids():
    docs = _docs(5)
    with pytest.raises(CorpusError, match="ghost"):
        select_documents(docs, ["d0001", "ghost"])
