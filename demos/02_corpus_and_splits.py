"""Corpus labeling and deterministic splits.

Shows the binary label derivation from subject-category codes, the
pretrain/finetune/validation/test partition, and nested training subsets.

Run:  python3 demos/02_corpus_and_splits.py
"""

from domainlm.corpus import (
    CATEGORY_DESCRIPTIONS,
    NFC_CATEGORIES,
    SplitSpec,
    map_binary_label,
    nested_subsets,
    split_corpus,
)
from domainlm.synthetic import binary_corpus

positives = sorted(c for c in CATEGORY_DESCRIPTIONS if map_binary_label(c))
assert set(positives) == NFC_CATEGORIES
print(f"category catalog: {len(CATEGORY_DESCRIPTIONS)} codes, "
      f"{len(positives)} mark the nuclear fuel cycle: {positives}")
for code in (5, 73, 1, 14):
    desc = CATEGORY_DESCRIPTIONS[code] or "(no description)"
    print(f"  {code:>3} {desc:<50} -> {'NFC' if map_binary_label(code) else 'other'}")

docs = binary_corpus(1000, seed=3)
splits = split_corpus(docs, SplitSpec(seed=7))
print("\nsplit sizes with the standard 80/10/10 fractions (validation = 10% of finetune):")
for name, size in splits.sizes().items():
    print(f"  {name:<20} {size}")

again = split_corpus(docs, SplitSpec(seed=7))
assert [d.id for d in again.test] == [d.id for d in splits.test]
print("same seed -> identical partition")

subsets = nested_subsets(splits.finetune_train, [0.05, 0.25, 1.0], seed=1)
print("\nnested subsets of the fine-tuning pool:")
previous = set()
for fraction, subset in zip([0.05, 0.25, 1.0], subsets):
    ids = {d.id for d in subset}
    assert previous <= ids
    previous = ids
    print(f"  fraction {fraction:<5} -> {len(subset)} documents (supersets of all smaller subsets)")
