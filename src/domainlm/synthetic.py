"""Synthetic toy corpora.

Real abstracts are not redistributable at desk scale, so tests, demos, and the
acceptance suite run on generated documents instead. Each subject category
gets its own small pool of content words; nuclear-fuel-cycle categories and
the rest share no content words, which makes the binary task separable and
gives continued pretraining on one side a measurable effect on the other.
"""

from __future__ import annotations

import numpy as np

from .corpus import Document, make_document

__all__ = [
    "CODE_POOLS",
    "NFC_TOY_CODES",
    "GENERAL_TOY_CODES",
    "GLUE_WORDS",
    "make_corpus",
    "domain_corpus",
    "general_corpus",
    "binary_corpus",
]

# Content-word pools keyed by subject-category code. Codes 5/12/21/73 are in
# the nuclear-fuel-cycle set; 1/14/58/97 are not. Pools are pairwise disjoint.
CODE_POOLS: dict[int, tuple[str, ...]] = {
    5: ("fuel", "pellet", "cladding", "uranium", "enrichment", "oxide", "assembly", "rod", "burnup", "fissile"),
    12: ("waste", "repository", "canister", "vitrification", "storage", "disposal", "barrier", "spent", "drum", "backfill"),
    21: ("reactor", "coolant", "moderator", "vessel", "turbine", "loop", "shutdown", "condenser", "criticality", "breeder"),
    73: ("neutron", "isotope", "fission", "gamma", "decay", "nuclide", "scattering", "absorber", "flux", "actinide"),
    1: ("coal", "seam", "mine", "lignite", "peat", "colliery", "ash", "slurry", "overburden", "coke"),
    14: ("solar", "photovoltaic", "panel", "inverter", "irradiance", "rooftop", "module", "tracker", "insolation", "cell"),
    58: ("glacier", "sediment", "basin", "aquifer", "erosion", "tectonic", "stratum", "fossil", "moraine", "silt"),
    97: ("algorithm", "compiler", "matrix", "database", "theorem", "graph", "kernel", "lattice", "proof", "automaton"),
}

NFC_TOY_CODES = (5, 12, 21, 73)
GENERAL_TOY_CODES = (1, 14, 58, 97)

# Function words shared across every category; they carry no class signal.
GLUE_WORDS = ("the", "a", "of", "in", "is", "with", "and", "for", "on", "near")


def _sentence(rng: np.random.Generator, pool: tuple[str, ...], n_words: int) -> str:
    words = []
    for i in range(n_words):
        if i % 3 == 0:
            words.append(GLUE_WORDS[rng.integers(len(GLUE_WORDS))])
        else:
            words.append(pool[rng.integers(len(pool))])
    return " ".join(words)


def make_corpus(
    n_docs: int,
    codes: tuple[int, ...],
    seed: int = 0,
    prefix: str = "doc",
    words_per_doc: tuple[int, int] = (9, 15),
) -> list[Document]:
    """Balanced documents cycling through `codes`, one category each."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0x5E)))
    docs = []
    for i in range(n_docs):
        code = codes[i % len(codes)]
        n_words = int(rng.integers(words_per_doc[0], words_per_doc[1] + 1))
        text = _sentence(rng, CODE_POOLS[code], n_words)
        docs.append(make_document(f"{prefix}-{i:05d}", text, [code]))
    return docs


def domain_corpus(n_docs: int, seed: int = 0) -> list[Document]:
    return make_corpus(n_docs, NFC_TOY_CODES, seed=seed, prefix="dom")


def general_corpus(n_docs: int, seed: int = 0) -> list[Document]:
    return make_corpus(n_docs, GENERAL_TOY_CODES, seed=seed, prefix="gen")


def binary_corpus(n_docs: int, seed: int = 0) -> list[Document]:
    """Half nuclear-fuel-cycle documents, half not, interleaved."""
    return make_corpus(n_docs, NFC_TOY_CODES + GENERAL_TOY_CODES, seed=seed, prefix="bin")
