"""Corpus ingestion, label derivation, and deterministic dataset splits.

Documents arrive as line-delimited JSON records (`id`, `text`, `categories`).
A document's primary category is the first listed code; the binary label marks
whether that code belongs to the nuclear-fuel-cycle category set. Split
assignment is a pure function of (document id, seed) so splits are
reproducible and only minimally perturbed when the corpus grows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .configio import atomic_open, atomic_write_text

__all__ = [
    "Document",
    "SplitSpec",
    "DatasetSplits",
    "CorpusError",
    "CorpusFormatError",
    "CATEGORY_DESCRIPTIONS",
    "NFC_CATEGORIES",
    "map_binary_label",
    "load_corpus",
    "save_corpus",
    "split_corpus",
    "nested_subsets",
    "write_split_manifests",
    "read_split_manifest",
    "select_documents",
]


class CorpusError(ValueError):
    pass


class CorpusFormatError(CorpusError):
    pass


# Subject-category codes. Descriptions are empty where the source catalog
# provides none; the nine NFC codes are the categories tied to
# nuclear-fuel-cycle acquisition pathways.
CATEGORY_DESCRIPTIONS: dict[int, str] = {
    1: "Coal, Lignite, and Peat",
    2: "Petroleum",
    3: "Natural Gas",
    4: "Oil Shales and Tar Sands",
    5: "Nuclear Fuels",
    7: "Isotope and Radiation Sources",
    8: "Hydrogen",
    9: "Biomass Fuels",
    10: "Synthetic Fuels",
    11: "Nuclear Fuel Cycle and Fuel Materials",
    12: "Management of Radioactive and Non-Radioactive Wastes From Nuclear Facilities",
    13: "Hydro Energy",
    14: "Solar Energy",
    15: "Geothermal Energy",
    16: "Tidal and Wave Power",
    17: "Wind Energy",
    20: "Fossil-Fueled Power Plants",
    21: "Specific Nuclear Reactors and Associated Plants",
    22: "General Studies of Nuclear Reactors",
    24: "Power Transmission and Distribution",
    25: "Energy Storage",
    29: "Energy Planning, Policy, and Economy",
    30: "Direct Energy Conversion",
    32: "Energy Conservation, Consumption, and Utilization",
    33: "Advanced Propulsion Systems",
    35: "Arms Control",
    36: "Material Science",
    37: "Inorganic, Organic, Physical and Analytical Chemistry",
    38: "Radiation Chemistry, Radiochemistry, and Nuclear Chemistry",
    39: "",
    40: "Chemistry",
    42: "Engineering",
    43: "Particle Accelerators",
    44: "",
    45: "Military Technology, Weaponry, and National Defense",
    46: "Instrumentation Related To Nuclear Science and Technology",
    47: "Other Instrumentation",
    54: "Environmental Sciences",
    55: "",
    56: "Biology and Medicine",
    57: "",
    58: "Geosciences",
    59: "Basic Biological Sciences",
    60: "Applied Life Sciences",
    61: "Radiation Protection and Dosimetry",
    62: "Radiology and Nuclear Medicine",
    63: "Radiation, Thermal, and Other Environmental Pollutant Effects On Living Organisms and Biological Materials",
    66: "Physics",
    70: "Plasma Physics and Fusion Technology",
    71: "Classical and Quantum Mechanics, General Physics",
    72: "Physics Of Elementary Particles and Fields",
    73: "Nuclear Physics and Radiation Physics",
    74: "Atomic and Molecular Physics",
    75: "Condensed Matter Physics, Superconductivity and Superfluidity",
    77: "Nanoscience and Nanotechnology",
    79: "Astronomy and Astrophysics",
    96: "Knowledge Management and Preservation",
    97: "Mathematics and Computing",
    98: "Nuclear Disarmament, Safeguards, and Physical Protection",
    99: "General and Miscellaneous",
}

NFC_CATEGORIES = frozenset({5, 7, 11, 12, 21, 22, 38, 46, 73})


def map_binary_label(category: int) -> bool:
    """True iff the category code is in the nuclear-fuel-cycle set."""
    if category not in CATEGORY_DESCRIPTIONS:
        raise CorpusError(f"unknown subject category code {category}")
    return category in NFC_CATEGORIES


@dataclass(frozen=True)
class Document:
    """One abstract with its subject-category codes and derived binary label."""

    id: str
    text: str
    categories: tuple[int, ...] = ()
    nfc_label: bool | None = None

    @property
    def primary_category(self) -> int | None:
        return self.categories[0] if self.categories else None

    @property
    def is_labeled(self) -> bool:
        return bool(self.categories)


def make_document(
    doc_id: str,
    text: str,
    categories: Sequence[int] = (),
) -> Document:
    """Build a Document, deriving the binary label from the primary category."""
    if not text.strip():
        raise CorpusError(f"document {doc_id!r} has empty text")
    categories = tuple(int(c) for c in categories)
    nfc = map_binary_label(categories[0]) if categories else None
    return Document(id=str(doc_id), text=text, categories=categories, nfc_label=nfc)


def load_corpus(path) -> list[Document]:
    """Read JSON-lines documents in file order; records without categories stay unlabeled."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    docs: list[Document] = []
    seen_ids: set[str] = set()
    with path.open("r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{line_no}: malformed record: {exc.msg}") from exc
            if not isinstance(record, dict):
                raise CorpusFormatError(f"{path}:{line_no}: record is not an object")
            try:
                doc_id = str(record["id"])
                text = record["text"]
                categories = record.get("categories", [])
            except KeyError as exc:
                raise CorpusFormatError(f"{path}:{line_no}: missing field {exc.args[0]!r}") from exc
            if not isinstance(text, str) or not text.strip():
                raise CorpusFormatError(f"{path}:{line_no}: document {doc_id!r} has empty text")
            if not isinstance(categories, list) or any(type(code) is not int for code in categories):
                raise CorpusFormatError(f"{path}:{line_no}: categories must be a list of integer codes, not {categories!r}")
            if doc_id in seen_ids:
                raise CorpusFormatError(f"{path}:{line_no}: duplicate document id {doc_id!r}")
            seen_ids.add(doc_id)
            try:
                docs.append(make_document(doc_id, text, categories))
            except CorpusError as exc:
                raise CorpusFormatError(f"{path}:{line_no}: {exc}") from exc
    return docs


def save_corpus(docs: Iterable[Document], path) -> Path:
    path = Path(path)
    with atomic_open(path, encoding="utf-8") as handle:
        for doc in docs:
            record = {"id": doc.id, "text": doc.text, "categories": list(doc.categories)}
            handle.write(json.dumps(record, ensure_ascii=False) + "\n")
    return path


@dataclass(frozen=True)
class SplitSpec:
    pretrain_fraction: float = 0.8
    finetune_fraction: float = 0.1
    test_fraction: float = 0.1
    validation_fraction_of_finetune: float = 0.1
    seed: int = 0

    def validate(self) -> None:
        fractions = (self.pretrain_fraction, self.finetune_fraction, self.test_fraction)
        if any(not (0.0 < f < 1.0) for f in fractions):
            raise CorpusError(f"split fractions must be in (0, 1), got {fractions}")
        if abs(sum(fractions) - 1.0) > 1e-12:
            raise CorpusError(f"split fractions must sum to 1, got {sum(fractions)!r}")
        if not (0.0 < self.validation_fraction_of_finetune < 1.0):
            raise CorpusError("validation_fraction_of_finetune must be in (0, 1)")


@dataclass
class DatasetSplits:
    pretrain: list[Document] = field(default_factory=list)
    finetune_train: list[Document] = field(default_factory=list)
    finetune_validation: list[Document] = field(default_factory=list)
    test: list[Document] = field(default_factory=list)

    def as_dict(self) -> dict[str, list[Document]]:
        return {
            "pretrain": self.pretrain,
            "finetune_train": self.finetune_train,
            "finetune_validation": self.finetune_validation,
            "test": self.test,
        }

    def sizes(self) -> dict[str, int]:
        return {name: len(docs) for name, docs in self.as_dict().items()}


def _rank(doc_id: str, seed: int, salt: str) -> tuple[int, str]:
    digest = hashlib.sha256(f"{seed}:{salt}:{doc_id}".encode("utf-8")).digest()
    return int.from_bytes(digest[:16], "big"), doc_id


def _floor_then_distribute(total: int, fractions: Sequence[float]) -> list[int]:
    # Floor each share, then hand remainders out in declaration order.
    sizes = [int(f * total) for f in fractions]
    remainder = total - sum(sizes)
    for i in range(remainder):
        sizes[i % len(sizes)] += 1
    return sizes


def split_corpus(docs: Sequence[Document], spec: SplitSpec) -> DatasetSplits:
    """Partition documents into pretrain / finetune-train / finetune-validation / test.

    Assignment ranks documents by a seeded hash of their id and slices the
    ranking by the target sizes, so the partition is a deterministic function
    of (id, seed). Unlabeled documents are usable only for self-supervised
    pretraining; any that land in a labeled split are reassigned to pretrain.
    """
    spec.validate()
    if len(docs) < 10:
        raise CorpusError(f"need at least 10 documents to populate every split, got {len(docs)}")

    ranked = sorted(docs, key=lambda d: _rank(d.id, spec.seed, "split"))
    n_pre, n_ft, n_test = _floor_then_distribute(
        len(ranked),
        (spec.pretrain_fraction, spec.finetune_fraction, spec.test_fraction),
    )

    pretrain = list(ranked[:n_pre])
    finetune_pool = []
    test = []
    for doc in ranked[n_pre : n_pre + n_ft]:
        (finetune_pool if doc.is_labeled else pretrain).append(doc)
    for doc in ranked[n_pre + n_ft :]:
        (test if doc.is_labeled else pretrain).append(doc)

    pool_ranked = sorted(finetune_pool, key=lambda d: _rank(d.id, spec.seed, "validation"))
    n_val = int(spec.validation_fraction_of_finetune * len(pool_ranked))
    finetune_validation = pool_ranked[:n_val]
    finetune_train = pool_ranked[n_val:]

    return DatasetSplits(
        pretrain=pretrain,
        finetune_train=finetune_train,
        finetune_validation=finetune_validation,
        test=test,
    )


def nested_subsets(
    finetune_train: Sequence[Document],
    fractions: Sequence[float],
    seed: int = 0,
) -> list[list[Document]]:
    """Prefixes of one seeded ordering: each subset contains all smaller ones."""
    if not fractions:
        raise CorpusError("fraction list is empty")
    for f in fractions:
        if not (0.0 < f <= 1.0):
            raise CorpusError(f"fractions must be in (0, 1], got {f}")
    if any(b <= a for a, b in zip(fractions, fractions[1:])):
        raise CorpusError(f"fractions must be strictly ascending, got {list(fractions)}")

    ordered = sorted(finetune_train, key=lambda d: _rank(d.id, seed, "nested"))
    n = len(ordered)
    return [ordered[: int(f * n + 0.5)] for f in fractions]


# -- split manifests -----------------------------------------------------------


def write_split_manifests(splits: DatasetSplits, directory) -> dict[str, Path]:
    directory = Path(directory)
    paths = {}
    for name, docs in splits.as_dict().items():
        path = directory / f"{name}.txt"
        atomic_write_text(path, "".join(doc.id + "\n" for doc in docs))
        paths[name] = path
    return paths


def read_split_manifest(path) -> list[str]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"split manifest not found: {path}")
    first_line: dict[str, int] = {}
    for line_no, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        if line and first_line.setdefault(line, line_no) != line_no:
            raise CorpusError(f"{path}:{line_no}: id {line!r} repeats line {first_line[line]}")
    return list(first_line)


def select_documents(docs: Sequence[Document], ids: Sequence[str]) -> list[Document]:
    """Pick documents by id in manifest order; missing ids are an error."""
    by_id = {doc.id: doc for doc in docs}
    missing = [i for i in ids if i not in by_id]
    if missing:
        raise CorpusError(f"{len(missing)} manifest ids missing from corpus, first: {missing[0]!r}")
    return [by_id[i] for i in ids]
