"""Qualitative analysis of document embeddings.

Exports position-0 hidden vectors for a document sample, projects them to two
dimensions with deterministic PCA, groups them with radius-based density
clustering, and scores words per cluster with class-based TF-IDF: after
concatenating each cluster's documents into one class,

    score_i(word) = (t_i / w_i) * ln(m / sum_j t_j)

where t_i is the word's frequency in class i, w_i the total words in class i,
m the number of sampled documents, and the sum runs over the classes.
"""

from __future__ import annotations

import re
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .configio import atomic_open, atomic_write_text, write_csv
from .corpus import Document
from .data import encode_for_classification
from .evaluation import cls_vectors
from .model import Checkpoint
from .tokenizer import Tokenizer

__all__ = [
    "OUTLIER",
    "AnalysisError",
    "EmbeddingMatrix",
    "ClusterAssignment",
    "TopicSummary",
    "STOP_WORDS",
    "export_cls_embeddings",
    "pca_project",
    "project_2d",
    "cluster_embeddings",
    "cbtfidf_topics",
    "topic_report",
    "save_embeddings",
    "write_projection_csv",
    "write_topic_csv",
]

# Cluster numbers are contiguous from 1; 0 marks density outliers.
OUTLIER = 0

STOP_WORDS = frozenset(
    "the a an of in on at is are was be and or for with to by from as it its this that near".split()
)

_WORD_RE = re.compile(r"[^\W_]+", re.UNICODE)


class AnalysisError(ValueError):
    pass


@dataclass
class EmbeddingMatrix:
    ids: list[str]
    matrix: np.ndarray
    checkpoint_hash: str

    def __post_init__(self):
        if len(self.ids) != self.matrix.shape[0]:
            raise AnalysisError(
                f"{len(self.ids)} ids for {self.matrix.shape[0]} embedding rows"
            )
        if not np.all(np.isfinite(self.matrix)):
            raise AnalysisError("embedding matrix contains non-finite entries")


def export_cls_embeddings(
    checkpoint: Checkpoint,
    documents: Sequence[Document],
    sample_size: int,
    seed: int,
    tokenizer: Tokenizer,
) -> EmbeddingMatrix:
    """Final-layer position-0 vectors for a seeded document sample."""
    checkpoint.check_tokenizer(tokenizer)
    if sample_size < 1:
        raise AnalysisError("sample_size must be at least 1")
    if sample_size > len(documents):
        raise AnalysisError(
            f"sample_size {sample_size} exceeds available documents ({len(documents)})"
        )
    rng = np.random.default_rng(np.random.SeedSequence((seed, 0xE3)))
    chosen = rng.choice(len(documents), size=sample_size, replace=False)
    sample = [documents[int(i)] for i in chosen]

    config = checkpoint.config
    sequences = [encode_for_classification(d, tokenizer, config.max_positions) for d in sample]
    return EmbeddingMatrix(
        ids=[d.id for d in sample],
        matrix=cls_vectors(checkpoint.params, config, sequences, tokenizer.pad_id),
        checkpoint_hash=checkpoint.fingerprint(),
    )


# -- projection -------------------------------------------------------------------


def pca_project(matrix: np.ndarray, n_components: int) -> np.ndarray:
    """Project rows onto the top principal components, deterministically.

    Sign convention: each component's largest-magnitude loading is positive,
    so identical inputs always give identical coordinates.
    """
    x = np.asarray(matrix, dtype=np.float64)
    centered = x - x.mean(axis=0, keepdims=True)
    if np.max(np.abs(centered)) == 0.0:
        warnings.warn("all embedding rows are identical; projecting every point to the origin")
        return np.zeros((x.shape[0], n_components))
    _, _, vt = np.linalg.svd(centered, full_matrices=False)
    components = vt[:n_components]
    for row in range(components.shape[0]):
        pivot = np.argmax(np.abs(components[row]))
        if components[row, pivot] < 0:
            components[row] = -components[row]
    coords = centered @ components.T
    if coords.shape[1] < n_components:
        coords = np.pad(coords, ((0, 0), (0, n_components - coords.shape[1])))
    return coords


def project_2d(matrix: EmbeddingMatrix | np.ndarray) -> np.ndarray:
    """Two-dimensional PCA coordinates, one (x, y) row per embedding row."""
    x = matrix.matrix if isinstance(matrix, EmbeddingMatrix) else np.asarray(matrix)
    if x.shape[0] < 3:
        raise AnalysisError(f"need at least 3 rows to project, got {x.shape[0]}")
    if x.shape[1] < 2:
        raise AnalysisError(f"need at least 2 dimensions, got {x.shape[1]}")
    return pca_project(x, 2)


# -- clustering -------------------------------------------------------------------


@dataclass
class ClusterAssignment:
    """Document id -> cluster number (contiguous from 1) or OUTLIER."""

    assignments: dict[str, int]
    n_clusters: int

    def members(self, cluster: int) -> list[str]:
        return [i for i, c in self.assignments.items() if c == cluster]

    def outliers(self) -> list[str]:
        return self.members(OUTLIER)


def _smallest_connected_row(n: int, pairs: np.ndarray) -> np.ndarray:
    """For each of `n` rows, the smallest row connected to it through the (i, j) `pairs`.

    Label propagation: each pair gives both ends the smaller label, then pointer
    jumping, until a round changes nothing and so every pair's ends agree.
    """
    label = np.arange(n)
    while True:
        before = label.copy()
        np.minimum.at(label, pairs[:, 0], label[pairs[:, 1]])
        np.minimum.at(label, pairs[:, 1], label[pairs[:, 0]])
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        if np.array_equal(label, before):
            return label


def cluster_embeddings(
    matrix: EmbeddingMatrix,
    min_cluster_size: int,
    radius: float,
) -> ClusterAssignment:
    """Radius-based density clustering after PCA to at most 16 dimensions.

    Points whose distance is at most `radius` are density-connected; connected
    groups of at least `min_cluster_size` points become clusters (numbered by
    decreasing size, then by smallest member row), everything else is an
    outlier. The radius graph is built from k-d tree pairs, so memory grows
    with the number of close pairs rather than with n^2.
    """
    # Imported here, not at module level: it adds resident memory to every
    # command that imports this module, and only this function needs it.
    from scipy.spatial import cKDTree

    if min_cluster_size < 2:
        raise AnalysisError(f"min_cluster_size must be at least 2, got {min_cluster_size}")
    if not 0 < radius < np.inf:
        raise AnalysisError(f"radius must be positive and finite, got {radius}")
    x, ids = matrix.matrix, matrix.ids
    n = x.shape[0]
    if n < min_cluster_size:
        raise AnalysisError(f"{n} rows cannot contain a cluster of size {min_cluster_size}")

    reduced = pca_project(x, min(16, x.shape[1], n))
    pairs = cKDTree(reduced).query_pairs(radius, output_type="ndarray")
    smallest = _smallest_connected_row(n, pairs)
    first_row, component, sizes = np.unique(smallest, return_inverse=True, return_counts=True)

    order = np.lexsort((first_row, -sizes))
    big = order[sizes[order] >= min_cluster_size]
    number = np.full(len(sizes), OUTLIER, dtype=np.int64)
    number[big] = np.arange(1, len(big) + 1)
    assignments = {doc_id: int(number[c]) for doc_id, c in zip(ids, component)}
    return ClusterAssignment(assignments=assignments, n_clusters=len(big))


# -- class-based TF-IDF --------------------------------------------------------------


@dataclass
class TopicSummary:
    """Per-cluster word scores and the top-k words by score."""

    scores: dict[int, dict[str, float]]
    top_words: dict[int, list[tuple[str, float]]]


def extract_words(text: str) -> list[str]:
    return [
        w
        for w in _WORD_RE.findall(text.lower())
        if len(w) >= 2 and w not in STOP_WORDS
    ]


def cbtfidf_topics(
    assignment: ClusterAssignment,
    documents: Sequence[Document],
    top_k: int,
) -> TopicSummary:
    """Score words per cluster; outlier documents carry no class statistics.

    The document count m includes outliers (it counts the analyzed sample);
    the per-word sum over classes does not, because outliers form no class.
    """
    if top_k < 1:
        raise AnalysisError("top_k must be at least 1")
    by_id = {d.id: d for d in documents}
    missing = [i for i in assignment.assignments if i not in by_id]
    if missing:
        raise AnalysisError(f"assigned document {missing[0]!r} not found among documents")

    m = len(documents)
    n_classes = assignment.n_clusters
    term_counts: dict[int, Counter] = {c: Counter() for c in range(1, n_classes + 1)}
    for doc_id, cluster in assignment.assignments.items():
        if cluster == OUTLIER:
            continue
        term_counts[cluster].update(extract_words(by_id[doc_id].text))

    totals = {c: sum(counts.values()) for c, counts in term_counts.items()}
    for cluster, total in totals.items():
        if total == 0:
            raise AnalysisError(f"cluster {cluster} has no countable words after concatenation")

    word_class_sums = Counter()
    for counts in term_counts.values():
        word_class_sums.update(counts)

    scores: dict[int, dict[str, float]] = {}
    top_words: dict[int, list[tuple[str, float]]] = {}
    for cluster in range(1, n_classes + 1):
        counts = term_counts[cluster]
        w_total = totals[cluster]
        cluster_scores = {}
        for word, class_sum in word_class_sums.items():
            t = counts.get(word, 0)
            cluster_scores[word] = (t / w_total) * np.log(m / class_sum) if t else 0.0
        scores[cluster] = cluster_scores
        ranked = sorted(cluster_scores.items(), key=lambda kv: (-kv[1], kv[0]))
        top_words[cluster] = ranked[:top_k]
    return TopicSummary(scores=scores, top_words=top_words)


def topic_report(summary: TopicSummary) -> str:
    """One row per cluster with its top words in rank order."""
    lines = [f"{'cluster':<8} top words"]
    for cluster in sorted(summary.top_words):
        words = ", ".join(word for word, _ in summary.top_words[cluster])
        lines.append(f"{cluster:<8} {words}")
    return "\n".join(lines)


# -- file formats -----------------------------------------------------------------


def save_embeddings(matrix: EmbeddingMatrix, base_path) -> tuple[Path, Path]:
    """Write <base>.npy (row-major float array) and an id sidecar <base>.ids.txt."""
    base_path = Path(base_path)
    npy_path = base_path.with_suffix(".npy")
    ids_path = base_path.with_suffix(".ids.txt")
    with atomic_open(npy_path, "wb") as handle:
        np.save(handle, matrix.matrix)
    atomic_write_text(
        ids_path, f"# checkpoint {matrix.checkpoint_hash}\n" + "".join(i + "\n" for i in matrix.ids)
    )
    return npy_path, ids_path


def write_projection_csv(
    matrix: EmbeddingMatrix,
    coords: np.ndarray,
    assignment: ClusterAssignment,
    documents: Sequence[Document],
    path,
) -> Path:
    labels = {d.id: d.nfc_label for d in documents}
    rows = (
        [
            doc_id,
            f"{coords[i, 0]:.8f}",
            f"{coords[i, 1]:.8f}",
            assignment.assignments[doc_id],
            "" if labels.get(doc_id) is None else int(labels[doc_id]),
        ]
        for i, doc_id in enumerate(matrix.ids)
    )
    return write_csv(path, ["id", "x", "y", "cluster", "true_label"], rows)


def write_topic_csv(summary: TopicSummary, path) -> Path:
    rows = (
        [cluster, rank, word, f"{score:.12f}"]
        for cluster in sorted(summary.top_words)
        for rank, (word, score) in enumerate(summary.top_words[cluster], start=1)
    )
    return write_csv(path, ["cluster", "rank", "word", "score"], rows)
