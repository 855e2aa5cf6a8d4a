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
from functools import cached_property
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

    @cached_property
    def pca_axes(self) -> tuple[np.ndarray, np.ndarray | None]:
        """The centered float64 rows and their principal axes, largest first, computed on first use: the rows
        must not change after.

        Sign convention: each axis's largest-magnitude loading is positive, so
        identical inputs always give identical coordinates. Identical rows have
        no axes (None), with a warning.
        """
        x = np.asarray(self.matrix, dtype=np.float64)
        centered = x - x.mean(axis=0, keepdims=True)
        if np.max(np.abs(centered)) == 0.0:
            warnings.warn("all embedding rows are identical; projecting every point to the origin")
            return centered, None
        _, _, vt = np.linalg.svd(centered, full_matrices=False)
        pivots = np.abs(vt).argmax(axis=1)
        vt[vt[np.arange(len(vt)), pivots] < 0] *= -1
        return centered, vt


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


def pca_project(matrix: EmbeddingMatrix, n_components: int) -> np.ndarray:
    """Rows on the top `n_components` axes; a matrix's projections share one SVD."""
    centered, vt = matrix.pca_axes
    if vt is None:
        return np.zeros((centered.shape[0], n_components))
    return centered @ vt[:n_components].T


def project_2d(matrix: EmbeddingMatrix) -> np.ndarray:
    """Two-dimensional PCA coordinates, one (x, y) row per embedding row."""
    rows, dims = matrix.matrix.shape
    if rows < 3:
        raise AnalysisError(f"need at least 3 rows to project, got {rows}")
    if dims < 2:
        raise AnalysisError(f"need at least 2 dimensions, got {dims}")
    return pca_project(matrix, 2)


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
    first, second = pairs.T.astype(np.intp, order="C")  # converted once, not at every gather and scatter
    label = np.arange(n)
    while True:
        before = label.copy()
        np.minimum.at(label, first, label[second])
        np.minimum.at(label, second, label[first])
        while not np.array_equal(jumped := label[label], label):
            label = jumped
        if np.array_equal(label, before):
            return label


def _radius_pairs(points: np.ndarray, radius: float) -> np.ndarray:
    """Every row pair (i < j) whose squared distance, summed directly, is at most radius².

    One GEMM per block of at most 128 rows (2 MiB from 2048 rows on), upper
    triangle only, gives |a|² - 2 a·b + |b|², which is within `tol` of the
    direct sum in any order of summation: it decides the pairs outside
    radius² ± tol and the direct sum decides the few inside.
    """
    n = len(points)
    r2 = radius * radius
    norms = np.einsum("ij,ij->i", points, points)[:, None]
    tol = 1e-12 * (2 * norms.max() + r2)
    # Row i of `lhs` times row j of `rhs` is |p_i|² - 2 p_i·p_j + |p_j|².
    lhs = np.hstack([-2 * points, norms, np.ones_like(norms)])
    rhs = np.hstack([points, np.ones_like(norms), norms])
    rows = max(1, min(128, 2**18 // n))
    found = []
    for start in range(0, n, rows):
        d2 = lhs[start : start + rows] @ rhs[start:].T
        flat = np.flatnonzero(d2 <= r2 + tol)
        near = d2.ravel()[flat] >= r2 - tol
        i, j = flat // (n - start) + start, flat % (n - start) + start
        keep = j > i
        near &= keep
        keep[near] = np.sum((points[i[near]] - points[j[near]]) ** 2, axis=-1) <= r2
        found.append(np.stack([i[keep], j[keep]], axis=1, dtype=np.int32))
    return np.concatenate(found)


def cluster_embeddings(
    matrix: EmbeddingMatrix,
    min_cluster_size: int,
    radius: float,
) -> ClusterAssignment:
    """Radius-based density clustering after PCA to at most 16 dimensions.

    Points whose distance is at most `radius` are density-connected; connected
    groups of at least `min_cluster_size` points become clusters (numbered by
    decreasing size, then by smallest member row), everything else is an
    outlier. The radius graph is built block by block (`_radius_pairs`), so
    memory holds one block of distances plus the close pairs, not n^2.
    """
    if min_cluster_size < 2:
        raise AnalysisError(f"min_cluster_size must be at least 2, got {min_cluster_size}")
    if not 0 < radius < np.inf:
        raise AnalysisError(f"radius must be positive and finite, got {radius}")
    x, ids = matrix.matrix, matrix.ids
    n = x.shape[0]
    if n < min_cluster_size:
        raise AnalysisError(f"{n} rows cannot contain a cluster of size {min_cluster_size}")

    reduced = pca_project(matrix, min(16, x.shape[1], n))
    smallest = _smallest_connected_row(n, _radius_pairs(reduced, radius))
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
