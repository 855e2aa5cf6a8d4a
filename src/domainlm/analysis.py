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

import csv
import re
import warnings
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .autodiff import no_grad
from .corpus import Document
from .data import encode_for_classification, pad_batch
from .model import Checkpoint, encoder_forward
from .tokenizer import Tokenizer

__all__ = [
    "OUTLIER",
    "AnalysisError",
    "EmbeddingMatrix",
    "ClusterAssignment",
    "TopicSummary",
    "DEFAULT_STOP_WORDS",
    "export_cls_embeddings",
    "pca_project",
    "project_2d",
    "cluster_embeddings",
    "cbtfidf_topics",
    "topic_report",
    "save_embeddings",
    "load_embeddings",
    "write_projection_csv",
    "write_topic_csv",
]

# Cluster numbers are contiguous from 1; 0 marks density outliers.
OUTLIER = 0

DEFAULT_STOP_WORDS = frozenset(
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
    batch_size: int = 32,
) -> EmbeddingMatrix:
    """Final-layer position-0 vectors for a seeded document sample."""
    if checkpoint.tokenizer_hash != tokenizer.fingerprint():
        raise AnalysisError(
            "tokenizer fingerprint mismatch: checkpoint was trained with a different tokenizer"
        )
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
    pad_to = max(len(s) for s in sequences)
    rows = []
    with no_grad():
        for start in range(0, len(sequences), batch_size):
            ids, mask = pad_batch(sequences[start : start + batch_size], tokenizer.pad_id, pad_to)
            hidden = encoder_forward(checkpoint.params, config, ids, pad_mask=mask)
            rows.append(hidden.data[:, 0, :])
    return EmbeddingMatrix(
        ids=[d.id for d in sample],
        matrix=np.concatenate(rows, axis=0),
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


def cluster_embeddings(
    matrix: EmbeddingMatrix,
    min_cluster_size: int,
    radius: float,
    intermediate_dim: int = 16,
) -> ClusterAssignment:
    """Radius-based density clustering after PCA to an intermediate dimension.

    Points whose distance is at most `radius` are density-connected; connected
    groups of at least `min_cluster_size` points become clusters (numbered by
    decreasing size, then by smallest member row), everything else is an
    outlier. The radius graph is built from k-d tree pairs, so memory grows
    with the number of close pairs rather than with n^2.
    """
    # Imported here, not at module level: they add about 14 MB of resident
    # memory to every command that imports this module, and only this
    # function needs them.
    from scipy.sparse import coo_matrix
    from scipy.sparse.csgraph import connected_components
    from scipy.spatial import cKDTree

    if min_cluster_size < 2:
        raise AnalysisError(f"min_cluster_size must be at least 2, got {min_cluster_size}")
    if radius <= 0:
        raise AnalysisError(f"radius must be positive, got {radius}")
    x, ids = matrix.matrix, matrix.ids
    n = x.shape[0]
    if n < min_cluster_size:
        raise AnalysisError(f"{n} rows cannot contain a cluster of size {min_cluster_size}")

    reduced = pca_project(x, min(intermediate_dim, x.shape[1], n))
    pairs = cKDTree(reduced).query_pairs(radius, output_type="ndarray")
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    _, component = connected_components(graph, directed=False)
    _, first_row, sizes = np.unique(component, return_index=True, return_counts=True)

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
    n_documents: int
    n_classes: int


def extract_words(text: str, stop_words=DEFAULT_STOP_WORDS, min_length: int = 2) -> list[str]:
    return [
        w
        for w in _WORD_RE.findall(text.lower())
        if len(w) >= min_length and w not in stop_words
    ]


def cbtfidf_topics(
    assignment: ClusterAssignment,
    documents: Sequence[Document],
    top_k: int,
    stop_words=DEFAULT_STOP_WORDS,
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
        term_counts[cluster].update(extract_words(by_id[doc_id].text, stop_words))

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
    return TopicSummary(scores=scores, top_words=top_words, n_documents=m, n_classes=n_classes)


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
    base_path.parent.mkdir(parents=True, exist_ok=True)
    npy_path = base_path.with_suffix(".npy")
    ids_path = base_path.with_suffix(".ids.txt")
    np.save(npy_path, matrix.matrix)
    ids_path.write_text(
        f"# checkpoint {matrix.checkpoint_hash}\n" + "".join(i + "\n" for i in matrix.ids),
        encoding="utf-8",
    )
    return npy_path, ids_path


def load_embeddings(base_path) -> EmbeddingMatrix:
    base_path = Path(base_path)
    data = np.load(base_path.with_suffix(".npy"))
    lines = base_path.with_suffix(".ids.txt").read_text(encoding="utf-8").splitlines()
    if not lines or not lines[0].startswith("# checkpoint "):
        raise AnalysisError(f"bad id sidecar header for {base_path}")
    return EmbeddingMatrix(
        ids=[line for line in lines[1:] if line],
        matrix=data,
        checkpoint_hash=lines[0].removeprefix("# checkpoint ").strip(),
    )


def write_projection_csv(
    matrix: EmbeddingMatrix,
    coords: np.ndarray,
    assignment: ClusterAssignment,
    documents: Sequence[Document],
    path,
) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    labels = {d.id: d.nfc_label for d in documents}
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["id", "x", "y", "cluster", "true_label"])
        for i, doc_id in enumerate(matrix.ids):
            label = labels.get(doc_id)
            writer.writerow(
                [
                    doc_id,
                    f"{coords[i, 0]:.8f}",
                    f"{coords[i, 1]:.8f}",
                    assignment.assignments[doc_id],
                    "" if label is None else int(label),
                ]
            )
    return path


def write_topic_csv(summary: TopicSummary, path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(["cluster", "rank", "word", "score"])
        for cluster in sorted(summary.top_words):
            for rank, (word, score) in enumerate(summary.top_words[cluster], start=1):
                writer.writerow([cluster, rank, word, f"{score:.12f}"])
    return path
