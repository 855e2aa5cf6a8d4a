import csv
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from domainlm.analysis import (
    OUTLIER,
    AnalysisError,
    ClusterAssignment,
    EmbeddingMatrix,
    cbtfidf_topics,
    cluster_embeddings,
    export_cls_embeddings,
    extract_words,
    load_embeddings,
    pca_project,
    project_2d,
    save_embeddings,
    topic_report,
    write_projection_csv,
    write_topic_csv,
)
from domainlm.corpus import make_document

# Frozen: (2/3) * ln(2), computed independently at 30 digits.
HAND_SCORE = 0.4620981203732969


def _pairwise(x):
    return np.sqrt(np.sum((x[:, None, :] - x[None, :, :]) ** 2, axis=-1))


# -- projection -------------------------------------------------------------------


def test_projection_of_2d_data_preserves_distances():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 2)) @ np.array([[2.0, 0.3], [-0.5, 1.0]])
    coords = project_2d(x)
    np.testing.assert_allclose(_pairwise(coords), _pairwise(x), atol=1e-9)


def test_projection_separates_blobs():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(50, 64)) * 0.5
    b = rng.normal(size=(50, 64)) * 0.5
    b[:, 0] += 30.0
    coords = project_2d(np.vstack([a, b]))
    centroid_gap = np.linalg.norm(coords[:50].mean(0) - coords[50:].mean(0))
    within = np.mean([
        np.linalg.norm(coords[:50] - coords[:50].mean(0), axis=1).mean(),
        np.linalg.norm(coords[50:] - coords[50:].mean(0), axis=1).mean(),
    ])
    assert centroid_gap > 5 * within


def test_identical_rows_project_to_origin_with_warning():
    x = np.ones((5, 8))
    with pytest.warns(UserWarning, match="identical"):
        coords = project_2d(x)
    np.testing.assert_array_equal(coords, np.zeros((5, 2)))


def test_projection_is_deterministic():
    rng = np.random.default_rng(2)
    x = rng.normal(size=(30, 16))
    np.testing.assert_array_equal(project_2d(x), project_2d(x))


def test_projection_sign_convention_fixed():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(25, 6))
    coords = project_2d(x)
    # By convention the largest-magnitude loading of each component is
    # positive, so the projection of the doubled dataset matches exactly.
    doubled = project_2d(np.vstack([x, x]))
    np.testing.assert_allclose(doubled[:25], coords, atol=1e-8)


def test_projection_requires_three_rows_and_two_dims():
    with pytest.raises(AnalysisError, match="3 rows"):
        project_2d(np.zeros((2, 4)))
    with pytest.raises(AnalysisError, match="2 dimensions"):
        project_2d(np.zeros((5, 1)))


# -- clustering -------------------------------------------------------------------


def _matrix(x):
    return EmbeddingMatrix(ids=[f"d{i}" for i in range(x.shape[0])], matrix=x, checkpoint_hash="h")


def _two_blobs(n=50, gap=30.0, dim=8, seed=4):
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(n, dim)) * 0.3
    b = rng.normal(size=(n, dim)) * 0.3
    b[:, 0] += gap
    return np.vstack([a, b])


def test_two_blobs_cluster_cleanly():
    x = _two_blobs()
    assignment = cluster_embeddings(_matrix(x), min_cluster_size=10, radius=2.0)
    assert assignment.n_clusters == 2
    assert assignment.outliers() == []
    first = {f"d{i}" for i in range(50)}
    clusters_of_first = {assignment.assignments[i] for i in first}
    assert len(clusters_of_first) == 1


def test_sparse_scatter_is_all_outliers():
    rng = np.random.default_rng(5)
    x = rng.uniform(0, 1000, size=(40, 4))
    assignment = cluster_embeddings(_matrix(x), min_cluster_size=5, radius=0.5)
    assert assignment.n_clusters == 0
    assert len(assignment.outliers()) == 40


def test_duplicating_points_preserves_structure():
    x = _two_blobs(n=25)
    base = cluster_embeddings(_matrix(x), min_cluster_size=10, radius=2.0)
    doubled_matrix = EmbeddingMatrix(
        ids=[f"d{i}" for i in range(100)], matrix=np.vstack([x, x]), checkpoint_hash="h"
    )
    doubled = cluster_embeddings(doubled_matrix, min_cluster_size=10, radius=2.0)
    assert doubled.n_clusters == base.n_clusters == 2
    for i in range(50):
        assert doubled.assignments[f"d{i}"] == doubled.assignments[f"d{i + 50}"]


def test_cluster_numbers_contiguous_from_one():
    x = _two_blobs()
    assignment = cluster_embeddings(_matrix(x), min_cluster_size=10, radius=2.0)
    seen = set(assignment.assignments.values()) - {OUTLIER}
    assert seen == set(range(1, assignment.n_clusters + 1))


def test_cluster_assignment_permutation_invariant_up_to_relabeling():
    x = _two_blobs(n=20)
    rng = np.random.default_rng(6)
    perm = rng.permutation(x.shape[0])
    base = cluster_embeddings(_matrix(x), min_cluster_size=5, radius=2.0)
    shuffled_matrix = EmbeddingMatrix(
        ids=[f"d{i}" for i in perm], matrix=x[perm], checkpoint_hash="h"
    )
    shuffled = cluster_embeddings(shuffled_matrix, min_cluster_size=5, radius=2.0)
    mapping = {}
    for doc_id, cluster in base.assignments.items():
        other = shuffled.assignments[doc_id]
        mapping.setdefault(cluster, other)
        assert mapping[cluster] == other


def _oracle_cluster(x, min_cluster_size, radius, intermediate_dim=16):
    """Reference clusterer: dense pairwise distances plus breadth-first search.

    Returns row -> cluster number (OUTLIER for rows outside every cluster).
    """
    n = x.shape[0]
    reduced = pca_project(x, min(intermediate_dim, x.shape[1], n))
    d2 = np.sum((reduced[:, None, :] - reduced[None, :, :]) ** 2, axis=-1)
    adjacent = d2 <= radius * radius
    component = np.full(n, -1, dtype=np.int64)
    components = []
    for start in range(n):
        if component[start] >= 0:
            continue
        label = len(components)
        queue = [start]
        component[start] = label
        members = [start]
        while queue:
            node = queue.pop()
            for neighbor in np.flatnonzero(adjacent[node]):
                if component[neighbor] < 0:
                    component[neighbor] = label
                    queue.append(int(neighbor))
                    members.append(int(neighbor))
        components.append(sorted(members))
    big = [c for c in components if len(c) >= min_cluster_size]
    big.sort(key=lambda c: (-len(c), c[0]))
    out = {row: OUTLIER for row in range(n)}
    for number, members in enumerate(big, start=1):
        for row in members:
            out[row] = number
    return out, reduced


@pytest.mark.filterwarnings("ignore:all embedding rows are identical")
@settings(max_examples=200, deadline=None)
@given(
    x=st.integers(2, 40).flatmap(
        lambda n: st.integers(1, 5).flatmap(
            lambda d: arrays(np.float64, (n, d), elements=st.floats(-3, 3, allow_nan=False, width=64))
        )
    ),
    radius=st.floats(0.05, 3.0),
    min_cluster_size=st.integers(2, 6),
)
def test_clustering_matches_dense_bfs_oracle(x, radius, min_cluster_size):
    assume(x.shape[0] >= min_cluster_size)
    expected, reduced = _oracle_cluster(x, min_cluster_size, radius)
    distances = np.sqrt(np.sum((reduced[:, None, :] - reduced[None, :, :]) ** 2, axis=-1))
    assume(np.all(np.abs(distances - radius) > 1e-9))
    assignment = cluster_embeddings(_matrix(x), min_cluster_size=min_cluster_size, radius=radius)
    assert assignment.assignments == {f"d{row}": c for row, c in expected.items()}
    assert assignment.n_clusters == max(expected.values())


def test_clustering_memory_stays_below_dense_distance_tensor():
    # 40 blobs of 50 points, 100 apart: a dense (n, n, 16) float64 distance
    # tensor alone would take 512 MB.
    rng = np.random.default_rng(9)
    centers = rng.normal(size=(40, 16)) * 100.0
    x = np.repeat(centers, 50, axis=0) + rng.normal(size=(2000, 16)) * 0.05
    tracemalloc.start()
    try:
        assignment = cluster_embeddings(_matrix(x), min_cluster_size=10, radius=2.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert assignment.n_clusters == 40
    assert peak < 64 * 2**20


def test_min_cluster_size_below_two_rejected():
    with pytest.raises(AnalysisError, match="min_cluster_size"):
        cluster_embeddings(_matrix(np.zeros((10, 3))), min_cluster_size=1, radius=1.0)


def test_nonpositive_radius_rejected():
    with pytest.raises(AnalysisError, match="radius"):
        cluster_embeddings(_matrix(np.zeros((10, 3))), min_cluster_size=2, radius=0.0)


# -- class-based TF-IDF ----------------------------------------------------------------


def test_hand_computed_score():
    docs = [
        make_document("a", "fuel fuel", [5]),
        make_document("b", "rod", [5]),
        make_document("c", "star star", [1]),
        make_document("d", "star", [1]),
    ]
    assignment = ClusterAssignment({"a": 1, "b": 1, "c": 2, "d": 2}, n_clusters=2)
    summary = cbtfidf_topics(assignment, docs, top_k=3)
    # Cluster 1 concatenates to "fuel fuel rod": t=2, w=3, m=4, class sum=2.
    assert summary.scores[1]["fuel"] == pytest.approx(HAND_SCORE, abs=1e-12)


def test_word_absent_from_cluster_scores_zero():
    docs = [
        make_document("a", "fuel fuel", [5]),
        make_document("b", "star star", [1]),
    ]
    assignment = ClusterAssignment({"a": 1, "b": 2}, n_clusters=2)
    summary = cbtfidf_topics(assignment, docs, top_k=2)
    assert summary.scores[2]["fuel"] == 0.0


def test_symmetric_word_scores_equally_everywhere():
    docs = [
        make_document("a", "shared alpha", [5]),
        make_document("b", "shared beta", [1]),
    ]
    assignment = ClusterAssignment({"a": 1, "b": 2}, n_clusters=2)
    summary = cbtfidf_topics(assignment, docs, top_k=3)
    assert summary.scores[1]["shared"] == pytest.approx(summary.scores[2]["shared"], abs=1e-15)


def _oracle_cbtfidf(cluster_texts: dict[int, str], m: int):
    """Independent recomputation from raw token counts."""
    counts = {c: Counter(extract_words(t)) for c, t in cluster_texts.items()}
    totals = {c: sum(cnt.values()) for c, cnt in counts.items()}
    vocabulary = set()
    for cnt in counts.values():
        vocabulary |= set(cnt)
    out = {}
    for c in cluster_texts:
        out[c] = {}
        for word in vocabulary:
            t = counts[c][word]
            class_sum = sum(counts[k][word] for k in counts)
            out[c][word] = (t / totals[c]) * math.log(m / class_sum) if t else 0.0
    return out


def test_scores_match_independent_oracle_on_random_corpora():
    rng = np.random.default_rng(9)
    vocabulary = ["atom", "fuel", "ore", "star", "wind", "rock", "code", "cell", "wave", "dust"]
    for trial in range(40):
        n_docs = int(rng.integers(4, 12))
        n_clusters = int(rng.integers(1, 4))
        docs, assignment = [], {}
        for i in range(n_docs):
            words = [vocabulary[k] for k in rng.integers(0, len(vocabulary), size=rng.integers(2, 9))]
            doc = make_document(f"t{trial}-{i}", " ".join(words), [5])
            docs.append(doc)
            assignment[doc.id] = int(rng.integers(0, n_clusters + 1))  # 0 = outlier
        if any(v > 0 for v in assignment.values()):
            n_present = max(assignment.values())
            # Keep cluster numbers contiguous by renumbering.
            present = sorted({v for v in assignment.values() if v > 0})
            renum = {old: new for new, old in enumerate(present, start=1)}
            assignment = {k: renum.get(v, OUTLIER) for k, v in assignment.items()}
            n_present = len(present)
        else:
            continue
        ca = ClusterAssignment(assignment, n_clusters=n_present)
        cluster_texts = {
            c: " ".join(d.text for d in docs if assignment[d.id] == c)
            for c in range(1, n_present + 1)
        }
        if any(not extract_words(t) for t in cluster_texts.values()):
            continue
        summary = cbtfidf_topics(ca, docs, top_k=3)
        expected = _oracle_cbtfidf(cluster_texts, len(docs))
        for c in expected:
            for word, score in expected[c].items():
                assert summary.scores[c][word] == pytest.approx(score, abs=1e-12)


def test_scaling_one_class_counts_keeps_within_class_ranking():
    base_docs = [
        make_document("a", "fuel fuel rod pellet", [5]),
        make_document("b", "star dust", [1]),
    ]
    scaled_docs = [
        make_document("a", "fuel fuel rod pellet " * 3, [5]),
        make_document("b", "star dust", [1]),
    ]
    a1 = ClusterAssignment({"a": 1, "b": 2}, n_clusters=2)
    base = cbtfidf_topics(a1, base_docs, top_k=5)
    scaled = cbtfidf_topics(a1, scaled_docs, top_k=5)

    def ranking_by_rate(summary, docs):
        words = Counter(extract_words(docs[0].text))
        total = sum(words.values())
        return sorted(words, key=lambda w: (-words[w] / total, w))

    assert ranking_by_rate(base, base_docs) == ranking_by_rate(scaled, scaled_docs)


def test_empty_cluster_after_concatenation_rejected():
    docs = [make_document("a", "of the in", [5])]  # all stop words
    assignment = ClusterAssignment({"a": 1}, n_clusters=1)
    with pytest.raises(AnalysisError, match="no countable words"):
        cbtfidf_topics(assignment, docs, top_k=1)


def test_ties_break_lexicographically():
    docs = [
        make_document("a", "zeta alpha", [5]),
        make_document("b", "orbit comet", [1]),
    ]
    assignment = ClusterAssignment({"a": 1, "b": 2}, n_clusters=2)
    summary = cbtfidf_topics(assignment, docs, top_k=2)
    words = [w for w, _ in summary.top_words[1]]
    assert words == ["alpha", "zeta"]


def test_topic_report_format():
    docs = [
        make_document("a", "fuel rod pellet", [5]),
        make_document("b", "star dust comet", [1]),
    ]
    assignment = ClusterAssignment({"a": 1, "b": 2}, n_clusters=2)
    summary = cbtfidf_topics(assignment, docs, top_k=3)
    report = topic_report(summary)
    lines = report.splitlines()
    assert len(lines) == 3
    assert "fuel" in lines[1] and "," in lines[1]


def test_single_cluster_single_word():
    docs = [make_document("a", "fuel fuel", [5]), make_document("b", "rockets", [1])]
    assignment = ClusterAssignment({"a": 1, "b": OUTLIER}, n_clusters=1)
    summary = cbtfidf_topics(assignment, docs, top_k=1)
    assert summary.top_words[1] == [("fuel", pytest.approx((2 / 2) * math.log(2 / 2)))]


# -- embedding export --------------------------------------------------------------------


def test_export_embeddings_deterministic(toy_docs, toy_tokenizer, toy_base_checkpoint):
    a = export_cls_embeddings(toy_base_checkpoint, toy_docs[:60], 20, seed=1, tokenizer=toy_tokenizer)
    b = export_cls_embeddings(toy_base_checkpoint, toy_docs[:60], 20, seed=1, tokenizer=toy_tokenizer)
    assert a.ids == b.ids
    np.testing.assert_array_equal(a.matrix, b.matrix)


def test_export_full_sample_covers_every_document(toy_docs, toy_tokenizer, toy_base_checkpoint):
    matrix = export_cls_embeddings(toy_base_checkpoint, toy_docs[:30], 30, seed=0, tokenizer=toy_tokenizer)
    assert sorted(matrix.ids) == sorted(d.id for d in toy_docs[:30])


def test_identical_token_sequences_embed_identically(toy_tokenizer, toy_base_checkpoint):
    twin_a = make_document("twin-a", "the fuel rod assembly", [5])
    twin_b = make_document("twin-b", "the fuel rod assembly", [5])
    matrix = export_cls_embeddings(
        toy_base_checkpoint, [twin_a, twin_b], 2, seed=0, tokenizer=toy_tokenizer
    )
    np.testing.assert_array_equal(matrix.matrix[0], matrix.matrix[1])


def test_oversized_sample_rejected(toy_docs, toy_tokenizer, toy_base_checkpoint):
    with pytest.raises(AnalysisError, match="sample_size"):
        export_cls_embeddings(toy_base_checkpoint, toy_docs[:10], 11, seed=0, tokenizer=toy_tokenizer)


def test_export_rejects_foreign_tokenizer(toy_docs, toy_base_checkpoint):
    from domainlm.tokenizer import Tokenizer

    other = Tokenizer.train(["different text entirely"], 280)
    with pytest.raises(AnalysisError, match="tokenizer"):
        export_cls_embeddings(toy_base_checkpoint, toy_docs[:10], 5, seed=0, tokenizer=other)


# -- file formats ------------------------------------------------------------------------


def test_embedding_files_roundtrip(tmp_path):
    matrix = EmbeddingMatrix(ids=["a", "b"], matrix=np.ones((2, 4)), checkpoint_hash="deadbeef")
    save_embeddings(matrix, tmp_path / "emb")
    loaded = load_embeddings(tmp_path / "emb")
    assert loaded.ids == ["a", "b"]
    assert loaded.checkpoint_hash == "deadbeef"
    np.testing.assert_array_equal(loaded.matrix, matrix.matrix)


def test_projection_and_topic_csvs(tmp_path):
    docs = [
        make_document("a", "fuel rod", [5]),
        make_document("b", "star dust", [1]),
        make_document("c", "fuel pellet", [11]),
    ]
    matrix = EmbeddingMatrix(
        ids=["a", "b", "c"], matrix=np.array([[0.0, 0], [5, 5], [0.2, 0]]), checkpoint_hash="h"
    )
    coords = project_2d(matrix)
    assignment = ClusterAssignment({"a": 1, "b": OUTLIER, "c": 1}, n_clusters=1)
    proj_path = write_projection_csv(matrix, coords, assignment, docs, tmp_path / "proj.csv")
    with proj_path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["id", "x", "y", "cluster", "true_label"]
    assert rows[1][0] == "a" and rows[1][3] == "1" and rows[1][4] == "1"
    assert rows[2][3] == "0"  # outlier

    summary = cbtfidf_topics(assignment, docs, top_k=2)
    topic_path = write_topic_csv(summary, tmp_path / "topics.csv")
    with topic_path.open() as handle:
        rows = list(csv.reader(handle))
    assert rows[0] == ["cluster", "rank", "word", "score"]
    assert [r[1] for r in rows[1:]] == ["1", "2"]
