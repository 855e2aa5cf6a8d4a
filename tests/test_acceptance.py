"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single PASS/FAIL line
(run with `pytest tests/test_acceptance.py -v -s` to see them), and enforces
its runtime budget. Expected values come from independent oracles: central
finite differences, brute-force metric recomputation, hand-evaluated
formulas, and Monte-Carlo statistics.
"""

import contextlib
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from domainlm.analysis import ClusterAssignment, cbtfidf_topics
from domainlm.corpus import DEFAULT_LABEL_SCHEME, CorpusError, map_binary_label, nested_subsets
from domainlm.evaluation import classification_metrics, evaluate_mlm
from domainlm.corpus import make_document
from domainlm.model import (
    Checkpoint,
    ModelBundle,
    ModelConfig,
    backward,
    cls_logits_from_hidden,
    cross_entropy,
    encoder_forward,
    init_parameters,
    mlm_logits_from_hidden,
    predict_top_k,
    save_checkpoint,
)
from domainlm.synthetic import (
    CODE_POOLS,
    GENERAL_TOY_CODES,
    NFC_TOY_CODES,
    domain_corpus,
    general_corpus,
    make_corpus,
)
from domainlm.tokenizer import Tokenizer, train_bpe
from domainlm.training import (
    MaskingPolicy,
    TrainingConfig,
    apply_dynamic_masking,
    finetune_classifier,
    hyperparameter_grid,
    pack_segments,
    pretrain_mlm,
    scaling_study,
    select_best_checkpoint,
)

from conftest import MEMO_SENTENCE, finite_difference_gradients, max_relative_error
from test_analysis import _oracle_cbtfidf
from test_evaluation import _oracle_metrics


@contextlib.contextmanager
def criterion(number, name, budget_seconds):
    start = time.time()
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:02d} {name}: FAIL")
        raise
    elapsed = time.time() - start
    within = elapsed < budget_seconds
    verdict = "PASS" if within else "FAIL (over runtime budget)"
    print(f"\nACCEPTANCE {number:02d} {name}: {verdict} ({elapsed:.1f}s, budget {budget_seconds:.0f}s)")
    assert within, f"runtime {elapsed:.1f}s exceeded the {budget_seconds:.0f}s budget"


def test_criterion_01_gradient_correctness():
    with criterion(1, "gradient correctness vs central differences", 30):
        config = ModelConfig(
            num_layers=2, num_heads=2, hidden_dim=16, ff_dim=32,
            vocab_size=64, max_positions=8, num_classes=2, dropout_rate=0.0,
        )
        params = init_parameters(config, seed=12)
        ids = np.array([[1, 5, 9, 33, 17, 2]])
        rows = np.array([0, 0])
        cols = np.array([1, 3])
        targets = np.array([5, 33])

        def loss():
            hidden = encoder_forward(params, config, ids)
            mlm = cross_entropy(mlm_logits_from_hidden(hidden[rows, cols], params, config), targets)
            cls = cross_entropy(cls_logits_from_hidden(hidden[:, 0], params, config), np.array([1]))
            return mlm + cls

        grads = backward(loss(), params)
        fd = finite_difference_gradients(lambda: float(loss().data), params, h=1e-4)
        worst = max(max_relative_error(grads[name], fd[name]) for name in params)
        assert worst < 1e-4, f"max relative error {worst}"


def test_criterion_02_masking_statistics(toy_tokenizer):
    with criterion(2, "masking rate and 80/10/10 replacement statistics", 60):
        rng = np.random.default_rng(2024)
        vocab = toy_tokenizer.vocab_size
        docs = (rng.integers(5, vocab, size=1700) for _ in range(3100))
        segments = pack_segments(docs, toy_tokenizer.sep_id, 512)[:10000]
        assert len(segments) == 10000

        policy = MaskingPolicy()
        special_ids = set(toy_tokenizer.special_ids)
        selected = maskable = masked = kept = randomized = 0
        for step, segment in enumerate(segments):
            out = apply_dynamic_masking(segment, policy, step, toy_tokenizer)
            originals = segment[out.target_positions]
            assert not set(originals.tolist()) & special_ids
            corrupted = out.input_ids[out.target_positions]
            maskable += int((~np.isin(segment, list(special_ids))).sum())
            selected += len(out.target_positions)
            masked += int((corrupted == toy_tokenizer.mask_id).sum())
            kept += int((corrupted == originals).sum())
            randomized += int(((corrupted != originals) & (corrupted != toy_tokenizer.mask_id)).sum())

        rate = selected / maskable
        assert abs(rate - 0.15) < 0.005, f"selection rate {rate}"
        assert abs(masked / selected - 0.80) < 0.01
        assert abs(randomized / selected - 0.10) < 0.01
        assert abs(kept / selected - 0.10) < 0.01


def test_criterion_03_domain_adaptation_direction(toy_tokenizer, toy_model_config):
    with criterion(3, "continued pretraining lowers in-domain loss >= 10%", 600):
        tok = toy_tokenizer
        general = general_corpus(400, seed=21)
        domain_train = domain_corpus(400, seed=22)
        domain_heldout = domain_corpus(100, seed=23)
        seg = lambda docs: pack_segments((tok.encode(d.text) for d in docs), tok.sep_id, 32)

        base = pretrain_mlm(
            TrainingConfig(learning_rate=3e-3, batch_size=16, total_steps=400, log_every=200, seed=31),
            seg(general), toy_model_config, tok,
        )
        loss_before = evaluate_mlm(base.checkpoint.params, toy_model_config, seg(domain_heldout), tok, seed=99)
        adapted = pretrain_mlm(
            TrainingConfig(learning_rate=3e-3, batch_size=16, total_steps=400, log_every=200, seed=32),
            seg(domain_train), base.checkpoint, tok,
        )
        loss_after = evaluate_mlm(adapted.checkpoint.params, toy_model_config, seg(domain_heldout), tok, seed=99)

        print(f"\n  held-out domain loss: {loss_before:.4f} -> {loss_after:.4f}")
        assert loss_after < loss_before
        assert (loss_before - loss_after) / loss_before >= 0.10


def test_criterion_04_metric_oracle_equivalence():
    with criterion(4, "metrics match brute-force oracle on 1000 random sets", 10):
        rng = np.random.default_rng(404)
        for _ in range(1000):
            n_classes = int(rng.integers(2, 9))
            n = int(rng.integers(20, 200))
            labels = rng.integers(0, n_classes, size=n).tolist()
            predictions = rng.integers(0, n_classes, size=n).tolist()

            weighted = classification_metrics(predictions, labels, mode="weighted")
            acc, p, r, f = _oracle_metrics(predictions, labels, "weighted")
            assert abs(weighted.accuracy - acc) < 1e-9
            assert abs(weighted.precision - p) < 1e-9
            assert abs(weighted.recall - r) < 1e-9
            assert abs(weighted.f1 - f) < 1e-9
            assert weighted.recall == weighted.accuracy  # exact identity

            binary_labels = [v % 2 == 0 for v in labels]
            binary_preds = [v % 2 == 0 for v in predictions]
            binary = classification_metrics(binary_preds, binary_labels, mode="binary", positive_label=True)
            acc, p, r, f = _oracle_metrics(binary_preds, binary_labels, "binary", positive=True)
            assert abs(binary.accuracy - acc) < 1e-9
            assert abs(binary.precision - p) < 1e-9
            assert abs(binary.recall - r) < 1e-9
            assert abs(binary.f1 - f) < 1e-9


def test_criterion_05_finetuning_protocol(toy_docs, toy_tokenizer, toy_base_checkpoint):
    with criterion(5, "20-checkpoint selection and accuracy > 0.95", 300):
        config = TrainingConfig(
            learning_rate=1e-3, batch_size=16, epochs=5, eval_checkpoints=20, log_every=50, seed=13
        )
        result = finetune_classifier(
            config, toy_base_checkpoint, "binary", toy_docs[:240], toy_docs[240:280], toy_tokenizer
        )
        assert len(result.checkpoints) == 20
        losses = [m.validation_loss for m in result.checkpoints]
        assert result.best.validation_loss == min(losses)
        assert result.best is select_best_checkpoint(result.checkpoints)
        assert sum(m.is_best for m in result.checkpoints) == 1
        print(f"\n  best step {result.best.step}, validation accuracy {result.metrics.accuracy:.4f}")
        assert result.metrics.accuracy > 0.95


def test_criterion_06_scaling_study(toy_docs, toy_tokenizer, toy_model_config, toy_base_checkpoint):
    with criterion(6, "nested scaling study with non-increasing end-to-end loss", 600):
        fractions = [0.05, 0.25, 1.0]
        train_pool = toy_docs[:240]
        validation = toy_docs[240:280]
        holdout = make_corpus(60, NFC_TOY_CODES + GENERAL_TOY_CODES, seed=55, prefix="hold")

        subsets = nested_subsets(train_pool, fractions, seed=5)
        ids = [set(d.id for d in s) for s in subsets]
        assert ids[0] <= ids[1] <= ids[2]  # exact nesting by id inclusion

        fresh = Checkpoint(
            config=toy_model_config,
            params=init_parameters(toy_model_config, seed=77, include_classifier=False),
            tokenizer_hash=toy_tokenizer.fingerprint(),
        )
        config = TrainingConfig(
            learning_rate=1e-3, batch_size=16, epochs=3, eval_checkpoints=4, log_every=50, seed=13
        )
        with pytest.warns(UserWarning):
            results = scaling_study(
                fractions, config,
                {"domain-adapted": toy_base_checkpoint, "fresh": fresh},
                train_pool, validation, holdout, toy_tokenizer, subset_seed=5,
            )
        for result in results:
            losses = result.holdout_log_losses
            print(f"\n  {result.init_name}: " + " ".join(f"{f}->{l:.4f}" for f, l in zip(fractions, losses)))
            assert losses[-1] <= losses[0]

        # Reported, not asserted: the adapted init tends to sit at or below
        # the fresh init at small fractions.
        by_name = {r.init_name: r.holdout_log_losses for r in results}
        gap = by_name["fresh"][0] - by_name["domain-adapted"][0]
        print(f"  small-fraction gap (fresh - adapted): {gap:+.4f}")


def test_criterion_07_cbtfidf_exactness():
    with criterion(7, "class-based TF-IDF matches hand example and oracle", 5):
        docs = [
            make_document("a", "fuel fuel", [5]),
            make_document("b", "rod", [5]),
            make_document("c", "star star", [1]),
            make_document("d", "star", [1]),
        ]
        assignment = ClusterAssignment({"a": 1, "b": 1, "c": 2, "d": 2}, n_clusters=2)
        summary = cbtfidf_topics(assignment, docs, top_k=3)
        assert abs(summary.scores[1]["fuel"] - (2.0 / 3.0) * math.log(2.0)) < 1e-12

        rng = np.random.default_rng(7)
        vocabulary = [w for code in (5, 14) for w in CODE_POOLS[code]]
        for trial in range(200):
            n_docs = int(rng.integers(4, 10))
            n_clusters = int(rng.integers(1, 4))
            docs, assignments = [], {}
            for i in range(n_docs):
                words = [vocabulary[k] for k in rng.integers(0, len(vocabulary), size=rng.integers(2, 8))]
                doc = make_document(f"r{trial}-{i}", " ".join(words), [5])
                docs.append(doc)
                assignments[doc.id] = int(rng.integers(0, n_clusters + 1))
            present = sorted({c for c in assignments.values() if c > 0})
            if not present:
                continue
            renumber = {old: new for new, old in enumerate(present, start=1)}
            assignments = {k: renumber.get(v, 0) for k, v in assignments.items()}
            ca = ClusterAssignment(assignments, n_clusters=len(present))
            cluster_texts = {
                c: " ".join(d.text for d in docs if assignments[d.id] == c)
                for c in range(1, len(present) + 1)
            }
            summary = cbtfidf_topics(ca, docs, top_k=3)
            expected = _oracle_cbtfidf(cluster_texts, len(docs))
            for c, words in expected.items():
                for word, score in words.items():
                    assert abs(summary.scores[c][word] - score) < 1e-12


def test_criterion_08_tokenizer_roundtrip():
    with criterion(8, "1000-string roundtrip and training determinism", 30):
        rng = np.random.default_rng(808)
        ranges = [
            (0x20, 0x7E),      # printable ascii
            (0x09, 0x0A),      # tab / newline
            (0xA1, 0x2FF),     # latin supplements
            (0x370, 0x3FF),    # greek
            (0x4E00, 0x4FFF),  # cjk
            (0x1F600, 0x1F64F),  # emoji
        ]
        corpus = ["the quick brown fox jumps over the lazy dog"] * 4 + ["packs my box with five dozen jugs"]
        tok = Tokenizer.train(corpus, 300)
        for _ in range(1000):
            length = int(rng.integers(0, 48))
            chars = []
            for _ in range(length):
                lo, hi = ranges[rng.integers(len(ranges))]
                chars.append(chr(int(rng.integers(lo, hi + 1))))
            text = "".join(chars)
            assert tok.decode(tok.encode(text)) == text

        first = train_bpe(corpus, 300)
        second = train_bpe(corpus, 300)
        assert first[0].token_to_id == second[0].token_to_id
        assert first[1].pairs == second[1].pairs
        assert Tokenizer(*first).fingerprint() == Tokenizer(*second).fingerprint()


def test_criterion_09_label_map():
    with criterion(9, "binary label map totality over the category catalog", 1):
        catalog = DEFAULT_LABEL_SCHEME.all_categories
        positives = {code for code in catalog if map_binary_label(code)}
        assert positives == {5, 7, 11, 12, 21, 22, 38, 46, 73}
        assert len(positives) == 9
        assert len(catalog) == 60
        for code in catalog:
            assert isinstance(map_binary_label(code), bool)
        for unknown in (0, 6, 50, 100, -1):
            with pytest.raises(CorpusError):
                map_binary_label(unknown)


def test_criterion_10_hyperparameter_grid(toy_docs, toy_tokenizer, toy_base_checkpoint):
    with criterion(10, "3x2 grid with reproducible best cell", 900):
        base = TrainingConfig(
            learning_rate=1e-5, batch_size=64, epochs=2, eval_checkpoints=3, log_every=50, seed=17
        )
        cells = hyperparameter_grid(
            "binary", base, (1e-5, 2e-5, 5e-5), (16, 64),
            toy_base_checkpoint, toy_docs[:160], toy_docs[160:192], toy_tokenizer,
        )
        assert len(cells) == 6
        assert all(cell.status == "ok" for cell in cells)
        best = min(cells, key=lambda c: c.loss)
        rerun = finetune_classifier(
            replace(base, learning_rate=best.learning_rate, batch_size=best.batch_size),
            toy_base_checkpoint, "binary", toy_docs[:160], toy_docs[160:192], toy_tokenizer,
        )
        print(f"\n  best cell lr={best.learning_rate} batch={best.batch_size} loss={best.loss:.6f}")
        assert abs(rerun.best.validation_loss - best.loss) <= 1e-10


def test_criterion_11_mask_prediction_demo(tmp_path, toy_tokenizer, toy_model_config, capsys):
    with criterion(11, "mask prediction ranks the memorized token first > 0.9", 120):
        tok = toy_tokenizer
        sentence_ids = tok.encode(MEMO_SENTENCE)
        assert [tok.token_text(i).strip() for i in sentence_ids] == MEMO_SENTENCE.split()

        segments = pack_segments(
            (tok.encode(MEMO_SENTENCE) for _ in range(40)), tok.sep_id, len(sentence_ids) + 1
        )
        run = pretrain_mlm(
            TrainingConfig(learning_rate=1e-2, batch_size=8, total_steps=400, log_every=200, seed=41),
            segments, toy_model_config, tok,
        )
        masked_text = MEMO_SENTENCE.replace(" vessel ", " [MASK] ")
        assert masked_text != MEMO_SENTENCE

        rows = predict_top_k(masked_text, 5, ModelBundle(run.checkpoint.params, toy_model_config, tok))
        assert len(rows) == 5
        scores = [s for _, s in rows]
        assert scores == sorted(scores, reverse=True)
        print(f"\n  library top-1: {rows[0][0].strip()!r} at {rows[0][1]:.4f}")
        assert rows[0][0].strip() == "vessel"
        assert rows[0][1] > 0.9

        # Same check through the command-line surface.
        from domainlm import cli

        ckpt_path = tmp_path / "memorized.npz"
        save_checkpoint(run.checkpoint, ckpt_path)
        tok_dir = tmp_path / "tok"
        tok.save(tok_dir)
        capsys.readouterr()
        code = cli.main([
            "mask-predict",
            "--checkpoint", str(ckpt_path),
            "--tokenizer", str(tok_dir),
            "--text", masked_text,
            "--k", "5",
        ])
        out = capsys.readouterr().out
        assert code == 0
        lines = [line for line in out.strip().splitlines() if line]
        first = lines[1].split()
        assert first[0] == "vessel"
        assert float(first[1]) > 0.9
