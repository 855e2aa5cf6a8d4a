"""Continued pretraining on in-domain text, measured two ways.

A model pretrained on general text is evaluated on held-out domain text, then
pretraining continues on domain text and the evaluation repeats (same masking
draw, so the comparison is paired). The masked-token demo shows the same
effect qualitatively: after adaptation the model fills a domain blank with
high confidence.

Run:  python3 demos/04_domain_adaptation_and_mask_prediction.py
"""

from domainlm.evaluation import evaluate_mlm
from domainlm.model import ModelConfig, predict_top_k
from domainlm.synthetic import domain_corpus, general_corpus
from domainlm.tokenizer import Tokenizer
from domainlm.training import TrainingConfig, pack_segments, pretrain_mlm

general = general_corpus(400, seed=21)
domain_train = domain_corpus(400, seed=22)
domain_heldout = domain_corpus(100, seed=23)

tokenizer = Tokenizer.train((d.text for d in general + domain_train), 512)
segment = lambda docs: pack_segments((tokenizer.encode(d.text) for d in docs), tokenizer.sep_id, 32)

model_config = ModelConfig(
    num_layers=2, num_heads=2, hidden_dim=32, ff_dim=64,
    vocab_size=tokenizer.vocab_size, max_positions=64, dropout_rate=0.0,
)

print("pretraining on general text...")
base = pretrain_mlm(
    TrainingConfig(learning_rate=3e-3, batch_size=16, total_steps=400, log_every=200, seed=31),
    segment(general), model_config, tokenizer,
)
before = evaluate_mlm(base.checkpoint.params, model_config, segment(domain_heldout), tokenizer, seed=99)

print("continuing pretraining on domain text...")
adapted = pretrain_mlm(
    TrainingConfig(learning_rate=3e-3, batch_size=16, total_steps=400, log_every=200, seed=32),
    segment(domain_train), base.checkpoint, tokenizer,
)
after = evaluate_mlm(adapted.checkpoint.params, model_config, segment(domain_heldout), tokenizer, seed=99)

print(f"\nheld-out domain masked-token loss: {before:.3f} before adaptation, {after:.3f} after "
      f"({100 * (before - after) / before:.0f}% lower)")

from domainlm.synthetic import CODE_POOLS, NFC_TOY_CODES

domain_words = {w for code in NFC_TOY_CODES for w in CODE_POOLS[code]}
probe = "the neutron [MASK] near the reactor"
print(f"\nfills for {probe!r} (domain words marked *):")
for label, checkpoint in (("general-only", base.checkpoint), ("domain-adapted", adapted.checkpoint)):
    rows = predict_top_k(probe, 5, checkpoint, tokenizer)
    rendered = ", ".join(
        f"{'*' if token.strip() in domain_words else ''}{token.strip()} ({score:.3f})"
        for token, score in rows
    )
    full = predict_top_k(probe, tokenizer.vocab_size, checkpoint, tokenizer)
    domain_mass = sum(score for token, score in full if token.strip() in domain_words)
    print(f"  {label:<15} {rendered}")
    print(f"  {'':<15} probability mass on domain words: {domain_mass:.2f}")
