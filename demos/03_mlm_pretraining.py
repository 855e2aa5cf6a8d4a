"""Masked-token pretraining from scratch on packed segments.

Documents are tokenized, concatenated with separator tokens, and chopped into
fixed-length segments; 15% of non-special positions are corrupted per step
(80% mask / 10% random / 10% kept) and the model learns to restore them.

Run:  python3 demos/03_mlm_pretraining.py
"""

import numpy as np

from domainlm.model import ModelConfig
from domainlm.synthetic import binary_corpus
from domainlm.tokenizer import Tokenizer
from domainlm.training import TrainingConfig, apply_dynamic_masking, pack_segments, pretrain_mlm

docs = binary_corpus(240, seed=11)
tokenizer = Tokenizer.train((d.text for d in docs), 512)
segments = pack_segments((tokenizer.encode(d.text) for d in docs), tokenizer.sep_id, segment_length=32)
print(f"packed {len(docs)} documents into {len(segments)} segments of 32 tokens")

masked = apply_dynamic_masking(segments[0], rng=0, tokenizer=tokenizer)
first = int(masked.target_positions[0])
window = slice(max(0, first - 3), first + 9)
print(f"one masking draw selects {len(masked.target_positions)} of {len(segments[0])} positions:")
print("  original :", " ".join(tokenizer.token_text(i).strip() or "_" for i in segments[0][window]))
print("  corrupted:", " ".join(tokenizer.token_text(i).strip() or "_" for i in masked.input_ids[window]))

model_config = ModelConfig(
    num_layers=2, num_heads=2, hidden_dim=32, ff_dim=64,
    vocab_size=tokenizer.vocab_size, max_positions=64, dropout_rate=0.0,
)
split = int(0.9 * len(segments))
config = TrainingConfig(learning_rate=3e-3, batch_size=16, total_steps=300, log_every=50, seed=5)
result = pretrain_mlm(config, segments[:split], model_config, tokenizer, val_segments=segments[split:])

print(f"\n{'step':>6} {'train loss':>12} {'validation loss':>16}")
for record in result.history:
    print(f"{record.step:>6} {record.train_loss:>12.4f} {record.validation_loss:>16.4f}")

uniform = np.log(tokenizer.vocab_size)
print(f"\nuniform-guess baseline would be ln({tokenizer.vocab_size}) = {uniform:.2f}; "
      f"training reached {result.history[-1].train_loss:.2f}")
