"""Hold-out log-loss as the fine-tuning set grows.

Nested subsets (each larger subset contains the smaller ones) are fine-tuned
under an identical protocol for two encoder inits: one adapted to the task
domain by continued pretraining and one fresh. The tracked quantity is mean
cross-entropy on a hold-out split.

Run:  python3 demos/06_scaling_study.py
"""

import warnings

from domainlm.model import Checkpoint, ModelConfig, init_parameters
from domainlm.synthetic import GENERAL_TOY_CODES, NFC_TOY_CODES, binary_corpus, make_corpus
from domainlm.tokenizer import Tokenizer
from domainlm.training import TrainingConfig, pack_segments, pretrain_mlm, scaling_study, write_scaling_csv

docs = binary_corpus(280, seed=11)
holdout = make_corpus(60, NFC_TOY_CODES + GENERAL_TOY_CODES, seed=55, prefix="hold")
tokenizer = Tokenizer.train((d.text for d in docs), 512)

model_config = ModelConfig(
    num_layers=2, num_heads=2, hidden_dim=32, ff_dim=64,
    vocab_size=tokenizer.vocab_size, max_positions=64, dropout_rate=0.0,
)
print("pretraining the adapted init on task-domain text...")
segments = pack_segments((tokenizer.encode(d.text) for d in docs), tokenizer.sep_id, 32)
adapted = pretrain_mlm(
    TrainingConfig(learning_rate=3e-3, batch_size=16, total_steps=500, log_every=250, seed=3),
    segments, model_config, tokenizer,
).checkpoint
fresh = Checkpoint(
    config=model_config,
    params=init_parameters(model_config, seed=77, include_classifier=False),
    tokenizer_hash=tokenizer.fingerprint(),
)

fractions = [0.05, 0.25, 1.0]
config = TrainingConfig(learning_rate=1e-3, batch_size=16, epochs=3, eval_checkpoints=4, log_every=50, seed=13)
with warnings.catch_warnings():
    warnings.simplefilter("ignore")  # tiny subsets shrink the batch, by design
    results = scaling_study(
        fractions, config, {"domain-adapted": adapted, "fresh": fresh},
        docs[:240], docs[240:], holdout, tokenizer, subset_seed=5,
    )

print(f"\n{'init':<16} " + " ".join(f"{f:>10}" for f in fractions))
for result in results:
    print(f"{result.init_name:<16} " + " ".join(f"{loss:>10.4f}" for loss in result.holdout_log_losses))
print("(each column is hold-out log-loss; training sizes were "
      f"{results[0].train_sizes})")

path = write_scaling_csv(results, "/tmp/domainlm_scaling_study.csv")
print(f"\nplot-ready table written to {path}")
